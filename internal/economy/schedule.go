package economy

import "math"

// PriceSchedule quotes the commodity base price in effect at a given
// simulation time. The paper notes commodity prices "can be flat or
// variable" (§5.1) but evaluates only flat pricing; the variable form is
// this repository's revenue-management extension.
type PriceSchedule interface {
	// PriceAt returns the per-second base price at time t.
	PriceAt(t float64) float64
}

// TimeOfDayPrice charges a peak multiple of the base price during a daily
// window — the classic utility tariff, matched to the diurnal arrival
// cycle production workloads exhibit.
type TimeOfDayPrice struct {
	// Base is the off-peak per-second price.
	Base float64
	// PeakFactor multiplies Base during the peak window (>= 1).
	PeakFactor float64
	// PeakStartHour and PeakEndHour bound the daily peak window in hours
	// of virtual day, [start, end) with start < end.
	PeakStartHour, PeakEndHour float64
}

// PriceAt returns the tariff price at time t.
func (p TimeOfDayPrice) PriceAt(t float64) float64 {
	hour := math.Mod(t, 24*3600) / 3600
	if hour >= p.PeakStartHour && hour < p.PeakEndHour {
		return p.Base * p.PeakFactor
	}
	return p.Base
}
