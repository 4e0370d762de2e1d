package risk

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// Objective identifies one of the four objectives of Table I.
type Objective int

const (
	// Wait is "manage wait time for SLA acceptance" (Eq. 1).
	Wait Objective = iota
	// SLA is "meet SLA requests" (Eq. 2).
	SLA
	// Reliability is "ensure reliability of accepted SLA" (Eq. 3).
	Reliability
	// Profitability is "attain profitability" (Eq. 4).
	Profitability

	// NumObjectives is the number of objectives.
	NumObjectives = 4
)

// AllObjectives lists the objectives in the paper's order.
var AllObjectives = []Objective{Wait, SLA, Reliability, Profitability}

// String returns the paper's abbreviation for the objective.
func (o Objective) String() string {
	switch o {
	case Wait:
		return "wait"
	case SLA:
		return "SLA"
	case Reliability:
		return "reliability"
	case Profitability:
		return "profitability"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Raw extracts the raw value of an objective from a simulation report:
// seconds for wait, percentages for the rest.
func Raw(o Objective, r metrics.Report) float64 {
	switch o {
	case Wait:
		return r.Wait
	case SLA:
		return r.SLA
	case Reliability:
		return r.Reliability
	case Profitability:
		return r.Profitability
	default:
		panic(fmt.Sprintf("risk: unknown objective %d", int(o)))
	}
}

// NormalizeAcross converts raw objective values for a set of policies at
// one scenario point into normalized results in [0,1] (0 = worst, 1 =
// best). Percentages divide by 100 (profitability is clamped: bid-based
// penalties can drive it negative). Wait, which is unbounded and
// lower-is-better, is normalized relative to the worst wait among the
// policies under comparison: 1 − wait/maxWait, and 1 for everyone when all
// waits are zero (see DESIGN.md, substitution 3).
func NormalizeAcross(o Objective, raw map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(raw))
	if o != Wait {
		for k, v := range raw {
			out[k] = stats.Clamp(v/100, 0, 1)
		}
		return out
	}
	max := 0.0
	for _, v := range raw {
		if v > max {
			max = v
		}
	}
	for k, v := range raw {
		if max == 0 { //lint:allow floateq — exact-zero guard: max of non-negative raws is 0 iff all are 0
			out[k] = 1
			continue
		}
		out[k] = stats.Clamp(1-v/max, 0, 1)
	}
	return out
}
