package economy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func bidJob() *workload.Job {
	return &workload.Job{
		ID: 1, Submit: 100, Runtime: 50, Estimate: 60, Procs: 1,
		Deadline: 200, Budget: 1000, PenaltyRate: 5,
	}
}

func TestDelay(t *testing.T) {
	j := bidJob()
	if d := Delay(j, 250); d != 0 {
		t.Errorf("on-time delay = %v, want 0", d)
	}
	if d := Delay(j, 300); d != 0 {
		t.Errorf("exactly-at-deadline delay = %v, want 0", d)
	}
	if d := Delay(j, 360); d != 60 {
		t.Errorf("delay = %v, want 60", d)
	}
}

// Figure 2: the utility is flat at the budget until the deadline, then
// decreases linearly at the penalty rate, crossing zero and continuing
// unbounded.
func TestPenaltyFunctionShape(t *testing.T) {
	j := bidJob()
	deadline := j.Submit + j.Deadline // absolute: 300
	if u := BidUtility(j, deadline-100); u != j.Budget {
		t.Errorf("utility before deadline = %v, want full budget %v", u, j.Budget)
	}
	if u := BidUtility(j, deadline); u != j.Budget {
		t.Errorf("utility at deadline = %v, want full budget %v", u, j.Budget)
	}
	// Linear decline: slope must equal -PenaltyRate.
	u1 := BidUtility(j, deadline+10)
	u2 := BidUtility(j, deadline+20)
	if slope := (u2 - u1) / 10; math.Abs(slope+j.PenaltyRate) > 1e-12 {
		t.Errorf("slope = %v, want %v", slope, -j.PenaltyRate)
	}
	// Crosses zero at deadline + budget/penaltyRate = 300 + 200.
	if u := BidUtility(j, 500); math.Abs(u) > 1e-12 {
		t.Errorf("utility at zero-crossing = %v, want 0", u)
	}
	// Unbounded below.
	if u := BidUtility(j, 10000); u >= 0 {
		t.Errorf("late utility = %v, want negative (unbounded penalty)", u)
	}
}

// Property: utility is monotonically non-increasing in finish time and
// never exceeds the budget.
func TestBidUtilityMonotoneProperty(t *testing.T) {
	f := func(f1, f2 uint32) bool {
		j := bidJob()
		a, b := float64(f1%100000), float64(f2%100000)
		if a > b {
			a, b = b, a
		}
		ua, ub := BidUtility(j, a), BidUtility(j, b)
		return ua >= ub && ua <= j.Budget && ub <= j.Budget
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBaseCharge(t *testing.T) {
	if got := BaseCharge(600, 1.0); got != 600 {
		t.Errorf("BaseCharge = %v, want 600", got)
	}
	// Over-estimation inflates the commodity charge (paper's Set B note).
	if BaseCharge(1200, 1.0) <= BaseCharge(600, 1.0) {
		t.Error("larger estimate must cost more")
	}
}

func TestLibraCharge(t *testing.T) {
	// γ=δ=1: charge = tr + tr/d.
	if got := LibraCharge(100, 400, 1, 1); math.Abs(got-100.25) > 1e-12 {
		t.Errorf("LibraCharge = %v, want 100.25", got)
	}
	// Incentive: a longer deadline must cost less.
	tight := LibraCharge(100, 110, 1, 1)
	loose := LibraCharge(100, 1000, 1, 1)
	if tight <= loose {
		t.Errorf("tight deadline charge %v not above loose %v", tight, loose)
	}
}

func TestLibraDollarPricePerSec(t *testing.T) {
	// Empty node after commitment of 0.5: P = 1 + 0.3/0.5 = 1.6.
	if got := LibraDollarPricePerSec(1, 1, 0.3, 0.5); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("price = %v, want 1.6", got)
	}
	// Price grows as the node saturates.
	if LibraDollarPricePerSec(1, 1, 0.3, 0.1) <= LibraDollarPricePerSec(1, 1, 0.3, 0.9) {
		t.Error("price must increase with utilization")
	}
	// Saturated node: finite but very large.
	p := LibraDollarPricePerSec(1, 1, 0.3, 0)
	if math.IsInf(p, 0) || p < 100 {
		t.Errorf("saturated price = %v, want large finite", p)
	}
	// β=0 disables the dynamic component.
	if got := LibraDollarPricePerSec(1, 1, 0, 0.01); got != 1 {
		t.Errorf("static-only price = %v, want 1", got)
	}
}

func TestLibraDollarCharge(t *testing.T) {
	if got := LibraDollarCharge(100, []float64{1.2, 1.6, 1.1}); math.Abs(got-160) > 1e-12 {
		t.Errorf("charge = %v, want 160 (highest node price)", got)
	}
	if got := LibraDollarCharge(100, nil); got != 0 {
		t.Errorf("charge with no nodes = %v, want 0", got)
	}
}

func TestModelString(t *testing.T) {
	if Commodity.String() != "commodity" || BidBased.String() != "bid-based" {
		t.Error("Model.String() wrong")
	}
	if Model(9).String() == "" {
		t.Error("unknown model has empty String()")
	}
}

func TestBoundedBidUtility(t *testing.T) {
	j := bidJob() // budget 1000, deadline abs 300, rate 5
	if u := BoundedBidUtility(j, 250); u != 1000 {
		t.Errorf("on-time bounded utility = %v, want full budget", u)
	}
	// Moderate lateness: identical to the unbounded form.
	if u, want := BoundedBidUtility(j, 400), BidUtility(j, 400); u != want {
		t.Errorf("moderate lateness bounded = %v, want %v", u, want)
	}
	// Extreme lateness: floored at −budget.
	if u := BoundedBidUtility(j, 1e9); u != -1000 {
		t.Errorf("extreme lateness bounded = %v, want -1000", u)
	}
	if BidUtility(j, 1e9) >= -1000 {
		t.Error("unbounded utility should be far below the floor here")
	}
}

func TestTimeOfDayPrice(t *testing.T) {
	p := TimeOfDayPrice{Base: 1, PeakFactor: 3, PeakStartHour: 9, PeakEndHour: 17}
	if got := p.PriceAt(8 * 3600); got != 1 {
		t.Errorf("price at 08:00 = %v, want 1 (off-peak)", got)
	}
	if got := p.PriceAt(12 * 3600); got != 3 {
		t.Errorf("price at 12:00 = %v, want 3 (peak)", got)
	}
	if got := p.PriceAt(17 * 3600); got != 1 {
		t.Errorf("price at 17:00 = %v, want 1 (window is half-open)", got)
	}
	// Next day's noon is peak again.
	if got := p.PriceAt(36 * 3600); got != 3 {
		t.Errorf("price at day 2 noon = %v, want 3", got)
	}
}
