package stats

import "math"

// Welford is an online mean/variance accumulator (Welford 1962). One pass,
// O(1) state, numerically stable — the streaming counterpart of Mean/StdDev
// for contexts that cannot hold the sample slice, such as the sliding risk
// windows in internal/streamrisk.
//
// Welford's recurrence is not bit-identical to the two-pass StdDev above:
// the update order differs, so the last ulp can differ. Code that must match
// the offline computation exactly (the cumulative stream-risk scores) uses
// risk.ScoreSums instead, which replays StdDev's exact operation order.
//
// The zero value is an empty accumulator, ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean, or 0 with no samples.
func (w Welford) Mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.mean
}

// Variance returns the running population variance, or 0 for fewer than two
// samples (matching StdDev's convention).
func (w Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	v := w.m2 / float64(w.n)
	if v < 0 { // floating point guard
		v = 0
	}
	return v
}

// StdDev returns the running population standard deviation.
func (w Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
