package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestWelfordMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.Float64()
			w.Add(xs[i])
		}
		if w.n != int64(n) {
			t.Fatalf("trial %d: count = %d, want %d", trial, w.n, n)
		}
		if got, want := w.Mean(), Mean(xs); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: Mean = %v, want %v", trial, got, want)
		}
		if got, want := w.StdDev(), StdDev(xs); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: StdDev = %v, want %v", trial, got, want)
		}
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.n != 0 || w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatalf("zero-value Welford not zero: %+v", w)
	}
	w.Add(0.25)
	if got := w.Mean(); got != 0.25 {
		t.Fatalf("Mean after one sample = %v, want 0.25", got)
	}
	if got := w.StdDev(); got != 0 {
		t.Fatalf("StdDev after one sample = %v, want 0 (population convention)", got)
	}
}

func TestWelfordStableOnShiftedData(t *testing.T) {
	// The classic catastrophic-cancellation case for the naive sum-of-squares
	// form: tiny variance around a huge mean. Welford must stay accurate.
	var w Welford
	base := 1e9
	for i := 0; i < 1000; i++ {
		w.Add(base + float64(i%2)) // alternates base, base+1
	}
	if got, want := w.Variance(), 0.25; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
}

func TestWelfordNegativeVarianceGuard(t *testing.T) {
	// Identical samples can leave m2 at a tiny negative residue; Variance
	// must clamp rather than hand NaN to Sqrt.
	var w Welford
	for i := 0; i < 10; i++ {
		w.Add(0.1)
	}
	if v := w.Variance(); v < 0 || math.IsNaN(v) {
		t.Fatalf("Variance = %v, want >= 0", v)
	}
	if s := w.StdDev(); math.IsNaN(s) {
		t.Fatalf("StdDev = NaN")
	}
}
