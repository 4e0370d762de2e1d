package workload

import (
	"math"
	"testing"
)

func TestDiurnalValidation(t *testing.T) {
	cfg := DefaultDiurnalConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultDiurnalConfig()
	bad.PeakToTrough = 0.5
	if _, err := GenerateDiurnal(bad, 1); err == nil {
		t.Error("peak:trough < 1 accepted")
	}
	bad = DefaultDiurnalConfig()
	bad.PeakHour = 24
	if _, err := GenerateDiurnal(bad, 1); err == nil {
		t.Error("peak hour 24 accepted")
	}
	bad = DefaultDiurnalConfig()
	bad.Base.Jobs = 0
	if _, err := GenerateDiurnal(bad, 1); err == nil {
		t.Error("bad base config accepted")
	}
}

func TestDiurnalRateFactorShape(t *testing.T) {
	cfg := DefaultDiurnalConfig()
	peak := cfg.rateFactor(cfg.PeakHour * 3600)
	trough := cfg.rateFactor(math.Mod(cfg.PeakHour*3600+12*3600, secondsPerDay))
	if ratio := peak / trough; math.Abs(ratio-cfg.PeakToTrough) > 1e-9 {
		t.Errorf("peak/trough = %v, want %v", ratio, cfg.PeakToTrough)
	}
	// Mean of the factor over a day must be ~1 so the configured mean
	// inter-arrival is preserved.
	sum := 0.0
	const n = 24 * 60
	for i := 0; i < n; i++ {
		sum += cfg.rateFactor(float64(i) * 60)
	}
	if mean := sum / n; math.Abs(mean-1) > 1e-6 {
		t.Errorf("mean rate factor = %v, want 1", mean)
	}
}

func TestDiurnalGenerate(t *testing.T) {
	cfg := DefaultDiurnalConfig()
	cfg.Base.Jobs = 4000
	jobs, err := GenerateDiurnal(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4000 {
		t.Fatalf("generated %d jobs", len(jobs))
	}
	checkTrace(t, jobs)
	ts := Stats(jobs, 128)
	// Mean inter-arrival preserved within tolerance despite the cycle.
	if math.Abs(ts.MeanInterArrival-cfg.Base.MeanInterArrival)/cfg.Base.MeanInterArrival > 0.10 {
		t.Errorf("mean inter-arrival = %v, want ~%v", ts.MeanInterArrival, cfg.Base.MeanInterArrival)
	}
}

func TestDiurnalCycleVisible(t *testing.T) {
	cfg := DefaultDiurnalConfig()
	cfg.Base.Jobs = 8000
	cfg.Base.MeanInterArrival = 300 // many days' worth, dense
	jobs, err := GenerateDiurnal(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	h := HourlyArrivalHistogram(jobs)
	peakHour := int(cfg.PeakHour)
	troughHour := (peakHour + 12) % 24
	if h[peakHour] <= h[troughHour] {
		t.Errorf("peak hour count %d not above trough hour count %d", h[peakHour], h[troughHour])
	}
	// The empirical ratio should be well above 2 for a 5:1 configured
	// cycle (sampling noise allowed).
	if ratio := float64(h[peakHour]) / float64(h[troughHour]); ratio < 2 {
		t.Errorf("empirical peak:trough = %v, want > 2", ratio)
	}
}

func TestDiurnalDeterminism(t *testing.T) {
	cfg := DefaultDiurnalConfig()
	cfg.Base.Jobs = 300
	a, err := GenerateDiurnal(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDiurnal(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("same seed diverged at job %d", i)
		}
	}
}

// HourlyArrivalHistogram bins a trace's submissions by hour of virtual day
// — handy for verifying (and plotting) the cycle.
func HourlyArrivalHistogram(jobs []*Job) [24]int {
	var h [24]int
	for _, j := range jobs {
		hour := int(math.Mod(j.Submit, secondsPerDay) / 3600)
		if hour >= 0 && hour < 24 {
			h[hour]++
		}
	}
	return h
}
