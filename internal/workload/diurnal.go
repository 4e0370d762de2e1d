package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// DiurnalConfig extends the synthetic generator with the daily arrival
// cycle production traces exhibit (Lublin & Feitelson): submissions are a
// non-homogeneous Poisson process whose rate swings between a night-time
// trough and a daytime peak. The paper's trace-driven evaluation inherits
// the SDSC trace's own cycle; this generator lets the robustness benches
// check that the policy orderings survive explicitly cyclical load.
type DiurnalConfig struct {
	// Base is the underlying shape configuration; its MeanInterArrival
	// sets the cycle's average rate.
	Base SynthConfig
	// PeakToTrough is the ratio of the peak arrival rate to the trough
	// rate (≥ 1; production traces show 3–10).
	PeakToTrough float64
	// PeakHour is the hour of virtual day at which the rate peaks.
	PeakHour float64
}

// DefaultDiurnalConfig returns the SDSC-calibrated shape with a 5:1 daily
// cycle peaking mid-afternoon.
//
//lint:allow deadcode — ablation workload; BenchmarkDiurnalRobustness and BenchmarkAblationVariablePricing in bench_test.go generate it
func DefaultDiurnalConfig() DiurnalConfig {
	return DiurnalConfig{
		Base:         DefaultSynthConfig(),
		PeakToTrough: 5,
		PeakHour:     15,
	}
}

// Validate checks the configuration.
func (c *DiurnalConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.PeakToTrough < 1 {
		return fmt.Errorf("workload: diurnal: peak:trough ratio %v < 1", c.PeakToTrough)
	}
	if c.PeakHour < 0 || c.PeakHour >= 24 {
		return fmt.Errorf("workload: diurnal: peak hour %v outside [0,24)", c.PeakHour)
	}
	return nil
}

const secondsPerDay = 24 * 3600

// rateFactor returns the instantaneous arrival-rate multiplier at virtual
// time t: a raised cosine between trough and peak with mean 1, so the
// trace keeps the configured mean inter-arrival time.
func (c *DiurnalConfig) rateFactor(t float64) float64 {
	// amplitude a in [0,1): factor = 1 + a·cos(phase), peak/trough =
	// (1+a)/(1−a)  =>  a = (r−1)/(r+1).
	a := (c.PeakToTrough - 1) / (c.PeakToTrough + 1)
	phase := 2 * math.Pi * (math.Mod(t, secondsPerDay)/secondsPerDay - c.PeakHour/24)
	return 1 + a*math.Cos(phase)
}

// GenerateDiurnal produces a deterministic synthetic trace whose arrivals
// follow the daily cycle (thinning a homogeneous Poisson process at the
// peak rate), with the same runtime/width/estimate model as Generate.
//
//lint:allow deadcode — ablation workload; BenchmarkDiurnalRobustness and BenchmarkAblationVariablePricing in bench_test.go generate it
func GenerateDiurnal(cfg DiurnalConfig, seed int64) ([]*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRand(seed)
	peakFactor := 1 + (cfg.PeakToTrough-1)/(cfg.PeakToTrough+1)
	// Peak instantaneous rate (jobs/s); candidate arrivals are drawn at
	// this rate and thinned by rateFactor/peakFactor.
	peakRate := peakFactor / cfg.Base.MeanInterArrival
	jobs := make([]*Job, 0, cfg.Base.Jobs)
	now := 0.0
	for len(jobs) < cfg.Base.Jobs {
		now += stats.Exponential(rng, 1/peakRate)
		if !stats.Choice(rng, cfg.rateFactor(now)/peakFactor) {
			continue
		}
		runtime := stats.LogNormalFromMeanCV(rng, cfg.Base.MeanRuntime, cfg.Base.RuntimeCV)
		runtime = stats.Clamp(runtime, 1, cfg.Base.MaxRuntime)
		width := cfg.Base.Widths[stats.WeightedIndex(rng, cfg.Base.WidthWeights)]
		jobs = append(jobs, &Job{
			ID:       len(jobs) + 1,
			Submit:   math.Floor(now),
			Runtime:  math.Ceil(runtime),
			Estimate: synthesizeEstimate(rng, cfg.Base, runtime),
			Procs:    width,
		})
	}
	return jobs, nil
}
