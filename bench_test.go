// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus the ablations
// DESIGN.md calls out. The simulation suites that feed the figure benches
// are computed once per (model, set) at benchmark scale and cached; each
// benchmark iteration then performs the full analysis and rendering for
// its table or figure. cmd/riskbench produces the paper-scale outputs.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/plot"
	"repro/internal/qos"
	"repro/internal/risk"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// benchJobs keeps the cached suites fast while preserving contention; the
// paper scale (5000 jobs) is exercised by BenchmarkPaperScaleSimulation.
const benchJobs = 300

var (
	suiteMu    sync.Mutex
	suiteCache = map[string]*experiment.Results{}
)

func benchSuite(b *testing.B, model economy.Model, setB bool) *experiment.Results {
	b.Helper()
	key := fmt.Sprintf("%v-%v", model, setB)
	suiteMu.Lock()
	defer suiteMu.Unlock()
	if res, ok := suiteCache[key]; ok {
		return res
	}
	cfg := experiment.DefaultSuiteConfig(model, setB)
	cfg.Jobs = benchJobs
	res, err := experiment.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	suiteCache[key] = res
	return res
}

// ---- Figure 1 and Tables II–IV: the sample risk analysis plot ----

func BenchmarkFigure1SamplePlot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sample := risk.SamplePolicies()
		_ = plot.ASCII(sample, plot.Config{Title: "Figure 1", XMax: 1})
		_ = plot.SVG(sample, plot.Config{Title: "Figure 1", XMax: 1, TrendLines: true})
	}
}

func BenchmarkTableIISummary(b *testing.B) {
	sample := risk.SamplePolicies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, s := range sample {
			if _, err := risk.Summarize(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTableIIIRankByPerformance(b *testing.B) {
	sample := risk.SamplePolicies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := risk.RankByPerformance(sample); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVRankByVolatility(b *testing.B) {
	sample := risk.SamplePolicies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := risk.RankByVolatility(sample); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 2: the bid-based penalty function ----

func BenchmarkFigure2Penalty(b *testing.B) {
	j := &workload.Job{
		ID: 1, Submit: 0, Runtime: 3600, Estimate: 3600, Procs: 1,
		Deadline: 7200, Budget: 1000, PenaltyRate: 0.5,
	}
	b.ReportAllocs()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		for finish := 0.0; finish <= 20000; finish += 100 {
			sink += economy.BidUtility(j, finish)
		}
	}
	_ = sink
}

// ---- Figures 3–8: the evaluation suites ----

// separateBench regenerates one separate-analysis figure panel set (all
// four objectives of Figure 3 or 6 for one Set).
func separateBench(b *testing.B, model economy.Model, setB bool) {
	res := benchSuite(b, model, setB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, obj := range risk.AllObjectives {
			series, err := res.SeparateSeries(obj)
			if err != nil {
				b.Fatal(err)
			}
			_ = plot.GnuplotData(series)
		}
	}
}

// integrated3Bench regenerates the four three-objective panels (Figure 4
// or 7 for one Set).
func integrated3Bench(b *testing.B, model economy.Model, setB bool) {
	res := benchSuite(b, model, setB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, combo := range experiment.ObjectiveTriples() {
			series, err := res.IntegratedSeries(combo)
			if err != nil {
				b.Fatal(err)
			}
			_ = plot.GnuplotData(series)
		}
	}
}

// integrated4Bench regenerates the all-objectives panel (Figure 5 or 8 for
// one Set) including the rankings.
func integrated4Bench(b *testing.B, model economy.Model, setB bool) {
	res := benchSuite(b, model, setB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := res.IntegratedSeries(risk.AllObjectives)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := risk.RankByPerformance(series); err != nil {
			b.Fatal(err)
		}
		_ = plot.GnuplotData(series)
	}
}

func BenchmarkFigure3CommoditySeparateSetA(b *testing.B) { separateBench(b, economy.Commodity, false) }
func BenchmarkFigure3CommoditySeparateSetB(b *testing.B) { separateBench(b, economy.Commodity, true) }
func BenchmarkFigure4CommodityTriplesSetA(b *testing.B) {
	integrated3Bench(b, economy.Commodity, false)
}
func BenchmarkFigure4CommodityTriplesSetB(b *testing.B) { integrated3Bench(b, economy.Commodity, true) }
func BenchmarkFigure5CommodityAllSetA(b *testing.B)     { integrated4Bench(b, economy.Commodity, false) }
func BenchmarkFigure5CommodityAllSetB(b *testing.B)     { integrated4Bench(b, economy.Commodity, true) }
func BenchmarkFigure6BidBasedSeparateSetA(b *testing.B) { separateBench(b, economy.BidBased, false) }
func BenchmarkFigure6BidBasedSeparateSetB(b *testing.B) { separateBench(b, economy.BidBased, true) }
func BenchmarkFigure7BidBasedTriplesSetA(b *testing.B)  { integrated3Bench(b, economy.BidBased, false) }
func BenchmarkFigure7BidBasedTriplesSetB(b *testing.B)  { integrated3Bench(b, economy.BidBased, true) }
func BenchmarkFigure8BidBasedAllSetA(b *testing.B)      { integrated4Bench(b, economy.BidBased, false) }
func BenchmarkFigure8BidBasedAllSetB(b *testing.B)      { integrated4Bench(b, economy.BidBased, true) }

// BenchmarkSuite measures one full suite run (12 scenarios × 6 values × 5
// policies) at bench scale — the simulation cost behind each figure.
func BenchmarkSuite(b *testing.B) {
	for _, tc := range []struct {
		name  string
		model economy.Model
		setB  bool
	}{
		{"Commodity/SetA", economy.Commodity, false},
		{"Commodity/SetB", economy.Commodity, true},
		{"BidBased/SetA", economy.BidBased, false},
		{"BidBased/SetB", economy.BidBased, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := experiment.DefaultSuiteConfig(tc.model, tc.setB)
			cfg.Jobs = benchJobs
			for i := 0; i < b.N; i++ {
				if _, err := experiment.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPaperScaleSimulation runs one 5000-job, 128-node simulation per
// policy — the paper's full trace subset.
func BenchmarkPaperScaleSimulation(b *testing.B) {
	for _, spec := range scheduler.Specs() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			cfg := experiment.DefaultSuiteConfig(spec.Models[0], true)
			cfg.Jobs = 5000
			params := experiment.DefaultParams(100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := experiment.RunCell(cfg, params, spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.SLA, "SLA%")
					b.ReportMetric(rep.Profitability, "profit%")
				}
			}
		})
	}
}

// ---- Ablations (DESIGN.md) ----

// BenchmarkAblationWeights compares integrated rankings under the paper's
// equal weights against provider-centric and user-centric weightings.
func BenchmarkAblationWeights(b *testing.B) {
	res := benchSuite(b, economy.Commodity, true)
	weightings := map[string]risk.Weights{
		"equal": risk.EqualWeights(risk.AllObjectives),
		"provider-centric": {
			risk.Wait: 0.1, risk.SLA: 0.1, risk.Reliability: 0.1, risk.Profitability: 0.7,
		},
		"user-centric": {
			risk.Wait: 0.3, risk.SLA: 0.3, risk.Reliability: 0.3, risk.Profitability: 0.1,
		},
	}
	for name, w := range weightings {
		w := w
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				series, err := res.IntegratedSeriesWeighted(risk.AllObjectives, w)
				if err != nil {
					b.Fatal(err)
				}
				ranked, err := risk.RankByPerformance(series)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("%s winner: %s", name, ranked[0].Series.Policy)
				}
			}
		})
	}
}

// BenchmarkAblationSlackThreshold sweeps FirstReward's slack threshold —
// the knob the paper notes is non-trivial to set.
func BenchmarkAblationSlackThreshold(b *testing.B) {
	cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
	cfg.Jobs = 1000
	for _, threshold := range []float64{0, 5, 25, 100, 500} {
		threshold := threshold
		b.Run(fmt.Sprintf("threshold=%g", threshold), func(b *testing.B) {
			spec := scheduler.Spec{
				Name: "FirstReward",
				New: func(ctx *scheduler.Context) scheduler.Policy {
					return scheduler.NewFirstRewardTuned(ctx, 1, 0.01, threshold)
				},
			}
			for i := 0; i < b.N; i++ {
				rep, err := experiment.RunCell(cfg, experiment.DefaultParams(100), spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.SLA, "SLA%")
					b.ReportMetric(rep.Profitability, "profit%")
				}
			}
		})
	}
}

// BenchmarkAblationBeta sweeps Libra+$'s dynamic-pricing weight β
// (the paper uses 0.3).
func BenchmarkAblationBeta(b *testing.B) {
	cfg := experiment.DefaultSuiteConfig(economy.Commodity, true)
	cfg.Jobs = 1000
	for _, beta := range []float64{0, 0.1, 0.3, 1, 3} {
		beta := beta
		b.Run(fmt.Sprintf("beta=%g", beta), func(b *testing.B) {
			spec := scheduler.Spec{
				Name: "Libra+$",
				New: func(ctx *scheduler.Context) scheduler.Policy {
					return scheduler.NewLibraDollarTuned(ctx, economy.DefaultAlpha, beta)
				},
			}
			for i := 0; i < b.N; i++ {
				rep, err := experiment.RunCell(cfg, experiment.DefaultParams(100), spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.SLA, "SLA%")
					b.ReportMetric(rep.Profitability, "profit%")
				}
			}
		})
	}
}

// BenchmarkAblationPenaltyBound compares FirstReward under the paper's
// unbounded penalties against the bounded variant of Irwin et al.: bounded
// exposure makes the policy less risk-averse (more accepted jobs, higher
// SLA) at the price of penalty payments.
func BenchmarkAblationPenaltyBound(b *testing.B) {
	cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
	cfg.Jobs = 1000
	for _, tc := range []struct {
		name string
		new  scheduler.Factory
	}{
		{"unbounded", scheduler.NewFirstReward},
		{"bounded", scheduler.NewFirstRewardBounded},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := scheduler.Spec{Name: "FirstReward/" + tc.name, New: tc.new}
			for i := 0; i < b.N; i++ {
				rep, err := experiment.RunCell(cfg, experiment.DefaultParams(100), spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.SLA, "SLA%")
					b.ReportMetric(rep.Profitability, "profit%")
				}
			}
		})
	}
}

// BenchmarkAblationAdmissionControl quantifies the paper's §5.2 remark
// that backfilling policies without admission control "perform much
// worse, especially when deadlines of jobs are short".
func BenchmarkAblationAdmissionControl(b *testing.B) {
	cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
	cfg.Jobs = 1000
	params := experiment.DefaultParams(100)
	params.DeadlineMean = 2 // short deadlines, the paper's stress case
	for _, tc := range []struct {
		name string
		new  scheduler.Factory
	}{
		{"FCFS-BF", scheduler.NewFCFSBF},
		{"FCFS-BF/noAC", scheduler.NewFCFSNoAC},
		{"EDF-BF", scheduler.NewEDFBF},
		{"EDF-BF/noAC", scheduler.NewEDFNoAC},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := scheduler.Spec{Name: tc.name, New: tc.new}
			for i := 0; i < b.N; i++ {
				rep, err := experiment.RunCell(cfg, params, spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.Reliability, "reliability%")
					b.ReportMetric(rep.Profitability, "profit%")
				}
			}
		})
	}
}

// BenchmarkDiurnalRobustness reruns the headline bid-based Set B
// comparison on a workload with an explicit 5:1 daily arrival cycle: the
// LibraRiskD > Libra ordering should survive cyclical load.
func BenchmarkDiurnalRobustness(b *testing.B) {
	dcfg := workload.DefaultDiurnalConfig()
	dcfg.Base.Jobs = 1000
	trace, err := workload.GenerateDiurnal(dcfg, 21)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
	cfg.Trace = trace
	for _, name := range []string{"Libra", "LibraRiskD"} {
		name := name
		b.Run(name, func(b *testing.B) {
			spec, err := scheduler.SpecByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				rep, err := experiment.RunCell(cfg, experiment.DefaultParams(100), spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.Reliability, "reliability%")
					b.ReportMetric(rep.Profitability, "profit%")
				}
			}
		})
	}
}

// BenchmarkAblationBackfillVariant compares EASY against conservative
// backfilling (Mu'alem & Feitelson's two classic variants) on the paper's
// workload: EASY typically fulfils slightly more SLAs; conservative gives
// every queued job a firm reservation.
func BenchmarkAblationBackfillVariant(b *testing.B) {
	cfg := experiment.DefaultSuiteConfig(economy.Commodity, true)
	cfg.Jobs = 1000
	for _, tc := range []struct {
		name string
		new  scheduler.Factory
	}{
		{"EASY", scheduler.NewFCFSBF},
		{"conservative", scheduler.NewFCFSConservative},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := scheduler.Spec{Name: tc.name, New: tc.new}
			for i := 0; i < b.N; i++ {
				rep, err := experiment.RunCell(cfg, experiment.DefaultParams(100), spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.SLA, "SLA%")
					b.ReportMetric(rep.Wait, "wait_s")
				}
			}
		})
	}
}

// BenchmarkAblationHeterogeneity runs rating-blind policies on a
// homogeneous machine vs a heterogeneous one of equal aggregate capacity
// (half the nodes at 1.5×, half at 0.5×). Libra's share admission assumes
// reference-speed nodes and loses reliability on the slow half; FCFS-BF's
// fastest-first allocation degrades more gracefully (its admission
// re-checks at start time, and only the slow-node placements overrun their
// believed windows).
func BenchmarkAblationHeterogeneity(b *testing.B) {
	ratings := make([]float64, 128)
	for i := range ratings {
		if i < 64 {
			ratings[i] = 1.5
		} else {
			ratings[i] = 0.5
		}
	}
	for _, tc := range []struct {
		name    string
		factory scheduler.Factory
		ratings []float64
	}{
		{"Libra/homogeneous", scheduler.NewLibra, nil},
		{"Libra/heterogeneous", scheduler.NewLibra, ratings},
		{"FCFS-BF/homogeneous", scheduler.NewFCFSBF, nil},
		{"FCFS-BF/heterogeneous", scheduler.NewFCFSBF, ratings},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trace, err := workload.Generate(func() workload.SynthConfig {
					c := workload.DefaultSynthConfig()
					c.Jobs = 1000
					return c
				}(), 1)
				if err != nil {
					b.Fatal(err)
				}
				if err := qosSynth(trace, 0); err != nil {
					b.Fatal(err)
				}
				rep, err := scheduler.Run(trace, tc.factory, scheduler.RunConfig{
					Nodes: 128, Model: economy.Commodity, BasePrice: 1, NodeRatings: tc.ratings,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.Reliability, "reliability%")
					b.ReportMetric(rep.SLA, "SLA%")
				}
			}
		})
	}
}

// qosSynth attaches default QoS parameters for the benches that drive
// scheduler.Run directly.
func qosSynth(jobs []*workload.Job, inaccuracy float64) error {
	cfg := qos.DefaultConfig(2)
	cfg.InaccuracyPct = inaccuracy
	return qos.Synthesize(jobs, cfg)
}

// BenchmarkAblationTermination compares plain Libra with the deadline
// termination extension (the paper's non-preemption future-work issue) on
// the bid-based Set B workload: killing hopeless jobs caps unbounded
// penalty exposure.
func BenchmarkAblationTermination(b *testing.B) {
	cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
	cfg.Jobs = 1000
	for _, tc := range []struct {
		name string
		new  scheduler.Factory
	}{
		{"Libra", scheduler.NewLibra},
		{"LibraT", scheduler.NewLibraTerminate},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := scheduler.Spec{Name: tc.name, New: tc.new}
			for i := 0; i < b.N; i++ {
				rep, err := experiment.RunCell(cfg, experiment.DefaultParams(100), spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.Profitability, "profit%")
					b.ReportMetric(rep.SLA, "SLA%")
				}
			}
		})
	}
}

// BenchmarkAblationGuaranteedAdmission compares QoPS (schedulability
// guarantee at submission, the paper's reference [13]) against EDF-BF's
// best-effort generous admission: with exact estimates QoPS holds
// reliability at exactly 100% by construction; the price is paid in
// acceptance rate.
func BenchmarkAblationGuaranteedAdmission(b *testing.B) {
	cfg := experiment.DefaultSuiteConfig(economy.Commodity, false)
	cfg.Jobs = 1000
	for _, tc := range []struct {
		name string
		new  scheduler.Factory
	}{
		{"QoPS", scheduler.NewQoPS},
		{"EDF-BF", scheduler.NewEDFBF},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := scheduler.Spec{Name: tc.name, New: tc.new}
			for i := 0; i < b.N; i++ {
				rep, err := experiment.RunCell(cfg, experiment.DefaultParams(0), spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.SLA, "SLA%")
					b.ReportMetric(rep.Reliability, "reliability%")
					b.ReportMetric(rep.Wait, "wait_s")
				}
			}
		})
	}
}

// BenchmarkAblationVariablePricing pairs the diurnal workload with a
// time-of-day tariff (the paper's unexplored "variable" commodity pricing,
// §5.1): peak pricing trades acceptance for per-job revenue.
func BenchmarkAblationVariablePricing(b *testing.B) {
	dcfg := workload.DefaultDiurnalConfig()
	dcfg.Base.Jobs = 1000
	trace, err := workload.GenerateDiurnal(dcfg, 33)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		prices economy.PriceSchedule
	}{
		{"flat", nil}, // nil Prices charges BasePrice at all times
		{"peak2x", economy.TimeOfDayPrice{Base: 1, PeakFactor: 2, PeakStartHour: 9, PeakEndHour: 17}},
		{"peak4x", economy.TimeOfDayPrice{Base: 1, PeakFactor: 4, PeakStartHour: 9, PeakEndHour: 17}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				jobs := workload.CloneAll(trace)
				if err := qosSynth(jobs, 0); err != nil {
					b.Fatal(err)
				}
				rep, err := scheduler.Run(jobs, scheduler.NewFCFSBF, scheduler.RunConfig{
					Nodes: 128, Model: economy.Commodity, BasePrice: 1, Prices: tc.prices,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(rep.SLA, "SLA%")
					b.ReportMetric(rep.Profitability, "profit%")
				}
			}
		})
	}
}
