// Integration tests: run the full pipeline (trace → QoS → policies → risk
// analysis) at reduced scale and assert the paper's qualitative claims —
// the "shape" this reproduction is accountable for. These complement the
// per-package unit tests: a regression anywhere in the stack that flips a
// paper-level conclusion fails here.
package repro_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/risk"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

const integrationJobs = 400

var (
	assessMu    sync.Mutex
	assessCache = map[string]*experiment.Results{}
)

func assessment(t *testing.T, model economy.Model, setB bool) *experiment.Results {
	t.Helper()
	key := model.String() + map[bool]string{false: "A", true: "B"}[setB]
	assessMu.Lock()
	defer assessMu.Unlock()
	if a, ok := assessCache[key]; ok {
		return a
	}
	cfg := experiment.DefaultSuiteConfig(model, setB)
	cfg.Jobs = integrationJobs
	a, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assessCache[key] = a
	return a
}

func seriesByPolicy(t *testing.T, series []risk.Series) map[string]risk.Series {
	t.Helper()
	out := make(map[string]risk.Series, len(series))
	for _, s := range series {
		out[s.Policy] = s
	}
	return out
}

func maxPerf(t *testing.T, s risk.Series) float64 {
	t.Helper()
	sum, err := risk.Summarize(s)
	if err != nil {
		t.Fatal(err)
	}
	return sum.MaxPerformance
}

// Claim (Figs. 3a/b, 6a/b): the Libra family examines jobs at submission
// and is the ideal wait policy — performance 1, volatility 0, in every
// scenario, in both models and both sets.
func TestClaimLibraFamilyIdealWait(t *testing.T) {
	for _, model := range []economy.Model{economy.Commodity, economy.BidBased} {
		for _, setB := range []bool{false, true} {
			a := assessment(t, model, setB)
			series, err := a.SeparateSeries(risk.Wait)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range series {
				if s.Policy != "Libra" && s.Policy != "Libra+$" && s.Policy != "LibraRiskD" {
					continue
				}
				for i, p := range s.Points {
					if p.Performance != 1 || p.Volatility != 0 {
						t.Errorf("%v/%v: %s wait point %d = %+v, want (1,0)", model, setB, s.Policy, i, p)
					}
				}
			}
		}
	}
}

// Claim (Figs. 3e, 6e): with accurate estimates the backfillers' generous
// admission control achieves ideal reliability.
func TestClaimBackfillersIdealReliabilitySetA(t *testing.T) {
	for _, model := range []economy.Model{economy.Commodity, economy.BidBased} {
		a := assessment(t, model, false)
		series, err := a.SeparateSeries(risk.Reliability)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range series {
			switch s.Policy {
			case "FCFS-BF", "SJF-BF", "EDF-BF":
				for i, p := range s.Points {
					if p.Performance < 0.999 {
						t.Errorf("%v: %s reliability point %d = %v, want ~1", model, s.Policy, i, p.Performance)
					}
				}
			}
		}
	}
}

// Claim (Fig. 3e/f): inaccurate estimates degrade the Libra family's
// reliability; the backfillers stay (near) ideal.
func TestClaimInaccuracyDegradesLibraReliability(t *testing.T) {
	setA := seriesByPolicy(t, mustSeparate(t, assessment(t, economy.Commodity, false), risk.Reliability))
	setB := seriesByPolicy(t, mustSeparate(t, assessment(t, economy.Commodity, true), risk.Reliability))
	if minPerf(t, setB["Libra"]) >= minPerf(t, setA["Libra"]) {
		t.Errorf("Libra Set B reliability floor %v not below Set A %v",
			minPerf(t, setB["Libra"]), minPerf(t, setA["Libra"]))
	}
	if minPerf(t, setB["FCFS-BF"]) < 0.99 {
		t.Errorf("FCFS-BF Set B reliability floor %v, want ~1", minPerf(t, setB["FCFS-BF"]))
	}
}

// Claim (Fig. 3g/h): Libra+$'s adaptive pricing earns the highest
// profitability in both sets.
func TestClaimLibraDollarTopProfitability(t *testing.T) {
	for _, setB := range []bool{false, true} {
		a := assessment(t, economy.Commodity, setB)
		series, err := a.SeparateSeries(risk.Profitability)
		if err != nil {
			t.Fatal(err)
		}
		by := seriesByPolicy(t, series)
		dollar := maxPerf(t, by["Libra+$"])
		for name, s := range by {
			if name == "Libra+$" {
				continue
			}
			if maxPerf(t, s) >= dollar {
				t.Errorf("setB=%v: %s profitability %v >= Libra+$ %v", setB, name, maxPerf(t, s), dollar)
			}
		}
	}
}

// Claim (Fig. 6c/d): FirstReward is risk-averse — the worst SLA
// performance of the bid-based policies.
func TestClaimFirstRewardWorstSLA(t *testing.T) {
	for _, setB := range []bool{false, true} {
		a := assessment(t, economy.BidBased, setB)
		by := seriesByPolicy(t, mustSeparate(t, a, risk.SLA))
		fr := maxPerf(t, by["FirstReward"])
		for name, s := range by {
			if name == "FirstReward" {
				continue
			}
			if maxPerf(t, s) <= fr {
				t.Errorf("setB=%v: %s SLA %v <= FirstReward %v", setB, name, maxPerf(t, s), fr)
			}
		}
	}
}

// Claim (Fig. 8b, the paper's headline): under the bid-based model with
// inaccurate estimates, LibraRiskD achieves the best integrated
// performance of all four objectives, and handles the inaccuracy better
// than plain Libra.
func TestClaimLibraRiskDBestBidBasedSetB(t *testing.T) {
	a := assessment(t, economy.BidBased, true)
	series, err := a.IntegratedSeries(risk.AllObjectives)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := risk.RankByPerformance(series)
	if err != nil {
		t.Fatal(err)
	}
	if got := ranked[0].Series.Policy; got != "LibraRiskD" {
		t.Errorf("bid-based Set B winner = %s, want LibraRiskD", got)
	}
	by := seriesByPolicy(t, series)
	if maxPerf(t, by["LibraRiskD"]) <= maxPerf(t, by["Libra"]) {
		t.Errorf("LibraRiskD %v not above Libra %v", maxPerf(t, by["LibraRiskD"]), maxPerf(t, by["Libra"]))
	}
}

// Claim (Fig. 8a): with accurate estimates Libra and LibraRiskD share the
// top of the bid-based integrated analysis.
func TestClaimLibraFamilyTopBidBasedSetA(t *testing.T) {
	a := assessment(t, economy.BidBased, false)
	series, err := a.IntegratedSeries(risk.AllObjectives)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := risk.RankByPerformance(series)
	if err != nil {
		t.Fatal(err)
	}
	if top := ranked[0].Series.Policy; top != "Libra" && top != "LibraRiskD" {
		t.Errorf("bid-based Set A winner = %s, want a Libra-family policy", top)
	}
}

// Claim (§5.2): the generous admission control is what keeps the
// backfillers viable — removing it must hurt reliability under load.
func TestClaimAdmissionControlMatters(t *testing.T) {
	cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
	cfg.Jobs = integrationJobs
	params := experiment.DefaultParams(100)
	params.ArrivalFactor = 0.10 // heavy load
	withAC, err := experiment.RunCell(cfg, params, mustSpec(t, "FCFS-BF"))
	if err != nil {
		t.Fatal(err)
	}
	noAC, err := experiment.RunCell(cfg, params, scheduler.Spec{Name: "FCFS-BF/noAC", New: scheduler.NewFCFSNoAC})
	if err != nil {
		t.Fatal(err)
	}
	if noAC.Reliability >= withAC.Reliability {
		t.Errorf("no-AC reliability %v not below with-AC %v", noAC.Reliability, withAC.Reliability)
	}
}

// The SWF path must reproduce the exact same reports as the in-memory
// path: write the synthetic trace out, read it back, run a policy on both.
func TestSWFPathEquivalence(t *testing.T) {
	synth := workload.DefaultSynthConfig()
	synth.Jobs = 200
	trace, err := workload.Generate(synth, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workload.WriteSWF(&buf, trace, "equivalence test"); err != nil {
		t.Fatal(err)
	}
	back, err := workload.ReadSWF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiment.DefaultSuiteConfig(economy.Commodity, true)
	repA, err := experiment.RunCell(withTrace(cfg, trace), experiment.DefaultParams(100), mustSpec(t, "Libra"))
	if err != nil {
		t.Fatal(err)
	}
	repB, err := experiment.RunCell(withTrace(cfg, back), experiment.DefaultParams(100), mustSpec(t, "Libra"))
	if err != nil {
		t.Fatal(err)
	}
	if repA != repB {
		t.Errorf("SWF round trip changed the report:\n%+v\n%+v", repA, repB)
	}
}

func withTrace(cfg experiment.SuiteConfig, trace []*workload.Job) experiment.SuiteConfig {
	cfg.Trace = workload.CloneAll(trace)
	return cfg
}

func mustSpec(t *testing.T, name string) scheduler.Spec {
	t.Helper()
	spec, err := scheduler.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func mustSeparate(t *testing.T, a *experiment.Results, obj risk.Objective) []risk.Series {
	t.Helper()
	series, err := a.SeparateSeries(obj)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

func minPerf(t *testing.T, s risk.Series) float64 {
	t.Helper()
	sum, err := risk.Summarize(s)
	if err != nil {
		t.Fatal(err)
	}
	return sum.MinPerformance
}

// The headline conclusion must not be a seed lottery: across three
// independently seeded workloads, LibraRiskD's integrated Set B
// performance never falls below plain Libra's.
func TestClaimHeadlineRobustToSeeds(t *testing.T) {
	for _, seed := range []int64{1, 101, 202} {
		cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
		cfg.Jobs = 300
		cfg.TraceSeed = seed
		cfg.QoSSeed = seed + 1
		a, err := experiment.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		series, err := a.IntegratedSeries(risk.AllObjectives)
		if err != nil {
			t.Fatal(err)
		}
		var libra, riskD float64
		for _, s := range series {
			sum, err := risk.Summarize(s)
			if err != nil {
				t.Fatal(err)
			}
			switch s.Policy {
			case "Libra":
				libra = sum.MaxPerformance
			case "LibraRiskD":
				riskD = sum.MaxPerformance
			}
		}
		if riskD < libra-0.02 {
			t.Errorf("seed %d: LibraRiskD %v below Libra %v", seed, riskD, libra)
		}
	}
}
