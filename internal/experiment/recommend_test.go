package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/economy"
	"repro/internal/risk"
)

// smallAssessment runs a full suite (every scenario, value and policy) at
// test scale.
func smallAssessment(t *testing.T, model economy.Model, setB bool) *Results {
	t.Helper()
	cfg := smallSuite(model, setB)
	cfg.Jobs = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAssessAndRecommend(t *testing.T) {
	res := smallAssessment(t, economy.Commodity, false)
	if res.Model != economy.Commodity {
		t.Errorf("Model = %v", res.Model)
	}
	rec, err := res.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Set != "Set A" {
		t.Errorf("Set = %q", rec.Set)
	}
	if len(rec.PerObjective) != risk.NumObjectives {
		t.Fatalf("PerObjective has %d entries", len(rec.PerObjective))
	}
	valid := map[string]bool{}
	for _, p := range res.Policies {
		valid[p] = true
	}
	for obj, p := range rec.PerObjective {
		if !valid[p] {
			t.Errorf("recommendation for %v is unknown policy %q", obj, p)
		}
	}
	if !valid[rec.Overall] || !valid[rec.OverallSafest] {
		t.Errorf("overall recommendations unknown: %q / %q", rec.Overall, rec.OverallSafest)
	}
	// The wait objective must recommend a Libra-family policy: they are
	// the only ones with ideal zero wait.
	if p := rec.PerObjective[risk.Wait]; p != "Libra" && p != "Libra+$" {
		t.Errorf("wait recommendation = %q, want a Libra-family policy", p)
	}
}

func TestSeparateAndIntegratedShapes(t *testing.T) {
	res := smallAssessment(t, economy.BidBased, true)
	sep, err := res.SeparateSeries(risk.Profitability)
	if err != nil {
		t.Fatal(err)
	}
	if len(sep) != 5 {
		t.Fatalf("separate series = %d, want 5", len(sep))
	}
	integ, err := res.IntegratedSeries(risk.AllObjectives)
	if err != nil {
		t.Fatal(err)
	}
	if len(integ) != 5 {
		t.Fatalf("integrated series = %d, want 5", len(integ))
	}
	for _, s := range integ {
		if len(s.Points) != 12 {
			t.Fatalf("%s has %d points, want 12", s.Policy, len(s.Points))
		}
	}
}

func TestIntegratedWeighted(t *testing.T) {
	res := smallAssessment(t, economy.Commodity, false)
	// All weight on wait: every Libra-family point must be ideal.
	series, err := res.IntegratedSeriesWeighted([]risk.Objective{risk.Wait}, risk.Weights{risk.Wait: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if s.Policy != "Libra" && s.Policy != "Libra+$" {
			continue
		}
		for _, p := range s.Points {
			if p.Performance != 1 || p.Volatility != 0 {
				t.Errorf("%s wait-only integrated point = %+v, want (1,0)", s.Policy, p)
			}
		}
	}
}

func TestBestRankings(t *testing.T) {
	res := smallAssessment(t, economy.Commodity, false)
	series, err := res.IntegratedSeries(risk.AllObjectives)
	if err != nil {
		t.Fatal(err)
	}
	perf, err := risk.RankByPerformance(series)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := risk.RankByVolatility(series)
	if err != nil {
		t.Fatal(err)
	}
	if perf[0].Rank != 1 || vol[0].Rank != 1 {
		t.Errorf("winners not rank 1: %d, %d", perf[0].Rank, vol[0].Rank)
	}
}

func TestAPriori(t *testing.T) {
	res := smallAssessment(t, economy.Commodity, false)
	projections, err := res.APriori(risk.AllObjectives, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(projections) != 5 {
		t.Fatalf("%d projections, want 5", len(projections))
	}
	for _, p := range projections {
		r := p.RiskBelow(0.5)
		if r < 0 || r > 1 {
			t.Errorf("%s risk = %v outside [0,1]", p.Policy, r)
		}
	}
	if _, err := res.APriori(risk.AllObjectives, 1.5); err == nil {
		t.Error("target 1.5 accepted")
	}
}

// Saved results (riskbench's results.json, read back by ReadJSON) keep
// their model and recommend exactly what the live results do: the
// analysis needs no re-simulation.
func TestRecommendFromSavedResults(t *testing.T) {
	res := smallAssessment(t, economy.Commodity, false)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Model != res.Model {
		t.Error("saved results lost the model")
	}
	want, err := res.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Recommend()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("saved results recommend %+v, live results %+v", got, want)
	}
}

// A suite the default config cannot run is rejected before any analysis.
func TestAssessPropagatesSuiteError(t *testing.T) {
	cfg := DefaultSuiteConfig(economy.Commodity, false)
	cfg.Jobs = 0
	if _, err := Run(cfg); err == nil {
		t.Error("bad suite config accepted")
	}
}

func TestIntegratedErrorPropagation(t *testing.T) {
	res := smallAssessment(t, economy.Commodity, false)
	// Bad weights must surface as an error.
	if _, err := res.IntegratedSeriesWeighted([]risk.Objective{risk.Wait}, risk.Weights{risk.Wait: 0.5}); err == nil {
		t.Error("weights not summing to 1 accepted")
	}
	if _, err := res.IntegratedSeries(nil); err == nil {
		t.Error("empty objective combination accepted")
	}
	if _, err := res.APriori(nil, 0.5); err == nil {
		t.Error("a-priori over no objectives accepted")
	}
}
