package risk

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestObjectiveNames(t *testing.T) {
	want := []string{"wait", "SLA", "reliability", "profitability"}
	for i, o := range AllObjectives {
		if o.String() != want[i] {
			t.Errorf("objective %d String() = %q, want %q", i, o.String(), want[i])
		}
	}
	if len(AllObjectives) != NumObjectives {
		t.Errorf("AllObjectives has %d entries, want %d", len(AllObjectives), NumObjectives)
	}
}

func TestRawExtraction(t *testing.T) {
	r := metrics.Report{Wait: 12, SLA: 34, Reliability: 56, Profitability: 78}
	if Raw(Wait, r) != 12 || Raw(SLA, r) != 34 || Raw(Reliability, r) != 56 || Raw(Profitability, r) != 78 {
		t.Error("Raw extracted wrong fields")
	}
}

func TestNormalizePercentages(t *testing.T) {
	raw := map[string]float64{"a": 0, "b": 50, "c": 100, "d": -20, "e": 130}
	got := NormalizeAcross(SLA, raw)
	want := map[string]float64{"a": 0, "b": 0.5, "c": 1, "d": 0, "e": 1}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-12 {
			t.Errorf("normalized[%q] = %v, want %v", k, got[k], w)
		}
	}
}

func TestNormalizeWait(t *testing.T) {
	raw := map[string]float64{"libra": 0, "fcfs": 100, "edf": 200}
	got := NormalizeAcross(Wait, raw)
	if got["libra"] != 1 {
		t.Errorf("zero wait normalized to %v, want 1", got["libra"])
	}
	if got["edf"] != 0 {
		t.Errorf("worst wait normalized to %v, want 0", got["edf"])
	}
	if got["fcfs"] != 0.5 {
		t.Errorf("mid wait normalized to %v, want 0.5", got["fcfs"])
	}
	// All-zero waits: everyone ideal.
	got = NormalizeAcross(Wait, map[string]float64{"a": 0, "b": 0})
	if got["a"] != 1 || got["b"] != 1 {
		t.Errorf("all-zero waits normalized to %v", got)
	}
}

// Property: every normalized value is within [0,1] for any input.
func TestNormalizeRangeProperty(t *testing.T) {
	f := func(vals []float64) bool {
		raw := map[string]float64{}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			raw[string(rune('a'+i%26))+string(rune('0'+i/26))] = math.Abs(math.Mod(v, 1e6))
		}
		for _, o := range AllObjectives {
			//lint:allow maporder — all-elements range predicate; early return is order-insensitive
			for _, n := range NormalizeAcross(o, raw) {
				if n < 0 || n > 1 || math.IsNaN(n) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeparate(t *testing.T) {
	p, err := Separate([]float64{0.2, 0.4, 0.6, 0.8, 1.0, 0.0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Performance-0.5) > 1e-12 {
		t.Errorf("performance = %v, want 0.5", p.Performance)
	}
	// Population stddev of {0.2,0.4,0.6,0.8,1.0,0.0}.
	want := math.Sqrt((0.04+0.16+0.36+0.64+1.0+0.0)/6 - 0.25)
	if math.Abs(p.Volatility-want) > 1e-12 {
		t.Errorf("volatility = %v, want %v", p.Volatility, want)
	}
}

func TestSeparateErrors(t *testing.T) {
	if _, err := Separate(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Separate([]float64{1.5}); err == nil {
		t.Error("out-of-range input accepted")
	}
	if _, err := Separate([]float64{math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestEqualWeights(t *testing.T) {
	w3 := EqualWeights([]Objective{Wait, SLA, Reliability})
	if math.Abs(w3[Wait]-1.0/3) > 1e-12 {
		t.Errorf("three-objective weight = %v, want 1/3", w3[Wait])
	}
	if err := w3.Validate(); err != nil {
		t.Error(err)
	}
	w4 := EqualWeights(AllObjectives)
	if w4[Profitability] != 0.25 {
		t.Errorf("four-objective weight = %v, want 0.25", w4[Profitability])
	}
}

func TestWeightsValidate(t *testing.T) {
	if err := (Weights{Wait: 0.5, SLA: 0.6}).Validate(); err == nil {
		t.Error("weights summing to 1.1 accepted")
	}
	if err := (Weights{Wait: -0.5, SLA: 1.5}).Validate(); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestIntegrate(t *testing.T) {
	points := map[Objective]Point{
		Wait:          {Performance: 1.0, Volatility: 0.0},
		SLA:           {Performance: 0.5, Volatility: 0.2},
		Profitability: {Performance: 0.2, Volatility: 0.4},
	}
	w := Weights{Wait: 0.5, SLA: 0.25, Profitability: 0.25}
	got, err := Integrate(points, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Performance-(0.5+0.125+0.05)) > 1e-12 {
		t.Errorf("performance = %v", got.Performance)
	}
	if math.Abs(got.Volatility-(0.05+0.1)) > 1e-12 {
		t.Errorf("volatility = %v", got.Volatility)
	}
}

func TestIntegrateErrors(t *testing.T) {
	if _, err := Integrate(nil, Weights{}); err == nil {
		t.Error("empty integration accepted")
	}
	if _, err := Integrate(map[Objective]Point{}, Weights{Wait: 1}); err == nil {
		t.Error("missing objective point accepted")
	}
	if _, err := Integrate(map[Objective]Point{Wait: {}}, Weights{Wait: 0.5}); err == nil {
		t.Error("weights not summing to 1 accepted")
	}
}

// Table II: the summaries of the reconstructed Figure 1 sample must match
// the paper's values exactly.
func TestTableIISampleSummary(t *testing.T) {
	want := map[string][6]float64{
		// maxPerf, minPerf, perfDiff, maxVol, minVol, volDiff
		"A": {1.0, 1.0, 0.0, 0.0, 0.0, 0.0},
		"B": {0.9, 0.9, 0.0, 0.6, 0.3, 0.3},
		"C": {0.7, 0.2, 0.5, 1.0, 0.3, 0.7},
		"D": {0.7, 0.2, 0.5, 1.0, 0.3, 0.7},
		"E": {0.7, 0.5, 0.2, 0.3, 0.1, 0.2},
		"F": {0.7, 0.2, 0.5, 0.7, 0.3, 0.4},
		"G": {0.7, 0.4, 0.3, 1.0, 0.3, 0.7},
		"H": {0.7, 0.2, 0.5, 1.0, 0.3, 0.7},
	}
	for _, s := range SamplePolicies() {
		sum, err := Summarize(s)
		if err != nil {
			t.Fatal(err)
		}
		w := want[s.Policy]
		got := [6]float64{
			sum.MaxPerformance, sum.MinPerformance, sum.PerformanceDifference,
			sum.MaxVolatility, sum.MinVolatility, sum.VolatilityDifference,
		}
		for i := range w {
			if math.Abs(got[i]-w[i]) > 1e-9 {
				t.Errorf("policy %s summary[%d] = %v, want %v", s.Policy, i, got[i], w[i])
			}
		}
	}
}

// The sample gradients must match Tables III/IV.
func TestSampleGradients(t *testing.T) {
	want := map[string]Gradient{
		"A": GradientNA,
		"B": GradientZero,
		"C": GradientDecreasing,
		"D": GradientDecreasing,
		"E": GradientDecreasing,
		"F": GradientIncreasing,
		"G": GradientIncreasing,
		"H": GradientIncreasing,
	}
	for _, s := range SamplePolicies() {
		if g := TrendGradient(s); g != want[s.Policy] {
			t.Errorf("policy %s gradient = %v, want %v", s.Policy, g, want[s.Policy])
		}
	}
}

// Table III: ranking by best performance. The paper's own criteria order
// the policies A, B, E, G, F, C, D, H (its rank column swaps E and G
// against its stated criteria — see EXPERIMENTS.md).
func TestTableIIIRankByPerformance(t *testing.T) {
	ranked, err := RankByPerformance(SamplePolicies())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "B", "E", "G", "F", "C", "D", "H"}
	for i, w := range want {
		if ranked[i].Series.Policy != w {
			got := make([]string, len(ranked))
			for k, r := range ranked {
				got[k] = r.Series.Policy
			}
			t.Fatalf("performance ranking = %v, want %v", got, want)
		}
		if ranked[i].Rank != i+1 {
			t.Errorf("rank field = %d, want %d", ranked[i].Rank, i+1)
		}
	}
}

// Table IV: ranking by best volatility — matches the paper exactly:
// A, E, B, F, G, C, D, H.
func TestTableIVRankByVolatility(t *testing.T) {
	ranked, err := RankByVolatility(SamplePolicies())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "E", "B", "F", "G", "C", "D", "H"}
	for i, w := range want {
		if ranked[i].Series.Policy != w {
			got := make([]string, len(ranked))
			for k, r := range ranked {
				got[k] = r.Series.Policy
			}
			t.Fatalf("volatility ranking = %v, want %v", got, want)
		}
	}
}

// The concentration tie-break must place C above D in both rankings.
func TestConcentrationBreaksCDTie(t *testing.T) {
	for _, rank := range []func([]Series) ([]Ranked, error){RankByPerformance, RankByVolatility} {
		ranked, err := rank(SamplePolicies())
		if err != nil {
			t.Fatal(err)
		}
		posC, posD := -1, -1
		for i, r := range ranked {
			switch r.Series.Policy {
			case "C":
				posC = i
			case "D":
				posD = i
			}
		}
		if posC >= posD {
			t.Errorf("C ranked at %d, D at %d; want C above D", posC+1, posD+1)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(Series{Policy: "x"}); err == nil {
		t.Error("empty series summarized")
	}
}

func TestTrendGradientEdgeCases(t *testing.T) {
	if g := TrendGradient(Series{Points: []Point{{1, 0}}}); g != GradientNA {
		t.Errorf("single point gradient = %v, want NA", g)
	}
	// Constant volatility, varying performance: vertical, no trend line.
	s := Series{Points: []Point{{0.2, 0.5}, {0.8, 0.5}}}
	if g := TrendGradient(s); g != GradientNA {
		t.Errorf("vertical gradient = %v, want NA", g)
	}
}

func TestGradientString(t *testing.T) {
	for g, want := range map[Gradient]string{
		GradientNA: "NA", GradientZero: "Zero",
		GradientDecreasing: "Decreasing", GradientIncreasing: "Increasing",
	} {
		if g.String() != want {
			t.Errorf("String() = %q, want %q", g.String(), want)
		}
	}
}

func TestRankingTable(t *testing.T) {
	ranked, err := RankByPerformance(SamplePolicies())
	if err != nil {
		t.Fatal(err)
	}
	rows := RankingTable(ranked, false)
	if len(rows) != 9 {
		t.Fatalf("table has %d rows, want 9", len(rows))
	}
	rows = RankingTable(ranked, true)
	if len(rows) != 9 {
		t.Fatalf("volatility table has %d rows, want 9", len(rows))
	}
}

func TestAPrioriProjection(t *testing.T) {
	// A stable policy: high mean, low spread.
	stable := Series{Policy: "stable", Points: []Point{
		{0.9, 0.02}, {0.92, 0.02}, {0.88, 0.02},
	}}
	// A volatile policy: same-ish mean, wild spread.
	volatile := Series{Policy: "volatile", Points: []Point{
		{0.99, 0.4}, {0.85, 0.4}, {0.9, 0.4},
	}}
	ps, err := Project(stable)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := Project(volatile)
	if err != nil {
		t.Fatal(err)
	}
	if ps.RiskBelow(0.7) >= pv.RiskBelow(0.7) {
		t.Errorf("stable risk %v not below volatile risk %v", ps.RiskBelow(0.7), pv.RiskBelow(0.7))
	}
	best, err := SafestPolicy([]Projection{ps, pv}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if best.Policy != "stable" {
		t.Errorf("safest = %q, want stable", best.Policy)
	}
}

func TestAPrioriDegenerate(t *testing.T) {
	ideal := Series{Policy: "ideal", Points: []Point{{1, 0}, {1, 0}}}
	p, err := Project(ideal)
	if err != nil {
		t.Fatal(err)
	}
	if p.RiskBelow(0.5) != 0 {
		t.Errorf("ideal policy risk = %v, want 0", p.RiskBelow(0.5))
	}
	if p.RiskBelow(1.5) != 1 {
		t.Errorf("impossible target risk = %v, want 1", p.RiskBelow(1.5))
	}
	if _, err := Project(Series{}); err == nil {
		t.Error("empty series projected")
	}
	if _, err := SafestPolicy(nil, 0.5); err == nil {
		t.Error("empty projection list accepted")
	}
}

// Property: RiskBelow is monotone in the target.
func TestRiskBelowMonotoneProperty(t *testing.T) {
	p := Projection{Policy: "p", Mean: 0.6, Spread: 0.2}
	f := func(a, b float64) bool {
		a, b = math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)
		if a > b {
			a, b = b, a
		}
		return p.RiskBelow(a) <= p.RiskBelow(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeriesLabel(t *testing.T) {
	s := Series{Policy: "p", Points: []Point{{}, {}}, Labels: []string{"first"}}
	if s.Label(0) != "first" {
		t.Errorf("Label(0) = %q", s.Label(0))
	}
	if s.Label(1) != "1" {
		t.Errorf("Label(1) = %q, want index fallback", s.Label(1))
	}
}

// Integration must be bit-deterministic regardless of map iteration order:
// repeated calls with the same inputs return identical points.
func TestIntegrateDeterministic(t *testing.T) {
	points := map[Objective]Point{
		Wait:          {Performance: 0.123456789, Volatility: 0.01},
		SLA:           {Performance: 0.987654321, Volatility: 0.02},
		Reliability:   {Performance: 0.555555555, Volatility: 0.03},
		Profitability: {Performance: 0.333333333, Volatility: 0.04},
	}
	w := EqualWeights(AllObjectives)
	first, err := Integrate(points, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		got, err := Integrate(points, w)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("iteration %d produced %v, first was %v", i, got, first)
		}
	}
}

// QualifySeries relabels without recomputing: every policy gains the
// @qualifier suffix while points and labels stay the same values, and the
// input series are left untouched.
func TestQualifySeries(t *testing.T) {
	in := []Series{
		{Policy: "Libra", Points: []Point{{Performance: 1, Volatility: 2}}, Labels: []string{"workload"}},
		{Policy: "FCFS-BF", Points: []Point{{Performance: 3, Volatility: 4}}},
	}
	out := QualifySeries(in, "fast")
	if len(out) != len(in) {
		t.Fatalf("QualifySeries returned %d series, want %d", len(out), len(in))
	}
	if out[0].Policy != "Libra@fast" || out[1].Policy != "FCFS-BF@fast" {
		t.Errorf("qualified names %q, %q", out[0].Policy, out[1].Policy)
	}
	if in[0].Policy != "Libra" || in[1].Policy != "FCFS-BF" {
		t.Errorf("inputs mutated: %q, %q", in[0].Policy, in[1].Policy)
	}
	if out[0].Points[0] != in[0].Points[0] || out[0].Label(0) != "workload" {
		t.Error("qualification changed points or labels")
	}
}

func TestMostVolatileScenario(t *testing.T) {
	s := Series{
		Policy: "p",
		Points: []Point{{0.9, 0.1}, {0.5, 0.4}, {0.7, 0.2}},
		Labels: []string{"job mix", "workload", "inaccuracy"},
	}
	idx, label, err := MostVolatileScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || label != "workload" {
		t.Errorf("attribution = %d/%q, want 1/workload", idx, label)
	}
	if _, _, err := MostVolatileScenario(Series{Policy: "e"}); err == nil {
		t.Error("empty series accepted")
	}
}
