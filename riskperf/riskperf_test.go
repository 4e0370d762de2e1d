package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/streamrisk"
)

func TestQuantilesComeFromExactSamples(t *testing.T) {
	var s samples
	for i := 10; i >= 1; i-- {
		s.add(time.Duration(i) * time.Millisecond)
	}
	for _, c := range []struct {
		q      float64
		ms     float64
		beyond int
	}{{0.5, 5, 5}, {0.9, 9, 1}, {0.99, 10, 0}, {0.999, 10, 0}, {0, 1, 9}} {
		if got := s.ms(c.q); got != c.ms {
			t.Errorf("p%v = %vms, want %vms", 100*c.q, got, c.ms)
		}
		if got := s.beyond(c.q); got != c.beyond {
			t.Errorf("p%v has %d samples beyond, want %d", 100*c.q, got, c.beyond)
		}
	}
	// A failed request is a +Inf sample: it lands in the tail, never below
	// a real latency, and the quantiles below it stay exact.
	s.addFailed()
	if got := s.ms(1); !math.IsInf(got, 1) {
		t.Errorf("max with a failed request = %v, want +Inf", got)
	}
	if got := s.ms(0.5); got != 6 {
		t.Errorf("p50 with a failed request = %vms, want 6ms", got)
	}
	if got := tailQuantile(1000); got != 0.99 {
		t.Errorf("tail quantile of 1000 samples = %v, want 0.99", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
}

func TestCheckDigests(t *testing.T) {
	digests := make([]string, inputSets+2)
	for i := range digests {
		digests[i] = string(rune('a' + i%inputSets))
	}
	checked, bad := checkDigests(digests, []string{"a", "b"})
	if checked != 4 {
		t.Errorf("checked %d digests, want input sets 0 and 1, twice each", checked)
	}
	for i, b := range bad {
		if b {
			t.Errorf("digest %d reported bad", i)
		}
	}
	// A corrupted reference fails every suite that ran its input set.
	_, bad = checkDigests(digests, []string{"a", "corrupted"})
	for i, b := range bad {
		if want := i%inputSets == 1; b != want {
			t.Errorf("digest %d bad = %v, want %v", i, b, want)
		}
	}
	// Without references (a seed that has none) nothing is compared.
	if checked, _ := checkDigests(digests, nil); checked != 0 {
		t.Errorf("checked %d digests without references", checked)
	}
}

func TestSessionJournalsMatchOfflineReplay(t *testing.T) {
	rec := newRecorder(true)
	f, err := bootFleet(7, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	var next int
	c := drive(f, rec, &next, 0)
	if c.failed != 0 || len(c.runs) != 1 {
		t.Fatalf("one session: %d failed requests, %d finished sessions", c.failed, len(c.runs))
	}
	runs := c.runs
	if want := int64(1 + 2*jobsPerSess + 3); c.requests != want {
		t.Errorf("%d requests, want %d", c.requests, want)
	}
	replays, mismatched, err := verifySessions(f.list, runs, rec)
	if err != nil || mismatched != 0 {
		t.Fatalf("verify: %d mismatched, err %v", mismatched, err)
	}
	if rp := replays[runs[0].id]; len(rp.submit) != jobsPerSess {
		t.Errorf("replay timed %d submits, want %d", len(rp.submit), jobsPerSess)
	}
	// The matched spans give every layer a self time.
	m := metricSet{}
	fleetSpanMetrics(m, rec.all(), replays)
	for _, name := range []string{"load.client_us", "control.self_us", "serve.handler_us", "streamrisk.snapshot_us"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}

	runs[0].journal[0] ^= 1
	if _, mismatched, err := verifySessions(f.list, runs, rec); err != nil || mismatched != 1 {
		t.Errorf("corrupted journal: %d mismatched, err %v; want 1", mismatched, err)
	}
}

// TestDeltaSeq pins the untraced subscriber's shortcut to the encoding
// streamrisk writes: the sequence number comes first.
func TestDeltaSeq(t *testing.T) {
	raw, err := json.Marshal(streamrisk.Delta{Seq: 4711, Kind: streamrisk.DeltaDecision, Session: "s-1"})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := deltaSeq(raw); err != nil || seq != 4711 {
		t.Errorf("deltaSeq = %d, %v; want 4711", seq, err)
	}
	if _, err := deltaSeq([]byte(`{"kind":"decision","seq":1}`)); err == nil {
		t.Error("deltaSeq accepted a delta that does not open with its sequence")
	}
}

func TestRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("drives each fleet mix for a second")
	}
	for _, c := range []struct{ workload, trace string }{
		{"fleet-observe", "0"}, {"fleet-observe", "1"},
	} {
		trace := c.trace
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", c.workload, "--seed", "3", "--seconds", "1", "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("%s trace %s: exit %d: %s", c.workload, trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultJSON
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace == "1" {
			want = perLayer()
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
			t.Fatalf("trace %s: correct %v, attempted %d, failed %d, %d metrics (want %d)",
				trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(want))
		}
		for _, s := range want {
			if got, ok := res.Metrics[s.name]; !ok || got.Unit != s.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, s.name, got, s.unit)
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, which names the
// benchmark's workloads and metrics, in step with what this program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []metric
		prog []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer()}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", c.kind, len(c.json), len(c.prog))
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program",
					c.kind, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

func TestBrokenCells(t *testing.T) {
	good := metrics.Report{Submitted: 10, Accepted: 6, SLAFulfilled: 5, Killed: 1}
	halves := []metrics.Report{
		{Submitted: 4, Accepted: 2, SLAFulfilled: 2},
		{Submitted: 6, Accepted: 4, SLAFulfilled: 3, Killed: 1},
	}
	res := &experiment.Results{
		Policies: []string{"Libra"},
		Clusters: []string{"ref", "fast"},
		Scenarios: []experiment.ScenarioResult{{
			Values:         []float64{1, 2},
			Reports:        []map[string]metrics.Report{{"Libra": good}, {"Libra": good}},
			ClusterReports: []map[string][]metrics.Report{{"Libra": halves}, {"Libra": halves}},
		}},
	}
	if n := brokenCells(res, 10); n != 0 {
		t.Fatalf("%d broken cells in consistent results", n)
	}
	if n := brokenCells(res, 11); n != 2 {
		t.Errorf("a lost job: %d broken cells, want 2", n)
	}
	res.Scenarios[0].ClusterReports[1] = map[string][]metrics.Report{"Libra": {halves[0], halves[0]}}
	if n := brokenCells(res, 10); n != 1 {
		t.Errorf("clusters that do not sum to the federation: %d broken cells, want 1", n)
	}
}
