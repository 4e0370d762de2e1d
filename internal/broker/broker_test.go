package broker

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// brokerWorkload builds a small synthesized QoS workload for broker tests.
func brokerWorkload(t *testing.T, jobs int, seed int64) []*workload.Job {
	t.Helper()
	synth := workload.DefaultSynthConfig()
	synth.Jobs = jobs
	trace, err := workload.Generate(synth, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := qos.Synthesize(trace, qos.DefaultConfig(seed+1)); err != nil {
		t.Fatal(err)
	}
	return trace
}

// qosJob hand-builds a valid job for targeted routing tests.
func qosJob(id int, submit float64, procs int, runtime float64) *workload.Job {
	return &workload.Job{
		ID: id, Submit: submit, Runtime: runtime, Estimate: runtime * 1.2,
		Procs: procs, Deadline: runtime * 20, Budget: 1e7,
	}
}

func TestFederationValidate(t *testing.T) {
	ok := Federation{Clusters: []ClusterSpec{
		{Name: "a", Nodes: 8},
		{Name: "b", Nodes: 16, Speed: 1.5, PriceFactor: 0.8, FaultIntensity: faults.High},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid federation rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		fed  Federation
		want string
	}{
		{"empty", Federation{}, "no clusters"},
		{"unnamed", Federation{Clusters: []ClusterSpec{{Nodes: 8}}}, "no name"},
		{"duplicate", Federation{Clusters: []ClusterSpec{{Name: "a", Nodes: 8}, {Name: "a", Nodes: 4}}}, "duplicate"},
		{"size", Federation{Clusters: []ClusterSpec{{Name: "a", Nodes: 0}}}, "non-positive size"},
		{"speed", Federation{Clusters: []ClusterSpec{{Name: "a", Nodes: 8, Speed: -1}}}, "negative speed"},
		{"price", Federation{Clusters: []ClusterSpec{{Name: "a", Nodes: 8, PriceFactor: -0.1}}}, "negative price"},
		{"intensity", Federation{Clusters: []ClusterSpec{{Name: "a", Nodes: 8, FaultIntensity: "extreme"}}}, "unknown intensity"},
	} {
		err := tc.fed.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestFederationHelpers(t *testing.T) {
	fed := Federation{Clusters: []ClusterSpec{
		{Name: "a", Nodes: 64},
		{Name: "b", Nodes: 128, Speed: 2, PriceFactor: 0.5},
	}}
	if got := fed.MaxNodes(); got != 128 {
		t.Errorf("MaxNodes = %d, want 128", got)
	}
	if got := fed.TotalNodes(); got != 192 {
		t.Errorf("TotalNodes = %d, want 192", got)
	}
	parts := fed.KeyParts()
	want := []string{"a", "64", "1", "1", "none", "b", "128", "2", "0.5", "none"}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("KeyParts = %q, want %q", parts, want)
	}

	single := Federation{Clusters: []ClusterSpec{{Name: "only", Nodes: 128}}}
	if !single.EquivalentToSingle(128, faults.High) {
		t.Error("neutral 1×128 federation not equivalent to the plain 128-node run")
	}
	if single.EquivalentToSingle(64, faults.None) {
		t.Error("1×128 federation claims equivalence to a 64-node run")
	}
	if fed.EquivalentToSingle(128, faults.None) {
		t.Error("2-cluster federation claims single-cluster equivalence")
	}
	pinned := Federation{Clusters: []ClusterSpec{{Name: "only", Nodes: 128, FaultIntensity: faults.Low}}}
	if !pinned.EquivalentToSingle(128, faults.Low) {
		t.Error("matching pinned intensity should be equivalent")
	}
	if pinned.EquivalentToSingle(128, faults.High) {
		t.Error("mismatched pinned intensity should not be equivalent")
	}
	sped := Federation{Clusters: []ClusterSpec{{Name: "only", Nodes: 128, Speed: 2}}}
	if sped.EquivalentToSingle(128, faults.None) {
		t.Error("non-neutral speed should not be equivalent")
	}
}

// The degenerate case of the whole design: a 1-cluster neutral federation
// must reproduce scheduler.Run bit for bit, for every Table V policy under
// every model, with and without faults.
func TestSingleClusterMatchesSchedulerRun(t *testing.T) {
	jobs := brokerWorkload(t, 120, 17)
	horizon := faults.JobsHorizon(jobs)
	fed := Federation{Clusters: []ClusterSpec{{Name: "solo", Nodes: 128}}}
	for _, intensity := range []faults.Intensity{faults.None, faults.High} {
		for _, spec := range scheduler.Specs() {
			for _, m := range spec.Models {
				cfg := scheduler.RunConfig{Nodes: 128, Model: m, BasePrice: economy.DefaultBasePrice}
				var fcfgs []*faults.Config
				if intensity.Enabled() {
					f := intensity.Config(7, horizon)
					cfg.Faults = &f
					fc := f
					fcfgs = []*faults.Config{&fc}
				}
				want, err := scheduler.Run(workload.CloneAll(jobs), spec.New, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(workload.CloneAll(jobs), fed, spec.New, RunConfig{Model: m, Faults: fcfgs})
				if err != nil {
					t.Fatal(err)
				}
				if res.Federation != want {
					t.Errorf("%s/%s/%s: federated report diverged:\nwant %+v\ngot  %+v",
						spec.Name, m, intensity, want, res.Federation)
				}
				if res.Clusters[0].Report != want {
					t.Errorf("%s/%s/%s: cluster report != federation report in 1-cluster federation", spec.Name, m, intensity)
				}
				if res.Clusters[0].Routed != len(jobs) {
					t.Errorf("%s/%s/%s: routed %d of %d jobs", spec.Name, m, intensity, res.Clusters[0].Routed, len(jobs))
				}
				for _, r := range placements(t, workload.CloneAll(jobs), fed, spec.New, RunConfig{Model: m, Faults: fcfgs}, res) {
					if r.cluster != 0 {
						t.Fatalf("%s: job %d routed to cluster %d in a 1-cluster federation", spec.Name, r.jobID, r.cluster)
					}
				}
				if res.RoutingDigest == "" {
					t.Error("empty routing digest")
				}
			}
		}
	}
}

// With identical machines and a flat commodity price, a cheaper cluster
// wins every shop (rule 2 of the tie-break).
func TestRoutingPrefersCheaperCluster(t *testing.T) {
	jobs := brokerWorkload(t, 60, 5)
	fed := Federation{Clusters: []ClusterSpec{
		{Name: "pricey", Nodes: 128, PriceFactor: 2},
		{Name: "cheap", Nodes: 128},
	}}
	res, err := Run(jobs, fed, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters[0].Routed != 0 || res.Clusters[1].Routed != len(jobs) {
		t.Errorf("routed %d/%d to pricey/cheap, want 0/%d",
			res.Clusters[0].Routed, res.Clusters[1].Routed, len(jobs))
	}
}

// With equal prices and equal machines, the quote ties and availability
// decides (rule 3): a job that saturates cluster 0 pushes the next job to
// the idle cluster 1.
func TestRoutingSpreadsByAvailability(t *testing.T) {
	fed := Federation{Clusters: []ClusterSpec{
		{Name: "east", Nodes: 8},
		{Name: "west", Nodes: 8},
	}}
	b, err := New(fed, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity})
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 ties everywhere and lands on east by index (rule 5). Job 2
	// finds east occupied until t=1000 and goes west.
	jobs := []*workload.Job{qosJob(1, 0, 8, 1000), qosJob(2, 0, 8, 1000)}
	for i, wantCluster := range []int{0, 1} {
		ci, err := b.place(jobs[i])
		if err != nil {
			t.Fatal(err)
		}
		if ci != wantCluster {
			t.Errorf("job %d routed to cluster %d, want %d", i+1, ci, wantCluster)
		}
		for _, c := range b.scratch {
			if c.Quote <= 0 {
				t.Errorf("job %d: cluster %d quoted %v, want > 0", i+1, c.Cluster, c.Quote)
			}
		}
	}
	res := b.Finalize()
	if res.Clusters[0].Routed != 1 || res.Clusters[1].Routed != 1 {
		t.Errorf("routed %d/%d, want 1/1", res.Clusters[0].Routed, res.Clusters[1].Routed)
	}
	// The batch Run places the same two jobs identically.
	run, err := Run(workload.CloneAll(jobs), fed, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity})
	if err != nil {
		t.Fatal(err)
	}
	if run.RoutingDigest != res.RoutingDigest {
		t.Errorf("Run routing digest %s differs from the step-by-step placement's %s", run.RoutingDigest, res.RoutingDigest)
	}
}

// A job only one cluster can host takes the forced-choice fast path.
func TestRoutingForcedByWidth(t *testing.T) {
	fed := Federation{Clusters: []ClusterSpec{
		{Name: "small", Nodes: 4},
		{Name: "big", Nodes: 64},
	}}
	b, err := New(fed, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity})
	if err != nil {
		t.Fatal(err)
	}
	ci, err := b.place(qosJob(1, 0, 32, 100))
	if err != nil {
		t.Fatal(err)
	}
	if ci != 1 {
		t.Errorf("wide job routed to cluster %d, want 1 (big)", ci)
	}
	if len(b.scratch) != 0 {
		t.Errorf("forced choice shopped %d candidates, want none", len(b.scratch))
	}
	if res := b.Finalize(); res.Clusters[1].Routed != 1 {
		t.Errorf("big cluster routed %d jobs, want 1", res.Clusters[1].Routed)
	}
}

func TestPickClusterOrder(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		cands []Candidate
		want  int
	}{
		{"empty", nil, -1},
		{"single", []Candidate{{Cluster: 3, Quote: 5}}, 3},
		{"finite beats shrunken", []Candidate{
			{Cluster: 0, Quote: 1, Available: inf},
			{Cluster: 1, Quote: 9, Available: 50}}, 1},
		{"lower quote", []Candidate{
			{Cluster: 0, Quote: 2, Available: 0},
			{Cluster: 1, Quote: 1, Available: 99}}, 1},
		{"earlier availability on quote tie", []Candidate{
			{Cluster: 0, Quote: 1, Available: 10},
			{Cluster: 1, Quote: 1, Available: 5}}, 1},
		{"lower risk on full tie", []Candidate{
			{Cluster: 0, Quote: 1, Available: 5, Risk: 0.5},
			{Cluster: 1, Quote: 1, Available: 5, Risk: 0.1}}, 1},
		{"index breaks the last tie", []Candidate{
			{Cluster: 2, Quote: 1, Available: 5},
			{Cluster: 7, Quote: 1, Available: 5}}, 2},
		{"NaN quote falls through to availability", []Candidate{
			{Cluster: 0, Quote: nan, Available: 9},
			{Cluster: 1, Quote: 1, Available: 5}}, 1},
		{"both shrunken falls through to quote", []Candidate{
			{Cluster: 0, Quote: 2, Available: inf},
			{Cluster: 1, Quote: 1, Available: inf}}, 1},
	} {
		if got := PickCluster(tc.cands); got != tc.want {
			t.Errorf("%s: PickCluster = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBrokerErrors(t *testing.T) {
	fed := Federation{Clusters: []ClusterSpec{{Name: "a", Nodes: 8}}}
	if _, err := New(Federation{}, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity}); err == nil {
		t.Error("New accepted an empty federation")
	}
	if _, err := New(fed, scheduler.NewFCFSBF, RunConfig{
		Model: economy.Commodity, Faults: []*faults.Config{nil, nil}}); err == nil {
		t.Error("New accepted a mismatched fault-config count")
	}

	b, err := New(fed, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.place(qosJob(3, 100, 1, 10)); err != nil {
		t.Fatal(err)
	}
	first := b.Finalize()
	if again := b.Finalize(); again != first {
		t.Error("Finalize not idempotent")
	}

	// Run checks every job up front, as scheduler.Run does.
	if _, err := Run([]*workload.Job{qosJob(1, 0, 9, 10)}, fed, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity}); err == nil {
		t.Error("Run accepted a job wider than every cluster")
	}
	if _, err := Run([]*workload.Job{qosJob(2, 100, 1, 10), qosJob(3, 0, 1, 10)}, fed, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity}); err == nil {
		t.Error("Run accepted out-of-order jobs")
	}
	if _, err := Run([]*workload.Job{{ID: 1, Submit: 0, Runtime: 10, Estimate: 12, Procs: 1}}, fed, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity}); err == nil {
		t.Error("Run accepted a job without QoS")
	}
	if _, err := Run([]*workload.Job{{ID: 0}}, fed, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity}); err == nil {
		t.Error("Run accepted an invalid job")
	}
	if _, err := Run(nil, Federation{}, scheduler.NewFCFSBF, RunConfig{Model: economy.Commodity}); err == nil {
		t.Error("Run accepted an empty federation")
	}
}

func TestMergeReports(t *testing.T) {
	a := metrics.Report{
		Submitted: 10, Accepted: 8, SLAFulfilled: 6, Killed: 1, Finished: 7,
		Wait: 10, MeanSlowdown: 2, MeanResponseTime: 100,
		TotalUtility: 50, TotalBudget: 100, Utilization: 0.5,
	}
	bb := metrics.Report{
		Submitted: 30, Accepted: 20, SLAFulfilled: 12, Killed: 3, Finished: 14,
		Wait: 20, MeanSlowdown: 4, MeanResponseTime: 300,
		TotalUtility: 70, TotalBudget: 300, Utilization: 0.9,
	}
	merged := MergeReports([]ClusterReport{
		{Name: "a", Nodes: 100, Report: a},
		{Name: "b", Nodes: 300, Report: bb},
	})
	if merged.Submitted != 40 || merged.Accepted != 28 || merged.SLAFulfilled != 18 ||
		merged.Killed != 4 || merged.Finished != 21 {
		t.Errorf("count sums wrong: %+v", merged)
	}
	if merged.TotalUtility != a.TotalUtility+bb.TotalUtility {
		t.Errorf("utility not conserved: %v", merged.TotalUtility)
	}
	if merged.TotalBudget != a.TotalBudget+bb.TotalBudget {
		t.Errorf("budget not conserved: %v", merged.TotalBudget)
	}
	if want := (10.0*6 + 20.0*12) / 18; merged.Wait != want {
		t.Errorf("Wait = %v, want %v", merged.Wait, want)
	}
	if want := (2.0*7 + 4.0*14) / 21; merged.MeanSlowdown != want {
		t.Errorf("MeanSlowdown = %v, want %v", merged.MeanSlowdown, want)
	}
	if want := (100.0*7 + 300.0*14) / 21; merged.MeanResponseTime != want {
		t.Errorf("MeanResponseTime = %v, want %v", merged.MeanResponseTime, want)
	}
	if want := (0.5*100 + 0.9*300) / 400; merged.Utilization != want {
		t.Errorf("Utilization = %v, want %v", merged.Utilization, want)
	}
	if want := float64(18) / 40 * 100; merged.SLA != want {
		t.Errorf("SLA = %v, want %v", merged.SLA, want)
	}
	if want := float64(18) / 28 * 100; merged.Reliability != want {
		t.Errorf("Reliability = %v, want %v", merged.Reliability, want)
	}
	if want := 120.0 / 400 * 100; merged.Profitability != want {
		t.Errorf("Profitability = %v, want %v", merged.Profitability, want)
	}

	// A single cluster is returned verbatim — bitwise, not recomputed.
	if got := MergeReports([]ClusterReport{{Name: "a", Nodes: 100, Report: a}}); got != a {
		t.Errorf("single-cluster merge not verbatim: %+v", got)
	}
	// All-zero reports exercise the division guards.
	if got := MergeReports([]ClusterReport{{Name: "a", Nodes: 1}, {Name: "b", Nodes: 1}}); got != (metrics.Report{}) {
		t.Errorf("zero merge = %+v, want zero report", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MergeReports(nil) did not panic")
		}
	}()
	MergeReports(nil)
}
