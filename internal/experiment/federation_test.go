package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/broker"
	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// mustSpec resolves a policy spec by name.
func mustSpec(t *testing.T, name string) scheduler.Spec {
	t.Helper()
	spec, err := scheduler.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// testFederation is the 4-cluster heterogeneous federation used by the
// suite-level federation tests, sized for smallSuite's 32-wide workload.
func testFederation() *broker.Federation {
	return &broker.Federation{Clusters: []broker.ClusterSpec{
		{Name: "ref", Nodes: 32},
		{Name: "fast", Nodes: 16, Speed: 1.5, PriceFactor: 1.25},
		{Name: "budget", Nodes: 24, Speed: 0.8, PriceFactor: 0.7},
		{Name: "bulk", Nodes: 32, Speed: 1.1, PriceFactor: 0.9},
	}}
}

// degenerateFederation is the 1-cluster neutral spelling of cfg's single
// machine: running it through the meta-broker must be a distinction
// without a difference.
func degenerateFederation(cfg SuiteConfig) *broker.Federation {
	return &broker.Federation{Clusters: []broker.ClusterSpec{{Name: "only", Nodes: cfg.Nodes}}}
}

// A 1-cluster neutral federation is the nil federation spelled out: it
// must reproduce the nil-federation suite bit for bit — DeepEqual results,
// byte-identical canonical journals, the same cell keys, and no Clusters —
// for every Table V policy of both economic models across 10 trace seeds,
// fault injection included (odd seeds run at high intensity). Both sides
// run through the broker; TestRunCellMatchesSchedulerRun is the oracle
// against scheduler.Run, the reference batch path.
func TestDegenerateFederationMatchesPlainRun(t *testing.T) {
	for _, model := range []economy.Model{economy.Commodity, economy.BidBased} {
		for seed := int64(1); seed <= 10; seed++ {
			cfg := smallSuite(model, false)
			cfg.Jobs = 60
			cfg.ScenarioFilter = []string{"workload"}
			cfg.TraceSeed = seed
			cfg.QoSSeed = seed + 100
			if seed%2 == 1 {
				cfg.FaultIntensity = faults.High
				cfg.FaultSeed = seed + 200
			}

			plain, plainRec := runObserved(t, cfg)

			fedCfg := cfg
			fedCfg.Federation = degenerateFederation(cfg)
			if fedCfg.federated() {
				t.Fatal("degenerate federation classified as federated")
			}
			fed, fedRec := runObserved(t, fedCfg)

			if !reflect.DeepEqual(plain, fed) {
				t.Fatalf("%s seed %d: degenerate federation results differ from plain run", model, seed)
			}
			if len(fed.Clusters) != 0 {
				t.Fatalf("%s seed %d: degenerate federation reported clusters %v", model, seed, fed.Clusters)
			}
			if !bytes.Equal(canonical(t, plainRec), canonical(t, fedRec)) {
				t.Fatalf("%s seed %d: degenerate federation journal differs from plain run", model, seed)
			}
		}
	}
}

// The oracle of the one execution path: a nil-federation cell runs through
// broker.Run, and must equal scheduler.Run, the reference batch path, on
// identically prepared jobs — each replication's trace cloned, arrivals
// scaled, QoS synthesized and the failure process drawn at the
// replication's seeds over the prepared horizon — averaged in replication
// order. Every Table V policy under each of its models, with and without
// faults.
func TestRunCellMatchesSchedulerRun(t *testing.T) {
	for _, intensity := range []faults.Intensity{faults.None, faults.High} {
		for _, spec := range scheduler.Specs() {
			for _, model := range spec.Models {
				cfg := smallSuite(model, true)
				cfg.Jobs = 80
				cfg.Replications = 2
				cfg.FaultIntensity = intensity
				cfg.FaultSeed = 5
				p := DefaultParams(cfg.inaccuracyDefault())

				reports := make([]metrics.Report, cfg.Replications)
				for r := range reports {
					stride := ReplicationSeedStride * int64(r)
					trace, err := workload.Generate(cfg.synthConfig(), cfg.TraceSeed+stride)
					if err != nil {
						t.Fatal(err)
					}
					jobs := workload.CloneAll(trace)
					workload.ScaleArrivals(jobs, p.ArrivalFactor)
					if err := qos.Synthesize(jobs, p.QoSConfig(cfg.QoSSeed+stride)); err != nil {
						t.Fatal(err)
					}
					rc := scheduler.RunConfig{Nodes: cfg.Nodes, Model: model, BasePrice: economy.DefaultBasePrice}
					if intensity.Enabled() {
						f := intensity.Config(cfg.FaultSeed+stride, faults.JobsHorizon(jobs))
						rc.Faults = &f
					}
					if reports[r], err = scheduler.Run(jobs, spec.New, rc); err != nil {
						t.Fatal(err)
					}
				}
				want := metrics.AverageReports(reports)

				got, fed, err := RunCellFederated(cfg, p, spec)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s/%s/%s: RunCell diverged from scheduler.Run:\nwant %+v\ngot  %+v",
						spec.Name, model, intensity, want, got)
				}
				if fed != nil {
					t.Errorf("%s/%s/%s: nil federation returned a federation record", spec.Name, model, intensity)
				}
			}
		}
	}
}

// A genuinely federated suite must be bit-for-bit independent of the
// worker count — DeepEqual results (per-cluster breakdowns and routing
// digests included) and byte-identical canonical journals for 1, 4, and
// 8 workers — across the full fault-intensity axis. make verify re-runs
// this under -race, which is the required stress configuration.
func TestFederatedSuiteDeterministicAcrossWorkers(t *testing.T) {
	for _, intensity := range []faults.Intensity{faults.None, faults.Low, faults.High} {
		cfg := smallSuite(economy.Commodity, false)
		cfg.Jobs = 60
		cfg.ScenarioFilter = []string{"workload"}
		cfg.PolicyFilter = []string{"FCFS-BF", "Libra"}
		cfg.FaultIntensity = intensity
		cfg.FaultSeed = 7
		cfg.Federation = testFederation()
		if !cfg.federated() {
			t.Fatal("heterogeneous federation not classified as federated")
		}

		var ref *Results
		var refBytes []byte
		for _, workers := range []int{1, 4, 8} {
			cfg.Workers = workers
			res, rec := runObserved(t, cfg)
			assertSuiteConservation(t, cfg, res)
			if ref == nil {
				ref, refBytes = res, canonical(t, rec)
				continue
			}
			if !reflect.DeepEqual(ref, res) {
				t.Fatalf("%s: federated results differ between 1 and %d workers", intensity, workers)
			}
			if !bytes.Equal(refBytes, canonical(t, rec)) {
				t.Fatalf("%s: federated canonical journal differs between 1 and %d workers", intensity, workers)
			}
		}
		if len(ref.Clusters) != 4 {
			t.Fatalf("%s: Clusters = %v, want the 4 federation members", intensity, ref.Clusters)
		}
	}
}

// assertSuiteConservation checks every federated cell conserves counts and
// settlements: the cell's federation report is exactly the ordered sum of
// its per-cluster reports (single-replication suites carry cluster reports
// verbatim, so the sums are bitwise).
func assertSuiteConservation(t *testing.T, cfg SuiteConfig, res *Results) {
	t.Helper()
	for _, sc := range res.Scenarios {
		for vi := range sc.Values {
			for _, p := range res.Policies {
				total := sc.Reports[vi][p]
				clusters, ok := sc.ClusterReports[vi][p]
				if !ok {
					t.Fatalf("%s[%d]/%s: no cluster reports", sc.Name, vi, p)
				}
				if len(clusters) != len(cfg.Federation.Clusters) {
					t.Fatalf("%s[%d]/%s: %d cluster reports for %d clusters",
						sc.Name, vi, p, len(clusters), len(cfg.Federation.Clusters))
				}
				if sc.RoutingDigests[vi][p] == "" {
					t.Errorf("%s[%d]/%s: empty routing digest", sc.Name, vi, p)
				}
				var submitted, accepted, fulfilled, killed int
				var utility, budget float64
				for _, c := range clusters {
					submitted += c.Submitted
					accepted += c.Accepted
					fulfilled += c.SLAFulfilled
					killed += c.Killed
					utility += c.TotalUtility
					budget += c.TotalBudget
				}
				if total.Submitted != submitted || total.Accepted != accepted ||
					total.SLAFulfilled != fulfilled || total.Killed != killed {
					t.Errorf("%s[%d]/%s: count conservation broken: %+v vs sums sub=%d acc=%d sla=%d kill=%d",
						sc.Name, vi, p, total, submitted, accepted, fulfilled, killed)
				}
				if total.TotalUtility != utility || total.TotalBudget != budget {
					t.Errorf("%s[%d]/%s: settlement conservation broken: %v/%v vs sums %v/%v",
						sc.Name, vi, p, total.TotalUtility, total.TotalBudget, utility, budget)
				}
			}
		}
	}
}

// CellKey must fold the federation's identity in — except the degenerate
// spelling, which shares the plain key so journals stay interchangeable.
func TestFederationCellKey(t *testing.T) {
	cfg := smallSuite(economy.Commodity, false)
	plain := cfg.CellKey("workload", 0.25, "Libra")

	deg := cfg
	deg.Federation = degenerateFederation(cfg)
	if got := deg.CellKey("workload", 0.25, "Libra"); got != plain {
		t.Errorf("degenerate federation changed the cell key: %s vs %s", got, plain)
	}

	fed := cfg
	fed.Federation = testFederation()
	fedKey := fed.CellKey("workload", 0.25, "Libra")
	if fedKey == plain {
		t.Error("heterogeneous federation kept the plain cell key")
	}

	// Any identity change — a speed, a name, a private intensity — must
	// move the key.
	variant := *testFederation()
	variant.Clusters[1].Speed = 2
	fed.Federation = &variant
	if fed.CellKey("workload", 0.25, "Libra") == fedKey {
		t.Error("cluster speed change did not move the cell key")
	}
	variant = *testFederation()
	variant.Clusters = append([]broker.ClusterSpec(nil), variant.Clusters...)
	variant.Clusters[2].FaultIntensity = faults.High
	fed.Federation = &variant
	if fed.CellKey("workload", 0.25, "Libra") == fedKey {
		t.Error("private cluster intensity did not move the cell key")
	}
}

// ClusterView projects a federated result down to one member and keeps the
// grid shape; out-of-range or missing clusters are errors.
func TestClusterView(t *testing.T) {
	cfg := smallSuite(economy.Commodity, false)
	cfg.Jobs = 60
	cfg.ScenarioFilter = []string{"workload"}
	cfg.PolicyFilter = []string{"FCFS-BF", "Libra"}
	cfg.Federation = testFederation()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for ci, name := range res.Clusters {
		view, err := res.ClusterView(ci)
		if err != nil {
			t.Fatalf("ClusterView(%d %s): %v", ci, name, err)
		}
		if len(view.Scenarios) != len(res.Scenarios) {
			t.Fatalf("view has %d scenarios, want %d", len(view.Scenarios), len(res.Scenarios))
		}
		for si, sc := range view.Scenarios {
			for vi := range sc.Values {
				for _, p := range res.Policies {
					want := res.Scenarios[si].ClusterReports[vi][p][ci]
					if got := sc.Reports[vi][p]; got != want {
						t.Fatalf("view %s: %s[%d]/%s report differs from cluster breakdown", name, sc.Name, vi, p)
					}
				}
			}
		}
	}
	if _, err := res.ClusterView(len(res.Clusters)); err == nil {
		t.Error("out-of-range cluster index accepted")
	}
	if _, err := res.ClusterView(-1); err == nil {
		t.Error("negative cluster index accepted")
	}
	plain, err := Run(smallSuiteTrimmed())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.ClusterView(0); err == nil {
		t.Error("ClusterView on a non-federated result accepted")
	}
}

func smallSuiteTrimmed() SuiteConfig {
	cfg := smallSuite(economy.Commodity, false)
	cfg.Jobs = 60
	cfg.ScenarioFilter = []string{"workload"}
	cfg.PolicyFilter = []string{"FCFS-BF"}
	return cfg
}

// A federated journal must resume bit for bit: feeding a completed run's
// records back as Resume re-executes nothing and reproduces the identical
// results, per-cluster breakdowns included.
func TestFederatedResumeByteIdentical(t *testing.T) {
	cfg := smallSuite(economy.Commodity, false)
	cfg.Jobs = 60
	cfg.ScenarioFilter = []string{"workload"}
	cfg.PolicyFilter = []string{"FCFS-BF", "Libra"}
	cfg.FaultIntensity = faults.Low
	cfg.Federation = testFederation()

	full, fullRec := runObserved(t, cfg)
	for _, r := range fullRec.done {
		if r.Federation == nil {
			t.Fatalf("federated cell %s journaled without a federation record", r.Key)
		}
		if len(r.Federation.Clusters) != 4 || r.Federation.RoutingDigest == "" {
			t.Fatalf("federated record malformed: %+v", r.Federation)
		}
	}

	cfg.Resume = recordMap(fullRec)
	resumed, resumedRec := runObserved(t, cfg)
	if resumedRec.executed != 0 {
		t.Fatalf("resume re-executed %d cells", resumedRec.executed)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatal("resumed federated results differ from the original run")
	}
	if !bytes.Equal(canonical(t, fullRec), canonical(t, resumedRec)) {
		t.Fatal("resumed federated canonical journal differs from the original run")
	}
}

// Replicated federated cells reduce deterministically: the same order-fixed
// merge for every worker count, with the cell digest combining the
// per-replication digests in replication order.
func TestFederatedReplicationsDeterministic(t *testing.T) {
	cfg := smallSuite(economy.Commodity, false)
	cfg.Jobs = 60
	cfg.ScenarioFilter = []string{"workload"}
	cfg.PolicyFilter = []string{"FCFS-BF"}
	cfg.Replications = 3
	cfg.FaultIntensity = faults.High
	cfg.FaultSeed = 11
	cfg.Federation = testFederation()

	cfg.Workers = 1
	a, recA := runObserved(t, cfg)
	cfg.Workers = 8
	b, recB := runObserved(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("replicated federated results differ between 1 and 8 workers")
	}
	if !bytes.Equal(canonical(t, recA), canonical(t, recB)) {
		t.Fatal("replicated federated journals differ between 1 and 8 workers")
	}

	// The single-cell path reduces with the identical convention.
	spec := mustSpec(t, "FCFS-BF")
	p := DefaultParams(cfg.inaccuracyDefault())
	p.ArrivalFactor = 1 // the workload scenario's neutral value-1 cell
	rep, fed, err := RunCellFederated(cfg, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	sc := a.Scenarios[0]
	vi := valueIndex(t, sc.Values, 1)
	if rep != sc.Reports[vi]["FCFS-BF"] {
		t.Fatal("RunCellFederated report differs from the suite cell")
	}
	if fed == nil {
		t.Fatal("RunCellFederated returned no federation record")
	}
	if fed.RoutingDigest != sc.RoutingDigests[vi]["FCFS-BF"] {
		t.Fatal("RunCellFederated digest differs from the suite cell")
	}
	for ci := range fed.Clusters {
		if fed.Clusters[ci].Report != sc.ClusterReports[vi]["FCFS-BF"][ci] {
			t.Fatalf("RunCellFederated cluster %d report differs from the suite cell", ci)
		}
	}
}

// valueIndex finds the index of the neutral scenario value (the suite's
// default workload factor 1).
func valueIndex(t *testing.T, values []float64, want float64) int {
	t.Helper()
	for i, v := range values {
		if v == want {
			return i
		}
	}
	t.Fatalf("value %v not in %v", want, values)
	return -1
}

// Federated results survive the JSON round trip with their per-cluster
// breakdown; a truncated cluster section is rejected.
func TestFederatedResultsJSONRoundTrip(t *testing.T) {
	cfg := smallSuite(economy.Commodity, false)
	cfg.Jobs = 60
	cfg.ScenarioFilter = []string{"workload"}
	cfg.PolicyFilter = []string{"FCFS-BF", "Libra"}
	cfg.Federation = testFederation()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatal("federated results changed across the JSON round trip")
	}

	// Dropping the cluster reports while keeping the cluster names must be
	// rejected, not silently read back as a plain result.
	mangled := *res
	mangled.Scenarios = append([]ScenarioResult(nil), res.Scenarios...)
	mangled.Scenarios[0].ClusterReports = nil
	mangled.Scenarios[0].RoutingDigests = nil
	buf.Reset()
	if err := mangled.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("federated file missing cluster reports accepted")
	}
}

// An invalid federation is rejected before any simulation, on both the
// suite and single-cell paths.
func TestFederationValidatedUpFront(t *testing.T) {
	cfg := smallSuiteTrimmed()
	cfg.Federation = &broker.Federation{Clusters: []broker.ClusterSpec{
		{Name: "dup", Nodes: 32}, {Name: "dup", Nodes: 32},
	}}
	if _, err := Run(cfg); err == nil {
		t.Error("suite accepted a federation with duplicate cluster names")
	}
	spec := mustSpec(t, "FCFS-BF")
	if _, _, err := RunCellFederated(cfg, DefaultParams(0), spec); err == nil {
		t.Error("RunCellFederated accepted a federation with duplicate cluster names")
	}
}
