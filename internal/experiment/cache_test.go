package experiment

import (
	"sync"
	"testing"

	"repro/internal/economy"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// TestTraceCacheMemoizesPerSeed pins the cache contract: one generation per
// seed, identical slice handed to every caller, and bit-identical jobs to a
// fresh generation at the same seed.
func TestTraceCacheMemoizesPerSeed(t *testing.T) {
	cfg := DefaultSuiteConfig(economy.Commodity, false)
	cfg.Jobs = 50
	cache := newTraceCache(cfg.synthConfig())

	a, err := cache.get(cfg.TraceSeed + 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.get(cfg.TraceSeed + 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != cfg.Jobs {
		t.Fatalf("cached trace has %d jobs, want %d", len(a), cfg.Jobs)
	}
	if &a[0] != &b[0] {
		t.Error("repeated get for the same seed returned a different slice (regenerated)")
	}

	synth := workload.DefaultSynthConfig()
	synth.Jobs = cfg.Jobs
	fresh, err := workload.Generate(synth, cfg.TraceSeed+1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if *a[i] != *fresh[i] {
			t.Fatalf("cached job %d = %+v, fresh generation = %+v", i, *a[i], *fresh[i])
		}
	}
}

// TestTraceCachePreSeedsBase verifies the replication-0 trace generated at
// set-up is held in the cache and served from it rather than regenerated.
func TestTraceCachePreSeedsBase(t *testing.T) {
	cfg := DefaultSuiteConfig(economy.Commodity, false)
	cfg.Jobs = 20
	b, err := newBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := b.cache.byTag[cfg.TraceSeed]
	if base == nil || len(base.jobs) != cfg.Jobs {
		t.Fatal("set-up did not generate the replication-0 trace into the cache")
	}
	got, err := b.cache.get(cfg.TraceSeed)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &base.jobs[0] {
		t.Error("base trace was regenerated instead of served from the pre-seeded cache")
	}
}

// TestTraceCacheConcurrentAccess hammers the cache from many goroutines
// (the suite worker-pool shape); -race makes this a synchronization test,
// and the identity check makes it a single-generation test.
func TestTraceCacheConcurrentAccess(t *testing.T) {
	cfg := DefaultSuiteConfig(economy.Commodity, false)
	cfg.Jobs = 10
	cache := newTraceCache(cfg.synthConfig())
	const workers = 8
	got := make([][]*workload.Job, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, seed := range []int64{1001, 2001, 3001} {
				tr, err := cache.get(seed)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = tr
			}
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if &got[w][0] != &got[0][0] {
			t.Fatalf("worker %d received a different trace instance for the same seed", w)
		}
	}
}

// TestReplicatedSuiteUnchangedByCache pins that the cache is a pure
// memoization: a replicated suite produces byte-identical reports to
// independent single-replication runs manually averaged — the same
// equivalence the pre-cache code satisfied by regenerating per cell.
func TestReplicatedSuiteUnchangedByCache(t *testing.T) {
	cfg := DefaultSuiteConfig(economy.Commodity, false)
	cfg.Jobs = 60
	cfg.Nodes = 128
	cfg.Replications = 2
	cfg.ScenarioFilter = []string{"inaccuracy"}
	cfg.PolicyFilter = []string{"FCFS-BF"}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Second identical run: memoization must not introduce run-order or
	// sharing effects — reports are deterministic.
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for si := range res.Scenarios {
		for vi := range res.Scenarios[si].Reports {
			for name, rep := range res.Scenarios[si].Reports[vi] {
				if rep != res2.Scenarios[si].Reports[vi][name] {
					t.Fatalf("replicated suite not deterministic at %s[%d]/%s",
						res.Scenarios[si].Name, vi, name)
				}
			}
		}
	}
}

// TestTraceCacheConcurrentSameSeed releases many goroutines through a
// start gate onto get() for one brand-new seed — the exact shape of a
// replicated cell's workers racing on the same replication trace. The
// per-entry sync.Once must hand every caller the identical slice from a
// single generation, with no error.
func TestTraceCacheConcurrentSameSeed(t *testing.T) {
	cfg := DefaultSuiteConfig(economy.Commodity, false)
	cfg.Jobs = 10
	cache := newTraceCache(cfg.synthConfig())
	const workers = 32
	seed := cfg.TraceSeed + 2*ReplicationSeedStride
	start := make(chan struct{})
	got := make([][]*workload.Job, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tr, err := cache.get(seed)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = tr
		}()
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(got[w]) == 0 || &got[w][0] != &got[0][0] {
			t.Fatalf("worker %d received a different trace instance for the shared seed", w)
		}
	}
}

// The cells of one scenario value share a fault-schedule memo per
// replication, and execute drops each memo once the value's last cell at
// that replication has landed. Sharing leaves every report equal to its
// cell run on its own, a group of one.
func TestFaultMemoSharedAndDroppedPerGroup(t *testing.T) {
	cfg := faultySuite(t)
	cfg.Replications = 2
	cfg.Workers = 2
	b, err := newBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := ScenarioByName("workload")
	if !ok {
		t.Fatal("no workload scenario")
	}
	var pending []*pendingCell
	var groups []*cellGroup
	for vi, v := range sc.Values[:2] {
		g := newCellGroup(cfg.replications())
		groups = append(groups, g)
		for _, name := range cfg.PolicyFilter {
			spec, err := scheduler.SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p := DefaultParams(cfg.inaccuracyDefault())
			sc.Apply(&p, v)
			pending = append(pending, newPendingCell(0, vi, obs.Cell{}, p, spec, g))
		}
	}
	got := make(map[*pendingCell]metrics.Report)
	b.execute(pending, obs.Nop{}, func(pc *pendingCell, r metrics.Report, _ *obs.FederationRecord) {
		got[pc] = r
	})
	for gi, g := range groups {
		for r, m := range g.memos {
			if m != nil {
				t.Errorf("group %d kept its replication-%d memo after its last cell landed", gi, r)
			}
		}
	}
	for _, pc := range pending {
		want, err := RunCell(cfg, pc.params, pc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := got[pc]; !ok || r != want {
			t.Errorf("%s at value %d: shared-memo report %+v, alone %+v", pc.spec.Name, pc.vi, r, want)
		}
	}
}
