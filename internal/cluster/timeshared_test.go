package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestTimeSharedSingleJobRunsAtFullRate(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 4)
	var finishedAt sim.Time
	j := job(1, 2, 100, 120)
	// Share 0.5, but alone on its nodes the job gets the whole processor.
	if err := c.Start(j, 0.5, []int{0, 1}, func(*workload.Job) { finishedAt = e.Now() }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if finishedAt != 100 {
		t.Errorf("finished at %v, want 100 (spare capacity redistributes)", finishedAt)
	}
	if c.RunningCount() != 0 {
		t.Errorf("RunningCount = %d after run, want 0", c.RunningCount())
	}
	if c.FreeShare(0) != 1 {
		t.Errorf("FreeShare(0) = %v after completion, want 1", c.FreeShare(0))
	}
}

func TestTimeSharedProportionalSlowdown(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Two equal jobs share one node: each runs at rate 0.5, so 100 s of
	// work takes 200 s while both are present.
	if err := c.Start(job(1, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if finish[1] != 200 || finish[2] != 200 {
		t.Errorf("finish times = %v, want both 200", finish)
	}
}

func TestTimeSharedRateRecoversAfterDeparture(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Job 1: 100s work; job 2: 30s work. Both share 0.5 on one node.
	// Until job 2 finishes both run at 0.5. Job 2 finishes at t=60 with
	// 30s of work. Job 1 then has 100-30=70s left at rate 1 -> t=130.
	if err := c.Start(job(1, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 30, 30), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(float64(finish[2]-60)) > 1e-6 {
		t.Errorf("job 2 finished at %v, want 60", finish[2])
	}
	if math.Abs(float64(finish[1]-130)) > 1e-6 {
		t.Errorf("job 1 finished at %v, want 130", finish[1])
	}
}

func TestTimeSharedGuaranteedShareHolds(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Job 1 share 0.8 (work 80), job 2 share 0.2 (work 10).
	// Rates: 0.8 and 0.2. Job 2 finishes at 10/0.2 = 50.
	// Job 1 has 80 - 0.8*50 = 40 left, now alone at rate 1: t=90.
	if err := c.Start(job(1, 1, 80, 80), 0.8, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 10, 10), 0.2, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(float64(finish[2]-50)) > 1e-6 {
		t.Errorf("job 2 finished at %v, want 50", finish[2])
	}
	if math.Abs(float64(finish[1]-90)) > 1e-6 {
		t.Errorf("job 1 finished at %v, want 90", finish[1])
	}
}

func TestTimeSharedParallelJobSlowestNode(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 2)
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Job 1 spans nodes 0,1 with share 0.5 and 100s of work.
	// Job 2 sits on node 1 with share 0.5 and 100s of work.
	// Node 1 is shared: job 1 runs at 0.5 overall (slowest node), even
	// though node 0 is otherwise idle.
	if err := c.Start(job(1, 2, 100, 100), 0.5, []int{0, 1}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 100, 100), 0.5, []int{1}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(float64(finish[1]-200)) > 1e-6 {
		t.Errorf("parallel job finished at %v, want 200", finish[1])
	}
}

func TestTimeSharedAdmissionChecks(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 2)
	j := job(1, 1, 10, 10)
	if err := c.Start(j, 0, []int{0}, nil); err == nil {
		t.Error("zero share accepted")
	}
	if err := c.Start(j, 1.2, []int{0}, nil); err == nil {
		t.Error("share > 1 accepted")
	}
	if err := c.Start(j, 0.5, []int{0, 1}, nil); err == nil {
		t.Error("node count mismatch accepted")
	}
	if err := c.Start(job(2, 2, 10, 10), 0.5, []int{0, 0}, nil); err == nil {
		t.Error("duplicate node accepted")
	}
	if err := c.Start(job(3, 1, 10, 10), 0.5, []int{5}, nil); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := c.Start(j, 0.7, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(j, 0.3, []int{1}, nil); err == nil {
		t.Error("double Start of the same job accepted")
	}
	if err := c.Start(job(4, 1, 10, 10), 0.5, []int{0}, nil); err == nil {
		t.Error("over-committed node accepted")
	}
}

func TestTimeSharedCandidateNodesBestFit(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 3)
	// Node 0: load 0.6; node 1: load 0.2; node 2: empty.
	if err := c.Start(job(1, 1, 1000, 1000), 0.6, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 1000, 1000), 0.2, []int{1}, nil); err != nil {
		t.Fatal(err)
	}
	got := c.CandidateNodes(nil, 0.3)
	// Node 0 has 0.4 free, node 1 has 0.8, node 2 has 1.0. Best fit: 0,1,2.
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("CandidateNodes(0.3) = %v, want [0 1 2]", got)
	}
	got = c.CandidateNodes(nil, 0.5)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("CandidateNodes(0.5) = %v, want [1 2]", got)
	}
}

func TestTimeSharedOverrunDetection(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 2)
	// Estimate 50 but actual work 100: overruns from t=50.
	j := job(1, 1, 100, 50)
	if err := c.Start(j, 1.0, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(25, "before overrun", func() {
		if c.NodeHasOverrun(0) {
			t.Error("overrun reported at t=25, estimate is 50")
		}
		if tj := c.Lookup(j); tj == nil || math.Abs(tj.Progress()-25) > 1e-6 {
			t.Errorf("progress = %v at t=25, want 25", tj.Progress())
		}
	})
	e.MustSchedule(75, "after overrun", func() {
		if !c.NodeHasOverrun(0) {
			t.Error("no overrun reported at t=75, estimate was 50")
		}
		if c.NodeHasOverrun(1) {
			t.Error("empty node reports overrun")
		}
	})
	e.Run()
}

// Property: regardless of the mix of shares and work, every job's finish
// time is at most remaining/share after its start (the Libra guarantee) and
// at least its dedicated runtime.
func TestTimeSharedGuaranteeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRand(seed)
		e := sim.NewEngine()
		c := NewTimeShared(e, 4)
		type rec struct {
			start    sim.Time
			runtime  float64
			share    float64
			finished sim.Time
		}
		recs := make(map[int]*rec)
		nextID := 1
		var submit func(at sim.Time)
		submit = func(at sim.Time) {
			e.MustSchedule(at, "submit", func() {
				id := nextID
				nextID++
				runtime := 10 + rng.Float64()*200
				share := 0.1 + rng.Float64()*0.4
				procs := 1 + rng.Intn(2)
				j := job(id, procs, runtime, runtime)
				nodes := c.CandidateNodes(nil, share)
				if len(nodes) < procs {
					return
				}
				r := &rec{start: e.Now(), runtime: runtime, share: share}
				recs[id] = r
				if err := c.Start(j, share, nodes[:procs], func(*workload.Job) { r.finished = e.Now() }); err != nil {
					t.Fatalf("Start: %v", err)
				}
			})
		}
		for i := 0; i < 12; i++ {
			submit(sim.Time(rng.Float64() * 300))
		}
		e.Run()
		for id, r := range recs {
			elapsed := float64(r.finished - r.start)
			if elapsed+1e-6 < r.runtime {
				t.Fatalf("job %d finished in %v < dedicated runtime %v", id, elapsed, r.runtime)
			}
			bound := r.runtime / r.share
			if elapsed > bound+1e-6 {
				t.Fatalf("job %d took %v > guaranteed bound %v (share %v)", id, elapsed, bound, r.share)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: shares committed and released must balance: after all jobs
// finish, every node is empty and fully free.
func TestTimeSharedConservationProperty(t *testing.T) {
	rng := stats.NewRand(7)
	for trial := 0; trial < 20; trial++ {
		e := sim.NewEngine()
		c := NewTimeShared(e, 8)
		completed := 0
		started := 0
		for i := 0; i < 30; i++ {
			at := sim.Time(rng.Float64() * 500)
			id := i + 1
			e.MustSchedule(at, "submit", func() {
				share := 0.05 + rng.Float64()*0.5
				procs := 1 + rng.Intn(4)
				nodes := c.CandidateNodes(nil, share)
				if len(nodes) < procs {
					return
				}
				started++
				runtime := 1 + rng.Float64()*100
				err := c.Start(job(id, procs, runtime, runtime), share, nodes[:procs], func(*workload.Job) { completed++ })
				if err != nil {
					t.Fatalf("Start: %v", err)
				}
			})
		}
		e.Run()
		if completed != started {
			t.Fatalf("trial %d: started %d jobs, completed %d", trial, started, completed)
		}
		for n := 0; n < c.Nodes(); n++ {
			if math.Abs(c.FreeShare(n)-1) > 1e-6 {
				t.Fatalf("trial %d: node %d free share %v after drain, want 1", trial, n, c.FreeShare(n))
			}
		}
		if c.RunningCount() != 0 {
			t.Fatalf("trial %d: %d jobs still running", trial, c.RunningCount())
		}
	}
}

func TestNewTimeSharedPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTimeShared(0) did not panic")
		}
	}()
	NewTimeShared(sim.NewEngine(), 0)
}

func TestTimeSharedUtilization(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 2)
	// One single-proc job alone: runs at rate 1 on 1 of 2 nodes for 100 s.
	if err := c.Start(job(1, 1, 100, 100), 0.5, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(100, "probe", func() {
		if got := c.Utilization(); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("utilization at t=100 = %v, want 0.5", got)
		}
	})
	e.Run()
}

func TestRatedNodeRunsFaster(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeSharedRated(e, []float64{2.0, 0.5})
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// 100 s of reference work: 50 s on the fast node, 200 s on the slow.
	if err := c.Start(job(1, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 100, 100), 0.5, []int{1}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(float64(finish[1]-50)) > 1e-6 {
		t.Errorf("fast-node job finished at %v, want 50", finish[1])
	}
	if math.Abs(float64(finish[2]-200)) > 1e-6 {
		t.Errorf("slow-node job finished at %v, want 200", finish[2])
	}
	if c.Rating(0) != 2.0 || c.Rating(1) != 0.5 {
		t.Error("Rating() wrong")
	}
}

func TestRatedParallelJobBoundBySlowestNode(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeSharedRated(e, []float64{2.0, 0.5})
	var finished sim.Time
	if err := c.Start(job(1, 2, 100, 100), 1.0, []int{0, 1}, func(*workload.Job) { finished = e.Now() }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// Slowest node governs: rate 0.5 -> 200 s.
	if math.Abs(float64(finished-200)) > 1e-6 {
		t.Errorf("parallel job finished at %v, want 200", finished)
	}
}

func TestRatedSharingScalesWithSpeed(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeSharedRated(e, []float64{2.0})
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Two equal shares on a double-speed node: each runs at effective
	// rate 1.0, finishing 100 s of work in 100 s.
	if err := c.Start(job(1, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 100, 100), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if math.Abs(float64(finish[1]-100)) > 1e-6 || math.Abs(float64(finish[2]-100)) > 1e-6 {
		t.Errorf("finish times = %v, want both 100", finish)
	}
}

func TestNewTimeSharedRatedPanics(t *testing.T) {
	for name, ratings := range map[string][]float64{
		"empty":    {},
		"zero":     {1, 0},
		"negative": {-1},
	} {
		ratings := ratings
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			NewTimeSharedRated(sim.NewEngine(), ratings)
		})
	}
}

// Job IDs need not be unique (the service accepts client-supplied IDs), so
// CommittedSeconds breaks ID ties by start order. The two bookings under ID
// 2 sum to different bits in the two orders; every call must return the
// start-order sum.
func TestCommittedSecondsDuplicateIDsOneBitPattern(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	ids := []int{1, 2, 2}
	shares := []float64{0.05, 0.05, 0.2}
	deadlines := []float64{607.9, 629.5, 74.9}
	for k := range ids {
		if err := c.Start(djob(ids[k], 1, 0, 1e6, 1e6, deadlines[k]), shares[k], []int{0}, nil); err != nil {
			t.Fatal(err)
		}
	}
	sum := func(order ...int) float64 {
		total := 0.0
		for _, k := range order {
			total += shares[k] * deadlines[k]
		}
		return total
	}
	want, swapped := sum(0, 1, 2), sum(0, 2, 1)
	if math.Float64bits(want) == math.Float64bits(swapped) {
		t.Fatal("fixture is not order-sensitive")
	}
	for call := 0; call < 200; call++ {
		if got := c.CommittedSeconds(0, 1000); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: CommittedSeconds = %x, want %x (start order)", call,
				math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// The admission queries run once per submitted job (and once per selected
// node); at steady state they allocate nothing.
func TestAdmissionQueriesDoNotAllocate(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 16)
	for id := 1; id <= 12; id++ {
		nodes := c.CandidateNodes(nil, 0.2)[:1+id%3]
		if err := c.Start(djob(id, len(nodes), 0, 500, 400, 800), 0.2, nodes, nil); err != nil {
			t.Fatal(err)
		}
	}
	var cand []int
	allocs := testing.AllocsPerRun(100, func() {
		cand = c.CandidateNodes(cand[:0], 0.3)
		for _, n := range cand {
			c.CommittedSeconds(n, 600)
			c.NodeHasOverrun(n)
		}
	})
	if allocs != 0 {
		t.Errorf("CandidateNodes/CommittedSeconds/NodeHasOverrun allocate %v times per call, want 0", allocs)
	}
	if len(cand) == 0 {
		t.Fatal("degenerate fixture: no candidates")
	}
}

// Start reuses the record of a job that has left — node list, bound lapse
// handler and all — so once the machine has retired a job, a start and its
// completion allocate nothing. The reused record starts clean: no progress,
// no lapse, a rate from its own nodes.
func TestStartAndCompletionReuseRecords(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 16)
	wide := djob(1, 8, 0, 1e12, 1e12, 0) // never finishes: every start shares its nodes
	if err := c.Start(wide, 0.5, c.CandidateNodes(nil, 0.5)[:8], nil); err != nil {
		t.Fatal(err)
	}
	j := djob(2, 4, 0, 10, 10, 15) // lapses at 15, finishes at 20 at rate 1/2
	var cand []int
	finished := 0
	done := func(*workload.Job) { finished++ }
	cycle := func() {
		j.Submit = float64(e.Now())
		cand = c.CandidateNodes(cand[:0], 0.5)
		if err := c.Start(j, 0.5, cand[:j.Procs], done); err != nil {
			t.Fatal(err)
		}
		if tj := c.Lookup(j); tj.Progress() != 0 || tj.Lapsed() || tj.Rate() != 0.5 {
			t.Fatalf("cycle %d: reused record starts at progress %v lapsed %v rate %v",
				finished, tj.Progress(), tj.Lapsed(), tj.Rate())
		}
		e.RunUntil(e.Now() + 30)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a start and its completion allocate %v times, want 0", allocs)
	}
	if finished != 102 || c.RunningCount() != 1 {
		t.Errorf("%d completions, %d running; want 102 and the wide job", finished, c.RunningCount())
	}
}
