package cluster

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func job(id, procs int, runtime, estimate float64) *workload.Job {
	return &workload.Job{ID: id, Runtime: runtime, Estimate: estimate, Procs: procs}
}

func TestSpaceSharedStartAndComplete(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 8)
	var finishedAt sim.Time
	j := job(1, 4, 100, 120)
	if !c.CanStart(4) {
		t.Fatal("CanStart(4) = false on empty 8-node cluster")
	}
	if err := c.Start(j, func(*workload.Job) { finishedAt = e.Now() }); err != nil {
		t.Fatal(err)
	}
	if c.FreeProcs() != 4 {
		t.Errorf("FreeProcs = %d after starting 4-wide job, want 4", c.FreeProcs())
	}
	if c.RunningCount() != 1 {
		t.Errorf("RunningCount = %d, want 1", c.RunningCount())
	}
	e.Run()
	if finishedAt != 100 {
		t.Errorf("job finished at %v, want 100 (actual runtime, not estimate)", finishedAt)
	}
	if c.FreeProcs() != 8 {
		t.Errorf("FreeProcs = %d after completion, want 8", c.FreeProcs())
	}
}

func TestSpaceSharedRejectsOversize(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 8)
	if err := c.Start(job(1, 9, 10, 10), nil); err == nil {
		t.Error("9-wide job accepted on 8-node cluster")
	}
	if err := c.Start(job(2, 8, 10, 10), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(3, 1, 10, 10), nil); err == nil {
		t.Error("job accepted with zero free processors")
	}
}

func TestSpaceSharedEarliestAvailable(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 8)
	// Two jobs: 4 procs until est 100, 2 procs until est 50.
	if err := c.Start(job(1, 4, 100, 100), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 2, 50, 50), nil); err != nil {
		t.Fatal(err)
	}
	// 2 free now.
	if at, err := c.EarliestAvailable(2); err != nil || at != 0 {
		t.Errorf("EarliestAvailable(2) = %v, %v; want 0, nil", at, err)
	}
	// 4 free after job 2's estimated end (50).
	if at, err := c.EarliestAvailable(4); err != nil || at != 50 {
		t.Errorf("EarliestAvailable(4) = %v, %v; want 50, nil", at, err)
	}
	// All 8 after job 1's estimated end (100).
	if at, err := c.EarliestAvailable(8); err != nil || at != 100 {
		t.Errorf("EarliestAvailable(8) = %v, %v; want 100, nil", at, err)
	}
	if _, err := c.EarliestAvailable(9); err == nil {
		t.Error("EarliestAvailable(9) on 8-node machine did not error")
	}
}

func TestSpaceSharedAvailableAt(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 8)
	if err := c.Start(job(1, 4, 100, 100), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 2, 50, 50), nil); err != nil {
		t.Fatal(err)
	}
	if got := c.AvailableAt(25); got != 2 {
		t.Errorf("AvailableAt(25) = %d, want 2", got)
	}
	if got := c.AvailableAt(60); got != 4 {
		t.Errorf("AvailableAt(60) = %d, want 4", got)
	}
	if got := c.AvailableAt(150); got != 8 {
		t.Errorf("AvailableAt(150) = %d, want 8", got)
	}
}

// A job that overruns its estimate is believed to finish "now", so the
// availability profile never quotes times in the past.
func TestSpaceSharedOverrunBelievedImminent(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 4)
	// Estimate 10, actual 100: overruns at t=10.
	if err := c.Start(job(1, 4, 100, 10), nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(50, "probe", func() {
		at, err := c.EarliestAvailable(4)
		if err != nil {
			t.Errorf("EarliestAvailable: %v", err)
		}
		if at != 50 {
			t.Errorf("EarliestAvailable(4) = %v at t=50 with overrun job, want 50", at)
		}
		if got := c.AvailableAt(50); got != 4 {
			t.Errorf("AvailableAt(50) = %d, want 4 (overrun believed done)", got)
		}
	})
	e.Run()
}

func TestSpaceSharedRunningOrder(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 8)
	if err := c.Start(job(2, 1, 80, 80), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(1, 1, 20, 20), nil); err != nil {
		t.Fatal(err)
	}
	r := c.Running()
	if len(r) != 2 || r[0].Job.ID != 1 || r[1].Job.ID != 2 {
		t.Errorf("Running() order wrong: %v, %v", r[0].Job.ID, r[1].Job.ID)
	}
}

// Duplicate client-supplied job IDs with equal estimates started at one
// instant tie in the (EstEnd, ID) order. Whichever of them completes first
// must leave the index intact, and a failure must kill the right one.
func TestSpaceSharedDuplicateIDsTiedInEndOrder(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 4)
	var order []float64
	done := func(j *workload.Job) { order = append(order, j.Runtime) }
	for _, runtime := range []float64{10, 30, 20} {
		if err := c.Start(job(7, 1, runtime, 50), done); err != nil {
			t.Fatal(err)
		}
	}
	if victim := c.Fail(1); victim == nil || victim.Runtime != 30 {
		t.Fatalf("Fail(1) killed %+v, want the runtime-30 job on node 1", victim)
	}
	e.Run()
	if len(order) != 2 || order[0] != 10 || order[1] != 20 {
		t.Errorf("completions by runtime = %v, want [10 20]", order)
	}
	if c.RunningCount() != 0 || len(c.byEnd) != 0 {
		t.Errorf("running %d, byEnd %d after every job ended, want 0 and 0", c.RunningCount(), len(c.byEnd))
	}
}

// Node picking allocates only the job's retained allocation, whatever the
// size of the free pool.
func TestPickNodesAllocatesOnlyTheAllocation(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 128)
	j := job(1, 2, 10, 10)
	allocs := testing.AllocsPerRun(100, func() {
		if nodes := c.pickNodes(j.Procs); len(nodes) != 2 || cap(nodes) != 2 {
			t.Fatalf("pickNodes(2) = %v (cap %d), want two nodes, capacity two", nodes, cap(nodes))
		}
	})
	if allocs != 1 {
		t.Errorf("pickNodes allocates %v times per call, want 1 (the allocation itself)", allocs)
	}
}

func TestSpaceSharedSequencing(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 2)
	var order []int
	done := func(j *workload.Job) { order = append(order, j.ID) }
	if err := c.Start(job(1, 1, 30, 30), done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 10, 10), done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("completion order = %v, want [2 1]", order)
	}
}

func TestNewSpaceSharedPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSpaceShared(0) did not panic")
		}
	}()
	NewSpaceShared(sim.NewEngine(), 0)
}

func TestSpaceSharedUtilization(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 4)
	if c.Utilization() != 0 {
		t.Errorf("utilization at t=0 = %v, want 0", c.Utilization())
	}
	// 2 of 4 procs busy for 100 s, then idle until 200.
	if err := c.Start(job(1, 2, 100, 100), nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(100, "probe", func() {
		if got := c.Utilization(); math.Abs(got-0.5) > 1e-9 {
			t.Errorf("utilization at t=100 = %v, want 0.5", got)
		}
	})
	e.MustSchedule(200, "probe2", func() {
		if got := c.Utilization(); math.Abs(got-0.25) > 1e-9 {
			t.Errorf("utilization at t=200 = %v, want 0.25", got)
		}
	})
	e.Run()
}

func TestSpaceSharedRatedSpeedsCompletion(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceSharedRated(e, []float64{2.0, 1.0})
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Fastest-first allocation: job 1 lands on the 2× node and halves its
	// runtime; job 2 gets the reference node.
	if err := c.Start(job(1, 1, 100, 100), done); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(job(2, 1, 100, 100), done); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if finish[1] != 50 {
		t.Errorf("fast-node job finished at %v, want 50", finish[1])
	}
	if finish[2] != 100 {
		t.Errorf("reference-node job finished at %v, want 100", finish[2])
	}
	if c.Rating(0) != 2.0 || c.Rating(1) != 1.0 {
		t.Error("Rating() wrong")
	}
}

func TestSpaceSharedRatedParallelBoundBySlowest(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceSharedRated(e, []float64{2.0, 0.5})
	var finished sim.Time
	if err := c.Start(job(1, 2, 100, 100), func(*workload.Job) { finished = e.Now() }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if finished != 200 {
		t.Errorf("parallel job finished at %v, want 200 (slowest node)", finished)
	}
}

func TestSpaceSharedRatedBelievedEndScaled(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceSharedRated(e, []float64{2.0})
	if err := c.Start(job(1, 1, 100, 60), nil); err != nil {
		t.Fatal(err)
	}
	r := c.Running()
	if len(r) != 1 || r[0].EstEnd != 30 {
		t.Errorf("believed end = %v, want 30 (estimate/speed)", r[0].EstEnd)
	}
	if r[0].Speed != 2.0 {
		t.Errorf("speed = %v", r[0].Speed)
	}
}

func TestSpaceSharedRatedReleasesCorrectNodes(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceSharedRated(e, []float64{3.0, 2.0, 1.0})
	// Job 1 takes the two fastest (speed = 2), runs 50/2 = 25 s.
	if err := c.Start(job(1, 2, 50, 50), nil); err != nil {
		t.Fatal(err)
	}
	// Job 2 takes the remaining slow node, 50/1 = 50 s.
	if err := c.Start(job(2, 1, 50, 50), nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(30, "probe", func() {
		if c.FreeProcs() != 2 {
			t.Errorf("free at t=30 = %d, want 2 (fast nodes released)", c.FreeProcs())
		}
		// A new job must get the freed fast nodes again.
		if err := c.Start(job(3, 1, 30, 30), nil); err != nil {
			t.Fatal(err)
		}
		if r := c.Running(); len(r) > 0 {
			for _, sj := range r {
				if sj.Job.ID == 3 && sj.Speed != 3.0 {
					t.Errorf("job 3 speed = %v, want 3.0 (fastest free)", sj.Speed)
				}
			}
		}
	})
	e.Run()
}

func TestNewSpaceSharedRatedPanics(t *testing.T) {
	for name, ratings := range map[string][]float64{
		"empty": {}, "zero": {1, 0}, "negative": {-2},
	} {
		ratings := ratings
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			NewSpaceSharedRated(sim.NewEngine(), ratings)
		})
	}
}
