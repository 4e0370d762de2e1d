package cluster

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// checkSpaceInvariants recomputes the space-shared cluster's counters from
// scratch and compares them to the incrementally maintained ones.
func checkSpaceInvariants(t *testing.T, c *SpaceShared, started, finished, killed int) {
	t.Helper()
	free, busy, down := 0, 0, 0
	for i := 0; i < c.Nodes(); i++ {
		switch {
		case c.NodeDown(i):
			down++
			if c.busy[i] {
				t.Fatalf("node %d both down and busy", i)
			}
			if c.occupant[i] != nil {
				t.Fatalf("down node %d still has an occupant", i)
			}
		case c.busy[i]:
			busy++
			sj := c.occupant[i]
			if sj == nil {
				t.Fatalf("busy node %d has no occupant", i)
			}
			if _, ok := c.running[sj.Job]; !ok {
				t.Fatalf("node %d occupied by job %d, which is not running", i, sj.Job.ID)
			}
		default:
			free++
		}
	}
	if free != c.FreeProcs() {
		t.Fatalf("free count %d, recomputed %d", c.FreeProcs(), free)
	}
	if busy != c.busyProcs {
		t.Fatalf("busy count %d, recomputed %d", c.busyProcs, busy)
	}
	if c.UpNodes() != c.Nodes()-down {
		t.Fatalf("UpNodes %d, recomputed %d", c.UpNodes(), c.Nodes()-down)
	}
	// Per-job width accounting: every running job occupies exactly Procs
	// busy nodes, and no node hosts two jobs (occupant is single-valued by
	// construction, so double-booking would surface as a width mismatch).
	widths := 0
	for _, sj := range c.running { // integer sum: order-independent
		widths += sj.Job.Procs
	}
	if widths != busy {
		t.Fatalf("running jobs occupy %d procs, %d nodes busy", widths, busy)
	}
	// Job conservation: everything started either finished, was killed, or
	// is still running.
	if started != finished+killed+c.RunningCount() {
		t.Fatalf("job conservation violated: %d started != %d finished + %d killed + %d running",
			started, finished, killed, c.RunningCount())
	}
}

// Property: under a randomized interleaving of starts, completions,
// failures, and repairs, the space-shared cluster never oversubscribes a
// node, never loses a processor, and conserves jobs.
func TestSpaceSharedFaultInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := stats.NewRand(seed)
		e := sim.NewEngine()
		const nodes = 16
		c := NewSpaceShared(e, nodes)
		started, finished, killed := 0, 0, 0
		down := make([]bool, nodes)

		// Random job submissions.
		for i := 0; i < 40; i++ {
			id := i + 1
			at := sim.Time(rng.Float64() * 800)
			procs := 1 + rng.Intn(4)
			runtime := 10 + rng.Float64()*200
			e.MustSchedule(at, "submit", func() {
				j := job(id, procs, runtime, runtime)
				if !c.CanStart(j.Procs) {
					return
				}
				started++
				if err := c.Start(j, func(*workload.Job) { finished++ }); err != nil {
					t.Errorf("seed %d: start: %v", seed, err)
				}
			})
		}
		// Random alternating failure/repair per node, in (0, 1000).
		for n := 0; n < nodes; n++ {
			node := n
			tm := rng.Float64() * 300
			for fail := true; tm < 1000; fail = !fail {
				isFail := fail
				e.MustSchedule(sim.Time(tm), "fault", func() {
					if isFail {
						down[node] = true
						if victim := c.Fail(node); victim != nil {
							killed++
						}
					} else {
						down[node] = false
						c.Repair(node)
					}
					checkSpaceInvariants(t, c, started, finished, killed)
				})
				tm += 1 + rng.Float64()*400
			}
		}
		e.Run()
		// Repair any node still down so the final machine is whole again.
		for n := range down {
			if down[n] {
				c.Repair(n)
			}
		}
		checkSpaceInvariants(t, c, started, finished, killed)
		if c.FreeProcs() != nodes {
			t.Fatalf("seed %d: drained machine has %d free of %d", seed, c.FreeProcs(), nodes)
		}
		if started == 0 || killed == 0 {
			t.Fatalf("seed %d: degenerate run (started %d, killed %d)", seed, started, killed)
		}
	}
}

// checkTimeInvariants validates booking bounds and down-node emptiness,
// and recounts the operational nodes against the maintained count.
func checkTimeInvariants(t *testing.T, c *TimeShared) {
	t.Helper()
	up := 0
	for i := 0; i < c.Nodes(); i++ {
		if !c.NodeDown(i) {
			up++
		}
		if c.nodes[i].booked > 1+workEps {
			t.Fatalf("node %d oversubscribed: booked %v", i, c.nodes[i].booked)
		}
		if c.nodes[i].booked < -workEps {
			t.Fatalf("node %d booked negative: %v", i, c.nodes[i].booked)
		}
		if c.NodeDown(i) {
			if len(c.nodes[i].jobs) != 0 {
				t.Fatalf("down node %d still hosts %d jobs", i, len(c.nodes[i].jobs))
			}
			if c.FreeShare(i) != 0 {
				t.Fatalf("down node %d advertises free share %v", i, c.FreeShare(i))
			}
		}
	}
	if up != c.UpNodes() {
		t.Fatalf("up count %d, recomputed %d", c.UpNodes(), up)
	}
	if len(c.order) != len(c.running) {
		t.Fatalf("order list %d entries, running map %d", len(c.order), len(c.running))
	}
}

// Property: under randomized starts, failures, and repairs, the time-shared
// cluster never oversubscribes bookings, keeps down nodes empty and
// unadvertised, and conserves jobs (finished + killed + running = started).
func TestTimeSharedFaultInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(100); seed < 130; seed++ {
		rng := stats.NewRand(seed)
		e := sim.NewEngine()
		const nodes = 8
		c := NewTimeShared(e, nodes)
		started, finished, killed := 0, 0, 0
		down := make([]bool, nodes)

		for i := 0; i < 30; i++ {
			id := i + 1
			at := sim.Time(rng.Float64() * 600)
			procs := 1 + rng.Intn(3)
			runtime := 10 + rng.Float64()*150
			share := 0.2 + rng.Float64()*0.5
			e.MustSchedule(at, "submit", func() {
				j := job(id, procs, runtime, runtime)
				cand := c.CandidateNodes(nil, share)
				if len(cand) < j.Procs {
					return
				}
				started++
				err := c.Start(j, share, cand[:j.Procs], func(*workload.Job) { finished++ })
				if err != nil {
					t.Errorf("seed %d: start: %v", seed, err)
				}
			})
		}
		for n := 0; n < nodes; n++ {
			node := n
			tm := rng.Float64() * 200
			for fail := true; tm < 800; fail = !fail {
				isFail := fail
				e.MustSchedule(sim.Time(tm), "fault", func() {
					if isFail {
						down[node] = true
						killed += len(c.Fail(node))
					} else {
						down[node] = false
						c.Repair(node)
					}
					checkTimeInvariants(t, c)
					if started != finished+killed+c.RunningCount() {
						t.Fatalf("seed %d: conservation: %d != %d+%d+%d",
							seed, started, finished, killed, c.RunningCount())
					}
				})
				tm += 1 + rng.Float64()*300
			}
		}
		e.Run()
		checkTimeInvariants(t, c)
		if started != finished+killed {
			t.Fatalf("seed %d: drained run: %d started != %d finished + %d killed",
				seed, started, finished, killed)
		}
		if started == 0 || killed == 0 {
			t.Fatalf("seed %d: degenerate run (started %d, killed %d)", seed, started, killed)
		}
	}
}

// Directed edge cases the randomized battery may not hit every run.
func TestSpaceSharedFailRepairEdges(t *testing.T) {
	e := sim.NewEngine()
	c := NewSpaceShared(e, 4)
	// Parallel job dies whole when one of its nodes fails; survivors free up.
	j := job(1, 3, 100, 100)
	completed := false
	if err := c.Start(j, func(*workload.Job) { completed = true }); err != nil {
		t.Fatal(err)
	}
	victim := c.Fail(0)
	if victim != j {
		t.Fatalf("Fail(0) returned %v, want job 1", victim)
	}
	if c.RunningCount() != 0 {
		t.Fatal("victim still running")
	}
	if c.FreeProcs() != 3 { // nodes 1,2 freed; node 3 was idle; node 0 down
		t.Fatalf("FreeProcs = %d, want 3", c.FreeProcs())
	}
	e.Run() // the cancelled completion event must not fire
	if completed {
		t.Fatal("killed job completed anyway")
	}
	// Idle-node failure returns no victim.
	if v := c.Fail(1); v != nil {
		t.Fatalf("idle-node Fail returned %v", v)
	}
	if c.UpNodes() != 2 {
		t.Fatalf("UpNodes = %d, want 2", c.UpNodes())
	}
	// Width above up-capacity: reservation anchor is never.
	if !c.CanStart(2) {
		t.Fatal("2-wide job should fit on 2 up nodes")
	}
	if at, err := c.EarliestAvailable(3); err != nil || at != sim.Infinity {
		t.Fatalf("EarliestAvailable(3) = %v, %v; want Infinity", at, err)
	}
	c.Repair(0)
	c.Repair(1)
	if c.FreeProcs() != 4 || c.UpNodes() != 4 {
		t.Fatalf("after repairs: free %d up %d", c.FreeProcs(), c.UpNodes())
	}

	// Double-fail / double-repair / out-of-range panic.
	for _, fn := range []func(){
		func() { c.Fail(0); c.Fail(0) },
		func() { c.Repair(3) },
		func() { c.Fail(-1) },
		func() { c.Repair(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTimeSharedFailRepairEdges(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 4)
	// Two jobs share node 0; a third runs elsewhere.
	j1, j2, j3 := job(1, 1, 100, 100), job(2, 2, 100, 100), job(3, 1, 100, 100)
	for _, tc := range []struct {
		j     *workload.Job
		nodes []int
	}{
		{j1, []int{0}},
		{j2, []int{0, 1}},
		{j3, []int{2}},
	} {
		if err := c.Start(tc.j, 0.4, tc.nodes, nil); err != nil {
			t.Fatal(err)
		}
	}
	victims := c.Fail(0)
	if len(victims) != 2 || victims[0] != j1 || victims[1] != j2 {
		t.Fatalf("Fail(0) victims = %v, want [1 2] in ID order", victims)
	}
	if c.RunningCount() != 1 {
		t.Fatalf("RunningCount = %d, want 1", c.RunningCount())
	}
	if c.FreeShare(0) != 0 {
		t.Fatalf("down node advertises share %v", c.FreeShare(0))
	}
	for _, n := range c.CandidateNodes(nil, 0.1) {
		if n == 0 {
			t.Fatal("down node offered as candidate")
		}
	}
	if c.UpNodes() != 3 {
		t.Fatalf("UpNodes = %d, want 3", c.UpNodes())
	}
	c.Repair(0)
	if c.FreeShare(0) != 1 {
		t.Fatalf("repaired node free share %v, want 1", c.FreeShare(0))
	}

	for _, fn := range []func(){
		func() { c.Fail(3); c.Fail(3) },
		func() { c.Repair(0) },
		func() { c.Fail(-1) },
		func() { c.Repair(99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
