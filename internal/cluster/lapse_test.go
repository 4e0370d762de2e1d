package cluster

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// djob builds a job with a deadline so its booking can lapse.
func djob(id, procs int, submit, runtime, estimate, deadline float64) *workload.Job {
	return &workload.Job{
		ID: id, Submit: submit, Runtime: runtime, Estimate: estimate, Procs: procs,
		Deadline: deadline, Budget: 1,
	}
}

func TestBookingLapsesAtDeadline(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	// Estimate 50, actual 500, deadline 100: booking expires at t=100.
	j := djob(1, 1, 0, 500, 50, 100)
	if err := c.Start(j, 0.5, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(99, "before lapse", func() {
		if c.FreeShare(0) != 0.5 {
			t.Errorf("free share before lapse = %v, want 0.5", c.FreeShare(0))
		}
		if c.Lookup(j).Lapsed() {
			t.Error("lapsed before deadline")
		}
	})
	e.MustSchedule(101, "after lapse", func() {
		if c.FreeShare(0) != 1.0 {
			t.Errorf("free share after lapse = %v, want 1.0 (booking released)", c.FreeShare(0))
		}
		tj := c.Lookup(j)
		if !tj.Lapsed() {
			t.Error("not lapsed after deadline")
		}
		// Alone on the node the lapsed job still runs at full speed.
		if tj.Rate() != 1.0 {
			t.Errorf("lapsed job alone runs at %v, want 1.0", tj.Rate())
		}
	})
	e.Run()
}

func TestLapsedJobSqueezedByNewBooking(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	// Job 1 lapses at t=100 with plenty of work left.
	j1 := djob(1, 1, 0, 10000, 50, 100)
	if err := c.Start(j1, 0.5, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	// At t=200 a new job books 0.9 — admissible because the lapsed booking
	// no longer counts.
	j2 := djob(2, 1, 200, 90, 90, 100)
	e.MustSchedule(200, "submit j2", func() {
		if got := c.FreeShare(0); got != 1.0 {
			t.Fatalf("free share = %v, want 1.0", got)
		}
		if err := c.Start(j2, 0.9, []int{0}, nil); err != nil {
			t.Fatal(err)
		}
		// Weights: j2 0.9 booked, j1 0.5 lapsed (OS share not revoked).
		// Total 1.4 > 1: the node is over-committed and j2 runs below its
		// booked share — the estimate-inaccuracy cascade.
		r1 := c.Lookup(j1).Rate()
		r2 := c.Lookup(j2).Rate()
		if math.Abs(r2-0.9/1.4) > 1e-9 {
			t.Errorf("booked job rate = %v, want %v", r2, 0.9/1.4)
		}
		if math.Abs(r1-0.5/1.4) > 1e-9 {
			t.Errorf("lapsed job rate = %v, want %v", r1, 0.5/1.4)
		}
		if r2 >= 0.9 {
			t.Error("booked job not squeezed below its share")
		}
	})
	e.Run()
}

// The over-commitment cascade: a lapsed job pushes total weight above 1,
// so a booked job runs below its share and misses its own deadline even
// though its estimate was accurate.
func TestOverCommitmentBreaksGuarantee(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	finish := map[int]sim.Time{}
	done := func(j *workload.Job) { finish[j.ID] = e.Now() }
	// Job 1: badly under-estimated, lapses at t=10 with ~9990 work left.
	if err := c.Start(djob(1, 1, 0, 10000, 5, 10), 0.5, []int{0}, done); err != nil {
		t.Fatal(err)
	}
	// Job 2 at t=20: accurate estimate 100, deadline 100, share 1.0 —
	// admissible because job 1's booking lapsed. Node weight = 1.0 + 0.5,
	// so job 2 runs at 1/1.5 < 1 and finishes after its deadline.
	j2 := djob(2, 1, 20, 100, 100, 100)
	e.MustSchedule(20, "submit j2", func() {
		if err := c.Start(j2, 1.0, []int{0}, done); err != nil {
			t.Fatal(err)
		}
	})
	e.Run()
	if finish[2] <= 120 {
		t.Errorf("squeezed job finished at %v, want after its deadline 120", finish[2])
	}
}

// Lapse bookkeeping must balance: after everything drains the node is
// clean.
func TestLapseConservation(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 2)
	for i := 1; i <= 6; i++ {
		runtime := float64(50 * i)
		deadline := 120.0 // some lapse, some don't
		j := djob(i, 1, 0, runtime, 40, deadline)
		nodes := c.CandidateNodes(nil, 0.3)
		if len(nodes) < 1 {
			t.Fatal("no candidate nodes")
		}
		if err := c.Start(j, 0.3, nodes[:1], nil); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if c.RunningCount() != 0 {
		t.Fatalf("%d jobs still running", c.RunningCount())
	}
	for n := 0; n < 2; n++ {
		if math.Abs(c.FreeShare(n)-1) > 1e-6 {
			t.Errorf("node %d free share %v after drain", n, c.FreeShare(n))
		}
	}
}

// A job completing exactly at its deadline must not double-release.
func TestCompletionAtLapseInstant(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	// Runs alone at rate 1: completes at t=100, deadline also 100.
	j := djob(1, 1, 0, 100, 100, 100)
	completed := false
	if err := c.Start(j, 1.0, []int{0}, func(*workload.Job) { completed = true }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !completed {
		t.Fatal("job never completed")
	}
	if got := c.FreeShare(0); math.Abs(got-1) > 1e-9 {
		t.Errorf("free share = %v after exact-deadline completion", got)
	}
}

func TestCommittedSecondsIgnoresLapsed(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	if err := c.Start(djob(1, 1, 0, 10000, 5, 10), 0.5, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(50, "probe", func() {
		if got := c.CommittedSeconds(0, 100); got != 0 {
			t.Errorf("CommittedSeconds = %v with only a lapsed job, want 0", got)
		}
	})
	e.Run()
}

func TestNoDeadlineJobsNeverLapse(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	j := job(1, 1, 500, 500) // Deadline zero
	if err := c.Start(j, 0.5, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(400, "probe", func() {
		if c.Lookup(j).Lapsed() {
			t.Error("deadline-less job lapsed")
		}
		if c.FreeShare(0) != 0.5 {
			t.Errorf("free share = %v, want 0.5 held", c.FreeShare(0))
		}
		// CommittedSeconds books it to its projected completion (t=500):
		// 100 more seconds at share 0.5 over a 200-second horizon.
		if got := c.CommittedSeconds(0, 200); math.Abs(got-50) > 1e-6 {
			t.Errorf("CommittedSeconds = %v, want 50", got)
		}
	})
	e.Run()
}

func TestKillReleasesResources(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 2)
	done := false
	j := djob(1, 2, 0, 1000, 50, 100)
	if err := c.Start(j, 0.5, []int{0, 1}, func(*workload.Job) { done = true }); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(40, "kill", func() {
		if err := c.Kill(j); err != nil {
			t.Fatal(err)
		}
		if c.RunningCount() != 0 {
			t.Error("job still running after kill")
		}
		if c.FreeShare(0) != 1 || c.FreeShare(1) != 1 {
			t.Errorf("shares not released: %v, %v", c.FreeShare(0), c.FreeShare(1))
		}
		if err := c.Kill(j); err == nil {
			t.Error("double kill accepted")
		}
	})
	e.Run()
	if done {
		t.Error("killed job invoked its completion callback")
	}
}

func TestKillLapsedJob(t *testing.T) {
	e := sim.NewEngine()
	c := NewTimeShared(e, 1)
	j := djob(1, 1, 0, 10000, 5, 10)
	if err := c.Start(j, 0.5, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	e.MustSchedule(50, "kill lapsed", func() {
		if !c.Lookup(j).Lapsed() {
			t.Fatal("job not lapsed yet")
		}
		if err := c.Kill(j); err != nil {
			t.Fatal(err)
		}
		if c.FreeShare(0) != 1 {
			t.Errorf("free share = %v after killing lapsed job", c.FreeShare(0))
		}
	})
	e.Run()
}
