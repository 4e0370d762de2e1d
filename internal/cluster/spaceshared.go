package cluster

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

// SpaceJob describes one job currently executing on a space-shared cluster.
type SpaceJob struct {
	Job *workload.Job
	// Nodes are the indices of the processors the job occupies.
	Nodes []int
	// Speed is the effective execution speed: the minimum rating among the
	// allocated nodes (a parallel job advances in lockstep).
	Speed float64
	Start sim.Time
	// EstEnd is the completion time the scheduler believes in (start +
	// estimate/speed); ActualEnd is when the simulation really completes
	// it.
	EstEnd    sim.Time
	ActualEnd sim.Time

	// ev is the pending completion event, cancelled if a node failure
	// kills the job first.
	ev sim.Event
}

// SpaceShared is a space-shared (dedicated-processor) cluster. Jobs occupy
// their full processor count from Start until their actual runtime (scaled
// by node speed) elapses.
type SpaceShared struct {
	engine  *sim.Engine
	ratings []float64
	// bySpeed lists every node fastest first (rating descending, then
	// index). Ratings never change, so it is built once and pickNodes
	// scans it instead of sorting the free pool on every Start.
	bySpeed []int
	busy    []bool
	// down marks failed nodes: neither free nor allocatable until repaired.
	down []bool
	// occupant indexes the job (if any) executing on each node, so a node
	// failure finds its single victim in O(1).
	occupant []*SpaceJob
	// free counts nodes that are idle AND up; busyProcs counts nodes
	// occupied by jobs. Down idle nodes are in neither bucket.
	free      int
	busyProcs int
	running   map[*workload.Job]*SpaceJob
	// byEnd keeps the running jobs sorted by (EstEnd, ID), maintained
	// incrementally on Start and release so the availability queries
	// (EarliestAvailable, AvailableAt, Running) never rebuild and re-sort
	// the set from the map. believedEnd clamps EstEnd up to now, which
	// reorders only jobs inside the clamped prefix — and every answer
	// drawn from that prefix is `now` regardless of its internal order,
	// so iterating byEnd gives bitwise-identical results to sorting by
	// believedEnd.
	byEnd []*SpaceJob

	// busyIntegral accumulates busy processor-seconds for Utilization.
	busyIntegral float64
	lastChange   sim.Time
}

// NewSpaceShared returns a homogeneous space-shared cluster of the given
// size bound to the engine (every node at the reference speed).
func NewSpaceShared(engine *sim.Engine, nodes int) *SpaceShared {
	if nodes <= 0 {
		panic(fmt.Sprintf("cluster: non-positive node count %d", nodes))
	}
	ratings := make([]float64, nodes)
	for i := range ratings {
		ratings[i] = 1
	}
	return NewSpaceSharedRated(engine, ratings)
}

// NewSpaceSharedRated returns a heterogeneous space-shared cluster: node i
// executes work at ratings[i] times the reference speed. Allocation is
// fastest-first; a parallel job runs at its slowest allocated node's speed.
func NewSpaceSharedRated(engine *sim.Engine, ratings []float64) *SpaceShared {
	if len(ratings) == 0 {
		panic("cluster: no node ratings")
	}
	for i, r := range ratings {
		if r <= 0 {
			panic(fmt.Sprintf("cluster: non-positive rating %v for node %d", r, i))
		}
	}
	bySpeed := make([]int, len(ratings))
	for i := range bySpeed {
		bySpeed[i] = i
	}
	sort.Slice(bySpeed, func(a, b int) bool {
		ra, rb := ratings[bySpeed[a]], ratings[bySpeed[b]]
		if ra != rb {
			return ra > rb
		}
		return bySpeed[a] < bySpeed[b]
	})
	return &SpaceShared{
		engine:   engine,
		ratings:  append([]float64(nil), ratings...),
		bySpeed:  bySpeed,
		busy:     make([]bool, len(ratings)),
		down:     make([]bool, len(ratings)),
		occupant: make([]*SpaceJob, len(ratings)),
		free:     len(ratings),
		running:  make(map[*workload.Job]*SpaceJob),
	}
}

// Nodes returns the machine size.
func (s *SpaceShared) Nodes() int { return len(s.ratings) }

// FreeProcs returns the number of processors that are idle and up.
func (s *SpaceShared) FreeProcs() int { return s.free }

// CanStart reports whether a job of the given width fits right now.
//
//lint:hot
func (s *SpaceShared) CanStart(procs int) bool {
	return procs <= s.free && procs <= len(s.ratings)
}

// accrue integrates busy processor time up to the current instant; callers
// mutate the busy count immediately afterwards. Down nodes do no work and
// contribute nothing, but they stay in the capacity denominator — the
// provider still owns them.
//
//lint:hot
func (s *SpaceShared) accrue() {
	now := s.engine.Now()
	s.busyIntegral += float64(s.busyProcs) * float64(now-s.lastChange)
	s.lastChange = now
}

// Utilization returns the machine's processor utilization from time zero
// to the current instant: busy processor-seconds over capacity (counted in
// processors, not ratings). Zero at time zero.
//
//lint:hot
func (s *SpaceShared) Utilization() float64 {
	now := float64(s.engine.Now())
	if now <= 0 {
		return 0
	}
	current := s.busyIntegral + float64(s.busyProcs)*(now-float64(s.lastChange))
	return current / (float64(len(s.ratings)) * now)
}

// pickNodes selects the procs fastest free (idle and up) nodes, ties by
// index: the first procs free nodes in bySpeed order. The result is the
// job's retained allocation, so it is the one slice allocated.
func (s *SpaceShared) pickNodes(procs int) []int {
	nodes := make([]int, 0, procs)
	for _, n := range s.bySpeed {
		if len(nodes) == procs {
			break
		}
		if !s.busy[n] && !s.down[n] {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// Start begins executing j immediately on the fastest free nodes. done
// fires at the job's actual completion, after processors have been
// released.
func (s *SpaceShared) Start(j *workload.Job, done func(finished *workload.Job)) error {
	if j.Procs > len(s.ratings) {
		return fmt.Errorf("cluster: job %d needs %d procs, machine has %d", j.ID, j.Procs, len(s.ratings))
	}
	if j.Procs > s.free {
		return fmt.Errorf("cluster: job %d needs %d procs, only %d free", j.ID, j.Procs, s.free)
	}
	nodes := s.pickNodes(j.Procs)
	speed := s.ratings[nodes[0]]
	for _, n := range nodes[1:] {
		if s.ratings[n] < speed {
			speed = s.ratings[n]
		}
	}
	now := s.engine.Now()
	sj := &SpaceJob{
		Job:       j,
		Nodes:     nodes,
		Speed:     speed,
		Start:     now,
		EstEnd:    now + sim.Time(j.Estimate/speed),
		ActualEnd: now + sim.Time(j.Runtime/speed),
	}
	s.accrue()
	for _, n := range nodes {
		s.busy[n] = true
		s.occupant[n] = sj
	}
	s.free -= j.Procs
	s.busyProcs += j.Procs
	s.running[j] = sj
	s.insertByEnd(sj)
	sj.ev = s.engine.MustSchedule(sj.ActualEnd, "spaceshared completion", func() {
		s.accrue()
		s.release(sj)
		if done != nil {
			done(j)
		}
	})
	return nil
}

// endLess is the (EstEnd, ID) strict order byEnd is kept in. Duplicate
// client-supplied job IDs can tie in it; a job inserts before its ties.
func endLess(a, b *SpaceJob) bool {
	if a.EstEnd != b.EstEnd {
		return a.EstEnd < b.EstEnd
	}
	return a.Job.ID < b.Job.ID
}

// insertByEnd places sj into the sorted running list.
func (s *SpaceShared) insertByEnd(sj *SpaceJob) {
	i := sort.Search(len(s.byEnd), func(k int) bool { return !endLess(s.byEnd[k], sj) })
	s.byEnd = append(s.byEnd, nil)
	copy(s.byEnd[i+1:], s.byEnd[i:])
	s.byEnd[i] = sj
}

// removeByEnd deletes sj from the sorted running list, looking for it
// among the entries that tie with it.
func (s *SpaceShared) removeByEnd(sj *SpaceJob) {
	i := sort.Search(len(s.byEnd), func(k int) bool { return !endLess(s.byEnd[k], sj) })
	for i < len(s.byEnd) && s.byEnd[i] != sj && !endLess(sj, s.byEnd[i]) {
		i++
	}
	if i >= len(s.byEnd) || s.byEnd[i] != sj {
		panic(fmt.Sprintf("cluster: job %d missing from byEnd index", sj.Job.ID))
	}
	copy(s.byEnd[i:], s.byEnd[i+1:])
	s.byEnd[len(s.byEnd)-1] = nil
	s.byEnd = s.byEnd[:len(s.byEnd)-1]
}

// release returns a finished or killed job's processors to the free pool.
// Callers must accrue() first. Down nodes in the allocation (only possible
// on the failure path) are not freed.
func (s *SpaceShared) release(sj *SpaceJob) {
	delete(s.running, sj.Job)
	s.removeByEnd(sj)
	for _, n := range sj.Nodes {
		s.busy[n] = false
		s.occupant[n] = nil
		if !s.down[n] {
			s.free++
		}
	}
	s.busyProcs -= sj.Job.Procs
}

// Fail marks node i as failed. The node leaves the allocatable pool until
// Repair; the job executing on it (if any) is killed — a parallel job dies
// whole when any of its nodes fails, its surviving processors return to the
// free pool, and its completion event is cancelled. The victim job is
// returned (nil when the node was idle) so the owning policy can requeue,
// resubmit, or write the job off. Failing a node that is already down is a
// programming error (the generator emits strictly alternating events).
func (s *SpaceShared) Fail(i int) *workload.Job {
	if i < 0 || i >= len(s.ratings) {
		panic(fmt.Sprintf("cluster: Fail of node %d on a %d-node machine", i, len(s.ratings)))
	}
	if s.down[i] {
		panic(fmt.Sprintf("cluster: node %d failed twice without repair", i))
	}
	s.accrue()
	s.down[i] = true
	sj := s.occupant[i]
	if sj == nil {
		s.free-- // an idle node leaves the free pool
		return nil
	}
	s.engine.Cancel(sj.ev)
	s.release(sj)
	return sj.Job
}

// Repair returns a failed node to service, idle. Repairing an up node is a
// programming error.
func (s *SpaceShared) Repair(i int) {
	if i < 0 || i >= len(s.ratings) {
		panic(fmt.Sprintf("cluster: Repair of node %d on a %d-node machine", i, len(s.ratings)))
	}
	if !s.down[i] {
		panic(fmt.Sprintf("cluster: node %d repaired while up", i))
	}
	s.accrue()
	s.down[i] = false
	s.free++
}

// Running returns the executing jobs, ordered by believed completion time
// (then job ID) for deterministic iteration. The returned slice is a copy;
// callers may reorder it freely.
func (s *SpaceShared) Running() []*SpaceJob {
	return append([]*SpaceJob(nil), s.byEnd...)
}

// believedEnd is when the scheduler expects sj to release its processors: a
// job past its estimate is presumed to finish imminently (the standard
// backfilling treatment of runtime under-estimates).
//
//lint:hot
func (s *SpaceShared) believedEnd(sj *SpaceJob) sim.Time {
	now := s.engine.Now()
	if sj.EstEnd < now {
		return now
	}
	return sj.EstEnd
}

// EarliestAvailable returns the earliest time (>= now) at which at least
// procs processors are expected to be free, according to estimates of the
// running jobs. This is the EASY backfilling "reservation" anchor. On a
// heterogeneous machine it is count-based: which processors free up is not
// modeled (backfilling has no canonical heterogeneous form).
//
//lint:hot
func (s *SpaceShared) EarliestAvailable(procs int) (sim.Time, error) {
	if procs > len(s.ratings) {
		//lint:allow hotalloc — misconfiguration error path, fires at most once per run, never in steady state
		return 0, fmt.Errorf("cluster: width %d exceeds machine size %d", procs, len(s.ratings))
	}
	if procs <= s.free {
		return s.engine.Now(), nil
	}
	// Walk byEnd directly. Its (EstEnd, ID) order differs from the
	// believedEnd order only among jobs with EstEnd < now — which form a
	// prefix of byEnd, all answer `now`, and contribute an
	// order-independent processor sum — so the result is identical to
	// sorting by (believedEnd, ID).
	free := s.free
	for _, sj := range s.byEnd {
		free += sj.Job.Procs
		if free >= procs {
			return s.believedEnd(sj), nil
		}
	}
	// Releasing every running job still leaves fewer than procs processors:
	// failed nodes have shrunk the machine below the requested width. The
	// width becomes available only after repairs the scheduler cannot see,
	// so the reservation anchor is "never" — callers treat Infinity as an
	// unblocked backfill window, and admission control eventually rejects
	// the job when its deadline lapses.
	return sim.Infinity, nil
}

// AvailableAt returns the number of processors expected to be free at time
// t (>= now), per estimates of the running jobs.
//
//lint:hot
func (s *SpaceShared) AvailableAt(t sim.Time) int {
	free := s.free
	for _, sj := range s.byEnd {
		if sj.EstEnd > t {
			// byEnd ascends in EstEnd, and believedEnd only raises
			// EstEnd, so no later job can satisfy believedEnd <= t.
			break
		}
		if s.believedEnd(sj) <= t {
			free += sj.Job.Procs
		}
	}
	return free
}
