package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/workload"
)

// workEps is the slack under which remaining work counts as finished,
// absorbing floating-point drift in progress integration.
const workEps = 1e-6

// LapsedWeightFactor scales the proportional-share weight of a job whose
// booking has lapsed (it ran past its own deadline without finishing). The
// reservation no longer exists for admission purposes, but the OS-level
// proportional share enforcing the job's tickets is not revoked, so the
// job keeps competing at its full former share (factor 1). This is how
// inaccurate runtime estimates poison a Libra-managed node: the scheduler
// admits new work against the lapsed share while the overrun job still
// consumes its slice, pushing total weight above 1 and squeezing every job
// below its booked share.
const LapsedWeightFactor = 1.0

// TSJob is one job executing on a time-shared cluster. The cluster reuses
// a record once its job has left the machine, so a caller may hold one
// only while the job runs.
type TSJob struct {
	Job *workload.Job
	// Share is the guaranteed processor fraction on each allocated node
	// (Libra's estimate/deadline), booked until the job's absolute
	// deadline.
	Share float64
	// Nodes are the indices of the allocated nodes.
	Nodes []int
	Start sim.Time

	remaining float64 // actual work left, in seconds at rate 1
	progress  float64 // actual work done
	// rate is the current execution rate (fraction of a processor): the
	// minimum over the job's nodes of nodeRate, attained at node slowest.
	rate    float64
	slowest int
	lapsed  bool // booking expired before completion
	lapseEv sim.Event
	// lapse is onLapse for this record, bound once: records are reused.
	lapse   sim.Handler
	done    func(*workload.Job)
	seq     uint64 // start sequence: orders equal job IDs on a node
	visited uint64 // stamp of the last recompute that rescanned the job
	gone    bool   // released from the machine; compact drops it from order
}

// Overrun reports whether the job has already executed longer than its user
// estimate promised — the signal LibraRiskD keys on.
func (t *TSJob) Overrun() bool { return t.progress >= t.Job.Estimate-workEps }

// Done reports whether the job's work is complete up to the integration
// epsilon — its completion event is due this instant.
func (t *TSJob) Done() bool { return t.remaining <= workEps }

// weight is the job's current proportional-share weight on each of its
// nodes.
func (t *TSJob) weight() float64 {
	if t.lapsed {
		return t.Share * LapsedWeightFactor
	}
	return t.Share
}

type tsNode struct {
	// booked is the share sum of jobs whose reservation is still active;
	// admission control sees 1 − booked as free.
	booked float64
	// lapsedWeight is the weight sum of jobs running past their deadline.
	lapsedWeight float64
	// rating scales the node's execution speed relative to the reference
	// machine the trace's runtimes were measured on (1.0 = SP2 node).
	rating float64
	// down marks a failed node: no free share, no candidates, until
	// repaired. A failing node's jobs are killed, so a down node is empty.
	down bool
	// dirty marks that the node's weights changed since the last
	// recompute, so the rates of jobs touching it must be refreshed. Jobs
	// on clean nodes keep their rate: recomputing from unchanged inputs
	// would yield the bitwise-identical float, so skipping is exact, not
	// approximate.
	dirty bool
	// unfit marks that the node's weights changed since CandidateNodes
	// last restored the best-fit order.
	unfit bool
	// jobs lists the node's running jobs in (job ID, start sequence) order,
	// the order CommittedSeconds sums in: float addition is not
	// associative, so a quoted price must not depend on insertion history.
	jobs []*TSJob
	// stamp lets Start detect a node listed twice without a set.
	stamp uint64
}

func (n *tsNode) totalWeight() float64 { return n.booked + n.lapsedWeight }

// TimeShared is a proportional-share cluster: each node runs any number of
// jobs, each holding a share of the processor booked until its deadline,
// with spare capacity redistributed proportionally to weights. With total
// weight W on a node, a job of weight w executes at rate w/W there (rate 1
// when alone); a parallel job advances at the rate of its slowest node.
//
// A job that reaches its own absolute deadline unfinished "lapses": its
// booking is released (admission control may commit the share to new
// work), and it keeps executing at LapsedWeightFactor of its former
// weight. Jobs whose Deadline field is zero never lapse. While every
// booking holds, a job's rate never falls below its share — Libra's
// guarantee — but lapsed jobs can push a node's total weight above 1,
// squeezing everyone below their booked share. That over-commitment is the
// mechanism by which under-estimated runtimes cascade into deadline misses
// (the paper's Set B).
type TimeShared struct {
	engine  *sim.Engine
	nodes   []tsNode
	running map[*workload.Job]*TSJob
	// order lists running jobs in start order: all float accumulation
	// iterates it so results do not depend on map iteration order.
	order      []*TSJob
	lastUpdate sim.Time
	next       sim.Event
	// dirtyNodes lists the nodes currently marked dirty, so recompute can
	// clear the flags without scanning the whole machine.
	dirtyNodes []int
	// fit lists every node, up or down, sorted by (1 − booked, index): the
	// best-fit order CandidateNodes reads. Only the unfit nodes can be out
	// of place; CandidateNodes, the order's one reader, re-places them.
	// down is not part of the key because Fail and Repair flip it without
	// touching a booking.
	fit []int
	// unfitNodes lists the nodes currently marked unfit.
	unfitNodes []int
	// downCount is the number of failed nodes, kept by Fail and Repair.
	downCount int
	// seq numbers Starts; stamp hands out fresh visit stamps.
	seq, stamp uint64
	// finished is onCompletion's reusable retire list.
	finished []*TSJob
	// free holds released records for Start to reuse.
	free []*TSJob
	// complete is onCompletion as a handler, bound once rather than per
	// reschedule.
	complete sim.Handler

	// busyIntegral accumulates useful processor work (Σ rate·width over
	// time) for Utilization. Capacity allocated on a fast node but idled
	// by a parallel job's slower node does not count.
	busyIntegral float64
}

// NewTimeShared returns a homogeneous time-shared cluster of the given
// size bound to the engine (every node at the reference speed, as the
// paper's SDSC SP2 — SPEC rating 168 throughout).
func NewTimeShared(engine *sim.Engine, nodes int) *TimeShared {
	if nodes <= 0 {
		panic(fmt.Sprintf("cluster: non-positive node count %d", nodes))
	}
	ratings := make([]float64, nodes)
	for i := range ratings {
		ratings[i] = 1
	}
	return NewTimeSharedRated(engine, ratings)
}

// NewTimeSharedRated returns a heterogeneous time-shared cluster: node i
// executes work at ratings[i] times the reference speed (the speed the
// trace's runtimes assume). Schedulers that are blind to ratings — like
// Libra's share admission — misjudge slow nodes, which is exactly the
// heterogeneity risk the rating ablation measures.
func NewTimeSharedRated(engine *sim.Engine, ratings []float64) *TimeShared {
	if len(ratings) == 0 {
		panic("cluster: no node ratings")
	}
	ts := &TimeShared{
		engine:  engine,
		nodes:   make([]tsNode, len(ratings)),
		running: make(map[*workload.Job]*TSJob),
		fit:     make([]int, len(ratings)),
	}
	for i, r := range ratings {
		if r <= 0 {
			panic(fmt.Sprintf("cluster: non-positive rating %v for node %d", r, i))
		}
		ts.nodes[i].rating = r
		ts.fit[i] = i // all free: index order
	}
	ts.complete = ts.onCompletion
	return ts
}

// Nodes returns the machine size.
func (t *TimeShared) Nodes() int { return len(t.nodes) }

// RunningCount returns the number of executing jobs.
func (t *TimeShared) RunningCount() int { return len(t.running) }

// FreeShare returns the unbooked processor fraction on node i — what
// admission control may still commit. Lapsed jobs do not count against it;
// a failed node has nothing to commit.
func (t *TimeShared) FreeShare(i int) float64 {
	if t.nodes[i].down {
		return 0
	}
	return 1 - t.nodes[i].booked
}

// UpNodes returns the number of nodes currently operational.
func (t *TimeShared) UpNodes() int { return len(t.nodes) - t.downCount }

// NodeHasOverrun reports whether any job on node i has exceeded its
// estimate (and is therefore holding capacity for an unknown further
// time).
//
//lint:hot
func (t *TimeShared) NodeHasOverrun(i int) bool {
	t.advance()
	for _, tj := range t.nodes[i].jobs {
		if tj.Overrun() {
			return true
		}
	}
	return false
}

// CandidateNodes appends to dst the indices of up nodes with at least the
// given free share, best-fit first (least remaining free share, then
// index) — Libra saturates nodes to their maximum — and returns the
// extended slice. The result never aliases the cluster's own state, so
// callers may filter it in place.
//
// Free share ascends along the fit order, once restored, and
// x+workEps >= share is monotone in x, so the candidates are a suffix of
// it: a binary search finds where it starts. The search reads the fit key
// 1 − booked rather than FreeShare, which answers 0 for the down nodes the
// order still holds.
//
//lint:hot
func (t *TimeShared) CandidateNodes(dst []int, share float64) []int {
	if len(t.unfitNodes) > 0 {
		t.refit()
	}
	lo, hi := 0, len(t.fit)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if 1-t.nodes[t.fit[mid]].booked+workEps >= share {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for _, i := range t.fit[lo:] {
		if !t.nodes[i].down { // a failed node can host nothing, however small the share
			dst = append(dst, i) //lint:allow hotalloc — grows the caller's buffer only until it holds the machine
		}
	}
	return dst
}

// CommittedSeconds returns the processor-seconds booked on node i over the
// window [now, now+horizon): each active booking lasts until its job's
// absolute deadline. Lapsed jobs contribute nothing — their booking has
// expired even though they still execute. Libra+$'s RESFree is derived
// from this. Bookings are summed in (job ID, start sequence) order.
//
//lint:hot
func (t *TimeShared) CommittedSeconds(i int, horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	t.advance()
	now := float64(t.engine.Now())
	total := 0.0
	for _, tj := range t.nodes[i].jobs {
		if tj.lapsed {
			continue
		}
		end := tj.Job.AbsDeadline()
		if tj.Job.Deadline <= 0 { // no deadline: booked until completion
			end = now + tj.remaining/math.Max(tj.rate, tj.Share)
		}
		dur := math.Min(horizon, math.Max(0, end-now))
		total += tj.Share * dur
	}
	return total
}

// Start begins executing j immediately with the given guaranteed share on
// the given nodes. done fires at actual completion, after shares have been
// released.
func (t *TimeShared) Start(j *workload.Job, share float64, nodes []int, done func(*workload.Job)) error {
	if share <= 0 || share > 1+workEps {
		return fmt.Errorf("cluster: job %d share %v outside (0,1]", j.ID, share)
	}
	if len(nodes) != j.Procs {
		return fmt.Errorf("cluster: job %d needs %d nodes, given %d", j.ID, j.Procs, len(nodes))
	}
	t.stamp++
	for _, n := range nodes {
		if n < 0 || n >= len(t.nodes) {
			return fmt.Errorf("cluster: job %d: node index %d out of range", j.ID, n)
		}
		if t.nodes[n].stamp == t.stamp {
			return fmt.Errorf("cluster: job %d: node %d allocated twice", j.ID, n)
		}
		t.nodes[n].stamp = t.stamp
		if t.FreeShare(n)+workEps < share {
			return fmt.Errorf("cluster: job %d: node %d has free share %v < %v", j.ID, n, t.FreeShare(n), share)
		}
	}
	if _, dup := t.running[j]; dup {
		return fmt.Errorf("cluster: job %d already running", j.ID)
	}
	t.advance()
	t.seq++
	tj := t.record()
	// An infinite rate with no slowest node makes recompute take the
	// minimum over every node of the job, all of them dirty below.
	*tj = TSJob{
		Job:       j,
		Share:     share,
		Nodes:     append(tj.Nodes[:0], nodes...),
		Start:     t.engine.Now(),
		remaining: j.Runtime,
		rate:      math.Inf(1),
		slowest:   -1,
		lapse:     tj.lapse,
		done:      done,
		seq:       t.seq,
	}
	for _, n := range nodes {
		t.nodes[n].booked = math.Min(1, t.nodes[n].booked+share)
		t.nodes[n].jobs = slices.Insert(t.nodes[n].jobs, jobPos(t.nodes[n].jobs, tj), tj)
	}
	t.running[j] = tj
	t.order = append(t.order, tj)
	t.markDirty(tj.Nodes)
	if j.Deadline > 0 {
		tj.lapseEv = t.engine.MustSchedule(
			sim.Time(math.Max(j.AbsDeadline(), float64(t.engine.Now()))),
			"lapse booking",
			tj.lapse,
		)
	}
	t.recompute()
	return nil
}

// record returns a released record to reuse, or a new one with its lapse
// handler bound.
func (t *TimeShared) record() *TSJob {
	if k := len(t.free) - 1; k >= 0 {
		tj := t.free[k]
		t.free[k] = nil
		t.free = t.free[:k]
		return tj
	}
	tj := &TSJob{}
	tj.lapse = func() { t.onLapse(tj) }
	return tj
}

// onLapse expires a still-running job's booking at its deadline.
func (t *TimeShared) onLapse(tj *TSJob) {
	tj.lapseEv = sim.Event{}
	if _, ok := t.running[tj.Job]; !ok {
		return // completed in the same instant
	}
	t.advance()
	tj.lapsed = true
	for _, n := range tj.Nodes {
		t.nodes[n].booked -= tj.Share
		if t.nodes[n].booked < 0 {
			t.nodes[n].booked = 0
		}
		t.nodes[n].lapsedWeight += tj.weight()
	}
	t.markDirty(tj.Nodes)
	t.recompute()
}

// Utilization returns the machine's useful-work utilization from time zero
// to the current instant: executed processor-seconds over capacity.
//
// Utilization is a pure read: it extends the integral into a local instead
// of calling advance, because checkpointing progress at a read splits the
// rate·dt products at the read instant and perturbs the last ulp of every
// job's remaining work. Reads (report snapshots) must not change a single
// outcome byte — that is the determinism contract session migration
// byte-checks against.
//
//lint:hot
func (t *TimeShared) Utilization() float64 {
	now := float64(t.engine.Now())
	if now <= 0 {
		return 0
	}
	util := t.busyIntegral
	if dt := now - float64(t.lastUpdate); dt > 0 {
		for _, tj := range t.order {
			util += tj.rate * float64(tj.Job.Procs) * dt
		}
	}
	return util / (float64(len(t.nodes)) * now)
}

// Kill terminates a running job immediately, releasing its share/weight
// without invoking its completion callback. Used by the termination
// extension (the paper's non-preemption future-work issue).
func (t *TimeShared) Kill(j *workload.Job) error {
	tj, ok := t.running[j]
	if !ok {
		return fmt.Errorf("cluster: kill of job %d, which is not running", j.ID)
	}
	t.advance()
	t.release(tj)
	t.compact()
	t.recompute()
	t.recycle(tj)
	return nil
}

// Fail marks node i as failed and kills every job with a share on it — a
// parallel job dies whole when any of its nodes fails. Victims are returned
// in job-ID order so the owning policy can account for them; the node
// accepts no new work until Repair. Failing a node that is already down is
// a programming error (the generator emits strictly alternating events).
//
// The victims leave at one instant, so one recompute serves them all: the
// rates and the completion event it produces are those of a kill-by-kill
// sequence, whose intermediate rates never integrate over any time. The
// bookings are released in the same victim order, so every node's float
// sums match too. A node with no victims changes no weight and recomputes
// nothing.
func (t *TimeShared) Fail(i int) []*workload.Job {
	if i < 0 || i >= len(t.nodes) {
		panic(fmt.Sprintf("cluster: Fail of node %d on a %d-node machine", i, len(t.nodes)))
	}
	if t.nodes[i].down {
		panic(fmt.Sprintf("cluster: node %d failed twice without repair", i))
	}
	var victims []*workload.Job
	if jobs := t.nodes[i].jobs; len(jobs) > 0 {
		t.advance()
		victims = make([]*workload.Job, 0, len(jobs))
		for len(jobs) > 0 { // (ID, start sequence) order; release shrinks the list
			tj := jobs[0]
			victims = append(victims, tj.Job)
			t.release(tj)
			t.recycle(tj) // nothing starts before compact drops it
			jobs = t.nodes[i].jobs
		}
		t.compact()
		t.recompute()
	}
	t.nodes[i].down = true
	t.downCount++
	return victims
}

// Repair returns a failed node to service, empty. Repairing an up node is
// a programming error.
func (t *TimeShared) Repair(i int) {
	if i < 0 || i >= len(t.nodes) {
		panic(fmt.Sprintf("cluster: Repair of node %d on a %d-node machine", i, len(t.nodes)))
	}
	if !t.nodes[i].down {
		panic(fmt.Sprintf("cluster: node %d repaired while up", i))
	}
	t.nodes[i].down = false
	t.downCount--
}

// Lookup returns the running-state record for j, or nil.
func (t *TimeShared) Lookup(j *workload.Job) *TSJob {
	t.advance()
	return t.running[j]
}

// advance integrates progress from the last update to the current time.
//
//lint:hot
func (t *TimeShared) advance() {
	now := t.engine.Now()
	dt := float64(now - t.lastUpdate)
	if dt > 0 {
		for _, tj := range t.order {
			tj.progress += tj.rate * dt
			tj.remaining -= tj.rate * dt
			if tj.remaining < 0 {
				tj.remaining = 0
			}
			t.busyIntegral += tj.rate * float64(tj.Job.Procs) * dt
		}
	}
	t.lastUpdate = now
}

// markDirty flags the given nodes as weight-changed since the last
// recompute and since the last restore of the best-fit order. Every
// mutation of booked/lapsedWeight must be followed by a markDirty of the
// affected nodes before recompute runs.
func (t *TimeShared) markDirty(nodes []int) {
	for _, n := range nodes {
		nd := &t.nodes[n]
		if !nd.dirty {
			nd.dirty = true
			t.dirtyNodes = append(t.dirtyNodes, n) //lint:allow hotalloc — reused buffer, grows only until it holds the machine
		}
		if !nd.unfit {
			nd.unfit = true
			t.unfitNodes = append(t.unfitNodes, n) //lint:allow hotalloc — reused buffer, grows only until it holds the machine
		}
	}
}

// recompute refreshes the execution rate of every job on a dirty node and
// reschedules the next completion event. Callers must advance() first.
//
// A job's rate is the float minimum of nodeRate over its nodes, and the job
// caches the node that attains it. Before a recompute every cache is exact:
// rate equals the slowest node's value and no node's value is below it.
// Clean nodes keep their values: nodeRate reads only the job's weight, the
// node's total weight and its rating, and a job's weight changes only on
// its own lapse, which dirties all of its nodes. So only (job, dirty node)
// pairs are evaluated. A value below the cached rate makes that node the
// slowest; if the slowest node itself got faster, the minimum may have
// moved to any node, and the job's whole node list is rescanned (once:
// every node's total is already final). Any other value leaves the minimum
// where it was. The minimum of floats is one of them, exactly, so the
// result is bitwise the rate a scan of every node of every job would give,
// whatever the order the pairs are visited in. A new job starts at rate +Inf
// with no slowest node and every node dirty, so it takes the minimum over
// all of them.
//
// The completion event is always cancelled and rescheduled, even when the
// soonest eta is unchanged, so the kernel's event sequence numbers (and
// therefore same-time tie-breaking) match a full recompute step for step.
//
//lint:hot
func (t *TimeShared) recompute() {
	t.stamp++
	for _, n := range t.dirtyNodes {
		nd := &t.nodes[n]
		nd.dirty = false
		total := nd.totalWeight()
		for _, tj := range nd.jobs {
			if tj.visited == t.stamp {
				continue // rescanned: its rate is final
			}
			switch r := nodeRate(tj.weight(), total, nd.rating); {
			case r < tj.rate:
				tj.rate, tj.slowest = r, n
			case r > tj.rate && n == tj.slowest:
				t.rescan(tj)
			}
		}
	}
	t.dirtyNodes = t.dirtyNodes[:0]
	t.engine.Cancel(t.next)
	t.next = sim.Event{}
	if len(t.running) == 0 {
		return
	}
	soonest := sim.Infinity
	for _, tj := range t.order {
		eta := t.engine.Now() + sim.Time(tj.remaining/tj.rate)
		if eta < soonest {
			soonest = eta
		}
	}
	t.next = t.engine.MustSchedule(soonest, "timeshared completion", t.complete)
}

// nodeRate is the rate a job of weight w gets on a node carrying total
// weight: the node delivers the job's weighted slice at its own speed.
func nodeRate(w, total, rating float64) float64 {
	frac := 1.0
	if total > w {
		frac = w / total
	}
	return frac * rating
}

// rescan sets tj's rate and slowest node from all of its nodes — a
// parallel job advances at its slowest node — and stamps it as visited by
// the current recompute.
func (t *TimeShared) rescan(tj *TSJob) {
	tj.visited = t.stamp
	w := tj.weight()
	tj.rate = math.Inf(1)
	for _, n := range tj.Nodes {
		nd := &t.nodes[n]
		if r := nodeRate(w, nd.totalWeight(), nd.rating); r < tj.rate {
			tj.rate, tj.slowest = r, n
		}
	}
}

// refit restores the fit order from the nodes marked unfit since the last
// restore: it drops them, then binary-inserts each at its new key. The
// other nodes kept their bookings, so they are still in order; the result
// is the one order sorted by key, however many changes it batches. The key
// is the exact float 1 − booked that FreeShare returns, not booked itself:
// two different bookings can round to the same free share, and those must
// tie on index.
func (t *TimeShared) refit() {
	k := 0
	for i, n := range t.fit {
		if t.nodes[n].unfit {
			continue
		}
		if k != i {
			t.fit[k] = n
		}
		k++
	}
	kept := t.fit[:k]
	for _, i := range t.unfitNodes {
		t.nodes[i].unfit = false
		free := 1 - t.nodes[i].booked
		lo, hi := 0, len(kept)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			f := 1 - t.nodes[kept[mid]].booked
			if f < free || (f == free && kept[mid] < i) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		kept = kept[:len(kept)+1] // fit's capacity is the machine size
		copy(kept[lo+1:], kept[lo:])
		kept[lo] = i
	}
	t.fit = kept
	t.unfitNodes = t.unfitNodes[:0]
}

// jobPos returns where tj belongs in a node's (job ID, start sequence)
// ordered job list.
func jobPos(jobs []*TSJob, tj *TSJob) int {
	pos, _ := slices.BinarySearchFunc(jobs, tj, byIDThenSeq)
	return pos
}

func byID(a, b *TSJob) int { return cmp.Compare(a.Job.ID, b.Job.ID) }

func byIDThenSeq(a, b *TSJob) int {
	if c := byID(a, b); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// removeJob drops tj from the node's job list.
func (n *tsNode) removeJob(tj *TSJob) {
	if k := jobPos(n.jobs, tj); k < len(n.jobs) && n.jobs[k] == tj {
		n.jobs = slices.Delete(n.jobs, k, k+1)
	}
}

// release takes tj off the machine: it returns the job's booking, or its
// lapsed weight, to its nodes, drops it from their job lists and from the
// running set, and marks it gone for compact.
func (t *TimeShared) release(tj *TSJob) {
	delete(t.running, tj.Job)
	t.engine.Cancel(tj.lapseEv)
	tj.lapseEv = sim.Event{}
	for _, n := range tj.Nodes {
		nd := &t.nodes[n]
		if tj.lapsed {
			nd.lapsedWeight -= tj.weight()
			if nd.lapsedWeight < 0 {
				nd.lapsedWeight = 0
			}
		} else {
			nd.booked -= tj.Share
			if nd.booked < 0 {
				nd.booked = 0
			}
		}
		nd.removeJob(tj)
	}
	t.markDirty(tj.Nodes)
	tj.gone = true
}

// compact drops the gone records from order in place, keeping the rest in
// start order and storing only the slots that move.
func (t *TimeShared) compact() {
	k := 0
	for i, tj := range t.order {
		if tj.gone {
			continue
		}
		if k != i {
			t.order[k] = tj
		}
		k++
	}
	t.order = t.order[:k]
}

// recycle hands a released record back to Start, dropping what it refers
// to.
func (t *TimeShared) recycle(tj *TSJob) {
	tj.Job, tj.done = nil, nil
	t.free = append(t.free, tj)
}

// onCompletion retires every job whose work is done, then reschedules.
func (t *TimeShared) onCompletion() {
	t.next = sim.Event{}
	t.advance()
	finished := t.finished[:0]
	for _, tj := range t.order {
		if tj.remaining <= workEps {
			finished = append(finished, tj) //lint:allow hotalloc — reused buffer, grows only until it holds the largest retire batch
		}
	}
	slices.SortStableFunc(finished, byID)
	for _, tj := range finished {
		t.release(tj)
	}
	t.compact()
	t.recompute()
	for _, tj := range finished {
		if tj.done != nil {
			tj.done(tj.Job)
		}
	}
	// Only now may Start reuse the records: the callbacks above read them
	// and may start jobs themselves.
	for _, tj := range finished {
		t.recycle(tj)
	}
	clear(finished)
	t.finished = finished[:0]
}
