package scheduler

// The space-shared policies in their direct formulation: every pass
// purges, stable-sorts the whole queue and re-purges after each head
// start. Kept verbatim (types and constructors renamed) as the reference
// the differential battery in easy_differential_test.go holds the
// ordered-queue, one-walk policies to.

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/workload"
)

// refBackfill implements EASY backfilling (Lifka; Mu'alem & Feitelson)
// over a space-shared cluster with the paper's "generous" admission
// control: jobs wait unexamined in a priority queue and are accepted only
// prior to execution; a job is rejected once its runtime estimate can no
// longer fit before its deadline (which covers deadlines that lapse while
// queued), and — under the commodity market model — when its quoted cost
// exceeds its budget.
type refBackfill struct {
	ctx     *Context
	cluster *cluster.SpaceShared
	queue   []*workload.Job
	name    string
	// less orders the queue by the policy's primary scheduling parameter.
	less func(a, b *workload.Job) bool
}

// refFCFSBF returns First Come First Serve with EASY backfilling.
func refFCFSBF(ctx *Context) Policy {
	return newRefBackfill(ctx, "FCFS-BF", func(a, b *workload.Job) bool {
		if a.Submit != b.Submit {
			return a.Submit < b.Submit
		}
		return a.ID < b.ID
	})
}

// refSJFBF returns Shortest Job First with EASY backfilling (job length is
// the user estimate — the scheduler never sees actual runtimes).
func refSJFBF(ctx *Context) Policy {
	return newRefBackfill(ctx, "SJF-BF", func(a, b *workload.Job) bool {
		if a.Estimate != b.Estimate {
			return a.Estimate < b.Estimate
		}
		return a.ID < b.ID
	})
}

// refEDFBF returns Earliest Deadline First with EASY backfilling.
func refEDFBF(ctx *Context) Policy {
	return newRefBackfill(ctx, "EDF-BF", func(a, b *workload.Job) bool {
		if a.AbsDeadline() != b.AbsDeadline() {
			return a.AbsDeadline() < b.AbsDeadline()
		}
		return a.ID < b.ID
	})
}

func newRefBackfill(ctx *Context, name string, less func(a, b *workload.Job) bool) Policy {
	return &refBackfill{
		ctx:     ctx,
		cluster: newSpaceCluster(ctx),
		name:    name,
		less:    less,
	}
}

func (b *refBackfill) Name() string { return b.name }

// Utilization reports the machine's processor utilization so far.
func (b *refBackfill) Utilization() float64 { return b.cluster.Utilization() }

// EarliestAvailable implements AvailabilityEstimator over the space-shared
// machine's running set.
func (b *refBackfill) EarliestAvailable(procs int) (float64, error) {
	return spaceEarliest(b.cluster, procs)
}

func (b *refBackfill) Submit(j *workload.Job) {
	b.queue = append(b.queue, j)
	b.schedule()
}

func (b *refBackfill) Drain() {
	// The scheduling loop runs at every completion, and an empty machine
	// fits any job, so a job still queued when the event queue empties has
	// already failed admission — or, under fault injection, is a requeued
	// failure victim the shrunken machine could never restart.
	now := float64(b.ctx.Engine.Now())
	for _, j := range b.queue {
		writeOff(b.ctx.Collector, j, now)
	}
	b.queue = nil
}

// NodeDown fails a node: its resident job (if any) is requeued for a full
// restart and faces admission again — if its estimate no longer fits before
// its deadline, the purge writes it off as killed.
func (b *refBackfill) NodeDown(node int) {
	if victim := b.cluster.Fail(node); victim != nil {
		b.queue = append(b.queue, victim)
	}
	b.schedule()
}

// NodeUp repairs a node; the restored capacity may start queued jobs.
func (b *refBackfill) NodeUp(node int) {
	b.cluster.Repair(node)
	b.schedule()
}

// admissible applies the generous admission control at time now.
func (b *refBackfill) admissible(j *workload.Job, now float64) bool {
	if now+j.Estimate > j.AbsDeadline() {
		return false
	}
	if b.ctx.Model == economy.Commodity &&
		economy.BaseCharge(j.Estimate, b.ctx.PriceAt(now)) > j.Budget {
		return false
	}
	return true
}

// start accepts and begins executing a queued job.
func (b *refBackfill) start(j *workload.Job) {
	now := float64(b.ctx.Engine.Now())
	b.ctx.Collector.Accepted(j)
	b.ctx.Collector.Started(j, now)
	if err := b.cluster.Start(j, b.onFinish); err != nil {
		panic(err) // callers verified CanStart
	}
}

func (b *refBackfill) onFinish(j *workload.Job) {
	now := float64(b.ctx.Engine.Now())
	var utility float64
	switch b.ctx.Model {
	case economy.Commodity:
		// Charged at the price in effect when the job was accepted (its
		// start instant under the generous admission control).
		utility = economy.BaseCharge(j.Estimate, b.ctx.PriceAt(b.ctx.Collector.Outcome(j).StartTime))
	case economy.BidBased:
		utility = economy.BidUtility(j, now)
	}
	b.ctx.Collector.Finished(j, now, utility)
	b.schedule()
}

// schedule runs one EASY pass: purge inadmissible jobs, start the highest
// priority job while it fits, then backfill lower-priority jobs that fit
// now and finish (per estimate) before the head job's reservation.
func (b *refBackfill) schedule() {
	now := float64(b.ctx.Engine.Now())
	b.purge(now)
	sort.SliceStable(b.queue, func(i, k int) bool { return b.less(b.queue[i], b.queue[k]) })
	for len(b.queue) > 0 && b.cluster.CanStart(b.queue[0].Procs) {
		b.start(b.queue[0])
		b.queue = b.queue[1:]
		b.purge(now)
	}
	if len(b.queue) <= 1 {
		return
	}
	head := b.queue[0]
	resTime, err := b.cluster.EarliestAvailable(head.Procs)
	if err != nil {
		panic(err) // width was validated against the machine at Run
	}
	kept := b.queue[:1]
	for _, j := range b.queue[1:] {
		if b.cluster.CanStart(j.Procs) && float64(b.ctx.Engine.Now())+j.Estimate <= float64(resTime) {
			b.start(j)
			continue
		}
		kept = append(kept, j)
	}
	b.queue = kept
}

// purge writes off every queued job that can no longer pass admission:
// plain rejection for jobs never accepted, a kill for requeued failure
// victims whose restart window has closed.
func (b *refBackfill) purge(now float64) {
	kept := b.queue[:0]
	for _, j := range b.queue {
		if b.admissible(j, now) {
			kept = append(kept, j)
			continue
		}
		writeOff(b.ctx.Collector, j, now)
	}
	b.queue = kept
}

// refNoAdmission is the baseline the paper dismisses in §5.2: plain EASY
// backfilling with NO admission control — every job is accepted at
// submission and executed eventually, deadlines be damned. The paper notes
// these "policies without job admission control perform much worse,
// especially when deadlines of jobs are short"; the admission-control
// ablation bench quantifies that claim. Under the commodity model a job is
// still charged its quote (capped at its budget, since the provider may
// not charge more); under the bid-based model late jobs accrue the usual
// unbounded penalties.
type refNoAdmission struct {
	ctx     *Context
	cluster *cluster.SpaceShared
	queue   []*workload.Job
	name    string
	less    func(a, b *workload.Job) bool
}

// refFCFSNoAC returns First Come First Serve backfilling without admission
// control.
func refFCFSNoAC(ctx *Context) Policy {
	return &refNoAdmission{
		ctx:     ctx,
		cluster: newSpaceCluster(ctx),
		name:    "FCFS-BF/noAC",
		less: func(a, b *workload.Job) bool {
			if a.Submit != b.Submit {
				return a.Submit < b.Submit
			}
			return a.ID < b.ID
		},
	}
}

// refEDFNoAC returns Earliest Deadline First backfilling without admission
// control.
func refEDFNoAC(ctx *Context) Policy {
	return &refNoAdmission{
		ctx:     ctx,
		cluster: newSpaceCluster(ctx),
		name:    "EDF-BF/noAC",
		less: func(a, b *workload.Job) bool {
			if a.AbsDeadline() != b.AbsDeadline() {
				return a.AbsDeadline() < b.AbsDeadline()
			}
			return a.ID < b.ID
		},
	}
}

func (n *refNoAdmission) Name() string { return n.name }

// Utilization reports the machine's processor utilization so far.
func (n *refNoAdmission) Utilization() float64 { return n.cluster.Utilization() }

// EarliestAvailable implements AvailabilityEstimator over the space-shared
// machine's running set.
func (n *refNoAdmission) EarliestAvailable(procs int) (float64, error) {
	return spaceEarliest(n.cluster, procs)
}

func (n *refNoAdmission) Submit(j *workload.Job) {
	// Accepted unconditionally, immediately — the whole point of the
	// baseline.
	n.ctx.Collector.Accepted(j)
	n.queue = append(n.queue, j)
	n.schedule()
}

func (n *refNoAdmission) Drain() {
	// Without faults every accepted job starts once the machine frees up;
	// under fault injection, jobs wider than the surviving machine can be
	// stranded and are written off here.
	now := float64(n.ctx.Engine.Now())
	for _, j := range n.queue {
		writeOff(n.ctx.Collector, j, now)
	}
	n.queue = nil
}

// NodeDown fails a node and requeues its resident job unconditionally —
// there is no admission control to refuse the restart.
func (n *refNoAdmission) NodeDown(node int) {
	if victim := n.cluster.Fail(node); victim != nil {
		n.queue = append(n.queue, victim)
	}
	n.schedule()
}

// NodeUp repairs a node; the restored capacity may start queued jobs.
func (n *refNoAdmission) NodeUp(node int) {
	n.cluster.Repair(node)
	n.schedule()
}

func (n *refNoAdmission) schedule() {
	sort.SliceStable(n.queue, func(i, k int) bool { return n.less(n.queue[i], n.queue[k]) })
	for len(n.queue) > 0 && n.cluster.CanStart(n.queue[0].Procs) {
		n.start(n.queue[0])
		n.queue = n.queue[1:]
	}
	if len(n.queue) <= 1 {
		return
	}
	head := n.queue[0]
	resTime, err := n.cluster.EarliestAvailable(head.Procs)
	if err != nil {
		panic(err)
	}
	kept := n.queue[:1]
	for _, j := range n.queue[1:] {
		if n.cluster.CanStart(j.Procs) && float64(n.ctx.Engine.Now())+j.Estimate <= float64(resTime) {
			n.start(j)
			continue
		}
		kept = append(kept, j)
	}
	n.queue = kept
}

func (n *refNoAdmission) start(j *workload.Job) {
	now := float64(n.ctx.Engine.Now())
	n.ctx.Collector.Started(j, now)
	if err := n.cluster.Start(j, n.onFinish); err != nil {
		panic(err)
	}
}

func (n *refNoAdmission) onFinish(j *workload.Job) {
	now := float64(n.ctx.Engine.Now())
	var utility float64
	switch n.ctx.Model {
	case economy.Commodity:
		// The provider may only charge up to the budget (§5.1), at the
		// price in effect at submission.
		utility = economy.BaseCharge(j.Estimate, n.ctx.PriceAt(j.Submit))
		if utility > j.Budget {
			utility = j.Budget
		}
	case economy.BidBased:
		utility = economy.BidUtility(j, now)
	}
	n.ctx.Collector.Finished(j, now, utility)
	n.schedule()
}

// refConservative implements conservative backfilling (Mu'alem & Feitelson):
// unlike EASY, *every* queued job holds a reservation, and a job may only
// skip ahead if it delays no reservation at all. The paper evaluates the
// EASY variants; this policy is the extension baseline the backfilling
// ablation compares against. It uses the same generous admission control
// and accounting as the EASY policies.
type refConservative struct {
	ctx     *Context
	cluster *cluster.SpaceShared
	queue   []*workload.Job
}

// refFCFSConservative returns First Come First Serve with conservative
// backfilling.
func refFCFSConservative(ctx *Context) Policy {
	return &refConservative{
		ctx:     ctx,
		cluster: newSpaceCluster(ctx),
	}
}

func (c *refConservative) Name() string { return "FCFS-CONS" }

// Utilization reports the machine's processor utilization so far.
func (c *refConservative) Utilization() float64 { return c.cluster.Utilization() }

// EarliestAvailable implements AvailabilityEstimator over the space-shared
// machine's running set.
func (c *refConservative) EarliestAvailable(procs int) (float64, error) {
	return spaceEarliest(c.cluster, procs)
}

func (c *refConservative) Submit(j *workload.Job) {
	c.queue = append(c.queue, j)
	c.schedule()
}

func (c *refConservative) Drain() {
	now := float64(c.ctx.Engine.Now())
	for _, j := range c.queue {
		writeOff(c.ctx.Collector, j, now)
	}
	c.queue = nil
}

// NodeDown fails a node: its resident job is requeued for a full restart
// and faces admission again.
func (c *refConservative) NodeDown(node int) {
	if victim := c.cluster.Fail(node); victim != nil {
		c.queue = append(c.queue, victim)
	}
	c.schedule()
}

// NodeUp repairs a node; the restored capacity may start queued jobs.
func (c *refConservative) NodeUp(node int) {
	c.cluster.Repair(node)
	c.schedule()
}

func (c *refConservative) admissible(j *workload.Job, now float64) bool {
	if now+j.Estimate > j.AbsDeadline() {
		return false
	}
	if c.ctx.Model == economy.Commodity &&
		economy.BaseCharge(j.Estimate, c.ctx.PriceAt(now)) > j.Budget {
		return false
	}
	return true
}

// schedule replans all reservations from scratch in FCFS order against the
// availability profile, starting every job whose reservation is "now".
// Replanning each pass is the standard formulation: completions ahead of
// estimates compress the plan without ever pushing a reservation later.
func (c *refConservative) schedule() {
	now := float64(c.ctx.Engine.Now())
	// Purge jobs that can no longer meet their deadline (failure victims
	// whose restart window closed are written off as killed).
	kept := c.queue[:0]
	for _, j := range c.queue {
		if c.admissible(j, now) {
			kept = append(kept, j)
			continue
		}
		writeOff(c.ctx.Collector, j, now)
	}
	c.queue = kept
	sort.SliceStable(c.queue, func(i, k int) bool {
		if c.queue[i].Submit != c.queue[k].Submit {
			return c.queue[i].Submit < c.queue[k].Submit
		}
		return c.queue[i].ID < c.queue[k].ID
	})

	prof := newProfile(now, c.cluster.Nodes(), c.cluster.FreeProcs())
	for _, sj := range c.cluster.Running() {
		end := float64(sj.EstEnd)
		if end < now {
			end = now // overrun jobs believed to finish imminently
		}
		prof.addRelease(end, sj.Job.Procs)
	}

	kept = c.queue[:0]
	for _, j := range c.queue {
		t := prof.earliest(now, j.Estimate, j.Procs)
		if t <= now && c.cluster.CanStart(j.Procs) {
			c.start(j)
			if err := prof.reserve(now, j.Estimate, j.Procs); err != nil {
				panic(err)
			}
			continue
		}
		if math.IsInf(t, 1) {
			// Failed nodes can shrink the machine below the job's width;
			// nothing schedulable remains for it, so write it off.
			writeOff(c.ctx.Collector, j, now)
			continue
		}
		if err := prof.reserve(t, j.Estimate, j.Procs); err != nil {
			panic(err)
		}
		kept = append(kept, j)
	}
	c.queue = kept
}

func (c *refConservative) start(j *workload.Job) {
	now := float64(c.ctx.Engine.Now())
	c.ctx.Collector.Accepted(j)
	c.ctx.Collector.Started(j, now)
	if err := c.cluster.Start(j, c.onFinish); err != nil {
		panic(err)
	}
}

func (c *refConservative) onFinish(j *workload.Job) {
	now := float64(c.ctx.Engine.Now())
	var utility float64
	switch c.ctx.Model {
	case economy.Commodity:
		utility = economy.BaseCharge(j.Estimate, c.ctx.PriceAt(c.ctx.Collector.Outcome(j).StartTime))
	case economy.BidBased:
		utility = economy.BidUtility(j, now)
	}
	c.ctx.Collector.Finished(j, now, utility)
	c.schedule()
}
