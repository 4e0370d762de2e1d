package scheduler

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/workload"
)

// backfillPolicy implements EASY backfilling (Lifka; Mu'alem & Feitelson)
// over a space-shared cluster. The paper's FCFS-BF, SJF-BF and EDF-BF run
// it with the "generous" admission control: jobs wait unexamined in a
// priority queue and are accepted only prior to execution; a job is
// rejected once its runtime estimate can no longer fit before its deadline
// (which covers deadlines that lapse while queued), and — under the
// commodity market model — when its quoted cost exceeds its budget. The
// no-admission-control baselines (noadmission.go) run the same pass with
// the admission filter off.
type backfillPolicy struct {
	ctx     *Context
	cluster *cluster.SpaceShared
	// queue is sorted by less at all times (see enqueue): every pass only
	// removes jobs, which keeps the order, so no pass sorts.
	queue []*workload.Job
	name  string
	// less orders the queue by the policy's primary scheduling parameter.
	less func(a, b *workload.Job) bool
	// admission applies the generous admission control; without it every
	// job is accepted at submission.
	admission bool
	// done is onFinish bound once, so a start creates no method value.
	done func(*workload.Job)
}

// bySubmit, byEstimate and byDeadline are the Table V priority orders,
// each broken by job ID.
func bySubmit(a, b *workload.Job) bool {
	if a.Submit != b.Submit {
		return a.Submit < b.Submit
	}
	return a.ID < b.ID
}

func byEstimate(a, b *workload.Job) bool {
	if a.Estimate != b.Estimate {
		return a.Estimate < b.Estimate
	}
	return a.ID < b.ID
}

func byDeadline(a, b *workload.Job) bool {
	if a.AbsDeadline() != b.AbsDeadline() {
		return a.AbsDeadline() < b.AbsDeadline()
	}
	return a.ID < b.ID
}

// NewFCFSBF returns First Come First Serve with EASY backfilling.
func NewFCFSBF(ctx *Context) Policy {
	return newBackfill(ctx, "FCFS-BF", bySubmit, true)
}

// NewSJFBF returns Shortest Job First with EASY backfilling (job length is
// the user estimate — the scheduler never sees actual runtimes).
func NewSJFBF(ctx *Context) Policy {
	return newBackfill(ctx, "SJF-BF", byEstimate, true)
}

// NewEDFBF returns Earliest Deadline First with EASY backfilling.
func NewEDFBF(ctx *Context) Policy {
	return newBackfill(ctx, "EDF-BF", byDeadline, true)
}

func newBackfill(ctx *Context, name string, less func(a, b *workload.Job) bool, admission bool) Policy {
	b := &backfillPolicy{
		ctx:       ctx,
		cluster:   newSpaceCluster(ctx),
		name:      name,
		less:      less,
		admission: admission,
	}
	b.done = b.onFinish
	return b
}

// enqueue inserts j into a queue sorted by less, at the upper bound of its
// key: after every job that does not order after it. That is exactly where
// a stable sort of the queue with j appended would place it, equal keys
// (duplicate client-supplied IDs) included.
func enqueue(queue []*workload.Job, j *workload.Job, less func(a, b *workload.Job) bool) []*workload.Job {
	i := sort.Search(len(queue), func(k int) bool { return less(j, queue[k]) })
	queue = append(queue, nil)
	copy(queue[i+1:], queue[i:])
	queue[i] = j
	return queue
}

func (b *backfillPolicy) Name() string { return b.name }

// Utilization reports the machine's processor utilization so far.
func (b *backfillPolicy) Utilization() float64 { return b.cluster.Utilization() }

// EarliestAvailable implements AvailabilityEstimator over the space-shared
// machine's running set.
func (b *backfillPolicy) EarliestAvailable(procs int) (float64, error) {
	return spaceEarliest(b.cluster, procs)
}

func (b *backfillPolicy) Submit(j *workload.Job) {
	if !b.admission {
		// Accepted unconditionally, immediately — the whole point of the
		// baseline.
		b.ctx.Collector.Accepted(j)
	}
	b.queue = enqueue(b.queue, j, b.less)
	b.schedule()
}

func (b *backfillPolicy) Drain() {
	// The pass runs at every completion, and an empty machine fits any
	// job, so a job can still be queued when the event queue empties only
	// under fault injection: a job (a requeued failure victim included)
	// wider than the machine the failures left.
	now := float64(b.ctx.Engine.Now())
	for _, j := range b.queue {
		writeOff(b.ctx.Collector, j, now)
	}
	b.queue = nil
}

// NodeDown fails a node: its resident job (if any) is requeued for a full
// restart and, under admission control, faces admission again — if its
// estimate no longer fits before its deadline, the pass writes it off as
// killed.
func (b *backfillPolicy) NodeDown(node int) {
	if victim := b.cluster.Fail(node); victim != nil {
		b.queue = enqueue(b.queue, victim, b.less)
	}
	b.schedule()
}

// NodeUp repairs a node; the restored capacity may start queued jobs.
func (b *backfillPolicy) NodeUp(node int) {
	b.cluster.Repair(node)
	b.schedule()
}

// gate is the generous admission control at one instant. A job's answer
// depends only on the job, the instant and the commodity price in effect
// then, so one gate serves a whole pass and a job's answer never changes
// within it.
type gate struct {
	now, price float64
	commodity  bool
}

// gateAt fixes the admission control at time now.
func gateAt(ctx *Context, now float64) gate {
	g := gate{now: now, commodity: ctx.Model == economy.Commodity}
	if g.commodity {
		g.price = ctx.PriceAt(now)
	}
	return g
}

// admits reports whether j's estimate still fits before its deadline and,
// under the commodity model, its quoted cost is within its budget.
func (g gate) admits(j *workload.Job) bool {
	if g.now+j.Estimate > j.AbsDeadline() {
		return false
	}
	return !(g.commodity && economy.BaseCharge(j.Estimate, g.price) > j.Budget)
}

// start begins executing a queued job, accepting it first under admission
// control.
func (b *backfillPolicy) start(j *workload.Job) {
	now := float64(b.ctx.Engine.Now())
	if b.admission {
		b.ctx.Collector.Accepted(j)
	}
	b.ctx.Collector.Started(j, now)
	if err := b.cluster.Start(j, b.done); err != nil {
		panic(err) // callers verified CanStart
	}
}

func (b *backfillPolicy) onFinish(j *workload.Job) {
	now := float64(b.ctx.Engine.Now())
	var utility float64
	switch b.ctx.Model {
	case economy.Commodity:
		if b.admission {
			// Charged at the price in effect when the job was accepted
			// (its start instant under the generous admission control).
			utility = economy.BaseCharge(j.Estimate, b.ctx.PriceAt(b.ctx.Collector.Outcome(j).StartTime))
		} else {
			// The provider may only charge up to the budget (§5.1), at
			// the price in effect at submission.
			utility = economy.BaseCharge(j.Estimate, b.ctx.PriceAt(j.Submit))
			if utility > j.Budget {
				utility = j.Budget
			}
		}
	case economy.BidBased:
		utility = economy.BidUtility(j, now)
	}
	b.ctx.Collector.Finished(j, now, utility)
	b.schedule()
}

// schedule runs one EASY pass as a single walk of the ordered queue. Under
// admission control a job that fails admission is written off. Jobs start
// in priority order until the first admissible job that does not fit; that
// job holds the reservation — the earliest time its width frees up — and
// every later job that fits now and, per its estimate, finishes by the
// reservation is backfilled. The rest stay queued, in order.
//
// One admission check per job per pass suffices because admission is
// pure. Write-offs interleave with starts rather than all preceding them;
// the collector records outcomes per job, so the order between jobs is not
// observable. The jobs that stay are compacted in place, and a slot is
// stored only when its job moves: most passes keep most of the queue where
// it was.
func (b *backfillPolicy) schedule() {
	now := float64(b.ctx.Engine.Now())
	g := gateAt(b.ctx, now)
	k := 0
	blocked := false
	var reservation float64
	for i, j := range b.queue {
		if b.admission && !g.admits(j) {
			writeOff(b.ctx.Collector, j, now)
			continue
		}
		fits := b.cluster.CanStart(j.Procs)
		if !blocked && !fits {
			blocked = true
			t, err := b.cluster.EarliestAvailable(j.Procs)
			if err != nil {
				panic(err) // width was validated against the machine at Submit
			}
			reservation = float64(t)
		}
		if fits && (!blocked || now+j.Estimate <= reservation) {
			b.start(j)
			continue
		}
		if k != i {
			b.queue[k] = j
		}
		k++
	}
	b.queue = b.queue[:k]
}
