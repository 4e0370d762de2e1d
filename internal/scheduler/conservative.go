package scheduler

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/workload"
)

// conservative implements conservative backfilling (Mu'alem & Feitelson):
// unlike EASY, *every* queued job holds a reservation, and a job may only
// skip ahead if it delays no reservation at all. The paper evaluates the
// EASY variants; this policy is the extension baseline the backfilling
// ablation compares against. It uses the same generous admission control
// and accounting as the EASY policies.
type conservative struct {
	ctx     *Context
	cluster *cluster.SpaceShared
	// queue is in FCFS order at all times (see enqueue).
	queue []*workload.Job
}

// NewFCFSConservative returns First Come First Serve with conservative
// backfilling.
//
//lint:allow deadcode — ablation policy; BenchmarkAblationBackfillVariant in bench_test.go runs it
func NewFCFSConservative(ctx *Context) Policy {
	return &conservative{
		ctx:     ctx,
		cluster: newSpaceCluster(ctx),
	}
}

func (c *conservative) Name() string { return "FCFS-CONS" }

// Utilization reports the machine's processor utilization so far.
func (c *conservative) Utilization() float64 { return c.cluster.Utilization() }

// EarliestAvailable implements AvailabilityEstimator over the space-shared
// machine's running set.
func (c *conservative) EarliestAvailable(procs int) (float64, error) {
	return spaceEarliest(c.cluster, procs)
}

func (c *conservative) Submit(j *workload.Job) {
	c.queue = enqueue(c.queue, j, bySubmit)
	c.schedule()
}

func (c *conservative) Drain() {
	now := float64(c.ctx.Engine.Now())
	for _, j := range c.queue {
		writeOff(c.ctx.Collector, j, now)
	}
	c.queue = nil
}

// NodeDown fails a node: its resident job is requeued for a full restart
// and faces admission again.
func (c *conservative) NodeDown(node int) {
	if victim := c.cluster.Fail(node); victim != nil {
		c.queue = enqueue(c.queue, victim, bySubmit)
	}
	c.schedule()
}

// NodeUp repairs a node; the restored capacity may start queued jobs.
func (c *conservative) NodeUp(node int) {
	c.cluster.Repair(node)
	c.schedule()
}

// schedule replans all reservations from scratch in FCFS order against the
// availability profile, starting every job whose reservation is "now".
// Replanning each pass is the standard formulation: completions ahead of
// estimates compress the plan without ever pushing a reservation later.
// Like the EASY pass it is one walk of the ordered queue, writing off jobs
// that fail admission as it meets them.
func (c *conservative) schedule() {
	now := float64(c.ctx.Engine.Now())
	prof := newProfile(now, c.cluster.Nodes(), c.cluster.FreeProcs())
	for _, sj := range c.cluster.Running() {
		end := float64(sj.EstEnd)
		if end < now {
			end = now // overrun jobs believed to finish imminently
		}
		prof.addRelease(end, sj.Job.Procs)
	}

	g := gateAt(c.ctx, now)
	kept := c.queue[:0]
	for _, j := range c.queue {
		if !g.admits(j) {
			// It can no longer meet its deadline (a failure victim whose
			// restart window closed is written off as killed).
			writeOff(c.ctx.Collector, j, now)
			continue
		}
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

func (c *conservative) start(j *workload.Job) {
	now := float64(c.ctx.Engine.Now())
	c.ctx.Collector.Accepted(j)
	c.ctx.Collector.Started(j, now)
	if err := c.cluster.Start(j, c.onFinish); err != nil {
		panic(err)
	}
}

func (c *conservative) onFinish(j *workload.Job) {
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
