package scheduler

import (
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/workload"
)

// qops implements a simplified QoPS (Islam et al., the paper's reference
// [13]): admission control with a schedulability guarantee. A new job is
// accepted at submission only if a complete schedule exists — against the
// believed completions of running jobs — in which *every* accepted job,
// including the newcomer, still meets its deadline per its estimate.
// Accepted jobs then execute in earliest-deadline order with conservative
// reservations. With exact estimates the guarantee is absolute (Set A
// reliability 100%); inaccurate estimates erode it like every other
// admission control in the paper.
type qops struct {
	ctx     *Context
	cluster *cluster.SpaceShared
	queue   []*workload.Job
}

// NewQoPS returns the QoPS extension policy.
//
//lint:allow deadcode — ablation policy; BenchmarkAblationGuaranteedAdmission in bench_test.go runs it
func NewQoPS(ctx *Context) Policy {
	return &qops{ctx: ctx, cluster: newSpaceCluster(ctx)}
}

func (q *qops) Name() string { return "QoPS" }

// Utilization reports the machine's processor utilization so far.
func (q *qops) Utilization() float64 { return q.cluster.Utilization() }

// EarliestAvailable implements AvailabilityEstimator over the space-shared
// machine's running set.
func (q *qops) EarliestAvailable(procs int) (float64, error) {
	return spaceEarliest(q.cluster, procs)
}

func (q *qops) Submit(j *workload.Job) {
	if q.ctx.Model == economy.Commodity &&
		economy.BaseCharge(j.Estimate, q.ctx.PriceAt(float64(q.ctx.Engine.Now()))) > j.Budget {
		q.ctx.Collector.Rejected(j)
		return
	}
	if !q.feasible(j) {
		q.ctx.Collector.Rejected(j)
		return
	}
	q.ctx.Collector.Accepted(j)
	q.queue = append(q.queue, j)
	q.schedule()
}

func (q *qops) Drain() {
	// Without faults accepted jobs always start once the machine empties;
	// under fault injection, jobs wider than the surviving machine can be
	// stranded and are written off here.
	now := float64(q.ctx.Engine.Now())
	for _, j := range q.queue {
		writeOff(q.ctx.Collector, j, now)
	}
	q.queue = nil
}

// NodeDown fails a node: its resident job is requeued for a restart in EDF
// order. The schedulability guarantee does not survive failures — the
// victim may now miss its deadline — but acceptance is already recorded, so
// the job runs on and the miss counts against reliability.
func (q *qops) NodeDown(node int) {
	if victim := q.cluster.Fail(node); victim != nil {
		q.queue = append(q.queue, victim)
	}
	q.schedule()
}

// NodeUp repairs a node; the restored capacity may start queued jobs.
func (q *qops) NodeUp(node int) {
	q.cluster.Repair(node)
	q.schedule()
}

// edfSort orders jobs by absolute deadline, then ID.
func edfSort(jobs []*workload.Job) {
	sort.SliceStable(jobs, func(i, k int) bool { return byDeadline(jobs[i], jobs[k]) })
}

// plan builds the EDF schedule of the given queued jobs over the current
// availability profile and reports whether every job's projected
// completion (per estimate) meets its deadline.
func (q *qops) plan(jobs []*workload.Job) bool {
	now := float64(q.ctx.Engine.Now())
	prof := newProfile(now, q.cluster.Nodes(), q.cluster.FreeProcs())
	for _, sj := range q.cluster.Running() {
		end := math.Max(float64(sj.EstEnd), now)
		prof.addRelease(end, sj.Job.Procs)
	}
	for _, j := range jobs {
		t := prof.earliest(now, j.Estimate, j.Procs)
		if t+j.Estimate > j.AbsDeadline() {
			return false
		}
		if err := prof.reserve(t, j.Estimate, j.Procs); err != nil {
			return false
		}
	}
	return true
}

// feasible checks whether candidate can join the accepted set without
// breaking anyone's guarantee.
func (q *qops) feasible(candidate *workload.Job) bool {
	jobs := make([]*workload.Job, 0, len(q.queue)+1)
	jobs = append(jobs, q.queue...)
	jobs = append(jobs, candidate)
	edfSort(jobs)
	return q.plan(jobs)
}

// schedule starts every queued job whose planned slot is "now", in EDF
// order with conservative reservations for the rest.
func (q *qops) schedule() {
	edfSort(q.queue)
	now := float64(q.ctx.Engine.Now())
	prof := newProfile(now, q.cluster.Nodes(), q.cluster.FreeProcs())
	for _, sj := range q.cluster.Running() {
		end := math.Max(float64(sj.EstEnd), now)
		prof.addRelease(end, sj.Job.Procs)
	}
	kept := q.queue[:0]
	for _, j := range q.queue {
		t := prof.earliest(now, j.Estimate, j.Procs)
		if t <= now && q.cluster.CanStart(j.Procs) {
			q.start(j)
			if err := prof.reserve(now, j.Estimate, j.Procs); err != nil {
				panic(err)
			}
			continue
		}
		if err := prof.reserve(t, j.Estimate, j.Procs); err != nil {
			panic(err)
		}
		kept = append(kept, j)
	}
	q.queue = kept
}

func (q *qops) start(j *workload.Job) {
	now := float64(q.ctx.Engine.Now())
	q.ctx.Collector.Started(j, now)
	if err := q.cluster.Start(j, q.onFinish); err != nil {
		panic(err)
	}
}

func (q *qops) onFinish(j *workload.Job) {
	now := float64(q.ctx.Engine.Now())
	var utility float64
	switch q.ctx.Model {
	case economy.Commodity:
		// Charged at the price in effect at acceptance (submission).
		utility = economy.BaseCharge(j.Estimate, q.ctx.PriceAt(j.Submit))
	case economy.BidBased:
		utility = economy.BidUtility(j, now)
	}
	q.ctx.Collector.Finished(j, now, utility)
	q.schedule()
}
