package scheduler

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/workload"
)

// FirstReward parameters. The paper derives these by tuning on its
// workload: α = 1 (earnings fully weighted, opportunity cost ignored in the
// reward but not in the slack), discount rate 1%, slack threshold 25. The
// paper leaves the discount-rate time unit implicit; this reproduction
// applies it per hour of remaining processing time so present values stay
// meaningful at trace scale (see DESIGN.md).
const (
	firstRewardAlpha     = 1.0
	firstRewardDiscount  = 0.01 // per hour of RPT
	firstRewardThreshold = 25.0 // seconds of slack

	// minPenaltyRate guards the slack division for jobs whose synthesized
	// penalty rate is ~0 (they are effectively penalty-free, so their slack
	// is huge and they are admitted).
	minPenaltyRate = 1e-9
)

// firstReward implements FirstReward (Irwin, Grit & Chase) extended to
// multi-processor parallel jobs, without backfilling, under the bid-based
// model: admission happens immediately at submission via the slack test;
// accepted jobs wait in a queue ordered by reward (present value per second
// of remaining processing time) and start strictly in that order as
// processors free up — so a newly accepted, more rewarding job delays
// previously accepted ones.
type firstReward struct {
	ctx     *Context
	cluster *cluster.SpaceShared
	queue   []*workload.Job
	// outstanding tracks accepted-but-unfinished jobs, whose penalty rates
	// feed the opportunity-cost sum of the admission test. Kept sorted by
	// job ID: the sum is a float accumulation, and its rounding must not
	// depend on insertion history or map iteration order.
	outstanding []*workload.Job

	alpha, discount, threshold float64
	// bounded caps each job's penalty exposure at its own budget (Irwin et
	// al.'s bounded-penalty case); the paper evaluates the unbounded form.
	bounded bool
}

// NewFirstReward returns the FirstReward policy with the paper's tuned
// constants.
func NewFirstReward(ctx *Context) Policy {
	return NewFirstRewardTuned(ctx, firstRewardAlpha, firstRewardDiscount, firstRewardThreshold)
}

// NewFirstRewardTuned returns FirstReward with explicit constants; the
// slack-threshold ablation bench sweeps these.
func NewFirstRewardTuned(ctx *Context, alpha, discount, threshold float64) Policy {
	return &firstReward{
		ctx:       ctx,
		cluster:   newSpaceCluster(ctx),
		alpha:     alpha,
		discount:  discount,
		threshold: threshold,
	}
}

// NewFirstRewardBounded returns FirstReward under bounded penalties: both
// the admission test's opportunity cost and the earned utility cap each
// job's loss at its budget. It accepts more work than the unbounded
// variant, trading penalty exposure for throughput.
//
//lint:allow deadcode — ablation policy; BenchmarkAblationPenaltyBound in bench_test.go runs it
func NewFirstRewardBounded(ctx *Context) Policy {
	p := NewFirstRewardTuned(ctx, firstRewardAlpha, firstRewardDiscount, firstRewardThreshold).(*firstReward)
	p.bounded = true
	return p
}

func (f *firstReward) Name() string { return "FirstReward" }

// Utilization reports the machine's processor utilization so far.
func (f *firstReward) Utilization() float64 { return f.cluster.Utilization() }

// EarliestAvailable implements AvailabilityEstimator over the space-shared
// machine's running set.
func (f *firstReward) EarliestAvailable(procs int) (float64, error) {
	return spaceEarliest(f.cluster, procs)
}

// presentValue is PV_i = b_i / (1 + discount·RPT_i) with RPT in hours.
func (f *firstReward) presentValue(j *workload.Job, rpt float64) float64 {
	return j.Budget / (1 + f.discount*rpt/3600)
}

// opportunityCost is cost_i = Σ_{k≠i} pr_k · RPT_i over outstanding jobs:
// the penalty exposure of delaying everyone else by this job's remaining
// processing time. Under bounded penalties each term is capped at the
// delayed job's budget — the most that job can ever cost the provider.
// Summed in job-ID order (the slice invariant) for reproducible rounding.
func (f *firstReward) opportunityCost(rpt float64) float64 {
	sum := 0.0
	for _, k := range f.outstanding {
		exposure := k.PenaltyRate * rpt
		if f.bounded && exposure > k.Budget {
			exposure = k.Budget
		}
		sum += exposure
	}
	return sum
}

// addOutstanding inserts j preserving the ID-sorted invariant.
func (f *firstReward) addOutstanding(j *workload.Job) {
	i := sort.Search(len(f.outstanding), func(k int) bool { return f.outstanding[k].ID >= j.ID })
	f.outstanding = append(f.outstanding, nil)
	copy(f.outstanding[i+1:], f.outstanding[i:])
	f.outstanding[i] = j
}

// dropOutstanding removes j, if present.
func (f *firstReward) dropOutstanding(j *workload.Job) {
	kept := f.outstanding[:0]
	for _, k := range f.outstanding {
		if k != j {
			kept = append(kept, k)
		}
	}
	f.outstanding = kept
}

// reward orders the execution queue: ((α·PV) − ((1−α)·cost))/RPT.
func (f *firstReward) reward(j *workload.Job) float64 {
	rpt := j.Estimate
	return (f.alpha*f.presentValue(j, rpt) - (1-f.alpha)*f.opportunityCost(rpt)) / rpt
}

func (f *firstReward) Submit(j *workload.Job) {
	rpt := j.Estimate
	pv := f.presentValue(j, rpt)
	cost := f.opportunityCost(rpt)
	pr := j.PenaltyRate
	if pr < minPenaltyRate {
		pr = minPenaltyRate
	}
	slack := (pv - cost) / pr
	if slack < f.threshold {
		f.ctx.Collector.Rejected(j)
		return
	}
	f.ctx.Collector.Accepted(j)
	f.addOutstanding(j)
	f.queue = append(f.queue, j)
	f.schedule()
}

func (f *firstReward) Drain() {
	// Without faults accepted jobs always start once the machine empties
	// (widths are validated against the machine); under fault injection,
	// jobs wider than the surviving machine can be stranded.
	now := float64(f.ctx.Engine.Now())
	for _, j := range f.queue {
		f.dropOutstanding(j)
		writeOff(f.ctx.Collector, j, now)
	}
	f.queue = nil
}

// NodeDown fails a node: its resident job is requeued for a restart. The
// job stays outstanding — its penalty exposure still burdens the admission
// test — and keeps its acceptance; only completion settles it.
func (f *firstReward) NodeDown(node int) {
	if victim := f.cluster.Fail(node); victim != nil {
		f.queue = append(f.queue, victim)
	}
	f.schedule()
}

// NodeUp repairs a node; the restored capacity may start queued jobs.
func (f *firstReward) NodeUp(node int) {
	f.cluster.Repair(node)
	f.schedule()
}

// schedule starts queued jobs strictly in reward order (no backfilling): a
// blocked head waits for processors even while narrower jobs could fit.
func (f *firstReward) schedule() {
	sort.SliceStable(f.queue, func(i, k int) bool {
		ri, rk := f.reward(f.queue[i]), f.reward(f.queue[k])
		if ri != rk {
			return ri > rk
		}
		return f.queue[i].ID < f.queue[k].ID
	})
	for len(f.queue) > 0 && f.cluster.CanStart(f.queue[0].Procs) {
		j := f.queue[0]
		f.queue = f.queue[1:]
		now := float64(f.ctx.Engine.Now())
		f.ctx.Collector.Started(j, now)
		if err := f.cluster.Start(j, f.onFinish); err != nil {
			panic(err) // CanStart was just verified
		}
	}
}

func (f *firstReward) onFinish(j *workload.Job) {
	now := float64(f.ctx.Engine.Now())
	f.dropOutstanding(j)
	utility := economy.BidUtility(j, now)
	if f.bounded {
		utility = economy.BoundedBidUtility(j, now)
	}
	f.ctx.Collector.Finished(j, now, utility)
	f.schedule()
}
