package scheduler

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// libraVariant distinguishes the three members of the Libra family, which
// share deadline-proportional share admission and differ in node selection
// and pricing.
type libraVariant int

const (
	variantLibra libraVariant = iota
	variantLibraDollar
	variantLibraRiskD
)

// libraPolicy implements Libra (Sherwani et al.): a new job is examined
// immediately at submission; it needs Procs nodes each with a free
// processor-time share of estimate/deadline, selected best-fit (most
// saturated first); accepted jobs start at once on the time-shared cluster.
//
// Libra+$ layers the enhanced pricing function on top (commodity market
// model): the per-second price on a node rises with the node's committed
// load, and the job is rejected when its quoted cost exceeds its budget.
//
// LibraRiskD additionally requires selected nodes to carry zero risk of
// deadline delay: a node hosting any job that has already overrun its user
// estimate is holding share for an unknown further time and is skipped.
type libraPolicy struct {
	ctx     *Context
	ts      *cluster.TimeShared
	variant libraVariant
	name    string

	gamma, delta float64 // Libra static pricing
	alpha, beta  float64 // Libra+$ pricing components

	// charge is the commodity price quoted at acceptance, collected at
	// completion.
	charge map[*workload.Job]float64

	// candidates and prices are per-submit scratch buffers.
	candidates []int
	prices     []float64
	// done is onFinish bound once, so an accepted job creates no method
	// value.
	done func(*workload.Job)

	// terminate enables the preemptive extension: a job still running at
	// its deadline is killed, freeing capacity (the SLA is already lost).
	// This addresses the non-preemption issue the paper's conclusion
	// raises. Terminated jobs earn the provider nothing — no completed
	// work to charge (commodity), no delivered bid (bid-based).
	terminate bool
}

// NewLibra returns the Libra policy.
func NewLibra(ctx *Context) Policy { return newLibra(ctx, variantLibra, "Libra") }

// NewLibraDollar returns Libra+$ (commodity market model).
func NewLibraDollar(ctx *Context) Policy { return newLibra(ctx, variantLibraDollar, "Libra+$") }

// NewLibraDollarTuned returns Libra+$ with explicit pricing-component
// weights; the β ablation bench sweeps these.
//
//lint:allow deadcode — ablation policy; BenchmarkAblationBeta in bench_test.go sweeps it
func NewLibraDollarTuned(ctx *Context, alpha, beta float64) Policy {
	p := newLibra(ctx, variantLibraDollar, "Libra+$").(*libraPolicy)
	p.alpha, p.beta = alpha, beta
	return p
}

// NewLibraRiskD returns LibraRiskD (bid-based model).
func NewLibraRiskD(ctx *Context) Policy { return newLibra(ctx, variantLibraRiskD, "LibraRiskD") }

// NewLibraTerminate returns Libra with deadline termination (the
// preemptive extension): jobs still running at their deadline are killed
// instead of squeezing the node.
//
//lint:allow deadcode — ablation policy; BenchmarkAblationTermination in bench_test.go runs it
func NewLibraTerminate(ctx *Context) Policy {
	p := newLibra(ctx, variantLibra, "LibraT").(*libraPolicy)
	p.terminate = true
	return p
}

func newLibra(ctx *Context, v libraVariant, name string) Policy {
	ts := cluster.NewTimeShared(ctx.Engine, ctx.Nodes)
	if len(ctx.NodeRatings) == ctx.Nodes && ctx.Nodes > 0 {
		ts = cluster.NewTimeSharedRated(ctx.Engine, ctx.NodeRatings)
	}
	l := &libraPolicy{
		ctx:     ctx,
		ts:      ts,
		variant: v,
		name:    name,
		gamma:   economy.DefaultGamma,
		delta:   economy.DefaultDelta,
		alpha:   economy.DefaultAlpha,
		beta:    economy.DefaultBeta,
		charge:  make(map[*workload.Job]float64),
	}
	l.done = l.onFinish
	return l
}

func (l *libraPolicy) Name() string { return l.name }

// Utilization reports the machine's useful-work utilization so far.
func (l *libraPolicy) Utilization() float64 { return l.ts.Utilization() }

// EarliestAvailable implements AvailabilityEstimator: a time-shared machine
// squeezes share, so any width that fits the up nodes can start now; a
// fault-shrunken machine that cannot host the width answers +Inf.
func (l *libraPolicy) EarliestAvailable(procs int) (float64, error) {
	if procs <= 0 || procs > l.ts.Nodes() {
		return 0, fmt.Errorf("scheduler: earliest-available for %d procs on a %d-node machine", procs, l.ts.Nodes())
	}
	if l.ts.UpNodes() >= procs {
		return float64(l.ctx.Engine.Now()), nil
	}
	return math.Inf(1), nil
}

func (l *libraPolicy) Drain() {} // no queue: every job is settled at submission

// NodeDown fails a node, killing every job holding a share on it. Libra has
// no queue to restart from — admission committed the nodes at submission —
// so victims are written off terminally: SLA lost, utility zero, and any
// quoted commodity charge forfeited.
func (l *libraPolicy) NodeDown(node int) {
	now := float64(l.ctx.Engine.Now())
	for _, j := range l.ts.Fail(node) {
		delete(l.charge, j)
		l.ctx.Collector.Killed(j, now, 0)
	}
}

// NodeUp repairs a node; its capacity becomes bookable again.
func (l *libraPolicy) NodeUp(node int) { l.ts.Repair(node) }

// Quote implements Quoter: the commodity charge the family's pricing
// function would collect for j against the machine's current commitments.
// For a job just accepted it returns the recorded charge exactly; otherwise
// Libra and LibraRiskD quote the static deadline-incentive price, and
// Libra+$ quotes its load-dynamic price over the nodes its best-fit
// selection would pick now (falling back to the static price when the job
// cannot be placed at all, so an infeasible job still gets a meaningful
// number to compare against its budget).
func (l *libraPolicy) Quote(j *workload.Job) float64 {
	if c, ok := l.charge[j]; ok {
		return c
	}
	static := economy.LibraCharge(j.Estimate, j.Deadline, l.gamma, l.delta)
	if l.variant != variantLibraDollar || j.Deadline <= 0 {
		return static
	}
	share := j.Estimate / j.Deadline
	if share > 1 {
		return static
	}
	candidates := l.ts.CandidateNodes(l.candidates[:0], share)
	l.candidates = candidates
	if len(candidates) < j.Procs {
		return static
	}
	return economy.LibraDollarCharge(j.Estimate, l.dollarPrices(j, share, candidates[:j.Procs]))
}

// dollarPrices computes Libra+$'s per-second price on each selected node
// for a job holding the given share over its deadline window. The result
// lives in a buffer the next call overwrites.
func (l *libraPolicy) dollarPrices(j *workload.Job, share float64, nodes []int) []float64 {
	l.prices = l.prices[:0]
	for _, n := range nodes {
		committedFrac := l.ts.CommittedSeconds(n, j.Deadline) / j.Deadline
		freeAfter := 1 - committedFrac - share
		l.prices = append(l.prices, economy.LibraDollarPricePerSec(l.ctx.BasePrice, l.alpha, l.beta, freeAfter))
	}
	return l.prices
}

func (l *libraPolicy) Submit(j *workload.Job) {
	share := j.Estimate / j.Deadline
	if share > 1 {
		// The estimate cannot fit before the deadline even on a dedicated
		// processor.
		l.ctx.Collector.Rejected(j)
		return
	}
	candidates := l.ts.CandidateNodes(l.candidates[:0], share)
	l.candidates = candidates
	if l.variant == variantLibraRiskD {
		riskFree := candidates[:0]
		for _, n := range candidates {
			if !l.ts.NodeHasOverrun(n) {
				riskFree = append(riskFree, n)
			}
		}
		candidates = riskFree
	}
	if len(candidates) < j.Procs {
		l.ctx.Collector.Rejected(j)
		return
	}
	nodes := candidates[:j.Procs]

	if l.ctx.Model == economy.Commodity {
		var cost float64
		switch l.variant {
		case variantLibraDollar:
			// RESMax is the node's capacity over the job's deadline window
			// (d processor-seconds); RESFree deducts the shares other jobs
			// have booked within that window plus this job's own share.
			cost = economy.LibraDollarCharge(j.Estimate, l.dollarPrices(j, share, nodes))
		default:
			cost = economy.LibraCharge(j.Estimate, j.Deadline, l.gamma, l.delta)
		}
		if cost > j.Budget {
			l.ctx.Collector.Rejected(j)
			return
		}
		l.charge[j] = cost
	}

	now := float64(l.ctx.Engine.Now())
	l.ctx.Collector.Accepted(j)
	l.ctx.Collector.Started(j, now)
	if err := l.ts.Start(j, share, nodes, l.done); err != nil {
		panic(err) // candidates were verified to hold the share
	}
	if l.terminate {
		l.ctx.Engine.MustSchedule(sim.Time(j.AbsDeadline()),
			"terminate at deadline", func() { l.kill(j) })
	}
}

// kill terminates a job that reached its deadline unfinished. A job whose
// work completes in the same instant is spared — its completion event is
// already due.
func (l *libraPolicy) kill(j *workload.Job) {
	tj := l.ts.Lookup(j)
	if tj == nil || tj.Done() {
		return // already completed, or completing this instant
	}
	if err := l.ts.Kill(j); err != nil {
		panic(err)
	}
	delete(l.charge, j)
	l.ctx.Collector.Killed(j, float64(l.ctx.Engine.Now()), 0)
}

func (l *libraPolicy) onFinish(j *workload.Job) {
	now := float64(l.ctx.Engine.Now())
	var utility float64
	switch l.ctx.Model {
	case economy.Commodity:
		utility = l.charge[j]
		delete(l.charge, j)
	case economy.BidBased:
		utility = economy.BidUtility(j, now)
	}
	l.ctx.Collector.Finished(j, now, utility)
}
