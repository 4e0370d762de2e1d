package scheduler

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Context carries everything a policy needs for one simulation run.
type Context struct {
	Engine    *sim.Engine
	Collector *metrics.Collector
	Model     economy.Model
	Nodes     int
	// BasePrice is PBase, in dollars per estimated-runtime second.
	BasePrice float64
	// NodeRatings optionally makes the machine heterogeneous: node i runs
	// at NodeRatings[i] times the reference speed. Every policy's machine
	// honors it: the time-shared (Libra-family) nodes execute work at their
	// rating, though Libra's share admission stays blind to it; the
	// space-shared policies (the backfillers, QoPS, FirstReward, the no-AC
	// baselines) allocate the fastest free nodes first and run a parallel
	// job at its slowest node's speed. The federation's hetero4 clusters
	// and the heterogeneity ablation bench's FCFS-BF/heterogeneous case
	// depend on the space-shared half.
	NodeRatings []float64
	// Prices optionally varies the commodity base price over time (the
	// paper's "variable" pricing, §5.1). Nil means flat BasePrice. Honored
	// by the base-price policies (the backfillers, QoPS, the no-AC
	// baselines); the Libra family has its own pricing functions.
	Prices economy.PriceSchedule
}

// PriceAt returns the commodity base price in effect at time t.
func (ctx *Context) PriceAt(t float64) float64 {
	if ctx.Prices != nil {
		return ctx.Prices.PriceAt(t)
	}
	return ctx.BasePrice
}

// newSpaceCluster builds the context's space-shared machine, honoring node
// ratings when configured.
func newSpaceCluster(ctx *Context) *cluster.SpaceShared {
	if len(ctx.NodeRatings) == ctx.Nodes && ctx.Nodes > 0 {
		return cluster.NewSpaceSharedRated(ctx.Engine, ctx.NodeRatings)
	}
	return cluster.NewSpaceShared(ctx.Engine, ctx.Nodes)
}

// Policy handles job submissions; everything else (queueing, admission,
// execution, accounting) is the policy's business. Implementations report
// accept/reject/start/finish through ctx.Collector.
type Policy interface {
	// Name returns the policy's display name as used in the paper.
	Name() string
	// Submit is invoked at each job's submission time.
	Submit(j *workload.Job)
	// Drain is invoked after the last submission; policies that keep queues
	// use it to reject jobs still waiting when the simulation empties (the
	// simulation only ends once no events remain, so a non-empty queue at
	// drain time means those jobs could never start).
	Drain()
}

// UtilizationReporter is implemented by policies whose cluster can report
// machine utilization; Run copies it into the report.
type UtilizationReporter interface {
	Utilization() float64
}

// AvailabilityEstimator is implemented by policies that can estimate, at
// the current virtual instant and without side effects, the earliest time
// at which procs processors could start a job. The estimate is optimistic
// (user runtime estimates, no future failures) — the same information a
// backfilling policy plans with. A +Inf answer means the machine, in its
// current fault-shrunken state, can never fit the width until a repair.
// The federation meta-broker ranks clusters with this estimate.
type AvailabilityEstimator interface {
	EarliestAvailable(procs int) (float64, error)
}

// spaceEarliest adapts the space-shared cluster's availability query to the
// AvailabilityEstimator contract, translating the cluster's Infinity
// sentinel into +Inf.
func spaceEarliest(c *cluster.SpaceShared, procs int) (float64, error) {
	t, err := c.EarliestAvailable(procs)
	if err != nil {
		return 0, err
	}
	if t >= sim.Infinity {
		return math.Inf(1), nil
	}
	return float64(t), nil
}

// FaultInjectable is implemented by policies that can absorb node failure
// and repair events. NodeDown fails the node in the policy's cluster and
// handles the victims per policy (requeue for restart, or write off);
// NodeUp returns the node to service. Run refuses to inject faults into a
// policy that does not implement this.
type FaultInjectable interface {
	NodeDown(node int)
	NodeUp(node int)
}

// writeOff records a queued job the policy is giving up on — at drain, or
// when it fails admission in the queue: killed if it had started
// (a failure victim that could not be restarted), abandoned if accepted but
// never run, plainly rejected otherwise.
func writeOff(c *metrics.Collector, j *workload.Job, now float64) {
	o := c.Outcome(j)
	switch {
	case o.Started:
		c.Killed(j, now, 0)
	case o.Accepted:
		c.Abandoned(j, now)
	default:
		c.Rejected(j)
	}
}

// Factory builds a fresh policy instance bound to a run context.
type Factory func(ctx *Context) Policy

// Spec describes one policy in the Table V matrix.
type Spec struct {
	Name string
	// Models lists the economic models the paper evaluates the policy
	// under.
	Models []economy.Model
	// Parameter is the primary scheduling parameter per Table V.
	Parameter string
	New       Factory
}

// Specs returns the Table V policy matrix in the paper's order.
func Specs() []Spec {
	return []Spec{
		{"FCFS-BF", []economy.Model{economy.Commodity, economy.BidBased}, "arrival time", NewFCFSBF},
		{"SJF-BF", []economy.Model{economy.Commodity}, "runtime", NewSJFBF},
		{"EDF-BF", []economy.Model{economy.Commodity, economy.BidBased}, "deadline", NewEDFBF},
		{"Libra", []economy.Model{economy.Commodity, economy.BidBased}, "deadline", NewLibra},
		{"Libra+$", []economy.Model{economy.Commodity}, "deadline", NewLibraDollar},
		{"LibraRiskD", []economy.Model{economy.BidBased}, "deadline", NewLibraRiskD},
		{"FirstReward", []economy.Model{economy.BidBased}, "budget with penalty", NewFirstReward},
	}
}

// SpecByName returns the spec for a policy name.
func SpecByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scheduler: unknown policy %q", name)
}

// ForModel returns the specs evaluated under the given economic model, in
// Table V order (five per model, as in the paper's figures).
func ForModel(m economy.Model) []Spec {
	var out []Spec
	for _, s := range Specs() {
		for _, sm := range s.Models {
			if sm == m {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// RunConfig parameterizes one simulation run.
type RunConfig struct {
	// Nodes is the machine size (the paper's SDSC SP2 has 128).
	Nodes int
	// Model is the economic model.
	Model economy.Model
	// BasePrice is PBase (default $1/s).
	BasePrice float64
	// NodeRatings optionally gives each node a speed multiplier (see
	// Context.NodeRatings). Empty means homogeneous.
	NodeRatings []float64
	// Prices optionally varies the commodity base price over time (see
	// Context.Prices). Nil means flat.
	Prices economy.PriceSchedule
	// Faults optionally injects a deterministic node failure/repair process
	// (see internal/faults). Nil or disabled means the paper's original
	// never-failing machine. The policy must implement FaultInjectable.
	Faults *faults.Config
	// FaultMemo optionally shares the generated schedule with the other
	// runs that draw the same fault process (see faults.Memo). Nil
	// generates it afresh.
	FaultMemo *faults.Memo
}

// DefaultRunConfig returns the paper's machine and pricing defaults for the
// given model.
func DefaultRunConfig(m economy.Model) RunConfig {
	return RunConfig{Nodes: 128, Model: m, BasePrice: economy.DefaultBasePrice}
}

// validate checks the machine and pricing parameters.
func (cfg RunConfig) validate() error {
	if cfg.Nodes <= 0 {
		return fmt.Errorf("scheduler: non-positive node count %d", cfg.Nodes)
	}
	if cfg.BasePrice <= 0 {
		return fmt.Errorf("scheduler: non-positive base price %v", cfg.BasePrice)
	}
	if len(cfg.NodeRatings) != 0 && len(cfg.NodeRatings) != cfg.Nodes {
		return fmt.Errorf("scheduler: %d node ratings for %d nodes", len(cfg.NodeRatings), cfg.Nodes)
	}
	return nil
}

// CheckTrace checks a whole trace, in order, the way each submission is
// checked (see checkJob), for a machine of nodes processors. The batch
// entry points, Run and broker.Run, call it first, so nothing is
// simulated on invalid input.
func CheckTrace(jobs []*workload.Job, nodes int) error {
	prev := -1.0
	for _, j := range jobs {
		if err := checkJob(j, prev, nodes); err != nil {
			return err
		}
		prev = j.Submit
	}
	return nil
}

// checkJob is the check every submission passes: the job is valid,
// carries QoS parameters, arrives no earlier than after, and is no wider
// than a machine of nodes processors.
func checkJob(j *workload.Job, after float64, nodes int) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if !j.HasQoS() {
		return fmt.Errorf("scheduler: job %d has no QoS parameters", j.ID)
	}
	if j.Submit < after {
		return fmt.Errorf("scheduler: job %d out of submission order", j.ID)
	}
	if j.Procs > nodes {
		return fmt.Errorf("scheduler: job %d wider (%d) than the machine (%d)", j.ID, j.Procs, nodes)
	}
	return nil
}

// Run simulates the full workload under the policy built by factory and
// returns the objective report. Jobs must be sorted by submission time and
// carry QoS parameters. It is the batch entry point over the step-driven
// Session: every job is validated up front (nothing is simulated on invalid
// input), then submitted in order and the session finalized — which
// dispatches the identical event sequence as scheduling every arrival up
// front (see Session).
func Run(jobs []*workload.Job, factory Factory, cfg RunConfig) (metrics.Report, error) {
	if err := cfg.validate(); err != nil {
		return metrics.Report{}, err
	}
	if err := CheckTrace(jobs, cfg.Nodes); err != nil {
		return metrics.Report{}, err
	}
	s, err := NewSession(factory, cfg)
	if err != nil {
		return metrics.Report{}, err
	}
	for _, j := range jobs {
		if _, err := s.SubmitQuoteless(j); err != nil {
			return metrics.Report{}, err
		}
	}
	return s.Finalize(), nil
}
