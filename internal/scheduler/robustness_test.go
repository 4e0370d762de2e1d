package scheduler

import (
	"math"
	"testing"

	"repro/internal/economy"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// allFactories lists every policy in the repository, paper and extension,
// with a model it runs under.
func allFactories() []struct {
	name    string
	factory Factory
	model   economy.Model
} {
	return []struct {
		name    string
		factory Factory
		model   economy.Model
	}{
		{"FCFS-BF", NewFCFSBF, economy.Commodity},
		{"SJF-BF", NewSJFBF, economy.Commodity},
		{"EDF-BF", NewEDFBF, economy.BidBased},
		{"Libra", NewLibra, economy.Commodity},
		{"Libra+$", NewLibraDollar, economy.Commodity},
		{"LibraRiskD", NewLibraRiskD, economy.BidBased},
		{"FirstReward", NewFirstReward, economy.BidBased},
		{"FCFS-BF/noAC", NewFCFSNoAC, economy.BidBased},
		{"EDF-BF/noAC", NewEDFNoAC, economy.Commodity},
		{"FCFS-CONS", NewFCFSConservative, economy.Commodity},
		{"QoPS", NewQoPS, economy.BidBased},
		{"LibraT", NewLibraTerminate, economy.BidBased},
	}
}

// adversarialStream builds job streams the synthetic generator would never
// produce: zero penalty rates, machine-wide jobs, deadlines barely above
// the minimum, estimates from 100× under to 100× over, budgets from cents
// to millions.
func adversarialStream(seed int64, n, nodes int) []*workload.Job {
	rng := stats.NewRand(seed)
	jobs := make([]*workload.Job, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		if i > 0 {
			now += rng.Float64() * 200
		}
		runtime := math.Ceil(1 + rng.Float64()*2000)
		var estimate float64
		switch rng.Intn(4) {
		case 0: // massive over-estimate
			estimate = runtime * (1 + rng.Float64()*100)
		case 1: // massive under-estimate
			estimate = math.Max(1, runtime/(1+rng.Float64()*100))
		case 2: // exact
			estimate = runtime
		default: // mild noise
			estimate = math.Max(1, runtime*(0.5+rng.Float64()))
		}
		procs := 1 + rng.Intn(nodes) // up to the whole machine
		deadline := estimate*1.05 + rng.Float64()*10000
		budget := math.Pow(10, -2+rng.Float64()*8) // $0.01 .. $1M
		penalty := 0.0
		if rng.Intn(3) > 0 {
			penalty = rng.Float64() * budget / 100
		}
		jobs = append(jobs, &workload.Job{
			ID: i + 1, Submit: math.Floor(now), Runtime: runtime,
			Estimate: math.Ceil(estimate), Procs: procs,
			Deadline: deadline, Budget: budget, PenaltyRate: penalty,
			HighUrgency: rng.Intn(2) == 0,
		})
	}
	return jobs
}

// Every policy must settle every job of an adversarial stream without
// panicking, with consistent accounting, for several seeds.
func TestPoliciesSurviveAdversarialStreams(t *testing.T) {
	for _, seed := range []int64{3, 5, 8} {
		jobs := adversarialStream(seed, 200, 8)
		for _, tc := range allFactories() {
			tc := tc
			var col *metrics.Collector
			factory := func(ctx *Context) Policy {
				col = ctx.Collector
				return tc.factory(ctx)
			}
			rep, err := Run(workload.CloneAll(jobs), factory, RunConfig{Nodes: 8, Model: tc.model, BasePrice: 1})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, tc.name, err)
			}
			if rep.Submitted != 200 {
				t.Fatalf("seed %d %s: submitted %d", seed, tc.name, rep.Submitted)
			}
			settled := 0
			for _, o := range col.Outcomes() {
				if o.Accepted || o.Rejected {
					settled++
				}
				if o.Accepted && !o.Finished {
					t.Fatalf("seed %d %s: job %d accepted but unfinished", seed, tc.name, o.Job.ID)
				}
				if o.Finished && o.FinishTime < o.Job.Submit {
					t.Fatalf("seed %d %s: job %d finished before submission", seed, tc.name, o.Job.ID)
				}
			}
			if settled != 200 {
				t.Fatalf("seed %d %s: only %d jobs settled", seed, tc.name, settled)
			}
			if rep.Utilization < 0 || rep.Utilization > 1+1e-9 {
				t.Fatalf("seed %d %s: utilization %v", seed, tc.name, rep.Utilization)
			}
			if math.IsNaN(rep.Wait) || math.IsNaN(rep.Profitability) {
				t.Fatalf("seed %d %s: NaN in report %+v", seed, tc.name, rep)
			}
		}
	}
}

// The same streams on a heterogeneous machine (every policy's machine
// honors the ratings) must also settle cleanly.
func TestPoliciesSurviveAdversarialStreamsRated(t *testing.T) {
	ratings := []float64{2, 1.5, 1, 1, 1, 0.75, 0.5, 0.25}
	jobs := adversarialStream(13, 150, 8)
	for _, tc := range allFactories() {
		rep, err := Run(workload.CloneAll(jobs), tc.factory,
			RunConfig{Nodes: 8, Model: tc.model, BasePrice: 1, NodeRatings: ratings})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Submitted != 150 {
			t.Fatalf("%s: submitted %d", tc.name, rep.Submitted)
		}
	}
}
