package scheduler

import (
	"math"
	"testing"

	"repro/internal/economy"
	"repro/internal/workload"
)

func TestLibraAcceptsImmediatelyWithZeroWait(t *testing.T) {
	jobs := []*workload.Job{
		qjob(1, 2, 0, 100, 100, 400, 1e6, 0),
		qjob(2, 2, 10, 100, 100, 400, 1e6, 0),
	}
	col := runCollect(t, jobs, NewLibra, cfg4(economy.Commodity))
	for _, o := range col.Outcomes() {
		if !o.Accepted {
			t.Fatalf("job %d rejected: %+v", o.Job.ID, *o)
		}
		if o.Wait() != 0 {
			t.Errorf("job %d wait = %v, want 0 (examined at submission)", o.Job.ID, o.Wait())
		}
	}
	rep := col.Report()
	if rep.Wait != 0 {
		t.Errorf("report wait = %v, want 0", rep.Wait)
	}
}

func TestLibraRejectsInfeasibleShare(t *testing.T) {
	// Estimate 200 > deadline 100: share > 1, reject at submission.
	jobs := []*workload.Job{qjob(1, 1, 0, 150, 200, 100, 1e6, 0)}
	col := runCollect(t, jobs, NewLibra, cfg4(economy.Commodity))
	if !col.Outcomes()[0].Rejected {
		t.Error("share > 1 job accepted")
	}
}

func TestLibraRejectsWhenNodesSaturated(t *testing.T) {
	// Four jobs with share 0.5 fill both "columns" of a 4-node machine at
	// 2 procs each; a fifth 0.6-share job cannot find 2 nodes.
	var jobs []*workload.Job
	for i := 1; i <= 4; i++ {
		jobs = append(jobs, qjob(i, 2, 0, 100, 100, 200, 1e6, 0)) // share 0.5
	}
	jobs = append(jobs, qjob(5, 2, 1, 60, 60, 100, 1e6, 0)) // share 0.6
	col := runCollect(t, jobs, NewLibra, cfg4(economy.Commodity))
	out := col.Outcomes()
	for i := 0; i < 4; i++ {
		if !out[i].Accepted {
			t.Fatalf("job %d rejected, want accepted", i+1)
		}
	}
	if !out[4].Rejected {
		t.Error("job 5 accepted on saturated machine")
	}
}

func TestLibraMeetsDeadlinesWithAccurateEstimates(t *testing.T) {
	// Heavy contention, accurate estimates: every accepted job must meet
	// its deadline (the proportional-share guarantee).
	var jobs []*workload.Job
	for i := 1; i <= 12; i++ {
		submit := float64(i * 5)
		jobs = append(jobs, qjob(i, 1+i%3, submit, 100, 100, 300+float64(i%4)*50, 1e6, 0))
	}
	col := runCollect(t, jobs, NewLibra, cfg4(economy.Commodity))
	rep := col.Report()
	if rep.Accepted == 0 {
		t.Fatal("nothing accepted")
	}
	if rep.Reliability != 100 {
		t.Errorf("reliability = %v, want 100 with accurate estimates", rep.Reliability)
	}
}

func TestLibraUnderEstimateMissesDeadline(t *testing.T) {
	// Actual runtime 300 but estimate 100, deadline 150: accepted on the
	// estimate, physically cannot finish in time.
	jobs := []*workload.Job{qjob(1, 1, 0, 300, 100, 150, 1e6, 0)}
	col := runCollect(t, jobs, NewLibra, cfg4(economy.Commodity))
	o := col.Outcomes()[0]
	if !o.Accepted {
		t.Fatal("job rejected")
	}
	if o.SLAFulfilled() {
		t.Error("under-estimated job reported as fulfilling its SLA")
	}
	rep := col.Report()
	if rep.Reliability != 0 {
		t.Errorf("reliability = %v, want 0", rep.Reliability)
	}
}

func TestLibraCommodityPricingIncentive(t *testing.T) {
	// Same estimate, tighter deadline pays more (γ·tr + δ·tr/d); quoted at
	// acceptance and collected at completion.
	jobs := []*workload.Job{
		qjob(1, 1, 0, 100, 100, 200, 1e6, 0),
		qjob(2, 1, 0, 100, 100, 800, 1e6, 0),
	}
	col := runCollect(t, jobs, NewLibra, cfg4(economy.Commodity))
	u1 := col.Outcomes()[0].Utility
	u2 := col.Outcomes()[1].Utility
	if math.Abs(u1-100.5) > 1e-9 { // 100 + 100/200
		t.Errorf("tight job utility = %v, want 100.5", u1)
	}
	if math.Abs(u2-100.125) > 1e-9 { // 100 + 100/800
		t.Errorf("loose job utility = %v, want 100.125", u2)
	}
	if u1 <= u2 {
		t.Error("tighter deadline must pay more")
	}
}

func TestLibraCommodityBudgetRejection(t *testing.T) {
	// Quote 100.5 > budget 100: reject.
	jobs := []*workload.Job{qjob(1, 1, 0, 100, 100, 200, 100, 0)}
	col := runCollect(t, jobs, NewLibra, cfg4(economy.Commodity))
	if !col.Outcomes()[0].Rejected {
		t.Error("over-quote job accepted")
	}
}

func TestLibraDollarPriceRisesWithLoad(t *testing.T) {
	// First job lands on an empty node; second job of the same shape must
	// be quoted more because best-fit packs it onto the now-loaded node.
	jobs := []*workload.Job{
		qjob(1, 1, 0, 100, 100, 400, 1e6, 0), // share 0.25
		qjob(2, 1, 1, 100, 100, 400, 1e6, 0),
	}
	col := runCollect(t, jobs, NewLibraDollar, cfg4(economy.Commodity))
	u1 := col.Outcomes()[0].Utility
	u2 := col.Outcomes()[1].Utility
	// Job 1: free after = 0.75, P = 1 + 0.3/0.75 = 1.4, charge 140.
	if math.Abs(u1-140) > 1e-9 {
		t.Errorf("first job charge = %v, want 140", u1)
	}
	// Job 2 best-fits onto the same node: job 1 has booked 0.25 over
	// almost the whole window, so free ≈ 0.5 and the charge ≈ 160.
	if u2 < 155 || u2 > 165 {
		t.Errorf("second job charge = %v, want ~160", u2)
	}
	if u2 <= u1 {
		t.Error("price must rise with booked load")
	}
}

func TestLibraDollarRejectsWhenPriceExceedsBudget(t *testing.T) {
	// Saturate a node to push the dynamic price beyond the budget.
	jobs := []*workload.Job{
		qjob(1, 4, 0, 100, 100, 125, 1e6, 0), // share 0.8 on all 4 nodes
		qjob(2, 4, 1, 50, 50, 250, 75, 0),    // share 0.2: fits, but P = 1+0.3/0.001 -> huge
	}
	col := runCollect(t, jobs, NewLibraDollar, cfg4(economy.Commodity))
	if !col.Outcomes()[0].Accepted {
		t.Fatal("job 1 rejected")
	}
	if !col.Outcomes()[1].Rejected {
		t.Error("job 2 accepted despite saturated-node price above budget")
	}
}

func TestLibraDollarEarnsMoreThanLibra(t *testing.T) {
	// On a loaded machine Libra+$'s adaptive pricing must out-earn Libra's
	// static pricing for the same workload (paper Fig. 3g/h).
	var jobs []*workload.Job
	for i := 1; i <= 10; i++ {
		jobs = append(jobs, qjob(i, 2, float64(i), 100, 100, 400, 1e6, 0))
	}
	repLibra := runPolicy(t, workload.CloneAll(jobs), NewLibra, cfg4(economy.Commodity))
	repDollar := runPolicy(t, workload.CloneAll(jobs), NewLibraDollar, cfg4(economy.Commodity))
	if repDollar.TotalUtility <= repLibra.TotalUtility {
		t.Errorf("Libra+$ utility %v not above Libra %v", repDollar.TotalUtility, repLibra.TotalUtility)
	}
}

func TestLibraRiskDAvoidsOverrunNodes(t *testing.T) {
	// Node layout (2-node machine): job A overruns its estimate on its
	// node. Job B is itself under-estimated. Libra best-fits B next to A
	// and B misses its deadline; LibraRiskD sees the overrun, places B on
	// the empty node, and B meets its deadline.
	mk := func() []*workload.Job {
		return []*workload.Job{
			qjob(1, 1, 0, 1000, 50, 2500, 1e6, 0), // A: share 0.02... need bigger share
			qjob(2, 1, 60, 100, 50, 110, 1e6, 0),  // B: share 50/110 ≈ 0.4545
		}
	}
	// Give A a meaningful share: estimate 50, deadline 100 -> share 0.5.
	mk = func() []*workload.Job {
		return []*workload.Job{
			qjob(1, 1, 0, 1000, 50, 100, 1e6, 0), // A: share 0.5, overruns from t=50
			qjob(2, 1, 60, 100, 50, 110, 1e6, 0), // B: share ≈0.4545, actual 2× estimate
		}
	}
	cfg := RunConfig{Nodes: 2, Model: economy.BidBased, BasePrice: 1}

	colLibra := runCollect(t, mk(), NewLibra, cfg)
	oB := colLibra.Outcomes()[1]
	if !oB.Accepted {
		t.Fatal("Libra rejected B")
	}
	if oB.SLAFulfilled() {
		t.Errorf("Libra: B met its deadline (finish %v) — expected a miss next to the overrun job", oB.FinishTime)
	}

	colRisk := runCollect(t, mk(), NewLibraRiskD, cfg)
	oB = colRisk.Outcomes()[1]
	if !oB.Accepted {
		t.Fatal("LibraRiskD rejected B")
	}
	if !oB.SLAFulfilled() {
		t.Errorf("LibraRiskD: B missed its deadline (finish %v) — expected placement on the risk-free node", oB.FinishTime)
	}
}

func TestLibraRiskDRejectsWhenOnlyRiskyNodesRemain(t *testing.T) {
	// One-node machine with an overrun job: LibraRiskD must reject the
	// newcomer even though share is available.
	jobs := []*workload.Job{
		qjob(1, 1, 0, 1000, 50, 100, 1e6, 0), // overruns from t=50
		qjob(2, 1, 60, 40, 40, 100, 1e6, 0),  // share 0.4 would fit
	}
	cfg := RunConfig{Nodes: 1, Model: economy.BidBased, BasePrice: 1}
	col := runCollect(t, jobs, NewLibraRiskD, cfg)
	if !col.Outcomes()[1].Rejected {
		t.Error("LibraRiskD accepted a job onto the only (risky) node")
	}
	// Libra, by contrast, accepts it.
	col = runCollect(t, []*workload.Job{
		qjob(1, 1, 0, 1000, 50, 100, 1e6, 0),
		qjob(2, 1, 60, 40, 40, 100, 1e6, 0),
	}, NewLibra, cfg)
	if !col.Outcomes()[1].Accepted {
		t.Error("Libra rejected the same job")
	}
}

func TestLibraBidUtility(t *testing.T) {
	// On-time job under bid-based model earns the full bid.
	jobs := []*workload.Job{qjob(1, 1, 0, 100, 100, 400, 777, 1)}
	col := runCollect(t, jobs, NewLibra, RunConfig{Nodes: 4, Model: economy.BidBased, BasePrice: 1})
	if u := col.Outcomes()[0].Utility; u != 777 {
		t.Errorf("utility = %v, want full bid 777", u)
	}
}

func TestLibraNames(t *testing.T) {
	for _, tc := range []struct {
		f    Factory
		want string
	}{
		{NewLibra, "Libra"}, {NewLibraDollar, "Libra+$"}, {NewLibraRiskD, "LibraRiskD"},
	} {
		ctx := testContext(economy.Commodity, 4)
		if got := tc.f(ctx).Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}

// A rating-blind Libra on a heterogeneous machine misses deadlines that a
// homogeneous machine of the same aggregate capacity meets: the share
// admission assumes reference-speed nodes, so work placed on slow nodes
// overruns its window.
func TestLibraHeterogeneityRisk(t *testing.T) {
	jobs := synthWorkload(t, 300, 0, 67)
	homog := runPolicy(t, workload.CloneAll(jobs), NewLibra,
		RunConfig{Nodes: 16, Model: economy.Commodity, BasePrice: 1})
	ratings := make([]float64, 16)
	for i := range ratings {
		if i < 8 {
			ratings[i] = 1.5
		} else {
			ratings[i] = 0.5
		}
	}
	hetero := runPolicy(t, workload.CloneAll(jobs), NewLibra,
		RunConfig{Nodes: 16, Model: economy.Commodity, BasePrice: 1, NodeRatings: ratings})
	if homog.Reliability != 100 {
		t.Fatalf("homogeneous Set A reliability = %v, want 100", homog.Reliability)
	}
	if hetero.Reliability >= homog.Reliability {
		t.Errorf("heterogeneous reliability %v not below homogeneous %v", hetero.Reliability, homog.Reliability)
	}
}

func TestRunRejectsRaggedRatings(t *testing.T) {
	jobs := synthWorkload(t, 5, 0, 68)
	_, err := Run(jobs, NewLibra, RunConfig{Nodes: 16, Model: economy.Commodity, BasePrice: 1, NodeRatings: []float64{1, 2}})
	if err == nil {
		t.Error("ragged ratings accepted")
	}
}

func TestLibraTerminateKillsAtDeadline(t *testing.T) {
	// Under-estimated job (actual 1000, est 50, deadline 100): plain Libra
	// lets it run to completion; LibraT kills it at t=100.
	jobs := []*workload.Job{qjob(1, 1, 0, 1000, 50, 100, 500, 1)}
	cfg := RunConfig{Nodes: 2, Model: economy.BidBased, BasePrice: 1}

	colPlain := runCollect(t, workload.CloneAll(jobs), NewLibra, cfg)
	o := colPlain.Outcomes()[0]
	if o.Killed || o.FinishTime != 1000 {
		t.Fatalf("plain Libra outcome: %+v", *o)
	}

	colT := runCollect(t, workload.CloneAll(jobs), NewLibraTerminate, cfg)
	o = colT.Outcomes()[0]
	if !o.Killed {
		t.Fatal("LibraT did not kill the overrun job")
	}
	if o.FinishTime != 100 {
		t.Errorf("killed at %v, want 100 (the deadline)", o.FinishTime)
	}
	if o.Utility != 0 {
		t.Errorf("killed job utility = %v, want 0", o.Utility)
	}
	if o.SLAFulfilled() {
		t.Error("killed job marked SLA-fulfilled")
	}
}

func TestLibraTerminateSparesOnTimeJobs(t *testing.T) {
	jobs := []*workload.Job{qjob(1, 1, 0, 50, 50, 100, 500, 1)}
	col := runCollect(t, jobs, NewLibraTerminate, RunConfig{Nodes: 2, Model: economy.BidBased, BasePrice: 1})
	o := col.Outcomes()[0]
	if o.Killed {
		t.Fatal("on-time job killed")
	}
	if !o.SLAFulfilled() || o.Utility != 500 {
		t.Errorf("on-time outcome: %+v", *o)
	}
}

func TestLibraTerminateExactDeadlineCompletionWins(t *testing.T) {
	// Job completes exactly at its deadline: the completion event was
	// scheduled before the kill event, so the job finishes normally.
	jobs := []*workload.Job{qjob(1, 1, 0, 100, 100, 100, 500, 1)}
	col := runCollect(t, jobs, NewLibraTerminate, RunConfig{Nodes: 2, Model: economy.BidBased, BasePrice: 1})
	o := col.Outcomes()[0]
	if o.Killed {
		t.Fatal("exact-deadline completion was killed")
	}
	if !o.SLAFulfilled() {
		t.Error("exact-deadline completion not fulfilled")
	}
}

// Termination caps the provider's exposure: on a Set B workload under
// unbounded penalties, LibraT must out-earn plain Libra (hopeless jobs
// stop bleeding utility at their deadline) while keeping SLA fulfilment in
// the same band — killing frees capacity but also admits more work, so
// small fulfilment shifts in either direction are expected.
func TestLibraTerminateImprovesLateJobOutcomes(t *testing.T) {
	jobs := synthWorkload(t, 400, 100, 71)
	cfg := RunConfig{Nodes: 16, Model: economy.BidBased, BasePrice: 1}
	plain := runPolicy(t, workload.CloneAll(jobs), NewLibra, cfg)
	term := runPolicy(t, workload.CloneAll(jobs), NewLibraTerminate, cfg)
	if term.TotalUtility <= plain.TotalUtility {
		t.Errorf("LibraT utility %v not above Libra %v", term.TotalUtility, plain.TotalUtility)
	}
	if float64(term.SLAFulfilled) < 0.9*float64(plain.SLAFulfilled) {
		t.Errorf("LibraT fulfilled %d collapsed vs Libra %d", term.SLAFulfilled, plain.SLAFulfilled)
	}
}

// An accepted submit allocates nothing once the machine has seen as many
// jobs come and go: the completion callback is bound once, and the
// time-shared cluster reuses the records (node list and lapse handler
// included) of jobs that have left.
func TestLibraAcceptedSubmitDoesNotAllocate(t *testing.T) {
	const nodes, warm, runs = 16, 128, 100 // warm > runs: AllocsPerRun adds a warm-up run
	for _, tc := range []struct {
		factory Factory
		model   economy.Model
	}{
		{NewLibra, economy.Commodity},
		{NewLibraDollar, economy.Commodity},
		{NewLibraRiskD, economy.BidBased},
	} {
		ctx := testContext(tc.model, nodes)
		p := tc.factory(ctx)
		id := 0
		batch := func(n int) []*workload.Job {
			jobs := make([]*workload.Job, n)
			for i := range jobs {
				id++
				// Share 0.04 on 1–2 nodes: all of a batch fits at once.
				jobs[i] = qjob(id, 1+id%2, float64(ctx.Engine.Now()), 40, 40, 1000, 1e9, 0)
				ctx.Collector.Submitted(jobs[i])
			}
			return jobs
		}
		for _, j := range batch(warm) {
			p.Submit(j)
		}
		ctx.Engine.Run() // every warm-up job completes and frees its record
		jobs := batch(runs + 1)
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			p.Submit(jobs[next])
			next++
		})
		if allocs != 0 {
			t.Errorf("%s: an accepted submit allocates %v times, want 0", p.Name(), allocs)
		}
		if rep := ctx.Collector.Report(); rep.Accepted != warm+next {
			t.Errorf("%s: %d of %d jobs accepted, want all", p.Name(), rep.Accepted, warm+next)
		}
	}
}
