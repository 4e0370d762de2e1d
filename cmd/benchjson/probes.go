package main

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/streamrisk"
	"repro/internal/workload"
)

// probe is one in-process benchmark: a name stable across captures and a
// function measured with testing.Benchmark (all wall-clock reads stay
// inside the testing package).
type probe struct {
	name string
	run  func(*testing.B)
}

// probes returns the probe set for a config. Names are namespaced so the
// diff gate can reason about families: sim/* is the event kernel,
// cluster/* the accounting structures, scheduler/* the policies' queues,
// serve/* the service plane's streaming surface, suite/* end-to-end
// throughput.
// The paper config appends the 5000-job paper-scale probes.
func probes(config string) []probe {
	ps := []probe{
		{"sim/steady-chain", probeEngineSteadyChain},
		{"sim/steady-wave/depth=1024", probeEngineSteadyWave},
		{"sim/schedule-cancel/depth=256", probeEngineScheduleCancel},
		{"sim/mixed-heap/depth=4096", probeEngineMixedHeap},
		{"cluster/timeshared-churn/nodes=32", probeTimeSharedChurn},
		{"cluster/timeshared-wide/nodes=128", probeTimeSharedWide},
		{"cluster/spaceshared-earliest/nodes=128", probeSpaceSharedEarliest},
		{"scheduler/easy-queue/depth=512", probeEasyQueue},
		{"serve/risk-stream/subs=4", probeRiskStreamIngest},
		{"serve/risk-read/scopes=11", probeRiskRead},
		{"suite/commodity-small/jobs=150", probeSuiteSmall},
		{"suite/replicated-cells/reps=4", probeSuiteReplicated},
		{"suite/federated/clusters=4", probeSuiteFederated},
		{"suite/federated-faults/clusters=4", probeSuiteFederatedFaults},
	}
	if config == "paper" {
		ps = append(ps, probe{"suite/paper-scale/jobs=5000", probePaperScale})
	}
	return ps
}

// lcg is a tiny deterministic generator for probe shapes; probes must not
// touch math/rand's global source (repolint: globalrand) and need no
// statistical quality, just spread.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 33
}

func (l *lcg) float() float64 { return float64(l.next()%1_000_000) / 1_000_000 }

// probeEngineSteadyChain measures the schedule→dispatch cycle at heap
// depth 1: each fired handler schedules its successor. One op = one event
// through the kernel. This is the purest view of per-event overhead
// (allocation, heap push/pop).
func probeEngineSteadyChain(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	remaining := b.N
	var spawn func()
	spawn = func() {
		if remaining == 0 {
			return
		}
		remaining--
		e.MustSchedule(e.Now()+1, "probe chain", spawn)
	}
	b.ResetTimer()
	spawn()
	e.Run()
	b.StopTimer()
	reportEventsPerSec(b, e)
}

// probeEngineSteadyWave keeps ~1024 events pending at all times: each
// handler schedules a replacement one tick out, so pops work against a
// realistically deep heap with heavy (time, seq) tie-breaking.
func probeEngineSteadyWave(b *testing.B) {
	const depth = 1024
	b.ReportAllocs()
	e := sim.NewEngine()
	remaining := b.N
	var spawn func()
	spawn = func() {
		if remaining == 0 {
			return
		}
		remaining--
		e.MustSchedule(e.Now()+1, "probe wave", spawn)
	}
	b.ResetTimer()
	for i := 0; i < depth && remaining > 0; i++ {
		spawn()
	}
	e.Run()
	b.StopTimer()
	reportEventsPerSec(b, e)
}

// probeEngineScheduleCancel measures the schedule→cancel cycle against a
// 256-deep background heap — the TimeShared completion-event reschedule
// pattern, the kernel's hottest cancel path.
func probeEngineScheduleCancel(b *testing.B) {
	const depth = 256
	b.ReportAllocs()
	e := sim.NewEngine()
	var g lcg = 7
	for i := 0; i < depth; i++ {
		e.MustSchedule(sim.Time(1e9+g.float()*1e9), "probe background", func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.MustSchedule(sim.Time(1+g.float()*1e6), "probe victim", func() {})
		e.Cancel(ev)
	}
}

// probeEngineMixedHeap schedules scattered batches of 4096 events and
// drains them, mixing siftUp and siftDown against a churning heap.
func probeEngineMixedHeap(b *testing.B) {
	const depth = 4096
	b.ReportAllocs()
	e := sim.NewEngine()
	var g lcg = 42
	b.ResetTimer()
	done := 0
	for done < b.N {
		batch := depth
		if b.N-done < batch {
			batch = b.N - done
		}
		base := e.Now()
		for i := 0; i < batch; i++ {
			e.MustSchedule(base+sim.Time(g.float()*1000), "probe mixed", func() {})
		}
		e.Run()
		done += batch
	}
	b.StopTimer()
	reportEventsPerSec(b, e)
}

func reportEventsPerSec(b *testing.B, e *sim.Engine) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(e.Fired())/s, "events/s")
	}
}

// probeTimeSharedChurn pushes b.N jobs through a 32-node proportional-share
// cluster with overlapping lifetimes, mixed widths and shares, and a slice
// of lapsing deadlines — the Libra-family hot path (booking, reweighting,
// completion rescheduling).
func probeTimeSharedChurn(b *testing.B) {
	const nodes = 32
	b.ReportAllocs()
	e := sim.NewEngine()
	ts := cluster.NewTimeShared(e, nodes)
	var g lcg = 3
	started := 0
	var cand []int
	for i := 0; i < b.N; i++ {
		id := i + 1
		at := float64(i) * 2
		procs := 1 + int(g.next()%4)
		runtime := 20 + g.float()*200
		share := 0.1 + g.float()*0.4
		deadline := runtime * (0.8 + g.float()) // ~20% lapse before completing
		e.MustSchedule(sim.Time(at), "probe submit", func() {
			cand = ts.CandidateNodes(cand[:0], share)
			if len(cand) < procs {
				return
			}
			j := &workload.Job{ID: id, Submit: at, Runtime: runtime,
				Estimate: runtime, Procs: procs, Deadline: deadline}
			started++
			if err := ts.Start(j, share, cand[:procs], nil); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if started == 0 {
		b.Fatal("degenerate probe: no job started")
	}
	reportEventsPerSec(b, e)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(started)/s, "jobs/s")
	}
}

// probeTimeSharedWide measures the Libra family's per-event accounting on
// the paper's 128-node machine with wide jobs running: four 64-node jobs
// that never finish, and 48 jobs up to 32 nodes wide coming and going,
// about a fifth of them lapsing before they finish. One op starts one job
// on the best-fit candidates and runs the engine to the next completion,
// so it pays one start, one completion, the rate refreshes both trigger
// and one restore of the best-fit order. A job that completes waits in a
// FIFO to start again; the machine reuses its record, so an op allocates
// nothing.
func probeTimeSharedWide(b *testing.B) {
	const nodes, wide, resident = 128, 4, 48
	b.ReportAllocs()
	e := sim.NewEngine()
	ts := cluster.NewTimeShared(e, nodes)
	var g lcg = 23
	idle := make([]*workload.Job, 0, resident)
	for id := wide + 1; id <= wide+resident; id++ {
		idle = append(idle, &workload.Job{ID: id})
	}
	done := func(j *workload.Job) { idle = append(idle, j) }
	var cand []int
	start := func(j *workload.Job, procs int, share, runtime float64) {
		cand = ts.CandidateNodes(cand[:0], share)
		if len(cand) < procs {
			b.Fatalf("degenerate probe: %d candidates for a %d-wide job", len(cand), procs)
		}
		j.Submit, j.Procs, j.Runtime, j.Estimate = float64(e.Now()), procs, runtime, runtime
		if err := ts.Start(j, share, cand[:procs], done); err != nil {
			b.Fatal(err)
		}
	}
	// next starts the longest-idle job; its guaranteed share would finish
	// it by runtime/share, and its deadline falls at 0.8–1.8 times that.
	next := func() {
		j := idle[0]
		copy(idle, idle[1:])
		idle = idle[:len(idle)-1]
		runtime, share := 50+g.float()*500, 0.02+0.04*g.float()
		j.Deadline = runtime / share * (0.8 + g.float())
		start(j, 1+int(g.next()%32), share, runtime)
	}
	for id := 1; id <= wide; id++ {
		start(&workload.Job{ID: id}, nodes/2, 0.1, 1e12)
	}
	for len(idle) > 1 {
		next()
	}
	op := func() {
		next()
		for waiting := len(idle); len(idle) == waiting; {
			if !e.Step() {
				b.Fatal("degenerate probe: engine drained")
			}
		}
	}
	for i := 0; i < 4*resident; i++ { // every record has been recycled
		op()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if running := ts.RunningCount(); running != wide+resident-len(idle) || running <= wide {
		b.Fatalf("degenerate probe: %d jobs running, %d idle", running, len(idle))
	}
}

// probeSpaceSharedEarliest measures the EASY-backfilling reservation
// queries (EarliestAvailable, AvailableAt) against a 128-node machine with
// ~96 running jobs — the per-submission cost every backfilling policy pays.
func probeSpaceSharedEarliest(b *testing.B) {
	const nodes = 128
	b.ReportAllocs()
	e := sim.NewEngine()
	ss := cluster.NewSpaceShared(e, nodes)
	var g lcg = 11
	for id := 1; ss.FreeProcs() > nodes/4; id++ {
		procs := 1 + int(g.next()%3)
		if procs > ss.FreeProcs() {
			procs = ss.FreeProcs()
		}
		j := &workload.Job{ID: id, Runtime: 1e6 + g.float()*1e6,
			Estimate: 1e6 + g.float()*1e6, Procs: procs}
		if err := ss.Start(j, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	sink := sim.Time(0)
	count := 0
	for i := 0; i < b.N; i++ {
		w := 1 + int(g.next())%nodes
		at, err := ss.EarliestAvailable(w)
		if err != nil {
			b.Fatal(err)
		}
		sink += at
		count += ss.AvailableAt(at)
	}
	b.StopTimer()
	if count == 0 && sink == 0 {
		b.Fatal("degenerate probe: no availability answers")
	}
}

// probeEasyQueue measures one EASY backfilling pass over a deep blocked
// queue: EDF-BF on the paper's 128-node machine, every node busy, 512
// admissible jobs waiting. One op submits a job whose deadline has already
// lapsed, so the pass inserts it by deadline, walks all 513 jobs, writes
// it off and leaves the queue as it was. The doomed jobs are reused: a
// rejected job may be rejected again.
func probeEasyQueue(b *testing.B) {
	const nodes, depth, doomed = 128, 512, 64
	b.ReportAllocs()
	ctx := &scheduler.Context{Engine: sim.NewEngine(), Collector: metrics.NewCollector(),
		Model: economy.Commodity, Nodes: nodes, BasePrice: 1}
	p := scheduler.NewEDFBF(ctx)
	submit := func(j *workload.Job) {
		ctx.Collector.Submitted(j)
		p.Submit(j)
	}
	id := 1
	job := func(procs int, estimate, deadline float64) *workload.Job {
		id++
		return &workload.Job{ID: id, Runtime: estimate, Estimate: estimate, Procs: procs,
			Deadline: deadline, Budget: 1e12}
	}
	for i := 0; i < nodes/2; i++ { // fills the machine: never completes
		submit(job(2, 1e9, 2e9))
	}
	var g lcg = 17
	for i := 0; i < depth; i++ {
		est := 100 + g.float()*10000
		submit(job(1+int(g.next()%8), est, est*(1+3*g.float())))
	}
	pool := make([]*workload.Job, doomed)
	for i := range pool {
		est := 100 + g.float()*20000
		pool[i] = job(1+int(g.next()%8), est, est/2)
		ctx.Collector.Submitted(pool[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Submit(pool[i%doomed])
	}
	b.StopTimer()
	rep := ctx.Collector.Report()
	if rep.Accepted != nodes/2 || rep.Submitted != nodes/2+depth+doomed {
		b.Fatalf("degenerate probe: %d of %d jobs accepted, want exactly the %d that fill the machine",
			rep.Accepted, rep.Submitted, nodes/2)
	}
}

// probeRiskStreamIngest measures the streaming risk engine's per-decision
// ingest cost with four saturated subscribers: every op folds one journal
// decision into session/policy/cluster/global trackers, snapshots all four
// score scopes, and fans the delta out (the subscribers' buffers fill
// after the first DefaultSubscriberBuffer events, so steady state is the
// non-blocking drop path — exactly what a stalled SSE consumer costs the
// admission path). Allocs/op gates at zero: the ingest fold must not
// allocate at steady state.
func probeRiskStreamIngest(b *testing.B) {
	const subs = 4
	b.ReportAllocs()
	e := streamrisk.NewEngine(streamrisk.Config{})
	for i := 0; i < subs; i++ {
		if _, err := e.Subscribe(); err != nil {
			b.Fatal(err)
		}
	}
	h := obs.SessionHeader{ID: "probe", Policy: "Libra", Model: "commodity"}
	decisions := probeDecisions(19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.JournalDecision(h, decisions[i%len(decisions)])
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "events/s")
	}
	if snap := e.Snapshot(); snap.Seq != uint64(b.N) {
		b.Fatalf("engine ingested %d events, want %d", snap.Seq, b.N)
	}
}

// probeDecisions returns 256 accepted journal decisions with spread-out
// runtimes, deadlines, budgets and quotes.
func probeDecisions(g lcg) []obs.SessionDecision {
	decisions := make([]obs.SessionDecision, 256)
	for i := range decisions {
		runtime := 20 + g.float()*200
		decisions[i] = obs.SessionDecision{
			Job: i + 1, Submit: float64(i), Runtime: runtime, Estimate: runtime,
			Procs: 1 + int(g.next()%4), Deadline: runtime * (0.8 + g.float()),
			Budget: 50 + g.float()*100, PenaltyRate: g.float(),
			HighUrgency: g.next()%4 == 0, Admission: "accepted", Quote: 10 + g.float()*50,
		}
	}
	return decisions
}

// probeRiskRead measures one GET /v1/risk through
// streamrisk.SnapshotHandler at the fleet-observe shape: 7 policy scopes
// (every Table V policy), 2 cluster scopes, 1 resident session and the
// global scope. Each op folds one decision into the resident session and
// then reads, as the fleet's caller reads after every submit; the body
// goes to a ResponseWriter that counts and discards it. bytes/read is the
// body size of one read at the start state, an exact count.
func probeRiskRead(b *testing.B) {
	b.ReportAllocs()
	e := streamrisk.NewEngine(streamrisk.Config{})
	decisions := probeDecisions(23)
	var live obs.SessionHeader
	for i, spec := range scheduler.Specs() {
		e.ForgetSession(live.ID) // the previous session has ended
		live = obs.SessionHeader{ID: fmt.Sprintf("s-%d", i+1), Policy: spec.Name, Model: [2]string{"commodity", "bid"}[i%2]}
		for _, d := range decisions[:32] {
			e.JournalDecision(live, d)
		}
	}
	if snap := e.Snapshot(); len(snap.Policies) != 7 || len(snap.Clusters) != 2 || len(snap.Sessions) != 1 {
		b.Fatalf("probe engine holds %d policy, %d cluster and %d session scopes, want 7, 2 and 1",
			len(snap.Policies), len(snap.Clusters), len(snap.Sessions))
	}
	read := streamrisk.SnapshotHandler(e)
	req, err := http.NewRequest(http.MethodGet, "/v1/risk", nil)
	if err != nil {
		b.Fatal(err)
	}
	w := &discardResponse{header: http.Header{}}
	read(w, req)
	if w.status != 0 {
		b.Fatalf("GET /v1/risk answered %d", w.status)
	}
	first := w.n
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.JournalDecision(live, decisions[i%len(decisions)])
		read(w, req)
	}
	b.StopTimer()
	if w.status != 0 {
		b.Fatalf("GET /v1/risk answered %d", w.status)
	}
	b.ReportMetric(float64(first), "bytes/read")
}

// discardResponse is an http.ResponseWriter that counts the body bytes
// and drops them; status stays 0 unless the handler sets one explicitly.
type discardResponse struct {
	header http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header { return d.header }

func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

func (d *discardResponse) WriteHeader(status int) { d.status = status }

// probeSuiteSmall runs one full (12 scenarios × 6 values × 5 policies)
// commodity Set B suite at 150 jobs per cell — the end-to-end shape of the
// paper's evaluation, worker pool included.
func probeSuiteSmall(b *testing.B) {
	cfg := experiment.DefaultSuiteConfig(economy.Commodity, true)
	cfg.Jobs = 150
	jobs := 0
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		jobs += res.Cells() * cfg.Jobs
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(jobs)/s, "jobs/s")
	}
}

// probeSuiteReplicated runs a narrow replicated sweep (one scenario, 4
// replications per cell) through the (cell, replication) worker pool —
// the fan-out path with its shared trace cache and order-fixed reduce.
// One op = one replicated sweep; the sims/s extra is the unit throughput.
func probeSuiteReplicated(b *testing.B) {
	cfg := experiment.DefaultSuiteConfig(economy.Commodity, true)
	cfg.Jobs = 150
	cfg.Replications = 4
	cfg.ScenarioFilter = []string{"workload"}
	sims := 0
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sims += res.Cells() * cfg.Replications
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(sims)/s, "sims/s")
	}
}

// probeSuiteFederated runs a narrow sweep through the 4-cluster hetero4
// federation meta-broker — per-job quote shopping across four live
// sessions plus the per-cell federation merge, the federated counterpart
// of suite/commodity-small.
func probeSuiteFederated(b *testing.B) {
	fed, err := registry.ParseFederation("hetero4")
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiment.DefaultSuiteConfig(economy.Commodity, true)
	cfg.Jobs = 150
	cfg.ScenarioFilter = []string{"workload"}
	cfg.Federation = fed
	jobs := 0
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		jobs += res.Cells() * cfg.Jobs
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(jobs)/s, "jobs/s")
	}
}

// probeSuiteFederatedFaults is suite/federated's fault path: the bid-based
// Set B sweep through hetero4 under high-intensity failures on every
// cluster — per-cluster schedule generation, shared across each scenario
// value's policies, and the kill/requeue paths. Its allocs/op carries the
// cost of every fault event a session queues.
func probeSuiteFederatedFaults(b *testing.B) {
	fed, err := registry.ParseFederation("hetero4")
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
	cfg.Jobs = 150
	cfg.ScenarioFilter = []string{"workload"}
	cfg.Federation = fed
	cfg.FaultIntensity = faults.High
	jobs := 0
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		jobs += res.Cells() * cfg.Jobs
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(jobs)/s, "jobs/s")
	}
}

// probePaperScale runs one 5000-job, 128-node simulation per Table V
// policy — the paper's full trace subset, the unit of work behind every
// figure.
func probePaperScale(b *testing.B) {
	jobs := 0
	for i := 0; i < b.N; i++ {
		for _, spec := range scheduler.Specs() {
			cfg := experiment.DefaultSuiteConfig(spec.Models[0], true)
			cfg.Jobs = 5000
			if _, err := experiment.RunCell(cfg, experiment.DefaultParams(100), spec); err != nil {
				b.Fatal(err)
			}
			jobs += cfg.Jobs
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(jobs)/s, "jobs/s")
	}
}
