package experiment

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// ReplicationSeedStride is the seed offset convention for replicated
// runs: replication r of a cell draws its trace at TraceSeed +
// ReplicationSeedStride·r, its QoS parameters at QoSSeed +
// ReplicationSeedStride·r, and its failure process at FaultSeed +
// ReplicationSeedStride·r. The stride keeps the three streams aligned
// per replication while leaving room for independent base seeds, and it
// is part of the reproducibility contract: journals, goldens, and the
// canonical-journal tests all assume it. Change it and every committed
// replicated artifact is invalidated.
const ReplicationSeedStride = 1000

// repSeed applies the replication-seed offset convention to a base seed.
func repSeed(base int64, r int) int64 {
	return base + ReplicationSeedStride*int64(r)
}

// ClusterFaultSeedStride extends the seed convention to federations:
// cluster c of a federated cell draws its failure process at
// FaultSeed + ReplicationSeedStride·r + ClusterFaultSeedStride·c, so every
// cluster gets an independent substream while cluster 0 keeps exactly the
// single-cluster seed — which is what lets a 1-cluster federation
// reproduce the plain path bit for bit. The stride dwarfs any realistic
// replication offset (1000·reps) so the two conventions cannot collide.
const ClusterFaultSeedStride = 1_000_000

// clusterFaultSeed applies both seed conventions for one federated
// cluster's failure process.
func clusterFaultSeed(base int64, r, cluster int) int64 {
	return repSeed(base, r) + ClusterFaultSeedStride*int64(cluster)
}

// SuiteConfig parameterizes one full evaluation suite: one economic model,
// one estimate-inaccuracy Set, all twelve scenarios, all policies of the
// model.
type SuiteConfig struct {
	// Model selects the economic model (and with it the five policies of
	// Table V evaluated under it).
	Model economy.Model
	// SetB selects the trace-estimate Set (inaccuracy default 100%);
	// otherwise Set A (0%).
	SetB bool
	// Jobs is the trace length (the paper uses 5000).
	Jobs int
	// Nodes is the machine size (the paper uses 128).
	Nodes int
	// TraceSeed and QoSSeed drive the synthetic trace and the QoS draws.
	TraceSeed, QoSSeed int64
	// Replications averages each cell over this many independently seeded
	// trace/QoS draws (seed offsets per ReplicationSeedStride). 0 or 1
	// runs a single replication, matching the paper's single-trace
	// methodology.
	Replications int
	// Workers bounds the simulation worker pool; 0 means GOMAXPROCS. The
	// pool's unit of work is one (cell, replication) simulation, so a
	// replicated suite — or a narrow sweep with fewer cells than cores —
	// still fills every worker. Results are bit-for-bit independent of
	// Workers: replication reports are reduced in replication order, never
	// completion order.
	Workers int
	// ScenarioFilter, when non-empty, restricts the suite to the named
	// Table VI scenarios (useful for iterating on one dimension).
	ScenarioFilter []string
	// PolicyFilter, when non-empty, restricts the suite to the named
	// policies (they must still belong to the model's Table V column).
	PolicyFilter []string
	// FaultIntensity selects the failure-intensity axis (none/low/high):
	// a deterministic node failure/repair process injected into every cell,
	// scaled to the workload's observation horizon. Empty means none — the
	// paper's original never-failing machine.
	FaultIntensity faults.Intensity
	// FaultSeed drives the failure process draws (varied per replication
	// by ReplicationSeedStride, like the trace and QoS seeds). Independent
	// of TraceSeed so the same workload can be replayed under different
	// failure histories.
	FaultSeed int64
	// Federation optionally replaces the single Nodes-sized machine with a
	// federation behind the meta-broker (internal/broker): one policy
	// instance and one fault process per cluster, jobs placed by
	// quote-shopping. Every cell runs through the broker; nil runs it on
	// the neutral one-cluster federation of Nodes, which is the single
	// machine. Each cluster's failure process draws at the cluster-stride
	// sub-seed (see ClusterFaultSeedStride); a cluster with its own
	// FaultIntensity overrides the suite's. A federation equivalent to the
	// single-cluster run (one cluster, Nodes-sized, neutral speed/price,
	// inherited intensity) produces byte-identical cell keys, reports, and
	// journals to Federation == nil.
	Federation *broker.Federation
	// Synth optionally overrides the trace generator configuration (Jobs
	// still wins for the job count); nil uses the SDSC SP2 calibration.
	Synth *workload.SynthConfig
	// Trace optionally supplies a real trace (e.g. parsed from an SWF
	// file); it overrides synthetic generation entirely.
	Trace []*workload.Job
	// Observer receives suite progress events (see obs.Reporter): suite
	// start, each cell's start and completion, and suite end. Cell events
	// fire concurrently from the worker pool. nil means no observation.
	Observer obs.Reporter
	// Resume maps cell keys to records of a prior run, typically loaded
	// with obs.LoadJournal. Cells whose CellKey is present are not
	// simulated: the journaled report is used verbatim (it round-trips
	// bit for bit), and the cell is reported as Resumed. Keys cover the
	// full parameterization, so a config change invalidates exactly the
	// cells it affects.
	Resume map[string]obs.Record
}

// DefaultSuiteConfig returns the paper-scale configuration.
func DefaultSuiteConfig(model economy.Model, setB bool) SuiteConfig {
	return SuiteConfig{
		Model:     model,
		SetB:      setB,
		Jobs:      5000,
		Nodes:     128,
		TraceSeed: 1,
		QoSSeed:   2,
	}
}

// SetName returns "Set A" or "Set B".
func (c SuiteConfig) SetName() string {
	if c.SetB {
		return "Set B"
	}
	return "Set A"
}

func (c SuiteConfig) inaccuracyDefault() float64 {
	if c.SetB {
		return 100
	}
	return 0
}

// replications normalizes the Replications field: 0 and 1 both mean a
// single replication. Every consumer — CellKey, the suite runner, the
// single-cell entry points — goes through this one normalization.
func (c SuiteConfig) replications() int {
	if c.Replications < 1 {
		return 1
	}
	return c.Replications
}

// CellKey returns the deterministic identity of one (scenario, value,
// policy) cell under this configuration: an FNV-1a hash over the model,
// Set, scenario, value, policy, trace length, machine size, both seeds,
// the replication count, and the workload fingerprint. Two cells share a
// key exactly when they would run byte-identical simulations, which is
// what makes journal records safe to reuse across runs (checkpoint /
// resume) and stale after any config change.
func (c SuiteConfig) CellKey(scenario string, value float64, policy string) string {
	reps := c.replications()
	parts := []string{
		c.Model.String(),
		c.SetName(),
		scenario,
		strconv.FormatFloat(value, 'g', -1, 64),
		policy,
		strconv.Itoa(c.Jobs),
		strconv.Itoa(c.Nodes),
		strconv.FormatInt(c.TraceSeed, 10),
		strconv.FormatInt(c.QoSSeed, 10),
		strconv.Itoa(reps),
		c.workloadFingerprint(),
		c.FaultIntensity.String(),
		strconv.FormatInt(c.FaultSeed, 10),
	}
	// A federation folds its full identity into the key — except when it
	// is equivalent to the plain single-cluster run, which must keep the
	// identical key so journals and resume state stay interchangeable
	// between the two spellings of the same simulation.
	if c.federated() {
		parts = append(parts, "federation")
		parts = append(parts, c.Federation.KeyParts()...)
	}
	return obs.Key(parts...)
}

// federated reports whether cells run on a federation that differs from
// the single machine: a nil federation or one equivalent to the single
// Nodes-sized cluster keeps every output byte of the non-federated run —
// its cell keys, its journal records (no federation record), and an empty
// Results.Clusters. Every cell runs through the broker either way.
func (c SuiteConfig) federated() bool {
	return c.Federation != nil && !c.Federation.EquivalentToSingle(c.Nodes, c.FaultIntensity)
}

// federation returns the federation every replication runs through: the
// configured one, or the neutral one-cluster federation of Nodes when
// Federation is nil, which the broker runs with the plain machine's call
// sequence (see broker.Federation.EquivalentToSingle).
func (c SuiteConfig) federation() broker.Federation {
	if c.Federation != nil {
		return *c.Federation
	}
	return broker.Federation{Clusters: []broker.ClusterSpec{{Name: "only", Nodes: c.Nodes}}}
}

// synthConfig returns the trace generator configuration: the SDSC SP2
// calibration unless Synth overrides it, with Jobs as the job count.
func (c SuiteConfig) synthConfig() workload.SynthConfig {
	s := workload.DefaultSynthConfig()
	if c.Synth != nil {
		s = *c.Synth
	}
	s.Jobs = c.Jobs
	return s
}

// workloadFingerprint identifies the workload source. A synthetic trace
// is fully determined by its generator calibration (plus Jobs and
// TraceSeed, hashed separately); an external trace is identified by its
// job count and span — callers resuming across runs must supply the same
// file, which SWF parsing makes deterministic.
func (c SuiteConfig) workloadFingerprint() string {
	if c.Trace != nil {
		first, last := 0, 0
		if n := len(c.Trace); n > 0 {
			first, last = c.Trace[0].ID, c.Trace[n-1].ID
		}
		return fmt.Sprintf("trace|%d|%d|%d", len(c.Trace), first, last)
	}
	s := c.synthConfig()
	return fmt.Sprintf("synth|%d|%g|%g|%g|%g|%v|%v|%g|%g|%g",
		s.Jobs, s.MeanInterArrival, s.MeanRuntime, s.RuntimeCV, s.MaxRuntime,
		s.Widths, s.WidthWeights,
		s.UnderEstimateFrac, s.MinOverAccuracy, s.EstimateRounding)
}

// ScenarioResult holds one scenario's reports: Reports[valueIdx][policy].
// For a federated suite (see SuiteConfig.Federation) the per-cluster
// breakdown rides along: ClusterReports[valueIdx][policy][clusterIdx] in
// federation order, and RoutingDigests[valueIdx][policy] is the cell's
// routing-determinism digest. Both are nil for non-federated (or
// degenerate-federation) runs.
type ScenarioResult struct {
	Name           string
	Values         []float64
	Reports        []map[string]metrics.Report
	ClusterReports []map[string][]metrics.Report
	RoutingDigests []map[string]string
}

// Results is the raw output of a suite: every report of every cell, plus
// the identifiers needed to label plots. Clusters names the federation
// members (in federation order) when the suite ran federated; empty
// otherwise.
type Results struct {
	Model     economy.Model
	SetName   string
	Policies  []string
	Clusters  []string
	Scenarios []ScenarioResult
}

// ClusterView projects a federated suite's results down to one cluster:
// the same grid, with every cell's report replaced by that cluster's share.
// The view feeds the per-cluster risk panels — the full separate/integrated
// analysis machinery applies unchanged to one federation member.
func (r *Results) ClusterView(ci int) (*Results, error) {
	if ci < 0 || ci >= len(r.Clusters) {
		return nil, fmt.Errorf("experiment: cluster index %d out of range (%d clusters)", ci, len(r.Clusters))
	}
	out := &Results{Model: r.Model, SetName: r.SetName, Policies: r.Policies}
	for _, sc := range r.Scenarios {
		view := ScenarioResult{
			Name:    sc.Name,
			Values:  sc.Values,
			Reports: make([]map[string]metrics.Report, len(sc.Values)),
		}
		for vi := range sc.Values {
			view.Reports[vi] = make(map[string]metrics.Report, len(r.Policies))
			for _, p := range r.Policies {
				reports, ok := sc.ClusterReports[vi][p]
				if !ok || ci >= len(reports) {
					return nil, fmt.Errorf("experiment: %s[%d]/%s has no report for cluster %d",
						sc.Name, vi, p, ci)
				}
				view.Reports[vi][p] = reports[ci]
			}
		}
		out.Scenarios = append(out.Scenarios, view)
	}
	return out, nil
}

// Cells returns the number of (scenario, value, policy) cells — i.e. the
// number of averaged simulations the suite comprises. Unlike the nominal
// 12 × 6 × 5 grid, this respects scenario filters and per-scenario value
// counts.
func (r *Results) Cells() int {
	n := 0
	for _, sc := range r.Scenarios {
		n += len(sc.Values) * len(r.Policies)
	}
	return n
}

// Run executes the suite: |scenarios| × 6 values × 5 policies cells, each
// averaged over the configured replications. The same base trace and QoS
// seeds are used for every cell, so policies within a cell see
// byte-identical workloads.
//
// Execution is a two-level fan-out: the grid is flattened into one work
// queue of (cell, replication) units, executed by Workers goroutines.
// Replication reports land in a per-cell slice indexed by replication
// number and are merged by metrics.AverageReports in index order once the
// cell's last replication completes — a deterministic, order-fixed reduce,
// so results are bit-for-bit identical to a serial run for every worker
// count (the canonical-journal tests pin this, faults included).
func Run(cfg SuiteConfig) (*Results, error) {
	b, err := newBatch(cfg)
	if err != nil {
		return nil, err
	}
	specs := scheduler.ForModel(cfg.Model)
	if len(cfg.PolicyFilter) > 0 {
		wanted := make(map[string]bool, len(cfg.PolicyFilter))
		for _, name := range cfg.PolicyFilter {
			wanted[name] = true
		}
		filtered := specs[:0]
		for _, s := range specs {
			if wanted[s.Name] {
				filtered = append(filtered, s)
				delete(wanted, s.Name)
			}
		}
		for _, name := range cfg.PolicyFilter {
			if wanted[name] {
				return nil, fmt.Errorf("experiment: policy %q not in the %s column", name, cfg.Model)
			}
		}
		specs = filtered
	}
	scenarios := Scenarios()
	if len(cfg.ScenarioFilter) > 0 {
		wanted := make(map[string]bool, len(cfg.ScenarioFilter))
		for _, name := range cfg.ScenarioFilter {
			if _, ok := ScenarioByName(name); !ok {
				return nil, fmt.Errorf("experiment: unknown scenario %q in filter", name)
			}
			wanted[name] = true
		}
		filtered := scenarios[:0]
		for _, sc := range scenarios {
			if wanted[sc.Name] {
				filtered = append(filtered, sc)
			}
		}
		scenarios = filtered
	}

	res := &Results{Model: cfg.Model, SetName: cfg.SetName()}
	for _, s := range specs {
		res.Policies = append(res.Policies, s.Name)
	}
	federated := cfg.federated()
	if federated {
		for _, cs := range cfg.Federation.Clusters {
			res.Clusters = append(res.Clusters, cs.Name)
		}
	}
	res.Scenarios = make([]ScenarioResult, len(scenarios))
	for si, sc := range scenarios {
		res.Scenarios[si] = ScenarioResult{
			Name:    sc.Name,
			Values:  append([]float64(nil), sc.Values...),
			Reports: make([]map[string]metrics.Report, len(sc.Values)),
		}
		if federated {
			res.Scenarios[si].ClusterReports = make([]map[string][]metrics.Report, len(sc.Values))
			res.Scenarios[si].RoutingDigests = make([]map[string]string, len(sc.Values))
		}
		for vi := range sc.Values {
			res.Scenarios[si].Reports[vi] = make(map[string]metrics.Report, len(specs))
			if federated {
				res.Scenarios[si].ClusterReports[vi] = make(map[string][]metrics.Report, len(specs))
				res.Scenarios[si].RoutingDigests[vi] = make(map[string]string, len(specs))
			}
		}
	}

	// record places one cell's report, and its merged federation record
	// (per-cluster reports in federation order + the routing digest) when
	// it has one, into the results grid.
	record := func(si, vi int, policy string, report metrics.Report, fed *obs.FederationRecord) {
		res.Scenarios[si].Reports[vi][policy] = report
		if fed == nil {
			return
		}
		reports := make([]metrics.Report, len(fed.Clusters))
		for ci, c := range fed.Clusters {
			reports[ci] = c.Report
		}
		res.Scenarios[si].ClusterReports[vi][policy] = reports
		res.Scenarios[si].RoutingDigests[vi][policy] = fed.RoutingDigest
	}

	observer := cfg.Observer
	if observer == nil {
		observer = obs.Nop{}
	}
	reps := cfg.replications()

	// Split the grid into resumed cells (their journaled report is reused
	// verbatim) and pending cells for the worker pool.
	var pending []*pendingCell
	var resumed []obs.Record
	total := 0
	for si, sc := range scenarios {
		for vi, value := range sc.Values {
			var group *cellGroup
			for _, spec := range specs {
				total++
				cell := obs.Cell{
					Key:        cfg.CellKey(sc.Name, value, spec.Name),
					Model:      cfg.Model.String(),
					Set:        cfg.SetName(),
					Scenario:   sc.Name,
					ValueIndex: vi,
					Value:      value,
					Policy:     spec.Name,
				}
				if rec, ok := cfg.Resume[cell.Key]; ok && (!federated || rec.Federation != nil) {
					record(si, vi, spec.Name, rec.Report, rec.Federation)
					resumed = append(resumed, obs.Record{
						Cell: cell, Replications: reps, Resumed: true,
						Report: rec.Report, Federation: rec.Federation,
					})
					continue
				}
				p := DefaultParams(cfg.inaccuracyDefault())
				sc.Apply(&p, value)
				if err := p.Validate(); err != nil {
					return nil, fmt.Errorf("experiment: %s/%s[%d]/%s: %w",
						cfg.SetName(), sc.Name, vi, spec.Name, err)
				}
				if group == nil {
					group = newCellGroup(reps)
				}
				pending = append(pending, newPendingCell(si, vi, cell, p, spec, group))
			}
		}
	}

	suite := obs.Suite{Model: cfg.Model.String(), Set: cfg.SetName(), Cells: total, Resumed: len(resumed), Replications: reps}
	suiteStart := time.Now() //lint:allow wallclock — suite wall-time accounting for obs.Summary, not simulation time
	observer.SuiteStart(suite)
	for _, rec := range resumed {
		observer.CellDone(rec)
	}
	executed := 0
	b.execute(pending, observer, func(pc *pendingCell, report metrics.Report, fed *obs.FederationRecord) {
		record(pc.si, pc.vi, pc.spec.Name, report, fed)
		executed++
		observer.CellDone(obs.Record{
			Cell:         pc.cell,
			Replications: reps,
			WallSeconds:  pc.wall.Seconds(),
			Report:       report,
			Federation:   fed,
		})
	})
	elapsed := time.Since(suiteStart) //lint:allow wallclock — suite wall-time accounting for obs.Summary, not simulation time
	observer.SuiteDone(obs.Summary{Suite: suite, Executed: executed, Elapsed: elapsed})
	// Report the failure of the earliest cell in grid order — like the
	// reduce, independent of completion order.
	for _, pc := range pending {
		if pc.err != nil {
			return nil, fmt.Errorf("experiment: %s/%s[%d]/%s (replication %d): %w",
				cfg.SetName(), pc.cell.Scenario, pc.vi, pc.spec.Name, pc.errRep, pc.err)
		}
	}
	return res, nil
}

// batch is one validated configuration ready to run, shared by Run and
// the single-cell entry points: the configuration, the federation every
// replication runs through, and the trace cache.
type batch struct {
	cfg   SuiteConfig
	fed   broker.Federation
	cache *traceCache
}

// newBatch validates cfg and prepares its batch. A synthetic workload's
// replication-0 trace is generated here, so a generator error surfaces
// before any cell starts.
func newBatch(cfg SuiteConfig) (*batch, error) {
	if cfg.Jobs <= 0 && cfg.Trace == nil {
		return nil, fmt.Errorf("experiment: non-positive job count %d", cfg.Jobs)
	}
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("experiment: non-positive node count %d", cfg.Nodes)
	}
	if _, err := faults.ParseIntensity(string(cfg.FaultIntensity)); err != nil {
		return nil, err
	}
	b := &batch{cfg: cfg, fed: cfg.federation(), cache: newTraceCache(cfg.synthConfig())}
	if err := b.fed.Validate(); err != nil {
		return nil, err
	}
	if cfg.Trace == nil {
		if _, err := b.cache.get(cfg.TraceSeed); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// cellGroup is the pending cells of one scenario value: they differ only
// in policy, so at each replication they simulate identical prepared jobs
// and draw identical failure processes. They share one fault-schedule
// memo per replication, which execute drops once the group's last cell at
// that replication has landed, so the schedules kept alive are bounded by
// the groups in flight, not by the grid.
type cellGroup struct {
	// memos holds each replication's memo; nil once dropped.
	memos []*faults.Memo
	// cells counts the group's pending cells; landed counts, per
	// replication, those whose replication has completed.
	cells  int
	landed []int
}

// newCellGroup returns an empty group with a fresh memo per replication.
func newCellGroup(reps int) *cellGroup {
	g := &cellGroup{memos: make([]*faults.Memo, reps), landed: make([]int, reps)}
	for r := range g.memos {
		g.memos[r] = new(faults.Memo)
	}
	return g
}

// land records that one cell of the group completed replication r and
// drops that replication's memo after the last one. Only execute's
// collecting goroutine calls it; every worker that read the memo sent its
// outcome, which the collector received, before the drop.
func (g *cellGroup) land(r int) {
	g.landed[r]++
	if g.landed[r] == g.cells {
		g.memos[r] = nil
	}
}

// pendingCell is one cell awaiting execution: its grid coordinates and
// journal identity, its validated parameters and policy, its group, and
// the reduce state — a report slot per replication, filled in any order by
// the workers and merged in replication order once the last slot lands.
type pendingCell struct {
	si, vi    int
	cell      obs.Cell
	params    Params
	spec      scheduler.Spec
	group     *cellGroup
	started   atomic.Bool
	reports   []metrics.Report
	feds      []*obs.FederationRecord
	remaining int
	wall      time.Duration
	err       error // first replication error, by replication index
	errRep    int
}

// newPendingCell returns a cell awaiting execution as a member of group g,
// with one report slot per replication of the group.
func newPendingCell(si, vi int, cell obs.Cell, p Params, spec scheduler.Spec, g *cellGroup) *pendingCell {
	g.cells++
	reps := len(g.memos)
	return &pendingCell{
		si: si, vi: vi, cell: cell, params: p, spec: spec, group: g,
		reports:   make([]metrics.Report, reps),
		feds:      make([]*obs.FederationRecord, reps),
		remaining: reps, errRep: reps,
	}
}

// execute runs every replication of every pending cell on one pool of
// Workers goroutines (GOMAXPROCS when Workers ≤ 0). Once a cell's last
// replication lands, its reports are reduced in replication order and done
// receives the result, on the calling goroutine; a cell with a failed
// replication keeps the error of the lowest replication index in
// pc.err/pc.errRep instead.
func (b *batch) execute(pending []*pendingCell, observer obs.Reporter, done func(pc *pendingCell, report metrics.Report, fed *obs.FederationRecord)) {
	reps := b.cfg.replications()
	repObserver, _ := observer.(obs.ReplicationReporter)
	// One unit of work = one replication of one cell. Units are enqueued
	// cell-major so a cell's replications are co-scheduled and cells
	// complete (and journal) as early as possible.
	type unit struct {
		ci, r int
	}
	type outcome struct {
		unit
		report metrics.Report
		fed    *obs.FederationRecord
		wall   time.Duration
		err    error
	}
	units := len(pending) * reps
	workers := b.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > units {
		workers = units
	}
	unitCh := make(chan unit)
	outCh := make(chan outcome)
	for w := 0; w < workers; w++ {
		go func() {
			for u := range unitCh {
				pc := pending[u.ci]
				if pc.started.CompareAndSwap(false, true) {
					observer.CellStart(pc.cell)
				}
				start := time.Now() //lint:allow wallclock — per-replication wall-time accounting for the journal, not simulation time
				rep, fed, err := b.runReplication(pc.params, pc.spec, u.r, pc.group.memos[u.r])
				wall := time.Since(start) //lint:allow wallclock — per-replication wall-time accounting for the journal, not simulation time
				outCh <- outcome{unit: u, report: rep, fed: fed, wall: wall, err: err}
			}
		}()
	}
	go func() {
		for ci := range pending {
			for r := 0; r < reps; r++ {
				unitCh <- unit{ci, r}
			}
		}
		close(unitCh)
	}()

	for i := 0; i < units; i++ {
		o := <-outCh
		pc := pending[o.ci]
		pc.group.land(o.r)
		pc.remaining--
		pc.wall += o.wall
		if o.err != nil {
			// Keep the error of the lowest replication index, so the
			// reported failure is independent of completion order.
			if o.r < pc.errRep {
				pc.err, pc.errRep = o.err, o.r
			}
		} else {
			pc.reports[o.r] = o.report
			pc.feds[o.r] = o.fed
			if repObserver != nil {
				repObserver.ReplicationDone(pc.cell, o.r, reps)
			}
		}
		if pc.remaining > 0 || pc.err != nil {
			continue
		}
		// Last replication of the cell: reduce in replication order.
		done(pc, metrics.AverageReports(pc.reports), reduceFederationRecords(pc.feds))
	}
}

// traceCache memoizes generated traces by replication seed, shared across
// every cell of a suite run. Every cell at replication r draws the same
// trace (seed TraceSeed + ReplicationSeedStride·r), so without the cache
// the generator runs |cells|×reps times for reps distinct traces.
// workload.Generate is pure — same config and seed give the same jobs —
// so handing out the cached slice is exact; callers clone before mutating
// (runReplication always does, via workload.CloneAll).
//
// The cache is safe for concurrent use by every worker of the suite pool,
// including concurrent replications of the same cell: the map is guarded
// by a mutex, but generation itself runs under a per-seed sync.Once, so
// two workers racing on the same seed block on one generation (and then
// share the identical slice) while workers on different seeds generate in
// parallel instead of serializing on the map lock.
type traceCache struct {
	synth workload.SynthConfig
	mu    sync.Mutex
	byTag map[int64]*traceEntry
}

// traceEntry is one memoized trace; once guards its single generation.
type traceEntry struct {
	once sync.Once
	jobs []*workload.Job
	err  error
}

// newTraceCache builds an empty cache for the synthetic generator synth.
func newTraceCache(synth workload.SynthConfig) *traceCache {
	return &traceCache{synth: synth, byTag: make(map[int64]*traceEntry)}
}

// get returns the trace for a seed, generating it on first use. Safe for
// concurrent use from the suite worker pool; every caller for the same
// seed receives the identical slice.
func (c *traceCache) get(seed int64) ([]*workload.Job, error) {
	c.mu.Lock()
	e, ok := c.byTag[seed]
	if !ok {
		e = &traceEntry{}
		c.byTag[seed] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.jobs, e.err = workload.Generate(c.synth, seed)
	})
	return e.jobs, e.err
}

// runReplication executes replication r of one cell: draw the trace for
// the replication's seed through the shared cache (or reuse a fixed
// external trace, which cannot be re-drawn — only the QoS and fault seeds
// vary across its replications), clone it, scale arrivals, synthesize QoS,
// and simulate under the policy through the federation meta-broker, its
// failure schedules shared through memo with the cell's group. The
// federation record is nil unless the federation differs from the single
// machine. This is the worker pool's unit of work.
func (b *batch) runReplication(p Params, spec scheduler.Spec, r int, memo *faults.Memo) (metrics.Report, *obs.FederationRecord, error) {
	trace := b.cfg.Trace
	if trace == nil {
		var err error
		trace, err = b.cache.get(repSeed(b.cfg.TraceSeed, r))
		if err != nil {
			return metrics.Report{}, nil, err
		}
	}
	jobs := workload.CloneAll(trace)
	workload.ScaleArrivals(jobs, p.ArrivalFactor)
	if err := qos.Synthesize(jobs, p.QoSConfig(repSeed(b.cfg.QoSSeed, r))); err != nil {
		return metrics.Report{}, nil, err
	}
	res, err := broker.Run(jobs, b.fed, spec.New, broker.RunConfig{
		Model:     b.cfg.Model,
		Faults:    b.faultConfigs(jobs, r),
		FaultMemo: memo,
	})
	if err != nil {
		return metrics.Report{}, nil, err
	}
	var fedRec *obs.FederationRecord
	if b.cfg.federated() {
		fedRec = federationRecord(res)
	}
	return res.Federation, fedRec, nil
}

// faultConfigs derives one failure process per cluster for replication r:
// each cluster's effective intensity (its own, or the suite's when unset)
// expanded at the cluster-stride sub-seed over the replication's prepared
// workload horizon (after arrival scaling), so the axis bites identically
// at test scale and paper scale. Cluster 0 draws at repSeed, so the
// single machine's process is the neutral one-cluster federation's. Nil
// when no cluster injects faults.
func (b *batch) faultConfigs(jobs []*workload.Job, r int) []*faults.Config {
	var out []*faults.Config
	horizon := 0.0
	for ci, cs := range b.fed.Clusters {
		intensity := cs.FaultIntensity
		if intensity == "" {
			intensity = b.cfg.FaultIntensity
		}
		if !intensity.Enabled() {
			continue
		}
		if out == nil {
			out = make([]*faults.Config, len(b.fed.Clusters))
			horizon = faults.JobsHorizon(jobs)
		}
		f := intensity.Config(clusterFaultSeed(b.cfg.FaultSeed, r, ci), horizon)
		out[ci] = &f
	}
	return out
}

// federationRecord converts one replication's broker result into the
// journal shape.
func federationRecord(res *broker.Result) *obs.FederationRecord {
	rec := &obs.FederationRecord{
		Clusters:      make([]obs.ClusterRecord, len(res.Clusters)),
		RoutingDigest: res.RoutingDigest,
	}
	for i, c := range res.Clusters {
		rec.Clusters[i] = obs.ClusterRecord{Name: c.Name, Nodes: c.Nodes, Routed: c.Routed, Report: c.Report}
	}
	return rec
}

// reduceFederationRecords merges the per-replication federation records of
// one cell in replication order — the federated counterpart of the
// order-fixed report reduce. Per-cluster reports are averaged cluster by
// cluster, routed counts take the rounded mean, and the cell digest is the
// hash of the per-replication digests in replication order (a single
// replication keeps its digest verbatim, so the journal stays directly
// comparable to a broker run). Nil in (non-federated cell) is nil out.
func reduceFederationRecords(feds []*obs.FederationRecord) *obs.FederationRecord {
	if len(feds) == 0 || feds[0] == nil {
		return nil
	}
	if len(feds) == 1 {
		return feds[0]
	}
	out := &obs.FederationRecord{Clusters: make([]obs.ClusterRecord, len(feds[0].Clusters))}
	digests := make([]string, len(feds))
	reports := make([]metrics.Report, len(feds))
	for ci := range out.Clusters {
		routed := 0.0
		for r, f := range feds {
			reports[r] = f.Clusters[ci].Report
			routed += float64(f.Clusters[ci].Routed)
		}
		out.Clusters[ci] = obs.ClusterRecord{
			Name:   feds[0].Clusters[ci].Name,
			Nodes:  feds[0].Clusters[ci].Nodes,
			Routed: int(routed/float64(len(feds)) + 0.5),
			Report: metrics.AverageReports(reports),
		}
	}
	for r, f := range feds {
		digests[r] = f.RoutingDigest
	}
	out.RoutingDigest = obs.Key(digests...)
	return out
}

// RunCellDetailed is RunCell plus the per-job outcomes, for drill-down
// dumps (simrun -dump). Replications are forced serial so the captured
// audit trail is deterministically the final replication's; the averaged
// report is unaffected (the reduce is order-fixed either way).
func RunCellDetailed(cfg SuiteConfig, params Params, spec scheduler.Spec) (metrics.Report, []*metrics.Outcome, error) {
	cfg.Workers = 1
	var collector *metrics.Collector
	wrapped := spec
	inner := spec.New
	wrapped.New = func(ctx *scheduler.Context) scheduler.Policy {
		collector = ctx.Collector
		return inner(ctx)
	}
	rep, err := RunCell(cfg, params, wrapped)
	if err != nil {
		return metrics.Report{}, nil, err
	}
	return rep, collector.Outcomes(), nil
}

// RunCell is the exported single-cell entry point used by cmd/simrun and
// the examples. Its replications run on Run's worker pool, with the same
// set-up and the same order-fixed reduce.
func RunCell(cfg SuiteConfig, params Params, spec scheduler.Spec) (metrics.Report, error) {
	rep, _, err := RunCellFederated(cfg, params, spec)
	return rep, err
}

// RunCellFederated is RunCell plus the cell's merged federation record:
// per-cluster reports in federation order and the routing digest. The
// record is nil for a non-federated (or degenerate-federation) cell, so
// plain callers can use RunCell unchanged.
func RunCellFederated(cfg SuiteConfig, params Params, spec scheduler.Spec) (metrics.Report, *obs.FederationRecord, error) {
	if err := params.Validate(); err != nil {
		return metrics.Report{}, nil, err
	}
	b, err := newBatch(cfg)
	if err != nil {
		return metrics.Report{}, nil, err
	}
	pc := newPendingCell(0, 0, obs.Cell{}, params, spec, newCellGroup(cfg.replications()))
	var rep metrics.Report
	var fed *obs.FederationRecord
	b.execute([]*pendingCell{pc}, obs.Nop{}, func(_ *pendingCell, r metrics.Report, f *obs.FederationRecord) {
		rep, fed = r, f
	})
	if pc.err != nil {
		return metrics.Report{}, nil, fmt.Errorf("replication %d: %w", pc.errRep, pc.err)
	}
	return rep, fed, nil
}
