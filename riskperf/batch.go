package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/risk"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// batchSpec is one paper-scale suite: the economic model, Set B, and
// optionally a fault intensity and a federation preset.
type batchSpec struct {
	name       string
	model      economy.Model
	intensity  faults.Intensity
	federation string
}

var (
	paperCommodity     = batchSpec{name: "paper-commodity", model: economy.Commodity}
	federatedBidFaults = batchSpec{name: "federated-bid-faults", model: economy.BidBased, intensity: faults.High, federation: federation}
)

// batchScenarios is the fixed Table VI subset both batch workloads run:
// 6 values × 5 policies = 30 cells of 5000 jobs each per suite.
var batchScenarios = []string{"workload"}

// inputSets is how many input sets a batch run cycles through: suite i of
// a run draws its trace, QoS terms and failures from inputSeed(seed, i mod
// inputSets). One trace's simulation cost moves by about a tenth from
// seed to seed, so a run that measured a single trace would report the
// seed, not the code; a run over many traces reports their mean. A suite
// past inputSets repeats an earlier input set and is checked against the
// same reference.
const inputSets = 16

// inputSeed is the seed of a run's i-th input set.
func inputSeed(seed int64, i int) int64 { return deriveSeed(seed, uint64(1000+i)) }

// setupRounds is how many set-up rounds a batch run times before each
// suite. A round builds the suite configuration of every input set and
// loads the committed references; setup_s is the median round. A round
// takes tens of microseconds, and on a shared VM the speed at that scale
// changes several times a second, so rounds taken only before the first
// suite would report the host's state at that moment. Spread through the
// run, they meet the same conditions as the suites.
const setupRounds = 100

// refsJSON holds the committed output digests: workload → seed → the
// SHA-256 of each input set's output (Results.WriteJSON bytes, then every
// rendered panel), in input-set order. Seed 1 is the default seed; seed
// 7919 is held out, for checking a claim on a seed that was not used
// while the change was written.
//
//go:embed refs.json
var refsJSON []byte

func loadRefs() (map[string]map[string][]string, error) {
	var refs map[string]map[string][]string
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("parsing refs.json: %w", err)
	}
	return refs, nil
}

// deriveSeed maps the run's seed to an independent input stream
// (SplitMix64 finalizer). The result is non-negative and leaves headroom
// for the experiment's replication and cluster seed strides.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 2)
}

// suiteConfig builds the workload's suite configuration for a seed.
func suiteConfig(spec batchSpec, seed int64) (experiment.SuiteConfig, error) {
	cfg := experiment.DefaultSuiteConfig(spec.model, true)
	cfg.TraceSeed = deriveSeed(seed, 1)
	cfg.QoSSeed = deriveSeed(seed, 2)
	cfg.FaultSeed = deriveSeed(seed, 3)
	cfg.FaultIntensity = spec.intensity
	cfg.Workers = runtime.NumCPU()
	cfg.ScenarioFilter = batchScenarios
	fed, err := registry.ParseFederation(spec.federation)
	if err != nil {
		return cfg, err
	}
	cfg.Federation = fed
	return cfg, nil
}

// cellWalls is an obs.Reporter that keeps the wall time experiment.Run
// itself measured for each cell, and reads no clock.
type cellWalls struct {
	mu       sync.Mutex
	walls    []float64 // seconds
	policies []string
}

func (c *cellWalls) SuiteStart(obs.Suite)  {}
func (c *cellWalls) CellStart(obs.Cell)    {}
func (c *cellWalls) SuiteDone(obs.Summary) {}
func (c *cellWalls) CellDone(r obs.Record) {
	c.mu.Lock()
	c.walls = append(c.walls, r.WallSeconds)
	c.policies = append(c.policies, r.Cell.Policy)
	c.mu.Unlock()
}

// spanReporter is the traced run's obs.Reporter: one span per suite and
// one per cell, named after the cell's policy, with the suite as parent.
type spanReporter struct {
	rec     *recorder
	mu      sync.Mutex
	suite   int32
	started map[string]int64 // cell key → start
}

func (s *spanReporter) SuiteStart(obs.Suite) {
	i := s.rec.open("experiment.suite", "", s.rec.now(), -1)
	s.mu.Lock()
	s.suite = i
	s.mu.Unlock()
}

func (s *spanReporter) CellStart(c obs.Cell) {
	t := s.rec.now()
	s.mu.Lock()
	s.started[c.Key] = t
	s.mu.Unlock()
}

func (s *spanReporter) CellDone(r obs.Record) {
	end := s.rec.now()
	s.mu.Lock()
	start, suite := s.started[r.Cell.Key], s.suite
	s.mu.Unlock()
	s.rec.add("experiment.cell."+slugOf(r.Cell.Policy), r.Cell.Key, start, end, suite)
}

func (s *spanReporter) SuiteDone(obs.Summary) {
	end := s.rec.now()
	s.mu.Lock()
	suite := s.suite
	s.mu.Unlock()
	s.rec.close(suite, end)
}

// iteration is one measured suite: experiment.Run, then the riskbench
// analysis in memory.
type iteration struct {
	dur    time.Duration
	cpu    float64 // CPU seconds the process spent in the suite
	cells  int
	jobs   int // per cell
	digest string
	broken int           // cells whose reports break conservation (see brokenCells)
	read   time.Duration // the analysis: every panel's series, rankings and plot emitters
}

func runIteration(cfg experiment.SuiteConfig, walls *cellWalls, rec *recorder) (*iteration, *experiment.Results, error) {
	cfg.Observer = walls
	if rec.keep {
		cfg.Observer = obs.Multi(walls, &spanReporter{rec: rec, started: make(map[string]int64)})
	}
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	start := rec.now()
	res, err := experiment.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	h := sha256.New()
	if err := res.WriteJSON(h); err != nil {
		return nil, nil, err
	}
	read, err := analyze(res, h, rec)
	if err != nil {
		return nil, nil, err
	}
	dur := rec.since(start)
	cpu1, err := cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	it := &iteration{
		dur:    dur,
		cpu:    cpu1 - cpu0,
		cells:  res.Cells(),
		jobs:   cfg.Jobs,
		digest: hex.EncodeToString(h.Sum(nil)),
		broken: brokenCells(res, cfg.Jobs),
		read:   read,
	}
	return it, res, nil
}

// brokenCells is the output check that holds for every seed, with or
// without a committed reference: each cell's report accounts for every
// submitted job (Submitted = jobs, Killed ≤ Accepted ≤ Submitted,
// SLAFulfilled ≤ Accepted), and a federated cell's counts are the sums of
// its clusters' counts. It returns how many cells break it.
func brokenCells(res *experiment.Results, jobs int) int {
	broken := 0
	for _, sc := range res.Scenarios {
		for vi, cell := range sc.Reports {
			for _, p := range res.Policies {
				r := cell[p]
				ok := r.Submitted == jobs && r.Killed <= r.Accepted && r.Accepted <= r.Submitted && r.SLAFulfilled <= r.Accepted
				if len(res.Clusters) > 0 {
					var sum metrics.Report
					for _, c := range sc.ClusterReports[vi][p] {
						sum.Submitted += c.Submitted
						sum.Accepted += c.Accepted
						sum.SLAFulfilled += c.SLAFulfilled
						sum.Killed += c.Killed
					}
					ok = ok && sum.Submitted == r.Submitted && sum.Accepted == r.Accepted &&
						sum.SLAFulfilled == r.SLAFulfilled && sum.Killed == r.Killed
				}
				if !ok {
					broken++
				}
			}
		}
	}
	return broken
}

// panel is one riskbench figure: its series and whether it carries the
// performance/volatility rankings.
type panel struct {
	title  string
	series func() ([]risk.Series, error)
	rank   bool
}

// panels lists the riskbench figures of a suite in emission order:
// separate risk per objective, the integrated triples, all four
// objectives with rankings, and for a federation one all-objective panel
// per cluster.
func panels(res *experiment.Results) []panel {
	head := fmt.Sprintf("%s, %s", res.Model, res.SetName)
	var out []panel
	for _, obj := range risk.AllObjectives {
		out = append(out, panel{head + ": separate — " + obj.String(), func() ([]risk.Series, error) { return res.SeparateSeries(obj) }, false})
	}
	for i, combo := range experiment.ObjectiveTriples() {
		out = append(out, panel{head + ": integrated — drop " + risk.AllObjectives[i].String(), func() ([]risk.Series, error) { return res.IntegratedSeries(combo) }, false})
	}
	out = append(out, panel{head + ": integrated — all four objectives", func() ([]risk.Series, error) { return res.IntegratedSeries(risk.AllObjectives) }, true})
	for ci, name := range res.Clusters {
		out = append(out, panel{head + ": integrated — cluster " + name, func() ([]risk.Series, error) {
			view, err := res.ClusterView(ci)
			if err != nil {
				return nil, err
			}
			series, err := view.IntegratedSeries(risk.AllObjectives)
			return risk.QualifySeries(series, name), err
		}, false})
	}
	return out
}

// analyze runs the riskbench analysis over a suite's results in memory,
// hashing every rendered byte into h, and returns how long it took. A
// traced run also records a risk and a plot span per panel.
func analyze(res *experiment.Results, h hash.Hash, rec *recorder) (time.Duration, error) {
	start := rec.now()
	analysis := rec.open("analysis", "", start, -1)
	for _, p := range panels(res) {
		t0 := rec.now()
		series, err := p.series()
		if err != nil {
			return 0, err
		}
		if p.rank {
			perf, err := risk.RankByPerformance(series)
			if err != nil {
				return 0, err
			}
			vol, err := risk.RankByVolatility(series)
			if err != nil {
				return 0, err
			}
			for _, row := range risk.RankingTable(perf, false) {
				h.Write([]byte(row))
			}
			for _, row := range risk.RankingTable(vol, true) {
				h.Write([]byte(row))
			}
		}
		t1 := rec.now()
		cfg := plot.Config{Title: p.title, TrendLines: true}
		for _, s := range []string{
			plot.GnuplotData(series), plot.GnuplotScript(series, "plot.dat", cfg),
			plot.CSV(series), plot.SVG(series, cfg), plot.ASCII(series, cfg),
		} {
			h.Write([]byte(s))
		}
		summary, err := plot.SummaryTable(series)
		if err != nil {
			return 0, err
		}
		h.Write([]byte(summary))
		t2 := rec.now()
		rec.add("risk.analyze", p.title, t0, t1, analysis)
		rec.add("plot.render", p.title, t1, t2, analysis)
	}
	end := rec.now()
	rec.close(analysis, end)
	return time.Duration(end - start), nil
}

func runBatch(spec batchSpec, o options) (*outcome, error) {
	rec := newRecorder(o.traced)
	var (
		cfgs   [inputSets]experiment.SuiteConfig
		refs   []string
		setups []float64
	)
	setUp := func() error {
		for r := 0; r < setupRounds; r++ {
			t0 := rec.now()
			for i := range cfgs {
				cfg, err := suiteConfig(spec, inputSeed(o.seed, i))
				if err != nil {
					return err
				}
				cfgs[i] = cfg
			}
			all, err := loadRefs()
			if err != nil {
				return err
			}
			refs = all[spec.name][strconv.FormatInt(o.seed, 10)]
			setups = append(setups, rec.since(t0).Seconds())
		}
		return nil
	}
	if err := setUp(); err != nil {
		return nil, err
	}
	// One untimed cell per policy at the Table VI defaults, so lazy set-up
	// and cache fills land before the first measured suite.
	for _, p := range scheduler.ForModel(cfgs[0].Model) {
		if _, err := experiment.RunCell(cfgs[0], experiment.DefaultParams(100), p); err != nil {
			return nil, err
		}
	}

	walls := &cellWalls{}
	before, err := readCounters()
	if err != nil {
		return nil, err
	}
	start := rec.now()
	var (
		iters []*iteration
		first *experiment.Results // input set 0, the one the traced run re-drives
		rss   []float64           // resident set at the end of each suite, MiB
	)
	for i := 0; i == 0 || rec.since(start) < o.seconds; i++ {
		if i > 0 {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		it, res, err := runIteration(cfgs[i%inputSets], walls, rec)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = res
		}
		iters = append(iters, it)
		mb, err := statusMB("VmRSS")
		if err != nil {
			return nil, err
		}
		rss = append(rss, mb)
	}
	after, err := readCounters()
	if err != nil {
		return nil, err
	}
	hwm, err := statusMB("VmHWM")
	if err != nil {
		return nil, err
	}

	// Output check: every cell's report must account for its jobs, and a
	// suite's digest must equal the committed reference for its input set
	// where the seed has references. A differing digest fails all the
	// suite's cells.
	out := &outcome{metrics: metricSet{}}
	digests := make([]string, len(iters))
	for i, it := range iters {
		digests[i] = it.digest
	}
	checked, bad := checkDigests(digests, refs)
	var work, busy, cpu float64
	var suites, reads samples
	differ, broken := 0, 0
	for i, it := range iters {
		out.attempted += int64(it.cells)
		switch {
		case bad[i]:
			differ++
			out.failed += int64(it.cells)
		case it.broken > 0:
			out.failed += int64(it.broken)
		}
		broken += it.broken
		work += float64(it.cells * it.jobs)
		busy += it.dur.Seconds()
		cpu += it.cpu
		suites.add(it.dur)
		reads.add(it.read)
	}
	var cells samples
	for _, w := range walls.walls {
		cells.add(time.Duration(w * 1e9))
	}
	fmt.Fprintf(o.out, "%s seed %d: %d suites of %d cells on %d input sets in %.2fs (%.0f ops/s) and %.2f CPU-s, peak RSS %.1f MB; %d digests checked against references (%d differ); %d cell reports break conservation\n",
		spec.name, o.seed, len(iters), iters[0].cells, min(len(iters), inputSets), busy, work/busy, cpu, hwm, checked, differ, broken)
	fmt.Fprintln(o.out, suites.describe("suite"))
	fmt.Fprintln(o.out, cells.describe("cell"))
	fmt.Fprintln(o.out, reads.describe("analysis"))
	for i := 0; i < min(len(iters), inputSets); i++ {
		fmt.Fprintf(o.out, "digest[%d] %s\n", i, iters[i].digest)
	}

	m := out.metrics
	if !o.traced {
		m.set("ops_per_cpu_s", work/cpu)
		m.set("submit_p50_ms", suites.ms(0.50))
		m.set("submit_p90_ms", suites.ms(0.90))
		m.set("rss_mb", median(rss))
		m.set("setup_s", median(setups))
		return out, nil
	}

	m.set("trace.ops_per_cpu_s", work/cpu)
	runtimeMetrics(m, before, after)
	batchSpanMetrics(m, rec.all(), walls, cfgs[0].Workers, len(iters))
	redriven, err := redrive(cfgs[0], first, rec, m)
	if err != nil {
		return nil, err
	}
	out.failed += int64(redriven)
	spans := rec.all()
	fmt.Fprintf(o.out, "re-drive of input set 0: %d of %d cells differ from experiment.Run; %d spans\n", redriven, iters[0].cells, len(spans))
	if o.spansDir != "" {
		if err := writeSpans(o.spansDir+".spans", spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkDigests compares suite i's output digest with the committed
// reference for its input set, i mod inputSets, where there is one. It
// returns how many digests had a reference and which ones differ.
func checkDigests(digests, refs []string) (checked int, bad []bool) {
	bad = make([]bool, len(digests))
	for i, d := range digests {
		if r := i % inputSets; r < len(refs) {
			checked++
			bad[i] = d != refs[r]
		}
	}
	return checked, bad
}

// batchSpanMetrics derives the experiment, risk and plot metrics of the
// measured loop, averaged per suite. Cell time is the wall time
// experiment.Run measured around each cell's simulation: the cell spans
// also hold the hand-off to the reduce, so their sum can exceed the pool.
func batchSpanMetrics(m metricSet, spans []span, walls *cellWalls, workers, suites int) {
	var cellSum, suiteSum float64
	perPolicy := map[string]float64{}
	for i, w := range walls.walls {
		perPolicy[slugOf(walls.policies[i])] += w
		cellSum += w
	}
	for _, s := range spans {
		switch s.name {
		case "experiment.suite":
			suiteSum += float64(s.dur()) / 1e9
		case "risk.analyze":
			m["risk.analyze_ms"] += float64(s.dur()) / 1e6 / float64(suites)
		case "plot.render":
			m["plot.render_ms"] += float64(s.dur()) / 1e6 / float64(suites)
		}
	}
	for _, p := range policies {
		if v, ok := perPolicy[p.slug]; ok {
			m.set("experiment.cell_s."+p.slug, v/float64(suites))
		}
	}
	if suiteSum > 0 {
		m.set("experiment.pool_util", cellSum/(float64(workers)*suiteSum))
	}
}

// redrive replays every cell of a suite serially through the public
// pieces experiment.Run hides — workload.Generate, CloneAll,
// ScaleArrivals, qos.Synthesize, and scheduler.Run or broker.Run — timing
// each stage and counting allocations around each simulation. It returns
// how many cells' reports differ from res.
func redrive(cfg experiment.SuiteConfig, res *experiment.Results, rec *recorder, m metricSet) (int, error) {
	synth := workload.DefaultSynthConfig()
	synth.Jobs = cfg.Jobs
	g0 := rec.now()
	base, err := workload.Generate(synth, cfg.TraceSeed)
	if err != nil {
		return 0, err
	}
	m.set("workload.generate_ms", float64(rec.now()-g0)/1e6)

	layer := "scheduler"
	if cfg.Federation != nil {
		layer = "broker"
	}
	inaccuracy := 0.0
	if cfg.SetB {
		inaccuracy = 100
	}
	type policyStats struct {
		runNs, mallocs      float64
		cells               int
		accepted, submitted int
	}
	stats := map[string]*policyStats{}
	routed := map[string]int{}
	totalRouted := 0
	bad := 0
	for _, sc := range res.Scenarios {
		scen, ok := experiment.ScenarioByName(sc.Name)
		if !ok {
			return 0, fmt.Errorf("unknown scenario %q in results", sc.Name)
		}
		for vi, value := range sc.Values {
			p := experiment.DefaultParams(inaccuracy)
			scen.Apply(&p, value)
			for _, spec := range scheduler.ForModel(cfg.Model) {
				id := fmt.Sprintf("%s[%d]/%s", sc.Name, vi, spec.Name)
				c0 := rec.now()
				cell := rec.open("redrive.cell", id, c0, -1)
				jobs := workload.CloneAll(base)
				workload.ScaleArrivals(jobs, p.ArrivalFactor)
				c1 := rec.now()
				if err := qos.Synthesize(jobs, p.QoSConfig(cfg.QoSSeed)); err != nil {
					return 0, err
				}
				c2 := rec.now()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				r0 := rec.now()
				got, fed, err := simulate(cfg, jobs, spec)
				r1 := rec.now()
				runtime.ReadMemStats(&ms1)
				if err != nil {
					return 0, err
				}
				rec.close(cell, r1)
				rec.add("workload.prepare", id, c0, c1, cell)
				rec.add("qos.synthesize", id, c1, c2, cell)
				rec.add(layer+".run", id, r0, r1, cell)
				m["workload.prepare_ms"] += float64(c1-c0) / 1e6
				m["qos.synthesize_ms"] += float64(c2-c1) / 1e6

				st := stats[spec.Name]
				if st == nil {
					st = &policyStats{}
					stats[spec.Name] = st
				}
				st.runNs += float64(r1 - r0)
				st.mallocs += float64(ms1.Mallocs - ms0.Mallocs)
				st.cells++
				st.accepted += got.Accepted
				st.submitted += got.Submitted
				m["faults.killed"] += float64(got.Killed)

				same := sameJSON(got, sc.Reports[vi][spec.Name])
				if fed != nil {
					same = same && fed.RoutingDigest == sc.RoutingDigests[vi][spec.Name]
					for ci, c := range fed.Clusters {
						same = same && sameJSON(c.Report, sc.ClusterReports[vi][spec.Name][ci])
						routed[c.Name] += c.Routed
						totalRouted += c.Routed
					}
				}
				if !same {
					bad++
				}
			}
		}
	}
	for _, spec := range scheduler.ForModel(cfg.Model) {
		st := stats[spec.Name]
		slug := slugOf(spec.Name)
		m.set(layer+".run_ms."+slug, st.runNs/1e6)
		m.set(layer+".mallocs_per_job."+slug, st.mallocs/float64(st.cells*cfg.Jobs))
		m.set("scheduler.accept_ratio."+slug, float64(st.accepted)/float64(st.submitted))
	}
	if cfg.Federation != nil && totalRouted > 0 {
		for _, c := range cfg.Federation.Clusters {
			m.set("broker.routed_share."+c.Name, float64(routed[c.Name])/float64(totalRouted))
		}
	}
	return bad, nil
}

// simulate runs one prepared cell the way experiment.Run does for a
// single replication: through the federation broker, with one failure
// process per cluster at the cluster-stride sub-seed, or on the plain
// machine.
func simulate(cfg experiment.SuiteConfig, jobs []*workload.Job, spec scheduler.Spec) (metrics.Report, *broker.Result, error) {
	if cfg.Federation != nil {
		var fc []*faults.Config
		for ci, cs := range cfg.Federation.Clusters {
			intensity := cs.FaultIntensity
			if intensity == "" {
				intensity = cfg.FaultIntensity
			}
			if !intensity.Enabled() {
				continue
			}
			if fc == nil {
				fc = make([]*faults.Config, len(cfg.Federation.Clusters))
			}
			f := intensity.Config(cfg.FaultSeed+experiment.ClusterFaultSeedStride*int64(ci), faults.JobsHorizon(jobs))
			fc[ci] = &f
		}
		res, err := broker.Run(jobs, *cfg.Federation, spec.New, broker.RunConfig{Model: cfg.Model, Faults: fc})
		if err != nil {
			return metrics.Report{}, nil, err
		}
		return res.Federation, res, nil
	}
	var fc *faults.Config
	if cfg.FaultIntensity.Enabled() {
		f := cfg.FaultIntensity.Config(cfg.FaultSeed, faults.JobsHorizon(jobs))
		fc = &f
	}
	rep, err := scheduler.Run(jobs, spec.New, scheduler.RunConfig{
		Nodes: cfg.Nodes, Model: cfg.Model, BasePrice: economy.DefaultBasePrice, Faults: fc,
	})
	return rep, nil, err
}

// sameJSON compares two reports by their JSON encoding, which keeps every
// float bit that matters to the committed outputs.
func sameJSON(a, b metrics.Report) bool {
	x, errX := json.Marshal(a)
	y, errY := json.Marshal(b)
	return errX == nil && errY == nil && bytes.Equal(x, y)
}
