package scheduler

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Differential battery for the space-shared policies: the ordered-queue,
// one-walk EASY family (FCFS-BF, SJF-BF, EDF-BF and the two no-AC
// baselines) and conservative backfilling are driven beside the verbatim
// references in easy_reference_test.go through identical randomized
// scenarios — arrivals, deadline lapses, budget refusals under flat and
// time-of-day prices, node failures and repairs. Every start (job, instant,
// allocated nodes, speed), write-off and completion is journaled as it
// happens, and every final Outcome field is compared as raw float64 bits.
// The journals must match entry for entry.

const (
	easyDiffJobs    = 120
	easyDiffNodes   = 16
	easyDiffHorizon = 3000.0
	easyDiffSeeds   = 30
)

// easyDiffPairs pairs each policy with its reference.
var easyDiffPairs = []struct {
	name     string
	opt, ref Factory
}{
	{"FCFS-BF", NewFCFSBF, refFCFSBF},
	{"SJF-BF", NewSJFBF, refSJFBF},
	{"EDF-BF", NewEDFBF, refEDFBF},
	{"FCFS-BF/noAC", NewFCFSNoAC, refFCFSNoAC},
	{"EDF-BF/noAC", NewEDFNoAC, refEDFNoAC},
	{"FCFS-CONS", NewFCFSConservative, refFCFSConservative},
}

// easyPeakTariff puts a 3× peak inside the scenario horizon (hours 0.3 to
// 0.6 of the virtual day, 1080 s to 2160 s), so budget refusals and
// charges move with the start instant.
var easyPeakTariff = economy.TimeOfDayPrice{Base: 1, PeakFactor: 3, PeakStartHour: 0.3, PeakEndHour: 0.6}

type easyScenario struct {
	jobs    []*workload.Job
	ratings []float64 // nil: homogeneous
	model   economy.Model
	prices  economy.PriceSchedule
	events  []faults.Event
}

// newEasyScenario draws a contended job stream (load near twice the
// machine) with deadlines that often lapse in the queue and budgets that
// often fall short of the charge. A rated machine draws each node's speed
// from {0.5, 1, 1.5}, so fastest-first allocation meets rating ties.
func newEasyScenario(t *testing.T, seed int64, intensity faults.Intensity, model economy.Model, prices economy.PriceSchedule, rated bool) easyScenario {
	t.Helper()
	rng := stats.NewRand(seed)
	sc := easyScenario{model: model, prices: prices}
	if rated {
		levels := []float64{0.5, 1, 1.5}
		sc.ratings = make([]float64, easyDiffNodes)
		for i := range sc.ratings {
			sc.ratings[i] = levels[rng.Intn(len(levels))]
		}
	}
	for i := 0; i < easyDiffJobs; i++ {
		runtime := 10 + rng.Float64()*400
		estimate := runtime * (0.5 + rng.Float64())
		sc.jobs = append(sc.jobs, &workload.Job{
			ID:          i + 1,
			Submit:      rng.Float64() * easyDiffHorizon * 0.6,
			Runtime:     runtime,
			Estimate:    estimate,
			Procs:       1 + rng.Intn(6),
			Deadline:    estimate * (0.8 + 3*rng.Float64()),
			Budget:      estimate * (0.5 + 3*rng.Float64()),
			PenaltyRate: rng.Float64() * 2,
		})
	}
	sort.SliceStable(sc.jobs, func(a, b int) bool { return bySubmit(sc.jobs[a], sc.jobs[b]) })
	events, err := faults.Generate(intensity.Config(seed, easyDiffHorizon), easyDiffNodes)
	if err != nil {
		t.Fatalf("seed %d: fault generation: %v", seed, err)
	}
	sc.events = events
	return sc
}

// withDuplicateIDs puts every time on a 25-s grid and gives every third
// job the ID, submission instant, estimate and deadline of the job before
// it. FCFS, SJF and EDF keys then tie exactly while runtimes, widths and
// budgets still differ, and believed ends and reservation boundaries
// coincide often.
func withDuplicateIDs(sc easyScenario) easyScenario {
	grid := func(x float64) float64 { return 25 * math.Max(1, math.Round(x/25)) }
	jobs := workload.CloneAll(sc.jobs)
	for i, j := range jobs {
		j.Submit = 25 * math.Floor(j.Submit/25) // monotone: submission order holds
		j.Runtime, j.Estimate, j.Deadline = grid(j.Runtime), grid(j.Estimate), grid(j.Deadline)
		if i%3 == 1 {
			prev := jobs[i-1]
			j.ID, j.Submit, j.Estimate, j.Deadline = prev.ID, prev.Submit, prev.Estimate, prev.Deadline
		}
	}
	sc.jobs = jobs
	return sc
}

// spaceClusterOf reaches the machine of a space-shared policy under test.
func spaceClusterOf(t *testing.T, p Policy) *cluster.SpaceShared {
	t.Helper()
	switch p := p.(type) {
	case *backfillPolicy:
		return p.cluster
	case *conservative:
		return p.cluster
	case *refBackfill:
		return p.cluster
	case *refNoAdmission:
		return p.cluster
	case *refConservative:
		return p.cluster
	}
	t.Fatalf("%T is not a space-shared policy", p)
	return nil
}

// easyEntry is one journal entry, kept as comparable values and formatted
// only to report a divergence. Floats are raw bit patterns.
type easyEntry struct {
	kind  string // "start", "outcome", "final" or "utilization"
	index int    // the job's submission index
	id    int
	// acc, rej, started, fin and killed are the Outcome flags.
	acc, rej, started, fin, killed bool
	// x, y, z are start, finish and utility for an outcome; the start
	// instant, speed and believed end for a start; the value for
	// utilization.
	x, y, z uint64
	nodes   []int // the allocation of a start
}

func (e easyEntry) equal(o easyEntry) bool {
	return e.kind == o.kind && e.index == o.index && e.id == o.id &&
		e.acc == o.acc && e.rej == o.rej && e.started == o.started && e.fin == o.fin && e.killed == o.killed &&
		e.x == o.x && e.y == o.y && e.z == o.z && slices.Equal(e.nodes, o.nodes)
}

func (e easyEntry) String() string {
	switch e.kind {
	case "start":
		return fmt.Sprintf("start #%d id=%d at=%016x speed=%016x est=%016x nodes=%v", e.index, e.id, e.x, e.y, e.z, e.nodes)
	case "utilization":
		return fmt.Sprintf("utilization %016x", e.x)
	}
	return fmt.Sprintf("%s #%d id=%d acc=%v rej=%v started=%v start=%016x fin=%v finish=%016x killed=%v utility=%016x",
		e.kind, e.index, e.id, e.acc, e.rej, e.started, e.x, e.fin, e.y, e.killed, e.z)
}

func outcomeEntry(kind string, index int, o *metrics.Outcome) easyEntry {
	return easyEntry{
		kind: kind, index: index, id: o.Job.ID,
		acc: o.Accepted, rej: o.Rejected, started: o.Started, fin: o.Finished, killed: o.Killed,
		x: math.Float64bits(o.StartTime), y: math.Float64bits(o.FinishTime), z: math.Float64bits(o.Utility),
	}
}

// runEasyScenario drives one policy through the scenario one event at a
// time and journals what each event changed: jobs that started (a new
// running entry — a failure victim restarted at the instant it was killed
// included), then every job whose outcome moved. Entries carry the job's
// submission index, so duplicate IDs stay distinguishable.
func runEasyScenario(t *testing.T, sc easyScenario, factory Factory) []easyEntry {
	t.Helper()
	engine := sim.NewEngine()
	col := metrics.NewCollector()
	ctx := &Context{
		Engine: engine, Collector: col, Model: sc.model, Nodes: easyDiffNodes,
		BasePrice: 1, NodeRatings: sc.ratings, Prices: sc.prices,
	}
	pol := factory(ctx)
	machine := spaceClusterOf(t, pol)
	fi := pol.(FaultInjectable)
	for _, ev := range sc.events {
		ev := ev
		engine.MustScheduleClass(sim.Time(ev.Time), sim.ClassInjected, "diff fault", func() {
			if ev.Down {
				fi.NodeDown(ev.Node)
			} else {
				fi.NodeUp(ev.Node)
			}
		})
	}
	// Jobs are immutable inputs, so both runs of a pair share them; the
	// submission index is then the position in sc.jobs.
	index := make(map[*workload.Job]int, len(sc.jobs))
	for i, j := range sc.jobs {
		j := j
		index[j] = i
		engine.MustScheduleClass(sim.Time(j.Submit), sim.ClassArrival, "diff submit", func() {
			col.Submitted(j)
			pol.Submit(j)
		})
	}

	var journal []easyEntry
	var running []*cluster.SpaceJob
	seen := make([]metrics.Outcome, len(sc.jobs))
	// live lists the submission indices whose outcome can still move: a
	// rejected, finished or written-off job is settled for good.
	var live []int
	submitted := 0
	observe := func() {
		now := machine.Running()
		for _, sj := range now {
			if !slices.Contains(running, sj) {
				journal = append(journal, easyEntry{
					kind: "start", index: index[sj.Job], id: sj.Job.ID,
					x: math.Float64bits(float64(sj.Start)), y: math.Float64bits(sj.Speed),
					z: math.Float64bits(float64(sj.EstEnd)), nodes: sj.Nodes,
				})
			}
		}
		running = now
		outcomes := col.Outcomes()
		for ; submitted < len(outcomes); submitted++ {
			live = append(live, submitted)
		}
		kept := live[:0]
		for _, i := range live {
			o := outcomes[i]
			if *o != seen[i] {
				seen[i] = *o
				journal = append(journal, outcomeEntry("outcome", i, o))
			}
			if !o.Rejected && !o.Finished && !o.Killed {
				kept = append(kept, i)
			}
		}
		live = kept
	}
	for engine.Step() {
		observe()
	}
	pol.Drain()
	engine.Run()
	observe()
	for i, o := range col.Outcomes() {
		journal = append(journal, outcomeEntry("final", i, o))
	}
	util := pol.(UtilizationReporter).Utilization()
	return append(journal, easyEntry{kind: "utilization", x: math.Float64bits(util)})
}

func compareEasyJournals(t *testing.T, label string, got, want []easyEntry) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if !got[i].equal(want[i]) {
			t.Fatalf("%s: journal diverges at entry %d:\n optimized: %v\n reference: %v", label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: journal length %d (optimized) vs %d (reference)", label, len(got), len(want))
	}
}

// TestEasyFamilyMatchesReferenceAcrossSeeds requires every space-shared
// policy to journal bit-identically to its reference over 30 seeds × three
// fault intensities × both economic models × flat and time-of-day prices,
// on a homogeneous and a rated machine.
func TestEasyFamilyMatchesReferenceAcrossSeeds(t *testing.T) {
	for _, rated := range []bool{false, true} {
		for _, intensity := range []faults.Intensity{faults.None, faults.Low, faults.High} {
			for _, model := range []economy.Model{economy.Commodity, economy.BidBased} {
				for _, prices := range []economy.PriceSchedule{nil, easyPeakTariff} {
					for seed := int64(0); seed < easyDiffSeeds; seed++ {
						sc := newEasyScenario(t, seed, intensity, model, prices, rated)
						label := fmt.Sprintf("rated=%v intensity=%s model=%s tod=%v seed=%d",
							rated, intensity, model, prices != nil, seed)
						for _, p := range easyDiffPairs {
							compareEasyJournals(t, p.name+" "+label, runEasyScenario(t, sc, p.opt), runEasyScenario(t, sc, p.ref))
						}
					}
				}
			}
		}
	}
}

// TestEasyFamilyMatchesReferenceWithDuplicateIDs repeats the battery on
// streams where every third job duplicates its predecessor's ID and
// priority keys: ordered insertion must place equal keys exactly where the
// reference's stable sort does.
func TestEasyFamilyMatchesReferenceWithDuplicateIDs(t *testing.T) {
	for _, intensity := range []faults.Intensity{faults.None, faults.High} {
		for _, model := range []economy.Model{economy.Commodity, economy.BidBased} {
			for seed := int64(0); seed < 10; seed++ {
				sc := withDuplicateIDs(newEasyScenario(t, seed, intensity, model, nil, seed%2 == 1))
				label := fmt.Sprintf("duplicate IDs intensity=%s model=%s seed=%d", intensity, model, seed)
				for _, p := range easyDiffPairs {
					compareEasyJournals(t, p.name+" "+label, runEasyScenario(t, sc, p.opt), runEasyScenario(t, sc, p.ref))
				}
			}
		}
	}
}
