package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Differential battery: the optimized TimeShared/SpaceShared and the naive
// references in reference_test.go are driven through identical randomized
// scenarios — submissions, lapses, node failures and repairs at both fault
// intensities — and every observable (settlement times, fail victims,
// availability answers, rates, overrun signals, utilization) is journaled
// with full float64 bit patterns. The journals must be identical entry for
// entry: the optimizations claim exactness, not approximation.

const (
	diffJobs    = 100
	diffHorizon = 4000.0
	diffSeeds   = 30
)

// diffShape sizes a scenario's machine and its widest job. A shape with
// levels draws every node's rating from them, on every seed; a shape with
// a share gives every job that share.
type diffShape struct {
	name            string
	nodes, maxProcs int
	levels          []float64
	share           float64
}

var (
	diffNarrow = diffShape{name: "narrow", nodes: 16, maxProcs: 3}
	// diffWide spreads jobs up to 16 nodes wide over 64: one event dirties
	// many nodes at once and the best-fit order moves in long runs.
	diffWide = diffShape{name: "wide", nodes: 64, maxProcs: 16}
	// diffTiered rates nodes from three speeds only: many nodes tie on
	// rating, so fastest-first allocation falls back to the index rule.
	diffTiered = diffShape{name: "tiered", nodes: 16, maxProcs: 6, levels: []float64{0.5, 1, 1.5}}
	// diffFast runs every node at 1.5, as a federation member's uniformly
	// faster cluster does: uniform, yet no node at the reference speed.
	diffFast = diffShape{name: "fast", nodes: 16, maxProcs: 6, levels: []float64{1.5}}
	// diffDense packs jobs up to half the machine wide, all holding the
	// share 1/8, onto uniform nodes: node totals are small multiples of an
	// exact binary fraction, so nodes, and with them a job's slowest
	// nodes, tie often.
	diffDense = diffShape{name: "dense", nodes: 16, maxProcs: 8, levels: []float64{1}, share: 0.125}
)

// fbits canonicalizes a float for the journal: bit pattern, not rounded
// text, so a one-ulp divergence cannot hide.
func fbits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

func tbits(t sim.Time) string { return fbits(float64(t)) }

type diffScenario struct {
	ratings []float64
	jobs    []*workload.Job
	shares  []float64 // per job, for the time-shared discipline
	events  []faults.Event
}

// newDiffScenario draws one scenario. Odd seeds get a heterogeneous
// machine, exercising the rating-aware paths (fastest-first allocation,
// slowest-node rates); a shape with rating levels is heterogeneous on
// every seed.
func newDiffScenario(t *testing.T, shape diffShape, seed int64, intensity faults.Intensity) diffScenario {
	t.Helper()
	rng := stats.NewRand(seed)
	sc := diffScenario{ratings: make([]float64, shape.nodes)}
	for i := range sc.ratings {
		switch {
		case len(shape.levels) > 0:
			sc.ratings[i] = shape.levels[rng.Intn(len(shape.levels))]
		case seed%2 == 1:
			sc.ratings[i] = 0.5 + rng.Float64()
		default:
			sc.ratings[i] = 1
		}
	}
	for i := 0; i < diffJobs; i++ {
		runtime := 10 + rng.Float64()*400
		estimate := runtime * (0.5 + rng.Float64())
		j := &workload.Job{
			ID:       i + 1,
			Submit:   rng.Float64() * diffHorizon * 0.6,
			Runtime:  runtime,
			Estimate: estimate,
			Procs:    1 + rng.Intn(shape.maxProcs),
		}
		share := 0.1 + 0.5*rng.Float64()
		if rng.Intn(5) > 0 {
			// Most jobs carry a deadline; many will lapse (deadline can
			// undercut the actual runtime).
			j.Deadline = estimate * (0.5 + 1.5*rng.Float64())
			share = stats.Clamp(j.Estimate/j.Deadline, 0.05, 1)
		}
		if shape.share > 0 {
			share = shape.share
		}
		sc.jobs = append(sc.jobs, j)
		sc.shares = append(sc.shares, share)
	}
	// Stable submission order: the driver schedules jobs in this order, so
	// same-time ties resolve identically on both engines.
	idx := make([]int, len(sc.jobs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ja, jb := sc.jobs[idx[a]], sc.jobs[idx[b]]
		if ja.Submit != jb.Submit {
			return ja.Submit < jb.Submit
		}
		return ja.ID < jb.ID
	})
	jobs := make([]*workload.Job, len(idx))
	shares := make([]float64, len(idx))
	for i, k := range idx {
		jobs[i], shares[i] = sc.jobs[k], sc.shares[k]
	}
	sc.jobs, sc.shares = jobs, shares

	cfg := intensity.Config(seed, diffHorizon)
	events, err := faults.Generate(cfg, shape.nodes)
	if err != nil {
		t.Fatalf("seed %d: fault generation: %v", seed, err)
	}
	sc.events = events
	return sc
}

// tsImpl is the surface the time-shared differential driver exercises.
type tsImpl interface {
	CandidateNodes(dst []int, share float64) []int
	NodeHasOverrun(i int) bool
	Start(j *workload.Job, share float64, nodes []int, done func(*workload.Job)) error
	Fail(i int) []*workload.Job
	Repair(i int)
	FreeShare(i int) float64
	CommittedSeconds(i int, horizon float64) float64
	Utilization() float64
	JobState(j *workload.Job) (rate, progress float64, lapsed, ok bool)
	// JobRate reads a running job's rate without advancing progress: the
	// rate checks after every submit and failure must not checkpoint.
	JobRate(j *workload.Job) (rate float64, ok bool)
}

// realTS adapts *TimeShared to tsImpl (only JobState and JobRate need the
// adapter).
type realTS struct{ *TimeShared }

func (r realTS) JobState(j *workload.Job) (float64, float64, bool, bool) {
	tj := r.Lookup(j)
	if tj == nil {
		return 0, 0, false, false
	}
	return tj.Rate(), tj.Progress(), tj.Lapsed(), true
}

func (r realTS) JobRate(j *workload.Job) (float64, bool) {
	tj, ok := r.running[j]
	if !ok {
		return 0, false
	}
	return tj.rate, true
}

// runTimeSharedScenario drives one implementation through the scenario and
// returns its journal.
func runTimeSharedScenario(t *testing.T, sc diffScenario, build func(*sim.Engine) tsImpl) []string {
	t.Helper()
	e := sim.NewEngine()
	impl := build(e)
	var journal []string
	rec := func(format string, args ...any) {
		journal = append(journal, fmt.Sprintf(format, args...))
	}
	// overruns renders NodeHasOverrun for each of the given nodes.
	overruns := func(nodes []int) string {
		b := make([]byte, len(nodes))
		for k, n := range nodes {
			b[k] = '0'
			if impl.NodeHasOverrun(n) {
				b[k] = '1'
			}
		}
		return string(b)
	}
	// rates renders every running job's rate, so a stale rate shows at the
	// event that left it stale, not only when it next moves a probe or a
	// completion time.
	rates := func(tag string) {
		b := []byte(tag)
		for _, j := range sc.jobs {
			if rate, ok := impl.JobRate(j); ok {
				b = fmt.Appendf(b, " %d:%s", j.ID, fbits(rate))
			}
		}
		journal = append(journal, string(b))
	}
	var cand []int // reused: CandidateNodes must not depend on dst's contents
	for i, j := range sc.jobs {
		j, share := j, sc.shares[i]
		e.MustSchedule(sim.Time(j.Submit), "diff submit", func() {
			cand = impl.CandidateNodes(cand[:0], share)
			rec("submit %d overrun=%s", j.ID, overruns(cand))
			if len(cand) < j.Procs {
				rec("reject %d cand=%v", j.ID, cand)
				return
			}
			nodes := cand[:j.Procs]
			rec("start %d nodes=%v share=%s", j.ID, nodes, fbits(share))
			if err := impl.Start(j, share, nodes, func(fin *workload.Job) {
				rec("done %d at=%s", fin.ID, tbits(e.Now()))
			}); err != nil {
				t.Errorf("start job %d: %v", j.ID, err)
			}
			rates("rates")
		})
	}
	for _, fe := range sc.events {
		fe := fe
		if fe.Down {
			e.MustSchedule(sim.Time(fe.Time), "diff fail", func() {
				victims := impl.Fail(fe.Node)
				ids := make([]int, len(victims))
				for k, v := range victims {
					ids[k] = v.ID
				}
				rec("fail %d at=%s victims=%v", fe.Node, tbits(e.Now()), ids)
				rates("rates")
			})
		} else {
			e.MustSchedule(sim.Time(fe.Time), "diff repair", func() {
				impl.Repair(fe.Node)
				rec("repair %d at=%s", fe.Node, tbits(e.Now()))
			})
		}
	}
	all := make([]int, len(sc.ratings))
	for i := range all {
		all[i] = i
	}
	for k := 1; k <= 10; k++ {
		at := diffHorizon * float64(k) / 10
		e.MustSchedule(sim.Time(at), "diff probe", func() {
			for _, i := range all {
				rec("free %d %s committed %s", i,
					fbits(impl.FreeShare(i)), fbits(impl.CommittedSeconds(i, 500)))
			}
			rec("overrun %s", overruns(all))
			rec("util %s", fbits(impl.Utilization()))
			for _, j := range sc.jobs {
				if rate, prog, lapsed, ok := impl.JobState(j); ok {
					rec("state %d rate=%s prog=%s lapsed=%v", j.ID, fbits(rate), fbits(prog), lapsed)
				}
			}
		})
	}
	e.Run()
	return journal
}

// ssImpl is the surface the space-shared differential driver exercises.
type ssImpl interface {
	CanStart(procs int) bool
	Start(j *workload.Job, done func(*workload.Job)) error
	// Allocation returns the nodes a running job occupies, in pick order.
	Allocation(j *workload.Job) []int
	Fail(i int) *workload.Job
	Repair(i int)
	FreeProcs() int
	EarliestAvailable(procs int) (sim.Time, error)
	AvailableAt(t sim.Time) int
	Utilization() float64
}

// realSS adapts *SpaceShared to ssImpl (only Allocation needs the adapter).
type realSS struct{ *SpaceShared }

func (r realSS) Allocation(j *workload.Job) []int { return r.running[j].Nodes }

func runSpaceSharedScenario(t *testing.T, sc diffScenario, build func(*sim.Engine) ssImpl) []string {
	t.Helper()
	e := sim.NewEngine()
	impl := build(e)
	var journal []string
	rec := func(format string, args ...any) {
		journal = append(journal, fmt.Sprintf(format, args...))
	}
	availability := func(tag string, widths ...int) {
		for _, w := range widths {
			at, err := impl.EarliestAvailable(w)
			if err != nil {
				t.Errorf("EarliestAvailable(%d): %v", w, err)
				continue
			}
			rec("%s earliest %d at=%s then=%d", tag, w, tbits(at), impl.AvailableAt(at))
		}
	}
	for _, j := range sc.jobs {
		j := j
		e.MustSchedule(sim.Time(j.Submit), "diff submit", func() {
			if !impl.CanStart(j.Procs) {
				// The backfilling question a queued job asks: when could I
				// reserve, and how much is free then?
				availability(fmt.Sprintf("defer %d", j.ID), 1, j.Procs, len(sc.ratings))
				return
			}
			free := impl.FreeProcs()
			if err := impl.Start(j, func(fin *workload.Job) {
				rec("done %d at=%s", fin.ID, tbits(e.Now()))
			}); err != nil {
				t.Errorf("start job %d: %v", j.ID, err)
				return
			}
			rec("start %d free=%d nodes=%v", j.ID, free, impl.Allocation(j))
		})
	}
	for _, fe := range sc.events {
		fe := fe
		if fe.Down {
			e.MustSchedule(sim.Time(fe.Time), "diff fail", func() {
				victim := impl.Fail(fe.Node)
				id := 0
				if victim != nil {
					id = victim.ID
				}
				rec("fail %d at=%s victim=%d", fe.Node, tbits(e.Now()), id)
			})
		} else {
			e.MustSchedule(sim.Time(fe.Time), "diff repair", func() {
				impl.Repair(fe.Node)
				rec("repair %d at=%s", fe.Node, tbits(e.Now()))
			})
		}
	}
	for k := 1; k <= 10; k++ {
		at := diffHorizon * float64(k) / 10
		e.MustSchedule(sim.Time(at), "diff probe", func() {
			rec("probe free=%d util=%s", impl.FreeProcs(), fbits(impl.Utilization()))
			widths := make([]int, len(sc.ratings))
			for w := 1; w <= len(sc.ratings); w++ {
				widths[w-1] = w
			}
			availability("probe", widths...)
			for _, dt := range []float64{0, 50, 200, 1000} {
				rec("probe at+%v avail=%d", dt, impl.AvailableAt(e.Now()+sim.Time(dt)))
			}
		})
	}
	e.Run()
	return journal
}

func compareJournals(t *testing.T, label string, got, want []string) {
	t.Helper()
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: journal diverges at entry %d:\n optimized: %s\n reference: %s",
				label, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: journal length %d (optimized) vs %d (reference)", label, len(got), len(want))
	}
	if len(got) == 0 {
		t.Fatalf("%s: empty journal — degenerate scenario", label)
	}
}

// TestTimeSharedMatchesReferenceAcrossSeeds drives the optimized TimeShared
// and the naive full-recompute reference through 30 seeds at both fault
// intensities, on the narrow, wide, fast and dense machines, and requires
// bit-identical journals, every running job's rate included after each
// submit and each failure.
func TestTimeSharedMatchesReferenceAcrossSeeds(t *testing.T) {
	for _, shape := range []diffShape{diffNarrow, diffWide, diffFast, diffDense} {
		for _, intensity := range []faults.Intensity{faults.Low, faults.High} {
			for seed := int64(0); seed < diffSeeds; seed++ {
				sc := newDiffScenario(t, shape, seed, intensity)
				opt := runTimeSharedScenario(t, sc, func(e *sim.Engine) tsImpl {
					return realTS{NewTimeSharedRated(e, sc.ratings)}
				})
				ref := runTimeSharedScenario(t, sc, func(e *sim.Engine) tsImpl {
					return newRefTimeShared(e, sc.ratings)
				})
				compareJournals(t, fmt.Sprintf("timeshared %s seed=%d intensity=%s", shape.name, seed, intensity), opt, ref)
			}
		}
	}
}

// TestSpaceSharedMatchesReferenceAcrossSeeds does the same for the
// space-shared discipline: the maintained (EstEnd, ID) order must answer
// every availability question exactly as the rebuild-and-sort reference,
// and the fixed fastest-first order must pick every job's nodes, node by
// node, as the sort-the-free-pool reference does — on the tiered machine
// through rating ties too.
func TestSpaceSharedMatchesReferenceAcrossSeeds(t *testing.T) {
	for _, shape := range []diffShape{diffNarrow, diffTiered} {
		for _, intensity := range []faults.Intensity{faults.Low, faults.High} {
			for seed := int64(0); seed < diffSeeds; seed++ {
				sc := newDiffScenario(t, shape, seed, intensity)
				opt := runSpaceSharedScenario(t, sc, func(e *sim.Engine) ssImpl {
					return realSS{NewSpaceSharedRated(e, sc.ratings)}
				})
				ref := runSpaceSharedScenario(t, sc, func(e *sim.Engine) ssImpl {
					return newRefSpaceShared(e, sc.ratings)
				})
				compareJournals(t, fmt.Sprintf("spaceshared %s seed=%d intensity=%s", shape.name, seed, intensity), opt, ref)
			}
		}
	}
}
