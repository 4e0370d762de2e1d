package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

// This file holds naive reference implementations of both disciplines for
// the differential battery in differential_test.go. They are deliberately
// the pre-optimization algorithms: refTimeShared recomputes every job's
// rate on every change (no dirty-node tracking), and refSpaceShared
// rebuilds and re-sorts its running set from the map on every availability
// query (no maintained believed-end order). The optimized implementations
// must match them bit for bit; any shortcut that is approximate rather
// than exact shows up here as a journal divergence.

type refTSJob struct {
	job       *workload.Job
	share     float64
	nodes     []int
	remaining float64
	progress  float64
	rate      float64
	lapsed    bool
	lapseEv   sim.Event
	done      func(*workload.Job)
}

func (t *refTSJob) weight() float64 {
	if t.lapsed {
		return t.share * LapsedWeightFactor
	}
	return t.share
}

type refTimeShared struct {
	engine       *sim.Engine
	ratings      []float64
	booked       []float64
	lapsedW      []float64
	down         []bool
	order        []*refTSJob
	running      map[*workload.Job]*refTSJob
	lastUpdate   sim.Time
	next         sim.Event
	busyIntegral float64
}

func newRefTimeShared(engine *sim.Engine, ratings []float64) *refTimeShared {
	return &refTimeShared{
		engine:  engine,
		ratings: append([]float64(nil), ratings...),
		booked:  make([]float64, len(ratings)),
		lapsedW: make([]float64, len(ratings)),
		down:    make([]bool, len(ratings)),
		running: make(map[*workload.Job]*refTSJob),
	}
}

func (t *refTimeShared) FreeShare(i int) float64 {
	if t.down[i] {
		return 0
	}
	return 1 - t.booked[i]
}

func (t *refTimeShared) CandidateNodes(dst []int, share float64) []int {
	var idx []int
	for i := range t.ratings {
		if t.down[i] {
			continue
		}
		if t.FreeShare(i)+workEps >= share {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		fa, fb := t.FreeShare(idx[a]), t.FreeShare(idx[b])
		if fa != fb {
			return fa < fb
		}
		return idx[a] < idx[b]
	})
	return append(dst, idx...)
}

func (t *refTimeShared) CommittedSeconds(i int, horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	t.advance()
	now := float64(t.engine.Now())
	var jobs []*refTSJob
	for _, tj := range t.order {
		if tj.lapsed {
			continue
		}
		for _, n := range tj.nodes {
			if n == i {
				jobs = append(jobs, tj)
				break
			}
		}
	}
	// Stable: equal IDs keep start order, the tie-break TimeShared promises.
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].job.ID < jobs[b].job.ID })
	total := 0.0
	for _, tj := range jobs {
		end := tj.job.AbsDeadline()
		if tj.job.Deadline <= 0 {
			end = now + tj.remaining/math.Max(tj.rate, tj.share)
		}
		dur := math.Min(horizon, math.Max(0, end-now))
		total += tj.share * dur
	}
	return total
}

// NodeHasOverrun scans every running job for one on node i that has
// executed past its estimate.
func (t *refTimeShared) NodeHasOverrun(i int) bool {
	t.advance()
	for _, tj := range t.order {
		for _, n := range tj.nodes {
			if n == i && tj.progress >= tj.job.Estimate-workEps {
				return true
			}
		}
	}
	return false
}

func (t *refTimeShared) Start(j *workload.Job, share float64, nodes []int, done func(*workload.Job)) error {
	for _, n := range nodes {
		if t.FreeShare(n)+workEps < share {
			return fmt.Errorf("ref: job %d: node %d has free share %v < %v", j.ID, n, t.FreeShare(n), share)
		}
	}
	t.advance()
	tj := &refTSJob{
		job:       j,
		share:     share,
		nodes:     append([]int(nil), nodes...),
		remaining: j.Runtime,
		done:      done,
	}
	for _, n := range nodes {
		t.booked[n] = math.Min(1, t.booked[n]+share)
	}
	t.running[j] = tj
	t.order = append(t.order, tj)
	if j.Deadline > 0 {
		tj.lapseEv = t.engine.MustSchedule(
			sim.Time(math.Max(j.AbsDeadline(), float64(t.engine.Now()))),
			"ref lapse booking",
			func() { t.onLapse(tj) },
		)
	}
	t.recompute()
	return nil
}

func (t *refTimeShared) onLapse(tj *refTSJob) {
	tj.lapseEv = sim.Event{}
	if _, ok := t.running[tj.job]; !ok {
		return
	}
	t.advance()
	tj.lapsed = true
	for _, n := range tj.nodes {
		t.booked[n] -= tj.share
		if t.booked[n] < 0 {
			t.booked[n] = 0
		}
		t.lapsedW[n] += tj.weight()
	}
	t.recompute()
}

// Utilization is a pure read, mirroring TimeShared: checkpointing at a
// read would perturb the ulps of every job's remaining work.
func (t *refTimeShared) Utilization() float64 {
	now := float64(t.engine.Now())
	if now <= 0 {
		return 0
	}
	util := t.busyIntegral
	if dt := now - float64(t.lastUpdate); dt > 0 {
		for _, tj := range t.order {
			util += tj.rate * float64(tj.job.Procs) * dt
		}
	}
	return util / (float64(len(t.ratings)) * now)
}

func (t *refTimeShared) kill(j *workload.Job) {
	tj, ok := t.running[j]
	if !ok {
		panic(fmt.Sprintf("ref: kill of job %d, which is not running", j.ID))
	}
	t.advance()
	delete(t.running, j)
	kept := t.order[:0]
	for _, o := range t.order {
		if o != tj {
			kept = append(kept, o)
		}
	}
	t.order = kept
	t.engine.Cancel(tj.lapseEv)
	tj.lapseEv = sim.Event{}
	for _, n := range tj.nodes {
		if tj.lapsed {
			t.lapsedW[n] -= tj.weight()
			if t.lapsedW[n] < 0 {
				t.lapsedW[n] = 0
			}
		} else {
			t.booked[n] -= tj.share
			if t.booked[n] < 0 {
				t.booked[n] = 0
			}
		}
	}
	t.recompute()
}

func (t *refTimeShared) Fail(i int) []*workload.Job {
	var victims []*workload.Job
	for _, tj := range t.order {
		for _, n := range tj.nodes {
			if n == i {
				victims = append(victims, tj.job)
				break
			}
		}
	}
	sort.Slice(victims, func(a, b int) bool { return victims[a].ID < victims[b].ID })
	for _, j := range victims {
		t.kill(j)
	}
	t.down[i] = true
	return victims
}

func (t *refTimeShared) Repair(i int) { t.down[i] = false }

func (t *refTimeShared) JobState(j *workload.Job) (rate, progress float64, lapsed, ok bool) {
	t.advance()
	tj, ok := t.running[j]
	if !ok {
		return 0, 0, false, false
	}
	return tj.rate, tj.progress, tj.lapsed, true
}

func (t *refTimeShared) JobRate(j *workload.Job) (float64, bool) {
	tj, ok := t.running[j]
	if !ok {
		return 0, false
	}
	return tj.rate, true
}

func (t *refTimeShared) advance() {
	now := t.engine.Now()
	dt := float64(now - t.lastUpdate)
	if dt > 0 {
		for _, tj := range t.order {
			tj.progress += tj.rate * dt
			tj.remaining -= tj.rate * dt
			if tj.remaining < 0 {
				tj.remaining = 0
			}
			t.busyIntegral += tj.rate * float64(tj.job.Procs) * dt
		}
	}
	t.lastUpdate = now
}

// recompute is the naive full pass: every job's rate, every time.
func (t *refTimeShared) recompute() {
	for _, tj := range t.order {
		w := tj.weight()
		rate := math.Inf(1)
		for _, n := range tj.nodes {
			total := t.booked[n] + t.lapsedW[n]
			frac := 1.0
			if total > w {
				frac = w / total
			}
			if r := frac * t.ratings[n]; r < rate {
				rate = r
			}
		}
		tj.rate = rate
	}
	t.engine.Cancel(t.next)
	t.next = sim.Event{}
	if len(t.running) == 0 {
		return
	}
	soonest := sim.Infinity
	for _, tj := range t.order {
		eta := t.engine.Now() + sim.Time(tj.remaining/tj.rate)
		if eta < soonest {
			soonest = eta
		}
	}
	t.next = t.engine.MustSchedule(soonest, "ref timeshared completion", t.onCompletion)
}

func (t *refTimeShared) onCompletion() {
	t.next = sim.Event{}
	t.advance()
	var finished []*refTSJob
	kept := t.order[:0]
	for _, tj := range t.order {
		if tj.remaining <= workEps {
			finished = append(finished, tj)
			continue
		}
		kept = append(kept, tj)
	}
	t.order = kept
	sort.Slice(finished, func(i, k int) bool { return finished[i].job.ID < finished[k].job.ID })
	for _, tj := range finished {
		delete(t.running, tj.job)
		t.engine.Cancel(tj.lapseEv)
		tj.lapseEv = sim.Event{}
		for _, n := range tj.nodes {
			if tj.lapsed {
				t.lapsedW[n] -= tj.weight()
				if t.lapsedW[n] < 0 {
					t.lapsedW[n] = 0
				}
			} else {
				t.booked[n] -= tj.share
				if t.booked[n] < 0 {
					t.booked[n] = 0
				}
			}
		}
	}
	t.recompute()
	for _, tj := range finished {
		if tj.done != nil {
			tj.done(tj.job)
		}
	}
}

type refSpaceJob struct {
	job       *workload.Job
	nodes     []int
	estEnd    sim.Time
	actualEnd sim.Time
	ev        sim.Event
}

type refSpaceShared struct {
	engine       *sim.Engine
	ratings      []float64
	busy         []bool
	down         []bool
	occupant     []*refSpaceJob
	free         int
	busyProcs    int
	running      map[*workload.Job]*refSpaceJob
	busyIntegral float64
	lastChange   sim.Time
}

func newRefSpaceShared(engine *sim.Engine, ratings []float64) *refSpaceShared {
	return &refSpaceShared{
		engine:   engine,
		ratings:  append([]float64(nil), ratings...),
		busy:     make([]bool, len(ratings)),
		down:     make([]bool, len(ratings)),
		occupant: make([]*refSpaceJob, len(ratings)),
		free:     len(ratings),
		running:  make(map[*workload.Job]*refSpaceJob),
	}
}

func (s *refSpaceShared) FreeProcs() int { return s.free }

func (s *refSpaceShared) Allocation(j *workload.Job) []int { return s.running[j].nodes }

func (s *refSpaceShared) CanStart(procs int) bool {
	return procs <= s.free && procs <= len(s.ratings)
}

func (s *refSpaceShared) accrue() {
	now := s.engine.Now()
	s.busyIntegral += float64(s.busyProcs) * float64(now-s.lastChange)
	s.lastChange = now
}

func (s *refSpaceShared) Utilization() float64 {
	now := float64(s.engine.Now())
	if now <= 0 {
		return 0
	}
	current := s.busyIntegral + float64(s.busyProcs)*(now-float64(s.lastChange))
	return current / (float64(len(s.ratings)) * now)
}

func (s *refSpaceShared) pickNodes(procs int) []int {
	idx := make([]int, 0, s.free)
	for i, busy := range s.busy {
		if !busy && !s.down[i] {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := s.ratings[idx[a]], s.ratings[idx[b]]
		if ra != rb {
			return ra > rb
		}
		return idx[a] < idx[b]
	})
	return idx[:procs]
}

func (s *refSpaceShared) Start(j *workload.Job, done func(*workload.Job)) error {
	if j.Procs > s.free {
		return fmt.Errorf("ref: job %d needs %d procs, only %d free", j.ID, j.Procs, s.free)
	}
	nodes := s.pickNodes(j.Procs)
	speed := s.ratings[nodes[0]]
	for _, n := range nodes[1:] {
		if s.ratings[n] < speed {
			speed = s.ratings[n]
		}
	}
	now := s.engine.Now()
	sj := &refSpaceJob{
		job:       j,
		nodes:     nodes,
		estEnd:    now + sim.Time(j.Estimate/speed),
		actualEnd: now + sim.Time(j.Runtime/speed),
	}
	s.accrue()
	for _, n := range nodes {
		s.busy[n] = true
		s.occupant[n] = sj
	}
	s.free -= j.Procs
	s.busyProcs += j.Procs
	s.running[j] = sj
	sj.ev = s.engine.MustSchedule(sj.actualEnd, "ref spaceshared completion", func() {
		s.accrue()
		s.release(sj)
		if done != nil {
			done(j)
		}
	})
	return nil
}

func (s *refSpaceShared) release(sj *refSpaceJob) {
	delete(s.running, sj.job)
	for _, n := range sj.nodes {
		s.busy[n] = false
		s.occupant[n] = nil
		if !s.down[n] {
			s.free++
		}
	}
	s.busyProcs -= sj.job.Procs
}

func (s *refSpaceShared) Fail(i int) *workload.Job {
	s.accrue()
	s.down[i] = true
	sj := s.occupant[i]
	if sj == nil {
		s.free--
		return nil
	}
	s.engine.Cancel(sj.ev)
	s.release(sj)
	return sj.job
}

func (s *refSpaceShared) Repair(i int) {
	s.accrue()
	s.down[i] = false
	s.free++
}

func (s *refSpaceShared) believedEnd(sj *refSpaceJob) sim.Time {
	now := s.engine.Now()
	if sj.estEnd < now {
		return now
	}
	return sj.estEnd
}

// EarliestAvailable is the naive scan: rebuild the running set from the
// map, sort by (believedEnd, ID), accumulate.
func (s *refSpaceShared) EarliestAvailable(procs int) (sim.Time, error) {
	if procs > len(s.ratings) {
		return 0, fmt.Errorf("ref: width %d exceeds machine size %d", procs, len(s.ratings))
	}
	if procs <= s.free {
		return s.engine.Now(), nil
	}
	free := s.free
	releases := make([]*refSpaceJob, 0, len(s.running))
	for _, sj := range s.running { //lint:allow maporder — sorted by (believedEnd, ID) immediately below
		releases = append(releases, sj)
	}
	sort.Slice(releases, func(i, k int) bool {
		bi, bk := s.believedEnd(releases[i]), s.believedEnd(releases[k])
		if bi != bk {
			return bi < bk
		}
		return releases[i].job.ID < releases[k].job.ID
	})
	for _, sj := range releases {
		free += sj.job.Procs
		if free >= procs {
			return s.believedEnd(sj), nil
		}
	}
	return sim.Infinity, nil
}

func (s *refSpaceShared) AvailableAt(t sim.Time) int {
	free := s.free
	for _, sj := range s.running { //lint:allow maporder — integer sum, order-independent
		if s.believedEnd(sj) <= t {
			free += sj.job.Procs
		}
	}
	return free
}
