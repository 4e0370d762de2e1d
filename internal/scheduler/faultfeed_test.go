package scheduler

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// eagerFaults is the injection NewSession performed before the fault feed:
// the whole schedule queued at session construction, one event and one
// closure per fault. It is kept verbatim as the reference the feed is held
// equal to.
func eagerFaults(engine *sim.Engine, events []faults.Event, fi FaultInjectable) {
	for _, ev := range events {
		ev := ev
		label := "repair node"
		if ev.Down {
			label = "fail node"
		}
		engine.MustScheduleClass(sim.Time(ev.Time), sim.ClassInjected, label, func() {
			if ev.Down {
				fi.NodeDown(ev.Node)
			} else {
				fi.NodeUp(ev.Node)
			}
		})
	}
}

// faultLog wraps a policy and logs every NodeDown and NodeUp with the
// virtual time and the state of every job at that moment, so two runs
// compare by the order of faults interleaved with job outcomes. It
// forwards the optional interfaces the session consults.
type faultLog struct {
	Policy
	ctx *Context
	log *[]string
}

func (p *faultLog) NodeDown(n int) {
	p.note("down", n)
	p.Policy.(FaultInjectable).NodeDown(n)
}

func (p *faultLog) NodeUp(n int) {
	p.note("up", n)
	p.Policy.(FaultInjectable).NodeUp(n)
}

func (p *faultLog) note(what string, n int) {
	*p.log = append(*p.log, fmt.Sprintf("%s %d @%x %s", what, n,
		math.Float64bits(float64(p.ctx.Engine.Now())), jobStates(p.ctx.Collector)))
}

func (p *faultLog) Utilization() float64 {
	if ur, ok := p.Policy.(UtilizationReporter); ok {
		return ur.Utilization()
	}
	return 0
}

func (p *faultLog) EarliestAvailable(procs int) (float64, error) {
	if ae, ok := p.Policy.(AvailabilityEstimator); ok {
		return ae.EarliestAvailable(procs)
	}
	return float64(p.ctx.Engine.Now()), nil
}

// jobStates renders every submitted job's outcome flags and times.
func jobStates(c *metrics.Collector) string {
	var b strings.Builder
	for _, o := range c.Outcomes() {
		fmt.Fprintf(&b, "[%d %t%t%t%t%t %x %x]", o.Job.ID, o.Accepted, o.Rejected, o.Started, o.Finished, o.Killed,
			math.Float64bits(o.StartTime), math.Float64bits(o.FinishTime))
	}
	return b.String()
}

// reportBits renders a report field by field as raw bits.
func reportBits(r metrics.Report) string {
	var b strings.Builder
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			fmt.Fprintf(&b, "%s=%x ", v.Type().Field(i).Name, math.Float64bits(f.Float()))
		default:
			fmt.Fprintf(&b, "%s=%v ", v.Type().Field(i).Name, f.Interface())
		}
	}
	return b.String()
}

// inject starts a schedule on a fault-free session, one way or the other.
type inject func(*sim.Engine, []faults.Event, FaultInjectable)

// driveLogged runs jobs through a fresh session whose schedule inject
// queues, advancing to each arrival first where advance says so, and
// returns the log of faults, decisions and the final report.
func driveLogged(t *testing.T, factory Factory, cfg RunConfig, jobs []*workload.Job, events []faults.Event, in inject, advance func(i int) bool) []string {
	t.Helper()
	var log []string
	var fl *faultLog
	s, err := NewSession(func(ctx *Context) Policy {
		fl = &faultLog{Policy: factory(ctx), ctx: ctx, log: &log}
		return fl
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in(s.engine, events, fl)
	for i, j := range workload.CloneAll(jobs) {
		if advance(i) {
			s.AdvanceTo(j.Submit)
		}
		d, err := s.Submit(j)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, fmt.Sprintf("job %d %s %x %s", j.ID, d.Admission, math.Float64bits(d.Quote), jobStates(s.collector)))
	}
	rep := s.Finalize()
	return append(log, fmt.Sprintf("fired %d", s.engine.Fired()), "report "+reportBits(rep))
}

// requireSameLog fails at the first line where the feed's log departs
// from the eager reference's.
func requireSameLog(t *testing.T, label string, eager, feed []string) {
	t.Helper()
	for i := 0; i < len(eager) && i < len(feed); i++ {
		if eager[i] != feed[i] {
			t.Fatalf("%s: line %d differs:\neager: %s\nfeed:  %s", label, i, eager[i], feed[i])
		}
	}
	if len(eager) != len(feed) {
		t.Fatalf("%s: eager logged %d lines, feed %d", label, len(eager), len(feed))
	}
}

// hjob is a hand-built job with generous QoS terms.
func hjob(id int, submit, runtime float64, procs int) *workload.Job {
	return &workload.Job{ID: id, Submit: submit, Runtime: runtime, Estimate: runtime, Procs: procs,
		Deadline: 10 * runtime, Budget: 100 * runtime}
}

// failureAtArrival is a hand-built schedule with a failure at an
// arrival's instant: nodes 0 and 1 fail at 40, when jobs 2 and 3 arrive.
func failureAtArrival() ([]*workload.Job, []faults.Event) {
	jobs := []*workload.Job{hjob(1, 0, 50, 1), hjob(2, 40, 30, 2), hjob(3, 40, 10, 1), hjob(4, 90, 20, 4)}
	events := []faults.Event{
		{Time: 20, Node: 3, Down: true}, {Time: 40, Node: 0, Down: true}, {Time: 40, Node: 1, Down: true},
		{Time: 45, Node: 0}, {Time: 80, Node: 3}, {Time: 90, Node: 1},
	}
	return jobs, events
}

// The feed dispatches exactly as the eager loop on hand-built schedules
// with ties: two nodes failing at one instant, a failure at an arrival's
// instant (reached by Submit alone and by AdvanceTo then Submit), and a
// repair at a completion's instant — for every Table V policy under each
// of its models.
func TestFaultFeedMatchesEagerOnTies(t *testing.T) {
	arrivalJobs, arrivalEvents := failureAtArrival()
	cases := []struct {
		name   string
		jobs   []*workload.Job
		events []faults.Event
	}{
		{
			name: "two nodes fail at one instant",
			jobs: []*workload.Job{hjob(1, 0, 100, 2), hjob(2, 0, 100, 2), hjob(3, 50, 40, 1)},
			events: []faults.Event{
				{Time: 30, Node: 0, Down: true}, {Time: 30, Node: 1, Down: true},
				{Time: 50, Node: 2, Down: true},
				{Time: 60, Node: 0}, {Time: 60, Node: 1}, {Time: 70, Node: 2},
			},
		},
		{name: "failure at an arrival's instant", jobs: arrivalJobs, events: arrivalEvents},
		{
			name: "repair at a completion's instant",
			jobs: []*workload.Job{hjob(1, 0, 50, 1), hjob(2, 10, 40, 2), hjob(3, 60, 25, 4)},
			events: []faults.Event{
				{Time: 10, Node: 3, Down: true}, {Time: 50, Node: 3},
				{Time: 55, Node: 2, Down: true}, {Time: 85, Node: 2},
			},
		},
	}
	drives := []struct {
		name    string
		advance func(int) bool
	}{
		{"submit", func(int) bool { return false }},
		{"advance+submit", func(int) bool { return true }},
	}
	for _, tc := range cases {
		for _, spec := range Specs() {
			for _, m := range spec.Models {
				for _, dr := range drives {
					label := fmt.Sprintf("%s/%s/%s/%s", tc.name, spec.Name, m, dr.name)
					cfg := RunConfig{Nodes: 4, Model: m, BasePrice: 1}
					eager := driveLogged(t, spec.New, cfg, tc.jobs, tc.events, eagerFaults, dr.advance)
					feed := driveLogged(t, spec.New, cfg, tc.jobs, tc.events, feedFaults, dr.advance)
					requireSameLog(t, label, eager, feed)
				}
			}
		}
	}
}

// AdvanceTo is not neutral at an exact tie: advancing to 40 before job 2's
// submit fires node 0's failure at 40 before job 2 arrives, while Submit
// alone fires the arrival first. Pinned on the "failure at an arrival's
// instant" schedule for every Table V policy under each of its models.
func TestAdvanceToFiresTieBeforeArrival(t *testing.T) {
	jobs, events := failureAtArrival()
	down := fmt.Sprintf("down 0 @%x ", math.Float64bits(40))
	for _, spec := range Specs() {
		for _, m := range spec.Models {
			cfg := RunConfig{Nodes: 4, Model: m, BasePrice: 1}
			for _, advance := range []bool{false, true} {
				log := driveLogged(t, spec.New, cfg, jobs, events, feedFaults, func(int) bool { return advance })
				i := 0
				for i < len(log) && !strings.HasPrefix(log[i], down) {
					i++
				}
				if i == len(log) {
					t.Fatalf("%s/%s advance=%t: node 0 never failed at 40", spec.Name, m, advance)
				}
				if arrived := strings.Contains(log[i], "[2 "); arrived == advance {
					t.Errorf("%s/%s advance=%t: job 2 arrived before node 0 failed = %t, want %t",
						spec.Name, m, advance, arrived, !advance)
				}
			}
		}
	}
}

// The feed through NewSession's own path matches the eager loop on 30
// random workloads and high-intensity schedules, driven by Submit alone on
// even seeds and by AdvanceTo then Submit on every other job on odd ones.
func TestFaultFeedMatchesEagerAcrossSeeds(t *testing.T) {
	specs := Specs()
	for seed := int64(1); seed <= 30; seed++ {
		spec := specs[int(seed)%len(specs)]
		m := spec.Models[int(seed/int64(len(specs)))%len(spec.Models)]
		jobs := synthWorkload(t, 60, 100, seed)
		fc := highFaults(jobs, seed)
		events, err := faults.Generate(*fc, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		advance := func(i int) bool { return seed%2 == 1 && i%2 == 0 }
		cfg := RunConfig{Nodes: 16, Model: m, BasePrice: 1}
		eager := driveLogged(t, spec.New, cfg, jobs, events, eagerFaults, advance)
		cfg.Faults = fc
		feed := driveLogged(t, spec.New, cfg, jobs, nil, func(*sim.Engine, []faults.Event, FaultInjectable) {}, advance)
		requireSameLog(t, fmt.Sprintf("seed %d/%s/%s", seed, spec.Name, m), eager, feed)
	}
}

// With a warmed memo, a session's set-up costs the same allocations for a
// short schedule as for a long one: the feed queues one event with one
// handler, however many faults the schedule holds.
func TestNewSessionAllocsIndependentOfScheduleLength(t *testing.T) {
	const nodes = 128
	short := faults.Config{Seed: 2, MTBF: 2.5e6, MTTR: 10, Horizon: 1e5}
	long := faults.High.Config(3, 1e5)
	memo := new(faults.Memo)
	for _, tc := range []struct {
		cfg      faults.Config
		min, max int
	}{{short, 5, 20}, {long, 700, 1200}} {
		events, err := memo.Generate(tc.cfg, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) < tc.min || len(events) > tc.max {
			t.Fatalf("schedule of %d events, want %d..%d", len(events), tc.min, tc.max)
		}
	}
	allocs := func(fc faults.Config) float64 {
		cfg := RunConfig{Nodes: nodes, Model: economy.BidBased, BasePrice: 1, Faults: &fc, FaultMemo: memo}
		return testing.AllocsPerRun(20, func() {
			if _, err := NewSession(NewFCFSBF, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(short), allocs(long); a != b {
		t.Errorf("NewSession allocates %v with a short schedule, %v with a long one", a, b)
	}
}
