package scheduler

import (
	"fmt"

	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Admission is the synchronous admission outcome visible when a submission
// returns: the Libra family and FirstReward settle every job at submission,
// while the backfilling policies apply the paper's "generous" admission
// control and decide only when the job reaches the head of the queue.
type Admission int

const (
	// AdmissionPending means the job is queued and the decision is deferred
	// (generous admission control).
	AdmissionPending Admission = iota
	// AdmissionAccepted means the SLA was accepted at submission.
	AdmissionAccepted
	// AdmissionRejected means the job was refused at submission.
	AdmissionRejected
)

// String returns the service-layer spelling of the outcome.
func (a Admission) String() string {
	switch a {
	case AdmissionPending:
		return "queued"
	case AdmissionAccepted:
		return "accepted"
	case AdmissionRejected:
		return "rejected"
	default:
		return fmt.Sprintf("Admission(%d)", int(a))
	}
}

// Decision is what the service front-end reports for one submission: the
// synchronous admission outcome plus the price quote under the session's
// economic model — the commodity charge the provider would collect, or the
// job's bid (its budget) under the bid-based model, where the provider's
// actual utility can later fall below the quote through delay penalties.
type Decision struct {
	Admission Admission
	Quote     float64
}

// Quoter is implemented by policies whose commodity price differs from the
// flat base charge (the Libra family's static and load-dynamic pricing
// functions). Quote returns the charge the policy would collect for the job
// given the machine's current commitments; for a job just accepted it must
// equal the recorded charge.
type Quoter interface {
	Quote(j *workload.Job) float64
}

// Session owns one resumable simulation: the event engine, the outcome
// collector, and a live policy, advanced in virtual time one submission at
// a time. It is the step-driven core both of the batch Run entry point and
// of the internal/serve request-driven daemon, which is what makes a
// scripted online session bit-for-bit identical to the equivalent offline
// run: arrivals are scheduled in the sim.ClassArrival band and the engine
// dispatches exactly through each arrival, so the event order matches a
// run that scheduled every arrival up front.
//
// A Session is not safe for concurrent use; the serve layer wraps it in a
// per-session mutex.
type Session struct {
	engine    *sim.Engine
	collector *metrics.Collector
	ctx       *Context
	policy    Policy
	finalized bool
	final     metrics.Report
	// lastSubmit enforces non-decreasing submission times, mirroring the
	// batch validation (the engine itself would also refuse to schedule in
	// the past, but with a less helpful error).
	lastSubmit float64
}

// NewSession validates the configuration, builds the policy, and starts
// the configured fault process's feed (see faultFeed): failures and
// repairs fire in the sim.ClassInjected band, so a failure at an arrival's
// exact instant orders after the arrival, as in a batch run. The session
// starts at virtual time zero with no jobs.
func NewSession(factory Factory, cfg RunConfig) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	engine := sim.NewEngine()
	collector := metrics.NewCollector()
	ctx := &Context{
		Engine:      engine,
		Collector:   collector,
		Model:       cfg.Model,
		Nodes:       cfg.Nodes,
		BasePrice:   cfg.BasePrice,
		NodeRatings: cfg.NodeRatings,
		Prices:      cfg.Prices,
	}
	s := &Session{
		engine:     engine,
		collector:  collector,
		ctx:        ctx,
		policy:     factory(ctx),
		lastSubmit: -1,
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		fi, ok := s.policy.(FaultInjectable)
		if !ok {
			return nil, fmt.Errorf("scheduler: policy %s cannot absorb fault injection", s.policy.Name())
		}
		events, err := cfg.FaultMemo.Generate(*cfg.Faults, cfg.Nodes)
		if err != nil {
			return nil, err
		}
		feedFaults(engine, events, fi)
	}
	return s, nil
}

// faultFeed injects a failure schedule, sorted by (time, node), one event
// at a time: exactly one sim.ClassInjected event is queued, the earliest
// unfired fault, and its handler queues its successor before applying it
// to the policy. A 128-node machine under high faults draws ~900 events;
// the feed keeps one of them in the engine's heap, with one handler.
//
// It dispatches exactly as queuing the whole schedule up front would.
// Events fire in (time, class, seq) order and only faults use
// ClassInjected, so a fault orders against every other event by time and
// class alone, never by seq. Among faults, a successor is queued when its
// predecessor fires, so faults at one instant still fire in schedule
// order. And since the queued fault is always the earliest unfired one,
// every fault not yet queued orders after one that is: none can be
// overtaken, whether the engine runs through an arrival, until a horizon,
// or to the end.
type faultFeed struct {
	engine *sim.Engine
	// events is the schedule, shared read-only (see faults.Memo).
	events []faults.Event
	next   int
	fi     FaultInjectable
	// fire is inject as a handler, bound once rather than per event.
	fire sim.Handler
}

// feedFaults starts the feed of a sorted schedule; an empty one queues
// nothing.
func feedFaults(engine *sim.Engine, events []faults.Event, fi FaultInjectable) {
	if len(events) == 0 {
		return
	}
	f := &faultFeed{engine: engine, events: events, fi: fi}
	f.fire = f.inject
	f.queueNext()
}

// queueNext queues the earliest unfired fault.
func (f *faultFeed) queueNext() {
	f.engine.MustScheduleClass(sim.Time(f.events[f.next].Time), sim.ClassInjected, "inject fault", f.fire)
}

// inject fires the queued fault: it queues the successor, then fails or
// repairs the node.
func (f *faultFeed) inject() {
	ev := f.events[f.next]
	f.next++
	if f.next < len(f.events) {
		f.queueNext()
	}
	if ev.Down {
		f.fi.NodeDown(ev.Node)
	} else {
		f.fi.NodeUp(ev.Node)
	}
}

// PolicyName returns the live policy's display name.
func (s *Session) PolicyName() string { return s.policy.Name() }

// Now returns the session's virtual time: the submission time of the last
// job, or zero before the first submission. Events beyond it stay queued
// until a later submission or Finalize advances past them.
func (s *Session) Now() float64 { return float64(s.engine.Now()) }

// Finalized reports whether Finalize has run.
func (s *Session) Finalized() bool { return s.finalized }

// Submit validates the job, advances the simulation exactly through its
// arrival, and returns the admission decision and price quote. Submission
// times must be non-decreasing; the job must carry QoS parameters and fit
// the machine.
func (s *Session) Submit(j *workload.Job) (Decision, error) {
	adm, err := s.SubmitQuoteless(j)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Admission: adm, Quote: s.QuoteFor(j)}, nil
}

// SubmitQuoteless is Submit without the price quote, the path of the batch
// runs (scheduler.Run and the federation meta-broker's placement step):
// pricing a job the caller will never read (the Libra family walks
// candidate nodes to quote) is pure overhead at trace scale.
func (s *Session) SubmitQuoteless(j *workload.Job) (Admission, error) {
	if s.finalized {
		return AdmissionPending, fmt.Errorf("scheduler: job %d submitted to a finalized session", j.ID)
	}
	if err := checkJob(j, s.lastSubmit, s.ctx.Nodes); err != nil {
		return AdmissionPending, err
	}
	s.lastSubmit = j.Submit
	arrival := s.engine.MustScheduleClass(sim.Time(j.Submit), sim.ClassArrival, "submit job", func() {
		s.collector.Submitted(j)
		s.policy.Submit(j)
	})
	s.engine.RunThrough(arrival)
	switch o := s.collector.Outcome(j); {
	case o.Accepted:
		return AdmissionAccepted, nil
	case o.Rejected:
		return AdmissionRejected, nil
	default:
		return AdmissionPending, nil
	}
}

// QuoteFor prices a job under the session's economic model at the current
// virtual instant without submitting it: the bid itself under the bid-based
// model, the policy's own pricing function when it quotes one (the Libra
// family), and the flat base charge otherwise. This is the quote-shopping
// probe the federation meta-broker uses for every policy, not just the
// Quoter implementations.
func (s *Session) QuoteFor(j *workload.Job) float64 {
	if s.ctx.Model == economy.BidBased {
		return j.Budget
	}
	if q, ok := s.policy.(Quoter); ok {
		return q.Quote(j)
	}
	return economy.BaseCharge(j.Estimate, s.ctx.PriceAt(float64(s.engine.Now())))
}

// AdvanceTo dispatches every pending event up to and including virtual time
// t without submitting anything — completions, lapses, and injected faults.
// The broker advances candidate sessions to a job's submission instant
// before quoting so quotes and availability reflect each cluster's state
// at that moment. Advancing is not neutral at an exact tie: an event due
// at t fires here, before the arrival a later Submit at t queues, while
// Submit alone fires that arrival first (ClassArrival runs before the
// other classes at one instant), so a fault or completion at a job's exact
// arrival instant can change the outcome. Events before t fire as the next
// submission or Finalize would fire them. Times in the past (or a
// finalized session) are a no-op.
func (s *Session) AdvanceTo(t float64) {
	if s.finalized || t <= float64(s.engine.Now()) {
		return
	}
	s.engine.RunUntil(sim.Time(t))
}

// EarliestAvailable estimates, at the current virtual instant, the earliest
// time at which procs processors could start a job — the policy's own
// optimistic plan (see AvailabilityEstimator), +Inf if the fault-shrunken
// machine can never fit the width, and the current instant for policies
// without an estimator.
func (s *Session) EarliestAvailable(procs int) (float64, error) {
	if procs <= 0 || procs > s.ctx.Nodes {
		return 0, fmt.Errorf("scheduler: earliest-available for %d procs on a %d-node machine", procs, s.ctx.Nodes)
	}
	if ae, ok := s.policy.(AvailabilityEstimator); ok {
		return ae.EarliestAvailable(procs)
	}
	return s.Now(), nil
}

// Snapshot returns the live mid-simulation report over everything settled
// so far, without advancing virtual time. Jobs still queued or running
// count as submitted (and possibly accepted) but not finished, so the
// objectives move as the session progresses.
func (s *Session) Snapshot() metrics.Report {
	if s.finalized {
		return s.final
	}
	report := s.collector.Report()
	if ur, ok := s.policy.(UtilizationReporter); ok {
		report.Utilization = ur.Utilization()
	}
	return report
}

// Finalize drains the session — no further arrivals — and returns the
// final report: every remaining event is dispatched, the policy writes off
// jobs that could never start, and the objectives are computed exactly as
// the batch Run does. Finalize is idempotent; Submit fails afterwards.
func (s *Session) Finalize() metrics.Report {
	if s.finalized {
		return s.final
	}
	s.engine.Run()
	s.policy.Drain()
	s.engine.Run() // drain may have released queue state needing no events, but keep symmetric
	s.final = s.collector.Report()
	if ur, ok := s.policy.(UtilizationReporter); ok {
		s.final.Utilization = ur.Utilization()
	}
	s.finalized = true
	return s.final
}
