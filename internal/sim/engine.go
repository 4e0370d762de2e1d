package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is virtual simulation time in seconds since the start of the run.
type Time float64

// Infinity is a sentinel time later than any schedulable event.
const Infinity Time = Time(math.MaxFloat64)

// Handler is a callback invoked when its event fires. It runs at the event's
// timestamp; Engine.Now() returns that timestamp for the duration of the
// call.
type Handler func()

// Class is an event's tie-break band at equal virtual time: events fire in
// (time, class, scheduling order) order. The kernel attaches no meaning to
// the bands beyond their ordering; the scheduler layer uses them so that a
// step-driven session — which schedules workload arrivals one request at a
// time — dispatches bit-for-bit in the same order as a batch run that
// schedules every arrival up front (arrivals first at a time tie, then
// injected environment events, then everything scheduled while running).
type Class uint8

const (
	// ClassArrival is the band of workload arrivals: at a time tie they
	// fire before any other event, in submission order.
	ClassArrival Class = iota
	// ClassInjected is the band of injected environment events (node
	// failures and repairs): after arrivals, before ordinary events.
	ClassInjected
	// ClassDefault is the band of every normally scheduled event;
	// MustSchedule uses it.
	ClassDefault
)

// classShift packs the class into the top bits of the ordering key, so the
// hot-path comparison stays a single uint64 compare. The sequence counter
// never reaches 2^62.
const classShift = 62

// event is the pooled queue record. Records are owned by the engine and
// recycled through its free list; the exported Event handle guards against
// observing a recycled record via the generation counter.
type event struct {
	time Time
	// seq is the ordering key: the event's Class in the top bits over the
	// engine's scheduling sequence number, so one integer compare resolves
	// both the band and the within-band tie.
	seq     uint64
	gen     uint64
	index   int32 // heap index; -1 once removed
	handler Handler
}

// Event is a value handle to a scheduled callback, returned by
// ScheduleClass and its Must forms: the record and its generation, 16
// bytes with one pointer, since the cluster models keep a handle per
// running job.
// The zero value is a valid "no event" handle: it is never pending, never
// cancelled, and Cancel of it is a no-op returning false.
//
// Handles stay safe after the event fires or is cancelled, even though the
// underlying record is recycled for later scheduling: each handle
// carries the generation of the record it was minted for, and recycling
// bumps the generation, so a stale handle can never cancel — or observe —
// a reused record.
type Event struct {
	ev  *event
	gen uint64
}

// Pending reports whether the event is still queued to fire.
func (e Event) Pending() bool { return e.ev != nil && e.ev.gen == e.gen }

// Engine is a discrete event simulation kernel. The zero value is ready to
// use; NewEngine is provided for symmetry with the rest of the repository.
type Engine struct {
	now   Time
	seq   uint64
	queue []*event
	// free is the recycled-record pool; see the package comment's
	// performance model.
	free    []*event
	fired   uint64
	running bool
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// ErrPast is returned by ScheduleClass when the requested time precedes the
// current clock.
var ErrPast = errors.New("sim: event scheduled in the past")

// ScheduleClass queues h to run at time t in tie-break band c (see Class)
// with a diagnostic label. It returns a handle so the caller may Cancel it
// later. Scheduling at the current time is allowed (the event fires after
// the currently running handler returns). The label names the event in
// ScheduleClass's errors only and is not stored; it should be a static
// string, so hot paths never pay for a fmt.Sprintf that is almost never
// read.
//
//lint:hot
func (e *Engine) ScheduleClass(t Time, c Class, label string, h Handler) (Event, error) {
	if t < e.now {
		//lint:allow hotalloc — error exit, not the steady-state path; Must* callers clamp times and never take it
		return Event{}, fmt.Errorf("%w: at %v, now %v (%s)", ErrPast, t, e.now, label)
	}
	if h == nil {
		//lint:allow hotalloc — error exit, not the steady-state path; a nil handler is a programming bug
		return Event{}, fmt.Errorf("sim: nil handler (%s)", label)
	}
	ev := e.alloc()
	ev.time = t
	ev.seq = uint64(c)<<classShift | e.seq
	ev.handler = h
	e.seq++
	e.push(ev)
	return Event{ev: ev, gen: ev.gen}, nil
}

// MustScheduleClass is ScheduleClass for callers that guarantee t >= Now();
// it panics on error.
//
//lint:hot
func (e *Engine) MustScheduleClass(t Time, c Class, label string, h Handler) Event {
	ev, err := e.ScheduleClass(t, c, label, h)
	if err != nil {
		panic(err)
	}
	return ev
}

// MustSchedule is MustScheduleClass in ClassDefault. It panics on error;
// the simulation layers use it after clamping times. It calls
// ScheduleClass directly rather than going through MustScheduleClass: the
// two-level call would push this body past the inlining budget, and
// MustSchedule must stay inlinable — it is the hot-path entry for every
// event the cluster models schedule.
//
//lint:hot
func (e *Engine) MustSchedule(t Time, label string, h Handler) Event {
	ev, err := e.ScheduleClass(t, ClassDefault, label, h)
	if err != nil {
		panic(err)
	}
	return ev
}

// Cancel removes the event from the queue. Cancelling an already-fired or
// already-cancelled event — or the zero handle — is a no-op and returns
// false, even if the underlying record has since been recycled for a newer
// event (the generation check protects the newer event).
//
//lint:hot
func (e *Engine) Cancel(h Event) bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return false
	}
	i := int(ev.index)
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i != n {
		e.queue[i] = last
		last.index = int32(i)
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
	e.recycle(ev)
	return true
}

// Step dispatches the single earliest event. It returns false when the queue
// is empty.
//
//lint:hot
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.popMin()
	e.now = ev.time
	e.fired++
	h := ev.handler
	// Recycle before dispatch so the handler's own scheduling calls can
	// reuse the record immediately; h is already copied out.
	e.recycle(ev)
	h()
	return true
}

// Run dispatches events until the queue is empty.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// RunThrough dispatches events in order until the given event has fired,
// leaving everything ordered after it — including later events at the same
// virtual time — queued. It is how a step-driven session advances exactly
// to one arrival's admission decision. A zero, fired, or cancelled handle
// is a no-op; an empty queue stops the dispatch regardless.
func (e *Engine) RunThrough(h Event) {
	if e.running {
		panic("sim: RunThrough re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for h.Pending() && e.Step() {
	}
}

// RunUntil dispatches events with time <= horizon, then advances the clock
// to horizon (if it is ahead of the last event). Remaining events stay
// queued.
func (e *Engine) RunUntil(horizon Time) {
	if e.running {
		panic("sim: RunUntil re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 && e.queue[0].time <= horizon {
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// alloc takes a record from the free list, or grows the pool.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	//lint:allow hotalloc — pool growth: amortized, the free list satisfies steady state (bench-asserted 0 allocs/op)
	return &event{}
}

// recycle invalidates every outstanding handle to the record (generation
// bump), drops the handler reference so its closure can be collected, and
// returns the record to the free list.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.handler = nil
	ev.index = -1
	//lint:allow hotalloc — free-list growth is amortized; capacity plateaus at peak queue depth
	e.free = append(e.free, ev)
}

// less orders the heap by (time, seq): earlier time first, then the packed
// (class, scheduling order) key within a tie — the determinism contract.
func less(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push appends the record and restores the heap invariant.
func (e *Engine) push(ev *event) {
	ev.index = int32(len(e.queue))
	//lint:allow hotalloc — heap growth is amortized; capacity plateaus at peak queue depth
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

// popMin removes and returns the root. The single-element case skips the
// sift entirely; otherwise the last leaf is moved to the root and sifted
// down once — no interface dispatch, no extra swaps.
func (e *Engine) popMin() *event {
	q := e.queue
	n := len(q) - 1
	top := q[0]
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.queue[0] = last
		last.index = 0
		e.siftDown(0)
	}
	top.index = -1
	return top
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := q[parent]
		if !less(ev, p) {
			break
		}
		q[i] = p
		p.index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown restores the invariant below i, reporting whether the record
// moved (the container/heap Remove contract: if it did not move down, the
// caller tries up).
func (e *Engine) siftDown(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		c := q[left]
		if right := left + 1; right < n && less(q[right], c) {
			child = right
			c = q[right]
		}
		if !less(c, ev) {
			break
		}
		q[i] = c
		c.index = int32(i)
		i = child
	}
	q[i] = ev
	ev.index = int32(i)
	return i > start
}
