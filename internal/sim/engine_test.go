package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		e.MustSchedule(at, "t", func() { got = append(got, at) })
	}
	e.Run()
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOWithinSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustSchedule(7, "same", func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine()
	e.MustSchedule(10, "a", func() {
		if e.Now() != 10 {
			t.Errorf("Now() = %v inside handler, want 10", e.Now())
		}
	})
	e.Run()
	if e.Now() != 10 {
		t.Errorf("Now() = %v after run, want 10", e.Now())
	}
	if e.Fired() != 1 {
		t.Errorf("Fired() = %d, want 1", e.Fired())
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.MustSchedule(5, "a", func() {
		if _, err := e.Schedule(4, "past", func() {}); err == nil {
			t.Error("scheduling in the past succeeded, want error")
		}
	})
	e.Run()
}

func TestScheduleNilHandlerRejected(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(1, "nil", nil); err == nil {
		t.Error("scheduling nil handler succeeded, want error")
	}
}

func TestScheduleAtCurrentTime(t *testing.T) {
	e := NewEngine()
	var order []string
	e.MustSchedule(5, "outer", func() {
		order = append(order, "outer")
		e.MustSchedule(5, "inner", func() { order = append(order, "inner") })
	})
	e.MustSchedule(6, "later", func() { order = append(order, "later") })
	e.Run()
	want := []string{"outer", "inner", "later"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.MustSchedule(3, "victim", func() { fired = true })
	if !e.Cancel(ev) {
		t.Error("Cancel returned false for a pending event")
	}
	if e.Cancel(ev) {
		t.Error("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after cancel")
	}
}

func TestCancelZeroHandle(t *testing.T) {
	e := NewEngine()
	if e.Cancel(Event{}) {
		t.Error("Cancel(Event{}) returned true")
	}
	if (Event{}).Cancelled() {
		t.Error("zero handle Cancelled() = true, want false (never scheduled)")
	}
	if (Event{}).Pending() {
		t.Error("zero handle Pending() = true")
	}
	if (Event{}).Scheduled() {
		t.Error("zero handle Scheduled() = true")
	}
}

func TestCancelFromHandler(t *testing.T) {
	e := NewEngine()
	fired := false
	victim := e.MustSchedule(10, "victim", func() { fired = true })
	e.MustSchedule(5, "killer", func() { e.Cancel(victim) })
	e.Run()
	if fired {
		t.Error("event cancelled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.MustSchedule(at, "t", func() { got = append(got, at) })
	}
	e.RunUntil(3)
	if len(got) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3", len(got))
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now() = %v after RunUntil(100), want 100", e.Now())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", e.Pending())
	}
}

func TestAfterClampsNegative(t *testing.T) {
	e := NewEngine()
	firedAt := Time(-1)
	e.MustSchedule(5, "setup", func() {
		e.After(-3, "neg", func() { firedAt = e.Now() })
	})
	e.Run()
	if firedAt != 5 {
		t.Errorf("After(-3) fired at %v, want 5 (clamped)", firedAt)
	}
}

// The handle is the record pointer and its generation: the cluster models
// keep one per running job, so it carries no copy of the time or label.
func TestEventHandleSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 16 {
		t.Errorf("Event handle is %d bytes, want 16", got)
	}
}

// The label is diagnostic only: the handle does not carry it, and
// ScheduleClass's errors name the event by it.
func TestEventLabel(t *testing.T) {
	e := NewEngine()
	if _, err := e.Schedule(1, "hello", nil); err == nil || !strings.Contains(err.Error(), "hello") {
		t.Errorf("nil-handler error %v does not name the label %q", err, "hello")
	}
	e.MustSchedule(5, "setup", func() {
		if _, err := e.Schedule(1, "past", func() {}); err == nil || !strings.Contains(err.Error(), "past") {
			t.Errorf("past-schedule error %v does not name the label %q", err, "past")
		}
	})
	e.Run()
}

// Property: for any set of event times, dispatch order is the sorted order,
// with ties broken by scheduling sequence.
func TestDispatchOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		e := NewEngine()
		var fired []Time
		for _, r := range raw {
			at := Time(r % 50) // force ties
			e.MustSchedule(at, "p", func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset never fires those events and fires
// everything else exactly once.
func TestCancelSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		e := NewEngine()
		const n = 100
		fired := make([]int, n)
		events := make([]Event, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = e.MustSchedule(Time(rng.Intn(30)), "p", func() { fired[i]++ })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				e.Cancel(events[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			want := 1
			if cancelled[i] {
				want = 0
			}
			if fired[i] != want {
				t.Fatalf("trial %d: event %d fired %d times, want %d", trial, i, fired[i], want)
			}
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.MustSchedule(Time(j%97), "b", func() {})
		}
		e.Run()
	}
}

func TestScheduleClassOrdersBandsAtTimeTie(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(s string) Handler { return func() { order = append(order, s) } }
	// Schedule in deliberately scrambled band order at the same instant:
	// the dispatch must come out arrival, injected, default — and within a
	// band, in scheduling order.
	e.MustScheduleClass(5, ClassDefault, "d1", note("d1"))
	e.MustScheduleClass(5, ClassInjected, "i1", note("i1"))
	e.MustScheduleClass(5, ClassArrival, "a1", note("a1"))
	e.MustScheduleClass(5, ClassDefault, "d2", note("d2"))
	e.MustScheduleClass(5, ClassArrival, "a2", note("a2"))
	e.MustScheduleClass(5, ClassInjected, "i2", note("i2"))
	// An earlier default-band event still beats every later-time band.
	e.MustScheduleClass(3, ClassDefault, "d0", note("d0"))
	e.Run()
	want := []string{"d0", "a1", "a2", "i1", "i2", "d1", "d2"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestScheduleClassEquivalentToUpfrontScheduling(t *testing.T) {
	// The bridge invariant behind the step-driven session driver: arrivals
	// scheduled lazily in the arrival band interleave exactly like arrivals
	// scheduled up front in the default band before anything else.
	type firing struct {
		at Time
		id string
	}
	run := func(lazy bool) []firing {
		e := NewEngine()
		var out []firing
		note := func(id string) Handler {
			return func() { out = append(out, firing{e.Now(), id}) }
		}
		arrivals := []Time{0, 2, 2, 4, 4}
		chain := func(at Time, id string) Handler {
			// Each arrival schedules a same-instant and a +2 follow-up,
			// creating time ties with later arrivals.
			return func() {
				out = append(out, firing{e.Now(), id})
				e.MustSchedule(e.Now(), id+"/now", note(id+"/now"))
				e.MustSchedule(e.Now()+2, id+"/later", note(id+"/later"))
			}
		}
		if lazy {
			for i, at := range arrivals {
				id := fmt.Sprintf("a%d", i)
				h := e.MustScheduleClass(at, ClassArrival, id, chain(at, id))
				e.RunThrough(h)
			}
			e.Run()
		} else {
			for i, at := range arrivals {
				id := fmt.Sprintf("a%d", i)
				e.MustSchedule(at, id, chain(at, id))
			}
			e.Run()
		}
		return out
	}
	batch, step := run(false), run(true)
	if len(batch) != len(step) {
		t.Fatalf("batch fired %d events, step-driven %d", len(batch), len(step))
	}
	for i := range batch {
		if batch[i] != step[i] {
			t.Fatalf("dispatch diverged at %d: batch %v, step %v", i, batch[i], step[i])
		}
	}
}

func TestRunThroughStopsAtEvent(t *testing.T) {
	e := NewEngine()
	var order []string
	note := func(s string) Handler { return func() { order = append(order, s) } }
	e.MustSchedule(1, "before", note("before"))
	target := e.MustSchedule(2, "target", note("target"))
	e.MustSchedule(2, "same-time-after", note("after"))
	e.MustSchedule(3, "later", note("later"))
	e.RunThrough(target)
	if got := fmt.Sprint(order); got != "[before target]" {
		t.Fatalf("RunThrough dispatched %v, want [before target]", order)
	}
	if e.Now() != 2 {
		t.Fatalf("clock at %v, want 2", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("%d events pending, want 2", e.Pending())
	}
	// A fired handle is a no-op target; the queue is untouched.
	e.RunThrough(target)
	if e.Pending() != 2 {
		t.Fatalf("RunThrough of a fired handle dispatched events")
	}
	// A cancelled handle likewise.
	c := e.MustSchedule(4, "cancelled", note("cancelled"))
	e.Cancel(c)
	e.RunThrough(c)
	if e.Pending() != 2 {
		t.Fatalf("RunThrough of a cancelled handle dispatched events")
	}
	e.RunThrough(Event{})
	e.Run()
	if got := fmt.Sprint(order); got != "[before target after later]" {
		t.Fatalf("final order %v", order)
	}
}
