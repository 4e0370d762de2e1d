package sim

import "testing"

// The event pool recycles records the moment they fire or are cancelled, so
// the tests in this file pin the generation-guard contract: a stale handle
// must never observe — let alone cancel — a record that has been reused for
// a newer event.

func TestCancelAfterFireIsNoOp(t *testing.T) {
	e := NewEngine()
	ev := e.MustSchedule(1, "fires", func() {})
	e.Run()
	if !ev.Cancelled() {
		t.Error("Cancelled() = false after the event fired")
	}
	if ev.Pending() {
		t.Error("Pending() = true after the event fired")
	}
	if e.Cancel(ev) {
		t.Error("Cancel of a fired event returned true")
	}
}

func TestDoubleCancelIsNoOp(t *testing.T) {
	e := NewEngine()
	ev := e.MustSchedule(1, "victim", func() { t.Error("cancelled event fired") })
	if !e.Cancel(ev) {
		t.Fatal("first Cancel returned false")
	}
	for i := 0; i < 3; i++ {
		if e.Cancel(ev) {
			t.Fatalf("Cancel #%d of an already-cancelled event returned true", i+2)
		}
	}
	e.Run()
}

// TestStaleHandleDoesNotCancelReusedRecord is the core pool-safety property:
// after an event fires, its record is recycled for the next Schedule; the
// old handle must not be able to cancel the new occupant.
func TestStaleHandleDoesNotCancelReusedRecord(t *testing.T) {
	e := NewEngine()
	first := e.MustSchedule(1, "first", func() {})
	e.Run()

	// The pool has exactly one free record, so this reuses first's record.
	secondFired := false
	second := e.MustSchedule(2, "second", func() { secondFired = true })
	if second.Pending() != true {
		t.Fatal("second event not pending after schedule")
	}
	if e.Cancel(first) {
		t.Error("stale handle cancelled the reused record")
	}
	if !second.Pending() {
		t.Error("second event lost its pending state to a stale Cancel")
	}
	e.Run()
	if !secondFired {
		t.Error("second event never fired")
	}
	if first.Cancelled() != true {
		t.Error("stale handle stopped reporting Cancelled after reuse")
	}
}

// TestPoolReuseSteadyStateAllocs verifies the performance-model invariant
// directly: once warm, the schedule→fire cycle does not allocate.
func TestPoolReuseSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	var spawn func()
	remaining := 0
	spawn = func() {
		if remaining == 0 {
			return
		}
		remaining--
		e.MustSchedule(e.Now()+1, "steady", spawn)
	}
	// Warm the pool and the heap slice.
	remaining = 100
	spawn()
	e.Run()

	allocs := testing.AllocsPerRun(100, func() {
		remaining = 10
		spawn()
		e.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule/fire allocates %.1f/run, want 0", allocs)
	}
}

// TestCancelHeapIntegrity drives Cancel at every heap position and checks
// the survivors still dispatch in (time, seq) order — the index-backpointer
// maintenance in the concrete heap.
func TestCancelHeapIntegrity(t *testing.T) {
	const n = 64
	for victim := 0; victim < n; victim++ {
		e := NewEngine()
		events := make([]Event, n)
		at := func(i int) Time { return Time((i * 7) % 13) }
		var fired []int
		for i := 0; i < n; i++ {
			i := i
			// A mix of distinct and tied times exercises both sift paths.
			events[i] = e.MustSchedule(at(i), "h", func() { fired = append(fired, i) })
		}
		if !e.Cancel(events[victim]) {
			t.Fatalf("victim %d: Cancel returned false", victim)
		}
		e.Run()
		if len(fired) != n-1 {
			t.Fatalf("victim %d: fired %d events, want %d", victim, len(fired), n-1)
		}
		seen := make(map[int]bool, n)
		for _, id := range fired {
			if id == victim {
				t.Fatalf("victim %d fired after Cancel", victim)
			}
			if seen[id] {
				t.Fatalf("victim %d: event %d fired twice", victim, id)
			}
			seen[id] = true
		}
		for i := 1; i < len(fired); i++ {
			a, b := at(fired[i-1]), at(fired[i])
			if a > b {
				t.Fatalf("victim %d: dispatch out of time order: %v then %v", victim, a, b)
			}
			if a == b && fired[i-1] > fired[i] {
				t.Fatalf("victim %d: tie broken out of scheduling order: %d then %d",
					victim, fired[i-1], fired[i])
			}
		}
	}
}

// BenchmarkEngineSteadyState is the kernel's headline number: one event
// through a warm engine (pool hit, heap depth 1).
func BenchmarkEngineSteadyState(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	remaining := b.N
	var spawn func()
	spawn = func() {
		if remaining == 0 {
			return
		}
		remaining--
		e.MustSchedule(e.Now()+1, "bench", spawn)
	}
	b.ResetTimer()
	spawn()
	e.Run()
}

// BenchmarkEngineCancel measures the schedule→cancel cycle against a modest
// background heap — the completion-reschedule pattern in the cluster layer.
func BenchmarkEngineCancel(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	for i := 0; i < 128; i++ {
		e.MustSchedule(Time(1e9+float64(i)), "background", func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.MustSchedule(Time(1+float64(i%1000)), "victim", func() {})
		e.Cancel(ev)
	}
}
