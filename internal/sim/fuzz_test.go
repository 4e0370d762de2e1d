package sim

import "testing"

// FuzzEngine drives the kernel through arbitrary schedule/cancel/step
// sequences and checks the three contracts the event pool must never break:
//
//   - dispatch order: events fire in (time, scheduling sequence) order;
//   - heap integrity: every queued record's index backpointer matches its
//     position and the (time, seq) heap property holds after every op;
//   - pool safety: a cancelled event never fires, a fired event fires at
//     the time it was scheduled for, and a fired or cancelled handle
//     cannot cancel again (even after its record is recycled for a newer
//     event).
func FuzzEngine(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 3, 1, 5, 2, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 1, 2, 1, 3, 3, 3})
	f.Add([]byte{1, 200, 1, 100, 1, 150, 2, 2, 0, 0, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := NewEngine()
		type tracked struct {
			ev        Event
			id        int
			at        Time
			firedAt   Time
			cancelled bool
			fired     int
		}
		var events []*tracked
		type firing struct {
			at Time
			id int
		}
		var fired []firing

		checkHeap := func() {
			for i, ev := range e.queue {
				if int(ev.index) != i {
					t.Fatalf("queue[%d] has index backpointer %d", i, ev.index)
				}
				if i > 0 {
					parent := e.queue[(i-1)/2]
					if less(ev, parent) {
						t.Fatalf("heap property violated at %d: (%v,%d) under (%v,%d)",
							i, ev.time, ev.seq, parent.time, parent.seq)
					}
				}
			}
		}

		schedule := func(at Time, chain bool) {
			tr := &tracked{id: len(events), at: at}
			tr.ev = e.MustSchedule(at, "fuzz", func() {
				tr.fired++
				tr.firedAt = e.Now()
				fired = append(fired, firing{e.Now(), tr.id})
				if chain && len(events) < 4*len(data)+8 {
					// Reentrant scheduling from a handler, same instant:
					// must fire later in the same batch, after every
					// previously scheduled same-time event.
					inner := &tracked{id: len(events), at: e.Now()}
					inner.ev = e.MustSchedule(e.Now(), "fuzz", func() {
						inner.fired++
						inner.firedAt = e.Now()
						fired = append(fired, firing{e.Now(), inner.id})
					})
					events = append(events, inner)
				}
			})
			events = append(events, tr)
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%4, data[i+1]
			switch op {
			case 0:
				schedule(e.Now()+Time(arg), false)
			case 1:
				schedule(e.Now()+Time(arg%32), true)
			case 2:
				if len(events) == 0 {
					continue
				}
				tr := events[int(arg)%len(events)]
				got := e.Cancel(tr.ev)
				want := !tr.cancelled && tr.fired == 0
				if got != want {
					t.Fatalf("Cancel of event %d returned %v, want %v (cancelled=%v fired=%d)",
						tr.id, got, want, tr.cancelled, tr.fired)
				}
				if got {
					tr.cancelled = true
				}
			case 3:
				e.Step()
			}
			checkHeap()
		}
		e.Run()
		checkHeap()

		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.at > b.at {
				t.Fatalf("dispatch out of time order: %v then %v", a.at, b.at)
			}
			if a.at == b.at && a.id > b.id {
				t.Fatalf("same-time events fired out of scheduling order: %d then %d", a.id, b.id)
			}
		}
		for _, tr := range events {
			want := 1
			if tr.cancelled {
				want = 0
			}
			if tr.fired != want {
				t.Fatalf("event %d fired %d times, want %d (cancelled=%v)", tr.id, tr.fired, want, tr.cancelled)
			}
			// Pool safety after the run: every record has been recycled
			// (possibly many times over), yet the handle still reports its
			// own history and cannot cancel anybody.
			if !tr.ev.Cancelled() || tr.ev.Pending() {
				t.Fatalf("event %d: Cancelled=%v Pending=%v after run", tr.id, tr.ev.Cancelled(), tr.ev.Pending())
			}
			if e.Cancel(tr.ev) {
				t.Fatalf("stale handle %d cancelled something after the run", tr.id)
			}
			if tr.fired == 1 && tr.firedAt != tr.at {
				t.Fatalf("event %d scheduled for %v fired at %v", tr.id, tr.at, tr.firedAt)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events still pending after Run", e.Pending())
		}
	})
}
