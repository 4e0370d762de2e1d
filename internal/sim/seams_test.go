package sim

// Test-only entry points of the kernel. The simulation layers schedule
// through MustSchedule and MustScheduleClass; the kernel's own tests use
// these to reach the error paths and to observe handles and the queue.

// Scheduled reports whether the handle was obtained from scheduling (the
// zero "no event" handle reports false).
func (e Event) Scheduled() bool { return e.ev != nil }

// Cancelled reports whether the event has been removed from the queue,
// either by firing or by Engine.Cancel. A zero-value handle that was never
// scheduled reports false (it was never queued, so it cannot have been
// removed) — callers testing "is there still a timer" should use Pending.
func (e Event) Cancelled() bool { return e.ev != nil && e.ev.gen != e.gen }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule is ScheduleClass in ClassDefault.
func (e *Engine) Schedule(t Time, label string, h Handler) (Event, error) {
	return e.ScheduleClass(t, ClassDefault, label, h)
}

// After schedules h to run d seconds from now.
func (e *Engine) After(d Time, label string, h Handler) Event {
	if d < 0 {
		d = 0
	}
	return e.MustSchedule(e.now+d, label, h)
}
