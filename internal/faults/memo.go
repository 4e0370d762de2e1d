package faults

import "sync"

// Memo shares generated schedules between the runs that draw the same
// failure process. Generate is pure — equal configs and node counts give
// byte-identical schedules — so handing every caller of one key the same
// slice is exact. Callers must treat the slice as read-only.
//
// A Memo is safe for concurrent use. Each key is generated once under its
// own sync.Once: callers racing on one key block on that single
// generation and then share its result, while callers on different keys
// generate in parallel. The zero value is ready to use, and a nil *Memo
// generates afresh on every call. A Memo never forgets a key; its owner
// bounds its lifetime instead (the experiment suite keeps one per group of
// cells that simulate identical prepared jobs and drops it once the group
// has run).
type Memo struct {
	mu    sync.Mutex
	byKey map[memoKey]*memoEntry
}

// memoKey is the full input of Generate.
type memoKey struct {
	cfg   Config
	nodes int
}

// memoEntry is one memoized schedule; once guards its single generation.
type memoEntry struct {
	once   sync.Once
	events []Event
	err    error
}

// Generate returns Generate(cfg, nodes), generating it on the key's first
// use and returning the identical slice (and error) to every later caller.
func (m *Memo) Generate(cfg Config, nodes int) ([]Event, error) {
	if m == nil {
		return Generate(cfg, nodes)
	}
	k := memoKey{cfg: cfg, nodes: nodes}
	m.mu.Lock()
	e, ok := m.byKey[k]
	if !ok {
		if m.byKey == nil {
			m.byKey = make(map[memoKey]*memoEntry)
		}
		e = &memoEntry{}
		m.byKey[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		e.events, e.err = Generate(cfg, nodes)
	})
	return e.events, e.err
}
