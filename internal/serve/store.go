package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/scheduler"
)

// session is one live service session: the step-driven simulation driver,
// its journal, and the bookkeeping the store needs for idle eviction. All
// simulation state is guarded by mu — a session serves one request at a
// time; distinct sessions proceed in parallel.
type session struct {
	id string

	mu      sync.Mutex
	driver  *scheduler.Session
	journal *obs.SessionJournal
	// nextJob numbers submissions when the request omits an ID.
	nextJob int

	// lastUsed is the wall-clock instant (unix nanos) of the session's last
	// request, read by the idle sweeper. Wall time here is operator
	// accounting — it never reaches the simulation.
	lastUsed atomic.Int64
	// inflight counts requests between lookup and completion. The idle
	// sweeper skips sessions with in-flight requests: without the guard a
	// sweep racing a slow Submit could evict the session mid-request, so the
	// client would get a 200 whose decision is unreachable afterwards.
	inflight atomic.Int32
}

// touch stamps the session as just used.
func (s *session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

// shardCount spreads sessions over independently locked maps so concurrent
// requests to different sessions rarely contend on registry locks.
const shardCount = 16

type shard struct {
	mu       sync.Mutex
	sessions map[string]*session
}

// store is the sharded session registry: bounded capacity, sequential IDs,
// and wall-clock idle eviction (the only place the service layer reads real
// time).
type store struct {
	max    int
	count  atomic.Int64
	nextID atomic.Int64
	now    func() time.Time
	shards [shardCount]shard
}

func newStore(max int, now func() time.Time) *store {
	st := &store{max: max, now: now}
	if st.now == nil {
		st.now = time.Now //lint:allow wallclock — idle-eviction accounting is operator time, not simulation time
	}
	for i := range st.shards {
		st.shards[i].sessions = make(map[string]*session)
	}
	return st
}

func (st *store) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id)) //lint:allow errignore — fnv's Write cannot fail
	return &st.shards[h.Sum32()%shardCount]
}

// errFull reports a registry at capacity; the server maps it to 503.
var errFull = fmt.Errorf("serve: session registry full")

// errExists reports an insert under an ID already live on this worker; the
// server maps it to 409.
var errExists = fmt.Errorf("serve: session ID already in use")

// allocID reserves the next sequential session ID. IDs are allocated
// before insertion so the journal header can carry the ID from its first
// byte.
func (st *store) allocID() string {
	return fmt.Sprintf("s-%d", st.nextID.Add(1))
}

// insert registers a session under its previously allocated (or
// imported) ID. The capacity check is an atomic reserve-then-verify so
// concurrent creates cannot overshoot max; an ID already live on the
// worker is refused (a control plane re-importing a session it failed to
// release must hear about it, not silently shadow the live copy).
func (st *store) insert(s *session) error {
	if st.count.Add(1) > int64(st.max) {
		st.count.Add(-1)
		return errFull
	}
	s.touch(st.now())
	sh := st.shardFor(s.id)
	sh.mu.Lock()
	if _, dup := sh.sessions[s.id]; dup {
		sh.mu.Unlock()
		st.count.Add(-1)
		return errExists
	}
	sh.sessions[s.id] = s
	sh.mu.Unlock()
	return nil
}

// get looks a session up, stamps it used, and marks one request in flight;
// every lookup must be paired with a release once the request is done.
func (st *store) get(id string) (*session, bool) {
	sh := st.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		s.inflight.Add(1)
	}
	sh.mu.Unlock()
	if ok {
		s.touch(st.now())
	}
	return s, ok
}

// release marks a request done: the idle clock restarts at request
// completion (so a long-running request cannot expire mid-flight and then
// be evicted before the client's follow-up), and the in-flight guard
// drops. The touch happens before the decrement: once the sweeper can see
// inflight == 0, lastUsed is already fresh.
func (st *store) release(s *session) {
	s.touch(st.now())
	s.inflight.Add(-1)
}

// remove evicts a session, reporting whether it existed.
func (st *store) remove(id string) bool {
	sh := st.shardFor(id)
	sh.mu.Lock()
	_, ok := sh.sessions[id]
	delete(sh.sessions, id)
	sh.mu.Unlock()
	if ok {
		st.count.Add(-1)
	}
	return ok
}

// size returns the live session count.
func (st *store) size() int { return int(st.count.Load()) }

// sweepIdle evicts every session idle longer than maxIdle and returns the
// evicted IDs in sorted order. Candidate IDs are collected first and
// re-checked under the shard lock, so a session touched mid-sweep
// survives; sessions with a request in flight are skipped outright — the
// idle clock restarts when the request releases, so a session can only be
// evicted between requests, never under one.
func (st *store) sweepIdle(maxIdle time.Duration) []string {
	cutoff := st.now().Add(-maxIdle).UnixNano()
	var evicted []string
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		ids := make([]string, 0, len(sh.sessions))
		for id := range sh.sessions {
			ids = append(ids, id)
		}
		for _, id := range ids {
			s := sh.sessions[id]
			if s.inflight.Load() > 0 {
				continue
			}
			if s.lastUsed.Load() <= cutoff {
				delete(sh.sessions, id)
				st.count.Add(-1)
				evicted = append(evicted, id)
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(evicted)
	return evicted
}
