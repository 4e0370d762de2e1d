package streamrisk

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Defaults for Config's zero fields.
const (
	DefaultWindow           = 64
	DefaultMaxSubscribers   = 32
	DefaultSubscriberBuffer = 64
)

// Config tunes an Engine.
type Config struct {
	// Window is the sliding-window size in decisions (DefaultWindow if 0).
	Window int
	// MaxSubscribers bounds concurrent subscriptions; Subscribe fails
	// beyond it (DefaultMaxSubscribers if 0).
	MaxSubscribers int
	// SubscriberBuffer is each subscriber's delta buffer; when full, new
	// deltas are dropped and the subscriber is flagged for a resync
	// (DefaultSubscriberBuffer if 0).
	SubscriberBuffer int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.MaxSubscribers <= 0 {
		c.MaxSubscribers = DefaultMaxSubscribers
	}
	if c.SubscriberBuffer <= 0 {
		c.SubscriberBuffer = DefaultSubscriberBuffer
	}
	return c
}

// Delta kinds.
const (
	DeltaDecision = "decision"
	DeltaFinal    = "final"
)

// Delta is one published engine update: the event's identity plus fresh
// Scores for every scope it touched. It is a pure value — publishing copies
// it into subscriber buffers without allocating.
type Delta struct {
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"` // DeltaDecision or DeltaFinal
	Session string `json:"session"`
	Policy  string `json:"policy"`
	Cluster string `json:"cluster"` // the session's cluster/economic model

	SessionScores Scores `json:"session_scores"`
	PolicyScores  Scores `json:"policy_scores"`
	ClusterScores Scores `json:"cluster_scores"`
	Global        Scores `json:"global"`
}

// ScopeScores is one named scope's Scores in a Snapshot.
type ScopeScores struct {
	Name string `json:"name"`
	Scores
}

// SessionScopeScores is one session's Scores in a Snapshot.
type SessionScopeScores struct {
	ID      string `json:"id"`
	Policy  string `json:"policy"`
	Cluster string `json:"cluster"`
	Scores
}

// Snapshot is the engine's full state at one sequence number: the anchor a
// subscriber starts from (then applies deltas with Seq > Snapshot.Seq), and
// the resync payload after a drop.
type Snapshot struct {
	Seq uint64 `json:"seq"`
	// Published and Dropped count deltas fanned out and deltas discarded on
	// full subscriber buffers since the engine started.
	Published uint64 `json:"published"`
	Dropped   uint64 `json:"dropped"`

	Global   Scores               `json:"global"`
	Policies []ScopeScores        `json:"policies,omitempty"`
	Clusters []ScopeScores        `json:"clusters,omitempty"`
	Sessions []SessionScopeScores `json:"sessions,omitempty"`
}

// sessionState is one live session's tracker plus its scope labels.
type sessionState struct {
	policy  string
	cluster string
	t       *tracker
}

// Engine is the incremental risk engine: an obs.SessionObserver that folds
// journal events into per-session/policy/cluster/global trackers and fans
// score deltas out to subscribers. All methods are safe for concurrent use;
// the ingest path holds e.mu only for the in-memory fold (no I/O, no
// channel operations — enforced by repolint's lockflow rule) and never
// blocks on subscribers.
type Engine struct {
	cfg Config

	mu       sync.Mutex
	seq      uint64
	global   *tracker
	policies map[string]*tracker
	clusters map[string]*tracker
	sessions map[string]*sessionState

	fan fanout
}

// NewEngine returns an empty engine.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:      cfg,
		global:   newTracker(cfg.Window),
		policies: make(map[string]*tracker),
		clusters: make(map[string]*tracker),
		sessions: make(map[string]*sessionState),
	}
}

// session returns the session's state, creating it on first sight.
// Callers hold e.mu.
func (e *Engine) session(h obs.SessionHeader) *sessionState {
	ss := e.sessions[h.ID]
	if ss == nil {
		ss = &sessionState{policy: h.Policy, cluster: h.Model, t: newTracker(e.cfg.Window)} //lint:allow hotalloc — once per session, not per event
		e.sessions[h.ID] = ss
	}
	return ss
}

// scope returns the named tracker in m, creating it on first sight.
// Callers hold e.mu.
func (e *Engine) scope(m map[string]*tracker, name string) *tracker {
	t := m[name]
	if t == nil {
		t = newTracker(e.cfg.Window)
		m[name] = t
	}
	return t
}

// JournalDecision ingests one admission decision (obs.SessionObserver).
// It runs once per admission decision on the serve request path, under the
// owning session's mutex; it must not allocate at steady state.
//
//lint:hot — per-decision serve request path
func (e *Engine) JournalDecision(h obs.SessionHeader, d obs.SessionDecision) {
	smp := DecisionSamples(d)
	e.mu.Lock()
	ss := e.session(h)
	pt := e.scope(e.policies, h.Policy)
	ct := e.scope(e.clusters, h.Model)
	ss.t.decision(d, smp)
	pt.decision(d, smp)
	ct.decision(d, smp)
	e.global.decision(d, smp)
	e.seq++
	delta := Delta{
		Seq: e.seq, Kind: DeltaDecision,
		Session: h.ID, Policy: h.Policy, Cluster: h.Model,
		SessionScores: ss.t.snapshot(), PolicyScores: pt.snapshot(),
		ClusterScores: ct.snapshot(), Global: e.global.snapshot(),
	}
	// Hand over hand: the fan-out lock is taken before e.mu is released,
	// so deltas reach subscribers in seq order.
	e.fan.mu.Lock()
	e.mu.Unlock()
	e.fan.publishLocked(delta)
	e.fan.mu.Unlock()
}

// JournalFinal ingests one final report (obs.SessionObserver).
//
//lint:hot — same path discipline as JournalDecision.
func (e *Engine) JournalFinal(h obs.SessionHeader, r metrics.Report) {
	e.mu.Lock()
	ss := e.session(h)
	pt := e.scope(e.policies, h.Policy)
	ct := e.scope(e.clusters, h.Model)
	ss.t.final(r)
	pt.final(r)
	ct.final(r)
	e.global.final(r)
	e.seq++
	delta := Delta{
		Seq: e.seq, Kind: DeltaFinal,
		Session: h.ID, Policy: h.Policy, Cluster: h.Model,
		SessionScores: ss.t.snapshot(), PolicyScores: pt.snapshot(),
		ClusterScores: ct.snapshot(), Global: e.global.snapshot(),
	}
	e.fan.mu.Lock() // hand over hand, as in JournalDecision
	e.mu.Unlock()
	e.fan.publishLocked(delta)
	e.fan.mu.Unlock()
}

// IngestRecord replays a parsed journal into the engine in journal order —
// how an importing worker catches its engine up on a migrated session's
// history before live events resume.
func (e *Engine) IngestRecord(rec *obs.SessionRecord) {
	for _, d := range rec.Decisions {
		e.JournalDecision(rec.Header, d)
	}
	if rec.Final != nil {
		e.JournalFinal(rec.Header, rec.Final.Report)
	}
}

// ForgetSession drops a session's tracker (after migration away, deletion,
// or idle eviction). Policy, cluster, and global scopes keep the session's
// history: they score everything the engine has ingested, not the sessions
// currently resident.
func (e *Engine) ForgetSession(id string) {
	e.mu.Lock()
	delete(e.sessions, id)
	e.mu.Unlock()
}

// Snapshot returns the engine's full state, scopes sorted by name.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	snap := e.snapshotLocked()
	e.mu.Unlock()
	return snap
}

func (e *Engine) snapshotLocked() Snapshot {
	published, dropped := e.fan.counts()
	snap := Snapshot{
		Seq: e.seq, Published: published, Dropped: dropped,
		Global: e.global.snapshot(),
	}
	for _, name := range sortedKeys(e.policies) {
		snap.Policies = append(snap.Policies, ScopeScores{Name: name, Scores: e.policies[name].snapshot()})
	}
	for _, name := range sortedKeys(e.clusters) {
		snap.Clusters = append(snap.Clusters, ScopeScores{Name: name, Scores: e.clusters[name].snapshot()})
	}
	ids := make([]string, 0, len(e.sessions))
	for id := range e.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ss := e.sessions[id]
		snap.Sessions = append(snap.Sessions, SessionScopeScores{
			ID: id, Policy: ss.policy, Cluster: ss.cluster, Scores: ss.t.snapshot(),
		})
	}
	return snap
}

func sortedKeys(m map[string]*tracker) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Subscription is one subscriber's handle: the initial snapshot taken at
// subscribe time, and the live delta channel. Deltas with Seq ≤ the
// snapshot's Seq may still arrive (a publish racing the subscribe) and must
// be discarded; every delta with Seq > Snapshot().Seq is either delivered
// on C or accounted for by TakeDropped.
type Subscription struct {
	ch      chan Delta
	snap    Snapshot
	dropped atomic.Bool
}

// C is the delta channel. It is never closed; consumers stop via their own
// context and Unsubscribe.
func (s *Subscription) C() <-chan Delta { return s.ch }

// Snapshot returns the state anchor captured at subscribe time.
func (s *Subscription) Snapshot() Snapshot { return s.snap }

// TakeDropped reports whether any delta was dropped on this subscription's
// full buffer since the last call, clearing the flag — the signal to fetch
// a fresh Snapshot and resync.
func (s *Subscription) TakeDropped() bool { return s.dropped.Swap(false) }

// Subscribe registers a subscriber and captures its starting snapshot. It
// fails once MaxSubscribers subscriptions are live.
func (e *Engine) Subscribe() (*Subscription, error) {
	sub := &Subscription{ch: make(chan Delta, e.cfg.SubscriberBuffer)}
	// Register first, snapshot second: any delta sequenced after the
	// snapshot is then guaranteed to reach the already-registered buffer
	// (or trip its dropped flag); duplicates below the snapshot's Seq are
	// the subscriber's to discard.
	if err := e.fan.register(sub, e.cfg.MaxSubscribers); err != nil {
		return nil, err
	}
	e.mu.Lock()
	sub.snap = e.snapshotLocked()
	e.mu.Unlock()
	return sub, nil
}

// Unsubscribe removes the subscriber; its channel is left open (a publish
// may be copying into it concurrently) and simply stops filling.
func (e *Engine) Unsubscribe(sub *Subscription) {
	e.fan.unregister(sub)
}

// fanout is the subscriber set. Its mutex is held only for slice walks and
// non-blocking channel sends — never for I/O — so a stalled subscriber
// costs one failed send, not a blocked ingest.
type fanout struct {
	mu        sync.Mutex
	subs      []*Subscription
	published uint64
	dropped   uint64
}

func (f *fanout) register(sub *Subscription, limit int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.subs) >= limit {
		return fmt.Errorf("streamrisk: subscriber limit %d reached", limit)
	}
	f.subs = append(f.subs, sub)
	return nil
}

func (f *fanout) unregister(sub *Subscription) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, s := range f.subs {
		if s == sub {
			f.subs = append(f.subs[:i], f.subs[i+1:]...)
			return
		}
	}
}

func (f *fanout) counts() (published, dropped uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.published, f.dropped
}

// publishLocked copies the delta to every subscriber that has buffer room
// and flags the rest for resync. Callers hold f.mu, taken while they still
// held e.mu, so deltas are published in the order their seq was assigned;
// e.mu is released before the sends, so none runs under it.
func (f *fanout) publishLocked(d Delta) {
	f.published++
	for _, s := range f.subs {
		select {
		case s.ch <- d:
		default:
			s.dropped.Store(true)
			f.dropped++
		}
	}
}
