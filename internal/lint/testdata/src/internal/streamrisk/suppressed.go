package streamrisk

import "sync"

// fanout is not a hot type: its mutex may be held across the non-blocking
// sends that fan deltas out.
type fanout struct {
	mu   sync.Mutex
	subs chan float64
}

// Publish holds the fanout mutex across a send: allowed (only the shard
// and Engine mutexes gate the ingest path).
func Publish(f *fanout, v float64) {
	f.mu.Lock()
	select {
	case f.subs <- v:
	default:
	}
	f.mu.Unlock()
}

// FoldThenPublish is the engine's real discipline: fold under the hot
// mutex, release, then publish.
func FoldThenPublish(e *Engine, f *fanout, v float64) {
	e.mu.Lock()
	sum := v + v
	e.mu.Unlock()
	Publish(f, sum)
}

// ZeroGuard is the sanctioned identity check on a value never computed.
func ZeroGuard(n float64) bool {
	return n == 0 //lint:allow floateq — fixture: exact-zero guard on a counter-backed value
}
