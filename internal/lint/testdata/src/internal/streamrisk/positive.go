// Package streamrisk is the positive golden case for the rules scoped to
// the streaming risk engine: lockflow treats the Engine's mutex as hot
// (its fold runs on the serve request path), and floateq covers the
// incremental score math.
package streamrisk

import (
	"io"
	"sync"
)

// Engine mirrors the real engine's shape: lockflow keys hot-mutex
// detection off the named type.
type Engine struct {
	mu  sync.Mutex
	out chan float64
}

// SendsUnderEngine performs a channel send while holding the engine mutex:
// a stalled subscriber would block every ingest behind it.
func SendsUnderEngine(e *Engine, v float64) {
	e.mu.Lock()
	e.out <- v // want lockflow "channel send while holding hot mutex"
	e.mu.Unlock()
}

// WritesUnderEngine performs I/O while holding the engine mutex.
func WritesUnderEngine(e *Engine, w io.Writer) {
	e.mu.Lock()
	w.Write(nil) // want lockflow "Write while holding hot mutex"
	e.mu.Unlock()
}

// SameScore compares incremental scores exactly.
func SameScore(a, b float64) bool {
	return a == b // want floateq "=="
}
