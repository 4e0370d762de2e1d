// Package control is the positive golden case for the lockflow rule in
// the control plane. A scope entry matches one package, not its subtree,
// so the rule names internal/serve/control besides internal/serve. The
// plane's reconcile pass takes each route's lock in turn, and a route
// lock leaked by an early return or a loop would stall every request to
// that session.
package control

import "sync"

type route struct {
	mu     sync.Mutex
	worker string
}

// PlaceLeaks returns with the route's lock held when there is no
// destination.
func PlaceLeaks(r *route, dst string) {
	r.mu.Lock()
	if dst == "" {
		return // want lockflow "return while holding"
	}
	r.worker = dst
	r.mu.Unlock()
}

// ReconcileLeaks locks every route and releases none.
func ReconcileLeaks(routes []*route, dst string) {
	for _, r := range routes {
		r.mu.Lock() // want lockflow "no matching Unlock"
		r.worker = dst
	}
}
