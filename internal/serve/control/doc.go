// Package control is the control plane of the service: a session-level
// router in front of a fleet of riskserved workers (the data plane).
//
// Clients speak the same /v1 session API to the control plane that they
// would speak to a standalone worker. The plane assigns session IDs,
// places each session on a worker via consistent hashing (see
// internal/serve/ring), and forwards session-scoped requests to the
// session's current owner. Worker membership is dynamic: workers register
// and deregister over /control/v1, a drain moves every session off a
// worker before it stops, and a health prober declares unresponsive
// workers dead.
//
// Sessions move between workers as journal bytes. The plane keeps a
// shadow journal per session: the worker's own journal lines, kept
// verbatim as each create, submit and finalize returns the line it
// appended (serve.JournalLineHeader). A planned move (drain, rebalance
// after a join) imports the shadow on the destination, which rebuilds the
// session by deterministic replay (serve.ImportSession) and refuses any
// journal whose replay is not bit-identical, and then releases the source;
// a recovery imports the shadow onto the session's ring owner, after a
// crash or after a live worker answered 404 for a session it lost (a
// restart, an idle eviction). Either way the rebuilt session is
// byte-for-byte the session the client was talking to, so a migration can
// never change an observable byte. A worker success the shadow cannot
// record is answered 502, never passed on.
//
// Lock discipline: plane.mu guards the worker registry, the ring, and the
// route table, and is never held across worker I/O. Each route (one per
// session) has its own mutex serializing that session's forwarded
// requests and shadow appends; it is intentionally held across the
// forward round-trip — that per-session serialization is what keeps the
// shadow journal in request order. A route's mutex may be acquired before
// plane.mu, never after, and never two routes at once.
package control
