// Package control is the control plane of the service: a session-level
// router in front of a fleet of riskserved workers (the data plane).
//
// Clients speak the same /v1 session API to the control plane that they
// would speak to a standalone worker. The plane assigns session IDs,
// places each session on a worker by rendezvous placement over its worker
// table, and forwards session-scoped requests to the session's current
// owner. Worker membership is dynamic: workers register and deregister
// over /control/v1, a drain moves every session off a worker before it
// stops, and a health prober declares unresponsive workers dead.
//
// Sessions move between workers as journal bytes. The plane keeps a
// shadow journal per session: the worker's own journal lines, kept
// verbatim as each create, submit and finalize returns the line it
// appended (serve.JournalLineHeader). Every move is one placement of that
// shadow on a destination, which rebuilds the session by deterministic
// replay (serve.ImportSession) and refuses any journal whose replay is
// not bit-identical, so a move can never change an observable byte. A
// worker success the shadow cannot record is answered 502, never passed
// on.
//
// One rule places every session:
//
//   - Every route lives on its owner: of the workers that are healthy and
//     not draining, the one with the highest rendezvous score for the
//     session ID (a hash of worker name and ID), the smaller name on a
//     tie. The worker table is the only membership record.
//   - Every membership change reconciles: a join, a drain, a
//     deregistration and a death the prober declares each re-place, in
//     session-ID order, every route that is not on its owner.
//   - A placement imports the shadow on the destination first. A source
//     the plane still considers healthy is then released (a migration); a
//     dead or deregistered source is never contacted, nor is a source that
//     is the destination itself (a recovery).
//   - A failed placement leaves the route where it was, for the next
//     reconcile, or the session's next request, to retry.
//
// A forwarded request that finds its worker unreachable marks it dead, and
// one that finds the session gone (a 404 from a restarted worker, an idle
// eviction) is placed again; either way the request is retried once on
// the owner. Marking a worker dead there does not reconcile: forward
// holds the session's route mutex, and reconcile takes every route's. The
// dead worker's other sessions move on their own next request, or when the
// prober declares the worker dead (it does so for a worker forward has
// already marked), or at the next membership change.
//
// Lock discipline: plane.mu guards the worker registry and the route
// table, and is never held across worker I/O. Each route (one per
// session) has its own mutex serializing that session's forwarded
// requests and shadow appends; it is intentionally held across the
// forward round-trip — that per-session serialization is what keeps the
// shadow journal in request order. A route's mutex may be acquired before
// plane.mu, never after, and never two routes at once.
package control
