package control

import "expvar"

// The process-wide expvar counters the control plane serves under
// /debug/vars. expvar registration is global and permanent, so every Plane
// in a process (tests included) shares them.
var (
	sessionsCreated   = expvar.NewInt("control.sessions_created")   // sessions placed across the fleet
	jobsForwarded     = expvar.NewInt("control.jobs_forwarded")     // job submissions forwarded to workers
	migrations        = expvar.NewInt("control.migrations")         // placements that released a healthy source (drain, join, deregistration)
	recoveries        = expvar.NewInt("control.recoveries")         // placements from the shadow alone: the source is dead, deregistered, or the destination itself
	workersRegistered = expvar.NewInt("control.workers_registered") // worker registrations over the process lifetime
)
