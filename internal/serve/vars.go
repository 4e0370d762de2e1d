package serve

import "expvar"

// The process-wide expvar counters the daemon serves under /debug/vars.
// expvar registration is global and permanent, so every Server in a
// process (tests included) shares them.
var (
	sessionsCreated  = expvar.NewInt("serve.sessions_created")  // sessions created over the process lifetime
	sessionsEvicted  = expvar.NewInt("serve.sessions_evicted")  // sessions removed (DELETE or idle sweep)
	sessionsImported = expvar.NewInt("serve.sessions_imported") // sessions rebuilt by journal replay (migration in)
	sessionsReleased = expvar.NewInt("serve.sessions_released") // sessions handed off for migration (migration out)
	jobsSubmitted    = expvar.NewInt("serve.jobs_submitted")    // jobs accepted into a session's trace
	requestsShed     = expvar.NewInt("serve.requests_rejected") // requests shed by the concurrency or capacity limit
)
