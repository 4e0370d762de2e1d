// Package sim provides a minimal deterministic discrete event simulation
// kernel: a virtual clock and a priority queue of timestamped events.
//
// The kernel is intentionally small. Entities (clusters, schedulers,
// workload feeders) schedule callbacks at future virtual times; the engine
// dispatches them in (time, sequence) order so that runs are bit-for-bit
// reproducible regardless of map iteration or goroutine scheduling. A single
// simulation runs on one goroutine; parallelism in this repository happens
// across simulations, not inside one — experiment.Run fans a suite out as
// (cell, replication) units over a worker pool, each unit owning a private
// Engine, and reduces the results in a fixed order (see
// docs/performance.md, "Replication fan-out").
//
// # Performance model
//
// The kernel is the innermost loop of every simulation, so it holds three
// invariants (measured by cmd/benchjson's sim/* probes and pinned by the
// BENCH_<n>.json trajectory):
//
//   - Zero steady-state allocations. Event records live on a per-engine
//     free list; firing or cancelling an event recycles its record, and the
//     next ScheduleClass reuses it. Only heap/pool growth allocates.
//   - No interface dispatch on the hot path. The priority queue is a
//     concrete binary heap over *event with inlined (time, seq) comparisons
//     rather than container/heap's interface-driven sift.
//   - Labels are static strings. ScheduleClass takes the label by value,
//     names the event by it only in its errors, and neither formats nor
//     stores it otherwise; call sites must not build labels with
//     fmt.Sprintf in hot paths. The Event handle is the record pointer and
//     its generation, 16 bytes.
//
// Recycling is safe against stale handles: Event is a value handle carrying
// a generation number, and every recycle bumps the record's generation, so
// Cancel on a fired, cancelled, or reused event is a detectable no-op
// rather than a corruption (see Event).
//
// # Determinism contract
//
// The engine never reads the wall clock, never consults a global random
// source, and never iterates a map on a dispatch path; the repolint
// analyzers (wallclock, globalrand, maporder) machine-check those rules
// across the repository. Ties at the same virtual time break by schedule
// sequence number, so the order in which handlers schedule follow-up
// events is itself reproducible. These properties are what make the
// higher layers' oracles — canonical journals, golden session transcripts,
// byte-equal plot panels — meaningful.
package sim
