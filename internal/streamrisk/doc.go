// Package streamrisk computes the paper's risk analysis incrementally over
// live session-journal streams.
//
// An Engine subscribes to session journals (obs.SessionObserver) and folds
// every decision and final-report event, in journal order, into per-session,
// per-policy, per-cluster-model, and global trackers. Each tracker maintains
// counts and settlement sums, cumulative separate/integrated risk scores
// (risk.ScoreSums / risk.IntegrateEqual — the streaming forms of Eqs. 5–8),
// and sliding-window scores over the last W decisions (stats.Welford over a
// ring buffer).
//
// The load-bearing invariant: after the final journal event, the cumulative
// scores are bit-identical to the offline internal/risk computation on the
// same journal (OfflineScores). The differential battery in this package
// proves it across the Table V policy matrix × fault intensities × seeds,
// including under a kill/replay migration mid-stream.
//
// Engines fan deltas out to bounded subscribers without ever blocking the
// ingest hot path: a slow consumer's buffer overflows, the delta is dropped,
// and the consumer is flagged for a snapshot resync (see the SSE handlers).
// Score computation never reads the wall clock — event time comes from the
// journal — and the ingest path does not allocate at steady state; both are
// enforced by repolint (wallclock, hotalloc) and a zero-alloc test.
package streamrisk
