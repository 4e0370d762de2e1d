// Package broker implements the federation meta-broker: a deterministic
// front-end over N heterogeneous clusters, each running its own scheduling
// policy instance on its own machine (size, node speed, price level, fault
// process), with jobs admitted cluster-by-cluster via quote-shopping.
//
// For every job the broker advances each statically feasible cluster's
// session to the submission instant, collects a price quote
// (scheduler.Session.QuoteFor — every Table V policy prices through the
// session's economic model) and an earliest-availability estimate
// (scheduler.AvailabilityEstimator), and routes the job to the best
// candidate under a fixed lexicographic tie-break (PickCluster): feasible
// now beats fault-shrunken, then lower quote, earlier availability, lower
// observed rejection rate, lower cluster index. The order is total and
// input-deterministic, so a federated run is exactly reproducible; the
// routing sequence is digested into the run journal as the determinism
// oracle.
//
// A 1-cluster federation with neutral speed and price degenerates to the
// plain single-cluster batch path bit for bit: the broker submits through
// the identical quote-free scheduler.Session machinery, and the federation
// report of a single cluster is that cluster's report verbatim. The
// experiment suite relies on this: it runs the single machine as that
// federation. See docs/architecture.md, "Federation".
package broker
