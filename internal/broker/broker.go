package broker

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// RunConfig parameterizes one federated run.
type RunConfig struct {
	// Model is the economic model shared by every cluster.
	Model economy.Model
	// Faults optionally gives each cluster its own failure process,
	// aligned with Federation.Clusters (nil entries disable injection for
	// that cluster). Nil means no faults anywhere. The caller derives each
	// config's seed — the experiment suite uses the cluster-stride
	// sub-seed convention (see experiment.ClusterFaultSeedStride).
	Faults []*faults.Config
	// FaultMemo optionally shares generated schedules with the other runs
	// that draw the same fault processes; every cluster session uses it
	// (see scheduler.RunConfig.FaultMemo). Nil generates them afresh.
	FaultMemo *faults.Memo
}

// Candidate is one statically feasible cluster's bid for a job: its index,
// price quote, earliest-availability estimate (+Inf when fault-shrunken
// below the job's width), and observed rejection fraction.
type Candidate struct {
	Cluster   int
	Quote     float64
	Available float64
	Risk      float64
}

// ClusterReport is one federation member's share of a finished run.
type ClusterReport struct {
	Name  string
	Nodes int
	// Routed counts jobs the broker placed on this cluster; Rejected
	// counts how many of those its admission control refused.
	Routed   int
	Rejected int
	Report   metrics.Report
}

// Result is a finished federated run: the aggregate report, the
// per-cluster breakdown in federation order, and the digest of the
// placement sequence.
type Result struct {
	Federation metrics.Report
	Clusters   []ClusterReport
	// RoutingDigest is an FNV-1a hash over the (job, cluster) placement
	// sequence — byte equality across runs proves routing determinism
	// without journaling every decision.
	RoutingDigest string
}

// Broker fronts a federation: one live scheduler session per cluster,
// advanced in lockstep with the global submission stream. Like a Session,
// a Broker is not safe for concurrent use.
type Broker struct {
	fed      Federation
	sessions []*scheduler.Session
	routed   []int
	rejected []int
	digest   uint64
	// scratch is the reusable candidate buffer of the routing loop.
	scratch []Candidate
	final   *Result
}

// fnvOffset and fnvPrime are the FNV-1a constants; the digest is folded
// incrementally per placement, so no placement is kept.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// New validates the federation and configuration and builds one session
// per cluster, each with its own policy instance from factory, its node
// ratings at the cluster's speed, its scaled base price, and its own fault
// process.
func New(fed Federation, factory scheduler.Factory, cfg RunConfig) (*Broker, error) {
	if err := fed.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults != nil && len(cfg.Faults) != len(fed.Clusters) {
		return nil, fmt.Errorf("broker: %d fault configs for %d clusters", len(cfg.Faults), len(fed.Clusters))
	}
	b := &Broker{
		fed:      fed,
		sessions: make([]*scheduler.Session, len(fed.Clusters)),
		routed:   make([]int, len(fed.Clusters)),
		rejected: make([]int, len(fed.Clusters)),
		scratch:  make([]Candidate, 0, len(fed.Clusters)),
	}
	for i, cs := range fed.Clusters {
		rc := scheduler.RunConfig{
			Nodes:     cs.Nodes,
			Model:     cfg.Model,
			BasePrice: economy.DefaultBasePrice * cs.priceFactor(),
			FaultMemo: cfg.FaultMemo,
		}
		// A neutral speed keeps NodeRatings nil so the cluster takes the
		// homogeneous fast path — and a degenerate 1-cluster federation
		// builds the machine exactly as the plain batch run does.
		if cs.speed() != 1 {
			rc.NodeRatings = cluster.UniformRatings(cs.Nodes, cs.speed())
		}
		if cfg.Faults != nil {
			rc.Faults = cfg.Faults[i]
		}
		s, err := scheduler.NewSession(factory, rc)
		if err != nil {
			return nil, fmt.Errorf("broker: cluster %q: %v", cs.Name, err)
		}
		b.sessions[i] = s
	}
	return b, nil
}

// place is the routing core: shop the statically feasible clusters, pick
// one, submit, and return the chosen cluster's index. Run has already
// checked every job: valid, with QoS, in submission order, and no wider
// than the widest cluster.
func (b *Broker) place(j *workload.Job) (int, error) {
	// Static fit first: only clusters large enough to ever host the width
	// are shopped. With a single feasible cluster the choice is forced and
	// shopping is skipped entirely — in a 1-cluster federation the session
	// sees the identical call sequence as the plain batch run.
	b.scratch = b.scratch[:0]
	sole := -1
	feasible := 0
	for i, cs := range b.fed.Clusters {
		if j.Procs <= cs.Nodes {
			sole = i
			feasible++
		}
	}
	pick := sole
	if feasible > 1 {
		for i := range b.fed.Clusters {
			if j.Procs > b.fed.Clusters[i].Nodes {
				continue
			}
			s := b.sessions[i]
			s.AdvanceTo(j.Submit)
			at, err := s.EarliestAvailable(j.Procs)
			if err != nil {
				return 0, fmt.Errorf("broker: cluster %q: %v", b.fed.Clusters[i].Name, err)
			}
			risk := 0.0
			if b.routed[i] > 0 {
				risk = float64(b.rejected[i]) / float64(b.routed[i])
			}
			b.scratch = append(b.scratch, Candidate{
				Cluster:   i,
				Quote:     s.QuoteFor(j),
				Available: at,
				Risk:      risk,
			})
		}
		pick = PickCluster(b.scratch)
	}

	adm, err := b.sessions[pick].SubmitQuoteless(j)
	if err != nil {
		return 0, fmt.Errorf("broker: cluster %q: %v", b.fed.Clusters[pick].Name, err)
	}
	b.routed[pick]++
	if adm == scheduler.AdmissionRejected {
		b.rejected[pick]++
	}
	b.digest = foldRoute(b.digest, j.ID, pick)
	return pick, nil
}

// foldRoute folds one placement into the incremental FNV-1a digest.
func foldRoute(h uint64, jobID, cluster int) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(int64(jobID)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(cluster)))
	for _, c := range buf {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// PickCluster returns the cluster index of the best candidate under the
// routing tie-break, a fixed lexicographic order over (feasibility, quote,
// availability, risk, index):
//
//  1. a finite availability beats +Inf (never route to a fault-shrunken
//     cluster that can never fit the job while another one can);
//  2. lower quote;
//  3. earlier availability;
//  4. lower risk (observed rejection fraction);
//  5. lower cluster index.
//
// The order is total and side-effect-free, so routing is a pure function
// of the candidate list; NaN fields compare as equal at their rule and
// fall through to the next. Returns -1 for no candidates.
//
//lint:hot PickCluster runs once per (job, shopped cluster) at trace scale.
func PickCluster(cands []Candidate) int {
	if len(cands) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if betterCandidate(cands[i], cands[best]) {
			best = i
		}
	}
	return cands[best].Cluster
}

// betterCandidate reports whether a strictly precedes b in the routing
// order. It allocates nothing (see the hotalloc lint root on PickCluster).
func betterCandidate(a, b Candidate) bool {
	af, bf := !math.IsInf(a.Available, 1), !math.IsInf(b.Available, 1)
	if af != bf {
		return af
	}
	if a.Quote != b.Quote && !(math.IsNaN(a.Quote) || math.IsNaN(b.Quote)) {
		return a.Quote < b.Quote
	}
	if a.Available != b.Available && !(math.IsNaN(a.Available) || math.IsNaN(b.Available)) {
		return a.Available < b.Available
	}
	if a.Risk != b.Risk && !(math.IsNaN(a.Risk) || math.IsNaN(b.Risk)) {
		return a.Risk < b.Risk
	}
	return a.Cluster < b.Cluster
}

// Finalize drains every cluster session in federation order and returns
// the merged result. Finalize is idempotent.
func (b *Broker) Finalize() *Result {
	if b.final != nil {
		return b.final
	}
	res := &Result{
		Clusters:      make([]ClusterReport, len(b.fed.Clusters)),
		RoutingDigest: fmt.Sprintf("%016x", b.digest),
	}
	for i, cs := range b.fed.Clusters {
		res.Clusters[i] = ClusterReport{
			Name:     cs.Name,
			Nodes:    cs.Nodes,
			Routed:   b.routed[i],
			Rejected: b.rejected[i],
			Report:   b.sessions[i].Finalize(),
		}
	}
	res.Federation = MergeReports(res.Clusters)
	b.final = res
	return res
}

// MergeReports reduces per-cluster reports into the federation report.
// Every count and settlement total is an ordered sum over the clusters in
// federation order — so conservation (federation total = sum of cluster
// totals) holds bitwise, not just within floating-point tolerance — and
// every ratio objective is recomputed from the summed numerators and
// denominators. The per-job means reweight exactly: Wait by SLA-fulfilled
// count, slowdown and response time by finished count, utilization by
// machine size. A single cluster's report is returned verbatim.
func MergeReports(clusters []ClusterReport) metrics.Report {
	if len(clusters) == 0 {
		panic("broker: merging no cluster reports")
	}
	if len(clusters) == 1 {
		return clusters[0].Report
	}
	var out metrics.Report
	var waitSum, slowSum, respSum, utilSum float64
	nodes := 0
	for _, c := range clusters {
		r := c.Report
		out.Submitted += r.Submitted
		out.Accepted += r.Accepted
		out.SLAFulfilled += r.SLAFulfilled
		out.Killed += r.Killed
		out.Finished += r.Finished
		out.TotalUtility += r.TotalUtility
		out.TotalBudget += r.TotalBudget
		waitSum += r.Wait * float64(r.SLAFulfilled)
		slowSum += r.MeanSlowdown * float64(r.Finished)
		respSum += r.MeanResponseTime * float64(r.Finished)
		utilSum += r.Utilization * float64(c.Nodes)
		nodes += c.Nodes
	}
	if out.SLAFulfilled > 0 {
		out.Wait = waitSum / float64(out.SLAFulfilled)
	}
	if out.Submitted > 0 {
		out.SLA = float64(out.SLAFulfilled) / float64(out.Submitted) * 100
	}
	if out.Accepted > 0 {
		out.Reliability = float64(out.SLAFulfilled) / float64(out.Accepted) * 100
	}
	if out.TotalBudget > 0 {
		out.Profitability = out.TotalUtility / out.TotalBudget * 100
	}
	if out.Finished > 0 {
		out.MeanSlowdown = slowSum / float64(out.Finished)
		out.MeanResponseTime = respSum / float64(out.Finished)
	}
	if nodes > 0 {
		out.Utilization = utilSum / float64(nodes)
	}
	return out
}

// Run simulates the full workload through the federation and returns the
// merged result — the federated counterpart of scheduler.Run. Jobs must be
// sorted by submission time and carry QoS parameters; every job is
// validated up front so nothing is simulated on invalid input.
func Run(jobs []*workload.Job, fed Federation, factory scheduler.Factory, cfg RunConfig) (*Result, error) {
	if err := fed.Validate(); err != nil {
		return nil, err
	}
	// A job fits the federation if it fits its widest cluster.
	if err := scheduler.CheckTrace(jobs, fed.MaxNodes()); err != nil {
		return nil, err
	}
	b, err := New(fed, factory, cfg)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if _, err := b.place(j); err != nil {
			return nil, err
		}
	}
	return b.Finalize(), nil
}
