package cluster

// Test-only accessors of the cluster models: the scheduling policies read
// a machine through CanStart, FreeShare and the availability queries, and
// never through these; the model tests use them to observe node and job
// state directly.

// Rating returns node i's speed multiplier.
func (s *SpaceShared) Rating(i int) float64 { return s.ratings[i] }

// UpNodes returns the number of nodes currently operational.
func (s *SpaceShared) UpNodes() int {
	up := 0
	for _, down := range s.down {
		if !down {
			up++
		}
	}
	return up
}

// NodeDown reports whether node i is currently failed.
func (s *SpaceShared) NodeDown(i int) bool { return s.down[i] }

// RunningCount returns the number of jobs currently executing.
func (s *SpaceShared) RunningCount() int { return len(s.running) }

// Progress returns the actual work completed so far, in processor-seconds
// at rate 1 (callers must have triggered an advance via a TimeShared query
// at the current time; all exported TimeShared methods do so).
func (t *TSJob) Progress() float64 { return t.progress }

// Lapsed reports whether the job's share booking has expired (it is still
// running past its own absolute deadline).
func (t *TSJob) Lapsed() bool { return t.lapsed }

// Rate returns the current execution rate.
func (t *TSJob) Rate() float64 { return t.rate }

// Rating returns node i's speed multiplier.
func (t *TimeShared) Rating(i int) float64 { return t.nodes[i].rating }

// NodeDown reports whether node i is currently failed.
func (t *TimeShared) NodeDown(i int) bool { return t.nodes[i].down }

// Load returns the booked processor fraction on node i.
func (t *TimeShared) Load(i int) float64 { return t.nodes[i].booked }
