package workload

// TraceStats summarizes a trace against the figures the paper reports for
// its SDSC SP2 subset (mean inter-arrival 1969 s, mean runtime 8671 s, mean
// width 17 processors, 8% under-estimates).
type TraceStats struct {
	Jobs              int
	MeanInterArrival  float64
	MeanRuntime       float64
	MeanWidth         float64
	MaxWidth          int
	Span              float64 // first submit to last completion (dedicated)
	UnderEstimateFrac float64
	// OfferedUtilization is total work / (nodes × span): the load the trace
	// offers a machine of the given size if jobs ran back-to-back.
	OfferedUtilization float64
}

// Stats computes TraceStats for jobs on a machine with the given node
// count.
func Stats(jobs []*Job, nodes int) TraceStats {
	var ts TraceStats
	ts.Jobs = len(jobs)
	if len(jobs) == 0 {
		return ts
	}
	var work, runtimeSum, widthSum float64
	under := 0
	end := 0.0
	for _, j := range jobs {
		runtimeSum += j.Runtime
		widthSum += float64(j.Procs)
		work += j.Runtime * float64(j.Procs)
		if j.Procs > ts.MaxWidth {
			ts.MaxWidth = j.Procs
		}
		if j.Estimate < j.Runtime {
			under++
		}
		if fin := j.Submit + j.Runtime; fin > end {
			end = fin
		}
	}
	n := float64(len(jobs))
	ts.MeanRuntime = runtimeSum / n
	ts.MeanWidth = widthSum / n
	ts.UnderEstimateFrac = float64(under) / n
	ts.Span = end - jobs[0].Submit
	if len(jobs) > 1 {
		ts.MeanInterArrival = (jobs[len(jobs)-1].Submit - jobs[0].Submit) / (n - 1)
	}
	if nodes > 0 && ts.Span > 0 {
		ts.OfferedUtilization = work / (float64(nodes) * ts.Span)
	}
	return ts
}
