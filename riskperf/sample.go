package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples holds every measured duration of one operation class, in
// nanoseconds. A failed or refused operation enters as +Inf, so it misses
// every latency limit instead of vanishing from the distribution.
type samples struct {
	ns     []float64
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.ns = append(s.ns, float64(d))
	s.sorted = false
}

func (s *samples) addFailed() {
	s.ns = append(s.ns, math.Inf(1))
	s.sorted = false
}

func (s *samples) merge(o *samples) {
	s.ns = append(s.ns, o.ns...)
	s.sorted = false
}

func (s *samples) count() int { return len(s.ns) }

// quantile returns the nearest-rank q-quantile in nanoseconds: the
// smallest sample with at least a q share of the samples at or below it.
// It is always one of the samples, so it never exceeds the maximum. An
// empty set reads 0.
func (s *samples) quantile(q float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.ns)
		s.sorted = true
	}
	return s.ns[rankIndex(len(s.ns), q)]
}

// beyond returns how many samples lie strictly above the q-quantile's rank.
func (s *samples) beyond(q float64) int {
	if len(s.ns) == 0 {
		return 0
	}
	return len(s.ns) - 1 - rankIndex(len(s.ns), q)
}

// rankIndex is the nearest-rank index ceil(q·n)−1, clamped to the samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// tailQuantile is the highest quantile with at least ten samples beyond
// it — the deepest tail figure the sample count supports.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return float64(n-10) / float64(n)
}

func (s *samples) ms(q float64) float64 { return s.quantile(q) / 1e6 }

// describe renders the distribution for the human-readable report: p50,
// p90, p99, p99.9 and the deepest supported tail, each with the number of
// samples beyond it.
func (s *samples) describe(name string) string {
	n := s.count()
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s n=%-7d", name, n)
	for _, q := range []float64{0.50, 0.90, 0.99, 0.999, tailQuantile(n)} {
		fmt.Fprintf(&b, " p%s=%.4fms(+%d)", strconv.FormatFloat(100*q, 'g', 6, 64), s.ms(q), s.beyond(q))
	}
	return b.String()
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// counters are the Go runtime and OS figures read at the boundaries of the
// measured phase.
type counters struct {
	gcCount   uint32
	pauseNs   uint64
	allocB    uint64
	mallocs   uint64
	cpuSecond float64
}

func readCounters() (counters, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, err := cpuSeconds()
	if err != nil {
		return counters{}, err
	}
	return counters{
		gcCount: ms.NumGC, pauseNs: ms.PauseTotalNs, allocB: ms.TotalAlloc, mallocs: ms.Mallocs,
		cpuSecond: cpu,
	}, nil
}

// cpuSeconds returns the user and system CPU time the process has used.
// Time a shared host's other tenants hold the CPU (steal) is not in it.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// runtimeMetrics turns the counter difference over the measured phase into
// the go.* per-layer metrics.
func runtimeMetrics(m metricSet, before, after counters) {
	m.set("go.cpu_s", after.cpuSecond-before.cpuSecond)
	m.set("go.gc_count", float64(after.gcCount-before.gcCount))
	m.set("go.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
	m.set("go.alloc_mb", float64(after.allocB-before.allocB)/(1<<20))
	m.set("go.mallocs", float64(after.mallocs-before.mallocs))
}

// statusMB reads one kB field of /proc/self/status, such as VmRSS (the
// resident set) or VmHWM (its high-water mark), in MiB. Each workload runs
// in its own process, so the figure is the workload's alone.
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == field+":" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", field)
}
