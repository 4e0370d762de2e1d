package load

import (
	"math"
	"sync/atomic"
	"time"
)

// Log-bucketed histogram geometry: bucket 0 holds everything up to 1µs,
// each later bucket grows by ×1.25, so bucket i covers
// (1µs·1.25^(i-1), 1µs·1.25^i]. 96 buckets reach past 160s — beyond any
// sane request latency — and the last bucket is a catch-all.
const (
	bucketBase   = float64(time.Microsecond)
	bucketGrowth = 1.25
	bucketCount  = 96
)

// Histogram is a lock-free latency histogram with logarithmic buckets:
// ~25% relative quantile error, fixed memory, concurrent Record.
type Histogram struct {
	counts   [bucketCount]atomic.Int64
	total    atomic.Int64
	maxNanos atomic.Int64
}

func bucketOf(d time.Duration) int {
	if d <= time.Microsecond {
		return 0
	}
	i := int(math.Log(float64(d)/bucketBase)/math.Log(bucketGrowth)) + 1
	if i >= bucketCount {
		return bucketCount - 1
	}
	return i
}

// bucketUpper is bucket i's inclusive upper latency bound.
func bucketUpper(i int) time.Duration {
	if i == 0 {
		return time.Microsecond
	}
	return time.Duration(bucketBase * math.Pow(bucketGrowth, float64(i)))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
	for {
		cur := h.maxNanos.Load()
		if int64(d) <= cur || h.maxNanos.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Max returns the largest observation exactly (not bucket-rounded).
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNanos.Load()) }

// Quantile returns the upper bound of the bucket holding the q-th
// observation (0 < q ≤ 1), clamped to the exact maximum — a conservative
// estimate, never below the true quantile, never above the largest
// observation. The catch-all last bucket answers with the exact maximum.
// Zero observations answer zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < bucketCount; i++ {
		cum += h.counts[i].Load()
		if cum >= target {
			if i == bucketCount-1 {
				return h.Max()
			}
			return min(bucketUpper(i), h.Max())
		}
	}
	return h.Max()
}
