package metrics

import (
	"sync/atomic"
	"time"
)

// bounds is the one latency bucket table, 1-2-5 steps from 1µs to 10s
// (the last bucket of a Histogram is unbounded): a cached decision is
// sub-microsecond to a few µs, a served one tens of µs, executes and
// queueing push the tail to seconds.
var bounds = [...]time.Duration{
	1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, // 1µs … 500µs
	1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, // 1ms … 500ms
	1e9, 2e9, 5e9, 1e10, // 1s … 10s
}

// Histogram is a fixed-bucket concurrent latency histogram.
type Histogram struct {
	buckets  [len(bounds) + 1]atomic.Uint64
	sumNanos atomic.Uint64
	maxNanos atomic.Uint64
}

// Observe records one latency; negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(bounds) && d > bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNanos.Add(uint64(d))
	for {
		old := h.maxNanos.Load()
		if uint64(d) <= old || h.maxNanos.CompareAndSwap(old, uint64(d)) {
			return
		}
	}
}

// Snapshot returns the histogram's current state; Count is the sum of
// the buckets as read.
func (h *Histogram) Snapshot() LatencyStats {
	s := LatencyStats{SumNanos: h.sumNanos.Load(), Max: time.Duration(h.maxNanos.Load())}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// LatencyStats is an immutable latency-histogram snapshot. Buckets holds
// per-bucket (not cumulative) counts over the package's bucket table,
// the last one unbounded; they always sum to Count.
type LatencyStats struct {
	Count    uint64
	SumNanos uint64
	Max      time.Duration
	Buckets  [len(bounds) + 1]uint64
}

// Mean returns the mean observed latency (0 when empty).
func (s LatencyStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// Quantile estimates the q-th latency quantile (0 < q < 1) from the
// histogram by locating the bucket holding the q-th observation and
// interpolating linearly within it. The unbounded overflow bucket
// interpolates toward the observed maximum. Fixed buckets bound the
// error to one bucket width — plenty for "is the decision path still
// microseconds" dashboards.
func (s LatencyStats) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum uint64
	var lower time.Duration
	for i, n := range s.Buckets {
		upper := max(s.Max, lower) // overflow bucket: interpolate to the observed max
		if i < len(bounds) {
			upper = bounds[i]
		}
		if n > 0 && float64(cum+n) >= rank {
			frac := (rank - float64(cum)) / float64(n)
			// Wide top buckets must not estimate past reality.
			return min(lower+time.Duration(frac*float64(upper-lower)), s.Max)
		}
		cum += n
		lower = upper
	}
	return s.Max
}

// Merge adds another snapshot into a new one; neither input is modified.
func (s LatencyStats) Merge(o LatencyStats) LatencyStats {
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	s.Max = max(s.Max, o.Max)
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
	return s
}
