package offload

import (
	"strings"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/metrics"
)

// TestParsePolicyRejections pins the failure mode of every malformed
// policy string: nil policy, an error that names the offending input,
// and a sorted roster of valid names to fix the typo from.
func TestParsePolicyRejections(t *testing.T) {
	cases := []string{
		"",
		"nope",
		"Model-Guided", // case-sensitive on purpose: flag values are exact
		" model-guided",
		"model-guided ",
		"always-gpu,always-cpu",
		"oracle\n",
	}
	for _, in := range cases {
		p, err := ParsePolicy(in)
		if err == nil {
			t.Fatalf("ParsePolicy(%q) accepted, want error", in)
		}
		if p != nil {
			t.Fatalf("ParsePolicy(%q) returned non-nil policy with error", in)
		}
		msg := err.Error()
		if !strings.Contains(msg, "unknown policy") {
			t.Fatalf("ParsePolicy(%q) error %q lacks diagnosis", in, msg)
		}
		// The message must list the real roster so the user can recover.
		for _, known := range []string{"model-guided", "always-gpu",
			"always-cpu", "oracle", "split"} {
			if !strings.Contains(msg, known) {
				t.Fatalf("ParsePolicy(%q) error %q omits %q", in, msg, known)
			}
		}
	}
}

// TestParsePolicyRoundTrip: every accepted name parses back to the
// policy whose Name() produced it.
func TestParsePolicyRoundTrip(t *testing.T) {
	for _, want := range []Policy{ModelGuided, AlwaysGPU, AlwaysCPU, Oracle} {
		got, err := ParsePolicy(want.Name())
		if err != nil || got == nil || got.Name() != want.Name() {
			t.Fatalf("ParsePolicy(%q) = %v, %v", want.Name(), got, err)
		}
	}
}

// TestLatencyQuantiles feeds a histogram with a known distribution and
// checks the interpolated percentiles land in the right buckets.
func TestLatencyQuantiles(t *testing.T) {
	var h metrics.Histogram
	// 90 fast observations in (20µs, 50µs], 9 in (500µs, 1ms], one slow
	// outlier far above them.
	for i := 0; i < 90; i++ {
		h.Observe(30 * time.Microsecond)
	}
	for i := 0; i < 9; i++ {
		h.Observe(800 * time.Microsecond)
	}
	h.Observe(250 * time.Millisecond)

	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 <= 10*time.Microsecond || p50 > 50*time.Microsecond {
		t.Fatalf("p50 = %v, want in (10µs, 50µs]", p50)
	}
	if p95 := s.Quantile(0.95); p95 <= 500*time.Microsecond || p95 > time.Millisecond {
		t.Fatalf("p95 = %v, want in (500µs, 1ms]", p95)
	}
	// p99 rank 99 is the last in-bounds observation; p100 is the outlier.
	if p99 := s.Quantile(0.99); p99 <= 500*time.Microsecond || p99 > time.Millisecond {
		t.Fatalf("p99 = %v, want in (500µs, 1ms]", p99)
	}
	if got := s.Quantile(1.0); got != 250*time.Millisecond {
		t.Fatalf("p100 = %v, want observed max 250ms", got)
	}
	// The overflow bucket interpolates toward the observed max, never past.
	if got := s.Quantile(0.999); got > 250*time.Millisecond {
		t.Fatalf("p99.9 = %v exceeds observed max", got)
	}
}

// TestLatencyQuantileClampedToMax: with all mass in one wide bucket the
// interpolated high percentiles must not estimate past the observed max.
func TestLatencyQuantileClampedToMax(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 100; i++ {
		h.Observe(1500 * time.Microsecond) // (1ms, 2ms] bucket, upper bound 2ms
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := s.Quantile(q); got > s.Max {
			t.Fatalf("q=%v = %v exceeds observed max %v", q, got, s.Max)
		}
	}
}

// TestLatencyMerge: sum(Buckets) == Count has to hold after every merge
// or Quantile misestimates, and neither input may be modified.
func TestLatencyMerge(t *testing.T) {
	bucketSum := func(s metrics.LatencyStats) uint64 {
		var sum uint64
		for _, n := range s.Buckets {
			sum += n
		}
		return sum
	}
	var h, g metrics.Histogram
	for i := 0; i < 7; i++ {
		h.Observe(30 * time.Microsecond)
	}
	h.Observe(250 * time.Millisecond)
	g.Observe(2 * time.Second)
	g.Observe(time.Minute) // overflow bucket
	s, o := h.Snapshot(), g.Snapshot()

	for _, m := range []metrics.LatencyStats{s.Merge(o), o.Merge(s)} {
		if m.Count != s.Count+o.Count || m.SumNanos != s.SumNanos+o.SumNanos || m.Max != time.Minute {
			t.Fatalf("merged %+v from %+v and %+v", m, s, o)
		}
		if got := bucketSum(m); got != m.Count {
			t.Fatalf("sum(Buckets) = %d disagrees with Count = %d", got, m.Count)
		}
	}
	// Self and empty-side merges keep the invariant too.
	for _, m := range []metrics.LatencyStats{s.Merge(s), s.Merge(metrics.LatencyStats{}), metrics.LatencyStats{}.Merge(s)} {
		if got := bucketSum(m); got != m.Count {
			t.Fatalf("sum(Buckets) = %d disagrees with Count = %d", got, m.Count)
		}
	}
	if s != h.Snapshot() {
		t.Fatalf("merge mutated its receiver: %+v", s)
	}
}

// TestLatencyQuantilesEdgeCases: empty histograms and degenerate q.
func TestLatencyQuantilesEdgeCases(t *testing.T) {
	var empty metrics.LatencyStats
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
	var h metrics.Histogram
	h.Observe(20 * time.Microsecond)
	s := h.Snapshot()
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("q=0 = %v, want 0", got)
	}
	if got := s.Quantile(2); got != s.Max {
		t.Fatalf("q=2 = %v, want max %v", got, s.Max)
	}
	if p50, p99 := s.Quantile(0.50), s.Quantile(0.99); p50 == 0 || p99 > 50*time.Microsecond {
		t.Fatalf("single-sample quantiles out of bucket: p50 %v p99 %v", p50, p99)
	}
	if report := (Metrics{ModelEval: s}).String(); !strings.Contains(report, "p95") {
		t.Fatalf("String() = %q", report)
	}
}
