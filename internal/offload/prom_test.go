package offload

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/metrics"
)

// TestWritePrometheus checks the runtime's exposition is well-formed text
// format 0.0.4: every sample preceded by HELP/TYPE, histogram buckets
// cumulative and capped by +Inf, and the samples matching the counters.
func TestWritePrometheus(t *testing.T) {
	rt := newRT(t, ModelGuided)
	m := &rt.met
	m.modelEval.Observe(30 * time.Microsecond)
	m.modelEval.Observe(30 * time.Microsecond)
	m.modelEval.Observe(2 * time.Millisecond)
	m.launches.Store(10)
	m.decides.Store(4)
	m.predictions.Store(3)
	rt.dispatchID[0].Store(4) // cpu/base
	rt.dispatchID[1].Store(6) // gpu/base
	m.decisionHits.Store(11)
	m.decisionMisses.Store(3)
	m.decisionEvictions.Store(1)
	m.execHits.Store(5)
	m.execMisses.Store(5)
	var set metrics.Set
	rt.RegisterMetrics(&set)
	var buf bytes.Buffer
	if err := set.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := metrics.Lint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"hybridsel_regions 3",
		"hybridsel_launches_total 10",
		"hybridsel_decides_total 4",
		"hybridsel_model_evaluations_total 3",
		`hybridsel_dispatch_total{target="cpu"} 4`,
		`hybridsel_dispatch_total{target="gpu"} 6`,
		`hybridsel_dispatch_total{target="split"} 0`,
		`hybridsel_dispatch_target_total{target="gpu/base"} 6`,
		"hybridsel_decision_cache_hits_total 11",
		"hybridsel_decision_cache_evictions_total 1",
		"hybridsel_model_eval_seconds_count 3",
		`hybridsel_model_eval_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Histogram buckets must be cumulative (monotone non-decreasing).
	var last float64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "hybridsel_model_eval_seconds_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
	if last != 3 {
		t.Fatalf("final cumulative bucket = %v, want 3", last)
	}

	// Every metric family gets HELP and TYPE headers before its samples.
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			seen[strings.Fields(line)[2]] = true
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			name := line[:strings.IndexAny(line, "{ ")]
			family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(
				name, "_bucket"), "_sum"), "_count")
			if !seen[family] && !seen[name] {
				t.Fatalf("sample %q has no preceding HELP", line)
			}
		}
	}
}
