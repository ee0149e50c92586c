package offload

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/hybridsel/hybridsel/internal/metrics"
)

// counters is the runtime's live instrumentation, all lock-free.
type counters struct {
	launches      metrics.Counter
	decides       metrics.Counter
	predictions   metrics.Counter
	compiledEvals metrics.Counter

	decisionHits      metrics.Counter
	decisionMisses    metrics.Counter
	decisionEvictions metrics.Counter
	decisionStale     metrics.Counter
	execHits          metrics.Counter
	execMisses        metrics.Counter

	modelEval metrics.Histogram
}

// RegisterMetrics declares the runtime's series (hybridsel_ namespace) on
// s: the counters above, the per-target dispatch counts (and their sums by
// kind), and gauges read off the region table at scrape time.
func (rt *Runtime) RegisterMetrics(s *metrics.Set) {
	m := &rt.met
	regions := s.Rows("hybridsel_regions", "gauge", "Registered target regions.")
	s.Counter("hybridsel_launches_total", "Launch calls (decide + dispatch).", &m.launches)
	s.Counter("hybridsel_decides_total", "Decide-only calls (no dispatch).", &m.decides)
	s.Counter("hybridsel_model_evaluations_total",
		"Analytical model-pair evaluations performed.", &m.predictions)
	s.Counter("hybridsel_compiled_model_evaluations_total",
		"Model-pair evaluations served by the compiled decision programs.", &m.compiledEvals)
	byKind := s.Rows("hybridsel_dispatch_total", "counter", "Completed launches by execution target.")
	for i := range rt.dispatchID {
		id, _ := rt.dispatchTarget(i)
		s.Counter("hybridsel_dispatch_target_total", "Completed launches by registry target ID.",
			&rt.dispatchID[i], "target", id)
	}
	s.Counter("hybridsel_decision_cache_hits_total",
		"Decisions served from the memoized decision cache.", &m.decisionHits)
	s.Counter("hybridsel_decision_cache_misses_total",
		"Decisions that required model evaluation.", &m.decisionMisses)
	s.Counter("hybridsel_decision_cache_evictions_total",
		"Entries evicted from the bounded decision caches.", &m.decisionEvictions)
	cacheEntries := s.Rows("hybridsel_decision_cache_entries", "gauge", "Live entries across all per-region decision caches.")
	s.Collect(func() { // one walk of the region table per scrape
		r, e := rt.regionGauges()
		regions(float64(r))
		cacheEntries(float64(e))
		var n [KindSplit + 1]uint64
		for i := range rt.dispatchID {
			_, kind := rt.dispatchTarget(i)
			n[kind] += rt.dispatchID[i].Load()
		}
		for kind := range n {
			byKind(float64(n[kind]), "target", TargetKind(kind).String())
		}
	})
	s.Counter("hybridsel_exec_cache_hits_total",
		"Ground-truth executions served from the memoization cache.", &m.execHits)
	s.Counter("hybridsel_exec_cache_misses_total",
		"Ground-truth executions actually simulated.", &m.execMisses)
	s.Histogram("hybridsel_model_eval_seconds",
		"Latency of full model evaluations (both analytical models).", &m.modelEval)
}

// Metrics is an immutable snapshot of the runtime's instrumentation.
type Metrics struct {
	// Regions is the number of registered target regions.
	Regions int
	// Launches counts Launch calls that reached the decision stage.
	Launches uint64
	// Decides counts decide-only calls (no dispatch) that reached the
	// decision stage. DecisionCacheHits + DecisionCacheMisses ==
	// Launches + Decides for a runtime driven only through Launch/Decide.
	Decides uint64
	// Predictions counts model-pair evaluations actually performed
	// (cache misses and standalone Predict calls).
	Predictions uint64
	// CompiledModelEvals counts the Predictions served by the slot
	// programs: all of them, outside the in-package tests' map-form
	// reference.
	CompiledModelEvals uint64
	// DispatchTargets counts completed launches per registry target ID
	// (plus the "split" pseudo-target), omitting zero rows.
	DispatchTargets map[string]uint64

	// Decision cache accounting. Every Launch and every decide-only call
	// resolves to exactly one hit or miss, so Hits + Misses ==
	// Launches + Decides for a runtime driven only through Launch/Decide
	// (standalone Predict calls consult the cache without touching these
	// counters).
	DecisionCacheHits      uint64
	DecisionCacheMisses    uint64
	DecisionCacheEvictions uint64
	DecisionCacheSize      int
	// DecisionCacheStale counts verdicts priced across an invalidation of
	// their region and therefore not memoized: the caller got its answer,
	// the next launch of the key prices it again.
	DecisionCacheStale uint64

	// Ground-truth execution memoization accounting.
	ExecCacheHits   uint64
	ExecCacheMisses uint64

	// ModelEval is the latency distribution of full model evaluations
	// (both analytical models for one launch or prediction).
	ModelEval metrics.LatencyStats
}

// Merge combines two snapshots (e.g. across the per-platform runtimes of
// an experiment sweep) into a new snapshot; neither input is modified.
func (m Metrics) Merge(o Metrics) Metrics {
	m.Regions += o.Regions
	m.Launches += o.Launches
	m.Decides += o.Decides
	m.Predictions += o.Predictions
	m.CompiledModelEvals += o.CompiledModelEvals
	byID := make(map[string]uint64, len(m.DispatchTargets))
	for id, n := range m.DispatchTargets {
		byID[id] = n
	}
	for id, n := range o.DispatchTargets {
		byID[id] += n
	}
	m.DispatchTargets = byID
	m.DecisionCacheHits += o.DecisionCacheHits
	m.DecisionCacheMisses += o.DecisionCacheMisses
	m.DecisionCacheEvictions += o.DecisionCacheEvictions
	m.DecisionCacheSize += o.DecisionCacheSize
	m.DecisionCacheStale += o.DecisionCacheStale
	m.ExecCacheHits += o.ExecCacheHits
	m.ExecCacheMisses += o.ExecCacheMisses
	m.ModelEval = m.ModelEval.Merge(o.ModelEval)
	return m
}

// String renders the snapshot as an aligned report.
func (m Metrics) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "offload runtime metrics\n")
	fmt.Fprintf(&sb, "  regions registered   %d\n", m.Regions)
	fmt.Fprintf(&sb, "  launches             %d\n", m.Launches)
	if m.Decides > 0 {
		fmt.Fprintf(&sb, "  decide-only calls    %d\n", m.Decides)
	}
	ids := make([]string, 0, len(m.DispatchTargets))
	for id := range m.DispatchTargets {
		ids = append(ids, fmt.Sprintf("%s %d", id, m.DispatchTargets[id]))
	}
	sort.Strings(ids)
	fmt.Fprintf(&sb, "  dispatched           %s\n", strings.Join(ids, ", "))
	fmt.Fprintf(&sb, "  decision cache       %d hits, %d misses (%.1f%% hit rate), %d evictions, %d live\n",
		m.DecisionCacheHits, m.DecisionCacheMisses,
		rate(m.DecisionCacheHits, m.DecisionCacheMisses),
		m.DecisionCacheEvictions, m.DecisionCacheSize)
	fmt.Fprintf(&sb, "  execution cache      %d hits, %d misses (%.1f%% hit rate)\n",
		m.ExecCacheHits, m.ExecCacheMisses, rate(m.ExecCacheHits, m.ExecCacheMisses))
	fmt.Fprintf(&sb, "  model evaluations    %d (mean %v, max %v)\n",
		m.Predictions, m.ModelEval.Mean().Round(time.Microsecond),
		m.ModelEval.Max.Round(time.Microsecond))
	if m.ModelEval.Count > 0 {
		q := func(q float64) time.Duration { return m.ModelEval.Quantile(q).Round(time.Microsecond) }
		fmt.Fprintf(&sb, "  eval latency         p50 %v p95 %v p99 %v\n", q(0.50), q(0.95), q(0.99))
	}
	return sb.String()
}

func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
