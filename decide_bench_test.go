package hybridsel

import (
	"math"
	"testing"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// The decide benchmarks measure the decision hot path itself — no
// simulated execution — in its interesting states: a cache hit, a miss
// that evaluates every target's slot program, ranks and stores, and the
// cold cycle of a trained learner's verdicts. TestAllocationBudgets holds each to its
// allocs/op (machine-independent). Timing claims live in bench/
// (BENCHMARK.json), not here.
//
// decideKernels is a small cross-section of the suite: a dense matrix
// kernel, a bandwidth-bound vector kernel and a stencil, so the headline
// ratios do not hinge on one kernel's expression shapes.
var decideKernels = []string{"gemm", "mvt1", "2dconv"}

func decideRuntime(b *testing.B, cacheSize int) []*offload.Region {
	b.Helper()
	rt := offload.NewRuntime(offload.Config{
		Platform:          machine.PlatformP9V100(),
		DecisionCacheSize: cacheSize,
	})
	regions := make([]*offload.Region, len(decideKernels))
	for i, name := range decideKernels {
		k, err := polybench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		if regions[i], err = rt.Register(k.IR); err != nil {
			b.Fatal(err)
		}
	}
	return regions
}

// BenchmarkDecideCached measures the steady-state decision service:
// cache hit, policy already applied.
func BenchmarkDecideCached(b *testing.B) {
	regions := decideRuntime(b, 0)
	bind := symbolic.Bindings{"n": 1100}
	for _, r := range regions { // warm: first Decide runs the policy
		if _, err := r.Decide(bind); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regions[i%len(regions)].Decide(bind); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideCachedParallel drives the cached decide path from all
// GOMAXPROCS goroutines across regions: the sharded decision cache
// should scale instead of serializing on a region mutex.
func BenchmarkDecideCachedParallel(b *testing.B) {
	regions := decideRuntime(b, 0)
	bind := symbolic.Bindings{"n": 1100}
	for _, r := range regions {
		if _, err := r.Decide(bind); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := regions[i%len(regions)].Decide(bind); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// coldCycle mirrors the benchmark's batch-cold world (bench/workload.go)
// in process: all 24 Polybench regions over the synthetic four-target
// registry, a learner trained until its confidence gate is open, a
// 1024-entry decision LRU per region and, per region, a cycle of 2048
// sizes — twice the LRU, so a key is evicted before it comes round again.
const (
	coldCacheSize = 1024
	coldKeys      = 2 * coldCacheSize
)

func coldCycleRuntime(b *testing.B) []*offload.Region {
	b.Helper()
	plat := machine.PlatformP9V100()
	lrn := learn.New(learn.Config{Fallback: audit.NewCalibrator(0)})
	rt := offload.NewRuntime(offload.Config{
		Platform:          plat,
		Targets:           offload.SyntheticTargets(plat, 0),
		DecisionCacheSize: coldCacheSize,
		Calibrator:        lrn,
	})
	var regions []*offload.Region
	for _, k := range polybench.Suite() {
		r, err := rt.Register(k.IR)
		if err != nil {
			b.Fatal(err)
		}
		regions = append(regions, r)
	}
	for _, r := range regions { // bench/workload.go:train
		for p := 0; p < 8; p++ {
			bind := symbolic.Bindings{}
			for _, param := range r.ParamNames() {
				bind[param] = int64(192 + 160*p)
			}
			cands, err := r.PredictTargets(bind)
			if err != nil {
				b.Fatal(err)
			}
			f, err := r.Features(bind)
			if err != nil {
				b.Fatal(err)
			}
			ms := make([]audit.TargetMeasurement, len(cands))
			for i, c := range cands {
				factor := 1.1 + 0.07*float64(i)
				ms[i] = audit.TargetMeasurement{Target: c.Target, PredSeconds: c.PredSeconds,
					ActualSeconds: c.PredSeconds * factor, LogErr: math.Log(factor)}
			}
			lrn.ObserveVerdict(r.Name, f, ms)
		}
		r.InvalidateDecisions()
	}
	return regions
}

// BenchmarkDecideColdCycle is batch-cold's decide path without its
// transport: decisions dealt round-robin over the regions, each region
// stepping through its own cycle, so every call misses, prices four
// targets, has the learner correct them, ranks, and stores over the
// shard's least recently used entry.
func BenchmarkDecideColdCycle(b *testing.B) {
	regions := coldCycleRuntime(b)
	vals := make([][]int64, len(regions))
	for i, r := range regions {
		vals[i] = make([]int64, len(r.ParamNames()))
	}
	var out offload.Outcome
	decide := func(d int) {
		ri := d % len(regions)
		n := int64(300 + (d/len(regions))%coldKeys)
		for j := range vals[ri] {
			vals[ri][j] = n
		}
		if err := regions[ri].DecideValsInto(vals[ri], &out); err != nil {
			b.Fatal(err)
		}
		if out.CacheHit || out.Provenance != offload.ProvenanceLearned {
			b.Fatalf("%s n=%d: cache hit %v, provenance %s; want a learned miss",
				regions[ri].Name, n, out.CacheHit, out.Provenance)
		}
	}
	warm := len(regions) * coldCacheSize // fills every LRU: each store evicts from here on
	for d := 0; d < warm; d++ {
		decide(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide(warm + i)
	}
}

// BenchmarkDecideMiss is stream-single-miss's decide path: the classic
// pair, no calibrator, the key's region invalidated before every decide.
func BenchmarkDecideMiss(b *testing.B) {
	regions := decideRuntime(b, 0)
	vals := []int64{1100}
	var out offload.Outcome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := regions[i%len(regions)]
		r.InvalidateDecisions()
		if err := r.DecideValsInto(vals, &out); err != nil {
			b.Fatal(err)
		}
		if out.CacheHit {
			b.Fatal("a decide after an invalidation hit the cache")
		}
	}
}

// BenchmarkRegisterSuite is what every daemon, replica and fallback
// runtime pays before its first decision (bench/'s setup_s): one runtime,
// all 24 Polybench regions registered, on the classic pair and on the
// synthetic four-target registry. TestAllocationBudgets holds its
// allocations per suite.
func BenchmarkRegisterSuite(b *testing.B) {
	b.Run("classic", registerSuite(offload.ClassicPair))
	b.Run("synthetic", registerSuite(offload.SyntheticTargets))
}

func registerSuite(targets func(machine.Platform, int) *offload.Registry) func(*testing.B) {
	return func(b *testing.B) {
		plat := machine.PlatformP9V100()
		reg, suite := targets(plat, 0), polybench.Suite()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt := offload.NewRuntime(offload.Config{Platform: plat, Targets: reg})
			for _, k := range suite {
				if _, err := rt.Register(k.IR); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
