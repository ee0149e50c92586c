package hybridsel

import (
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// The decide benchmarks measure the decision hot path itself — no
// simulated execution — in its three interesting states: a model
// evaluation through the slot programs (uncached), and cache-hit lookups
// for Predict and Decide. TestAllocationBudgets holds each to its
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

// BenchmarkPredictUncached is the headline number: one full model-pair
// evaluation through the per-region slot programs.
func BenchmarkPredictUncached(b *testing.B) {
	regions := decideRuntime(b, -1) // cache disabled: every call evaluates the models
	bind := symbolic.Bindings{"n": 1100}
	for _, r := range regions { // shake out one-time work
		if _, _, err := r.Predict(bind); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := regions[i%len(regions)].Predict(bind); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictCached measures the memoized lookup: hash the slot
// vector, confirm the key in place, return the stored predictions.
func BenchmarkPredictCached(b *testing.B) {
	regions := decideRuntime(b, 0)
	bind := symbolic.Bindings{"n": 1100}
	for _, r := range regions {
		if _, _, err := r.Predict(bind); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := regions[i%len(regions)].Predict(bind); err != nil {
			b.Fatal(err)
		}
	}
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
