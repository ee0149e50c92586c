package hybridsel

import (
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// launchConfig keeps simulation cheap so these benchmarks measure the
// decision service itself (model evaluation, caching, dispatch), not the
// ground-truth simulators.
func launchConfig(cacheSize int) offload.Config {
	return offload.Config{
		Platform:          machine.PlatformP9V100(),
		DecisionCacheSize: cacheSize,
		CPUSim:            sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:            sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
	}
}

func launchRuntime(b *testing.B, cacheSize int, kernels ...string) (*offload.Runtime, []*offload.Region) {
	b.Helper()
	rt := offload.NewRuntime(launchConfig(cacheSize))
	regions := make([]*offload.Region, len(kernels))
	for i, name := range kernels {
		k, err := polybench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		if regions[i], err = rt.Register(k.IR); err != nil {
			b.Fatal(err)
		}
	}
	return rt, regions
}

// BenchmarkLaunchCached measures the steady-state launch path: the
// decision comes from the memoized decision cache and the execution from
// the ground-truth cache, so the remaining cost is lookup + dispatch.
func BenchmarkLaunchCached(b *testing.B) {
	_, regions := launchRuntime(b, 0, "gemm")
	bind := symbolic.Bindings{"n": 128}
	if _, err := regions[0].Launch(bind); err != nil { // warm both caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regions[0].Launch(bind); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchUncached disables the decision cache so every launch
// re-evaluates both analytical models (the execution cache stays warm, so
// the difference against BenchmarkLaunchCached isolates model evaluation).
// With the slot programs this lands within ~2x of the cached path.
func BenchmarkLaunchUncached(b *testing.B) {
	_, regions := launchRuntime(b, -1, "gemm")
	bind := symbolic.Bindings{"n": 128}
	if _, err := regions[0].Launch(bind); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regions[0].Launch(bind); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchParallel drives cached launches at distinct regions from
// all GOMAXPROCS goroutines; the sharded registry and per-region caches
// should let throughput scale rather than serialize on a global lock.
func BenchmarkLaunchParallel(b *testing.B) {
	names := []string{"gemm", "mvt1", "2dconv", "atax2", "gesummv", "syrk"}
	_, regions := launchRuntime(b, 0, names...)
	bind := symbolic.Bindings{"n": 128}
	for _, r := range regions { // warm every region
		if _, err := r.Launch(bind); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := regions[i%len(regions)].Launch(bind); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
