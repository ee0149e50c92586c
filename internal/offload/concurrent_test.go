package offload

import (
	"slices"
	"sync"
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// stressConfig keeps simulation cheap so the stress tests exercise the
// decision service, not the simulators. Run with -race.
func stressConfig(p Policy) Config {
	return Config{
		Platform: machine.PlatformP9V100(),
		Policy:   p,
		CPUSim:   sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:   sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
	}
}

// TestConcurrentLaunchStress drives N goroutines times M regions through
// repeated launches over a small set of binding values and asserts the
// decision log and cache accounting stay exactly consistent.
func TestConcurrentLaunchStress(t *testing.T) {
	rt := NewRuntime(stressConfig(ModelGuided))
	seen := observed(rt)
	names := []string{"gemm", "mvt1", "2dconv", "atax2", "gesummv", "syrk"}
	regions := make([]*Region, len(names))
	for i, name := range names {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if regions[i], err = rt.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}

	const (
		workers           = 8
		launchesPerWorker = 30
	)
	sizes := []int64{96, 128, 192} // 3 distinct binding sets per region
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < launchesPerWorker; i++ {
				r := regions[(w+i)%len(regions)]
				b := symbolic.Bindings{"n": sizes[(w*launchesPerWorker+i)%len(sizes)]}
				out, err := r.Launch(b)
				if err != nil {
					errCh <- err
					return
				}
				if out.ActualSeconds <= 0 {
					errCh <- errNonPositive
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	const total = workers * launchesPerWorker
	m := rt.Metrics()
	log := seen()

	if m.Launches != total {
		t.Fatalf("launches = %d, want %d", m.Launches, total)
	}
	if len(log) != total {
		t.Fatalf("observed decisions = %d, want %d", len(log), total)
	}
	if m.DecisionCacheHits+m.DecisionCacheMisses != total {
		t.Fatalf("hits %d + misses %d != %d",
			m.DecisionCacheHits, m.DecisionCacheMisses, total)
	}
	var dispatched uint64
	for _, n := range m.DispatchTargets {
		dispatched += n
	}
	if dispatched != total {
		t.Fatalf("dispatch sum = %d, want %d", dispatched, total)
	}
	// At most (regions x sizes) distinct keys need a model evaluation;
	// concurrent first launches of the same key may race to a handful of
	// duplicate evaluations, but the steady state must be cache hits.
	distinct := uint64(len(names) * len(sizes))
	if m.DecisionCacheHits < total-3*distinct {
		t.Fatalf("only %d cache hits over %d launches (%d distinct keys)",
			m.DecisionCacheHits, total, distinct)
	}
	// The observed decisions must agree with the cached predictions: for
	// one (region, bindings) pair every decision is identical.
	type point struct {
		region string
		n      int64
	}
	first := map[point]Decision{}
	for _, d := range log {
		p := point{d.Region, d.Bindings["n"]}
		if f, ok := first[p]; !ok {
			first[p] = d
		} else if d.TargetID != f.TargetID ||
			!slices.Equal(d.Candidates, f.Candidates) ||
			d.ActualSeconds != f.ActualSeconds {
			t.Fatalf("%s n=%d: decisions diverged across launches", p.region, p.n)
		}
	}
}

// TestConcurrentMixedOperations races launches, predictions,
// invalidations, metrics snapshots and an observer against each other (race-detector
// fodder for every lock in the runtime).
func TestConcurrentMixedOperations(t *testing.T) {
	rt := NewRuntime(stressConfig(ModelGuided))
	seen := observed(rt)
	var regions []*Region
	for _, name := range []string{"gemm", "mvt1", "2dconv"} {
		k, _ := polybench.Get(name)
		r, err := rt.Register(k.IR)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				r := regions[(w+i)%len(regions)]
				b := symbolic.Bindings{"n": int64(64 + 32*(i%3))}
				if _, err := r.Launch(b); err != nil {
					errCh <- err
					return
				}
				if _, _, err := predictPair(r, b); err != nil {
					errCh <- err
					return
				}
				if i%4 == 0 {
					r.InvalidateDecisions()
				}
				_ = rt.Metrics()
				_ = seen()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := len(seen()); got != 40 {
		t.Fatalf("observer saw %d decisions, want 40", got)
	}
}

// TestConcurrentOraclePolicy stresses the dual-execution path, whose
// launches fill both actuals from the shared execution cache.
func TestConcurrentOraclePolicy(t *testing.T) {
	rt := NewRuntime(stressConfig(Oracle))
	k, _ := polybench.Get("mvt1")
	region, err := rt.Register(k.IR)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				out, err := region.Launch(symbolic.Bindings{"n": 128})
				if err != nil {
					errCh <- err
					return
				}
				if out.ActualSeconds <= 0 {
					errCh <- errNonPositive
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.Launches != 40 || m.DispatchTargets[TargetIDCPUBase]+m.DispatchTargets[TargetIDGPUBase] != 40 {
		t.Fatalf("oracle metrics: %+v", m)
	}
	// One binding set: each of the 8 workers can lose the race to its
	// first execution of each of the 2 targets, and nothing else misses.
	if m.ExecCacheHits < 80-8*2 {
		t.Fatalf("exec cache hits = %d over 80 executions", m.ExecCacheHits)
	}
}

// TestConcurrentEvictionAccounting hammers tiny per-region decision
// caches with far more distinct binding keys than they can hold, across
// mixed regions, and asserts the hit/miss/eviction/live-entry ledger
// stays exactly consistent under the race detector.
func TestConcurrentEvictionAccounting(t *testing.T) {
	const cap = 2
	cfg := stressConfig(AlwaysCPU) // cheap dispatch: the cache is the subject
	cfg.DecisionCacheSize = cap
	rt := NewRuntime(cfg)
	names := []string{"gemm", "mvt1", "2dconv"}
	regions := make([]*Region, len(names))
	for i, name := range names {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if regions[i], err = rt.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}

	const (
		workers           = 8
		launchesPerWorker = 40
		distinctSizes     = 16 // >> cap, so steady-state churn
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < launchesPerWorker; i++ {
				r := regions[(w+i)%len(regions)]
				n := int64(64 + 8*((w*launchesPerWorker+i)%distinctSizes))
				if _, err := r.Launch(symbolic.Bindings{"n": n}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	const total = workers * launchesPerWorker
	m := rt.Metrics()
	if m.Launches != total {
		t.Fatalf("launches = %d, want %d", m.Launches, total)
	}
	// Ledger identity 1: every launch is exactly one hit or one miss.
	if m.DecisionCacheHits+m.DecisionCacheMisses != total {
		t.Fatalf("hits %d + misses %d != launches %d",
			m.DecisionCacheHits, m.DecisionCacheMisses, total)
	}
	// Ledger identity 2: entries never exceed the configured bound, and
	// with far more keys than capacity every cache must be full.
	if want := len(names) * cap; m.DecisionCacheSize != want {
		t.Fatalf("live entries = %d, want %d (= regions x cap)",
			m.DecisionCacheSize, want)
	}
	// Ledger identity 3: inserts = misses (each miss stores one entry),
	// and every insert beyond the live entries must either have evicted a
	// victim or overwritten a racing duplicate of its own key (two workers
	// missing the same key concurrently both insert; the loser's entry is
	// replaced, not evicted). Duplicate overwrites need >= 2 workers in
	// the same miss window, so they are bounded by a small slack.
	slack := uint64(workers * len(names))
	minEvict := m.DecisionCacheMisses - uint64(len(names)*cap) - slack
	if m.DecisionCacheEvictions < minEvict {
		t.Fatalf("evictions = %d, want >= misses-live-slack = %d",
			m.DecisionCacheEvictions, minEvict)
	}
	if m.DecisionCacheEvictions > m.DecisionCacheMisses {
		t.Fatalf("evictions %d > inserts %d",
			m.DecisionCacheEvictions, m.DecisionCacheMisses)
	}
	// With 16 distinct keys against capacity 2 the workload must actually
	// churn — this guards against the cache silently growing unbounded.
	if m.DecisionCacheEvictions == 0 {
		t.Fatal("no evictions despite 16 distinct keys per region at cap 2")
	}
}

var errNonPositive = errTest("non-positive simulated time")

type errTest string

func (e errTest) Error() string { return string(e) }
