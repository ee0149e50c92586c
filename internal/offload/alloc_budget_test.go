//go:build !race

package offload

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
)

// This file holds the package's allocation budgets. They count on
// sync.Pool handing back what it was given — the slot vectors are pooled —
// which under the race detector it does not (Put drops a quarter of it, by
// design), so they are not built there.

// TestDecideValsIntoAllocationBudget pins what a served decision costs
// the heap once the caller brings its own Outcome: nothing — not on a
// cache hit, not on a miss into a full cache (the candidates are ranked in
// the Outcome's own storage, the key is the values themselves, the evicted
// entry is reused) and not on a miss after an invalidation (the store
// keeps its slab).
func TestDecideValsIntoAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const capacity = 8
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(), Policy: ModelGuided, DecisionCacheSize: capacity})
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	region, err := rt.Register(k.IR)
	if err != nil {
		t.Fatal(err)
	}
	vals := slotVals(t, region, k.Bindings(polybench.Benchmark))
	var out Outcome
	decide := func() {
		if err := region.DecideValsInto(vals, &out); err != nil {
			t.Fatal(err)
		}
	}
	decide()
	if hit := testing.AllocsPerRun(200, decide); hit != 0 || !out.CacheHit {
		t.Errorf("hit: %v allocs (cache hit %v), want 0", hit, out.CacheHit)
	}
	fresh, err := region.DecideVals(vals)
	if err != nil || !reflect.DeepEqual(fresh.Decision.Candidates, out.Candidates) || fresh.TargetID != out.TargetID {
		t.Fatalf("DecideVals and DecideValsInto disagree: %+v vs %+v (%v)", fresh, out, err)
	}

	next := vals[0]
	miss := testing.AllocsPerRun(200, func() { // every run a key never seen: the cache, full after 8, evicts
		next++
		vals[0] = next
		decide()
	})
	if miss != 0 || out.CacheHit {
		t.Errorf("miss on a full cache: %v allocs (cache hit %v), want 0", miss, out.CacheHit)
	}
	if m := rt.Metrics(); m.DecisionCacheEvictions == 0 {
		t.Errorf("the misses evicted nothing: %+v", m)
	}
	if cleared := testing.AllocsPerRun(200, func() {
		region.InvalidateDecisions()
		decide()
	}); cleared != 0 || out.CacheHit {
		t.Errorf("miss after an invalidation: %v allocs (cache hit %v), want 0", cleared, out.CacheHit)
	}
	// An Outcome that brings no storage gets its candidates in one piece.
	if empty := testing.AllocsPerRun(200, func() {
		out.Candidates = nil
		decide()
	}); empty != 1 {
		t.Errorf("decide into an Outcome without candidate storage: %v allocs, want 1", empty)
	}
}
