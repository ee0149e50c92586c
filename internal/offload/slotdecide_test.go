package offload

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// TestDecideValsMatchesDecide proves the slot-vector entry point is the
// same decision function as the map form: over the whole Polybench
// suite, under both evaluators, DecideVals with the canonical vector must
// produce bit-for-bit the verdict Decide produces with the equivalent
// bindings map (fresh runtimes each side, so both start cold and both hit
// their own cache identically).
func TestDecideValsMatchesDecide(t *testing.T) {
	cfg := Config{Platform: machine.PlatformP9V100(), Policy: ModelGuided}
	mapSlot, mapRef := evaluatorPair(t, cfg, suiteKernels()...)
	vecSlot, vecRef := evaluatorPair(t, cfg, suiteKernels()...)
	for _, pair := range [][2]*Runtime{{mapSlot, vecSlot}, {mapRef, vecRef}} {
		mapRT, vecRT := pair[0], pair[1]
		for _, k := range polybench.Suite() {
			mr, err := mapRT.Region(k.Name)
			if err != nil {
				t.Fatal(err)
			}
			vr, err := vecRT.Region(k.Name)
			if err != nil {
				t.Fatal(err)
			}
			b := k.Bindings(polybench.Benchmark)
			vals := slotVals(t, vr, b)
			if got, want := vr.KeyHashVals(vals), attrdb.BindingsHash(b); got != want {
				t.Fatalf("%s: KeyHashVals %#x != BindingsHash %#x", k.Name, got, want)
			}
			// Twice each: cold miss then cache hit.
			for pass := 0; pass < 2; pass++ {
				mo, merr := mr.Decide(b)
				vo, verr := vr.DecideVals(vals)
				if (merr == nil) != (verr == nil) {
					t.Fatalf("%s pass %d: Decide err %v, DecideVals err %v", k.Name, pass, merr, verr)
				}
				if merr != nil {
					continue
				}
				md, vd := scrubbed(mo), scrubbed(vo)
				if !reflect.DeepEqual(md, vd) {
					t.Fatalf("%s pass %d:\n map %+v\nvals %+v", k.Name, pass, md, vd)
				}
				if pass == 1 && !vd.CacheHit {
					t.Fatalf("%s: second DecideVals not a cache hit", k.Name)
				}
			}
		}
	}
}

// TestDecideValsObserverGetsBindings: the observer contract says every
// Decision carries the map form; DecideVals must materialize it when —
// and only when — an observer is registered.
func TestDecideValsObserverGetsBindings(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100()})
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Register(k.IR)
	if err != nil {
		t.Fatal(err)
	}
	b := k.Bindings(polybench.Test)
	vals := slotVals(t, r, b)

	out, err := r.DecideVals(vals)
	if err != nil {
		t.Fatal(err)
	}
	if out.Decision.Bindings != nil {
		t.Fatalf("no observer: want nil bindings, got %v", out.Decision.Bindings)
	}

	var seen symbolic.Bindings
	rt.SetObserver(func(d Decision) { seen = d.Bindings })
	if _, err := r.DecideVals(vals); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, b) {
		t.Fatalf("observer bindings = %v, want %v", seen, b)
	}
}

// TestDecideValsLengthMismatch: a wrong-length slot vector must fail
// with ErrUnboundSymbol (the wire layer maps it to the unbound_symbol
// envelope code), never panic or misprice.
func TestDecideValsLengthMismatch(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100()})
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Register(k.IR)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, len(r.ParamNames()) + 1} {
		if n == len(r.ParamNames()) {
			continue
		}
		if _, err := r.DecideVals(make([]int64, n)); !errors.Is(err, ErrUnboundSymbol) {
			t.Fatalf("len %d: got %v, want ErrUnboundSymbol", n, err)
		}
	}
}

// TestDecideValsIntoAllocationBudget pins what a served decision costs
// the heap once the caller brings its own Outcome: nothing — not on a
// cache hit, not on a miss into a full cache (the candidates are ranked in
// the Outcome's own storage, the key is the values themselves, the evicted
// entry is reused) and not on a miss after an invalidation (the store
// keeps its slab).
func TestDecideValsIntoAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	skipIfPoolsDrop(t) // the slot vectors are pooled
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

// TestDecideKeyedInto: the keyed entry point is DecideValsInto behind a
// check of the claimed key hash — the same verdict for the right hash, a
// typed refusal that decides nothing for any other.
func TestDecideKeyedInto(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100()})
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	region, err := rt.Register(k.IR)
	if err != nil {
		t.Fatal(err)
	}
	vals := slotVals(t, region, k.Bindings(polybench.Test))
	var keyed, plain Outcome
	if err := region.DecideKeyedInto(vals, region.KeyHashVals(vals), &keyed); err != nil {
		t.Fatal(err)
	}
	if err := region.DecideValsInto(vals, &plain); err != nil {
		t.Fatal(err)
	}
	if keyed.CacheHit || !plain.CacheHit {
		t.Fatalf("cache hits %v/%v, want miss then hit", keyed.CacheHit, plain.CacheHit)
	}
	plain.CacheHit = false
	if kd, pd := scrubbed(&keyed), scrubbed(&plain); !reflect.DeepEqual(kd, pd) {
		t.Fatalf("keyed and plain verdicts diverge:\n %+v\n %+v", kd, pd)
	}
	before := rt.Metrics()
	err = region.DecideKeyedInto(vals, region.KeyHashVals(vals)+1, &keyed)
	if !errors.Is(err, ErrKeyHashMismatch) {
		t.Fatalf("wrong key hash: %v, want ErrKeyHashMismatch", err)
	}
	if err := region.DecideKeyedInto(vals[:len(vals)-1], 0, &keyed); !errors.Is(err, ErrUnboundSymbol) {
		t.Fatalf("short vector: %v, want ErrUnboundSymbol", err)
	}
	if after := rt.Metrics(); after.Decides != before.Decides || after.DecisionCacheHits != before.DecisionCacheHits {
		t.Fatalf("refused vectors were decided: %+v", after)
	}
}

// skipIfPoolsDrop skips an allocation budget that counts on sync.Pool
// handing back what it was given: under the race detector Put drops a
// quarter of it, by design, and the budget would be measuring that. Call
// it on one P.
func skipIfPoolsDrop(t *testing.T) {
	var p sync.Pool
	for i := 0; i < 100; i++ {
		p.Put(t)
		if p.Get() == nil {
			t.Skip("sync.Pool drops puts under the race detector; allocation budgets are checked without it")
		}
	}
}
