package offload

import (
	"errors"
	"reflect"
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
