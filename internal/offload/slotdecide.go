package offload

import (
	"fmt"
	"time"

	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// This file is the slot-vector face of the decision service: the binary
// wire protocol (internal/wire) ships bindings as values in canonical
// parameter order plus a key hash, and these entry points let the server
// copy them straight into the pooled slot vectors without ever
// materializing a bindings map on the hot path.

// ParamNames returns the region's parameter names in canonical (sorted)
// order — the slot order of the key layout, and the order
// attrdb.BindingsKey canonicalizes to. The returned slice is shared;
// callers must not mutate it.
func (r *Region) ParamNames() []string { return r.compiled.layout.Names() }

// bindingsFromVals builds the map form of a canonical slot vector.
// len(vals) must equal len(ParamNames()); callers validate first.
func (r *Region) bindingsFromVals(vals []int64) symbolic.Bindings {
	names := r.ParamNames()
	b := make(symbolic.Bindings, len(names))
	for i, name := range names {
		b[name] = vals[i]
	}
	return b
}

// KeyHashVals returns the canonical key hash of a slot vector —
// identical to attrdb.BindingsHash of the equivalent bindings map. The
// wire protocol uses it as an end-to-end checksum: a client that
// disagrees with the server about the region's parameter set produces a
// different hash and the request is rejected instead of mispriced.
// len(vals) must equal len(ParamNames()).
func (r *Region) KeyHashVals(vals []int64) uint64 { return r.compiled.layout.Hash(vals) }

// DecideVals is Decide over a canonical slot vector: vals holds the
// runtime bindings in ParamNames() order. The values are copied straight
// into a pooled slot vector — no bindings map is built unless an observer
// is registered (observers receive the map form). The slice is not
// retained; callers may reuse it immediately.
func (r *Region) DecideVals(vals []int64) (*Outcome, error) {
	out := newOutcome()
	if err := r.DecideValsInto(vals, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecideValsInto is DecideVals writing the outcome over *out, candidate
// storage included, so a caller that decides in a loop brings its own:
// neither a cache hit nor a miss then allocates. After an error *out
// holds nothing usable.
func (r *Region) DecideValsInto(vals []int64, out *Outcome) error {
	start := time.Now()
	sv, err := r.bindVals(vals)
	if err != nil {
		return err
	}
	return r.decideVals(sv, start, out)
}

// DecideKeyedInto is DecideValsInto for a caller that was handed the
// vector together with its key hash (the wire protocol's checksum): the
// claim is checked against the hash the cache lookup needs anyway, and a
// vector that does not hash to it is refused with ErrKeyHashMismatch.
func (r *Region) DecideKeyedInto(vals []int64, keyHash uint64, out *Outcome) error {
	start := time.Now()
	sv, err := r.bindVals(vals)
	if err != nil {
		return err
	}
	if sv.hash != keyHash {
		sv.release()
		return fmt.Errorf("%w: region %s: claimed %#x, values hash to %#x",
			ErrKeyHashMismatch, r.Name, keyHash, sv.hash)
	}
	return r.decideVals(sv, start, out)
}

func (r *Region) decideVals(sv *slotVecs, start time.Time, out *Outcome) error {
	var b symbolic.Bindings
	if r.rt.obs.Load() != nil {
		b = r.bindingsFromVals(sv.params())
	}
	return r.decideOnly(r.evaluatorOf(sv, b), start, b, out)
}
