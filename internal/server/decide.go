package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"net/http"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file is the decide core. Every served decision — /v1 and /v2
// JSON, HTTP frames, a stream connection, a degraded client's local
// fallback (DecideLocal) — is a codec around the same two functions:
//
//	decode → item → decide / batchScratch.decide → (Outcome, *ErrorInfo) → project
//
// decide is the only function in this package that reaches
// Region.DecideInto, DecideKeyedInto or Launch; the codecs differ only in how
// they build an item and which response shape they project onto.

// item is one decide request in the core's form. Bindings arrive either
// named (a JSON map, or a frame's name/value lists) or as a slot vector:
// values in the region's canonical sorted-name order plus the client's
// hash of them, which the core verifies before trusting the layout.
type item struct {
	region  string
	execute bool

	bindings symbolic.Bindings // named form
	slot     bool
	values   []int64 // slot form
	keyHash  uint64
}

func jsonItem(req *DecideRequest) item {
	return item{region: req.Region, execute: req.Execute, bindings: req.Bindings}
}

func wireItem(req *wire.Request) item {
	it := item{region: req.Region, execute: req.Execute}
	if req.SlotForm {
		it.slot, it.values, it.keyHash = true, req.Values, req.KeyHash
		return it
	}
	it.bindings = make(symbolic.Bindings, len(req.Values))
	for i, name := range req.Names {
		it.bindings[name] = req.Values[i]
	}
	return it
}

// decide serves one item against rt, writing the outcome over *out; a
// non-nil *ErrorInfo describes the failure with its classification and
// HTTP status (and leaves *out unusable). Slot-form bindings skip the map
// entirely on the decide path: the values drop straight into the region's
// pooled slot vectors via DecideKeyedInto, which refuses them when they do
// not hash to the key hash they came with (an end-to-end checksum of the
// client's idea of the region's parameter set). Neither it nor out is
// retained, and the outcome's candidates live in storage out owns and
// brings back: a stream connection's reader decides every request into
// the one Outcome on its stack, a batch into its scratch.
func decide(ctx context.Context, rt *offload.Runtime, it *item, out *offload.Outcome) *ErrorInfo {
	if it.region == "" {
		return errInfo(http.StatusBadRequest, ErrCodeBadRequest, "missing region")
	}
	if err := ctx.Err(); err != nil {
		return errInfo(http.StatusServiceUnavailable, ErrCodeDeadlineExceeded, "deadline exceeded")
	}
	region, err := rt.Region(it.region)
	if err != nil {
		return classify(err)
	}
	b := it.bindings
	if it.slot && it.execute {
		// Execution still wants the map form (Launch logs bindings), so
		// the vector is checked here and spelled out.
		names := region.ParamNames()
		if len(it.values) != len(names) {
			return errInfo(http.StatusUnprocessableEntity, ErrCodeUnboundSymbol,
				fmt.Sprintf("offload: unbound symbol: region %s wants %d parameters, got %d slot values",
					it.region, len(names), len(it.values)))
		}
		if region.KeyHashVals(it.values) != it.keyHash {
			return keyHashMismatch(region, it)
		}
		b = make(symbolic.Bindings, len(names))
		for i, name := range names {
			b[name] = it.values[i]
		}
	}
	switch {
	case it.execute:
		var o *offload.Outcome
		if o, err = region.Launch(b); err == nil {
			*out = *o
		}
	case it.slot:
		// The region checks the claimed hash against the one its cache
		// lookup computes anyway.
		err = region.DecideKeyedInto(it.values, it.keyHash, out)
	default:
		err = region.DecideInto(b, out)
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, offload.ErrKeyHashMismatch):
		return keyHashMismatch(region, it)
	default:
		return classify(err)
	}
}

// keyHashMismatch is the answer to a slot vector that does not hash to the
// key hash it came with.
func keyHashMismatch(region *offload.Region, it *item) *ErrorInfo {
	return errInfo(http.StatusBadRequest, ErrCodeBadRequest,
		fmt.Sprintf("slot vector key hash %#x does not match region layout (%#x): client and server disagree on %s's parameter set",
			it.keyHash, region.KeyHashVals(it.values), it.region))
}

// decided is one batch item's answer: the core's verdict, or — first
// not being the item's own index — the earlier identical item's. out
// points into the batchScratch that decided it.
type decided struct {
	out   *offload.Outcome
	err   *ErrorInfo
	first int
	key   []byte // the item's duplicate-detection key, inside batchScratch.keys
}

// batchScratch is the working set of one decided batch. A codec that
// keeps one across batches (the frame codec's wireScratch) allocates
// nothing per item in steady state; the zero value is ready to use. What
// decide returns is valid until the next decide.
type batchScratch struct {
	res    []decided
	outs   []offload.Outcome
	keys   []byte         // every distinct item's key, back to back
	byHash map[uint64]int // key hash → the first item with that hash
}

// keySeed seeds the duplicate index's hash; per process, so no client can
// aim for collisions.
var keySeed = maphash.MakeSeed()

// decide serves a batch of n items, coalescing duplicate (region,
// bindings, execute) items: each distinct key is decided once — and
// every decide after the first for a key is itself a decision-cache hit,
// so a batch of identical requests costs one model evaluation at most.
// at decodes item i, once. The second result counts the duplicates.
//
// The duplicate index is keyed by a hash of the key bytes, not a string
// built from them, and a hit is confirmed against the first item's bytes;
// two distinct keys colliding in all 64 bits are simply both decided.
func (bs *batchScratch) decide(ctx context.Context, rt *offload.Runtime, n int, at func(i int) item) ([]decided, int) {
	bs.res, bs.outs, bs.keys = sized(bs.res, n), sized(bs.outs, n), bs.keys[:0]
	if bs.byHash == nil {
		bs.byHash = make(map[uint64]int, n)
	}
	clear(bs.byHash)
	coalesced := 0
	for i := range bs.res {
		it := at(i)
		mark := len(bs.keys)
		bs.keys = it.appendKey(bs.keys)
		key := bs.keys[mark:]
		h := maphash.Bytes(keySeed, key)
		first, seen := bs.byHash[h]
		if seen && bytes.Equal(bs.res[first].key, key) {
			bs.res[i] = decided{first: first}
			bs.keys = bs.keys[:mark]
			coalesced++
			continue
		}
		if !seen {
			bs.byHash[h] = i
		}
		ei := decide(ctx, rt, &it, &bs.outs[i])
		bs.res[i] = decided{out: &bs.outs[i], err: ei, first: i, key: key}
	}
	return bs.res, coalesced
}

// sized returns s with length n, reallocating when it is too short;
// elements keep whatever they held, for the caller to overwrite.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// appendKey builds the duplicate-detection key for one item. Slot-form
// values are already canonical (sorted-name order), so their raw
// encoding is the key; the named form canonicalizes through
// attrdb.BindingsKey. The 's' tag keeps the two forms apart: a slot
// vector is trusted only once decide has checked its hash.
func (it *item) appendKey(dst []byte) []byte {
	dst = append(dst, it.region...)
	dst = append(dst, 0)
	if it.execute {
		dst = append(dst, 'x')
	}
	dst = append(dst, 0)
	if it.slot {
		dst = append(dst, 's')
		for _, v := range it.values {
			dst = binary.AppendVarint(dst, v)
		}
		return dst
	}
	return append(dst, attrdb.BindingsKey(it.bindings)...)
}

// DecideLocal serves one request from rt through the daemon's own core
// and /v2 projection, with no server around it: what a degraded client
// calls for its in-process fallback, so a fallback verdict — or
// item-level failure, carried in Error — is the daemon's by construction.
func DecideLocal(rt *offload.Runtime, req DecideRequest) DecideResponseV2 {
	it := jsonItem(&req)
	var out offload.Outcome
	ei := decide(context.Background(), rt, &it, &out)
	return v2Response(req.Region, &out, ei)
}

// -------------------------------------------------------- projections --

// v1Response projects an outcome — or, where a failure rides inside the
// response instead of an HTTP status, the failure — onto the /v1 shape.
func v1Response(region string, out *offload.Outcome, ei *ErrorInfo) DecideResponse {
	if ei != nil {
		return DecideResponse{Region: region, Error: ei.Message}
	}
	cpuSec, gpuSec := out.BasePair()
	return DecideResponse{
		Region:         region,
		Target:         out.Target.String(),
		PredCPUSeconds: cpuSec,
		PredGPUSeconds: gpuSec,
		SplitFraction:  out.SplitFraction,
		CacheHit:       out.CacheHit,
		ActualSeconds:  out.ActualSeconds,
		DecisionNanos:  out.DecisionOverhead.Nanoseconds(),
	}
}

// v2Response is v1Response for the ranked /v2 shape.
func v2Response(region string, out *offload.Outcome, ei *ErrorInfo) DecideResponseV2 {
	if ei != nil {
		return DecideResponseV2{Region: region, Error: ei}
	}
	return DecideResponseV2{
		Region:        region,
		Verdict:       out.TargetID,
		Kind:          out.Target.String(),
		Policy:        out.Policy.Name(),
		Candidates:    out.Candidates,
		SplitFraction: out.SplitFraction,
		CacheHit:      out.CacheHit,
		Provenance:    out.Provenance,
		ActualSeconds: out.ActualSeconds,
		DecisionNanos: out.DecisionOverhead.Nanoseconds(),
	}
}

// batchV1, batchV2 and batchWire project a decided batch onto the three
// batch response shapes. A duplicate copies the first item's response,
// as a cache hit: that decision answered it.
func batchV1(reqs []DecideRequest, ds []decided) []DecideResponse {
	results := make([]DecideResponse, len(ds))
	for i, d := range ds {
		if d.first != i {
			results[i] = results[d.first]
			results[i].CacheHit = results[i].Error == ""
			continue
		}
		results[i] = v1Response(reqs[i].Region, d.out, d.err)
	}
	return results
}

func batchV2(reqs []DecideRequest, ds []decided) []DecideResponseV2 {
	results := make([]DecideResponseV2, len(ds))
	for i, d := range ds {
		if d.first != i {
			results[i] = results[d.first]
			results[i].CacheHit = results[i].Error == nil
			continue
		}
		results[i] = v2Response(reqs[i].Region, d.out, d.err)
	}
	return results
}

// batchWire does so into the caller's recycled results and one candidate
// arena, sized by a count taken first so that no response's slice moves
// while a later one is appended; both come back for the next batch.
func batchWire(reqs []wire.Request, ds []decided, results []wire.Response, cands []wire.Candidate) ([]wire.Response, []wire.Candidate) {
	total := 0
	for i, d := range ds {
		if d.first == i && d.err == nil {
			total += len(d.out.Candidates)
		}
	}
	results, cands = sized(results, len(ds)), sized(cands, total)[:0]
	for i, d := range ds {
		if d.first != i {
			results[i] = results[d.first]
			results[i].CacheHit = results[i].Err == nil
			continue
		}
		results[i] = projectWireInto(reqs[i].Region, d.out, d.err, cands[len(cands):])
		cands = cands[:len(cands)+len(results[i].Candidates)]
	}
	return results, cands
}

// projectWireInto renders one outcome (or per-item failure) as a
// response frame payload, mirroring v2Response field for field. cands is
// a caller-recycled candidate slice: hot paths (single-frame HTTP,
// stream readers) hand back the previous response's slice so steady
// state does not allocate one per decision. The returned Response
// aliases cands.
func projectWireInto(region string, out *offload.Outcome, ei *ErrorInfo, cands []wire.Candidate) wire.Response {
	if ei != nil {
		return wire.Response{Region: region, Err: &wire.Error{
			Code: ei.Code, Message: ei.Message, RetryAfterSeconds: ei.RetryAfter,
		}}
	}
	d := &out.Decision
	resp := wire.Response{
		Region:        region,
		Verdict:       d.TargetID,
		Kind:          d.Target.String(),
		Policy:        d.Policy.Name(),
		Provenance:    d.Provenance,
		SplitFraction: d.SplitFraction,
		CacheHit:      d.CacheHit,
		ActualSeconds: d.ActualSeconds,
		DecisionNanos: d.DecisionOverhead.Nanoseconds(),
	}
	if len(d.Candidates) > 0 {
		for i := range d.Candidates {
			c := &d.Candidates[i]
			cands = append(cands, wire.Candidate{
				Target:      c.Target,
				Kind:        c.Kind.String(),
				PredSeconds: c.PredSeconds,
				CalSeconds:  c.CalSeconds,
			})
		}
		resp.Candidates = cands
	}
	return resp
}

// -------------------------------------------------------------- errors --

// Error codes carried by the unified error envelope. Clients classify on
// these instead of parsing messages.
const (
	ErrCodeBadRequest       = "bad_request"
	ErrCodeUnknownRegion    = "unknown_region"
	ErrCodeUnboundSymbol    = "unbound_symbol"
	ErrCodeOutOfRange       = "out_of_range"
	ErrCodeDeadlineExceeded = "deadline_exceeded"
	ErrCodeQueueFull        = "queue_full"
	ErrCodeDraining         = "draining"
	ErrCodeBatchTooLarge    = "batch_too_large"
	ErrCodeNotFound         = "not_found"
	ErrCodeInternal         = "internal"
)

// ErrorInfo is the unified error body: a machine-classifiable code, a
// human-readable message, and — on transient rejections — the same
// retry hint the Retry-After header carries, in (possibly fractional)
// seconds. RetryAfter is a float so a sub-second header hint like "0.5"
// survives into the envelope instead of silently vanishing; integral
// hints still encode as bare integers ("retry_after":1), so /v1 bodies
// are byte-identical to the historical int field.
type ErrorInfo struct {
	Code       string  `json:"code"`
	Message    string  `json:"message"`
	RetryAfter float64 `json:"retry_after,omitempty"`

	// status is the HTTP status the error maps to (not serialized; the
	// envelope is self-describing through Code).
	status int `json:"-"`
}

// ErrorEnvelope wraps every non-2xx response body.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

func errInfo(status int, code, msg string) *ErrorInfo {
	return &ErrorInfo{Code: code, Message: msg, status: status}
}

// classify maps a runtime error onto its envelope entry via the
// runtime's sentinel errors.
func classify(err error) *ErrorInfo {
	switch {
	case errors.Is(err, offload.ErrUnknownRegion):
		return errInfo(http.StatusNotFound, ErrCodeUnknownRegion, err.Error())
	case errors.Is(err, offload.ErrUnboundSymbol):
		return errInfo(http.StatusUnprocessableEntity, ErrCodeUnboundSymbol, err.Error())
	case errors.Is(err, offload.ErrOutOfRange):
		return errInfo(http.StatusUnprocessableEntity, ErrCodeOutOfRange, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		return errInfo(http.StatusServiceUnavailable, ErrCodeDeadlineExceeded, err.Error())
	default:
		return errInfo(http.StatusInternalServerError, ErrCodeInternal, err.Error())
	}
}
