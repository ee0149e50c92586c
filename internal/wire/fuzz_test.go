package wire

import (
	"reflect"
	"testing"
)

// FuzzWireFrame feeds arbitrary bytes to the frame decoder. Invariants:
// the decoder never panics, never claims to consume more bytes than it
// was given, and anything it accepts re-encodes to bytes that decode to
// the same frames (decode∘encode is the identity on the decoder's
// image — the codec has one canonical encoding per value).
func FuzzWireFrame(f *testing.F) {
	req := Request{Region: "gemm", Names: []string{"m", "n"}, Values: []int64{128, 1100}}
	f.Add(AppendRequest(nil, &req))
	slot := Request{Region: "mvt1", SlotForm: true, KeyHash: 0xdeadbeefcafe, Values: []int64{4000}}
	f.Add(AppendRequest(nil, &slot))
	f.Add(AppendBatchRequest(nil, []Request{req, slot}))
	resp := Response{
		Region: "gemm", Verdict: "gpu/base", Kind: "gpu", Policy: "model",
		Provenance: "analytical", SplitFraction: 0.5, DecisionNanos: 745,
		Candidates: []Candidate{
			{Target: "gpu/base", Kind: "gpu", PredSeconds: 0.001, CalSeconds: 0.0011},
			{Target: "cpu/base", Kind: "cpu", PredSeconds: 0.002, CalSeconds: 0.002},
		},
	}
	f.Add(AppendResponse(nil, &resp))
	leased := slot
	leased.Lease = true
	f.Add(AppendRequest(nil, &leased))
	stamped := resp
	stamped.Epoch = 300
	f.Add(AppendResponse(nil, &stamped))
	f.Add(AppendEpoch(nil, 12))
	f.Add(AppendBatchResponse(nil, 1, []Response{resp, {Region: "x", Err: &Error{Code: "unknown_region", Message: "no"}}}))
	f.Add(AppendError(nil, &Error{Status: 429, Code: "queue_full", Message: "shed", RetryAfterSeconds: 0.5}))
	f.Add(append(AppendRequest(nil, &req), AppendRequest(nil, &slot)...))
	f.Add([]byte("HS"))
	f.Add([]byte{'H', 'S', 1, 1, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := reencode(fr)
		if re == nil {
			t.Fatalf("decoder returned unknown type %d", fr.Type)
		}
		fr2, n2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-encoded frame consumed %d of %d bytes", n2, len(re))
		}
		if !framesEqual(fr, fr2) {
			t.Fatalf("re-encode changed frame:\n was %+v\n now %+v", fr, fr2)
		}
	})
}

// framesEqual compares frames treating NaN floats as equal to
// themselves (reflect.DeepEqual does this for us since it compares
// bit-patterns only through interface boxing — it does NOT, so compare
// via re-encoding instead when NaNs are present).
func framesEqual(a, b *Frame) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	// NaN != NaN defeats DeepEqual; byte-compare the canonical
	// encodings instead, which is the property we actually need.
	return string(reencode(a)) == string(reencode(b))
}

// reencode is the one frame-type → encoder table of these tests: a type
// the decoder learns must be added here once, or the fuzzers report it.
// It returns nil for a type it does not know.
func reencode(f *Frame) []byte {
	switch f.Type {
	case TypeRequest:
		return AppendRequest(nil, f.Req)
	case TypeBatchRequest:
		return AppendBatchRequest(nil, f.Reqs)
	case TypeResponse:
		return AppendResponse(nil, f.Resp)
	case TypeBatchResponse:
		return AppendBatchResponse(nil, f.Coalesced, f.Resps)
	case TypeError:
		return AppendError(nil, f.Err)
	case TypeStreamRequest:
		return AppendStreamRequest(nil, f.StreamID, f.Req)
	case TypeStreamResponse:
		return AppendStreamResponse(nil, f.StreamID, f.Resp)
	case TypeCredit:
		return AppendCredit(nil, f.Credit)
	case TypeEpoch:
		return AppendEpoch(nil, f.Epoch)
	case TypeGoaway:
		return AppendGoaway(nil, f.Away)
	case TypeGossip:
		return AppendGossip(nil, f.Gossip)
	}
	return nil
}
