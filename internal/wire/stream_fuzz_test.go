package wire

import (
	"bytes"
	"io"
	"testing"
)

// FuzzStreamFrame feeds arbitrary bytes to the incremental stream
// reader. Invariants: Next never panics, the incremental reader agrees
// frame-for-frame with the whole-body decoder on the same bytes,
// every stream frame it accepts re-encodes canonically (decode∘encode
// is the identity on the decoder's image), and FrameBuffered keeps its
// contract with the bytes delivered in two pieces.
func FuzzStreamFrame(f *testing.F) {
	req := Request{Region: "gemm", SlotForm: true, KeyHash: 0xfeedface, Values: []int64{1100}}
	f.Add(AppendStreamRequest(nil, 1, &req))
	named := Request{Region: "mvt1", Names: []string{"n"}, Values: []int64{4000}}
	f.Add(AppendStreamRequest(nil, 7, &named))
	resp := Response{
		Region: "gemm", Verdict: "gpu/base", Kind: "gpu", Policy: "model",
		Provenance: "analytical", SplitFraction: 0.25, DecisionNanos: 745,
		Candidates: []Candidate{{Target: "gpu/base", Kind: "gpu", PredSeconds: 0.001, CalSeconds: 0.0011}},
	}
	f.Add(AppendStreamResponse(nil, 1, &resp))
	f.Add(AppendStreamResponse(nil, 9, &Response{
		Region: "gemm",
		Err:    &Error{Code: "queue_full", Message: "stream credit exhausted", RetryAfterSeconds: 0.01},
	}))
	f.Add(AppendCredit(nil, 64))
	leased := req
	leased.Lease = true
	f.Add(AppendStreamRequest(nil, 3, &leased))
	stamped := resp
	stamped.Epoch = 9
	f.Add(AppendStreamResponse(nil, 3, &stamped))
	f.Add(AppendEpoch(nil, 10))
	f.Add(AppendGoaway(nil, &Goaway{LastStreamID: 41, Reason: "draining"}))
	pipelined := AppendCredit(nil, 8)
	pipelined = AppendStreamRequest(pipelined, 1, &req)
	pipelined = AppendStreamResponse(pipelined, 1, &resp)
	pipelined = AppendGoaway(pipelined, &Goaway{LastStreamID: 1, Reason: "bye"})
	f.Add(pipelined)
	f.Add([]byte{'H', 'S', 1, TypeCredit, 1, 0, 0, 0, 64})
	f.Add([]byte{'H', 'S', 2, TypeCredit, 1, 0, 0, 0, 64}) // version skew

	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrameBuffered(t, data, len(data)/2)
		checkFrameBuffered(t, data, len(data))
		sr := NewStreamReader(bytes.NewReader(data))
		rest := data
		for {
			got, err := sr.Next()
			want, n, derr := DecodeFrame(rest)
			if err != nil {
				// The incremental reader may fail differently on
				// truncation (ErrUnexpectedEOF vs "exceeds body") but
				// must never accept what DecodeFrame rejects, except
				// at a clean frame boundary.
				if derr == nil && err != io.EOF {
					t.Fatalf("StreamReader rejected (%v) what DecodeFrame accepts", err)
				}
				return
			}
			if derr != nil {
				t.Fatalf("StreamReader accepted what DecodeFrame rejects: %v", derr)
			}
			// framesEqual, not DeepEqual: a fuzzed float payload can
			// decode to NaN, which DeepEqual never equates with itself.
			if !framesEqual(got, want) {
				t.Fatalf("decoder disagreement:\n stream %+v\n  whole %+v", got, want)
			}
			rest = rest[n:]

			var re []byte
			switch got.Type {
			case TypeStreamRequest:
				re = AppendStreamRequest(nil, got.StreamID, got.Req)
			case TypeStreamResponse:
				re = AppendStreamResponse(nil, got.StreamID, got.Resp)
			case TypeCredit:
				re = AppendCredit(nil, got.Credit)
			case TypeEpoch:
				re = AppendEpoch(nil, got.Epoch)
			case TypeGoaway:
				re = AppendGoaway(nil, got.Away)
			default:
				continue // request/response/error frames are FuzzWireFrame's job
			}
			re2, n2, err := DecodeFrame(re)
			if err != nil || n2 != len(re) {
				t.Fatalf("re-encoded stream frame does not decode: %v (%d of %d bytes)", err, n2, len(re))
			}
			if !framesEqual(got, re2) {
				t.Fatalf("re-encode changed frame:\n was %+v\n now %+v", got, re2)
			}
		}
	})
}
