package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// TestLeaseVocabularyLeavesOldFramesAlone: a request without Lease and a
// response without an epoch stamp encode byte for byte as they did before
// the lease vocabulary existed, and those bytes decode to the same values;
// the flag, the stamp and TypeEpoch round-trip.
func TestLeaseVocabularyLeavesOldFramesAlone(t *testing.T) {
	resp := Response{Region: "gemm", Verdict: "gpu/base", Kind: "gpu", Policy: "model-guided",
		Provenance: "analytical", CacheHit: true, SplitFraction: 0.25, DecisionNanos: 745,
		Candidates: []Candidate{{Target: "gpu/base", Kind: "gpu", PredSeconds: 0.001, CalSeconds: 0.0011},
			{Target: "cpu/base", Kind: "cpu", PredSeconds: 0.002, CalSeconds: 0.002}}}
	// Each golden is what the encoders wrote before Request.Lease,
	// Response.Epoch and TypeEpoch were added.
	for _, c := range []struct {
		name   string
		frame  []byte
		golden string
	}{
		{"slot stream request", AppendStreamRequest(nil, 5, &Request{Region: "gemm", SlotForm: true, KeyHash: 0xfeedface, Values: []int64{1100}}),
			"485301061200000005020467656d6d01cefaedfe000000009811"},
		{"named execute request", AppendRequest(nil, &Request{Region: "mvt1", Execute: true, Names: []string{"m", "n"}, Values: []int64{128, -4000}}),
			"485301010f00000001046d76743102016d8002016ebf3e"},
		{"stream response", AppendStreamResponse(nil, 5, &resp),
			"485301077900000005010467656d6d086770752f62617365036770750c6d6f64656c2d6775696465640a616e616c79746963616c000000000000d03f0000000000000000d20b02086770752f6261736503677075fca9f1d24d62503f2f6ea301bc05523f086370752f6261736503637075fca9f1d24d62603ffca9f1d24d62603f"},
		{"error response", AppendResponse(nil, &Response{Region: "x", Err: &Error{Code: "unknown_region", Message: "no"}}),
			"485301021e000000020178000e756e6b6e6f776e5f726567696f6e026e6f0000000000000000"},
	} {
		golden, err := hex.DecodeString(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.frame, golden) {
			t.Errorf("%s encodes as\n  %x\nwant\n  %s", c.name, c.frame, c.golden)
		}
		f, n, err := DecodeFrame(golden)
		if err != nil || n != len(golden) {
			t.Fatalf("%s: the old bytes do not decode: %v (%d of %d bytes)", c.name, err, n, len(golden))
		}
		if (f.Req != nil && f.Req.Lease) || (f.Resp != nil && f.Resp.Epoch != 0) || !bytes.Equal(reencode(f), golden) {
			t.Errorf("%s: the old bytes decode to %+v", c.name, f)
		}
	}

	leased := Request{Region: "gemm", SlotForm: true, Lease: true, KeyHash: 0xfeedface, Values: []int64{1100}}
	stamped := resp
	stamped.Epoch = 1 << 40
	for _, frame := range [][]byte{
		AppendStreamRequest(nil, 9, &leased),
		AppendStreamResponse(nil, 9, &stamped),
		AppendResponse(nil, &Response{Region: "x", Epoch: 3, Err: &Error{Code: "unknown_region", Message: "no"}}),
		AppendEpoch(nil, 77),
	} {
		f, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reencode(f), frame) {
			t.Errorf("type %d does not round-trip: %+v", f.Type, f)
		}
		switch {
		case f.Type == TypeStreamRequest && !reflect.DeepEqual(*f.Req, leased),
			f.Type == TypeStreamResponse && !reflect.DeepEqual(*f.Resp, stamped),
			f.Type == TypeResponse && f.Resp.Epoch != 3,
			f.Type == TypeEpoch && f.Epoch != 77:
			t.Errorf("type %d decodes to %+v", f.Type, f)
		}
	}
}
