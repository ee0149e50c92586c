package wire

import (
	"fmt"
	"testing"
)

// The decode layer's benchmarks: the StreamReader both ends of a stream
// connection run, fed pipelined frames through its own bufio buffer, and
// the two batch doors over batch64. Each op is one frame.

// loopReader hands out data over and over, in Reads of at most chunk
// bytes, the way a busy connection delivers a pipelined burst.
type loopReader struct {
	data  []byte
	off   int
	chunk int
}

func (l *loopReader) Read(p []byte) (int, error) {
	p = p[:min(len(p), l.chunk)]
	n := 0
	for n < len(p) {
		c := copy(p[n:], l.data[l.off:])
		n += c
		l.off = (l.off + c) % len(l.data)
	}
	return n, nil
}

// classicStream returns 64 pipelined stream frames over 24 regions: the
// slot-form requests of one value, or the classic pair's answers to them
// (two candidates, the verdict first).
func classicStream(responses bool) []byte {
	var buf []byte
	for i := 0; i < 64; i++ {
		region := fmt.Sprintf("kernel%02d", i%24)
		id := uint64(1000 + i)
		if !responses {
			buf = AppendStreamRequest(buf, id, &Request{Region: region, SlotForm: true,
				KeyHash: uint64(i) * 0x9e3779b97f4a7c15, Values: []int64{int64(1100 + i)}})
			continue
		}
		buf = AppendStreamResponse(buf, id, &Response{Region: region, Verdict: "gpu/base", Kind: "gpu",
			Policy: "model-guided", Provenance: "analytical", CacheHit: true, DecisionNanos: int64(90 + i),
			Candidates: []Candidate{
				{Target: "gpu/base", Kind: "gpu", PredSeconds: 1e-3, CalSeconds: 1e-3},
				{Target: "cpu/base", Kind: "cpu", PredSeconds: 4e-3, CalSeconds: 4e-3},
			}})
	}
	return buf
}

func benchStreamReader(b *testing.B, responses bool) {
	sr := NewStreamReader(&loopReader{data: classicStream(responses), chunk: 4096})
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sr.NextInto(&f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamReaderResponses(b *testing.B) { benchStreamReader(b, true) }
func BenchmarkStreamReaderRequests(b *testing.B)  { benchStreamReader(b, false) }

func BenchmarkDecodeFrameBatchResponse64(b *testing.B) {
	_, resps := batch64()
	body := AppendBatchResponse(nil, 0, resps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecoderBatchRequest64(b *testing.B) {
	reqs, _ := batch64()
	body := AppendBatchRequest(nil, reqs)
	dec := &Decoder{MaxItems: 4096}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dec.Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}
