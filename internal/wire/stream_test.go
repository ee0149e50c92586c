package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// TestStreamRoundTrip drives the stream envelope with seeded random
// frames and asserts decode(encode(x)) == x through both the whole-body
// decoder and the incremental StreamReader — the two must agree.
func TestStreamRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 2000; i++ {
		var buf []byte
		want := make([]*Frame, 0, 4)
		for _, pick := range []int{r.Intn(4), r.Intn(4)} {
			switch pick {
			case 0:
				req := randRequest(r)
				id := r.Uint64()
				buf = AppendStreamRequest(buf, id, &req)
				want = append(want, &Frame{Type: TypeStreamRequest, StreamID: id, Req: &req})
			case 1:
				resp := randResponse(r)
				id := r.Uint64()
				buf = AppendStreamResponse(buf, id, &resp)
				want = append(want, &Frame{Type: TypeStreamResponse, StreamID: id, Resp: &resp})
			case 2:
				n := r.Uint64()
				buf = AppendCredit(buf, n)
				want = append(want, &Frame{Type: TypeCredit, Credit: n})
			case 3:
				g := &Goaway{LastStreamID: r.Uint64(), Reason: randString(r, 32)}
				buf = AppendGoaway(buf, g)
				want = append(want, &Frame{Type: TypeGoaway, Away: g})
			}
		}
		got, err := DecodeAll(buf)
		if err != nil {
			t.Fatalf("iter %d: DecodeAll: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: decoded %d frames, want %d", i, len(got), len(want))
		}
		for j := range got {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("iter %d frame %d:\n got %+v\nwant %+v", i, j, got[j], want[j])
			}
		}

		// The incremental reader must produce the identical frames.
		sr := NewStreamReader(bytes.NewReader(buf))
		for j := range want {
			f, err := sr.Next()
			if err != nil {
				t.Fatalf("iter %d: StreamReader frame %d: %v", i, j, err)
			}
			if !reflect.DeepEqual(f, want[j]) {
				t.Fatalf("iter %d stream frame %d:\n got %+v\nwant %+v", i, j, f, want[j])
			}
		}
		if _, err := sr.Next(); err != io.EOF {
			t.Fatalf("iter %d: want io.EOF after last frame, got %v", i, err)
		}
	}
}

// TestStreamReaderTruncation: a connection dying between frames is a
// clean io.EOF; dying mid-frame is io.ErrUnexpectedEOF.
func TestStreamReaderTruncation(t *testing.T) {
	req := Request{Region: "gemm", SlotForm: true, KeyHash: 7, Values: []int64{1100}}
	full := AppendStreamRequest(nil, 3, &req)

	sr := NewStreamReader(bytes.NewReader(nil))
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	for cut := 1; cut < len(full); cut++ {
		sr := NewStreamReader(bytes.NewReader(full[:cut]))
		if _, err := sr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// TestStreamReaderRejects: bad magic and version skew fail loudly with
// the tagged sentinel errors so the client can downgrade.
func TestStreamReaderRejects(t *testing.T) {
	good := AppendCredit(nil, 64)

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := NewStreamReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad magic: want ErrMalformed, got %v", err)
	}

	skew := append([]byte(nil), good...)
	skew[2] = Version + 1
	if _, err := NewStreamReader(bytes.NewReader(skew)).Next(); !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: want ErrVersion, got %v", err)
	}

	huge := append([]byte(nil), good...)
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := NewStreamReader(bytes.NewReader(huge)).Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized payload: want ErrMalformed, got %v", err)
	}
}

// TestStreamReaderNoAlias: frames must stay valid after later Next
// calls even though the reader reuses its payload buffer.
func TestStreamReaderNoAlias(t *testing.T) {
	var buf []byte
	buf = AppendStreamRequest(buf, 1, &Request{Region: "first", Names: []string{"n"}, Values: []int64{1}})
	buf = AppendStreamRequest(buf, 2, &Request{Region: "second", Names: []string{"m"}, Values: []int64{2}})
	sr := NewStreamReader(bytes.NewReader(buf))
	f1, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if f1.Req.Region != "first" || f1.Req.Names[0] != "n" {
		t.Fatalf("first frame mutated by second read: %+v", f1.Req)
	}
}

// TestStreamReaderInPlaceNoAlias: a frame decoded where its bytes sit in
// the reader's buffer keeps every field bit for bit after the buffer has
// been refilled and overwritten, one delivered in small pieces as much as
// one copied out of a buffer too small for it; and a batch response larger
// than the buffer decodes as DecodeFrame decodes it.
func TestStreamReaderInPlaceNoAlias(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	var stream []byte
	stream = AppendStreamRequest(stream, 1, &Request{Region: "gemm", Lease: true, Names: []string{"m", "n"}, Values: []int64{128, 1100}})
	stream = AppendStreamResponse(stream, 2, &Response{Region: "gemm", Verdict: "gpu/base", Kind: "gpu",
		Policy: "model-guided", Provenance: "analytical", SplitFraction: 0.25, DecisionNanos: 700, Epoch: 9,
		Candidates: []Candidate{{Target: "gpu/base", Kind: "gpu", PredSeconds: 1e-3, CalSeconds: 2e-3},
			{Target: "cpu/a-target-name-longer-than-eight-bytes", Kind: "cpu", PredSeconds: 3e-3, CalSeconds: 4e-3}}})
	stream = AppendError(stream, &Error{Status: 503, Code: "draining", Message: "the daemon is draining", RetryAfterSeconds: 0.5})
	stream = AppendGoaway(stream, &Goaway{LastStreamID: 2, Reason: "shutting down"})
	kept := len(stream)
	for i := 0; i < 100; i++ {
		req, resp := randRequest(r), randResponse(r)
		if i%2 == 0 {
			stream = AppendStreamRequest(stream, uint64(3+i), &req)
		} else {
			stream = AppendStreamResponse(stream, uint64(3+i), &resp)
		}
	}
	want, err := DecodeAll(stream[:kept])
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]func() io.Reader{
		"in place, 7-byte pieces": func() io.Reader { return &cutReader{data: stream, piece: 7} },
		"copied, 16-byte buffer":  func() io.Reader { return bufio.NewReaderSize(&cutReader{data: stream, piece: 7}, 16) },
	} {
		sr := NewStreamReader(src())
		got := make([]*Frame, len(want))
		for i := range got {
			if got[i], err = sr.Next(); err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
		}
		for i := 0; i < 100; i++ {
			if _, err := sr.Next(); err != nil {
				t.Fatalf("%s: frame %d: %v", name, len(want)+i, err)
			}
		}
		if _, err := sr.Next(); err != io.EOF {
			t.Fatalf("%s: want io.EOF after the last frame, got %v", name, err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: frame %d changed by later reads:\n got %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
	}

	_, resps := batch64()
	big := AppendBatchResponse(nil, 3, append(append(append(resps, resps...), resps...), resps...))
	if len(big) <= 32<<10 {
		t.Fatalf("batch response of %d bytes fits the default buffer", len(big))
	}
	wantBig, _, err := DecodeFrame(big)
	if err != nil {
		t.Fatal(err)
	}
	gotBig, err := NewStreamReader(&cutReader{data: big, piece: 1000}).Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBig, wantBig) {
		t.Fatal("a batch response larger than the buffer decodes unlike DecodeFrame")
	}
}

// cutReader hands out data[:cut] on its first Read and the rest on its
// second, the way a burst of frames arrives split across two segments —
// in Reads of at most piece bytes, if piece is set — and counts the Reads.
type cutReader struct {
	data      []byte
	cut, off  int
	piece     int
	readCalls int
}

func (r *cutReader) Read(p []byte) (int, error) {
	r.readCalls++
	end := len(r.data)
	if r.off < r.cut {
		end = r.cut
	}
	if r.off == end {
		return 0, io.EOF
	}
	if r.piece > 0 {
		end = min(end, r.off+r.piece)
	}
	n := copy(p, r.data[r.off:end])
	r.off += n
	return n, nil
}

// checkFrameBuffered walks data, delivered in two pieces split at cut,
// through a StreamReader and holds FrameBuffered to its contract before
// every Next: true exactly when the bytes delivered so far and not yet
// consumed hold the next frame's header and whole payload, and when
// true, Next does not touch the connection. Shared by the property test
// and FuzzStreamFrame, so data need not be well-formed.
func checkFrameBuffered(t *testing.T, data []byte, cut int) {
	t.Helper()
	r := &cutReader{data: data, cut: cut}
	sr := NewStreamReader(r)
	consumed := 0
	for {
		have := r.off - consumed
		whole := have >= headerLen &&
			uint64(have-headerLen) >= uint64(binary.LittleEndian.Uint32(data[consumed+4:]))
		got := sr.FrameBuffered()
		if got != whole {
			t.Fatalf("cut %d, offset %d, %d bytes delivered: FrameBuffered = %v, want %v",
				cut, consumed, r.off, got, whole)
		}
		before := r.readCalls
		_, err := sr.Next()
		if got && r.readCalls != before {
			t.Fatalf("cut %d, offset %d: FrameBuffered was true but Next read the connection", cut, consumed)
		}
		if err != nil {
			return
		}
		consumed += headerLen + int(binary.LittleEndian.Uint32(data[consumed+4:]))
	}
}

// TestStreamReaderFrameBuffered: a pipelined frame stream cut at every
// byte offset never reports a whole frame early (nor late), whichever
// frame the cut falls in and wherever in it — header or payload.
func TestStreamReaderFrameBuffered(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	var stream []byte
	for i := 0; i < 3; i++ {
		req, resp := randRequest(r), randResponse(r)
		stream = AppendStreamRequest(stream, r.Uint64(), &req)
		stream = AppendCredit(stream, r.Uint64())
		stream = AppendStreamResponse(stream, r.Uint64(), &resp)
		stream = AppendGoaway(stream, &Goaway{LastStreamID: r.Uint64(), Reason: randString(r, 32)})
	}
	for cut := 0; cut <= len(stream); cut++ {
		checkFrameBuffered(t, stream, cut)
	}
	if sr := NewStreamReader(bytes.NewReader(nil)); sr.FrameBuffered() {
		t.Fatal("FrameBuffered true on an empty stream")
	}
}
