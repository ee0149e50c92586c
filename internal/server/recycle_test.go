package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file holds the serving path's recycling contracts: what the
// server keeps between requests (decoder, batch scratch, a stream
// connection's request) must cost nothing per decision and must never be
// observable.

func postFrames(s *Server, w http.ResponseWriter, body []byte) {
	r := httptest.NewRequest(http.MethodPost, "/v2/decide", bytes.NewReader(body))
	r.Header.Set("Content-Type", wire.ContentType)
	s.Handler().ServeHTTP(w, r)
}

// TestWireBatchCountCheckedBeforeAllocation: a frame of a few bytes
// claiming 2^23 items is refused as batch_too_large by its count alone.
// (At the parent commit the same count in a 16 MB body allocated 80 bytes
// an item, ~640 MB, before the limit was looked at.)
func TestWireBatchCountCheckedBeforeAllocation(t *testing.T) {
	s := testServer(t, Config{})
	hostile := []byte{'H', 'S', wire.Version, wire.TypeBatchRequest, 4, 0, 0, 0, 0x80, 0x80, 0x80, 0x04}
	postFrames(s, httptest.NewRecorder(), hostile) // warm the pools and the route's counters

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := httptest.NewRecorder()
	postFrames(s, w, hostile)
	runtime.ReadMemStats(&after)

	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %q", w.Code, w.Body.Bytes())
	}
	fr, _, err := wire.DecodeFrame(w.Body.Bytes())
	if err != nil || fr.Type != wire.TypeError || fr.Err.Code != ErrCodeBatchTooLarge {
		t.Fatalf("answer %+v (%v), want a %s error frame", fr, err, ErrCodeBatchTooLarge)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing a count of 2^23 allocated %d bytes, want < 1 MB", grew)
	}
}

// sink is a ResponseWriter that keeps its buffers between requests, so
// that what a request allocates is the server's doing.
type sink struct {
	h    http.Header
	code int
	body []byte
}

func (w *sink) Header() http.Header  { return w.h }
func (w *sink) WriteHeader(code int) { w.code = code }
func (w *sink) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// TestWireScratchPooling: a scratch a huge batch grew is not pooled; one
// that is pooled keeps its outcomes, candidate storage and all, for the
// next batch to decide into (they pin nothing of the decision cache).
func TestWireScratchPooling(t *testing.T) {
	s := testServer(t, Config{})
	var reqs []wire.Request
	for i := 0; i < maxPooledBatch+1; i++ {
		reqs = append(reqs, wireReqFor("mvt1", symbolic.Bindings{"n": int64(64 + i)}))
	}
	for _, n := range []int{64, len(reqs)} {
		w := httptest.NewRecorder()
		postFrames(s, w, wire.AppendBatchRequest(nil, reqs[:n]))
		if w.Code != http.StatusOK {
			t.Fatalf("batch of %d: status %d", n, w.Code)
		}
		// Whichever scratch the pool hands out next, it is not one the
		// large batch grew.
		sc := wireScratches.Get().(*wireScratch)
		if sc.big || cap(sc.batch.res) > maxPooledBatch || cap(sc.resps) > maxPooledBatch ||
			cap(sc.batch.outs) > maxPooledBatch {
			t.Fatalf("after a batch of %d the pool holds a scratch sized for %d items", n, cap(sc.batch.res))
		}
		for i, out := range sc.batch.outs[:cap(sc.batch.outs)] {
			if out.Region != "" && cap(out.Candidates) < 2 {
				t.Fatalf("after a batch of %d pooled outcome %d gave up its candidate storage: %+v", n, i, out)
			}
		}
		wireScratches.Put(sc)
	}
}

// TestStreamRequestRecycling: the reader decodes every request over the
// one before, except one it handed to an execute — that request is the
// execute's from then on. A window of executes (less the one unit the
// decides need) is parked before any has read its request: some hold a
// slot in holdForTest, the rest wait for one. The reader then decodes and
// answers 1500 decides of other regions and sizes; a request still in the
// reader's frame after dispatch is overwritten under its execute, and that
// stream answered with another stream's region and sizes. Run under -race
// -count=20, where the same mistake is a reported race.
func TestStreamRequestRecycling(t *testing.T) {
	const credit = 16
	gate := make(chan struct{})
	s := testServer(t, Config{concurrency: 4})
	s.streamCredit = credit
	s.holdForTest = func() { <-gate }
	addr := startStreamServer(t, s)
	conn, sr, _ := dialStream(t, addr)

	regions := []string{"gemm", "mvt1", "atax2"}
	want := map[uint64]wire.Request{}
	id := uint64(0)
	request := func(dst []byte, execute bool) []byte {
		id++
		req := wireReqFor(regions[int(id)%3], symbolic.Bindings{"n": int64(64 + id)})
		req.Execute = execute
		want[id] = req
		return wire.AppendStreamRequest(dst, id, &req)
	}
	answer := func() {
		t.Helper()
		f, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		req, ok := want[f.StreamID]
		if !ok || f.Type != wire.TypeStreamResponse || f.Resp.Err != nil {
			t.Fatalf("unexpected frame %+v", f)
		}
		delete(want, f.StreamID)
		ref, err := regionOf(t, s.rt, req.Region).Decide(symbolic.Bindings{"n": req.Values[0]})
		if err != nil {
			t.Fatal(err)
		}
		wantResp := projectWireInto(req.Region, ref, nil, nil)
		if f.Resp.Region != req.Region || f.Resp.Verdict != wantResp.Verdict ||
			!reflect.DeepEqual(f.Resp.Candidates, wantResp.Candidates) ||
			(f.Resp.ActualSeconds > 0) != req.Execute {
			t.Fatalf("stream %d (%s n=%d execute=%v) answered %+v, want %+v",
				f.StreamID, req.Region, req.Values[0], req.Execute, f.Resp, wantResp)
		}
	}

	var burst []byte
	for i := 0; i < credit-1; i++ {
		burst = request(burst, true)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if _, err := conn.Write(request(nil, false)); err != nil {
			t.Fatal(err)
		}
		answer() // a decide's: every execute is parked
	}
	close(gate)
	for len(want) > 0 {
		answer()
	}

	// What a huge request grew is not kept: its answer read and the
	// connection gone, the reader's frame holds no more than a pooled
	// scratch would.
	s.streams.mu.Lock()
	var sc *streamConn
	for sc = range s.streams.conns {
	}
	s.streams.mu.Unlock()
	huge := wire.Request{Region: "gemm", SlotForm: true, Values: make([]int64, maxPooledBatch+1)}
	if _, err := conn.Write(wire.AppendStreamRequest(nil, id+1, &huge)); err != nil {
		t.Fatal(err)
	}
	if f, err := sr.Next(); err != nil || f.Resp.Err == nil || f.Resp.Err.Code != ErrCodeUnboundSymbol {
		t.Fatalf("a request of %d slot values answered %+v (%v)", len(huge.Values), f, err)
	}
	streamReq(t, conn, id+2, "gemm", 64)
	if f, err := sr.Next(); err != nil || f.StreamID != id+2 || f.Resp.Err != nil {
		t.Fatalf("the request after the huge one answered %+v (%v)", f, err)
	}
	conn.Close()
	for deadline := time.Now().Add(5 * time.Second); s.met.streamConns.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("connection still registered after its client closed")
		}
		runtime.Gosched()
	}
	if req := sc.frame.Req; req != nil && cap(req.Values) > maxPooledBatch {
		t.Fatalf("the reader kept a request with room for %d values", cap(req.Values))
	}
}
