package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// startStreamServer brings up a server with a raw TCP stream listener
// and returns the listener address.
func startStreamServer(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeStream(l) }()
	t.Cleanup(func() {
		l.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("ServeStream: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("ServeStream did not return after listener close")
		}
	})
	return l.Addr().String()
}

// dialStream connects to a raw stream listener and consumes the credit
// handshake.
func dialStream(t *testing.T, addr string) (net.Conn, *wire.StreamReader, int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sr := wire.NewStreamReader(conn)
	f, err := sr.Next()
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if f.Type != wire.TypeCredit || f.Credit == 0 {
		t.Fatalf("handshake frame = %+v, want credit grant", f)
	}
	return conn, sr, int(f.Credit)
}

func streamReq(t *testing.T, conn net.Conn, id uint64, region string, n int64) {
	t.Helper()
	sendStream(t, conn, id, region, n, false)
}

// streamExec is streamReq for an execute: the one kind of stream request
// that leaves the reader and holds an execution slot, so the one a test
// can park in holdForTest.
func streamExec(t *testing.T, conn net.Conn, id uint64, region string, n int64) {
	t.Helper()
	sendStream(t, conn, id, region, n, true)
}

func sendStream(t *testing.T, conn net.Conn, id uint64, region string, n int64, execute bool) {
	t.Helper()
	req := wire.Request{Region: region, Names: []string{"n"}, Values: []int64{n}, Execute: execute}
	if _, err := conn.Write(wire.AppendStreamRequest(nil, id, &req)); err != nil {
		t.Fatalf("write stream %d: %v", id, err)
	}
}

func TestStreamServeBasic(t *testing.T) {
	s := testServer(t, Config{})
	addr := startStreamServer(t, s)
	conn, sr, credit := dialStream(t, addr)
	if credit != defaultStreamCredit {
		t.Fatalf("credit = %d, want %d", credit, defaultStreamCredit)
	}

	streamReq(t, conn, 1, "gemm", 1100)
	f, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeStreamResponse || f.StreamID != 1 {
		t.Fatalf("frame = %+v, want stream response 1", f)
	}
	if f.Resp.Err != nil {
		t.Fatalf("stream 1 errored: %+v", f.Resp.Err)
	}
	if f.Resp.Kind != "cpu" && f.Resp.Kind != "gpu" {
		t.Fatalf("kind = %q", f.Resp.Kind)
	}

	// Same bindings again: decision-cache hit, same verdict.
	streamReq(t, conn, 2, "gemm", 1100)
	f2, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f2.StreamID != 2 || !f2.Resp.CacheHit || f2.Resp.Verdict != f.Resp.Verdict {
		t.Fatalf("second decide = %+v, want cache hit matching %q", f2.Resp, f.Resp.Verdict)
	}

	// Semantic failures ride the stream as error responses.
	streamReq(t, conn, 3, "nope", 1)
	f3, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f3.Resp.Err == nil || f3.Resp.Err.Code != ErrCodeUnknownRegion {
		t.Fatalf("unknown region answered %+v, want %s", f3.Resp, ErrCodeUnknownRegion)
	}
	if got := s.met.streamRequests.Load(); got != 3 {
		t.Fatalf("streamRequests = %d, want 3", got)
	}
}

// TestStreamOutOfOrder: a slow decision must not block the fast one
// pipelined behind it — completions are matched by stream ID, not
// arrival order.
func TestStreamOutOfOrder(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{}, 1)
	var once sync.Once
	s := testServer(t, Config{concurrency: 4})
	s.holdForTest = func() {
		var wait bool
		once.Do(func() { wait = true; blocked <- struct{}{} })
		if wait {
			<-release
		}
	}
	addr := startStreamServer(t, s)
	conn, sr, _ := dialStream(t, addr)

	streamExec(t, conn, 1, "gemm", 256)
	<-blocked // stream 1 is parked inside its execute
	streamReq(t, conn, 2, "mvt1", 512)

	f, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.StreamID != 2 {
		t.Fatalf("first completion is stream %d, want the fast stream 2", f.StreamID)
	}
	close(release)
	f, err = sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.StreamID != 1 || f.Resp.Err != nil {
		t.Fatalf("slow stream answered %+v, want stream 1 ok", f)
	}
}

// TestStreamCreditExhaustion: requests beyond the granted window are
// shed with queue_full semantics on their own stream — backpressure,
// not a dropped frame or a killed connection.
func TestStreamCreditExhaustion(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s := testServer(t, Config{concurrency: 2})
	s.streamCredit = 2
	s.holdForTest = func() {
		entered <- struct{}{}
		<-release
	}
	addr := startStreamServer(t, s)
	conn, sr, credit := dialStream(t, addr)
	if credit != 2 {
		t.Fatalf("credit = %d, want 2", credit)
	}

	streamExec(t, conn, 1, "gemm", 256)
	streamExec(t, conn, 2, "gemm", 512)
	<-entered // both in flight inside their executes
	<-entered

	streamReq(t, conn, 3, "gemm", 1100) // over the window
	f, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.StreamID != 3 || f.Resp.Err == nil || f.Resp.Err.Code != ErrCodeQueueFull {
		t.Fatalf("over-credit stream answered %+v, want queue_full on stream 3", f)
	}
	if f.Resp.Err.RetryAfterSeconds <= 0 {
		t.Fatalf("queue_full carries no retry hint: %+v", f.Resp.Err)
	}

	close(release)
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		f, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Resp.Err != nil {
			t.Fatalf("stream %d errored after release: %+v", f.StreamID, f.Resp.Err)
		}
		seen[f.StreamID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("in-flight streams not completed: %v", seen)
	}
}

// TestStreamDrainGoaway: Shutdown sends Goaway, in-flight streams
// complete, later streams answer draining — no verdict hangs.
func TestStreamDrainGoaway(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s := testServer(t, Config{concurrency: 2})
	s.holdForTest = func() {
		entered <- struct{}{}
		<-release
	}
	addr := startStreamServer(t, s)
	conn, sr, _ := dialStream(t, addr)

	streamExec(t, conn, 1, "gemm", 256)
	streamExec(t, conn, 2, "mvt1", 512)
	<-entered
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Goaway arrives while streams 1 and 2 are still in flight.
	f, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeGoaway {
		t.Fatalf("frame = %+v, want goaway", f)
	}
	if f.Away.LastStreamID != 2 {
		t.Fatalf("goaway last stream = %d, want 2", f.Away.LastStreamID)
	}

	// A stream past the goaway line is answered with draining, not
	// dropped.
	streamReq(t, conn, 3, "gemm", 1100)
	f, err = sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.StreamID != 3 || f.Resp.Err == nil || f.Resp.Err.Code != ErrCodeDraining {
		t.Fatalf("post-goaway stream answered %+v, want draining on stream 3", f)
	}

	close(release)
	for i := 0; i < 2; i++ {
		f, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.TypeStreamResponse || f.Resp.Err != nil {
			t.Fatalf("in-flight stream %d not completed cleanly: %+v", f.StreamID, f)
		}
	}
	conn.Close()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestStreamPipelinedStress: several connections, each with hundreds of
// pipelined requests in flight against the credit window, all answered
// exactly once. Run under -race this doubles as the data-race gate on
// the reader/worker/combining-writer machinery.
func TestStreamPipelinedStress(t *testing.T) {
	s := testServer(t, Config{})
	s.streamCredit = 32
	addr := startStreamServer(t, s)

	const conns = 4
	const perConn = 300
	kernels := []string{"gemm", "mvt1", "atax2"}
	var wg sync.WaitGroup
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			sr := wire.NewStreamReader(conn)
			f, err := sr.Next()
			if err != nil || f.Type != wire.TypeCredit {
				t.Errorf("conn %d handshake: %v %+v", ci, err, f)
				return
			}
			credit := int(f.Credit)

			got := make(map[uint64]bool, perConn)
			inflight := 0
			next := uint64(1)
			recv := func() bool {
				f, err := sr.Next()
				if err != nil {
					t.Errorf("conn %d read: %v", ci, err)
					return false
				}
				if f.Type != wire.TypeStreamResponse || f.Resp.Err != nil {
					t.Errorf("conn %d stream %d: %+v", ci, f.StreamID, f)
					return false
				}
				if got[f.StreamID] {
					t.Errorf("conn %d stream %d answered twice", ci, f.StreamID)
					return false
				}
				got[f.StreamID] = true
				return true
			}
			for next <= perConn {
				if inflight == credit {
					if !recv() {
						return
					}
					inflight--
				}
				req := wire.Request{
					Region: kernels[int(next)%len(kernels)],
					Names:  []string{"n"},
					Values: []int64{256 + int64(next)%64},
				}
				if _, err := conn.Write(wire.AppendStreamRequest(nil, next, &req)); err != nil {
					t.Errorf("conn %d write: %v", ci, err)
					return
				}
				next++
				inflight++
			}
			for inflight > 0 {
				if !recv() {
					return
				}
				inflight--
			}
			if len(got) != perConn {
				t.Errorf("conn %d: %d of %d streams answered", ci, len(got), perConn)
			}
		}(ci)
	}
	wg.Wait()
	if got := s.met.streamConns.Load(); got != 0 {
		// Connections may still be unwinding; give the gauges a beat.
		time.Sleep(100 * time.Millisecond)
		if got := s.met.streamConns.Load(); got != 0 {
			t.Fatalf("stream connection gauge leaked: %d", got)
		}
	}
}

// TestStreamUpgrade: the HTTP Upgrade path negotiates the same stream
// protocol on the existing port.
func TestStreamUpgrade(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	addr := strings.TrimPrefix(ts.URL, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/stream HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		addr, StreamUpgradeProto)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade status = %d, want 101", resp.StatusCode)
	}
	sr := wire.NewStreamReader(br)
	f, err := sr.Next()
	if err != nil || f.Type != wire.TypeCredit {
		t.Fatalf("handshake after upgrade: %v %+v", err, f)
	}
	streamReq(t, conn, 1, "gemm", 1100)
	f, err = sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TypeStreamResponse || f.StreamID != 1 || f.Resp.Err != nil {
		t.Fatalf("upgraded stream answered %+v", f)
	}

	// A plain GET without the upgrade token is refused, not hijacked.
	r, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("bare GET /v1/stream = %d, want %d", r.StatusCode, http.StatusUpgradeRequired)
	}
}

// TestStreamBurstSharesWrites: responses to requests that arrived
// together leave together. 32 request frames in one segment are answered
// correctly in exactly one write — the reader holds each response while
// another whole request sits in its buffer — not one per decision; a lone
// request is answered by exactly one write, with nothing behind it to
// trigger the flush. The counts are a property of the code, whatever the
// number of Ps: one goroutine reads the segment and answers it.
func TestStreamBurstSharesWrites(t *testing.T) {
	s := testServer(t, Config{})
	ref := testRuntime(t)
	addr := startStreamServer(t, s)
	conn, sr, _ := dialStream(t, addr)

	const burst = 32
	kernels := []string{"gemm", "mvt1", "atax2"}
	want := make(map[uint64]DecideResponseV2, burst)
	var frames []byte
	for id := uint64(1); id <= burst; id++ {
		region, n := kernels[id%3], int64(200+id)
		want[id] = DecideLocal(ref, DecideRequest{Region: region, Bindings: map[string]int64{"n": n}})
		frames = wire.AppendStreamRequest(frames, id,
			&wire.Request{Region: region, Names: []string{"n"}, Values: []int64{n}})
	}
	before := s.met.streamWrites.Load()
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		f, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[f.StreamID]
		if !ok || f.Type != wire.TypeStreamResponse || f.Resp.Err != nil {
			t.Fatalf("frame %+v: want one clean response per stream", f)
		}
		delete(want, f.StreamID)
		if f.Resp.Verdict != w.Verdict || len(f.Resp.Candidates) != len(w.Candidates) ||
			f.Resp.Candidates[0].PredSeconds != w.Candidates[0].PredSeconds {
			t.Fatalf("stream %d answered %+v, reference says %+v", f.StreamID, f.Resp, w)
		}
	}
	if writes := s.met.streamWrites.Load() - before; writes != 1 {
		t.Fatalf("%d responses to one segment took %d writes, want exactly 1", burst, writes)
	}

	before = s.met.streamWrites.Load()
	streamReq(t, conn, burst+1, "gemm", 1100)
	if f, err := sr.Next(); err != nil || f.StreamID != burst+1 || f.Resp.Err != nil {
		t.Fatalf("lone request answered %+v, %v", f, err)
	}
	if writes := s.met.streamWrites.Load() - before; writes != 1 {
		t.Fatalf("a lone response took %d writes, want exactly 1", writes)
	}
}

// TestStreamOutOfOrderBehindHeld is TestStreamOutOfOrder with a third,
// fast stream queued behind the fast one: streams 2 and 3 may be answered
// in the same write, but neither response may wait for the held stream 1.
func TestStreamOutOfOrderBehindHeld(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{}, 1)
	var once sync.Once
	s := testServer(t, Config{concurrency: 4})
	s.holdForTest = func() {
		var wait bool
		once.Do(func() { wait = true; blocked <- struct{}{} })
		if wait {
			<-release
		}
	}
	addr := startStreamServer(t, s)
	conn, sr, _ := dialStream(t, addr)

	streamExec(t, conn, 1, "gemm", 256)
	<-blocked // stream 1 is parked inside its execute
	var frames []byte
	for id, region := range map[uint64]string{2: "mvt1", 3: "atax2"} {
		frames = wire.AppendStreamRequest(frames, id,
			&wire.Request{Region: region, Names: []string{"n"}, Values: []int64{512}})
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		f, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.StreamID == 1 || f.Resp.Err != nil {
			t.Fatalf("completion %d is %+v, want the fast streams 2 and 3 first", i, f)
		}
		seen[f.StreamID] = true
	}
	if !seen[2] || !seen[3] {
		t.Fatalf("fast streams answered: %v, want 2 and 3", seen)
	}
	close(release)
	if f, err := sr.Next(); err != nil || f.StreamID != 1 || f.Resp.Err != nil {
		t.Fatalf("held stream answered %+v, %v, want stream 1 ok", f, err)
	}
}

// TestHeaderDeadline: on the daemon's HTTP port a peer that sends half of
// a request's header and stalls is disconnected once the header deadline
// passes, with no answer; a connection upgraded to a stream and left idle
// well past that deadline keeps deciding.
func TestHeaderDeadline(t *testing.T) {
	s := testServer(t, Config{})
	s.headerTimeout = 50 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	addr := l.Addr().String()
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		return conn
	}

	half := dial()
	fmt.Fprintf(half, "POST /v2/decide HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n", addr)
	if got, err := io.ReadAll(half); err != nil || len(got) != 0 {
		t.Fatalf("half a header: read %q, %v; want the connection closed with no answer", got, err)
	}

	up := dial()
	fmt.Fprintf(up, "GET /v1/stream HTTP/1.1\r\nHost: %s\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		addr, StreamUpgradeProto)
	br := bufio.NewReader(up)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v %v", resp, err)
	}
	sr := wire.NewStreamReader(br)
	if f, err := sr.Next(); err != nil || f.Type != wire.TypeCredit {
		t.Fatalf("handshake after upgrade: %v %+v", err, f)
	}
	time.Sleep(6 * s.headerTimeout)
	streamReq(t, up, 1, "gemm", 1100)
	if f, err := sr.Next(); err != nil || f.Type != wire.TypeStreamResponse || f.Resp.Err != nil {
		t.Fatalf("the upgraded stream, idle past the header deadline, answered %+v, %v", f, err)
	}
}
