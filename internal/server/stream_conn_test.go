package server

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file holds the laws of the one-goroutine stream connection: a
// decide is answered by the reader that decoded it, so it waits for
// nothing but its own bytes; the connection costs one goroutine; and a
// response the reader holds for the next buffered frame leaves whatever
// that frame turns out to be.

// TestStreamDecideNeverWaitsForASlot: with every execution slot held — one
// by a parked HTTP request, one by a parked stream execute of the same
// connection — a stream decide is answered all the same. Slots bound what
// can wait (HTTP requests, executes); a decide cannot.
func TestStreamDecideNeverWaitsForASlot(t *testing.T) {
	parked := make(chan struct{})
	release := sync.OnceFunc(func() { close(parked) })
	entered := make(chan struct{}, 2)
	s := testServer(t, Config{concurrency: 2})
	s.holdForTest = func() {
		entered <- struct{}{}
		<-parked
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer release() // a failure must not leave ts.Close waiting for the parked request
	addr := startStreamServer(t, s)
	conn, sr, _ := dialStream(t, addr)

	httpDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v2/decide", "application/json",
			strings.NewReader(`{"region":"gemm","bindings":{"n":256}}`))
		if err != nil {
			t.Error(err)
			httpDone <- 0
			return
		}
		resp.Body.Close()
		httpDone <- resp.StatusCode
	}()
	streamExec(t, conn, 1, "mvt1", 512)
	<-entered
	<-entered
	if free := cap(s.slots) - len(s.slots); free != 0 {
		t.Fatalf("%d execution slots free, want every one held", free)
	}

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	streamReq(t, conn, 2, "atax2", 300)
	f, err := sr.Next()
	if err != nil {
		t.Fatalf("a decide behind %d held slots was not answered: %v", cap(s.slots), err)
	}
	if f.StreamID != 2 || f.Resp.Err != nil || f.Resp.Verdict == "" {
		t.Fatalf("answer %+v, want stream 2's verdict", f)
	}

	release()
	if f, err := sr.Next(); err != nil || f.StreamID != 1 || f.Resp.Err != nil {
		t.Fatalf("held execute answered %+v, %v, want stream 1 ok", f, err)
	}
	if code := <-httpDone; code != http.StatusOK {
		t.Fatalf("held HTTP request answered %d, want 200", code)
	}
}

// streamGoroutines counts the goroutines running this package's stream
// connection code.
func streamGoroutines() int {
	var dump bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&dump, 2) // every goroutine's stack, a blank line between
	n := 0
	for _, g := range strings.Split(dump.String(), "\n\n") {
		if strings.Contains(g, "server.(*Server).serveStreamConn") || strings.Contains(g, "server.(*streamConn).") {
			n++
		}
	}
	return n
}

// TestStreamConnIsOneGoroutine: an idle stream connection costs the server
// one goroutine (it was nine: a reader and eight workers), an execute adds
// one until it is answered, and closing the connections leaves none —
// which is also the leak check.
func TestStreamConnIsOneGoroutine(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s := testServer(t, Config{concurrency: 2})
	s.holdForTest = func() {
		entered <- struct{}{}
		<-release
	}
	addr := startStreamServer(t, s)
	settle := func(want int, when string) {
		t.Helper()
		got := streamGoroutines()
		for deadline := time.Now().Add(5 * time.Second); got != want && time.Now().Before(deadline); got = streamGoroutines() {
			time.Sleep(time.Millisecond)
		}
		if got != want {
			t.Fatalf("%s: %d stream goroutines, want %d", when, got, want)
		}
	}
	settle(0, "before any connection") // earlier tests' connections have unwound

	const idle = 16
	conns := make([]net.Conn, idle)
	var sr *wire.StreamReader
	for i := range conns {
		conns[i], sr, _ = dialStream(t, addr) // the handshake read: the connection is being served
	}
	settle(idle, "16 idle connections")

	last := conns[idle-1] // sr's
	streamExec(t, last, 1, "gemm", 256)
	<-entered
	settle(idle+1, "one execute in flight")
	close(release)
	if f, err := sr.Next(); err != nil || f.StreamID != 1 || f.Resp.Err != nil {
		t.Fatalf("execute answered %+v, %v", f, err)
	}
	settle(idle, "execute answered")

	for _, conn := range conns {
		conn.Close()
	}
	settle(0, "every connection closed")
}

// TestStreamHeldResponsesSurviveABadFrame: 31 decides and one frame that
// ends the connection arrive in one segment, so the reader is holding
// responses when it meets the bad frame. Every one of the 31 is answered,
// with the reference runtime's verdict, before the connection-level error
// (if the frame earns one) and the close.
func TestStreamHeldResponsesSurviveABadFrame(t *testing.T) {
	corrupt := wire.AppendStreamRequest(nil, 99, &wire.Request{Region: "gemm", Names: []string{"n"}, Values: []int64{7}})
	corrupt[len(corrupt)-1] ^= 0xff // the payload no longer parses
	for _, tc := range []struct {
		name      string
		bad       []byte
		wantError bool // a connection-level TypeError frame precedes the close
		waits     bool // no close to see: the reader waits for the rest of the frame, and the answers must not wait with it
	}{
		{name: "unexpected frame type", bad: wire.AppendResponse(nil, &wire.Response{Region: "gemm"}), wantError: true},
		{name: "bad magic", bad: []byte("GET / HTTP/1.1\r\n\r\n")},
		{name: "malformed payload", bad: corrupt},
		{name: "truncated frame", bad: corrupt[:len(corrupt)-3], waits: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testServer(t, Config{})
			ref := testRuntime(t)
			addr := startStreamServer(t, s)
			conn, sr, _ := dialStream(t, addr)

			const good = 31
			kernels := []string{"gemm", "mvt1", "atax2"}
			want := make(map[uint64]wire.Response, good)
			var segment []byte
			for id := uint64(1); id <= good; id++ {
				region, n := kernels[id%3], int64(200+id)
				out, err := regionOf(t, ref, region).Decide(map[string]int64{"n": n})
				if err != nil {
					t.Fatal(err)
				}
				want[id] = projectWireInto(region, out, nil, nil)
				segment = wire.AppendStreamRequest(segment, id,
					&wire.Request{Region: region, Names: []string{"n"}, Values: []int64{n}})
			}
			if _, err := conn.Write(append(segment, tc.bad...)); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			for i := 0; i < good; i++ {
				f, err := sr.Next()
				if err != nil {
					t.Fatalf("answer %d of %d: %v", i+1, good, err)
				}
				w, ok := want[f.StreamID]
				if !ok || f.Type != wire.TypeStreamResponse || f.Resp.Err != nil {
					t.Fatalf("frame %d is %+v, want a clean response to one of the %d decides", i+1, f, good)
				}
				delete(want, f.StreamID)
				if f.Resp.Verdict != w.Verdict || !reflect.DeepEqual(f.Resp.Candidates, w.Candidates) {
					t.Fatalf("stream %d answered %+v, reference says %+v", f.StreamID, f.Resp, w)
				}
			}
			if tc.waits {
				return
			}
			f, err := sr.Next()
			if tc.wantError {
				if err != nil || f.Type != wire.TypeError || f.Err.Code != ErrCodeBadRequest {
					t.Fatalf("after the answers: %+v, %v, want a %s error frame", f, err, ErrCodeBadRequest)
				}
				f, err = sr.Next()
			}
			if err != io.EOF {
				t.Fatalf("after the answers: %+v, %v, want the connection closed", f, err)
			}
		})
	}
}
