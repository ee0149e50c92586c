package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/faultnet"
	"github.com/hybridsel/hybridsel/internal/server"
)

// realStreamDaemon stands up a live server over the fallback-runtime
// kernel set, serving HTTP on an httptest server and the raw stream
// protocol on its own TCP listener. Returns (baseURL, streamAddr).
func realStreamDaemon(t *testing.T) (string, string) {
	t.Helper()
	srv, err := server.New(server.Config{
		Runtime: fallbackRuntime(t),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() { _ = srv.ServeStream(l) }()
	return ts.URL, l.Addr().String()
}

// TestStreamDecideMatchesJSON: the same queries through a JSON client
// and a stream client against the same daemon produce identical
// verdicts, and the stream verdicts are tagged with their transport.
func TestStreamDecideMatchesJSON(t *testing.T) {
	url, addr := realStreamDaemon(t)
	jsonClient := newTestClient(t, Config{BaseURL: url})
	streamClient := newTestClient(t, Config{
		BaseURL: url, Stream: true, StreamAddr: addr,
	})

	reqs := []server.DecideRequest{
		{Region: "gemm", Bindings: map[string]int64{"n": 700}},
		{Region: "mvt1", Bindings: map[string]int64{"n": 4000}},
		{Region: "gemm", Bindings: map[string]int64{"n": 96}},
	}
	ctx := context.Background()
	for i, req := range reqs {
		jv, jerr := jsonClient.Decide(ctx, req)
		sv, serr := streamClient.Decide(ctx, req)
		if jerr != nil || serr != nil {
			t.Fatalf("req %d: json err %v, stream err %v", i, jerr, serr)
		}
		if sv.Provenance != ProvenanceRemote {
			t.Fatalf("req %d: stream provenance %q", i, sv.Provenance)
		}
		if sv.Transport != TransportStream {
			t.Fatalf("req %d: transport %q, want %q", i, sv.Transport, TransportStream)
		}
		if jv.Transport != TransportHTTPJSON {
			t.Fatalf("req %d: json transport %q", i, jv.Transport)
		}
		if got, want := normalizeV2(sv.Response), normalizeV2(jv.Response); !reflect.DeepEqual(got, want) {
			t.Fatalf("req %d: stream verdict diverges\n  json:   %+v\n  stream: %+v", i, want, got)
		}
	}
	m := streamClient.Metrics()
	if m.StreamCalls != uint64(len(reqs)) || m.StreamFallbacks != 0 || m.StreamDowngrades != 0 {
		t.Fatalf("stream metrics %+v", m)
	}
}

// TestStreamUpgradeOverHTTPPort: with no StreamAddr the client
// negotiates the stream over the HTTP port via Upgrade, and decisions
// ride it.
func TestStreamUpgradeOverHTTPPort(t *testing.T) {
	url, _ := realStreamDaemon(t)
	c := newTestClient(t, Config{BaseURL: url, Stream: true})

	v, err := c.Decide(context.Background(), gemmReq())
	if err != nil {
		t.Fatal(err)
	}
	if v.Transport != TransportStream || v.Provenance != ProvenanceRemote {
		t.Fatalf("verdict transport %q provenance %q", v.Transport, v.Provenance)
	}
	if m := c.Metrics(); m.StreamCalls == 0 || m.StreamDowngrades != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestStreamFailoverToHTTP: a dead stream endpoint costs nothing but
// the failed dial — every verdict still arrives over HTTP in the same
// attempt, with no sticky downgrade (the endpoint might come back).
func TestStreamFailoverToHTTP(t *testing.T) {
	url, _ := realStreamDaemon(t)
	// Reserve a port, then close it: dials are refused.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	_ = dead.Close()

	c := newTestClient(t, Config{
		BaseURL: url, Stream: true, StreamAddr: deadAddr,
	})
	for i := 0; i < 3; i++ {
		v, err := c.Decide(context.Background(), gemmReq())
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		if v.Provenance != ProvenanceRemote || v.Transport != TransportHTTPJSON {
			t.Fatalf("decide %d: provenance %q transport %q", i, v.Provenance, v.Transport)
		}
	}
	m := c.Metrics()
	if m.StreamFallbacks == 0 {
		t.Fatalf("no stream fallbacks recorded: %+v", m)
	}
	if m.StreamDowngrades != 0 {
		t.Fatalf("refused dial latched a protocol downgrade: %+v", m)
	}
}

// TestStreamStickyDowngrade: a peer that answers the handshake with
// bytes that are not the frame protocol latches the sticky downgrade —
// later decides never try the stream again.
func TestStreamStickyDowngrade(t *testing.T) {
	url, _ := realStreamDaemon(t)
	// A "stream" endpoint that speaks gibberish.
	bogus, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bogus.Close() })
	go func() {
		for {
			c, err := bogus.Accept()
			if err != nil {
				return
			}
			_, _ = c.Write([]byte("HTTP/1.1 200 OK\r\n\r\nnot frames"))
		}
	}()

	c := newTestClient(t, Config{
		BaseURL: url, Stream: true, StreamAddr: bogus.Addr().String(),
	})
	for i := 0; i < 3; i++ {
		v, err := c.Decide(context.Background(), gemmReq())
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		if v.Transport != TransportHTTPJSON {
			t.Fatalf("decide %d transport %q", i, v.Transport)
		}
	}
	m := c.Metrics()
	if m.StreamDowngrades != 1 {
		t.Fatalf("want exactly one sticky downgrade, got %+v", m)
	}
	if m.StreamCalls != 0 {
		t.Fatalf("decides rode a stream that never handshook: %+v", m)
	}
}

// TestStreamUpgradeRefusedDowngrades: an older daemon without the
// stream endpoint refuses the Upgrade with a plain HTTP status; the
// client downgrades stickily and keeps serving over plain HTTP.
func TestStreamUpgradeRefusedDowngrades(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stream" {
			http.NotFound(w, r)
			return
		}
		okResponse(w, "gemm", "gpu/base")
	})
	c := newTestClient(t, Config{BaseURL: ts.URL, Stream: true})

	for i := 0; i < 3; i++ {
		v, err := c.Decide(context.Background(), gemmReq())
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		if v.Transport != TransportHTTPJSON {
			t.Fatalf("decide %d transport %q", i, v.Transport)
		}
	}
	m := c.Metrics()
	if m.StreamDowngrades != 1 || m.StreamCalls != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestStreamConcurrentStress: many goroutines share a two-connection
// pool; every decide completes, overwhelmingly over the stream, with
// no downgrades. Run with -race.
func TestStreamConcurrentStress(t *testing.T) {
	url, addr := realStreamDaemon(t)
	c := newTestClient(t, Config{
		BaseURL: url, Stream: true, StreamAddr: addr, StreamConns: 2,
		timeout: 5 * time.Second,
	})

	const goroutines, perG = 16, 30
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := server.DecideRequest{
					Region:   "gemm",
					Bindings: map[string]int64{"n": int64(64 + (g*perG+i)%512)},
				}
				if _, err := c.Decide(context.Background(), req); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.StreamCalls < goroutines*perG {
		t.Fatalf("only %d of %d decides rode the stream: %+v", m.StreamCalls, goroutines*perG, m)
	}
	if m.StreamDowngrades != 0 {
		t.Fatalf("stress latched a downgrade: %+v", m)
	}
}

// TestChaosStreamMidKillLosesNoVerdicts is the stream acceptance chaos
// case: decide traffic rides persistent stream connections through a
// raw-TCP faultnet proxy whose relays are repeatedly hard-killed
// mid-stream (plus seeded resets tearing frames at the byte level).
// Every in-flight decide must fail over to retry or direct HTTP —
// 100% of issued decides complete, zero protocol downgrades.
func TestChaosStreamMidKillLosesNoVerdicts(t *testing.T) {
	url, addr := realStreamDaemon(t)
	proxy := faultnet.NewTCP(addr, 42)
	proxyAddr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	// Seeded byte-level chaos on top of the explicit kills: a third of
	// new connections die mid-stream, half of those with a torn frame.
	proxy.SetFaults(faultnet.TCPFaults{ResetRate: 0.34, TruncateRate: 0.5})

	c := newTestClient(t, Config{
		BaseURL: url, // HTTP failover goes direct: the daemon is healthy
		Stream:  true, StreamAddr: proxyAddr, StreamConns: 2,
		maxAttempts: 4, retryBackoff: time.Millisecond,
		breakerFailures: 10_000, timeout: 2 * time.Second,
	})

	const goroutines, perG = 8, 40
	done := make(chan struct{})
	var killer sync.WaitGroup
	killer.Add(1)
	go func() {
		defer killer.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
				proxy.KillActive()
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	byTransport := make([]map[string]int, goroutines)
	for g := 0; g < goroutines; g++ {
		byTransport[g] = map[string]int{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := server.DecideRequest{
					Region:   "gemm",
					Bindings: map[string]int64{"n": int64(64 + (g*perG+i)%512)},
				}
				v, err := c.Decide(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				byTransport[g][v.Transport]++
			}
		}(g)
	}
	wg.Wait()
	close(done)
	killer.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("a decide was lost mid-kill: %v", err)
	}

	total := map[string]int{}
	for _, m := range byTransport {
		for k, v := range m {
			total[k] += v
		}
	}
	if n := total[TransportStream] + total[TransportHTTPJSON] + total[TransportHTTPBinary] + total[TransportLocal]; n != goroutines*perG {
		t.Fatalf("verdicts %d/%d by transport %v", n, goroutines*perG, total)
	}
	m := c.Metrics()
	if m.StreamDowngrades != 0 {
		t.Fatalf("mid-stream kills latched a protocol downgrade: %+v", m)
	}
	if total[TransportStream] == 0 {
		t.Fatalf("nothing rode the stream under chaos: %v (metrics %+v)", total, m)
	}
	t.Logf("chaos stream: transports %v, reconnects=%d fallbacks=%d proxy=%+v",
		total, m.StreamReconnects, m.StreamFallbacks, proxy.Stats())
}

// countingConn counts Write calls; an armed gate parks each Write until
// the test releases it, with the error the Write is to fail with or nil
// to let it through.
type countingConn struct {
	net.Conn
	writes  atomic.Int64
	gate    atomic.Pointer[chan error]
	entered chan struct{}
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if g := c.gate.Load(); g != nil {
		c.entered <- struct{}{}
		if err := <-*g; err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

// dialCounted opens a StreamConn to addr whose writes go through a
// countingConn.
func dialCounted(t *testing.T, addr string) (*StreamConn, *countingConn) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw, entered: make(chan struct{}, 1)}
	sc, err := newStreamConn(cc, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })
	return sc, cc
}

// TestStreamWriteCombining: concurrent callers of one StreamConn share
// conn.Write calls — fewer writes than calls — and every verdict still
// equals the reference's; a connection used one call at a time makes
// exactly one write per call.
func TestStreamWriteCombining(t *testing.T) {
	_, addr := realStreamDaemon(t)
	ref := fallbackRuntime(t)
	sc, cc := dialCounted(t, addr)

	decide := func(n int64) error {
		req := server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": n}}
		wr := toWireRequest(req, nil)
		resp, err := sc.Decide(context.Background(), &wr)
		if err != nil {
			return err
		}
		// Compared as the JSON both would be served as: the reference's
		// candidates carry an in-process field the wire does not.
		got, _ := json.Marshal(normalizeV2(wireToResponseV2(resp, nil)))
		want, _ := json.Marshal(normalizeV2(server.DecideLocal(ref, req)))
		if string(got) != string(want) {
			return fmt.Errorf("n=%d: stream verdict %s, reference %s", n, got, want)
		}
		return nil
	}

	const callers, perCaller = 32, 50
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			for i := 0; i < perCaller; i++ {
				if err := decide(int64(64 + (g*perCaller+i)%512)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if w := cc.writes.Load(); w >= callers*perCaller {
		t.Fatalf("%d concurrent calls took %d writes: nothing was combined", callers*perCaller, w)
	}

	before := cc.writes.Load()
	for i := 0; i < perCaller; i++ {
		if err := decide(int64(700 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if w := cc.writes.Load() - before; w != perCaller {
		t.Fatalf("%d one-at-a-time calls took %d writes, want one each", perCaller, w)
	}
}

// TestStreamCombinedWriteFailureFailsEveryRider: callers whose frames
// sit in the shared buffer have already returned from write, so when the
// write that carries them fails — the flusher's conn.Write itself, or
// the connection killed under it — each must still get a transport
// error, and none may hang.
func TestStreamCombinedWriteFailureFailsEveryRider(t *testing.T) {
	_, addr := realStreamDaemon(t)
	proxy := faultnet.NewTCP(addr, 7)
	proxyAddr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })

	for name, fail := range map[string]func() error{
		"flusher's write fails": func() error { return errors.New("injected write failure") },
		"killed while buffered": func() error { proxy.KillActive(); return nil },
	} {
		t.Run(name, func(t *testing.T) {
			sc, cc := dialCounted(t, proxyAddr)
			wr := toWireRequest(gemmReq(), nil)
			if _, err := sc.Decide(context.Background(), &wr); err != nil {
				t.Fatalf("healthy connection: %v", err)
			}

			gate := make(chan error)
			cc.gate.Store(&gate)
			const callers = 8
			errs := make(chan error, callers)
			for g := 0; g < callers; g++ {
				go func() {
					_, err := sc.Decide(context.Background(), &wr)
					errs <- err
				}()
			}
			<-cc.entered // the flusher is parked inside conn.Write ...
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				waiting := slotsIn(sc, slotWaiting)
				if waiting == callers {
					break // ... and every other caller is at, or past, putting its frame in the buffer
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d callers waiting, want %d", waiting, callers)
				}
			}
			cc.gate.Store(nil) // later writes, if the parked one gets through, pass
			gate <- fail()

			for g := 0; g < callers; g++ {
				select {
				case err := <-errs:
					if !errors.Is(err, errStreamBroken) {
						t.Fatalf("caller returned %v, want a transport error", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("caller %d of %d hangs after the combined write failed", g+1, callers)
				}
			}
			if sc.Usable() {
				t.Fatal("connection still usable after its write failed")
			}
		})
	}
}
