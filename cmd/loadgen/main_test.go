package main

import (
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/faultnet"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// rawModes are the three plain (no -client) modes: one bare transport
// each, all driven by the same drive loop.
var rawModes = []string{client.TransportHTTPJSON, client.TransportHTTPBinary, client.TransportStream}

func rawDecider(t *testing.T, kind, baseURL, streamAddr string) decider {
	t.Helper()
	tr, err := client.NewTransport(kind, client.Config{BaseURL: baseURL, StreamAddr: streamAddr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr.Send
}

// cyclingStub is a daemon that answers every call, in turn, with a
// decision, a shed and a hard server error — over HTTP (JSON or frame
// bodies, matching the request) and over a raw stream listener. calls
// counts what it served.
func cyclingStub(t *testing.T) (baseURL, streamAddr string, calls *atomic.Uint64) {
	t.Helper()
	calls = new(atomic.Uint64)
	verdict := wire.Response{Region: "gemm", Verdict: "gpu/base", Kind: "gpu"}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/decide" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		switch calls.Add(1) % 3 {
		case 1:
			if wire.IsFrameContent(r.Header.Get("Content-Type")) {
				w.Header().Set("Content-Type", wire.ContentType)
				w.Write(wire.AppendResponse(nil, &verdict))
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"region":"gemm","verdict":"gpu/base","kind":"gpu"}`))
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	t.Cleanup(ts.Close)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := conn.Write(wire.AppendCredit(nil, 8)); err != nil {
					return
				}
				sr := wire.NewStreamReader(conn)
				for {
					f, err := sr.Next()
					if err != nil || f.Type != wire.TypeStreamRequest {
						return
					}
					resp := verdict
					switch calls.Add(1) % 3 {
					case 2:
						resp = wire.Response{Err: &wire.Error{Code: server.ErrCodeQueueFull, Message: "stream credit exhausted"}}
					case 0:
						resp = wire.Response{Err: &wire.Error{Code: server.ErrCodeInternal, Message: "boom"}}
					}
					if _, err := conn.Write(wire.AppendStreamResponse(nil, f.StreamID, &resp)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ts.URL, l.Addr().String(), calls
}

// TestRunClassifiesResponses drives each raw mode against a stub daemon
// that cycles decision / shed / server error: sheds and hard server
// errors must land in separate counters, and only decisions count.
func TestRunClassifiesResponses(t *testing.T) {
	reqs := []server.DecideRequest{{Region: "gemm", Bindings: map[string]int64{"n": 64}}}
	for _, kind := range rawModes {
		t.Run(kind, func(t *testing.T) {
			url, streamAddr, calls := cyclingStub(t)
			st := drive(rawDecider(t, kind, url, streamAddr), true, reqs, 1, 0, 1, 150*time.Millisecond)

			total := calls.Load()
			if total == 0 {
				t.Fatal("stub saw no traffic")
			}
			if got := st.ok.Load() + st.shed.Load() + st.serverErr.Load(); got != total {
				t.Fatalf("classified %d calls, stub served %d", got, total)
			}
			if st.ok.Load() == 0 || st.shed.Load() == 0 || st.serverErr.Load() == 0 {
				t.Fatalf("missing a class: ok=%d shed=%d serverErr=%d",
					st.ok.Load(), st.shed.Load(), st.serverErr.Load())
			}
			if st.transport.Load() != 0 || st.failed.Load() != 0 {
				t.Fatalf("transport errors against a live stub: %d (+%d incomplete)",
					st.transport.Load(), st.failed.Load())
			}
			if st.decisions.Load() != st.ok.Load() {
				t.Fatalf("decisions %d != ok calls %d (batch 1)",
					st.decisions.Load(), st.ok.Load())
			}
			if err := st.hardErr(); err == nil {
				t.Fatal("5xx responses did not fail hardErr")
			}
		})
	}
}

// TestTransportErrorsCounted points each raw mode at a closed port.
func TestTransportErrorsCounted(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // nothing listens here any more

	reqs := []server.DecideRequest{{Region: "gemm", Bindings: map[string]int64{"n": 64}}}
	for _, kind := range rawModes {
		t.Run(kind, func(t *testing.T) {
			st := drive(rawDecider(t, kind, url, strings.TrimPrefix(url, "http://")), true, reqs, 1, 0, 1, 50*time.Millisecond)
			if st.transport.Load() == 0 {
				t.Fatal("no transport errors against a dead endpoint")
			}
			if st.serverErr.Load() != 0 || st.shed.Load() != 0 || st.ok.Load() != 0 {
				t.Fatalf("dead endpoint misclassified: serverErr=%d shed=%d ok=%d",
					st.serverErr.Load(), st.shed.Load(), st.ok.Load())
			}
			if err := st.hardErr(); err == nil {
				t.Fatal("transport errors did not fail hardErr")
			}
		})
	}
}

// TestClientModeCompletesUnderFaults is the acceptance run in miniature:
// the resilient client (retries + fallback) drives a stub daemon through
// a fault-injection proxy holding the faults30 regime (≈30% mixed
// faults), and every single call must complete with a verdict.
func TestClientModeCompletesUnderFaults(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"region":"mvt1","target":"gpu","predCpuSeconds":1,"predGpuSeconds":0.5}`))
	}))
	defer ts.Close()

	proxy := faultnet.New(ts.URL, 42)
	paddr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	sc, err := faultnet.ParseScenario("faults30")
	if err != nil {
		t.Fatal(err)
	}
	proxy.SetFaults(sc.Steps[0].Faults)

	rt, err := fallbackRuntime("mvt1")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(client.Config{BaseURL: "http://" + paddr, Seed: 1, Fallback: rt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	reqs, err := buildWorkload("", "mvt1", "test", 2, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := drive(resilient(c), false, reqs, 4, 0, 1, 300*time.Millisecond)

	if st.ok.Load() == 0 {
		t.Fatal("no calls completed")
	}
	if f := st.failed.Load(); f != 0 {
		t.Fatalf("%d of %d calls did not complete under the 30%% fault regime",
			f, f+st.ok.Load())
	}
	if err := st.hardErr(); err != nil {
		t.Fatalf("hardErr under faults: %v", err)
	}
	if r, h, fb := st.remote.Load(), st.hedged.Load(), st.fallback.Load(); r+h+fb != st.ok.Load() {
		t.Fatalf("provenance %d+%d+%d does not cover %d completed calls",
			r, h, fb, st.ok.Load())
	}
}

// TestGateScalesToAcceptedTraffic checks the -min-throughput floor is
// judged against what the daemon admitted, not against shed load.
func TestGateScalesToAcceptedTraffic(t *testing.T) {
	st := &stats{elapsed: time.Second}
	st.ok.Store(50)
	st.shed.Store(50) // half the calls deliberately shed
	st.decisions.Store(50)

	// 50 decisions/s meets a floor of 100 scaled by the 50% accepted
	// fraction...
	if err := st.gateErr(100); err != nil {
		t.Fatalf("scaled gate failed: %v", err)
	}
	// ...but not a floor of 200 (scaled to 100).
	if err := st.gateErr(200); err == nil {
		t.Fatal("gate passed below the scaled floor")
	}
	// Without sheds the floor applies unscaled.
	st.shed.Store(0)
	if err := st.gateErr(51); err == nil {
		t.Fatal("gate passed below the unscaled floor")
	}
	if err := st.gateErr(50); err != nil {
		t.Fatalf("gate failed at the floor: %v", err)
	}
	// Sheds alone are not hard errors.
	st.shed.Store(10)
	if err := st.hardErr(); err != nil {
		t.Fatalf("sheds failed hardErr: %v", err)
	}
	// A run that connected to nothing has no accepted calls: the floor
	// stays unscaled and fails loudly rather than vacuously passing.
	empty := &stats{elapsed: time.Second}
	if err := empty.gateErr(10); err == nil {
		t.Fatal("empty run passed the gate")
	}
}

// TestRunWireAgainstRealDaemon drives the binary frame path (-wire
// binary, plain mode) against a live server: every call must decode as
// frames and count its decisions, with zero transport or server errors.
func TestRunWireAgainstRealDaemon(t *testing.T) {
	rt := offload.NewRuntime(offload.Config{
		Platform: machine.PlatformP9V100(),
		CPUSim:   sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:   sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
	})
	k, err := polybench.Get("mvt1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(k.IR); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Runtime: rt,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs, err := buildWorkload("", "mvt1", "test", 2, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 8} {
		params := polybenchParams("mvt1")
		tr, err := client.NewTransport(client.TransportHTTPBinary, client.Config{
			BaseURL: ts.URL, HTTPClient: ts.Client(),
			RegionParams: func(region string) []string { return params[region] },
		})
		if err != nil {
			t.Fatal(err)
		}
		st := drive(tr.Send, true, reqs, 2, 0, batch, 100*time.Millisecond)
		tr.Close()
		if got := st.byTransport[1].Load(); got != st.decisions.Load() {
			t.Fatalf("batch %d: %d of %d decisions tagged %s",
				batch, got, st.decisions.Load(), transports[1])
		}
		if st.ok.Load() == 0 {
			t.Fatalf("batch %d: no wire calls completed", batch)
		}
		if st.transport.Load() != 0 || st.serverErr.Load() != 0 || st.itemErrs.Load() != 0 {
			t.Fatalf("batch %d: errors over the wire path: transport=%d server=%d item=%d",
				batch, st.transport.Load(), st.serverErr.Load(), st.itemErrs.Load())
		}
		if st.decisions.Load() != st.ok.Load()*uint64(batch) {
			t.Fatalf("batch %d: %d decisions from %d ok calls",
				batch, st.decisions.Load(), st.ok.Load())
		}
		if err := st.hardErr(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	// The scrape that closes a run lints what the daemon serves.
	var out strings.Builder
	if err := scrapeMetrics(ts.Client(), ts.URL, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "  hybridsel_decides_total ") {
		t.Fatalf("scrape printed:\n%s", out.String())
	}
}

// TestScrapeRejectsMalformedExposition: a /metrics body a Prometheus
// scraper would refuse fails the run; an unreachable one is only reported.
func TestScrapeRejectsMalformedExposition(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		const fam = "# HELP hybridseld_shed_total Sheds.\n# TYPE hybridseld_shed_total counter\nhybridseld_shed_total 0\n"
		io.WriteString(w, fam+"# Replica b\n"+fam)
	}))
	var out strings.Builder
	err := scrapeMetrics(ts.Client(), ts.URL, &out)
	if err == nil || !strings.Contains(err.Error(), "duplicate family") {
		t.Fatalf("scrape of a duplicated family: %v", err)
	}
	ts.Close()
	if err := scrapeMetrics(ts.Client(), ts.URL, &out); err != nil || !strings.Contains(out.String(), "scrape failed") {
		t.Fatalf("scrape of a closed daemon: %v\n%s", err, out.String())
	}
}
