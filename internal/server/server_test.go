package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/sim"
)

// testRuntime builds a cheap-simulation runtime over a few kernels.
func testRuntime(t *testing.T) *offload.Runtime { return testRuntimeOver(t, "classic") }

// testRuntimeOver is testRuntime over a -targets registry.
func testRuntimeOver(t *testing.T, targets string) *offload.Runtime {
	t.Helper()
	plat := machine.PlatformP9V100()
	reg, err := offload.ParseTargets(plat, 0, targets)
	if err != nil {
		t.Fatal(err)
	}
	rt := offload.NewRuntime(offload.Config{
		Platform: plat,
		Targets:  reg,
		CPUSim:   sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:   sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
	})
	for _, name := range []string{"gemm", "mvt1", "atax2"} {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// regionOf resolves a registered region's handle.
func regionOf(t testing.TB, rt *offload.Runtime, name string) *offload.Region {
	t.Helper()
	r, err := rt.Region(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Runtime == nil {
		cfg.Runtime = testRuntime(t)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postDecide(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/decide", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestDecideSingle(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":1100}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("missing X-Request-Id")
	}
	var d DecideResponse
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Target != "cpu" && d.Target != "gpu" {
		t.Fatalf("target = %q", d.Target)
	}
	if d.PredCPUSeconds <= 0 || d.PredGPUSeconds <= 0 {
		t.Fatalf("predictions missing: %+v", d)
	}
	if d.ActualSeconds != 0 {
		t.Fatalf("decide-only response carries an executed time: %+v", d)
	}

	// Same bindings again: served from the decision cache.
	_, raw = postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":1100}}`)
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if !d.CacheHit {
		t.Fatalf("second identical decide not a cache hit: %+v", d)
	}
}

func TestDecideExecute(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postDecide(t, ts.URL, `{"region":"mvt1","bindings":{"n":96},"execute":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var d DecideResponse
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.ActualSeconds <= 0 {
		t.Fatalf("execute did not report a time: %+v", d)
	}
}

func TestDecideErrorsMapToStatus(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		body string
		want int
		code string
	}{
		{`{"region":"nope","bindings":{"n":8}}`, http.StatusNotFound, ErrCodeUnknownRegion},
		{`{"region":"gemm","bindings":{"m":8}}`, http.StatusUnprocessableEntity, ErrCodeUnboundSymbol},
		// An empty iteration space is the caller's input, not a fault of
		// the daemon's: a 5xx here would be retried and fed to breakers.
		{`{"region":"gemm","bindings":{"n":0}}`, http.StatusUnprocessableEntity, ErrCodeOutOfRange},
		{`{"region":"gemm","bindings":`, http.StatusBadRequest, ErrCodeBadRequest},
		{`{"bindings":{"n":8}}`, http.StatusBadRequest, ErrCodeBadRequest},
	}
	for _, c := range cases {
		resp, raw := postDecide(t, ts.URL, c.body)
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Errorf("%s: %v (%s)", c.body, err, raw)
		}
		if resp.StatusCode != c.want || env.Error.Code != c.code {
			t.Errorf("%s -> %d %q (%s), want %d %q", c.body, resp.StatusCode, env.Error.Code, raw, c.want, c.code)
		}
	}
}

func TestDecideBatchCoalesces(t *testing.T) {
	rt := testRuntime(t)
	s := testServer(t, Config{Runtime: rt})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var reqs []string
	for i := 0; i < 10; i++ {
		reqs = append(reqs, `{"region":"gemm","bindings":{"n":256}}`)
	}
	reqs = append(reqs, `{"region":"mvt1","bindings":{"n":256}}`)
	reqs = append(reqs, `{"region":"nope","bindings":{"n":256}}`)
	body := `{"requests":[` + strings.Join(reqs, ",") + `]}`

	resp, raw := postDecide(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var br batchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 12 {
		t.Fatalf("%d results, want 12", len(br.Results))
	}
	if br.Coalesced != 9 {
		t.Fatalf("coalesced = %d, want 9", br.Coalesced)
	}
	for i := 1; i < 10; i++ {
		if !br.Results[i].CacheHit || br.Results[i].Target == "" {
			t.Fatalf("duplicate %d not served from the coalesced decision: %+v", i, br.Results[i])
		}
	}
	if br.Results[11].Error == "" {
		t.Fatal("unknown-region item did not carry an error")
	}
	// The whole batch cost exactly two model evaluations.
	if got := rt.Metrics().Predictions; got != 2 {
		t.Fatalf("predictions = %d, want 2", got)
	}
}

func TestBatchTooLarge(t *testing.T) {
	s := testServer(t, Config{})
	s.maxBatch = 2
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"requests":[{"region":"gemm"},{"region":"gemm"},{"region":"gemm"}]}`
	resp, _ := postDecide(t, ts.URL, body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestLoadSheddingWhenQueueFull(t *testing.T) {
	s := testServer(t, Config{concurrency: 1, queueDepth: -1})
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s.holdForTest = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":64}}`)
		done <- resp.StatusCode
	}()
	<-entered // first request holds the only slot

	resp, _ := postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":64}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held request finished %d, want 200", code)
	}
	if got := s.met.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
}

func TestQueuedRequestTimesOut(t *testing.T) {
	s := testServer(t, Config{concurrency: 1, queueDepth: 1,
		requestTimeout: 50 * time.Millisecond})
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	s.holdForTest = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":64}}`)
		done <- resp.StatusCode
	}()
	<-entered

	// Admitted into the queue, but no slot frees before the deadline.
	resp, raw := postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":64}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued status = %d (%s), want 503", resp.StatusCode, raw)
	}
	close(release)
	<-done
}

func TestConcurrentDecideStress(t *testing.T) {
	rt := testRuntime(t)
	s := testServer(t, Config{Runtime: rt})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	names := []string{"gemm", "mvt1", "atax2"}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := fmt.Sprintf(`{"region":%q,"bindings":{"n":%d}}`,
					names[(g+i)%3], 64+32*(i%3))
				resp, err := http.Post(ts.URL+"/v1/decide", "application/json",
					strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.Decides != 160 {
		t.Fatalf("decides = %d, want 160", m.Decides)
	}
	if m.DecisionCacheHits+m.DecisionCacheMisses != 160 {
		t.Fatalf("cache accounting off: %d + %d != 160",
			m.DecisionCacheHits, m.DecisionCacheMisses)
	}
}

func TestRegionsEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/regions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []RegionInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 || infos[0].Name != "atax2" {
		t.Fatalf("regions = %+v", infos)
	}
	for _, info := range infos {
		if len(info.Params) == 0 {
			t.Fatalf("region %s has no params", info.Name)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":128}}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"hybridsel_decides_total 1",
		"hybridsel_model_eval_seconds_bucket",
		"hybridsel_model_eval_seconds_count 1",
		"hybridsel_regions 3",
		"hybridseld_http_requests_total{path=\"/v1/decide\",code=\"200\"} 1",
		"hybridseld_shed_total 0",
		"hybridseld_http_request_seconds_count",
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s := testServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	// Healthy while serving.
	waitHealthy(t, base, 2*time.Second)

	// Hold one request in flight, then begin draining.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.holdForTest = func() {
		entered <- struct{}{}
		<-release
	}
	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/decide", "application/json",
			strings.NewReader(`{"region":"gemm","bindings":{"n":64}}`))
		if err != nil {
			inflight <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Give Shutdown a moment to flip the drain flag, then release the
	// in-flight request: it must complete normally.
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished %d during drain, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned %v", err)
	}
}

func waitHealthy(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

// TestResponsesCarryContentLength pins the pooled buffered-encode
// contract: every JSON response declares an exact Content-Length (so
// keep-alive connections avoid chunked framing) that matches the body
// actually sent.
func TestResponsesCarryContentLength(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw := postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":64}}`)
	if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(raw)) {
		t.Fatalf("decide Content-Length = %q, body = %d bytes", got, len(raw))
	}
	for _, path := range []string{"/healthz", "/v1/regions"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("Content-Length"); got != fmt.Sprint(len(raw)) {
			t.Fatalf("%s Content-Length = %q, body = %d bytes", path, got, len(raw))
		}
	}
	// Error responses go through the same encoder.
	resp2, raw2 := postDecide(t, ts.URL, `{"region":"nope","bindings":{"n":64}}`)
	if resp2.StatusCode == http.StatusOK {
		t.Fatal("unknown region accepted")
	}
	if got := resp2.Header.Get("Content-Length"); got != fmt.Sprint(len(raw2)) {
		t.Fatalf("error Content-Length = %q, body = %d bytes", got, len(raw2))
	}
}
