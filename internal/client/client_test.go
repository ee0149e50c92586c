package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/metrics"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/sim"
)

// fallbackRuntime builds the in-process runtime used for degraded mode.
func fallbackRuntime(t testing.TB) *offload.Runtime {
	t.Helper()
	rt := offload.NewRuntime(offload.Config{
		Platform: machine.PlatformP9V100(),
		CPUSim:   sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:   sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
	})
	for _, name := range []string{"gemm", "mvt1"} {
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

// stubDaemon answers /v2/decide with a canned per-request handler. It
// 404s /v1/stream, so a Stream client's decides go out over HTTP and h
// sees decide calls only.
func stubDaemon(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/v1/stream", http.NotFoundHandler())
	mux.Handle("/", h)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// okResponse writes a well-formed single DecideResponseV2 whose verdict
// is the given target registry ID.
func okResponse(w http.ResponseWriter, region, verdict string) {
	_ = json.NewEncoder(w).Encode(server.DecideResponseV2{Region: region, Verdict: verdict})
}

func newTestClient(t testing.TB, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func gemmReq() server.DecideRequest {
	return server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 1100}}
}

func TestDecideRemote(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v2/decide" || r.Method != http.MethodPost {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
		}
		okResponse(w, "gemm", "gpu/base")
	})
	c := newTestClient(t, Config{BaseURL: ts.URL})

	v, err := c.Decide(context.Background(), gemmReq())
	if err != nil {
		t.Fatal(err)
	}
	if v.Provenance != ProvenanceRemote || v.Attempts != 1 || v.Response.Verdict != "gpu/base" {
		t.Fatalf("verdict %+v", v)
	}
	m := c.Metrics()
	if m.Requests != 1 || m.RemoteOK != 1 || m.Retries != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestRetryOn5xxThenSuccess(t *testing.T) {
	var calls atomic.Int64
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			// Legacy string-shaped error body: the classifier must fall
			// back to the HTTP status.
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		okResponse(w, "gemm", "cpu/base")
	})
	c := newTestClient(t, Config{
		BaseURL: ts.URL, retryBackoff: time.Millisecond,
	})

	v, err := c.Decide(context.Background(), gemmReq())
	if err != nil {
		t.Fatal(err)
	}
	if v.Attempts != 3 || v.Provenance != ProvenanceRemote {
		t.Fatalf("verdict %+v", v)
	}
	m := c.Metrics()
	if m.Retries != 2 || m.ServerErrors != 2 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestShedRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.1")
			http.Error(w,
				`{"error":{"code":"queue_full","message":"admission queue full"}}`,
				http.StatusTooManyRequests)
			return
		}
		okResponse(w, "gemm", "gpu/base")
	})
	c := newTestClient(t, Config{
		BaseURL: ts.URL, retryBackoff: time.Millisecond,
		breakerFailures: 1, // a shed must NOT trip even a hair-trigger breaker
	})

	start := time.Now()
	v, err := c.Decide(context.Background(), gemmReq())
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 90*time.Millisecond {
		t.Fatalf("Retry-After not honored: waited %v", el)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts %d", v.Attempts)
	}
	m := c.Metrics()
	if m.Sheds != 1 || m.RetryAfterHonored != 1 {
		t.Fatalf("metrics %+v", m)
	}
	if m.BreakerOpened != 0 || c.BreakerState() != BreakerClosed {
		t.Fatalf("429 fed the breaker: %+v", m)
	}
}

// TestSingleClientRetryLaw holds the loop on a route of one to what the
// single-daemon retry loop did before it was also the cluster's: against
// a stub failing its first k calls, the attempts made, what the verdict
// says of them, the retries counted, the sleeps taken and the breaker's
// transitions are the constants below, recorded by running this test at
// the commit before the merge.
func TestSingleClientRetryLaw(t *testing.T) {
	const backoff = 4 * time.Millisecond
	type law struct {
		calls, attempts, retries int // stub calls; Verdict.Attempts; Metrics.Retries = sleeps
		prov                     Provenance
		opened                   uint64
	}
	for _, tc := range []struct {
		breakerFailures int
		want            []law // by k = 0 … defaultMaxAttempts
	}{
		{4, []law{
			{1, 1, 0, ProvenanceRemote, 0},
			{2, 2, 1, ProvenanceRemote, 0},
			{3, 3, 2, ProvenanceRemote, 0},
			{4, 4, 3, ProvenanceRemote, 0},
			{4, 4, 3, ProvenanceFallback, 1},
		}},
		// The breaker opens on the second failure; the loop still sleeps
		// once more before it finds that out.
		{2, []law{
			{1, 1, 0, ProvenanceRemote, 0},
			{2, 2, 1, ProvenanceRemote, 0},
			{2, 2, 2, ProvenanceFallback, 1},
			{2, 2, 2, ProvenanceFallback, 1},
			{2, 2, 2, ProvenanceFallback, 1},
		}},
	} {
		for k, want := range tc.want {
			t.Run(fmt.Sprintf("threshold %d, k=%d", tc.breakerFailures, k), func(t *testing.T) {
				var mu sync.Mutex
				var arrivals []time.Time
				ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
					mu.Lock()
					arrivals = append(arrivals, time.Now())
					n := len(arrivals)
					mu.Unlock()
					if n <= k {
						http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
						return
					}
					okResponse(w, "gemm", "cpu/base")
				})
				c := newTestClient(t, Config{
					BaseURL: ts.URL, Fallback: fallbackRuntime(t),
					retryBackoff: backoff, breakerFailures: tc.breakerFailures, breakerCooldown: time.Hour,
				})
				v, err := c.Decide(context.Background(), gemmReq())
				end := time.Now()
				if err != nil {
					t.Fatal(err)
				}
				m := c.Metrics()
				mu.Lock() // the handlers have returned; this is for the race detector
				defer mu.Unlock()
				got := law{len(arrivals), v.Attempts, int(m.Retries), v.Provenance, m.BreakerOpened}
				if got != want {
					t.Fatalf("%+v, want %+v", got, want)
				}
				if m.BreakerHalfOpen != 0 || m.BreakerClosed != 0 || m.ServerErrors != uint64(want.calls-int(m.RemoteOK)) {
					t.Errorf("metrics %+v", m)
				}
				// Every counted retry was slept for: sleep i lasts at least the
				// jitter floor of its backoff, half of backoff doubled i times,
				// and ends at the next attempt, or at the verdict when the
				// breaker opened meanwhile.
				for i := 0; i < want.retries; i++ {
					until := end
					if i+1 < len(arrivals) {
						until = arrivals[i+1]
					}
					if slept, floor := until.Sub(arrivals[i]), (backoff<<i)/2; slept < floor {
						t.Errorf("%v between attempt %d and what followed, want a sleep of at least %v", slept, i+1, floor)
					}
				}
			})
		}
	}
}

// TestParseErrBodyShapes: the error classifier accepts the structured
// /v2 envelope, the legacy {"error": "..."} string, and raw non-JSON
// bodies, in that order of preference.
func TestParseErrBodyShapes(t *testing.T) {
	cases := []struct {
		name string
		body string
		want RemoteError
	}{
		{"envelope", `{"error":{"code":"queue_full","message":"full","retry_after":2}}`,
			RemoteError{Code: "queue_full", Message: "full", RetryAfter: 2 * time.Second}},
		{"envelope-no-retry", `{"error":{"code":"draining","message":"bye"}}`,
			RemoteError{Code: "draining", Message: "bye"}},
		{"legacy-string", `{"error":"boom"}`, RemoteError{Message: "boom"}},
		{"raw", "bad gateway", RemoteError{Message: "bad gateway"}},
	}
	for _, tc := range cases {
		if got := parseErrBody([]byte(tc.body)); *got != tc.want {
			t.Errorf("%s: parseErrBody = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// Structured codes drive retry classification regardless of status;
	// without one the status decides. want is {retryable, breaker}.
	for _, tc := range []struct {
		re   RemoteError
		want [2]bool
	}{
		{RemoteError{Status: 200, Code: "queue_full"}, [2]bool{true, false}},
		{RemoteError{Status: 500, Code: "unknown_region"}, [2]bool{false, false}},
		{RemoteError{Status: 400, Code: "draining"}, [2]bool{true, true}},
		{RemoteError{Status: 503}, [2]bool{true, true}},
		{RemoteError{Status: 429}, [2]bool{true, false}},
		{RemoteError{Status: 404}, [2]bool{false, false}},
	} {
		retryable, breaker := tc.re.class()
		if got := [2]bool{retryable, breaker}; got != tc.want {
			t.Errorf("%+v: class = %v, want %v", tc.re, got, tc.want)
		}
		if tc.re.Shed() != (tc.want == [2]bool{true, false}) {
			t.Errorf("%+v: Shed = %v", tc.re, tc.re.Shed())
		}
	}
}

func TestPermanent4xxFailsFastWithoutFallback(t *testing.T) {
	var calls atomic.Int64
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w,
			`{"error":{"code":"unknown_region","message":"offload: unknown region"}}`,
			http.StatusNotFound)
	})
	c := newTestClient(t, Config{
		BaseURL: ts.URL, Fallback: fallbackRuntime(t),
	})

	_, err := c.Decide(context.Background(), server.DecideRequest{Region: "nope"})
	if err == nil {
		t.Fatal("404 produced a verdict")
	}
	var perm *RemoteError
	if !errors.As(err, &perm) || perm.Status != http.StatusNotFound {
		t.Fatalf("error %v", err)
	}
	if retryable, _ := perm.class(); retryable {
		t.Fatalf("error %v classified retryable", err)
	}
	if perm.Code != server.ErrCodeUnknownRegion {
		t.Fatalf("structured code %q, want %q", perm.Code, server.ErrCodeUnknownRegion)
	}
	if calls.Load() != 1 {
		t.Fatalf("4xx retried: %d calls", calls.Load())
	}
	if m := c.Metrics(); m.Fallbacks != 0 || m.PermanentErrors != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestBreakerOpensThenFallsBack(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	})
	c := newTestClient(t, Config{
		BaseURL: ts.URL, Fallback: fallbackRuntime(t), maxAttempts: 1,
		breakerFailures: 2, breakerCooldown: time.Hour,
	})

	// First two calls exhaust retries and degrade to fallback, feeding
	// the breaker.
	for i := 0; i < 2; i++ {
		v, err := c.Decide(context.Background(), gemmReq())
		if err != nil {
			t.Fatal(err)
		}
		if v.Provenance != ProvenanceFallback || v.Attempts != 1 {
			t.Fatalf("call %d verdict %+v", i, v)
		}
		if v.Response.Verdict == "" || len(v.Response.Candidates) == 0 {
			t.Fatalf("fallback verdict has no target: %+v", v.Response)
		}
	}
	if c.BreakerState() != BreakerOpen {
		t.Fatalf("breaker %v after threshold failures", c.BreakerState())
	}
	// With the breaker open the fallback serves without touching the
	// network at all.
	v, err := c.Decide(context.Background(), gemmReq())
	if err != nil {
		t.Fatal(err)
	}
	if v.Provenance != ProvenanceFallback || v.Attempts != 0 {
		t.Fatalf("open-breaker verdict %+v", v)
	}
	m := c.Metrics()
	if m.Fallbacks != 3 || m.BreakerOpened != 1 || m.BreakerState != BreakerOpen {
		t.Fatalf("metrics %+v", m)
	}
}

func TestBreakerOpenWithoutFallbackErrors(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	})
	c := newTestClient(t, Config{
		BaseURL: ts.URL, maxAttempts: 1,
		breakerFailures: 1, breakerCooldown: time.Hour,
	})
	if _, err := c.Decide(context.Background(), gemmReq()); err == nil {
		t.Fatal("502 with no fallback produced a verdict")
	}
	_, err := c.Decide(context.Background(), gemmReq())
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("error %v", err)
	}
}

// TestSlowAnswerIsAskedOnce: an attempt is one send. A daemon that has
// answered fast for a while and then answers late is waited for under
// the attempt's deadline, not asked a second time, and its late answer is
// an ordinary remote verdict.
func TestSlowAnswerIsAskedOnce(t *testing.T) {
	var calls, slow atomic.Int64
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if slow.Load() != 0 {
			time.Sleep(50 * time.Millisecond)
		}
		okResponse(w, "gemm", "gpu/base")
	})
	c := newTestClient(t, Config{BaseURL: ts.URL})
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		if _, err := c.Decide(ctx, gemmReq()); err != nil {
			t.Fatal(err)
		}
	}
	slow.Store(1)
	for i := 0; i < 3; i++ {
		calls.Store(0)
		v, err := c.Decide(ctx, gemmReq())
		if err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("slow decide %d reached the daemon %d times, want once", i, n)
		}
		if v.Provenance != ProvenanceRemote || v.Attempts != 1 {
			t.Fatalf("slow decide %d: provenance %q after %d attempts, want remote after 1", i, v.Provenance, v.Attempts)
		}
	}
}

func TestExecuteRequestsAreNeverHedged(t *testing.T) {
	var calls atomic.Int64
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(50 * time.Millisecond)
		okResponse(w, "gemm", "gpu/base")
	})
	c := newTestClient(t, Config{BaseURL: ts.URL})

	req := gemmReq()
	req.Execute = true
	if _, err := c.Decide(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("execute request duplicated: %d calls", calls.Load())
	}
}

func TestIdenticalInflightRequestsCoalesce(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		<-gate
		okResponse(w, "gemm", "gpu/base")
	})
	c := newTestClient(t, Config{BaseURL: ts.URL})

	const n = 4
	verdicts := make([]*Verdict, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Decide(context.Background(), gemmReq())
			if err != nil {
				t.Error(err)
				return
			}
			verdicts[i] = v
		}(i)
	}
	// Let the followers pile onto the leader's flight, then release.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if calls.Load() != 1 {
		t.Fatalf("identical requests made %d network calls", calls.Load())
	}
	coalesced := 0
	for _, v := range verdicts {
		if v == nil {
			t.Fatal("missing verdict")
		}
		if v.Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced %d of %d", coalesced, n)
	}
	if m := c.Metrics(); m.Coalesced != n-1 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestDecideBatchPositionsAndClientCoalescing(t *testing.T) {
	var sent atomic.Int64
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		var batch struct {
			Requests []server.DecideRequest `json:"requests"`
		}
		_ = json.NewDecoder(r.Body).Decode(&batch)
		sent.Store(int64(len(batch.Requests)))
		results := make([]server.DecideResponseV2, len(batch.Requests))
		for i, req := range batch.Requests {
			results[i] = server.DecideResponseV2{Region: req.Region, Verdict: "gpu/base"}
		}
		_ = json.NewEncoder(w).Encode(server.BatchResponseV2{Results: results})
	})
	c := newTestClient(t, Config{BaseURL: ts.URL})

	// Each letter is a distinct request; a repeat is a duplicate of its
	// first occurrence and must come back Coalesced, first occurrences
	// must not, and every position must carry its own region.
	regions := map[byte]string{'A': "gemm", 'B': "mvt1"}
	for _, pattern := range []string{"ABA", "AA", "ABB", "AAB", "ABAB", "A"} {
		reqs := make([]server.DecideRequest, len(pattern))
		for i := range pattern {
			reqs[i] = server.DecideRequest{Region: regions[pattern[i]], Bindings: map[string]int64{"n": 8}}
		}
		out, err := c.DecideBatch(context.Background(), reqs)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if len(out) != len(pattern) {
			t.Fatalf("%s: got %d verdicts", pattern, len(out))
		}
		seen := map[byte]bool{}
		for i := range pattern {
			if out[i].Response.Region != regions[pattern[i]] {
				t.Errorf("%s: verdict %d region %q", pattern, i, out[i].Response.Region)
			}
			if out[i].Coalesced != seen[pattern[i]] {
				t.Errorf("%s: verdict %d Coalesced = %v, want %v", pattern, i, out[i].Coalesced, seen[pattern[i]])
			}
			seen[pattern[i]] = true
		}
		if int(sent.Load()) != len(seen) {
			t.Errorf("%s: duplicates not coalesced: %d requests sent for %d distinct", pattern, sent.Load(), len(seen))
		}
	}
}

func TestDecideBatchFallsBackWholesale(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	c := newTestClient(t, Config{
		BaseURL: ts.URL, Fallback: fallbackRuntime(t),
		maxAttempts: 1,
	})
	out, err := c.DecideBatch(context.Background(), []server.DecideRequest{
		{Region: "gemm", Bindings: map[string]int64{"n": 256}},
		{Region: "not-registered"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Provenance != ProvenanceFallback || out[0].Response.Verdict == "" {
		t.Fatalf("verdict 0: %+v", out[0])
	}
	// Item-level model errors travel in Response.Error with the daemon's
	// own structured codes.
	if out[1].Response.Error == nil {
		t.Fatalf("verdict 1 swallowed its error: %+v", out[1])
	}
	if out[1].Response.Error.Code != server.ErrCodeUnknownRegion {
		t.Fatalf("verdict 1 error code %q, want %q",
			out[1].Response.Error.Code, server.ErrCodeUnknownRegion)
	}
}

func TestRegisterMetricsExposition(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		okResponse(w, "gemm", "gpu/base")
	})
	c := newTestClient(t, Config{BaseURL: ts.URL})
	if _, err := c.Decide(context.Background(), gemmReq()); err != nil {
		t.Fatal(err)
	}
	out := expose(t, func(s *metrics.Set) { c.RegisterMetrics(s) })
	for _, want := range []string{
		"hybridselc_requests_total 1",
		"hybridselc_remote_ok_total 1",
		"# TYPE hybridselc_breaker_state gauge",
		"hybridselc_breaker_state 0",
		"hybridselc_retries_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
