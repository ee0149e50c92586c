package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// regionParamsHook derives the Config.RegionParams hook from a runtime —
// what a real deployment does with its fallback runtime, since client
// and daemon register the same kernels.
func regionParamsHook(rt *offload.Runtime) func(string) []string {
	return func(region string) []string {
		r, err := rt.Region(region)
		if err != nil {
			return nil
		}
		return r.ParamNames()
	}
}

// realDaemon stands up a live server over the fallback-runtime kernel
// set and returns its base URL.
func realDaemon(t *testing.T) string {
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
	return ts.URL
}

// normalizeV2 zeroes per-call noise so binary and JSON verdicts compare
// bit-for-bit.
func normalizeV2(r server.DecideResponseV2) server.DecideResponseV2 {
	r.DecisionNanos = 0
	r.CacheHit = false
	return r
}

// TestBinaryDecideMatchesJSON: the same queries through a JSON client
// and a binary client against the same daemon produce identical
// verdicts — single calls, batches, per-item errors, and permanent
// error codes all match.
func TestBinaryDecideMatchesJSON(t *testing.T) {
	url := realDaemon(t)
	frt := fallbackRuntime(t)
	jsonClient := newTestClient(t, Config{BaseURL: url})
	binClient := newTestClient(t, Config{
		BaseURL: url, Binary: true, RegionParams: regionParamsHook(frt),
	})

	reqs := []server.DecideRequest{
		{Region: "gemm", Bindings: map[string]int64{"n": 700}},
		{Region: "mvt1", Bindings: map[string]int64{"n": 4000}},
		{Region: "gemm", Bindings: map[string]int64{"n": 96}},
	}
	ctx := context.Background()
	for i, req := range reqs {
		jv, jerr := jsonClient.Decide(ctx, req)
		bv, berr := binClient.Decide(ctx, req)
		if jerr != nil || berr != nil {
			t.Fatalf("req %d: json err %v, binary err %v", i, jerr, berr)
		}
		if jv.Provenance != bv.Provenance || bv.Provenance != ProvenanceRemote {
			t.Fatalf("req %d: provenance json %q binary %q", i, jv.Provenance, bv.Provenance)
		}
		if got, want := normalizeV2(bv.Response), normalizeV2(jv.Response); !reflect.DeepEqual(got, want) {
			t.Fatalf("req %d: binary verdict diverges\n  json:   %+v\n  binary: %+v", i, want, got)
		}
	}

	// A batch with a duplicate and a per-item failure.
	batch := []server.DecideRequest{
		reqs[0], reqs[1], reqs[0],
		{Region: "no-such-region", Bindings: map[string]int64{"n": 8}},
	}
	jvs, jerr := jsonClient.DecideBatch(ctx, batch)
	bvs, berr := binClient.DecideBatch(ctx, batch)
	if jerr != nil || berr != nil {
		t.Fatalf("batch: json err %v, binary err %v", jerr, berr)
	}
	for i := range batch {
		got, want := normalizeV2(bvs[i].Response), normalizeV2(jvs[i].Response)
		if got.Error != nil && want.Error != nil {
			// Message texts may legitimately differ in formatting detail;
			// the stable contract is the code.
			if got.Error.Code != want.Error.Code {
				t.Fatalf("batch item %d: error code json %q binary %q", i, want.Error.Code, got.Error.Code)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch item %d diverges\n  json:   %+v\n  binary: %+v", i, want, got)
		}
	}
	if bvs[3].Response.Error == nil || bvs[3].Response.Error.Code != server.ErrCodeUnknownRegion {
		t.Fatalf("batch item 3 error %+v", bvs[3].Response.Error)
	}

	// Permanent errors classify off the TypeError frame exactly like the
	// JSON envelope: no retries, no fallback, code preserved.
	_, err := binClient.Decide(ctx, server.DecideRequest{
		Region: "no-such-region", Bindings: map[string]int64{"n": 8},
	})
	var perm *RemoteError
	if !errors.As(err, &perm) || perm.Code != server.ErrCodeUnknownRegion {
		t.Fatalf("binary unknown region error %v", err)
	}
	if retryable, _ := perm.class(); retryable {
		t.Fatalf("binary unknown region error %v classified retryable", err)
	}

	m := binClient.Metrics()
	if m.WireCalls == 0 {
		t.Fatalf("binary client made no wire calls: %+v", m)
	}
	if m.WireDowngrades != 0 {
		t.Fatalf("binary client downgraded against a frame-speaking daemon: %+v", m)
	}
	if jm := jsonClient.Metrics(); jm.WireCalls != 0 {
		t.Fatalf("JSON client made wire calls: %+v", jm)
	}
}

// TestBinaryDowngradesAgainstJSONOnlyDaemon: an old daemon that answers
// a frame body with a JSON bad_request envelope triggers exactly one
// sticky downgrade; the same attempt goes out again as JSON and the
// verdict arrives without touching the retry budget, the fallback
// runtime or the breaker.
func TestBinaryDowngradesAgainstJSONOnlyDaemon(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if wire.IsFrameContent(r.Header.Get("Content-Type")) {
			// An old daemon fails to parse frames as JSON.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			_, _ = w.Write([]byte(`{"error":{"code":"bad_request","message":"decode body: invalid character"}}`))
			return
		}
		okResponse(w, "gemm", "gpu/base")
	})
	c := newTestClient(t, Config{
		BaseURL: ts.URL, retryBackoff: time.Millisecond,
		breakerFailures: 1, // the downgrade must not feed even a hair-trigger breaker
		Binary:          true,
		RegionParams:    func(string) []string { return []string{"n"} },
	})

	v, err := c.Decide(context.Background(), gemmReq())
	if err != nil {
		t.Fatal(err)
	}
	if v.Provenance != ProvenanceRemote || v.Attempts != 1 || v.Response.Verdict != "gpu/base" {
		t.Fatalf("verdict %+v", v)
	}
	if c.BreakerState() != BreakerClosed {
		t.Fatalf("downgrade fed the breaker: %v", c.BreakerState())
	}

	// The downgrade is sticky: later calls go straight to JSON.
	if _, err := c.Decide(context.Background(), gemmReq()); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.WireCalls != 1 || m.WireDowngrades != 1 {
		t.Fatalf("wire metrics %+v", m)
	}
	if m.Retries != 0 || m.PermanentErrors != 0 || m.Fallbacks != 0 {
		t.Fatalf("downgrade misclassified: %+v", m)
	}
}

// TestBinaryDowngradesOnUndecodable200: a 200 whose body is not the
// frame protocol (a rewriting proxy injecting JSON) downgrades and
// resends as JSON rather than surfacing garbage or losing the verdict.
func TestBinaryDowngradesOnUndecodable200(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		// Claims frames, answers JSON: Content-Type lies.
		if wire.IsFrameContent(r.Header.Get("Content-Type")) {
			w.Header().Set("Content-Type", wire.ContentType)
			_ = json.NewEncoder(w).Encode(server.DecideResponseV2{Region: "gemm", Verdict: "gpu/base"})
			return
		}
		okResponse(w, "gemm", "cpu/base")
	})
	c := newTestClient(t, Config{
		BaseURL: ts.URL, retryBackoff: time.Millisecond,
		Binary: true, RegionParams: func(string) []string { return []string{"n"} },
	})
	v, err := c.Decide(context.Background(), gemmReq())
	if err != nil {
		t.Fatal(err)
	}
	if v.Response.Verdict != "cpu/base" || v.Attempts != 1 {
		t.Fatalf("verdict %+v", v)
	}
	if m := c.Metrics(); m.WireDowngrades != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestBinarySlotFormRequiresParamAgreement: without a RegionParams hook
// (or when it disagrees with the bindings) requests ride the named wire
// form and still decide correctly — the slot form is an optimization,
// never a correctness dependency.
func TestBinarySlotFormRequiresParamAgreement(t *testing.T) {
	url := realDaemon(t)
	for name, hook := range map[string]func(string) []string{
		"no-hook":       nil,
		"unknown":       func(string) []string { return nil },
		"disagreement":  func(string) []string { return []string{"m", "n"} },
		"wrong-spelled": func(string) []string { return []string{"N"} },
	} {
		t.Run(name, func(t *testing.T) {
			c := newTestClient(t, Config{
				BaseURL: url, Binary: true, RegionParams: hook,
			})
			v, err := c.Decide(context.Background(), gemmReq())
			if err != nil {
				t.Fatal(err)
			}
			if v.Provenance != ProvenanceRemote || v.Response.Verdict == "" {
				t.Fatalf("verdict %+v", v)
			}
			if m := c.Metrics(); m.WireCalls != 1 || m.WireDowngrades != 0 {
				t.Fatalf("metrics %+v", m)
			}
		})
	}
}

// TestRetryAfterHTTPDate: the HTTP-date Retry-After form (RFC 9110's
// other branch) must stretch the backoff like delay-seconds does.
// Before the fix it parsed to zero and the hint was silently dropped.
func TestRetryAfterHTTPDate(t *testing.T) {
	t.Run("parse", func(t *testing.T) {
		if d := parseRetryAfter(time.Now().Add(2 * time.Second).UTC().Format(http.TimeFormat)); d < 500*time.Millisecond || d > 2*time.Second {
			t.Fatalf("future date parsed to %v", d)
		}
		if d := parseRetryAfter(time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)); d != 0 {
			t.Fatalf("past date parsed to %v, want 0", d)
		}
		if d := parseRetryAfter("not-a-date"); d != 0 {
			t.Fatalf("garbage parsed to %v, want 0", d)
		}
		if d := parseRetryAfter("0.5"); d != 500*time.Millisecond {
			t.Fatalf("fractional seconds parsed to %v", d)
		}
	})

	var calls int
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			// HTTP-dates have one-second resolution: a hint under a
			// second truncates to "now", so the stub points two seconds
			// out and the assertion allows the rounding.
			w.Header().Set("Retry-After", time.Now().Add(2*time.Second).UTC().Format(http.TimeFormat))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":{"code":"draining","message":"shutting down"}}`))
			return
		}
		okResponse(w, "gemm", "gpu/base")
	})
	c := newTestClient(t, Config{
		BaseURL: ts.URL, retryBackoff: time.Millisecond,
	})
	start := time.Now()
	v, err := c.Decide(context.Background(), gemmReq())
	if err != nil {
		t.Fatal(err)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts %d", v.Attempts)
	}
	if el := time.Since(start); el < 900*time.Millisecond {
		t.Fatalf("HTTP-date Retry-After not honored: waited only %v", el)
	}
	if m := c.Metrics(); m.RetryAfterHonored != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestFractionalEnvelopeRetryAfter: a fractional retry_after inside the
// error envelope (no header) must not truncate to zero seconds.
func TestFractionalEnvelopeRetryAfter(t *testing.T) {
	var calls int
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":{"code":"queue_full","message":"full","retry_after":0.1}}`))
			return
		}
		okResponse(w, "gemm", "gpu/base")
	})
	c := newTestClient(t, Config{
		BaseURL: ts.URL, retryBackoff: time.Millisecond,
	})
	start := time.Now()
	if _, err := c.Decide(context.Background(), gemmReq()); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 90*time.Millisecond {
		t.Fatalf("fractional envelope retry_after truncated: waited %v", el)
	}
	if m := c.Metrics(); m.RetryAfterHonored != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// sanity: the wire request builder picks the slot form only on exact
// agreement, and its key hash matches the daemon-side convention.
func TestToWireRequestForms(t *testing.T) {
	c := newTestClient(t, Config{
		BaseURL: "http://unused", Binary: true,
		RegionParams: func(region string) []string {
			if region == "gemm" {
				return []string{"n"}
			}
			return nil
		},
	})
	wr := toWireRequest(gemmReq(), c.loop.cfg.RegionParams)
	if !wr.SlotForm || wr.KeyHash == 0 || len(wr.Names) != 0 {
		t.Fatalf("slot form not chosen: %+v", wr)
	}
	wr = toWireRequest(server.DecideRequest{Region: "other", Bindings: map[string]int64{"b": 2, "a": 1}}, c.loop.cfg.RegionParams)
	if wr.SlotForm || !reflect.DeepEqual(wr.Names, []string{"a", "b"}) ||
		!reflect.DeepEqual(wr.Values, []int64{1, 2}) {
		t.Fatalf("named form wrong: %+v", wr)
	}
	if strings.Join(wr.Names, ",") != "a,b" {
		t.Fatalf("names not sorted: %v", wr.Names)
	}
}
