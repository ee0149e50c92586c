package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/regiongen"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

func postWire(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v2/decide", wire.ContentType, bytes.NewReader(body))
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

// wireReqFor builds the slot-form wire request for bindings b.
func wireReqFor(region string, b symbolic.Bindings) wire.Request {
	names := make([]string, 0, len(b))
	for k := range b {
		names = append(names, k)
	}
	sort.Strings(names)
	vals := make([]int64, len(names))
	for i, n := range names {
		vals[i] = b[n]
	}
	return wire.Request{Region: region, SlotForm: true, KeyHash: attrdb.BindingsHash(b), Values: vals}
}

func namedReqFor(region string, b symbolic.Bindings) wire.Request {
	req := wireReqFor(region, b)
	names := make([]string, 0, len(b))
	for k := range b {
		names = append(names, k)
	}
	sort.Strings(names)
	return wire.Request{Region: region, Names: names, Values: req.Values}
}

// wireToV2 projects a decoded wire response back onto the JSON shape so
// the equality tests compare like with like.
func wireToV2(t *testing.T, resp *wire.Response) DecideResponseV2 {
	t.Helper()
	out := DecideResponseV2{
		Region:        resp.Region,
		Verdict:       resp.Verdict,
		Kind:          resp.Kind,
		Policy:        resp.Policy,
		SplitFraction: resp.SplitFraction,
		CacheHit:      resp.CacheHit,
		Provenance:    resp.Provenance,
		ActualSeconds: resp.ActualSeconds,
		DecisionNanos: resp.DecisionNanos,
	}
	if resp.Err != nil {
		out.Error = &ErrorInfo{Code: resp.Err.Code, Message: resp.Err.Message, RetryAfter: resp.Err.RetryAfterSeconds}
	}
	for _, c := range resp.Candidates {
		var kind offload.TargetKind
		if err := kind.UnmarshalJSON([]byte(`"` + c.Kind + `"`)); err != nil {
			t.Fatalf("candidate kind %q: %v", c.Kind, err)
		}
		out.Candidates = append(out.Candidates, offload.Candidate{
			Target: c.Target, Kind: kind, PredSeconds: c.PredSeconds, CalSeconds: c.CalSeconds,
		})
	}
	return out
}

// normalizeV2 strips the fields that legitimately differ between two
// fresh servers answering the same request (wall-clock decision time).
func normalizeV2(r DecideResponseV2) DecideResponseV2 {
	r.DecisionNanos = 0
	if r.Error != nil {
		// Messages may phrase the same failure differently across
		// protocols; the contract is the code.
		e := *r.Error
		e.Message = ""
		r.Error = &e
	}
	return r
}

// TestWireMatchesJSON is the acceptance property: over random generated
// regions and the Polybench set, the binary /v2/decide path produces
// semantically identical verdicts to the JSON path — same ranked
// candidates, provenance, cache-hit behaviour and error codes. Two
// identically configured servers (fresh runtimes) see the same request
// sequence, one per protocol, so cache state evolves in lockstep.
func TestWireMatchesJSON(t *testing.T) {
	newServer := func() *Server {
		rt := offload.NewRuntime(offload.Config{Platform: machine.PlatformP9V100(), Threads: 4})
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 8; trial++ {
			s := regiongen.NewShape(r)
			k := s.Build(fmt.Sprintf("gen-%03d", trial), 0, 0)
			if err := k.Validate(); err != nil {
				t.Fatalf("shape %v: %v", s, err)
			}
			if _, err := rt.Register(k); err != nil {
				t.Fatalf("shape %v: %v", s, err)
			}
		}
		for _, name := range []string{"gemm", "mvt1", "atax2"} {
			k, err := polybench.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Register(k.IR); err != nil {
				t.Fatal(err)
			}
		}
		return testServer(t, Config{Runtime: rt})
	}
	jsonTS := httptest.NewServer(newServer().Handler())
	defer jsonTS.Close()
	wireTS := httptest.NewServer(newServer().Handler())
	defer wireTS.Close()

	type query struct {
		region string
		b      symbolic.Bindings
	}
	var queries []query
	for trial := 0; trial < 8; trial++ {
		for _, scale := range []int64{256, 400, 512} {
			queries = append(queries, query{fmt.Sprintf("gen-%03d", trial), regiongen.Bindings(scale)})
		}
	}
	for _, name := range []string{"gemm", "mvt1", "atax2"} {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, query{name, k.Bindings(polybench.Test)})
	}
	// Error cases: unknown region, missing binding.
	queries = append(queries,
		query{"no-such-region", symbolic.Bindings{"n": 8}},
		query{"gemm", symbolic.Bindings{"n": 8}}, // missing ni/nj/nk params
	)

	for pass := 0; pass < 2; pass++ { // second pass exercises cache hits
		for qi, q := range queries {
			jsonBody, err := json.Marshal(DecideRequest{Region: q.region, Bindings: q.b})
			if err != nil {
				t.Fatal(err)
			}
			jr, jraw := postDecideV2(t, jsonTS.URL, string(jsonBody))
			var jresp DecideResponseV2
			var jerrCode string
			if jr.StatusCode == http.StatusOK {
				if err := json.Unmarshal(jraw, &jresp); err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
			} else {
				var env ErrorEnvelope
				if err := json.Unmarshal(jraw, &env); err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				jerrCode = env.Error.Code
			}

			// Named form on even passes, slot form on odd: both must
			// match JSON (slot-form unbound symbols surface as the same
			// code even though the check is a length comparison).
			var wreq wire.Request
			if (pass+qi)%2 == 0 {
				wreq = namedReqFor(q.region, q.b)
			} else {
				wreq = wireReqFor(q.region, q.b)
			}
			wr, wraw := postWire(t, wireTS.URL, wire.AppendRequest(nil, &wreq))
			if wr.StatusCode != jr.StatusCode {
				t.Fatalf("query %d pass %d (%s): wire status %d, json status %d", qi, pass, q.region, wr.StatusCode, jr.StatusCode)
			}
			frames, err := wire.DecodeAll(wraw)
			if err != nil {
				t.Fatalf("query %d: decode response: %v", qi, err)
			}
			if len(frames) != 1 {
				t.Fatalf("query %d: %d response frames", qi, len(frames))
			}
			if wr.StatusCode != http.StatusOK {
				if wr.Header.Get("Content-Type") != wire.ContentType {
					t.Fatalf("query %d: error content-type %q", qi, wr.Header.Get("Content-Type"))
				}
				if frames[0].Type != wire.TypeError {
					t.Fatalf("query %d: error frame type %d", qi, frames[0].Type)
				}
				if frames[0].Err.Code != jerrCode {
					t.Fatalf("query %d: wire code %q, json code %q", qi, frames[0].Err.Code, jerrCode)
				}
				if frames[0].Err.Status != wr.StatusCode {
					t.Fatalf("query %d: frame status %d, http %d", qi, frames[0].Err.Status, wr.StatusCode)
				}
				continue
			}
			got := normalizeV2(wireToV2(t, frames[0].Resp))
			want := normalizeV2(jresp)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d pass %d (%s):\nwire %+v\njson %+v", qi, pass, q.region, got, want)
			}
			if pass == 1 && got.Error == nil && !got.CacheHit {
				t.Fatalf("query %d: second pass not a cache hit", qi)
			}
		}
	}
}

func postDecideV2(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v2/decide", "application/json", bytes.NewReader([]byte(body)))
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

// TestWireBatchMatchesJSON: batch frames mirror the JSON batch contract
// — 200 with per-item errors inside, duplicates coalesced and marked
// CacheHit.
func TestWireBatchMatchesJSON(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	gemm := symbolic.Bindings{"n": 128}
	reqs := []wire.Request{
		wireReqFor("gemm", gemm),
		namedReqFor("mvt1", symbolic.Bindings{"n": 512}),
		{Region: "nope", Names: []string{"n"}, Values: []int64{4}},
		wireReqFor("gemm", gemm), // duplicate of item 0
	}
	resp, raw := postWire(t, ts.URL, wire.AppendBatchRequest(nil, reqs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %x", resp.StatusCode, raw)
	}
	frames, err := wire.DecodeAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].Type != wire.TypeBatchResponse {
		t.Fatalf("frames %+v", frames)
	}
	fr := frames[0]
	if fr.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", fr.Coalesced)
	}
	if len(fr.Resps) != 4 {
		t.Fatalf("%d results", len(fr.Resps))
	}
	if fr.Resps[0].Err != nil || fr.Resps[0].Verdict == "" {
		t.Fatalf("item 0: %+v", fr.Resps[0])
	}
	if fr.Resps[2].Err == nil || fr.Resps[2].Err.Code != ErrCodeUnknownRegion {
		t.Fatalf("item 2: %+v", fr.Resps[2])
	}
	if !fr.Resps[3].CacheHit || fr.Resps[3].Verdict != fr.Resps[0].Verdict {
		t.Fatalf("coalesced dup: %+v", fr.Resps[3])
	}
}

// TestWireRejections: malformed bodies, foreign frame types, a second
// frame, key-hash mismatches and oversized batches all answer with
// TypeError frames carrying the stable envelope codes.
func TestWireRejections(t *testing.T) {
	s := testServer(t, Config{})
	s.maxBatch = 2
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	expectErr := func(name string, body []byte, status int, code string) *wire.Error {
		t.Helper()
		resp, raw := postWire(t, ts.URL, body)
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d", name, resp.StatusCode, status)
		}
		frames, err := wire.DecodeAll(raw)
		if err != nil || len(frames) != 1 || frames[0].Type != wire.TypeError {
			t.Fatalf("%s: bad error frame: %v %+v", name, err, frames)
		}
		if frames[0].Err.Code != code {
			t.Fatalf("%s: code %q, want %q", name, frames[0].Err.Code, code)
		}
		return frames[0].Err
	}

	expectErr("garbage", []byte("this is not a frame"), http.StatusBadRequest, ErrCodeBadRequest)
	expectErr("empty", nil, http.StatusBadRequest, ErrCodeBadRequest)

	resp := wire.Response{Region: "gemm"}
	expectErr("response frame in request", wire.AppendResponse(nil, &resp),
		http.StatusBadRequest, ErrCodeBadRequest)

	// A body is one frame: a second one refuses the whole body, the first
	// frame's decision included.
	one := wireReqFor("mvt1", symbolic.Bindings{"n": 256})
	two := wire.AppendRequest(wire.AppendRequest(nil, &one), &one)
	before := s.rt.Metrics().Decides
	if e := expectErr("two frames", two, http.StatusBadRequest, ErrCodeBadRequest); !strings.Contains(e.Message, "trailing bytes after frame") {
		t.Fatalf("two frames: message %q", e.Message)
	}
	if got := s.rt.Metrics().Decides - before; got != 0 {
		t.Fatalf("two frames: %d decisions served before the body was refused", got)
	}

	big := wire.AppendBatchRequest(nil, make([]wire.Request, 3))
	expectErr("oversized batch", big, http.StatusRequestEntityTooLarge, ErrCodeBatchTooLarge)

	// Key-hash mismatch: right values, wrong layout checksum.
	mism := wireReqFor("mvt1", symbolic.Bindings{"n": 64})
	mism.KeyHash ^= 0xbad
	expectErr("hash mismatch", wire.AppendRequest(nil, &mism),
		http.StatusBadRequest, ErrCodeBadRequest)

	// Slot count mismatch maps to unbound_symbol like a missing binding.
	short := wire.Request{Region: "gemm", SlotForm: true, Values: make([]int64, 9)}
	expectErr("short slot vector", wire.AppendRequest(nil, &short),
		http.StatusUnprocessableEntity, ErrCodeUnboundSymbol)
}

// TestRetryAfterFractionalHint is the envelope/header-mismatch bugfix
// test: a fractional Retry-After hint installed upstream (fault layers,
// sidecars) must mirror into the envelope verbatim — previously integer
// parsing dropped it and envelope-driven clients backed off 0s.
func TestRetryAfterFractionalHint(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   float64
	}{
		{"0.5", 0.5},
		{"1.25", 1.25},
		{"", 1}, // default installed by the server itself
		{"3", 3},
	} {
		w := httptest.NewRecorder()
		if tc.header != "" {
			w.Header().Set("Retry-After", tc.header)
		}
		httpError(w, http.StatusServiceUnavailable, ErrCodeDraining, "drain")
		var env ErrorEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
			t.Fatalf("header %q: %v", tc.header, err)
		}
		if env.Error.RetryAfter != tc.want {
			t.Errorf("header %q: envelope retry_after = %v, want %v", tc.header, env.Error.RetryAfter, tc.want)
		}
	}

	// Non-transient statuses carry no hint.
	w := httptest.NewRecorder()
	httpError(w, http.StatusNotFound, ErrCodeUnknownRegion, "nope")
	if bytes.Contains(w.Body.Bytes(), []byte("retry_after")) {
		t.Errorf("404 envelope carries retry_after: %s", w.Body.String())
	}

	// The wire error frame mirrors the same hint.
	w = httptest.NewRecorder()
	w.Header().Set("Retry-After", "0.5")
	wireError(w, http.StatusTooManyRequests, ErrCodeQueueFull, "shed")
	frames, err := wire.DecodeAll(w.Body.Bytes())
	if err != nil || len(frames) != 1 || frames[0].Type != wire.TypeError {
		t.Fatalf("wire error frame: %v %+v", err, frames)
	}
	if frames[0].Err.RetryAfterSeconds != 0.5 {
		t.Errorf("wire retry hint = %v, want 0.5", frames[0].Err.RetryAfterSeconds)
	}
}

// TestEncodeFailureKeepsEnvelope is the encode-failure bugfix test:
// when response encoding fails, the reply must still be the structured
// envelope with code "internal" — not a text/plain http.Error body.
func TestEncodeFailureKeepsEnvelope(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]any{"bad": make(chan int)})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("body not an envelope: %v (%s)", err, w.Body.String())
	}
	if env.Error.Code != ErrCodeInternal {
		t.Fatalf("code %q, want %q", env.Error.Code, ErrCodeInternal)
	}

	// Degenerate double failure: the envelope itself is unencodable
	// (NaN retry hint). The guard emits a constant envelope instead of
	// recursing.
	w = httptest.NewRecorder()
	writeJSON(w, http.StatusServiceUnavailable, ErrorEnvelope{Error: ErrorInfo{
		Code: ErrCodeDraining, Message: "x", RetryAfter: math.NaN(),
	}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("double failure status %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("double failure body: %v (%s)", err, w.Body.String())
	}
	if env.Error.Code != ErrCodeInternal {
		t.Fatalf("double failure code %q", env.Error.Code)
	}
}

// TestV1NeverNegotiates: the frozen endpoint ignores the frame content
// type — a frame body is just an unparsable JSON body there.
func TestV1NeverNegotiates(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := wireReqFor("mvt1", symbolic.Bindings{"n": 64})
	resp, err := http.Post(ts.URL+"/v1/decide", wire.ContentType, bytes.NewReader(wire.AppendRequest(nil, &req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("v1 reply not a JSON envelope: %v", err)
	}
	if env.Error.Code != ErrCodeBadRequest {
		t.Fatalf("code %q", env.Error.Code)
	}
}
