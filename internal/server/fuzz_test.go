package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"

	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/sim"
)

// fuzzRuntime is the runtime the fuzzers serve: one region, and
// simulators sampled so thinly that an execute of any size stays cheap.
func fuzzRuntime(f *testing.F, cal offload.Calibrator) *offload.Runtime {
	rt := offload.NewRuntime(offload.Config{
		Platform:   machine.PlatformP9V100(),
		CPUSim:     sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:     sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
		Calibrator: cal,
	})
	k, err := polybench.Get("mvt1")
	if err != nil {
		f.Fatal(err)
	}
	if _, err := rt.Register(k.IR); err != nil {
		f.Fatal(err)
	}
	return rt
}

// FuzzDecideBody throws arbitrary bytes at the /v1/decide decoder and the
// decision path behind it. The handler runs without net/http's panic
// recovery (ServeHTTP on a recorder), so any panic in JSON decoding,
// binding evaluation, or the models surfaces as a crasher. Invariants:
// never panic, always answer, and 200 responses must parse back as the
// documented response shapes.
func FuzzDecideBody(f *testing.F) {
	s, err := New(Config{
		Runtime: fuzzRuntime(f, nil),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	s.maxBatch = 8
	h := s.Handler()

	f.Add([]byte(`{"region":"mvt1","bindings":{"n":64}}`))
	f.Add([]byte(`{"region":"mvt1","bindings":{"n":64},"execute":true}`))
	f.Add([]byte(`{"requests":[{"region":"mvt1","bindings":{"n":8}},{"region":"nope"}]}`))
	f.Add([]byte(`{"requests":[]}`))
	f.Add([]byte(`{"region":"mvt1","bindings":{"n":-1}}`))
	f.Add([]byte(`{"region":"mvt1","bindings":{"n":9223372036854775807}}`))
	f.Add([]byte(`{"requests":[{},{},{},{},{},{},{},{},{}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"region":1}`))
	f.Add([]byte(`{"bindings":{"n":1.5}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v1/decide", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		res := rec.Result()
		if res.StatusCode < 200 || res.StatusCode > 599 {
			t.Fatalf("implausible status %d for body %q", res.StatusCode, body)
		}
		if res.StatusCode != 200 {
			return
		}
		// Decode with the shape the request selected: batch bodies answer
		// with batchResponse, everything else with a single response.
		var probe decideBody
		isBatch := json.Unmarshal(body, &probe) == nil && probe.Requests != nil
		if isBatch {
			var br batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
				t.Fatalf("200 batch response is not a batchResponse: %v (body %q)", err, body)
			}
			if len(br.Results) != len(probe.Requests) {
				t.Fatalf("batch of %d answered with %d results (body %q)",
					len(probe.Requests), len(br.Results), body)
			}
			return
		}
		var dr DecideResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
			t.Fatalf("200 response is not a DecideResponse: %v (body %q)", err, body)
		}
	})
}

// FuzzDecideBodyV2 is FuzzDecideBody pointed at the ranked /v2/decide
// decoder: the server here runs with a residual learner wired in (as a
// zero-state corrector over no fallback), so the fuzz also crosses the
// provenance-recording decision path. Invariants: never panic, always
// answer, 200 responses parse as the v2 shapes, and every successful
// verdict carries a provenance.
func FuzzDecideBodyV2(f *testing.F) {
	lrn := learn.New(learn.Config{})
	s, err := New(Config{
		Runtime: fuzzRuntime(f, lrn),
		Learner: lrn,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	s.maxBatch = 8
	h := s.Handler()

	f.Add([]byte(`{"region":"mvt1","bindings":{"n":64}}`))
	f.Add([]byte(`{"region":"mvt1","bindings":{"n":64},"execute":true}`))
	f.Add([]byte(`{"requests":[{"region":"mvt1","bindings":{"n":8}},{"region":"nope"}]}`))
	f.Add([]byte(`{"requests":[]}`))
	f.Add([]byte(`{"region":"mvt1","bindings":{"n":-1}}`))
	f.Add([]byte(`{"region":"mvt1","bindings":{"n":9223372036854775807}}`))
	f.Add([]byte(`{"requests":[{},{},{},{},{},{},{},{},{}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"region":1}`))
	f.Add([]byte(`{"bindings":{"n":1.5}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/v2/decide", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		res := rec.Result()
		if res.StatusCode < 200 || res.StatusCode > 599 {
			t.Fatalf("implausible status %d for body %q", res.StatusCode, body)
		}
		if res.StatusCode != 200 {
			return
		}
		checkV2 := func(r DecideResponseV2) {
			if r.Error == nil && r.Verdict != "" && r.Provenance == "" {
				t.Fatalf("verdict without provenance: %+v (body %q)", r, body)
			}
		}
		var probe decideBody
		isBatch := json.Unmarshal(body, &probe) == nil && probe.Requests != nil
		if isBatch {
			var br BatchResponseV2
			if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
				t.Fatalf("200 batch response is not a BatchResponseV2: %v (body %q)", err, body)
			}
			if len(br.Results) != len(probe.Requests) {
				t.Fatalf("batch of %d answered with %d results (body %q)",
					len(probe.Requests), len(br.Results), body)
			}
			for _, r := range br.Results {
				checkV2(r)
			}
			return
		}
		var dr DecideResponseV2
		if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
			t.Fatalf("200 response is not a DecideResponseV2: %v (body %q)", err, body)
		}
		checkV2(dr)
	})
}
