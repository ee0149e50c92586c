package server

// Golden-file API-compatibility tests: the exact bytes of the frozen /v1
// surface (and the new /v2 surface) are locked against checked-in
// fixtures under testdata/golden. A change to any response shape fails
// here before any client sees it; run `go test ./internal/server
// -run TestGolden -update` to regenerate fixtures after an intentional,
// reviewed change.

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/offload"
)

var update = flag.Bool("update", false, "rewrite the golden API fixtures")

// goldenLearner trains a learner on a small fixed audit stream so the
// /v1/learn fixture has real models — weights included, which pins the
// solver's determinism into the golden bytes.
func goldenLearner() *learn.Learner {
	l := learn.New(learn.Config{MinSamples: 2})
	f := offload.Features{Iterations: 4096, TransferBytes: 1 << 16, CoalescedFrac: 0.5}
	for i := 0; i < 3; i++ {
		f.Iterations += int64(i) * 1024
		l.ObserveVerdict("gemm", f, []audit.TargetMeasurement{
			{Target: "cpu/base", PredSeconds: 0.010, ActualSeconds: 0.020},
			{Target: "gpu/base", PredSeconds: 0.012, ActualSeconds: 0.012},
		})
	}
	return l
}

// nanosRe normalizes the only per-run field in a decide response: the
// wall-clock decision overhead.
var nanosRe = regexp.MustCompile(`"decisionNanos":\d+`)

func normalize(body []byte) []byte {
	return nanosRe.ReplaceAll(bytes.TrimSpace(body), []byte(`"decisionNanos":0`))
}

func TestGoldenAPICompat(t *testing.T) {
	cases := []struct {
		name   string // fixture file stem
		method string
		path   string
		body   string // "" = GET
		status int
		// wantDeprecation asserts the frozen-endpoint headers.
		wantDeprecation bool
		// learner serves the case from a server with a deterministically
		// trained residual learner configured.
		learner bool
		// targets, when set, is the registry served instead of the classic
		// pair.
		targets string
	}{
		{name: "v1_decide_single", method: "POST", path: "/v1/decide",
			body:   `{"region":"gemm","bindings":{"n":64}}`,
			status: http.StatusOK, wantDeprecation: true},
		{name: "v1_decide_batch", method: "POST", path: "/v1/decide",
			body: `{"requests":[{"region":"gemm","bindings":{"n":64}},` +
				`{"region":"mvt1","bindings":{"n":256}},` +
				`{"region":"gemm","bindings":{"n":64}}]}`,
			status: http.StatusOK, wantDeprecation: true},
		{name: "v1_decide_item_error", method: "POST", path: "/v1/decide",
			body: `{"requests":[{"region":"gemm","bindings":{"n":64}},` +
				`{"region":"no-such-region"}]}`,
			status: http.StatusOK, wantDeprecation: true},
		// A registry without a GPU has no base GPU seconds to report: the
		// frozen shape omits the field, it does not invent a device.
		{name: "v1_decide_cpu_only", method: "POST", path: "/v1/decide",
			body:   `{"region":"gemm","bindings":{"n":64}}`,
			status: http.StatusOK, wantDeprecation: true, targets: "cpu/base,cpu/smt2"},
		{name: "v1_regions", method: "GET", path: "/v1/regions",
			status: http.StatusOK},
		{name: "v1_targets", method: "GET", path: "/v1/targets",
			status: http.StatusOK},
		// The deprecation middleware wraps the whole endpoint, so error
		// responses carry the headers too.
		{name: "err_unknown_region", method: "POST", path: "/v1/decide",
			body:   `{"region":"no-such-region"}`,
			status: http.StatusNotFound, wantDeprecation: true},
		{name: "err_bad_request", method: "POST", path: "/v1/decide",
			body:   `{not json`,
			status: http.StatusBadRequest, wantDeprecation: true},
		{name: "v2_decide_single", method: "POST", path: "/v2/decide",
			body:   `{"region":"gemm","bindings":{"n":64}}`,
			status: http.StatusOK},
		{name: "v2_decide_batch", method: "POST", path: "/v2/decide",
			body: `{"requests":[{"region":"gemm","bindings":{"n":64}},` +
				`{"region":"no-such-region"}]}`,
			status: http.StatusOK},
		{name: "v1_learn_disabled", method: "GET", path: "/v1/learn",
			status: http.StatusNotFound},
		{name: "v1_learn", method: "GET", path: "/v1/learn",
			status: http.StatusOK, learner: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh server per case: fixture bytes must not depend on
			// cross-case cache state.
			cfg := Config{}
			if tc.learner {
				cfg.Learner = goldenLearner()
			}
			if tc.targets != "" {
				cfg.Runtime = testRuntimeOver(t, tc.targets)
			}
			s := testServer(t, cfg)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			var resp *http.Response
			var err error
			if tc.method == "GET" {
				resp, err = http.Get(ts.URL + tc.path)
			} else {
				resp, err = http.Post(ts.URL+tc.path, "application/json",
					strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if dep := resp.Header.Get("Deprecation"); (dep == "true") != tc.wantDeprecation {
				t.Errorf("Deprecation header %q, want present=%v", dep, tc.wantDeprecation)
			}
			if tc.wantDeprecation {
				if link := resp.Header.Get("Link"); !strings.Contains(link, "successor-version") {
					t.Errorf("frozen endpoint missing successor-version Link, got %q", link)
				}
			}

			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			got := normalize(buf.Bytes())

			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, bytes.TrimSpace(want)) {
				t.Errorf("response bytes diverge from %s\n got: %s\nwant: %s",
					path, got, bytes.TrimSpace(want))
			}
		})
	}
}
