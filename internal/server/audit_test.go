package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/hybridsel/hybridsel/internal/audit"
)

// auditedServer wires a runtime, an inline shadow auditor with a live
// calibrator, and a server exposing both.
func auditedServer(t *testing.T, cfg Config) (*Server, *audit.Auditor) {
	t.Helper()
	rt := testRuntime(t)
	cal := audit.NewCalibrator(0)
	a := audit.New(audit.Config{Runtime: rt, Rate: 1, Corrector: cal})
	t.Cleanup(a.Close)
	rt.SetObserver(a.Observer(nil))
	cfg.Runtime = rt
	cfg.Auditor = a
	return testServer(t, cfg), a
}

func TestAuditEndpointAndMetrics(t *testing.T) {
	s, _ := auditedServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":128}}`)
	postDecide(t, ts.URL, `{"region":"mvt1","bindings":{"n":300}}`)

	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/audit status %d", resp.StatusCode)
	}
	var rep audit.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 2 || len(rep.Regions) != 2 {
		t.Fatalf("audit report samples=%d regions=%d: %+v",
			rep.Samples, len(rep.Regions), rep)
	}
	if tg := rep.Regions[0].Targets; len(tg) != 2 || tg[0].Target != "cpu/base" || tg[0].Factor <= 0 {
		t.Fatalf("report missing correction factors: %+v", rep.Regions[0])
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"hybridsel_audit_samples_total 2",
		"hybridsel_mispredict_total",
		"hybridsel_audit_dropped_total 0",
		"hybridsel_audit_regret_seconds_total",
		`hybridsel_audit_region_samples_total{region="gemm"} 1`,
		`hybridsel_audit_region_mispredict_total{region="mvt1"}`,
		`hybridsel_audit_region_regret_seconds_total{region="gemm"}`,
		`hybridsel_correction_factor{region="gemm",target="cpu/base"}`,
		`hybridsel_correction_factor{region="mvt1",target="gpu/base"}`,
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestAuditEndpointDisabledWithoutAuditor(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/audit without auditor: status %d, want 404", resp.StatusCode)
	}
	// The audit counters are still present (zero) so dashboards do not
	// lose the series when auditing is toggled off.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	if !bytes.Contains(raw, []byte("hybridsel_audit_samples_total 0")) {
		t.Error("zero audit counters missing from /metrics")
	}
}

// TestSaturationStillShedsWithAuditor re-runs the load-shedding check
// with the audit loop wired in: sampling must never turn admission-queue
// pressure into blocking.
func TestSaturationStillShedsWithAuditor(t *testing.T) {
	s, _ := auditedServer(t, Config{concurrency: 1, queueDepth: -1})
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

	resp, _ := postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":64}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held request finished %d, want 200", code)
	}
}
