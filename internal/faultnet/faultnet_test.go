package faultnet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// echoUpstream serves a fixed JSON body, echoing the request path.
func echoUpstream(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Upstream-Path", r.URL.Path)
		_, _ = io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// startProxy stands a proxy in front of ts and returns its base URL.
func startProxy(t *testing.T, ts *httptest.Server, seed int64) (*Proxy, string) {
	t.Helper()
	p := New(ts.URL, seed)
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p, "http://" + addr
}

func get(t *testing.T, url string) (*http.Response, string, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, string(b), err
}

func TestTransparentForwarding(t *testing.T) {
	ts := echoUpstream(t, `{"ok":true}`)
	p, base := startProxy(t, ts, 1)

	resp, body, err := get(t, base+"/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body != `{"ok":true}` {
		t.Fatalf("got %d %q", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Upstream-Path"); got != "/v1/decide" {
		t.Fatalf("path not forwarded: %q", got)
	}
	if st := p.Stats(); st.Forwarded != 1 || st.Requests != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPartitionResetsEveryRequest(t *testing.T) {
	ts := echoUpstream(t, "{}")
	p, base := startProxy(t, ts, 1)
	p.SetFaults(Faults{Partition: true})

	for i := 0; i < 3; i++ {
		if _, _, err := get(t, base+"/"); err == nil {
			t.Fatal("partitioned request succeeded")
		}
	}
	if st := p.Stats(); st.Partitions != 3 || st.Forwarded != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// Heal: traffic flows again.
	p.SetFaults(Faults{})
	if _, _, err := get(t, base+"/"); err != nil {
		t.Fatalf("healed request failed: %v", err)
	}
}

func TestInjectedErrorsCarryRetryAfter(t *testing.T) {
	ts := echoUpstream(t, "{}")
	p, base := startProxy(t, ts, 1)
	p.SetFaults(Faults{ErrorRate: 1, ErrorCode: 502, RetryAfter: 250 * time.Millisecond})

	resp, body, err := get(t, base+"/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 502 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "0.25" {
		t.Fatalf("Retry-After %q", got)
	}
	if !strings.Contains(body, "injected") {
		t.Fatalf("body %q", body)
	}
	if st := p.Stats(); st.Errors != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTruncationIsAHardClientError(t *testing.T) {
	ts := echoUpstream(t, strings.Repeat("x", 4096))
	p, base := startProxy(t, ts, 1)
	p.SetFaults(Faults{TruncateRate: 1})

	resp, err := http.Get(base + "/")
	if err == nil {
		// Headers may arrive intact; the body read must fail short.
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && len(b) == 4096 {
			t.Fatal("truncated response arrived complete")
		}
	}
	if st := p.Stats(); st.Truncations != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLatencyAndBandwidthDelayResponses(t *testing.T) {
	body := strings.Repeat("y", 2000)
	ts := echoUpstream(t, body)
	p, base := startProxy(t, ts, 1)

	p.SetFaults(Faults{Latency: 50 * time.Millisecond})
	start := time.Now()
	if _, got, err := get(t, base+"/"); err != nil || got != body {
		t.Fatalf("latency fetch: %v", err)
	}
	if el := time.Since(start); el < 45*time.Millisecond {
		t.Fatalf("no latency injected: %v", el)
	}

	// 20 KB/s over 2000 bytes ≥ ~90ms even after the first free chunk.
	p.SetFaults(Faults{BandwidthBps: 20000})
	start = time.Now()
	if _, got, err := get(t, base+"/"); err != nil || got != body {
		t.Fatalf("throttled fetch: %v", err)
	}
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("bandwidth cap not applied: %v", el)
	}
	if st := p.Stats(); st.Delayed == 0 || st.Throttled == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDeterministicFaultSequence drives two identically seeded proxies
// with an identical serialized request sequence under a probabilistic
// fault mix and requires the injected pattern to be identical.
func TestDeterministicFaultSequence(t *testing.T) {
	ts := echoUpstream(t, `{"ok":true}`)
	faults := Faults{ResetRate: 0.3, ErrorRate: 0.3, TruncateRate: 0.2}

	sequence := func(seed int64) []string {
		p, base := startProxy(t, ts, seed)
		p.SetFaults(faults)
		var seq []string
		for i := 0; i < 60; i++ {
			resp, body, err := get(t, base+"/")
			switch {
			case err != nil:
				seq = append(seq, "reset")
			case resp.StatusCode != http.StatusOK:
				seq = append(seq, "err")
			case body != `{"ok":true}`:
				seq = append(seq, "trunc")
			default:
				seq = append(seq, "ok")
			}
		}
		return seq
	}

	a, b := sequence(42), sequence(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequences diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := sequence(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 60-request fault sequences")
	}
}

// TestUpstreamDownMapsTo502: a dead upstream is a 502 from the proxy,
// not a proxy crash.
func TestUpstreamDownMapsTo502(t *testing.T) {
	ts := echoUpstream(t, "{}")
	url := ts.URL
	ts.Close()
	p := New(url, 1)
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, _, err := get(t, "http://"+addr+"/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st := p.Stats(); st.UpstreamErr != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestChaosScenarioRunAppliesStepsInOrder(t *testing.T) {
	ts := echoUpstream(t, "{}")
	p, _ := startProxy(t, ts, 1)

	sc, err := ParseScenario("20ms:partition;20ms:err=0.5;20ms:off")
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	err = p.Run(context.Background(), sc, func(i int, s Step) {
		seen = append(seen, s.Faults.String())
		got := p.Faults()
		if i == 0 && !got.Partition {
			t.Error("step 0: partition not active")
		}
		if i == 1 && got.ErrorRate != 0.5 {
			t.Errorf("step 1: err rate %g", got.ErrorRate)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("steps seen: %v", seen)
	}
	if f := p.Faults(); f.Active() {
		t.Fatalf("faults not cleared after scenario: %v", f)
	}
}

func TestChaosScenarioRunHonorsContext(t *testing.T) {
	ts := echoUpstream(t, "{}")
	p, _ := startProxy(t, ts, 1)
	sc, err := ParseScenario("10s:partition")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := p.Run(ctx, sc, nil); err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("run ignored cancellation")
	}
	if f := p.Faults(); f.Active() {
		t.Fatal("faults not cleared after cancelled scenario")
	}
}

// TestProxyIsHopByHopClean: the proxy relays whole responses, so it
// refuses an Upgrade itself — 501, at once, before a fault is drawn, so a
// client probing for an upgraded protocol moves no seeded schedule — and
// forwards no header that describes the client's connection to it.
func TestProxyIsHopByHopClean(t *testing.T) {
	seen := make(chan http.Header, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Clone()
	}))
	t.Cleanup(ts.Close)
	// schedule is the fate of ten plain requests under a seeded fault set,
	// after the given number of Upgrade probes.
	schedule := func(probes int) (fates []bool, st Stats) {
		p, base := startProxy(t, ts, 7)
		p.SetFaults(Faults{ErrorRate: 0.5})
		for i := 0; i < probes; i++ {
			req, _ := http.NewRequest(http.MethodGet, base+"/v1/stream", nil)
			req.Header.Set("Connection", "Upgrade")
			req.Header.Set("Upgrade", "hybridsel-stream")
			start := time.Now()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotImplemented || time.Since(start) > time.Second {
				t.Fatalf("an Upgrade was answered %d after %v, want 501 at once", resp.StatusCode, time.Since(start))
			}
		}
		for i := 0; i < 10; i++ {
			resp, _, err := get(t, base+"/")
			if err != nil {
				t.Fatal(err)
			}
			if fates = append(fates, resp.StatusCode == http.StatusOK); resp.StatusCode == http.StatusOK {
				<-seen
			}
		}
		return fates, p.Stats()
	}
	plain, _ := schedule(0)
	probed, st := schedule(3)
	if !reflect.DeepEqual(plain, probed) {
		t.Errorf("three Upgrade probes moved the fault schedule:\n without: %v\n with:    %v", plain, probed)
	}
	if st.Requests != 10 {
		t.Errorf("the proxy counted %d requests, want the 10 it drew faults for", st.Requests)
	}

	_, base := startProxy(t, ts, 1)
	req, _ := http.NewRequest(http.MethodGet, base+"/", nil)
	req.Header.Set("Connection", "X-Hop")
	req.Header.Set("X-Hop", "1")
	req.Header.Set("Keep-Alive", "timeout=5")
	req.Header.Set("X-End-To-End", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	h := <-seen
	if h.Get("X-Hop") != "" || h.Get("Keep-Alive") != "" || h.Get("Connection") != "" || h.Get("X-End-To-End") != "1" {
		t.Errorf("forwarded headers %v: want X-End-To-End and nothing of the client's connection", h)
	}
}
