package client

// Chaos regression tests: a real daemon behind a deterministic faultnet
// proxy, driven through the resilient client. All TestChaos* tests are
// what `make chaos` runs; they must stay race-clean and deterministic
// for a fixed proxy seed (assertions are invariants, never timing
// sequences).

import (
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/faultnet"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/sim"
)

// chaosRig is a daemon + faultnet proxy + client wired together.
type chaosRig struct {
	proxy    *faultnet.Proxy
	client   *Client
	executed *atomic.Int64 // daemon-side executed decisions (side effects)
}

// newChaosRig stands up a daemon (with an observer counting executed
// decisions), a seeded faultnet proxy in front of it, and a client with
// an identically configured fallback runtime pointed at the proxy.
func newChaosRig(t *testing.T, seed int64, ccfg Config) *chaosRig {
	t.Helper()
	var executed atomic.Int64
	daemonRT := offload.NewRuntime(offload.Config{
		Platform: machine.PlatformP9V100(),
		CPUSim:   sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:   sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
	})
	daemonRT.SetObserver(func(d offload.Decision) {
		if d.ActualSeconds > 0 {
			executed.Add(1)
		}
	})
	for _, name := range []string{"gemm", "mvt1"} {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := daemonRT.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Runtime: daemonRT,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	proxy := faultnet.New(ts.URL, seed)
	addr, err := proxy.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })

	ccfg.BaseURL = "http://" + addr
	if ccfg.Fallback == nil {
		ccfg.Fallback = fallbackRuntime(t)
	}
	c, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &chaosRig{proxy: proxy, client: c, executed: &executed}
}

// TestChaosBreakerOpensAtThresholdThenHeals: under a full partition the
// breaker opens after exactly breakerFailures failed calls (documented
// threshold), every caller still gets a fallback verdict, and after the
// partition heals and the cooldown elapses a single probe closes it.
func TestChaosBreakerOpensAtThresholdThenHeals(t *testing.T) {
	const threshold = 3
	cooldown := 50 * time.Millisecond
	rig := newChaosRig(t, 1, Config{
		maxAttempts: 1, timeout: time.Second,
		breakerFailures: threshold, breakerCooldown: cooldown,
	})
	rig.proxy.SetFaults(faultnet.Faults{Partition: true})

	ctx := context.Background()
	for i := 1; i <= threshold; i++ {
		v, err := rig.client.Decide(ctx, gemmReq())
		if err != nil {
			t.Fatalf("call %d under partition: %v", i, err)
		}
		if v.Provenance != ProvenanceFallback {
			t.Fatalf("call %d provenance %q", i, v.Provenance)
		}
		wantState := BreakerClosed
		if i == threshold {
			wantState = BreakerOpen
		}
		if got := rig.client.BreakerState(); got != wantState {
			t.Fatalf("after %d failures breaker is %v, want %v", i, got, wantState)
		}
	}
	// Open breaker: verdicts keep flowing without network attempts.
	v, err := rig.client.Decide(ctx, gemmReq())
	if err != nil || v.Provenance != ProvenanceFallback || v.Attempts != 0 {
		t.Fatalf("open-breaker verdict %+v (%v)", v, err)
	}

	// Heal and wait out the cooldown: the next call is the half-open
	// probe, succeeds, and closes the breaker.
	rig.proxy.SetFaults(faultnet.Faults{})
	time.Sleep(cooldown + 20*time.Millisecond)
	v, err = rig.client.Decide(ctx, gemmReq())
	if err != nil {
		t.Fatal(err)
	}
	if v.Provenance != ProvenanceRemote {
		t.Fatalf("post-heal provenance %q", v.Provenance)
	}
	if got := rig.client.BreakerState(); got != BreakerClosed {
		t.Fatalf("breaker %v after successful probe", got)
	}
	m := rig.client.Metrics()
	if m.BreakerOpened != 1 || m.BreakerHalfOpen != 1 || m.BreakerClosed != 1 {
		t.Fatalf("transition counts %+v", m)
	}
}

// TestChaosFlapEveryCallGetsAVerdict: the flap preset (partition
// flapping on/off) must never surface an error to callers — every call
// resolves to a remote or fallback verdict.
func TestChaosFlapEveryCallGetsAVerdict(t *testing.T) {
	rig := newChaosRig(t, 7, Config{
		maxAttempts: 2, retryBackoff: 2 * time.Millisecond,
		breakerFailures: 3, breakerCooldown: 30 * time.Millisecond,
		timeout: time.Second,
	})
	sc, err := faultnet.ParseScenario("flap")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rig.proxy.Run(ctx, sc, nil) }()

	byProv := map[Provenance]int{}
	deadline := time.Now().Add(sc.Total())
	for time.Now().Before(deadline) {
		v, err := rig.client.Decide(context.Background(), gemmReq())
		if err != nil {
			t.Fatalf("call surfaced an error mid-flap: %v", err)
		}
		byProv[v.Provenance]++
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done

	if byProv[ProvenanceRemote] == 0 {
		t.Fatalf("no remote verdicts across a flap that is half-up: %v", byProv)
	}
	if byProv[ProvenanceFallback] == 0 {
		t.Fatalf("no fallback verdicts across a flap that is half-down: %v", byProv)
	}
}

// TestChaosBrownoutRetriesThrough: a 5xx brownout with Retry-After
// hints; the client's retries (honoring the hints) must complete every
// request, mostly remotely.
func TestChaosBrownoutRetriesThrough(t *testing.T) {
	rig := newChaosRig(t, 11, Config{
		maxAttempts: 4, retryBackoff: time.Millisecond, timeout: time.Second,
		breakerFailures: 50, // keep the breaker out of this test's way
	})
	rig.proxy.SetFaults(faultnet.Faults{
		ErrorRate:  0.4,
		RetryAfter: 2 * time.Millisecond,
		Latency:    time.Millisecond,
	})

	const n = 40
	remote := 0
	for i := 0; i < n; i++ {
		v, err := rig.client.Decide(context.Background(), gemmReq())
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if v.Provenance == ProvenanceRemote {
			remote++
		}
	}
	m := rig.client.Metrics()
	if m.Retries == 0 {
		t.Fatal("a 40% error regime caused zero retries")
	}
	if m.RetryAfterHonored == 0 {
		t.Fatal("injected Retry-After hints were never honored")
	}
	if remote < n/2 {
		t.Fatalf("only %d/%d verdicts were remote under a retryable brownout", remote, n)
	}
}

// TestChaosPartitionHealFallbackMatchesDaemon: verdicts served by the
// in-process fallback during a partition must match what the daemon
// serves for the same requests once healed, bit-for-bit — both sides
// evaluate the same deterministic analytical models.
func TestChaosPartitionHealFallbackMatchesDaemon(t *testing.T) {
	rig := newChaosRig(t, 1, Config{
		maxAttempts: 1, breakerFailures: 1000, timeout: time.Second,
	})
	reqs := []server.DecideRequest{
		{Region: "gemm", Bindings: map[string]int64{"n": 64}},
		{Region: "gemm", Bindings: map[string]int64{"n": 1100}},
		{Region: "mvt1", Bindings: map[string]int64{"n": 256}},
		{Region: "mvt1", Bindings: map[string]int64{"n": 4096}},
	}

	rig.proxy.SetFaults(faultnet.Faults{Partition: true})
	degraded := make([]*Verdict, len(reqs))
	for i, req := range reqs {
		v, err := rig.client.Decide(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if v.Provenance != ProvenanceFallback {
			t.Fatalf("req %d provenance %q under partition", i, v.Provenance)
		}
		degraded[i] = v
	}

	rig.proxy.SetFaults(faultnet.Faults{})
	for i, req := range reqs {
		v, err := rig.client.Decide(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if v.Provenance != ProvenanceRemote {
			t.Fatalf("req %d provenance %q after heal", i, v.Provenance)
		}
		d, r := degraded[i].Response, v.Response
		// Compare target identities, not a CPU/GPU boolean: the fallback
		// must pick the same registry target and rank every candidate
		// identically.
		if d.Verdict != r.Verdict || d.Kind != r.Kind || d.SplitFraction != r.SplitFraction {
			t.Fatalf("req %d fallback/daemon mismatch:\n fallback: %+v\n daemon:   %+v",
				i, d, r)
		}
		if len(d.Candidates) != len(r.Candidates) {
			t.Fatalf("req %d candidate counts %d vs %d", i, len(d.Candidates), len(r.Candidates))
		}
		for j := range d.Candidates {
			if d.Candidates[j].Target != r.Candidates[j].Target ||
				d.Candidates[j].PredSeconds != r.Candidates[j].PredSeconds {
				t.Fatalf("req %d candidate mismatch at rank %d:\n fallback: %+v\n daemon:   %+v",
					i, j, d.Candidates[j], r.Candidates[j])
			}
		}
	}
}

// TestChaosHedgesNeverDuplicateSideEffects: under 20ms of latency on
// every call, Execute requests (the side-effecting kind) must appear in
// the daemon's decision log exactly once each: a slow attempt is waited
// for, never sent again.
func TestChaosHedgesNeverDuplicateSideEffects(t *testing.T) {
	rig := newChaosRig(t, 1, Config{timeout: 2 * time.Second})
	rig.proxy.SetFaults(faultnet.Faults{Latency: 20 * time.Millisecond})

	const executes = 8
	for i := 0; i < executes; i++ {
		req := gemmReq()
		req.Execute = true
		v, err := rig.client.Decide(context.Background(), req)
		if err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
		if v.Provenance == ProvenanceFallback {
			t.Fatalf("execute %d fell back under pure latency", i)
		}
		if v.Response.ActualSeconds <= 0 {
			t.Fatalf("execute %d did not execute: %+v", i, v.Response)
		}
	}
	if got := rig.executed.Load(); got != executes {
		t.Fatalf("daemon decision log shows %d executed decisions for %d Execute requests",
			got, executes)
	}
}

// TestChaosFaults30LoadCompletes is the acceptance scenario in miniature:
// under the ~30% fault regime every request completes with a verdict.
func TestChaosFaults30LoadCompletes(t *testing.T) {
	rig := newChaosRig(t, 42, Config{
		maxAttempts: 4, retryBackoff: time.Millisecond,
		breakerFailures: 5, breakerCooldown: 20 * time.Millisecond,
		timeout: time.Second,
	})
	sc, err := faultnet.ParseScenario("faults30")
	if err != nil {
		t.Fatal(err)
	}
	rig.proxy.SetFaults(sc.Steps[0].Faults)

	const n = 120
	byProv := map[Provenance]int{}
	for i := 0; i < n; i++ {
		v, err := rig.client.Decide(context.Background(), gemmReq())
		if err != nil {
			t.Fatalf("request %d failed outright: %v", i, err)
		}
		byProv[v.Provenance]++
	}
	total := byProv[ProvenanceRemote] + byProv[ProvenanceFallback]
	if total != n {
		t.Fatalf("verdicts %d/%d (by provenance: %v)", total, n, byProv)
	}
	if byProv[ProvenanceRemote] == 0 {
		t.Fatalf("nothing completed remotely under a 30%% fault regime: %v", byProv)
	}
	t.Logf("faults30: %v, proxy %s", byProv, rig.proxy.Stats())
}

// TestChaosBinaryTruncationDegradesWithoutLoss: a binary-mode client
// behind a truncating network keeps serving verdicts. Truncation is a
// transport fault: the client retries and degrades to the JSON-identical
// fallback runtime when retries are exhausted, and once the network
// heals the wire format is still in use.
func TestChaosBinaryTruncationDegradesWithoutLoss(t *testing.T) {
	frt := fallbackRuntime(t)
	rig := newChaosRig(t, 21, Config{
		maxAttempts: 2, retryBackoff: time.Millisecond, timeout: time.Second,
		breakerFailures: 50, // keep the breaker out of the way

		Fallback: frt,
		Binary:   true,
		RegionParams: func(region string) []string {
			r, err := frt.Region(region)
			if err != nil {
				return nil
			}
			return r.ParamNames()
		},
	})
	rig.proxy.SetFaults(faultnet.Faults{TruncateRate: 1})

	const n = 20
	for i := 0; i < n; i++ {
		v, err := rig.client.Decide(context.Background(), gemmReq())
		if err != nil {
			t.Fatalf("request %d lost under truncation: %v", i, err)
		}
		if v.Provenance != ProvenanceFallback {
			t.Fatalf("request %d provenance %q with every response truncated", i, v.Provenance)
		}
		if v.Response.Verdict == "" {
			t.Fatalf("request %d fallback verdict empty", i)
		}
	}

	rig.proxy.SetFaults(faultnet.Faults{})
	v, err := rig.client.Decide(context.Background(), gemmReq())
	if err != nil {
		t.Fatal(err)
	}
	if v.Provenance != ProvenanceRemote {
		t.Fatalf("post-heal provenance %q", v.Provenance)
	}

	m := rig.client.Metrics()
	if m.WireCalls == 0 || m.TransportErrors == 0 {
		t.Fatalf("scenario did not exercise the wire path: %+v", m)
	}
	// The healed call must still be binary: wire calls keep growing
	// after the truncation window.
	before := m.WireCalls
	if _, err := rig.client.Decide(context.Background(), gemmReq()); err != nil {
		t.Fatal(err)
	}
	if got := rig.client.Metrics().WireCalls; got <= before {
		t.Fatalf("wire format abandoned after heal: %d -> %d", before, got)
	}
}
