//go:build !race

package client

import (
	"context"
	"runtime"
	"testing"

	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file holds the client's allocation budgets. The server half of a
// round trip counts on sync.Pool handing back what it was given — its slot
// vectors are pooled — which under the race detector it does not (Put
// drops a quarter of it, by design), so they are not built there.

// TestStreamRoundTripAllocationBudget: one decision through a real server
// stream connection and StreamConn.Decide on loopback, in steady state,
// allocates nothing but its share of the read loop's slabs, which the
// Response and Candidates the caller keeps are cut from: a 142nd of a
// response slab and a 141st of a candidate slab (two candidates a
// response), the 249 bytes those two take, and nothing else — on either
// side: the count is the whole process's.
func TestStreamRoundTripAllocationBudget(t *testing.T) {
	_, addr := realStreamDaemon(t)
	sc, err := DialStream(StreamDialConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	req := slotRequest("gemm", 1100)
	var resp *wire.Response
	decide := func() {
		if resp, err = sc.Decide(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		decide()
	}
	// Enough runs that where they start in a slab moves the averages by
	// under 0.0001 allocations and 2 bytes.
	const runs = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decide()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.4f allocations and %.1f bytes a round trip", allocs, bytes)
	// Measured 0.0145 allocations and 248.0 bytes; the slabs alone are
	// 0.0141 and 249.4 (a Response is 152 B since it carries an epoch stamp).
	if allocs > 0.016 || bytes > 252 {
		t.Fatalf("a stream round trip allocates %.4f times and %.1f bytes, want <= 0.016 and 252 (two slab cuts of 249.4 B)", allocs, bytes)
	}
	if resp.Err != nil || !resp.CacheHit || len(resp.Candidates) != 2 || cap(resp.Candidates) != 2 {
		t.Fatalf("steady-state response %+v", resp)
	}
}

// TestLeasedHitAllocationBudget: a repeat served from a lease costs the
// copy of the verdict the caller keeps, candidates inline, and nothing
// else: one allocation of at most 448 bytes.
func TestLeasedHitAllocationBudget(t *testing.T) {
	url, _ := realStreamDaemon(t)
	c := newTestClient(t, Config{BaseURL: url, Stream: true})
	req := server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 1100}}
	var v *Verdict
	var err error
	decide := func() {
		if v, err = c.Decide(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	decide()
	decide()
	if v.Transport != TransportLease {
		t.Fatalf("the repeat went over %s, want a lease", v.Transport)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decide()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.2f allocations and %.0f bytes a leased hit", allocs, bytes)
	if allocs > 1 || bytes > 448 || v.Transport != TransportLease {
		t.Fatalf("a leased hit allocates %.2f times and %.0f bytes (last over %s), want <= 1 and 448", allocs, bytes, v.Transport)
	}
}

// TestNetworkCallAllocationBudget: a decide-only single no lease holds —
// every key new — through a Client and through a ClusterClient costs the
// client three allocations: the ask, the verdict with its candidates
// inline, and the lease its answer grants. The daemon's miss in slot form
// allocates nothing, so the whole process counts three.
func TestNetworkCallAllocationBudget(t *testing.T) {
	url, _ := realStreamDaemon(t)
	c := newTestClient(t, Config{BaseURL: url, Stream: true, Fallback: fallbackRuntime(t)})
	cc, err := NewCluster(ClusterConfig{Members: []ClusterMember{{ID: "node-a", BaseURL: url}}, Fallback: fallbackRuntime(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	const runs = 2000
	next := int64(1000)
	for _, d := range []struct {
		name   string
		decide func(context.Context, server.DecideRequest) (*Verdict, error)
		leases func() uint64
	}{
		{"client", c.Decide, func() uint64 { return c.Metrics().LeaseHits }},
		{"cluster", cc.Decide, func() uint64 { return cc.Metrics().Replicas["node-a"].LeaseHits }},
	} {
		reqs := make([]server.DecideRequest, 500+runs)
		for i := range reqs {
			next++
			reqs[i] = server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": next}}
		}
		var v *Verdict
		decide := func(req server.DecideRequest) {
			if v, err = d.decide(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		for _, req := range reqs[:500] {
			decide(req)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, req := range reqs[500:] {
			decide(req)
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.2f allocations and %.0f bytes a network call", d.name, allocs, bytes)
		if v.Transport != TransportStream || d.leases() != 0 {
			t.Fatalf("%s: the last call went over %s, %d lease hits; want every call on the stream", d.name, v.Transport, d.leases())
		}
		if allocs > 3.05 {
			t.Errorf("%s: a network call allocates %.2f times, want <= 3 (the ask, the verdict, the lease)", d.name, allocs)
		}
	}
}

// cannedTransport answers every call at once with the same verdicts: a
// rung that costs nothing, so what a call allocates is the loop's alone.
type cannedTransport struct{ vs []Verdict }

func (c cannedTransport) Send(context.Context, []server.DecideRequest, bool) ([]Verdict, error) {
	return c.vs, nil
}
func (cannedTransport) Close() {}

// TestRouteOfThreeAllocationBudget: a route of three endpoints costs what
// a route of one does, since the ring's successor list and the route both
// stay on the caller's stack; and a call through a cluster's view costs
// what a single-daemon Client's does.
func TestRouteOfThreeAllocationBudget(t *testing.T) {
	canned := cannedTransport{vs: make([]Verdict, 1)}
	single := newTestClient(t, Config{BaseURL: "http://127.0.0.1:1"})
	single.route[0].ladder[0].Transport = canned
	cc, err := NewCluster(ClusterConfig{Members: []ClusterMember{
		{ID: "node-a", BaseURL: "http://127.0.0.1:1"},
		{ID: "node-b", BaseURL: "http://127.0.0.1:1"},
		{ID: "node-c", BaseURL: "http://127.0.0.1:1"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)
	for _, v := range cc.views {
		v.route[0].ladder[0].Transport = canned
	}

	ctx, req := context.Background(), gemmReq()
	allocs := func(decide func(context.Context, server.DecideRequest) (*Verdict, error)) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := decide(ctx, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := allocs(single.Decide)
	if got := allocs(cc.Decide); got > plain {
		t.Errorf("a call on a route of three allocates %v times, %v on a route of one: want no more", got, plain)
	}
	if got := allocs(cc.Client("node-a").Decide); got > plain {
		t.Errorf("a call through a cluster's view allocates %v times, %v through a Client: want no more", got, plain)
	}
}
