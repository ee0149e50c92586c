package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// replicaStub is one fake daemon in a cluster test: it answers both
// single and batch /v2/decide calls and can be flipped into failing or
// slow mode after routing is known.
type replicaStub struct {
	id    string
	ts    *httptest.Server
	calls atomic.Int64
	fail  atomic.Bool
	delay atomic.Int64 // nanoseconds
}

func newReplicaStub(t *testing.T, id, verdict string) *replicaStub {
	t.Helper()
	rs := &replicaStub{id: id}
	rs.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs.calls.Add(1)
		if d := rs.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if rs.fail.Load() {
			http.Error(w, `{"error":"stub down"}`, http.StatusInternalServerError)
			return
		}
		var body struct {
			Requests []server.DecideRequest `json:"requests"`
			Region   string                 `json:"region"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			t.Errorf("replica %s: decode: %v", id, err)
			return
		}
		if len(body.Requests) > 0 {
			results := make([]server.DecideResponseV2, len(body.Requests))
			for i, req := range body.Requests {
				results[i] = server.DecideResponseV2{Region: req.Region, Verdict: verdict}
			}
			_ = json.NewEncoder(w).Encode(server.BatchResponseV2{Results: results})
			return
		}
		okResponse(w, body.Region, verdict)
	}))
	t.Cleanup(rs.ts.Close)
	return rs
}

// testClusterClient builds a 3-replica cluster over stub daemons.
func testClusterClient(t *testing.T, cfg ClusterConfig) (*ClusterClient, map[string]*replicaStub) {
	t.Helper()
	stubs := map[string]*replicaStub{}
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		rs := newReplicaStub(t, id, "gpu/base")
		stubs[id] = rs
		cfg.Members = append(cfg.Members, ClusterMember{ID: id, BaseURL: rs.ts.URL})
	}
	if cfg.Vnodes == 0 {
		cfg.Vnodes = 64
	}
	cc, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)
	return cc, stubs
}

func clusterReq(n int64) server.DecideRequest {
	return server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": n}}
}

func TestClusterRouteMatchesRing(t *testing.T) {
	cc, _ := testClusterClient(t, ClusterConfig{
		Replica: Config{DisableHedging: true},
	})
	for n := int64(1); n <= 32; n++ {
		req := clusterReq(n * 97)
		key := cluster.RegionKey(req.Region, attrdb.BindingsHash(symbolic.Bindings(req.Bindings)))
		want := cc.Ring().Successors(key, 0)
		got := cc.Route(req)
		if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("n=%d: route %v, ring successors %v", n, got, want)
		}
		// Routing is a pure function of the request.
		again := cc.Route(req)
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("n=%d: route not deterministic: %v vs %v", n, got, again)
			}
		}
	}
	if m := cc.Metrics(); m.Demoted != 0 {
		t.Fatalf("no health source configured, yet %d routes demoted the owner", m.Demoted)
	}
}

func TestClusterFailoverToSuccessor(t *testing.T) {
	cc, stubs := testClusterClient(t, ClusterConfig{
		Replica: Config{DisableHedging: true, RetryBackoff: time.Millisecond},
	})
	req := clusterReq(1100)
	order := cc.Route(req)
	stubs[order[0]].fail.Store(true)

	v, err := cc.Decide(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Replica != order[1] {
		t.Fatalf("verdict served by %q, want ring successor %q (order %v)", v.Replica, order[1], order)
	}
	m := cc.Metrics()
	if m.Failovers == 0 {
		t.Fatalf("failover not counted: %+v", m)
	}
	if stubs[order[2]].calls.Load() != 0 {
		t.Fatalf("request leaked past the first healthy successor to %s", order[2])
	}
}

func TestClusterCrossHedgeTargetsSuccessor(t *testing.T) {
	cc, stubs := testClusterClient(t, ClusterConfig{
		HedgeAfter: 5 * time.Millisecond,
		Replica:    Config{RetryBackoff: time.Millisecond},
	})
	req := clusterReq(2048)
	order := cc.Route(req)
	// The owner is healthy but slow; the hedge must fire at the ring
	// successor and win.
	stubs[order[0]].delay.Store(int64(300 * time.Millisecond))

	v, err := cc.Decide(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Replica != order[1] {
		t.Fatalf("hedged verdict served by %q, want successor %q (order %v)", v.Replica, order[1], order)
	}
	if v.Provenance != ProvenanceHedged {
		t.Fatalf("provenance %q, want %q", v.Provenance, ProvenanceHedged)
	}
	m := cc.Metrics()
	if m.CrossHedges != 1 || m.CrossHedgeWins != 1 {
		t.Fatalf("hedge metrics %+v", m)
	}
	if stubs[order[2]].calls.Load() != 0 {
		t.Fatalf("hedge reached %s — hedges must only target the immediate successor", order[2])
	}
}

func TestClusterHealthDemotesOwner(t *testing.T) {
	var sick atomic.Value // string: member ID gossip calls dead
	sick.Store("")
	cc, stubs := testClusterClient(t, ClusterConfig{
		Replica: Config{DisableHedging: true, RetryBackoff: time.Millisecond},
		Health: func(id string) cluster.Health {
			if id == sick.Load().(string) {
				return cluster.Dead
			}
			return cluster.Alive
		},
	})
	req := clusterReq(4096)
	base := cc.Route(req)
	sick.Store(base[0])

	demotedOrder := cc.Route(req)
	if demotedOrder[0] != base[1] || demotedOrder[2] != base[0] {
		t.Fatalf("dead owner not demoted to last: base %v, ranked %v", base, demotedOrder)
	}
	v, err := cc.Decide(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Replica != base[1] {
		t.Fatalf("verdict served by %q, want healthy successor %q", v.Replica, base[1])
	}
	if stubs[base[0]].calls.Load() != 0 {
		t.Fatalf("request sent to the dead owner %s", base[0])
	}
	if m := cc.Metrics(); m.Demoted == 0 {
		t.Fatalf("demotion not counted: %+v", m)
	}
}

func TestClusterBatchShardsByOwner(t *testing.T) {
	cc, _ := testClusterClient(t, ClusterConfig{
		Replica: Config{DisableHedging: true},
	})
	reqs := make([]server.DecideRequest, 12)
	for i := range reqs {
		reqs[i] = clusterReq(int64(100 + i*37))
	}
	vs, err := cc.DecideBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(reqs) {
		t.Fatalf("%d verdicts for %d requests", len(vs), len(reqs))
	}
	owners := map[string]bool{}
	for i, v := range vs {
		owner := cc.Route(reqs[i])[0]
		if v.Replica != owner {
			t.Fatalf("item %d served by %q, want its ring owner %q", i, v.Replica, owner)
		}
		if v.Response.Region != reqs[i].Region {
			t.Fatalf("item %d region %q, want %q", i, v.Response.Region, reqs[i].Region)
		}
		owners[owner] = true
	}
	if len(owners) < 2 {
		t.Fatalf("test keys all landed on one owner (%v); widen the key spread", owners)
	}
}

func TestClusterBatchFailsOverPerGroup(t *testing.T) {
	cc, stubs := testClusterClient(t, ClusterConfig{
		Replica: Config{DisableHedging: true, RetryBackoff: time.Millisecond},
	})
	reqs := make([]server.DecideRequest, 8)
	for i := range reqs {
		reqs[i] = clusterReq(int64(500 + i*61))
	}
	// Kill one replica: every group owned by it must fail over to its
	// successor, while other groups stay put.
	dead := cc.Route(reqs[0])[0]
	stubs[dead].fail.Store(true)

	vs, err := cc.DecideBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		order := cc.Route(reqs[i])
		want := order[0]
		if want == dead {
			want = order[1]
		}
		if v.Replica != want {
			t.Fatalf("item %d served by %q, want %q (order %v, dead %s)", i, v.Replica, want, order, dead)
		}
	}
	if m := cc.Metrics(); m.Failovers == 0 {
		t.Fatalf("batch failover not counted: %+v", m)
	}
}

func TestClusterFallbackWhenAllReplicasDown(t *testing.T) {
	cc, err := NewCluster(ClusterConfig{
		Members: []ClusterMember{
			{ID: "node-a", BaseURL: "http://127.0.0.1:1"},
			{ID: "node-b", BaseURL: "http://127.0.0.1:1"},
		},
		Vnodes:   16,
		Replica:  Config{DisableHedging: true, RetryBackoff: time.Millisecond, Timeout: 200 * time.Millisecond},
		Fallback: fallbackRuntime(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)

	v, err := cc.Decide(context.Background(), clusterReq(1100))
	if err != nil {
		t.Fatal(err)
	}
	if v.Provenance != ProvenanceFallback || v.Replica != "" {
		t.Fatalf("verdict %+v, want an in-process fallback verdict with no replica", v)
	}

	vs, err := cc.DecideBatch(context.Background(), []server.DecideRequest{clusterReq(64), clusterReq(128)})
	if err != nil {
		t.Fatal(err)
	}
	for i, bv := range vs {
		if bv.Provenance != ProvenanceFallback {
			t.Fatalf("batch item %d provenance %q, want fallback", i, bv.Provenance)
		}
	}
	m := cc.Metrics()
	if m.Fallbacks < 2 {
		t.Fatalf("fallbacks %d, want one per failed call", m.Fallbacks)
	}

	out := expose(t, cc.RegisterMetrics)
	for _, series := range []string{
		"hybridselc_cluster_requests_total 3",
		"hybridselc_cluster_fallback_total",
		`hybridselc_requests_total{replica="node-a"}`,
		`hybridselc_requests_total{replica="node-b"}`,
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("exposition missing %q:\n%s", series, out)
		}
	}
}

func TestNewClusterRejectsBadConfig(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := NewCluster(ClusterConfig{Members: []ClusterMember{{ID: "a"}}}); err == nil {
		t.Fatal("member without BaseURL accepted")
	}
	if _, err := NewCluster(ClusterConfig{Members: []ClusterMember{{BaseURL: "http://x"}}}); err == nil {
		t.Fatal("member without ID accepted")
	}
}
