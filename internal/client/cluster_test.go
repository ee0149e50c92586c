package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/offload"
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
	// sheds is how many more calls answer 429 queue_full, exactly as
	// server.admit does, with Retry-After: retryAfter.
	sheds      atomic.Int64
	retryAfter string
	refuse     atomic.Bool // answer 400 bad_request
}

func newReplicaStub(t *testing.T, id, verdict string) *replicaStub {
	t.Helper()
	rs := &replicaStub{id: id}
	rs.ts = stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		rs.calls.Add(1)
		if d := rs.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if rs.fail.Load() {
			http.Error(w, `{"error":"stub down"}`, http.StatusInternalServerError)
			return
		}
		if rs.sheds.Add(-1) >= 0 {
			w.Header().Set("Retry-After", rs.retryAfter)
			http.Error(w, `{"error":{"code":"queue_full","message":"admission queue full"}}`,
				http.StatusTooManyRequests)
			return
		}
		if rs.refuse.Load() {
			http.Error(w, `{"error":{"code":"bad_request","message":"stub refuses"}}`, http.StatusBadRequest)
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
	})
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
	if cfg.vnodes == 0 {
		cfg.vnodes = 64
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
	cc, _ := testClusterClient(t, ClusterConfig{})
	for n := int64(1); n <= 32; n++ {
		req := clusterReq(n * 97)
		key := cluster.RegionKey(req.Region, attrdb.BindingsHash(symbolic.Bindings(req.Bindings)))
		want := cc.Ring().Successors(nil, key, 0)
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
	cc, stubs := testClusterClient(t, ClusterConfig{})
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

// TestClusterFailoverIsPrompt pins the loop's one rule, walk before you
// wait, under production defaults: no retry, backoff, deadline or
// breaker field is set. An owner that errors, refuses connections or sheds costs
// the call one failed attempt and no sleep; the loop sleeps only when the
// whole route has failed.
func TestClusterFailoverIsPrompt(t *testing.T) {
	build := func(t *testing.T, fallback *offload.Runtime) (*ClusterClient, map[string]*replicaStub) {
		// The ring's own size too: the helper shrinks a zero, and NewRing
		// takes anything below it for the constant.
		return testClusterClient(t, ClusterConfig{vnodes: -1, Fallback: fallback})
	}
	// attempts is how many attempts were addressed to a replica, by what
	// became of them.
	attempts := func(m Metrics) uint64 {
		return m.RemoteOK + m.ServerErrors + m.TransportErrors + m.Sheds + m.PermanentErrors
	}
	ctx := context.Background()

	for _, failure := range []struct {
		name string
		set  func(owner *replicaStub)
	}{
		{"owner answers 500", func(owner *replicaStub) { owner.fail.Store(true) }},
		{"owner's listener closed", func(owner *replicaStub) { owner.ts.Close() }},
		{"owner sheds with Retry-After 1", func(owner *replicaStub) {
			owner.retryAfter = "1"
			owner.sheds.Store(1 << 30)
		}},
	} {
		for _, batch := range []bool{false, true} {
			name := failure.name + ", Decide"
			if batch {
				name += "Batch"
			}
			t.Run(name, func(t *testing.T) {
				cc, stubs := build(t, fallbackRuntime(t))
				// Two requests on one route, so the batch is one group of two.
				reqs := []server.DecideRequest{clusterReq(1100)}
				order := cc.Route(reqs[0])
				for n := int64(1101); len(reqs) < 2; n++ {
					if slices.Equal(cc.Route(clusterReq(n)), order) {
						reqs = append(reqs, clusterReq(n))
					}
				}
				failure.set(stubs[order[0]])

				var vs []Verdict
				var err error
				start := time.Now()
				if batch {
					vs, err = cc.DecideBatch(ctx, reqs)
				} else {
					var v *Verdict
					if v, err = cc.Decide(ctx, reqs[0]); err == nil {
						vs = []Verdict{*v}
					}
				}
				elapsed := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range vs {
					if v.Replica != order[1] || v.Provenance != ProvenanceRemote || v.Attempts != 2 {
						t.Errorf("verdict %d: replica %q, provenance %q after %d attempts; want %q, remote, 2 (order %v)",
							i, v.Replica, v.Provenance, v.Attempts, order[1], order)
					}
				}
				m := cc.Metrics()
				if got := attempts(m.Replicas[order[0]]); got != 1 || stubs[order[0]].calls.Load() > 1 {
					t.Errorf("the owner was asked %d times (its stub saw %d calls), want once", got, stubs[order[0]].calls.Load())
				}
				if got := stubs[order[1]].calls.Load(); got != 1 {
					t.Errorf("the successor saw %d calls, want 1", got)
				}
				if got := stubs[order[2]].calls.Load(); got != 0 {
					t.Errorf("the third replica saw %d calls, want none", got)
				}
				for id, r := range m.Replicas {
					if r.Retries != 0 || r.RetryAfterHonored != 0 {
						t.Errorf("%s: %d retries, %d Retry-After naps; a failover sleeps for neither", id, r.Retries, r.RetryAfterHonored)
					}
				}
				if m.Failovers != 1 || m.Fallbacks != 0 {
					t.Errorf("%d failovers, %d fallbacks; want 1 and 0", m.Failovers, m.Fallbacks)
				}
				if elapsed > 50*time.Millisecond {
					t.Errorf("the call took %v: the loop waited before it walked", elapsed)
				}
				t.Logf("verdict after %v", elapsed)
			})
		}
	}

	t.Run("the route wraps", func(t *testing.T) {
		cc, stubs := build(t, nil)
		req := clusterReq(1100)
		order := cc.Route(req)
		for _, rs := range stubs {
			rs.retryAfter = "0.05"
			rs.sheds.Store(1)
		}
		start := time.Now()
		v, err := cc.Decide(ctx, req)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if v.Replica != order[0] || v.Attempts != 4 {
			t.Errorf("served by %q after %d attempts; want the owner %q on the second walk, 4", v.Replica, v.Attempts, order[0])
		}
		if elapsed < 50*time.Millisecond {
			t.Errorf("the call took %v: the owner's Retry-After of 50ms was not slept", elapsed)
		}
		m := cc.Metrics()
		for i, id := range order {
			r, want := m.Replicas[id], uint64(0)
			if i == 0 {
				want = 1 // one sleep, before the owner is asked again
			}
			if r.Retries != want || r.RetryAfterHonored != want || r.Sheds != 1 {
				t.Errorf("%s (route[%d]): %d retries, %d Retry-After naps, %d sheds; want %d, %d, 1",
					id, i, r.Retries, r.RetryAfterHonored, r.Sheds, want, want)
			}
		}
		if m.Failovers != 2 {
			t.Errorf("%d failovers, want the first walk's 2", m.Failovers)
		}
	})

	t.Run("every replica down, no fallback", func(t *testing.T) {
		cc, stubs := build(t, nil)
		req := clusterReq(1100)
		order := cc.Route(req)
		stubs[order[0]].fail.Store(true)
		stubs[order[1]].fail.Store(true)
		stubs[order[2]].ts.Close()
		_, err := cc.Decide(ctx, req)
		if !errors.Is(err, syscall.ECONNREFUSED) || !errors.Is(err, errNoFallback) {
			t.Fatalf("error %v; want the last endpoint's refused connection, and no fallback", err)
		}
		m := cc.Metrics()
		if got := m.Replicas[order[0]].Retries; got != defaultMaxAttempts-1 {
			t.Errorf("%d sleeps before the owner was re-asked, want %d", got, defaultMaxAttempts-1)
		}
		if want := uint64(2 * defaultMaxAttempts); m.Failovers != want {
			t.Errorf("%d failovers, want 2 on each of %d walks", m.Failovers, defaultMaxAttempts)
		}
	})
}

func TestClusterHealthDemotesOwner(t *testing.T) {
	var sick atomic.Value // string: member ID gossip calls dead
	sick.Store("")
	cc, stubs := testClusterClient(t, ClusterConfig{
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

// TestClusterRouteIsAPureQuery: asking for a route counts nothing; a
// demotion is counted where a call is routed, once per request sent.
func TestClusterRouteIsAPureQuery(t *testing.T) {
	var dead atomic.Value // string: member ID gossip calls dead
	dead.Store("")
	cc, _ := testClusterClient(t, ClusterConfig{
		Health: func(id string) cluster.Health {
			if id == dead.Load().(string) {
				return cluster.Dead
			}
			return cluster.Alive
		},
	})
	req := clusterReq(4096)
	dead.Store(cc.Route(req)[0])
	for i := 0; i < 5; i++ {
		cc.Route(req)
	}
	if m := cc.Metrics(); m.Demoted != 0 || m.Requests != 0 {
		t.Fatalf("Route counted: %+v", m)
	}
	if _, err := cc.Decide(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// Two sent, the duplicate coalesced onto the first.
	if _, err := cc.DecideBatch(context.Background(), []server.DecideRequest{req, req}); err != nil {
		t.Fatal(err)
	}
	if m := cc.Metrics(); m.Demoted != 2 || m.Requests != 3 {
		t.Fatalf("%d demotions over %d requests, want 2 over 3 (one Decide, one batch item sent)", m.Demoted, m.Requests)
	}
}

func TestClusterBatchShardsByOwner(t *testing.T) {
	cc, _ := testClusterClient(t, ClusterConfig{})
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
	cc, stubs := testClusterClient(t, ClusterConfig{})
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
		vnodes:   16,
		Replica:  Config{retryBackoff: time.Millisecond, timeout: 200 * time.Millisecond},
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

// TestClusterOutOfRangeIsPermanent: bindings that leave a region an empty
// iteration space are the caller's mistake, so the cluster treats the 422
// like any other permanent answer — one attempt at the owner, no walk to a
// successor, no retry, no fallback verdict, and nothing fed to a breaker.
// (Served as 500 internal, the same call was retried on every replica and
// counted against each one's breaker.)
func TestClusterOutOfRangeIsPermanent(t *testing.T) {
	rig := newStreamClusterRig(t, 5, ClusterConfig{Fallback: fallbackRuntime(t)})
	req := server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 0}}
	owner := rig.cc.Route(req)[0]
	for _, via := range []string{"stream", "http"} {
		if via == "http" {
			req.Execute = true // an Execute keeps to the HTTP rungs
		}
		v, err := rig.cc.Decide(context.Background(), req)
		var re *RemoteError
		switch {
		case errors.As(err, &re):
			// A stream frame carries the code alone; HTTP its status too.
			if re.Code != server.ErrCodeOutOfRange || (via == "http" && re.Status != http.StatusUnprocessableEntity) {
				t.Fatalf("%s: %v (HTTP %d), want 422 %s", via, err, re.Status, server.ErrCodeOutOfRange)
			}
		case err != nil:
			t.Fatalf("%s: %v", via, err)
		case v.Response.Error == nil || v.Response.Error.Code != server.ErrCodeOutOfRange ||
			v.Replica != owner || v.Attempts != 1 || v.Provenance != ProvenanceRemote:
			t.Fatalf("%s: %+v, want %s from the owner's first attempt", via, v, server.ErrCodeOutOfRange)
		}
	}
	m := rig.cc.Metrics()
	if m.Failovers != 0 || m.Fallbacks != 0 {
		t.Errorf("the call left the owner: %+v", m)
	}
	for id, rm := range m.Replicas {
		asked := rm.RemoteOK + rm.PermanentErrors + rm.ServerErrors + rm.TransportErrors
		if want := map[bool]uint64{true: 2, false: 0}[id == owner]; asked != want || rm.Retries != 0 {
			t.Errorf("%s answered %d attempts after %d retries, want %d and 0: %+v", id, asked, rm.Retries, want, rm)
		}
		if rm.BreakerState != BreakerClosed || rm.BreakerOpened != 0 {
			t.Errorf("%s: breaker %v, opened %d times", id, rm.BreakerState, rm.BreakerOpened)
		}
	}
}
