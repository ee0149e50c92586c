package client

// Cluster chaos regression tests: three real daemons behind a faultnet
// Mesh (one directed proxy per client→replica edge), driven through the
// ClusterClient. Like the single-daemon chaos suite, every test is
// deterministic for a fixed mesh seed and asserts invariants — 100%
// verdict completion, successor-only rerouting, bit-reproducibility —
// never timing sequences. All TestChaos* tests run under `make chaos`
// with the race detector on.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/faultnet"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// newDecideDaemon stands up one replica daemon with its own runtime.
// Every replica is configured identically, so any of them must produce
// bit-identical verdicts for the same request — which is what makes
// failover loss-free by construction and lets the kill-loop test assert
// reproducibility across reroutes.
func newDecideDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	rt := offload.NewRuntime(offload.Config{
		Platform: machine.PlatformP9V100(),
		CPUSim:   sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:   sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
	})
	for _, name := range []string{"gemm", "mvt1"} {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Runtime: rt,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// clusterChaosRig is a 3-replica decision plane with every
// client→replica edge behind its own faultnet proxy.
type clusterChaosRig struct {
	mesh *faultnet.Mesh
	cc   *ClusterClient
	ids  []string
}

func newClusterChaosRig(t *testing.T, seed int64, ccfg ClusterConfig) *clusterChaosRig {
	t.Helper()
	mesh := faultnet.NewMesh(seed)
	t.Cleanup(func() { _ = mesh.Close() })
	ids := []string{"node-a", "node-b", "node-c"}
	for _, id := range ids {
		ts := newDecideDaemon(t)
		addr, err := mesh.Link("client", id, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		ccfg.Members = append(ccfg.Members, ClusterMember{ID: id, BaseURL: "http://" + addr})
	}
	if ccfg.Vnodes == 0 {
		ccfg.Vnodes = 64
	}
	cc, err := NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)
	return &clusterChaosRig{mesh: mesh, cc: cc, ids: ids}
}

// chaosClusterReqs is the fixed request mix the cluster chaos tests
// drive: both regions, key spread wide enough to touch every shard.
func chaosClusterReqs(n int) []server.DecideRequest {
	reqs := make([]server.DecideRequest, n)
	for i := range reqs {
		region := "gemm"
		if i%2 == 1 {
			region = "mvt1"
		}
		reqs[i] = server.DecideRequest{
			Region:   region,
			Bindings: map[string]int64{"n": int64(64 + i*53)},
		}
	}
	return reqs
}

// TestChaosRollingRestartLosesNoVerdicts: restart the replicas one at a
// time (partition the client edge, run traffic, heal, move on). Every
// decide must complete, traffic owned by the down replica must land on
// its ring successor and nowhere else, and a healed replica must serve
// its keys again before the next one goes down.
func TestChaosRollingRestartLosesNoVerdicts(t *testing.T) {
	rig := newClusterChaosRig(t, 3, ClusterConfig{
		Replica: Config{
			DisableHedging: true, MaxAttempts: 2,
			BreakerFailures: 1000, Timeout: 2 * time.Second,
		},
	})
	reqs := chaosClusterReqs(24)
	ctx := context.Background()
	completed := 0

	for _, down := range rig.ids {
		rig.mesh.SetFaults("client", down, faultnet.Faults{Partition: true})
		for i, req := range reqs {
			v, err := rig.cc.Decide(ctx, req)
			if err != nil {
				t.Fatalf("restart of %s: request %d lost: %v", down, i, err)
			}
			completed++
			order := rig.cc.Route(req)
			want := order[0]
			if want == down {
				want = order[1]
			}
			if v.Replica != want {
				t.Fatalf("restart of %s: request %d served by %q, want %q (order %v)",
					down, i, v.Replica, want, order)
			}
		}
		rig.mesh.SetFaults("client", down, faultnet.Faults{})
		// The healed replica owns its keys again immediately: ownership
		// never moved, only routing did.
		for _, req := range reqs {
			if rig.cc.Route(req)[0] != down {
				continue
			}
			v, err := rig.cc.Decide(ctx, req)
			if err != nil {
				t.Fatalf("post-heal decide on %s: %v", down, err)
			}
			completed++
			if v.Replica != down {
				t.Fatalf("healed replica %s not serving its keys: got %q", down, v.Replica)
			}
			break
		}
	}

	m := rig.cc.Metrics()
	if m.Requests != uint64(completed) {
		t.Fatalf("completed %d of %d requests", completed, m.Requests)
	}
	if m.Failovers == 0 {
		t.Fatal("a full rolling restart caused zero failovers — the kill never bit")
	}
	if m.Fallbacks != 0 {
		t.Fatalf("verdicts degraded to fallback during a single-node restart: %+v", m)
	}
}

// TestChaosClusterKillLoopReproducible: the acceptance scenario — a
// deterministic node-kill loop walking round-robin over the replicas.
// Two independent rigs with the same mesh seed must produce the exact
// same (replica, verdict) sequence: routing, failover order, and the
// analytical verdicts are all pure functions of (seed, request order).
func TestChaosClusterKillLoopReproducible(t *testing.T) {
	run := func() []string {
		rig := newClusterChaosRig(t, 17, ClusterConfig{
			Replica: Config{
				DisableHedging: true, MaxAttempts: 2,
				BreakerFailures: 1000, Timeout: 2 * time.Second,
			},
		})
		reqs := chaosClusterReqs(8)
		var trace []string
		for round := 0; round < 3; round++ {
			down := rig.ids[round%len(rig.ids)]
			rig.mesh.SetFaults("client", down, faultnet.Faults{Partition: true})
			for i, req := range reqs {
				v, err := rig.cc.Decide(context.Background(), req)
				if err != nil {
					t.Fatalf("round %d (down %s): request %d lost: %v", round, down, i, err)
				}
				if v.Replica == down {
					t.Fatalf("round %d: killed replica %s served a verdict", round, down)
				}
				trace = append(trace, fmt.Sprintf("r%d/%d %s n=%d -> %s %s %.3f",
					round, i, req.Region, req.Bindings["n"],
					v.Replica, v.Response.Verdict, v.Response.SplitFraction))
			}
			rig.mesh.SetFaults("client", down, faultnet.Faults{})
		}
		return trace
	}

	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("kill loop not reproducible at step %d:\n run1: %s\n run2: %s", i, a[i], b[i])
		}
	}
}

// TestChaosClusterHedgeSuccessorOnly: a slow (not dead) owner makes the
// cross-replica hedge fire; the hedge must land on the immediate ring
// successor and never spill to the third shard.
func TestChaosClusterHedgeSuccessorOnly(t *testing.T) {
	rig := newClusterChaosRig(t, 9, ClusterConfig{
		Replica: Config{
			HedgeAfter:      5 * time.Millisecond,
			BreakerFailures: 1000, Timeout: 2 * time.Second,
		},
	})
	// Distinct requests that all live on the same shard: same owner and
	// successor, but no client-side coalescing between iterations.
	first := chaosClusterReqs(1)[0]
	order := rig.cc.Route(first)
	var reqs []server.DecideRequest
	for n := int64(64); len(reqs) < 4 && n < 64_000; n += 53 {
		req := server.DecideRequest{Region: first.Region, Bindings: map[string]int64{"n": n}}
		if ro := rig.cc.Route(req); ro[0] == order[0] && ro[1] == order[1] {
			reqs = append(reqs, req)
		}
	}
	if len(reqs) < 4 {
		t.Fatalf("found only %d keys on shard %s/%s", len(reqs), order[0], order[1])
	}
	rig.mesh.SetFaults("client", order[0], faultnet.Faults{Latency: 150 * time.Millisecond})

	for i, req := range reqs {
		v, err := rig.cc.Decide(context.Background(), req)
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		if v.Replica != order[1] {
			t.Fatalf("decide %d served by %q, want hedge at successor %q (order %v)",
				i, v.Replica, order[1], order)
		}
		if v.Provenance != ProvenanceHedged {
			t.Fatalf("decide %d provenance %q, want %q", i, v.Provenance, ProvenanceHedged)
		}
	}
	m := rig.cc.Metrics()
	if m.CrossHedges == 0 || m.CrossHedgeWins == 0 {
		t.Fatalf("hedge metrics %+v", m)
	}
	if s := rig.mesh.Proxy("client", order[2]).Stats(); s.Requests != 0 {
		t.Fatalf("hedge spilled past the successor: %d requests hit %s", s.Requests, order[2])
	}
}

// TestClusterRouteEquivalence holds every way the loop can get a request
// answered to the one answer: the request rows of TestCodecEquivalence
// that a DecideRequest can spell, served by the owner, by a failed-over
// successor, by a hedge, inside a batch sharded over owners with one
// owner down, and by the fallback runtime with every replica down. Each
// must be, row for row, the DecideResponseV2 an in-process
// offload.Runtime yields (CacheHit and DecisionNanos aside, which depend
// on who asked first) or the row's error code, stamped with the replica,
// provenance and transport that route is documented to stamp.
func TestClusterRouteEquivalence(t *testing.T) {
	gemm := func(n int64) server.DecideRequest {
		return server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": n}}
	}
	rows := []struct {
		name string
		req  server.DecideRequest
		code string // expected error code, "" = a verdict
	}{
		{name: "miss", req: gemm(700)},
		{name: "hit", req: gemm(700)},
		{name: "other region", req: server.DecideRequest{Region: "mvt1", Bindings: map[string]int64{"n": 4000}}},
		{name: "execute", req: server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 96}, Execute: true}},
		{name: "duplicate inside a batch", req: gemm(700)},
		{name: "a name beyond the parameters",
			req: server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 300, "extra": 1}}},
		{name: "unknown region", req: server.DecideRequest{Region: "nope", Bindings: map[string]int64{"n": 8}},
			code: server.ErrCodeUnknownRegion},
		{name: "unbound symbol", req: server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"m": 8}},
			code: server.ErrCodeUnboundSymbol},
		{name: "no bindings", req: server.DecideRequest{Region: "gemm"}, code: server.ErrCodeUnboundSymbol},
		{name: "empty region", req: server.DecideRequest{Bindings: map[string]int64{"n": 8}},
			code: server.ErrCodeBadRequest},
	}

	// Compared as served: through the JSON encoding, which is blind to
	// Candidate's unexported bookkeeping.
	asServed := func(r server.DecideResponseV2) (out server.DecideResponseV2) {
		t.Helper()
		r.CacheHit, r.DecisionNanos = false, 0
		raw, err := json.Marshal(r)
		if err == nil {
			err = json.Unmarshal(raw, &out)
		}
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// The reference: the runtime asked directly, projected by hand.
	ref := fallbackRuntime(t)
	want := make([]server.DecideResponseV2, len(rows))
	for i, row := range rows {
		if row.code != "" {
			continue
		}
		region, err := ref.Region(row.req.Region)
		if err != nil {
			t.Fatalf("%s: reference: %v", row.name, err)
		}
		decide := region.Decide
		if row.req.Execute {
			decide = region.Launch
		}
		out, err := decide(symbolic.Bindings(row.req.Bindings))
		if err != nil {
			t.Fatalf("%s: reference: %v", row.name, err)
		}
		want[i] = asServed(server.DecideResponseV2{
			Region: row.req.Region, Verdict: out.TargetID, Kind: out.Target.String(),
			Policy: out.Policy.Name(), Candidates: out.Candidates, SplitFraction: out.SplitFraction,
			Provenance: out.Provenance, ActualSeconds: out.ActualSeconds,
		})
	}

	// One walk per call: with every replica down a second walk would only
	// add three backoff sleeps to each row. Breakers stay out of the way,
	// so a partitioned replica is asked, and fails, every time.
	rig := newClusterChaosRig(t, 5, ClusterConfig{
		Fallback: fallbackRuntime(t),
		Replica:  Config{MaxAttempts: 1, BreakerFailures: 1000},
	})
	hedging := newClusterChaosRig(t, 5, ClusterConfig{
		Replica: Config{HedgeAfter: 5 * time.Millisecond, BreakerFailures: 1000},
	})
	ctx := context.Background()
	// under serves one request with faults on some client→replica edges,
	// and heals them.
	under := func(r *clusterChaosRig, f faultnet.Faults, req server.DecideRequest, edges ...string) (*Verdict, error) {
		for _, id := range edges {
			r.mesh.SetFaults("client", id, f)
		}
		v, err := r.cc.Decide(ctx, req)
		for _, id := range edges {
			r.mesh.SetFaults("client", id, faultnet.Faults{})
		}
		return v, err
	}
	// stamp is what a route documents about a verdict's delivery.
	type stamp struct {
		replica   string
		prov      Provenance
		transport string
		attempts  int
	}
	order := func(i int) []string { return rig.cc.Route(rows[i].req) }
	batchDown := order(0)[0]
	var batch []Verdict

	for _, route := range []struct {
		name  string
		serve func(i int) (*Verdict, error)
		want  func(i int) stamp
	}{
		{"owner",
			func(i int) (*Verdict, error) { return rig.cc.Decide(ctx, rows[i].req) },
			func(i int) stamp { return stamp{order(i)[0], ProvenanceRemote, TransportHTTPJSON, 1} }},
		{"failed-over successor",
			func(i int) (*Verdict, error) {
				return under(rig, faultnet.Faults{Partition: true}, rows[i].req, order(i)[0])
			},
			func(i int) stamp { return stamp{order(i)[1], ProvenanceRemote, TransportHTTPJSON, 2} }},
		{"hedge",
			func(i int) (*Verdict, error) {
				return under(hedging, faultnet.Faults{Latency: 150 * time.Millisecond}, rows[i].req, order(i)[0])
			},
			func(i int) stamp {
				if rows[i].req.Execute { // never duplicated: the slow owner's own answer
					return stamp{order(i)[0], ProvenanceRemote, TransportHTTPJSON, 1}
				}
				return stamp{order(i)[1], ProvenanceHedged, TransportHTTPJSON, 1}
			}},
		{"batch sharded over owners, one owner down",
			func(i int) (*Verdict, error) {
				if batch == nil {
					reqs := make([]server.DecideRequest, len(rows))
					for j := range rows {
						reqs[j] = rows[j].req
					}
					rig.mesh.SetFaults("client", batchDown, faultnet.Faults{Partition: true})
					var err error
					batch, err = rig.cc.DecideBatch(ctx, reqs)
					rig.mesh.SetFaults("client", batchDown, faultnet.Faults{})
					if err != nil {
						return nil, err
					}
				}
				if want := i > 0 && reflect.DeepEqual(rows[i].req, rows[0].req); batch[i].Coalesced != want {
					t.Errorf("batch / %s: Coalesced = %v, want %v", rows[i].name, batch[i].Coalesced, want)
				}
				return &batch[i], nil
			},
			func(i int) stamp {
				if o := order(i); o[0] == batchDown {
					return stamp{o[1], ProvenanceRemote, TransportHTTPJSON, 2}
				}
				return stamp{order(i)[0], ProvenanceRemote, TransportHTTPJSON, 1}
			}},
		{"cluster fallback",
			func(i int) (*Verdict, error) {
				return under(rig, faultnet.Faults{Partition: true}, rows[i].req, rig.ids...)
			},
			func(i int) stamp { return stamp{"", ProvenanceFallback, TransportLocal, 3} }},
	} {
		for i, row := range rows {
			v, err := route.serve(i)
			var got server.DecideResponseV2
			code := ""
			var re *RemoteError
			switch {
			case errors.As(err, &re):
				code = re.Code
			case err != nil:
				t.Fatalf("%s / %s: %v", route.name, row.name, err)
			default:
				if s := (stamp{v.Replica, v.Provenance, v.Transport, v.Attempts}); s != route.want(i) {
					t.Errorf("%s / %s: stamped %+v, want %+v (route %v)", route.name, row.name, s, route.want(i), order(i))
				}
				if got = v.Response; got.Error != nil {
					code = got.Error.Code
				}
			}
			switch {
			case code != row.code:
				t.Errorf("%s / %s: error code %q, want %q", route.name, row.name, code, row.code)
			case code == "" && !reflect.DeepEqual(asServed(got), want[i]):
				t.Errorf("%s / %s: verdict diverges from the reference runtime\n  got:  %+v\n  want: %+v",
					route.name, row.name, asServed(got), want[i])
			}
		}
	}
	if m := hedging.cc.Metrics(); m.CrossHedges == 0 || m.CrossHedgeWins == 0 || m.Failovers != 0 {
		t.Errorf("the hedge route: %+v", m)
	}
	// Routing is the ring's alone: both rigs agree on every row.
	for i := range rows {
		if !slices.Equal(hedging.cc.Route(rows[i].req), order(i)) {
			t.Fatalf("%s: the two rigs route differently", rows[i].name)
		}
	}
}
