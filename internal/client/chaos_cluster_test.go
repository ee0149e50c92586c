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
	"strings"
	"sync"
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
	if ccfg.vnodes == 0 {
		ccfg.vnodes = 64
	}
	cc, err := NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)
	return &clusterChaosRig{mesh: mesh, cc: cc, ids: ids}
}

// streamClusterRig is a 3-replica decision plane with every
// client→replica edge behind a byte-level faultnet.TCPProxy. HTTP and the
// stream a replica's endpoint upgrades to both cross it, so a cut edge
// takes both away, as a killed daemon does.
type streamClusterRig struct {
	t      *testing.T
	cc     *ClusterClient
	ids    []string
	edges  map[string]*faultnet.TCPProxy
	probes int64 // heal's last probe key
}

func newStreamClusterRig(t *testing.T, seed int64, ccfg ClusterConfig) *streamClusterRig {
	t.Helper()
	r := &streamClusterRig{t: t, ids: []string{"node-a", "node-b", "node-c"}, edges: map[string]*faultnet.TCPProxy{}}
	for i, id := range r.ids {
		ts := newDecideDaemon(t)
		edge := faultnet.NewTCP(strings.TrimPrefix(ts.URL, "http://"), seed+int64(i))
		addr, err := edge.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = edge.Close() })
		r.edges[id] = edge
		ccfg.Members = append(ccfg.Members, ClusterMember{ID: id, BaseURL: "http://" + addr})
	}
	if ccfg.vnodes == 0 {
		ccfg.vnodes = 64
	}
	cc, err := NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)
	r.cc = cc
	return r
}

// cut puts f on every connection the replicas' edges accept from now on
// and kills the ones they carry, pooled HTTP and upgraded streams alike,
// and waits until the client has seen its streams to them die — and with
// them the leases they granted.
func (r *streamClusterRig) cut(f faultnet.TCPFaults, ids ...string) {
	r.t.Helper()
	for _, id := range ids {
		r.edges[id].SetFaults(f)
		r.edges[id].KillActive()
		st := r.cc.views[id].route[0].ladder[0].Transport.(*streamTransport)
		until := time.Now().Add(10 * time.Second)
		for i := range st.slots {
			for sc := st.slots[i].conn.Load(); sc != nil && sc.Usable(); {
				if time.Now().After(until) {
					r.t.Fatalf("%s's stream %d is still usable 10s after its edge was cut", id, i)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// heal lifts the faults and waits until each replica answers a key it
// owns on a redialed stream, once per pooled connection in a row: the
// redial backoff a cut leaves behind has lapsed on all of them. Every probe
// is a key not asked before, so no lease answers it.
func (r *streamClusterRig) heal(ids ...string) {
	r.t.Helper()
	for _, id := range ids {
		r.edges[id].SetFaults(faultnet.TCPFaults{})
		until := time.Now().Add(10 * time.Second)
		for row := 0; row < r.cc.loop.cfg.StreamConns; {
			r.probes++
			probe := server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": r.probes}}
			if r.cc.Route(probe)[0] != id {
				continue
			}
			v, err := r.cc.Decide(context.Background(), probe)
			switch {
			case err == nil && v.Replica == id && v.Transport == TransportStream:
				row++
			case time.Now().After(until):
				r.t.Fatalf("%s is not back on its stream 10s after the heal (last: %+v, %v)", id, v, err)
			default:
				row = 0
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
}

// asServed is a response as a caller sees it: through the JSON encoding,
// which is blind to Candidate's unexported bookkeeping, and without
// CacheHit and DecisionNanos, which depend on who asked first.
func asServed(t *testing.T, r server.DecideResponseV2) (out server.DecideResponseV2) {
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

// referenceResponse is the runtime asked directly, projected by hand.
func referenceResponse(t *testing.T, ref *offload.Runtime, req server.DecideRequest) server.DecideResponseV2 {
	t.Helper()
	region, err := ref.Region(req.Region)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	decide := region.Decide
	if req.Execute {
		decide = region.Launch
	}
	out, err := decide(symbolic.Bindings(req.Bindings))
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return asServed(t, server.DecideResponseV2{
		Region: req.Region, Verdict: out.TargetID, Kind: out.Target.String(),
		Policy: out.Policy.Name(), Candidates: out.Candidates, SplitFraction: out.SplitFraction,
		Provenance: out.Provenance, ActualSeconds: out.ActualSeconds,
	})
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
			maxAttempts: 2, breakerFailures: 1000, timeout: 2 * time.Second,
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
				maxAttempts: 2, breakerFailures: 1000, timeout: 2 * time.Second,
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

// TestClusterRouteEquivalence holds every way the loop can get a request
// answered to the one answer: the request rows of TestCodecEquivalence
// that a DecideRequest can spell, served by the owner, by a failed-over
// successor, by an owner that refuses the stream, inside a batch sharded
// over owners with one owner down, and by the fallback runtime with every
// replica down. Each
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
		// The daemon's key of the miss, but not the client's: no lease has it.
		{name: "hit", req: server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 700, "extra": 7}}},
		{name: "other region", req: server.DecideRequest{Region: "mvt1", Bindings: map[string]int64{"n": 4000}}},
		{name: "execute", req: server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 96}, Execute: true}},
		// Asked of the owner, the miss's lease answers it.
		{name: "duplicate inside a batch", req: gemm(700)},
		{name: "a name beyond the parameters",
			req: server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 300, "extra": 1}}},
		{name: "unknown region", req: server.DecideRequest{Region: "nope", Bindings: map[string]int64{"n": 8}},
			code: server.ErrCodeUnknownRegion},
		{name: "unbound symbol", req: server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"m": 8}},
			code: server.ErrCodeUnboundSymbol},
		{name: "empty iteration space", req: gemm(0), code: server.ErrCodeOutOfRange},
		{name: "no bindings", req: server.DecideRequest{Region: "gemm"}, code: server.ErrCodeUnboundSymbol},
		{name: "empty region", req: server.DecideRequest{Bindings: map[string]int64{"n": 8}},
			code: server.ErrCodeBadRequest},
	}

	ref := fallbackRuntime(t)
	want := make([]server.DecideResponseV2, len(rows))
	for i, row := range rows {
		if row.code == "" {
			want[i] = referenceResponse(t, ref, row.req)
		}
	}

	// One walk per call: with every replica down a second walk would only
	// add three backoff sleeps to each row. Breakers stay out of the way,
	// so a cut replica is asked, and fails, every time; one pooled stream
	// connection per replica, so a healed one is back on it for every call.
	rig := newStreamClusterRig(t, 5, ClusterConfig{
		Fallback: fallbackRuntime(t),
		Replica:  Config{maxAttempts: 1, breakerFailures: 1000, StreamConns: 1},
	})
	// refusing's edges are HTTP proxies, which refuse the Upgrade.
	refusing := newClusterChaosRig(t, 5, ClusterConfig{Replica: Config{maxAttempts: 1}})
	ctx := context.Background()
	partition := faultnet.TCPFaults{Partition: true}
	// under serves one request with the edges to some replicas cut, and
	// heals them.
	under := func(r *streamClusterRig, f faultnet.TCPFaults, req server.DecideRequest, edges ...string) (*Verdict, error) {
		r.cut(f, edges...)
		v, err := r.cc.Decide(ctx, req)
		r.heal(edges...)
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
	// via is what a single rides to a replica that speaks the stream: the
	// stream, unless it is an Execute, which keeps to HTTP like a batch.
	via := func(i int) string {
		if rows[i].req.Execute {
			return TransportHTTPJSON
		}
		return TransportStream
	}
	batchDown := order(0)[0]
	var batch []Verdict
	asked := make([]time.Time, len(rows)) // when the owner route asked each row

	for _, route := range []struct {
		name  string
		serve func(i int) (*Verdict, error)
		want  func(i int) stamp
	}{
		// A repeat of an earlier row's decide-only key is answered by the
		// lease the owner's stream granted with that row's answer, if it
		// comes within leaseFor of that row's ask; later, by the stream.
		{"owner",
			func(i int) (*Verdict, error) { asked[i] = time.Now(); return rig.cc.Decide(ctx, rows[i].req) },
			func(i int) stamp {
				for j, earlier := range rows[:i] {
					if !rows[i].req.Execute && reflect.DeepEqual(earlier.req, rows[i].req) && asked[i].Sub(asked[j]) < leaseFor {
						return stamp{order(i)[0], ProvenanceRemote, TransportLease, 0}
					}
				}
				return stamp{order(i)[0], ProvenanceRemote, via(i), 1}
			}},
		// The owner's stream dies and its redial and its HTTP rung are
		// refused, all inside the one attempt; then the call walks.
		{"failed-over successor",
			func(i int) (*Verdict, error) { return under(rig, partition, rows[i].req, order(i)[0]) },
			func(i int) stamp { return stamp{order(i)[1], ProvenanceRemote, via(i), 2} }},
		{"owner that refuses the stream",
			func(i int) (*Verdict, error) { return refusing.cc.Decide(ctx, rows[i].req) },
			func(i int) stamp { return stamp{order(i)[0], ProvenanceRemote, TransportHTTPJSON, 1} }},
		{"batch sharded over owners, one owner down",
			func(i int) (*Verdict, error) {
				if batch == nil {
					reqs := make([]server.DecideRequest, len(rows))
					for j := range rows {
						reqs[j] = rows[j].req
					}
					rig.cut(partition, batchDown)
					var err error
					batch, err = rig.cc.DecideBatch(ctx, reqs)
					rig.heal(batchDown)
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
		// Last: nothing is healed after it.
		{"cluster fallback",
			func(i int) (*Verdict, error) {
				rig.cut(partition, rig.ids...)
				return rig.cc.Decide(ctx, rows[i].req)
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
			case code == "" && !reflect.DeepEqual(asServed(t, got), want[i]):
				t.Errorf("%s / %s: verdict diverges from the reference runtime\n  got:  %+v\n  want: %+v",
					route.name, row.name, asServed(t, got), want[i])
			}
		}
	}
	// Cuts cost latency and attempts, never the rung: only a replica that
	// answered the Upgrade with a refusal lost it, once, on its first single.
	refused := uint64(0)
	for _, r := range []*ClusterClient{rig.cc, refusing.cc} {
		for id, m := range r.Metrics().Replicas {
			if r == refusing.cc && m.StreamDowngrades <= 1 {
				refused += m.StreamDowngrades
			} else if m.StreamDowngrades != 0 {
				t.Errorf("%s demoted its stream rung %d times (refusing rig: %v)", id, m.StreamDowngrades, r == refusing.cc)
			}
		}
	}
	if refused == 0 {
		t.Error("no replica behind an HTTP proxy demoted its stream rung: who refused the Upgrade?")
	}
	// Routing is the ring's alone: the rigs agree on every row.
	for i := range rows {
		if !slices.Equal(refusing.cc.Route(rows[i].req), order(i)) {
			t.Fatalf("%s: the rigs route differently", rows[i].name)
		}
	}
}

// TestChaosClusterStreamKill: production defaults over three real daemons,
// every edge a byte-level proxy, callers running throughout. Mid-run one
// replica is killed — its live connections reset, new ones refused — and
// later comes back. No call is lost or answered by the fallback runtime
// while a successor lives, every verdict is the reference runtime's, and
// once healed the victim serves its keys again on a redialed stream: the
// kill cost it connections, not the rung.
func TestChaosClusterStreamKill(t *testing.T) {
	rig := newStreamClusterRig(t, 11, ClusterConfig{Fallback: fallbackRuntime(t)})
	ref := fallbackRuntime(t)
	// The callers ask the first live keys; the check after the heal asks the
	// rest, which no lease holds.
	const live = 24
	reqs := chaosClusterReqs(2 * live)
	want := make([]server.DecideResponseV2, len(reqs))
	for i, req := range reqs {
		want[i] = referenceResponse(t, ref, req)
	}
	victim := rig.cc.Route(reqs[0])[0]
	ctx := context.Background()
	// check holds one verdict to the laws that hold in every phase.
	check := func(i int, v *Verdict, err error) error {
		order := rig.cc.Route(reqs[i])
		switch {
		case err != nil:
			return fmt.Errorf("request %d lost: %w", i, err)
		case v.Provenance == ProvenanceFallback:
			return fmt.Errorf("request %d answered by the fallback runtime after %d attempts", i, v.Attempts)
		case v.Replica != order[0] && (order[0] != victim || v.Replica != order[1]):
			return fmt.Errorf("request %d served by %q (order %v, victim %s)", i, v.Replica, order, victim)
		case !reflect.DeepEqual(asServed(t, v.Response), want[i]):
			return fmt.Errorf("request %d diverges from the reference runtime:\n  got:  %+v\n  want: %+v", i, asServed(t, v.Response), want[i])
		}
		return nil
	}

	stop := make(chan struct{})
	errs := make(chan error, 4)
	var callers sync.WaitGroup
	for g := 0; g < cap(errs); g++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := g; ; i = (i + 1) % live {
				select {
				case <-stop:
					return
				default:
				}
				v, err := rig.cc.Decide(ctx, reqs[i])
				if err = check(i, v, err); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)
	rig.cut(faultnet.TCPFaults{Partition: true}, victim)
	time.Sleep(60 * time.Millisecond)
	rig.heal(victim)
	time.Sleep(30 * time.Millisecond)
	close(stop)
	callers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Healed, every key is its owner's again, on the stream.
	for i, req := range reqs[live:] {
		i += live
		v, err := rig.cc.Decide(ctx, req)
		if err = check(i, v, err); err != nil {
			t.Fatal(err)
		}
		if v.Replica != rig.cc.Route(req)[0] || v.Transport != TransportStream {
			t.Fatalf("after the heal request %d was served by %q over %s, want its owner %q on the stream",
				i, v.Replica, v.Transport, rig.cc.Route(req)[0])
		}
	}
	m := rig.cc.Metrics()
	if m.Failovers == 0 {
		t.Error("the kill caused no failover: it never bit")
	}
	if r := m.Replicas[victim]; r.StreamReconnects == 0 || r.StreamFallbacks == 0 {
		t.Errorf("the victim redialed %d streams and fell to HTTP %d times; want both to have happened", r.StreamReconnects, r.StreamFallbacks)
	}
	for id, r := range m.Replicas {
		if r.StreamDowngrades != 0 || r.StreamCalls == 0 {
			t.Errorf("%s: %d stream calls, rung demoted %d times; a kill must not cost the rung", id, r.StreamCalls, r.StreamDowngrades)
		}
	}
	t.Logf("failovers=%d victim: reconnects=%d stream→HTTP=%d breaker opens=%d",
		m.Failovers, m.Replicas[victim].StreamReconnects, m.Replicas[victim].StreamFallbacks, m.Replicas[victim].BreakerOpened)
}

// TestClusterStreamDialIsBounded: a replica that accepts connections and
// then says nothing, to the Upgrade or to anything else, costs a call the
// one attempt's deadline, and leaves the slot in redial backoff with its
// lock free, not held by a dial nobody is waiting for.
func TestClusterStreamDialIsBounded(t *testing.T) {
	silent := faultnet.TCPFaults{StallRate: 1, Stall: 600 * time.Millisecond}
	t.Run("the attempt's deadline", func(t *testing.T) {
		rig := newStreamClusterRig(t, 7, ClusterConfig{
			Replica: Config{timeout: 100 * time.Millisecond, maxAttempts: 1, StreamConns: 1},
		})
		req := chaosClusterReqs(1)[0]
		order := rig.cc.Route(req)
		rig.cut(silent, order[0])
		start := time.Now()
		v, err := rig.cc.Decide(context.Background(), req)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if v.Replica != order[1] || v.Provenance != ProvenanceRemote || v.Transport != TransportStream || v.Attempts != 2 {
			t.Errorf("served by %q (%s, %s) after %d attempts; want the successor %q (remote, stream) after 2",
				v.Replica, v.Provenance, v.Transport, v.Attempts, order[1])
		}
		if elapsed < 100*time.Millisecond || elapsed > 400*time.Millisecond {
			t.Errorf("the call took %v, want between 100ms and 400ms: the silent owner's dial ran past what bounded it", elapsed)
		}
		sl := &rig.cc.views[order[0]].route[0].ladder[0].Transport.(*streamTransport).slots[0]
		if !sl.mu.TryLock() {
			t.Fatal("the owner's slot is still locked: its dial outlived the attempt")
		}
		defer sl.mu.Unlock()
		if sc := sl.conn.Load(); sc != nil || !time.Now().Before(sl.retryAt) {
			t.Errorf("the owner's slot holds conn %v and may redial at %v; want none, and a backoff still running", sc, sl.retryAt)
		}
	})
}
