package client

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/faultnet"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
)

// calibratedDaemon serves gemm and mvt1 from a runtime cal corrects, over
// HTTP (and the stream its Upgrade door leads to).
func calibratedDaemon(t *testing.T, cal *audit.Calibrator) (*offload.Runtime, *httptest.Server) {
	t.Helper()
	rt := calibratedRuntime(t, cal)
	srv, err := server.New(server.Config{Runtime: rt, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func calibratedRuntime(t *testing.T, cal *audit.Calibrator) *offload.Runtime {
	t.Helper()
	rt := offload.NewRuntime(offload.Config{Platform: machine.PlatformP9V100(), Calibrator: cal})
	for _, name := range []string{"gemm", "mvt1"} {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// inState is a runtime started in cal's calibration state: the reference
// for what cal's daemon answers now.
func inState(t *testing.T, cal *audit.Calibrator) *offload.Runtime {
	t.Helper()
	fresh := audit.NewCalibrator(0.25)
	if _, err := fresh.MergeState(cal.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	return calibratedRuntime(t, fresh)
}

// conns returns the stream connections ep's pool holds now.
func conns(ep *endpoint) []*StreamConn {
	var out []*StreamConn
	for i := range ep.ladder[0].Transport.(*streamTransport).slots {
		if sc := ep.ladder[0].Transport.(*streamTransport).slots[i].conn.Load(); sc != nil {
			out = append(out, sc)
		}
	}
	return out
}

// heardOf waits until every connection of ep's pool that has granted a
// lease (heard of any epoch) has read epoch e.
func heardOf(t *testing.T, ep *endpoint, e uint64) {
	t.Helper()
	for until := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		behind := false
		for _, sc := range conns(ep) {
			heard := sc.epoch.Load()
			behind = behind || heard != 0 && heard < e
		}
		if !behind {
			return
		}
		if time.Now().After(until) {
			t.Fatalf("the client has not read epoch %d after 5s", e)
		}
	}
}

// TestLeasedVerdictEqualsDaemon: callers racing over repeated keys,
// through a Client and through a ClusterClient, are served repeats from
// leases, and every verdict, leased or not, is the reference runtime's. A
// leased one is stamped remote and lease, with no attempt, by the replica
// whose stream granted it, as a cache hit decided in no time; and it is
// the caller's own to scribble on.
func TestLeasedVerdictEqualsDaemon(t *testing.T) {
	url, _ := realStreamDaemon(t)
	single := newTestClient(t, Config{BaseURL: url, Stream: true})
	rig := newStreamClusterRig(t, 3, ClusterConfig{Fallback: fallbackRuntime(t)})
	ref := fallbackRuntime(t)
	reqs := chaosClusterReqs(8)
	want := make([]server.DecideResponseV2, len(reqs))
	for i, req := range reqs {
		want[i] = referenceResponse(t, ref, req)
	}
	for _, c := range []struct {
		name    string
		decide  func(context.Context, server.DecideRequest) (*Verdict, error)
		replica func(server.DecideRequest) string
	}{
		{"client", single.Decide, func(server.DecideRequest) string { return "" }},
		{"cluster", rig.cc.Decide, func(req server.DecideRequest) string { return rig.cc.Route(req)[0] }},
	} {
		var leased atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < cap(errs); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					k := (g + i) % len(reqs)
					v, err := c.decide(context.Background(), reqs[k])
					switch {
					case err != nil:
						errs <- err.Error()
						return
					case v.Transport == TransportLease && (v.Provenance != ProvenanceRemote || v.Attempts != 0 || v.Coalesced || v.Replica != c.replica(reqs[k])):
						errs <- "leased verdict stamped " + v.Replica + " " + string(v.Provenance)
						return
					case v.Transport == TransportLease && (!v.Response.CacheHit || v.Response.DecisionNanos != 0):
						errs <- fmt.Sprintf("leased verdict claims CacheHit %v and %d ns of deciding", v.Response.CacheHit, v.Response.DecisionNanos)
						return
					case !reflect.DeepEqual(asServed(t, v.Response), want[k]):
						errs <- "verdict diverges from the reference runtime over " + v.Transport
						return
					}
					if v.Transport == TransportLease {
						leased.Add(1)
						v.Response.Candidates[0].CalSeconds = -1 // a copy of its own
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("%s: %s", c.name, e)
		}
		if leased.Load() == 0 {
			t.Errorf("%s: no verdict was served from a lease", c.name)
		}
	}
	if m := single.Metrics(); m.LeaseHits == 0 || m.LeaseHits+m.RemoteOK+m.Coalesced != m.Requests {
		t.Errorf("client metrics: %+v", m)
	}
}

// TestLeaseDroppedOnEpochAdvance: callers race repeated keys against
// invalidations and calibration moves on the daemon. Once the client has
// read the advance, every verdict it serves is the one the daemon's
// runtime gives in its state at that epoch: no lease outlives it.
func TestLeaseDroppedOnEpochAdvance(t *testing.T) {
	cal := audit.NewCalibrator(0.25)
	rt, ts := calibratedDaemon(t, cal)
	c := newTestClient(t, Config{BaseURL: ts.URL, Stream: true, StreamConns: 1})
	reqs := chaosClusterReqs(6)
	ctx := context.Background()

	stop := make(chan struct{})
	errs := make(chan error, 3)
	var racers sync.WaitGroup
	for g := 0; g < cap(errs); g++ {
		racers.Add(1)
		go func() {
			defer racers.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Decide(ctx, reqs[i%len(reqs)]); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	leased := 0
	for round := 0; round < 12; round++ {
		switch round % 3 {
		case 0:
			if err := rt.InvalidateDecisions("gemm"); err != nil {
				t.Fatal(err)
			}
		default: // the GPU model found 55x too fast, then too slow, and back
			logErr := 4.0
			if round%2 == 0 {
				logErr = -4
			}
			cal.ObserveVerdict(reqs[round%2].Region, offload.Features{},
				[]audit.TargetMeasurement{{Target: offload.TargetIDGPUBase, LogErr: logErr}})
		}
		heardOf(t, c.route[0], rt.Epoch())
		ref := inState(t, cal)
		for pass := 0; pass < 2; pass++ {
			for i, req := range reqs {
				v, err := c.Decide(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				if v.Transport == TransportLease {
					leased++
				}
				if got, want := asServed(t, v.Response), referenceResponse(t, ref, req); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, request %d over %s: a verdict older than the epoch the client read:\n  got:  %+v\n  want: %+v",
						round, i, v.Transport, got, want)
				}
			}
		}
	}
	close(stop)
	racers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if leased == 0 {
		t.Error("no verdict was served from a lease")
	}
}

// freezer holds the bytes a relay carries while frozen: the connection
// stays open and says nothing, which is all a partition looks like from
// its ends.
type freezer struct {
	mu   sync.Mutex
	thaw chan struct{} // nil: flowing
}

func (f *freezer) freeze() { f.mu.Lock(); f.thaw = make(chan struct{}); f.mu.Unlock() }

func (f *freezer) melt() {
	f.mu.Lock()
	if f.thaw != nil {
		close(f.thaw)
		f.thaw = nil
	}
	f.mu.Unlock()
}

func (f *freezer) wait() {
	f.mu.Lock()
	thaw := f.thaw
	f.mu.Unlock()
	if thaw != nil {
		<-thaw
	}
}

// relay forwards the connections l accepts to target through f.
func (f *freezer) relay(t *testing.T, l net.Listener, target string) {
	t.Cleanup(func() { f.melt(); l.Close() })
	pipe := func(dst, src net.Conn) {
		defer dst.Close()
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			f.wait()
			if _, werr := dst.Write(buf[:n]); werr != nil || err != nil {
				return
			}
		}
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			go pipe(up, c)
			go pipe(c, up)
		}
	}()
}

// TestLeaseLapsesUnderPartition: a partition that swallows the push of an
// advance, and everything else, without closing the connection. Leases go
// on serving for leaseFor at most; after that the call goes to the network,
// gives up at the attempt's deadline and falls back.
func TestLeaseLapsesUnderPartition(t *testing.T) {
	rt := fallbackRuntime(t)
	srv, err := server.New(server.Config{Runtime: rt, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeStream(daemon) }()
	t.Cleanup(func() { daemon.Close() })
	var f freezer
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.relay(t, l, daemon.Addr().String())
	edge := faultnet.NewTCP(l.Addr().String(), 1)
	addr, err := edge.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = edge.Close() })
	c := newTestClient(t, Config{
		BaseURL: "http://127.0.0.1:1", Stream: true, StreamAddr: addr, StreamConns: 1,
		Fallback: fallbackRuntime(t), maxAttempts: 1, timeout: 50 * time.Millisecond,
	})
	ctx := context.Background()
	req := gemmReq()

	asked := time.Now() // the lease is granted after this, so it lapses after asked+leaseFor
	if v, err := c.Decide(ctx, req); err != nil || v.Transport != TransportStream {
		t.Fatalf("first decide: %+v, %v", v, err)
	}
	answered := time.Now() // and it was granted before this
	edge.SetFaults(faultnet.TCPFaults{Partition: true})
	f.freeze()
	if err := rt.InvalidateDecisions("gemm"); err != nil {
		t.Fatal(err)
	}
	leased := 0
	for {
		start := time.Now()
		v, err := c.Decide(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if v.Transport != TransportLease {
			if v.Provenance != ProvenanceFallback || time.Since(asked) < leaseFor {
				t.Fatalf("after %d leased verdicts: %s over %s %v after the lease was asked for; want the fallback, past leaseFor",
					leased, v.Provenance, v.Transport, time.Since(asked))
			}
			break
		}
		if leased++; start.After(answered.Add(leaseFor)) {
			t.Fatalf("a lease served %v after it was granted", start.Sub(answered))
		}
		time.Sleep(time.Millisecond)
	}
	if leased == 0 {
		t.Error("the partition voided the lease at once; it should have served until it lapsed")
	}
}

// leaseGossipRig is three daemons whose runtimes a calibrator each
// corrects, the calibrators gossiping on nodes ticked by hand: the 3-node
// rig of TestChaosLearnedFactorReachesCachedVerdicts, behind a
// ClusterClient.
type leaseGossipRig struct {
	ids   []string
	nodes map[string]*cluster.Node
	cals  map[string]*audit.Calibrator
	rts   map[string]*offload.Runtime
	cc    *ClusterClient
}

func newLeaseGossipRig(t *testing.T) *leaseGossipRig {
	t.Helper()
	rig := &leaseGossipRig{ids: []string{"node-a", "node-b", "node-c"},
		nodes: map[string]*cluster.Node{}, cals: map[string]*audit.Calibrator{}, rts: map[string]*offload.Runtime{}}
	handlers := map[string]*atomic.Pointer[cluster.Node]{}
	var gossip []cluster.Member
	for _, id := range rig.ids {
		h := new(atomic.Pointer[cluster.Node])
		handlers[id] = h
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n := h.Load(); n != nil {
				n.Handler().ServeHTTP(w, r)
				return
			}
			http.Error(w, "not up yet", http.StatusServiceUnavailable)
		}))
		t.Cleanup(ts.Close)
		gossip = append(gossip, cluster.Member{ID: id, Gossip: ts.URL})
	}
	var members []ClusterMember
	for i, id := range rig.ids {
		node, err := cluster.New(cluster.Config{Self: gossip[i], Peers: gossip, Transport: &cluster.HTTPTransport{}})
		if err != nil {
			t.Fatal(err)
		}
		cal := audit.NewCalibrator(0.25)
		node.Register("calibration", cal)
		handlers[id].Store(node)
		rt, ts := calibratedDaemon(t, cal)
		rig.nodes[id], rig.cals[id], rig.rts[id] = node, cal, rt
		members = append(members, ClusterMember{ID: id, BaseURL: ts.URL})
	}
	cc, err := NewCluster(ClusterConfig{Members: members, vnodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)
	rig.cc = cc
	return rig
}

func (rig *leaseGossipRig) tickAll(rounds int) {
	for i := 0; i < rounds; i++ {
		for _, id := range rig.ids {
			rig.nodes[id].Tick(context.Background())
		}
	}
}

// TestChaosLearnedFactorReachesLeasedVerdicts: a correction one replica
// learns changes the verdict a ClusterClient serves from a lease, within
// two gossip rounds and the one push the owner's merge sends: the repeat
// after it is the verdict of a runtime started in the owner's new state,
// and is leased again.
func TestChaosLearnedFactorReachesLeasedVerdicts(t *testing.T) {
	rig := newLeaseGossipRig(t)
	rig.tickAll(2)
	req := server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 300}}
	owner := rig.cc.Route(req)[0]
	ctx := context.Background()
	for _, transport := range []string{TransportStream, TransportLease} {
		v, err := rig.cc.Decide(ctx, req)
		if err != nil || v.Transport != transport || v.Response.Verdict != offload.TargetIDGPUBase {
			t.Fatalf("before any evidence: %+v, %v; want %s over %s", v, err, offload.TargetIDGPUBase, transport)
		}
	}

	// node-a's audits find the GPU model under-estimating gemm about 55x.
	rig.cals["node-a"].ObserveVerdict("gemm", offload.Features{}, []audit.TargetMeasurement{{Target: offload.TargetIDGPUBase, LogErr: 4}})
	rig.tickAll(2)
	heardOf(t, rig.cc.views[owner].route[0], rig.rts[owner].Epoch())

	want := referenceResponse(t, inState(t, rig.cals[owner]), req)
	if want.Verdict != offload.TargetIDCPUBase {
		t.Fatalf("a runtime in %s's state answers %s; the factor did not reach it", owner, want.Verdict)
	}
	for _, transport := range []string{TransportStream, TransportLease} {
		v, err := rig.cc.Decide(ctx, req)
		if err != nil || v.Transport != transport || v.Replica != owner || !reflect.DeepEqual(asServed(t, v.Response), want) {
			t.Fatalf("two rounds and a push after node-a learned, %s answers %+v over %s (%v); want %s over %s",
				owner, v.Response.Verdict, v.Transport, err, want.Verdict, transport)
		}
	}
}

// TestLeasesKeepTheAuditedKeySet: over a trace that repeats its keys, a
// daemon auditing half of them audits the same keys whether its client
// serves repeats from leases or asks the bare stream every time: sampling
// is a function of the key, and every key reaches the daemon at least once.
func TestLeasesKeepTheAuditedKeySet(t *testing.T) {
	audited := func(drive func(url, addr string, reqs []server.DecideRequest)) []string {
		rt := fallbackRuntime(t)
		var mu sync.Mutex
		var keys []string
		auditor := audit.New(audit.Config{Runtime: rt, Rate: 0.5, OnVerdict: func(v audit.Verdict) {
			mu.Lock()
			keys = append(keys, fmt.Sprintf("%s n=%d", v.Region, v.Bindings["n"]))
			mu.Unlock()
		}})
		rt.SetObserver(auditor.Observer(nil))
		srv, err := server.New(server.Config{Runtime: rt, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() { _ = srv.ServeStream(l) }()
		var reqs []server.DecideRequest
		for round := 0; round < 4; round++ {
			reqs = append(reqs, chaosClusterReqs(16)...)
		}
		drive(ts.URL, l.Addr().String(), reqs)
		auditor.Close()
		sort.Strings(keys)
		return slices.Compact(keys)
	}
	leasing := audited(func(url, addr string, reqs []server.DecideRequest) {
		c := newTestClient(t, Config{BaseURL: url, Stream: true, StreamAddr: addr})
		for _, req := range reqs {
			if _, err := c.Decide(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		if c.Metrics().LeaseHits == 0 {
			t.Error("no repeat was served from a lease")
		}
	})
	bare := audited(func(_, addr string, reqs []server.DecideRequest) {
		sc, err := DialStream(StreamDialConfig{Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		for _, req := range reqs {
			wr := toWireRequest(req, nil)
			if _, err := sc.Decide(context.Background(), &wr); err != nil {
				t.Fatal(err)
			}
		}
	})
	if len(bare) == 0 || len(bare) == 16 || !slices.Equal(leasing, bare) {
		t.Errorf("audited keys with leases %q, over the bare stream %q; want the same proper subset", leasing, bare)
	}
}

// TestDaemonObservesOneDecisionPerLease: behind a leasing client the
// daemon's observer — what its -trace file and its auditor are fed — sees
// the decisions that crossed the wire, a key's first ask and its renewals,
// and not the repeats a lease answered at the launch site.
func TestDaemonObservesOneDecisionPerLease(t *testing.T) {
	rt := fallbackRuntime(t)
	var observed atomic.Uint64
	rt.SetObserver(func(offload.Decision) { observed.Add(1) })
	srv, err := server.New(server.Config{Runtime: rt, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := newTestClient(t, Config{BaseURL: ts.URL, Stream: true})
	reqs := chaosClusterReqs(4)
	for i := 0; i < 400; i++ {
		if _, err := c.Decide(context.Background(), reqs[i%len(reqs)]); err != nil {
			t.Fatal(err)
		}
	}
	m := c.Metrics()
	if m.LeaseHits == 0 || m.Requests != 400 || observed.Load() != m.Requests-m.LeaseHits {
		t.Errorf("the daemon observed %d decisions of %d, %d served from leases; want every one not leased, and only those",
			observed.Load(), m.Requests, m.LeaseHits)
	}
}
