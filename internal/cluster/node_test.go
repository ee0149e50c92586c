package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"github.com/hybridsel/hybridsel/internal/metrics"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// memTransport routes gossip exchanges between in-process nodes, with a
// link-level block list so tests can partition the mesh
// deterministically. A blocked or down link fails like a dead TCP dial.
type memTransport struct {
	mu      sync.Mutex
	nodes   map[string]*Node // by gossip addr
	blocked map[string]bool  // "fromAddr>toAddr"
	down    map[string]bool  // by gossip addr
}

func newMemTransport() *memTransport {
	return &memTransport{
		nodes:   map[string]*Node{},
		blocked: map[string]bool{},
		down:    map[string]bool{},
	}
}

func (m *memTransport) add(addr string, n *Node) {
	m.mu.Lock()
	m.nodes[addr] = n
	m.mu.Unlock()
}

// forTransport returns a Transport view bound to one sender address, so
// partitions can be directional pairs.
func (m *memTransport) from(addr string) Transport {
	return transportFunc(func(ctx context.Context, to string, view *wire.GossipMsg) (*wire.GossipMsg, error) {
		m.mu.Lock()
		target := m.nodes[to]
		cut := m.down[to] || m.blocked[addr+">"+to]
		m.mu.Unlock()
		if target == nil || cut {
			return nil, fmt.Errorf("memtransport: %s unreachable from %s", to, addr)
		}
		// Round-trip through the wire encoding so the test exercises the
		// same frames the HTTP transport ships.
		enc := wire.AppendGossip(nil, view)
		f, _, err := wire.DecodeFrame(enc)
		if err != nil {
			return nil, err
		}
		target.Merge(f.Gossip)
		target.noteExchangeSuccess(view.From)
		reply := wire.AppendGossip(nil, target.snapshotView())
		rf, _, err := wire.DecodeFrame(reply)
		if err != nil {
			return nil, err
		}
		return rf.Gossip, nil
	})
}

type transportFunc func(ctx context.Context, addr string, view *wire.GossipMsg) (*wire.GossipMsg, error)

func (f transportFunc) Exchange(ctx context.Context, addr string, view *wire.GossipMsg) (*wire.GossipMsg, error) {
	return f(ctx, addr, view)
}

func (m *memTransport) partition(groups ...[]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blocked = map[string]bool{}
	side := map[string]int{}
	for gi, g := range groups {
		for _, addr := range g {
			side[addr] = gi
		}
	}
	for a, ga := range side {
		for b, gb := range side {
			if ga != gb {
				m.blocked[a+">"+b] = true
			}
		}
	}
}

func (m *memTransport) heal() {
	m.mu.Lock()
	m.blocked = map[string]bool{}
	m.mu.Unlock()
}

// setSource is a tiny CRDT state source for tests: a grow-only string
// set whose version counts changes.
type setSource struct {
	mu  sync.Mutex
	set map[string]bool
	ver uint64
}

func newSetSource(initial ...string) *setSource {
	s := &setSource{set: map[string]bool{}}
	for _, v := range initial {
		s.set[v] = true
	}
	s.ver = 1
	return s
}

func (s *setSource) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ver
}

func (s *setSource) SnapshotState() []byte { return []byte(fmt.Sprint(s.values())) }

func (s *setSource) MergeState(data []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for _, part := range bytes.Fields(bytes.Trim(data, "[]")) {
		if !s.set[string(part)] {
			s.set[string(part)] = true
			changed = true
		}
	}
	if changed {
		s.ver++
	}
	return changed, nil
}

// encodeCounter is a setSource whose bytes are a count of its encodings.
type encodeCounter struct {
	*setSource
	encode func() []byte
}

func (c encodeCounter) SnapshotState() []byte { return c.encode() }

func (s *setSource) values() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	vals := make([]string, 0, len(s.set))
	for v := range s.set {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	return vals
}

// testCluster builds n nodes wired through one memTransport.
func testCluster(t *testing.T, n int) ([]*Node, []*setSource, *memTransport) {
	t.Helper()
	mesh := newMemTransport()
	members := make([]Member, n)
	for i := range members {
		id := fmt.Sprintf("node-%c", 'a'+i)
		members[i] = Member{ID: id, Addr: "http://" + id, Gossip: "mem://" + id}
	}
	nodes := make([]*Node, n)
	srcs := make([]*setSource, n)
	for i := range nodes {
		var peers []Member
		for j, m := range members {
			if j != i {
				peers = append(peers, m)
			}
		}
		node, err := New(Config{
			Self:      members[i],
			Peers:     peers,
			vnodes:    64,
			Transport: mesh.from(members[i].Gossip),
		})
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = newSetSource(members[i].ID)
		node.Register("facts", srcs[i])
		nodes[i] = node
		mesh.add(members[i].Gossip, node)
	}
	return nodes, srcs, mesh
}

func tickAll(nodes []*Node, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, n := range nodes {
			n.Tick(context.Background())
		}
	}
}

// TestGossipSpreadsState: every node's source state reaches every other
// node within a few deterministic rounds.
func TestGossipSpreadsState(t *testing.T) {
	nodes, srcs, _ := testCluster(t, 3)
	tickAll(nodes, 3)
	want := fmt.Sprint([]string{"node-a", "node-b", "node-c"})
	for i, s := range srcs {
		if got := fmt.Sprint(s.values()); got != want {
			t.Fatalf("node %d state = %s, want %s", i, got, want)
		}
	}
	st := nodes[0].Status()
	if st.StatesApplied == 0 {
		t.Fatal("no states applied through gossip")
	}
	for _, m := range st.Members {
		if m.Health != "alive" {
			t.Fatalf("member %s health %s, want alive", m.ID, m.Health)
		}
	}
}

// TestGossipEncodesASourceOnlyWhenItsVersionMoves: exchanges — as
// initiator and as responder — read a source's version and ask for its
// bytes only when the version moved, while the peer still holds the
// latest blob.
func TestGossipEncodesASourceOnlyWhenItsVersionMoves(t *testing.T) {
	nodes, _, _ := testCluster(t, 2)
	encodes := 0
	src := encodeCounter{newSetSource(), func() []byte { encodes++; return []byte(fmt.Sprint(encodes)) }}
	nodes[0].Register("counted", src)
	held := func() string {
		nodes[1].mu.Lock()
		defer nodes[1].mu.Unlock()
		return string(nodes[1].members["node-a"].states["counted"].data)
	}
	tickAll(nodes, 6)
	if encodes != 1 || held() != "1" {
		t.Fatalf("6 rounds without a change: %d encodes, peer holds %q", encodes, held())
	}
	src.MergeState([]byte("[fresh]"))
	tickAll(nodes, 6)
	if encodes != 2 || held() != "2" {
		t.Fatalf("6 rounds after one change: %d encodes, peer holds %q", encodes, held())
	}
}

// TestGossipHealthLadder: consecutive exchange failures walk a peer
// from alive to suspect to dead; direct contact resurrects it.
func TestGossipHealthLadder(t *testing.T) {
	nodes, _, mesh := testCluster(t, 2)
	a, b := nodes[0], nodes[1]
	mesh.mu.Lock()
	mesh.down["mem://node-b"] = true
	mesh.mu.Unlock()
	a.Tick(context.Background())
	if got := a.HealthOf("node-b"); got != Suspect {
		t.Fatalf("after 1 failure: %s, want suspect", got)
	}
	a.Tick(context.Background())
	a.Tick(context.Background())
	if got := a.HealthOf("node-b"); got != Dead {
		t.Fatalf("after 3 failures: %s, want dead", got)
	}
	mesh.mu.Lock()
	mesh.down["mem://node-b"] = false
	mesh.mu.Unlock()
	a.Tick(context.Background())
	if got := a.HealthOf("node-b"); got != Alive {
		t.Fatalf("after recovery: %s, want alive", got)
	}
	_ = b
}

// TestGossipRefutesDeathRumor: a node that hears it has been declared
// dead bumps its incarnation and re-asserts itself; the refutation
// outranks the rumor on every other node.
func TestGossipRefutesDeathRumor(t *testing.T) {
	nodes, _, _ := testCluster(t, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]
	// Plant the rumor: a believes b is dead at incarnation 0.
	a.Merge(&wire.GossipMsg{From: "node-c", Entries: []wire.GossipEntry{
		{ID: "node-b", Incarnation: 0, Health: wire.GossipDead},
	}})
	if got := a.HealthOf("node-b"); got != Dead {
		t.Fatalf("rumor not planted: %s", got)
	}
	// One full round: a tells b, b refutes at incarnation 1, everyone
	// converges back to alive.
	tickAll(nodes, 2)
	for i, n := range []*Node{a, b, c} {
		if got := n.HealthOf("node-b"); got != Alive {
			t.Fatalf("node %d still believes node-b is %s", i, got)
		}
	}
	if st := b.Status(); st.Refutes == 0 {
		t.Fatal("node-b never refuted the rumor")
	}
}

// TestGossipPartitionConvergesAfterHeal: during a split the sides
// diverge; after heal a few rounds make every node's view and source
// state identical again.
func TestGossipPartitionConvergesAfterHeal(t *testing.T) {
	nodes, srcs, mesh := testCluster(t, 3)
	tickAll(nodes, 2)
	mesh.partition([]string{"mem://node-a"}, []string{"mem://node-b", "mem://node-c"})
	// Unique facts learned on each side of the split.
	srcs[0].MergeState([]byte("[left-only]"))
	srcs[1].MergeState([]byte("[right-only]"))
	tickAll(nodes, 4)
	// The minority side sees the majority as unreachable.
	if got := nodes[0].HealthOf("node-b"); got == Alive {
		t.Fatalf("node-a still sees node-b as %s during partition", got)
	}
	mesh.heal()
	tickAll(nodes, 4)
	want := fmt.Sprint([]string{"left-only", "node-a", "node-b", "node-c", "right-only"})
	for i, s := range srcs {
		if got := fmt.Sprint(s.values()); got != want {
			t.Fatalf("node %d post-heal state = %s, want %s", i, got, want)
		}
	}
	for i, n := range nodes {
		for _, id := range []string{"node-a", "node-b", "node-c"} {
			if got := n.HealthOf(id); got != Alive {
				t.Fatalf("node %d post-heal sees %s as %s", i, id, got)
			}
		}
	}
}

// TestGossipHTTPTransport: two nodes gossiping over real HTTP via
// Handler converge exactly like the in-memory mesh.
func TestGossipHTTPTransport(t *testing.T) {
	srcA := newSetSource("alpha")
	srcB := newSetSource("beta")

	build := func(self Member, peers []Member, src *setSource) *Node {
		n, err := New(Config{Self: self, Peers: peers, vnodes: 64, Transport: &HTTPTransport{}})
		if err != nil {
			t.Fatal(err)
		}
		n.Register("facts", src)
		return n
	}
	a := build(Member{ID: "a", Addr: "http://a"}, nil, srcA)
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	b := build(Member{ID: "b", Addr: "http://b"}, []Member{{ID: "a", Addr: "http://a", Gossip: tsA.URL}}, srcB)
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()

	// a has no gossip URL for b; b drives, a learns via handler merges.
	b.Tick(context.Background())
	b.Tick(context.Background())
	want := fmt.Sprint([]string{"alpha", "beta"})
	if got := fmt.Sprint(srcA.values()); got != want {
		t.Fatalf("a state = %s, want %s", got, want)
	}
	if got := fmt.Sprint(srcB.values()); got != want {
		t.Fatalf("b state = %s, want %s", got, want)
	}
	if a.HealthOf("b") != Alive || b.HealthOf("a") != Alive {
		t.Fatal("members not mutually alive after HTTP exchange")
	}
}

// TestStatusPrometheus: the exposition renders the cluster gauges.
func TestStatusPrometheus(t *testing.T) {
	nodes, _, mesh := testCluster(t, 3)
	mesh.mu.Lock()
	mesh.down["mem://node-c"] = true
	mesh.mu.Unlock()
	tickAll(nodes[:1], 6) // node-a alone: node-b reachable, node-c down
	var set metrics.Set
	nodes[0].RegisterMetrics(&set)
	var buf bytes.Buffer
	if err := set.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`hybridsel_cluster_members{health="alive"} 2`,
		`hybridsel_cluster_members{health="dead"} 1`,
		"hybridsel_cluster_gossip_ticks_total 6",
		"hybridsel_cluster_gossip_exchange_fails_total 3",
		"hybridsel_cluster_incarnation 0",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
