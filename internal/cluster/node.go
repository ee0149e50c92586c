package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// Health is a member's liveness verdict. The values mirror the wire
// constants: higher is worse, and at equal incarnation the worse verdict
// wins a merge until the subject refutes it by bumping its incarnation.
type Health byte

const (
	Alive   Health = wire.GossipAlive
	Suspect Health = wire.GossipSuspect
	Dead    Health = wire.GossipDead
)

func (h Health) String() string {
	switch h {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("health(%d)", byte(h))
}

// Member identifies one replica: its ring ID, the base URL its decide
// surface is served on, and the URL its gossip exchanges are served on
// (empty for members this replica never gossips with directly).
type Member struct {
	ID     string
	Addr   string
	Gossip string
}

// Source is one replicated state piggybacked on gossip under a name: the
// calibrator's EWMA factors, the learner's snapshot (audit.Calibrator and
// learn.Learner are Sources). Version advances whenever SnapshotState's
// bytes change — by a local observation or a merge — so the node encodes a
// state only when its version moved. MergeState folds a peer replica's
// state in; it must be an idempotent merge (gossip redelivers freely), and
// it is never called with states originated by the local member.
type Source interface {
	Version() uint64
	SnapshotState() []byte
	MergeState(data []byte) (changed bool, err error)
}

// namedSource is a registered Source under its gossip name.
type namedSource struct {
	name string
	Source
}

// suspectAfter and deadAfter are the consecutive direct-exchange failures
// after which a peer is locally marked suspect and dead.
const (
	suspectAfter = 1
	deadAfter    = 3
)

// Config configures a cluster node.
type Config struct {
	// Self identifies the local replica; Peers the rest of the static
	// membership (entries matching Self's ID are ignored).
	Self  Member
	Peers []Member
	// Transport performs gossip exchanges. Defaults to an HTTPTransport.
	Transport Transport
	// Logger receives gossip lifecycle events; nil discards them.
	Logger *slog.Logger

	// vnodes is a test hook: in-package tests build smaller rings; 0
	// selects the constant (see NewRing).
	vnodes int
}

// memberState is the node's view of one member.
type memberState struct {
	Member
	incarnation uint64
	health      Health
	fails       int // consecutive direct-exchange failures, local observation
	states      map[string]stateBlob
}

type stateBlob struct {
	version uint64
	data    []byte
}

// Node is one replica's cluster brain: the static ring, the gossip
// membership view, and the registered state sources.
type Node struct {
	cfg  Config
	ring *Ring
	log  *slog.Logger

	mu      sync.Mutex
	members map[string]*memberState
	sources []namedSource
	rotate  int // round-robin cursor over gossip peers

	ticks         atomic.Uint64
	exchanges     atomic.Uint64
	exchangeFails atomic.Uint64
	statesApplied atomic.Uint64
	stateErrors   atomic.Uint64
	refutes       atomic.Uint64

	stop chan struct{}
	done chan struct{}
}

// New builds a node from the static membership. The ring covers Self
// plus every peer; all members start alive at incarnation 0.
func New(cfg Config) (*Node, error) {
	if cfg.Self.ID == "" {
		return nil, fmt.Errorf("cluster: config needs a self member ID")
	}
	if cfg.Transport == nil {
		cfg.Transport = &HTTPTransport{}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	members := map[string]*memberState{
		cfg.Self.ID: {Member: cfg.Self, health: Alive, states: map[string]stateBlob{}},
	}
	ids := []string{cfg.Self.ID}
	for _, p := range cfg.Peers {
		if p.ID == "" {
			return nil, fmt.Errorf("cluster: peer with empty ID")
		}
		if p.ID == cfg.Self.ID || members[p.ID] != nil {
			continue
		}
		members[p.ID] = &memberState{Member: p, health: Alive, states: map[string]stateBlob{}}
		ids = append(ids, p.ID)
	}
	ring, err := NewRing(ids, cfg.vnodes)
	if err != nil {
		return nil, err
	}
	return &Node{cfg: cfg, ring: ring, log: log, members: members}, nil
}

// Self returns the local member's ID.
func (n *Node) Self() string { return n.cfg.Self.ID }

// Register adds a state source to piggyback on gossip under name.
// Register all sources before the first Tick or Handler call.
func (n *Node) Register(name string, src Source) {
	if name == "" || src == nil {
		panic("cluster: a source needs a name")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.sources {
		if s.name == name {
			panic("cluster: duplicate source " + name)
		}
	}
	n.sources = append(n.sources, namedSource{name, src})
}

// Addr returns a member's decide base URL ("" for unknown members).
func (n *Node) Addr(id string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m := n.members[id]; m != nil {
		return m.Addr
	}
	return ""
}

// HealthOf returns the node's current verdict for a member (Dead for
// unknown members, so routing treats them as last resort).
func (n *Node) HealthOf(id string) Health {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m := n.members[id]; m != nil {
		return m.health
	}
	return Dead
}

// snapshotView builds the full-state gossip message under the lock,
// refreshing the self entry's states from the registered sources first —
// re-encoding only those whose version moved.
func (n *Node) snapshotView() *wire.GossipMsg {
	n.mu.Lock()
	defer n.mu.Unlock()
	self := n.members[n.cfg.Self.ID]
	for _, src := range n.sources {
		v := src.Version()
		if blob, ok := self.states[src.name]; !ok || v > blob.version {
			self.states[src.name] = stateBlob{version: v, data: src.SnapshotState()}
		}
	}
	ids := make([]string, 0, len(n.members))
	for id := range n.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	msg := &wire.GossipMsg{From: n.cfg.Self.ID}
	for _, id := range ids {
		m := n.members[id]
		e := wire.GossipEntry{
			ID:          m.ID,
			Addr:        m.Addr,
			Incarnation: m.incarnation,
			Health:      byte(m.health),
		}
		names := make([]string, 0, len(m.states))
		for name := range m.states {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			blob := m.states[name]
			e.States = append(e.States, wire.GossipState{Name: name, Version: blob.version, Data: blob.data})
		}
		msg.Entries = append(msg.Entries, e)
	}
	return msg
}

// Merge folds a received gossip view into the node's membership. It is
// the core convergence rule:
//
//   - Unknown members are adopted (static-seed normally makes this moot,
//     but a misconfigured partial peer list still converges).
//   - Higher incarnation wins a member's row outright. At equal
//     incarnation the worse health wins, so bad news spreads without the
//     subject's cooperation.
//   - A claim that the local member is suspect or dead at an incarnation
//     at or above its own is refuted: the local member bumps its
//     incarnation past the claim and re-asserts itself alive, which
//     outranks the rumor everywhere it has spread.
//   - States merge independently of health, newest version per (member,
//     source) wins; fresh states from other origins are folded into the
//     local replica via the matching Source.MergeState.
func (n *Node) Merge(msg *wire.GossipMsg) {
	type apply struct {
		src    namedSource
		origin string
		data   []byte
	}
	var applies []apply
	n.mu.Lock()
	for _, e := range msg.Entries {
		m := n.members[e.ID]
		if m == nil {
			m = &memberState{
				Member: Member{ID: e.ID, Addr: e.Addr},
				health: Dead, // unseen and unconfigured: assume the worst
				states: map[string]stateBlob{},
			}
			n.members[e.ID] = m
		}
		if e.ID == n.cfg.Self.ID {
			if Health(e.Health) != Alive && e.Incarnation >= m.incarnation {
				m.incarnation = e.Incarnation + 1
				m.health = Alive
				n.refutes.Add(1)
				n.log.Info("cluster: refuted rumor about self",
					"claim", Health(e.Health).String(), "incarnation", m.incarnation)
			}
			continue
		}
		if e.Incarnation > m.incarnation {
			m.incarnation = e.Incarnation
			m.health = Health(e.Health)
			m.fails = 0
		} else if e.Incarnation == m.incarnation && Health(e.Health) > m.health {
			m.health = Health(e.Health)
		}
		if m.Addr == "" {
			m.Addr = e.Addr
		}
		for _, st := range e.States {
			blob, ok := m.states[st.Name]
			if ok && st.Version <= blob.version {
				continue
			}
			m.states[st.Name] = stateBlob{version: st.Version, data: st.Data}
			for _, src := range n.sources {
				if src.name == st.Name {
					applies = append(applies, apply{src: src, origin: e.ID, data: st.Data})
				}
			}
		}
	}
	n.mu.Unlock()
	// Apply outside the lock: merges take the calibrator/learner locks
	// and may be slow; gossip bookkeeping must not block on them.
	for _, a := range applies {
		if _, err := a.src.MergeState(a.data); err != nil {
			n.stateErrors.Add(1)
			n.log.Warn("cluster: apply gossiped state failed",
				"source", a.src.name, "origin", a.origin, "err", err)
			continue
		}
		n.statesApplied.Add(1)
	}
}

// gossipPeers returns the directly reachable peers (gossip URL known),
// sorted by ID.
func (n *Node) gossipPeers() []Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []Member
	for id, m := range n.members {
		if id != n.cfg.Self.ID && m.Gossip != "" {
			out = append(out, m.Member)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Tick runs one gossip round: exchange full state with the next peer in
// a deterministic round-robin rotation. Exchange failures move the peer
// toward suspect, then dead; successes reset it. Calling Tick from a test
// instead of Start makes gossip progress fully deterministic.
func (n *Node) Tick(ctx context.Context) {
	n.ticks.Add(1)
	peers := n.gossipPeers()
	if len(peers) == 0 {
		return
	}
	n.mu.Lock()
	peer := peers[n.rotate%len(peers)]
	n.rotate++
	n.mu.Unlock()
	n.exchange(ctx, peer)
}

// exchange performs one full-state exchange with peer and merges the
// response.
func (n *Node) exchange(ctx context.Context, peer Member) {
	n.exchanges.Add(1)
	resp, err := n.cfg.Transport.Exchange(ctx, peer.Gossip, n.snapshotView())
	if err != nil {
		n.exchangeFails.Add(1)
		n.noteExchangeFailure(peer.ID)
		return
	}
	n.noteExchangeSuccess(peer.ID)
	n.Merge(resp)
}

func (n *Node) noteExchangeFailure(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.members[id]
	if m == nil {
		return
	}
	m.fails++
	was := m.health
	switch {
	case m.fails >= deadAfter:
		m.health = Dead
	case m.fails >= suspectAfter && m.health == Alive:
		m.health = Suspect
	}
	if m.health != was {
		n.log.Info("cluster: peer health degraded",
			"peer", id, "health", m.health.String(), "fails", m.fails)
	}
}

func (n *Node) noteExchangeSuccess(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.members[id]
	if m == nil {
		return
	}
	m.fails = 0
	// Direct contact is better evidence than any rumor: the peer
	// answered, so it is alive right now. Its own refutation (carried in
	// the response we are about to merge) re-asserts this at a higher
	// incarnation for the rest of the cluster.
	if m.health != Alive {
		m.health = Alive
		n.log.Info("cluster: peer recovered", "peer", id)
	}
}

// Start launches the gossip loop at the given interval and returns a
// stop function that blocks until the loop exits. Tests prefer driving
// Tick directly.
func (n *Node) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	n.stop = make(chan struct{})
	n.done = make(chan struct{})
	go func() {
		defer close(n.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				n.Tick(ctx)
				cancel()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(n.stop)
			<-n.done
		})
	}
}
