package cluster

import (
	"sort"

	"github.com/hybridsel/hybridsel/internal/metrics"
)

// MemberStatus is one member's row in a Status snapshot.
type MemberStatus struct {
	ID          string            `json:"id"`
	Addr        string            `json:"addr,omitempty"`
	Gossip      string            `json:"gossip,omitempty"`
	Self        bool              `json:"self,omitempty"`
	Health      string            `json:"health"`
	Incarnation uint64            `json:"incarnation"`
	Fails       int               `json:"fails,omitempty"`
	States      map[string]uint64 `json:"states,omitempty"`
}

// Status is a point-in-time snapshot of the node's cluster view, the
// payload of the daemon's /v1/cluster endpoint.
type Status struct {
	Self    string         `json:"self"`
	Vnodes  int            `json:"vnodes"`
	Members []MemberStatus `json:"members"`

	Ticks         uint64 `json:"gossipTicks"`
	Exchanges     uint64 `json:"gossipExchanges"`
	ExchangeFails uint64 `json:"gossipExchangeFails"`
	StatesApplied uint64 `json:"gossipStatesApplied"`
	StateErrors   uint64 `json:"gossipStateErrors"`
	Refutes       uint64 `json:"gossipRefutes"`
}

// Status returns the node's current cluster view, members sorted by ID.
func (n *Node) Status() Status {
	st := Status{
		Self:          n.cfg.Self.ID,
		Vnodes:        n.ring.vnodes,
		Ticks:         n.ticks.Load(),
		Exchanges:     n.exchanges.Load(),
		ExchangeFails: n.exchangeFails.Load(),
		StatesApplied: n.statesApplied.Load(),
		StateErrors:   n.stateErrors.Load(),
		Refutes:       n.refutes.Load(),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]string, 0, len(n.members))
	for id := range n.members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m := n.members[id]
		ms := MemberStatus{
			ID:          m.ID,
			Addr:        m.Addr,
			Gossip:      m.Gossip,
			Self:        id == n.cfg.Self.ID,
			Health:      m.health.String(),
			Incarnation: m.incarnation,
			Fails:       m.fails,
		}
		if len(m.states) > 0 {
			ms.States = make(map[string]uint64, len(m.states))
			for name, blob := range m.states {
				ms.States[name] = blob.version
			}
		}
		st.Members = append(st.Members, ms)
	}
	return st
}

// RegisterMetrics declares the node's series (hybridsel_cluster_
// namespace) on s: the gossip counters, and gauges read off the member
// table at scrape time.
func (n *Node) RegisterMetrics(s *metrics.Set) {
	members := s.Rows("hybridsel_cluster_members", "gauge", "Cluster members by current health verdict.")
	incarnation := s.Rows("hybridsel_cluster_incarnation", "gauge", "The local member's incarnation number.")
	s.Collect(func() {
		var byHealth [Dead + 1]int // a verdict worse than Dead counts as dead
		n.mu.Lock()
		for _, m := range n.members {
			byHealth[min(m.health, Dead)]++
		}
		self := n.members[n.cfg.Self.ID].incarnation
		n.mu.Unlock()
		for h, count := range byHealth {
			members(float64(count), "health", Health(h).String())
		}
		incarnation(float64(self))
	})
	s.Counter("hybridsel_cluster_gossip_ticks_total", "Gossip rounds started.", &n.ticks)
	s.Counter("hybridsel_cluster_gossip_exchanges_total", "Gossip exchanges attempted.", &n.exchanges)
	s.Counter("hybridsel_cluster_gossip_exchange_fails_total", "Gossip exchanges that failed.", &n.exchangeFails)
	s.Counter("hybridsel_cluster_gossip_states_applied_total", "Peer state blobs folded into local replicas.", &n.statesApplied)
	s.Counter("hybridsel_cluster_gossip_state_errors_total", "Peer state blobs rejected by a source.", &n.stateErrors)
	s.Counter("hybridsel_cluster_gossip_refutes_total", "Rumors about the local member refuted.", &n.refutes)
}
