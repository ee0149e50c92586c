// Cluster mode: route each decide to its key's owner replica on a
// consistent-hash ring, hedge to the ring successor (never the same
// node), fail over through the successor order, and treat breaker state
// per replica — each member gets its own full resilience pipeline, so
// one sick replica cannot open the breaker for traffic owned by the
// healthy ones.
package client

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/metrics"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// ClusterMember names one replica of a sharded decision plane.
type ClusterMember struct {
	ID      string
	BaseURL string
}

// ClusterConfig parameterizes a ClusterClient.
type ClusterConfig struct {
	// Members is the static replica set (at least one).
	Members []ClusterMember
	// Vnodes is the ring's virtual-node count per member
	// (cluster.DefaultVnodes if 0).
	Vnodes int
	// Replica is the per-replica client template. BaseURL, Fallback and
	// DisableHedging are overridden per member: each replica client gets
	// its member's URL, no fallback runtime (failures must surface so
	// the cluster layer can fail over), and same-replica hedging off —
	// the cluster hedge goes to the ring successor instead.
	Replica Config
	// Fallback serves in-process verdicts when every routable replica
	// has failed, exactly like the single-daemon client's fallback.
	Fallback *offload.Runtime
	// HedgeAfter fixes the cross-replica hedge delay. 0 derives it from
	// the owner replica's observed p99 attempt latency; hedging is
	// disabled via Replica.DisableHedging.
	HedgeAfter time.Duration
	// Health, when non-nil, reports a member's gossip verdict
	// (cluster.Node.HealthOf). Routing demotes suspect members behind
	// alive ones and dead members to last resort, preserving ring order
	// within each class. Ownership itself never moves.
	Health func(id string) cluster.Health
}

// clusterMetrics is the cluster layer's own instrumentation, on top of
// each replica client's Metrics.
type clusterMetrics struct {
	requests       metrics.Counter
	failovers      metrics.Counter
	crossHedges    metrics.Counter
	crossHedgeWins metrics.Counter
	fallbacks      metrics.Counter
	demoted        metrics.Counter
}

// ClusterMetrics is a point-in-time snapshot of the cluster layer.
type ClusterMetrics struct {
	// Requests counts logical requests entering the cluster client.
	Requests uint64
	// Failovers counts calls (or batch groups) re-routed to a successor
	// after the preferred replica failed.
	Failovers uint64
	// CrossHedges counts hedges launched at the ring successor;
	// CrossHedgeWins counts those that finished first.
	CrossHedges    uint64
	CrossHedgeWins uint64
	// Fallbacks counts verdicts served by the cluster-level in-process
	// runtime after every routable replica failed.
	Fallbacks uint64
	// Demoted counts routing decisions where the ring owner was skipped
	// because gossip reported it suspect or dead.
	Demoted uint64
	// Replicas holds each member's client snapshot, keyed by member ID.
	Replicas map[string]Metrics
}

// ClusterClient routes decide traffic across a replica set. Safe for
// concurrent use.
type ClusterClient struct {
	cfg     ClusterConfig
	ring    *cluster.Ring
	clients map[string]*Client
	met     clusterMetrics
}

// NewCluster builds a cluster client over the member set.
func NewCluster(cfg ClusterConfig) (*ClusterClient, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("client: cluster needs at least one member")
	}
	ids := make([]string, len(cfg.Members))
	for i, m := range cfg.Members {
		if m.ID == "" || m.BaseURL == "" {
			return nil, fmt.Errorf("client: cluster member %d needs an ID and a BaseURL", i)
		}
		ids[i] = m.ID
	}
	ring, err := cluster.NewRing(ids, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	cc := &ClusterClient{cfg: cfg, ring: ring, clients: make(map[string]*Client, len(cfg.Members))}
	for i, m := range cfg.Members {
		rcfg := cfg.Replica
		rcfg.BaseURL = m.BaseURL
		rcfg.Fallback = nil
		rcfg.DisableHedging = true
		if rcfg.Seed == 0 {
			rcfg.Seed = 1
		}
		rcfg.Seed += int64(i) // decorrelate backoff jitter across replicas
		rc, err := New(rcfg)
		if err != nil {
			return nil, fmt.Errorf("client: cluster member %s: %w", m.ID, err)
		}
		cc.clients[m.ID] = rc
	}
	return cc, nil
}

// Close tears down every replica client.
func (cc *ClusterClient) Close() {
	for _, c := range cc.clients {
		c.Close()
	}
}

// Ring returns the routing ring (for status displays and tests).
func (cc *ClusterClient) Ring() *cluster.Ring { return cc.ring }

// Client returns one member's replica client (nil for unknown IDs), so
// callers can inspect per-replica breaker state and metrics.
func (cc *ClusterClient) Client(id string) *Client { return cc.clients[id] }

// Route returns the replica order a request would be tried in: the
// key's ring successor list, alive members first, suspect next, dead
// last, ring order preserved within each class.
func (cc *ClusterClient) Route(req server.DecideRequest) []string {
	key := cluster.RegionKey(req.Region, attrdb.BindingsHash(symbolic.Bindings(req.Bindings)))
	order := cc.ring.Successors(key, 0)
	if cc.cfg.Health == nil {
		return order
	}
	// A stable sort by health class: a member gossip cannot classify
	// routes last rather than vanish.
	ranked := slices.Clone(order)
	slices.SortStableFunc(ranked, func(a, b string) int {
		return cmp.Compare(min(cc.cfg.Health(a), cluster.Dead+1), min(cc.cfg.Health(b), cluster.Dead+1))
	})
	if ranked[0] != order[0] {
		cc.met.demoted.Add(1)
	}
	return ranked
}

// Decide returns a verdict for one request: owner replica first, hedged
// to the ring successor, failing over through the rest of the successor
// order, and finally the in-process fallback runtime.
func (cc *ClusterClient) Decide(ctx context.Context, req server.DecideRequest) (*Verdict, error) {
	cc.met.requests.Add(1)
	order := cc.Route(req)

	v, tried, err := cc.decidePrimary(ctx, req, order)
	if err == nil || permanent(err) {
		return v, err
	}
	// Failover: everyone the primary race consumed has failed; walk the
	// remaining successors.
	for _, id := range order[tried:] {
		if ctx.Err() != nil {
			break
		}
		cc.met.failovers.Add(1)
		if v, err = cc.decideOn(ctx, id, req); err == nil || permanent(err) {
			return v, err
		}
	}
	vs, err := cc.fallback([]server.DecideRequest{req}, err)
	if err != nil {
		return nil, err
	}
	return &vs[0], nil
}

// decideOn asks one replica, stamping the verdict with it.
func (cc *ClusterClient) decideOn(ctx context.Context, id string, req server.DecideRequest) (*Verdict, error) {
	v, err := cc.clients[id].Decide(ctx, req)
	if err == nil {
		v.Replica = id
	}
	return v, err
}

// fallback serves reqs from the cluster-level in-process runtime after
// every routable replica failed with err, or returns err without one.
func (cc *ClusterClient) fallback(reqs []server.DecideRequest, err error) ([]Verdict, error) {
	if cc.cfg.Fallback == nil {
		return nil, err
	}
	cc.met.fallbacks.Add(1)
	vs := make([]Verdict, len(reqs))
	for i, req := range reqs {
		vs[i] = localVerdict(cc.cfg.Fallback, req, 0)
	}
	return vs, nil
}

// decidePrimary races the owner replica against a hedge at the first
// ring successor. The hedge launches after the cross-replica hedge
// delay and never targets the owner — a sick owner cannot absorb its
// own hedge. tried reports how many replicas of the order the race
// consumed, so failover resumes after them.
func (cc *ClusterClient) decidePrimary(ctx context.Context, req server.DecideRequest, order []string) (v *Verdict, tried int, err error) {
	delay := cc.cfg.HedgeAfter
	switch {
	case req.Execute || len(order) < 2 || cc.cfg.Replica.DisableHedging:
		delay = 0
	case delay <= 0:
		// Derive from the owner's own per-transport p99 — the question a
		// hedge answers is "is the owner slower than it usually is".
		owner := cc.clients[order[0]]
		delay = owner.hedgeDelay(true, owner.startsOnStream(true))
	}
	if delay <= 0 {
		v, err := cc.decideOn(ctx, order[0], req)
		return v, 1, err
	}
	v, hedgeWon, tried, err := hedgeRace(ctx, delay, &cc.met.crossHedges, &cc.met.crossHedgeWins,
		func(ctx context.Context, hedge bool) (*Verdict, error) {
			if hedge {
				return cc.decideOn(ctx, order[1], req)
			}
			return cc.decideOn(ctx, order[0], req)
		})
	if hedgeWon {
		v.Provenance = ProvenanceHedged
	}
	return v, tried, err
}

// DecideBatch returns verdicts positionally, sharding the batch by each
// item's owner replica: one DecideBatch per owner group, groups in
// flight concurrently, each group failing over through its successor
// order and degrading to the cluster fallback runtime as a last resort.
func (cc *ClusterClient) DecideBatch(ctx context.Context, reqs []server.DecideRequest) ([]Verdict, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	cc.met.requests.Add(uint64(len(reqs)))
	type group struct {
		order []string
		idx   []int
		sub   []server.DecideRequest
		vs    []Verdict
		err   error
	}
	groups := map[string]*group{}
	for i, req := range reqs {
		order := cc.Route(req)
		g := groups[order[0]]
		if g == nil {
			g = &group{order: order}
			groups[order[0]] = g
		}
		g.idx, g.sub = append(g.idx, i), append(g.sub, req)
	}

	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.vs, g.err = cc.batchGroup(ctx, g.sub, g.order)
		}()
	}
	wg.Wait()
	out := make([]Verdict, len(reqs))
	for _, g := range groups {
		if g.err != nil {
			return nil, g.err
		}
		for j, i := range g.idx {
			out[i] = g.vs[j]
		}
	}
	return out, nil
}

// batchGroup sends one owner group's requests, failing over through the
// group's replica order.
func (cc *ClusterClient) batchGroup(ctx context.Context, sub []server.DecideRequest, order []string) ([]Verdict, error) {
	var lastErr error
	for hop, id := range order {
		if hop > 0 {
			cc.met.failovers.Add(1)
		}
		vs, err := cc.clients[id].DecideBatch(ctx, sub)
		if err == nil {
			for i := range vs {
				vs[i].Replica = id
			}
			return vs, nil
		}
		if permanent(err) {
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return cc.fallback(sub, lastErr)
}

// Metrics returns a snapshot of the cluster layer plus every replica
// client.
func (cc *ClusterClient) Metrics() ClusterMetrics {
	m := ClusterMetrics{
		Requests:       cc.met.requests.Load(),
		Failovers:      cc.met.failovers.Load(),
		CrossHedges:    cc.met.crossHedges.Load(),
		CrossHedgeWins: cc.met.crossHedgeWins.Load(),
		Fallbacks:      cc.met.fallbacks.Load(),
		Demoted:        cc.met.demoted.Load(),
		Replicas:       make(map[string]Metrics, len(cc.clients)),
	}
	for id, c := range cc.clients {
		m.Replicas[id] = c.Metrics()
	}
	return m
}

// RegisterMetrics declares the cluster-layer series on s, then every
// replica client's with a replica=<id> label, so each hybridselc_ family
// appears once however many replicas there are.
func (cc *ClusterClient) RegisterMetrics(s *metrics.Set) {
	m := &cc.met
	s.Counter("hybridselc_cluster_requests_total", "Logical requests entering the cluster client.", &m.requests)
	s.Counter("hybridselc_cluster_failovers_total", "Calls re-routed to a ring successor.", &m.failovers)
	s.Counter("hybridselc_cluster_hedges_total", "Hedges launched at the ring successor.", &m.crossHedges)
	s.Counter("hybridselc_cluster_hedge_wins_total", "Successor hedges that finished first.", &m.crossHedgeWins)
	s.Counter("hybridselc_cluster_fallback_total", "Verdicts served by the cluster fallback runtime.", &m.fallbacks)
	s.Counter("hybridselc_cluster_demoted_total", "Routes where gossip demoted the ring owner.", &m.demoted)
	for _, m := range cc.cfg.Members {
		cc.clients[m.ID].RegisterMetrics(s, "replica", m.ID)
	}
}
