// Cluster mode is routing plus the one resilience loop (client.go): each
// decide's route is its key's successor list on a consistent-hash ring,
// owner first, demoted by gossip health. The loop fails over along it
// before it sleeps. Breakers, counters and connections are per replica —
// one endpoint each — so one sick replica cannot open the breaker for
// traffic owned by the healthy ones.
package client

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/metrics"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
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
	// Replica configures each replica's endpoint (transports, HTTP
	// client); BaseURL is set per member, and every endpoint rides the
	// stream.
	Replica Config
	// Fallback serves in-process verdicts when every routable replica
	// has failed, exactly like the single-daemon client's fallback (and
	// in place of Replica.Fallback when both are set).
	Fallback *offload.Runtime
	// Health, when non-nil, reports a member's gossip verdict
	// (cluster.Node.HealthOf). Routing demotes suspect members behind
	// alive ones and dead members to last resort, preserving ring order
	// within each class. Ownership itself never moves.
	Health func(id string) cluster.Health

	// vnodes is a test hook: 0 builds the ring every replica builds for
	// itself (cluster.NewRing's constant); this package's tests build
	// smaller ones.
	vnodes int
}

// clusterMetrics counts how calls were routed, beside each endpoint's
// counters of the attempts addressed to it.
type clusterMetrics struct {
	requests  metrics.Counter
	failovers metrics.Counter
	fallbacks metrics.Counter
	demoted   metrics.Counter
}

// ClusterMetrics is a point-in-time snapshot of the cluster layer.
type ClusterMetrics struct {
	// Requests counts logical requests entering the cluster client.
	Requests uint64
	// Failovers counts attempts (of a call or a batch group) addressed
	// to a later replica of the route than its first.
	Failovers uint64
	// Deprecated: always 0; hedging was removed. bench/ still reads it (ROADMAP 6(a)).
	CrossHedges uint64
	// Fallbacks counts calls answered by the in-process runtime after
	// every routable replica failed.
	Fallbacks uint64
	// Demoted counts routed requests whose ring owner was not asked
	// first because gossip reported it suspect or dead.
	Demoted uint64
	// Replicas holds each member's endpoint snapshot, keyed by member ID.
	Replicas map[string]Metrics
}

// ClusterClient routes decide traffic across a replica set. Safe for
// concurrent use.
type ClusterClient struct {
	loop  *loop
	cfg   ClusterConfig
	ring  *cluster.Ring
	views map[string]*Client // one per member: the loop over its endpoint alone
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
	ring, err := cluster.NewRing(ids, cfg.vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.Fallback != nil {
		cfg.Replica.Fallback = cfg.Fallback
	}
	cc := &ClusterClient{cfg: cfg, ring: ring, views: make(map[string]*Client, len(cfg.Members))}
	for _, m := range cfg.Members {
		rcfg := cfg.Replica
		rcfg.BaseURL = m.BaseURL
		// The stream by Upgrade over its own BaseURL: refused, the rung demotes.
		rcfg.Stream, rcfg.StreamAddr = true, ""
		if rcfg, err = rcfg.withDefaults(); err != nil {
			return nil, fmt.Errorf("client: cluster member %s: %w", m.ID, err)
		}
		if cc.loop == nil {
			cc.loop = newLoop(&rcfg)
		}
		cc.views[m.ID] = &Client{loop: cc.loop, route: []*endpoint{newEndpoint(m.ID, &rcfg)}}
	}
	return cc, nil
}

// Close tears down every replica's connections.
func (cc *ClusterClient) Close() {
	for _, v := range cc.views {
		v.Close()
	}
}

// Ring returns the routing ring (for status displays and tests).
func (cc *ClusterClient) Ring() *cluster.Ring { return cc.ring }

// Client returns a single-daemon client of one member (nil for unknown
// IDs). It is a view: the cluster's own loop over the cluster's own
// endpoint for that member, so its breaker state, metrics, connections,
// leases, coalescing and fallback are the cluster's, and a call
// made through it is a call on a route of that one replica. Close the
// cluster, not the view.
func (cc *ClusterClient) Client(id string) *Client { return cc.views[id] }

// Route returns the replica order a request would be tried in: the
// key's ring successor list, alive members first, suspect next, dead
// last, ring order preserved within each class.
func (cc *ClusterClient) Route(req server.DecideRequest) []string {
	order, _ := cc.order(nil, req.Region, bindingsHash(req))
	return order
}

// order is Route from an already-hashed request, appended to buf, and
// whether gossip demoted the ring owner.
func (cc *ClusterClient) order(buf []string, region string, hash uint64) (order []string, demoted bool) {
	order = cc.ring.Successors(buf, cluster.RegionKey(region, hash), 0)
	if cc.cfg.Health == nil {
		return order, false
	}
	// A stable sort by health class: a member gossip cannot classify
	// routes last rather than vanish.
	owner := order[0]
	slices.SortStableFunc(order, func(a, b string) int {
		return cmp.Compare(min(cc.cfg.Health(a), cluster.Dead+1), min(cc.cfg.Health(b), cluster.Dead+1))
	})
	return order, order[0] != owner
}

// route appends a request's endpoints, in Route order, to buf.
func (cc *ClusterClient) route(buf []*endpoint, region string, hash uint64) []*endpoint {
	var ids [8]string // on the stack for rings of up to eight
	order, demoted := cc.order(ids[:0], region, hash)
	if demoted {
		cc.loop.cm.demoted.Add(1)
	}
	for _, id := range order {
		buf = append(buf, cc.views[id].route[0])
	}
	return buf
}

// Decide returns a verdict for one request: owner replica first, failing
// over through the rest of the successor order before any backoff, and
// finally the in-process fallback runtime.
func (cc *ClusterClient) Decide(ctx context.Context, req server.DecideRequest) (*Verdict, error) {
	cc.loop.cm.requests.Add(1)
	var names [4]string
	var values [4]int64
	k := canonical(req, names[:0], values[:0])
	// On the stack for rings of up to eight: the loop keeps no route.
	return cc.loop.decide(ctx, req, k, cc.route(make([]*endpoint, 0, 8), req.Region, k.hash))
}

// DecideBatch returns verdicts positionally, sharding the batch by each
// item's owner replica: one batch call per owner group, groups in flight
// concurrently, each group failing over along its first item's route and
// degrading to the fallback runtime as a last resort.
func (cc *ClusterClient) DecideBatch(ctx context.Context, reqs []server.DecideRequest) ([]Verdict, error) {
	cc.loop.cm.requests.Add(uint64(len(reqs)))
	return cc.loop.decideBatch(ctx, reqs, func(region string, hash uint64) []*endpoint {
		return cc.route(nil, region, hash)
	})
}

// Metrics returns a snapshot of the cluster layer plus every replica's
// endpoint.
func (cc *ClusterClient) Metrics() ClusterMetrics {
	m := ClusterMetrics{
		Requests:  cc.loop.cm.requests.Load(),
		Failovers: cc.loop.cm.failovers.Load(),
		Fallbacks: cc.loop.cm.fallbacks.Load(),
		Demoted:   cc.loop.cm.demoted.Load(),
		Replicas:  make(map[string]Metrics, len(cc.views)),
	}
	for id, v := range cc.views {
		m.Replicas[id] = v.Metrics()
	}
	return m
}

// RegisterMetrics declares the cluster-layer series on s, then every
// replica endpoint's with a replica=<id> label, so each hybridselc_ family
// appears once however many replicas there are.
func (cc *ClusterClient) RegisterMetrics(s *metrics.Set) {
	m := &cc.loop.cm
	s.Counter("hybridselc_cluster_requests_total", "Logical requests entering the cluster client.", &m.requests)
	s.Counter("hybridselc_cluster_failovers_total", "Calls re-routed to a ring successor.", &m.failovers)
	s.Counter("hybridselc_cluster_fallback_total", "Verdicts served by the cluster fallback runtime.", &m.fallbacks)
	s.Counter("hybridselc_cluster_demoted_total", "Routes where gossip demoted the ring owner.", &m.demoted)
	for _, m := range cc.cfg.Members {
		cc.views[m.ID].RegisterMetrics(s, "replica", m.ID)
	}
}
