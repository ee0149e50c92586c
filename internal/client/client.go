// Package client is the production-shape client for the hybridseld
// decision service: the piece that turns "speak HTTP to the daemon" into
// "always get a launch-site verdict".
//
// A Verdict always arrives (when a fallback runtime is configured),
// carries the full ranked candidate list from /v2/decide (top-1 is the
// chosen target's registry ID), and always says where it came from:
//
//   - remote:   the daemon answered.
//   - fallback: the daemon was unreachable (circuit open, or every
//     retry failed) and the verdict came from the in-process
//     compiled-model runtime. Because the analytical models are
//     deterministic, a fallback verdict is bit-for-bit the verdict the
//     daemon would have served.
//
// One loop (call) serves every verdict, single or batch, one daemon or a
// cluster. A decide-only single the daemon answered on the stream is
// leased (lease.go): its repeats are served at the launch site, with no
// network call, until the daemon's epoch moves or leaseFor passes.
// Identical in-flight decide-only requests share one call
// (duplicates inside a DecideBatch one item). The call walks its route —
// one endpoint for a Client, the key's ring successors for a
// ClusterClient — asking each endpoint whose circuit breaker admits it,
// and sleeps (exponential backoff + jitter, or a longer Retry-After) only
// when the route wraps. An attempt is one send under the per-attempt
// deadline, and when the walks are spent the fallback runtime answers.
// Every step is counted (Metrics / RegisterMetrics, hybridselc_
// namespace), mirroring the daemon's own exposition.
package client

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// Provenance says which path produced a Verdict.
type Provenance string

// Provenance values.
const (
	ProvenanceRemote   Provenance = "remote"
	ProvenanceFallback Provenance = "fallback"
)

// Transport values carried on Verdict: which encoding/transport served
// it. Local marks fallback verdicts served in-process.
const (
	TransportStream     = "stream"
	TransportHTTPBinary = "http-binary"
	TransportHTTPJSON   = "http-json"
	TransportLease      = "lease"
	TransportLocal      = "local"
)

// Verdict is a decision with its delivery story. Response.Verdict is
// the chosen target's registry ID ("cpu/base", "gpu/prev", ...; "split"
// for a cooperative split) and Response.Candidates the full ranking, so
// callers comparing verdicts from different paths (owner vs successor,
// fallback vs daemon) compare target identities, not a CPU/GPU boolean.
type Verdict struct {
	Response server.DecideResponseV2
	// Provenance is remote or fallback.
	Provenance Provenance
	// Attempts counts the sends the call made, over every endpoint it
	// asked (0 for a leased verdict, and for a pure-fallback verdict
	// served while every breaker was open).
	Attempts int
	// Coalesced marks a verdict served by another caller's identical
	// in-flight request rather than a network call of its own.
	Coalesced bool
	// Transport says which transport served the verdict (stream,
	// http-binary, http-json, lease for a repeat served from the lease
	// its stream answer granted — whose Response claims CacheHit and no
	// DecisionNanos: the daemon was not asked — or local for fallback
	// verdicts), so callers and load gates can attribute throughput per
	// transport.
	Transport string
	// Replica is the cluster member ID that served the verdict when the
	// call went through a ClusterClient or one of its views ("" for
	// single-daemon clients and for in-process fallback verdicts), so
	// callers can audit routing: the owner, or a ring successor for
	// failed-over verdicts.
	Replica string
}

// ErrCircuitOpen reports that every breaker on the route rejected the
// call and no fallback runtime was configured.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// The resilience loop's constants. No caller ever set them, so they are
// not options; this package's tests shorten them through Config's
// unexported fields.
const (
	// defaultMaxAttempts bounds the walks of the route per logical call,
	// the first included. A walk asks each endpoint whose breaker admits
	// it once: a single-daemon client makes at most that many attempts, a
	// cluster client that many per replica.
	defaultMaxAttempts = 4
	// defaultRetryBackoff is the base backoff, slept only when the route
	// wraps: doubled per walk with ±50% jitter, capped at maxBackoff. A
	// longer Retry-After from the endpoint about to be re-asked wins.
	defaultRetryBackoff = 20 * time.Millisecond
	// defaultTimeout is the per-attempt deadline.
	defaultTimeout = 2 * time.Second
	// defaultBreakerFailures consecutive eligible failures open an
	// endpoint's breaker; it stays open for defaultBreakerCooldown, then
	// half-opens for one probe.
	defaultBreakerFailures = 5
	defaultBreakerCooldown = 500 * time.Millisecond
	// defaultStreamConns is the stream connection pool size.
	defaultStreamConns = 2
)

// maxBackoff caps the exponential retry backoff.
const maxBackoff = time.Second

// Config parameterizes a Client.
type Config struct {
	// BaseURL is the daemon base URL, e.g. "http://127.0.0.1:8080"
	// (required).
	BaseURL string
	// HTTPClient overrides the pooled default transport.
	HTTPClient *http.Client

	// Fallback, when non-nil, serves verdicts in-process when the remote
	// is unavailable (breaker open or retries exhausted). Configure it
	// identically to the daemon — platform, policy, threads — and
	// fallback verdicts match the daemon's bit-for-bit.
	Fallback *offload.Runtime

	// Seed fixes the backoff-jitter RNG for reproducible runs (0 = 1).
	Seed int64

	// Binary makes the endpoint's HTTP codec the compact frame format
	// (wire.ContentType) instead of JSON, over the same pooled
	// connections. The daemon answers frames on /v2/decide, failures
	// included.
	Binary bool
	// RegionParams returns a region's canonical parameter names in sorted
	// order (nil/mismatched length = unknown region). Requests whose
	// binding names are exactly those params ride the slot-vector wire
	// form — values only plus a key hash — which the daemon copies straight
	// into its pooled slot vectors. Nil asks the Fallback runtime, which
	// knows the layout of every region it has registered; with neither,
	// frames carry named bindings, which is still far cheaper than JSON.
	RegionParams func(region string) []string

	// Stream puts a small pool of persistent multiplexed frame-stream
	// connections (defaultStreamConns of them, redialed with backoff) in
	// front of HTTP for decide-only single requests; NewCluster sets it
	// for every replica. A refused, dead, drained or reconnecting
	// connection sends the call over HTTP inside the same attempt — it
	// costs latency, never a verdict — and the next call after the slot's
	// backoff dials again. Execute and batch requests always use HTTP.
	Stream bool
	// StreamAddr is the daemon's raw TCP stream listener
	// (hybridseld -stream-addr). Empty negotiates the stream over the
	// HTTP port via Upgrade on GET /v1/stream, as a cluster always does.
	StreamAddr string

	// Test hooks: zero selects the default* constant of the same name, and
	// only this package's tests set them, to make a retry, a deadline or a
	// breaker trip take milliseconds, or to pin a stream to one connection.
	maxAttempts     int
	retryBackoff    time.Duration
	timeout         time.Duration
	breakerFailures int
	breakerCooldown time.Duration
	streamConns     int
}

// withDefaults validates cfg and fills its zero fields with defaults.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.BaseURL == "" {
		return cfg, errors.New("client: Config.BaseURL is required")
	}
	cfg.BaseURL = strings.TrimSuffix(cfg.BaseURL, "/")
	orDefault(&cfg.maxAttempts, defaultMaxAttempts)
	orDefault(&cfg.retryBackoff, defaultRetryBackoff)
	orDefault(&cfg.timeout, defaultTimeout)
	orDefault(&cfg.breakerFailures, defaultBreakerFailures)
	orDefault(&cfg.breakerCooldown, defaultBreakerCooldown)
	orDefault(&cfg.streamConns, defaultStreamConns)
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if rt := cfg.Fallback; cfg.RegionParams == nil && rt != nil {
		cfg.RegionParams = func(region string) []string {
			if r, err := rt.Region(region); err == nil {
				return r.ParamNames()
			}
			return nil
		}
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        128,
				MaxIdleConnsPerHost: 128,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return cfg, nil
}

// orDefault replaces a zero (or negative) setting with its default.
func orDefault[T int | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// Client is a resilient client of one hybridseld daemon: the resilience
// loop over a fixed route of one endpoint. Safe for concurrent use.
type Client struct {
	loop  *loop
	route []*endpoint
}

// New builds a client for the daemon at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Client{loop: newLoop(&cfg), route: []*endpoint{newEndpoint("", &cfg)}}, nil
}

// Close tears down any pooled stream connections. In-flight calls finish
// (stream in-flight fail over to HTTP via the normal retry path).
func (c *Client) Close() { c.route[0].close() }

// BreakerState returns the circuit breaker's current state.
func (c *Client) BreakerState() BreakerState { return c.route[0].breaker.State() }

// Decide returns a verdict for one decision request. Identical
// decide-only requests in flight at once share a single network call.
func (c *Client) Decide(ctx context.Context, req server.DecideRequest) (*Verdict, error) {
	var names [4]string
	var values [4]int64
	return c.loop.decide(ctx, req, canonical(req, names[:0], values[:0]), c.route)
}

// DecideBatch returns verdicts for a slice of requests, positionally.
// The batch goes out as one /v2/decide call with duplicate requests
// coalesced client-side; per-item failures are carried in each verdict's
// Response.Error envelope exactly as the daemon reports them. When the
// daemon is unreachable every item degrades to the fallback runtime.
func (c *Client) DecideBatch(ctx context.Context, reqs []server.DecideRequest) ([]Verdict, error) {
	return c.loop.decideBatch(ctx, reqs, func(string, uint64) []*endpoint { return c.route })
}

// ------------------------------------------------------- the one loop --

// loop is what the resilience loop keeps between calls: its knobs, the
// jitter source, the flights identical requests share, and the counters
// that say how calls were routed rather than what one endpoint did.
type loop struct {
	cfg *Config
	cm  clusterMetrics

	jmu sync.Mutex
	rng *rand.Rand

	fmu      sync.Mutex
	inflight map[reqKey]*ask // the decide-only singles on the network now
}

func newLoop(cfg *Config) *loop {
	return &loop{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), inflight: map[reqKey]*ask{}}
}

// reqKey identifies a request for coalescing. hash is bindingsHash, which
// a cluster also routes by, so a request is canonicalized once per call;
// a match is confirmed against the bindings themselves.
type reqKey struct {
	region  string
	hash    uint64
	execute bool
}

func bindingsHash(req server.DecideRequest) uint64 {
	return attrdb.BindingsHash(symbolic.Bindings(req.Bindings))
}

// ask is one call on its way through the loop: a batch shard, or a single
// with, in this one allocation, the canonical form of its bindings —
// worked out once for the lease lookup, routing, coalescing and the frame
// it rides a stream in — and the flight identical requests arriving while
// it is out share.
type ask struct {
	reqs  []server.DecideRequest // one request unless batch
	batch bool
	hash  uint64       // a single's bindingsHash
	key   uint64       // and its ring key
	names []string     // a single's binding names, canonical order
	wr    wire.Request // a single's frame, slot form when Config.RegionParams agrees
	// done is made by the first coalesced caller to arrive, so a call
	// nobody joins has no channel; once closed, v and err are the outcome.
	done chan struct{}
	v    *Verdict
	err  error
	// What the slices above point into.
	req  [1]server.DecideRequest
	nbuf [4]string
	vbuf [4]int64
}

// single prepares the ask for one request; a decide-only frame asks for a lease.
func (l *loop) single(req server.DecideRequest, k canon) *ask {
	a := &ask{hash: k.hash, key: k.key}
	a.req[0], a.reqs, a.names = req, a.req[:], append(a.nbuf[:0], k.names...)
	own := canon{names: a.names, values: append(a.vbuf[:0], k.values...), hash: k.hash, key: k.key}
	a.wr = own.frame(req, l.cfg.RegionParams)
	a.wr.Lease = !req.Execute
	return a
}

// decide is Decide over a route: served from route[0]'s lease when one
// holds the request, else one call, shared by the identical decide-only
// requests in flight with it.
func (l *loop) decide(ctx context.Context, req server.DecideRequest, k canon, route []*endpoint) (*Verdict, error) {
	met := &route[0].met
	met.requests.Add(1)
	if !req.Execute {
		if v := route[0].leases.get(req.Region, k); v != nil {
			met.leaseHits.Add(1)
			return v, nil
		}
	}
	a := l.single(req, k)
	key := reqKey{region: req.Region, hash: a.hash}
	// Execute dispatches work on the daemon: never shared.
	leads := false
	if !req.Execute {
		l.fmu.Lock()
		lead, taken := l.inflight[key]
		if taken && maps.Equal(lead.req[0].Bindings, req.Bindings) {
			if lead.done == nil {
				lead.done = make(chan struct{})
			}
			done := lead.done
			l.fmu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if lead.err != nil {
				return nil, lead.err
			}
			met.coalesced.Add(1)
			v := *lead.v
			v.Coalesced = true
			return &v, nil
		}
		if leads = !taken; leads { // else another request has this hash: fly alone
			l.inflight[key] = a
		}
		l.fmu.Unlock()
	}
	vs, err := l.call(ctx, a, route)
	if a.err = err; err == nil {
		a.v = &vs[0]
	}
	if leads {
		l.fmu.Lock()
		delete(l.inflight, key)
		done := a.done
		l.fmu.Unlock()
		if done != nil {
			close(done)
		}
	}
	return a.v, err
}

// decideBatch is DecideBatch over routeOf's routes: each distinct request
// is sent once, in one batch call per first endpoint of a route — one in
// all for a Client; for a ClusterClient one per owner replica, in flight
// together, each failing over along the route of the shard's first item.
func (l *loop) decideBatch(ctx context.Context, reqs []server.DecideRequest, routeOf func(region string, hash uint64) []*endpoint) ([]Verdict, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	type shard struct {
		route []*endpoint
		sub   []server.DecideRequest
		vs    []Verdict
		err   error
	}
	type place struct {
		s         *shard
		i         int  // index in s.sub
		coalesced bool // onto an earlier, identical request of the batch
	}
	var shards []*shard
	first := make(map[reqKey]place, len(reqs)) // where each distinct request went
	at := make([]place, len(reqs))
	for i, req := range reqs {
		key := reqKey{req.Region, bindingsHash(req), req.Execute}
		p, seen := first[key]
		if seen && maps.Equal(p.s.sub[p.i].Bindings, req.Bindings) {
			p.coalesced = true
			p.s.route[0].met.coalesced.Add(1)
		} else {
			route := routeOf(req.Region, key.hash)
			j := slices.IndexFunc(shards, func(s *shard) bool { return s.route[0] == route[0] })
			if j < 0 {
				j, shards = len(shards), append(shards, &shard{route: route})
				route[0].met.batchCalls.Add(1)
			}
			p = place{s: shards[j], i: len(shards[j].sub)}
			p.s.sub = append(p.s.sub, req)
			if !seen {
				first[key] = p
			}
		}
		p.s.route[0].met.requests.Add(1)
		at[i] = p
	}

	var wg sync.WaitGroup
	for _, s := range shards[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.vs, s.err = l.call(ctx, &ask{reqs: s.sub, batch: true}, s.route)
		}()
	}
	shards[0].vs, shards[0].err = l.call(ctx, &ask{reqs: shards[0].sub, batch: true}, shards[0].route)
	wg.Wait()
	out := make([]Verdict, len(reqs))
	for i, p := range at {
		if p.s.err != nil {
			return nil, p.s.err
		}
		out[i] = p.s.vs[p.i]
		out[i].Coalesced = p.coalesced
	}
	return out, nil
}

var errNoFallback = errors.New("client: no fallback runtime configured")

// call is the resilience loop, the one path from Decide and DecideBatch
// of either client to the network: walk the route, sleep when it wraps,
// answer from the fallback runtime when the walks are spent.
//
// The rule is walk before you wait. A retryable failure — transport
// error, 5xx, shed — moves on to the next endpoint at once, and an
// endpoint whose breaker refuses is passed over without spending an
// attempt. Only when the route wraps does the loop sleep: the jittered
// backoff, or a longer Retry-After from the endpoint it re-asks first.
// On a route of one every step wraps, which is the classic retry loop; on
// a cluster route a healthy successor answers after one failed attempt.
func (l *loop) call(ctx context.Context, a *ask, route []*endpoint) ([]Verdict, error) {
	attempts := 0
	var err error
walks:
	for walk := 1; ; walk++ {
		// first is the endpoint this walk asked first, which the next walk
		// re-asks first, and retryAfter what it said about when.
		var first *endpoint
		var retryAfter time.Duration
		for i, ep := range route {
			if !ep.breaker.Allow() {
				continue
			}
			if i > 0 {
				l.cm.failovers.Add(1)
			}
			attempts++
			vs, cerr := ep.send(ctx, time.Now().Add(l.cfg.timeout), a)
			ep.breaker.settle(cerr)
			if cerr == nil {
				ep.met.remoteOK.Add(1)
				for j := range vs {
					vs[j].Attempts, vs[j].Replica = attempts, ep.id
				}
				return vs, nil
			}
			if !cerr.retryable {
				// Permanent: the request itself is wrong, and no retry,
				// failover or fallback would make it right.
				return nil, cerr.err
			}
			if err = cerr.err; ctx.Err() != nil {
				break walks // the caller gave up
			}
			if first == nil {
				first, retryAfter = ep, cerr.retryAfter
			}
		}
		if first == nil { // every breaker refused: nothing to wait for
			if err == nil {
				err = ErrCircuitOpen
			} else {
				err = fmt.Errorf("%w after %w", ErrCircuitOpen, err)
			}
			break
		}
		if walk == l.cfg.maxAttempts {
			err = fmt.Errorf("client: %d attempts failed, last: %w", attempts, err)
			break
		}
		first.met.retries.Add(1)
		d := l.backoff(walk)
		if retryAfter > d {
			d = retryAfter
			first.met.retryAfterHonored.Add(1)
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, fmt.Errorf("client: %w (last attempt: %w)", ctx.Err(), err)
		}
	}
	if l.cfg.Fallback == nil {
		return nil, fmt.Errorf("%w (fallback: %w)", err, errNoFallback)
	}
	l.cm.fallbacks.Add(1)
	met := &route[0].met
	vs := make([]Verdict, len(a.reqs))
	for i, req := range a.reqs {
		vs[i] = localVerdict(l.cfg.Fallback, req, attempts)
		if vs[i].Response.Error != nil {
			met.fallbackErrors.Add(1)
		}
		met.fallbacks.Add(1)
	}
	return vs, nil
}

// localVerdict serves one verdict from an in-process runtime through the
// daemon's own decide core: item-level model errors (unknown region,
// unbound symbol) are carried in Response.Error with the daemon's codes,
// so a degraded client behaves like the daemon it replaces.
func localVerdict(rt *offload.Runtime, req server.DecideRequest, attempts int) Verdict {
	return Verdict{
		Response:   server.DecideLocal(rt, req),
		Provenance: ProvenanceFallback,
		Attempts:   attempts,
		Transport:  TransportLocal,
	}
}

// backoff computes the jittered exponential delay after a given walk.
func (l *loop) backoff(walk int) time.Duration {
	d := l.cfg.retryBackoff << (walk - 1)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	l.jmu.Lock()
	j := l.rng.Float64()
	l.jmu.Unlock()
	// Uniform in [d/2, 3d/2): desynchronizes retry storms.
	return d/2 + time.Duration(j*float64(d))
}
