// Package client is the production-shape client for the hybridseld
// decision service: the piece that turns "speak HTTP to the daemon" into
// "always get a launch-site verdict".
//
// A Verdict always arrives (when a fallback runtime is configured),
// carries the full ranked candidate list from /v2/decide (top-1 is the
// chosen target's registry ID), and always says where it came from:
//
//   - remote:   the daemon answered a plain request.
//   - hedged:   the daemon answered, but it was the hedge — a duplicate
//     fired after a p99-derived delay — that won the race.
//   - fallback: the daemon was unreachable (circuit open, or every
//     retry failed) and the verdict came from the in-process
//     compiled-model runtime. Because the analytical models are
//     deterministic, a fallback verdict is bit-for-bit the verdict the
//     daemon would have served.
//
// The resilience pipeline, outermost first: request coalescing (identical
// in-flight decide-only requests share one network call, duplicates inside
// a DecideBatch one item); a consecutive-failure circuit breaker; retries
// with exponential backoff + jitter that honor Retry-After; hedging of
// idempotent requests; connection pooling. Every stage is instrumented
// (Metrics / WritePrometheus, hybridselc_ namespace), mirroring the
// daemon's own exposition.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// Provenance says which path produced a Verdict.
type Provenance string

// Provenance values.
const (
	ProvenanceRemote   Provenance = "remote"
	ProvenanceHedged   Provenance = "hedged"
	ProvenanceFallback Provenance = "fallback"
)

// Transport values carried on Verdict: which encoding/transport served
// it. Local marks fallback verdicts served in-process.
const (
	TransportStream     = "stream"
	TransportHTTPBinary = "http-binary"
	TransportHTTPJSON   = "http-json"
	TransportLocal      = "local"
)

// Verdict is a decision with its delivery story. Response.Verdict is
// the chosen target's registry ID ("cpu/base", "gpu/prev", ...; "split"
// for a cooperative split) and Response.Candidates the full ranking, so
// callers comparing verdicts from different paths (hedged vs primary,
// fallback vs daemon) compare target identities, not a CPU/GPU boolean.
type Verdict struct {
	Response server.DecideResponseV2
	// Provenance is remote, hedged, or fallback.
	Provenance Provenance
	// Attempts counts passes down the transport ladder consumed (0 for
	// a pure-fallback verdict served while the breaker was open).
	Attempts int
	// Coalesced marks a verdict served by another caller's identical
	// in-flight request rather than a network call of its own.
	Coalesced bool
	// Transport says which transport served the verdict (stream,
	// http-binary, http-json, or local for fallback verdicts), so
	// callers and load gates can attribute throughput per transport.
	Transport string
	// Replica is the cluster member ID that served the verdict when the
	// call went through a ClusterClient ("" for single-daemon clients
	// and for in-process fallback verdicts), so callers can audit
	// routing: owner for plain verdicts, the ring successor for hedged
	// and failed-over ones.
	Replica string
}

// ErrCircuitOpen reports that the breaker rejected the call and no
// fallback runtime was configured.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// Defaults applied by New for zero Config fields.
const (
	DefaultMaxAttempts     = 4
	DefaultRetryBackoff    = 20 * time.Millisecond
	DefaultTimeout         = 2 * time.Second
	DefaultBreakerFailures = 5
	DefaultBreakerCooldown = 500 * time.Millisecond
	DefaultHedgeMinSamples = 20
	// DefaultStreamConns is the stream connection pool size when
	// Config.StreamConns is zero.
	DefaultStreamConns = 2
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

	// MaxAttempts bounds passes down the transport ladder per logical
	// call, first try included. 0 selects DefaultMaxAttempts; 1 disables
	// retries.
	MaxAttempts int
	// RetryBackoff is the base backoff, doubled per attempt with ±50%
	// jitter, capped at one second. A server Retry-After longer than the
	// computed backoff wins.
	RetryBackoff time.Duration
	// Timeout is the per-attempt deadline. 0 selects DefaultTimeout.
	Timeout time.Duration

	// HedgeAfter fixes the hedging delay. 0 derives it from the observed
	// p99 attempt latency (no hedging until HedgeMinSamples successes).
	// Only idempotent (decide-only) calls are hedged — Execute requests
	// dispatch work and are never duplicated.
	HedgeAfter      time.Duration
	HedgeMinSamples int
	DisableHedging  bool

	// BreakerFailures consecutive eligible failures open the breaker;
	// it stays open for BreakerCooldown, then half-opens for one probe.
	BreakerFailures int
	BreakerCooldown time.Duration

	// Seed fixes the backoff-jitter RNG for reproducible runs (0 = 1).
	Seed int64

	// Binary puts the compact frame format (wire.ContentType) on the
	// transport ladder above JSON, over the same pooled connections. A
	// peer that turns out not to speak frames — an old daemon, a
	// JSON-rewriting middlebox — demotes the rung once, stickily, and the
	// same attempt goes out again as JSON: no verdict is lost to the
	// negotiation (Metrics.WireDowngrades counts it).
	Binary bool
	// RegionParams, when non-nil with Binary set, returns a region's
	// canonical parameter names in sorted order (nil/mismatched length
	// = unknown region). Requests whose binding names are exactly those
	// params ride the slot-vector wire form — values only plus a key
	// hash — which the daemon copies straight into its pooled slot
	// vectors. Without the hook, frames carry named bindings, which is
	// still far cheaper than JSON.
	RegionParams func(region string) []string

	// Stream puts a small pool of persistent multiplexed frame-stream
	// connections (StreamConns of them, redialed with backoff) on top of
	// the ladder for decide-only single requests. A dead, drained or
	// reconnecting connection falls through to HTTP inside the same
	// attempt — it costs latency, never a verdict; an endpoint that does
	// not speak the stream dialect demotes the rung stickily. Execute
	// and batch requests always use HTTP.
	Stream bool
	// StreamAddr is the daemon's raw TCP stream listener
	// (hybridseld -stream-addr). Empty negotiates the stream over the
	// HTTP port via Upgrade on GET /v1/stream.
	StreamAddr string
	// StreamConns is the stream connection pool size. 0 selects
	// DefaultStreamConns.
	StreamConns int
}

// Client is a resilient hybridseld client. Safe for concurrent use.
type Client struct {
	cfg     Config
	breaker *breaker
	met     counters
	ladder  []*rung // stream, HTTP frames, HTTP JSON: those Config enables
	// Hedge-delay estimation is per transport: stream and HTTP attempt
	// latencies live in different regimes (no per-request framing vs
	// full request/response cycles), so mixing them would fire stream
	// hedges on stale HTTP p99s and vice versa.
	latHTTP   latencySampler
	latStream latencySampler

	jmu sync.Mutex
	rng *rand.Rand

	fmu      sync.Mutex
	inflight map[string]*flight
}

// flight is one in-progress decide, shared by its coalesced callers.
type flight struct {
	done chan struct{}
	v    *Verdict
	err  error
}

// withDefaults validates cfg and fills its zero fields with defaults.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.BaseURL == "" {
		return cfg, errors.New("client: Config.BaseURL is required")
	}
	cfg.BaseURL = strings.TrimSuffix(cfg.BaseURL, "/")
	orDefault(&cfg.MaxAttempts, DefaultMaxAttempts)
	orDefault(&cfg.RetryBackoff, DefaultRetryBackoff)
	orDefault(&cfg.Timeout, DefaultTimeout)
	orDefault(&cfg.BreakerFailures, DefaultBreakerFailures)
	orDefault(&cfg.BreakerCooldown, DefaultBreakerCooldown)
	orDefault(&cfg.HedgeMinSamples, DefaultHedgeMinSamples)
	orDefault(&cfg.StreamConns, DefaultStreamConns)
	if cfg.Seed == 0 {
		cfg.Seed = 1
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

// New builds a client for the daemon at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		inflight: map[string]*flight{},
	}
	c.breaker = newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown,
		func(from, to BreakerState) { c.met.breakerTransition(to) })
	c.buildLadder()
	return c, nil
}

// Close tears down any pooled stream connections. In-flight calls finish
// (stream in-flight fail over to HTTP via the normal retry path).
func (c *Client) Close() {
	for _, r := range c.ladder {
		r.Close()
	}
}

// BreakerState returns the circuit breaker's current state.
func (c *Client) BreakerState() BreakerState { return c.breaker.State() }

// Metrics returns a snapshot of the client's instrumentation.
func (c *Client) Metrics() Metrics { return c.met.snapshot(c.breaker.State()) }

// requestKey canonicalizes a request for coalescing.
func requestKey(req server.DecideRequest) string {
	key := req.Region + "\x00" + attrdb.BindingsKey(symbolic.Bindings(req.Bindings))
	if req.Execute {
		key += "\x00x"
	}
	return key
}

// Decide returns a verdict for one decision request. Identical
// decide-only requests in flight at once share a single network call.
func (c *Client) Decide(ctx context.Context, req server.DecideRequest) (*Verdict, error) {
	c.met.requests.Add(1)
	if req.Execute {
		// Execute dispatches work on the daemon: no coalescing with
		// decide-only traffic, and never hedged.
		return c.decideOne(ctx, req)
	}
	return c.decideCoalesced(ctx, req)
}

// decideCoalesced funnels identical concurrent decide-only requests into
// one in-flight call.
func (c *Client) decideCoalesced(ctx context.Context, req server.DecideRequest) (*Verdict, error) {
	key := requestKey(req)
	c.fmu.Lock()
	if fl, ok := c.inflight[key]; ok {
		c.fmu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err != nil {
			return nil, fl.err
		}
		c.met.coalesced.Add(1)
		v := *fl.v
		v.Coalesced = true
		return &v, nil
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.fmu.Unlock()

	v, err := c.decideOne(ctx, req)
	fl.v, fl.err = v, err
	c.fmu.Lock()
	delete(c.inflight, key)
	c.fmu.Unlock()
	close(fl.done)
	return v, err
}

// decideOne sends one request in the single form.
func (c *Client) decideOne(ctx context.Context, req server.DecideRequest) (*Verdict, error) {
	vs, err := c.remoteOrFallback(ctx, []server.DecideRequest{req}, false)
	if err != nil {
		return nil, err
	}
	return &vs[0], nil
}

// DecideBatch returns verdicts for a slice of requests, positionally.
// The batch goes out as one /v2/decide call with duplicate requests
// coalesced client-side; per-item failures are carried in each verdict's
// Response.Error envelope exactly as the daemon reports them. When the
// daemon is unreachable every item degrades to the fallback runtime.
func (c *Client) DecideBatch(ctx context.Context, reqs []server.DecideRequest) ([]Verdict, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	c.met.requests.Add(uint64(len(reqs)))
	c.met.batchCalls.Add(1)

	// Client-side coalescing: send each distinct request once, marking a
	// request Coalesced as its key is found to have been seen.
	out := make([]Verdict, len(reqs))
	unique := make([]server.DecideRequest, 0, len(reqs))
	slot := make([]int, len(reqs)) // request index -> unique index
	byKey := map[string]int{}
	for i, req := range reqs {
		key := requestKey(req)
		u, seen := byKey[key]
		if !seen {
			u = len(unique)
			byKey[key] = u
			unique = append(unique, req)
		} else {
			c.met.coalesced.Add(1)
		}
		slot[i], out[i].Coalesced = u, seen
	}

	vs, err := c.remoteOrFallback(ctx, unique, true)
	if err != nil {
		return nil, err
	}
	for i, u := range slot {
		dup := out[i].Coalesced
		out[i] = vs[u]
		out[i].Coalesced = dup
	}
	return out, nil
}

// remoteOrFallback is the per-call pipeline of single and batch calls
// alike: breaker → retries (+hedging) down the transport ladder → the
// in-process fallback runtime. batch selects the batch form; otherwise
// reqs holds exactly one request.
func (c *Client) remoteOrFallback(ctx context.Context, reqs []server.DecideRequest, batch bool) ([]Verdict, error) {
	vs, attempts, rerr := c.roundTrip(ctx, reqs, batch)
	if rerr == nil {
		c.met.remoteOK.Add(1)
		return vs, nil
	}
	if permanent(rerr) {
		return nil, rerr
	}
	if c.cfg.Fallback == nil {
		return nil, fmt.Errorf("%w (fallback: %w)", rerr, errNoFallback)
	}
	vs = make([]Verdict, len(reqs))
	for i, req := range reqs {
		vs[i] = localVerdict(c.cfg.Fallback, req, attempts)
		if vs[i].Response.Error != nil {
			c.met.fallbackErrors.Add(1)
		}
		c.met.fallbacks.Add(1)
	}
	return vs, nil
}

var errNoFallback = errors.New("client: no fallback runtime configured")

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

// ------------------------------------------------------------ retries --

// callErr is one failed attempt, classified for the retry loop; attempt
// returns no other kind of error.
type callErr struct {
	err        error
	retryable  bool
	breaker    bool // counts toward the circuit breaker
	retryAfter time.Duration
}

func (e *callErr) Error() string { return e.err.Error() }

// roundTrip runs the breaker → hedged attempt → backoff loop and returns
// the verdicts of the first attempt that succeeds, stamped with the
// attempt count and, when the hedge won the race, hedged provenance.
func (c *Client) roundTrip(ctx context.Context, reqs []server.DecideRequest, batch bool) ([]Verdict, int, error) {
	// Only idempotent calls are hedged: an Execute request dispatches
	// work and is never duplicated.
	canHedge := !slices.ContainsFunc(reqs, func(r server.DecideRequest) bool { return r.Execute })
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if !c.breaker.Allow() {
			if lastErr != nil {
				return nil, attempt - 1, fmt.Errorf("%w after %w", ErrCircuitOpen, lastErr)
			}
			return nil, attempt - 1, ErrCircuitOpen
		}
		vs, hedgeWon, err := c.hedgedAttempt(ctx, reqs, batch, canHedge)
		if err == nil {
			c.breaker.Success()
			for i := range vs {
				vs[i].Attempts = attempt
				if hedgeWon {
					vs[i].Provenance = ProvenanceHedged
				}
			}
			return vs, attempt, nil
		}
		var cerr *callErr
		if !errors.As(err, &cerr) {
			// The caller's context ended the race: final, and not the
			// daemon's fault.
			cerr = &callErr{err: err}
		}
		if cerr.breaker {
			c.breaker.Failure()
		}
		lastErr = cerr.err
		if !cerr.retryable {
			return nil, attempt, lastErr
		}
		if attempt == c.cfg.MaxAttempts || ctx.Err() != nil {
			break
		}
		c.met.retries.Add(1)
		d := c.backoff(attempt)
		if cerr.retryAfter > d {
			d = cerr.retryAfter
			c.met.retryAfterHonored.Add(1)
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, attempt, fmt.Errorf("client: %w (last attempt: %w)", ctx.Err(), lastErr)
		}
	}
	return nil, c.cfg.MaxAttempts,
		fmt.Errorf("client: %d attempts failed, last: %w", c.cfg.MaxAttempts, lastErr)
}

// backoff computes the jittered exponential delay after a given attempt.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBackoff << (attempt - 1)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	c.jmu.Lock()
	j := c.rng.Float64()
	c.jmu.Unlock()
	// Uniform in [d/2, 3d/2): desynchronizes retry storms.
	return d/2 + time.Duration(j*float64(d))
}

// hedgedAttempt runs one attempt, racing a duplicate after the hedge
// delay when allowed. It reports whether the hedge produced the result.
func (c *Client) hedgedAttempt(ctx context.Context, reqs []server.DecideRequest, batch, canHedge bool) ([]Verdict, bool, error) {
	delay := c.hedgeDelay(canHedge, c.startsOnStream(streamable(reqs, batch)))
	if delay <= 0 {
		vs, err := c.attempt(ctx, reqs, batch)
		return vs, false, err
	}
	vs, hedgeWon, _, err := hedgeRace(ctx, delay, &c.met.hedges, &c.met.hedgeWins,
		func(ctx context.Context, _ bool) ([]Verdict, error) { return c.attempt(ctx, reqs, batch) })
	return vs, hedgeWon, err
}

// hedgeRace runs run(ctx, false) and, if delay passes before it returns,
// run(ctx, true) beside it. The first success wins and cancels the
// other; when all have failed the primary's error is preferred (the
// hedge's is usually a cancellation echo). launched says how many ran;
// hedges and wins count duplicates launched and won.
func hedgeRace[T any](ctx context.Context, delay time.Duration, hedges, wins *atomic.Uint64,
	run func(ctx context.Context, hedge bool) (T, error)) (v T, hedgeWon bool, launched int, err error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		v     T
		err   error
		hedge bool
	}
	results := make(chan outcome, 2)
	launch := func(hedge bool) {
		v, err := run(actx, hedge)
		results <- outcome{v: v, err: err, hedge: hedge}
	}
	go launch(false)

	timer := time.NewTimer(delay)
	defer timer.Stop()
	launched = 1
	for returned := 0; ; {
		select {
		case out := <-results:
			returned++
			if out.err == nil {
				if out.hedge {
					wins.Add(1)
				}
				return out.v, out.hedge, launched, nil
			}
			if err == nil || !out.hedge {
				err = out.err
			}
			if returned == launched {
				return v, false, launched, err
			}
		case <-timer.C:
			if launched == 1 {
				launched = 2
				hedges.Add(1)
				go launch(true)
			}
		case <-ctx.Done():
			return v, false, launched, ctx.Err()
		}
	}
}

// hedgeDelay returns the delay before a duplicate request is launched
// (0 = hedging off for this call). stream selects which transport's
// latency estimate to derive the delay from: the sampler matching the
// transport the attempt will actually use, so a client that switched
// transports never hedges on the other transport's stale p99.
func (c *Client) hedgeDelay(canHedge, stream bool) time.Duration {
	if !canHedge || c.cfg.DisableHedging {
		return 0
	}
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	lat := &c.latHTTP
	if stream {
		lat = &c.latStream
	}
	p99 := lat.p99(c.cfg.HedgeMinSamples)
	if p99 <= 0 {
		return 0
	}
	// Clamp: hedging below 500µs just doubles load; above half the
	// attempt timeout it cannot win before the primary times out.
	if p99 < 500*time.Microsecond {
		p99 = 500 * time.Microsecond
	}
	if max := c.cfg.Timeout / 2; p99 > max {
		p99 = max
	}
	return p99
}

// --------------------------------------------------------- latency p99 --

// latencySampler keeps a ring of recent successful attempt latencies and
// serves a cached p99 for hedge-delay derivation.
type latencySampler struct {
	mu      sync.Mutex
	ring    [256]int64
	n       int // total observations
	cached  time.Duration
	cachedN int
}

func (s *latencySampler) observe(d time.Duration) {
	s.mu.Lock()
	s.ring[s.n%len(s.ring)] = int64(d)
	s.n++
	s.mu.Unlock()
}

// p99 returns the 99th percentile of the ring, or 0 with fewer than min
// observations. Recomputed every 32 observations; cached in between.
func (s *latencySampler) p99(min int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < min {
		return 0
	}
	if s.cachedN != 0 && s.n-s.cachedN < 32 {
		return s.cached
	}
	size := s.n
	if size > len(s.ring) {
		size = len(s.ring)
	}
	buf := make([]int64, size)
	copy(buf, s.ring[:size])
	// Insertion sort: size ≤ 256 and this runs every 32 observations.
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	s.cached = time.Duration(buf[(size-1)*99/100])
	s.cachedN = s.n
	return s.cached
}
