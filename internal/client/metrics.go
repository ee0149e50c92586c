package client

import "github.com/hybridsel/hybridsel/internal/metrics"

// counters is one endpoint's hot-path instrumentation: plain atomics, no
// locks on the request path. A counter that describes a call (requests,
// coalesced, batchCalls, fallbacks, fallbackErrors) is bumped on the
// first endpoint of the call's route; one that describes an attempt (the
// rest) on the endpoint the attempt addressed.
type counters struct {
	requests        metrics.Counter
	remoteOK        metrics.Counter
	retries         metrics.Counter
	fallbacks       metrics.Counter
	fallbackErrors  metrics.Counter
	coalesced       metrics.Counter
	batchCalls      metrics.Counter
	sheds           metrics.Counter
	transportErrors metrics.Counter
	serverErrors    metrics.Counter
	permanentErrors metrics.Counter

	retryAfterHonored metrics.Counter

	wireCalls     metrics.Counter
	wireDemotions metrics.Counter

	streamCalls      metrics.Counter
	streamWrites     metrics.Counter
	streamFallbacks  metrics.Counter
	streamReconnects metrics.Counter
	streamDemotions  metrics.Counter
	leaseHits        metrics.Counter

	breakerOpened   metrics.Counter
	breakerHalfOpen metrics.Counter
	breakerClosed   metrics.Counter
}

// breakerTransition records a breaker state change by destination state.
func (m *counters) breakerTransition(to BreakerState) {
	switch to {
	case BreakerOpen:
		m.breakerOpened.Add(1)
	case BreakerHalfOpen:
		m.breakerHalfOpen.Add(1)
	case BreakerClosed:
		m.breakerClosed.Add(1)
	}
}

// Metrics is a point-in-time snapshot of one endpoint's counters: a
// Client's, or one replica's of a ClusterClient.
type Metrics struct {
	// Requests counts logical decision requests handed to the client
	// (each item of a DecideBatch counts once) — in a cluster, those
	// routed to this replica first.
	Requests uint64
	// RemoteOK counts network calls that returned a usable 200.
	RemoteOK uint64
	// Retries counts re-asks after a sleep: the route wrapped with this
	// endpoint the first to be asked again.
	Retries uint64
	// Deprecated: always 0; hedging was removed. bench/ still reads it (ROADMAP 6(a)).
	Hedges uint64
	// Fallbacks counts verdicts served by the in-process runtime;
	// FallbackErrors counts item-level model errors inside those.
	Fallbacks      uint64
	FallbackErrors uint64
	// Coalesced counts requests that shared another caller's network
	// call instead of making their own.
	Coalesced uint64
	// BatchCalls counts batch calls issued: one per DecideBatch, or per
	// owner group of a cluster's.
	BatchCalls uint64
	// Sheds counts 429 responses (daemon admission control).
	Sheds uint64
	// TransportErrors counts connection/read failures (resets,
	// truncations, timeouts); ServerErrors counts 5xx responses;
	// PermanentErrors counts non-retryable 4xx responses.
	TransportErrors uint64
	ServerErrors    uint64
	PermanentErrors uint64
	// RetryAfterHonored counts backoffs stretched to a server-provided
	// Retry-After (delay-seconds or HTTP-date form).
	RetryAfterHonored uint64
	// WireCalls counts attempts sent in the binary frame format;
	// WireDowngrades counts sticky downgrades to JSON after the peer
	// answered frames with something that is not the frame protocol.
	WireCalls      uint64
	WireDowngrades uint64
	// StreamCalls counts decides sent over the stream transport;
	// StreamFallbacks counts attempts that fell through to HTTP after a
	// stream transport failure (dead connection, Goaway, backoff);
	// StreamReconnects counts pool slots redialed after a connection
	// died; StreamDowngrades counts sticky downgrades to HTTP framing
	// after the peer proved it does not speak the stream dialect.
	StreamCalls      uint64
	StreamWrites     uint64 // conn.Write calls that carried StreamCalls: fewer, when callers share them
	StreamFallbacks  uint64
	StreamReconnects uint64
	StreamDowngrades uint64
	// LeaseHits counts verdicts served from a lease (TransportLease): no
	// network call.
	LeaseHits uint64
	// BreakerOpened/HalfOpen/Closed count transitions into each state;
	// BreakerState is the state at snapshot time.
	BreakerOpened   uint64
	BreakerHalfOpen uint64
	BreakerClosed   uint64
	BreakerState    BreakerState
}

// series is the one table of the client's counters: exposition name and
// help, the live counter, and the field of out a snapshot reads it into.
func (m *counters) series(out *Metrics) []counterSeries {
	return []counterSeries{
		{"hybridselc_requests_total", "Logical decision requests handed to the client.", &m.requests, &out.Requests},
		{"hybridselc_remote_ok_total", "Network calls that returned a usable response.", &m.remoteOK, &out.RemoteOK},
		{"hybridselc_retries_total", "Re-attempts after retryable failures.", &m.retries, &out.Retries},
		{"hybridselc_fallback_total", "Verdicts served by the in-process fallback runtime.", &m.fallbacks, &out.Fallbacks},
		{"hybridselc_fallback_errors_total", "Item-level model errors inside fallback verdicts.", &m.fallbackErrors, &out.FallbackErrors},
		{"hybridselc_coalesced_total", "Requests served by another caller's in-flight call.", &m.coalesced, &out.Coalesced},
		{"hybridselc_batch_calls_total", "Batched network calls issued.", &m.batchCalls, &out.BatchCalls},
		{"hybridselc_shed_total", "429 responses from daemon admission control.", &m.sheds, &out.Sheds},
		{"hybridselc_transport_errors_total", "Connection, timeout, and truncated-body failures.", &m.transportErrors, &out.TransportErrors},
		{"hybridselc_server_errors_total", "HTTP 5xx responses.", &m.serverErrors, &out.ServerErrors},
		{"hybridselc_permanent_errors_total", "Non-retryable HTTP 4xx responses.", &m.permanentErrors, &out.PermanentErrors},
		{"hybridselc_retry_after_honored_total", "Backoffs stretched to a server Retry-After.", &m.retryAfterHonored, &out.RetryAfterHonored},
		{"hybridselc_wire_calls_total", "Attempts sent in the binary frame format.", &m.wireCalls, &out.WireCalls},
		{"hybridselc_wire_downgrades_total", "Sticky downgrades from binary frames to JSON.", &m.wireDemotions, &out.WireDowngrades},
		{"hybridselc_stream_calls_total", "Decides sent over the stream transport.", &m.streamCalls, &out.StreamCalls},
		{"hybridselc_stream_writes_total", "conn.Write calls on stream connections; below calls when requests share a write.", &m.streamWrites, &out.StreamWrites},
		{"hybridselc_stream_fallbacks_total", "Attempts that failed over from stream to HTTP.", &m.streamFallbacks, &out.StreamFallbacks},
		{"hybridselc_stream_reconnects_total", "Stream pool slots redialed after connection death.", &m.streamReconnects, &out.StreamReconnects},
		{"hybridselc_stream_downgrades_total", "Sticky downgrades from stream transport to HTTP.", &m.streamDemotions, &out.StreamDowngrades},
		{"hybridselc_lease_hits_total", "Verdicts served from a lease, with no network call.", &m.leaseHits, &out.LeaseHits},
		{"hybridselc_breaker_open_total", "Circuit breaker transitions to open.", &m.breakerOpened, &out.BreakerOpened},
		{"hybridselc_breaker_half_open_total", "Circuit breaker transitions to half-open.", &m.breakerHalfOpen, &out.BreakerHalfOpen},
		{"hybridselc_breaker_close_total", "Circuit breaker transitions to closed.", &m.breakerClosed, &out.BreakerClosed},
	}
}

type counterSeries struct {
	name, help string
	counter    *metrics.Counter
	field      *uint64
}

// Metrics returns a snapshot of the client's instrumentation.
func (c *Client) Metrics() Metrics {
	ep := c.route[0]
	out := Metrics{BreakerState: ep.breaker.State()}
	for _, s := range ep.met.series(&out) {
		*s.field = s.counter.Load()
	}
	return out
}

// RegisterMetrics declares the client's series on s under the hybridselc_
// namespace (beside the daemon's hybridseld_ and the runtime's hybridsel_,
// so one scrape config covers all three sides of a deployment). labels
// are key, value pairs put on every sample: a ClusterClient registers its
// replicas' views with replica=<id> so each family appears once.
func (c *Client) RegisterMetrics(s *metrics.Set, labels ...string) {
	ep := c.route[0]
	for _, d := range ep.met.series(new(Metrics)) {
		s.Counter(d.name, d.help, d.counter, labels...)
	}
	s.GaugeFunc("hybridselc_breaker_state", "Current breaker state (0=closed, 1=open, 2=half-open).",
		func() float64 { return float64(ep.breaker.State()) }, labels...)
}
