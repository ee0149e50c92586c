package client

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics is the client's hot-path instrumentation: plain atomics, no
// locks on the request path.
type metrics struct {
	requests        atomic.Uint64
	remoteOK        atomic.Uint64
	retries         atomic.Uint64
	hedges          atomic.Uint64
	hedgeWins       atomic.Uint64
	fallbacks       atomic.Uint64
	fallbackErrors  atomic.Uint64
	coalesced       atomic.Uint64
	batchCalls      atomic.Uint64
	sheds           atomic.Uint64
	transportErrors atomic.Uint64
	serverErrors    atomic.Uint64
	permanentErrors atomic.Uint64

	retryAfterHonored atomic.Uint64

	wireCalls     atomic.Uint64
	wireDemotions atomic.Uint64

	streamCalls      atomic.Uint64
	streamWrites     atomic.Uint64
	streamFallbacks  atomic.Uint64
	streamReconnects atomic.Uint64
	streamDemotions  atomic.Uint64

	breakerOpened   atomic.Uint64
	breakerHalfOpen atomic.Uint64
	breakerClosed   atomic.Uint64
}

// breakerTransition records a breaker state change by destination state.
func (m *metrics) breakerTransition(to BreakerState) {
	switch to {
	case BreakerOpen:
		m.breakerOpened.Add(1)
	case BreakerHalfOpen:
		m.breakerHalfOpen.Add(1)
	case BreakerClosed:
		m.breakerClosed.Add(1)
	}
}

// Metrics is a point-in-time snapshot of the client's counters.
type Metrics struct {
	// Requests counts logical decision requests handed to the client
	// (each item of a DecideBatch counts once).
	Requests uint64
	// RemoteOK counts network calls that returned a usable 200.
	RemoteOK uint64
	// Retries counts re-attempts after a retryable failure.
	Retries uint64
	// Hedges counts duplicate requests launched; HedgeWins counts the
	// hedged duplicate finishing first.
	Hedges    uint64
	HedgeWins uint64
	// Fallbacks counts verdicts served by the in-process runtime;
	// FallbackErrors counts item-level model errors inside those.
	Fallbacks      uint64
	FallbackErrors uint64
	// Coalesced counts requests that shared another caller's network
	// call instead of making their own.
	Coalesced uint64
	// BatchCalls counts batched network calls (DecideBatch or window
	// batching).
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
	// BreakerOpened/HalfOpen/Closed count transitions into each state;
	// BreakerState is the state at snapshot time.
	BreakerOpened   uint64
	BreakerHalfOpen uint64
	BreakerClosed   uint64
	BreakerState    BreakerState
}

func (m *metrics) snapshot(state BreakerState) Metrics {
	return Metrics{
		Requests:          m.requests.Load(),
		RemoteOK:          m.remoteOK.Load(),
		Retries:           m.retries.Load(),
		Hedges:            m.hedges.Load(),
		HedgeWins:         m.hedgeWins.Load(),
		Fallbacks:         m.fallbacks.Load(),
		FallbackErrors:    m.fallbackErrors.Load(),
		Coalesced:         m.coalesced.Load(),
		BatchCalls:        m.batchCalls.Load(),
		Sheds:             m.sheds.Load(),
		TransportErrors:   m.transportErrors.Load(),
		ServerErrors:      m.serverErrors.Load(),
		PermanentErrors:   m.permanentErrors.Load(),
		RetryAfterHonored: m.retryAfterHonored.Load(),
		WireCalls:         m.wireCalls.Load(),
		WireDowngrades:    m.wireDemotions.Load(),
		StreamCalls:       m.streamCalls.Load(),
		StreamWrites:      m.streamWrites.Load(),
		StreamFallbacks:   m.streamFallbacks.Load(),
		StreamReconnects:  m.streamReconnects.Load(),
		StreamDowngrades:  m.streamDemotions.Load(),
		BreakerOpened:     m.breakerOpened.Load(),
		BreakerHalfOpen:   m.breakerHalfOpen.Load(),
		BreakerClosed:     m.breakerClosed.Load(),
		BreakerState:      state,
	}
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format. The hybridselc_ namespace mirrors the daemon's hybridseld_ and
// the runtime's hybridsel_ expositions, so one scrape config covers all
// three sides of a deployment.
func (m Metrics) WritePrometheus(w io.Writer) error {
	var err error
	counter := func(name, help string, v uint64) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, help, name, name, v)
	}
	counter("hybridselc_requests_total", "Logical decision requests handed to the client.", m.Requests)
	counter("hybridselc_remote_ok_total", "Network calls that returned a usable response.", m.RemoteOK)
	counter("hybridselc_retries_total", "Re-attempts after retryable failures.", m.Retries)
	counter("hybridselc_hedges_total", "Hedged duplicate requests launched.", m.Hedges)
	counter("hybridselc_hedge_wins_total", "Hedged duplicates that finished first.", m.HedgeWins)
	counter("hybridselc_fallback_total", "Verdicts served by the in-process fallback runtime.", m.Fallbacks)
	counter("hybridselc_fallback_errors_total", "Item-level model errors inside fallback verdicts.", m.FallbackErrors)
	counter("hybridselc_coalesced_total", "Requests served by another caller's in-flight call.", m.Coalesced)
	counter("hybridselc_batch_calls_total", "Batched network calls issued.", m.BatchCalls)
	counter("hybridselc_shed_total", "429 responses from daemon admission control.", m.Sheds)
	counter("hybridselc_transport_errors_total", "Connection, timeout, and truncated-body failures.", m.TransportErrors)
	counter("hybridselc_server_errors_total", "HTTP 5xx responses.", m.ServerErrors)
	counter("hybridselc_permanent_errors_total", "Non-retryable HTTP 4xx responses.", m.PermanentErrors)
	counter("hybridselc_retry_after_honored_total", "Backoffs stretched to a server Retry-After.", m.RetryAfterHonored)
	counter("hybridselc_wire_calls_total", "Attempts sent in the binary frame format.", m.WireCalls)
	counter("hybridselc_wire_downgrades_total", "Sticky downgrades from binary frames to JSON.", m.WireDowngrades)
	counter("hybridselc_stream_calls_total", "Decides sent over the stream transport.", m.StreamCalls)
	counter("hybridselc_stream_writes_total", "conn.Write calls on stream connections; below calls when requests share a write.", m.StreamWrites)
	counter("hybridselc_stream_fallbacks_total", "Attempts that failed over from stream to HTTP.", m.StreamFallbacks)
	counter("hybridselc_stream_reconnects_total", "Stream pool slots redialed after connection death.", m.StreamReconnects)
	counter("hybridselc_stream_downgrades_total", "Sticky downgrades from stream transport to HTTP.", m.StreamDowngrades)
	counter("hybridselc_breaker_open_total", "Circuit breaker transitions to open.", m.BreakerOpened)
	counter("hybridselc_breaker_half_open_total", "Circuit breaker transitions to half-open.", m.BreakerHalfOpen)
	counter("hybridselc_breaker_close_total", "Circuit breaker transitions to closed.", m.BreakerClosed)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"# HELP hybridselc_breaker_state Current breaker state (0=closed, 1=open, 2=half-open).\n# TYPE hybridselc_breaker_state gauge\nhybridselc_breaker_state %d\n",
		int(m.BreakerState))
	return err
}
