package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file is what the client keeps per daemon (endpoint), chiefly its
// transport ladder:
//
//	stream → HTTP frames → HTTP JSON → (walks exhausted) local fallback
//
// An attempt starts at the first rung that is configured, not demoted,
// and able to carry the call, and moves down a rung on exactly two
// kinds of failure: the peer proved it does not speak the rung's
// dialect (the rung is demoted stickily), or a stream connection failed
// at the transport level (the rung stays — the endpoint may come back —
// and only this attempt moves on). Everything else ends the attempt: a
// *RemoteError is classified once, by class; an HTTP transport failure
// is retryable and feeds the breaker, since the rungs below share the
// same HTTP endpoint.

// Transport is one bare route to the daemon: a single encoding over a
// single kind of connection, with none of Client's coalescing, leases,
// retries, breaker or fallback around it. An endpoint is a ladder of them;
// a load generator drives one directly so every call goes on the network.
type Transport interface {
	// Send makes one call and returns one verdict per request, in
	// order, tagged with the transport. batch selects the batch form,
	// whose per-item failures ride inside the verdicts; otherwise reqs
	// holds one request, sent in the single form, whose failure is the
	// call's. Requests are encoded here, on use. The error is a
	// *RemoteError when the daemon answered with a refusal.
	Send(ctx context.Context, reqs []server.DecideRequest, batch bool) ([]Verdict, error)
	Close()
}

// NewTransport builds the bare transport of the given kind (one of the
// Transport* constants but local) from cfg's connection settings.
func NewTransport(kind string, cfg Config) (Transport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := newTransport(kind, &cfg, new(counters))
	if t == nil {
		return nil, fmt.Errorf("client: unknown transport %q", kind)
	}
	return t, nil
}

func newTransport(kind string, cfg *Config, met *counters) Transport {
	switch kind {
	case TransportStream:
		return &streamTransport{
			params: cfg.RegionParams,
			met:    met,
			slots:  make([]streamSlot, cfg.StreamConns),
			dial:   StreamDialConfig{Addr: cfg.StreamAddr, URL: cfg.BaseURL},
		}
	case TransportHTTPBinary, TransportHTTPJSON:
		return &httpTransport{
			name:   kind,
			frames: kind == TransportHTTPBinary,
			hc:     cfg.HTTPClient,
			url:    cfg.BaseURL + "/v2/decide",
			params: cfg.RegionParams,
			met:    met,
		}
	}
	return nil
}

// errDialect marks a failure proving the peer does not speak a
// transport's dialect at all (wrong version byte, no credit handshake,
// upgrade refused, a frame body answered with JSON).
var errDialect = errors.New("client: peer does not speak this transport's protocol")

// ------------------------------------------------------- remote errors --

// RemoteError is the daemon's answer when the answer is a refusal: the
// error envelope (or its TypeError frame / stream error twin) when the
// daemon sent one, otherwise whatever a proxy or old daemon put in the
// body. Status is the HTTP status, 0 on a stream.
type RemoteError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

// refused builds a RemoteError from the error envelope's fields.
func refused(code, message string, retryAfterSeconds float64) *RemoteError {
	return &RemoteError{Code: code, Message: message,
		RetryAfter: time.Duration(retryAfterSeconds * float64(time.Second))}
}

func (e *RemoteError) Error() string {
	msg := e.Message
	if e.Code != "" {
		msg = e.Code + ": " + e.Message
	}
	if e.Status == 0 {
		return "stream: " + msg
	}
	return fmt.Sprintf("HTTP %d: %s", e.Status, msg)
}

// class is the one mapping from a daemon refusal to a retry decision:
// permanent (neither: the request itself is wrong, so no retry and no
// fallback), shed (retryable only: deliberate load shedding by a healthy
// daemon, which the breaker must not count), or unavailable (both). A
// structured code decides outright; without one (proxies, old daemons)
// the HTTP status has to.
func (e *RemoteError) class() (retryable, breaker bool) {
	switch e.Code {
	case server.ErrCodeQueueFull:
		return true, false
	case server.ErrCodeDraining, server.ErrCodeDeadlineExceeded, server.ErrCodeInternal:
		return true, true
	case "":
		return e.Status == http.StatusTooManyRequests || e.Status >= 500, e.Status >= 500
	}
	return false, false
}

// Shed reports deliberate load shedding: backpressure, not a fault.
func (e *RemoteError) Shed() bool {
	retryable, breaker := e.class()
	return retryable && !breaker
}

// --------------------------------------------------------------- ladder --

// endpoint is what the client keeps per daemon: the transport ladder,
// the circuit breaker, the leases, and the counters of the attempts
// addressed to it. A Client has one; a ClusterClient one per member,
// shared with that member's view.
type endpoint struct {
	id      string // cluster member ID, "" for a single-daemon client
	breaker *breaker
	met     counters
	ladder  []*rung // stream, HTTP frames, HTTP JSON: those Config enables
	leases  leases  // the verdicts its stream answered, served again at the launch site
}

// rung is one transport on an endpoint's ladder.
type rung struct {
	Transport
	name string
	// down latches the sticky demotion; downgrades counts its one flip.
	down       atomic.Bool
	downgrades *atomic.Uint64
}

// newEndpoint builds the endpoint for the daemon at cfg.BaseURL.
func newEndpoint(id string, cfg *Config) *endpoint {
	ep := &endpoint{id: id}
	ep.breaker = newBreaker(cfg.breakerFailures, cfg.breakerCooldown,
		func(from, to BreakerState) { ep.met.breakerTransition(to) })
	add := func(kind string, downgrades *atomic.Uint64) {
		ep.ladder = append(ep.ladder, &rung{
			Transport: newTransport(kind, cfg, &ep.met),
			name:      kind, downgrades: downgrades,
		})
	}
	if cfg.Stream {
		add(TransportStream, &ep.met.streamDemotions)
	}
	if cfg.Binary {
		add(TransportHTTPBinary, &ep.met.wireDemotions)
	}
	add(TransportHTTPJSON, nil)
	return ep
}

// streamable reports whether the stream rung may carry the call: only
// decide-only singles. A stream failure resends over HTTP, which must
// never duplicate an Execute's side effects.
func (a *ask) streamable() bool {
	return !a.batch && !a.reqs[0].Execute
}

// carries reports whether the rung may take a call right now.
func (r *rung) carries(streamable bool) bool {
	return !r.down.Load() && (streamable || r.name != TransportStream)
}

// callErr is one failed attempt, classified for the resilience loop.
type callErr struct {
	err        error
	retryable  bool
	breaker    bool // counts toward the circuit breaker
	retryAfter time.Duration
}

// send is one pass down the ladder, over by deadline. The stream rung
// takes a single in the frame form the call already has, and the deadline
// as it is; an HTTP rung gets it as a context.
func (ep *endpoint) send(ctx context.Context, deadline time.Time, a *ask) ([]Verdict, *callErr) {
	var err error
	streamable := a.streamable()
	for _, r := range ep.ladder {
		if !r.carries(streamable) {
			continue
		}
		var vs []Verdict
		if st, ok := r.Transport.(*streamTransport); ok {
			var sc *StreamConn
			var epoch uint64
			if vs, sc, epoch, err = st.single(ctx, deadline, &a.wr); err == nil && a.wr.Lease {
				ep.leases.grant(a, sc, epoch, &vs[0], ep.id)
			}
		} else {
			hctx, cancel := ctx, context.CancelFunc(func() {})
			if d, ok := ctx.Deadline(); !ok || deadline.Before(d) { // else the caller's deadline comes first
				hctx, cancel = context.WithDeadline(ctx, deadline)
			}
			vs, err = r.Send(hctx, a.reqs, a.batch)
			cancel()
		}
		if err == nil {
			return vs, nil
		}
		var re *RemoteError
		switch {
		case errors.As(err, &re):
			return nil, ep.classify(re)
		case errors.Is(err, errDialect):
			// The daemon is healthy, just older (or behind a rewriting
			// proxy): demote, and resend on the next rung now.
			if r.down.CompareAndSwap(false, true) {
				r.downgrades.Add(1)
			}
		case r.name == TransportStream && ctx.Err() == nil && time.Now().Before(deadline):
			// Dead connection, Goaway, reconnect backoff: the in-flight
			// request fails over to HTTP now, and costs no verdict.
		default:
			// An HTTP failure — or the attempt deadline cutting a stream
			// dial or wait short: this attempt's outcome, not the connection's.
			return nil, &callErr{err: err, retryable: true, breaker: true}
		}
		if r.name == TransportStream {
			ep.met.streamFallbacks.Add(1)
		}
	}
	return nil, &callErr{err: err, retryable: true, breaker: true}
}

// classify turns a daemon refusal into the resilience loop's terms,
// counting it once.
func (ep *endpoint) classify(re *RemoteError) *callErr {
	retryable, breaker := re.class()
	switch {
	case !retryable:
		ep.met.permanentErrors.Add(1)
	case breaker:
		ep.met.serverErrors.Add(1)
	default:
		ep.met.sheds.Add(1)
	}
	return &callErr{err: re, retryable: retryable, breaker: breaker, retryAfter: re.RetryAfter}
}

// ------------------------------------------------------ HTTP transports --

// httpTransport is POST /v2/decide over pooled HTTP connections, with a
// JSON body or — frames set — the compact binary framing: slot-form
// binding vectors going out whenever params confirms the region's
// layout, ranked-candidate frames coming back.
type httpTransport struct {
	name   string
	frames bool
	hc     *http.Client
	url    string
	params func(region string) []string
	met    *counters
}

func (t *httpTransport) Close() {}

func (t *httpTransport) Send(ctx context.Context, reqs []server.DecideRequest, batch bool) ([]Verdict, error) {
	body, contentType, err := t.encode(reqs, batch)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if t.frames {
		t.met.wireCalls.Add(1)
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		t.met.transportErrors.Add(1)
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		// Truncated or reset mid-body: the response cannot be trusted.
		t.met.transportErrors.Add(1)
		return nil, fmt.Errorf("read body (HTTP %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, t.refusal(resp, data)
	}
	vs := make([]Verdict, len(reqs))
	if t.frames {
		err = decodeFrames(vs, data, resp.Header.Get("Content-Type"), batch)
	} else {
		err = decodeJSON(vs, data, batch)
	}
	if err != nil {
		return nil, err
	}
	for i := range vs {
		vs[i].Provenance, vs[i].Attempts, vs[i].Transport = ProvenanceRemote, 1, t.name
	}
	return vs, nil
}

func (t *httpTransport) encode(reqs []server.DecideRequest, batch bool) (body []byte, contentType string, err error) {
	switch {
	case t.frames && batch:
		wrs := make([]wire.Request, len(reqs))
		for i := range reqs {
			wrs[i] = toWireRequest(reqs[i], t.params)
		}
		return wire.AppendBatchRequest(nil, wrs), wire.ContentType, nil
	case t.frames:
		wr := toWireRequest(reqs[0], t.params)
		return wire.AppendRequest(nil, &wr), wire.ContentType, nil
	case batch:
		body, err = json.Marshal(struct {
			Requests []server.DecideRequest `json:"requests"`
		}{reqs})
	default:
		body, err = json.Marshal(reqs[0])
	}
	if err != nil {
		return nil, "", fmt.Errorf("client: encode request: %w", err)
	}
	return body, "application/json", nil
}

// decodeJSON fills vs from a 200 JSON body.
func decodeJSON(vs []Verdict, data []byte, batch bool) error {
	if !batch {
		if err := json.Unmarshal(data, &vs[0].Response); err != nil {
			return fmt.Errorf("client: decode response: %w", err)
		}
		return nil
	}
	var br server.BatchResponseV2
	if err := json.Unmarshal(data, &br); err != nil {
		return fmt.Errorf("client: decode batch response: %w", err)
	}
	if len(br.Results) != len(vs) {
		return fmt.Errorf("client: batch returned %d results for %d requests", len(br.Results), len(vs))
	}
	for i := range vs {
		vs[i].Response = br.Results[i]
	}
	return nil
}

// decodeFrames fills vs from a 200 body answering a frame request.
// Anything other than exactly one frame of the expected type means the
// peer is not actually speaking the protocol (a rewriting proxy, or
// something older): a dialect failure, not a fault.
func decodeFrames(vs []Verdict, data []byte, contentType string, batch bool) error {
	if !wire.IsFrameContent(contentType) {
		return fmt.Errorf("%w: response Content-Type %q", errDialect, contentType)
	}
	frames, err := wire.DecodeAll(data)
	switch {
	case err != nil:
		return fmt.Errorf("%w: frame response: %v", errDialect, err)
	case len(frames) == 1 && !batch && frames[0].Type == wire.TypeResponse:
		vs[0].Response = wireToResponseV2(frames[0].Resp, nil)
	case len(frames) == 1 && batch && frames[0].Type == wire.TypeBatchResponse:
		if len(frames[0].Resps) != len(vs) {
			return fmt.Errorf("client: batch returned %d results for %d requests", len(frames[0].Resps), len(vs))
		}
		for i := range vs {
			vs[i].Response = wireToResponseV2(&frames[0].Resps[i], nil)
		}
	default:
		return fmt.Errorf("%w: %d response frames of unexpected type", errDialect, len(frames))
	}
	return nil
}

// refusal builds the error for a non-200 answer. A frame attempt reads
// a TypeError frame when the peer answered in frames, else the JSON
// envelope (errors raised before content negotiation — shedding, drain
// — stay JSON). A JSON bad_request answering a frame body is an old
// daemon failing to parse frames as JSON: it does not speak them.
func (t *httpTransport) refusal(resp *http.Response, data []byte) error {
	var re *RemoteError
	if t.frames && wire.IsFrameContent(resp.Header.Get("Content-Type")) {
		if frames, err := wire.DecodeAll(data); err == nil && len(frames) == 1 && frames[0].Type == wire.TypeError {
			e := frames[0].Err
			re = refused(e.Code, e.Message, e.RetryAfterSeconds)
		}
	}
	if re == nil {
		re = parseErrBody(data)
		if t.frames && re.Code == server.ErrCodeBadRequest {
			return fmt.Errorf("%w: HTTP %d answering frames: %s", errDialect, resp.StatusCode, re.Message)
		}
	}
	re.Status = resp.StatusCode
	if ra := parseRetryAfter(resp.Header.Get("Retry-After")); ra != 0 {
		re.RetryAfter = ra
	}
	return re
}

// parseErrBody extracts the daemon's error from a non-2xx JSON body:
// the structured envelope when the daemon sent one, otherwise the legacy
// {"error": "..."} string or the raw body.
func parseErrBody(data []byte) *RemoteError {
	var env struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(data, &env) == nil && len(env.Error) > 0 {
		var ei server.ErrorInfo
		if env.Error[0] == '{' && json.Unmarshal(env.Error, &ei) == nil && ei.Code != "" {
			return refused(ei.Code, ei.Message, ei.RetryAfter)
		}
		var s string
		if json.Unmarshal(env.Error, &s) == nil && s != "" {
			return &RemoteError{Message: s}
		}
	}
	s := strings.TrimSpace(string(data))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return &RemoteError{Message: s}
}

// parseRetryAfter accepts both RFC 9110 Retry-After forms: delay-seconds
// (integer, plus the float extension the daemon emits for sub-second
// hints) and an HTTP-date, honored as the delay from now. A date in the
// past, like a negative delay, means "retry immediately" — zero.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if sec, err := strconv.ParseFloat(v, 64); err == nil {
		if sec < 0 {
			return 0
		}
		return time.Duration(sec * float64(time.Second))
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	if d := time.Until(t); d > 0 {
		return d
	}
	return 0
}
