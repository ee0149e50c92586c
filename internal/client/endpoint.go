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
	"time"

	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file is what the client keeps per daemon (endpoint): a stream,
// when Config.Stream asks for one, and one HTTP codec, plus the one send
// an attempt makes over them and the classification of what failed.

// Transport is one bare route to the daemon: a single encoding over a
// single kind of connection, with none of Client's coalescing, leases,
// retries, breaker or fallback around it. An endpoint holds a stream and
// an HTTP one; a load generator drives one directly so every call goes on
// the network.
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
	switch kind {
	case TransportStream:
		return newStreamTransport(&cfg, new(counters)), nil
	case TransportHTTPBinary, TransportHTTPJSON:
		return newHTTPTransport(kind == TransportHTTPBinary, &cfg, new(counters)), nil
	}
	return nil, fmt.Errorf("client: unknown transport %q", kind)
}

func newStreamTransport(cfg *Config, met *counters) *streamTransport {
	return &streamTransport{
		params: cfg.RegionParams,
		met:    met,
		slots:  make([]streamSlot, cfg.streamConns),
		dial:   StreamDialConfig{Addr: cfg.StreamAddr, URL: cfg.BaseURL},
	}
}

func newHTTPTransport(frames bool, cfg *Config, met *counters) *httpTransport {
	name := TransportHTTPJSON
	if frames {
		name = TransportHTTPBinary
	}
	return &httpTransport{
		name:   name,
		frames: frames,
		hc:     cfg.HTTPClient,
		url:    cfg.BaseURL + "/v2/decide",
		params: cfg.RegionParams,
		met:    met,
	}
}

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

// ------------------------------------------------------------- endpoint --

// endpoint is what the client keeps per daemon: its stream and its HTTP
// codec, the circuit breaker, the leases, and the counters of the
// attempts addressed to it. A Client has one; a ClusterClient one per
// member, shared with that member's view.
type endpoint struct {
	id      string // cluster member ID, "" for a single-daemon client
	breaker *breaker
	met     counters
	stream  *streamTransport // nil unless Config.Stream
	http    Transport        // frames when Config.Binary, else JSON
	leases  leases           // the verdicts its stream answered, served again at the launch site
}

// newEndpoint builds the endpoint for the daemon at cfg.BaseURL.
func newEndpoint(id string, cfg *Config) *endpoint {
	ep := &endpoint{id: id}
	ep.breaker = newBreaker(cfg.breakerFailures, cfg.breakerCooldown,
		func(from, to BreakerState) { ep.met.breakerTransition(to) })
	if cfg.Stream {
		ep.stream = newStreamTransport(cfg, &ep.met)
	}
	ep.http = newHTTPTransport(cfg.Binary, cfg, &ep.met)
	return ep
}

// close tears down the endpoint's pooled connections.
func (ep *endpoint) close() {
	if ep.stream != nil {
		ep.stream.Close()
	}
	ep.http.Close()
}

// callErr is one failed attempt, classified for the resilience loop.
type callErr struct {
	err        error
	retryable  bool
	breaker    bool // counts toward the circuit breaker
	retryAfter time.Duration
}

// send is one attempt, over by deadline. Only a decide-only single rides
// the stream, in the frame form the call already has and with the
// deadline as it is: a stream failure resends over HTTP, which must never
// duplicate an Execute's side effects. HTTP gets the deadline as a
// context.
func (ep *endpoint) send(ctx context.Context, deadline time.Time, a *ask) ([]Verdict, *callErr) {
	if ep.stream != nil && !a.batch && !a.reqs[0].Execute {
		vs, sc, epoch, err := ep.stream.single(ctx, deadline, &a.wr)
		if err == nil {
			if a.wr.Lease {
				ep.leases.grant(a, sc, epoch, &vs[0], ep.id)
			}
			return vs, nil
		}
		if _, answered := err.(*RemoteError); answered || ctx.Err() != nil || !time.Now().Before(deadline) {
			// The daemon's refusal, or the attempt's deadline cutting a
			// dial or a wait short: this attempt's outcome.
			return nil, ep.failed(err)
		}
		// A dial, Upgrade or handshake that did not work out, a dead
		// connection, Goaway, redial backoff: the call goes out over
		// HTTP now, and costs no verdict.
		ep.met.streamFallbacks.Add(1)
	}
	hctx, cancel := ctx, context.CancelFunc(func() {})
	if d, ok := ctx.Deadline(); !ok || deadline.Before(d) { // else the caller's deadline comes first
		hctx, cancel = context.WithDeadline(ctx, deadline)
	}
	vs, err := ep.http.Send(hctx, a.reqs, a.batch)
	cancel()
	if err != nil {
		return nil, ep.failed(err)
	}
	return vs, nil
}

// failed turns a failed send into the resilience loop's terms. A daemon
// refusal is classified by its class and counted once; anything else is
// a transport failure, retryable, that feeds the breaker.
func (ep *endpoint) failed(err error) *callErr {
	var re *RemoteError
	if !errors.As(err, &re) {
		return &callErr{err: err, retryable: true, breaker: true}
	}
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
		// A 200 that is not the answer asked for: retryable, like a
		// truncated body, and counted so an opened breaker says why.
		t.met.transportErrors.Add(1)
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

// decodeFrames fills vs from a 200 body answering a frame request:
// exactly one frame of the type the request asked for.
func decodeFrames(vs []Verdict, data []byte, contentType string, batch bool) error {
	if !wire.IsFrameContent(contentType) {
		return fmt.Errorf("client: frame response with Content-Type %q", contentType)
	}
	frames, err := wire.DecodeAll(data)
	switch {
	case err != nil:
		return fmt.Errorf("client: decode frame response: %w", err)
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
		return fmt.Errorf("client: %d response frames of unexpected type", len(frames))
	}
	return nil
}

// refusal builds the error for a non-200 answer. A frame attempt reads
// a TypeError frame when the peer answered in frames, else the JSON
// envelope (errors raised before content negotiation — shedding, drain
// — stay JSON).
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
