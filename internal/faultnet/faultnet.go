// Package faultnet is a deterministic in-process fault-injection proxy
// for the hybridseld decision service. It stands between a client and the
// daemon as a plain HTTP forwarder and injects network pathologies on
// demand: added latency and jitter, bandwidth caps, abrupt connection
// resets, truncated responses, 5xx bursts, and full partitions.
//
// Determinism is the point: every probabilistic choice is drawn from one
// seeded RNG under a lock, in request-arrival order, and each request
// consumes a fixed number of draws regardless of the active fault set —
// so for a fixed seed and a serialized request sequence the injected
// fault pattern is exactly reproducible, which is what lets the chaos
// suite assert end-to-end client behaviour instead of "ran some chaos,
// nothing crashed".
//
// The fault set is reconfigurable at runtime (SetFaults) and scriptable
// as a timed Scenario (scenario.go): a sequence of (duration, fault-set)
// steps such as flap, brownout, or partition→heal.
package faultnet

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is one fault configuration. The zero value injects nothing and
// forwards transparently. Rates are probabilities in [0, 1]; for each
// request the proxy draws partition/reset first, then the error burst,
// then response truncation — so the total fault probability is
// reset + (1-reset)·err + (1-reset)·(1-err)·trunc.
type Faults struct {
	// Latency is added before the request is forwarded; Jitter adds a
	// uniform [0, Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration
	// BandwidthBps caps the response-body copy rate (bytes/second).
	// 0 = unlimited.
	BandwidthBps int64
	// ResetRate is the probability of closing the client connection
	// abruptly without writing a response.
	ResetRate float64
	// TruncateRate is the probability of advertising the full
	// Content-Length but closing the connection halfway through the body.
	TruncateRate float64
	// ErrorRate is the probability of answering ErrorCode (default 503)
	// without forwarding; RetryAfter, when set, is advertised on the
	// injected error as a Retry-After header (seconds).
	ErrorRate  float64
	ErrorCode  int
	RetryAfter time.Duration
	// Partition drops every request with a connection reset.
	Partition bool
}

// Active reports whether the configuration injects anything at all.
func (f Faults) Active() bool {
	return f != Faults{}
}

// String renders the fault set in the scenario DSL ("off" when inactive).
func (f Faults) String() string {
	if !f.Active() {
		return "off"
	}
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if f.Partition {
		add("partition")
	}
	if f.Latency > 0 {
		add("lat=" + f.Latency.String())
	}
	if f.Jitter > 0 {
		add("jit=" + f.Jitter.String())
	}
	if f.BandwidthBps > 0 {
		add("bw=" + strconv.FormatInt(f.BandwidthBps, 10))
	}
	if f.ResetRate > 0 {
		add("reset=" + strconv.FormatFloat(f.ResetRate, 'g', -1, 64))
	}
	if f.TruncateRate > 0 {
		add("trunc=" + strconv.FormatFloat(f.TruncateRate, 'g', -1, 64))
	}
	if f.ErrorRate > 0 {
		add("err=" + strconv.FormatFloat(f.ErrorRate, 'g', -1, 64))
	}
	if f.ErrorCode != 0 {
		add("code=" + strconv.Itoa(f.ErrorCode))
	}
	if f.RetryAfter > 0 {
		add("retryafter=" + f.RetryAfter.String())
	}
	return strings.Join(parts, ",")
}

// Stats counts what the proxy did, by outcome. Forwarded counts requests
// that reached the upstream and whose response was relayed intact
// (possibly delayed or bandwidth-capped).
type Stats struct {
	Requests    uint64
	Forwarded   uint64
	Delayed     uint64
	Throttled   uint64
	Partitions  uint64
	Resets      uint64
	Truncations uint64
	Errors      uint64 // injected 5xx
	UpstreamErr uint64 // upstream unreachable (mapped to 502)
}

// String renders the counters on one line for run summaries.
func (s Stats) String() string {
	return fmt.Sprintf(
		"requests=%d forwarded=%d delayed=%d throttled=%d partitions=%d resets=%d truncations=%d injected5xx=%d upstreamErr=%d",
		s.Requests, s.Forwarded, s.Delayed, s.Throttled,
		s.Partitions, s.Resets, s.Truncations, s.Errors, s.UpstreamErr)
}

// Proxy is the fault-injection forwarder. Create with New, point traffic
// at the address returned by Start, reconfigure with SetFaults (or drive
// a Scenario with Run).
type Proxy struct {
	target string // upstream base URL, e.g. "http://127.0.0.1:8080"
	client *http.Client

	mu     sync.Mutex
	rng    *rand.Rand
	faults Faults

	requests, forwarded, delayed, throttled atomic.Uint64
	partitions, resets, truncations         atomic.Uint64
	errors, upstreamErr                     atomic.Uint64

	srv      *http.Server
	listener net.Listener
}

// New builds a proxy forwarding to the target base URL, with every
// probabilistic fault decision drawn from a RNG seeded with seed.
func New(target string, seed int64) *Proxy {
	return &Proxy{
		target: strings.TrimSuffix(target, "/"),
		rng:    rand.New(rand.NewSource(seed)),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
			},
		},
	}
}

// SetFaults swaps the active fault configuration.
func (p *Proxy) SetFaults(f Faults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// Faults returns the active fault configuration.
func (p *Proxy) Faults() Faults {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.faults
}

// Stats returns a point-in-time snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Requests:    p.requests.Load(),
		Forwarded:   p.forwarded.Load(),
		Delayed:     p.delayed.Load(),
		Throttled:   p.throttled.Load(),
		Partitions:  p.partitions.Load(),
		Resets:      p.resets.Load(),
		Truncations: p.truncations.Load(),
		Errors:      p.errors.Load(),
		UpstreamErr: p.upstreamErr.Load(),
	}
}

// Start binds addr (":0" for an ephemeral port) and serves the proxy on a
// background goroutine. It returns the bound address.
func (p *Proxy) Start(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	p.listener = l
	p.srv = &http.Server{Handler: p}
	go func() { _ = p.srv.Serve(l) }()
	return l.Addr().String(), nil
}

// Close stops the listener and in-flight forwarding.
func (p *Proxy) Close() error {
	if p.srv == nil {
		return nil
	}
	return p.srv.Close()
}

// draw snapshots the fault set and consumes the request's random numbers.
// Every request consumes exactly the same number of draws whatever the
// configuration, so the (seed, arrival-order) → fault mapping is stable
// across configurations.
func (p *Proxy) draw() (f Faults, reset, errp, trunc, jit float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f = p.faults
	reset = p.rng.Float64()
	errp = p.rng.Float64()
	trunc = p.rng.Float64()
	jit = p.rng.Float64()
	return f, reset, errp, trunc, jit
}

// ServeHTTP applies the active fault set to one request.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Whole responses are relayed, so no upgraded connection: refused before
	// the draw, so a client probing for one moves no seeded fault schedule.
	if r.Header.Get("Upgrade") != "" {
		http.Error(w, "faultnet: cannot relay an Upgrade", http.StatusNotImplemented)
		return
	}
	p.requests.Add(1)
	f, reset, errp, trunc, jit := p.draw()

	if f.Partition {
		p.partitions.Add(1)
		abort(w)
		return
	}
	if reset < f.ResetRate {
		p.resets.Add(1)
		abort(w)
		return
	}
	if d := f.Latency + time.Duration(jit*float64(f.Jitter)); d > 0 {
		p.delayed.Add(1)
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			abort(w)
			return
		}
	}
	if errp < f.ErrorRate {
		p.errors.Add(1)
		code := f.ErrorCode
		if code == 0 {
			code = http.StatusServiceUnavailable
		}
		if f.RetryAfter > 0 {
			w.Header().Set("Retry-After",
				strconv.FormatFloat(f.RetryAfter.Seconds(), 'g', -1, 64))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"error":"faultnet: injected %d"}`, code)
		return
	}

	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		p.target+r.URL.RequestURI(), r.Body)
	if err != nil {
		p.upstreamErr.Add(1)
		http.Error(w, "faultnet: "+err.Error(), http.StatusBadGateway)
		return
	}
	out.Header = r.Header.Clone()
	// RFC 9110 §7.6.1: what describes the client's connection to the proxy,
	// and what its Connection header names, is not forwarded onto the next.
	for _, h := range append(strings.Split(strings.Join(r.Header.Values("Connection"), ","), ","),
		"Connection", "Keep-Alive", "Proxy-Connection", "TE", "Transfer-Encoding", "Upgrade") {
		out.Header.Del(strings.TrimSpace(h))
	}
	resp, err := p.client.Do(out)
	if err != nil {
		p.upstreamErr.Add(1)
		http.Error(w, "faultnet: upstream: "+err.Error(), http.StatusBadGateway)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		p.upstreamErr.Add(1)
		http.Error(w, "faultnet: upstream body: "+err.Error(), http.StatusBadGateway)
		return
	}

	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	// The body was drained above, so the advertised length is exact even
	// when the upstream streamed chunks — which is what makes truncation
	// below observable as a hard error, not a short-but-valid response.
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)

	if trunc < f.TruncateRate && len(body) > 1 {
		p.truncations.Add(1)
		_, _ = w.Write(body[:len(body)/2])
		abort(w)
		return
	}
	if f.BandwidthBps > 0 {
		p.throttled.Add(1)
		p.copyThrottled(w, r, body, f.BandwidthBps)
	} else {
		_, _ = w.Write(body)
	}
	p.forwarded.Add(1)
}

// copyThrottled writes body at roughly bps bytes/second in 10ms slices.
func (p *Proxy) copyThrottled(w http.ResponseWriter, r *http.Request, body []byte, bps int64) {
	const tick = 10 * time.Millisecond
	chunk := int(bps / int64(time.Second/tick))
	if chunk < 1 {
		chunk = 1
	}
	fl, _ := w.(http.Flusher)
	for off := 0; off < len(body); off += chunk {
		end := off + chunk
		if end > len(body) {
			end = len(body)
		}
		if _, err := w.Write(body[off:end]); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
		if end == len(body) {
			return
		}
		select {
		case <-time.After(tick):
		case <-r.Context().Done():
			return
		}
	}
}

// abort terminates the client connection without a well-formed response:
// the hijacked conn is closed mid-stream, which the client observes as a
// reset/EOF transport error. Falls back to http.ErrAbortHandler when the
// writer cannot be hijacked (HTTP/2, test recorders).
func abort(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			_ = conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}
