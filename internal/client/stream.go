package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file is the client half of the persistent stream transport
// (internal/wire stream envelope): a small pool of long-lived
// connections carrying pipelined decide frames tagged with stream IDs,
// so steady-state decisions cost one frame each way, concurrent callers
// sharing writes — no per-request HTTP parsing, no connection churn.
//
// Which of its failures fall through to HTTP and which demote the rung
// is the ladder's business (ladder.go); here a peer that provably does
// not speak the dialect (wrong version byte, no credit handshake, upgrade
// refused) is errDialect, and a per-stream error response a *RemoteError.

// Stream transport errors. All are transport-level: the request was
// never (or may never be) answered, and the caller should fail over to
// HTTP.
var (
	errStreamBroken  = errors.New("client: stream connection broken")
	errStreamGoaway  = errors.New("client: stream connection drained by server")
	errStreamBackoff = errors.New("client: stream reconnect backing off")
)

// StreamDialConfig configures one raw stream connection (DialStream).
type StreamDialConfig struct {
	// Addr is the raw TCP stream address (hybridseld -stream-addr).
	// When empty, URL's host is dialed and the connection is negotiated
	// via HTTP Upgrade on GET /v1/stream.
	Addr string
	// URL is the daemon base URL, e.g. "http://127.0.0.1:8080". Only
	// plain http URLs can upgrade; TLS endpoints are a protocol error.
	URL string
}

// StreamConn is one persistent multiplexed stream connection. It is
// safe for concurrent use: many goroutines may Decide at once, each
// call claims a stream ID and a unit of the server-granted credit
// window, and responses are correlated by ID so completions arrive out
// of order without blocking one another.
type StreamConn struct {
	conn   net.Conn
	sem    chan struct{} // credit tokens
	nextID atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]chan *wire.Response
	idle    []chan *wire.Response // waiter channels of answered calls, empty again
	away    bool
	dead    bool
	err     error
	done    chan struct{} // closed when the connection dies

	// out combines concurrent callers' request frames into shared writes:
	// theirs ride the flusher's conn.Write, and a failed write fails flusher
	// and riders alike, through die. While responses arrive several to a
	// read (bursty) the flusher yields once per write, so that the callers
	// they woke get their next requests aboard.
	out    *wire.StreamWriter
	bursty atomic.Bool    // the read loop's last drain held several responses
	writes *atomic.Uint64 // conn.Write calls; a pool points it at its metrics
}

// DialStream opens and handshakes one stream connection: dial (raw TCP
// or HTTP Upgrade), then read the server's TypeCredit grant. A peer
// that answers with anything else does not speak the protocol.
func DialStream(cfg StreamDialConfig) (*StreamConn, error) {
	return dialStream(context.Background(), cfg, time.Time{})
}

// dialStream is DialStream for a caller that may give up: dial and
// handshake end with ctx, and by the earliest of ctx's deadline, the
// given one (zero: none) and defaultTimeout from now.
func dialStream(ctx context.Context, cfg StreamDialConfig, deadline time.Time) (*StreamConn, error) {
	if by := time.Now().Add(defaultTimeout); deadline.IsZero() || by.Before(deadline) {
		deadline = by
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	deadline, _ = ctx.Deadline()
	addr, host := cfg.Addr, ""
	if addr == "" {
		u, err := url.Parse(cfg.URL)
		if err != nil {
			return nil, fmt.Errorf("%w: parse URL: %v", errDialect, err)
		}
		if u.Scheme != "http" {
			return nil, fmt.Errorf("%w: cannot upgrade %q endpoints", errDialect, u.Scheme)
		}
		if addr, host = u.Host, u.Host; u.Port() == "" {
			addr = net.JoinHostPort(u.Hostname(), "80")
		}
	}
	raw, err := new(net.Dialer).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	// A caller that gives up mid-handshake — its hedge answered — is not
	// kept to the deadline by a peer that accepted and says nothing.
	stop := context.AfterFunc(ctx, func() { _ = raw.SetDeadline(time.Now()) })
	defer stop()
	conn := raw
	if host != "" {
		_ = raw.SetDeadline(deadline)
		if conn, err = upgrade(raw, host); err != nil {
			return nil, err
		}
	}
	sc, err := newStreamConn(conn, deadline)
	if err == nil && !stop() { // ctx ended with the handshake: its deadline may land on the live connection
		sc.Close()
		return nil, ctx.Err()
	}
	return sc, err
}

// newStreamConn handshakes a dialed connection, closing it on failure.
func newStreamConn(conn net.Conn, deadline time.Time) (*StreamConn, error) {
	_ = conn.SetDeadline(deadline)
	sr := wire.NewStreamReader(conn)
	f, err := sr.Next()
	if err != nil || f.Type != wire.TypeCredit || f.Credit == 0 {
		conn.Close()
		if errors.Is(err, wire.ErrVersion) || errors.Is(err, wire.ErrMalformed) || err == nil {
			return nil, fmt.Errorf("%w: handshake: %v", errDialect, err)
		}
		return nil, fmt.Errorf("stream handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	credit := int(min(f.Credit, 1<<16))
	sc := &StreamConn{
		conn:    conn,
		sem:     make(chan struct{}, credit),
		waiters: make(map[uint64]chan *wire.Response, credit),
		done:    make(chan struct{}),
		writes:  new(atomic.Uint64),
	}
	sc.out = &wire.StreamWriter{W: conn, Yield: sc.bursty.Load,
		Wrote: func(int) { sc.writes.Add(1) },
		Fail:  func(err error) { sc.die(fmt.Errorf("%w: write: %v", errStreamBroken, err)) }}
	for i := 0; i < credit; i++ {
		sc.sem <- struct{}{}
	}
	go sc.readLoop(sr)
	return sc, nil
}

// upgrade negotiates the stream over a connection to the HTTP port via
// GET /v1/stream with Upgrade: hybridsel-stream, closing it on failure.
// Only an answer proves the peer does not speak the dialect; a connection
// that fails before one is a transport failure like any other.
func upgrade(conn net.Conn, host string) (net.Conn, error) {
	req := "GET /v1/stream HTTP/1.1\r\nHost: " + host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + server.StreamUpgradeProto + "\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err == nil && resp.StatusCode == http.StatusSwitchingProtocols {
		// The server speaks immediately after the 101; any bytes it
		// pipelined behind the response sit in br, so wrap it.
		return &bufferedConn{Conn: conn, r: br}, nil
	}
	conn.Close()
	var ne net.Error
	switch {
	case err == nil:
		resp.Body.Close()
		return nil, fmt.Errorf("%w: upgrade refused with HTTP %d", errDialect, resp.StatusCode)
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ne):
		return nil, fmt.Errorf("upgrade response: %w", err)
	}
	return nil, fmt.Errorf("%w: upgrade response: %v", errDialect, err)
}

// bufferedConn reads through the bufio.Reader that may hold bytes the
// server sent right behind its 101 response.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// Usable reports whether the connection can accept new streams (alive
// and not drained by a server Goaway).
func (sc *StreamConn) Usable() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return !sc.dead && !sc.away
}

// Close tears the connection down, failing any in-flight streams.
func (sc *StreamConn) Close() error {
	sc.die(errStreamBroken)
	return nil
}

// Decide sends one request on a fresh stream and waits for the matching
// response. Transport-level failures (connection death, Goaway, credit
// wait cut short by ctx) return an error and the caller should fail
// over; a response with Err set is returned as-is for the caller to
// classify, exactly like an HTTP error envelope.
func (sc *StreamConn) Decide(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	return sc.decide(ctx, req, nil)
}

// decide is Decide, given up on when expire fires too.
func (sc *StreamConn) decide(ctx context.Context, req *wire.Request, expire <-chan time.Time) (*wire.Response, error) {
	// Claim a unit of the credit window; the reader returns it when the
	// response (any response) arrives.
	select {
	case <-sc.sem:
	case <-sc.done:
		return nil, sc.deathErr()
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-expire:
		return nil, context.DeadlineExceeded
	}
	id := sc.nextID.Add(1)
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		return nil, sc.deathErr()
	}
	if sc.away {
		sc.mu.Unlock()
		sc.sem <- struct{}{}
		return nil, errStreamGoaway
	}
	var ch chan *wire.Response
	if n := len(sc.idle); n > 0 {
		ch, sc.idle = sc.idle[n-1], sc.idle[:n-1]
	} else {
		ch = make(chan *wire.Response, 1)
	}
	sc.waiters[id] = ch
	sc.mu.Unlock()

	sc.out.End(wire.AppendStreamRequest(sc.out.Begin(), id, req), false)
	var err error
	select {
	case resp := <-ch:
		// The one send ch was registered for has been received: it is empty
		// and the reader has let go of it. A call giving up below leaves its ch.
		sc.mu.Lock()
		sc.idle = append(sc.idle, ch)
		sc.mu.Unlock()
		return resp, nil
	case <-sc.done:
		return nil, sc.deathErr()
	case <-ctx.Done():
		err = ctx.Err()
	case <-expire:
		err = context.DeadlineExceeded
	}
	sc.mu.Lock()
	delete(sc.waiters, id)
	sc.mu.Unlock()
	// The credit unit stays claimed until the server's response
	// arrives; the reader returns it even with no waiter left.
	return nil, err
}

func (sc *StreamConn) readLoop(sr *wire.StreamReader) {
	delivered := 0 // responses since the reader's buffer last ran dry
	for {
		if !sr.FrameBuffered() {
			sc.bursty.Store(delivered > 1)
			delivered = 0
		}
		var f wire.Frame // in place: only the Response the caller keeps is allocated
		if err := sr.NextInto(&f); err != nil {
			sc.die(fmt.Errorf("%w: read: %v", errStreamBroken, err))
			return
		}
		switch f.Type {
		case wire.TypeStreamResponse:
			sc.mu.Lock()
			ch := sc.waiters[f.StreamID]
			delete(sc.waiters, f.StreamID)
			sc.mu.Unlock()
			if ch != nil {
				ch <- f.Resp
			}
			delivered++
			// Return the credit unit (also for abandoned waiters).
			select {
			case sc.sem <- struct{}{}:
			default:
			}
		case wire.TypeGoaway:
			sc.mu.Lock()
			sc.away = true
			sc.mu.Unlock()
		case wire.TypeCredit:
			// Re-grants are not resized mid-connection; ignore.
		case wire.TypeError:
			sc.die(fmt.Errorf("%w: server: %s: %s", errStreamBroken, f.Err.Code, f.Err.Message))
			return
		default:
			sc.die(fmt.Errorf("%w: unexpected frame type %d", errDialect, f.Type))
			return
		}
	}
}

// die marks the connection dead, fails every in-flight stream, and
// closes the socket. Idempotent.
func (sc *StreamConn) die(err error) {
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		return
	}
	sc.dead = true
	sc.err = err
	sc.waiters = nil
	close(sc.done)
	sc.mu.Unlock()
	sc.conn.Close()
}

func (sc *StreamConn) deathErr() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.err != nil {
		return sc.err
	}
	return errStreamBroken
}

// ----------------------------------------------------------- transport --

// streamTransport is the stream rung: a pool of persistent connections,
// dead slots redialed with exponential backoff. Calls round-robin across
// slots; a slot mid-backoff or mid-drain answers errStreamBackoff and
// the ladder fails over to HTTP for that attempt.
type streamTransport struct {
	dial   StreamDialConfig
	params func(region string) []string
	met    *counters
	next   atomic.Uint64
	slots  []streamSlot
}

type streamSlot struct {
	mu      sync.Mutex
	conn    *StreamConn
	dialed  bool // a connection existed before (reconnects count)
	retryAt time.Time
	backoff time.Duration
}

// get returns a usable connection from the next slot, dialing if the
// slot is empty or its connection has died or drained — under ctx and by
// deadline, so a silent peer costs the attempt, not a stuck slot.
func (t *streamTransport) get(ctx context.Context, deadline time.Time) (*StreamConn, error) {
	sl := &t.slots[int(t.next.Add(1))%len(t.slots)]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.conn != nil && sl.conn.Usable() {
		return sl.conn, nil
	}
	if sl.conn != nil {
		sl.conn.Close()
		sl.conn = nil
	}
	if time.Now().Before(sl.retryAt) {
		return nil, errStreamBackoff
	}
	sc, err := dialStream(ctx, t.dial, deadline)
	if err != nil {
		sl.backoff = min(max(2*sl.backoff, 20*time.Millisecond), 2*time.Second)
		sl.retryAt = time.Now().Add(sl.backoff)
		return nil, err
	}
	if sl.dialed {
		t.met.streamReconnects.Add(1)
	}
	sl.dialed = true
	sl.backoff = 0
	sc.writes = &t.met.streamWrites
	sl.conn = sc
	return sc, nil
}

// Close tears down every pooled connection.
func (t *streamTransport) Close() {
	for i := range t.slots {
		sl := &t.slots[i]
		sl.mu.Lock()
		if sl.conn != nil {
			sl.conn.Close()
			sl.conn = nil
		}
		sl.mu.Unlock()
	}
}

// Send runs the call over one pooled connection. A batch on a stream is
// its items pipelined on that connection, completing out of order, with
// item refusals riding inside the verdicts like any batch; a single's
// refusal is the call's error.
func (t *streamTransport) Send(ctx context.Context, reqs []server.DecideRequest, batch bool) ([]Verdict, error) {
	if !batch {
		wr, _ := toWireRequest(reqs[0], t.params, nil, nil)
		return t.single(ctx, time.Time{}, &wr)
	}
	sc, err := t.get(ctx, time.Time{})
	if err != nil {
		return nil, err
	}
	vs := make([]Verdict, len(reqs))
	errs := make(chan error, len(reqs))
	for i := range reqs {
		go func() {
			wr, _ := toWireRequest(reqs[i], t.params, nil, nil)
			errs <- t.one(ctx, nil, sc, &wr, &vs[i])
		}()
	}
	for range reqs {
		if e := <-errs; e != nil {
			err = e
		}
	}
	if err != nil {
		return nil, err
	}
	return vs, nil
}

// timers holds stopped timers: a ladder attempt's deadline costs a Reset,
// not a context and a timer of its own.
var timers = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// single sends one decide-only request, already in frame form, and gives
// the wait up at deadline (zero: with ctx alone).
func (t *streamTransport) single(ctx context.Context, deadline time.Time, wr *wire.Request) ([]Verdict, error) {
	sc, err := t.get(ctx, deadline)
	if err != nil {
		return nil, err
	}
	var expire <-chan time.Time
	if !deadline.IsZero() {
		timer := timers.Get().(*time.Timer)
		select { // the tick of a deadline that lapsed just as its wait was answered
		case <-timer.C:
		default:
		}
		timer.Reset(time.Until(deadline))
		defer func() { timer.Stop(); timers.Put(timer) }()
		expire = timer.C
	}
	vs := make([]Verdict, 1)
	if err = t.one(ctx, expire, sc, wr, &vs[0]); err != nil {
		return nil, err
	}
	if e := vs[0].Response.Error; e != nil {
		return nil, refused(e.Code, e.Message, e.RetryAfter)
	}
	return vs, nil
}

// one sends one request on sc and fills v from the response.
func (t *streamTransport) one(ctx context.Context, expire <-chan time.Time, sc *StreamConn, wr *wire.Request, v *Verdict) error {
	t.met.streamCalls.Add(1)
	resp, err := sc.decide(ctx, wr, expire)
	if err != nil {
		return err
	}
	*v = Verdict{Response: wireToResponseV2(resp), Provenance: ProvenanceRemote, Attempts: 1, Transport: TransportStream}
	return nil
}
