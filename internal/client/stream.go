package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/offload"
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
// call claims one of the connection's waiter slots — one per unit of the
// server-granted credit window — and responses are correlated by stream
// ID, which names the slot, so completions arrive out of order without
// blocking one another.
type StreamConn struct {
	conn  net.Conn
	slots []waiter
	shift uint // a stream ID is seq<<shift | slot

	// free is the stack of unclaimed slots: the top slot's index+1 in the
	// low 32 bits (0: empty), and above them a count of its changes, so a
	// claim that read a stale top fails its swap. While it is empty,
	// starved claimers wait for wake, which has room for a wake per slot:
	// a release finds it full only when it already holds a wake for every
	// slot that can be free.
	free    atomic.Uint64
	starved atomic.Int32
	wake    chan struct{}

	away atomic.Bool
	dead atomic.Bool
	done chan struct{} // closed when the connection dies
	mu   sync.Mutex
	err  error // why it died

	// epoch is the newest decision epoch the server told of (a stamp or a
	// TypeEpoch frame), in wire order: a lease granted at an older one is void.
	epoch atomic.Uint64

	// out combines concurrent callers' request frames into shared writes:
	// theirs ride the flusher's conn.Write, and a failed write fails flusher
	// and riders alike, through die. While responses arrive several to a
	// read (bursty) the flusher yields once per write, so that the callers
	// they woke get their next requests aboard.
	out    *wire.StreamWriter
	seq    uint64         // requests written; out's lock guards it
	bursty atomic.Bool    // the read loop's last drain held several responses
	writes *atomic.Uint64 // conn.Write calls; a pool points it at its metrics
}

// A waiter slot carries one call at a time: claimed, it is a unit of
// credit in flight, until the answer (or the connection's death) has been
// taken from ch. A call that gives up first leaves the slot abandoned, and
// the answer, when it comes, only frees it. Every change of state is a
// swap of tag, which names the call by its sequence number, so an answer
// to any other call than the slot's own — a late one, a repeated one —
// changes nothing.
type waiter struct {
	ch   chan *wire.Response // the answer; nil when the connection died
	tag  atomic.Uint64       // seq<<2 | state; seq 0 until the call's frame is appended
	next atomic.Uint32       // the free slot below this one on the stack (index+1)
}

// Waiter slot states, the low two bits of a tag.
const (
	slotFree      = iota // on the free stack
	slotWaiting          // claimed, its call waiting for the answer
	slotAnswered         // the answer (or nil) sent on ch, not yet taken
	slotAbandoned        // its call gave up; the answer frees the slot
)

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
	// A caller that gives up mid-handshake is not
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
		conn:   conn,
		slots:  make([]waiter, credit),
		shift:  uint(bits.Len(uint(credit - 1))),
		wake:   make(chan struct{}, credit),
		done:   make(chan struct{}),
		writes: new(atomic.Uint64),
	}
	sc.out = &wire.StreamWriter{W: conn, Yield: sc.bursty.Load,
		Wrote: func(int) { sc.writes.Add(1) },
		Fail:  func(err error) { sc.die(fmt.Errorf("%w: write: %v", errStreamBroken, err)) }}
	for i := credit - 1; i >= 0; i-- {
		sc.slots[i].ch = make(chan *wire.Response, 1)
		sc.push(uint32(i))
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
	return !sc.dead.Load() && !sc.away.Load()
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
	i, err := sc.claim(ctx, expire)
	if err != nil {
		return nil, err
	}
	w := &sc.slots[i]
	w.tag.Store(slotWaiting)
	if sc.dead.Load() || sc.away.Load() { // a die that missed the slot's claim is seen here
		if !w.tag.CompareAndSwap(slotWaiting, slotFree) {
			<-w.ch // die failed it first
		}
		sc.release(i)
		if sc.dead.Load() {
			return nil, sc.deathErr()
		}
		return nil, errStreamGoaway
	}

	// The sequence number is taken where the frame is appended, so stream
	// IDs leave in order. A swap that fails is a die's: its nil is in ch.
	buf := sc.out.Begin()
	sc.seq++
	seq := sc.seq
	w.tag.CompareAndSwap(slotWaiting, seq<<2|slotWaiting)
	sc.out.End(wire.AppendStreamRequest(buf, seq<<sc.shift|uint64(i), req), false)

	var resp *wire.Response
	if ctx.Done() == nil && expire == nil {
		resp = <-w.ch
	} else {
		select {
		case resp = <-w.ch:
		case <-ctx.Done():
			err = ctx.Err()
		case <-expire:
			err = context.DeadlineExceeded
		}
		if err != nil {
			if w.tag.CompareAndSwap(seq<<2|slotWaiting, seq<<2|slotAbandoned) {
				return nil, err // the slot, and its credit unit, stay claimed until the answer arrives
			}
			resp = <-w.ch // answered meanwhile: the answer is in ch, or about to be
		}
	}
	sc.release(i)
	if resp == nil {
		return nil, sc.deathErr()
	}
	return resp, nil
}

// claim pops a free waiter slot, waiting while every unit of credit is in
// flight.
func (sc *StreamConn) claim(ctx context.Context, expire <-chan time.Time) (uint32, error) {
	for {
		if i, ok := sc.pop(); ok {
			return i, nil
		}
		sc.starved.Add(1)
		i, ok := sc.pop() // a slot freed before the count rose sent no wake
		var err error
		if !ok {
			select {
			case <-sc.wake:
				i, ok = sc.pop()
			case <-sc.done:
				err = sc.deathErr()
			case <-ctx.Done():
				err = ctx.Err()
			case <-expire:
				err = context.DeadlineExceeded
			}
		}
		sc.starved.Add(-1)
		if ok || err != nil {
			return i, err
		}
	}
}

// release returns slot i, and its unit of credit, to the free stack.
func (sc *StreamConn) release(i uint32) {
	sc.slots[i].tag.Store(slotFree)
	sc.push(i)
	if sc.starved.Load() > 0 {
		select {
		case sc.wake <- struct{}{}:
		default: // full: a wake is waiting for every slot that can be free
		}
	}
}

func (sc *StreamConn) push(i uint32) {
	for {
		top := sc.free.Load()
		sc.slots[i].next.Store(uint32(top))
		if sc.free.CompareAndSwap(top, (top>>32+1)<<32|uint64(i+1)) {
			return
		}
	}
}

func (sc *StreamConn) pop() (uint32, bool) {
	for {
		top := sc.free.Load()
		i := uint32(top)
		if i == 0 {
			return 0, false
		}
		if sc.free.CompareAndSwap(top, (top>>32+1)<<32|uint64(sc.slots[i-1].next.Load())) {
			return i - 1, true
		}
	}
}

// deliver hands a response to the call waiting on the slot its stream ID
// names. An answer to an abandoned call frees the slot; one to an ID that
// is not in flight (answered already, or never sent) is dropped.
func (sc *StreamConn) deliver(id uint64, resp *wire.Response) {
	i, seq := id&(1<<sc.shift-1), id>>sc.shift
	if i >= uint64(len(sc.slots)) || seq == 0 {
		return
	}
	w := &sc.slots[i]
	switch {
	case w.tag.CompareAndSwap(seq<<2|slotWaiting, seq<<2|slotAnswered):
		w.ch <- resp
	case w.tag.CompareAndSwap(seq<<2|slotAbandoned, slotFree):
		sc.release(uint32(i))
	}
}

func (sc *StreamConn) readLoop(sr *wire.StreamReader) {
	delivered := 0 // responses since the reader's buffer last ran dry
	var f wire.Frame
	for {
		if !sr.FrameBuffered() {
			sc.bursty.Store(delivered > 1)
			delivered = 0
		}
		if err := sr.NextInto(&f); err != nil {
			sc.die(fmt.Errorf("%w: read: %v", errStreamBroken, err))
			return
		}
		switch f.Type {
		case wire.TypeStreamResponse:
			sc.heard(f.Resp.Epoch)
			sc.deliver(f.StreamID, f.Resp)
			delivered++
		case wire.TypeEpoch:
			sc.heard(f.Epoch)
		case wire.TypeGoaway:
			sc.away.Store(true)
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

// heard raises the connection's epoch to e; the read loop is its one writer.
func (sc *StreamConn) heard(e uint64) {
	if e > sc.epoch.Load() {
		sc.epoch.Store(e)
	}
}

// die marks the connection dead, fails every waiting call through its
// slot, frees the abandoned slots, and closes the socket. Idempotent.
func (sc *StreamConn) die(err error) {
	sc.mu.Lock()
	if sc.err != nil {
		sc.mu.Unlock()
		return
	}
	sc.err = err
	sc.mu.Unlock()
	sc.dead.Store(true)
	close(sc.done)
	for i := range sc.slots {
		sc.fail(uint32(i))
	}
	sc.conn.Close()
}

// fail ends what slot i carries on a dead connection: a waiting call gets
// nil, an abandoned slot is freed. It retries a swap lost to the slot's
// call taking its sequence number or giving up, and leaves the slot to
// whoever else changed it.
func (sc *StreamConn) fail(i uint32) {
	w := &sc.slots[i]
	for {
		switch tag := w.tag.Load(); tag & 3 {
		case slotWaiting:
			if w.tag.CompareAndSwap(tag, tag&^3|slotAnswered) {
				w.ch <- nil
				return
			}
		case slotAbandoned:
			if w.tag.CompareAndSwap(tag, slotFree) {
				sc.release(i)
				return
			}
		default:
			return
		}
	}
}

func (sc *StreamConn) deathErr() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.err
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
	conn    atomic.Pointer[StreamConn] // written under mu
	mu      sync.Mutex
	dialed  bool // a connection existed before (reconnects count)
	retryAt time.Time
	backoff time.Duration
}

// get returns a usable connection from the next slot, dialing if the
// slot is empty or its connection has died or drained — under ctx and by
// deadline, so a silent peer costs the attempt, not a stuck slot.
func (t *streamTransport) get(ctx context.Context, deadline time.Time) (*StreamConn, error) {
	sl := &t.slots[int(t.next.Add(1))%len(t.slots)]
	if sc := sl.conn.Load(); sc != nil && sc.Usable() {
		return sc, nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sc := sl.conn.Load(); sc != nil {
		if sc.Usable() { // redialed meanwhile
			return sc, nil
		}
		sc.Close()
		sl.conn.Store(nil)
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
	sl.conn.Store(sc)
	return sc, nil
}

// Close tears down every pooled connection.
func (t *streamTransport) Close() {
	for i := range t.slots {
		sl := &t.slots[i]
		sl.mu.Lock()
		if sc := sl.conn.Swap(nil); sc != nil {
			sc.Close()
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
		wr := toWireRequest(reqs[0], t.params)
		vs, _, _, err := t.single(ctx, time.Time{}, &wr)
		return vs, err
	}
	sc, err := t.get(ctx, time.Time{})
	if err != nil {
		return nil, err
	}
	vs := make([]Verdict, len(reqs))
	errs := make(chan error, len(reqs))
	for i := range reqs {
		go func() {
			wr := toWireRequest(reqs[i], t.params)
			_, err := t.one(ctx, nil, sc, &wr, &vs[i], nil)
			errs <- err
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
// the wait up at deadline (zero: with ctx alone); it returns the connection
// that answered and its epoch stamp (0: unstamped).
func (t *streamTransport) single(ctx context.Context, deadline time.Time, wr *wire.Request) ([]Verdict, *StreamConn, uint64, error) {
	sc, err := t.get(ctx, deadline)
	if err != nil {
		return nil, nil, 0, err
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
	h := new(held)
	epoch, err := t.one(ctx, expire, sc, wr, &h.vs[0], h.cands[:0])
	if err != nil {
		return nil, nil, 0, err
	}
	if e := h.vs[0].Response.Error; e != nil {
		return nil, nil, 0, refused(e.Code, e.Message, e.RetryAfter)
	}
	return h.vs[:], sc, epoch, nil
}

// one sends one request on sc, fills v (candidates into cands) and returns its stamp.
func (t *streamTransport) one(ctx context.Context, expire <-chan time.Time, sc *StreamConn, wr *wire.Request, v *Verdict, cands []offload.Candidate) (uint64, error) {
	t.met.streamCalls.Add(1)
	resp, err := sc.decide(ctx, wr, expire)
	if err != nil {
		return 0, err
	}
	*v = Verdict{Response: wireToResponseV2(resp, cands), Provenance: ProvenanceRemote, Attempts: 1, Transport: TransportStream}
	return resp.Epoch, nil
}
