package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file is the persistent face of the decision service: long-lived
// connections carrying pipelined stream frames (internal/wire stream
// envelope), so many in-flight decisions share one connection with no
// per-request HTTP parsing. Two front doors lead here — a raw TCP
// listener (ServeStream, hybridseld -stream-addr) and an HTTP
// Upgrade/hijack on GET /v1/stream of the existing port — and both run
// serveStreamConn, one goroutine per connection:
//
//   - the reader answers what it decodes: a decide never blocks, so the
//     goroutine that decoded the frame decides it and appends the response
//     to the connection's combining writer (wire.StreamWriter),
//   - a response waits only while another whole request already sits in
//     the reader's buffer, so a burst that arrived in one segment leaves
//     in one write with no flush timer and a lone response never waits,
//   - an execute — a simulated launch, the one stream request that can
//     wait — leaves the reader for a goroutine of its own, which takes an
//     execution slot; completions are therefore out of order by stream ID,
//   - flow control by credit instead of 429 churn: the server grants a
//     window on connect, requests beyond it answer queue_full on their
//     own stream, and each response implicitly returns one unit,
//   - graceful drain by Goaway: in-flight streams complete, later ones
//     answer a draining error, nothing is left hanging,
//   - leases on request: a Lease request's answer is stamped with the
//     runtime's epoch, read before deciding, and its connection gets a
//     second goroutine, pushEpochs, which tells it of every advance.

// StreamUpgradeProto is the Upgrade token negotiating a stream
// connection over the HTTP port.
const StreamUpgradeProto = "hybridsel-stream"

// streamRegistry tracks live stream listeners and connections for
// drain: Shutdown closes listeners, sends Goaway everywhere, and waits
// for connections to finish their in-flight streams.
type streamRegistry struct {
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*streamConn]struct{}
	done      chan struct{} // closed when conns empties during drain
}

// ServeStream accepts stream connections on l until Shutdown. Each
// connection speaks the wire stream envelope directly (no HTTP); the
// server opens with a TypeCredit grant.
func (s *Server) ServeStream(l net.Listener) error {
	s.streams.mu.Lock()
	if s.streams.listeners == nil {
		s.streams.listeners = map[net.Listener]struct{}{}
	}
	s.streams.listeners[l] = struct{}{}
	s.streams.mu.Unlock()
	defer func() {
		s.streams.mu.Lock()
		delete(s.streams.listeners, l)
		s.streams.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveStreamConn(conn, conn)
	}
}

// handleStreamUpgrade negotiates a stream connection on the HTTP port:
// GET /v1/stream with Upgrade: hybridsel-stream hijacks the connection,
// answers 101, and hands the raw conn to the stream machinery.
func (s *Server) handleStreamUpgrade(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Connection", "close")
		httpError(w, http.StatusServiceUnavailable, ErrCodeDraining, "draining")
		return
	}
	if r.Header.Get("Upgrade") != StreamUpgradeProto {
		httpError(w, http.StatusUpgradeRequired, ErrCodeBadRequest,
			fmt.Sprintf("connection upgrade %q required", StreamUpgradeProto))
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		httpError(w, http.StatusInternalServerError, ErrCodeInternal, "connection not hijackable")
		return
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		httpError(w, http.StatusInternalServerError, ErrCodeInternal, "hijack: "+err.Error())
		return
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Connection: Upgrade\r\n" +
		"Upgrade: " + StreamUpgradeProto + "\r\n\r\n"
	if _, err := bufrw.WriteString(resp); err != nil || bufrw.Flush() != nil {
		conn.Close()
		return
	}
	// bufrw.Reader may hold bytes the client pipelined behind the
	// upgrade request; serve from it, not the bare conn.
	s.serveStreamConn(conn, bufrw.Reader)
}

// streamConn is the server half of one stream connection.
type streamConn struct {
	s      *Server
	conn   net.Conn
	credit int64
	ctx    context.Context
	cancel context.CancelFunc

	inflight atomic.Int64   // dispatched, not yet answered: the credit window's measure
	wg       sync.WaitGroup // executes in flight
	pusher   sync.WaitGroup // pushEpochs, once a request asked for leases

	lastAccepted atomic.Uint64 // highest stream ID dispatched or answered
	away         atomic.Bool   // Goaway sent
	awayLast     atomic.Uint64 // LastStreamID carried in our Goaway

	// frame is the reader's alone: it decodes every frame into it, a
	// request over the one before unless that one left with an execute.
	frame wire.Frame

	// out combines the frames of the reader, its executes and goaway into
	// shared writes. After a failed write frames are dropped, and the
	// reader's next read ends the connection.
	out *wire.StreamWriter
}

// serveStreamConn runs one stream connection to completion on the calling
// goroutine, reading requests from src: conn itself, or an upgraded
// connection's buffered reader. It never blocks with a response held: a
// response is held only while a whole frame is buffered behind its request,
// and leaves with or before whatever that frame turns out to be.
func (s *Server) serveStreamConn(conn net.Conn, src io.Reader) {
	ctx, cancel := context.WithCancel(context.Background())
	sc := &streamConn{
		s:      s,
		conn:   conn,
		credit: int64(s.streamCredit),
		ctx:    ctx,
		cancel: cancel,
		out:    &wire.StreamWriter{W: conn, Wrote: s.met.streamWrote},
	}
	if !s.registerStream(sc) {
		conn.Close()
		cancel()
		return
	}
	s.met.streamConns.Add(1)
	defer func() {
		sc.out.Flush() // answers held behind a frame that ended the connection
		sc.wg.Wait()   // let in-flight executes answer
		conn.Close()
		cancel()
		sc.pusher.Wait()
		s.met.streamConns.Add(-1)
		s.unregisterStream(sc)
	}()

	// The server speaks first: grant the flow-control window.
	hello := wire.AppendCredit(sc.out.Begin(), uint64(sc.credit))
	if s.draining.Load() {
		// Raced with drain: still a valid stream conn, but nothing
		// will be accepted. Say so immediately.
		sc.away.Store(true)
		hello = wire.AppendGoaway(hello, &wire.Goaway{Reason: "draining"})
	}
	sc.out.End(hello, false)

	sr := wire.NewStreamReader(src)
	f := &sc.frame
	var cands []wire.Candidate
	var out offload.Outcome
	leased := false // the connection asked for leases, and its pusher runs
	for {
		if f.Req != nil && cap(f.Req.Values) > maxPooledBatch {
			f.Req = nil // what a huge request grew is not kept
		}
		if err := sr.NextInto(f); err != nil {
			return // EOF, clean or mid-frame, or a frame that does not decode
		}
		switch f.Type {
		case wire.TypeStreamRequest:
		case wire.TypeGoaway, wire.TypeCredit:
			// A leaving client's Goaway (its close of the write side ends
			// the loop), or credit, which flows server→client only.
			sc.out.Flush()
			continue
		default:
			// Protocol error: answer with a connection-level error
			// frame and drop the connection.
			e := &wire.Error{Code: ErrCodeBadRequest,
				Message: fmt.Sprintf("unexpected frame type %d on stream connection", f.Type)}
			sc.out.End(wire.AppendError(sc.out.Begin(), e), false)
			return
		}
		s.met.streamRequests.Add(1)
		if f.StreamID > sc.lastAccepted.Load() {
			sc.lastAccepted.Store(f.StreamID)
		}
		if sc.away.Load() && f.StreamID > sc.awayLast.Load() {
			sc.rejectStream(f.StreamID, ErrCodeDraining, "draining")
			continue
		}
		if sc.inflight.Load() >= sc.credit {
			// Client overran its credit window: shed on this
			// stream only, the stream analogue of a 429.
			sc.rejectStream(f.StreamID, ErrCodeQueueFull, "stream credit exhausted")
			continue
		}
		sc.inflight.Add(1)
		s.met.streamInflight.Add(1)
		if f.Req.Execute {
			sc.out.Flush()
			sc.wg.Add(1)
			go sc.execute(f.StreamID, f.Req)
			f.Req = nil // the execute's
			continue
		}
		// The stamp is read before deciding, and the pusher's first advance
		// channel is taken before the first stamp: no advance goes untold.
		var epoch uint64
		if f.Req.Lease {
			if !leased {
				leased = true
				sc.pusher.Add(1)
				go sc.pushEpochs(s.rt.EpochAdvanced())
			}
			epoch = s.rt.Epoch()
		}
		it := wireItem(f.Req)
		ei := decide(sc.ctx, s.rt, &it, &out)
		resp := projectWireInto(f.Req.Region, &out, ei, cands[:0])
		if resp.Candidates != nil {
			cands = resp.Candidates
		}
		resp.Epoch = epoch
		sc.answer(f.StreamID, &resp, sr.FrameBuffered())
	}
}

// pushEpochs tells the connection of each advance of the runtime's epoch
// until it ends: woken by ch, it appends one TypeEpoch frame carrying the
// epoch current by then, so a burst of advances is one frame. Whoever
// advances the epoch only closes a channel and never writes to a socket.
func (sc *streamConn) pushEpochs(ch <-chan struct{}) {
	defer sc.pusher.Done()
	rt := sc.s.rt
	for {
		select {
		case <-ch:
		case <-sc.ctx.Done():
			return
		}
		ch = rt.EpochAdvanced()
		sc.out.End(wire.AppendEpoch(sc.out.Begin(), rt.Epoch()), false)
	}
}

// execute runs one simulated launch off the reader, under an execution
// slot like any HTTP request.
func (sc *streamConn) execute(id uint64, req *wire.Request) {
	defer sc.wg.Done()
	s := sc.s
	s.slots <- struct{}{}
	if s.holdForTest != nil {
		s.holdForTest()
	}
	it := wireItem(req)
	var out offload.Outcome
	ei := decide(sc.ctx, s.rt, &it, &out)
	<-s.slots
	resp := projectWireInto(req.Region, &out, ei, nil)
	sc.answer(id, &resp, false)
}

// answer appends the response to a dispatched stream, having returned
// its credit unit first: the client reuses the unit the moment it reads
// the response, and a request arriving ahead of the decrement would be
// shed against a window the client never overran.
func (sc *streamConn) answer(id uint64, resp *wire.Response, hold bool) {
	sc.inflight.Add(-1)
	sc.s.met.streamInflight.Add(-1)
	sc.out.End(wire.AppendStreamResponse(sc.out.Begin(), id, resp), hold)
}

// rejectStream answers one stream with an error response without
// dispatching it.
func (sc *streamConn) rejectStream(id uint64, code, msg string) {
	resp := wire.Response{Err: &wire.Error{Code: code, Message: msg, RetryAfterSeconds: 0.05}}
	sc.s.met.streamSheds.Add(1)
	sc.out.End(wire.AppendStreamResponse(sc.out.Begin(), id, &resp), false)
}

// goaway announces drain on this connection: streams accepted so far
// will be answered, later ones get a draining error response.
func (sc *streamConn) goaway(reason string) {
	if sc.away.Swap(true) {
		return
	}
	sc.awayLast.Store(sc.lastAccepted.Load())
	g := wire.Goaway{LastStreamID: sc.awayLast.Load(), Reason: reason}
	sc.out.End(wire.AppendGoaway(sc.out.Begin(), &g), false)
}

func (s *Server) registerStream(sc *streamConn) bool {
	s.streams.mu.Lock()
	defer s.streams.mu.Unlock()
	if s.streams.done != nil {
		// Drain already started waiting; refuse new connections.
		return false
	}
	if s.streams.conns == nil {
		s.streams.conns = map[*streamConn]struct{}{}
	}
	s.streams.conns[sc] = struct{}{}
	return true
}

func (s *Server) unregisterStream(sc *streamConn) {
	s.streams.mu.Lock()
	delete(s.streams.conns, sc)
	if s.streams.done != nil && len(s.streams.conns) == 0 {
		close(s.streams.done)
		s.streams.done = nil
	}
	s.streams.mu.Unlock()
}

// shutdownStreams drains the stream plane: close listeners, Goaway
// every connection, wait (bounded by ctx) for in-flight streams to
// finish and clients to hang up, then force-close stragglers.
func (s *Server) shutdownStreams(ctx context.Context) error {
	s.streams.mu.Lock()
	for l := range s.streams.listeners {
		l.Close()
	}
	conns := make([]*streamConn, 0, len(s.streams.conns))
	for sc := range s.streams.conns {
		conns = append(conns, sc)
	}
	var done chan struct{}
	if len(conns) > 0 {
		done = make(chan struct{})
		s.streams.done = done
	}
	s.streams.mu.Unlock()

	for _, sc := range conns {
		sc.goaway("draining")
	}
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.streams.mu.Lock()
		for sc := range s.streams.conns {
			sc.cancel()
			sc.conn.Close()
		}
		s.streams.done = nil
		s.streams.mu.Unlock()
		return ctx.Err()
	}
}
