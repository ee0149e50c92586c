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
// the same per-connection machinery:
//
//   - one reader goroutine decoding frames incrementally,
//   - a small worker pool running the decide core under the shared
//     execution slots (the same workers that bound the HTTP path),
//   - a combining writer (wire.StreamWriter): workers encode response
//     frames into its pending buffer and flush it when no admitted request
//     is waiting for them, so a burst of completions leaves in one syscall
//     with no flush timer and a lone response never waits,
//   - flow control by credit instead of 429 churn: the server grants a
//     window on connect, requests beyond it answer queue_full on their
//     own stream, and each response implicitly returns one unit,
//   - graceful drain by Goaway: in-flight streams complete, later ones
//     answer a draining error, nothing is left hanging.

// StreamUpgradeProto is the Upgrade token negotiating a stream
// connection over the HTTP port.
const StreamUpgradeProto = "hybridsel-stream"

// streamWorkersPerConn caps the per-connection worker pool; the shared
// execution slots still bound global concurrency across connections.
const streamWorkersPerConn = 8

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

// streamJob is one admitted stream request awaiting a worker.
type streamJob struct {
	id  uint64
	req *wire.Request
}

// streamConn is the server half of one stream connection.
type streamConn struct {
	s      *Server
	conn   net.Conn
	credit int64
	ctx    context.Context
	cancel context.CancelFunc

	jobs     chan streamJob
	inflight atomic.Int64
	wg       sync.WaitGroup // in-flight jobs

	lastAccepted atomic.Uint64 // highest stream ID dispatched or answered
	away         atomic.Bool   // Goaway sent
	awayLast     atomic.Uint64 // LastStreamID carried in our Goaway

	// free holds the requests the reader decodes into, handed back by the
	// worker that answered them; sized to the window, the most there are.
	free chan *wire.Request

	// out combines the frames of reader and workers into shared writes. A
	// flusher that sees other requests of this connection still being
	// decided yields once, so that their responses share its write; after
	// a failed write frames are dropped, and the reader's next read ends
	// the connection.
	out *wire.StreamWriter
}

// serveStreamConn runs one stream connection to completion, reading
// requests from src: conn itself, or an upgraded connection's buffered
// reader.
func (s *Server) serveStreamConn(conn net.Conn, src io.Reader) {
	credit := int64(s.cfg.StreamCredit)
	ctx, cancel := context.WithCancel(context.Background())
	sc := &streamConn{
		s:      s,
		conn:   conn,
		credit: credit,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(chan streamJob, credit),
		free:   make(chan *wire.Request, credit),
	}
	sc.out = &wire.StreamWriter{W: conn, Wrote: s.met.streamWrote,
		Yield: func() bool { return sc.inflight.Load() > 0 }}
	if !s.registerStream(sc) {
		conn.Close()
		cancel()
		return
	}
	s.met.streamConns.Add(1)
	defer func() {
		sc.wg.Wait() // let in-flight responses flush
		close(sc.jobs)
		conn.Close()
		cancel()
		s.met.streamConns.Add(-1)
		s.unregisterStream(sc)
	}()

	// The server speaks first: grant the flow-control window.
	hello := wire.AppendCredit(sc.out.Begin(), uint64(credit))
	if s.draining.Load() {
		// Raced with drain: still a valid stream conn, but nothing
		// will be accepted. Say so immediately.
		sc.away.Store(true)
		hello = wire.AppendGoaway(hello, &wire.Goaway{Reason: "draining"})
	}
	sc.out.End(hello, false)

	workers := int(min(int64(streamWorkersPerConn), credit))
	for i := 0; i < workers; i++ {
		go sc.worker()
	}

	sr := wire.NewStreamReader(src)
	var f wire.Frame
	for {
		// Decode over a request the workers are done with (one refused below
		// is still in f); with none to hand the decoder allocates one.
		if f.Req == nil {
			select {
			case f.Req = <-sc.free:
			default:
			}
		}
		if err := sr.NextInto(&f); err != nil {
			// EOF (clean or mid-frame) and decode failures all end the
			// connection; in-flight work still completes via the
			// deferred wg.Wait.
			return
		}
		switch f.Type {
		case wire.TypeStreamRequest:
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
			sc.wg.Add(1)
			sc.jobs <- streamJob{id: f.StreamID, req: f.Req}
			f.Req = nil // the worker's, until it recycles it
		case wire.TypeGoaway:
			// Client is leaving; keep answering what's in flight and
			// let its close of the write side end the loop.
		case wire.TypeCredit:
			// Credit flows server→client only; ignore.
		default:
			// Protocol error: answer with a connection-level error
			// frame and drop the connection.
			e := &wire.Error{Code: ErrCodeBadRequest,
				Message: fmt.Sprintf("unexpected frame type %d on stream connection", f.Type)}
			sc.out.End(wire.AppendError(sc.out.Begin(), e), false)
			return
		}
	}
}

// rejectStream answers one stream with an error response without
// dispatching a worker.
func (sc *streamConn) rejectStream(id uint64, code, msg string) {
	resp := wire.Response{Err: &wire.Error{Code: code, Message: msg, RetryAfterSeconds: 0.05}}
	sc.s.met.streamSheds.Add(1)
	sc.out.End(wire.AppendStreamResponse(sc.out.Begin(), id, &resp), false)
}

// worker runs admitted stream jobs under the shared execution slots,
// deciding each into its own Outcome. A response rides the writer's
// pending buffer while the next job is already here, and leaves before an
// empty queue, an execute or a wait for a slot.
func (sc *streamConn) worker() {
	s := sc.s
	var cands []wire.Candidate
	var out offload.Outcome
	for job := range sc.jobs {
		for riding := true; riding; {
			select {
			case s.slots <- struct{}{}:
			default:
				sc.out.Flush()
				s.slots <- struct{}{}
			}
			if s.holdForTest != nil {
				s.holdForTest()
			}
			it := wireItem(job.req)
			ei := decide(sc.ctx, s.rt, &it, &out)
			<-s.slots
			resp := projectWireInto(job.req.Region, &out, ei, cands[:0])
			if resp.Candidates != nil {
				cands = resp.Candidates
			}
			// Return the credit unit before the response can reach the
			// client, which reuses it the moment it reads the response: a
			// request arriving ahead of the decrement would be shed against
			// a window the client never overran.
			sc.inflight.Add(-1)
			s.met.streamInflight.Add(-1)
			sc.out.End(wire.AppendStreamResponse(sc.out.Begin(), job.id, &resp), true)
			// Done with job.req: recycled, unless a huge request grew it.
			if cap(job.req.Values) <= maxPooledBatch {
				select {
				case sc.free <- job.req:
				default:
				}
			}
			// The next job, taken before this one is done, keeps sc.wg
			// held until this response has left with that one's.
			select {
			case job = <-sc.jobs:
				if job.req.Execute {
					sc.out.Flush()
				}
			default:
				sc.out.Flush()
				riding = false
			}
			sc.wg.Done()
		}
	}
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
