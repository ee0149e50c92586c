// Stream frame envelope: the frame types, the incremental reader and the
// combining writer that turn the request/response framing into a
// persistent, multiplexed connection protocol.
//
// A stream connection carries pipelined TypeStreamRequest /
// TypeStreamResponse frames. Each is an ordinary request or response
// payload prefixed with a uvarint stream ID; the client assigns IDs
// (non-zero, strictly increasing on the wire per connection) and matches
// responses by ID, so completions may arrive out of order and a slow
// decision never blocks the fast ones pipelined behind it.
//
// Handshake: the server speaks first. Immediately after accepting a
// connection it sends a TypeCredit frame granting the flow-control
// window — the maximum number of streams the client may have in flight
// (sent but unanswered). A client that reads anything else (or a frame
// with the wrong version byte) drops the connection and sends that
// call over HTTP. Each response implicitly returns one unit of credit.
//
// Leases: a request with Lease set has its response stamped with the
// server's decision epoch, and subscribes the connection to TypeEpoch
// frames announcing the epoch's advances. A connection that never asks
// sees neither.
//
// Shutdown: either side sends TypeGoaway carrying the last stream ID it
// will answer plus a human-readable reason. In-flight streams at or
// below that ID complete normally; later requests are answered with a
// "draining" error response so no verdict is ever left hanging.
package wire

import (
	"bufio"
	"encoding/binary"
	"io"
	"runtime"
	"sync"
)

// Stream frame types, extending the request/response set.
const (
	// TypeStreamRequest is a TypeRequest payload prefixed with a
	// uvarint stream ID.
	TypeStreamRequest = 6
	// TypeStreamResponse is a TypeResponse payload prefixed with a
	// uvarint stream ID. Its error bit works exactly as in
	// TypeResponse: per-stream errors arrive as responses with Err set.
	TypeStreamResponse = 7
	// TypeCredit grants the per-connection flow-control window: the
	// maximum number of in-flight (unanswered) streams the peer may
	// hold open. Sent by the server as the first frame on a connection.
	TypeCredit = 8
	// TypeGoaway announces graceful shutdown: streams with IDs at or
	// below LastStreamID will be answered, later ones will not.
	TypeGoaway = 9
	// TypeEpoch carries the server's decision epoch, pushed when it
	// advances, only on a connection that asked (Request.Lease).
	TypeEpoch = 11
)

// Goaway is the payload of a TypeGoaway frame.
type Goaway struct {
	LastStreamID uint64
	Reason       string
}

// AppendStreamRequest appends a complete TypeStreamRequest frame.
func AppendStreamRequest(dst []byte, id uint64, r *Request) []byte {
	dst, at := beginFrame(dst, TypeStreamRequest)
	dst = binary.AppendUvarint(dst, id)
	dst = appendRequestPayload(dst, r)
	return endFrame(dst, at)
}

// AppendStreamResponse appends a complete TypeStreamResponse frame.
func AppendStreamResponse(dst []byte, id uint64, r *Response) []byte {
	dst, at := beginFrame(dst, TypeStreamResponse)
	dst = binary.AppendUvarint(dst, id)
	dst = appendResponsePayload(dst, r)
	return endFrame(dst, at)
}

// AppendCredit appends a complete TypeCredit frame granting a window of
// n in-flight streams.
func AppendCredit(dst []byte, n uint64) []byte {
	dst, at := beginFrame(dst, TypeCredit)
	dst = binary.AppendUvarint(dst, n)
	return endFrame(dst, at)
}

// AppendEpoch appends a complete TypeEpoch frame.
func AppendEpoch(dst []byte, epoch uint64) []byte {
	dst, at := beginFrame(dst, TypeEpoch)
	dst = binary.AppendUvarint(dst, epoch)
	return endFrame(dst, at)
}

// AppendGoaway appends a complete TypeGoaway frame.
func AppendGoaway(dst []byte, g *Goaway) []byte {
	dst, at := beginFrame(dst, TypeGoaway)
	dst = binary.AppendUvarint(dst, g.LastStreamID)
	dst = appendString(dst, g.Reason)
	return endFrame(dst, at)
}

func decodeGoawayPayload(r *reader) (*Goaway, error) {
	last, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	g := &Goaway{LastStreamID: last}
	if g.Reason, err = r.text(); err != nil {
		return nil, err
	}
	return g, nil
}

// ---- Incremental reading ----

// A StreamReader decodes frames incrementally from a long-lived
// connection: where they sit in its bufio.Reader's buffer, and nothing
// decoded aliases it. Names are interned across the connection's frames
// (see maxInterned) and responses cut from slabs, so steady-state reads
// allocate next to nothing. It is not safe for concurrent use; each
// connection owns exactly one reader goroutine.
type StreamReader struct {
	br  *bufio.Reader
	buf []byte // frames larger than br's buffer only
	r   reader
}

// NewStreamReader wraps r (buffering it if it is not already a
// *bufio.Reader).
func NewStreamReader(r io.Reader) *StreamReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 32<<10)
	}
	return &StreamReader{br: br, r: reader{in: new(internTable), slabs: true}}
}

// FrameBuffered reports whether the next frame — header and whole
// payload — already sits in the reader's buffer, so Next would return it
// without touching the connection. It is never true on a partial frame.
// A reader that has just drained a burst uses it to see where the burst
// ends.
func (sr *StreamReader) FrameBuffered() bool {
	n := sr.br.Buffered()
	if n < headerLen {
		return false
	}
	hdr, _ := sr.br.Peek(headerLen) // buffered already: cannot fail or block
	return uint64(n-headerLen) >= uint64(binary.LittleEndian.Uint32(hdr[4:]))
}

// Next reads and decodes the next frame. io.EOF is returned untouched
// on a clean end-of-stream between frames; a connection that dies
// mid-frame surfaces io.ErrUnexpectedEOF. The returned frame is the
// caller's: it does not alias the reader's internal buffer, nothing is
// decoded into it again, and it remains valid after further Next calls.
func (sr *StreamReader) Next() (*Frame, error) {
	f := new(Frame)
	if err := sr.NextInto(f); err != nil {
		return nil, err
	}
	return f, nil
}

// NextInto is Next decoding in place: it overwrites *f with the frame a
// Next would have returned. A request frame is decoded over the Request
// *f arrives pointing at, item slices included while they are large
// enough (any other frame drops it) — so a caller that hands a frame's
// Request on clears f.Req first. A response, and its Candidates (cap =
// len), is a cut of the reader's slabs: never decoded into again, it is
// whoever's it is handed to, and keeping it keeps its slab (20 KiB) alive.
// After an error *f holds nothing usable.
func (sr *StreamReader) NextInto(f *Frame) error {
	sr.r.vals, sr.r.names = nil, nil // what a request was cut from goes with it
	hdr, err := sr.br.Peek(headerLen)
	if len(hdr) == 0 {
		return err // clean EOF between frames stays io.EOF
	} else if err != nil {
		return unexpected(err)
	}
	typ, plen, err := checkHeader(hdr)
	if err != nil {
		return err
	}
	n := headerLen + plen
	if n > sr.br.Size() { // copied out, header and all
		if cap(sr.buf) < n {
			sr.buf = make([]byte, n)
		}
		if _, err := io.ReadFull(sr.br, sr.buf[:n]); err != nil {
			return err // the header is buffered: never a bare io.EOF
		}
		return sr.r.decodePayloadInto(f, typ, sr.buf[headerLen:n])
	}
	frame, err := sr.br.Peek(n)
	if err != nil {
		return unexpected(err)
	}
	err = sr.r.decodePayloadInto(f, typ, frame[headerLen:])
	sr.br.Discard(n) // buffered: cannot fail
	return err
}

// unexpected is err from reading a frame whose first bytes had arrived.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ---- Combined writing ----

// maxKeptWriteBuf bounds the buffers a StreamWriter keeps between writes:
// one a burst grew past it goes with the write that carried the burst.
const maxKeptWriteBuf = 64 << 10

// A StreamWriter is the write half of a stream connection, shared by the
// goroutines that answer (or ask) on it. Each appends its frame to a
// pending buffer under the writer's lock — in place, so nothing is copied
// — and whichever finds no flusher at work writes the buffer out in one
// Write, and again while frames were appended meanwhile: a burst of frames
// leaves in one syscall with no flush timer, and a lone frame never waits.
// Two buffers swap roles, so frames are appended while a Write is under
// way.
//
// The exported fields are set once, before the first Begin. A failed Write
// is latched: the flusher hands the error to Fail, once, and frames
// appended afterwards are dropped.
type StreamWriter struct {
	W io.Writer
	// Yield, unless nil, is asked before every Write whether more frames
	// are about to be appended (callers a burst of responses just woke); if
	// so the flusher yields the processor once, for them to share its Write.
	Yield func() bool
	// Wrote is told how many frames each Write carries, before it is made;
	// Fail, unless nil, receives the first Write error. The flusher calls
	// both with no lock held.
	Wrote func(frames int)
	Fail  func(error)

	mu       sync.Mutex
	pending  []byte
	frames   int    // in pending
	spare    []byte // the flusher's: the buffer it wrote last
	flushing bool
	err      error
}

// Begin locks the writer and returns its pending bytes for the caller to
// append one frame to and pass to End, without blocking in between.
func (sw *StreamWriter) Begin() []byte {
	sw.mu.Lock()
	return sw.pending
}

// End takes back the buffer Begin returned, one frame longer, and unlocks
// the writer. The frame then leaves as by Flush, unless hold says that the
// caller is about to append another, or to Flush.
func (sw *StreamWriter) End(buf []byte, hold bool) {
	if sw.err == nil {
		sw.pending = buf
		sw.frames++
	}
	sw.flush(hold)
}

// Flush writes out what is pending, unless a flusher is at work: what is
// pending then leaves in that flusher's next Write.
func (sw *StreamWriter) Flush() {
	sw.mu.Lock()
	sw.flush(false)
}

// flush is entered with the lock held and releases it.
func (sw *StreamWriter) flush(hold bool) {
	if hold || sw.flushing {
		sw.mu.Unlock()
		return
	}
	sw.flushing = true
	var err error
	for sw.err == nil && len(sw.pending) > 0 {
		if sw.Yield != nil && sw.Yield() {
			sw.mu.Unlock()
			runtime.Gosched()
			sw.mu.Lock()
		}
		buf, n := sw.pending, sw.frames
		sw.pending, sw.frames, sw.spare = sw.spare[:0], 0, buf[:0] // spare is not looked at again before buf is written
		if cap(buf) > maxKeptWriteBuf {
			sw.spare = nil
		}
		sw.mu.Unlock()
		sw.Wrote(n)
		_, err = sw.W.Write(buf)
		sw.mu.Lock()
		sw.err = err
	}
	sw.flushing = false
	sw.mu.Unlock()
	if err != nil && sw.Fail != nil {
		sw.Fail(err)
	}
}
