package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file is the binary face of POST /v2/decide: the frame codec of
// the decide core (decide.go), behind the same admission pipeline as the
// JSON codec; TestCodecEquivalence holds the two to the same answers.
// Envelope errors raised before negotiation (admission shedding, drain)
// still arrive as JSON; everything after the Content-Type check answers
// in frames.

// handleDecideWire serves a body of one or more request frames. A body
// holding exactly one TypeRequest frame mirrors the single-object JSON
// body: semantic failures surface as HTTP statuses with a TypeError
// frame. Any other mix (pipelined requests, batch frames) answers HTTP
// 200 with matching response frames in order, per-item failures riding
// inside them — the frame analogue of the JSON batch contract.
//
// The single-frame case is the hot path and stays allocation-lean: the
// body reads into a pooled buffer, exactly one frame decodes (no frame
// slice), and the response encodes into the same scratch with its
// candidate slice recycled across requests.
func (s *Server) handleDecideWire(w http.ResponseWriter, r *http.Request) {
	sc := wireScratches.Get().(*wireScratch)
	defer putWireScratch(sc)
	body, err := appendBody(sc.body[:0], w, r)
	sc.body = body
	if err != nil {
		wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "read body: "+err.Error())
		return
	}
	if len(body) == 0 {
		wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "decode frames: empty body")
		return
	}
	first, n, err := wire.DecodeFrame(body)
	if err != nil {
		wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "decode frames: "+err.Error())
		return
	}

	if n == len(body) && first.Type == wire.TypeRequest {
		it := wireItem(first.Req)
		out, ei := decide(r.Context(), s.rt, &it)
		if ei != nil {
			wireError(w, ei.status, ei.Code, ei.Message)
			return
		}
		resp := projectWireInto(first.Req.Region, out, nil, sc.cands[:0])
		sc.enc = wire.AppendResponse(sc.enc[:0], &resp)
		sc.cands = resp.Candidates[:0]
		writeFrames(w, http.StatusOK, sc.enc)
		return
	}

	frames := []*wire.Frame{first}
	for rest := body[n:]; len(rest) > 0; {
		fr, adv, err := wire.DecodeFrame(rest)
		if err != nil {
			wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "decode frames: "+err.Error())
			return
		}
		frames = append(frames, fr)
		rest = rest[adv:]
	}
	for _, fr := range frames {
		switch fr.Type {
		case wire.TypeRequest:
		case wire.TypeBatchRequest:
			if len(fr.Reqs) > s.cfg.MaxBatch {
				wireError(w, http.StatusRequestEntityTooLarge, ErrCodeBatchTooLarge,
					fmt.Sprintf("batch of %d exceeds limit %d", len(fr.Reqs), s.cfg.MaxBatch))
				return
			}
		default:
			wireError(w, http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Sprintf("unexpected frame type %d in request body", fr.Type))
			return
		}
	}

	b := sc.enc[:0]
	for _, fr := range frames {
		if fr.Type == wire.TypeRequest {
			it := wireItem(fr.Req)
			out, ei := decide(r.Context(), s.rt, &it)
			resp := projectWireInto(fr.Req.Region, out, ei, nil)
			b = wire.AppendResponse(b, &resp)
			continue
		}
		ds, coalesced := decideBatch(r.Context(), s.rt, len(fr.Reqs),
			func(i int) item { return wireItem(&fr.Reqs[i]) })
		b = wire.AppendBatchResponse(b, coalesced, batchWire(fr.Reqs, ds))
	}
	sc.enc = b
	writeFrames(w, http.StatusOK, b)
}

// appendBody reads the request body into dst (pre-sizing from
// Content-Length when the client declared one), enforcing the same 16MB
// cap as the JSON path.
func appendBody(dst []byte, w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, 16<<20)
	if n := r.ContentLength; n > 0 && n <= 16<<20 && int64(cap(dst)) < n {
		dst = append(make([]byte, 0, int(n)), dst...)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := rd.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// wireScratch is the per-request working set of the binary decide
// path: body read buffer, response encode buffer, and the candidate
// slice recycled between single-frame responses.
type wireScratch struct {
	body  []byte
	enc   []byte
	cands []wire.Candidate
}

var wireScratches = sync.Pool{New: func() any {
	return &wireScratch{
		body: make([]byte, 0, 2048),
		enc:  make([]byte, 0, 2048),
	}
}}

func putWireScratch(sc *wireScratch) {
	if cap(sc.body) > maxPooledEncodeBuf || cap(sc.enc) > maxPooledEncodeBuf {
		return
	}
	wireScratches.Put(sc)
}

func writeFrames(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// wireError is httpError in frames: the same status, stable code and
// Retry-After conventions, delivered as a TypeError frame.
func wireError(w http.ResponseWriter, status int, code, msg string) {
	e := wire.Error{Status: status, Code: code, Message: msg, RetryAfterSeconds: retryHint(w, status)}
	writeFrames(w, status, wire.AppendError(nil, &e))
}
