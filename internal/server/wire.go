package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file is the binary face of POST /v2/decide: the frame codec of
// the decide core (decide.go), behind the same admission pipeline as the
// JSON codec; TestCodecEquivalence holds the two to the same answers.
// Envelope errors raised before negotiation (admission shedding, drain)
// still arrive as JSON; everything after the Content-Type check answers
// in frames.

// handleDecideWire serves a body of exactly one frame. A TypeRequest
// frame mirrors the single-object JSON body: semantic failures surface as
// HTTP statuses with a TypeError frame. A TypeBatchRequest frame answers
// HTTP 200 with the matching batch response frame, per-item failures
// riding inside it — the frame analogue of the JSON batch contract.
// Anything after the frame refuses the body before anything is served:
// many decisions in flight is what the batch frame and the stream are for.
//
// Nothing here allocates per decision in steady state: the body reads
// into a pooled buffer, the pooled Decoder decodes the frame in place,
// and a batch is decided, projected and encoded inside the scratch.
func (s *Server) handleDecideWire(w http.ResponseWriter, r *http.Request) {
	sc := wireScratches.Get().(*wireScratch)
	defer putWireScratch(sc)
	body, err := appendBody(sc.body[:0], w, r)
	sc.body = body
	if err != nil {
		wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "read body: "+err.Error())
		return
	}
	sc.dec.MaxItems = s.maxBatch
	fr, n, err := sc.dec.Decode(body)
	switch {
	case errors.Is(err, wire.ErrTooLarge):
		wireError(w, http.StatusRequestEntityTooLarge, ErrCodeBatchTooLarge, err.Error())
		return
	case err != nil:
		wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "decode frames: "+err.Error())
		return
	case fr.Type != wire.TypeRequest && fr.Type != wire.TypeBatchRequest:
		wireError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Sprintf("unexpected frame type %d in request body", fr.Type))
		return
	case n < len(body):
		wireError(w, http.StatusBadRequest, ErrCodeBadRequest, "decode frames: trailing bytes after frame")
		return
	}
	sc.big = len(fr.Reqs) > maxPooledBatch

	if fr.Type == wire.TypeRequest {
		it := wireItem(fr.Req)
		if ei := decide(r.Context(), s.rt, &it, &sc.out); ei != nil {
			wireError(w, ei.status, ei.Code, ei.Message)
			return
		}
		resp := projectWireInto(fr.Req.Region, &sc.out, nil, sc.cands[:0])
		sc.enc = wire.AppendResponse(sc.enc[:0], &resp)
		sc.cands = resp.Candidates[:0]
		writeFrames(w, http.StatusOK, sc.enc)
		return
	}
	ds, coalesced := sc.batch.decide(r.Context(), s.rt, len(fr.Reqs),
		func(i int) item { return wireItem(&fr.Reqs[i]) })
	sc.resps, sc.cands = batchWire(fr.Reqs, ds, sc.resps, sc.cands)
	sc.enc = wire.AppendBatchResponse(sc.enc[:0], coalesced, sc.resps)
	writeFrames(w, http.StatusOK, sc.enc)
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
// path: body read buffer, frame decoder, the outcome single frames are
// decided into, batch scratch, the responses and candidate arena they are
// projected into, and the encode buffer.
type wireScratch struct {
	body  []byte
	enc   []byte
	dec   wire.Decoder
	out   offload.Outcome
	batch batchScratch
	resps []wire.Response
	cands []wire.Candidate
	big   bool // a batch of more than maxPooledBatch items passed through
}

var wireScratches = sync.Pool{New: func() any {
	return &wireScratch{
		body: make([]byte, 0, 2048),
		enc:  make([]byte, 0, 2048),
	}
}}

// maxPooledBatch is maxPooledEncodeBuf for per-item storage, in elements.
const maxPooledBatch = 256

// putWireScratch pools sc again, unless a huge request grew it: a
// 4096-item batch leaves megabytes behind in the decoder's requests and
// the scratch's outcomes, responses, candidates and key bytes. What is
// pooled keeps its outcomes: each owns the storage of its candidates —
// nothing of the decision cache — and the next batch decides into it.
func putWireScratch(sc *wireScratch) {
	if sc.big || max(cap(sc.body), cap(sc.enc), cap(sc.batch.keys)) > maxPooledEncodeBuf {
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
