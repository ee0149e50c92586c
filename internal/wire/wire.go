// Package wire defines the compact binary framing for decide traffic.
//
// With a compiled model evaluation at ~745ns and decision-cache hits at ~100ns,
// JSON encode/decode and per-request HTTP framing dominate per-decision
// service cost. This package replaces the JSON bodies on POST /v2/decide
// with length-prefixed, versioned frames whose request payloads are
// slot-vector-shaped: values in the region's canonical (sorted-name)
// parameter order plus the attrdb key hash, so the server can copy them
// straight into the pooled slot vectors without building a bindings map.
//
// Frame layout (all multi-byte header fields little-endian):
//
//	offset  size  field
//	0       2     magic "HS"
//	2       1     version (currently 1)
//	3       1     frame type (TypeRequest..TypeError)
//	4       4     payload length (uint32)
//	8       n     payload
//
// A /v2/decide request body is exactly one request or batch-request
// frame, answered by one frame (many decisions in flight is what the batch
// frame and the stream envelope are for). Payload scalars are varints
// (binary.AppendUvarint / AppendVarint), float64s are 8-byte
// little-endian IEEE 754 bit patterns, and strings are uvarint length
// prefixes followed by UTF-8 bytes.
//
// Content negotiation: a client opts in by sending Content-Type
// ContentType; JSON remains the default and /v1 is unversioned-frozen.
// Responses to frame requests carry ContentType too. Error responses at
// the HTTP layer are TypeError frames mirroring the JSON error envelope
// (same stable codes, Retry-After carried as float seconds); errors
// raised before content negotiation (admission shedding, drain) still
// arrive as JSON envelopes, so binary clients must accept both.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
)

// ContentType is the negotiated media type for binary decide frames.
const ContentType = "application/x-hybridsel-frame"

// IsFrameContent reports whether an HTTP Content-Type header value
// announces frame payloads. Media-type parameters after ';' are
// ignored; matching is case-insensitive per RFC 9110.
func IsFrameContent(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), ContentType)
}

// Version is the frame format version emitted by this package. Decoders
// reject frames with a different version byte so format changes fail
// loudly instead of misparsing.
const Version = 1

// Frame types.
const (
	// TypeRequest carries a single decide request.
	TypeRequest = 1
	// TypeResponse carries a single decide response (or a per-request
	// error when its error bit is set).
	TypeResponse = 2
	// TypeBatchRequest carries a batch of decide requests that share
	// one admission slot, mirroring the JSON {"requests":[...]} form.
	TypeBatchRequest = 3
	// TypeBatchResponse answers a TypeBatchRequest: a coalesced count
	// followed by one response payload per request, in order.
	TypeBatchResponse = 4
	// TypeError carries a whole-exchange error, mirroring the JSON
	// {"error":{...}} envelope on a non-2xx status.
	TypeError = 5
)

// Magic bytes opening every frame.
const (
	magic0 = 'H'
	magic1 = 'S'
)

const headerLen = 8

// Decoder sanity caps. They bound single-allocation sizes against
// malformed input; semantic limits (the server's batch cap, binding counts)
// are enforced by the server with proper envelope codes.
const (
	maxStringLen = 1 << 20
	maxFrameLen  = 64 << 20
)

// Decode errors. A frame the decoder cannot read wraps ErrMalformed;
// ErrVersion additionally tags version mismatches so callers can
// distinguish "speaks an unknown dialect" from "corrupt bytes". A batch
// request of more items than its Decoder accepts is ErrTooLarge instead.
var (
	ErrMalformed = errors.New("wire: malformed frame")
	ErrVersion   = fmt.Errorf("%w: version mismatch", ErrMalformed)
	ErrTooLarge  = errors.New("wire: frame too large")

	// made once, so the scalar readers stay small
	errShortVarint = fmt.Errorf("%w: truncated varint", ErrMalformed)
	errShortWord   = fmt.Errorf("%w: truncated 8-byte field", ErrMalformed)
)

// Request is one decide request. Bindings travel in one of two shapes:
//
//   - Slot form (SlotForm true): Values holds the bindings in the
//     region's canonical parameter order — sorted binding names, the
//     same order attrdb.KeyLayout uses — and KeyHash holds
//     attrdb.BindingsHash of the bindings. The server verifies KeyHash
//     against its own layout hash of Values, which catches any
//     client/server disagreement about the region's parameter set, then
//     copies Values straight into a pooled slot vector.
//   - Named form (SlotForm false): Names[i] binds Values[i]. No layout
//     agreement required; the server builds a bindings map as it does
//     for JSON.
type Request struct {
	Region  string
	Execute bool
	// Lease, on a stream, asks the server to stamp the response with its
	// decision epoch (Response.Epoch) and to push the epoch's advances on
	// the connection (TypeEpoch) from then on.
	Lease bool

	SlotForm bool
	KeyHash  uint64   // slot form only
	Names    []string // named form only, len == len(Values)
	Values   []int64
}

// Candidate is one ranked target in a response, mirroring
// offload.Candidate's exported fields. Kind is the target-kind name
// ("cpu"/"gpu").
type Candidate struct {
	Target      string
	Kind        string
	PredSeconds float64
	CalSeconds  float64
}

// Response is one decide response, mirroring the JSON DecideResponseV2.
// When Err is non-nil the remaining fields (other than Region) are
// zero, exactly like a JSON batch item with an "error" member.
type Response struct {
	Region        string
	Verdict       string
	Kind          string
	Policy        string
	Provenance    string
	Candidates    []Candidate
	SplitFraction float64
	CacheHit      bool
	ActualSeconds float64
	DecisionNanos int64
	Err           *Error
	// Epoch is the server's decision epoch, read before the request was
	// decided, on the answer to a Lease request; 0: unstamped.
	Epoch uint64
}

// Error mirrors the JSON error envelope: a stable machine-readable
// code, a human message, and the Retry-After hint as float seconds
// (0 = no hint). Status is the HTTP status the error was served with;
// it is 0 on per-request errors inside a 200 batch response.
type Error struct {
	Status            int
	Code              string
	Message           string
	RetryAfterSeconds float64
}

// Frame is one decoded frame. Exactly the field matching Type is set;
// stream request/response frames additionally carry StreamID.
type Frame struct {
	Type byte

	Req       *Request   // TypeRequest, TypeStreamRequest
	Reqs      []Request  // TypeBatchRequest
	Resp      *Response  // TypeResponse, TypeStreamResponse
	Err       *Error     // TypeError
	Resps     []Response // TypeBatchResponse
	Coalesced int        // TypeBatchResponse

	StreamID uint64     // TypeStreamRequest, TypeStreamResponse
	Credit   uint64     // TypeCredit
	Epoch    uint64     // TypeEpoch
	Away     *Goaway    // TypeGoaway
	Gossip   *GossipMsg // TypeGossip
}

// ---- Encoding ----

// beginFrame appends a frame header with a zero length and returns the
// offset of the length field for endFrame to patch.
func beginFrame(dst []byte, typ byte) ([]byte, int) {
	dst = append(dst, magic0, magic1, Version, typ)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	return dst, lenAt
}

func endFrame(dst []byte, lenAt int) []byte {
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

const (
	reqFlagExecute  = 1 << 0
	reqFlagSlotForm = 1 << 1
	reqFlagLease    = 1 << 2

	respFlagCacheHit = 1 << 0
	respFlagError    = 1 << 1
	respFlagEpoch    = 1 << 2 // a uvarint epoch follows the flags
)

func appendRequestPayload(dst []byte, r *Request) []byte {
	var flags uint64
	if r.Execute {
		flags |= reqFlagExecute
	}
	if r.SlotForm {
		flags |= reqFlagSlotForm
	}
	if r.Lease {
		flags |= reqFlagLease
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = appendString(dst, r.Region)
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	if r.SlotForm {
		dst = binary.LittleEndian.AppendUint64(dst, r.KeyHash)
		for _, v := range r.Values {
			dst = binary.AppendVarint(dst, v)
		}
		return dst
	}
	for i, v := range r.Values {
		dst = appendString(dst, r.Names[i])
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

func appendErrorPayload(dst []byte, e *Error) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.Status))
	dst = appendString(dst, e.Code)
	dst = appendString(dst, e.Message)
	return appendFloat(dst, e.RetryAfterSeconds)
}

func appendResponsePayload(dst []byte, r *Response) []byte {
	var flags uint64
	if r.CacheHit {
		flags |= respFlagCacheHit
	}
	if r.Err != nil {
		flags |= respFlagError
	}
	if r.Epoch != 0 {
		flags |= respFlagEpoch
	}
	dst = binary.AppendUvarint(dst, flags)
	if r.Epoch != 0 {
		dst = binary.AppendUvarint(dst, r.Epoch)
	}
	dst = appendString(dst, r.Region)
	if r.Err != nil {
		return appendErrorPayload(dst, r.Err)
	}
	dst = appendString(dst, r.Verdict)
	dst = appendString(dst, r.Kind)
	dst = appendString(dst, r.Policy)
	dst = appendString(dst, r.Provenance)
	dst = appendFloat(dst, r.SplitFraction)
	dst = appendFloat(dst, r.ActualSeconds)
	dst = binary.AppendVarint(dst, r.DecisionNanos)
	dst = binary.AppendUvarint(dst, uint64(len(r.Candidates)))
	for i := range r.Candidates {
		c := &r.Candidates[i]
		dst = appendString(dst, c.Target)
		dst = appendString(dst, c.Kind)
		dst = appendFloat(dst, c.PredSeconds)
		dst = appendFloat(dst, c.CalSeconds)
	}
	return dst
}

// AppendRequest appends a complete TypeRequest frame.
func AppendRequest(dst []byte, r *Request) []byte {
	dst, at := beginFrame(dst, TypeRequest)
	dst = appendRequestPayload(dst, r)
	return endFrame(dst, at)
}

// AppendBatchRequest appends a complete TypeBatchRequest frame.
func AppendBatchRequest(dst []byte, reqs []Request) []byte {
	dst, at := beginFrame(dst, TypeBatchRequest)
	dst = binary.AppendUvarint(dst, uint64(len(reqs)))
	for i := range reqs {
		dst = appendRequestPayload(dst, &reqs[i])
	}
	return endFrame(dst, at)
}

// AppendResponse appends a complete TypeResponse frame.
func AppendResponse(dst []byte, r *Response) []byte {
	dst, at := beginFrame(dst, TypeResponse)
	dst = appendResponsePayload(dst, r)
	return endFrame(dst, at)
}

// AppendBatchResponse appends a complete TypeBatchResponse frame.
func AppendBatchResponse(dst []byte, coalesced int, resps []Response) []byte {
	dst, at := beginFrame(dst, TypeBatchResponse)
	dst = binary.AppendUvarint(dst, uint64(coalesced))
	dst = binary.AppendUvarint(dst, uint64(len(resps)))
	for i := range resps {
		dst = appendResponsePayload(dst, &resps[i])
	}
	return endFrame(dst, at)
}

// AppendError appends a complete TypeError frame.
func AppendError(dst []byte, e *Error) []byte {
	dst, at := beginFrame(dst, TypeError)
	dst = appendErrorPayload(dst, e)
	return endFrame(dst, at)
}

// ---- Decoding ----

// The intern table's bounds. A decoder meets the same few dozen region,
// target, kind, policy and provenance names over and over; reader.string
// hands every sighting after the first the same immutable string. The
// bounds are constants, not knobs: 256 slots is several times any
// deployment's vocabulary, and a lookup standing in for an allocation
// must not become a cache somebody sizes. Longer strings are never
// entered, so a table pins at most 256 × 64 bytes.
const (
	maxInterned  = 256
	maxInternLen = 64
	internProbe  = 4      // slots a lookup looks at, from the name's home on
	internShift  = 64 - 8 // a hash's top log2(maxInterned) bits are the home
)

// internTable is the fixed name table behind reader.string: open-addressed,
// keyed by a name's length and its first 8 bytes read as one word, so a
// name of at most 8 bytes is matched by an integer compare and only a
// longer one's tail byte by byte. A name whose probe window is full
// overwrites one of its slots, in turn: the table is bounded by its arrays,
// and nothing ever empties it. An empty slot (w 0, s "") is the empty name's.
type internTable struct {
	w      [maxInterned]uint64 // a name's first word
	s      [maxInterned]string
	victim uint8 // counts the overwrites; picks the slot of a full window
}

// key returns b's first 8 bytes (fewer: zero-padded) as a little-endian
// word — one masked load where b's storage runs on for 8 bytes — and b's
// home slot, hashed from that word, its length and, past 8 bytes, its last 8.
func key(b []byte) (w uint64, home uint) {
	n := len(b)
	if cap(b) < 8 {
		var a [8]byte
		b = a[:copy(a[:], b)]
	}
	w = binary.LittleEndian.Uint64(b[:8:8]) & (^uint64(0) >> uint(64-8*min(n, 8)))
	h := w + uint64(n)
	if n > 8 {
		h ^= binary.LittleEndian.Uint64(b[n-8:]) * 0xff51afd7ed558ccd
	}
	return w, uint(h * 0x9e3779b97f4a7c15 >> internShift)
}

func (t *internTable) get(b []byte) string {
	n := len(b)
	w, home := key(b)
	free := -1
	for k := uint(0); k < internProbe; k++ {
		i := (home + k) % maxInterned
		if t.w[i] == w && len(t.s[i]) == n && (n <= 8 || t.s[i][8:] == string(b[8:])) {
			return t.s[i]
		}
		if free < 0 && len(t.s[i]) == 0 {
			free = int(i)
		}
	}
	if free < 0 {
		t.victim++
		free = int((home + uint(t.victim)%internProbe) % maxInterned)
	}
	t.w[free], t.s[free] = w, string(b)
	return t.s[free]
}

// reader is the decode state of one frame: a bounds-checked cursor over
// the payload, the intern table, the item limit and the item arenas.
type reader struct {
	b []byte
	i int

	in       *internTable // nil: none
	maxItems int          // a batch request of more items is ErrTooLarge; 0: payload-bounded
	left     int          // items of the frame not yet decoded, the current one included

	vals  []int64
	names []string
	cands []Candidate

	// A StreamReader's responses, and their candidates, are cut from slabs
	// kept across frames: each cut is handed out once and never decoded into
	// again, so whoever receives it owns it.
	slabs bool
	resps []Response
}

// Slab sizes. 142 responses (152 B each) and 282 candidates (48 B) fill
// the allocator's 21760- and 13568-byte size classes, its 8-byte header
// included, to within 0.8 %: a slab costs a decision no more bytes than
// allocating its Response and Candidates one by one did.
const (
	respSlab = 142
	candSlab = 282
)

// response returns a zero Response to decode into: a cut of the slab,
// if the reader keeps one.
func (r *reader) response() *Response {
	if !r.slabs {
		return new(Response)
	}
	if len(r.resps) == 0 {
		r.resps = make([]Response, respSlab)
	}
	resp := &r.resps[0]
	r.resps = r.resps[1:]
	return resp
}

func (r *reader) uvarint() (uint64, error) {
	if r.i < len(r.b) && r.b[r.i] < 0x80 { // flags, lengths and counts, mostly
		r.i++
		return uint64(r.b[r.i-1]), nil
	}
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		return 0, errShortVarint
	}
	r.i += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	u, err := r.uvarint()
	return int64(u>>1) ^ -int64(u&1), err // binary.Varint's zig-zag
}

func (r *reader) float() (float64, error) {
	v, err := r.uint64()
	return math.Float64frombits(v), err
}

func (r *reader) uint64() (uint64, error) {
	if r.i+8 > len(r.b) {
		return 0, errShortWord
	}
	v := binary.LittleEndian.Uint64(r.b[r.i:])
	r.i += 8
	return v, nil
}

// raw reads a length-prefixed byte string without copying it.
func (r *reader) raw() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxStringLen || r.i+int(n) > len(r.b) {
		return nil, fmt.Errorf("%w: string length %d out of range", ErrMalformed, n)
	}
	b := r.b[r.i : r.i+int(n)]
	r.i += int(n)
	return b, nil
}

// string reads a name of the wire vocabulary through the intern table:
// the (immutable) result may be shared with other frames.
func (r *reader) string() (string, error) {
	// A name the table takes has a one-byte length prefix (maxInternLen < 0x80).
	if i := r.i + 1; r.in != nil && i <= len(r.b) {
		if n := int(r.b[i-1]); n <= maxInternLen && i+n <= len(r.b) {
			r.i = i + n
			return r.in.get(r.b[i : i+n]), nil
		}
	}
	b, err := r.raw()
	return string(b), err
}

// text reads free text (error message, goaway reason): never interned.
func (r *reader) text() (string, error) {
	b, err := r.raw()
	return string(b), err
}

// count reads a collection length and checks it before anything is sized
// by it: against limit (0: none), and against the remaining payload —
// every element costs at least min bytes, so a count that could not
// possibly fit is rejected.
func (r *reader) count(min, limit int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if limit > 0 && n > uint64(limit) {
		return 0, fmt.Errorf("%w: batch of %d exceeds limit %d", ErrTooLarge, n, limit)
	}
	if remain := len(r.b) - r.i; n > uint64(remain/min)+1 {
		return 0, fmt.Errorf("%w: count %d exceeds payload", ErrMalformed, n)
	}
	return int(n), nil
}

func (r *reader) done() error {
	if r.i != len(r.b) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrMalformed, len(r.b)-r.i)
	}
	return nil
}

// slots returns storage for the n elements of one item: own, what the
// item arrived holding, when that is large enough, otherwise a cut of the
// frame's arena *a. An arena too short for the cut is first replaced by
// one sized for every item the frame still holds, n elements each — one
// allocation per frame of like items — but for no more than the rest of
// the payload could encode at size bytes an element. Earlier cuts keep
// the chunk they came from.
func slots[T any](r *reader, own []T, a *[]T, n, size int) []T {
	if cap(own) >= n {
		return own[:n]
	}
	if cap(*a)-len(*a) < n {
		*a = make([]T, 0, max(n, min(n*r.left, (len(r.b)-r.i)/size)))
	}
	at := len(*a)
	*a = (*a)[:at+n]
	return (*a)[at : at+n : at+n]
}

// decodeRequestInto decodes one request payload over *req; a recycled
// stream request keeps its Values and Names storage (see slots).
func decodeRequestInto(r *reader, req *Request) error {
	flags, err := r.uvarint()
	if err != nil {
		return err
	}
	vals, names := req.Values, req.Names
	*req = Request{
		Execute:  flags&reqFlagExecute != 0,
		SlotForm: flags&reqFlagSlotForm != 0,
		Lease:    flags&reqFlagLease != 0,
	}
	if req.Region, err = r.string(); err != nil {
		return err
	}
	n, err := r.count(1, 0)
	if err != nil {
		return err
	}
	if req.SlotForm {
		if req.KeyHash, err = r.uint64(); err != nil {
			return err
		}
	}
	if n == 0 {
		return nil
	}
	req.Values = slots(r, vals, &r.vals, n, 1)
	if !req.SlotForm {
		req.Names = slots(r, names, &r.names, n, 1)
	}
	for i := range req.Values {
		if !req.SlotForm {
			if req.Names[i], err = r.string(); err != nil {
				return err
			}
		}
		if req.Values[i], err = r.varint(); err != nil {
			return err
		}
	}
	return nil
}

func decodeErrorPayload(r *reader) (*Error, error) {
	status, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	e := &Error{Status: int(status)}
	if e.Code, err = r.string(); err != nil {
		return nil, err
	}
	if e.Message, err = r.text(); err != nil {
		return nil, err
	}
	if e.RetryAfterSeconds, err = r.float(); err != nil {
		return nil, err
	}
	return e, nil
}

// decodeResponseInto decodes one response payload over the zero *resp,
// its Candidates a cut of the frame's arena, or of the reader's slab.
func decodeResponseInto(r *reader, resp *Response) error {
	flags, err := r.uvarint()
	if err != nil {
		return err
	}
	resp.CacheHit = flags&respFlagCacheHit != 0
	if flags&respFlagEpoch != 0 {
		if resp.Epoch, err = r.uvarint(); err != nil {
			return err
		}
	}
	if resp.Region, err = r.string(); err != nil {
		return err
	}
	if flags&respFlagError != 0 {
		resp.Err, err = decodeErrorPayload(r)
		return err
	}
	if resp.Verdict, err = r.string(); err != nil {
		return err
	}
	if resp.Kind, err = r.string(); err != nil {
		return err
	}
	if resp.Policy, err = r.string(); err != nil {
		return err
	}
	if resp.Provenance, err = r.string(); err != nil {
		return err
	}
	if resp.SplitFraction, err = r.float(); err != nil {
		return err
	}
	if resp.ActualSeconds, err = r.float(); err != nil {
		return err
	}
	if resp.DecisionNanos, err = r.varint(); err != nil {
		return err
	}
	n, err := r.count(4, 0)
	if err != nil || n == 0 {
		return err
	}
	if r.slabs && cap(r.cands)-len(r.cands) < n {
		r.cands = make([]Candidate, 0, max(n, candSlab))
	}
	resp.Candidates = slots(r, nil, &r.cands, n, 18)
	for i := range resp.Candidates {
		c := &resp.Candidates[i]
		if c.Target, err = r.string(); err != nil {
			return err
		}
		if c.Kind, err = r.string(); err != nil {
			return err
		}
		if c.PredSeconds, err = r.float(); err != nil {
			return err
		}
		if c.CalSeconds, err = r.float(); err != nil {
			return err
		}
	}
	return nil
}

// checkHeader validates a frame header: its type and payload length.
func checkHeader(hdr []byte) (typ byte, plen int, err error) {
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, 0, fmt.Errorf("%w: bad magic %#02x%02x", ErrMalformed, hdr[0], hdr[1])
	}
	if hdr[2] != Version {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, hdr[2], Version)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxFrameLen {
		return 0, 0, fmt.Errorf("%w: payload length %d exceeds cap", ErrMalformed, n)
	}
	return hdr[3], int(n), nil
}

// decodeFrameInto is decodePayloadInto for the first frame in data.
func (r *reader) decodeFrameInto(f *Frame, data []byte) (int, error) {
	if len(data) < headerLen {
		return 0, fmt.Errorf("%w: %d bytes, want %d-byte header", ErrMalformed, len(data), headerLen)
	}
	typ, plen, err := checkHeader(data)
	if err != nil {
		return 0, err
	}
	if headerLen+plen > len(data) {
		return 0, fmt.Errorf("%w: payload length %d exceeds body", ErrMalformed, plen)
	}
	return headerLen + plen, r.decodePayloadInto(f, typ, data[headerLen:headerLen+plen])
}

// decodePayloadInto is the one payload decoder: DecodeFrame,
// Decoder.Decode and StreamReader.NextInto all end here, the header
// already validated. It overwrites every field of *f, so that a frame
// decoded in place is the frame a fresh decode returns. Requests are
// decoded over what *f arrived holding (the Request it points at with its
// item slices, the Reqs slice; a frame of another type drops them); a
// single response is cut from the reader's slabs if it keeps them;
// everything else is allocated. After an error *f holds nothing usable.
func (r *reader) decodePayloadInto(f *Frame, typ byte, payload []byte) error {
	r.b, r.i, r.left = payload, 0, 1
	req, reqs := f.Req, f.Reqs
	*f = Frame{Type: typ}
	var err error
	if typ == TypeStreamRequest || typ == TypeStreamResponse {
		if f.StreamID, err = r.uvarint(); err != nil {
			return err
		}
	}
	switch typ {
	case TypeRequest, TypeStreamRequest:
		if f.Req = req; req == nil {
			f.Req = new(Request)
		}
		err = decodeRequestInto(r, f.Req)
	case TypeBatchRequest:
		var n int
		if n, err = r.count(2, r.maxItems); err == nil {
			if reqs == nil || cap(reqs) < n {
				reqs = make([]Request, n) // never nil: an empty batch is an empty slice
			}
			f.Reqs = reqs[:n]
			clear(f.Reqs) // no item may find the storage it held in the last frame
			for i := 0; i < n && err == nil; i++ {
				r.left = n - i
				err = decodeRequestInto(r, &f.Reqs[i])
			}
		}
	case TypeResponse, TypeStreamResponse:
		f.Resp = r.response()
		err = decodeResponseInto(r, f.Resp)
	case TypeBatchResponse:
		var co uint64
		if co, err = r.uvarint(); err == nil {
			f.Coalesced = int(co)
			var n int
			if n, err = r.count(2, 0); err == nil {
				f.Resps = make([]Response, n)
				for i := 0; i < n && err == nil; i++ {
					r.left = n - i
					err = decodeResponseInto(r, &f.Resps[i])
				}
			}
		}
	case TypeError:
		f.Err, err = decodeErrorPayload(r)
	case TypeCredit:
		f.Credit, err = r.uvarint()
	case TypeEpoch:
		f.Epoch, err = r.uvarint()
	case TypeGoaway:
		f.Away, err = decodeGoawayPayload(r)
	case TypeGossip:
		f.Gossip, err = decodeGossipPayload(r)
	default:
		err = fmt.Errorf("%w: unknown frame type %d", ErrMalformed, typ)
	}
	if err != nil {
		return err
	}
	return r.done()
}

// frameInterners pools DecodeFrame's tables, which keep their names for
// the next batch frame (bounded like every table: see maxInterned).
var frameInterners = sync.Pool{New: func() any { return new(internTable) }}

// DecodeFrame decodes the first frame in data and returns it along with
// the number of bytes consumed. The frame is the caller's: nothing in it
// is decoded into again. Names are interned across batch frames, where
// they repeat; a single frame repeats next to nothing. A batch's items are
// bounded by its payload only (a client trusts its own server's
// responses); a server uses a Decoder with MaxItems.
func DecodeFrame(data []byte) (*Frame, int, error) {
	r, f := reader{}, new(Frame)
	if len(data) > 3 && (data[3] == TypeBatchRequest || data[3] == TypeBatchResponse) {
		r.in = frameInterners.Get().(*internTable)
		defer frameInterners.Put(r.in)
	}
	n, err := r.decodeFrameInto(f, data)
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

// A Decoder decodes request frames one after another into storage it
// keeps, so that in steady state decoding them allocates nothing: the
// frame Decode returns, and everything it points at, is valid until the
// next Decode. Names are interned across frames (see maxInterned). The
// zero value is ready to use; a Decoder is not safe for concurrent use.
type Decoder struct {
	// MaxItems, when positive, bounds the items of a TypeBatchRequest
	// frame: a larger count fails with ErrTooLarge before anything is
	// sized by it. Batch responses stay bounded by their payload alone.
	MaxItems int

	r     reader
	frame Frame
	req   Request
	reqs  []Request
}

// Decode decodes the first frame in data and returns it along with the
// number of bytes consumed. It invalidates the previous frame.
func (d *Decoder) Decode(data []byte) (*Frame, int, error) {
	r, f := &d.r, &d.frame
	if r.in == nil {
		r.in = new(internTable)
	}
	r.maxItems = d.MaxItems
	r.vals, r.names, r.cands = r.vals[:0], r.names[:0], r.cands[:0]
	f.Req, f.Reqs = &d.req, d.reqs
	n, err := r.decodeFrameInto(f, data)
	if f.Reqs != nil {
		d.reqs = f.Reqs
	}
	if err != nil {
		return nil, 0, err
	}
	return f, n, nil
}

// DecodeAll decodes a body of one or more back-to-back frames. It
// rejects empty bodies and trailing garbage.
func DecodeAll(data []byte) ([]*Frame, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty body", ErrMalformed)
	}
	var frames []*Frame
	for len(data) > 0 {
		f, n, err := DecodeFrame(data)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
		data = data[n:]
	}
	return frames, nil
}
