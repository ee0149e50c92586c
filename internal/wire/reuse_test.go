package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// This file holds the decoder's ownership and allocation contracts:
// decoding in place must never be observable (a recycled Decoder or
// StreamReader returns what a fresh DecodeFrame returns, whatever it
// decoded before), and the steady-state allocation counts are budgets,
// not anecdotes.

// batch64 builds a 64-item slot-form batch request and the batch response
// that answers it, over the benchmark's shape: 24 regions, two slot
// values, four ranked targets.
func batch64() (reqs []Request, resps []Response) {
	targets := []string{"gpu/base", "gpu/prev", "cpu/base", "cpu/half"}
	for i := 0; i < 64; i++ {
		region := fmt.Sprintf("kernel%02d", i%24)
		reqs = append(reqs, Request{Region: region, SlotForm: true, KeyHash: uint64(i) * 0x9e3779b97f4a7c15,
			Values: []int64{int64(256 + i), int64(1100 + i)}})
		resp := Response{Region: region, Verdict: targets[0], Kind: "gpu", Policy: "model-guided",
			Provenance: "learned", DecisionNanos: int64(700 + i)}
		for j, tg := range targets {
			resp.Candidates = append(resp.Candidates, Candidate{Target: tg, Kind: tg[:3],
				PredSeconds: float64(i+j) * 1e-3, CalSeconds: float64(i+j) * 1.1e-3})
		}
		resps = append(resps, resp)
	}
	return reqs, resps
}

// allocsPerRun is testing.AllocsPerRun on one P, where nothing else
// allocates into the count.
func allocsPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return testing.AllocsPerRun(runs, fn)
}

func TestDecoderBatchRequestDoesNotAllocate(t *testing.T) {
	reqs, _ := batch64()
	body := AppendBatchRequest(nil, reqs)
	dec := &Decoder{MaxItems: 4096}
	var err error
	got := allocsPerRun(100, func() { _, _, err = dec.Decode(body) })
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("Decoder.Decode of a 64-item slot-form batch: %v allocs, want 0", got)
	}
	fr, _, _ := dec.Decode(body)
	if !reflect.DeepEqual(fr.Reqs, reqs) {
		t.Fatalf("decoded batch differs from what was encoded")
	}
}

// TestDecoderItemLimit: the count of a batch request is checked against
// the Decoder's limit before anything is sized by it — a frame of a few
// bytes claiming 2^23 items fails with ErrTooLarge having allocated next
// to nothing — while DecodeFrame and batch responses stay payload-bounded.
func TestDecoderItemLimit(t *testing.T) {
	reqs, resps := batch64()
	dec := &Decoder{MaxItems: 63}
	if _, _, err := dec.Decode(AppendBatchRequest(nil, reqs)); !errors.Is(err, ErrTooLarge) || errors.Is(err, ErrMalformed) {
		t.Fatalf("64 items past a limit of 63: %v, want ErrTooLarge", err)
	}
	if _, _, err := dec.Decode(AppendBatchRequest(nil, reqs[:63])); err != nil {
		t.Fatalf("63 items at a limit of 63: %v", err)
	}
	if _, _, err := dec.Decode(AppendBatchResponse(nil, 0, resps)); err != nil {
		t.Fatalf("a batch response is not bounded by MaxItems: %v", err)
	}
	if _, _, err := DecodeFrame(AppendBatchRequest(nil, reqs)); err != nil {
		t.Fatalf("DecodeFrame has no item limit: %v", err)
	}

	hostile := []byte{'H', 'S', Version, TypeBatchRequest, 4, 0, 0, 0, 0x80, 0x80, 0x80, 0x04} // count 2^23
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := dec.Decode(hostile)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("count 2^23: %v, want ErrTooLarge", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4096 {
		t.Fatalf("refusing a count of 2^23 allocated %d bytes", grew)
	}
	if _, _, err := DecodeFrame(hostile); !errors.Is(err, ErrMalformed) {
		t.Fatalf("DecodeFrame of a count past the payload: %v, want ErrMalformed", err)
	}
}

// TestInternTableBound: a peer inventing names cannot grow the table past
// its bound, every name still decodes exactly, and the real vocabulary is
// interned again as soon as it is seen again.
func TestInternTableBound(t *testing.T) {
	var stream bytes.Buffer
	sr := NewStreamReader(&stream)
	var f Frame
	decode := func(region string) {
		t.Helper()
		stream.Write(AppendStreamRequest(nil, 1, &Request{Region: region, SlotForm: true, Values: []int64{7}}))
		if err := sr.NextInto(&f); err != nil {
			t.Fatal(err)
		}
		if f.Req.Region != region {
			t.Fatalf("decoded region %q, want %q", f.Req.Region, region)
		}
	}
	// interned counts the table's names and the longest of them.
	interned := func() (names, longest int) {
		for _, s := range sr.r.in.s {
			if s != "" {
				names, longest = names+1, max(longest, len(s))
			}
		}
		return names, longest
	}
	decode("gemm")
	for i := 0; i < 10000; i++ {
		decode("invented-" + strconv.Itoa(i))
		if n, _ := interned(); n > maxInterned {
			t.Fatalf("intern table holds %d entries after %d names, bound %d", n, i+1, maxInterned)
		}
	}
	decode(strings.Repeat("x", maxInternLen+1))
	if _, longest := interned(); longest > maxInternLen {
		t.Fatalf("a name of %d bytes was interned, bound %d", longest, maxInternLen)
	}
	decode("gemm") // first sighting since an invented name took its slot, at the latest
	frame := AppendStreamRequest(nil, 2, &Request{Region: "gemm", SlotForm: true, Values: []int64{7}})
	if got := allocsPerRun(100, func() {
		stream.Write(frame)
		if err := sr.NextInto(&f); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("decoding a known name into a recycled request: %v allocs, want 0", got)
	}
}

// TestInternCollisionsDecodeExactly: names that land in one probe window —
// more of them than it holds: an 8-byte name, longer names that share its
// first word and one length, so that only their tails tell them apart, and
// short names of other words — decode byte-exact in any interleaving,
// through a StreamReader's table and a Decoder's alike.
func TestInternCollisionsDecodeExactly(t *testing.T) {
	homeOf := func(s string) uint {
		_, home := key([]byte(s))
		return home
	}
	window := []string{"abcdefgh"}
	for _, name := range []func(i int) string{
		func(i int) string { return "abcdefgh" + strconv.Itoa(i) },
		func(i int) string { return "k" + strconv.Itoa(i) },
	} {
		for i, found := 1000, 0; i < 10000 && found < 3; i++ {
			if s := name(i); homeOf(s) == homeOf(window[0]) {
				window, found = append(window, s), found+1
			}
		}
	}
	if len(window) != 7 {
		t.Fatalf("found %q in one probe window, want 7 names", window)
	}

	r := rand.New(rand.NewSource(46))
	var stream bytes.Buffer
	sr := NewStreamReader(&stream)
	dec := new(Decoder)
	var f Frame
	for i := 0; i < 2000; i++ {
		a, b := window[r.Intn(len(window))], window[r.Intn(len(window))]
		req := Request{Region: a, Names: []string{b, a}, Values: []int64{1, 2}}
		stream.Write(AppendStreamRequest(nil, uint64(i), &req))
		if err := sr.NextInto(&f); err != nil {
			t.Fatal(err)
		}
		if f.Req.Region != a || f.Req.Names[0] != b || f.Req.Names[1] != a {
			t.Fatalf("stream request %d: decoded %q %q, want %q %q %q", i, f.Req.Region, f.Req.Names, a, b, a)
		}
		got, _, err := dec.Decode(AppendBatchRequest(nil, []Request{{Region: b}, req}))
		if err != nil {
			t.Fatal(err)
		}
		if got.Reqs[0].Region != b || got.Reqs[1].Region != a || got.Reqs[1].Names[0] != b {
			t.Fatalf("batch request %d: decoded %q %q, want %q %q", i, got.Reqs[0].Region, got.Reqs[1].Region, b, a)
		}
	}
}

// corpusOf parses the checked-in corpus of another fuzz target of this
// package (the go test fuzz v1 files holding one []byte each).
func corpusOf(t testing.TB, target string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus for %s: %v", target, err)
	}
	var out [][]byte
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(string(raw), "[]byte(")
		if !ok {
			t.Fatalf("%s: not a []byte corpus file", name)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzDecoderReuse: recycling must never be observable. One Decoder and
// one StreamReader (decoding into one Frame, over whatever Request the
// last frame left in it) live across the whole corpus —
// valid, truncated and malformed inputs interleaved, in whatever order
// the engine runs them. Frame for frame they must return what a fresh
// DecodeFrame of the same bytes returns, fail where it fails, and after
// every input, whatever it did to them, still decode a frame of each
// storage-carrying kind exactly.
func FuzzDecoderReuse(f *testing.F) {
	for _, target := range []string{"FuzzWireFrame", "FuzzStreamFrame", "FuzzGossipFrame"} {
		for _, data := range corpusOf(f, target) {
			f.Add(data)
		}
	}
	reqs, resps := batch64()
	named := Request{Region: "mvt1", Names: []string{"m", "n"}, Values: []int64{128, 1100}}
	probes := [][]byte{
		AppendBatchRequest(nil, reqs[:5]),
		AppendStreamRequest(nil, 3, &reqs[7]),
		AppendRequest(nil, &named),
		AppendRequest(nil, &Request{Region: "bare"}), // nil slices again, not the last frame's emptied
		AppendBatchResponse(nil, 1, resps[:5]),
		AppendStreamResponse(nil, 4, &resps[9]),
		AppendStreamResponse(nil, 5, &Response{Region: "bare", Verdict: "cpu/base"}),
		AppendStreamResponse(nil, 6, &Response{Region: "bare", Verdict: "cpu/base", Epoch: 1 << 33}),
		append(AppendEpoch(nil, 2), AppendStreamRequest(nil, 7, &Request{Region: "mvt1", Lease: true, Names: []string{"n"}, Values: []int64{9}})...),
		AppendResponse(nil, &Response{Region: "x", Err: &Error{Code: "unknown_region", Message: "no"}}),
	}
	// Consecutive frames that change the name at one position — to one of
	// the same length, to a shorter one, to "" — past the 16th position
	// too: a name matched against one the table holds must decode as fresh
	// as one read for the first time.
	wide := resps[9]
	for len(wide.Candidates) < 16 {
		wide.Candidates = append(wide.Candidates, Candidate{Target: fmt.Sprintf("gpu/v%d", len(wide.Candidates)), Kind: "gpu"})
	}
	edited := func(id uint64, edit func(*Response)) []byte {
		r := wide
		r.Candidates = append([]Candidate(nil), wide.Candidates...)
		edit(&r)
		return AppendStreamResponse(nil, id, &r)
	}
	names := []byte(nil)
	for id, edit := range []func(*Response){
		func(*Response) {},
		func(r *Response) { r.Verdict = "gpu/prev" },
		func(r *Response) { r.Policy = "model-guidex" },
		func(r *Response) { r.Kind = "" },
		func(r *Response) { r.Candidates[1].Target = "cpu/b" },
		func(r *Response) { r.Candidates[2].Kind = "cpu" },
		func(r *Response) { r.Candidates[15].Target = "gpu/vX" },
		func(*Response) {},
	} {
		names = append(names, edited(uint64(10+id), edit)...)
	}
	regions := AppendStreamRequest(nil, 20, &Request{Region: "kernel07", Names: []string{"m", "n"}, Values: []int64{1, 2}})
	regions = AppendStreamRequest(regions, 21, &Request{Region: "kernel08", Names: []string{"m", "n"}, Values: []int64{1, 2}})
	regions = AppendStreamRequest(regions, 22, &Request{Region: "kernel08", Names: []string{"n", "m"}, Values: []int64{1, 2}})
	regions = AppendStreamRequest(regions, 23, &Request{Region: "kernel8", Names: []string{"n", ""}, Values: []int64{1, 2}})
	probes = append(probes, names, regions)
	for _, p := range probes {
		f.Add(p)
		f.Add(p[:len(p)-3])
		f.Add(append(append([]byte(nil), p...), p[:len(p)/2]...))
	}

	dec := new(Decoder)
	var src bytes.Reader
	sr := NewStreamReader(&src)
	var into Frame

	// same decodes data — a body of back-to-back frames — three ways and
	// compares frame by frame.
	same := func(t *testing.T, data []byte) {
		src.Reset(data)
		sr.br.Reset(&src) // drop what a malformed input left unread
		for rest := data; len(rest) > 0; {
			want, n, werr := DecodeFrame(rest)
			got, m, derr := dec.Decode(rest)
			if (werr == nil) != (derr == nil) || m != n {
				t.Fatalf("Decoder: (%d bytes, %v), DecodeFrame: (%d bytes, %v)", m, derr, n, werr)
			}
			serr := sr.NextInto(&into)
			if werr != nil {
				if serr == nil {
					t.Fatalf("StreamReader accepted what DecodeFrame rejects: %v", werr)
				}
				return
			}
			if serr != nil {
				t.Fatalf("StreamReader rejected (%v) what DecodeFrame accepts", serr)
			}
			// DeepEqual, except that it never equates a NaN — not even
			// between two fresh decodes of the same bytes, which is how such
			// a frame is told; those compare by canonical encoding.
			equal := func(got *Frame) bool {
				if reflect.DeepEqual(got, want) {
					return true
				}
				twin, _, _ := DecodeFrame(rest)
				return !reflect.DeepEqual(twin, want) && bytes.Equal(reencode(got), reencode(want))
			}
			if !equal(got) {
				t.Fatalf("reused Decoder:\n got %+v\nwant %+v", got, want)
			}
			if !equal(&into) {
				t.Fatalf("reused StreamReader:\n got %+v\nwant %+v", &into, want)
			}
			rest = rest[n:]
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		same(t, data)
		for _, p := range probes {
			same(t, p)
		}
	})
}
