package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// TestCodecEquivalence is the one table holding every codec of the
// decide core to the same answers. The same request list goes through
// /v2 JSON single, /v2 JSON batch, frame single, frame batch, the stream,
// a lease the stream granted and the client's local fallback; each must
// produce, row for row, the
// DecideResponseV2 an in-process offload.Runtime reference yields
// (modulo CacheHit and DecisionNanos, which depend on who asked first)
// or the row's error code. Whatever the spelling, the daemon prices every
// row with the slot programs.
func TestCodecEquivalence(t *testing.T) {
	url, streamAddr := realStreamDaemon(t)
	params := regionParamsHook(fallbackRuntime(t))

	gemm := func(n int64) server.DecideRequest {
		return server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": n}}
	}
	// A slot vector whose hash is not the hash of its values.
	mismatch := toWireRequest(gemm(512), params)
	mismatch.KeyHash ^= 0xbad
	// The slot vector that a bindings map naming more than the parameters
	// is projected onto.
	exact := toWireRequest(gemm(300), params)
	rows := []struct {
		name string
		req  server.DecideRequest
		// frame, when set, is what the frame and stream codecs send in
		// place of req's own projection: the failures only a slot vector
		// can have. noJSON marks those with no JSON spelling at all.
		frame  *wire.Request
		noJSON bool
		code   string // expected error code, "" = a verdict
	}{
		{name: "miss", req: gemm(700)},
		{name: "hit", req: gemm(700)},
		{name: "other region", req: server.DecideRequest{Region: "mvt1", Bindings: map[string]int64{"n": 4000}}},
		{name: "execute", req: server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 96}, Execute: true}},
		{name: "duplicate inside a batch", req: gemm(700)},
		{name: "a name beyond the parameters", frame: &exact,
			req: server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"n": 300, "extra": 1}}},
		{name: "unknown region", req: server.DecideRequest{Region: "nope", Bindings: map[string]int64{"n": 8}},
			code: server.ErrCodeUnknownRegion},
		{name: "unbound symbol", req: server.DecideRequest{Region: "gemm", Bindings: map[string]int64{"m": 8}},
			code: server.ErrCodeUnboundSymbol},
		{name: "empty iteration space", req: gemm(0), code: server.ErrCodeOutOfRange},
		{name: "wrong slot count", req: server.DecideRequest{Region: "gemm"},
			frame: &wire.Request{Region: "gemm", SlotForm: true, Values: make([]int64, 9)},
			code:  server.ErrCodeUnboundSymbol},
		{name: "key-hash mismatch", frame: &mismatch, noJSON: true, code: server.ErrCodeBadRequest},
		{name: "empty region", req: server.DecideRequest{Bindings: map[string]int64{"n": 8}},
			code: server.ErrCodeBadRequest},
	}

	// The reference: the runtime asked directly, projected by hand.
	ref := fallbackRuntime(t)
	want := make([]server.DecideResponseV2, len(rows))
	for i, row := range rows {
		if row.code != "" {
			continue
		}
		region, err := ref.Region(row.req.Region)
		if err != nil {
			t.Fatalf("%s: reference: %v", row.name, err)
		}
		var out *offload.Outcome
		if row.req.Execute {
			out, err = region.Launch(symbolic.Bindings(row.req.Bindings))
		} else {
			out, err = region.Decide(symbolic.Bindings(row.req.Bindings))
		}
		if err != nil {
			t.Fatalf("%s: reference: %v", row.name, err)
		}
		want[i] = server.DecideResponseV2{
			Region: row.req.Region, Verdict: out.TargetID, Kind: out.Target.String(),
			Policy: out.Policy.Name(), Candidates: out.Candidates, SplitFraction: out.SplitFraction,
			Provenance: out.Provenance, ActualSeconds: out.ActualSeconds,
		}
	}

	// answer is one codec's reply to one row: a verdict, or an error code.
	type answer struct {
		resp server.DecideResponseV2
		code string
	}
	fromV2 := func(r server.DecideResponseV2) answer {
		if r.Error != nil {
			return answer{code: r.Error.Code}
		}
		return answer{resp: r}
	}
	fromWire := func(r *wire.Response) answer { return fromV2(wireToResponseV2(r, nil)) }
	post := func(contentType string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(url+"/v2/decide", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	frameOf := func(i int) *wire.Request {
		if rows[i].frame != nil {
			return rows[i].frame
		}
		wr := toWireRequest(rows[i].req, params)
		return &wr
	}

	sc, err := DialStream(StreamDialConfig{Addr: streamAddr})
	must(err)
	defer sc.Close()
	degraded := newTestClient(t, Config{
		BaseURL: "http://127.0.0.1:1", Fallback: fallbackRuntime(t),
		maxAttempts: 1,
	})

	// Each codec answers every row it can spell; nil marks a row it cannot.
	codecs := []struct {
		name string
		run  func() []*answer
	}{
		{"v2 JSON single", func() []*answer {
			out := make([]*answer, len(rows))
			for i, row := range rows {
				if row.noJSON {
					continue
				}
				body, err := json.Marshal(row.req)
				must(err)
				status, raw := post("application/json", body)
				var a answer
				if status == http.StatusOK {
					must(json.Unmarshal(raw, &a.resp))
				} else {
					var env server.ErrorEnvelope
					must(json.Unmarshal(raw, &env))
					a.code = env.Error.Code
				}
				out[i] = &a
			}
			return out
		}},
		{"v2 JSON batch", func() []*answer {
			var idx []int
			var reqs []server.DecideRequest
			for i, row := range rows {
				if !row.noJSON {
					idx, reqs = append(idx, i), append(reqs, row.req)
				}
			}
			body, err := json.Marshal(map[string]any{"requests": reqs})
			must(err)
			status, raw := post("application/json", body)
			var br server.BatchResponseV2
			must(json.Unmarshal(raw, &br))
			if status != http.StatusOK || len(br.Results) != len(reqs) {
				t.Fatalf("JSON batch: HTTP %d, %d results for %d requests", status, len(br.Results), len(reqs))
			}
			if br.Coalesced != 2 {
				t.Errorf("JSON batch coalesced %d items, want the 2 repeats of gemm(700)", br.Coalesced)
			}
			out := make([]*answer, len(rows))
			for j, i := range idx {
				a := fromV2(br.Results[j])
				out[i] = &a
			}
			return out
		}},
		{"frame single", func() []*answer {
			out := make([]*answer, len(rows))
			for i := range rows {
				status, raw := post(wire.ContentType, wire.AppendRequest(nil, frameOf(i)))
				frames, err := wire.DecodeAll(raw)
				must(err)
				if len(frames) != 1 {
					t.Fatalf("%s: %d response frames", rows[i].name, len(frames))
				}
				var a answer
				if status == http.StatusOK {
					a = fromWire(frames[0].Resp)
				} else {
					a.code = frames[0].Err.Code
				}
				out[i] = &a
			}
			return out
		}},
		{"frame batch", func() []*answer {
			wrs := make([]wire.Request, len(rows))
			for i := range rows {
				wrs[i] = *frameOf(i)
			}
			status, raw := post(wire.ContentType, wire.AppendBatchRequest(nil, wrs))
			frames, err := wire.DecodeAll(raw)
			must(err)
			if status != http.StatusOK || len(frames) != 1 || len(frames[0].Resps) != len(rows) {
				t.Fatalf("frame batch: HTTP %d, frames %+v", status, frames)
			}
			out := make([]*answer, len(rows))
			for i := range rows {
				a := fromWire(&frames[0].Resps[i])
				out[i] = &a
			}
			return out
		}},
		{"stream", func() []*answer {
			out := make([]*answer, len(rows))
			for i := range rows {
				resp, err := sc.Decide(context.Background(), frameOf(i))
				must(err)
				a := fromWire(resp)
				out[i] = &a
			}
			return out
		}},
		// Each row asked twice of a client of its own: a decide-only verdict
		// is served the second time from the lease the first answer granted.
		{"client stream, leased repeat", func() []*answer {
			out := make([]*answer, len(rows))
			for i, row := range rows {
				if row.noJSON {
					continue
				}
				leasing := newTestClient(t, Config{
					BaseURL: url, Stream: true, StreamAddr: streamAddr, RegionParams: params,
					maxAttempts: 1,
				})
				var a answer
				for ask := 0; ask < 2; ask++ {
					v, err := leasing.Decide(context.Background(), row.req)
					var re *RemoteError
					switch {
					case errors.As(err, &re):
						a = answer{code: re.Code}
					case err != nil:
						t.Fatalf("%s: %v", row.name, err)
					default:
						a = fromV2(v.Response)
						if leased := ask == 1 && !row.req.Execute; leased != (v.Transport == TransportLease) ||
							leased && (v.Provenance != ProvenanceRemote || v.Attempts != 0) {
							t.Fatalf("%s, ask %d: %s over %s after %d attempts", row.name, ask, v.Provenance, v.Transport, v.Attempts)
						}
					}
				}
				out[i] = &a
			}
			return out
		}},
		{"client local fallback", func() []*answer {
			out := make([]*answer, len(rows))
			for i, row := range rows {
				if row.noJSON {
					continue
				}
				v, err := degraded.Decide(context.Background(), row.req)
				must(err)
				if v.Provenance != ProvenanceFallback || v.Transport != TransportLocal {
					t.Fatalf("%s: provenance %q over %q, want the local fallback", row.name, v.Provenance, v.Transport)
				}
				a := fromV2(v.Response)
				out[i] = &a
			}
			return out
		}},
	}
	for _, codec := range codecs {
		for i, a := range codec.run() {
			row := rows[i]
			switch {
			case a == nil:
			case a.code != row.code:
				t.Errorf("%s / %s: error code %q, want %q", codec.name, row.name, a.code, row.code)
			case row.code == "":
				// Compared as served: by JSON encoding, which is blind to
				// Candidate's unexported bookkeeping.
				a.resp.CacheHit, a.resp.DecisionNanos = false, 0
				got, err := json.Marshal(a.resp)
				must(err)
				ref, err := json.Marshal(want[i])
				must(err)
				if !bytes.Equal(got, ref) {
					t.Errorf("%s / %s: verdict diverges from the reference runtime\n  got:  %s\n  want: %s",
						codec.name, row.name, got, ref)
				}
			}
		}
	}

	resp, err := http.Get(url + "/metrics")
	must(err)
	defer resp.Body.Close()
	exposition, err := io.ReadAll(resp.Body)
	must(err)
	series := func(name string) (v float64) {
		for _, line := range strings.Split(string(exposition), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err = strconv.ParseFloat(rest, 64)
				must(err)
			}
		}
		return v
	}
	if all, compiled := series("hybridsel_model_evaluations_total"), series("hybridsel_compiled_model_evaluations_total"); all == 0 || all != compiled {
		t.Errorf("the daemon made %v model evaluations, %v of them by the slot programs; want all", all, compiled)
	}
}
