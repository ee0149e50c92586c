package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// traceSample is the fixed number of decisions the traced pass replays;
// the loopback floor and the cluster comparisons scale their rounds from it.
const traceSample = 20000

// span is one timed interval. A request's spans share its trace number;
// parent is the id of the span that caused this one (0 for the root).
type span struct {
	trace, id, parent int32
	name              string
	start, end        int64
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory; they are written out when the pass ends.
type tracer struct {
	spans []span
	// clock is what a span costs to take — the two clock reads that
	// bracket it — in reference ns. Layer figures are net of it; the
	// written spans are raw wall clock.
	clock float64
}

// newTracer makes the root spans of a pass; the children are appended.
func newTracer(roots int) *tracer {
	t := &tracer{spans: make([]span, roots)}
	for i := range t.spans {
		t.spans[i] = span{trace: int32(i + 1), id: int32(i + 1), name: "request"}
	}
	c := newClock(2)
	c.tick()
	deltas := make([]float64, 2001)
	for i := range deltas {
		a := nowNs()
		deltas[i] = float64(nowNs() - a)
	}
	c.tick()
	sort.Float64s(deltas)
	t.clock = quantile(deltas, 0.5) / c.slices()[0].pace
	return t
}

// begin opens a child span and returns its index.
func (t *tracer) begin(trace, parent int32, name string) int {
	t.spans = append(t.spans, span{trace: trace, id: int32(len(t.spans) + 1), parent: parent, name: name})
	i := len(t.spans) - 1
	t.spans[i].start = nowNs()
	return i
}

func (t *tracer) end(i int) { t.spans[i].end = nowNs() }

// net is a child span's duration in reference ns, without the cost of
// timing it. slices are those of the clock that ticked while it ran.
func (t *tracer) net(slices []slice, s *span) float64 {
	return max(refAt(slices, s.end, s.dur())-t.clock, 0)
}

// write dumps the spans as JSON lines:
// {trace, span, parent, name, start_ns, end_ns}.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range t.spans {
		s := &t.spans[i]
		// A failed write sticks to w and comes back from Flush.
		fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.trace, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ladder is where the rungs are climbed in-process: the reference
// runtime for the calls into offload and learn, and a twin of the
// workload's server — never listening — for the handler rung. Both are
// kept in the cache state the real server is in, so a rung does the
// work the real request did.
type ladder struct {
	rt     *offload.Runtime
	lrn    *learn.Learner
	twin   *server.Server
	twinRt *offload.Runtime
}

func newLadder(s *spec, ref *offload.Runtime, refLrn *learn.Learner) (*ladder, error) {
	l := &ladder{rt: ref, lrn: refLrn, twinRt: ref}
	if s.via == overStream {
		return l, nil
	}
	if s.cold {
		// The handler rung and the direct rungs each miss and evict, so
		// they cannot share one cache.
		rt, _, err := s.newRuntime(nil)
		if err != nil {
			return nil, err
		}
		l.twinRt = rt
	}
	twin, err := server.New(server.Config{Runtime: l.twinRt, Logger: discard})
	if err != nil {
		return nil, err
	}
	l.twin = twin
	return l, nil
}

// syncTo puts the ladder's caches where the real server's are just
// before decision d of the cold cycle: it decides the pass that ends
// there, which is all a full LRU remembers.
func (l *ladder) syncTo(g *generator, d int) error {
	if !g.cold {
		return nil
	}
	rts := []*offload.Runtime{l.rt}
	if l.twinRt != l.rt {
		rts = append(rts, l.twinRt)
	}
	for _, rt := range rts {
		for i := d - g.pass(); i < d; i++ {
			k := g.keys[g.at(i)]
			r, err := rt.Region(g.regions[k.region])
			if err != nil {
				return err
			}
			if _, err := r.DecideVals(g.values(k)); err != nil {
				return err
			}
		}
	}
	return nil
}

func invalidate(rt *offload.Runtime, g *generator, i int) {
	// The region is one the runtime registered, so this cannot fail; if
	// it ever did, offload.cache_hit_share would show it.
	_ = rt.InvalidateDecisions(g.regions[i%len(g.regions)])
}

// decideSpan names the offload.decide rung after the path the workload
// takes through the decision cache.
func (s *spec) decideSpan() string {
	switch {
	case s.cold:
		return "offload.decide_miss_evict"
	case s.invalidateEvery > 0:
		return "offload.decide_miss"
	}
	return "offload.decide_hit"
}

// traced is what the traced pass found.
type traced struct {
	tracer *tracer
	tally  tally
	roots  int
	// Each half of the pass runs on a clock of its own: the roots end in
	// rootSlices, the rungs in rungSlices.
	rootSlices, rungSlices []slice
	reqBytes               float64 // mean encoded request, as the caller writes it
	respBytes              float64 // mean encoded response
	invalidate             []span  // each replayed InvalidateDecisions
}

// tracedPass replays calls [from, from+n) twice: first for real, a root
// `request` span around each socket call; then rung by rung in-process
// on the ladder, each rung a child span of the request it replays. The
// children are taken after the roots so that the real calls run
// back-to-back exactly as in the untraced repetitions.
func (w *world) tracedPass(l *ladder, from, n int, rec *recording) (*traced, error) {
	s, g := w.spec, w.conn.gen
	per := s.perCall()
	perRequest := 8
	if s.via == overBatch {
		perRequest = 4 + per*4
	}
	tr := &traced{tracer: newTracer(n), roots: n}
	t := tr.tracer
	if err := l.syncTo(g, from*per); err != nil {
		return nil, err
	}
	// The real calls are recorded exactly as an untraced repetition's are,
	// so what a root span costs is what a sample costs there.
	rec.reset(0)
	tr.tally, _ = w.drive(from, n, 0, rec)
	tr.rootSlices = rec.clock.slices()
	for _, s := range rec.samples {
		t.spans[s.call].start, t.spans[s.call].end = s.end-s.lat, s.end
	}
	t.spans = append(make([]span, 0, n+n*perRequest), t.spans...)

	var (
		body, out []byte
		batch     []wire.Request
		resps     []wire.Response
		wcands    []wire.Candidate
		ocands    []offload.Candidate
	)
	// decide climbs the three offload rungs for one slot-form request
	// and projects the outcome the way the server's codec would.
	decide := func(root, parent int32, req *wire.Request, k key) (wire.Response, error) {
		i := t.begin(root, parent, "offload.region_lookup")
		r, err := l.rt.Region(req.Region)
		t.end(i)
		if err != nil {
			return wire.Response{}, err
		}
		i = t.begin(root, parent, "offload.key_hash")
		h := r.KeyHashVals(req.Values)
		t.end(i)
		if h != req.KeyHash {
			return wire.Response{}, fmt.Errorf("key hash of %s changed", req.Region)
		}
		di := t.begin(root, parent, s.decideSpan())
		o, err := r.DecideVals(req.Values)
		t.end(di)
		if err != nil {
			return wire.Response{}, err
		}
		if l.lrn != nil {
			f, err := r.Features(symbolic.Bindings(g.bindings(k)))
			if err != nil {
				return wire.Response{}, err
			}
			ocands = append(ocands[:0], o.Candidates...)
			i = t.begin(root, t.spans[di].id, "learn.correct")
			l.lrn.CorrectFeatures(req.Region, f, ocands)
			t.end(i)
		}
		resp := wire.Response{Region: req.Region, Verdict: o.TargetID, Kind: o.Target.String(),
			Policy: o.Policy.Name(), Provenance: o.Provenance, CacheHit: o.CacheHit,
			DecisionNanos: o.DecisionOverhead.Nanoseconds()}
		for _, c := range o.Candidates {
			wcands = append(wcands, wire.Candidate{Target: c.Target, Kind: c.Kind.String(),
				PredSeconds: c.PredSeconds, CalSeconds: c.CalSeconds})
		}
		resp.Candidates = wcands[len(wcands)-len(o.Candidates):]
		return resp, nil
	}
	handle := func(contentType string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v2/decide", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		l.twin.Handler().ServeHTTP(rec, req)
		return rec
	}

	rungs := newClock(1024)
	for j := from; j < from+n; j++ {
		rungs.due(nowNs())
		root := int32(j - from + 1)
		wcands = wcands[:0]
		switch s.via {
		case overStream:
			if e := s.invalidateEvery; e > 0 && j%e == 0 {
				a := nowNs()
				invalidate(l.rt, g, j/e)
				tr.invalidate = append(tr.invalidate, span{start: a, end: nowNs()})
			}
			k := g.at(j)
			req := &w.conn.wreqs[k]
			i := t.begin(root, root, "wire.encode_request")
			body = wire.AppendStreamRequest(body[:0], uint64(j+1), req)
			t.end(i)
			i = t.begin(root, root, "wire.decode_request")
			f, _, err := wire.DecodeFrame(body)
			t.end(i)
			if err != nil {
				return nil, err
			}
			resp, err := decide(root, root, f.Req, g.keys[k])
			if err != nil {
				return nil, err
			}
			i = t.begin(root, root, "wire.encode_response")
			out = wire.AppendStreamResponse(out[:0], uint64(j+1), &resp)
			t.end(i)
			i = t.begin(root, root, "wire.decode_response")
			_, _, err = wire.DecodeFrame(out)
			t.end(i)
			if err != nil {
				return nil, err
			}

		case overBatch:
			batch = batch[:0]
			for i := 0; i < per; i++ {
				batch = append(batch, w.conn.wreqs[g.at(j*per+i)])
			}
			i := t.begin(root, root, "wire.encode_request")
			body = wire.AppendBatchRequest(body[:0], batch)
			t.end(i)
			hi := t.begin(root, root, "server.handler_batch64")
			rec := handle(wire.ContentType, body)
			t.end(hi)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("twin handler: HTTP %d", rec.Code)
			}
			handler := t.spans[hi].id
			i = t.begin(root, handler, "wire.decode_request")
			f, _, err := wire.DecodeFrame(body)
			t.end(i)
			if err != nil {
				return nil, err
			}
			resps = resps[:0]
			for i := range f.Reqs {
				resp, err := decide(root, handler, &f.Reqs[i], g.keys[g.at(j*per+i)])
				if err != nil {
					return nil, err
				}
				resps = append(resps, resp)
			}
			i = t.begin(root, handler, "wire.encode_response")
			out = wire.AppendBatchResponse(out[:0], 0, resps)
			t.end(i)
			i = t.begin(root, root, "wire.decode_response")
			_, _, err = wire.DecodeFrame(out)
			t.end(i)
			if err != nil {
				return nil, err
			}

		case overCluster:
			k := g.at(j)
			req := w.conn.jreqs[k]
			ri := t.begin(root, root, "cluster.route")
			w.conn.cc.Route(req)
			t.end(ri)
			ring := w.conn.cc.Ring()
			key := cluster.RegionKey(req.Region, attrdb.BindingsHash(symbolic.Bindings(req.Bindings)))
			i := t.begin(root, t.spans[ri].id, "cluster.ring_owner")
			ring.Owner(key)
			t.end(i)
			i = t.begin(root, root, "client.json_encode_request")
			var err error
			body, err = json.Marshal(req)
			t.end(i)
			if err != nil {
				return nil, err
			}
			hi := t.begin(root, root, "server.handler_json")
			rec := handle("application/json", body)
			t.end(hi)
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("twin handler: HTTP %d", rec.Code)
			}
			handler := t.spans[hi].id
			i = t.begin(root, handler, "offload.region_lookup")
			r, err := l.rt.Region(req.Region)
			t.end(i)
			if err != nil {
				return nil, err
			}
			i = t.begin(root, handler, s.decideSpan())
			_, err = r.Decide(symbolic.Bindings(req.Bindings))
			t.end(i)
			if err != nil {
				return nil, err
			}
			out = rec.Body.Bytes()
			var v2 server.DecideResponseV2
			i = t.begin(root, root, "client.json_decode_response")
			err = json.Unmarshal(out, &v2)
			t.end(i)
			if err != nil {
				return nil, err
			}
		}
		tr.reqBytes += float64(len(body)) / float64(n)
		tr.respBytes += float64(len(out)) / float64(n)
	}
	rungs.tick()
	tr.rungSlices = rungs.slices()
	return tr, nil
}

// layerFigures reduces the spans to per-layer metrics, in reference
// time: for every span name the median net duration (name_ns), for a span
// with children its median self time (name_self_ns), and the
// reconciliation of the root.
func (tr *traced) layerFigures(floorUs, untracedP50Us float64) map[string]float64 {
	t := tr.tracer
	byName := map[string][]float64{}
	self := map[string][]float64{}
	childSum := make([]float64, len(t.spans)+1) // by span id
	hasChild := make([]bool, len(t.spans)+1)
	for i := tr.roots; i < len(t.spans); i++ {
		s := &t.spans[i]
		childSum[s.parent] += t.net(tr.rungSlices, s)
		hasChild[s.parent] = true
	}
	var rootDur, layerSum []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent == 0 {
			rootDur = append(rootDur, refAt(tr.rootSlices, s.end, s.dur()))
			layerSum = append(layerSum, childSum[s.id])
			continue
		}
		net := t.net(tr.rungSlices, s)
		byName[s.name] = append(byName[s.name], net)
		if hasChild[s.id] {
			self[s.name] = append(self[s.name], max(net-childSum[s.id], 0))
		}
	}
	p50 := func(v []float64) float64 {
		sort.Float64s(v)
		return quantile(v, 0.5)
	}
	m := map[string]float64{}
	for name, v := range byName {
		m[name+"_ns"] = p50(v)
	}
	for name, v := range self {
		m[name+"_self_ns"] = p50(v)
	}
	rootP50 := p50(rootDur) / 1e3
	sum := p50(layerSum) / 1e3
	m["trace.root_p50_us"] = rootP50
	m["trace.layer_sum_us"] = sum
	m["trace.loopback_floor_us"] = floorUs
	m["trace.residual_us"] = rootP50 - sum - floorUs
	if rootP50 > 0 {
		m["trace.residual_share"] = m["trace.residual_us"] / rootP50
	}
	if untracedP50Us > 0 {
		m["trace.overhead_share"] = (rootP50 - untracedP50Us) / untracedP50Us
	}
	var invalidations []float64
	for i := range tr.invalidate {
		invalidations = append(invalidations, t.net(tr.rungSlices, &tr.invalidate[i]))
	}
	m["offload.invalidate_ns"] = p50(invalidations)
	m["wire.request_bytes"] = tr.reqBytes
	m["wire.response_bytes"] = tr.respBytes
	return m
}

// selfTimes returns, per trace, the sum of every span's self time
// (duration minus its children's durations) and the root's duration.
// The two are equal when every child names a parent in its own trace.
func (t *tracer) selfTimes() (sums, roots map[int32]int64) {
	children := make([]int64, len(t.spans)+1)
	for i := range t.spans {
		children[t.spans[i].parent] += t.spans[i].dur()
	}
	sums, roots = map[int32]int64{}, map[int32]int64{}
	for i := range t.spans {
		s := &t.spans[i]
		sums[s.trace] += s.dur() - children[s.id]
		if s.parent == 0 {
			roots[s.trace] = s.dur()
		}
	}
	return sums, roots
}
