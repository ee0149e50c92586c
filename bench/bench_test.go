package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// TestSmoke runs the whole benchmark small: every workload must produce
// every named metric, agree with the reference runtime on every verdict,
// sit where it is built to sit in the decision cache, and leave a span
// file whose self times add up to their roots.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	res, err := run(config{workloads: specs, seed: 1, repFor: 150 * time.Millisecond, builds: repetitions,
		trace: true, sample: 320, traceDir: dir, log: &log})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, log.String())
	}
	if len(res.Workloads) != len(specs) {
		t.Fatalf("got %d workloads, want %d", len(res.Workloads), len(specs))
	}
	for i, r := range res.Workloads {
		s := specs[i]
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d of %d (%s) %v", r.Name, r.Correct, r.Failed, r.Attempted, r.Failures, r.Problems)
		}
		for _, d := range endToEnd {
			m, ok := r.EndToEnd[d.name]
			if !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v", r.Name, d.name, m)
			}
			if !strings.Contains(log.String(), d.name) {
				t.Errorf("%s is not printed by name", d.name)
			}
		}
		for _, d := range perLayer {
			if _, ok := r.PerLayer[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", r.Name, d.name)
			}
			if !strings.Contains(log.String(), d.name) {
				t.Errorf("%s is not printed by name", d.name)
			}
		}
		layer := func(name string) float64 { return r.PerLayer[name].Value }
		if got := layer("offload.cache_hit_share"); got != s.hitShare() {
			t.Errorf("%s: offload.cache_hit_share = %v, want %v", r.Name, got, s.hitShare())
		}
		if s.cold {
			if got := layer("learn.learned_share"); got != 1 {
				t.Errorf("%s: learn.learned_share = %v, want 1", r.Name, got)
			}
			if got := layer("offload.evictions_per_decision"); got != 1 {
				t.Errorf("%s: offload.evictions_per_decision = %v, want 1", r.Name, got)
			}
		}
		if got := layer(s.decideSpan() + "_ns"); got <= 0 {
			t.Errorf("%s: %s_ns = %v, want the rung the workload climbs", r.Name, s.decideSpan(), got)
		}
		sum := layer("trace.layer_sum_us") + layer("trace.loopback_floor_us") + layer("trace.residual_us")
		if root := layer("trace.root_p50_us"); root <= 0 || math.Abs(sum-root) > 1e-6*root {
			t.Errorf("%s: layer sum + floor + residual = %v, traced root p50 = %v", r.Name, sum, root)
		}
		checkSpans(t, filepath.Join(dir, "trace-"+r.Name+".jsonl"))

		// The driver's line carries exactly the declared metrics.
		for _, traced := range []bool{false, true} {
			line := r.driverLine(traced)
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if got := len(line["metrics"].(map[string]any)); got != want {
				t.Errorf("%s: driver line (trace %v) has %d metrics, want %d", r.Name, traced, got, want)
			}
		}
	}
}

// checkSpans reads a span file back and checks that, in every trace,
// the self times of all spans sum to the root's duration.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	type line struct {
		Trace, Span, Parent int32
		Name                string
		Start               int64 `json:"start_ns"`
		End                 int64 `json:"end_ns"`
	}
	var tr tracer
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Errorf("%s: %v", path, err)
			return
		}
		if int(l.Span) != len(tr.spans)+1 || l.End < l.Start || l.Name == "" {
			t.Errorf("%s: bad span %+v", path, l)
			return
		}
		tr.spans = append(tr.spans, span{trace: l.Trace, id: l.Span, parent: l.Parent, name: l.Name, start: l.Start, end: l.End})
	}
	sums, roots := tr.selfTimes()
	if len(roots) == 0 {
		t.Errorf("%s: no root spans", path)
	}
	for trace, root := range roots {
		if sums[trace] != root {
			t.Errorf("%s: trace %d: self times sum to %d ns, root is %d ns", path, trace, sums[trace], root)
			return
		}
	}
}

// stubStream speaks just enough of the stream dialect to answer every
// request with whatever answer returns.
func stubStream(t *testing.T, answer func(req *wire.Request) wire.Response) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := c.Write(wire.AppendCredit(nil, 64)); err != nil {
			return
		}
		sr := wire.NewStreamReader(c)
		for {
			f, err := sr.Next()
			if err != nil {
				return
			}
			if f.Type != wire.TypeStreamRequest {
				continue
			}
			resp := answer(f.Req)
			if _, err := c.Write(wire.AppendStreamResponse(nil, f.StreamID, &resp)); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		l.Close()
		<-done
	})
	return l.Addr().String()
}

// TestFailuresAreCounted points the stream caller at servers that shed
// and that lie: each failed operation must raise failed_share, and none
// may stop the run.
func TestFailuresAreCounted(t *testing.T) {
	s := specByName("stream-single-hot")
	ref, _, err := s.newRuntime(nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := newGenerator(s, 1, ref)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := gen.expected(ref)
	if err != nil {
		t.Fatal(err)
	}
	wreqs, err := gen.wireRequests(ref)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 200
	drive := func(addr string) tally {
		c, err := dial(s, gen, exp, wreqs, addr, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		w := &world{spec: s, conn: c}
		got, _ := w.drive(0, calls, 0, nil)
		return got
	}

	shed := drive(stubStream(t, func(*wire.Request) wire.Response {
		return wire.Response{Err: &wire.Error{Code: server.ErrCodeQueueFull, Message: "stream credit exhausted"}}
	}))
	if shed.attempted != calls || shed.failed != calls || shed.sheds != calls {
		t.Errorf("shedding server: %+v, want %d attempted, failed and shed", shed, calls)
	}

	lie := drive(stubStream(t, func(req *wire.Request) wire.Response {
		return wire.Response{Region: req.Region, Verdict: "cpu/none", Kind: "cpu", Provenance: "analytical",
			Candidates: []wire.Candidate{{Target: "cpu/none", Kind: "cpu", PredSeconds: 1, CalSeconds: 1}}}
	}))
	if lie.attempted != calls || lie.failed != calls || lie.mismatch != calls {
		t.Errorf("lying server: %+v, want %d attempted, failed and mismatched", lie, calls)
	}

	// One wrong bit in one candidate is a mismatch too.
	v := exp[0]
	resp := wire.Response{Verdict: v.target, Provenance: v.provenance}
	for _, c := range v.cands {
		resp.Candidates = append(resp.Candidates, wire.Candidate{Target: c.target, PredSeconds: c.pred, CalSeconds: c.cal})
	}
	if !v.matchesWire(&resp) {
		t.Error("the reference's own verdict does not match itself")
	}
	resp.Candidates[0].CalSeconds *= 1 + 1e-15
	if v.matchesWire(&resp) {
		t.Error("a candidate one ulp off still matches")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" || strings.Join(b.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, want %s: %s", i, w, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, got []entry, want []def, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, e := range got {
			d := want[i]
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s %d: %+v, want %s %s %s", kind, i, e, d.name, d.unit, d.better)
			}
			if bounded != (e.Bound != nil) || bounded && (*e.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v, want %v", kind, e.Name, e.Bound, d.bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if d := endToEnd[0]; d.name != "setup_s" || d.unit != "s" || d.better != "lower" {
		t.Error("setup_s must be an end-to-end metric in s, lower better")
	}
}

// TestCompare feeds -compare results it must pass, flag and leave
// unresolved.
func TestCompare(t *testing.T) {
	var bound float64
	for _, d := range endToEnd {
		if d.name == "latency_p50_us" {
			bound = d.bound
		}
	}
	// around is three repetitions about centre, half a percent apart.
	around := func(centre float64) []float64 { return []float64{centre * 0.995, centre * 1.005, centre} }
	mk := func(p50 []float64, failedShare float64) *side {
		vals := map[string]*series{}
		for _, d := range endToEnd {
			vals[d.name] = &series{centre: 100, values: []float64{100, 100, 100}}
		}
		vals["latency_p50_us"] = &series{centre: median(p50), values: p50}
		return &side{order: []string{"w"}, series: map[string]map[string]*series{"w": vals},
			failed: map[string][]float64{"w": {failedShare}}}
	}
	steady := around(100)
	for _, c := range []struct {
		name   string
		parent *side
		child  *side
		code   int
		says   string
	}{
		{"same", mk(steady, 0), mk(steady, 0), 0, ""},
		{"slower", mk(steady, 0), mk(around(100*(1+2*bound)), 0), 1, "REGRESSION"},
		{"within bound", mk(steady, 0), mk(around(100*(1+bound/2)), 0), 0, ""},
		{"noisy", mk(steady, 0), mk([]float64{100 * (1 - bound), 100 * (1 + bound), 100}, 0), 0, "unresolved"},
		{"noisy but all better", mk(steady, 0), mk([]float64{50 * (1 - bound), 50 * (1 + bound), 50}, 0), 0, ""},
		{"more failures", mk(steady, 0), mk(steady, 0.01), 1, "failed_share rose"},
	} {
		var out bytes.Buffer
		if code := compareSides(&out, c.parent, c.child); code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: output does not say %q\n%s", c.name, c.says, out.String())
		}
		if c.says == "" && strings.Contains(out.String(), "unresolved") {
			t.Errorf("%s: unresolved pair\n%s", c.name, out.String())
		}
		if !strings.Contains(out.String(), "(of 100 us)") {
			t.Errorf("%s: ratio printed without its base\n%s", c.name, out.String())
		}
	}
	// The quartiles are Python's statistics.quantiles(n=4).
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartile(ten, 1), quartile(ten, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
