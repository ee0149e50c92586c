package client

// End-to-end N-way selection: a daemon ranking a 4-target synthetic
// registry, driven through the resilient client, with trace recording,
// shadow auditing and replay. The trace replay must be byte-identical —
// decisions, ranked candidates and audit verdicts included — because
// every stage is a deterministic function of the request stream.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/trace"
)

// nwayStack is one full decision pipeline over the synthetic 4-target
// registry: runtime + inline auditor + calibrator + trace writer. Two
// identically built stacks must produce identical traces for the same
// request sequence.
type nwayStack struct {
	rt      *offload.Runtime
	auditor *audit.Auditor
	tw      *trace.Writer
	buf     *bytes.Buffer
}

func newNWayStack(t *testing.T) *nwayStack {
	t.Helper()
	plat := machine.PlatformP9V100()
	buf := &bytes.Buffer{}
	tw := trace.NewWriter(buf)
	cal := audit.NewCalibrator(0)
	rt := offload.NewRuntime(offload.Config{
		Platform:   plat,
		Threads:    160,
		Targets:    offload.SyntheticTargets(plat, 160),
		CPUSim:     sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:     sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
		Calibrator: cal,
	})
	for _, name := range []string{"gemm", "mvt1"} {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}
	auditor := audit.New(audit.Config{
		Runtime:   rt,
		Rate:      1,
		Workers:   0, // inline: deterministic audit ordering in the trace
		Corrector: cal,
		OnVerdict: audit.RecordObserver(tw),
	})
	rt.SetObserver(auditor.Observer(tw.Observer()))
	return &nwayStack{rt: rt, auditor: auditor, tw: tw, buf: buf}
}

func TestNWayEndToEndTraceReplayByteIdentical(t *testing.T) {
	a := newNWayStack(t)
	srv, err := server.New(server.Config{
		Runtime: a.rt,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newTestClient(t, Config{BaseURL: ts.URL, disableHedging: true})

	ids := map[string]bool{}
	for _, id := range a.rt.Targets().IDs() {
		ids[id] = true
	}

	// Sequential execute traffic (deterministic trace order), with a
	// repeated key so the decision cache participates.
	reqs := []server.DecideRequest{
		{Region: "gemm", Bindings: map[string]int64{"n": 64}, Execute: true},
		{Region: "mvt1", Bindings: map[string]int64{"n": 256}, Execute: true},
		{Region: "gemm", Bindings: map[string]int64{"n": 200}, Execute: true},
		{Region: "gemm", Bindings: map[string]int64{"n": 64}, Execute: true},
		{Region: "mvt1", Bindings: map[string]int64{"n": 512}, Execute: true},
	}
	for i, req := range reqs {
		v, err := c.Decide(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if v.Provenance != ProvenanceRemote {
			t.Fatalf("request %d provenance %q", i, v.Provenance)
		}
		if !ids[v.Response.Verdict] {
			t.Fatalf("request %d verdict %q is not a registered target", i, v.Response.Verdict)
		}
		if len(v.Response.Candidates) != a.rt.Targets().Len() {
			t.Fatalf("request %d ranked %d of %d targets",
				i, len(v.Response.Candidates), a.rt.Targets().Len())
		}
		for j := 1; j < len(v.Response.Candidates); j++ {
			if v.Response.Candidates[j-1].CalSeconds > v.Response.Candidates[j].CalSeconds {
				t.Fatalf("request %d ranking not ascending at %d: %+v",
					i, j, v.Response.Candidates)
			}
		}
	}

	// Audit accounting: every distinct key audited, and each verdict
	// measured ground truth on the full registry.
	a.auditor.Close()
	rep := a.auditor.Report()
	const distinctKeys = 4
	if rep.Samples != distinctKeys {
		t.Fatalf("audit samples = %d, want %d (report %+v)", rep.Samples, distinctKeys, rep)
	}
	if err := a.tw.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := trace.Read(bytes.NewReader(a.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	decisions, audits := 0, 0
	for i := range recs {
		rec := &recs[i]
		if rec.IsAudit() {
			audits++
			if rec.BestTargetID == "" || !ids[rec.BestTargetID] {
				t.Fatalf("audit record %d bestTargetId %q", rec.Seq, rec.BestTargetID)
			}
			continue
		}
		decisions++
		if !ids[rec.TargetID] {
			t.Fatalf("decision record %d targetId %q", rec.Seq, rec.TargetID)
		}
		if len(rec.Candidates) != a.rt.Targets().Len() {
			t.Fatalf("decision record %d carries %d candidates", rec.Seq, len(rec.Candidates))
		}
	}
	if decisions != len(reqs) || audits != distinctKeys {
		t.Fatalf("trace has %d decisions and %d audits, want %d and %d",
			decisions, audits, len(reqs), distinctKeys)
	}

	// Replay through an identically built stack: the regenerated trace —
	// decision records AND audit verdicts — must match byte for byte.
	b := newNWayStack(t)
	res, err := trace.Replay(b.rt, recs, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	b.auditor.Close()
	if err := b.tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.buf.Bytes(), b.buf.Bytes()) {
		al, bl := bytes.Split(a.buf.Bytes(), []byte("\n")), bytes.Split(b.buf.Bytes(), []byte("\n"))
		for i := 0; i < len(al) && i < len(bl); i++ {
			if !bytes.Equal(al[i], bl[i]) {
				t.Fatalf("replayed trace diverges at line %d:\n recorded: %s\n replayed: %s",
					i+1, al[i], bl[i])
			}
		}
		t.Fatalf("replayed trace length differs: %d vs %d lines", len(al), len(bl))
	}
}

// TestNWayConcurrentDecides drives the synthetic registry concurrently
// through server and client (async audit workers included) so the race
// detector sweeps the whole N-way pipeline; every verdict must still be
// a registered target with a full ranking.
func TestNWayConcurrentDecides(t *testing.T) {
	plat := machine.PlatformP9V100()
	cal := audit.NewCalibrator(0)
	rt := offload.NewRuntime(offload.Config{
		Platform:   plat,
		Threads:    160,
		Targets:    offload.SyntheticTargets(plat, 160),
		CPUSim:     sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:     sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
		Calibrator: cal,
	})
	for _, name := range []string{"gemm", "mvt1"} {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}
	auditor := audit.New(audit.Config{Runtime: rt, Rate: 1, Workers: 2, Corrector: cal})
	defer auditor.Close()
	rt.SetObserver(auditor.Observer(nil))

	srv, err := server.New(server.Config{
		Runtime: rt,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newTestClient(t, Config{BaseURL: ts.URL, disableHedging: true})

	ids := map[string]bool{}
	for _, id := range rt.Targets().IDs() {
		ids[id] = true
	}
	regions := []string{"gemm", "mvt1"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				req := server.DecideRequest{
					Region:   regions[(g+i)%len(regions)],
					Bindings: map[string]int64{"n": int64(64 + 16*((g*7+i)%9))},
					Execute:  i%3 == 0,
				}
				v, err := c.Decide(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				if !ids[v.Response.Verdict] || len(v.Response.Candidates) != rt.Targets().Len() {
					errs <- errors.New("malformed verdict " + v.Response.Verdict)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
