package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// fastConfig keeps simulation cheap; the trace layer is what's under test.
func fastConfig() offload.Config {
	return offload.Config{
		Platform: machine.PlatformP9V100(),
		CPUSim:   sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:   sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
	}
}

func newRuntime(t *testing.T, cfg offload.Config, kernels ...string) *offload.Runtime {
	t.Helper()
	rt := offload.NewRuntime(cfg)
	for _, name := range kernels {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// TestRecordReplayByteIdentical is the subsystem's core guarantee: a
// recorded trace, replayed through a fresh identically configured
// runtime while recording again, reproduces the original byte stream.
// regionOf resolves a registered region's handle.
func regionOf(t testing.TB, rt *offload.Runtime, name string) *offload.Region {
	t.Helper()
	r, err := rt.Region(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRecordReplayByteIdentical(t *testing.T) {
	kernels := []string{"gemm", "mvt1", "atax2"}
	var first bytes.Buffer
	w1 := NewWriter(&first)
	rt1 := newRuntime(t, fastConfig(), kernels...)
	rt1.SetObserver(w1.Observer())
	for i, name := range []string{"gemm", "mvt1", "gemm", "atax2", "mvt1", "gemm"} {
		n := int64(96 + 32*(i%2))
		if _, err := regionOf(t, rt1, name).Launch(symbolic.Bindings{"n": n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("read %d records, want 6", len(recs))
	}

	var second bytes.Buffer
	w2 := NewWriter(&second)
	rt2 := newRuntime(t, fastConfig(), kernels...)
	rt2.SetObserver(w2.Observer())
	res, err := Replay(rt2, recs, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("replayed trace differs from original:\n-- first --\n%s-- second --\n%s",
			first.String(), second.String())
	}
}

// TestReplayDecideOnly replays a decide-only trace (no actual times) and
// checks the decisions still match.
func TestReplayDecideOnly(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rt := newRuntime(t, fastConfig(), "gemm")
	rt.SetObserver(w.Observer())
	for _, n := range []int64{64, 128, 64} {
		if _, err := regionOf(t, rt, "gemm").Decide(symbolic.Bindings{"n": n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(newRuntime(t, fastConfig(), "gemm"), recs, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Matched != 3 {
		t.Fatalf("matched %d of %d", res.Matched, res.Total)
	}
}

// TestReplayDivergenceDetected flips a record and expects Check to fail
// with the field named.
func TestReplayDivergenceDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rt := newRuntime(t, fastConfig(), "gemm")
	rt.SetObserver(w.Observer())
	if _, err := regionOf(t, rt, "gemm").Launch(symbolic.Bindings{"n": 128}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Target == "cpu" {
		recs[0].Target = "gpu"
	} else {
		recs[0].Target = "cpu"
	}
	res, err := Replay(newRuntime(t, fastConfig(), "gemm"), recs, true)
	if err != nil {
		t.Fatal(err)
	}
	err = res.Check()
	if err == nil {
		t.Fatal("divergence not detected")
	}
	if !strings.Contains(err.Error(), "target") {
		t.Fatalf("divergence error does not name the field: %v", err)
	}
}

// TestReplaySeesSecondTargetDrift: a two-target registry that is not the
// classic pair has no GPU for predGpuSeconds to carry, so its records hold
// the ranked candidates, and a replay names the candidate whose prediction
// moved.
func TestReplaySeesSecondTargetDrift(t *testing.T) {
	hostOnly := func(obs func(offload.Decision)) *offload.Runtime {
		cfg := fastConfig()
		reg, err := offload.ParseTargets(cfg.Platform, 0, "cpu/base,cpu/smt2")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Targets = reg
		rt := newRuntime(t, cfg, "gemm")
		rt.SetObserver(obs)
		return rt
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := regionOf(t, hostOnly(w.Observer()), "gemm").Launch(symbolic.Bindings{"n": 128}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || len(recs[0].Candidates) != 2 || recs[0].PredGPUSeconds != 0 {
		t.Fatalf("recorded %+v, want one record with both host candidates and no GPU seconds", recs)
	}
	res, err := Replay(hostOnly(nil), recs, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatalf("unperturbed replay: %v", err)
	}
	recs[0].Candidates[1].PredSeconds *= 1.01
	res, err = Replay(hostOnly(nil), recs, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.First == nil || res.First.Field != "candidates[1].predSeconds" {
		t.Fatalf("perturbed second target: first divergence %v, want candidates[1].predSeconds", res.First)
	}
}

// TestReplayUnknownRegion surfaces the runtime's sentinel error.
func TestReplayUnknownRegion(t *testing.T) {
	recs := []Record{{Region: "nope", Bindings: map[string]int64{"n": 8}}}
	_, err := Replay(newRuntime(t, fastConfig(), "gemm"), recs, false)
	if err == nil {
		t.Fatal("want error for unknown region")
	}
}

// TestConcurrentObserver hammers one writer from parallel launches; run
// with -race. Sequence numbers must come out dense and unique.
func TestConcurrentObserver(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rt := newRuntime(t, fastConfig(), "gemm", "mvt1")
	rt.SetObserver(w.Observer())
	regions := []*offload.Region{regionOf(t, rt, "gemm"), regionOf(t, rt, "mvt1")}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, err := regions[(g+i)%2].Launch(
					symbolic.Bindings{"n": int64(64 + 32*(i%2))})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 80 {
		t.Fatalf("recorded %d decisions, want 80", len(recs))
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
	for i := uint64(0); i < 80; i++ {
		if !seen[i] {
			t.Fatalf("missing seq %d", i)
		}
	}
}

// TestReadRejectsGarbage reports the offending line number.
func TestReadRejectsGarbage(t *testing.T) {
	_, err := Read(strings.NewReader("{\"seq\":0}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 parse error, got %v", err)
	}
}
