package audit

import (
	"bytes"
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/trace"
)

// TestReplayReproducesVerdictsByteIdentical is the audit loop's
// determinism guarantee: recording a workload with an inline auditor,
// then replaying the trace through a fresh identically configured
// runtime + auditor at the same sampling rate, reproduces the audit
// verdict records byte for byte — including the calibration evolution
// they drive.
func TestReplayReproducesVerdictsByteIdentical(t *testing.T) {
	const rate = 0.7
	kernels := []string{"gemm", "mvt1", "2dconv"}
	workload := func(launch func(string, symbolic.Bindings)) {
		for i := 0; i < 12; i++ {
			name := kernels[i%len(kernels)]
			launch(name, symbolic.Bindings{"n": int64(64 + 16*(i%4))})
		}
	}

	run := func() ([]byte, *trace.Writer, []trace.Record) {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		cal := NewCalibrator(0)
		rt := newRT(t, offload.Config{
			Policy:     offload.ModelGuided,
			Threads:    4,
			Calibrator: cal,
		}, kernels...)
		a := New(Config{
			Runtime:   rt,
			Rate:      rate,
			Workers:   0, // inline: verdicts interleave deterministically
			Corrector: cal,
			OnVerdict: RecordObserver(w),
		})
		defer a.Close()
		rt.SetObserver(a.Observer(w.Observer()))
		workload(func(name string, b symbolic.Bindings) {
			if _, err := regionOf(t, rt, name).Launch(b); err != nil {
				t.Fatal(err)
			}
		})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		recs, err := trace.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), w, recs
	}

	first, _, recs := run()

	// Replay the recorded trace through a fresh runtime + auditor at the
	// same rate; the full stream — decisions and audit verdicts, in
	// order, with their sequence numbers — must come out byte-identical.
	var buf2 bytes.Buffer
	w2 := trace.NewWriter(&buf2)
	cal2 := NewCalibrator(0)
	rt2 := newRT(t, offload.Config{
		Policy:     offload.ModelGuided,
		Threads:    4,
		Calibrator: cal2,
	}, kernels...)
	a2 := New(Config{
		Runtime:   rt2,
		Rate:      rate,
		Corrector: cal2,
		OnVerdict: RecordObserver(w2),
	})
	defer a2.Close()
	rt2.SetObserver(a2.Observer(w2.Observer()))
	res, err := trace.Replay(rt2, recs, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Audits == 0 {
		t.Fatal("trace carried no audit verdicts; rate too low for the workload")
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatalf("replayed stream differs from recording:\n--- recorded ---\n%s--- replayed ---\n%s",
			first, buf2.Bytes())
	}
	// Sanity: both audit accounting snapshots agree.
	if rep2 := a2.Report(); rep2.Samples == 0 || int(rep2.Samples) != res.Audits {
		t.Fatalf("replay audited %d points, trace recorded %d verdicts",
			rep2.Samples, res.Audits)
	}
}

// TestAuditRecordsCarryTheDecisionsBasePair: on a registry without the
// canonical IDs (hybridseld -targets cpu/smt2,gpu/prev) an audit record's
// pair is its decision record's — Decision.BasePair's first-registered
// target of each kind — with those two targets' measured seconds.
func TestAuditRecordsCarryTheDecisionsBasePair(t *testing.T) {
	reg, err := offload.ParseTargets(machine.PlatformP9V100(), 4, "cpu/smt2,gpu/prev")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	rt := newRT(t, offload.Config{Threads: 4, Targets: reg}, "gemm", "mvt1")
	a := New(Config{Runtime: rt, Rate: 1, OnVerdict: RecordObserver(w)})
	defer a.Close()
	rt.SetObserver(a.Observer(w.Observer()))
	for _, name := range []string{"gemm", "mvt1"} {
		for _, n := range []int64{64, 96} {
			if _, err := regionOf(t, rt, name).Decide(symbolic.Bindings{"n": n}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	audits := 0
	for i, rec := range recs {
		if !rec.IsAudit() {
			continue
		}
		audits++
		// Inline audits follow the decision they judge.
		dec := recs[i-1]
		if dec.IsAudit() || dec.Region != rec.Region || dec.Bindings["n"] != rec.Bindings["n"] {
			t.Fatalf("audit record %d does not follow its decision: %+v", i, dec)
		}
		if rec.PredCPUSeconds != dec.PredCPUSeconds || rec.PredGPUSeconds != dec.PredGPUSeconds ||
			rec.PredCPUSeconds == 0 || rec.PredGPUSeconds == 0 {
			t.Errorf("%s n=%d: audit pair %v/%v, decision pair %v/%v", rec.Region, rec.Bindings["n"],
				rec.PredCPUSeconds, rec.PredGPUSeconds, dec.PredCPUSeconds, dec.PredGPUSeconds)
		}
		r := regionOf(t, rt, rec.Region)
		cpu, err := r.ExecuteTarget("cpu/smt2", symbolic.Bindings(rec.Bindings))
		if err != nil {
			t.Fatal(err)
		}
		gpu, err := r.ExecuteTarget("gpu/prev", symbolic.Bindings(rec.Bindings))
		if err != nil {
			t.Fatal(err)
		}
		if rec.ActualCPUSeconds != cpu || rec.ActualGPUSeconds != gpu {
			t.Errorf("%s n=%d: audit actuals %v/%v, cpu/smt2 and gpu/prev measure %v/%v", rec.Region,
				rec.Bindings["n"], rec.ActualCPUSeconds, rec.ActualGPUSeconds, cpu, gpu)
		}
	}
	if audits != 4 {
		t.Fatalf("%d audit records, want 4", audits)
	}
}
