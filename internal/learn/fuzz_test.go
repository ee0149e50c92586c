package learn

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/offload"
)

// FuzzLearnSnapshot hardens the snapshot loader: arbitrary bytes must
// never panic, and any accepted snapshot must restore cleanly and
// re-serialize stably (write -> read -> write is a fixed point).
func FuzzLearnSnapshot(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"minSamples":3,"lambda":1}`))
	f.Add([]byte(`{"version":99,"minSamples":3,"lambda":1}`))
	f.Add([]byte(`{"version":1,"minSamples":3,"lambda":1,"maxVariance":0.5,` +
		`"global":{"cpu/base":{"n":2,"gram":[[1,0,0,0,0],[0,1,0,0,0],[0,0,1,0,0],[0,0,0,1,0],[0,0,0,0,1]],` +
		`"mom":[0.1,0,0,0,0],"sumT2":0.2}},"regions":{}}`))
	f.Add([]byte(`{"version":1,"minSamples":1,"lambda":0.5,` +
		`"global":{},"regions":{"gemm":{"gpu/base":{"n":1,"gram":[[1]],"mom":[1],"sumT2":0}}}}`))
	f.Add([]byte(`{"version":1,"minSamples":2,"lambda":1e308,"maxVariance":-1,"global":{},"regions":{}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))

	// A real snapshot from a trained learner as the richest seed.
	l := New(Config{MinSamples: 2})
	fe := offload.Features{Iterations: 1 << 12, TransferBytes: 1 << 20, CoalescedFrac: 0.75}
	for i := 0; i < 4; i++ {
		l.ObserveVerdict("gemm", fe, []audit.TargetMeasurement{
			{Target: "cpu/base", PredSeconds: 0.01, ActualSeconds: 0.02},
			{Target: "gpu/base", PredSeconds: 0.02, ActualSeconds: 0.015},
		})
	}
	var seed bytes.Buffer
	if err := WriteSnapshot(&seed, l.Snapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted snapshots must restore without error and round-trip
		// to stable bytes.
		lr := New(Config{})
		if err := lr.Restore(s); err != nil {
			t.Fatalf("accepted snapshot failed to restore: %v", err)
		}
		checkGateCache(t, lr)
		var first, second bytes.Buffer
		if err := WriteSnapshot(&first, lr.Snapshot()); err != nil {
			t.Fatal(err)
		}
		s2, err := ReadSnapshot(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("re-read of written snapshot failed: %v", err)
		}
		lr2 := New(Config{})
		if err := lr2.Restore(s2); err != nil {
			t.Fatalf("re-restore failed: %v", err)
		}
		if err := WriteSnapshot(&second, lr2.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatal("snapshot write->read->write is not a fixed point")
		}
	})
}
