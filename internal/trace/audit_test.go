package trace

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// TestAppendAuditRoundTrip checks audit-verdict records share the
// writer's sequence space with decision records and survive a
// write/read round trip with their kind and verdict fields intact.
func TestAppendAuditRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	rt := newRuntime(t, fastConfig(), "gemm")
	rt.SetObserver(w.Observer())
	if _, err := regionOf(t, rt, "gemm").Launch(symbolic.Bindings{"n": 64}); err != nil {
		t.Fatal(err)
	}
	audit := Record{
		Kind:             KindAudit,
		Seq:              999, // overwritten by Append
		Region:           "gemm",
		Bindings:         map[string]int64{"n": 64},
		Target:           "gpu",
		BestTarget:       "cpu",
		PredCPUSeconds:   0.5,
		PredGPUSeconds:   0.25,
		ActualCPUSeconds: 0.3,
		ActualGPUSeconds: 0.4,
		Mispredict:       true,
		RegretSeconds:    0.1,
	}
	if err := w.Append(audit); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	recs, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
	if recs[0].IsAudit() || recs[0].Kind != KindDecision {
		t.Fatalf("decision record misclassified: %+v", recs[0])
	}
	got := recs[1]
	if !got.IsAudit() {
		t.Fatalf("audit record lost its kind: %+v", got)
	}
	if got.Seq != 1 {
		t.Fatalf("Append did not assign the next sequence number: %d", got.Seq)
	}
	audit.Seq = 1
	if got.BestTarget != audit.BestTarget || !got.Mispredict ||
		got.ActualCPUSeconds != audit.ActualCPUSeconds ||
		got.ActualGPUSeconds != audit.ActualGPUSeconds ||
		got.RegretSeconds != audit.RegretSeconds {
		t.Fatalf("verdict fields did not round-trip: %+v", got)
	}
	// Decision records stay kind-free on the wire (backward compatible).
	if strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], `"kind"`) {
		t.Fatalf("decision record grew a kind field: %s", buf.String())
	}
}

// TestReplaySkipsAuditRecords replays a trace carrying interleaved audit
// verdicts: they are counted, not driven through the runtime.
func TestReplaySkipsAuditRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rt := newRuntime(t, fastConfig(), "gemm", "mvt1")
	rt.SetObserver(w.Observer())
	for _, name := range []string{"gemm", "mvt1"} {
		if _, err := regionOf(t, rt, name).Launch(symbolic.Bindings{"n": 96}); err != nil {
			t.Fatal(err)
		}
		// The region name is one the runtime does not know: the replay
		// would error if it tried to drive this record as traffic.
		if err := w.Append(Record{
			Kind: KindAudit, Region: name + "@audit",
			Bindings: map[string]int64{"n": 96},
			Target:   "cpu", BestTarget: "cpu",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	rt2 := newRuntime(t, fastConfig(), "gemm", "mvt1")
	res, err := Replay(rt2, recs, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audits != 2 || res.Total != 2 || res.Matched != 2 {
		t.Fatalf("audits=%d total=%d matched=%d", res.Audits, res.Total, res.Matched)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
}
