package offload

import (
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
)

// TestProvenanceDefaultsAnalytical checks every decision records a
// provenance, including cache hits, without any calibrator configured.
func TestProvenanceDefaultsAnalytical(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100()})
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(k.IR); err != nil {
		t.Fatal(err)
	}
	b := k.Bindings(polybench.Test)
	out, err := regionOf(t, rt, "gemm").Decide(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Provenance != ProvenanceAnalytical {
		t.Fatalf("miss provenance = %q, want %q", out.Provenance, ProvenanceAnalytical)
	}
	hit, err := regionOf(t, rt, "gemm").Decide(b)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("second decide should hit the cache")
	}
	if hit.Provenance != ProvenanceAnalytical {
		t.Fatalf("hit provenance = %q, want %q", hit.Provenance, ProvenanceAnalytical)
	}
}
