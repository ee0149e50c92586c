package offload

import (
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/sim"
)

// TestFullSuiteEndToEnd drives every Polybench kernel through the
// complete pipeline — registration (static analyses + attribute DB),
// prediction, decision, and simulated execution — at reduced fidelity,
// asserting the invariants that must hold regardless of tuning.
func TestFullSuiteEndToEnd(t *testing.T) {
	fast := Config{
		Platform: machine.PlatformP9V100(),
		Policy:   ModelGuided,
		CPUSim:   sim.CPUConfig{SampleItems: 16, MaxLoopSample: 48},
		GPUSim:   sim.GPUConfig{SampleWarps: 4, MaxLoopSample: 48, MaxRepSample: 1},
	}
	rt := NewRuntime(fast)
	seen := observed(rt)
	for _, k := range polybench.Suite() {
		if _, err := rt.Register(k.IR); err != nil {
			t.Fatalf("%s: register: %v", k.Name, err)
		}
	}
	if got := len(rt.DB().Regions); got != len(polybench.Suite()) {
		t.Fatalf("attribute DB has %d regions", got)
	}

	for _, k := range polybench.Suite() {
		out, err := regionOf(t, rt, k.Name).Launch(k.Bindings(polybench.Test))
		if err != nil {
			t.Fatalf("%s: launch: %v", k.Name, err)
		}
		if out.ActualSeconds <= 0 {
			t.Errorf("%s: non-positive executed time", k.Name)
		}
		predCPU, predGPU := out.BasePair()
		if predCPU <= 0 || predGPU <= 0 {
			t.Errorf("%s: non-positive prediction", k.Name)
		}
		// The decision must be consistent with the predictions.
		wantGPU := predGPU < predCPU
		if (out.Target == KindGPU) != wantGPU {
			t.Errorf("%s: target %v inconsistent with predictions", k.Name, out.Target)
		}
		if out.DecisionOverhead <= 0 {
			t.Errorf("%s: no decision overhead recorded", k.Name)
		}
	}
	guidedLog := seen()
	if len(guidedLog) != len(polybench.Suite()) {
		t.Fatalf("observer saw %d decisions", len(guidedLog))
	}

	// Oracle over the same runtime state must never lose to the guided
	// policy on any kernel (memoized executions make this cheap).
	oracle := NewRuntime(fast)
	oracle.cfg.Policy = Oracle
	for _, k := range polybench.Suite() {
		if _, err := oracle.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range polybench.Suite() {
		o, err := regionOf(t, oracle, k.Name).Launch(k.Bindings(polybench.Test))
		if err != nil {
			t.Fatal(err)
		}
		guided := guidedLog[i]
		if o.ActualSeconds > guided.ActualSeconds*(1+1e-9) {
			t.Errorf("%s: oracle %.4g slower than guided %.4g",
				k.Name, o.ActualSeconds, guided.ActualSeconds)
		}
	}
}

// TestSuiteConcurrentLaunches exercises the runtime's concurrency safety
// across parallel launches (run with -race).
func TestSuiteConcurrentLaunches(t *testing.T) {
	rt := NewRuntime(Config{
		Platform: machine.PlatformP9V100(),
		Policy:   ModelGuided,
		CPUSim:   sim.CPUConfig{SampleItems: 8, MaxLoopSample: 32},
		GPUSim:   sim.GPUConfig{SampleWarps: 2, MaxLoopSample: 32, MaxRepSample: 1},
	})
	seen := observed(rt)
	names := []string{"gemm", "mvt1", "2dconv", "atax2", "gesummv", "syrk"}
	for _, name := range names {
		k, _ := polybench.Get(name)
		if _, err := rt.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, len(names)*2)
	for rep := 0; rep < 2; rep++ {
		for _, name := range names {
			r := regionOf(t, rt, name)
			go func() {
				k, _ := polybench.Get(r.Name)
				_, err := r.Launch(k.Bindings(polybench.Test))
				done <- err
			}()
		}
	}
	for i := 0; i < len(names)*2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n := len(seen()); n != len(names)*2 {
		t.Fatalf("observer saw %d decisions", n)
	}
}
