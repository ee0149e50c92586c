package experiments

import (
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/sim"
)

// fastOptions shrinks simulator sampling so experiment tests stay quick;
// the full-fidelity runs happen in the benchmark harness and cmd tool.
func fastOptions(kernels ...string) Options {
	return Options{
		CPUSim:  sim.CPUConfig{SampleItems: 16, MaxLoopSample: 48},
		GPUSim:  sim.GPUConfig{SampleWarps: 6, MaxLoopSample: 48, MaxRepSample: 1},
		Kernels: kernels,
	}
}

func TestRunnerKernelSelection(t *testing.T) {
	r, err := NewRunner(fastOptions("gemm", "mvt1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Kernels()) != 2 {
		t.Fatalf("kernels = %d", len(r.Kernels()))
	}
	if _, err := NewRunner(fastOptions("nope")); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	all, err := NewRunner(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Kernels()) != len(polybench.Suite()) {
		t.Fatal("default runner should cover the suite")
	}
}

func TestCachingIsStable(t *testing.T) {
	r, _ := NewRunner(fastOptions("gemm"))
	k := r.Kernels()[0]
	plat := machine.PlatformP9V100()
	host := func(threads int) float64 {
		t.Helper()
		c, err := r.cell(k, plat, threads, k.Bindings(polybench.Test))
		if err != nil {
			t.Fatal(err)
		}
		return c.actual[offload.TargetIDCPUBase]
	}
	a, b, c := host(20), host(20), host(4)
	if a != b {
		t.Fatalf("cache not stable: %v vs %v", a, b)
	}
	if c == a {
		t.Fatal("different thread counts must be distinct entries")
	}
	m := r.Metrics()
	if m.ExecCacheHits == 0 || m.ExecCacheMisses == 0 {
		t.Fatalf("exec cache accounting: %+v", m)
	}
}

func TestTable1Shapes(t *testing.T) {
	r, _ := NewRunner(fastOptions("gemm", "3dconv", "gesummv"))
	rows, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 kernels x 2 modes
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]Table1Row{}
	for _, row := range rows {
		if row.K80Speedup <= 0 || row.V100Speedup <= 0 {
			t.Fatalf("non-positive speedup: %+v", row)
		}
		// The V100+NVLink platform must improve offloading for every
		// kernel (the paper's central cross-generation observation).
		if row.V100Speedup <= row.K80Speedup {
			t.Errorf("%s/%s: V100 %.2f <= K80 %.2f",
				row.Kernel, row.Mode, row.V100Speedup, row.K80Speedup)
		}
		byKey[row.Kernel+"/"+row.Mode.String()] = row
	}
	// gemm offloads profitably on both platforms; gesummv on neither.
	if byKey["gemm/benchmark"].K80Speedup < 1 {
		t.Error("gemm should profit on K80 too")
	}
	if byKey["gesummv/benchmark"].V100Speedup > 1 {
		t.Error("gesummv should stay on the host even with a V100")
	}
	out := RenderTable1(rows)
	for _, want := range []string{"Table I", "gemm", "P8+K80", "P9+V100"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigurePredictions(t *testing.T) {
	r, _ := NewRunner(fastOptions("gemm", "gesummv", "2dconv"))
	rows, err := r.Figure(polybench.Test, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Actual <= 0 || row.Predicted <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
	// gemm: heavy offload win, predicted and actual; gesummv: loss both.
	if rows[0].Actual < 1 || rows[0].Predicted < 1 {
		t.Errorf("gemm row = %+v", rows[0])
	}
	if rows[1].Actual > 1 {
		t.Errorf("gesummv actual = %+v", rows[1])
	}
	out := RenderFigure(rows, polybench.Test, 4)
	for _, want := range []string{"Figure 6", "correlation", "gemm", "diagonal"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if !strings.Contains(RenderFigure(rows, polybench.Benchmark, 4), "Figure 7") {
		t.Error("benchmark mode should render as Figure 7")
	}
}

func TestFigure8Policy(t *testing.T) {
	r, _ := NewRunner(fastOptions("gemm", "gesummv", "mvt1", "2dconv"))
	res, err := r.Figure8(polybench.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The selector can only lose to always-offload on kernels where it
	// wrongly keeps execution on the host; with this mix (one clear GPU
	// win, clear CPU wins) it must beat always-offload.
	if res.GuidedGeo <= res.AlwaysGeo {
		t.Errorf("guided %.2f <= always %.2f", res.GuidedGeo, res.AlwaysGeo)
	}
	// Oracle bounds both.
	if res.OracleGeo < res.GuidedGeo || res.OracleGeo < res.AlwaysGeo {
		t.Errorf("oracle %.2f below a policy", res.OracleGeo)
	}
	out := RenderFigure8(res)
	for _, want := range []string{"Figure 8", "always-offload", "model-guided", "oracle"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	r, _ := NewRunner(fastOptions("gemm", "mvt1", "2dconv"))
	for _, tc := range []struct {
		name     string
		variants []Variant
	}{
		{"coalescing", CoalescingVariants()},
		{"cpi", CPIVariants()},
		{"omprep", OMPRepVariants()},
		{"assumptions", AssumptionVariants()},
	} {
		rows, err := r.Ablate(polybench.Test, 160, tc.variants)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rows) != len(tc.variants) {
			t.Fatalf("%s: rows = %d", tc.name, len(rows))
		}
		for _, row := range rows {
			if row.Agreement < 0 || row.Agreement > 1 {
				t.Errorf("%s/%s: agreement %v", tc.name, row.Variant, row.Agreement)
			}
		}
		out := RenderAblation(tc.name, rows)
		if !strings.Contains(out, tc.variants[0].Name) {
			t.Errorf("%s: render missing variant name", tc.name)
		}
	}
}

func TestRenderTable3(t *testing.T) {
	out := RenderTable3(machine.TeslaV100(), machine.NVLink2())
	for _, want := range []string{"Table III", "Tesla V100", "900 GB/s",
		"Max Warps/SM", "Access on L1 Hit", "NVLink"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q:\n%s", want, out)
		}
	}
}

func TestPredictVariantErrors(t *testing.T) {
	r, _ := NewRunner(fastOptions("gemm"))
	_ = r
	k, _ := polybench.Get("gemm")
	// Unknown thread count is clamped; nil platform CPU would be a
	// programming error — exercise the happy path plus mode coverage.
	for _, m := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
		c, g, err := PredictVariant(k, m, machine.PlatformP9V100(), 160, DefaultVariant(""))
		if err != nil || c <= 0 || g <= 0 {
			t.Fatalf("%s: %v %v %v", m, c, g, err)
		}
	}
}
