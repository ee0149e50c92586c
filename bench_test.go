// Package hybridsel's benchmark harness regenerates every table and
// figure of the paper's evaluation at full simulation fidelity:
//
//	go test -bench=. -benchmem
//
// Each benchmark runs the corresponding experiment, prints the rendered
// artifact once, and reports the headline numbers as benchmark metrics
// (geomean speedups, prediction agreement, correlation). Ground-truth
// simulations are memoized in a shared runner, so the full harness costs
// roughly one pass over the suite per platform.
package hybridsel

import (
	"fmt"
	"sync"
	"testing"

	"github.com/hybridsel/hybridsel/internal/epcc"
	"github.com/hybridsel/hybridsel/internal/experiments"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/stats"
)

var (
	runnerOnce sync.Once
	runner     *experiments.Runner
)

func sharedRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		r, err := experiments.NewRunner(experiments.Options{})
		if err != nil {
			panic(err)
		}
		runner = r
	})
	return runner
}

var printOnce sync.Map

// printArtifact emits a rendered table/figure exactly once per process.
func printArtifact(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

// BenchmarkTable1 regenerates the cross-generation offloading study
// (paper Table I): every Polybench kernel in both dataset modes on
// POWER8+K80/PCIe and POWER9+V100/NVLink2.
func BenchmarkTable1(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		rows, err := r.Table1()
		if err != nil {
			b.Fatal(err)
		}
		var k80, v100 []float64
		flips := 0
		for _, row := range rows {
			k80 = append(k80, row.K80Speedup)
			v100 = append(v100, row.V100Speedup)
			if (row.K80Speedup >= 1) != (row.V100Speedup >= 1) {
				flips++
			}
		}
		b.ReportMetric(stats.GeoMean(k80), "k80-geomean-x")
		b.ReportMetric(stats.GeoMean(v100), "v100-geomean-x")
		b.ReportMetric(float64(flips), "decision-flips")
		printArtifact("table1", experiments.RenderTable1(rows))
	}
}

// BenchmarkTable2 regenerates the CPU cost-model parameter table (paper
// Table II) by running the EPCC-style micro-benchmarks against the
// simulated POWER9 host.
func BenchmarkTable2(b *testing.B) {
	cpu := machine.POWER9()
	for i := 0; i < b.N; i++ {
		m, err := epcc.Measure(cpu, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.TLBMissPenaltyCycles, "tlb-miss-cycles")
		b.ReportMetric(m.ParallelFixedCycles, "parallel-fixed-cycles")
		printArtifact("table2", epcc.Table2(cpu, m))
	}
}

// BenchmarkTable3 renders the GPU device/bus parameter tables (paper
// Table III) for both accelerator generations.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v := experiments.RenderTable3(machine.TeslaV100(), machine.NVLink2())
		k := experiments.RenderTable3(machine.TeslaK80(), machine.PCIe3())
		printArtifact("table3", v+"\n"+k)
	}
}

// benchFigure shares the actual-vs-predicted study between Figures 6/7.
func benchFigure(b *testing.B, m polybench.Mode) {
	r := sharedRunner(b)
	const threads = 4 // the paper's restricted-host configuration
	for i := 0; i < b.N; i++ {
		rows, err := r.Figure(m, threads)
		if err != nil {
			b.Fatal(err)
		}
		var actual, pred []float64
		for _, row := range rows {
			actual = append(actual, row.Actual)
			pred = append(pred, row.Predicted)
		}
		b.ReportMetric(stats.Correlation(actual, pred), "correlation")
		b.ReportMetric(stats.AgreementRate(actual, pred)*100, "correct-calls-%")
		printArtifact("fig"+m.String(), experiments.RenderFigure(rows, m, threads))
	}
}

// BenchmarkFigure6 regenerates the actual-vs-predicted offload speedups in
// test mode against a 4-thread host (paper Figure 6).
func BenchmarkFigure6(b *testing.B) { benchFigure(b, polybench.Test) }

// BenchmarkFigure7 regenerates the actual-vs-predicted offload speedups in
// benchmark mode against a 4-thread host (paper Figure 7).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, polybench.Benchmark) }

// BenchmarkFigure8 regenerates the policy comparison (paper Figure 8):
// always-offload versus the model-guided selector versus the oracle,
// against the 160-thread host, in both dataset modes.
func BenchmarkFigure8(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		for _, m := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
			res, err := r.Figure8(m)
			if err != nil {
				b.Fatal(err)
			}
			suffix := "-test-x"
			if m == polybench.Benchmark {
				suffix = "-bench-x"
			}
			b.ReportMetric(res.AlwaysGeo, "always"+suffix)
			b.ReportMetric(res.GuidedGeo, "guided"+suffix)
			b.ReportMetric(res.OracleGeo, "oracle"+suffix)
			printArtifact("fig8"+m.String(), experiments.RenderFigure8(res))
		}
	}
}

// benchAblation shares the ablation machinery.
func benchAblation(b *testing.B, key, title string, variants []experiments.Variant) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		rows, err := r.Ablate(polybench.Benchmark, 160, variants)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(row.Agreement*100, row.Variant+"-agree-%")
		}
		printArtifact(key, experiments.RenderAblation(title, rows))
	}
}

// BenchmarkAblationCoalescing contrasts IPDA-derived coalescing inputs
// with the crude all-coalesced / all-uncoalesced assumptions of prior
// work (paper Section IV-C).
func BenchmarkAblationCoalescing(b *testing.B) {
	benchAblation(b, "ab-coal", "Ablation: coalescing source",
		experiments.CoalescingVariants())
}

// BenchmarkAblationMCA contrasts the MCA pipeline estimator with flat
// cycles-per-instruction guesses (paper Section IV-A.1).
func BenchmarkAblationMCA(b *testing.B) {
	benchAblation(b, "ab-cpi", "Ablation: cycles-per-iteration estimator",
		experiments.CPIVariants())
}

// BenchmarkAblationOMPRep toggles the paper's #OMP_Rep extension.
func BenchmarkAblationOMPRep(b *testing.B) {
	benchAblation(b, "ab-omprep", "Ablation: #OMP_Rep factor",
		experiments.OMPRepVariants())
}

// BenchmarkAblationAssumptions contrasts the paper's static counting
// heuristics (128 iterations, 50% branches) with runtime-bound trips.
func BenchmarkAblationAssumptions(b *testing.B) {
	benchAblation(b, "ab-assume", "Ablation: counting heuristics",
		experiments.AssumptionVariants())
}

// BenchmarkSelectorOverhead measures the wall-clock cost of one
// model-guided decision (both model evaluations) — the paper's argument
// for analytical models over ML inference at launch time.
func BenchmarkSelectorOverhead(b *testing.B) {
	k, err := polybench.Get("gemm")
	if err != nil {
		b.Fatal(err)
	}
	plat := machine.PlatformP9V100()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.PredictVariant(k, polybench.Test, plat, 160, experiments.DefaultVariant("")); err != nil {
			b.Fatal(err)
		}
	}
}
