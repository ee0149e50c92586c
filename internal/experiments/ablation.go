package experiments

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/cpumodel"
	"github.com/hybridsel/hybridsel/internal/gpumodel"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/stats"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// Variant is one model configuration under ablation. A zero CountOpt is
// the runtime's hybrid counting (ir.CountOptions.ForLaunch): trip counts
// bound from each kernel's launch values, parallel indices at midpoint.
type Variant struct {
	Name     string
	GPUOpts  gpumodel.Options
	Est      cpumodel.CPIEstimator
	CountOpt ir.CountOptions
}

// AblationRow summarizes prediction quality of one variant over the
// suite: how well predicted offload speedups track actuals.
type AblationRow struct {
	Variant string
	// Agreement is the fraction of kernels where the variant makes the
	// correct offload decision (the metric that matters to the selector).
	Agreement float64
	// Corr is the Pearson correlation of the raw speedups.
	Corr float64
	// MAPE of predicted vs actual speedup.
	MAPE float64
}

// defaultVariant returns the runtime's default configuration.
func defaultVariant(name string) Variant {
	return Variant{
		Name:    name,
		GPUOpts: gpumodel.DefaultOptions(),
		Est:     cpumodel.MCAEstimator{},
	}
}

// CoalescingVariants ablates the IPDA coalescing analysis against the
// crude assumptions of prior work (paper Section IV-C).
func CoalescingVariants() []Variant {
	ipdaV := defaultVariant("ipda-coalescing")
	coal := defaultVariant("assume-all-coalesced")
	coal.GPUOpts.Coalescing = gpumodel.AssumeAllCoalesced
	uncoal := defaultVariant("assume-all-uncoalesced")
	uncoal.GPUOpts.Coalescing = gpumodel.AssumeAllUncoalesced
	return []Variant{ipdaV, coal, uncoal}
}

// CPIVariants ablates the MCA pipeline analysis against flat
// cycles-per-instruction guesses (paper Section IV-A.1).
func CPIVariants() []Variant {
	mca := defaultVariant("llvm-mca")
	f1 := defaultVariant("fixed-cpi-1.0")
	f1.Est = cpumodel.FixedCPI{CPI: 1}
	f4 := defaultVariant("fixed-cpi-4.0")
	f4.Est = cpumodel.FixedCPI{CPI: 4}
	return []Variant{mca, f1, f4}
}

// OMPRepVariants ablates the paper's #OMP_Rep grid-coverage extension.
func OMPRepVariants() []Variant {
	on := defaultVariant("omp-rep-on")
	off := defaultVariant("omp-rep-off")
	off.GPUOpts.OMPRep = false
	return []Variant{on, off}
}

// AssumptionVariants contrasts the static counting heuristics (128
// iterations, 50% branches) with fully runtime-bound trip counts — the
// hybrid upgrade the paper lists as future work.
func AssumptionVariants() []Variant {
	// Empty but non-nil bindings keep the counting purely static.
	static := defaultVariant("static-128/50%")
	static.CountOpt = ir.DefaultCountOptions()
	static.CountOpt.Bindings = symbolic.Bindings{}
	bound := defaultVariant("runtime-bound-trips")
	return []Variant{static, bound}
}

// Ablate evaluates the variants over the suite for one mode against the
// ground truth at the given host thread count.
func (r *Runner) Ablate(m polybench.Mode, threads int, variants []Variant) ([]AblationRow, error) {
	plat := machine.PlatformP9V100()
	cells, err := r.cells(plat, threads, modePoint(m))
	if err != nil {
		return nil, err
	}
	actual := make([]float64, len(r.kernels))
	for i := range r.kernels {
		actual[i] = offloadSpeedup(cells[i][0].actual)
	}
	var rows []AblationRow
	for _, v := range variants {
		pred := make([]float64, len(r.kernels))
		for i, k := range r.kernels {
			cp, gp, err := PredictVariant(k, m, plat, threads, v)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k.Name, err)
			}
			pred[i] = cp / gp
		}
		rows = append(rows, AblationRow{
			Variant:   v.Name,
			Agreement: stats.AgreementRate(actual, pred),
			Corr:      stats.Correlation(actual, pred),
			MAPE:      stats.MAPE(actual, pred),
		})
	}
	return rows, nil
}
