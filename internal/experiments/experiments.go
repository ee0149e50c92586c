// Package experiments contains the drivers that regenerate every table
// and figure of the paper's evaluation:
//
//   - Table I: GPU-offloading speedup of each Polybench kernel across two
//     platform generations (POWER8+K80/PCIe vs POWER9+V100/NVLink2).
//   - Table II: the CPU cost-model parameters, validated by EPCC-style
//     micro-benchmarks (package epcc).
//   - Table III: the GPU device/bus parameters.
//   - Figures 6 and 7: actual versus predicted offload speedup against a
//     4-thread host, in test and benchmark modes.
//   - Figure 8: suite speedups under the always-offload policy versus the
//     model-guided selector against a 160-thread host.
//   - Ablations: coalescing source, CPI estimator, #OMP_Rep, and static
//     counting heuristics.
//
// Ground-truth numbers come from the cycle-approximate simulators
// (package sim); predictions from the analytical models exactly as the
// offload runtime evaluates them.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hybridsel/hybridsel/internal/cpumodel"
	"github.com/hybridsel/hybridsel/internal/gpumodel"
	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/stats"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// Options tune experiment fidelity and resources.
type Options struct {
	// Parallelism bounds the worker pool driving concurrent launches
	// against the offload runtimes (0 = NumCPU).
	Parallelism int
	// CPUSim/GPUSim override simulator sampling (tests shrink them).
	CPUSim sim.CPUConfig
	GPUSim sim.GPUConfig
	// Kernels restricts the suite (nil = all).
	Kernels []string
}

// Runner executes experiments against shared offload runtimes — one per
// (platform, host-thread-count) configuration — so every ground-truth
// simulation and model evaluation is memoized in the runtime's concurrent
// caches, and every study fans out over a worker pool of
// kernel x dataset-mode x platform cells.
type Runner struct {
	opts    Options
	kernels []*polybench.Kernel

	mu  sync.Mutex
	rts map[string]*offload.Runtime
}

// NewRunner builds a runner.
func NewRunner(opts Options) (*Runner, error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.NumCPU()
	}
	r := &Runner{opts: opts, rts: map[string]*offload.Runtime{}}
	if opts.Kernels == nil {
		r.kernels = polybench.Suite()
	} else {
		for _, name := range opts.Kernels {
			k, err := polybench.Get(name)
			if err != nil {
				return nil, err
			}
			r.kernels = append(r.kernels, k)
		}
	}
	return r, nil
}

// Kernels returns the kernels the runner operates on.
func (r *Runner) Kernels() []*polybench.Kernel { return r.kernels }

// runtime returns (building on first use) the shared offload runtime for
// one platform and host thread count, with every kernel registered.
// threads <= 0 selects the platform's full hardware thread count.
func (r *Runner) runtime(plat machine.Platform, threads int) (*offload.Runtime, error) {
	if threads <= 0 || threads > plat.CPU.Threads() {
		threads = plat.CPU.Threads()
	}
	key := fmt.Sprintf("%s/%d", plat.Name, threads)
	r.mu.Lock()
	defer r.mu.Unlock()
	if rt, ok := r.rts[key]; ok {
		return rt, nil
	}
	rt, _, err := r.newRuntime(plat, threads, nil)
	if err != nil {
		return nil, err
	}
	r.rts[key] = rt
	return rt, nil
}

// newRuntime builds a model-guided runtime for the platform and host
// thread count, corrected by cal (nil: not at all), and registers the
// runner's kernels on it: the handles come back in r.kernels order.
func (r *Runner) newRuntime(plat machine.Platform, threads int, cal offload.Calibrator) (*offload.Runtime, []*offload.Region, error) {
	rt := offload.NewRuntime(offload.Config{
		Platform:   plat,
		Threads:    threads,
		Policy:     offload.ModelGuided,
		CPUSim:     r.opts.CPUSim,
		GPUSim:     r.opts.GPUSim,
		Calibrator: cal,
	})
	regions := make([]*offload.Region, len(r.kernels))
	for i, k := range r.kernels {
		var err error
		if regions[i], err = rt.Register(k.IR); err != nil {
			return nil, nil, err
		}
	}
	return rt, regions, nil
}

// region returns kernel k's handle on the shared runtime of one platform
// and host thread count.
func (r *Runner) region(k *polybench.Kernel, plat machine.Platform, threads int) (*offload.Region, error) {
	rt, err := r.runtime(plat, threads)
	if err != nil {
		return nil, err
	}
	return rt.Region(k.Name)
}

// Metrics aggregates the instrumentation of every runtime the runner has
// built (launch, dispatch, cache and model-latency accounting).
func (r *Runner) Metrics() offload.Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	var m offload.Metrics
	for _, rt := range r.rts {
		m = m.Merge(rt.Metrics())
	}
	return m
}

// CPUSeconds returns the ground-truth host execution time at the given
// thread count, memoized in the runtime's execution cache.
func (r *Runner) CPUSeconds(k *polybench.Kernel, m polybench.Mode,
	plat machine.Platform, threads int) (float64, error) {
	reg, err := r.region(k, plat, threads)
	if err != nil {
		return 0, err
	}
	return reg.ExecuteTarget(offload.TargetIDCPUBase, k.Bindings(m))
}

// GPUSeconds returns the ground-truth offload time (kernel + transfer).
// Device executions are independent of the host thread count, so they are
// shared through the platform's default runtime.
func (r *Runner) GPUSeconds(k *polybench.Kernel, m polybench.Mode,
	plat machine.Platform) (float64, error) {
	reg, err := r.region(k, plat, 0)
	if err != nil {
		return 0, err
	}
	return reg.ExecuteTarget(offload.TargetIDGPUBase, k.Bindings(m))
}

// forEach runs fn over n work cells on a bounded worker pool, returning
// the first error. Remaining cells are skipped once an error occurs.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	workers := r.opts.Parallelism
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// forEachKernel fans fn out over the runner's kernels.
func (r *Runner) forEachKernel(fn func(i int, k *polybench.Kernel) error) error {
	return r.forEach(len(r.kernels), func(i int) error {
		if err := fn(i, r.kernels[i]); err != nil {
			return fmt.Errorf("%s: %w", r.kernels[i].Name, err)
		}
		return nil
	})
}

// staticCountOpt is the paper's purely static counting configuration
// (128 iterations, 50% branches) used by the assumptions ablation.
func staticCountOpt() ir.CountOptions {
	return ir.CountOptions{DefaultTrip: 128, BranchProb: 0.5,
		Bindings: symbolic.Bindings{}}
}

// hybridCountOpt mirrors the offload runtime's default: runtime-supplied
// trip counts with midpoint substitution for parallel indices.
func hybridCountOpt(k *polybench.Kernel, m polybench.Mode) ir.CountOptions {
	return ir.CountOptions{DefaultTrip: 128, BranchProb: 0.5,
		Bindings: ir.MidpointBindings(k.IR, k.Bindings(m))}
}

// PredictVariant evaluates the analytical models for one kernel with the
// given variant knobs, returning predicted CPU and GPU seconds.
func PredictVariant(k *polybench.Kernel, m polybench.Mode, plat machine.Platform,
	threads int, gpuOpts gpumodel.Options, est cpumodel.CPIEstimator,
	countOpt ir.CountOptions) (cpuSec, gpuSec float64, err error) {
	b := k.Bindings(m)
	an, err := ipda.Analyze(k.IR, ir.DefaultCountOptions())
	if err != nil {
		return 0, 0, err
	}
	cp, err := cpumodel.Predict(cpumodel.Input{
		Kernel: k.IR, CPU: plat.CPU, Threads: threads, Bindings: b,
		CountOpt: countOpt, IPDA: an, Estimator: est,
	})
	if err != nil {
		return 0, 0, err
	}
	gp, err := gpumodel.Predict(gpumodel.Input{
		Kernel: k.IR, GPU: plat.GPU, Link: plat.Link, Bindings: b,
		CountOpt: countOpt, IPDA: an, Options: gpuOpts,
	})
	if err != nil {
		return 0, 0, err
	}
	return cp.Seconds, gp.Seconds, nil
}

// Predict evaluates the models in the runtime's default configuration.
func Predict(k *polybench.Kernel, m polybench.Mode, plat machine.Platform,
	threads int) (cpuSec, gpuSec float64, err error) {
	return PredictVariant(k, m, plat, threads, gpumodel.DefaultOptions(),
		cpumodel.MCAEstimator{}, hybridCountOpt(k, m))
}

// ------------------------------------------------------------- Table I --

// Table1Row is one kernel/mode line of Table I.
type Table1Row struct {
	Kernel string
	Mode   polybench.Mode
	// Speedups of GPU offloading over the 160-thread host on each
	// platform (values < 1 are slowdowns, as in the paper).
	K80Speedup  float64
	V100Speedup float64
	// Component times for inspection.
	P8CPUSec, K80GPUSec, P9CPUSec, V100GPUSec float64
}

// Table1 reproduces the cross-generation offloading study. The work fans
// out over one cell per kernel x dataset-mode x platform; concurrent cells
// write disjoint row fields, and speedups are derived afterwards.
func (r *Runner) Table1() ([]Table1Row, error) {
	plats := []machine.Platform{machine.PlatformP8K80(), machine.PlatformP9V100()}
	modes := []polybench.Mode{polybench.Test, polybench.Benchmark}
	rows := make([]Table1Row, len(modes)*len(r.kernels))
	err := r.forEach(len(rows)*len(plats), func(c int) error {
		pi := c % len(plats)
		ri := c / len(plats)
		k := r.kernels[ri/len(modes)]
		m := modes[ri%len(modes)]
		plat := plats[pi]
		cpuSec, err := r.CPUSeconds(k, m, plat, plat.CPU.Threads())
		if err != nil {
			return fmt.Errorf("%s/%s on %s: %w", k.Name, m, plat.Name, err)
		}
		gpuSec, err := r.GPUSeconds(k, m, plat)
		if err != nil {
			return fmt.Errorf("%s/%s on %s: %w", k.Name, m, plat.Name, err)
		}
		if pi == 0 {
			rows[ri].P8CPUSec, rows[ri].K80GPUSec = cpuSec, gpuSec
		} else {
			rows[ri].P9CPUSec, rows[ri].V100GPUSec = cpuSec, gpuSec
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ri := range rows {
		rows[ri].Kernel = r.kernels[ri/len(modes)].Name
		rows[ri].Mode = modes[ri%len(modes)]
		rows[ri].K80Speedup = rows[ri].P8CPUSec / rows[ri].K80GPUSec
		rows[ri].V100Speedup = rows[ri].P9CPUSec / rows[ri].V100GPUSec
	}
	return rows, nil
}

// ------------------------------------------------------- Figures 6 & 7 --

// PredRow is one kernel point of Figures 6/7: actual versus predicted
// GPU-offload speedup over the host at the given thread count.
type PredRow struct {
	Kernel    string
	Actual    float64
	Predicted float64
}

// Figure runs the actual-vs-predicted study for a dataset mode against a
// host restricted to `threads` threads (the paper uses 4) on the
// POWER9+V100 platform.
func (r *Runner) Figure(m polybench.Mode, threads int) ([]PredRow, error) {
	plat := machine.PlatformP9V100()
	rows := make([]PredRow, len(r.kernels))
	err := r.forEachKernel(func(i int, k *polybench.Kernel) error {
		cpuSec, err := r.CPUSeconds(k, m, plat, threads)
		if err != nil {
			return err
		}
		gpuSec, err := r.GPUSeconds(k, m, plat)
		if err != nil {
			return err
		}
		reg, err := r.region(k, plat, threads)
		if err != nil {
			return err
		}
		predCPU, predGPU, err := reg.Predict(k.Bindings(m))
		if err != nil {
			return err
		}
		rows[i] = PredRow{
			Kernel:    k.Name,
			Actual:    cpuSec / gpuSec,
			Predicted: predCPU / predGPU,
		}
		return nil
	})
	return rows, err
}

// ------------------------------------------------------------ Figure 8 --

// Fig8Row is one kernel line of the policy comparison.
type Fig8Row struct {
	Kernel string
	// Speedups over the 160-thread host baseline.
	AlwaysOffload float64
	ModelGuided   float64
	ChoseGPU      bool
	Correct       bool // the model picked the faster target
}

// Fig8Result aggregates a mode's policy comparison.
type Fig8Result struct {
	Mode      polybench.Mode
	Rows      []Fig8Row
	AlwaysGeo float64
	GuidedGeo float64
	OracleGeo float64
}

// Figure8 compares the compiler's always-offload default against the
// model-guided selector (and the oracle bound) on the POWER9+V100
// platform with the full 160-thread host.
func (r *Runner) Figure8(m polybench.Mode) (Fig8Result, error) {
	plat := machine.PlatformP9V100()
	res := Fig8Result{Mode: m, Rows: make([]Fig8Row, len(r.kernels))}
	err := r.forEachKernel(func(i int, k *polybench.Kernel) error {
		cpuSec, err := r.CPUSeconds(k, m, plat, 0)
		if err != nil {
			return err
		}
		gpuSec, err := r.GPUSeconds(k, m, plat)
		if err != nil {
			return err
		}
		reg, err := r.region(k, plat, 0)
		if err != nil {
			return err
		}
		predCPU, predGPU, err := reg.Predict(k.Bindings(m))
		if err != nil {
			return err
		}
		row := Fig8Row{Kernel: k.Name, ChoseGPU: predGPU < predCPU}
		chosen := cpuSec
		if row.ChoseGPU {
			chosen = gpuSec
		}
		row.AlwaysOffload = cpuSec / gpuSec
		row.ModelGuided = cpuSec / chosen
		row.Correct = (gpuSec < cpuSec) == row.ChoseGPU
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}
	var always, guided, oracle []float64
	for _, row := range res.Rows {
		always = append(always, row.AlwaysOffload)
		guided = append(guided, row.ModelGuided)
		best := row.AlwaysOffload
		if best < 1 {
			best = 1
		}
		oracle = append(oracle, best)
	}
	res.AlwaysGeo = stats.GeoMean(always)
	res.GuidedGeo = stats.GeoMean(guided)
	res.OracleGeo = stats.GeoMean(oracle)
	return res, nil
}
