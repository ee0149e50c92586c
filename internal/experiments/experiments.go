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
//   - Feedback studies (ours): shadow-audit calibration and the residual
//     learner, two readings of one loop (feedback.go).
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
// caches: a study reads cells (below), fanned out over a worker pool.
type Runner struct {
	opts    Options
	kernels []*polybench.Kernel

	mu  sync.Mutex
	rts map[string]*offload.Runtime
	// decided accumulates the instrumentation of the feedback studies'
	// private deciding runtimes, which are dropped when a study returns.
	decided offload.Metrics
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

// Metrics aggregates the instrumentation of every runtime the runner has
// built (launch, dispatch, cache and model-latency accounting).
func (r *Runner) Metrics() offload.Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.decided
	for _, rt := range r.rts {
		m = m.Merge(rt.Metrics())
	}
	return m
}

// cell is the ground truth of one launch point on one (platform, host
// thread count) configuration: what each registered target was predicted
// to take and what it took, by registry ID. Every study prices its
// choices by reading cells; none of them simulates or evaluates a model
// itself.
type cell struct {
	b symbolic.Bindings
	// actual holds the simulated seconds and pred the raw model seconds of
	// every registered target.
	actual, pred map[string]float64
	// chosen is the target the raw models rank first; best the ID of the
	// measured-fastest one (Region.Measure's, the oracle policy's rule).
	chosen offload.Candidate
	best   string
}

// cell reads one launch point of kernel k from the shared runtime of the
// configuration, so each (kernel, point, target) is simulated once per
// runner however many studies read it.
func (r *Runner) cell(k *polybench.Kernel, plat machine.Platform, threads int, b symbolic.Bindings) (cell, error) {
	rt, err := r.runtime(plat, threads)
	if err != nil {
		return cell{}, err
	}
	reg, err := rt.Region(k.Name)
	if err != nil {
		return cell{}, err
	}
	ranked, err := reg.PredictTargets(b)
	if err != nil {
		return cell{}, err
	}
	c := cell{b: b, chosen: ranked[0],
		actual: make(map[string]float64, len(ranked)), pred: make(map[string]float64, len(ranked))}
	for _, cand := range ranked {
		c.pred[cand.Target] = cand.PredSeconds
	}
	ms, best, err := reg.Measure(b)
	if err != nil {
		return cell{}, err
	}
	for _, m := range ms {
		c.actual[m.Target] = m.Seconds
	}
	c.best = ms[best].Target
	return c, nil
}

// offloadSpeedup is the paper's axis: how many times faster the base
// device target is than the base host target, over measured or predicted
// seconds.
func offloadSpeedup(sec map[string]float64) float64 {
	return sec[offload.TargetIDCPUBase] / sec[offload.TargetIDGPUBase]
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

// modePoint is the one launch point the paper measures a kernel at: its
// bindings in dataset mode m.
func modePoint(m polybench.Mode) func(*polybench.Kernel) []symbolic.Bindings {
	return func(k *polybench.Kernel) []symbolic.Bindings {
		return []symbolic.Bindings{k.Bindings(m)}
	}
}

// cells reads the launch points pts names for each kernel, fanned out
// over the worker pool — the one place a study's ground truth is
// simulated. The result is indexed [kernel][point].
func (r *Runner) cells(plat machine.Platform, threads int,
	pts func(*polybench.Kernel) []symbolic.Bindings) ([][]cell, error) {
	type at struct{ k, p int }
	var todo []at
	out := make([][]cell, len(r.kernels))
	for ki, k := range r.kernels {
		for pi, b := range pts(k) {
			out[ki] = append(out[ki], cell{b: b})
			todo = append(todo, at{ki, pi})
		}
	}
	return out, r.forEach(len(todo), func(i int) (err error) {
		k, c := r.kernels[todo[i].k], &out[todo[i].k][todo[i].p]
		if *c, err = r.cell(k, plat, threads, c.b); err != nil {
			err = fmt.Errorf("%s: %w", k.Name, err)
		}
		return err
	})
}

// PredictVariant evaluates the analytical models for one kernel with the
// variant's knobs, returning predicted CPU and GPU seconds.
func PredictVariant(k *polybench.Kernel, m polybench.Mode, plat machine.Platform,
	threads int, v Variant) (cpuSec, gpuSec float64, err error) {
	b := k.Bindings(m)
	an, err := ipda.Analyze(k.IR, ir.DefaultCountOptions())
	if err != nil {
		return 0, 0, err
	}
	cp, err := cpumodel.Predict(cpumodel.Input{
		Kernel: k.IR, CPU: plat.CPU, Threads: threads, Bindings: b,
		CountOpt: v.CountOpt, IPDA: an, Estimator: v.Est,
	})
	if err != nil {
		return 0, 0, err
	}
	gp, err := gpumodel.Predict(gpumodel.Input{
		Kernel: k.IR, GPU: plat.GPU, Link: plat.Link, Bindings: b,
		CountOpt: v.CountOpt, IPDA: an, Options: v.GPUOpts,
	})
	if err != nil {
		return 0, 0, err
	}
	return cp.Seconds, gp.Seconds, nil
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
}

// Table1 reproduces the cross-generation offloading study: every kernel
// in both dataset modes against the full host of each platform.
func (r *Runner) Table1() ([]Table1Row, error) {
	modes := []polybench.Mode{polybench.Test, polybench.Benchmark}
	pts := func(k *polybench.Kernel) []symbolic.Bindings {
		return []symbolic.Bindings{k.Bindings(modes[0]), k.Bindings(modes[1])}
	}
	k80, err := r.cells(machine.PlatformP8K80(), 0, pts)
	if err != nil {
		return nil, err
	}
	v100, err := r.cells(machine.PlatformP9V100(), 0, pts)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for ki, k := range r.kernels {
		for mi, m := range modes {
			rows = append(rows, Table1Row{Kernel: k.Name, Mode: m,
				K80Speedup:  offloadSpeedup(k80[ki][mi].actual),
				V100Speedup: offloadSpeedup(v100[ki][mi].actual)})
		}
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
	cells, err := r.cells(machine.PlatformP9V100(), threads, modePoint(m))
	if err != nil {
		return nil, err
	}
	rows := make([]PredRow, len(r.kernels))
	for i, k := range r.kernels {
		c := cells[i][0]
		rows[i] = PredRow{
			Kernel:    k.Name,
			Actual:    offloadSpeedup(c.actual),
			Predicted: offloadSpeedup(c.pred),
		}
	}
	return rows, nil
}

// ------------------------------------------------------------ Figure 8 --

// Fig8Row is one kernel line of the policy comparison.
type Fig8Row struct {
	Kernel string
	// Speedups over the 160-thread host baseline: of the base device
	// target and of the target the models rank first.
	AlwaysOffload float64
	ModelGuided   float64
	// Chose is the kind of the target the models rank first.
	Chose   string
	Correct bool // the model picked the faster target
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
	res := Fig8Result{Mode: m}
	cells, err := r.cells(machine.PlatformP9V100(), 0, modePoint(m))
	if err != nil {
		return res, err
	}
	var always, guided, oracle []float64
	for i, k := range r.kernels {
		c := cells[i][0]
		host := c.actual[offload.TargetIDCPUBase]
		row := Fig8Row{
			Kernel:        k.Name,
			AlwaysOffload: offloadSpeedup(c.actual),
			ModelGuided:   host / c.actual[c.chosen.Target],
			Chose:         c.chosen.Kind.String(),
			Correct:       c.chosen.Target == c.best,
		}
		res.Rows = append(res.Rows, row)
		always = append(always, row.AlwaysOffload)
		guided = append(guided, row.ModelGuided)
		oracle = append(oracle, host/c.actual[c.best])
	}
	res.AlwaysGeo = stats.GeoMean(always)
	res.GuidedGeo = stats.GeoMean(guided)
	res.OracleGeo = stats.GeoMean(oracle)
	return res, nil
}
