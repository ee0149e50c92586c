// Package offload implements the paper's compiler/runtime framework for
// automatic target selection (Figure 2) as a concurrent decision service.
//
// Register plays the compiler role: it outlines a target region (an IR
// kernel), generates both "code versions" (host and device execution
// paths), runs the static analyses and stores their results in the
// Program Attribute Database. It returns a *Region handle whose Launch
// plays the OpenMP runtime role: on reaching a target region it binds the
// runtime values, completes the CPU and GPU analytical models, picks the
// target with the lower predicted time — solving two equations, so
// decision time is negligible — and dispatches execution to the chosen
// processor (the ground-truth simulators standing in for the physical
// machines).
//
// The runtime is built for heavy concurrent traffic:
//
//   - The region registry sits behind a read/write lock and every region
//     carries its own lock and caches, so launches on different regions
//     never contend.
//   - Model evaluations are memoized per (region, canonical bindings) in
//     a bounded LRU decision cache: repeated launches with the same trip
//     counts skip both analytical models entirely.
//   - Ground-truth executions are memoized per (region, target,
//     bindings, fraction), as experiments launch the same region
//     repeatedly under different policies.
//   - Every stage is instrumented with lock-free counters and a
//     model-evaluation latency histogram, exported via Metrics().
//   - The decision log is sharded; DecisionLog() returns an immutable,
//     launch-ordered snapshot.
//
// Policies reproduce the paper's experimental configurations (see
// policy.go): the compiler default of always offloading, the model-guided
// selector, the host-only baseline, an oracle that runs both targets and
// keeps the faster one (the upper bound on any selector), and a
// cooperative CPU+GPU split.
package offload

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/cpumodel"
	"github.com/hybridsel/hybridsel/internal/gpumodel"
	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// Target is an execution destination.
type Target int

// Targets.
const (
	TargetCPU Target = iota
	TargetGPU
	// TargetSplit executes a leading fraction of the iteration space on
	// the host concurrently with the rest on the device.
	TargetSplit
)

// String names the target.
func (t Target) String() string {
	switch t {
	case TargetGPU:
		return "gpu"
	case TargetSplit:
		return "split"
	}
	return "cpu"
}

// defaultDecisionCacheSize bounds each region's decision cache unless the
// Config overrides it.
const defaultDecisionCacheSize = 1024

// Config parameterizes a Runtime.
type Config struct {
	Platform machine.Platform
	// Threads is the host OMP thread count (0 = all hardware threads).
	Threads int
	// Policy selects the target per launch (nil = ModelGuided).
	Policy Policy

	// Targets is the execution-target registry the runtime ranks over.
	// nil selects the classic pair derived from Platform and Threads —
	// the configuration whose ranked top-1 is bit-for-bit the historical
	// binary verdict. The registry must not be mutated after NewRuntime
	// (Register compiles per-target decision programs against it).
	Targets *Registry

	// Constraints filter the ranked candidates before every policy
	// selection ("GPU pool at capacity: next-best target"). When the
	// filter would empty the ranking the constraints are ignored for
	// that decision. Constraints implementing DispatchObserver are
	// notified around every dispatched execution. Any Dynamic constraint
	// disables decided-verdict caching (predictions stay memoized).
	Constraints []Constraint

	// DecisionCacheSize bounds each region's memoized-decision LRU (the
	// number of distinct binding sets cached per region). 0 selects the
	// default (1024); a negative value disables decision caching.
	DecisionCacheSize int

	// Observer, when non-nil, is invoked synchronously with every
	// completed Decision — after Launch dispatches and after each
	// decide-only call. It runs on the launching goroutine and must be
	// safe for concurrent use and cheap (trace recorders buffer; anything
	// slow belongs behind the observer's own queue).
	Observer func(Decision)

	// Calibrator, when non-nil, adjusts the model predictions with
	// measured feedback before every policy decision (the online half of
	// the shadow-audit loop, see internal/audit). It must be safe for
	// concurrent use and cheap: decide consults it on every cache miss.
	// Candidate.PredSeconds (and the legacy Decision.PredCPUSeconds/
	// PredGPUSeconds) always carry the raw model output so traces stay
	// comparable across calibration states; the calibrated CalSeconds
	// only steer the ranking and policy.
	Calibrator Calibrator

	// GPUOptions default to the paper's configuration (IPDA coalescing,
	// #OMP_Rep on, transfers included).
	GPUOptions *gpumodel.Options
	// Estimator defaults to the MCA-driven estimator.
	Estimator cpumodel.CPIEstimator

	// DisableCompiledModels forces every region onto the interpreted
	// model-evaluation path, skipping the Register-time specialization.
	// The compiled path is bit-for-bit identical to the interpreted one,
	// so this exists only as a benchmarking baseline and escape hatch.
	DisableCompiledModels bool

	// Simulation fidelity knobs (defaults applied by the simulators).
	CPUSim sim.CPUConfig
	GPUSim sim.GPUConfig
}

// Region is one registered target region with its two generated versions,
// stored attributes, and per-region caches. Handles are created by
// Runtime.Register; their Launch/Predict/Execute methods skip the
// name-lookup of the equivalent Runtime methods.
type Region struct {
	Name     string
	Kernel   *ir.Kernel
	Attrs    *attrdb.RegionAttrs
	Analysis *ipda.Result

	rt *Runtime

	// compiled holds the region's decision program, specialized at
	// Register time (nil when compilation was disabled or the region's
	// expressions are not resolvable from its parameters alone — such
	// regions stay on the interpreted path).
	compiled *compiledModels

	// mu guards the per-region mutable state below (the decision cache
	// carries its own sharded locks); launches on different regions take
	// different locks and never contend.
	mu      sync.Mutex
	profile *ProfileData
	exec    map[string]float64
	// paramNames caches the sorted parameter names for interpreted
	// regions (compiled regions read them off the key layout).
	paramNames []string

	decisions *decisionCache
}

// Decision records one launch for the decision log.
type Decision struct {
	Region   string
	Bindings symbolic.Bindings
	Policy   Policy
	// Target is the chosen target's kind as the legacy binary enum
	// (TargetSplit for a cooperative split); TargetID is its registry ID
	// ("cpu/base", "gpu/prev", ..., or TargetIDSplit).
	Target   Target
	TargetID string

	// Candidates is the full ranked verdict: every registered target
	// ascending by calibrated predicted seconds (ties in registration
	// order). The slice is shared with the decision cache and must not
	// be mutated.
	Candidates []Candidate

	// PredCPUSeconds/PredGPUSeconds are the raw predictions of the base
	// CPU-kind and GPU-kind targets (0 when the registry has none),
	// kept so two-target traces and logs read exactly as before the
	// N-way redesign.
	PredCPUSeconds float64
	PredGPUSeconds float64
	// SplitFraction is the host share of the iteration space chosen by
	// a split decision (0 when not splitting).
	SplitFraction float64
	// CacheHit reports that the decision was served from the memoized
	// decision cache (no model evaluation).
	CacheHit bool
	// Provenance records which correction stage produced the ranking:
	// ProvenanceAnalytical (models + EWMA calibration, the default) or
	// ProvenanceLearned (a confident learned residual correction from a
	// configured Corrector).
	Provenance string
	// ActualSeconds is the executed (simulated) time of the chosen
	// target; for Oracle both actuals are filled.
	ActualSeconds    float64
	ActualCPUSeconds float64 // 0 if the base CPU target was not executed
	ActualGPUSeconds float64 // 0 if the base GPU target was not executed
	DecisionOverhead time.Duration

	// targetIdx is the chosen target's registry index (-1 for a split),
	// carried so dispatch accounting avoids an ID lookup.
	targetIdx int
}

// Outcome is what Launch returns.
type Outcome struct {
	Decision
}

// Runtime is the offloading runtime. Registration is typically performed
// up front (the compiler role); Launch, Predict and Execute are safe for
// arbitrary concurrent use, including concurrently with Register and
// ProfileRegion.
type Runtime struct {
	cfg Config

	// targets is the resolved registry (Config.Targets, or the classic
	// pair derived from the platform), with CPU team sizes normalized.
	targets *Registry

	// obs is the live observer hook, seeded from Config.Observer and
	// replaceable via SetObserver (atomically, so wiring an observer that
	// itself needs the constructed runtime — e.g. a shadow auditor — does
	// not race with in-flight launches).
	obs atomic.Pointer[func(Decision)]

	// dispatchID counts completed launches per registry target, indexed
	// by registry order with one trailing slot for the split
	// pseudo-target.
	dispatchID []atomic.Uint64
	// dispatchObs are the Config.Constraints implementing
	// DispatchObserver; hasDynamic is true when any constraint is
	// Dynamic (disabling decided-verdict caching).
	dispatchObs []DispatchObserver
	hasDynamic  bool

	// corrector is Config.Calibrator when it implements the feature-aware
	// Corrector superset; such calibrators are consulted through
	// CorrectFeatures (with the decision's feature vector) instead of
	// Correct.
	corrector Corrector

	regmu   sync.RWMutex
	regions map[string]*Region
	db      *attrdb.DB

	met counters
	log decisionLog
}

// NewRuntime builds a runtime for the platform.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Threads <= 0 || cfg.Threads > cfg.Platform.CPU.Threads() {
		cfg.Threads = cfg.Platform.CPU.Threads()
	}
	if cfg.Policy == nil {
		cfg.Policy = ModelGuided
	}
	if cfg.DecisionCacheSize == 0 {
		cfg.DecisionCacheSize = defaultDecisionCacheSize
	}
	if cfg.GPUOptions == nil {
		o := gpumodel.DefaultOptions()
		cfg.GPUOptions = &o
	}
	if cfg.Estimator == nil {
		cfg.Estimator = cpumodel.MCAEstimator{}
	}
	reg := cfg.Targets
	if reg == nil || reg.Len() == 0 {
		reg = ClassicPair(cfg.Platform, cfg.Threads)
	} else {
		reg = reg.withResolvedThreads()
	}
	rt := &Runtime{
		cfg:        cfg,
		targets:    reg,
		dispatchID: make([]atomic.Uint64, reg.Len()+1),
		db:         attrdb.New(),
		regions:    map[string]*Region{},
	}
	for _, c := range cfg.Constraints {
		if c.Dynamic() {
			rt.hasDynamic = true
		}
		if o, ok := c.(DispatchObserver); ok {
			rt.dispatchObs = append(rt.dispatchObs, o)
		}
	}
	if cor, ok := cfg.Calibrator.(Corrector); ok {
		rt.corrector = cor
	}
	if cfg.Observer != nil {
		rt.obs.Store(&cfg.Observer)
	}
	return rt
}

// Targets returns the runtime's resolved target registry.
func (rt *Runtime) Targets() *Registry { return rt.targets }

// SetObserver replaces the decision observer hook. It exists for
// observers that can only be built once the runtime exists (the shadow
// auditor holds the runtime it audits); the swap is atomic with respect
// to concurrent launches. A nil fn removes the hook.
func (rt *Runtime) SetObserver(fn func(Decision)) {
	if fn == nil {
		rt.obs.Store(nil)
		return
	}
	rt.obs.Store(&fn)
}

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// DB exposes the Program Attribute Database (e.g. for serialization).
func (rt *Runtime) DB() *attrdb.DB { return rt.db }

// Register outlines a target region: validates the kernel, runs the
// static analyses, stores the attribute record, and returns the region
// handle for lookup-free launches.
func (rt *Runtime) Register(k *ir.Kernel) (*Region, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	attrs, err := attrdb.Build(k, ir.DefaultCountOptions())
	if err != nil {
		return nil, err
	}
	an, err := ipda.Analyze(k, ir.DefaultCountOptions())
	if err != nil {
		return nil, err
	}
	r := &Region{
		Name:      k.Name,
		Kernel:    k,
		Attrs:     attrs,
		Analysis:  an,
		rt:        rt,
		decisions: newDecisionCache(rt.cfg.DecisionCacheSize),
		exec:      map[string]float64{},
	}
	if !rt.cfg.DisableCompiledModels {
		// Specialize every target's model now (the compiler role):
		// per-launch Predicts become slot-vector evaluations. Failure is
		// not an error — the region simply stays on the interpreted path.
		if cm, err := compileRegion(&rt.cfg, rt.targets, k, attrs, an); err == nil {
			r.compiled = cm
		}
	}
	rt.regmu.Lock()
	defer rt.regmu.Unlock()
	if _, ok := rt.regions[k.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateRegion, k.Name)
	}
	rt.regions[k.Name] = r
	rt.db.Put(attrs)
	return r, nil
}

// Region returns a registered region handle by name.
func (rt *Runtime) Region(name string) (*Region, error) {
	rt.regmu.RLock()
	r, ok := rt.regions[name]
	if ok {
		rt.regmu.RUnlock()
		return r, nil
	}
	known := make([]string, 0, len(rt.regions))
	for k := range rt.regions {
		known = append(known, k)
	}
	rt.regmu.RUnlock()
	sort.Strings(known)
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownRegion, name, known)
}

// Regions returns the registered region names, sorted.
func (rt *Runtime) Regions() []string {
	rt.regmu.RLock()
	names := make([]string, 0, len(rt.regions))
	for k := range rt.regions {
		names = append(names, k)
	}
	rt.regmu.RUnlock()
	sort.Strings(names)
	return names
}

// Launch is the name-based wrapper around Region.Launch.
func (rt *Runtime) Launch(name string, b symbolic.Bindings) (*Outcome, error) {
	r, err := rt.Region(name)
	if err != nil {
		return nil, err
	}
	return r.Launch(b)
}

// Decide is the name-based wrapper around Region.Decide.
func (rt *Runtime) Decide(name string, b symbolic.Bindings) (*Outcome, error) {
	r, err := rt.Region(name)
	if err != nil {
		return nil, err
	}
	return r.Decide(b)
}

// Predict is the name-based wrapper around Region.Predict.
func (rt *Runtime) Predict(name string, b symbolic.Bindings) (cpuSec, gpuSec float64, err error) {
	r, err := rt.Region(name)
	if err != nil {
		return 0, 0, err
	}
	return r.Predict(b)
}

// PredictTargets is the name-based wrapper around Region.PredictTargets.
func (rt *Runtime) PredictTargets(name string, b symbolic.Bindings) ([]Candidate, error) {
	r, err := rt.Region(name)
	if err != nil {
		return nil, err
	}
	return r.PredictTargets(b)
}

// Execute is the name-based wrapper around Region.Execute.
func (rt *Runtime) Execute(name string, t Target, b symbolic.Bindings) (float64, error) {
	r, err := rt.Region(name)
	if err != nil {
		return 0, err
	}
	return r.Execute(t, b)
}

// ExecuteTarget is the name-based wrapper around Region.ExecuteTarget.
func (rt *Runtime) ExecuteTarget(name, targetID string, b symbolic.Bindings) (float64, error) {
	r, err := rt.Region(name)
	if err != nil {
		return 0, err
	}
	return r.ExecuteTarget(targetID, b)
}

// Metrics returns a point-in-time snapshot of the runtime's
// instrumentation: launch and per-target dispatch counts, decision- and
// execution-cache accounting, and the model-evaluation latency histogram.
func (rt *Runtime) Metrics() Metrics {
	m := Metrics{
		Launches:               rt.met.launches.Load(),
		Decides:                rt.met.decides.Load(),
		Predictions:            rt.met.predictions.Load(),
		CompiledModelEvals:     rt.met.compiledEvals.Load(),
		DecisionCacheHits:      rt.met.decisionHits.Load(),
		DecisionCacheMisses:    rt.met.decisionMisses.Load(),
		DecisionCacheEvictions: rt.met.decisionEvictions.Load(),
		ExecCacheHits:          rt.met.execHits.Load(),
		ExecCacheMisses:        rt.met.execMisses.Load(),
		ModelEval:              rt.met.modelEval.Snapshot(),
		Dispatch: map[Target]uint64{
			TargetCPU:   rt.met.dispatch[TargetCPU].Load(),
			TargetGPU:   rt.met.dispatch[TargetGPU].Load(),
			TargetSplit: rt.met.dispatch[TargetSplit].Load(),
		},
		DispatchTargets: rt.snapshotDispatchTargets(),
	}
	m.Regions, m.CompiledRegions, m.DecisionCacheSize = rt.regionGauges()
	return m
}

// regionGauges walks the region table for the values that are states
// rather than counts: regions registered, how many of them are compiled,
// and the live decision-cache entries across all of them.
func (rt *Runtime) regionGauges() (regions, compiled, cacheEntries int) {
	rt.regmu.RLock()
	defer rt.regmu.RUnlock()
	for _, r := range rt.regions {
		cacheEntries += r.decisions.len()
		if r.compiled != nil {
			compiled++
		}
	}
	return len(rt.regions), compiled, cacheEntries
}

// dispatchTargetID names slot i of dispatchID: a registry ID, or the
// split pseudo-target in the last slot.
func (rt *Runtime) dispatchTargetID(i int) string {
	if i == rt.targets.Len() {
		return TargetIDSplit
	}
	return rt.targets.specs[i].ID
}

// snapshotDispatchTargets reads the per-target dispatch counters into a
// map keyed by dispatchTargetID, omitting zero rows.
func (rt *Runtime) snapshotDispatchTargets() map[string]uint64 {
	m := make(map[string]uint64)
	for i := range rt.dispatchID {
		if n := rt.dispatchID[i].Load(); n != 0 {
			m[rt.dispatchTargetID(i)] = n
		}
	}
	return m
}

// DecisionLog returns an immutable, launch-ordered snapshot of every
// logged decision.
func (rt *Runtime) DecisionLog() *DecisionLog { return rt.log.snapshot() }

// Decisions returns the launch log as a slice.
//
// Deprecated: use DecisionLog, which returns an immutable snapshot with
// query helpers.
func (rt *Runtime) Decisions() []Decision { return rt.log.snapshot().All() }

// ------------------------------------------------------ region methods --

// Compiled reports whether the region's decision path runs the compiled
// (Register-time specialized) models rather than the interpreted ones.
func (r *Region) Compiled() bool { return r.compiled != nil }

// Profile returns the region's recorded profiling observations (nil until
// ProfileRegion has run).
func (r *Region) Profile() *ProfileData {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.profile
}

// branchProb returns the region's effective branch probability: measured
// when a profile exists, the paper's 50% heuristic otherwise.
func (r *Region) branchProb() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.profile != nil {
		return r.profile.BranchProb
	}
	return 0.5
}

// setProfile installs profiling observations and invalidates the memoized
// decisions, whose model inputs just changed.
func (r *Region) setProfile(p *ProfileData) {
	r.mu.Lock()
	r.profile = p
	r.decisions.clear()
	r.mu.Unlock()
}

// countOpt is the hybrid counting configuration: the runtime supplies
// loop trip counts (paper Section IV: "array sizes, loop trip counts,
// arbitrary variable values"), with parallel indices substituted at their
// midpoint so triangular inner loops resolve to their mean; loops that
// still do not resolve fall back to the 128-iteration assumption, and
// branches to 50% (or the measured rate after ProfileRegion).
func (r *Region) countOpt(b symbolic.Bindings) ir.CountOptions {
	return ir.CountOptions{DefaultTrip: 128, BranchProb: r.branchProb(),
		Bindings: ir.MidpointBindings(r.Kernel, b)}
}

// evalTargets runs the analytical model of every registered target for
// the full iteration space, in registry order, recording one model-pass
// evaluation in the latency histogram.
func (r *Region) evalTargets(b symbolic.Bindings) ([]float64, error) {
	rt := r.rt
	start := time.Now()
	// Resolving the stored attributes validates that every runtime
	// value the symbolic expressions need has been supplied.
	if _, err := r.Attrs.Resolve(b, ipda.WarpGeom{
		WarpSize:         rt.cfg.Platform.GPU.WarpSize,
		TransactionBytes: rt.cfg.Platform.GPU.L2.LineBytes,
	}); err != nil {
		return nil, wrapUnbound(err)
	}
	opt := r.countOpt(b)
	preds := make([]float64, rt.targets.Len())
	for i := range preds {
		sec, err := r.predictTargetSpec(&rt.targets.specs[i], b, opt, 0)
		if err != nil {
			return nil, err
		}
		preds[i] = sec
	}
	rt.met.predictions.Add(1)
	rt.met.modelEval.Observe(time.Since(start))
	return preds, nil
}

// predictTargetSpec evaluates one target's analytical model. frac uses
// the models' zero-value convention (0 means the whole iteration space).
func (r *Region) predictTargetSpec(sp *TargetSpec, b symbolic.Bindings, opt ir.CountOptions, frac float64) (float64, error) {
	rt := r.rt
	if sp.Kind == KindCPU {
		cp, err := cpumodel.Predict(cpumodel.Input{
			Kernel:       r.Kernel,
			CPU:          sp.CPU,
			Threads:      sp.Threads,
			Bindings:     b,
			CountOpt:     opt,
			IPDA:         r.Analysis,
			Estimator:    rt.cfg.Estimator,
			IterFraction: frac,
		})
		if err != nil {
			return 0, wrapUnbound(err)
		}
		return cp.Seconds, nil
	}
	gp, err := gpumodel.Predict(gpumodel.Input{
		Kernel:       r.Kernel,
		GPU:          sp.GPU,
		Link:         sp.Link,
		Bindings:     b,
		CountOpt:     opt,
		IPDA:         r.Analysis,
		Options:      *rt.cfg.GPUOptions,
		IterFraction: frac,
	})
	if err != nil {
		return 0, wrapUnbound(err)
	}
	return gp.Seconds, nil
}

// predictFraction evaluates the base CPU/GPU pair's models with the host
// running cpuFrac of the iteration space and the device gpuFrac (both 1
// for a full single-target prediction). Callers (the split planner)
// guarantee the registry has both kinds.
func (r *Region) predictFraction(b symbolic.Bindings, cpuFrac, gpuFrac float64) (cpuSec, gpuSec float64, err error) {
	rt := r.rt
	opt := r.countOpt(b)
	cpuSec, err = r.predictTargetSpec(&rt.targets.specs[rt.targets.baseCPU], b, opt, fracOrZero(cpuFrac))
	if err != nil {
		return 0, 0, err
	}
	gpuSec, err = r.predictTargetSpec(&rt.targets.specs[rt.targets.baseGPU], b, opt, fracOrZero(gpuFrac))
	if err != nil {
		return 0, 0, err
	}
	return cpuSec, gpuSec, nil
}

// newCandidates builds the registry-ordered candidate list from raw
// per-target predictions (preds in registry order), with calibration
// initialized to the raw values.
func (rt *Runtime) newCandidates(preds []float64) []Candidate {
	cands := make([]Candidate, rt.targets.Len())
	for i := range cands {
		sp := &rt.targets.specs[i]
		cands[i] = Candidate{Target: sp.ID, Kind: sp.Kind,
			PredSeconds: preds[i], CalSeconds: preds[i], order: i}
	}
	return cands
}

// basePreds extracts the raw base-pair predictions from a candidate list
// in any order (0 for a kind the registry lacks).
func (rt *Runtime) basePreds(cands []Candidate) (cpu, gpu float64) {
	for i := range cands {
		switch cands[i].order {
		case rt.targets.baseCPU:
			cpu = cands[i].PredSeconds
		case rt.targets.baseGPU:
			gpu = cands[i].PredSeconds
		}
	}
	return cpu, gpu
}

// reorderedCopy rebuilds a registry-ordered working copy of memoized
// candidates with calibration reset to the raw predictions, so
// re-selection over a prediction-only cache entry is bit-for-bit the
// same as selection over a fresh evaluation.
func (rt *Runtime) reorderedCopy(cands []Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	for _, c := range cands {
		c.CalSeconds = c.PredSeconds
		out[c.order] = c
	}
	return out
}

// setChosen fills the decision's chosen-target fields from a registry
// index.
func (rt *Runtime) setChosen(d *Decision, idx int) {
	sp := &rt.targets.specs[idx]
	d.Target = sp.Kind.LegacyTarget()
	d.TargetID = sp.ID
	d.targetIdx = idx
}

// filterEligible applies the configured constraints to the ranked
// candidates. It returns the input slice untouched when nothing is
// filtered — or when everything would be (availability beats placement
// preferences: an over-constrained decision falls back to the full
// ranking rather than fail the launch).
func filterEligible(ranked []Candidate, cs []Constraint) []Candidate {
	eligible := func(c Candidate) bool {
		for _, con := range cs {
			if !con.Eligible(c) {
				return false
			}
		}
		return true
	}
	all := true
	for i := range ranked {
		if !eligible(ranked[i]) {
			all = false
			break
		}
	}
	if all {
		return ranked
	}
	elig := make([]Candidate, 0, len(ranked))
	for i := range ranked {
		if eligible(ranked[i]) {
			elig = append(elig, ranked[i])
		}
	}
	if len(elig) == 0 {
		return ranked
	}
	return elig
}

// splitPlanner resolves a split request against the calibrated base-pair
// predictions (interpreted or compiled, depending on the decide path).
type splitPlanner func(calCPU, calGPU float64) (Target, float64, error)

// selectTarget is the selection stage shared by both decide paths over
// freshly built (or recalibration-reset) registry-ordered candidates:
// calibrate, rank, filter by constraints, run the policy, and resolve
// split requests. It fills the decision's verdict fields (including
// provenance); the ranked slice lands in d.Candidates for memoization.
// feats lazily evaluates the decision's feature vector — it is invoked
// only when a Corrector is configured, so the legacy calibration path
// pays nothing for it.
func (r *Region) selectTarget(d *Decision, cands []Candidate, feats func() (Features, error), plan splitPlanner) error {
	rt := r.rt
	d.Provenance = ProvenanceAnalytical
	if rt.corrector != nil {
		f, err := feats()
		if err != nil {
			return err
		}
		d.Provenance = rt.corrector.CorrectFeatures(r.Name, f, cands)
	} else if rt.cfg.Calibrator != nil {
		rt.cfg.Calibrator.Correct(r.Name, cands)
	}
	// The split planner compares against the calibrated base pair;
	// capture before ranking permutes the slice.
	var calCPU, calGPU float64
	for i := range cands {
		switch cands[i].order {
		case rt.targets.baseCPU:
			calCPU = cands[i].CalSeconds
		case rt.targets.baseGPU:
			calGPU = cands[i].CalSeconds
		}
	}
	rankCandidates(cands)
	d.Candidates = cands

	elig := cands
	if len(rt.cfg.Constraints) > 0 {
		elig = filterEligible(cands, rt.cfg.Constraints)
	}
	sel := d.Policy.Select(r, elig)
	if sel.Split && plan != nil && rt.targets.baseCPU >= 0 && rt.targets.baseGPU >= 0 {
		t, f, err := plan(calCPU, calGPU)
		if err != nil {
			return err
		}
		switch t {
		case TargetSplit:
			d.Target, d.TargetID = TargetSplit, TargetIDSplit
			d.SplitFraction, d.targetIdx = f, -1
		case TargetGPU:
			rt.setChosen(d, rt.targets.baseGPU)
		default:
			rt.setChosen(d, rt.targets.baseCPU)
		}
		return nil
	}
	i := sel.Index
	if i < 0 || i >= len(elig) {
		i = 0
	}
	rt.setChosen(d, elig[i].order)
	return nil
}

// fillFromEntry serves a decision from a decided cache entry.
func (r *Region) fillFromEntry(d *Decision, ent *decisionEntry) {
	d.PredCPUSeconds, d.PredGPUSeconds = ent.predCPU, ent.predGPU
	d.Candidates = ent.cands
	d.SplitFraction = ent.frac
	d.CacheHit = true
	d.Provenance = ent.prov
	if ent.targetIdx < 0 {
		d.Target, d.TargetID, d.targetIdx = TargetSplit, TargetIDSplit, -1
		return
	}
	r.rt.setChosen(d, ent.targetIdx)
}

// fracOrZero maps a full-space fraction to the models' zero-value
// convention (0 and 1 both mean "whole iteration space").
func fracOrZero(f float64) float64 {
	if f >= 1 {
		return 0
	}
	return f
}

// Predict evaluates the analytical models for the region under runtime
// bindings, without executing anything, and returns the base CPU/GPU
// pair's raw predictions (the historical two-target view; PredictTargets
// returns the full ranking). Results are memoized in the region's
// decision cache.
func (r *Region) Predict(b symbolic.Bindings) (cpuSec, gpuSec float64, err error) {
	ent, err := r.predicted(b)
	return ent.predCPU, ent.predGPU, err
}

// PredictTargets evaluates every registered target's analytical model
// (memoized like Predict) and returns the ranked raw-prediction
// candidates — ascending PredSeconds, ties in registration order, with
// CalSeconds == PredSeconds. Calibration and constraints apply at
// decision time, not here. The returned slice is the caller's to keep.
func (r *Region) PredictTargets(b symbolic.Bindings) ([]Candidate, error) {
	ent, err := r.predicted(b)
	if err != nil {
		return nil, err
	}
	// The entry may have been decided since (calibrated, re-ranked):
	// rebuild the raw ranking from it rather than trust its order.
	cands := r.rt.reorderedCopy(ent.cands)
	rankCandidates(cands)
	return cands, nil
}

// predicted returns the decision-cache entry holding the region's raw
// predictions under b: the memoized one, or — evaluating every target's
// model, compiled when b is exactly the region's parameter set and
// interpreted otherwise — a fresh prediction-only entry, stored.
func (r *Region) predicted(b symbolic.Bindings) (decisionEntry, error) {
	var ent decisionEntry
	var preds []float64
	if cm := r.compiled; cm != nil {
		sv := cm.getVecs()
		defer cm.putVecs(sv)
		if cm.layout.Fill(b, sv.vals) {
			ent.hash = cm.layout.Hash(sv.vals)
			if hit, ok := r.decisions.getVec(ent.hash, cm.layout, sv.vals); ok {
				return hit, nil
			}
			if err := r.evalCompiled(cm, sv, r.branchProb()); err != nil {
				return ent, err
			}
			ent.key, preds = cm.layout.Key(sv.vals), sv.preds
		}
	}
	if preds == nil {
		ent.key = attrdb.BindingsKey(b)
		ent.hash = attrdb.KeyHash(ent.key)
		if hit, ok := r.decisions.get(ent.hash, ent.key); ok {
			return hit, nil
		}
		var err error
		if preds, err = r.evalTargets(b); err != nil {
			return ent, err
		}
	}
	ent.cands = r.rt.newCandidates(preds)
	ent.predCPU, ent.predGPU = r.rt.basePreds(ent.cands)
	rankCandidates(ent.cands)
	r.storeEntry(ent)
	return ent, nil
}

// evalCompiled runs every target's compiled model for the full iteration
// space (sv.vals already filled; it fills sv.mid and sv.preds), with the
// same accounting as evalTargets. The interpreted path's Attrs.Resolve
// validation is unnecessary here: compileRegion proved every expression
// resolvable from the parameters, and Fill proved the parameters are
// exactly what was bound.
func (r *Region) evalCompiled(cm *compiledModels, sv *slotVecs, branchProb float64) error {
	rt := r.rt
	start := time.Now()
	copy(sv.mid, sv.vals)
	cm.aug.Midpoint(sv.mid)
	if err := cm.predictAll(sv, branchProb); err != nil {
		return err
	}
	rt.met.predictions.Add(1)
	rt.met.compiledEvals.Add(1)
	rt.met.modelEval.Observe(time.Since(start))
	return nil
}

// storeEntry inserts a cache entry, counting evictions. The cache itself
// preserves an already-decided entry against an undecided refresh of the
// same key (Predict must not erase a Launch's decision).
func (r *Region) storeEntry(e decisionEntry) {
	if evicted := r.decisions.put(e); evicted > 0 {
		r.rt.met.decisionEvictions.Add(uint64(evicted))
	}
}

// execKey builds the memoization key for a ground-truth execution from a
// pre-canonicalized bindings key (avoiding a second canonicalization on
// the hot launch path).
func execKey(targetID, bkey string, frac float64) string {
	buf := make([]byte, 0, len(targetID)+len(bkey)+16)
	buf = append(buf, targetID...)
	buf = append(buf, "/f="...)
	buf = strconv.AppendFloat(buf, frac, 'f', 4, 64)
	buf = append(buf, '/')
	buf = append(buf, bkey...)
	return string(buf)
}

// baseIndex resolves the binary-enum view onto the registry: the first
// registered target of the kind.
func (rt *Runtime) baseIndex(t Target) (int, error) {
	switch t {
	case TargetCPU:
		if rt.targets.baseCPU >= 0 {
			return rt.targets.baseCPU, nil
		}
	case TargetGPU:
		if rt.targets.baseGPU >= 0 {
			return rt.targets.baseGPU, nil
		}
	}
	return 0, fmt.Errorf("offload: no registered %v-kind target", t)
}

// Execute runs the region on the base target of the given kind (ground
// truth) and returns the wall-clock seconds — the historical two-target
// entry point; ExecuteTarget addresses any registered target. Results
// are memoized per (target, bindings).
func (r *Region) Execute(t Target, b symbolic.Bindings) (float64, error) {
	idx, err := r.rt.baseIndex(t)
	if err != nil {
		return 0, err
	}
	return r.execute(&r.rt.targets.specs[idx], b, 1, attrdb.BindingsKey(b))
}

// ExecuteTarget runs the region on a registered target by ID (ground
// truth), memoized per (target, bindings).
func (r *Region) ExecuteTarget(id string, b symbolic.Bindings) (float64, error) {
	i := r.rt.targets.index(id)
	if i < 0 {
		return 0, fmt.Errorf("offload: unknown target %q (have %v)", id, r.rt.targets.IDs())
	}
	return r.execute(&r.rt.targets.specs[i], b, 1, attrdb.BindingsKey(b))
}

// execute runs a leading (CPU) or trailing (GPU) fraction of the region's
// iteration space on one registered target, memoized per (target,
// bindings, fraction). bkey is the caller's canonicalized
// attrdb.BindingsKey for b.
func (r *Region) execute(sp *TargetSpec, b symbolic.Bindings, frac float64, bkey string) (float64, error) {
	rt := r.rt
	key := execKey(sp.ID, bkey, frac)
	r.mu.Lock()
	if s, ok := r.exec[key]; ok {
		r.mu.Unlock()
		rt.met.execHits.Add(1)
		return s, nil
	}
	r.mu.Unlock()
	rt.met.execMisses.Add(1)
	var sec float64
	switch sp.Kind {
	case KindCPU:
		cfg := rt.cfg.CPUSim
		cfg.Threads = sp.Threads
		cfg.Fraction = frac
		res, err := sim.SimulateCPU(r.Kernel, sp.CPU, b, cfg)
		if err != nil {
			return 0, wrapUnbound(err)
		}
		sec = res.Seconds
	case KindGPU:
		cfg := rt.cfg.GPUSim
		cfg.IncludeTransfer = true
		cfg.Fraction = frac
		res, err := sim.SimulateGPU(r.Kernel, sp.GPU, sp.Link, b, cfg)
		if err != nil {
			return 0, wrapUnbound(err)
		}
		sec = res.Seconds
	default:
		return 0, fmt.Errorf("offload: unknown target kind %d", sp.Kind)
	}
	r.mu.Lock()
	r.exec[key] = sec
	r.mu.Unlock()
	return sec, nil
}

// bestSplit finds the host share that balances the two models: the CPU
// side's predicted time increases with f and the GPU side's decreases, so
// the makespan max(cpu(f), gpu(1-f)) is minimized where they cross.
func (r *Region) bestSplit(b symbolic.Bindings) (float64, error) {
	lo, hi := 0.01, 0.99
	cpuLo, gpuLo, err := r.predictFraction(b, lo, 1-lo)
	if err != nil {
		return 0, err
	}
	cpuHi, gpuHi, err := r.predictFraction(b, hi, 1-hi)
	if err != nil {
		return 0, err
	}
	// No crossing: one side dominates over the whole range.
	if cpuLo >= gpuLo {
		return 0, nil // CPU slower even with 1% of the work: all-GPU
	}
	if cpuHi <= gpuHi {
		return 1, nil // CPU faster even with 99% of the work: all-CPU
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		c, g, err := r.predictFraction(b, mid, 1-mid)
		if err != nil {
			return 0, err
		}
		if c < g {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// planSplit resolves a TargetSplit request into a final target and host
// fraction: it balances the models and only keeps the split when the
// predicted makespan beats the best single target by a meaningful margin
// — tiny predicted gains are inside the models' error bars and not worth
// the coordination.
func (r *Region) planSplit(b symbolic.Bindings, cpuPred, gpuPred float64) (Target, float64, error) {
	f, err := r.bestSplit(b)
	if err != nil {
		return 0, 0, err
	}
	const minGain = 0.10
	useSplit := f > 0.03 && f < 0.97
	if useSplit {
		c, g, err := r.predictFraction(b, f, 1-f)
		if err != nil {
			return 0, 0, err
		}
		makespan := maxf(c, g)
		best := cpuPred
		if gpuPred < best {
			best = gpuPred
		}
		if makespan > best*(1-minGain) {
			useSplit = false
		}
	}
	switch {
	case useSplit:
		return TargetSplit, f, nil
	case gpuPred < cpuPred:
		return TargetGPU, 0, nil
	default:
		return TargetCPU, 0, nil
	}
}

// decide runs the selection stage shared by Launch and Decide: consult
// the memoized decision cache, evaluate every registered target's model
// on a miss, rank, filter, run the policy (planning the split when
// asked), and memoize the result. It returns the canonical bindings key
// (from the cache entry on a hit, so the steady-state hot path never
// re-canonicalizes the bindings).
func (r *Region) decide(b symbolic.Bindings, d *Decision) (string, error) {
	rt := r.rt
	if cm := r.compiled; cm != nil {
		sv := cm.getVecs()
		defer cm.putVecs(sv)
		if cm.layout.Fill(b, sv.vals) {
			return r.decideCompiled(cm, sv, d)
		}
	}

	key := attrdb.BindingsKey(b)
	hash := attrdb.KeyHash(key)
	ent, ok := r.decisions.get(hash, key)
	if ok && ent.decided {
		r.fillFromEntry(d, &ent)
		rt.met.decisionHits.Add(1)
		return key, nil
	}

	rt.met.decisionMisses.Add(1)
	var cands []Candidate
	if !ok {
		preds, err := r.evalTargets(b)
		if err != nil {
			return "", err
		}
		cands = rt.newCandidates(preds)
		d.PredCPUSeconds, d.PredGPUSeconds = rt.basePreds(cands)
	} else {
		// Prediction-only entry (stored by Predict): reuse the memoized
		// evaluations on a fresh registry-ordered copy.
		cands = rt.reorderedCopy(ent.cands)
		d.PredCPUSeconds, d.PredGPUSeconds = ent.predCPU, ent.predGPU
	}
	err := r.selectTarget(d, cands,
		func() (Features, error) { return r.featuresInterpreted(b) },
		func(calCPU, calGPU float64) (Target, float64, error) {
			return r.planSplit(b, calCPU, calGPU)
		})
	if err != nil {
		return "", err
	}
	r.storeEntry(decisionEntry{key: key, hash: hash, cands: d.Candidates,
		predCPU: d.PredCPUSeconds, predGPU: d.PredGPUSeconds,
		decided: !rt.hasDynamic, targetIdx: d.targetIdx,
		target: d.Target, frac: d.SplitFraction, prov: d.Provenance})
	return key, nil
}

// decideCompiled is decide's fast path: sv.vals already holds the launch
// parameters in slot order. On the steady-state hit it performs zero
// allocations and zero map lookups — one hash, one sharded-LRU probe
// (the ranked candidate list is shared with the immutable cache entry).
func (r *Region) decideCompiled(cm *compiledModels, sv *slotVecs, d *Decision) (string, error) {
	rt := r.rt
	hash := cm.layout.Hash(sv.vals)
	ent, ok := r.decisions.getVec(hash, cm.layout, sv.vals)
	if ok && ent.decided {
		r.fillFromEntry(d, &ent)
		rt.met.decisionHits.Add(1)
		return ent.key, nil
	}
	rt.met.decisionMisses.Add(1)
	branchProb := r.branchProb()
	var cands []Candidate
	if !ok {
		if err := r.evalCompiled(cm, sv, branchProb); err != nil {
			return "", err
		}
		cands = rt.newCandidates(sv.preds)
		d.PredCPUSeconds, d.PredGPUSeconds = rt.basePreds(cands)
	} else {
		// Prediction-only entry (stored by Predict): the models are
		// already evaluated, but the split planner below may still need
		// the midpoint vector.
		copy(sv.mid, sv.vals)
		cm.aug.Midpoint(sv.mid)
		cands = rt.reorderedCopy(ent.cands)
		d.PredCPUSeconds, d.PredGPUSeconds = ent.predCPU, ent.predGPU
	}
	err := r.selectTarget(d, cands,
		func() (Features, error) { return cm.features(sv), nil },
		func(calCPU, calGPU float64) (Target, float64, error) {
			return cm.planSplit(sv, branchProb, calCPU, calGPU)
		})
	if err != nil {
		return "", err
	}
	key := cm.layout.Key(sv.vals)
	r.storeEntry(decisionEntry{key: key, hash: hash, cands: d.Candidates,
		predCPU: d.PredCPUSeconds, predGPU: d.PredGPUSeconds,
		decided: !rt.hasDynamic, targetIdx: d.targetIdx,
		target: d.Target, frac: d.SplitFraction, prov: d.Provenance})
	return key, nil
}

// Decide runs the selection stage only — cache lookup, model evaluation
// on a miss, policy decision — without dispatching any execution. It is
// the serving path of a pure decision service: the caller owns the two
// generated code versions and just needs to know which one to run.
// Decisions are memoized in (and served from) the same cache as Launch,
// so a Decide followed by a Launch with the same bindings costs one model
// evaluation total. The observer hook fires; the launch log does not
// record decide-only calls.
func (r *Region) Decide(b symbolic.Bindings) (*Outcome, error) {
	rt := r.rt
	rt.met.decides.Add(1)
	d := Decision{Region: r.Name, Bindings: b, Policy: rt.cfg.Policy}
	start := time.Now()
	if _, err := r.decide(b, &d); err != nil {
		return nil, err
	}
	d.DecisionOverhead = time.Since(start)
	rt.notify(d)
	return &Outcome{Decision: d}, nil
}

// Launch reaches the target region with the given runtime values,
// selects a target per the policy (memoizing the decision), executes it,
// and logs the decision.
func (r *Region) Launch(b symbolic.Bindings) (*Outcome, error) {
	rt := r.rt
	pol := rt.cfg.Policy
	rt.met.launches.Add(1)
	d := Decision{Region: r.Name, Bindings: b, Policy: pol}
	start := time.Now()

	key, err := r.decide(b, &d)
	if err != nil {
		return nil, err
	}
	d.DecisionOverhead = time.Since(start)

	if _, both := pol.(runsBoth); both {
		// Oracle semantics: run every registered code version, keep the
		// fastest (registration order breaks exact ties, so the classic
		// pair keeps the historical "tie stays on the host" behaviour).
		best, bestSec := -1, 0.0
		for i := 0; i < rt.targets.Len(); i++ {
			sec, err := r.execute(&rt.targets.specs[i], b, 1, key)
			if err != nil {
				return nil, err
			}
			switch i {
			case rt.targets.baseCPU:
				d.ActualCPUSeconds = sec
			case rt.targets.baseGPU:
				d.ActualGPUSeconds = sec
			}
			if best < 0 || sec < bestSec {
				best, bestSec = i, sec
			}
		}
		rt.setChosen(&d, best)
		d.ActualSeconds = bestSec
		return r.finish(d)
	}

	rt.beginDispatch(d.TargetID)
	defer rt.endDispatch(d.TargetID)

	if d.Target == TargetSplit {
		cpuSp := &rt.targets.specs[rt.targets.baseCPU]
		gpuSp := &rt.targets.specs[rt.targets.baseGPU]
		cpuSec, err := r.execute(cpuSp, b, d.SplitFraction, key)
		if err != nil {
			return nil, err
		}
		gpuSec, err := r.execute(gpuSp, b, 1-d.SplitFraction, key)
		if err != nil {
			return nil, err
		}
		d.ActualCPUSeconds, d.ActualGPUSeconds = cpuSec, gpuSec
		// Both halves run concurrently; joining adds one barrier.
		_, _, join := cpuSp.CPU.OverheadCycles(cpuSp.Threads)
		d.ActualSeconds = maxf(cpuSec, gpuSec) +
			join/(cpuSp.CPU.FreqGHz*1e9)
		return r.finish(d)
	}

	sec, err := r.execute(&rt.targets.specs[d.targetIdx], b, 1, key)
	if err != nil {
		return nil, err
	}
	d.ActualSeconds = sec
	switch d.targetIdx {
	case rt.targets.baseCPU:
		d.ActualCPUSeconds = sec
	case rt.targets.baseGPU:
		d.ActualGPUSeconds = sec
	}
	return r.finish(d)
}

// finish counts the dispatch (by legacy kind and by target ID), appends
// the decision to the log, and fires the observer hook.
func (r *Region) finish(d Decision) (*Outcome, error) {
	rt := r.rt
	rt.met.dispatch[d.Target].Add(1)
	idx := d.targetIdx
	if idx < 0 || idx >= len(rt.dispatchID)-1 {
		idx = len(rt.dispatchID) - 1 // split pseudo-target slot
	}
	rt.dispatchID[idx].Add(1)
	rt.log.append(d)
	rt.notify(d)
	return &Outcome{Decision: d}, nil
}

// beginDispatch/endDispatch bracket a dispatched execution for
// capacity-tracking constraints.
func (rt *Runtime) beginDispatch(targetID string) {
	for _, o := range rt.dispatchObs {
		o.BeginDispatch(targetID)
	}
}

func (rt *Runtime) endDispatch(targetID string) {
	for _, o := range rt.dispatchObs {
		o.EndDispatch(targetID)
	}
}

// notify fires the configured observer hook, if any.
func (rt *Runtime) notify(d Decision) {
	if fn := rt.obs.Load(); fn != nil {
		(*fn)(d)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
