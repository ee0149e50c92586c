// Command bench is hybridsel's one named benchmark: five workloads, each
// a whole served-decision world built in-process and driven closed-loop
// over loopback TCP from this one process, every verdict checked against
// a reference runtime, eight end-to-end metrics per workload, and a
// per-layer ladder traced from outside the program. README.md says why
// each workload and metric is there; BENCHMARK.json is the contract.
//
//	bash bench/run.sh                        # all workloads, interleaved
//	bash bench/run.sh --workload batch-cold --seed 2 --seconds 15 --trace 1
//	bash bench/run.sh -compare parent.json child.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/wire"
)

const (
	repetitions   = 3
	constructions = 21   // cold constructions behind setup_s
	warmDecisions = 2000 // on top of two passes over the key set
	// procs is GOMAXPROCS. Callers and program share this process, and
	// with a second P every handoff between their goroutines may or may
	// not cross threads; which it does flips for seconds at a time, and
	// stream-single-hot's p50 with it (11 <-> 17 us on the 2-core box
	// this was written on, against a steady 10.8 us on one P). One P
	// measures the path length of the code, which is what a change to
	// the code moves. See README.md, "Spread".
	procs = 1
)

type config struct {
	workloads []*spec
	seed      int64
	repFor    time.Duration // one repetition
	builds    int           // cold constructions behind setup_s, the repetitions' own among them
	trace     bool
	sample    int // decisions the traced pass replays
	traceDir  string
	out       string
	log       io.Writer
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all (interleaved round-robin)")
		seed     = flag.Int64("seed", 1, "shuffles the ring, draws the sizes, fixes batch-cold's key cycle")
		seconds  = flag.Float64("seconds", 15, "measured seconds per workload, split into 3 repetitions")
		trace    = flag.Int("trace", 1, "1 adds the per-layer ladder and the traced pass; with -workload, picks which metrics the last line carries")
		traceOut = flag.String("trace-out", "", "directory for the span files (default: beside the executable)")
		out      = flag.String("out", "", "results JSON (default: results.json beside the executable)")
		compare  = flag.Bool("compare", false, "compare two results files (or comma-separated sets of them): -compare PARENT CHILD")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare PARENT.json[,..] CHILD.json[,..]")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	cfg := config{seed: *seed, builds: constructions, trace: *trace != 0, sample: traceSample, traceDir: *traceOut, out: *out, log: os.Stdout,
		repFor: time.Duration(*seconds / repetitions * float64(time.Second))}
	if *workload == "all" {
		cfg.workloads = specs
	} else if s := specByName(*workload); s != nil {
		cfg.workloads = []*spec{s}
	} else {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if cfg.repFor <= 0 {
		fmt.Fprintln(os.Stderr, "-seconds must be positive")
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if cfg.traceDir == "" {
		cfg.traceDir = filepath.Dir(exe)
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(filepath.Dir(exe), "results.json")
	}

	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(cfg.out, res); err != nil {
		fatal(err)
	}
	fmt.Printf("results written to %s\n", cfg.out)
	if len(res.Workloads) == 1 {
		// The driver's line: the last on standard output.
		line, err := json.Marshal(res.Workloads[0].driverLine(cfg.trace))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// metric is one reported figure: the median repetition, and the
// repetitions it is the median of.
type metric struct {
	Unit        string    `json:"unit"`
	Value       float64   `json:"value"`
	Repetitions []float64 `json:"repetitions,omitempty"`
}

type workloadResult struct {
	Name        string            `json:"name"`
	Correct     bool              `json:"correct"`
	Problems    []string          `json:"problems,omitempty"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedShare float64           `json:"failed_share"`
	Failures    string            `json:"failures"`
	Pace        [3]float64        `json:"host_pace_ns_per_step"` // over the timed repetitions: median, fastest, slowest slice
	EndToEnd    map[string]metric `json:"end_to_end"`
	PerLayer    map[string]metric `json:"per_layer,omitempty"`
}

type results struct {
	Seed          int64            `json:"seed"`
	RepSeconds    float64          `json:"repetition_seconds"`
	Repetitions   int              `json:"repetitions"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	Go            string           `json:"go"`
	Network       string           `json:"network"`
	Clock         string           `json:"clock"`
	Workloads     []workloadResult `json:"workloads"`
	ElapsedSecond float64          `json:"elapsed_seconds"`
}

// driverLine is the object the driver reads: the end-to-end metrics of
// an untraced run, or the per-layer ones of a traced run.
func (r *workloadResult) driverLine(traced bool) map[string]any {
	ms, defs := r.EndToEnd, endToEnd
	if traced {
		ms, defs = r.PerLayer, perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": ms[d.name].Value, "unit": d.unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// state is one workload's progress through the interleaved rounds.
type state struct {
	spec   *spec
	gen    *generator
	exp    []verdict
	wreqs  []wire.Request
	ref    *offload.Runtime
	refLrn *learn.Learner
	rec    *recording

	setups []*clock // one per construction, ticked between its steps
	reps   []repetition
	traced tally
	layers map[string]float64
}

// run measures the workloads: setup constructions first, then the
// repetitions round-robin across workloads (A B C A B C ...), each on a
// world built for it and warmed off the clock, then — on the last
// round's world, before it is torn down — the ladder and the traced pass.
func run(cfg config) (*results, error) {
	began := time.Now()
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(cfg.log, "hybridsel bench: seed %d, %d repetitions of %v per workload, GOMAXPROCS %d, %s\n",
		cfg.seed, repetitions, cfg.repFor, runtime.GOMAXPROCS(0), network)

	var states []*state
	defer func() {
		for _, st := range states {
			st.rec.free()
		}
	}()
	for _, s := range cfg.workloads {
		st := &state{spec: s}
		var err error
		// Room for three times the fastest workload's rate when this was
		// written; a drive that fills it ends early.
		room := int(cfg.repFor.Seconds()*400e3) + cfg.sample + 1<<16
		if st.rec, err = newRecording(room); err != nil {
			return nil, err
		}
		states = append(states, st)
		if st.ref, st.refLrn, err = s.newRuntime(nil); err != nil {
			return nil, err
		}
		if st.gen, err = newGenerator(s, cfg.seed, st.ref); err != nil {
			return nil, err
		}
		if st.exp, err = st.gen.expected(st.ref); err != nil {
			return nil, err
		}
		if st.wreqs, err = st.gen.wireRequests(st.ref); err != nil {
			return nil, err
		}
		for i := repetitions; i < cfg.builds; i++ {
			w, err := st.build()
			if err != nil {
				return nil, err
			}
			w.close()
		}
	}

	for round := 0; round < repetitions; round++ {
		for _, st := range states {
			w, err := st.build()
			if err != nil {
				return nil, err
			}
			err = st.round(w, cfg, round == repetitions-1)
			w.close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", st.spec.name, err)
			}
		}
	}

	res := &results{Seed: cfg.seed, RepSeconds: cfg.repFor.Seconds(), Repetitions: repetitions,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Network: network, Clock: clockNote}
	for _, st := range states {
		r := st.result(cfg)
		r.print(cfg.log, cfg.trace)
		res.Workloads = append(res.Workloads, r)
	}
	res.ElapsedSecond = time.Since(began).Seconds()
	return res, nil
}

const (
	network   = "loopback TCP only, closed loop, program and callers in one process"
	clockNote = "times are in reference ns: wall clock over the host's pace, 1 where a probe step takes 1 ns"
)

func (st *state) build() (*world, error) {
	runtime.GC() // so no construction pays for the last world's garbage
	c := newClock(128)
	w, err := buildWorld(st.spec, st.gen, st.exp, st.wreqs, c)
	if err != nil {
		return nil, err
	}
	st.setups = append(st.setups, c)
	return w, nil
}

// stepSeconds is what steps [from, to) of a construction took, in
// reference seconds.
func stepSeconds(c *clock, from, to int) float64 {
	steps := c.slices()
	dur, _ := refSum(steps[from:min(to, len(steps))])
	return dur / 1e9
}

// round warms w by count, times one repetition and, when last and
// tracing, climbs the ladder.
func (st *state) round(w *world, cfg config, last bool) error {
	per := st.spec.perCall()
	warmCalls := (2*st.gen.pass() + warmDecisions + per - 1) / per
	t, next := w.drive(0, warmCalls, 0, nil)
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %s", t.reason())
	}
	rep, next := w.measure(next, cfg.repFor, st.rec)
	st.reps = append(st.reps, rep)
	if !last || !cfg.trace {
		return nil
	}

	l, err := newLadder(st.spec, st.ref, st.refLrn)
	if err != nil {
		return err
	}
	n := (cfg.sample + per - 1) / per
	tr, err := w.tracedPass(l, next, n, st.rec)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	st.traced = tr.tally
	floor, err := loopbackFloor(int(math.Round(tr.reqBytes)), int(math.Round(tr.respBytes)), cfg.sample)
	if err != nil {
		return err
	}
	var p50s []float64
	for _, r := range st.reps {
		p50s = append(p50s, r.values["trace.untraced_p50_us"])
	}
	st.layers = tr.layerFigures(floor, median(p50s))
	more, err := w.allocFigures(l, next+n)
	if err != nil {
		return fmt.Errorf("allocation rungs: %w", err)
	}
	if st.spec.via == overCluster {
		cf, err := w.clusterFigures(cfg.sample / 8)
		if err != nil {
			return fmt.Errorf("cluster rungs: %w", err)
		}
		for k, v := range cf {
			more[k] = v
		}
	}
	for k, v := range more {
		st.layers[k] = v
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	return tr.tracer.write(filepath.Join(cfg.traceDir, "trace-"+st.spec.name+".jsonl"))
}

// result folds a workload's repetitions into its reported metrics: each
// is the median repetition (for setup_s, the median construction).
func (st *state) result(cfg config) workloadResult {
	r := workloadResult{Name: st.spec.name, EndToEnd: map[string]metric{}}
	var total tally
	counters := map[string]float64{}
	values := map[string][]float64{}
	for _, rep := range st.reps {
		total.add(rep.tally)
		accumulate(counters, nil, rep.counters)
		for k, v := range rep.values {
			values[k] = append(values[k], v)
		}
	}
	var registers []float64
	for _, c := range st.setups {
		values["setup_s"] = append(values["setup_s"], stepSeconds(c, 0, len(c.ticks)))
		// Steps 1..regions of a construction are the first runtime's Registers.
		registers = append(registers, stepSeconds(c, 1, 1+len(st.gen.regions))*1e3)
	}
	for _, d := range endToEnd {
		r.EndToEnd[d.name] = metric{Unit: d.unit, Value: median(values[d.name]), Repetitions: values[d.name]}
	}
	r.Pace = [3]float64{median(values["host.pace"]), math.Inf(1), 0}
	for i := range st.reps {
		r.Pace[1] = min(r.Pace[1], values["host.pace_fastest"][i])
		r.Pace[2] = max(r.Pace[2], values["host.pace_slowest"][i])
	}
	decisions := float64(max(total.attempted, 1))
	untraced := total
	total.add(st.traced)
	r.Attempted, r.Failed = total.attempted, total.failed
	r.FailedShare = float64(total.failed) / float64(max(total.attempted, 1))
	r.Failures = total.reason()

	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hitShare := share(counters["hits"], counters["hits"]+counters["misses"])
	learnedShare := share(counters["learned"], counters["learned"]+counters["analytical"])
	if total.mismatch > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d verdicts differ from the reference runtime", total.mismatch))
	}
	if want := st.spec.hitShare(); hitShare != want {
		r.Problems = append(r.Problems, fmt.Sprintf("offload.cache_hit_share is %v, the workload needs %v", hitShare, want))
	}
	if st.spec.cold && learnedShare != 1 {
		r.Problems = append(r.Problems, fmt.Sprintf("learn.learned_share is %v, the workload needs 1", learnedShare))
	}
	r.Correct = len(r.Problems) == 0
	if !cfg.trace {
		return r
	}

	m := st.layers
	m["client.latency_p99_us"] = median(values["client.latency_p99_us"])
	m["client.latency_p999_us"] = median(values["client.latency_p999_us"])
	m["offload.register_ms"] = median(registers)
	m["offload.cache_hit_share"] = hitShare
	m["offload.evictions_per_decision"] = counters["evictions"] / decisions
	m["offload.compiled_evals_per_decision"] = counters["compiled_evals"] / decisions
	m["learn.learned_share"] = learnedShare
	m["server.stream_writes_per_decision"] = counters["hybridsel_stream_writes_total"] / decisions
	m["server.http_sheds"] = counters["hybridseld_shed_total"]
	if st.spec.via == overStream {
		m["server.stream_sheds"] = float64(untraced.sheds)
	}
	if st.spec.via == overCluster {
		reqs := counters["cluster_requests"]
		m["client.retries_per_decision"] = counters["client_retries"] / decisions
		m["client.hedge_share"] = share(counters["client_hedges"], reqs)
		m["client.transport_errors_per_decision"] = counters["client_transport_errors"] / decisions
		m["client.fallback_share"] = float64(untraced.fallbacks) / decisions
		m["cluster.hedge_share"] = share(counters["cluster_hedges"], reqs)
		m["cluster.failover_share"] = share(counters["cluster_failovers"], reqs)
		most, sum := 0.0, 0.0
		for k, v := range counters {
			if strings.HasPrefix(k, "replica_requests/") {
				most, sum = math.Max(most, v), sum+v
			}
		}
		m["cluster.owner_imbalance"] = share(most*replicas, sum) - 1
		// Gossip runs on the wall clock's timers, so this one is per wall second.
		m["cluster.gossip_exchanges_per_s"] = counters["gossip_exchanges"] / (float64(len(st.reps)) * cfg.repFor.Seconds())
	} else {
		m["client.transport_errors_per_decision"] = float64(untraced.transport) / decisions
	}
	r.PerLayer = map[string]metric{}
	for _, d := range perLayer {
		r.PerLayer[d.name] = metric{Unit: d.unit, Value: m[d.name]}
	}
	r.PerLayer["trace.root_p50_us"] = metric{Unit: "us", Value: m["trace.root_p50_us"]}
	return r
}

// hitShare is the decision-cache hit share the workload is built to have.
func (s *spec) hitShare() float64 {
	if s.cold || s.invalidateEvery > 0 {
		return 0
	}
	return 1
}

func (r *workloadResult) print(w io.Writer, traced bool) {
	verdict := "every verdict equals the reference runtime's"
	if !r.Correct {
		verdict = "INCORRECT: " + strings.Join(r.Problems, "; ")
	}
	fmt.Fprintf(w, "\nworkload %s: %s\n", r.Name, verdict)
	fmt.Fprintf(w, "  %-38s %16.6g %-6s (%d of %d decisions failed: %s)\n", "failed_share", r.FailedShare, "ratio", r.Failed, r.Attempted, r.Failures)
	fmt.Fprintf(w, "  %-38s %16.6g %-6s wall-clock ns per probe step, median slice (fastest %.4g, slowest %.4g); every time below is wall clock over this\n", "host.pace", r.Pace[0], "ns", r.Pace[1], r.Pace[2])
	for _, d := range endToEnd {
		m := r.EndToEnd[d.name]
		fmt.Fprintf(w, "  %-38s %16.6g %-6s repetitions %.6g\n", d.name, m.Value, m.Unit, m.Repetitions)
	}
	if !traced {
		return
	}
	for _, d := range perLayer {
		m := r.PerLayer[d.name]
		fmt.Fprintf(w, "  %-38s %16.6g %-6s -> %s\n", d.name, m.Value, m.Unit, d.moves)
	}
	root := r.PerLayer["trace.root_p50_us"].Value
	fmt.Fprintf(w, "  traced root p50 %.4g us = layer sum %.4g + loopback floor %.4g + residual %.4g\n", root,
		r.PerLayer["trace.layer_sum_us"].Value, r.PerLayer["trace.loopback_floor_us"].Value, r.PerLayer["trace.residual_us"].Value)
}
