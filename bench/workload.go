package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// transport is how a workload's caller reaches the program.
type transport int

const (
	overStream  transport = iota // client.StreamConn, slot-form stream frames
	overBatch                    // bare http.Client, TypeBatchRequest of batchSize slot-form items
	overCluster                  // client.ClusterClient, JSON /v2/decide, three replicas
)

const (
	batchSize = 64
	// cacheSize is the per-region decision LRU of the cold world, pinned
	// here so the workload does not drift with the runtime's default.
	cacheSize = 1024
	// coldKeys is the length of each region's cold size cycle: twice the
	// LRU, so a key is always evicted before it comes round again and the
	// expected verdicts can still be computed before the clock starts.
	coldKeys = 2 * cacheSize
	// trainPoints is the number of ObserveVerdict calls per region that
	// open the learner's confidence gate at set-up.
	trainPoints = 8
)

// spec is one workload: the world it needs and how the caller drives it.
type spec struct {
	name string
	why  string
	via  transport
	// inflight is the number of closed-loop callers sharing the one
	// connection.
	inflight int
	// invalidateEvery > 0 makes the generator issue one
	// Runtime.InvalidateDecisions (regions round-robin) per that many
	// decides. At 4, with 24 regions and a 96-key ring, every region is
	// invalidated exactly once between two visits of any of its keys.
	invalidateEvery int
	// cold selects the synthetic four-target registry, a trained learner
	// as Config.Calibrator and the cold size cycle instead of the hot ring.
	cold bool
}

// perCall is the number of decisions one call carries.
func (s *spec) perCall() int {
	if s.via == overBatch {
		return batchSize
	}
	return 1
}

// The workloads. Each `why` is the one-line reason BENCHMARK.json carries.
var specs = []*spec{
	{name: "stream-single-hot", via: overStream, inflight: 1,
		why: "one stream connection, 1 in flight, 100% cache hits: the latency-bound served decision, where wire+server+client do nearly all the work and offload about 3%"},
	{name: "stream-pipelined-hot", via: overStream, inflight: 32,
		why: "same world, 32 in flight on one connection: throughput-bound on the per-connection workers, global slots, combining writer and client read loop"},
	{name: "stream-single-miss", via: overStream, inflight: 1, invalidateEvery: 4,
		why: "stream-single-hot plus one invalidation per 4 decides, so every lookup misses, evaluates, ranks and stores: the miss path on the same transport"},
	{name: "batch-cold", via: overBatch, inflight: 1, cold: true,
		why: "HTTP-binary batches of 64 unrepeated keys over 4 targets with a trained learner: transport amortised 64x, so eval+rank+correct+store/evict dominate"},
	{name: "cluster3-json", via: overCluster, inflight: 1,
		why: "three gossiping replicas behind client.NewCluster, JSON /v2/decide, hot ring: HTTP admission, JSON codec, retry/breaker ladder, ring routing and gossip CPU"},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

var hotSizes = []int64{256, 512, 1100, 2048}

// key is one generated decide: a region (index into generator.regions)
// at a problem size, bound to every one of the region's parameters.
type key struct {
	region int
	n      int64
}

// generator makes a workload's inputs from the seed alone; the program
// under test only ever sees the requests built from them.
type generator struct {
	regions []string
	params  [][]string // ParamNames per region, sorted (the slot order)
	keys    []key      // hot: shuffled ring; cold: region-major, coldKeys per region
	cold    bool
}

func newGenerator(s *spec, seed int64, ref *offload.Runtime) (*generator, error) {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{cold: s.cold}
	for _, k := range polybench.Suite() {
		r, err := ref.Region(k.Name)
		if err != nil {
			return nil, err
		}
		g.regions = append(g.regions, k.Name)
		g.params = append(g.params, r.ParamNames())
	}
	if s.cold {
		// Each region cycles through its own permutation of coldKeys
		// distinct sizes.
		base := 256 + rng.Int63n(256)
		for r := range g.regions {
			for _, i := range rng.Perm(coldKeys) {
				g.keys = append(g.keys, key{region: r, n: base + int64(i)})
			}
		}
		return g, nil
	}
	for r := range g.regions {
		for _, n := range hotSizes {
			g.keys = append(g.keys, key{region: r, n: n + rng.Int63n(64)})
		}
	}
	rng.Shuffle(len(g.keys), func(i, j int) { g.keys[i], g.keys[j] = g.keys[j], g.keys[i] })
	return g, nil
}

// at maps the d-th decision of a run onto its key index. The hot ring
// is walked in order; the cold sequence deals decisions round-robin to
// the regions, each region stepping through its own cycle.
func (g *generator) at(d int) int {
	if !g.cold {
		return d % len(g.keys)
	}
	nr := len(g.regions)
	return (d%nr)*coldKeys + (d/nr)%coldKeys
}

// pass is the number of decisions after which the program's caches are
// in steady state: one ring for the hot workloads, one full LRU per
// region for the cold one.
func (g *generator) pass() int {
	if g.cold {
		return len(g.regions) * cacheSize
	}
	return len(g.keys)
}

func (g *generator) values(k key) []int64 {
	vals := make([]int64, len(g.params[k.region]))
	for i := range vals {
		vals[i] = k.n
	}
	return vals
}

func (g *generator) bindings(k key) map[string]int64 {
	b := make(map[string]int64, len(g.params[k.region]))
	for _, name := range g.params[k.region] {
		b[name] = k.n
	}
	return b
}

// wireRequests renders every key as a slot-form frame request, hashed
// with the reference runtime's own layout.
func (g *generator) wireRequests(ref *offload.Runtime) ([]wire.Request, error) {
	reqs := make([]wire.Request, len(g.keys))
	for i, k := range g.keys {
		r, err := ref.Region(g.regions[k.region])
		if err != nil {
			return nil, err
		}
		vals := g.values(k)
		reqs[i] = wire.Request{Region: g.regions[k.region], SlotForm: true,
			KeyHash: r.KeyHashVals(vals), Values: vals}
	}
	return reqs, nil
}

func (g *generator) jsonRequests() []server.DecideRequest {
	reqs := make([]server.DecideRequest, len(g.keys))
	for i, k := range g.keys {
		reqs[i] = server.DecideRequest{Region: g.regions[k.region], Bindings: g.bindings(k)}
	}
	return reqs
}

// newRuntime builds and fills one runtime of the workload's world, the
// way every replica, the client fallback and the reference do. clk, when
// the construction is being timed, is ticked after NewRuntime and after
// every Register and every region's training.
func (s *spec) newRuntime(clk *clock) (*offload.Runtime, *learn.Learner, error) {
	cfg := offload.Config{Platform: machine.PlatformP9V100()}
	var lrn *learn.Learner
	if s.cold {
		cfg.Targets = offload.SyntheticTargets(cfg.Platform, 0)
		cfg.DecisionCacheSize = cacheSize
		lrn = learn.New(learn.Config{Fallback: audit.NewCalibrator(0)})
		cfg.Calibrator = lrn
	}
	rt := offload.NewRuntime(cfg)
	clk.tick()
	for _, k := range polybench.Suite() {
		if _, err := rt.Register(k.IR); err != nil {
			return nil, nil, fmt.Errorf("register %s: %w", k.Name, err)
		}
		clk.tick()
	}
	if lrn != nil {
		if err := train(rt, lrn, clk); err != nil {
			return nil, nil, err
		}
	}
	return rt, lrn, nil
}

// train feeds the learner trainPoints deterministic ground-truth
// verdicts per region: every target measured at a constant factor of
// its prediction, so each model's residual variance is ~0 and the
// confidence gate opens. Two runtimes trained by this function hold
// bit-identical learner state.
func train(rt *offload.Runtime, lrn *learn.Learner, clk *clock) error {
	for _, name := range rt.Regions() {
		r, err := rt.Region(name)
		if err != nil {
			return err
		}
		for p := 0; p < trainPoints; p++ {
			b := symbolic.Bindings{}
			for _, param := range r.ParamNames() {
				b[param] = int64(192 + 160*p)
			}
			cands, err := r.PredictTargets(b)
			if err != nil {
				return fmt.Errorf("train %s: %w", name, err)
			}
			f, err := r.Features(b)
			if err != nil {
				return fmt.Errorf("train %s: %w", name, err)
			}
			ms := make([]audit.TargetMeasurement, len(cands))
			for i, c := range cands {
				factor := 1.1 + 0.07*float64(i)
				ms[i] = audit.TargetMeasurement{Target: c.Target, PredSeconds: c.PredSeconds,
					ActualSeconds: c.PredSeconds * factor, LogErr: math.Log(factor)}
			}
			lrn.ObserveVerdict(name, f, ms)
		}
		r.InvalidateDecisions()
		clk.tick()
	}
	return nil
}

// verdict is what the reference runtime returns for one key: the part of
// a response that must match bit for bit.
type verdict struct {
	target     string
	provenance string
	cands      []cand
}

type cand struct {
	target    string
	pred, cal float64
}

func verdictOf(out *offload.Outcome) verdict {
	v := verdict{target: out.TargetID, provenance: out.Provenance,
		cands: make([]cand, len(out.Candidates))}
	for i, c := range out.Candidates {
		v.cands[i] = cand{c.Target, c.PredSeconds, c.CalSeconds}
	}
	return v
}

// expected asks the reference runtime for the verdict of every key.
func (g *generator) expected(ref *offload.Runtime) ([]verdict, error) {
	exp := make([]verdict, len(g.keys))
	for i, k := range g.keys {
		r, err := ref.Region(g.regions[k.region])
		if err != nil {
			return nil, err
		}
		out, err := r.DecideVals(g.values(k))
		if err != nil {
			return nil, fmt.Errorf("reference %s n=%d: %w", g.regions[k.region], k.n, err)
		}
		exp[i] = verdictOf(out)
	}
	return exp, nil
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (v *verdict) matchesWire(r *wire.Response) bool {
	if r.Verdict != v.target || r.Provenance != v.provenance || len(r.Candidates) != len(v.cands) {
		return false
	}
	for i, c := range r.Candidates {
		e := &v.cands[i]
		if c.Target != e.target || !same(c.PredSeconds, e.pred) || !same(c.CalSeconds, e.cal) {
			return false
		}
	}
	return true
}

func (v *verdict) matchesJSON(r *server.DecideResponseV2) bool {
	if r.Verdict != v.target || r.Provenance != v.provenance || len(r.Candidates) != len(v.cands) {
		return false
	}
	for i, c := range r.Candidates {
		e := &v.cands[i]
		if c.Target != e.target || !same(c.PredSeconds, e.pred) || !same(c.CalSeconds, e.cal) {
			return false
		}
	}
	return true
}
