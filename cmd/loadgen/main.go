// Command loadgen drives a hybridseld daemon with decision traffic and
// reports throughput and latency percentiles. It can replay a recorded
// launch trace (internal/trace JSONL) or synthesize Polybench-shaped
// traffic: kernels drawn from the suite, binding sets drawn from a
// zipf-like distribution over a few distinct problem sizes — mostly
// repeats (exercising the daemon's cached decision path) with a tail of
// colder sizes.
//
// Two load models:
//
//	-rate 0   closed loop: -concurrency workers issue requests
//	          back-to-back, each waiting for its response.
//	-rate N   open loop: N requests/second are dispatched on schedule
//	          regardless of completions (up to -concurrency*1024 queued
//	          client-side), exposing the daemon's shedding behaviour.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 -duration 5s -concurrency 16
//	loadgen -addr http://127.0.0.1:8080 -rate 20000 -duration 10s
//	loadgen -addr http://127.0.0.1:8080 -trace decisions.jsonl -batch 32
//	loadgen -addr http://127.0.0.1:8080 -wait 5s -min-throughput 10000
//
// Resilience runs: -client routes traffic through the production client
// (retries, circuit breaker, in-process fallback) instead of a
// bare http.Client, and -faults interposes a deterministic fault-injection
// proxy scripted by a scenario (a faultnet preset name or DSL). Combined,
// they are the acceptance run — every request must complete with a
// verdict, remote or fallback:
//
//	loadgen -addr http://127.0.0.1:8080 -client -faults faults30 -duration 10s
//
// Cluster runs: -cluster takes the replica set as comma-separated
// id=base-url pairs and drives the cluster client instead — every key
// routes to its consistent-hash owner on the stream that replica's
// endpoint upgrades to (HTTP beneath it), and a killed replica's traffic
// fails over to the ring successor without losing verdicts; the report
// says per replica which transport carried what:
//
//	loadgen -cluster node-a=http://h1:8080,node-b=http://h2:8080,node-c=http://h3:8080
//
// Plain runs (no -client, no -cluster) drive one of the production
// client's bare transports (client.NewTransport): its encoders,
// connection pool and error typing with none of its coalescing, leases,
// retries, breaker or fallback, so every call goes on the network and
// sheds, transport failures and server errors are counted as they
// happen. Every mode speaks /v2/decide.
//
// Wire format: -wire binary switches the decide traffic to the compact
// frame encoding — slot-form binding vectors going out, ranked-candidate
// frames coming back; -client runs downgrade to JSON automatically if the
// daemon is too old to answer frames:
//
//	loadgen -addr http://127.0.0.1:8080 -wire binary -batch 64 -duration 5s
//
// -wire stream rides the persistent multiplexed stream transport:
// long-lived connections carrying pipelined decide frames, dialed raw
// at -stream-addr (hybridseld -stream-addr) or negotiated over the
// HTTP port via Upgrade when -stream-addr is empty. Plain stream runs
// pipeline each batch over one connection of a small shared pool;
// -client stream runs set the production client's Stream mode, failing
// over to HTTP per attempt when a connection dies:
//
//	loadgen -addr http://127.0.0.1:8080 -wire stream -duration 5s
//	loadgen -addr http://127.0.0.1:8080 -stream-addr 127.0.0.1:8090 -wire stream -client
//
// The throughput gate reports accepted decisions per transport
// (http-json / http-binary / stream / local fallback), so a stream run
// that silently fell back to HTTP is visible in the gate line.
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/faultnet"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/metrics"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/trace"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "daemon base URL")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	concurrency := flag.Int("concurrency", 16, "workers (closed loop) / pool size (open loop)")
	rate := flag.Int("rate", 0, "open-loop dispatch rate in req/s (0 = closed loop)")
	batch := flag.Int("batch", 1, "decision requests per HTTP call")
	execute := flag.Bool("execute", false, "request simulated execution, not just the decision")
	traceIn := flag.String("trace", "", "replay this JSONL trace instead of synthesizing traffic")
	kernels := flag.String("kernels", "", "comma-separated kernel subset for synthesis")
	mode := flag.String("mode", "test", "dataset mode for synthesis: test|benchmark")
	distinct := flag.Int("distinct", 4, "distinct binding sets per kernel")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	wait := flag.Duration("wait", 0, "poll /healthz this long for the daemon to come up")
	minThroughput := flag.Float64("min-throughput", 0,
		"exit non-zero if decisions/sec falls below this")
	scrape := flag.Bool("scrape", true, "print daemon-side counters from /metrics after the run")
	useClient := flag.Bool("client", false,
		"route traffic through the resilient client (retries, breaker, fallback)")
	noFallback := flag.Bool("no-fallback", false,
		"client mode: disable the in-process fallback runtime")
	faults := flag.String("faults", "",
		"front the daemon with a fault-injection proxy scripted by this scenario (preset or DSL)")
	clusterSet := flag.String("cluster", "",
		"route through the cluster client over this replica set (comma-separated id=base-url pairs); "+
			"each key goes to its ring owner with failover to successors")
	wireFormat := flag.String("wire", "json", "decide encoding: json|binary|stream")
	streamAddr := flag.String("stream-addr", "",
		"raw TCP stream address for -wire stream (empty = HTTP Upgrade on -addr)")
	streamConns := flag.Int("stream-conns", 0,
		"persistent connections for plain -wire stream runs (0 = 2)")
	flag.Parse()

	kind, ok := map[string]string{
		"json":   client.TransportHTTPJSON,
		"binary": client.TransportHTTPBinary,
		"stream": client.TransportStream,
	}[*wireFormat]
	if !ok {
		fatal(fmt.Errorf("loadgen: -wire %q: want json, binary or stream", *wireFormat))
	}
	if kind == client.TransportStream && *faults != "" && !*useClient {
		fatal(fmt.Errorf("loadgen: -wire stream -faults needs -client (the HTTP fault proxy cannot carry stream connections)"))
	}
	if *clusterSet != "" && *wireFormat != "json" {
		fatal(fmt.Errorf("loadgen: -cluster takes no -wire: every replica endpoint starts on the stream, by Upgrade, with HTTP beneath"))
	}
	if *clusterSet != "" && *faults != "" {
		fatal(fmt.Errorf("loadgen: -cluster and -faults are mutually exclusive (a single proxy cannot front a replica set; kill replicas instead)"))
	}

	httpClient := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency * 2,
			MaxIdleConnsPerHost: *concurrency * 2,
		},
	}

	if *wait > 0 {
		if err := waitHealthy(httpClient, *addr, *wait); err != nil {
			fatal(err)
		}
	}

	reqs, err := buildWorkload(*traceIn, *kernels, *mode, *distinct, *execute, *seed)
	if err != nil {
		fatal(err)
	}

	// With -faults the traffic goes through an in-process faultnet proxy
	// whose scenario loops for the whole run; health checks and the final
	// metrics scrape keep using the direct address.
	target := *addr
	if *faults != "" {
		sc, err := faultnet.ParseScenario(*faults)
		if err != nil {
			fatal(err)
		}
		proxy := faultnet.New(*addr, *seed)
		paddr, err := proxy.Start("127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		defer proxy.Close()
		target = "http://" + paddr
		fmt.Printf("loadgen: faultnet proxy on %s, scenario %s (%v per pass)\n",
			paddr, sc.Name, sc.Total())
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			for ctx.Err() == nil {
				_ = proxy.Run(ctx, sc, func(i int, s faultnet.Step) {
					fmt.Printf("loadgen: fault step %d: %v for %v\n", i, s.Faults, s.Duration)
				})
			}
		}()
	}

	loop := "closed loop"
	if *rate > 0 {
		loop = fmt.Sprintf("open loop (%d req/s)", *rate)
	}
	fmt.Printf("loadgen: %s, %d workers, batch %d, %s wire, %v against %s (%d distinct requests)\n",
		loop, *concurrency, *batch, *wireFormat, *duration, target, len(reqs))

	// One client.Config for every mode; the mode picks what is built.
	cfg := client.Config{
		BaseURL: target, Seed: *seed,
		Binary: kind == client.TransportHTTPBinary,
		Stream: kind == client.TransportStream, StreamAddr: *streamAddr, StreamConns: *streamConns,
	}
	if kind != client.TransportHTTPJSON {
		params := polybenchParams(*kernels)
		cfg.RegionParams = func(region string) []string { return params[region] }
	}
	raw := !*useClient && *clusterSet == ""
	if !raw && !*noFallback {
		if cfg.Fallback, err = fallbackRuntime(*kernels); err != nil {
			fatal(err)
		}
	}
	var d decider
	var report func(io.Writer)
	switch {
	case *clusterSet != "":
		cc, err := newClusterLoadClient(*clusterSet, cfg.Fallback, *seed)
		if err != nil {
			fatal(err)
		}
		defer cc.Close()
		d, report = resilient(cc), func(w io.Writer) { reportCluster(cc, w) }
	case *useClient:
		rc, err := client.New(cfg)
		if err != nil {
			fatal(err)
		}
		defer rc.Close()
		d, report = resilient(rc), func(w io.Writer) { reportClient(rc, w) }
	default:
		cfg.HTTPClient = httpClient
		t, err := client.NewTransport(kind, cfg)
		if err != nil {
			fatal(err)
		}
		defer t.Close()
		d, report = t.Send, func(io.Writer) {}
	}
	st := drive(d, raw, reqs, *concurrency, *rate, *batch, *duration)
	st.report(os.Stdout)
	report(os.Stdout)

	if *scrape {
		if err := scrapeMetrics(httpClient, *addr, os.Stdout); err != nil {
			fatal(err)
		}
	}
	if err := st.gateErr(*minThroughput); err != nil {
		fatal(err)
	}
	if err := st.hardErr(); err != nil {
		fatal(err)
	}
}

// ------------------------------------------------------------ workload --

// buildWorkload produces the ring of decision requests the generator
// cycles through.
func buildWorkload(traceIn, kernels, mode string, distinct int, execute bool, seed int64) ([]server.DecideRequest, error) {
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recs, err := trace.Read(bufio.NewReader(f))
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("trace %s is empty", traceIn)
		}
		reqs := make([]server.DecideRequest, len(recs))
		for i, r := range recs {
			reqs[i] = server.DecideRequest{Region: r.Region, Bindings: r.Bindings, Execute: execute}
		}
		return reqs, nil
	}

	var m polybench.Mode
	switch mode {
	case "test":
		m = polybench.Test
	case "benchmark":
		m = polybench.Benchmark
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	if distinct < 1 {
		distinct = 1
	}

	// Polybench-shaped synthesis: every suite kernel contributes its
	// canonical mode bindings plus progressively smaller variants, with
	// zipf-like weights (variant v appears distinct-v times) so most
	// traffic repeats hot binding sets.
	var reqs []server.DecideRequest
	for _, k := range selected(kernels) {
		base := k.Bindings(m)
		for v := 0; v < distinct; v++ {
			b := map[string]int64{}
			for name, val := range base {
				scaled := val >> v
				if scaled < 8 {
					scaled = 8
				}
				b[name] = scaled
			}
			for rep := 0; rep < distinct-v; rep++ {
				reqs = append(reqs, server.DecideRequest{
					Region: k.Name, Bindings: b, Execute: execute})
			}
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("no kernels selected")
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// ----------------------------------------------------------------- run --

// transports are the verdict transport tags, in report order.
var transports = [...]string{client.TransportHTTPJSON, client.TransportHTTPBinary,
	client.TransportStream, client.TransportLease, client.TransportLocal}

type stats struct {
	ok atomic.Uint64 // calls answered with verdicts
	// shed counts calls the daemon refused as deliberate load shedding
	// (RemoteError.Shed): an overloaded daemon doing its job, reported
	// and gated separately from hard failures.
	shed      atomic.Uint64
	transport atomic.Uint64 // transport failures (dial, reset, timeout)
	serverErr atomic.Uint64 // every other refusal: 5xx and unexpected statuses
	decisions atomic.Uint64 // verdicts carrying a decision
	itemErrs  atomic.Uint64 // verdicts carrying a per-item error
	dropped   atomic.Uint64 // open loop: dispatches the client queue refused

	// Client-mode accounting: verdict provenance and calls the resilient
	// client could not complete at all (its hard-failure class).
	remote    atomic.Uint64
	fallback  atomic.Uint64
	coalesced atomic.Uint64
	failed    atomic.Uint64

	// Correction-stage accounting over successful /v2 verdicts: how many
	// rankings came from a confident learned residual model versus the
	// analytical (EWMA-calibrated) path.
	learned    atomic.Uint64
	analytical atomic.Uint64

	// Per-transport accepted-decision tallies, so a stream run that
	// silently fell back to HTTP shows up in the gate line rather than
	// hiding inside one aggregate.
	byTransport [len(transports)]atomic.Uint64

	mu        sync.Mutex
	latencies []int64 // ns per call
	elapsed   time.Duration
}

func (st *stats) observe(d time.Duration) {
	st.mu.Lock()
	st.latencies = append(st.latencies, int64(d))
	st.mu.Unlock()
}

func (st *stats) decisionsPerSec() float64 {
	if st.elapsed <= 0 {
		return 0
	}
	return float64(st.decisions.Load()) / st.elapsed.Seconds()
}

// gateErr enforces the -min-throughput floor against accepted traffic
// only: when the daemon sheds under deliberate overload the floor is
// scaled by the accepted fraction of calls, so an open-loop run that
// pushes past saturation is judged on what the daemon admitted, not on
// load it explicitly refused.
func (st *stats) gateErr(min float64) error {
	if min <= 0 {
		return nil
	}
	floor := min
	if calls := st.ok.Load() + st.shed.Load(); calls > 0 {
		floor = min * float64(st.ok.Load()) / float64(calls)
	}
	if got := st.decisionsPerSec(); got < floor {
		msg := fmt.Sprintf("throughput %.0f decisions/s below required %.0f (floor %.0f scaled by accepted fraction)",
			got, min, floor)
		if tb := st.transportBreakdown(); tb != "" {
			msg += " [" + tb + "]"
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}

// transportBreakdown renders the accepted-decision split per transport,
// so a stream run that leaked onto HTTP, or a -faults run that absorbed
// verdicts locally, is visible in the throughput line and gate message
// rather than hiding inside one aggregate.
func (st *stats) transportBreakdown() string {
	var b strings.Builder
	for i, name := range transports {
		n := st.byTransport[i].Load()
		if n == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", name, n)
	}
	return b.String()
}

// hardErr reports transport and 5xx failures — the errors that must fail
// the run. Sheds are excluded: they are the daemon's documented
// backpressure, not a malfunction. In client mode the bar is higher:
// the resilient client absorbs transport faults, so any call it could
// not complete with a verdict is a hard failure — 100% completion is
// the contract a -faults run is graded on.
func (st *stats) hardErr() error {
	t, s, f := st.transport.Load(), st.serverErr.Load(), st.failed.Load()
	if t+s+f == 0 {
		return nil
	}
	return fmt.Errorf("%d transport errors, %d server errors, %d incomplete client calls", t, s, f)
}

// polybenchParams maps each (selected) suite kernel to its sorted
// parameter names — what the slot wire form needs to agree with the
// daemon on a region's binding layout.
func polybenchParams(kernels string) map[string][]string {
	params := map[string][]string{}
	for _, k := range selected(kernels) {
		b := k.Bindings(polybench.Test)
		names := make([]string, 0, len(b))
		for name := range b {
			names = append(names, name)
		}
		sort.Strings(names)
		params[k.Name] = names
	}
	return params
}

// selected returns the suite kernels the -kernels flag names (empty =
// the whole suite).
func selected(kernels string) []*polybench.Kernel {
	want := map[string]bool{}
	for _, name := range strings.Split(kernels, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	return slices.DeleteFunc(polybench.Suite(),
		func(k *polybench.Kernel) bool { return len(want) > 0 && !want[k.Name] })
}

// decider makes one call: reqs in the batch form, or — batch unset — the
// one request reqs holds in the single form. A raw transport's Send is
// one as it is; the resilient clients are through resilient.
type decider func(ctx context.Context, reqs []server.DecideRequest, batch bool) ([]client.Verdict, error)

func resilient(c interface {
	Decide(context.Context, server.DecideRequest) (*client.Verdict, error)
	DecideBatch(context.Context, []server.DecideRequest) ([]client.Verdict, error)
}) decider {
	return func(ctx context.Context, reqs []server.DecideRequest, batch bool) ([]client.Verdict, error) {
		if batch {
			return c.DecideBatch(ctx, reqs)
		}
		v, err := c.Decide(ctx, reqs[0])
		if err != nil {
			return nil, err
		}
		return []client.Verdict{*v}, nil
	}
}

// drive is the one load loop — closed (workers back-to-back) or open
// (dispatch on schedule into a bounded queue) until the deadline — over
// the one decider. A failed call is classified from the client's typed
// error when d is a raw transport, and is an incomplete call when d is a
// resilient client, which was supposed to absorb the fault.
func drive(d decider, raw bool, reqs []server.DecideRequest,
	concurrency, rate, batch int, duration time.Duration) *stats {
	st := &stats{}
	var next atomic.Uint64
	ctx := context.Background()

	fail := func(err error) {
		var re *client.RemoteError
		switch {
		case !raw:
			st.failed.Add(1)
		case !errors.As(err, &re):
			st.transport.Add(1)
		case re.Shed():
			st.shed.Add(1)
		default:
			st.serverErr.Add(1)
		}
	}
	note := func(v *client.Verdict) {
		if v.Provenance == client.ProvenanceFallback {
			st.fallback.Add(1)
		} else {
			st.remote.Add(1)
		}
		if v.Coalesced {
			st.coalesced.Add(1)
		}
		if v.Response.Error != nil {
			st.itemErrs.Add(1)
			return
		}
		st.decisions.Add(1)
		st.byTransport[slices.Index(transports[:], v.Transport)].Add(1)
		switch v.Response.Provenance {
		case offload.ProvenanceLearned:
			st.learned.Add(1)
		case offload.ProvenanceAnalytical:
			st.analytical.Add(1)
		}
	}
	fire := func() {
		i := int(next.Add(1)-1) % len(reqs)
		window := reqs[i : i+1]
		if batch > 1 {
			window = make([]server.DecideRequest, batch)
			for j := range window {
				window[j] = reqs[(i+j)%len(reqs)]
			}
		}
		start := time.Now()
		vs, err := d(ctx, window, batch > 1)
		st.observe(time.Since(start))
		if err != nil {
			fail(err)
			return
		}
		st.ok.Add(1)
		for j := range vs {
			note(&vs[j])
		}
	}

	start := time.Now()
	deadline := start.Add(duration)
	// Closed loop: workers fire back-to-back until the deadline. Open
	// loop: they drain a bounded client queue fed on schedule.
	jobs := make(chan struct{}, concurrency*1024)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rate <= 0 && time.Now().Before(deadline) {
				fire()
			}
			for range jobs {
				fire()
			}
		}()
	}
	if rate > 0 {
		ticker := time.NewTicker(max(time.Second/time.Duration(rate), time.Microsecond))
		for time.Now().Before(deadline) {
			<-ticker.C
			select {
			case jobs <- struct{}{}:
			default:
				st.dropped.Add(1)
			}
		}
		ticker.Stop()
	}
	close(jobs)
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// fallbackRuntime builds the in-process runtime the resilient modes
// degrade to. It mirrors hybridseld's defaults (same platform, thread
// count, kernel subset and simulation fidelity), so degraded verdicts —
// executed seconds included — match what the daemon would have answered.
func fallbackRuntime(kernels string) (*offload.Runtime, error) {
	rt := offload.NewRuntime(offload.Config{
		Platform: machine.PlatformP9V100(),
		Threads:  160,
	})
	for _, k := range selected(kernels) {
		if _, err := rt.Register(k.IR); err != nil {
			return nil, err
		}
	}
	return rt, nil
}

// newClusterLoadClient builds the cluster client for -cluster mode from
// the id=base-url member list.
func newClusterLoadClient(members string, fallback *offload.Runtime, seed int64) (*client.ClusterClient, error) {
	ccfg := client.ClusterConfig{Replica: client.Config{Seed: seed}, Fallback: fallback}
	for _, part := range strings.Split(members, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-cluster entry %q: want id=base-url", part)
		}
		ccfg.Members = append(ccfg.Members, client.ClusterMember{ID: id, BaseURL: url})
	}
	return client.NewCluster(ccfg)
}

// reportCluster prints the cluster-layer counters after a -cluster run:
// routing outcomes first, then each replica's own client snapshot.
func reportCluster(cc *client.ClusterClient, w io.Writer) {
	m := cc.Metrics()
	fmt.Fprintf(w, "cluster      %d requests, %d failovers, %d fallbacks, %d demoted routes\n",
		m.Requests, m.Failovers, m.Fallbacks, m.Demoted)
	ids := make([]string, 0, len(m.Replicas))
	for id := range m.Replicas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rm := m.Replicas[id]
		fmt.Fprintf(w, "  %-10s %d retries, %d fallbacks, breaker %s (opened %d); stream %d calls, %d fallbacks to HTTP, %d reconnects, %d downgrades\n",
			id, rm.Retries, rm.Fallbacks, rm.BreakerState, rm.BreakerOpened,
			rm.StreamCalls, rm.StreamFallbacks, rm.StreamReconnects, rm.StreamDowngrades)
	}
}

// reportClient prints the client-side resilience counters after a
// -client run, in the same spirit as the daemon scrape.
func reportClient(c *client.Client, w io.Writer) {
	m := c.Metrics()
	fmt.Fprintf(w, "client       %d retries, %d fallbacks, %d coalesced\n",
		m.Retries, m.Fallbacks, m.Coalesced)
	fmt.Fprintf(w, "breaker      %s (opened %d times), %d retry-after waits honored\n",
		m.BreakerState, m.BreakerOpened, m.RetryAfterHonored)
	if m.StreamCalls+m.StreamFallbacks+m.StreamReconnects+m.StreamDowngrades > 0 {
		fmt.Fprintf(w, "stream       %d calls, %d fallbacks to HTTP, %d reconnects, %d downgrades\n",
			m.StreamCalls, m.StreamFallbacks, m.StreamReconnects, m.StreamDowngrades)
	}
}

// -------------------------------------------------------------- report --

func (st *stats) report(w io.Writer) {
	st.mu.Lock()
	lat := st.latencies
	st.mu.Unlock()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(q float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		return time.Duration(lat[int(q*float64(len(lat)-1))])
	}
	fmt.Fprintf(w, "calls        %d ok, %d shed (429), %d transport errors, %d server errors",
		st.ok.Load(), st.shed.Load(), st.transport.Load(), st.serverErr.Load())
	if d := st.dropped.Load(); d > 0 {
		fmt.Fprintf(w, ", %d dropped client-side", d)
	}
	if f := st.failed.Load(); f > 0 {
		fmt.Fprintf(w, ", %d incomplete", f)
	}
	fmt.Fprintln(w)
	if r, fb := st.remote.Load(), st.fallback.Load(); r+fb > 0 {
		fmt.Fprintf(w, "provenance   %d remote, %d fallback, %d coalesced\n",
			r, fb, st.coalesced.Load())
	}
	fmt.Fprintf(w, "decisions    %d (%.0f/s)", st.decisions.Load(), st.decisionsPerSec())
	if tb := st.transportBreakdown(); tb != "" {
		fmt.Fprintf(w, " [%s]", tb)
	}
	if e := st.itemErrs.Load(); e > 0 {
		fmt.Fprintf(w, ", %d item errors", e)
	}
	if l, a := st.learned.Load(), st.analytical.Load(); l+a > 0 {
		fmt.Fprintf(w, ", %d learned / %d analytical", l, a)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "call latency p50 %v  p95 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
}

// scrapeMetrics prints the daemon-side counters that matter for a load
// run: decision volume, cache efficiency, shedding. An unreachable
// /metrics is only reported; an exposition a Prometheus scraper would
// reject is an error.
func scrapeMetrics(client *http.Client, addr string, w io.Writer) error {
	var body []byte
	resp, err := client.Get(addr + "/metrics")
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		fmt.Fprintf(w, "metrics scrape failed: %v\n", err)
		return nil
	}
	fmt.Fprintln(w, "daemon:")
	for _, line := range strings.Split(string(body), "\n") {
		for _, prefix := range []string{
			"hybridsel_decides_total",
			"hybridsel_launches_total",
			"hybridsel_model_evaluations_total",
			"hybridsel_decision_cache_hits_total",
			"hybridsel_decision_cache_misses_total",
			"hybridseld_shed_total",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Fprintf(w, "  %s\n", line)
			}
		}
	}
	if err := metrics.Lint(bytes.NewReader(body)); err != nil {
		return fmt.Errorf("daemon /metrics is not a valid exposition: %w", err)
	}
	return nil
}

func waitHealthy(client *http.Client, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("daemon not healthy after %v: %w", timeout, err)
			}
			return fmt.Errorf("daemon not healthy after %v", timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
