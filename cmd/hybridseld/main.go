// Command hybridseld serves the offload runtime as a network decision
// service: it registers a region set (the Polybench suite, or a subset),
// optionally verifies it against a program-attribute-database snapshot,
// and answers decision queries over HTTP/JSON with admission control,
// Prometheus metrics, structured request logs, and graceful drain on
// SIGTERM/SIGINT.
//
// Usage:
//
//	hybridseld -addr :8080
//	hybridseld -addr :8080 -stream-addr :8090         # persistent stream transport
//	hybridseld -addr 127.0.0.1:8080 -policy model-guided -queue 512
//	hybridseld -regions gemm,mvt1 -trace /tmp/decisions.jsonl
//	hybridseld -targets synthetic                   # rank an N-way registry
//	hybridseld -targets cpu/base,gpu/base,cpu/smt2  # rank only the targets one may pick
//	hybridseld -audit-rate 0.1 -audit-workers 2     # shadow-audit 10% of keys
//	hybridseld -audit-rate 1 -learn                 # learned residual corrections
//	hybridseld -learn -learn-out w.json             # persist learner state on drain
//	hybridseld -pprof-addr 127.0.0.1:6060           # profiling on its own listener
//	hybridseld -attrdb-out snapshot.json -dry-run   # write the DB and exit
//	hybridseld -attrdb snapshot.json                # verify DB against snapshot
//	hybridseld -node node-a -gossip-addr :7946 \
//	    -peers node-b=http://h2:7946,node-c=http://h3:7946   # 3-replica ring
//
// With -audit-rate > 0 the daemon shadow-audits a deterministic sample of
// served decisions on background workers: both targets are measured, the
// per-region accuracy accounting is exposed on GET /v1/audit and /metrics,
// and an online calibrator feeds the measured error back into subsequent
// decisions. A summary is logged on drain.
//
// With -learn (requires -audit-rate > 0) the audit stream additionally
// trains an online residual learner (internal/learn): a deterministic
// per-(region, target) ridge regression over the decision features whose
// confidence-gated corrections replace the EWMA factors once a model has
// seen -learn-min-samples audited points, with the EWMA as fallback
// below the gate. Learner state is inspectable on GET /v1/learn and
// /metrics (hybridsel_learner_* series), can be seeded from a snapshot
// with -learn-in, and is persisted to -learn-out on drain.
//
// With -node/-peers the daemon joins a consistent-hash replica ring
// (internal/cluster): the static seed membership defines key ownership,
// a lightweight gossip exchange on -gossip-addr replicates member
// health plus calibration and learner state (so any replica serves any
// key warm), and GET /v1/cluster exposes membership, incarnations, and
// replication status alongside hybridsel_cluster_* series on /metrics.
// Cluster-aware clients (client.NewCluster, loadgen -cluster) route
// each key to its owner and fail over to ring successors.
//
// POST /v2/decide additionally speaks the compact binary frame format
// (internal/wire) via content negotiation: requests with Content-Type
// application/x-hybridsel-frame are decoded as length-prefixed frames
// (slot-form bindings with a key-layout hash, or named form) and
// answered in kind; everything else — including /v1 — stays JSON.
// Drive it with `loadgen -wire binary` or a client with Binary: true.
//
// With -stream-addr the daemon additionally serves the persistent
// multiplexed stream transport on a raw TCP listener: long-lived
// connections carrying pipelined decide frames tagged with stream IDs,
// per-connection credit flow control instead of 429 churn, and Goaway
// drain on shutdown. The same protocol is always reachable on the HTTP
// port via GET /v1/stream with Upgrade: hybridsel-stream. Drive it with
// `loadgen -wire stream` or a client with Stream: true.
//
// Then:
//
//	curl -s localhost:8080/v1/decide -d '{"region":"gemm","bindings":{"n":1100}}'
//	curl -s localhost:8080/v2/decide -d '{"region":"gemm","bindings":{"n":1100}}'
//	curl -s localhost:8080/v1/regions
//	curl -s localhost:8080/v1/targets
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	streamAddr := flag.String("stream-addr", "",
		"serve the persistent stream transport on this raw TCP address (empty = HTTP Upgrade only)")
	platform := flag.String("platform", "p9v100", "platform: p9v100|p8k80")
	threads := flag.Int("threads", 160, "host thread count")
	policy := flag.String("policy", "model-guided",
		"policy: model-guided|always-gpu|always-cpu|oracle|split")
	cacheSize := flag.Int("cache", 0,
		"decision-cache entries per region (0 = default, <0 = disabled)")
	targets := flag.String("targets", "classic",
		"target registry: classic|synthetic|comma-separated IDs (e.g. cpu/base,gpu/base,gpu/prev)")
	regions := flag.String("regions", "",
		"comma-separated kernel subset (default: full Polybench suite)")
	queue := flag.Int("queue", 0,
		"admission queue depth beyond the worker pool (0 = default)")
	workers := flag.Int("workers", 0, "request concurrency (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline")
	drain := flag.Duration("drain", 10*time.Second,
		"grace period for in-flight requests on shutdown")
	attrdbIn := flag.String("attrdb", "",
		"attribute-database snapshot to verify the region set against")
	attrdbOut := flag.String("attrdb-out", "",
		"write the registered attribute database as a snapshot and continue")
	traceOut := flag.String("trace", "",
		"record every decision this daemon serves as JSONL to this file (a client's leased repeats never reach it)")
	auditRate := flag.Float64("audit-rate", 0,
		"shadow-audit sampling rate over distinct decision keys (0 = off, 1 = all)")
	auditWorkers := flag.Int("audit-workers", 1,
		"background audit goroutines (0 = audit inline on the request path)")
	learnOn := flag.Bool("learn", false,
		"train a residual learner from the audit stream and gate decisions on it (requires -audit-rate > 0)")
	learnMinSamples := flag.Int("learn-min-samples", 0,
		"audited samples before a learned model corrects decisions (0 = default)")
	learnIn := flag.String("learn-in", "",
		"seed the learner from this snapshot at startup")
	learnOut := flag.String("learn-out", "",
		"write the learner's snapshot to this file on drain")
	nodeID := flag.String("node", "",
		"this replica's cluster member ID (enables cluster mode, e.g. node-a)")
	peers := flag.String("peers", "",
		"static peer set as comma-separated id=gossip-url pairs (e.g. node-b=http://host:7946)")
	gossipAddr := flag.String("gossip-addr", "127.0.0.1:0",
		"listen address for the cluster gossip exchange (cluster mode only)")
	gossipInterval := flag.Duration("gossip-interval", 500*time.Millisecond,
		"gossip exchange cadence")
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this separate listener (empty = off; keep it loopback)")
	logFormat := flag.String("log", "text", "log format: text|json")
	logLevel := flag.String("log-level", "info",
		"log level: debug|info|warn (debug includes per-request lines)")
	dryRun := flag.Bool("dry-run", false,
		"register, verify and write snapshots, then exit without serving")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hybridseld:", err)
		os.Exit(1)
	}

	pol, err := offload.ParsePolicy(*policy)
	if err != nil {
		fatal(logger, err)
	}
	plat, err := machine.ParsePlatform(*platform)
	if err != nil {
		fatal(logger, err)
	}

	reg, err := offload.ParseTargets(plat, *threads, *targets)
	if err != nil {
		fatal(logger, err)
	}

	cfg := offload.Config{
		Platform:          plat,
		Threads:           *threads,
		Policy:            pol,
		DecisionCacheSize: *cacheSize,
		Targets:           reg,
	}

	// Decision trace recording: the trace writer observes every served
	// decision exactly as an in-process harness would capture launches.
	var tw *trace.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(logger, err)
		}
		defer f.Close()
		tw = trace.NewWriter(f)
	}

	// The corrector — the calibrator, or the learner over it — must exist
	// before the runtime (it is a Config hook); the auditor that trains it
	// needs the built runtime.
	var cal *audit.Calibrator
	var lrn *learn.Learner
	var corrector audit.Corrector
	if *learnOn && *auditRate <= 0 {
		fatal(logger, errors.New("-learn needs an audit training stream: set -audit-rate > 0"))
	}
	if *auditRate > 0 {
		cal = audit.NewCalibrator(0)
		cfg.Calibrator, corrector = cal, cal
		if *learnOn {
			lrn = learn.New(learn.Config{Fallback: cal, MinSamples: *learnMinSamples})
			if *learnIn != "" {
				if err := loadLearner(lrn, *learnIn); err != nil {
					fatal(logger, err)
				}
				logger.Info("learner snapshot loaded", "path", *learnIn)
			}
			cfg.Calibrator, corrector = lrn, lrn
			logger.Info("residual learner enabled", "min_samples", lrn.Stats().MinSamples)
		}
	}

	rt := offload.NewRuntime(cfg)
	names, err := registerRegions(rt, *regions)
	if err != nil {
		fatal(logger, err)
	}

	var observer func(offload.Decision)
	if tw != nil {
		observer = tw.Observer()
	}
	var auditor *audit.Auditor
	if *auditRate > 0 {
		acfg := audit.Config{Runtime: rt, Rate: *auditRate, Workers: *auditWorkers, Corrector: corrector}
		if tw != nil {
			acfg.OnVerdict = audit.RecordObserver(tw)
		}
		auditor = audit.New(acfg)
		observer = auditor.Observer(observer)
		logger.Info("shadow audit enabled", "rate", *auditRate, "workers", *auditWorkers)
	}
	rt.SetObserver(observer)
	logger.Info("registered regions", "count", len(names), "policy", pol.Name(),
		"platform", plat.Name, "threads", rt.Config().Threads,
		"targets", strings.Join(rt.Targets().IDs(), ","))

	if *attrdbIn != "" {
		if err := verifySnapshot(rt, *attrdbIn); err != nil {
			fatal(logger, err)
		}
		logger.Info("attrdb snapshot verified", "path", *attrdbIn)
	}
	if *attrdbOut != "" {
		if err := writeSnapshot(rt, *attrdbOut, plat.Name); err != nil {
			fatal(logger, err)
		}
		logger.Info("attrdb snapshot written", "path", *attrdbOut)
	}
	if *dryRun {
		if auditor != nil {
			auditor.Close()
		}
		closeLearn(logger, lrn, *learnOut)
		if err := flushTrace(logger, tw); err != nil {
			os.Exit(1)
		}
		return
	}

	// Cluster mode: join the consistent-hash member ring and gossip
	// health plus calibration/learner state with the static peer set.
	// Ownership is fixed by the seed membership — gossip never moves it —
	// so clients route and fail over purely by ring order while state
	// replication keeps every replica warm for any key.
	var node *cluster.Node
	var gossipSrv *http.Server
	var gossipStop func()
	if *nodeID != "" || *peers != "" {
		if *nodeID == "" {
			fatal(logger, errors.New("-peers requires -node"))
		}
		members, err := parsePeers(*peers)
		if err != nil {
			fatal(logger, err)
		}
		gl, err := net.Listen("tcp", *gossipAddr)
		if err != nil {
			fatal(logger, err)
		}
		node, err = cluster.New(cluster.Config{
			Self:      cluster.Member{ID: *nodeID, Addr: *addr, Gossip: "http://" + gl.Addr().String()},
			Peers:     members,
			Transport: &cluster.HTTPTransport{},
			Logger:    logger,
		})
		if err != nil {
			fatal(logger, err)
		}
		// Each state versions itself, so gossip re-encodes it only after an
		// audit or a merge moved it.
		if cal != nil {
			node.Register("calibration", cal)
		}
		if lrn != nil {
			node.Register("learner", lrn)
		}
		gossipSrv = &http.Server{Handler: node.Handler()}
		go func() {
			if err := gossipSrv.Serve(gl); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("gossip listener", "err", err)
			}
		}()
		gossipStop = node.Start(*gossipInterval)
		logger.Info("cluster node up",
			"id", *nodeID, "gossip", "http://"+gl.Addr().String(),
			"peers", len(members), "interval", gossipInterval.String())
	}

	srv, err := server.New(server.Config{
		Runtime:        rt,
		Concurrency:    *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		Logger:         logger,
		Auditor:        auditor,
		Learner:        lrn,
		Cluster:        node,
	})
	if err != nil {
		fatal(logger, err)
	}

	// The profiling listener is separate from the service address so debug
	// endpoints are never exposed on the decision port; its shutdown is
	// drain-safe (an in-flight CPU profile finishes its window).
	var pprofSrv *server.PprofServer
	if *pprofAddr != "" {
		pprofSrv, err = server.StartPprof(*pprofAddr, logger)
		if err != nil {
			fatal(logger, err)
		}
	}

	// Serve until SIGTERM/SIGINT, then drain: stop admitting, let
	// in-flight requests finish (bounded by -drain), flush the trace.
	ctx, stop := signal.NotifyContext(context.Background(),
		syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// The raw stream listener serves the persistent frame transport next
	// to the HTTP port (the Upgrade path on -addr works regardless);
	// srv.Shutdown drains it with Goaway under the same -drain grace.
	if *streamAddr != "" {
		sl, err := net.Listen("tcp", *streamAddr)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("stream listener up", "addr", sl.Addr().String())
		go func() {
			if err := srv.ServeStream(sl); err != nil {
				logger.Error("stream listener", "err", err)
			}
		}()
	}

	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe(*addr) }()

	select {
	case err := <-served:
		if err != nil {
			fatal(logger, err)
		}
	case <-ctx.Done():
		logger.Info("signal received, draining", "grace", drain.String())
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			logger.Error("drain incomplete", "err", err)
			closeCluster(logger, gossipStop, gossipSrv)
			closePprof(logger, pprofSrv, dctx)
			closeAudit(logger, auditor)
			closeLearn(logger, lrn, *learnOut)
			_ = flushTrace(logger, tw)
			os.Exit(1)
		}
		if err := <-served; err != nil {
			fatal(logger, err)
		}
		m := rt.Metrics()
		logger.Info("drained",
			"launches", m.Launches, "decides", m.Decides,
			"cache_hits", m.DecisionCacheHits, "cache_misses", m.DecisionCacheMisses)
	}
	closeCluster(logger, gossipStop, gossipSrv)
	closePprof(logger, pprofSrv, context.Background())
	closeAudit(logger, auditor)
	closeLearn(logger, lrn, *learnOut)
	if err := flushTrace(logger, tw); err != nil {
		os.Exit(1)
	}
}

// loadLearner seeds the learner from a snapshot written by -learn-out.
func loadLearner(l *learn.Learner, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := learn.ReadSnapshot(f)
	if err != nil {
		return err
	}
	return l.Restore(s)
}

// closeLearn logs the learner's final accounting and persists its
// snapshot, if requested. The audit queue must already be drained so the
// snapshot holds every observed sample.
func closeLearn(logger *slog.Logger, l *learn.Learner, out string) {
	if l == nil {
		return
	}
	st := l.Stats()
	logger.Info("learner summary",
		"samples", st.Samples, "updates", st.Updates,
		"region_models", st.RegionModels, "global_models", st.GlobalModels,
		"confident_models", st.ConfidentModels,
		"learned_verdicts", st.LearnedVerdicts,
		"analytical_verdicts", st.AnalyticalVerdicts)
	if out == "" {
		return
	}
	f, err := os.Create(out)
	if err != nil {
		logger.Error("learner snapshot", "err", err)
		return
	}
	if err := learn.WriteSnapshot(f, l.Snapshot()); err != nil {
		logger.Error("learner snapshot", "err", err)
		f.Close()
		return
	}
	if err := f.Close(); err != nil {
		logger.Error("learner snapshot", "err", err)
		return
	}
	logger.Info("learner snapshot written", "path", out)
}

// parsePeers parses the -peers list: comma-separated id=gossip-url
// pairs naming the static seed membership (this node excluded).
func parsePeers(s string) ([]cluster.Member, error) {
	var out []cluster.Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers entry %q: want id=gossip-url", part)
		}
		out = append(out, cluster.Member{ID: id, Gossip: url})
	}
	return out, nil
}

// closeCluster stops the gossip loop and listener, if cluster mode was
// on.
func closeCluster(logger *slog.Logger, stop func(), srv *http.Server) {
	if stop != nil {
		stop()
	}
	if srv != nil {
		if err := srv.Close(); err != nil {
			logger.Error("gossip listener close", "err", err)
		}
	}
}

// closePprof drains the profiling listener (bounded by ctx).
func closePprof(logger *slog.Logger, p *server.PprofServer, ctx context.Context) {
	if p == nil {
		return
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := p.Shutdown(dctx); err != nil {
		logger.Error("pprof shutdown", "err", err)
	}
}

// closeAudit drains the audit queue and logs the final accuracy summary.
func closeAudit(logger *slog.Logger, a *audit.Auditor) {
	if a == nil {
		return
	}
	a.Close()
	rep := a.Report()
	logger.Info("audit summary",
		"rate", rep.Rate, "offered", rep.Offered, "audited", rep.Samples,
		"dropped", rep.Dropped, "mispredicts", rep.Mispredicts,
		"regret_seconds", rep.RegretSeconds)
	for _, rr := range rep.Regions {
		factors := make([]any, 0, 2*len(rr.Targets))
		for _, me := range rr.Targets {
			factors = append(factors, me.Target, me.Factor)
		}
		logger.Info("audit region",
			"region", rr.Region, "samples", rr.Samples,
			"mispredicts", rr.Mispredicts, "regret_seconds", rr.RegretSeconds,
			slog.Group("factors", factors...))
	}
}

// registerRegions registers the requested kernel subset (or the whole
// suite) and returns the registered names.
func registerRegions(rt *offload.Runtime, subset string) ([]string, error) {
	want := map[string]bool{}
	if subset != "" {
		for _, name := range strings.Split(subset, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := polybench.Get(name); err != nil {
				return nil, err
			}
			want[name] = true
		}
		if len(want) == 0 {
			return nil, errors.New("-regions selected no kernels")
		}
	}
	var names []string
	for _, k := range polybench.Suite() {
		if len(want) > 0 && !want[k.Name] {
			continue
		}
		if _, err := rt.Register(k.IR); err != nil {
			return nil, err
		}
		names = append(names, k.Name)
	}
	return names, nil
}

// verifySnapshot checks the runtime's attribute database against a
// snapshot produced by an earlier run (-attrdb-out).
func verifySnapshot(rt *offload.Runtime, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := attrdb.ReadSnapshot(f)
	if err != nil {
		return err
	}
	return s.VerifyDB(rt.DB())
}

// writeSnapshot persists the runtime's attribute database.
func writeSnapshot(rt *offload.Runtime, path, platform string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := attrdb.WriteSnapshot(f, attrdb.NewSnapshot(rt.DB(), platform, "hybridseld")); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flushTrace flushes the writer and surfaces its latched error, if any:
// a trace that silently lost records must fail the run, not report
// success with a truncated file.
func flushTrace(logger *slog.Logger, tw *trace.Writer) error {
	if tw == nil {
		return nil
	}
	if err := tw.Flush(); err != nil {
		logger.Error("trace flush", "err", err)
		return err
	}
	logger.Info("trace flushed", "records", tw.Len())
	return nil
}

func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	default:
		return nil, fmt.Errorf("unknown log level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}
