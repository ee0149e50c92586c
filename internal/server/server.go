// Package server exposes an offload runtime as a network decision
// service: the paper's launch-time selector behind an HTTP/JSON API, with
// the production concerns an in-process runtime never needed — admission
// control with load shedding, per-request deadlines, batch coalescing
// through the decision cache, Prometheus metrics, structured request
// logs, and graceful drain.
//
// Endpoints:
//
//	POST /v1/decide   single or batched decision requests (deprecated in
//	                  favor of /v2/decide; response shape frozen)
//	POST /v2/decide   ranked decision requests: every registered target's
//	                  prediction, ascending by calibrated seconds
//	GET  /v1/regions  the registered region set and its parameters
//	GET  /v1/targets  the execution-target registry the runtime ranks over
//	GET  /v1/audit    shadow-audit accuracy report (404 without an auditor)
//	GET  /metrics     Prometheus text exposition (runtime + server + audit)
//	GET  /healthz     liveness/readiness (503 while draining)
//
// Error responses on every endpoint share one envelope:
//
//	{"error": {"code": "unknown_region", "message": "...", "retry_after": 1}}
//
// with machine-classifiable codes (ErrCode* constants); retry_after (in
// seconds) appears only on transient rejections (429/503), mirroring the
// Retry-After header.
//
// Backpressure model: a request first claims one of GOMAXPROCS + 1024
// admission tickets — none free means the service is saturated beyond its
// queue and the request is shed immediately with 429 and Retry-After
// (shedding at the door is what keeps the daemon deadlock-free: no request
// ever waits on an unbounded line). An admitted request then waits for one
// of GOMAXPROCS execution slots, bounded by its deadline; the wait is the
// "queue", the slots are the "workers". Every admitted request runs under
// a 5 s context deadline, so a stuck model evaluation cannot pin a slot
// forever. A stream connection (stream.go) is bounded by its
// credit window instead: its decides wait for nothing, and only its
// executes take a slot.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/metrics"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// The limits are constants: no caller ever set one to another value.
// Tests shrink them through Config's and Server's hooks.
const (
	defaultQueueDepth     = 1024            // admitted-but-waiting requests beyond the slots
	defaultRequestTimeout = 5 * time.Second // per-request context deadline
	// defaultMaxBatch caps the number of requests in one batched decide
	// body.
	defaultMaxBatch = 4096
	// defaultStreamCredit bounds in-flight streams per stream connection:
	// the flow-control window granted on connect.
	defaultStreamCredit = 64
)

// HeaderTimeout is how long each HTTP server of the daemon — decisions,
// gossip, pprof — waits for a request's header: a peer that sends part of
// one and stalls is disconnected, not held. A connection upgraded to a
// stream is past its header and keeps no deadline.
const HeaderTimeout = 5 * time.Second

// Config parameterizes a Server.
type Config struct {
	// Runtime is the decision runtime to serve (required).
	Runtime *offload.Runtime

	// Logger receives structured request logs (nil = slog.Default).
	Logger *slog.Logger

	// Auditor, when non-nil, is the shadow auditor observing the served
	// runtime. The server only reads from it: its accuracy accounting is
	// exposed on GET /v1/audit and folded into /metrics. Lifecycle
	// (wiring the observer, Close on drain) stays with the caller.
	Auditor *audit.Auditor

	// Learner, when non-nil, is the online residual learner correcting
	// the served runtime's rankings. The server only reads from it: its
	// models and verdict counters are exposed on GET /v1/learn and its
	// gauges folded into /metrics. Wiring (offload.Config.Calibrator,
	// the auditor's training feed) stays with the caller.
	Learner *learn.Learner

	// Cluster, when non-nil, is this replica's gossip node. The server
	// only reads from it: membership and state-replication status are
	// exposed on GET /v1/cluster and the hybridsel_cluster_* series
	// folded into /metrics. Lifecycle (the gossip loop, the gossip
	// listener) stays with the caller.
	Cluster *cluster.Node

	// Test hooks, set only by this package's tests to saturate the queue
	// or expire a deadline with a handful of requests: the execution slots
	// (0 = GOMAXPROCS; one per HTTP request or stream execute — a
	// decide-only stream request holds none), the queue beyond them
	// (0 = defaultQueueDepth, negative = none) and the request deadline
	// (0 = defaultRequestTimeout).
	concurrency    int
	queueDepth     int
	requestTimeout time.Duration
}

// Server is the HTTP decision service.
type Server struct {
	cfg     Config
	rt      *offload.Runtime
	log     *slog.Logger
	mux     *http.ServeMux
	httpSrv *http.Server

	tickets chan struct{} // admission: concurrency + queueDepth
	slots   chan struct{} // execution: concurrency

	start    time.Time
	draining atomic.Bool
	reqSeq   atomic.Uint64
	met      serverMetrics
	set      metrics.Set // every series /metrics serves: runtime, audit, learner, cluster node, server
	streams  streamRegistry

	// holdForTest, when set, runs while an execution slot is held —
	// lets tests saturate the queue deterministically. maxBatch,
	// streamCredit and headerTimeout are the constants; in-package tests
	// shrink them to reach the limits with a handful of requests, or in
	// milliseconds.
	holdForTest   func()
	maxBatch      int
	streamCredit  int
	headerTimeout time.Duration
}

// New builds a server around a runtime. The runtime's regions may keep
// being registered concurrently; the served set is looked up per request.
func New(cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, errors.New("server: Config.Runtime is required")
	}
	if cfg.concurrency <= 0 {
		cfg.concurrency = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.queueDepth == 0:
		cfg.queueDepth = defaultQueueDepth
	case cfg.queueDepth < 0:
		cfg.queueDepth = 0
	}
	if cfg.requestTimeout <= 0 {
		cfg.requestTimeout = defaultRequestTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	s := &Server{
		cfg:     cfg,
		rt:      cfg.Runtime,
		log:     cfg.Logger,
		mux:     http.NewServeMux(),
		tickets: make(chan struct{}, cfg.concurrency+cfg.queueDepth),
		slots:   make(chan struct{}, cfg.concurrency),
		start:   time.Now(),

		maxBatch:      defaultMaxBatch,
		streamCredit:  defaultStreamCredit,
		headerTimeout: HeaderTimeout,
	}
	cfg.Runtime.RegisterMetrics(&s.set)
	cfg.Auditor.RegisterMetrics(&s.set)
	if cfg.Learner != nil {
		cfg.Learner.RegisterMetrics(&s.set)
	}
	if cfg.Cluster != nil {
		cfg.Cluster.RegisterMetrics(&s.set)
	}
	s.met.register(s)

	// Every route is an exact path, so the pattern's path is the request
	// counter's path label.
	route := func(pattern string, h http.HandlerFunc) {
		_, path, _ := strings.Cut(pattern, " ")
		s.mux.HandleFunc(pattern, s.instrument(path, h))
	}
	route("POST /v1/decide", s.admit(s.deprecated(
		func(w http.ResponseWriter, r *http.Request) { s.handleDecideJSON(w, r, false) })))
	route("POST /v2/decide", s.admit(s.handleDecideV2))
	s.mux.HandleFunc("GET /v1/stream", s.handleStreamUpgrade)
	route("GET /v1/regions", s.handleRegions)
	route("GET /v1/targets", s.handleTargets)
	route("GET /v1/audit", s.handleAudit)
	route("GET /v1/learn", s.handleLearn)
	route("GET /metrics", s.handleMetrics)
	route("GET /healthz", s.handleHealthz)
	if cfg.Cluster != nil {
		route("GET /v1/cluster", s.handleCluster)
	}
	return s, nil
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: s.headerTimeout}
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves until Shutdown. The bound address
// is logged, so ":0" is usable in scripts.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.log.Info("listening", "addr", l.Addr().String())
	return s.Serve(l)
}

// Shutdown drains the server: health flips to 503 so load balancers stop
// sending, no new request is admitted, stream connections receive Goaway
// and finish their in-flight streams, and in-flight HTTP requests run to
// completion (all bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	serr := s.shutdownStreams(ctx)
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			return err
		}
	}
	return serr
}

// ------------------------------------------------------------ admission --

// admit wraps a handler with the serving pipeline inside instrument:
// drain check, admission ticket, execution slot, deadline.
func (s *Server) admit(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Connection", "close")
			httpError(w, http.StatusServiceUnavailable, ErrCodeDraining, "draining")
			return
		}
		select {
		case s.tickets <- struct{}{}:
			defer func() { <-s.tickets }()
		default:
			// Saturated beyond the queue: shed at the door.
			s.met.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, ErrCodeQueueFull, "admission queue full")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.requestTimeout)
		defer cancel()
		select {
		case s.slots <- struct{}{}:
			defer func() { <-s.slots }()
		case <-ctx.Done():
			// Queued past the deadline: the client has likely given up.
			httpError(w, http.StatusServiceUnavailable, ErrCodeDeadlineExceeded, "queued past deadline")
			return
		}
		if s.holdForTest != nil {
			s.holdForTest()
		}
		h(w, r.WithContext(ctx))
	}
}

// instrument wraps one route's handler with request IDs, in-flight
// accounting, status capture, latency observation and a structured log
// line.
func (s *Server) instrument(path string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	requests := &routeCounters{set: &s.set, path: path}
	return func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("%x-%06d", s.start.UnixNano()&0xffffff, s.reqSeq.Add(1))
		w.Header().Set("X-Request-Id", id)
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(cw, r)
		dur := time.Since(start)
		requests.count(cw.code)
		s.met.latency.Observe(dur)
		// Per-request lines are Debug: at 10k+ decisions/sec an Info-level
		// access log costs more than the decisions. Asking first keeps the
		// arguments from being boxed when the line is not wanted: each
		// number above 255 would be an allocation, so the count would
		// follow the request's duration and size.
		if s.log.Enabled(r.Context(), slog.LevelDebug) {
			s.log.Debug("request",
				"id", id, "method", r.Method, "path", r.URL.Path,
				"status", cw.code, "bytes", cw.bytes,
				"dur_us", dur.Microseconds())
		}
	}
}

// codeWriter captures the response status and size for logs and metrics.
type codeWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// ------------------------------------------------------------- decide --

// DecideRequest is one decision query: which registered region, under
// which runtime bindings. Execute additionally dispatches the chosen
// target on the simulated platform and reports the executed time.
type DecideRequest struct {
	Region   string           `json:"region"`
	Bindings map[string]int64 `json:"bindings"`
	Execute  bool             `json:"execute,omitempty"`
}

// DecideResponse is the served /v1 decision — the frozen legacy shape
// (binary CPU/GPU verdict plus the base pair's predictions). Error is
// set (and the other fields zero) for per-item failures inside a batch.
type DecideResponse struct {
	Region         string  `json:"region"`
	Target         string  `json:"target,omitempty"`
	PredCPUSeconds float64 `json:"predCpuSeconds,omitempty"`
	PredGPUSeconds float64 `json:"predGpuSeconds,omitempty"`
	SplitFraction  float64 `json:"splitFraction,omitempty"`
	CacheHit       bool    `json:"cacheHit,omitempty"`
	ActualSeconds  float64 `json:"actualSeconds,omitempty"`
	DecisionNanos  int64   `json:"decisionNanos,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// DecideResponseV2 is the served /v2 decision: the ranked verdict over
// the full target registry. Verdict is the policy-chosen target's
// registry ID (top-1 of the constrained ranking; "split" for a
// cooperative split); Candidates every registered target ascending by
// calibrated predicted seconds, carrying both the raw model output
// (predSeconds) and the calibration-adjusted value the ranking used
// (calSeconds). Error is set for per-item failures inside a batch.
type DecideResponseV2 struct {
	Region string `json:"region"`
	// Verdict is the chosen target's registry ID; Kind its legacy
	// classification ("cpu"/"gpu"/"split").
	Verdict       string              `json:"verdict,omitempty"`
	Kind          string              `json:"kind,omitempty"`
	Policy        string              `json:"policy,omitempty"`
	Candidates    []offload.Candidate `json:"candidates,omitempty"`
	SplitFraction float64             `json:"splitFraction,omitempty"`
	CacheHit      bool                `json:"cacheHit,omitempty"`
	// Provenance records which correction stage produced the ranking:
	// "analytical" (models + EWMA calibration) or "learned" (a confident
	// learned residual correction).
	Provenance    string     `json:"provenance,omitempty"`
	ActualSeconds float64    `json:"actualSeconds,omitempty"`
	DecisionNanos int64      `json:"decisionNanos,omitempty"`
	Error         *ErrorInfo `json:"error,omitempty"`
}

// decideBody accepts both shapes: a single request object, or
// {"requests": [...]} for a batch.
type decideBody struct {
	DecideRequest
	Requests []DecideRequest `json:"requests"`
}

// batchResponse is the body of a batched /v1 decide call. Coalesced
// counts duplicate (region, bindings, execute) items served from one
// decision.
type batchResponse struct {
	Results   []DecideResponse `json:"results"`
	Coalesced int              `json:"coalesced"`
}

// BatchResponseV2 is the body of a batched /v2 decide call.
type BatchResponseV2 struct {
	Results   []DecideResponseV2 `json:"results"`
	Coalesced int                `json:"coalesced"`
}

// deprecated marks a frozen endpoint superseded by a /v2 successor:
// RFC 9745 Deprecation plus a successor-version Link. Headers only — the
// response body stays byte-identical for existing clients.
func (s *Server) deprecated(h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", `</v2/decide>; rel="successor-version"`)
		h(w, r)
	}
}

// parseDecide reads and decodes a decide body, writing the error
// response itself when the body is unusable.
func (s *Server) parseDecide(w http.ResponseWriter, r *http.Request) (*decideBody, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, "read body: "+err.Error())
		return nil, false
	}
	var req decideBody
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, ErrCodeBadRequest, "parse body: "+err.Error())
		return nil, false
	}
	if req.Requests != nil && len(req.Requests) > s.maxBatch {
		httpError(w, http.StatusRequestEntityTooLarge, ErrCodeBatchTooLarge,
			fmt.Sprintf("batch of %d exceeds limit %d", len(req.Requests), s.maxBatch))
		return nil, false
	}
	return &req, true
}

// handleDecideJSON is the JSON codec of the decide core: one body shape
// in, the /v1 or /v2 projection out. A single-object body surfaces its
// failure as the HTTP status; a batch answers 200 with per-item errors.
func (s *Server) handleDecideJSON(w http.ResponseWriter, r *http.Request, v2 bool) {
	req, ok := s.parseDecide(w, r)
	if !ok {
		return
	}
	if req.Requests == nil {
		it := jsonItem(&req.DecideRequest)
		var out offload.Outcome
		ei := decide(r.Context(), s.rt, &it, &out)
		switch {
		case ei != nil:
			httpError(w, ei.status, ei.Code, ei.Message)
		case v2:
			writeJSON(w, http.StatusOK, v2Response(req.Region, &out, nil))
		default:
			writeJSON(w, http.StatusOK, v1Response(req.Region, &out, nil))
		}
		return
	}
	var bs batchScratch
	ds, coalesced := bs.decide(r.Context(), s.rt, len(req.Requests),
		func(i int) item { return jsonItem(&req.Requests[i]) })
	if v2 {
		writeJSON(w, http.StatusOK, BatchResponseV2{Results: batchV2(req.Requests, ds), Coalesced: coalesced})
	} else {
		writeJSON(w, http.StatusOK, batchResponse{Results: batchV1(req.Requests, ds), Coalesced: coalesced})
	}
}

// handleDecideV2 is content negotiation: a Content-Type of
// wire.ContentType switches the whole exchange to the compact binary
// framing; anything else stays on the default JSON path. /v1 never
// negotiates.
func (s *Server) handleDecideV2(w http.ResponseWriter, r *http.Request) {
	if wire.IsFrameContent(r.Header.Get("Content-Type")) {
		s.handleDecideWire(w, r)
	} else {
		s.handleDecideJSON(w, r, true)
	}
}

// ------------------------------------------------------------- regions --

// RegionInfo is one entry of the /v1/regions listing.
type RegionInfo struct {
	Name   string   `json:"name"`
	Params []string `json:"params"`
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	names := s.rt.Regions()
	infos := make([]RegionInfo, 0, len(names))
	for _, name := range names {
		info := RegionInfo{Name: name}
		if ra, err := s.rt.DB().Get(name); err == nil {
			info.Params = ra.Params
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// ------------------------------------------------------------- targets --

// TargetInfo is one entry of the /v1/targets listing: a registered
// execution target as the ranking sees it, in registry (tie-break)
// order.
type TargetInfo struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Device names the underlying machine descriptor (CPU or GPU model
	// name); Threads is the OMP team size for CPU-kind targets.
	Device  string `json:"device,omitempty"`
	Threads int    `json:"threads,omitempty"`
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	reg := s.rt.Targets()
	infos := make([]TargetInfo, 0, reg.Len())
	for i := 0; i < reg.Len(); i++ {
		sp := reg.At(i)
		info := TargetInfo{ID: sp.ID, Kind: sp.Kind.String()}
		switch sp.Kind {
		case offload.KindCPU:
			info.Device = sp.CPU.Name
			info.Threads = sp.Threads
		case offload.KindGPU:
			info.Device = sp.GPU.Name
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// --------------------------------------------------------------- audit --

// handleAudit serves the shadow auditor's accuracy report: per-region
// mispredict counts, decision regret, signed log-error summaries and the
// live correction factors. 404 when the daemon runs without an auditor.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Auditor == nil {
		httpError(w, http.StatusNotFound, ErrCodeNotFound, "auditing disabled")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Auditor.Report())
}

// --------------------------------------------------------------- learn --

// handleLearn serves the residual learner's inspectable state: every
// per-(region, target) and global model's sample count, gate status and
// solved weights, plus the verdict counters. 404 when the daemon runs
// without a learner.
func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Learner == nil {
		httpError(w, http.StatusNotFound, ErrCodeNotFound, "learning disabled")
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.Learner.State())
}

// ------------------------------------------------------------- metrics --

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.set.Write(w) // a failed write is the scraper hanging up
}

// ------------------------------------------------------------- cluster --

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Cluster.Status())
}

// ------------------------------------------------------------- healthz --

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":        status,
		"regions":       len(s.rt.Regions()),
		"uptimeSeconds": int64(time.Since(s.start).Seconds()),
	})
}

// ------------------------------------------------------------- helpers --

// encodeBufs pools response-encoding buffers so the steady-state decide
// path does not allocate a fresh buffer (and its growth doublings) per
// response. Buffers that ballooned on a large response (a full region
// listing, a big batch) are dropped rather than pinned in the pool.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledEncodeBuf = 64 << 10

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := encodeBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Can only happen for unmarshalable values — a programming error,
		// but the non-2xx contract still holds: every error body is the
		// structured envelope, so route through httpError. If the value
		// that failed to encode was itself an envelope, emit a constant
		// one instead of recursing.
		encodeBufs.Put(buf)
		if _, isEnvelope := v.(ErrorEnvelope); isEnvelope {
			const body = `{"error":{"code":"internal","message":"response encoding failed"}}` + "\n"
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = io.WriteString(w, body)
			return
		}
		httpError(w, http.StatusInternalServerError, ErrCodeInternal,
			"response encoding failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Buffering the encode is what makes an exact Content-Length possible,
	// which keeps keep-alive connections reusable without chunked framing.
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledEncodeBuf {
		encodeBufs.Put(buf)
	}
}

func httpError(w http.ResponseWriter, status int, code, msg string) {
	ei := ErrorInfo{Code: code, Message: msg, RetryAfter: retryHint(w, status)}
	writeJSON(w, status, ErrorEnvelope{Error: ei})
}

// retryHint applies the transient-rejection Retry-After convention:
// sheds and unavailability (429/503) advertise when to come back, so
// well-behaved clients pace their retries instead of hammering an
// overloaded or draining instance. The hint rides in both the header
// and the body; the returned value mirrors the header verbatim as
// seconds, so a fractional hint like "0.5" set by a fault layer or
// sidecar survives into the envelope instead of being dropped by
// integer parsing (header and body must never disagree).
func retryHint(w http.ResponseWriter, status int) float64 {
	if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
		return 0
	}
	if w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	ra, err := strconv.ParseFloat(w.Header().Get("Retry-After"), 64)
	if err != nil || ra < 0 {
		return 0
	}
	return ra
}
