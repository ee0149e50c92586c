package hybridsel

// The serve benchmarks measure end-to-end decide throughput over a
// live server — request encode, admission, decision (cached steady
// state), response encode — across the transports: JSON and binary
// frames on /v2/decide (single and 64-item batched), the persistent
// multiplexed stream transport (single in-flight and 64 pipelined), and
// the cluster client over three daemons. TestAllocationBudgets holds each to its allocs/op; timing
// claims are made against bench/ (BENCHMARK.json). Decisions/s and
// per-request p50/p99 latencies ride along as custom metrics for the
// curious.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// serveBenchSizes gives each kernel a few distinct problem sizes, so
// the ring exercises the decision cache the way steady-state serving
// does (mostly hits across a working set, not one hot key).
var serveBenchSizes = []int64{256, 512, 1100, 2048}

func serveBenchServer(b *testing.B) (string, *http.Client) {
	b.Helper()
	rt := offload.NewRuntime(offload.Config{Platform: machine.PlatformP9V100()})
	for _, name := range decideKernels {
		k, err := polybench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Runtime: rt,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        8,
		MaxIdleConnsPerHost: 8,
	}}
	return ts.URL + "/v2/decide", client
}

// serveBenchRequests is the shared request ring: every kernel at every
// size, in order.
func serveBenchRequests() []server.DecideRequest {
	reqs := make([]server.DecideRequest, 0, len(decideKernels)*len(serveBenchSizes))
	for _, name := range decideKernels {
		for _, n := range serveBenchSizes {
			reqs = append(reqs, server.DecideRequest{
				Region: name, Bindings: map[string]int64{"n": n},
			})
		}
	}
	return reqs
}

func jsonSingleBodies(b *testing.B) [][]byte {
	reqs := serveBenchRequests()
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

func wireSingleBodies(b *testing.B) [][]byte {
	reqs := serveBenchRequests()
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		wr := wireBenchRequest(req)
		bodies[i] = wire.AppendRequest(nil, &wr)
	}
	return bodies
}

// wireBenchRequest uses the slot form: every decide kernel has the
// single parameter "n", so the hash is the daemon's own key convention.
func wireBenchRequest(req server.DecideRequest) wire.Request {
	return wire.Request{
		Region:   req.Region,
		SlotForm: true,
		KeyHash:  attrdb.BindingsHash(symbolic.Bindings(req.Bindings)),
		Values:   []int64{req.Bindings["n"]},
	}
}

const serveBenchBatch = 64

func jsonBatchBodies(b *testing.B) [][]byte {
	reqs := serveBenchRequests()
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		window := make([]server.DecideRequest, serveBenchBatch)
		for j := range window {
			window[j] = reqs[(i+j)%len(reqs)]
		}
		body, err := json.Marshal(struct {
			Requests []server.DecideRequest `json:"requests"`
		}{window})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

func wireBatchBodies(b *testing.B) [][]byte {
	reqs := serveBenchRequests()
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		window := make([]wire.Request, serveBenchBatch)
		for j := range window {
			window[j] = wireBenchRequest(reqs[(i+j)%len(reqs)])
		}
		bodies[i] = wire.AppendBatchRequest(nil, window)
	}
	return bodies
}

// runServeBench posts the body ring at the server back-to-back and
// reports decisions/s plus per-request p50/p99 latency. A binary batch's
// response is decoded with wire.DecodeFrame, as batch-cold's client does
// (bench/world.go); every other response is read and dropped.
func runServeBench(b *testing.B, client *http.Client, url, contentType string, bodies [][]byte, perCall int) {
	var resp *bytes.Buffer
	if contentType == wire.ContentType && perCall > 1 {
		resp = new(bytes.Buffer)
	}
	// Warm the decision cache and the connection pool off the clock.
	for i := 0; i < len(bodies); i++ {
		serveBenchPost(b, client, url, contentType, bodies[i], resp)
	}
	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		serveBenchPost(b, client, url, contentType, bodies[i%len(bodies)], resp)
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		b.ReportMetric(float64(lat[n/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lat[n*99/100].Nanoseconds()), "p99-ns")
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*perCall)/sec, "decisions/s")
	}
}

// serveBenchPost posts one body. With buf it decodes the response, a
// batch frame, from it; without, it drops the response.
func serveBenchPost(b *testing.B, client *http.Client, url, contentType string, body []byte, buf *bytes.Buffer) {
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if buf != nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d", resp.StatusCode)
	}
	if buf != nil {
		f, _, err := wire.DecodeFrame(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		if f.Type != wire.TypeBatchResponse || len(f.Resps) != serveBenchBatch {
			b.Fatalf("frame type %d with %d responses", f.Type, len(f.Resps))
		}
	}
}

// serveBenchStreamConn starts the same server with a raw stream
// listener and dials one persistent connection at it.
func serveBenchStreamConn(b *testing.B) *client.StreamConn {
	b.Helper()
	rt := offload.NewRuntime(offload.Config{Platform: machine.PlatformP9V100()})
	for _, name := range decideKernels {
		k, err := polybench.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Runtime: rt,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeStream(l)
	b.Cleanup(func() { l.Close() })
	sc, err := client.DialStream(client.StreamDialConfig{Addr: l.Addr().String()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sc.Close() })
	return sc
}

// runStreamBench drives the request ring over one stream connection,
// `window` decisions in flight at a time, and reports decisions/s plus
// per-decision p50/p99 latency.
func runStreamBench(b *testing.B, sc *client.StreamConn, window int) {
	reqs := serveBenchRequests()
	wrs := make([]wire.Request, len(reqs))
	for i, req := range reqs {
		wrs[i] = wireBenchRequest(req)
	}
	ctx := context.Background()
	decide := func(i int) time.Duration {
		start := time.Now()
		resp, err := sc.Decide(ctx, &wrs[i%len(wrs)])
		if err != nil {
			b.Fatal(err)
		}
		if resp.Err != nil {
			b.Fatalf("stream error: %s %s", resp.Err.Code, resp.Err.Message)
		}
		return time.Since(start)
	}
	// Warm the decision cache off the clock.
	for i := range wrs {
		decide(i)
	}
	lat := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	if window <= 1 {
		for i := 0; i < b.N; i++ {
			lat[i] = decide(i)
		}
	} else {
		var wg sync.WaitGroup
		for base := 0; base < b.N; base += window {
			n := min(window, b.N-base)
			wg.Add(n)
			for j := 0; j < n; j++ {
				go func(i int) {
					defer wg.Done()
					lat[i] = decide(i)
				}(base + j)
			}
			wg.Wait()
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		b.ReportMetric(float64(lat[n/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lat[n*99/100].Nanoseconds()), "p99-ns")
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "decisions/s")
	}
}

func BenchmarkServeJSONSingle(b *testing.B) {
	url, client := serveBenchServer(b)
	runServeBench(b, client, url, "application/json", jsonSingleBodies(b), 1)
}

func BenchmarkServeBinarySingle(b *testing.B) {
	url, client := serveBenchServer(b)
	runServeBench(b, client, url, wire.ContentType, wireSingleBodies(b), 1)
}

func BenchmarkServeJSONBatch64(b *testing.B) {
	url, client := serveBenchServer(b)
	runServeBench(b, client, url, "application/json", jsonBatchBodies(b), serveBenchBatch)
}

func BenchmarkServeBinaryBatch64(b *testing.B) {
	url, client := serveBenchServer(b)
	runServeBench(b, client, url, wire.ContentType, wireBatchBodies(b), serveBenchBatch)
}

// BenchmarkServeStreamSingle is one decision in flight over one
// persistent connection — the latency-bound view of the stream
// transport, directly comparable to BenchmarkServeJSONSingle.
func BenchmarkServeStreamSingle(b *testing.B) {
	runStreamBench(b, serveBenchStreamConn(b), 1)
}

// BenchmarkServeStreamPipelined64 keeps a full credit window (64
// streams) in flight on one connection — the throughput-bound view.
func BenchmarkServeStreamPipelined64(b *testing.B) {
	runStreamBench(b, serveBenchStreamConn(b), serveBenchBatch)
}

// BenchmarkServeCluster is BenchmarkServeJSONSingle's ring asked through
// client.NewCluster with production defaults over three in-process
// daemons: ring routing and the resilience loop on top of a decision
// served on the stream every replica endpoint upgrades to (bench/'s
// cluster3-json, without the gossip and the fallback runtime, so frames
// carry named bindings).
func BenchmarkServeCluster(b *testing.B) {
	var members []client.ClusterMember
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		url, _ := serveBenchServer(b)
		members = append(members, client.ClusterMember{ID: id, BaseURL: strings.TrimSuffix(url, "/v2/decide")})
	}
	cc, err := client.NewCluster(client.ClusterConfig{Members: members})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cc.Close)
	reqs := serveBenchRequests()
	decide := func(i int) {
		if _, err := cc.Decide(context.Background(), reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the decision caches and the connection pools off the clock.
	for i := range reqs {
		decide(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decide(i)
	}
}
