package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// httpLatencyBuckets are the request-latency histogram bounds. Decisions
// are sub-millisecond on the cached path; executes and queueing push the
// tail out.
var httpLatencyBuckets = [...]time.Duration{
	100 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// serverMetrics is the HTTP layer's own instrumentation, alongside the
// runtime's Metrics.
type serverMetrics struct {
	inflight atomic.Int64
	shed     atomic.Uint64

	// Stream transport plane.
	streamConns     atomic.Int64  // active stream connections
	streamInflight  atomic.Int64  // streams dispatched, not yet answered
	streamRequests  atomic.Uint64 // stream request frames received
	streamSheds     atomic.Uint64 // of those, refused unadmitted: over the window, or past a Goaway
	streamWrites    atomic.Uint64 // write syscalls on stream conns
	streamCoalesced atomic.Uint64 // response frames that rode a shared write

	mu       sync.Mutex
	requests map[string]uint64 // "path\x00code" -> count

	buckets  [len(httpLatencyBuckets) + 1]atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Uint64
}

func (m *serverMetrics) observe(path string, code int, d time.Duration) {
	m.mu.Lock()
	if m.requests == nil {
		m.requests = map[string]uint64{}
	}
	m.requests[path+"\x00"+strconv.Itoa(code)]++
	m.mu.Unlock()

	if d < 0 {
		d = 0
	}
	i := 0
	for ; i < len(httpLatencyBuckets); i++ {
		if d <= httpLatencyBuckets[i] {
			break
		}
	}
	m.buckets[i].Add(1)
	m.count.Add(1)
	m.sumNanos.Add(uint64(d))
}

// write renders the server-level series in Prometheus text format,
// appended after the runtime's exposition.
func (m *serverMetrics) write(w io.Writer, s *Server) {
	fmt.Fprintf(w, "# HELP hybridseld_http_requests_total Served HTTP requests by path and status.\n")
	fmt.Fprintf(w, "# TYPE hybridseld_http_requests_total counter\n")
	m.mu.Lock()
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := m.requests[k]
		var path, code string
		for i := 0; i < len(k); i++ {
			if k[i] == 0 {
				path, code = k[:i], k[i+1:]
				break
			}
		}
		fmt.Fprintf(w, "hybridseld_http_requests_total{path=%q,code=%q} %d\n", path, code, n)
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP hybridseld_shed_total Requests shed with 429 (admission queue full).\n")
	fmt.Fprintf(w, "# TYPE hybridseld_shed_total counter\nhybridseld_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(w, "# HELP hybridseld_inflight_requests In-flight HTTP requests.\n")
	fmt.Fprintf(w, "# TYPE hybridseld_inflight_requests gauge\nhybridseld_inflight_requests %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# HELP hybridseld_admission_queue_used Admission tickets in use.\n")
	fmt.Fprintf(w, "# TYPE hybridseld_admission_queue_used gauge\nhybridseld_admission_queue_used %d\n", len(s.tickets))
	fmt.Fprintf(w, "# HELP hybridseld_admission_queue_capacity Admission ticket capacity (concurrency + queue depth).\n")
	fmt.Fprintf(w, "# TYPE hybridseld_admission_queue_capacity gauge\nhybridseld_admission_queue_capacity %d\n", cap(s.tickets))
	fmt.Fprintf(w, "# HELP hybridsel_stream_connections Active stream-transport connections.\n")
	fmt.Fprintf(w, "# TYPE hybridsel_stream_connections gauge\nhybridsel_stream_connections %d\n", m.streamConns.Load())
	fmt.Fprintf(w, "# HELP hybridsel_stream_inflight Stream requests dispatched but not yet answered.\n")
	fmt.Fprintf(w, "# TYPE hybridsel_stream_inflight gauge\nhybridsel_stream_inflight %d\n", m.streamInflight.Load())
	fmt.Fprintf(w, "# HELP hybridsel_stream_requests_total Stream request frames received.\n")
	fmt.Fprintf(w, "# TYPE hybridsel_stream_requests_total counter\nhybridsel_stream_requests_total %d\n", m.streamRequests.Load())
	fmt.Fprintf(w, "# HELP hybridsel_stream_sheds_total Stream requests refused without dispatch (queue_full over the credit window, draining after Goaway).\n")
	fmt.Fprintf(w, "# TYPE hybridsel_stream_sheds_total counter\nhybridsel_stream_sheds_total %d\n", m.streamSheds.Load())
	fmt.Fprintf(w, "# HELP hybridsel_stream_writes_total Write syscalls on stream connections.\n")
	fmt.Fprintf(w, "# TYPE hybridsel_stream_writes_total counter\nhybridsel_stream_writes_total %d\n", m.streamWrites.Load())
	fmt.Fprintf(w, "# HELP hybridsel_stream_coalesced_total Response frames that shared a coalesced write.\n")
	fmt.Fprintf(w, "# TYPE hybridsel_stream_coalesced_total counter\nhybridsel_stream_coalesced_total %d\n", m.streamCoalesced.Load())
	fmt.Fprintf(w, "# HELP hybridseld_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(w, "# TYPE hybridseld_uptime_seconds gauge\nhybridseld_uptime_seconds %d\n", int64(time.Since(s.start).Seconds()))

	fmt.Fprintf(w, "# HELP hybridseld_http_request_seconds HTTP request latency.\n")
	fmt.Fprintf(w, "# TYPE hybridseld_http_request_seconds histogram\n")
	var cum uint64
	for i := range m.buckets {
		cum += m.buckets[i].Load()
		le := "+Inf"
		if i < len(httpLatencyBuckets) {
			le = strconv.FormatFloat(httpLatencyBuckets[i].Seconds(), 'g', -1, 64)
		}
		fmt.Fprintf(w, "hybridseld_http_request_seconds_bucket{le=%q} %d\n", le, cum)
	}
	fmt.Fprintf(w, "hybridseld_http_request_seconds_sum %s\n",
		strconv.FormatFloat(float64(m.sumNanos.Load())/1e9, 'g', -1, 64))
	fmt.Fprintf(w, "hybridseld_http_request_seconds_count %d\n", m.count.Load())
}
