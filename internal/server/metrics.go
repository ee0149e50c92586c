package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/metrics"
)

// serverMetrics is the serving layer's own instrumentation, alongside
// the runtime's.
type serverMetrics struct {
	inflight metrics.Gauge
	shed     metrics.Counter
	latency  metrics.Histogram

	// Stream transport plane.
	streamConns     metrics.Gauge   // active stream connections
	streamInflight  metrics.Gauge   // streams dispatched, not yet answered
	streamRequests  metrics.Counter // stream request frames received
	streamSheds     metrics.Counter // of those, refused unadmitted: over the window, or past a Goaway
	streamWrites    metrics.Counter // write syscalls on stream conns
	streamCoalesced metrics.Counter // response frames that rode a shared write
}

// streamWrote counts one write of a stream connection carrying frames
// frames, before it is made: whoever holds a response can rely on the count.
func (m *serverMetrics) streamWrote(frames int) {
	m.streamWrites.Add(1)
	if frames > 1 {
		m.streamCoalesced.Add(uint64(frames - 1))
	}
}

// register declares the server-level series on the server's set.
func (m *serverMetrics) register(s *Server) {
	set := &s.set
	set.Counter("hybridseld_shed_total", "Requests shed with 429 (admission queue full).", &m.shed)
	set.Gauge("hybridseld_inflight_requests", "In-flight HTTP requests.", &m.inflight)
	set.GaugeFunc("hybridseld_admission_queue_used", "Admission tickets in use.",
		func() float64 { return float64(len(s.tickets)) })
	set.GaugeFunc("hybridseld_admission_queue_capacity", "Admission ticket capacity (concurrency + queue depth).",
		func() float64 { return float64(cap(s.tickets)) })
	set.Gauge("hybridsel_stream_connections", "Active stream-transport connections.", &m.streamConns)
	set.Gauge("hybridsel_stream_inflight", "Stream requests dispatched but not yet answered.", &m.streamInflight)
	set.Counter("hybridsel_stream_requests_total", "Stream request frames received.", &m.streamRequests)
	set.Counter("hybridsel_stream_sheds_total", "Stream requests refused without dispatch (queue_full over the credit window, draining after Goaway).", &m.streamSheds)
	set.Counter("hybridsel_stream_writes_total", "Write syscalls on stream connections.", &m.streamWrites)
	set.Counter("hybridsel_stream_coalesced_total", "Response frames that shared a coalesced write.", &m.streamCoalesced)
	set.GaugeFunc("hybridseld_uptime_seconds", "Seconds since the server started.",
		func() float64 { return float64(int64(time.Since(s.start).Seconds())) })
	set.Histogram("hybridseld_http_request_seconds", "HTTP request latency.", &m.latency)
}

// routeCounters resolves one route's hybridseld_http_requests_total
// children. instrument wraps each route once, so the path label is fixed
// here and a child is looked up by status code alone: an atomic load per
// request, a registration the first time the route answers with that code.
type routeCounters struct {
	set    *metrics.Set
	path   string
	byCode [600]atomic.Pointer[metrics.Counter] // index 0 holds any code outside 1..599
}

func (rc *routeCounters) count(code int) {
	if code <= 0 || code >= len(rc.byCode) {
		code = 0
	}
	c := rc.byCode[code].Load()
	if c == nil {
		c = new(metrics.Counter)
		if rc.byCode[code].CompareAndSwap(nil, c) {
			rc.set.Counter("hybridseld_http_requests_total", "Served HTTP requests by path and status.",
				c, "path", rc.path, "code", strconv.Itoa(code))
		} else {
			c = rc.byCode[code].Load()
		}
	}
	c.Add(1)
}
