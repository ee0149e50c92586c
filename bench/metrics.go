package main

// def describes one metric the benchmark reports. BENCHMARK.json carries
// name, unit, better and (end-to-end only) bound; bench_test.go holds the
// two in step.
type def struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end: share of the parent's median the metric may worsen by
	// moves says which end-to-end metric, on which workload, the layer
	// metric should move; anything not listed is predicted not to move.
	moves string
}

// endToEnd is what a user of the served selector sees, per workload.
// Times are reference time (clock.go) over a repetition's quiet windows
// (measure.go). The counted metrics keep the bounds the issue asked for;
// the timed ones get the widest the contract allows, because on the
// shared 2-core box this was written on their quartile spread over ten
// seeds reaches 10% and a bound should be three times that (README.md,
// "Spread").
var endToEnd = []def{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "decisions_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "latency_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "cpu_us_per_decision", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_decision", unit: "1", better: "lower", bound: 0.02},
	{name: "alloc_bytes_per_decision", unit: "B", better: "lower", bound: 0.05},
	// correct_share is 1 - failed_share. The driver's contract wants
	// metrics that are never 0 and bounds that are shares, so the issue's
	// "failed_share may rise by 0.001 absolute" is stated on its
	// complement; failed_share itself is printed beside it.
	{name: "correct_share", unit: "ratio", better: "higher", bound: 0.001},
}

const (
	movesWire     = "latency_p50_us + allocs_per_decision on stream-single-hot; cpu_us_per_decision on stream-pipelined-hot and batch-cold"
	movesHit      = "at most 3% of latency_p50_us on stream-single-hot (the bypass)"
	movesMiss     = "latency_p50_us on stream-single-miss"
	movesEvict    = "decisions_per_s + cpu_us_per_decision on batch-cold"
	movesLearn    = "decisions_per_s on batch-cold only"
	movesClient   = "latency_p50_us + allocs_per_decision on cluster3-json"
	movesFailed   = "correct_share (failed_share)"
	movesCluster  = "latency_p50_us + cpu_us_per_decision on cluster3-json only"
	movesResidual = "the handoffs and locks inside server and client that only in-process stage timers can split"
)

// perLayer is the ladder: one or more figures per module, taken from
// the benchmark's side of the module's public functions and counters.
// A figure for a rung the workload does not climb reads 0.
var perLayer = []def{
	{name: "wire.encode_request_ns", unit: "ns", better: "lower", moves: movesWire},
	{name: "wire.decode_request_ns", unit: "ns", better: "lower", moves: movesWire},
	{name: "wire.encode_response_ns", unit: "ns", better: "lower", moves: movesWire},
	{name: "wire.decode_response_ns", unit: "ns", better: "lower", moves: movesWire},
	{name: "wire.request_bytes", unit: "B", better: "lower", moves: movesWire},
	{name: "wire.response_bytes", unit: "B", better: "lower", moves: movesWire},
	{name: "wire.allocs_per_roundtrip", unit: "1", better: "lower", moves: movesWire},

	{name: "offload.region_lookup_ns", unit: "ns", better: "lower", moves: movesHit},
	{name: "offload.key_hash_ns", unit: "ns", better: "lower", moves: movesHit},
	{name: "offload.decide_hit_ns", unit: "ns", better: "lower", moves: movesHit},
	{name: "offload.decide_miss_ns", unit: "ns", better: "lower", moves: movesMiss},
	{name: "offload.decide_miss_evict_ns", unit: "ns", better: "lower", moves: movesEvict},
	{name: "offload.invalidate_ns", unit: "ns", better: "lower", moves: "cpu_us_per_decision on stream-single-miss"},
	{name: "offload.register_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
	{name: "offload.allocs_per_hit", unit: "1", better: "lower", moves: "allocs_per_decision on the hot workloads"},
	{name: "offload.allocs_per_miss", unit: "1", better: "lower", moves: "allocs_per_decision on stream-single-miss and batch-cold"},
	{name: "offload.cache_hit_share", unit: "ratio", better: "higher", moves: "fixed by the workload: 1 on the hot ones, 0 on stream-single-miss and batch-cold"},
	{name: "offload.evictions_per_decision", unit: "1", better: "lower", moves: movesEvict},
	{name: "offload.compiled_evals_per_decision", unit: "1", better: "lower", moves: movesEvict},

	{name: "learn.correct_ns", unit: "ns", better: "lower", moves: movesLearn},
	{name: "learn.learned_share", unit: "ratio", better: "higher", moves: "fixed by the workload: 1 on batch-cold"},

	{name: "server.handler_batch64_self_ns", unit: "ns", better: "lower", moves: "cpu_us_per_decision on batch-cold"},
	{name: "server.handler_json_self_ns", unit: "ns", better: "lower", moves: "latency_p50_us on cluster3-json"},
	{name: "server.stream_writes_per_decision", unit: "1", better: "lower", moves: "decisions_per_s on stream-pipelined-hot (1.0 on stream-single-hot by construction)"},
	{name: "server.stream_sheds", unit: "count", better: "lower", moves: movesFailed},
	{name: "server.http_sheds", unit: "count", better: "lower", moves: movesFailed},

	{name: "client.latency_p99_us", unit: "us", better: "lower", moves: "the tail past latency_p90_us; too noisy here to gate"},
	{name: "client.latency_p999_us", unit: "us", better: "lower", moves: "the tail past latency_p90_us; too noisy here to gate"},
	{name: "client.json_encode_request_ns", unit: "ns", better: "lower", moves: movesClient},
	{name: "client.json_decode_response_ns", unit: "ns", better: "lower", moves: movesClient},
	{name: "client.ladder_overhead_us", unit: "us", better: "lower", moves: movesClient},
	{name: "client.retries_per_decision", unit: "1", better: "lower", moves: movesFailed},
	{name: "client.hedge_share", unit: "ratio", better: "lower", moves: movesClient},
	{name: "client.transport_errors_per_decision", unit: "1", better: "lower", moves: movesFailed},
	{name: "client.fallback_share", unit: "ratio", better: "lower", moves: movesFailed},

	{name: "cluster.route_ns", unit: "ns", better: "lower", moves: movesCluster},
	{name: "cluster.ring_owner_ns", unit: "ns", better: "lower", moves: movesCluster},
	{name: "cluster.overhead_us", unit: "us", better: "lower", moves: movesCluster},
	{name: "cluster.hedge_share", unit: "ratio", better: "lower", moves: movesCluster},
	{name: "cluster.failover_share", unit: "ratio", better: "lower", moves: movesCluster},
	{name: "cluster.owner_imbalance", unit: "ratio", better: "lower", moves: movesCluster},
	{name: "cluster.gossip_tick_us", unit: "us", better: "lower", moves: movesCluster},
	{name: "cluster.gossip_exchanges_per_s", unit: "1/s", better: "lower", moves: movesCluster},

	{name: "trace.layer_sum_us", unit: "us", better: "lower", moves: "latency_p50_us, rung by rung"},
	{name: "trace.loopback_floor_us", unit: "us", better: "lower", moves: "nothing in the program: the kernel's share of latency_p50_us"},
	{name: "trace.residual_us", unit: "us", better: "lower", moves: movesResidual},
	{name: "trace.residual_share", unit: "ratio", better: "lower", moves: movesResidual},
	{name: "trace.overhead_share", unit: "ratio", better: "lower", moves: "nothing: traced root p50 over the untraced p50 of every call, minus 1"},
}
