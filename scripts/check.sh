#!/bin/sh
# check.sh — the repo's verification gate: static checks, the full test
# suite (allocation budgets included; race detector on the concurrent
# packages), the paper's tables and figures against their committed
# transcript, a fuzz smoke, and daemon, N-way and cluster smokes.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== api surface gate =="
# The exported surface of the decision-facing packages is a contract:
# any drift from the committed snapshot fails here until the snapshot is
# regenerated (make api) and reviewed alongside the change.
go run ./cmd/apidump -check api/exported.txt

echo "== DESIGN.md size gate =="
# DESIGN.md may shrink but not grow: a change that adds a section pays for
# it by trimming another. Lower the ceiling whenever the file shrinks.
design_ceiling=1818
design_lines=$(wc -l <DESIGN.md)
if [ "$design_lines" -gt "$design_ceiling" ]; then
	echo "DESIGN.md has $design_lines lines, over its ceiling of $design_ceiling"
	exit 1
fi
echo "DESIGN.md: $design_lines lines (ceiling $design_ceiling)"

echo "== size: non-test lines per directory, exported surface, Config fields, flags =="
make -s loc

echo "== go test =="
go test ./...

echo "== paper artifacts =="
# Every table and figure at full fidelity, diffed against the committed
# transcript (internal/experiments/testdata/offloadsim_all.txt).
make -s paper-check

echo "== go test -race (concurrent packages) =="
# The package and -count=20 lists live in the Makefile, once.
make -s race

echo "== fuzz smoke (10s per parser) =="
# Short randomized runs on top of the checked-in seed corpora.
make -s fuzz

echo "== daemon smoke: serve, decide, scrape, drain =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/hybridseld" ./cmd/hybridseld
go build -o "$tmp/loadgen" ./cmd/loadgen
addr=127.0.0.1:18927
pprof_addr=127.0.0.1:18928
stream_addr=127.0.0.1:18929
"$tmp/hybridseld" -addr "$addr" -regions gemm,mvt1,2dconv \
	-stream-addr "$stream_addr" \
	-trace "$tmp/decisions.jsonl" -pprof-addr "$pprof_addr" \
	-audit-rate 1 -audit-workers 2 \
	-learn -learn-out "$tmp/learner.json" 2>"$tmp/daemon.log" &
daemon=$!
# Exercise the full service path: wait for /healthz, push a short mixed
# load, assert a conservative throughput floor (CI machines vary; the
# acceptance bar of 10k/s is checked on dedicated hardware), and scrape
# /metrics through loadgen.
if ! "$tmp/loadgen" -addr "http://$addr" -wait 10s -duration 2s \
	-concurrency 4 -kernels gemm,mvt1,2dconv -mode test \
	-min-throughput 500 -scrape; then
	echo "daemon smoke: loadgen failed; daemon log:"
	cat "$tmp/daemon.log"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
# Same daemon, binary frames: loadgen speaks the wire format on
# /v2/decide (slot-form requests, batched), proving content negotiation
# end to end against a real process rather than httptest.
if ! "$tmp/loadgen" -addr "http://$addr" -wire binary -duration 2s \
	-concurrency 4 -batch 16 -kernels gemm,mvt1,2dconv -mode test \
	-min-throughput 500 -scrape=false; then
	echo "daemon smoke: binary-mode loadgen failed; daemon log:"
	cat "$tmp/daemon.log"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "daemon smoke: binary frames served on /v2/decide"
# Same daemon again over the persistent stream transport: loadgen
# pipelines decide frames over long-lived connections dialed raw at
# -stream-addr, proving the stream listener end to end.
if ! "$tmp/loadgen" -addr "http://$addr" -stream-addr "$stream_addr" \
	-wire stream -duration 2s -concurrency 4 -batch 8 \
	-kernels gemm,mvt1,2dconv -mode test \
	-min-throughput 500 -scrape=false; then
	echo "daemon smoke: stream-mode loadgen failed; daemon log:"
	cat "$tmp/daemon.log"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "daemon smoke: stream transport served on $stream_addr"
# Pipelined responses must share writes in a real multi-P daemon too, not
# only on the benchmark's one P: fewer write syscalls than requests.
stream_counts=$(curl -s "http://$addr/metrics" | awk '
	/^hybridsel_stream_writes_total /   { w = $2 }
	/^hybridsel_stream_requests_total / { r = $2 }
	END { print w + 0, r + 0 }')
if ! echo "$stream_counts" | awk '{ exit !($2 > 0 && $1 < $2) }'; then
	echo "daemon smoke: stream writes/requests = $stream_counts, want writes < requests"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "daemon smoke: stream responses coalesced ($stream_counts writes/requests)"
# The shadow auditor must have sampled the served decisions: scrape the
# accuracy gauges off /metrics (retrying briefly — audits run on
# background workers and may land just after the load stops).
audited=0
for _ in 1 2 3 4 5 6 7 8 9 10; do
	audited=$(curl -s "http://$addr/metrics" \
		| awk '/^hybridsel_audit_samples_total/ { print $2 }')
	[ "${audited:-0}" -gt 0 ] && break
	sleep 0.5
done
if ! [ "${audited:-0}" -gt 0 ]; then
	echo "daemon smoke: no audit samples on /metrics; daemon log:"
	cat "$tmp/daemon.log"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
metrics=$(curl -s "http://$addr/metrics")
for series in hybridsel_mispredict_total \
	hybridsel_audit_regret_seconds_total hybridsel_correction_factor \
	hybridsel_learner_samples_total hybridsel_learner_verdicts_total \
	hybridsel_learner_region_models hybridsel_learner_confident_models; do
	if ! printf '%s\n' "$metrics" | grep -q "^$series"; then
		echo "daemon smoke: /metrics missing $series"
		kill "$daemon" 2>/dev/null || true
		exit 1
	fi
done
echo "daemon smoke: $audited decisions shadow-audited"
# The residual learner trained from those audits and serves its state.
if ! curl -s "http://$addr/v1/learn" | grep -q '"minSamples"'; then
	echo "daemon smoke: /v1/learn not serving learner state"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "daemon smoke: learner state live on /v1/learn"
# The profiling listener is separate from the decision port and live.
if ! curl -sf "http://$pprof_addr/debug/pprof/" >/dev/null; then
	echo "daemon smoke: pprof listener not serving"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
if curl -sf "http://$addr/debug/pprof/" >/dev/null; then
	echo "daemon smoke: pprof handlers leaked onto the decision port"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "daemon smoke: pprof isolated on $pprof_addr"
# Chaos smoke: the resilient client drives the same daemon through a
# scripted ~30% fault regime. loadgen exits non-zero unless every call
# completed with a verdict (remote or fallback) — the
# acceptance bar for the fault-injection harness.
if ! "$tmp/loadgen" -addr "http://$addr" -client -faults faults30 \
	-duration 3s -concurrency 4 -kernels gemm,mvt1,2dconv -mode test \
	-scrape=false; then
	echo "chaos smoke: loadgen did not complete 100% under faults; daemon log:"
	cat "$tmp/daemon.log"
	kill "$daemon" 2>/dev/null || true
	exit 1
fi
echo "chaos smoke: 100% completion under faults30"
# Graceful drain: SIGTERM must flush the trace and exit 0.
kill -TERM "$daemon"
if ! wait "$daemon"; then
	echo "daemon smoke: daemon did not drain cleanly; log:"
	cat "$tmp/daemon.log"
	exit 1
fi
if ! [ -s "$tmp/decisions.jsonl" ]; then
	echo "daemon smoke: no trace recorded"
	exit 1
fi
if ! [ -s "$tmp/learner.json" ]; then
	echo "daemon smoke: no learner snapshot written on drain"
	exit 1
fi
echo "daemon smoke: ok ($(wc -l < "$tmp/decisions.jsonl") decisions traced)"

echo "== N-way smoke: a four-target registry listed, ranked, drained =="
# Every other smoke serves the classic pair. This daemon serves the
# synthetic registry (cpu/base, gpu/base, gpu/prev, cpu/smt2): /v1/targets
# must list all four and a /v2/decide must rank all four.
nway_addr=127.0.0.1:18930
"$tmp/hybridseld" -addr "$nway_addr" -targets synthetic -regions gemm 2>"$tmp/nway.log" &
nway=$!
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
	curl -sf "http://$nway_addr/healthz" >/dev/null && break
	sleep 0.25
done
ntargets=$(curl -s "http://$nway_addr/v1/targets" | grep -o '"id":' | wc -l)
ncands=$(curl -s "http://$nway_addr/v2/decide" -d '{"region":"gemm","bindings":{"n":1100}}' \
	| grep -o '"target":' | wc -l)
if [ "$ntargets" -ne 4 ] || [ "$ncands" -ne 4 ]; then
	echo "N-way smoke: /v1/targets lists $ntargets IDs, /v2/decide ranks $ncands candidates, want 4 and 4; log:"
	cat "$tmp/nway.log"
	kill "$nway" 2>/dev/null || true
	exit 1
fi
kill -TERM "$nway"
if ! wait "$nway"; then
	echo "N-way smoke: daemon did not drain cleanly; log:"
	cat "$tmp/nway.log"
	exit 1
fi
echo "N-way smoke: 4 targets listed, 4 candidates ranked, drained"

echo "== explain smoke: every target ranked and broken down, a decision, with and without a launch =="
# cmd/explain reads its speedup line off the ranking it prints; each run
# must exit 0, rank every registered target, print each one's model
# breakdown (Region.Terms) and print the decision.
go build -o "$tmp/explain" ./cmd/explain
explain_smoke() { # targets wanted, then explain's flags
	want=$1
	shift
	if ! "$tmp/explain" "$@" >"$tmp/explain.out" 2>&1; then
		echo "explain smoke: explain $* failed:"
		cat "$tmp/explain.out"
		exit 1
	fi
	ranked=$(sed -n '/^=== Target ranking/,/^$/p' "$tmp/explain.out" | grep -cE '^ +(-> )?[0-9]+\. ' || true)
	priced=$(grep -cE '^(CPU|GPU) model prediction:' "$tmp/explain.out" || true)
	if [ "$ranked" -ne "$want" ] || [ "$priced" -ne "$want" ] || ! grep -q '^=== Decision' "$tmp/explain.out"; then
		echo "explain smoke: explain $* ranked $ranked targets and broke down $priced, want $want of each and a decision:"
		cat "$tmp/explain.out"
		exit 1
	fi
}
explain_smoke 4 -kernel gemm -n 256 -targets synthetic
explain_smoke 2 -kernel 2dconv -n 256 -platform p8k80 -launch=false
echo "explain smoke: 4 and 2 targets ranked and broken down, both decided"

echo "== cluster smoke: 3-replica ring, mid-run kill, 100% completion =="
# Three real daemons form a gossip ring; loadgen drives the cluster
# client across them while one replica is SIGKILLed mid-run. The bar:
# every call completes with a verdict (the killed replica's keys fail
# over to their ring successor), node-a's /metrics (with the
# hybridsel_cluster_ series) lints clean, the survivors' /v1/cluster
# must report the dead peer, and the calibration and learner state every
# replica's audits train reaches its peers.
ca=127.0.0.1:18931; cb=127.0.0.1:18932; cc=127.0.0.1:18933
ga=127.0.0.1:18941; gb=127.0.0.1:18942; gc=127.0.0.1:18943
replica="-regions gemm,mvt1,2dconv -gossip-interval 100ms -audit-rate 1 -audit-workers 1 -learn"
"$tmp/hybridseld" -addr "$ca" $replica -node node-a -gossip-addr "$ga" \
	-peers "node-b=http://$gb,node-c=http://$gc" 2>"$tmp/node-a.log" &
node_a=$!
"$tmp/hybridseld" -addr "$cb" $replica -node node-b -gossip-addr "$gb" \
	-peers "node-a=http://$ga,node-c=http://$gc" 2>"$tmp/node-b.log" &
node_b=$!
"$tmp/hybridseld" -addr "$cc" $replica -node node-c -gossip-addr "$gc" \
	-peers "node-a=http://$ga,node-b=http://$gb" 2>"$tmp/node-c.log" &
node_c=$!
( sleep 2; kill -9 "$node_c" 2>/dev/null ) &
killer=$!
if ! "$tmp/loadgen" -addr "http://$ca" -wait 10s \
	-cluster "node-a=http://$ca,node-b=http://$cb,node-c=http://$cc" \
	-duration 5s -concurrency 4 -kernels gemm,mvt1,2dconv -mode test \
	-scrape >"$tmp/cluster.out"; then
	cat "$tmp/cluster.out"
	echo "cluster smoke: loadgen lost verdicts or node-a served a malformed /metrics; logs:"
	cat "$tmp/node-a.log" "$tmp/node-b.log" "$tmp/node-c.log"
	kill "$node_a" "$node_b" "$node_c" 2>/dev/null || true
	exit 1
fi
cat "$tmp/cluster.out"
wait "$killer" 2>/dev/null || true
# Walk before you wait: the killed replica's keys cost one failed attempt
# and a step to the successor, never a backoff sleep on the dead node. In
# loadgen's cluster report that is failovers > 0 and "0 retries" on each
# of the three replica lines.
if ! awk '
	$1 == "cluster" && $5 == "failovers," { failovers = $4 }
	$3 == "retries," { replicas++; retries += $2 }
	END { exit !(failovers > 0 && replicas == 3 && retries == 0) }' "$tmp/cluster.out"; then
	echo "cluster smoke: want failovers > 0 and 0 retries on all three replicas"
	kill "$node_a" "$node_b" 2>/dev/null || true
	exit 1
fi
# The cluster rides the stream: every replica endpoint upgraded, so the
# stream carried decisions and granted leases that served repeats (the kill
# pushes some onto HTTP, none onto the fallback runtime), and loadgen's
# per-transport tally accounts for every decision it attempted.
if ! awk '
	$1 == "decisions" && match($0, /\[[^]]*\]/) {
		total = $2
		n = split(substr($0, RSTART + 1, RLENGTH - 2), parts, ", ")
		for (i = 1; i <= n; i++) { split(parts[i], kv, " "); by[kv[1]] = kv[2]; sum += kv[2] }
	}
	/incomplete/ { incomplete = 1 }
	END { exit !(by["stream"] > 0 && by["lease"] > 0 && by["local"] == 0 && sum == total && !incomplete) }' "$tmp/cluster.out"; then
	echo "cluster smoke: want decisions on the stream and from leases, none from the fallback, and a tally that sums to 100%"
	kill "$node_a" "$node_b" 2>/dev/null || true
	exit 1
fi
# Replicated state: node-b's audits moved its calibration and learner
# states, so node-a must hold both at a version > 0 and have merged
# gossiped states into its own.
replicated=""
for _ in 1 2 3 4 5 6 7 8 9 10; do
	curl -s "http://$ca/v1/cluster" >"$tmp/cluster.json"
	row=$(grep -o '"id":"node-b"[^}]*}' "$tmp/cluster.json" || true)
	states="calibration $(printf '%s' "$row" | sed -n 's/.*"calibration":\([0-9]*\).*/\1/p')"
	states="$states learner $(printf '%s' "$row" | sed -n 's/.*"learner":\([0-9]*\).*/\1/p')"
	states="$states applied $(sed -n 's/.*"gossipStatesApplied":\([0-9]*\).*/\1/p' "$tmp/cluster.json")"
	if echo "$states" | awk '{ exit !($2 > 0 && $4 > 0 && $6 > 0) }'; then
		replicated=1
		break
	fi
	sleep 0.5
done
if [ -z "$replicated" ]; then
	echo "cluster smoke: node-a's view of node-b's state versions and its merges: $states, want all > 0:"
	cat "$tmp/cluster.json"
	kill "$node_a" "$node_b" 2>/dev/null || true
	exit 1
fi
echo "cluster smoke: replicated state on node-a ($states)"
# The survivors' gossip must have declared the killed replica dead.
dead=""
for _ in 1 2 3 4 5 6 7 8 9 10; do
	dead=$(curl -s "http://$ca/v1/cluster" \
		| grep -o '"id":"node-c"[^}]*"health":"dead"' || true)
	[ -n "$dead" ] && break
	sleep 0.5
done
if [ -z "$dead" ]; then
	echo "cluster smoke: node-a never saw node-c dead on /v1/cluster:"
	curl -s "http://$ca/v1/cluster"; echo
	kill "$node_a" "$node_b" 2>/dev/null || true
	exit 1
fi
if ! curl -s "http://$ca/metrics" | grep -q '^hybridsel_cluster_members{health="dead"} 1'; then
	echo "cluster smoke: /metrics not reporting the dead member"
	kill "$node_a" "$node_b" 2>/dev/null || true
	exit 1
fi
kill -TERM "$node_a" "$node_b"
wait "$node_a" "$node_b" || {
	echo "cluster smoke: surviving replicas did not drain cleanly"
	exit 1
}
echo "cluster smoke: 100% completion with node-c killed mid-run"

echo "OK"
