#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Every
# file it writes — the Go build cache and scratch space, the binary,
# results.json, the span files — goes under .bench_build at the root of
# that checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$build/hybridsel-bench" .) >&2
exec "$build/hybridsel-bench" "$@"
