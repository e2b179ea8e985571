#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, with the
# Go build cache, the binary and the traced run's outputs (spans, CPU
# profile) all under .bench_build/. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-24h --seed 1 --seconds 40 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME keeps the go command's own state (telemetry counters)
# inside the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/out" "$@"
