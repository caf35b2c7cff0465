#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout's sources and runs it.
# Usage (from the checkout root):
#   bash perfbench/run.sh --workload repair-sweep --seed 1 --seconds 10 --trace 0
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# Build cache, module path, temporary files and the go tool's own
# config (telemetry counters) all go under $out.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
