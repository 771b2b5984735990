#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fastpath --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout; the build needs no network.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
