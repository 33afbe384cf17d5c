#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it, keeping everything the Go toolchain writes (build cache, link
# scratch, the binary) under .bench_build in the checkout it is run from.
# Arguments are passed through, e.g.
#   bash benchmark/run.sh --workload des-shared --seed 1 --seconds 18 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/multicube-benchmark" ./benchmark
exec "$build/multicube-benchmark" "$@"
