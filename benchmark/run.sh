#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout, then hand the arguments to it. Everything the build writes
# (binary, Go build cache, temp files, toolchain config) stays under
# .bench_build/ so the run reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal/store ]; then
	echo "benchmark/run.sh: $PWD is not the repro module (no go.mod / internal/store): nothing to benchmark" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
