#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. BENCHMARK.json
# names this script; every argument goes to the program:
#
#   bash benchmark/run.sh --workload sync-storm --seed 1 --seconds 12 --trace 0
#
# The binary and the Go build cache live in .bench_build/ so that nothing
# outside the checkout is written. `go run ./benchmark` works as well.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache"
go build -buildvcs=false -o "$build/tshmem-benchmark" ./benchmark
exec "$build/tshmem-benchmark" "$@"
