#!/bin/bash
# Build the benchmark from source inside the checkout and run it.
# Usage (from the repository root): bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Same as `go run ./bench`, except that the binary and the Go build
# cache stay in .bench_build/, so nothing outside the checkout is
# written.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/gpbft-benchmark ./bench
exec .bench_build/gpbft-benchmark "$@"
