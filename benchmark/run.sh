#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. It builds the driver from source
# into .bench_build/ at the root of the checkout (compiler cache and
# temporary files too, so nothing is written outside the checkout) and
# runs it with the arguments given:
#
#   bash benchmark/run.sh --workload control-loop --seed 1 --seconds 10 --trace 0
#
# It fails, printing no result, where the module's sources are missing.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
