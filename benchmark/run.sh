#!/usr/bin/env bash
# Builds the benchmark and the server under test from this checkout's
# sources and runs the benchmark, keeping every artefact (Go build cache,
# binaries, corpus, WAL, logs) under .bench_build/ and benchmark/out/.
#
#   benchmark/run.sh --workload mono --seed 1 --seconds 30 --trace 0
#       one workload, one JSON line last on stdout (the BENCHMARK.json contract)
#   benchmark/run.sh --suite [--seed N] [--runs K] [--seconds S]
#       every workload, K untraced runs plus one traced run each; writes
#       benchmark/out/report.json and trace-<workload>.json, prints the
#       per-layer table
#   benchmark/run.sh --aa [--seed N]
#       the untraced suite twice on this tree (5 runs per workload each,
#       ~30 min), then -compare; fails unless every bounded workload × metric
#       row is ok
#   benchmark/run.sh --compare baseline.json candidate.json
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/tindserve ]; then
  echo "benchmark/run.sh: $root is not a tind checkout (no go.mod, no cmd/tindserve): nothing to measure" >&2
  exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin" "$root/benchmark/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod

go build -o "$build/bin/benchmark" ./benchmark
bench="$build/bin/benchmark"

case "${1:-}" in
  --suite)
    shift
    exec "$bench" "$@"
    ;;
  --aa)
    shift
    out="$root/benchmark/out"
    "$bench" -no-trace -runs 5 -out "$out/aa-first.json" "$@"
    "$bench" -no-trace -runs 5 -out "$out/aa-second.json" "$@"
    exec "$bench" -compare "$out/aa-first.json" "$out/aa-second.json"
    ;;
  --compare)
    shift
    exec "$bench" -compare "$@"
    ;;
  *)
    exec "$bench" "$@"
    ;;
esac
