#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then run one workload.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the build and the run write — Go's build cache, its temporary
# directory, the binary, write-ahead logs, traces — goes under
# .bench_build/ at the checkout root, which .gitignore names.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
# bench/ is its own module (repro/bench) that replaces repro with the
# checkout around it; without that checkout the build fails, and so does this.
(cd "$root/bench" && go build -o "$build/bench" .)

cd "$root"
exec "$build/bench" "$@"
