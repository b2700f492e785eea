#!/usr/bin/env bash
# Regenerates the committed benchmark snapshots, one section each:
#
#   synthesis  the headline synthesis benchmarks -> BENCH_synthesis.json
#              (benchmark name -> ns/op, B/op, allocs/op and custom metrics
#              such as evals/sec), so successive PRs can track the perf
#              trajectory of the synthesis pipeline.
#   runtime    the concurrent runtime's contention counters (lock
#              acquisitions, lock-or-skip contention, pokes, inbox depths)
#              for a fixed set of benchmarks -> BENCH_runtime.json, so
#              changes to the runtime protocol show up as counter shifts.
#   interp     the interpreter dispatch benchmarks (hot-op micro plus end to
#              end per benchmark, each on the flattened fast path and the
#              reference tree walker) -> BENCH_interp.json; the fast/walker
#              ratio per name is the dispatch speedup and allocs/op shows
#              the frame pooling.
#   e2e        the repository's benchmark (bench/, see bench/README.md):
#              five model-checked workloads over the toolchain and the
#              serving stack, five sets, traced -> BENCH_e2e.json, stamped
#              by bench itself with machine, Go version, commit and seed.
#              Every end-to-end number README and DESIGN.md quote comes
#              from that file (about 12 minutes).
#
# Usage: scripts/bench.sh [output.json] [runtime-output.json] [interp-output.json]
#   BENCH_SECTIONS space-separated subset of "synthesis runtime interp e2e"
#                  to run (default: all). Benchmarks on a shared box are
#                  noisy; re-rolling one section beats re-rolling them all.
#   BENCH_PATTERN  override the benchmark regexp
#   BENCH_TIME     override -benchtime (default 5x)
#   RUNTIME_CORES  cores for the runtime counter snapshot (default 8)
#   INTERP_TIME    override -benchtime for the interpreter section (default
#                  1s — time-based, because the section spans ~200ns micros
#                  and ~300ms end-to-end runs; a fixed -benchtime Nx starves
#                  the micros of samples and their ratios come out as noise)
set -euo pipefail

cd "$(dirname "$0")/.."

sections="${BENCH_SECTIONS:-synthesis runtime interp e2e}"
want() { case " $sections " in *" $1 "*) return 0 ;; *) return 1 ;; esac; }

out="${1:-BENCH_synthesis.json}"
pattern="${BENCH_PATTERN:-BenchmarkSynthesis|BenchmarkSchedulingSimulator|BenchmarkDSASearch}"
benchtime="${BENCH_TIME:-5x}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Parse `go test -bench` lines:
#   BenchmarkName/sub-8   10   123456 ns/op   7890 B/op   12 allocs/op   345 evals/sec
parse_bench() {
    awk '
BEGIN { print "{"; first = 1 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    line = sprintf("  \"%s\": {\"iterations\": %s", name, $2)
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/"/, "", unit)
        line = line sprintf(", \"%s\": %s", unit, $i)
    }
    line = line "}"
    if (!first) printf(",\n")
    printf("%s", line)
    first = 0
}
END { print "\n}" }
' "$1"
}

if want synthesis; then
    echo "running: go test -run '^$' -bench \"$pattern\" -benchmem -benchtime $benchtime" >&2
    go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" | tee "$raw" >&2

    parse_bench "$raw" > "$out"

    echo "wrote $out" >&2
fi

# Runtime counter snapshot: run each benchmark on the concurrent engine
# with metrics enabled and collect the counters JSON per benchmark. None
# of the three contends for a lock across cores, so contention_skips and
# pokes read 0 (a poke answers a contention skip and nothing else); a task
# is never retried, so retries reads 0 too.
rtout="${2:-BENCH_runtime.json}"
cores="${RUNTIME_CORES:-8}"
mtmp="$(mktemp)"
trap 'rm -f "$raw" "$mtmp"' EXIT

if want runtime; then
{
    echo "{"
    first=1
    for bench in Keyword ImagePipe Tracking; do
        echo "running: bamboo run -name $bench -cores $cores -concurrent" >&2
        go run ./cmd/bamboo run -name "$bench" -cores "$cores" -concurrent \
            -metrics-out "$mtmp" >/dev/null 2>&1
        [ "$first" = 1 ] || echo ","
        first=0
        printf '  "%s": {"cores": %s, "counters": ' "$bench" "$cores"
        # Indent the counters object under its benchmark key.
        sed '1!s/^/  /' "$mtmp" | sed '$s/$/}/' | sed 's/[[:space:]]*$//'
    done
    echo "}"
} > "$rtout"

echo "wrote $rtout" >&2
fi

# Interpreter dispatch benchmarks: the hot-op microbenchmarks in
# internal/interp plus the end-to-end sequential runs in benchmarks/, each
# as a fast/walker pair so the JSON carries both sides of the speedup
# ratio (and the allocs/op drop from frame pooling) per name.
iout="${3:-BENCH_interp.json}"
ibenchtime="${INTERP_TIME:-1s}"
iraw="$(mktemp)"
ibase="$(mktemp)"
trap 'rm -f "$raw" "$mtmp" "$iraw" "$ibase"' EXIT

if want interp; then
# Snapshot the committed baseline before regenerating, so the delta below
# compares against what the repo carried going into this run.
have_baseline=0
if [ -f "$iout" ]; then
    cp "$iout" "$ibase"
    have_baseline=1
fi

echo "running: go test -run '^\$' -bench BenchmarkInterp -benchmem -benchtime $ibenchtime ./internal/interp ./benchmarks" >&2
go test -run '^$' -bench 'BenchmarkInterp' -benchmem -benchtime "$ibenchtime" ./internal/interp ./benchmarks | tee "$iraw" >&2

parse_bench "$iraw" > "$iout"

echo "wrote $iout" >&2

# Per-pair fast/walker speedups, diffed against the committed baseline
# (BENCH_interp_delta.json), plus the committed floor ratchet — the same
# check CI runs, so a regression shows up here first.
idelta="${INTERP_DELTA_OUT:-BENCH_interp_delta.json}"
if [ "$have_baseline" = 1 ]; then
    go run ./scripts/interpdelta -bench "$iout" -baseline "$ibase" -out "$idelta" \
        -floors scripts/interp_floors.json
    echo "wrote $idelta" >&2
else
    go run ./scripts/interpdelta -bench "$iout" -floors scripts/interp_floors.json
fi
fi

# End-to-end: bench writes the result file itself.
if want e2e; then
    echo "running: go run -C bench . -trace -repeat 5 -out $PWD/BENCH_e2e.json" >&2
    go run -C bench . -trace -repeat 5 -out "$PWD/BENCH_e2e.json"

    echo "wrote BENCH_e2e.json" >&2
fi
