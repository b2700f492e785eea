#!/usr/bin/env bash
# Runs the headline synthesis benchmarks and records them in
# BENCH_synthesis.json (benchmark name -> ns/op, B/op, allocs/op, and any
# custom metrics such as evals/sec), so successive PRs can track the perf
# trajectory of the synthesis pipeline. Also snapshots the concurrent
# runtime's contention counters (lock acquisitions, lock-or-skip
# contention, pokes, inbox depths) for a fixed set of benchmarks into
# BENCH_runtime.json, so changes to the runtime protocol show up as
# counter shifts.
#
# Also records the interpreter dispatch benchmarks (hot-op micro plus
# end-to-end per benchmark, each on the flattened fast path and the
# reference tree walker) into BENCH_interp.json; the fast/walker ratio per
# name is the dispatch speedup and allocs/op shows the frame pooling.
#
# Finally, drives the bambood serving layer with the load harness
# (scripts/loadgen.go): N concurrent clients over the benchmark suite
# against an in-process server, recording throughput, client-observed
# p50/p95/p99 latency, backpressure retries, and the steady-state cache
# hit rate into BENCH_server.json.
#
# Finally finally, runs the persistent-session streaming benchmark: one
# KVStore session per core count driven open-loop (fixed request rate in
# bursts, regardless of completion) by scripts/loadgen.go -stream, with
# every reply verified against a client-side model of the store. The
# sustained RPS and p50/p95/p99 request latency per core count go to
# BENCH_stream.json.
#
# And the closed-loop saturation benchmark: scripts/loadgen.go
# -closed-loop drives one concurrent-runtime KVStore session per core
# count with a sweep of synchronous workers to find peak wall-clock RPS
# (this is what exercises the feed coalescer), and measures 1->8 core
# scaling in simulated cycles-per-request on the deterministic engine.
# Results go to BENCH_saturate.json and are checked against the committed
# floor ratchet in scripts/saturate_floors.json.
#
# And the sharded-cluster benchmark: scripts/loadgen.go -cluster boots
# an in-process 3-node bambood ring (WAL + router per node) plus a
# 1-node baseline and drives both with a cache-affinity workload (more
# distinct programs than one node's cache holds), then kills one node
# mid-burst and restarts it from its WAL. BENCH_cluster.json records
# 3-node-vs-1-node throughput scaling and the failover recovery time;
# the run FAILS if 3-node does not beat 1-node or any accepted job is
# lost across the kill.
#
# Usage: scripts/bench.sh [output.json] [runtime-output.json] [interp-output.json] [server-output.json] [stream-output.json] [saturate-output.json] [cluster-output.json]
#   BENCH_SECTIONS space-separated subset of "synthesis runtime interp
#                  server stream saturate cluster" to run (default: all).
#                  Benchmarks on a shared box are noisy; re-rolling one
#                  section beats re-rolling them all.
#   BENCH_PATTERN  override the benchmark regexp
#   BENCH_TIME     override -benchtime (default 5x)
#   RUNTIME_CORES  cores for the runtime counter snapshot (default 4)
#   INTERP_TIME    override -benchtime for the interpreter section (default
#                  1s — time-based, because the section spans ~200ns micros
#                  and ~300ms end-to-end runs; a fixed -benchtime Nx starves
#                  the micros of samples and their ratios come out as noise)
#   SERVER_CLIENTS concurrent load-harness clients (default 64)
#   SERVER_JOBS    jobs per client (default 3)
#   STREAM_CORES   core counts for the streaming runs (default 1,2,4,8)
#   STREAM_RATE    open-loop request rate per second (default 1000)
#   STREAM_TIME    generator duration per core count (default 5s)
#   SAT_CORES      core counts for the saturation runs (default 1,2,4,8)
#   SAT_WORKERS    closed-loop worker sweep (default 4,16,48)
#   SAT_TIME       measurement window per (cores, workers) pair (default 2s)
#   CLUSTER_PROGRAMS  distinct programs in the cache-affinity workload
#                     (default 24; must exceed CLUSTER_CACHE)
#   CLUSTER_CACHE     compiled-cache entries per node (default 12)
#   CLUSTER_ROUNDS    measured rounds over the program set (default 8)
#   CLUSTER_CLIENTS   closed-loop submitters (default 8)
set -euo pipefail

cd "$(dirname "$0")/.."

sections="${BENCH_SECTIONS:-synthesis runtime interp server stream saturate cluster}"
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
# pokes read 0 (a poke answers a contention skip and nothing else); a
# light injected-crash rate exercises the rollback/retry path so the
# retry counters are nonzero.
rtout="${2:-BENCH_runtime.json}"
cores="${RUNTIME_CORES:-8}"
panic_every="${RUNTIME_PANIC_EVERY:-13}"
mtmp="$(mktemp)"
trap 'rm -f "$raw" "$mtmp"' EXIT

if want runtime; then
{
    echo "{"
    first=1
    for bench in Keyword ImagePipe Tracking; do
        echo "running: bamboo run -name $bench -cores $cores -concurrent -inject-panic-every $panic_every" >&2
        go run ./cmd/bamboo run -name "$bench" -cores "$cores" -concurrent \
            -inject-panic-every "$panic_every" \
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

# Server load benchmark: the load harness starts an in-process bambood
# server (same code path as the daemon), warms the compiled-program
# cache over the benchmark suite, then measures a concurrent-client
# steady state. The JSON carries throughput, latency quantiles, retry
# counts, and the server's own /varz snapshot.
sout="${4:-BENCH_server.json}"
sclients="${SERVER_CLIENTS:-64}"
sjobs="${SERVER_JOBS:-3}"

if want server; then
    echo "running: go run ./scripts -clients $sclients -jobs $sjobs -out $sout" >&2
    go run ./scripts -clients "$sclients" -jobs "$sjobs" -out "$sout"

    echo "wrote $sout" >&2
fi

# Streaming benchmark: one persistent KVStore session per core count,
# driven open-loop against an in-process server; every reply is verified
# client-side, so a nonzero exit here means lost/reordered responses.
stout="${5:-BENCH_stream.json}"
stcores="${STREAM_CORES:-1,2,4,8}"
strate="${STREAM_RATE:-1000}"
sttime="${STREAM_TIME:-5s}"

if want stream; then
    echo "running: go run ./scripts -stream -stream-cores $stcores -rate $strate -stream-duration $sttime -out $stout" >&2
    go run ./scripts -stream -stream-cores "$stcores" -rate "$strate" \
        -stream-duration "$sttime" -out "$stout"

    echo "wrote $stout" >&2
fi

# Saturation benchmark: closed-loop workers drive one KVStore session per
# core count to peak throughput (exercising the feed coalescer), then the
# deterministic engine measures simulated cycles-per-request at the same
# core counts. A nonzero exit means a reply was lost/reordered OR a
# committed floor in scripts/saturate_floors.json was missed.
satout="${6:-BENCH_saturate.json}"
satcores="${SAT_CORES:-1,2,4,8}"
satworkers="${SAT_WORKERS:-4,16,48}"
sattime="${SAT_TIME:-2s}"

if want saturate; then
    echo "running: go run ./scripts -closed-loop -loop-cores $satcores -workers $satworkers -loop-duration $sattime -out $satout" >&2
    go run ./scripts -closed-loop -loop-cores "$satcores" -workers "$satworkers" \
        -loop-duration "$sattime" -floors scripts/saturate_floors.json -out "$satout"

    echo "wrote $satout" >&2
fi

# Cluster sweep: 1-node baseline vs 3-node ring on the cache-affinity
# workload, then the kill -9 failover experiment. A nonzero exit means
# the ring failed to out-throughput one node (throughput_scaling_
# 3node_vs_1node <= 1.0) or an accepted job was lost across the crash
# (failover.lost_jobs > 0); failover_recovery_open_ms and
# failover_recovery_total_ms carry the recovery-time side of the story.
clout="${7:-BENCH_cluster.json}"
clprograms="${CLUSTER_PROGRAMS:-24}"
clcache="${CLUSTER_CACHE:-12}"
clrounds="${CLUSTER_ROUNDS:-8}"
clclients="${CLUSTER_CLIENTS:-8}"

if want cluster; then
    echo "running: go run ./scripts -cluster -cluster-programs $clprograms -cluster-cache-entries $clcache -cluster-rounds $clrounds -cluster-clients $clclients -out $clout" >&2
    go run ./scripts -cluster -cluster-programs "$clprograms" \
        -cluster-cache-entries "$clcache" -cluster-rounds "$clrounds" \
        -cluster-clients "$clclients" -out "$clout"

    echo "wrote $clout" >&2
fi
