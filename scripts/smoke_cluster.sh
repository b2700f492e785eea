#!/usr/bin/env bash
# Multi-node smoke test for the sharded bambood ring: build the daemon,
# boot THREE real OS processes with a shared static peer map and
# per-node WAL dirs, submit a burst of slow jobs through every front,
# kill -9 one node mid-burst, keep submitting through the survivors
# (the ring must keep accepting: victim-owned programs fail over), then
# restart the victim from its WAL and assert:
#   1. zero accepted-job loss — every acknowledged ID reaches
#      "succeeded", including jobs that died queued on the victim;
#   2. the victim actually replayed work (varz wal.replayed_jobs > 0);
#   3. the survivors absorbed the outage (failovers/shed counters moved).
# CI runs this as the `cluster` job's last step.
#
# Usage: scripts/smoke_cluster.sh [baseport]
set -euo pipefail

cd "$(dirname "$0")/.."
baseport="${1:-8390}"
p1=$baseport p2=$((baseport + 1)) p3=$((baseport + 2))
peers="n1=http://127.0.0.1:$p1,n2=http://127.0.0.1:$p2,n3=http://127.0.0.1:$p3"
work="$(mktemp -d)"
bin="$work/bambood"

cleanup() {
    for pid in "${pid1:-}" "${pid2:-}" "${pid3:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT

# With GOCOVERDIR set (scripts/coverage.sh sets it), the daemon is a
# covered build of the serving packages that writes its counters there each
# time it exits cleanly. (Counting the interpreter's statements too slows
# its hot loop past the jobs' deadlines.)
go build ${GOCOVERDIR:+-cover -coverpkg=./cmd/bambood,./internal/server/...,./internal/cluster,./internal/wal} \
    -o "$bin" ./cmd/bambood

start_node() { # id port -> pid on stdout
    local id="$1" port="$2"
    mkdir -p "$work/wal-$id"
    "$bin" -addr "127.0.0.1:$port" -node-id "$id" -peers "$peers" \
        -wal-dir "$work/wal-$id" -heartbeat-interval 100ms \
        >>"$work/$id.log" 2>&1 &
    echo $!
}

wait_healthy() { # port
    for _ in $(seq 1 100); do
        if curl -fsS "http://127.0.0.1:$1/v1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "node on :$1 never became healthy" >&2
    cat "$work"/*.log >&2
    return 1
}

# One-line Bamboo program; the constant makes each i a distinct
# fingerprint (its own ring owner) and sets the crunch-loop length.
program() { # n extra
    echo "class Work { flag run; int n; int total; Work(int n) { this.n = n; } } task boot(StartupObject s in initialstate) { Work w = new Work($(($1 + $2))){ run := true }; taskexit(s: initialstate := false); } task crunch(Work w in run) { int i; for (i = 0; i < w.n; i++) { w.total += i * i; } taskexit(w: run := false); }"
}

# Every job asks for bambood's largest deadline (-max-timeout, ten
# minutes): a deadline counts queue time, and the slow burst queues twelve
# long jobs, so the one-minute default would fail jobs on a slow runner
# and the zero-loss check would count them lost. The ring owner is a hash
# of the source alone, so the deadline moves no job.
submit() { # port n extra -> job id on stdout
    local body resp id
    body="{\"source\":\"$(program "$2" "$3")\",\"timeout_ms\":600000}"
    resp="$(curl -fsS -X POST "http://127.0.0.1:$1/v1/jobs" \
        -H 'Content-Type: application/json' -d "$body")"
    id="$(echo "$resp" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
    [ -n "$id" ] || { echo "no job id in: $resp" >&2; return 1; }
    echo "$id"
}

pid1="$(start_node n1 "$p1")"
pid2="$(start_node n2 "$p2")"
pid3="$(start_node n3 "$p3")"
wait_healthy "$p1"; wait_healthy "$p2"; wait_healthy "$p3"
echo "3-node ring up on :$p1 :$p2 :$p3" >&2

# Burst 1: slow jobs (crunch loop runs for seconds) through every
# front. The kill below lands while these are queued or running.
ids=()
ports=("$p1" "$p2" "$p3")
for i in $(seq 0 11); do
    ids+=("$(submit "${ports[$((i % 3))]}" 60000000 "$i")")
done
echo "accepted pre-kill: ${ids[*]}" >&2

kill -9 "$pid2"
pid2=""
echo "killed n2 (kill -9)" >&2

# Burst 2: the ring is down a node but every submission must still be
# accepted — n2-owned programs fail over to the next ring node.
for i in $(seq 0 11); do
    ids+=("$(submit "${ports[$((i % 2 * 2))]}" 2000 "$i")")
done
echo "accepted during outage: 12 more jobs" >&2

# The survivors must have noticed: dead-node skips (failovers) or
# 429-driven sheds on at least one survivor front.
moved=0
for port in "$p1" "$p3"; do
    stats="$(curl -fsS "http://127.0.0.1:$port/v1/cluster")"
    f="$(echo "$stats" | sed -n 's/.*"failovers": *\([0-9]*\).*/\1/p')"
    s="$(echo "$stats" | sed -n 's/.*"shed": *\([0-9]*\).*/\1/p')"
    [ "$((${f:-0} + ${s:-0}))" -gt 0 ] && moved=1
done
[ "$moved" = 1 ] || { echo "survivors show no failover/shed activity" >&2; exit 1; }
echo "survivors absorbed the outage" >&2

# Restart the victim from its WAL at the same address.
pid2="$(start_node n2 "$p2")"
wait_healthy "$p2"
echo "n2 restarted from its WAL" >&2

# Zero-loss accounting: every accepted ID must reach "succeeded",
# polled through the n1 front (by-ID routing proxies to the owner; 502s
# while the ring re-admits n2 are retried, not counted as losses).
lost=0
for id in "${ids[@]}"; do
    status=""
    for _ in $(seq 1 600); do
        view="$(curl -sS "http://127.0.0.1:$p1/v1/jobs/$id" 2>/dev/null || true)"
        status="$(echo "$view" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p' | head -1)"
        case "$status" in succeeded | failed | canceled) break ;; esac
        sleep 0.1
    done
    if [ "$status" != succeeded ]; then
        echo "LOST job $id: status='$status' view=$view" >&2
        lost=$((lost + 1))
    fi
done
[ "$lost" = 0 ] || { echo "$lost accepted jobs lost" >&2; exit 1; }
echo "zero accepted-job loss across kill -9" >&2

# The restart must have replayed non-terminal work from the log.
replayed="$(curl -fsS "http://127.0.0.1:$p2/v1/varz" |
    sed -n 's/.*"replayed_jobs": *\([0-9]*\).*/\1/p')"
[ -n "$replayed" ] && [ "$replayed" -gt 0 ] ||
    { echo "wal.replayed_jobs=$replayed, want > 0" >&2; exit 1; }
echo "n2 replayed $replayed jobs from its WAL" >&2

# All three nodes drain cleanly on SIGTERM.
kill -TERM "$pid1" "$pid2" "$pid3"
for pid in "$pid1" "$pid2" "$pid3"; do
    ok=0
    for _ in $(seq 1 300); do
        if ! kill -0 "$pid" 2>/dev/null; then ok=1; break; fi
        sleep 0.1
    done
    [ "$ok" = 1 ] || { echo "pid $pid did not exit after SIGTERM" >&2; exit 1; }
done
pid1="" pid2="" pid3=""
echo "smoke_cluster: OK" >&2
