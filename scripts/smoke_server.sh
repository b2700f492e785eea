#!/usr/bin/env bash
# End-to-end smoke test for bambood: build it, start it, submit one
# benchmark job over the /v1 API, poll to completion, assert a successful
# result with nonzero total_cycles, check the error envelope, create a
# KVStore session and feed it (three puts on one key, then a get: versions
# 1, 2, 3 and the last value read back), close it, then SIGTERM the daemon
# and assert it drains cleanly (exit 0). CI runs this as the `server`
# job's last step. Sessions under load — the 10k-request model check, the
# coalescer — are the benchmark's feed workloads (bench/) and the raced
# Go tests in internal/server.
#
# Usage: scripts/smoke_server.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."
port="${1:-8377}"
base="http://127.0.0.1:$port"
bin="$(mktemp -d)/bambood"
log="$(mktemp)"

cleanup() {
    [ -n "${daemon_pid:-}" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$(dirname "$bin")" "$log"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/bambood
"$bin" -addr ":$port" >"$log" 2>&1 &
daemon_pid=$!

# Wait for the daemon to come up.
for _ in $(seq 1 100); do
    if curl -fsS "$base/v1/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "bambood exited during startup:" >&2; cat "$log" >&2; exit 1
    fi
    sleep 0.1
done
curl -fsS "$base/v1/healthz" >/dev/null

# Submit a benchmark job.
submit="$(curl -fsS -X POST "$base/v1/jobs" \
    -H 'Content-Type: application/json' \
    -d '{"benchmark":"Series","args":["4","4","16"]}')"
id="$(echo "$submit" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')"
[ -n "$id" ] || { echo "no job id in: $submit" >&2; exit 1; }
echo "submitted job $id" >&2

# Poll to a terminal status (HTTP 200 asserted by curl -f).
status=""
for _ in $(seq 1 300); do
    view="$(curl -fsS "$base/v1/jobs/$id")"
    status="$(echo "$view" | sed -n 's/.*"status": *"\([^"]*\)".*/\1/p' | head -1)"
    case "$status" in
        succeeded|failed|canceled) break ;;
    esac
    sleep 0.1
done
[ "$status" = succeeded ] || { echo "job ended as '$status': $view" >&2; exit 1; }

cycles="$(echo "$view" | sed -n 's/.*"total_cycles": *\([0-9]*\).*/\1/p' | head -1)"
[ -n "$cycles" ] && [ "$cycles" -gt 0 ] || { echo "total_cycles=$cycles, want > 0" >&2; exit 1; }
echo "job succeeded with total_cycles=$cycles" >&2

# /varz should report the completed job and a cache miss.
curl -fsS "$base/v1/varz" | grep -q '"submitted": 1'

# A failure is the uniform {code, message} envelope.
curl -sS "$base/v1/jobs/j404" | grep -q '"code": *"not_found"' \
    || { echo "/v1 error is not the uniform envelope" >&2; exit 1; }
echo "/v1 envelope OK" >&2

# A persistent session: state written by one feed is visible to the next.
session="$(curl -fsS -X POST "$base/v1/sessions" \
    -H 'Content-Type: application/json' \
    -d '{"benchmark":"KVStore","args":["8","64","64"],"cores":2,
         "request":{"class":"Request","flag":"pending","tagType":"shard",
                    "doneFlag":"replied","replyFields":["reply","version","found"]}}')"
sid="$(echo "$session" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)"
[ -n "$sid" ] || { echo "no session id in: $session" >&2; exit 1; }
feed() {
    curl -fsS -X POST "$base/v1/sessions/$sid/feed" -H 'Content-Type: application/json' -d "$1"
}
puts="$(feed '{"requests":[{"args":["1","500","11"],"tagKey":500},
                           {"args":["1","500","22"],"tagKey":500},
                           {"args":["1","500","33"],"tagKey":500}]}')"
versions="$(echo "$puts" | grep -o '"version":"[0-9]*"' | tr -dc '0-9\n' | paste -sd, -)"
[ "$versions" = "1,2,3" ] || { echo "put versions '$versions', want 1,2,3: $puts" >&2; exit 1; }
got="$(feed '{"requests":[{"args":["0","500","0"],"tagKey":500}]}')"
echo "$got" | grep -q '"fields":{"found":"1","reply":"33","version":"3"}' \
    || { echo "get after three puts: $got" >&2; exit 1; }
curl -fsS "$base/v1/varz" | grep -q '"requests": 4,' \
    || { echo "/varz sessions.requests is not 4" >&2; exit 1; }
curl -fsS -X DELETE "$base/v1/sessions/$sid" | grep -q '"status": *"closed"' \
    || { echo "session did not close" >&2; exit 1; }
echo "session $sid: versions $versions, read back 33, closed" >&2

# Graceful drain on SIGTERM: the daemon must exit 0 on its own.
kill -TERM "$daemon_pid"
drain_ok=0
for _ in $(seq 1 100); do
    if ! kill -0 "$daemon_pid" 2>/dev/null; then drain_ok=1; break; fi
    sleep 0.1
done
[ "$drain_ok" = 1 ] || { echo "bambood did not exit after SIGTERM" >&2; exit 1; }
wait "$daemon_pid" || { echo "bambood exited nonzero after SIGTERM:" >&2; cat "$log" >&2; exit 1; }
grep -q "drained cleanly" "$log" || { echo "missing drain message:" >&2; cat "$log" >&2; exit 1; }
daemon_pid=""
echo "smoke_server: OK" >&2
