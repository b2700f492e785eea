#!/usr/bin/env bash
# Coverage ratchet for the runtime, the interpreter it runs task bodies on,
# the analyses it routes and locks by, the core facade over them, the
# profile and the CSTG it annotates, the scheduler (its event loop and
# parameter sets), the DSA search and its critical path analysis, the
# observability package, the write-ahead log, the serving layer and the
# cluster router: fails when statement coverage
# drops below the per-package minimum. The minimums sit a few points under
# the measured coverage at the time they were set; when new tests push
# coverage up, raise the minimum to just below the new number so it can
# only move forward.
#
# Usage: scripts/coverage.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# package -> minimum statement coverage (%)
ratchet=(
    "internal/anneal 92.5"
    "internal/bamboort 96.0"
    "internal/cluster 88.0"
    "internal/core 60.5"
    "internal/critpath 99.5"
    "internal/cstg 99.0"
    "internal/depend 91.0"
    "internal/disjoint 90.0"
    "internal/interp 60.5"
    "internal/obsv 95.0"
    "internal/profile 99.0"
    "internal/sched 98.0"
    "internal/schedsim 97.0"
    "internal/server 91.5"
    "internal/wal 86.0"
)

fail=0
for entry in "${ratchet[@]}"; do
    pkg="${entry% *}"
    min="${entry#* }"
    pct="$(go test -cover "./$pkg" | awk '/coverage:/ { sub(/%.*/, "", $5); print $5 }')"
    if [ -z "$pct" ]; then
        echo "coverage: no result for $pkg" >&2
        fail=1
        continue
    fi
    ok="$(awk -v p="$pct" -v m="$min" 'BEGIN { print (p >= m) ? 1 : 0 }')"
    if [ "$ok" = 1 ]; then
        echo "coverage: $pkg ${pct}% (>= ${min}%)"
    else
        echo "coverage: $pkg ${pct}% is below the ${min}% ratchet" >&2
        fail=1
    fi
done
exit "$fail"
