#!/usr/bin/env bash
# Coverage ratchet for the runtime and observability packages: fails when
# statement coverage drops below the per-package minimum. The minimums sit
# a few points under the measured coverage at the time they were set; when
# new tests push coverage up, raise the minimum to just below the new
# number so it can only move forward.
#
# Usage: scripts/coverage.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# package -> minimum statement coverage (%)
ratchet=(
    "internal/bamboort 93.0"
    "internal/obsv 95.0"
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
