#!/usr/bin/env bash
# Fails when a doc, a script or the CI workflow names a file that does not
# exist: a BENCH*.json result file, a path under scripts/, or a top-level
# *.md / *.txt. CI runs this in the `test` job.
#
# Usage: scripts/check_refs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

bad=0
for f in README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md .github/workflows/ci.yml scripts/*.sh; do
    # DESIGN.md §16 ("What we removed") names deleted files on purpose. A
    # name that continues a longer path (bench/README.md) is not top-level.
    for ref in $(sed '/^## 16\. /,$d' "$f" |
        grep -oE '(^|[^A-Za-z0-9_./-])(\./)?(scripts/[A-Za-z0-9_./-]*[A-Za-z0-9_]|BENCH[A-Za-z0-9_]*\.json|[A-Za-z0-9_]+\.(md|txt))\b' |
        sed -E 's/^[^A-Za-z0-9_]*//' | sort -u); do
        [ -e "$ref" ] || { echo "$f names $ref, which does not exist" >&2; bad=1; }
    done
done
exit "$bad"
