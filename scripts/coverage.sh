#!/usr/bin/env bash
# Coverage gate for the whole module, read from one merged profile: every
# package's tests run once with -coverpkg=./..., so a statement counts as
# reached whichever package's tests reach it, and the two bambood smoke
# scripts run a covered daemon (go build -cover) that writes to the same
# GOCOVERDIR. `go tool covdata` merges them; nothing is downloaded.
#
# It fails when
#   - a package's statement coverage drops below its minimum (each sits
#     just under the figure measured when it was set: raise it when tests
#     push coverage up, so it only moves forward), or the module's total
#     drops below its own;
#   - a function no test reaches, or an unreached block of three or more
#     statements, is not listed under "unreached" below with its reason.
# Either test what is unreached or delete it; list it only when neither
# is possible.
#
# It prints each package's figure, the module total and the census: every
# unreached function and block with the number of its reason, the reasons,
# and any listed entry that is reached after all (take it off the list).
#
# Usage: scripts/coverage.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Module-wide minimum statement coverage (%).
module_min=92.5

# package -> minimum statement coverage (%): half a point or more under
# the merged figure when it was last set
minimums=(
    "benchmarks 99.5"
    "cmd/bamboo 89.5"
    "cmd/bamboo-expt 81.5"
    "cmd/bambood 94.0"
    "examples 99.5"
    "examples/adaptive 74.5"
    "examples/heterogeneous 78.0"
    "examples/montecarlo-pipeline 86.5"
    "examples/quickstart 77.5"
    "examples/visionflow 82.0"
    "internal/anneal 92.5"
    "internal/ast 80.5"
    "internal/bamboort 97.0"
    "internal/bbfuzz 90.0"
    "internal/cluster 93.0"
    "internal/core 93.5"
    "internal/critpath 99.5"
    "internal/cstg 99.5"
    "internal/depend 97.5"
    "internal/disjoint 93.0"
    "internal/expt 86.5"
    "internal/interp 93.0"
    "internal/ir 87.5"
    "internal/layout 99.5"
    "internal/lexer 89.5"
    "internal/machine 99.5"
    "internal/obsv 97.0"
    "internal/opt 88.5"
    "internal/parser 91.5"
    "internal/pool 99.5"
    "internal/profile 99.5"
    "internal/sched 98.5"
    "internal/schedsim 98.0"
    "internal/server 93.5"
    "internal/server/client 78.0"
    "internal/synth 96.0"
    "internal/types 89.5"
    "internal/wal 87.5"
    "scripts/interpdelta 94.5"
)

# Unreached code that stays, one line each: file, a regular expression
# over the names of the functions it sits in, and the reason. The census
# cites each by its number, counting from 1.
unreached="$(cat <<'EOF'
internal/ast/ast.go	^(Pos|action|expr|flagExp|stmt)$	marker and position methods the Node, Expr, Stmt, Action and FlagExp interfaces require; nothing calls them
internal/bbfuzz/gen.go	^(stmt|expr)$	marker methods of the generator's statement and expression interfaces; nothing calls them
cmd/bamboo/main.go	^main$	process entry: os.Exit(run(...)); run is tested
cmd/bamboo-expt/main.go	^main$	process entry: exits 1 on run's error; run is tested
scripts/interpdelta/main.go	^main$	process entry: exits 1 on run's error; run is tested
internal/core/compile.go	^Compile$	called by bench/ (ROADMAP item 12)
internal/server/client/client.go	^NewWithHTTPClient$	called by bench/ (ROADMAP item 12)
internal/interp/flatten.go	^flattenInstr$	an IR op the interpreter does not know flattens to a trap; lowering emits none
internal/server/server.go	^Open$	the log fails to compact what it recovered at boot: an I/O error
EOF
)"

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/cov"

# -count=1: a cached test result writes no counters.
if ! go test -count=1 -cover -coverpkg=./... ./... -args -test.gocoverdir="$dir/cov" >"$dir/test.log" 2>&1; then
    cat "$dir/test.log" >&2
    echo "coverage: tests failed" >&2
    exit 1
fi
for smoke in scripts/smoke_server.sh scripts/smoke_cluster.sh; do
    if ! GOCOVERDIR="$dir/cov" "$smoke" >"$dir/smoke.log" 2>&1; then
        cat "$dir/smoke.log" >&2
        echo "coverage: $smoke failed" >&2
        exit 1
    fi
done

go tool covdata percent -i="$dir/cov" >"$dir/percent.txt"
go tool covdata textfmt -i="$dir/cov" -o "$dir/profile.txt"
go tool cover -func="$dir/profile.txt" >"$dir/func.txt"

fail=0
for entry in "${minimums[@]}"; do
    pkg="${entry% *}"
    min="${entry#* }"
    pct="$(awk -v p="repro/$pkg" '$1 == p { sub(/%/, "", $3); print $3 }' "$dir/percent.txt")"
    if [ -z "$pct" ]; then
        echo "coverage: no result for $pkg" >&2
        fail=1
        continue
    fi
    ok="$(awk -v p="$pct" -v m="$min" 'BEGIN { print (p >= m) ? 1 : 0 }')"
    if [ "$ok" = 1 ]; then
        echo "coverage: $pkg ${pct}% (>= ${min}%)"
    else
        echo "coverage: $pkg ${pct}% is below its ${min}% minimum" >&2
        fail=1
    fi
done
for pkg in $(awk '{ print $1 }' "$dir/percent.txt"); do
    if ! printf '%s\n' "${minimums[@]}" | grep -q "^${pkg#repro/} "; then
        echo "coverage: $pkg has no minimum" >&2
        fail=1
    fi
done
total="$(awk '$1 == "total:" { sub(/%/, "", $3); print $3 }' "$dir/func.txt")"
if awk -v p="$total" -v m="$module_min" 'BEGIN { exit !(p >= m) }'; then
    echo "coverage: module ${total}% (>= ${module_min}%)"
else
    echo "coverage: module ${total}% is below its ${module_min}% minimum" >&2
    fail=1
fi

# The census: functions at 0 % and unreached blocks of >= 3 statements,
# each attributed to the function it sits in and matched to its reason.
printf '%s\n' "$unreached" >"$dir/unreached.txt"
if ! awk -F'\t' '
    FILENAME == ARGV[1] { file[NR] = $1; re[NR] = $2; why[NR] = $3; used[NR] = 0; n = NR; next }
    FILENAME == ARGV[2] {
        # go tool cover -func: "repro/dir/file.go:LINE:<tab>name<tabs>pct"
        split($0, f, /\t+/)
        split(f[1], loc, ":")
        fn = loc[1]; sub(/^repro\//, "", fn)
        if (fn == "total") next
        name = f[2]
        nf[fn]++; fline[fn, nf[fn]] = loc[2] + 0; fname[fn, nf[fn]] = name
        if (f[3] == "0.0%") zero[++nz] = fn "\t" loc[2] "\t" name
        next
    }
    FNR > 1 {
        # text profile: "repro/dir/file.go:L1.C1,L2.C2 STMTS COUNT"
        split($0, w, " ")
        if (w[2] < 3 || w[3] != 0) next
        split(w[1], loc, ":"); fn = loc[1]; sub(/^repro\//, "", fn)
        split(loc[2], rng, ","); split(rng[1], a, "."); split(rng[2], b, ".")
        name = "?"
        for (i = 1; i <= nf[fn]; i++) if (fline[fn, i] <= a[1] + 0) name = fname[fn, i]
        blk[++nb] = fn "\t" a[1] "-" b[1] "\t" name "\t" w[2]
    }
    function reason(fn, name,   i) {
        for (i = 1; i <= n; i++) if (file[i] == fn && name ~ re[i]) { used[i] = 1; return "[" i "]" }
        bad = 1
        return "NOT LISTED: test it or delete it"
    }
    END {
        for (i = 1; i <= nz; i++) {
            split(zero[i], z, "\t")
            printf "census: 0%% %s:%s %s %s\n", z[1], z[2], z[3], reason(z[1], z[3])
        }
        for (i = 1; i <= nb; i++) {
            split(blk[i], z, "\t")
            printf "census: block %s:%s (%d statements) in %s %s\n", z[1], z[2], z[4], z[3], reason(z[1], z[3])
        }
        for (i = 1; i <= n; i++) {
            if (used[i]) {
                printf "census: [%d] %s: %s\n", i, file[i], why[i]
            } else {
                printf "census: [%d] %s %s is reached; take it off the list\n", i, file[i], re[i]
            }
        }
        exit bad
    }
' "$dir/unreached.txt" "$dir/func.txt" "$dir/profile.txt"; then
    echo "coverage: unreached code not listed with a reason" >&2
    fail=1
fi
exit "$fail"
