#!/bin/sh
# A/B-compare internal/core benchmarks between a base ref and the
# working tree. Builds the package's test binary twice — once from a
# temporary checkout of the base ref (git archive), once from the
# working tree — then runs the two n times each, alternating which side
# goes first, and prints, per benchmark and unit, each side's min, first
# quartile, median and third quartile. On a noisy host, judge a change
# by whether its median sits inside the base's q1..q3, not by one run.
#
# So that both sides time the same benchmark code, even one the base
# does not have yet, the working tree's external benchmark files
# (internal/core/*bench_test.go in package core_test, which use only
# the exported API) replace the base's before it is built.
#
# Usage: scripts/abcore.sh <base-ref> <bench-regex> [n]
#   n defaults to 10. Example, the one-lane parity check:
#   scripts/abcore.sh HEAD 'LaneSetSuite/lanes=1$' 20
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <base-ref> <bench-regex> [n]" >&2
    exit 2
fi
base=$1
re=$2
n=${3:-10}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
for f in "$root"/internal/core/*bench_test.go; do
    if grep -q '^package core_test$' "$f"; then
        cp "$f" "$tmp/base/internal/core/"
    fi
done
go test -C "$tmp/base" -c -o "$tmp/base.test" ./internal/core/
go test -C "$root" -c -o "$tmp/head.test" ./internal/core/

# run <side> <dir>: one pass of the side's binary from its package
# directory, appending "side benchmark value unit" lines to the log.
run() {
    (cd "$2/internal/core" && "$tmp/$1.test" -test.run '^$' -test.bench "$re" \
        -test.count 1 -test.timeout 30m) |
        awk -v side="$1" '/^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            for (i = 3; i < NF; i += 2) print side, name, $i, $(i + 1)
        }' >>"$tmp/log"
}

i=1
while [ "$i" -le "$n" ]; do
    if [ $((i % 2)) = 1 ]; then
        run base "$tmp/base"
        run head "$root"
    else
        run head "$root"
        run base "$tmp/base"
    fi
    i=$((i + 1))
done

# Per (benchmark, unit, side): min, q1, median and q3 over the runs
# (nearest-rank order statistics).
sort -k2,2 -k4,4 -k1,1 -k3,3g "$tmp/log" |
    awk '
    function flush() {
        if (c == 0) return
        printf "%-36s %-14s %-4s n=%-3d min %-10g q1 %-10g median %-10g q3 %g\n",
            key_name, key_unit, key_side, c, v[1], v[int((c + 3) / 4)], v[int((c + 1) / 2)],
            v[int((3 * c + 3) / 4)]
    }
    {
        k = $2 SUBSEP $4 SUBSEP $1
        if (k != key) { flush(); key = k; c = 0; key_name = $2; key_unit = $4; key_side = $1 }
        v[++c] = $3
    }
    END { flush() }'
