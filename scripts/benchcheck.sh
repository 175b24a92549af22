#!/usr/bin/env sh
# benchcheck.sh — benchstat-style A/B regression gate for the host-side
# hot-path benchmarks. Builds the test binaries of the working tree and of
# a base revision in the same job, then runs BenchmarkFaultPath and
# BenchmarkFaultPathObs (root; the latter is the same fault loop with the
# full observability plane attached, so their delta is the plane's
# per-fault cost), BenchmarkKVDecodeStep (root; one guided KV decode step
# end to end), BenchmarkSubmit (internal/fabric) and BenchmarkSleepSwitch
# (internal/sim; one scheduler hand-off between two procs) several times
# on each side, interleaved and alternating which side goes first so drift
# and order effects hit both sides alike, and takes the best (minimum)
# ns/op per side — the benchstat idea: noise only ever slows a run down. It fails if any
# benchmark is more than 10% slower than on the base. Both sides run on
# the same machine in the same job, so machine speed cancels out.
#
#   scripts/benchcheck.sh          # base = merge-base of HEAD and origin/main
#   scripts/benchcheck.sh REV      # base = REV (any git revision)
#
# When the merge-base is HEAD itself (a push to main), the base is HEAD~1.
# A benchmark the base does not have yet is reported as new and skipped.
#
# Plain sh + awk on purpose: the CI image needs no extra tooling.
set -eu

cd "$(dirname "$0")/.."
RUNS=5
TOLERANCE=1.10

if [ $# -gt 0 ]; then
    base=$(git rev-parse --verify "$1^{commit}")
else
    base=$(git merge-base HEAD origin/main)
    if [ "$base" = "$(git rev-parse HEAD)" ]; then
        base=$(git rev-parse HEAD~1)
    fi
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

# build <tree> <side>: compile the benchmark packages' test binaries.
build() {
    (cd "$1" && go test -c -o "$tmp/$2.root.test" . &&
        go test -c -o "$tmp/$2.fabric.test" ./internal/fabric/ &&
        go test -c -o "$tmp/$2.sim.test" ./internal/sim/) ||
        { echo "benchcheck: cannot build the $2 benchmarks" >&2; exit 1; }
}
build . head
build "$tmp/base" base

# ns <side> <bench> <pkg> <benchtime> → ns/op of one run, empty if the side
# has no such benchmark. Go names the benchmark Bench-N when GOMAXPROCS > 1.
ns() {
    dir=.
    [ "$1" = head ] || dir="$tmp/base"
    pkg=root
    [ "$3" = . ] || { pkg=$(basename "$3"); dir="$dir/$3"; }
    (cd "$dir" && "$tmp/$1.$pkg.test" -test.run '^$' -test.bench "^$2\$" -test.benchtime "$4") |
        awk -v b="$2" '$1 ~ "^" b "(-[0-9]+)?$" {print $3; exit}'
}

# min <a> <b> → the smaller number; an empty <a> yields <b>.
min() {
    if [ -z "$1" ] || awk -v n="$2" -v b="$1" 'BEGIN{exit !(n<b)}'; then
        echo "$2"
    else
        echo "$1"
    fi
}

echo "benchcheck: working tree vs base $(git rev-parse --short "$base"), best of $RUNS"
fail=0
for spec in "BenchmarkFaultPath . 20000x" "BenchmarkFaultPathObs . 20000x" \
    "BenchmarkKVDecodeStep . 500x" "BenchmarkSubmit ./internal/fabric/ 50000x" \
    "BenchmarkSleepSwitch ./internal/sim/ 2000000x"; do
    set -- $spec
    best_head="" best_base=""
    for i in $(seq "$RUNS"); do
        order="base head"
        [ $((i % 2)) -eq 1 ] || order="head base"
        for side in $order; do
            got=$(ns "$side" "$1" "$2" "$3")
            if [ "$side" = head ]; then
                [ -n "$got" ] || { echo "benchcheck: no ns/op from $1 in $2" >&2; exit 1; }
                best_head=$(min "$best_head" "$got")
            elif [ -n "$got" ]; then
                best_base=$(min "$best_base" "$got")
            fi
        done
    done
    if [ -z "$best_base" ]; then
        echo "new  $1: $best_head ns/op (not in the base)"
    elif awk -v g="$best_head" -v w="$best_base" -v t="$TOLERANCE" 'BEGIN{exit !(g > w*t)}'; then
        echo "FAIL $1: $best_head ns/op vs base $best_base (>${TOLERANCE}x)"
        fail=1
    else
        echo "ok   $1: $best_head ns/op vs base $best_base"
    fi
done
exit $fail
