#!/bin/sh
# Interleaved A/B throughput comparison of two commits:
#
#   ./scripts/ab.sh BASE HEAD [N]
#
# Exports each commit with `git archive` into its own temporary
# directory, builds its `perf` binary there with its own
# CARGO_TARGET_DIR (the workspace has no external dependencies, so the
# builds work offline), then runs `perf --scale paper` N times per side
# (default 10), alternating the two builds and flipping which one runs
# first in every pair so drift on the host hits both sides alike.
#
# Aborts if the two sides ever report different event totals: then the
# commits simulate different things and their rates are not comparable.
# Prints each side's median and quartiles of the in-sim event rate, and
# the median and range of the per-pair HEAD/BASE rate ratios.
#
# TMPDIR picks where the exports and builds go; they are removed on
# exit.
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 BASE HEAD [N]" >&2
    exit 2
fi
base=$1
head=$2
pairs=${3:-10}
case $pairs in
    '' | *[!0-9]* | 0)
        echo "ab: N must be a positive integer, got '$pairs'" >&2
        exit 2
        ;;
esac

repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/dynapar-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

build() { # side commit
    rev=$(git -C "$repo" rev-parse --verify "$2^{commit}")
    mkdir -p "$work/$1/src"
    git -C "$repo" archive "$rev" | tar -x -C "$work/$1/src"
    echo "ab: building $1 = $rev" >&2
    (cd "$work/$1/src" && CARGO_TARGET_DIR="$work/$1/target" \
        cargo build -q --release --offline -p dynapar-bench --bin perf)
}
build base "$base"
build head "$head"

run() { # side -> "events rate" of the TOTAL (in-sim) row
    "$work/$1/target/release/perf" --scale paper |
        awk '/^TOTAL \(in-sim\)/ { print $3, $5 }'
}

: > "$work/base.rates"
: > "$work/head.rates"
: > "$work/ratios"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        set -- $(run "$side")
        if [ $# -ne 2 ]; then
            echo "ab: $side perf printed no TOTAL (in-sim) row" >&2
            exit 1
        fi
        eval "${side}_events=\$1 ${side}_rate=\$2"
        echo "$2" >> "$work/$side.rates"
    done
    # shellcheck disable=SC2154
    if [ "$base_events" != "$head_events" ]; then
        echo "ab: event totals differ (base $base_events, head $head_events)" >&2
        exit 1
    fi
    # shellcheck disable=SC2154
    ratio=$(awk -v b="$base_rate" -v h="$head_rate" 'BEGIN { printf "%.4f", h / b }')
    echo "$ratio" >> "$work/ratios"
    echo "pair $i ($order first): events $base_events  base $base_rate ev/s  head $head_rate ev/s  head/base $ratio"
    i=$((i + 1))
done

# Median and quartiles by linear interpolation over the sorted values.
summary() { # file -> "q1 median q3 min max"
    sort -g "$1" | awk '
        { v[NR] = $1 }
        function q(p,   h, lo) {
            h = (NR - 1) * p + 1
            lo = int(h)
            return (lo >= NR) ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        END { printf "%.4f %.4f %.4f %.4f %.4f", q(0.25), q(0.5), q(0.75), v[1], v[NR] }'
}
echo
echo "# ab: $pairs pairs, perf --scale paper, events $base_events"
printf '%-6s %14s %14s %14s\n' side q1_ev_s median_ev_s q3_ev_s
for side in base head; do
    set -- $(summary "$work/$side.rates")
    printf '%-6s %14.0f %14.0f %14.0f\n' "$side" "$1" "$2" "$3"
done
set -- $(summary "$work/ratios")
printf 'head/base per-pair ratio: median %.3f, range %.3f .. %.3f\n' "$2" "$4" "$5"
