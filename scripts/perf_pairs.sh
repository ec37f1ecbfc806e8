#!/usr/bin/env bash
# Alternating `perf` pairs between two source trees.
#
# Usage: scripts/perf_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SECONDS PAIRS [SEED]
#
# Builds the `perf` benchmark of each tree (ideally two `git clone`s, the
# parent commit and the change), then runs PAIRS pairs of
# `perf --workload WORKLOAD --seconds SECONDS [--seed SEED]`, one run of
# each tree per pair, alternating which tree goes first. Prints every
# pair's gets/s, each side's median and quartiles, and how many pairs the
# change won (higher gets/s wins), then each side's peak_heap_mb median.
#
# The virtual-time metrics (p50_ms, p99_ms, tail_cut_pct, slo_miss_pct)
# are read from each run's --json file; if the two trees' runs of any pair
# disagree on one of them, the script says which and exits 1 after the
# summary. Speed changes must leave them byte-identical.
#
# Nothing is written into either tree beyond cargo's build output: builds
# go to a target directory under OUT_DIR (default: a fresh temporary
# directory; set OUT_DIR to keep the per-run JSON files), and cargo's
# rewrite of the benchmark's own Cargo.lock, if any, is undone after the
# build.
set -euo pipefail

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SECONDS PAIRS [SEED]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
seconds=$4
pairs=$5
seed_args=()
if [ $# -eq 6 ]; then
    seed_args=(--seed "$6")
fi
out=${OUT_DIR:-$(mktemp -d)}
mkdir -p "$out"

perf_dir=crates/bench/src/bin/perf

# build TREE SIDE: builds TREE's perf into $out/target-SIDE, leaving the
# tree's Cargo.lock as it was.
build() {
    local tree=$1 side=$2 lock="$1/$perf_dir/Cargo.lock"
    cp "$lock" "$out/Cargo.lock.$side"
    CARGO_TARGET_DIR="$out/target-$side" cargo build --release -q --offline \
        --manifest-path "$tree/$perf_dir/Cargo.toml"
    cmp -s "$lock" "$out/Cargo.lock.$side" || cp "$out/Cargo.lock.$side" "$lock"
}

# run SIDE PAIR: one perf run; prints its gets/s.
run() {
    local side=$1 pair=$2 json="$out/$1.$2.json"
    "$out/target-$side/release/perf" --workload "$workload" --seconds "$seconds" \
        "${seed_args[@]}" --json "$json" | tail -n 1 |
        sed -n 's/.*"gets_per_s": {"value": \([0-9.eE+-]*\).*/\1/p'
}

# metric JSON NAME: the values of metric NAME in a perf --json file, one
# per line, exactly as written.
metric() {
    sed -n "s/.*\"$2\": {.*\"values\": \[\(.*\)\]}.*/\1/p" "$1" | tr -s ', ' '\n\n'
}

# summary NAME VALUES...: median and quartiles (linear interpolation).
summary() {
    local name=$1
    shift
    printf '%s\n' "$@" | sort -g | awk -v name="$name" '
        { v[NR - 1] = $1 }
        function q(p,   h, i) {
            h = (NR - 1) * p; i = int(h)
            return i + 1 < NR ? v[i] + (h - i) * (v[i + 1] - v[i]) : v[i]
        }
        END {
            printf "%-7s median %.2f  q1 %.2f  q3 %.2f  iqr %.2f\n",
                name, q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25)
        }'
}

echo "# building $parent"
build "$parent" parent
echo "# building $change"
build "$change" change

echo "# $workload, $seconds s per run, $pairs pairs${6:+, seed $6}; results in $out"
a=()
b=()
heap_a=()
heap_b=()
wins=0
drift=0
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        x=$(run parent "$i")
        y=$(run change "$i")
    else
        y=$(run change "$i")
        x=$(run parent "$i")
    fi
    if [ -z "$x" ] || [ -z "$y" ]; then
        echo "pair $i: a run printed no gets_per_s (see $out)" >&2
        exit 1
    fi
    a+=("$x")
    b+=("$y")
    for m in p50_ms p99_ms tail_cut_pct slo_miss_pct; do
        px=$(metric "$out/parent.$i.json" "$m")
        cy=$(metric "$out/change.$i.json" "$m")
        if [ -z "$px" ] || [ "$px" != "$cy" ]; then
            echo "pair $i: $m differs: parent [$px] change [$cy]" >&2
            drift=1
        fi
    done
    mapfile -t -O "${#heap_a[@]}" heap_a < <(metric "$out/parent.$i.json" peak_heap_mb)
    mapfile -t -O "${#heap_b[@]}" heap_b < <(metric "$out/change.$i.json" peak_heap_mb)
    won=$(awk -v x="$x" -v y="$y" 'BEGIN { print (y > x) ? 1 : 0 }')
    wins=$((wins + won))
    awk -v i="$i" -v x="$x" -v y="$y" 'BEGIN {
        printf "pair %2d  parent %.1f  change %.1f  %+.1f%%\n", i, x, y, 100 * (y - x) / x
    }'
done
summary parent "${a[@]}"
summary change "${b[@]}"
echo "change won $wins/$pairs pairs"
echo "# peak_heap_mb"
summary parent "${heap_a[@]}"
summary change "${heap_b[@]}"
if [ "$drift" -ne 0 ]; then
    echo "virtual-time metrics differ between the trees (see above)" >&2
    exit 1
fi
echo "p50_ms, p99_ms, tail_cut_pct and slo_miss_pct identical in every pair"
