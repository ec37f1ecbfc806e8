#!/usr/bin/env bash
# Alternating `perf` pairs between two source trees.
#
# Usage: scripts/perf_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SECONDS PAIRS [SEED]
#
# Builds the `perf` benchmark of each tree (ideally two `git clone`s, the
# parent commit and the change), then runs PAIRS pairs of
# `perf --workload WORKLOAD --seconds SECONDS [--seed SEED]`, one run of
# each tree per pair, alternating which tree goes first. Prints every
# pair's gets/s, each side's median and quartiles, how many pairs the
# change won (higher gets/s wins), and a verdict line: "claim met" when
# there were at least 10 pairs, the change won at least 9/10 of them and
# its median beats the parent's by more than the parent's interquartile
# range, else "claim not met". Then each side's peak_heap_mb median and a
# "peak_heap_mb claim met" line when there were at least 10 pairs and the
# change's peak heap was strictly below the parent's in every one (else
# "peak_heap_mb claim not met"). Then each side's setup_s median and
# quartiles, with the change in the setup_s median relative to the
# parent's. Then the same verdict for setup_s, pair by pair: each run's
# setup_s is the median of its timed repetitions, the pair goes to the
# lower one, and "setup_s claim met" needs at least 10 pairs, 9/10 won
# and a gap between the sides' medians of those per-run values wider
# than the parent's interquartile range of them.
#
# The virtual-time metrics (p50_ms, p99_ms, tail_cut_pct, slo_miss_pct)
# are read from each run's --json file; if the two trees' runs of any pair
# disagree on one of them, the script says which and exits 1 after the
# summary. Speed changes must leave them byte-identical.
#
# Each run's last line also carries "correct" (its self-checks passed)
# and "failed" (operations that failed or never completed). After the
# summary the script prints each side's total failed ops, and exits 1 if
# any run reported "correct": false or the change failed more ops than
# the parent.
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

# run SIDE PAIR: one perf run; keeps its last line in $out/SIDE.PAIR.last
# and prints its gets/s. perf exits 1 when a self-check fails; that run's
# "correct": false is judged after the summary.
run() {
    local side=$1 pair=$2 json="$out/$1.$2.json" last="$out/$1.$2.last"
    "$out/target-$side/release/perf" --workload "$workload" --seconds "$seconds" \
        "${seed_args[@]}" --json "$json" | tail -n 1 >"$last" || true
    sed -n 's/.*"gets_per_s": {"value": \([0-9.eE+-]*\).*/\1/p' "$last"
}

# outcome LAST: a run's "correct" and "failed" values, from its last line.
outcome() {
    sed -n 's/^{"correct": \([a-z]*\), "attempted": [0-9]*, "failed": \([0-9]*\),.*/\1 \2/p' "$1"
}

# metric JSON NAME: the values of metric NAME in a perf --json file, one
# per line, exactly as written.
metric() {
    sed -n "s/.*\"$2\": {.*\"values\": \[\(.*\)\]}.*/\1/p" "$1" | tr -s ', ' '\n\n'
}

# quartiles VALUES...: median, q1 and q3 (linear interpolation), one line.
quartiles() {
    printf '%s\n' "$@" | sort -g | awk '
        { v[NR - 1] = $1 }
        function q(p,   h, i) {
            h = (NR - 1) * p; i = int(h)
            return i + 1 < NR ? v[i] + (h - i) * (v[i + 1] - v[i]) : v[i]
        }
        END { printf "%.17g %.17g %.17g\n", q(0.5), q(0.25), q(0.75) }'
}

# summary NAME DIGITS VALUES...: median, quartiles and IQR with DIGITS
# decimals.
summary() {
    local name=$1 digits=$2
    shift 2
    quartiles "$@" | awk -v name="$name" -v d="$digits" '{
        f = "%." d "f"
        printf "%-7s median " f "  q1 " f "  q3 " f "  iqr " f "\n", name, $1, $2, $3, $3 - $2
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
setup_a=()
setup_b=()
setup_med_a=()
setup_med_b=()
setup_wins=0
heap_wins=0
wins=0
drift=0
failed_a=0
failed_b=0
incorrect=0
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
    for side in parent change; do
        read -r correct failed < <(outcome "$out/$side.$i.last") || true
        if [ "${correct:-}" != true ]; then
            echo "pair $i: $side run reported \"correct\": ${correct:-missing}" >&2
            incorrect=$((incorrect + 1))
        fi
        if [ "$side" = parent ]; then
            failed_a=$((failed_a + ${failed:-0}))
        else
            failed_b=$((failed_b + ${failed:-0}))
        fi
    done
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
    hx=$(metric "$out/parent.$i.json" peak_heap_mb | sort -g | tail -n 1)
    hy=$(metric "$out/change.$i.json" peak_heap_mb | sort -g | tail -n 1)
    heap_won=$(awk -v x="$hx" -v y="$hy" 'BEGIN { print (x != "" && y != "" && y < x) ? 1 : 0 }')
    heap_wins=$((heap_wins + heap_won))
    mapfile -t -O "${#setup_a[@]}" setup_a < <(metric "$out/parent.$i.json" setup_s)
    mapfile -t -O "${#setup_b[@]}" setup_b < <(metric "$out/change.$i.json" setup_s)
    mapfile -t run_setup < <(metric "$out/parent.$i.json" setup_s)
    sx=$(quartiles "${run_setup[@]}" | cut -d' ' -f1)
    mapfile -t run_setup < <(metric "$out/change.$i.json" setup_s)
    sy=$(quartiles "${run_setup[@]}" | cut -d' ' -f1)
    setup_med_a+=("$sx")
    setup_med_b+=("$sy")
    setup_won=$(awk -v x="$sx" -v y="$sy" 'BEGIN { print (y < x) ? 1 : 0 }')
    setup_wins=$((setup_wins + setup_won))
    won=$(awk -v x="$x" -v y="$y" 'BEGIN { print (y > x) ? 1 : 0 }')
    wins=$((wins + won))
    awk -v i="$i" -v x="$x" -v y="$y" 'BEGIN {
        printf "pair %2d  parent %.1f  change %.1f  %+.1f%%\n", i, x, y, 100 * (y - x) / x
    }'
done
summary parent 2 "${a[@]}"
summary change 2 "${b[@]}"
echo "change won $wins/$pairs pairs"
awk -v wins="$wins" -v pairs="$pairs" -v a="$(quartiles "${a[@]}")" \
    -v b="$(quartiles "${b[@]}")" 'BEGIN {
    split(a, pa, " "); split(b, pb, " ")
    gap = pb[1] - pa[1]; iqr = pa[3] - pa[2]
    met = pairs >= 10 && 10 * wins >= 9 * pairs && gap > iqr
    printf "claim %s: won %d/%d pairs (needs 10+ pairs, 9/10 won), median gap %.2f vs parent iqr %.2f\n",
        met ? "met" : "not met", wins, pairs, gap, iqr
}'
echo "# peak_heap_mb"
summary parent 2 "${heap_a[@]}"
summary change 2 "${heap_b[@]}"
awk -v wins="$heap_wins" -v pairs="$pairs" 'BEGIN {
    met = pairs >= 10 && wins == pairs
    printf "peak_heap_mb claim %s: change lower in %d/%d pairs (needs 10+ pairs, lower in every one)\n",
        met ? "met" : "not met", wins, pairs
}'
echo "# setup_s (every timed run of every pair)"
summary parent 4 "${setup_a[@]}"
summary change 4 "${setup_b[@]}"
awk -v x="$(quartiles "${setup_a[@]}" | cut -d' ' -f1)" \
    -v y="$(quartiles "${setup_b[@]}" | cut -d' ' -f1)" \
    'BEGIN { printf "setup_s median change %+.1f%%\n", 100 * (y - x) / x }'
echo "change won $setup_wins/$pairs pairs on setup_s (each run's median, lower wins)"
awk -v wins="$setup_wins" -v pairs="$pairs" -v a="$(quartiles "${setup_med_a[@]}")" \
    -v b="$(quartiles "${setup_med_b[@]}")" 'BEGIN {
    split(a, pa, " "); split(b, pb, " ")
    gap = pa[1] - pb[1]; iqr = pa[3] - pa[2]
    met = pairs >= 10 && 10 * wins >= 9 * pairs && gap > iqr
    printf "setup_s claim %s: won %d/%d pairs (needs 10+ pairs, 9/10 won), median gap %.4f vs parent iqr %.4f\n",
        met ? "met" : "not met", wins, pairs, gap, iqr
}'
echo "# failed ops (every run of every pair)"
echo "parent  $failed_a"
echo "change  $failed_b"
status=0
if [ "$drift" -ne 0 ]; then
    echo "virtual-time metrics differ between the trees (see above)" >&2
    status=1
else
    echo "p50_ms, p99_ms, tail_cut_pct and slo_miss_pct identical in every pair"
fi
if [ "$incorrect" -ne 0 ]; then
    echo "$incorrect runs reported \"correct\": false (see above)" >&2
    status=1
fi
if [ "$failed_b" -gt "$failed_a" ]; then
    echo "the change failed more ops than the parent ($failed_b vs $failed_a)" >&2
    status=1
fi
exit "$status"
