#!/usr/bin/env bash
# Wall time per figure binary, alternating between two source trees.
#
# Usage: scripts/fig_times.sh PARENT_DIR CHANGE_DIR ROUNDS
#
# Builds the mitt-bench release binaries of each tree (ideally two
# `git clone`s, the parent commit and the change), then runs ROUNDS
# rounds. A round runs every figure binary (each
# `crates/bench/src/bin/*.rs` that both trees have) once per tree,
# alternating which tree goes first, at its default scale, with its output
# discarded. Prints one row per binary: its median wall time in seconds on
# each side and the ratio change/parent (below 1 is faster). A binary that
# exits non-zero stops the script.
#
# Nothing is written into either tree beyond cargo's build output:
# builds go to a target directory under OUT_DIR (default: a fresh
# temporary directory), the binaries run from a working directory there,
# and cargo's rewrite of a tree's Cargo.lock, if any, is undone after the
# build.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR ROUNDS" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
rounds=$3
out=${OUT_DIR:-$(mktemp -d)}
mkdir -p "$out/run"

# build TREE SIDE: builds TREE's mitt-bench binaries into
# $out/target-SIDE, leaving the tree's Cargo.lock as it was.
build() {
    local tree=$1 side=$2
    cp "$tree/Cargo.lock" "$out/Cargo.lock.$side"
    CARGO_TARGET_DIR="$out/target-$side" cargo build --release -q --offline \
        --manifest-path "$tree/Cargo.toml" -p mitt-bench --bins
    cmp -s "$tree/Cargo.lock" "$out/Cargo.lock.$side" ||
        cp "$out/Cargo.lock.$side" "$tree/Cargo.lock"
}

# time_run SIDE BIN: runs one binary from the scratch working directory
# and appends "BIN SIDE SECONDS" to $out/times.
time_run() {
    local side=$1 bin=$2 start end
    start=$(date +%s%N)
    (cd "$out/run" && "$out/target-$side/release/$bin" >/dev/null 2>&1) || {
        echo "$side $bin exited non-zero" >&2
        exit 1
    }
    end=$(date +%s%N)
    echo "$bin $side $(((end - start) / 1000))" >>"$out/times"
}

# median VALUES...: the median (linear interpolation).
median() {
    printf '%s\n' "$@" | sort -g | awk '
        { v[NR - 1] = $1 }
        END { h = (NR - 1) / 2; i = int(h); print i + 1 < NR ? v[i] + (h - i) * (v[i + 1] - v[i]) : v[i] }'
}

bins=()
for src in "$change"/crates/bench/src/bin/*.rs; do
    name=$(basename "$src" .rs)
    [ -f "$parent/crates/bench/src/bin/$name.rs" ] && bins+=("$name")
done

echo "# building $parent"
build "$parent" parent
echo "# building $change"
build "$change" change
echo "# ${#bins[@]} figure binaries, $rounds rounds; results in $out"
: >"$out/times"
for r in $(seq 1 "$rounds"); do
    for bin in "${bins[@]}"; do
        if [ $((r % 2)) -eq 1 ]; then
            time_run parent "$bin"
            time_run change "$bin"
        else
            time_run change "$bin"
            time_run parent "$bin"
        fi
    done
done
printf '%-16s %10s %10s %7s\n' binary parent_s change_s ratio
for bin in "${bins[@]}"; do
    x=$(median $(awk -v b="$bin" '$1 == b && $2 == "parent" { print $3 }' "$out/times"))
    y=$(median $(awk -v b="$bin" '$1 == b && $2 == "change" { print $3 }' "$out/times"))
    awk -v b="$bin" -v x="$x" -v y="$y" 'BEGIN {
        printf "%-16s %10.3f %10.3f %7.3f\n", b, x / 1e6, y / 1e6, y / x
    }'
done
