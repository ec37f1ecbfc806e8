#!/bin/sh
# Canonical local gate for this repo (recorded in ROADMAP.md). Runs the
# same checks CI would: formatting, clippy with warnings as errors, a
# release build (the workspace lints are deny-level, so this doubles as
# the compiler-warning gate), the mitt-lint determinism/invariant scan,
# the test suite (which itself re-runs the
# lint and checks its SARIF shape via tests/lint.rs, checks the traced
# example's Chrome trace, profile and folded stacks via tests/obs.rs, and
# re-runs the double-run digest check via tests/determinism.rs), every
# workspace crate's own tests, the perf benchmark's smoke test, the fault,
# chaos and timeline smoke runs, and the figure gates.
#
# This script holds only commands, exit statuses and trailer greps: every
# check of a file's contents is written once, in Rust, where the file is
# produced or parsed. A figure gate is `<fig> --bench-json <report>` then
# `mitt-obs compare <baseline> <report>` (exit 0 pass, 1 regressions,
# 2 usage or IO error).
#
# Usage: scripts/check.sh   (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

# A figure gate without its committed baseline fails rather than passing
# on a freshly written one; regenerate a baseline deliberately and commit it.
require_baseline() {
    if [ ! -f "$1" ]; then
        echo "missing committed baseline: $1" >&2
        exit 1
    fi
}

# Fails unless the output file $1 holds the trailer line $2 exactly.
require_line() {
    if ! grep -qx "$2" "$1"; then
        echo "expected '$2' in output:" >&2
        cat "$1" >&2
        exit 1
    fi
}

# Fails unless the output file $1 has a trailer `$2=<n>` with n > 0.
require_positive() {
    got="$(sed -n "s/^$2=//p" "$1")"
    if [ -z "$got" ] || [ "$got" -eq 0 ]; then
        echo "no $2 recorded (got: '${got:-missing}')" >&2
        exit 1
    fi
}

bench() {
    cargo run --quiet --release -p mitt-bench --bin "$@"
}

compare() {
    cargo run --quiet --release -p mitt-obs -- compare "$@"
}

echo "== cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    # Toolchain without rustfmt (e.g. minimal containers): skip, don't fail.
    echo "   rustfmt not installed; skipping"
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    # Toolchain without clippy: skip, don't fail.
    echo "   clippy not installed; skipping"
fi

echo "== cargo build --release"
cargo build --release

echo "== mitt-lint (ratchet + SARIF artifact)"
# The scan picks up baselines/LINT_baseline.json automatically, so this
# exits 1 if any violation fires OR any rule's waiver count grew past the
# committed baseline (rule W001). The SARIF artifact is what CI uploads;
# tests/lint.rs checks its shape.
mkdir -p results
cargo run --quiet -p mitt-lint -- --format sarif >results/lint.sarif
echo "   workspace clean; SARIF artifact at results/lint.sarif"

echo "== cargo test -q"
cargo test -q

echo "== cargo test -q --workspace"
# The root run above covers only the root package's suites; this one adds
# every member crate's unit, integration and doc tests.
cargo test -q --workspace

echo "== perf smoke (the benchmark declared in BENCHMARK.json)"
# perf is a package of its own, so the workspace test run above skips it.
# Its smoke test runs every workload at tiny size, runs the self-checks
# (every op completes, MittOS issues EBUSY and beats Base at p99) and
# checks the metric names against BENCHMARK.json: an engine change that
# breaks the benchmark's use of the simulator API fails here.
# Building perf offline rewrites its own Cargo.lock whenever a workspace
# crate's dependencies changed since it was committed; put it back, as
# scripts/perf_pairs.sh does, so the gate leaves the frozen benchmark
# directory as it found it, pass or fail.
perf_lock=crates/bench/src/bin/perf/Cargo.lock
perf_lock_copy="$(mktemp)"
cp "$perf_lock" "$perf_lock_copy"
perf_ok=1
cargo test -q --offline --manifest-path crates/bench/src/bin/perf/Cargo.toml || perf_ok=0
cmp -s "$perf_lock_copy" "$perf_lock" || cp "$perf_lock_copy" "$perf_lock"
rm -f "$perf_lock_copy"
[ "$perf_ok" -eq 1 ] || exit 1

tmp="$(mktemp -d /tmp/check.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

echo "== trace_run smoke (Chrome trace export + mitt-prof profile)"
# tests/obs.rs checks the three files' contents; this runs the example
# as a user would.
cargo run --quiet --release --example trace_run -- "$tmp/trace.json" >/dev/null
echo "   wrote trace, mitt-prof/v1 profile and folded stacks"

echo "== fig_faults smoke (fault injection)"
# A short faulted sweep: must complete without panics and actually inject.
# 150 ops x ~7ms spans the 500ms-onward fault windows; fewer ops would end
# the run before the first fault fires.
MITT_OPS=150 bench fig_faults >"$tmp/faults.txt"
require_positive "$tmp/faults.txt" injected_faults
echo "   faults injected, zero panics"

echo "== fig_chaos smoke (randomized robustness invariants)"
# Seed-generated chaos plans (3 seeds x 3 plans): correlated rack/zone
# windows and gray failures must inject, every run must pass the
# invariant catalogue (no stranded ops, bounded unavailability, legal
# breaker transitions, full attribution), the same-seed double run must
# digest byte-identically, and the bench report must hold all 27 rows and
# parse. The binary exits 1 on any violation; the greps below also fail
# loudly if the trailers ever disappear.
MITT_OPS=60 bench fig_chaos -- --quiet --bench-json "$tmp/chaos.json" >"$tmp/chaos.txt"
for want in 'plans=9' 'invariant_violations=0' 'double_run_digest_match=1'; do
    require_line "$tmp/chaos.txt" "$want"
done
for counter in correlated_windows gray_windows; do
    require_positive "$tmp/chaos.txt" "$counter"
done
echo "   9 chaos plans, zero invariant violations, digest-stable double run"

echo "== figure gates: fig9, fig5, fig11, fig13 vs baselines/BENCH_<fig>.json"
# Each figure writes its report, and `mitt-obs compare` parses both files
# and flags latency and calibration regressions and every baseline row
# missing from the run. The sim is deterministic, so a drift here means a
# real behavioral change: regenerate the baseline deliberately. fig9 runs
# its 8 s smoke horizon; fig5, fig11 and fig13 run at default scale, where
# MittOS issues EBUSY. An empty MITT_OPS means the binary's default.
for fig in fig9 fig5 fig11 fig13; do
    baseline="baselines/BENCH_${fig}.json"
    require_baseline "$baseline"
    if [ "$fig" = fig9 ]; then ops=8; else ops=; fi
    MITT_OPS="$ops" bench "$fig" -- --quiet --bench-json "$tmp/$fig.json" >/dev/null
    compare "$baseline" "$tmp/$fig.json"
done

echo "== fig9 mutation: a degraded predictor must fail the gate"
# --degrade injects a whole-run PredictorBias fault. The compare must exit
# exactly 1 (regressions); 0 would mean the gate cannot fail, and 2 is a
# usage or IO error, not a caught regression. All 12 regressions it
# produces are calibration rows: on fig9's micro cluster MittOS issues no
# EBUSY, so its `base` and `mittos` latency rows read the same under the
# bias and cannot fail until fig9 gets a contended config (ROADMAP item 1).
# This step gates the calibration rows only; it is not a latency gate.
MITT_OPS=8 bench fig9 -- --quiet --degrade --bench-json "$tmp/fig9_degraded.json" >/dev/null
status=0
compare baselines/BENCH_fig9.json "$tmp/fig9_degraded.json" >"$tmp/degraded.txt" || status=$?
if [ "$status" -ne 1 ]; then
    echo "degraded fig9: mitt-obs compare exited $status, expected 1:" >&2
    cat "$tmp/degraded.txt" >&2
    exit 1
fi
echo "   $(head -n 1 "$tmp/degraded.txt")"

echo "== fig_timeline smoke (mitt-tsl timelines + burn-rate alerts)"
# Windowed timelines + SLO burn-rate alerting under a generated fault
# plan: at least one fast-burn alert must fire, at least one alert span
# must overlap an injected fault window, the same-seed double run must
# reproduce the mitt-tsl/v1 export byte-for-byte, and the export must
# carry a windowed timeline, a fast-burn alert, a flight-recorder dump and
# the run's mitt-bench/v1 report (the binary exits 1 on any of those
# itself; the greps fail loudly if the trailers ever disappear). `mitt-obs
# compare` gates the export directly against the committed baseline,
# exercising the embedded-report path of the report parser.
tl_json="results/timeline.json"
tl_baseline="baselines/BENCH_timeline.json"
require_baseline "$tl_baseline"
MITT_OPS=120 bench fig_timeline -- --quiet --tsl-json "$tl_json" >"$tmp/timeline.txt"
require_line "$tmp/timeline.txt" 'double_run_tsl_identical=1'
for counter in fast_burn_alerts_mittos alert_overlap_mittos flight_dumps; do
    require_positive "$tmp/timeline.txt" "$counter"
done
compare "$tl_baseline" "$tl_json"

echo "ok: all checks passed"
