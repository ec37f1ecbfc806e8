#!/bin/sh
# Canonical local gate for this repo (recorded in ROADMAP.md). Runs the
# same checks CI would: formatting, a release build (the workspace lints
# are deny-level, so this doubles as the warning gate), the mitt-lint
# determinism/invariant scan, the test suite (which itself re-runs the
# lint via tests/lint.rs and the double-run digest check via
# tests/determinism.rs), every workspace crate's own tests, the perf
# benchmark's smoke test, a traced and profiled run whose Chrome trace,
# mitt-prof/v1 profile and folded stacks are validated, and the figure
# gates, each compared against its committed baseline.
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

echo "== cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    # Toolchain without rustfmt (e.g. minimal containers): skip, don't fail.
    echo "   rustfmt not installed; skipping"
fi

echo "== cargo build --release"
cargo build --release

echo "== mitt-lint (ratchet + SARIF artifact)"
# The scan picks up baselines/LINT_baseline.json automatically, so this
# exits 1 if any violation fires OR any rule's waiver count grew past the
# committed baseline (rule W001). The SARIF artifact is what CI uploads.
mkdir -p results
cargo run --quiet -p mitt-lint -- --format sarif >results/lint.sarif
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .version == "2.1.0"
        and (.runs[0].tool.driver.name == "mitt-lint")
        and (.runs[0].tool.driver.rules | length >= 9)
        and (.runs[0].results | length == 0)
    ' results/lint.sarif >/dev/null
else
    python3 -c "
import json, sys
d = json.load(open('results/lint.sarif'))
assert d['version'] == '2.1.0'
drv = d['runs'][0]['tool']['driver']
assert drv['name'] == 'mitt-lint' and len(drv['rules']) >= 9
assert d['runs'][0]['results'] == []
"
fi
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

echo "== trace_run smoke (Chrome trace export + mitt-prof profile)"
# The example writes the trace to the path given and, beside it, the run's
# mitt-prof/v1 profile (<out>.prof.json) and folded stacks (<out>.folded).
trace_out="$(mktemp /tmp/trace_run.XXXXXX.json)"
prof_out="${trace_out%.json}.prof.json"
folded_out="${trace_out%.json}.folded"
faults_out=""
bench_out=""
chaos_out=""
chaos_json=""
tl_out=""
trap 'rm -f "$trace_out" "$prof_out" "$folded_out" "$faults_out" "$bench_out" "$chaos_out" "$chaos_json" "$tl_out"' EXIT
cargo run --quiet --release --example trace_run -- "$trace_out" >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '.traceEvents | length > 0' "$trace_out" >/dev/null
    # mitt-obs: the export must carry calibration counter tracks (ph "C")
    # and the per-hop network events from the cluster sim.
    jq -e '[.traceEvents[] | select(.ph == "C")] | length > 0' "$trace_out" >/dev/null
    jq -e '[.traceEvents[] | select(.name == "net_hop")] | length > 0' "$trace_out" >/dev/null
else
    # No jq (e.g. minimal containers): settle for python's JSON parser.
    python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
assert d['traceEvents']
assert any(e.get('ph') == 'C' for e in d['traceEvents']), 'no counter tracks'
assert any(e.get('name') == 'net_hop' for e in d['traceEvents']), 'no net_hop events'
" "$trace_out"
fi
echo "   exported trace is well-formed JSON with counters and net hops"
# Every phase row carries its timed-activation count, and dispatch was
# sampled: some but not all of its activations timed. Wall-clock numbers
# are never gated (they would flake); perf's gets_per_s measures speed.
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .schema == "mitt-prof/v1"
        and (.phases | length == 7)
        and (.alloc | length == 7)
        and (.ios_submitted > 0)
        and (.events_dispatched > 0)
        and (.phases | all(has("timed") and .timed <= .count))
        and ([.phases[] | select(.phase == "dispatch")]
             | all(.timed > 0 and .timed < .count))
    ' "$prof_out" >/dev/null
else
    python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
assert d['schema'] == 'mitt-prof/v1'
assert len(d['phases']) == 7 and len(d['alloc']) == 7
assert d['ios_submitted'] > 0 and d['events_dispatched'] > 0
assert all('timed' in p and p['timed'] <= p['count'] for p in d['phases'])
dispatch = next(p for p in d['phases'] if p['phase'] == 'dispatch')
assert 0 < dispatch['timed'] < dispatch['count']
" "$prof_out"
fi
test -s "$folded_out"
grep -q '^engine;dispatch ' "$folded_out"
echo "   mitt-prof/v1 profile and folded stacks are well-formed"

echo "== fig_faults smoke (fault injection)"
# A short faulted sweep: must complete without panics and actually inject.
# 150 ops x ~7ms spans the 500ms-onward fault windows; fewer ops would end
# the run before the first fault fires.
faults_out="$(mktemp /tmp/fig_faults.XXXXXX.txt)"
MITT_OPS=150 cargo run --quiet --release -p mitt-bench --bin fig_faults >"$faults_out"
injected="$(sed -n 's/^injected_faults=//p' "$faults_out")"
if [ -z "$injected" ] || [ "$injected" -eq 0 ]; then
    echo "fig_faults injected no faults (got: '${injected:-missing}')" >&2
    exit 1
fi
echo "   injected $injected faults, zero panics"

echo "== fig_chaos smoke (randomized robustness invariants)"
# Seed-generated chaos plans (3 seeds x 3 plans): correlated rack/zone
# windows and gray failures must inject, every run must pass the
# invariant catalogue (no stranded ops, bounded unavailability, legal
# breaker transitions, full attribution), and the same-seed double run
# must digest byte-identically. The binary exits 1 on any violation;
# the greps below also fail loudly if the trailers ever disappear.
chaos_out="$(mktemp /tmp/fig_chaos.XXXXXX.txt)"
chaos_json="$(mktemp /tmp/BENCH_fig_chaos.XXXXXX.json)"
MITT_OPS=60 cargo run --quiet --release -p mitt-bench --bin fig_chaos -- \
    --quiet --bench-json "$chaos_json" >"$chaos_out"
for want in 'plans=9' 'invariant_violations=0' 'double_run_digest_match=1'; do
    if ! grep -qx "$want" "$chaos_out"; then
        echo "fig_chaos: expected '$want' in output:" >&2
        cat "$chaos_out" >&2
        exit 1
    fi
done
for counter in correlated_windows gray_windows; do
    got="$(sed -n "s/^$counter=//p" "$chaos_out")"
    if [ -z "$got" ] || [ "$got" -eq 0 ]; then
        echo "fig_chaos: no $counter activated (got: '${got:-missing}')" >&2
        exit 1
    fi
done
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .schema == "mitt-bench/v1"
        and (.strategies | length == 27)
        and (.strategies | all(.p95_ms >= 0 and .p99_ms >= .p50_ms))
    ' "$chaos_json" >/dev/null
else
    python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
assert d['schema'] == 'mitt-bench/v1'
assert len(d['strategies']) == 27
assert all(s['p99_ms'] >= s['p50_ms'] >= 0 for s in d['strategies'])
" "$chaos_json"
fi
echo "   9 chaos plans, zero invariant violations, digest-stable double run"

echo "== fig9 bench-json gate (machine-readable baseline)"
# A short deterministic fig9 run writes BENCH_fig9.json; the committed
# baseline (generated at the same MITT_OPS scale) gates regressions in
# latency and predictor calibration.
bench_out="$(mktemp /tmp/BENCH_fig9.XXXXXX.json)"
bench_baseline="baselines/BENCH_fig9.json"
require_baseline "$bench_baseline"
MITT_OPS=8 cargo run --quiet --release -p mitt-bench --bin fig9 -- \
    --quiet --bench-json "$bench_out" --baseline "$bench_baseline" >/dev/null
echo "   report matches $bench_baseline within thresholds"
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .schema == "mitt-bench/v1"
        and (.strategies | length >= 2)
        and (.strategies | all(.p95_ms >= 0 and .p99_ms >= .p50_ms))
        and (.calibration | length > 0)
        and (.calibration | any(.predictor | test("^mitt(cfq|ssd)")))
    ' "$bench_out" >/dev/null
else
    python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
assert d['schema'] == 'mitt-bench/v1'
assert len(d['strategies']) >= 2 and len(d['calibration']) > 0
assert all(s['p99_ms'] >= s['p50_ms'] >= 0 for s in d['strategies'])
" "$bench_out"
fi
echo "   bench report conforms to the mitt-bench/v1 schema"

echo "== fig5/fig11/fig13 bench-json gates"
# Per-strategy latency baselines for the headline figures, at the same
# MITT_OPS=8 smoke scale. The sim is deterministic, so a drift here means
# a real behavioral change — regenerate the baseline deliberately.
for fig in fig5 fig11 fig13; do
    fig_out="$(mktemp "/tmp/BENCH_${fig}.XXXXXX.json")"
    fig_baseline="baselines/BENCH_${fig}.json"
    require_baseline "$fig_baseline"
    MITT_OPS=8 cargo run --quiet --release -p mitt-bench --bin "$fig" -- \
        --bench-json "$fig_out" --baseline "$fig_baseline" >/dev/null
    echo "   $fig matches $fig_baseline within thresholds"
    if command -v jq >/dev/null 2>&1; then
        jq -e '
            .schema == "mitt-bench/v1"
            and (.strategies | length >= 2)
            and (.strategies | all(.p95_ms >= 0 and .p99_ms >= .p50_ms))
        ' "$fig_out" >/dev/null
    else
        python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
assert d['schema'] == 'mitt-bench/v1'
assert len(d['strategies']) >= 2
assert all(s['p99_ms'] >= s['p50_ms'] >= 0 for s in d['strategies'])
" "$fig_out"
    fi
    rm -f "$fig_out"
done

echo "== fig_timeline smoke (mitt-tsl timelines + burn-rate alerts)"
# Windowed timelines + SLO burn-rate alerting under a generated fault
# plan: at least one fast-burn alert must fire, at least one alert span
# must overlap an injected fault window, and the same-seed double run
# must reproduce the mitt-tsl/v1 export byte-for-byte (the binary exits
# 1 on any of those itself; the greps fail loudly if the trailers ever
# disappear). The export embeds the run's mitt-bench/v1 report as its
# "bench" section, and `mitt-obs compare` gates the timeline export
# *directly* against the committed baseline — exercising the
# unknown-schema skip path in the report parser.
mkdir -p results
tl_json="results/timeline.json"
tl_out="$(mktemp /tmp/fig_timeline.XXXXXX.txt)"
tl_baseline="baselines/BENCH_timeline.json"
require_baseline "$tl_baseline"
MITT_OPS=120 cargo run --quiet --release -p mitt-bench --bin fig_timeline -- \
    --quiet --tsl-json "$tl_json" >"$tl_out"
if ! grep -qx 'double_run_tsl_identical=1' "$tl_out"; then
    echo "fig_timeline: expected 'double_run_tsl_identical=1' in output:" >&2
    cat "$tl_out" >&2
    exit 1
fi
for counter in fast_burn_alerts_mittos alert_overlap_mittos flight_dumps; do
    got="$(sed -n "s/^$counter=//p" "$tl_out")"
    if [ -z "$got" ] || [ "$got" -eq 0 ]; then
        echo "fig_timeline: no $counter recorded (got: '${got:-missing}')" >&2
        exit 1
    fi
done
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .schema == "mitt-tsl/v1"
        and (.timelines | length >= 1)
        and (.timelines[0].windows | length >= 1)
        and (.alerts | length >= 1)
        and (.alerts | any(.kind == "fast_burn"))
        and (.flight_recorder | length >= 1)
        and (.bench.schema == "mitt-bench/v1")
    ' "$tl_json" >/dev/null
else
    python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
assert d['schema'] == 'mitt-tsl/v1'
assert len(d['timelines']) >= 1 and len(d['timelines'][0]['windows']) >= 1
assert any(a['kind'] == 'fast_burn' for a in d['alerts'])
assert len(d['flight_recorder']) >= 1
assert d['bench']['schema'] == 'mitt-bench/v1'
" "$tl_json"
fi
echo "   mitt-tsl/v1 export is well-formed, alerts overlap injected windows"
cargo run --quiet --release -p mitt-obs -- compare "$tl_baseline" "$tl_json"
echo "   embedded bench report matches $tl_baseline within thresholds"

echo "ok: all checks passed"
