#!/bin/sh
# Canonical local gate for this repo (recorded in ROADMAP.md). Runs the
# same checks CI would: formatting, a release build (the workspace lints
# are deny-level, so this doubles as the warning gate), the mitt-lint
# determinism/invariant scan, the test suite (which itself re-runs the
# lint via tests/lint.rs and the double-run digest check via
# tests/determinism.rs), every workspace crate's own tests, the perf
# benchmark's smoke test, and a traced-run smoke test that exports a Chrome
# trace and validates it as JSON.
#
# Usage: scripts/check.sh   (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

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
        and (.runs[0].tool.driver.rules | length >= 12)
        and (.runs[0].results | length == 0)
    ' results/lint.sarif >/dev/null
else
    python3 -c "
import json, sys
d = json.load(open('results/lint.sarif'))
assert d['version'] == '2.1.0'
drv = d['runs'][0]['tool']['driver']
assert drv['name'] == 'mitt-lint' and len(drv['rules']) >= 12
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
cargo test -q --offline --manifest-path crates/bench/src/bin/perf/Cargo.toml

echo "== trace_run smoke (Chrome trace export)"
trace_out="$(mktemp /tmp/trace_run.XXXXXX.json)"
faults_out=""
bench_out=""
thr_out=""
prof_out=""
folded_out=""
chaos_out=""
chaos_json=""
trap 'rm -f "$trace_out" "$faults_out" "$bench_out" "$thr_out" "$prof_out" "$folded_out" "$chaos_out" "$chaos_json"' EXIT
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
# latency and predictor calibration. First run commits the baseline.
bench_out="$(mktemp /tmp/BENCH_fig9.XXXXXX.json)"
bench_baseline="baselines/BENCH_fig9.json"
if [ -f "$bench_baseline" ]; then
    MITT_OPS=8 cargo run --quiet --release -p mitt-bench --bin fig9 -- \
        --quiet --bench-json "$bench_out" --baseline "$bench_baseline" >/dev/null
    echo "   report matches $bench_baseline within thresholds"
else
    MITT_OPS=8 cargo run --quiet --release -p mitt-bench --bin fig9 -- \
        --quiet --bench-json "$bench_out" >/dev/null
    mkdir -p baselines
    cp "$bench_out" "$bench_baseline"
    echo "   no baseline found; committed $bench_baseline (check it in)"
fi
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
    if [ -f "$fig_baseline" ]; then
        MITT_OPS=8 cargo run --quiet --release -p mitt-bench --bin "$fig" -- \
            --bench-json "$fig_out" --baseline "$fig_baseline" >/dev/null
        echo "   $fig matches $fig_baseline within thresholds"
    else
        MITT_OPS=8 cargo run --quiet --release -p mitt-bench --bin "$fig" -- \
            --bench-json "$fig_out" >/dev/null
        mkdir -p baselines
        cp "$fig_out" "$fig_baseline"
        echo "   no baseline found; committed $fig_baseline (check it in)"
    fi
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

echo "== fig_throughput smoke (mitt-prof profile + throughput baseline)"
# A small traced+profiled cluster run: validates the mitt-prof/v1 JSON
# artifact, the folded-stack export, and gates the deterministic
# virtual-time report against baselines/BENCH_throughput.json via
# `mitt-obs compare` (wall-clock throughput itself is never gated — it
# would flake; it lives only in the profile artifact and EXPERIMENTS.md).
thr_out="$(mktemp /tmp/BENCH_throughput.XXXXXX.json)"
prof_out="$(mktemp /tmp/mitt_prof.XXXXXX.json)"
folded_out="$(mktemp /tmp/mitt_prof_folded.XXXXXX.txt)"
thr_baseline="baselines/BENCH_throughput.json"
MITT_OPS=8 cargo run --quiet --release -p mitt-bench --bin fig_throughput -- \
    --quiet --bench-json "$thr_out" --prof-json "$prof_out" --folded "$folded_out" >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .schema == "mitt-prof/v1"
        and (.phases | length == 7)
        and (.alloc | length == 7)
        and (.ios_submitted > 0)
        and (.events_dispatched > 0)
        and ([.phases[] | select(.phase == "dispatch")] | all(.count > 0))
    ' "$prof_out" >/dev/null
else
    python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
assert d['schema'] == 'mitt-prof/v1'
assert len(d['phases']) == 7 and len(d['alloc']) == 7
assert d['ios_submitted'] > 0 and d['events_dispatched'] > 0
assert next(p for p in d['phases'] if p['phase'] == 'dispatch')['count'] > 0
" "$prof_out"
fi
test -s "$folded_out"
grep -q '^engine;dispatch ' "$folded_out"
echo "   mitt-prof/v1 profile and folded stacks are well-formed"
if [ -f "$thr_baseline" ]; then
    cargo run --quiet --release -p mitt-obs -- compare "$thr_baseline" "$thr_out"
    echo "   report matches $thr_baseline within thresholds"
else
    mkdir -p baselines
    cp "$thr_out" "$thr_baseline"
    echo "   no baseline found; committed $thr_baseline (check it in)"
fi

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
tl_bench="$(mktemp /tmp/BENCH_timeline.XXXXXX.json)"
tl_baseline="baselines/BENCH_timeline.json"
MITT_OPS=120 cargo run --quiet --release -p mitt-bench --bin fig_timeline -- \
    --quiet --tsl-json "$tl_json" --bench-json "$tl_bench" >"$tl_out"
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
if [ -f "$tl_baseline" ]; then
    cargo run --quiet --release -p mitt-obs -- compare "$tl_baseline" "$tl_json"
    echo "   embedded bench report matches $tl_baseline within thresholds"
else
    mkdir -p baselines
    cp "$tl_bench" "$tl_baseline"
    echo "   no baseline found; committed $tl_baseline (check it in)"
fi

echo "ok: all checks passed"
