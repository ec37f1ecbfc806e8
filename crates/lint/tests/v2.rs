//! Fixture tests for the v2 semantic rules (T001/T002/E001/W001), the
//! new D003/R001 exemption analyses, waiver-pragma round-trips, and the
//! byte-identical determinism of the JSON/SARIF writers.

use std::fs;
use std::path::{Path, PathBuf};

use mitt_lint::{
    find_workspace_root, render_json, render_sarif, scan_source, scan_workspace_with_baseline,
    FileKind, Rule,
};

fn lint(crate_name: &str, kind: FileKind, src: &str) -> Vec<(Rule, usize)> {
    scan_source(
        crate_name,
        kind,
        &format!("crates/{crate_name}/src/fixture.rs"),
        src,
    )
    .violations
    .iter()
    .map(|v| (v.rule, v.line))
    .collect()
}

fn lint_rules(crate_name: &str, src: &str) -> Vec<Rule> {
    lint(crate_name, FileKind::Library, src)
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

// --------------------------------------------------------------------------
// T001 — truncating casts and mixed-unit arithmetic
// --------------------------------------------------------------------------

#[test]
fn t001_hits_truncating_time_casts() {
    let src = "fn f(d: Duration) -> u32 { d.as_micros() as u32 }\n";
    assert_eq!(lint("core", FileKind::Library, src), vec![(Rule::T001, 1)]);
    let src = "fn f(wait_ns: u64) -> i32 { wait_ns as i32 }\n";
    assert_eq!(lint_rules("device", src), vec![Rule::T001]);
    let src = "fn f(span_ms: u64) -> f32 { span_ms as f32 }\n";
    assert_eq!(lint_rules("sched", src), vec![Rule::T001]);
}

#[test]
fn t001_misses_wide_casts_and_non_time() {
    // Widening to 64-bit integers is the sanctioned idiom.
    let src = "fn f(d: Duration) -> u64 { d.as_nanos() as u64 }\n";
    assert!(lint_rules("core", src).is_empty());
    let src = "fn f(wait_ns: u64) -> i64 { wait_ns as i64 }\n";
    assert!(lint_rules("device", src).is_empty());
    // Narrowing a non-time quantity is out of scope.
    let src = "fn f(count: u64) -> u32 { count as u32 }\n";
    assert!(lint_rules("core", src).is_empty());
    // Host-side crates are exempt: bench drivers may truncate for display.
    let src = "fn f(wait_ns: u64) -> u32 { wait_ns as u32 }\n";
    assert!(lint_rules("bench", src).is_empty());
}

#[test]
fn t001_hits_mixed_units_and_time_squares() {
    let src = "fn f(a_ns: u64, b_us: u64) -> bool { a_ns < b_us }\n";
    assert_eq!(lint_rules("cluster", src), vec![Rule::T001]);
    let src = "fn f(a_ns: u64, b_ms: u64) -> u64 { a_ns + b_ms }\n";
    assert_eq!(lint_rules("core", src), vec![Rule::T001]);
    let src = "fn f(a_ns: u64, b_ns: u64) -> u64 { a_ns * b_ns }\n";
    assert_eq!(lint_rules("lsm", src), vec![Rule::T001]);
}

#[test]
fn t001_misses_same_unit_arithmetic() {
    let src = "fn f(a_ns: u64, b_ns: u64) -> u64 { a_ns + b_ns }\n";
    assert!(lint_rules("core", src).is_empty());
    let src = "fn f(a_us: u64, b_us: u64) -> bool { a_us <= b_us }\n";
    assert!(lint_rules("cluster", src).is_empty());
    // Count × time is dimensionally fine.
    let src = "fn f(n: u64, step_ns: u64) -> u64 { n * step_ns }\n";
    assert!(lint_rules("core", src).is_empty());
}

#[test]
fn t001_pragma_suppressed_and_test_exempt() {
    let src = "// mitt-lint: allow(T001, \"histogram bucket index, truncation intended\")\n\
               fn f(wait_ns: u64) -> u32 { wait_ns as u32 }\n";
    let out = scan_source("core", FileKind::Library, "x.rs", src);
    assert!(out.violations.is_empty());
    assert_eq!(out.suppressed.len(), 1);
    let src = "#[cfg(test)]\nmod tests {\n  fn f(wait_ns: u64) -> u32 { wait_ns as u32 }\n}\n";
    assert!(lint_rules("core", src).is_empty());
}

// --------------------------------------------------------------------------
// T002 — floats in digest-bearing simulation state
// --------------------------------------------------------------------------

#[test]
fn t002_hits_float_time_fields_and_float_equality() {
    let src = "pub struct P { pub span_ns: f64 }\n";
    assert_eq!(
        lint("device", FileKind::Library, src),
        vec![(Rule::T002, 1)]
    );
    let src = "fn f(delay_us: f32) -> f32 { delay_us }\n";
    assert_eq!(lint_rules("sched", src), vec![Rule::T002]);
    let src = "fn f(x: f64) -> bool { x == 0.5 }\n";
    assert_eq!(lint_rules("cluster", src), vec![Rule::T002]);
    let src = "fn f(x: f64) -> bool { 1.0 != x }\n";
    assert_eq!(lint_rules("oscache", src), vec![Rule::T002]);
}

#[test]
fn t002_misses_integer_time_and_ordered_float_compares() {
    let src = "pub struct P { pub span_ns: u64 }\n";
    assert!(lint_rules("device", src).is_empty());
    // Ordered comparisons against float literals are tolerance-friendly.
    let src = "fn f(x: f64) -> bool { x < 0.5 }\n";
    assert!(lint_rules("cluster", src).is_empty());
    // Non-sim crates (bench, obs) may compare floats for reporting.
    let src = "fn f(x: f64) -> bool { x == 0.5 }\n";
    assert!(lint_rules("bench", src).is_empty());
    // Integer equality is not T002's business.
    let src = "fn f(x: u64) -> bool { x == 5 }\n";
    assert!(lint_rules("cluster", src).is_empty());
}

#[test]
fn t002_pragma_round_trip() {
    let src = "pub struct P {\n\
               // mitt-lint: allow(T002, \"model coefficient, not clock state\")\n\
               pub span_ns: f64,\n\
               }\n";
    let out = scan_source("device", FileKind::Library, "x.rs", src);
    assert!(out.violations.is_empty());
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].rule, Rule::T002);
    assert_eq!(
        out.suppressed[0].reason,
        "model coefficient, not clock state"
    );
    // The same pragma with no matching finding rots loudly.
    let src = "pub struct P {\n\
               // mitt-lint: allow(T002, \"stale\")\n\
               pub span_ns: u64,\n\
               }\n";
    let out = scan_source("device", FileKind::Library, "x.rs", src);
    assert_eq!(out.unused_pragmas.len(), 1);
}

// --------------------------------------------------------------------------
// E001 — Submit emits must have a reachable terminal emit
// --------------------------------------------------------------------------

#[test]
fn e001_hits_submit_without_terminal() {
    let src = "impl Node {\n\
               fn submit(&mut self, now: SimTime) {\n\
               self.trace.emit(now, Subsystem::Node, EventKind::Submit { io, len });\n\
               }\n\
               }\n";
    assert_eq!(
        lint("cluster", FileKind::Library, src),
        vec![(Rule::E001, 3)]
    );
}

#[test]
fn e001_misses_terminal_in_same_fn_or_via_call_graph() {
    // Terminal in the same function.
    let src = "impl Node {\n\
               fn submit(&mut self, now: SimTime) {\n\
               self.trace.emit(now, Subsystem::Node, EventKind::Submit { io, len });\n\
               self.trace.emit(now, Subsystem::Node, EventKind::Complete { io, wait });\n\
               }\n\
               }\n";
    assert!(lint_rules("cluster", src).is_empty());
    // Submit in a helper; the caller emits the terminal (the build_io
    // pattern in cluster/src/node.rs).
    let src = "impl Node {\n\
               fn build_io(&mut self, now: SimTime) {\n\
               self.trace.emit(now, Subsystem::Node, EventKind::Submit { io, len });\n\
               }\n\
               fn submit_disk(&mut self, now: SimTime) {\n\
               self.build_io(now);\n\
               self.trace.emit(now, Subsystem::Node, EventKind::Reject { io, predicted_wait });\n\
               self.emit_attribution(now);\n\
               }\n\
               }\n";
    assert!(lint_rules("cluster", src).is_empty());
    // Submit in the caller; the terminal lives in a callee.
    let src = "impl Node {\n\
               fn submit(&mut self, now: SimTime) {\n\
               self.trace.emit(now, Subsystem::Node, EventKind::Submit { io, len });\n\
               self.finish(now);\n\
               }\n\
               fn finish(&mut self, now: SimTime) {\n\
               self.trace.emit(now, Subsystem::Node, EventKind::Failover { op, from, to });\n\
               }\n\
               }\n";
    assert!(lint_rules("cluster", src).is_empty());
}

#[test]
fn e001_ignores_match_arms_and_test_code() {
    // Pattern-matching on EventKind::Submit is consumption, not emission.
    let src = "fn count(ev: &Event) -> u64 {\n\
               match ev.kind { EventKind::Submit { .. } => 1, _ => 0 }\n\
               }\n";
    assert!(lint_rules("obs", src).is_empty());
    // Test fixtures may emit bare Submits.
    let src = "#[cfg(test)]\nmod tests {\n  fn t(tr: &mut Tracer) {\n\
               tr.emit(now, Subsystem::Node, EventKind::Submit { io, len });\n  }\n}\n";
    assert!(lint_rules("trace", src).is_empty());
    let src = "fn t(tr: &mut Tracer) {\n\
               tr.emit(now, Subsystem::Node, EventKind::Submit { io, len });\n}\n";
    assert!(lint("trace", FileKind::TestOnly, src).is_empty());
}

// --------------------------------------------------------------------------
// D001 — the CPU timestamp counter is a wall clock too
// --------------------------------------------------------------------------

#[test]
fn d001_hits_tsc_reads() {
    let src = "fn f() -> u64 { unsafe { core::arch::x86_64::_rdtsc() } }\n";
    assert_eq!(
        lint("cluster", FileKind::Library, src),
        vec![(Rule::D001, 1)]
    );
    let src = "use std::arch::x86_64::__rdtscp;\n\
               fn f(aux: &mut u32) -> u64 { unsafe { __rdtscp(aux) } }\n";
    assert_eq!(
        lint("prof", FileKind::Library, src),
        vec![(Rule::D001, 1), (Rule::D001, 2)]
    );
    // A reasoned waiver covers it like any other wall-clock read.
    let src = "fn f() -> u64 {\n\
               // mitt-lint: allow(D001, \"profiler tick; never digested\")\n\
               unsafe { core::arch::x86_64::_rdtsc() }\n\
               }\n";
    let out = scan_source("prof", FileKind::Library, "x.rs", src);
    assert!(out.violations.is_empty());
    assert_eq!(out.suppressed.len(), 1);
    // Names that merely contain the intrinsic's name do not fire.
    let src = "fn f(rdtsc_ticks: u64) -> u64 { rdtsc_ticks }\n";
    assert!(lint_rules("cluster", src).is_empty());
}

// --------------------------------------------------------------------------
// New D003/R001 exemption analyses (the waiver burn-down)
// --------------------------------------------------------------------------

#[test]
fn d003_exempts_collect_then_sort_across_statements() {
    let src = "fn f(m: &HashMap<u64, u64>) {\n\
               let mut all: Vec<u64> = m.keys().copied().collect();\n\
               all.sort_unstable();\n\
               }\n";
    assert!(lint_rules("oscache", src).is_empty());
    // Without the sort, the multi-statement form still fires.
    let src = "fn f(m: &HashMap<u64, u64>) {\n\
               let mut all: Vec<u64> = m.keys().copied().collect();\n\
               all.reverse();\n\
               }\n";
    assert_eq!(lint_rules("oscache", src), vec![Rule::D003]);
}

#[test]
fn d003_sees_fast_hash_containers() {
    // `mitt_sim::hash`'s deterministic aliases still iterate in an
    // unspecified order: typed fields, params and `::default()` bindings
    // are all tracked.
    let src = "struct S { m: FastMap<u64, u64>, out: Vec<u64> }\n\
               impl S { fn f(&mut self) { for (k, _) in &self.m { self.out.push(*k); } } }\n";
    assert_eq!(lint_rules("cluster", src), vec![Rule::D003]);
    let src = "fn f(s: &FastSet<u64>) -> Vec<u64> { s.iter().copied().collect() }\n";
    assert_eq!(lint_rules("core", src), vec![Rule::D003]);
    let src = "fn f() -> Vec<u64> {\n\
               let m = FastMap::default();\n\
               m.keys().copied().collect()\n\
               }\n";
    assert_eq!(lint_rules("lsm", src), vec![Rule::D003]);
    // Collect-then-sort is order-free, exactly as for `HashMap`.
    let src = "fn f(m: &FastMap<u64, u64>) {\n\
               let mut all: Vec<u64> = m.keys().copied().collect();\n\
               all.sort_unstable();\n\
               }\n";
    assert!(lint_rules("oscache", src).is_empty());
    // So is a collect into another hash container.
    let src = "fn f(m: &HashMap<u64, u64>) -> FastSet<u64> {\n\
               m.keys().copied().collect::<FastSet<u64>>()\n\
               }\n";
    assert!(lint_rules("core", src).is_empty());
}

#[test]
fn d003_exempts_commutative_integer_accumulation() {
    let src = "struct S { m: HashMap<u64, i64> }\n\
               impl S { fn f(&self) -> i64 {\n\
               let mut total = 0i64;\n\
               for (_, v) in &self.m {\n\
               total += *v;\n\
               }\n\
               total\n\
               } }\n";
    assert!(lint_rules("core", src).is_empty());
    // Float accumulation is order-dependent rounding: still fires.
    let src = "struct S { m: HashMap<u64, f64> }\n\
               impl S { fn f(&self) -> f64 {\n\
               let mut total = 0.0;\n\
               for (_, v) in &self.m {\n\
               total += *v;\n\
               }\n\
               total\n\
               } }\n";
    assert_eq!(lint_rules("core", src), vec![Rule::D003]);
}

#[test]
fn d003_exempts_push_into_sorted_vec() {
    let src = "struct S { m: HashMap<u64, i64> }\n\
               impl S { fn f(&self) -> Vec<u64> {\n\
               let mut moves: Vec<u64> = Vec::new();\n\
               for (&id, _) in &self.m {\n\
               moves.push(id);\n\
               }\n\
               moves.sort_unstable();\n\
               moves\n\
               } }\n";
    assert!(lint_rules("core", src).is_empty());
    // No sort after the loop: order leaks out, still fires.
    let src = "struct S { m: HashMap<u64, i64> }\n\
               impl S { fn f(&self) -> Vec<u64> {\n\
               let mut moves: Vec<u64> = Vec::new();\n\
               for (&id, _) in &self.m {\n\
               moves.push(id);\n\
               }\n\
               moves\n\
               } }\n";
    assert_eq!(lint_rules("core", src), vec![Rule::D003]);
}

#[test]
fn d003_zero_effect_and_early_exit_bodies_still_fire() {
    // A body with no recognized commutative effect gets no exemption.
    let src = "struct S { m: HashMap<u64, u64> }\n\
               impl S { fn f(&self) { for (k, v) in &self.m { let _ = (k, v); } } }\n";
    assert_eq!(lint_rules("core", src), vec![Rule::D003]);
    // Early exit makes the first match order-dependent even when the loop
    // otherwise only accumulates.
    let src = "struct S { m: HashMap<u64, i64> }\n\
               impl S { fn f(&self) -> i64 {\n\
               let mut total = 0i64;\n\
               for (_, v) in &self.m {\n\
               if *v < 0 { break; }\n\
               total += *v;\n\
               }\n\
               total\n\
               } }\n";
    assert_eq!(lint_rules("core", src), vec![Rule::D003]);
    // Writes to outer state disqualify the whole body.
    let src = "struct S { m: HashMap<u64, i64>, out: Vec<i64> }\n\
               impl S { fn f(&mut self) {\n\
               let mut total = 0i64;\n\
               for (_, v) in &self.m {\n\
               total += *v;\n\
               self.out.push(*v);\n\
               }\n\
               } }\n";
    assert_eq!(lint_rules("core", src), vec![Rule::D003]);
}

#[test]
fn r001_exempts_assert_guarded_expect() {
    let src = "impl S { fn max(&self) -> u64 {\n\
               assert!(!self.samples.is_empty(), \"max of empty\");\n\
               *self.samples.last().expect(\"non-empty\")\n\
               } }\n";
    assert!(lint_rules("simcore", src).is_empty());
    // No guard: fires.
    let src = "impl S { fn max(&self) -> u64 {\n\
               *self.samples.last().expect(\"non-empty\")\n\
               } }\n";
    assert_eq!(lint_rules("simcore", src), vec![Rule::R001]);
    // A guard on a different path does not transfer.
    let src = "impl S { fn max(&self) -> u64 {\n\
               assert!(!self.other.is_empty());\n\
               *self.samples.last().expect(\"non-empty\")\n\
               } }\n";
    assert_eq!(lint_rules("simcore", src), vec![Rule::R001]);
}

// --------------------------------------------------------------------------
// W001 — the waiver ratchet
// --------------------------------------------------------------------------

/// Builds a throwaway workspace with one waived D003 finding and returns its
/// root. Each test gets a unique directory; best-effort cleanup at the end.
fn scratch_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("mitt-lint-ratchet-{}-{tag}", std::process::id()));
    let src_dir = root.join("crates/core/src");
    fs::create_dir_all(&src_dir).expect("mkdir scratch workspace");
    fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    fs::write(
        src_dir.join("lib.rs"),
        "struct S { m: HashMap<u64, u64> }\n\
         impl S { fn f(&self) {\n\
         // mitt-lint: allow(D003, \"fixture waiver for the ratchet test\")\n\
         for (k, v) in &self.m { let _ = (k, v); }\n\
         } }\n",
    )
    .expect("write fixture");
    root
}

#[test]
fn w001_fires_when_waivers_grow_past_baseline() {
    let root = scratch_workspace("grow");
    let baseline = root.join("LINT_baseline.json");
    fs::write(
        &baseline,
        "{\"schema\": \"mitt-lint-waivers/v1\", \"counts\": {\"D003\": 0}}\n",
    )
    .expect("write baseline");
    let report = scan_workspace_with_baseline(&root, Some(&baseline)).expect("scan");
    assert_eq!(report.suppressed.len(), 1, "fixture waiver not picked up");
    let w: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == Rule::W001)
        .collect();
    assert_eq!(w.len(), 1, "ratchet breach not detected");
    assert!(w[0].message.contains("D003"));
    assert!(!report.is_clean(), "a ratchet breach must fail the scan");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn w001_allows_matching_and_shrinking_counts() {
    let root = scratch_workspace("ok");
    let baseline = root.join("LINT_baseline.json");
    // Exact match: clean.
    fs::write(
        &baseline,
        "{\"schema\": \"mitt-lint-waivers/v1\", \"counts\": {\"D003\": 1}}\n",
    )
    .expect("write baseline");
    let report = scan_workspace_with_baseline(&root, Some(&baseline)).expect("scan");
    assert!(report.is_clean(), "matching counts must pass");
    // Headroom (count below baseline): also clean — the ratchet only binds
    // upward.
    fs::write(
        &baseline,
        "{\"schema\": \"mitt-lint-waivers/v1\", \"counts\": {\"D003\": 5}}\n",
    )
    .expect("write baseline");
    let report = scan_workspace_with_baseline(&root, Some(&baseline)).expect("scan");
    assert!(report.is_clean(), "shrinking counts must pass");
    // No baseline given: the ratchet simply does not run.
    let report = scan_workspace_with_baseline(&root, None).expect("scan");
    assert!(report.is_clean());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn w001_rejects_corrupt_baseline() {
    let root = scratch_workspace("corrupt");
    let baseline = root.join("LINT_baseline.json");
    fs::write(&baseline, "not json at all").expect("write baseline");
    let report = scan_workspace_with_baseline(&root, Some(&baseline)).expect("scan");
    assert!(report.violations.iter().any(|v| v.rule == Rule::W001));
    let _ = fs::remove_dir_all(&root);
}

// --------------------------------------------------------------------------
// Determinism: machine-readable output is byte-identical run to run
// --------------------------------------------------------------------------

#[test]
fn json_and_sarif_are_byte_identical_across_runs() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(here).expect("workspace root above crates/lint");
    let baseline = root.join("baselines/LINT_baseline.json");
    let baseline = baseline.exists().then_some(baseline);
    let a = scan_workspace_with_baseline(&root, baseline.as_deref()).expect("first scan");
    let b = scan_workspace_with_baseline(&root, baseline.as_deref()).expect("second scan");
    assert_eq!(
        render_json(&a),
        render_json(&b),
        "JSON output differs between two scans of the same tree"
    );
    assert_eq!(
        render_sarif(&a),
        render_sarif(&b),
        "SARIF output differs between two scans of the same tree"
    );
}
