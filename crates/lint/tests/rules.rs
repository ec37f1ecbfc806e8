//! Per-rule fixture tests for the lint engine: each rule gets a hit, a miss,
//! a pragma-suppressed case, a `#[cfg(test)]`-exempt case where applicable,
//! and a string/comment false-positive-resistance case.

use mitt_lint::{scan_source, FileKind, Rule};

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
// D001 — wall clock
// --------------------------------------------------------------------------

#[test]
fn d001_hits_instant_and_systemtime() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert_eq!(
        lint("cluster", FileKind::Library, src),
        vec![(Rule::D001, 1)]
    );
    let src = "use std::time::SystemTime;\n";
    assert_eq!(lint_rules("core", src), vec![Rule::D001]);
}

#[test]
fn d001_misses_simtime_and_lint_crate() {
    let src = "fn f(t: SimTime) -> SimTime { t }\n";
    assert!(lint_rules("cluster", src).is_empty());
    // The lint crate itself may time its own runs.
    let src = "fn f() { let t = Instant::now(); }\n";
    assert!(lint_rules("lint", src).is_empty());
}

#[test]
fn d001_pragma_suppressed_and_tallied() {
    let src = "fn f() { let t = Instant::now(); } \
               // mitt-lint: allow(D001, \"host-side profiling only\")\n";
    let out = scan_source("cluster", FileKind::Library, "x.rs", src);
    assert!(out.violations.is_empty());
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].reason, "host-side profiling only");
}

#[test]
fn d001_comment_and_string_resistant() {
    let src = "// Instant is banned here\nfn f() { let s = \"SystemTime\"; }\n";
    assert!(lint_rules("cluster", src).is_empty());
    // Identifier containing the word must not fire either.
    let src = "fn f() { let InstantaneousRate = 3; let _ = InstantaneousRate; }\n";
    assert!(lint_rules("cluster", src).is_empty());
}

// --------------------------------------------------------------------------
// D002 — ambient entropy
// --------------------------------------------------------------------------

#[test]
fn d002_hits_rand_everywhere_but_simcore_rng() {
    let src = "fn f() { let x = rand::random::<u64>(); }\n";
    assert_eq!(lint_rules("workload", src), vec![Rule::D002]);
    let src = "fn f() { let mut r = thread_rng(); }\n";
    assert_eq!(lint_rules("simcore", src), vec![Rule::D002]);
    // ... but simcore/src/rng.rs is the sanctioned home.
    let out = scan_source(
        "simcore",
        FileKind::Library,
        "crates/simcore/src/rng.rs",
        "fn f() { let x = rand::random::<u64>(); }\n",
    );
    assert!(out.violations.is_empty());
}

#[test]
fn d002_misses_simrng_and_comments() {
    let src = "fn f(rng: &mut SimRng) -> u64 { rng.next_u64() }\n";
    assert!(lint_rules("workload", src).is_empty());
    let src = "//! unlike `rand::rngs::SmallRng`, whose stream is unspecified\nfn f() {}\n";
    assert!(lint_rules("simcore", src).is_empty());
}

#[test]
fn d002_pragma_suppressed() {
    let src = "// mitt-lint: allow(D002, \"documented jitter experiment\")\n\
               fn f() { let x = rand::random::<u64>(); }\n";
    let out = scan_source("workload", FileKind::Library, "x.rs", src);
    assert!(out.violations.is_empty());
    assert_eq!(out.suppressed.len(), 1);
}

// --------------------------------------------------------------------------
// D003 — hash iteration order
// --------------------------------------------------------------------------

#[test]
fn d003_hits_iteration_over_known_map() {
    let src = "struct S { pending: HashMap<u64, u64> }\n\
               impl S { fn f(&self) { for (k, v) in &self.pending { let _ = (k, v); } } }\n";
    assert_eq!(lint("core", FileKind::Library, src), vec![(Rule::D003, 2)]);
    let src = "fn f() { let m: HashMap<u64, u64> = HashMap::new(); \
               for k in m.keys() { let _ = k; } }\n";
    assert_eq!(lint_rules("cluster", src), vec![Rule::D003]);
}

#[test]
fn d003_misses_order_insensitive_sinks_and_btreemap() {
    // Sum over values: order cannot matter.
    let src = "struct S { nodes: HashMap<u64, u64> }\n\
               impl S { fn f(&self) -> u64 { self.nodes.values().sum() } }\n";
    assert!(lint_rules("sched", src).is_empty());
    // Collect-then-sort in the same statement.
    let src = "fn f(m: &HashMap<u64, u64>) { \
               let mut v: Vec<u64> = m.keys().copied().collect(); v.sort(); }\n";
    assert!(lint_rules("oscache", src).is_empty());
    // BTreeMap iteration is ordered and fine.
    let src = "fn f(m: &BTreeMap<u64, u64>) { for k in m.keys() { let _ = k; } }\n";
    assert!(lint_rules("core", src).is_empty());
}

#[test]
fn d003_tracks_maps_returned_from_function_calls() {
    // No ascription at the call site: the binding inherits hash-container
    // status from the local function's declared return type.
    let src = "fn build_index() -> HashMap<u64, u64> { HashMap::new() }\n\
               fn f() { let idx = build_index(); \
               for k in idx.keys() { let _ = k; } }\n";
    assert_eq!(lint("core", FileKind::Library, src), vec![(Rule::D003, 2)]);
    // Methods and rustfmt-wrapped multi-line signatures are covered too.
    let src = "impl S {\n\
               fn snapshot(\n\
                   &self,\n\
               ) -> HashSet<u64> {\n\
                   self.live.clone()\n\
               }\n\
               fn g(&self) { let s = self.snapshot(); \
               for k in &s { let _ = k; } }\n\
               }\n";
    assert_eq!(lint("sched", FileKind::Library, src), vec![(Rule::D003, 7)]);
    // Order-insensitive sinks still exempt the call-result binding.
    let src = "fn build_index() -> HashMap<u64, u64> { HashMap::new() }\n\
               fn f() -> u64 { let idx = build_index(); idx.values().sum() }\n";
    assert!(lint_rules("core", src).is_empty());
    // A same-named binding of something else must not fire: the function
    // here returns a Vec, not a hash container.
    let src = "fn build_index() -> Vec<u64> { Vec::new() }\n\
               fn f() { let idx = build_index(); \
               for k in idx.iter() { let _ = k; } }\n";
    assert!(lint_rules("core", src).is_empty());
}

#[test]
fn d003_pragma_suppressed() {
    let src = "struct S { pending: HashMap<u64, u64> }\n\
               impl S { fn f(&self) {\n\
               // mitt-lint: allow(D003, \"results folded into an order-free digest\")\n\
               for (k, v) in &self.pending { let _ = (k, v); }\n\
               } }\n";
    let out = scan_source("core", FileKind::Library, "x.rs", src);
    assert!(out.violations.is_empty());
    assert_eq!(out.suppressed.len(), 1);
}

#[test]
fn d003_exempt_in_cfg_test_and_test_files() {
    let src = "struct S { m: HashMap<u64, u64> }\n\
               #[cfg(test)]\nmod tests {\n  fn f(s: &super::S) { \
               for k in s.m.keys() { let _ = k; } }\n}\n";
    assert!(lint_rules("core", src).is_empty());
    let src = "fn f(m: &HashMap<u64, u64>) { for k in m.keys() { let _ = k; } }\n";
    assert!(lint("core", FileKind::TestOnly, src).is_empty());
}

#[test]
fn d003_string_resistant() {
    let src = "struct S { m: HashMap<u64, u64> }\n\
               fn f() { let s = \"for k in m.keys()\"; let _ = s; }\n";
    assert!(lint_rules("core", src).is_empty());
}

// --------------------------------------------------------------------------
// D004 — host environment access in sim crates
// --------------------------------------------------------------------------

#[test]
fn d004_hits_in_sim_crates_only() {
    let src = "fn f() { std::thread::sleep(d); }\n";
    assert_eq!(lint_rules("device", src), vec![Rule::D004]);
    let src = "fn f() { let v = std::env::var(\"MITT_OPS\"); }\n";
    assert_eq!(lint_rules("cluster", src), vec![Rule::D004]);
    // bench is a host-side driver crate: reading env knobs there is fine.
    assert!(lint_rules("bench", src).is_empty());
    // ... and so is the root crate's CLI.
    let src = "fn f() { std::process::exit(2); }\n";
    assert!(lint(".", FileKind::Library, src).is_empty());
}

#[test]
fn d004_pragma_and_false_positive_resistance() {
    let src = "// mitt-lint: allow(D004, \"debug hook, compiled out in release\")\n\
               fn f() { let v = std::env::var(\"X\"); }\n";
    let out = scan_source("lsm", FileKind::Library, "x.rs", src);
    assert!(out.violations.is_empty());
    // `ProcessId` must not look like `process::`.
    let src = "fn f(p: ProcessId) -> ProcessId { p }\n";
    assert!(lint_rules("sched", src).is_empty());
}

// --------------------------------------------------------------------------
// R001 — unwrap/expect in core library code
// --------------------------------------------------------------------------

#[test]
fn r001_hits_in_scoped_crates() {
    let src = "fn f(x: Option<u64>) -> u64 { x.unwrap() }\n";
    assert_eq!(lint_rules("simcore", src), vec![Rule::R001]);
    let src = "fn f(x: Option<u64>) -> u64 { x.expect(\"present\") }\n";
    assert_eq!(lint_rules("sched", src), vec![Rule::R001]);
}

#[test]
fn r001_misses_outside_scope_and_in_tests() {
    let src = "fn f(x: Option<u64>) -> u64 { x.unwrap() }\n";
    assert!(lint_rules("cluster", src).is_empty());
    assert!(lint("device", FileKind::TestOnly, src).is_empty());
    let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { Some(1).unwrap(); }\n}\n";
    assert!(lint_rules("core", src).is_empty());
}

#[test]
fn r001_pragma_suppressed() {
    let src = "fn f(x: Option<u64>) -> u64 { \
               x.unwrap() // mitt-lint: allow(R001, \"invariant: caller checked is_some\")\n}\n";
    let out = scan_source("device", FileKind::Library, "x.rs", src);
    assert!(out.violations.is_empty());
    assert_eq!(out.suppressed.len(), 1);
}

#[test]
fn r001_string_and_comment_resistant() {
    let src = "// never call .unwrap() in here\nfn f() { let s = \".expect(\"; let _ = s; }\n";
    assert!(lint_rules("simcore", src).is_empty());
}

// --------------------------------------------------------------------------
// O001 — eprintln! in figure binaries
// --------------------------------------------------------------------------

#[test]
fn o001_hits_eprintln_in_bench_bins_only() {
    let src = "fn main() { eprintln!(\"ran fig: ops={}\", 7); }\n";
    let out = scan_source(
        "bench",
        FileKind::Library,
        "crates/bench/src/bin/fig0.rs",
        src,
    );
    assert_eq!(
        out.violations.iter().map(|v| v.rule).collect::<Vec<_>>(),
        vec![Rule::O001]
    );
    // Library code of the bench crate (progress.rs, flags.rs) may still
    // report real errors on stderr.
    let out = scan_source("bench", FileKind::Library, "crates/bench/src/flags.rs", src);
    assert!(out.violations.is_empty());
    // Other crates' binaries are out of scope.
    let out = scan_source("lint", FileKind::Library, "crates/lint/src/main.rs", src);
    assert!(out.violations.is_empty());
}

#[test]
fn o001_pragma_suppressed_and_comment_resistant() {
    let src = "// mitt-lint: allow(O001, \"usage error, belongs on stderr\")\n\
               fn main() { eprintln!(\"usage: fig0\"); }\n";
    let out = scan_source(
        "bench",
        FileKind::Library,
        "crates/bench/src/bin/fig0.rs",
        src,
    );
    assert!(out.violations.is_empty());
    assert_eq!(out.suppressed.len(), 1);
    // Mentions in comments or strings never fire.
    let src = "fn main() { println!(\"eprintln! is banned here\"); } // use eprintln!\n";
    let out = scan_source(
        "bench",
        FileKind::Library,
        "crates/bench/src/bin/fig0.rs",
        src,
    );
    assert!(out.violations.is_empty());
}

// --------------------------------------------------------------------------
// Pragma machinery
// --------------------------------------------------------------------------

#[test]
fn unused_pragma_is_reported() {
    let src = "// mitt-lint: allow(D003, \"stale\")\nfn f() {}\n";
    let out = scan_source("core", FileKind::Library, "x.rs", src);
    assert!(out.violations.is_empty());
    assert_eq!(out.unused_pragmas.len(), 1);
}

#[test]
fn malformed_pragma_is_reported() {
    let src = "// mitt-lint: allow(D003)\nfn f() {}\n";
    let out = scan_source("core", FileKind::Library, "x.rs", src);
    assert_eq!(out.malformed_pragmas.len(), 1);
    // Empty reasons are rejected too: a pragma must say *why*.
    let src = "// mitt-lint: allow(R001, \"\")\nfn f() {}\n";
    let out = scan_source("core", FileKind::Library, "x.rs", src);
    assert_eq!(out.malformed_pragmas.len(), 1);
}

#[test]
fn pragma_only_covers_its_rule() {
    let src = "// mitt-lint: allow(D001, \"wrong rule\")\n\
               fn f(x: Option<u64>) -> u64 { x.unwrap() }\n";
    let out = scan_source("simcore", FileKind::Library, "x.rs", src);
    assert_eq!(out.violations.len(), 1);
    assert_eq!(out.violations[0].rule, Rule::R001);
}
