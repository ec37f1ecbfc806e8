//! Tier-1 gate: the workspace must stay `mitt-lint` clean forever.
//!
//! Every figure in EXPERIMENTS.md depends on bit-for-bit determinism, so the
//! determinism rules (D001–D004) and the robustness rule R001 are enforced
//! on every `cargo test`, not just when someone remembers to run the binary.
//! Public-API docs in `simcore` and `core` are rustc's job: both crates
//! deny `missing_docs`. See DESIGN.md "Determinism rules".

use std::path::Path;

use mitt_lint::{render_human, render_sarif, scan_source, scan_workspace, FileKind, Rule};
use mitt_obs::JsonValue;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = scan_workspace(root).expect("workspace scan");
    assert!(
        report.files_scanned >= 90,
        "suspiciously few files scanned ({}); did the walker break?",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "mitt-lint found violations:\n{}",
        render_human(&report)
    );
    // Suppressions must keep carrying their justifications.
    for s in &report.suppressed {
        assert!(
            !s.reason.trim().is_empty(),
            "{}:{} suppresses {} with an empty reason",
            s.file,
            s.line,
            s.rule.id()
        );
    }
}

#[test]
fn sarif_artifact_has_the_uploaded_shape() {
    // `mitt-lint --format sarif` renders this report into the artifact CI
    // uploads: SARIF 2.1.0, the full rule catalogue, and no results.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = scan_workspace(root).expect("workspace scan");
    let sarif = JsonValue::parse(&render_sarif(&report)).expect("well-formed SARIF");
    assert_eq!(
        sarif.get("version").and_then(JsonValue::as_str),
        Some("2.1.0")
    );
    let run = &sarif.get("runs").and_then(JsonValue::as_arr).expect("runs")[0];
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("driver");
    assert_eq!(
        driver.get("name").and_then(JsonValue::as_str),
        Some("mitt-lint")
    );
    let rules = driver
        .get("rules")
        .and_then(JsonValue::as_arr)
        .expect("rules");
    assert!(rules.len() >= 9, "{} rules in the catalogue", rules.len());
    let results = run
        .get("results")
        .and_then(JsonValue::as_arr)
        .expect("results");
    assert!(results.is_empty(), "{} SARIF results", results.len());
}

#[test]
fn seeded_violation_is_caught() {
    // A scratch fixture with an un-annotated HashMap iteration must fail the
    // scan — this is the canary that the engine still detects regressions.
    let fixture = "struct S { m: HashMap<u64, u64> }\n\
                   impl S { fn f(&self) { for (k, v) in &self.m { let _ = (k, v); } } }\n";
    let out = scan_source(
        "cluster",
        FileKind::Library,
        "crates/cluster/src/seeded.rs",
        fixture,
    );
    assert_eq!(out.violations.len(), 1, "seeded D003 violation not caught");
    assert_eq!(out.violations[0].rule, Rule::D003);

    let fixture = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
    let out = scan_source(
        "simcore",
        FileKind::Library,
        "crates/simcore/src/seeded.rs",
        fixture,
    );
    assert!(
        out.violations.iter().any(|v| v.rule == Rule::D001),
        "seeded D001 violation not caught"
    );
}
