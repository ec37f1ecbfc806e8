//! Tier-1 gate: the workspace must stay `mitt-lint` clean forever.
//!
//! Every figure in EXPERIMENTS.md depends on bit-for-bit determinism, so the
//! determinism rules (D001–D004) and the robustness rule R001 are enforced
//! on every `cargo test`, not just when someone remembers to run the binary.
//! Public-API docs in `simcore` and `core` are rustc's job: both crates
//! deny `missing_docs`. See DESIGN.md "Determinism rules".

use std::path::Path;

use mitt_lint::{render_human, scan_source, scan_workspace, FileKind, Rule};

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
