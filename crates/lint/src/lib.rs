//! `mitt-lint` — dependency-free determinism & invariant linter for the
//! MittOS reproduction workspace.
//!
//! Every figure in EXPERIMENTS.md is only reproducible if the same seed
//! yields the same event stream, so nondeterminism is a correctness bug here,
//! not a style nit. This crate is a hand-rolled static-analysis pass built on
//! a real token lexer ([`lexer`]) — raw strings, nested block comments, char
//! literals, and lifetimes are all handled, so rules match code tokens, never
//! text inside comments or literals. It scans every `.rs` file in the
//! workspace and enforces:
//!
//! | rule | meaning |
//! |------|---------|
//! | D001 | wall-clock use (`Instant`, `SystemTime`, `_rdtsc`) outside this crate |
//! | D002 | ambient entropy (`rand::`, `thread_rng`, ...) outside `simcore::rng` |
//! | D003 | order-dependent `HashMap`/`HashSet`/`FastMap`/`FastSet` iteration in non-test code |
//! | D004 | `thread::sleep`/`std::process`/`env::var` in simulation crates |
//! | R001 | `unwrap()`/`expect()` in library code of simcore/core/sched/device |
//! | O001 | direct `eprintln!` in figure binaries (use `mitt_bench::progress`) |
//! | T001 | truncating casts / mixed-unit arithmetic on virtual-clock values |
//! | T002 | float time state or float-literal equality in simulation crates |
//! | W001 | per-rule waiver count grew past `baselines/LINT_baseline.json` |
//!
//! Justified violations carry a pragma the scanner honors and tallies:
//!
//! ```text
//! let mut keys: Vec<u64> = self.pages.keys().copied().collect();
//! keys.sort_unstable(); // mitt-lint: allow(D003, "keys sorted before use")
//! ```
//!
//! The pragma must sit on the offending line or the line directly above it,
//! and must give a non-empty reason. Waivers are also *ratcheted*: W001 fails
//! the scan if any rule's waiver count exceeds the committed baseline, so
//! suppressions can only be added deliberately (`--write-baseline`).
//!
//! The companion binary (`cargo run -p mitt-lint`) prints human-readable,
//! `--format json`, or `--format sarif` reports and exits nonzero on
//! violations; `tests/lint.rs` at the workspace root runs the same scan under
//! `cargo test`, making the linter a permanent tier-1 gate.

pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use report::{render_human, render_json, render_sarif};
pub use rules::{scan_source, FileKind, FileOutcome, Rule, Suppression, Violation};
pub use workspace::{
    find_workspace_root, render_baseline, scan_workspace, scan_workspace_with_baseline, Report,
    DEFAULT_BASELINE,
};
