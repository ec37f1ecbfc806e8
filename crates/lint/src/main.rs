//! Command-line front end for `mitt-lint`.
//!
//! ```text
//! cargo run -p mitt-lint                       # human-readable report
//! cargo run -p mitt-lint -- --format json      # machine-readable report
//! cargo run -p mitt-lint -- --format sarif     # SARIF 2.1.0 for CI upload
//! cargo run -p mitt-lint -- --fix              # list mechanical fix hints
//! cargo run -p mitt-lint -- --write-baseline   # regenerate waiver ratchet
//! cargo run -p mitt-lint -- --root /path     # scan another tree
//! ```
//!
//! `--json` is kept as an alias for `--format json`. Exit status: 0 when the
//! workspace is clean, 1 on violations (or malformed pragmas), 2 on usage or
//! IO errors.

use std::path::PathBuf;
use std::process::ExitCode;

use mitt_lint::{
    find_workspace_root, render_baseline, render_human, render_json, render_sarif,
    scan_workspace_with_baseline, DEFAULT_BASELINE,
};

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut fix = false;
    let mut write_baseline = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!(
                        "mitt-lint: --format wants human|json|sarif, got `{}`",
                        other.unwrap_or("")
                    );
                    return ExitCode::from(2);
                }
            },
            "--fix" => fix = true,
            "--write-baseline" => write_baseline = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("mitt-lint: --root needs a path argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: mitt-lint [--format human|json|sarif] [--fix] \
                     [--write-baseline] [--root <workspace-dir>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("mitt-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("mitt-lint: cannot read current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "mitt-lint: no workspace Cargo.toml found above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    // The ratchet baseline is the root's committed one, when it exists.
    // `--write-baseline` scans without ratcheting (the point is to record
    // the current counts, not to compare them).
    let baseline_path = root.join(DEFAULT_BASELINE);
    let ratchet = (!write_baseline && baseline_path.exists()).then_some(baseline_path.as_path());

    let report = match scan_workspace_with_baseline(&root, ratchet) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mitt-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if write_baseline {
        if let Some(dir) = baseline_path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("mitt-lint: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&baseline_path, render_baseline(&report)) {
            eprintln!("mitt-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "mitt-lint: wrote waiver baseline to {} ({} waiver(s))",
            baseline_path.display(),
            report.suppressed.len()
        );
    }

    match format {
        Format::Human => print!("{}", render_human(&report)),
        Format::Json => print!("{}", render_json(&report)),
        Format::Sarif => print!("{}", render_sarif(&report)),
    }
    if fix && format == Format::Human {
        let fixes: Vec<_> = report
            .violations
            .iter()
            .filter_map(|v| v.suggestion.as_ref().map(|s| (v, s)))
            .collect();
        if fixes.is_empty() {
            println!("mitt-lint: no mechanical fixes to suggest");
        } else {
            println!("mitt-lint: {} mechanical fix suggestion(s):", fixes.len());
            for (v, s) in fixes {
                println!("  {}:{}: {}", v.file, v.line, s);
            }
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
