//! `mitt-obs` — observability CLI.
//!
//! ```text
//! mitt-obs compare <baseline.json> <run.json>
//! ```
//!
//! Compares a `BENCH_<fig>.json` run report (or a `mitt-tsl/v1` export
//! embedding one) against a committed baseline. This is the only gate
//! over bench reports: both files go through `BenchReport::parse`, which
//! rejects malformed reports, and `BenchReport::compare` flags every
//! percentile more than `LATENCY_THRESHOLD_PCT` above the baseline's,
//! every calibration row more than `CALIBRATION_THRESHOLD_PP` worse, and
//! every baseline row missing from the run. Exit status: 0 = within
//! thresholds, 1 = regressions (one per line on stdout), 2 = usage or IO
//! error.

use std::process::ExitCode;

use mitt_obs::{BenchReport, CALIBRATION_THRESHOLD_PP, LATENCY_THRESHOLD_PCT};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [cmd, baseline_path, run_path] = args.as_slice() else {
        return usage();
    };
    if cmd != "compare" {
        return usage();
    }
    let load = |path: &String| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, run) = match (load(baseline_path), load(run_path)) {
        (Ok(b), Ok(r)) => (b, r),
        (b, r) => {
            for err in [b.err(), r.err()].into_iter().flatten() {
                eprintln!("error: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let regressions = baseline.compare(&run);
    if regressions.is_empty() {
        println!(
            "ok: {} within thresholds (latency +{LATENCY_THRESHOLD_PCT:.0}%, \
             calibration +{CALIBRATION_THRESHOLD_PP:.1} pp)",
            run.fig
        );
        ExitCode::SUCCESS
    } else {
        println!("{} regression(s) in {}:", regressions.len(), run.fig);
        for r in &regressions {
            println!("  {r}");
        }
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: mitt-obs compare <baseline.json> <run.json>");
    ExitCode::from(2)
}
