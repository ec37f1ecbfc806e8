//! Shared command-line flag parsing for the figure binaries.
//!
//! Every bench binary accepts `--trace <out.json>`: when present, the
//! first experiment the binary runs records a structured trace and exports
//! it as Chrome `chrome://tracing` / Perfetto JSON to the given path.
//! Parsing lives here so the eighteen binaries share one implementation
//! (and one help message) instead of eighteen ad-hoc ones.
//!
//! Binaries route their cluster runs through [`trace_flag`]`().run(cfg)`;
//! without the flag that is exactly `run_experiment(cfg)`.
//!
//! Binaries that emit machine-readable baselines additionally honour
//! [`bench_json`]`()`: `--bench-json <BENCH_fig.json>` writes the run's
//! [`BenchReport`], and fig9's `--degrade` injects a whole-run
//! `PredictorBias` fault so the regression gate can be exercised. A
//! binary only writes its report; `mitt-obs compare <baseline> <report>`
//! is the one place a report is checked against a committed baseline.
//!
//! Every valued flag, here and in the binaries, is read by [`flag_value`],
//! so each accepts both `--flag value` and `--flag=value` and a trailing
//! bare `--flag` exits 2 with a usage line.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use mitt_cluster::{run_experiment, ExperimentConfig, ExperimentResult};
use mitt_obs::BenchReport;

use crate::progress;

/// The value of the last `--name <value>` or `--name=<value>` among the
/// process arguments, or `None` when the flag is absent. A bare `--name`
/// with nothing after it prints `usage: --name <placeholder>` and exits 2.
pub fn flag_value(name: &str, placeholder: &str) -> Option<String> {
    value_in(std::env::args().skip(1), name, placeholder)
}

fn value_in(
    args: impl IntoIterator<Item = String>,
    name: &str,
    placeholder: &str,
) -> Option<String> {
    let mut args = args.into_iter();
    let mut value = None;
    while let Some(a) = args.next() {
        if a == name {
            match args.next() {
                Some(v) => value = Some(v),
                None => {
                    eprintln!("usage: {name} <{placeholder}>");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
            value = Some(v.to_string());
        }
    }
    value
}

/// The `--trace <out.json>` flag.
#[derive(Debug, Default)]
pub struct TraceFlag {
    path: Option<PathBuf>,
    saved: AtomicBool,
}

/// The process-wide flag, parsed from `std::env::args` on first use.
pub fn trace_flag() -> &'static TraceFlag {
    static FLAG: OnceLock<TraceFlag> = OnceLock::new();
    FLAG.get_or_init(TraceFlag::from_args)
}

impl TraceFlag {
    fn from_args() -> Self {
        TraceFlag {
            path: flag_value("--trace", "out.json").map(PathBuf::from),
            saved: AtomicBool::new(false),
        }
    }

    /// A flag that exports to `path` (for composing in code, e.g. tests).
    pub fn to_path(path: PathBuf) -> Self {
        TraceFlag {
            path: Some(path),
            saved: AtomicBool::new(false),
        }
    }

    /// True when the user asked for a trace export.
    pub fn is_on(&self) -> bool {
        self.path.is_some()
    }

    /// Claims the one trace-export slot: returns true exactly once per
    /// process when the flag is on. Binaries that export a hand-built
    /// trace (e.g. fig9's audited replay with calibration counter tracks)
    /// claim the slot first so a later [`TraceFlag::run`] does not
    /// overwrite their file.
    pub fn claim(&self) -> bool {
        self.is_on() && !self.saved.swap(true, Ordering::Relaxed)
    }

    /// Writes pre-rendered Chrome JSON to the requested path (no-op
    /// without the flag).
    pub fn save_chrome_json(&self, json: &str) {
        let Some(path) = &self.path else { return };
        match std::fs::write(path, json) {
            Ok(()) => progress::note(&format!("wrote Chrome trace to {}", path.display())),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }

    /// Runs `cfg`. When the flag is on, the first run through this flag
    /// records a trace and writes the Chrome JSON to the requested path;
    /// later runs (and all runs without the flag) are untouched.
    pub fn run(&self, mut cfg: ExperimentConfig) -> ExperimentResult {
        let export = self.is_on() && !self.saved.swap(true, Ordering::Relaxed);
        if export {
            cfg.trace = true;
        }
        let res = run_experiment(cfg);
        if export {
            self.save(&res);
        }
        res
    }

    /// Writes a run's Chrome trace to the requested path (no-op without
    /// the flag).
    pub fn save(&self, res: &ExperimentResult) {
        self.save_chrome_json(&res.trace.export_chrome_json());
    }
}

/// The `--bench-json` / `--degrade` flag set for machine-readable
/// baselines.
#[derive(Debug)]
pub struct BenchJsonFlag {
    path: Option<PathBuf>,
    degrade: bool,
}

/// The process-wide bench-json flag set, parsed from `std::env::args` on
/// first use.
pub fn bench_json() -> &'static BenchJsonFlag {
    static FLAG: OnceLock<BenchJsonFlag> = OnceLock::new();
    FLAG.get_or_init(BenchJsonFlag::from_args)
}

impl BenchJsonFlag {
    fn from_args() -> Self {
        BenchJsonFlag {
            path: flag_value("--bench-json", "BENCH_fig.json").map(PathBuf::from),
            degrade: std::env::args().skip(1).any(|a| a == "--degrade"),
        }
    }

    /// True when the user asked for a JSON report.
    pub fn is_on(&self) -> bool {
        self.path.is_some()
    }

    /// True when `--degrade` asked for a `PredictorBias`-degraded run.
    pub fn degrade(&self) -> bool {
        self.degrade
    }

    /// Writes the report when `--bench-json` was given; exits 2 if it
    /// cannot be written.
    pub fn finish_or_exit(&self, report: &BenchReport) {
        let Some(path) = &self.path else { return };
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: {}: {e}", path.display());
            std::process::exit(2);
        }
        progress::note(&format!("wrote bench report to {}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_cluster::{NodeConfig, Strategy};

    fn tiny() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::micro(NodeConfig::disk_cfq(), Strategy::Base);
        cfg.ops_per_client = 2;
        cfg
    }

    #[test]
    fn flag_value_takes_both_spellings_and_the_last_wins() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let get = |v: &[&str]| value_in(args(v), "--out", "file");
        assert_eq!(get(&["--out", "a.json"]).as_deref(), Some("a.json"));
        assert_eq!(get(&["--out=b.json"]).as_deref(), Some("b.json"));
        assert_eq!(get(&["--out=a", "-q", "--out", "c"]).as_deref(), Some("c"));
        assert_eq!(get(&["--output=x", "--outx", "y"]), None);
    }

    #[test]
    fn absent_flag_is_plain_run_experiment() {
        let flag = TraceFlag::default();
        assert!(!flag.is_on());
        let res = flag.run(tiny());
        assert_eq!(res.ops, 2);
        assert!(!res.trace.is_enabled());
    }

    #[test]
    fn first_run_records_and_exports_later_runs_do_not() {
        let out = std::env::temp_dir().join("mitt-bench-flags-test.json");
        let _ = std::fs::remove_file(&out);
        let flag = TraceFlag::to_path(out.clone());
        let first = flag.run(tiny());
        assert!(first.trace.is_enabled());
        let json = std::fs::read_to_string(&out).expect("trace written");
        assert!(
            json.starts_with("{\"traceEvents\":["),
            "Chrome JSON object, got: {json:.30}"
        );
        let second = flag.run(tiny());
        assert!(!second.trace.is_enabled(), "only the first run is traced");
        let _ = std::fs::remove_file(&out);
    }
}
