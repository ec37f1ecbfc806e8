//! `perf`: a calibrated offline benchmark of the MittOS simulator.
//!
//! ```text
//! perf [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--smoke]
//! perf --compare BASELINE.json CANDIDATE.json
//! ```
//!
//! Without `--workload` every workload runs, each at its figure's seed
//! unless `--seed` is given. `--trace 0` (the default) measures the
//! end-to-end metrics, `--trace 1` the per-layer ones. Every metric is
//! printed as `<workload>.<metric>=<value>`, diagnostics as `raw.*` and
//! `info.*`, and the last line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--json` also writes a
//! `mitt-perf/v1` results file, the input of `--compare`.
//!
//! Exit codes: 0 when every self-check passed, 1 when one failed (or
//! `--compare` found a regression), 2 on a usage or I/O error. See
//! README.md next to this package.

mod drivers;
mod e2e;
mod measure;
mod metrics;
mod report;
mod traced;
mod workloads;

use std::process::ExitCode;

use report::{Sample, WorkloadReport};
use workloads::Workload;

/// Measuring time per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: perf [--workload cfq20|cfq20_obs|tiered3|lsm20] [--seed N] \
[--seconds S] [--trace 0|1] [--json FILE] [--smoke]\n       perf --compare BASELINE.json CANDIDATE.json";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?;
                out.workloads = vec![w];
            }
            "--seed" => out.seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                out.seconds = s;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--json" => out.json = Some(value()?.clone()),
            "--smoke" => out.smoke = true,
            "--compare" => {
                let a = value()?.clone();
                let b = it.next().ok_or("--compare needs two files")?.clone();
                out.compare = Some((a, b));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                println!("perf: {e}");
            }
            println!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    let (reports, failures) = run(&args);
    for r in &reports {
        for line in report::lines(r) {
            println!("{line}");
        }
    }
    for f in &failures {
        println!("# FAIL {f}");
    }
    let correct = failures.is_empty();
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report::results_json(&reports, args.trace, correct)) {
            println!("perf: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", report::result_line(&reports, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Measures every selected workload; returns the reports and every failed
/// self-check.
fn run(args: &Args) -> (Vec<WorkloadReport>, Vec<String>) {
    let mut reports = Vec::new();
    let mut failures = Vec::new();
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        let seed = args.seed.unwrap_or(w.default_seed());
        let ops = w.ops(args.smoke);
        let r = if args.trace {
            let t = traced::measure(w, seed, ops, args.seconds, args.smoke);
            failures.extend(t.failures);
            WorkloadReport {
                workload: w.name(),
                seed,
                samples: t
                    .metrics
                    .iter()
                    .map(|&(n, v)| Sample::new(n, vec![v]))
                    .collect(),
                raw: Vec::new(),
                info: vec![("traced_reps", t.reps as f64)],
                attempted: t.attempted,
                failed: t.failed,
            }
        } else {
            let e = e2e::measure(w, seed, ops, args.seconds, args.smoke);
            failures.extend(e.failures.iter().cloned());
            let all = |f: fn(&e2e::RepSample) -> f64| e.reps.iter().map(f).collect::<Vec<_>>();
            let v = e.virt;
            let report = WorkloadReport {
                workload: w.name(),
                seed,
                samples: vec![
                    Sample::new("gets_per_s", all(|s| s.gets_per_s)),
                    Sample::new("setup_s", all(|s| s.setup_s)),
                    Sample::new("peak_heap_mb", vec![e.peak_heap_mb]),
                    Sample::new("p50_ms", vec![v.p50_ms]),
                    Sample::new("p99_ms", vec![v.p99_ms]),
                    Sample::new("tail_cut_pct", vec![v.tail_cut_pct]),
                    Sample::new("slo_miss_pct", vec![v.slo_miss_pct]),
                ],
                raw: vec![
                    ("gets_per_s", e.median(|s| s.raw_gets_per_s)),
                    ("setup_s", e.median(|s| s.raw_setup_s)),
                    ("calib_ms", e.median(|s| s.calib_ms)),
                ],
                info: vec![
                    ("reps", e.reps.len() as f64),
                    ("gets", v.gets as f64),
                    ("beyond_p99", v.beyond_p99 as f64),
                ],
                attempted: e.attempted,
                failed: e.failed,
            };
            outcomes.push((w, e.outcomes));
            report
        };
        for s in &r.samples {
            if !s.values.iter().all(|v| v.is_finite()) {
                failures.push(format!(
                    "{}.{} is not a finite number",
                    r.workload, s.metric.name
                ));
            }
        }
        reports.push(r);
    }
    let find = |w: Workload| outcomes.iter().find(|(x, _)| *x == w).map(|(_, o)| o);
    if let (Some(plain), Some(obs)) = (find(Workload::Cfq20), find(Workload::Cfq20Obs)) {
        if plain != obs {
            failures.push("cfq20_obs: virtual results differ from cfq20's".to_string());
        }
    }
    (reports, failures)
}

/// `--compare`: prints one verdict line per metric and exits 1 when any
/// metric regressed beyond its bound.
fn compare(a: &str, b: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let result =
        read(a).and_then(|a_text| read(b).and_then(|b_text| report::compare(&a_text, &b_text)));
    match result {
        Ok((lines, ok)) => {
            for l in lines {
                println!("{l}");
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            println!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use mitt_obs::JsonValue;

    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// The repository's `BENCHMARK.json`.
    fn benchmark_json() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        JsonValue::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` declares exactly the catalogued metrics, with the
    /// same units, directions and bounds, and exactly the workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = doc.get(key).and_then(JsonValue::as_arr).expect("a list");
            assert_eq!(declared.len(), catalogue.len(), "{key}");
            for (d, m) in declared.iter().zip(catalogue) {
                let field = |f: &str| d.get(f).and_then(JsonValue::as_str);
                assert_eq!(field("name"), Some(m.name), "{key}");
                assert_eq!(field("unit"), Some(m.unit), "{}", m.name);
                assert_eq!(field("better"), Some(m.better.name()), "{}", m.name);
                assert_eq!(
                    d.get("bound").and_then(JsonValue::as_num),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    /// Every workload at smoke size, untraced and traced: all self-checks
    /// pass and each emits exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn smoke_run_passes_its_self_checks_and_emits_the_declared_metrics() {
        let doc = benchmark_json();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workloads: Workload::ALL.to_vec(),
                seed: None,
                seconds: 0.0,
                trace,
                json: None,
                smoke: true,
                compare: None,
            };
            let (reports, failures) = run(&args);
            assert!(failures.is_empty(), "self-checks failed: {failures:?}");
            assert_eq!(reports.len(), Workload::ALL.len());
            for r in &reports {
                let emitted: Vec<&str> = r.samples.iter().map(|s| s.metric.name).collect();
                assert_eq!(emitted, names(&doc, key), "{}", r.workload);
                assert!(r.attempted > 0 && r.failed == 0, "{}", r.workload);
            }
        }
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "-1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        let ok = parse(&[
            "--workload",
            "lsm20",
            "--seed",
            "7",
            "--seconds",
            "1.5",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(ok.workloads, vec![Workload::Lsm20]);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (Some(7), 1.5, true));
    }
}
