//! Reporting: the key=value lines, the one-line JSON result, the
//! `mitt-perf/v1` results file, and `--compare` over two results files.

use std::fmt::Write as _;

use mitt_obs::JsonValue;

use crate::measure::{median, quartiles};
use crate::metrics::{self, Better, Metric};

/// Schema tag of the results file written by `--json`.
pub(crate) const SCHEMA: &str = "mitt-perf/v1";

/// One metric's measured values for one workload (one per repetition for
/// wall-clock metrics, a single value otherwise). Its value is the median.
#[derive(Debug, Clone)]
pub(crate) struct Sample {
    pub(crate) metric: &'static Metric,
    pub(crate) values: Vec<f64>,
}

impl Sample {
    pub(crate) fn new(name: &str, values: Vec<f64>) -> Self {
        Sample {
            metric: metrics::find(name).expect("every reported metric is catalogued"),
            values,
        }
    }

    pub(crate) fn value(&self) -> f64 {
        median(&self.values)
    }
}

/// Everything reported for one workload.
#[derive(Debug, Clone)]
pub(crate) struct WorkloadReport {
    pub(crate) workload: &'static str,
    pub(crate) seed: u64,
    pub(crate) samples: Vec<Sample>,
    /// Diagnostics printed as `raw.<workload>.<name>` and never gated.
    pub(crate) raw: Vec<(&'static str, f64)>,
    /// Facts about the run printed as `info.<workload>.<name>`.
    pub(crate) info: Vec<(&'static str, f64)>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
}

/// A JSON number, or `null` for a non-finite value.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The `key=value` lines of one workload.
pub(crate) fn lines(r: &WorkloadReport) -> Vec<String> {
    let w = r.workload;
    let mut out: Vec<String> = r
        .samples
        .iter()
        .map(|s| format!("{w}.{}={}", s.metric.name, s.value()))
        .collect();
    out.extend(r.raw.iter().map(|(k, v)| format!("raw.{w}.{k}={v}")));
    out.extend(r.info.iter().map(|(k, v)| format!("info.{w}.{k}={v}")));
    out
}

/// The one-line JSON result. Metric keys are bare names when one workload
/// ran, `<workload>.<name>` otherwise.
pub(crate) fn result_line(reports: &[WorkloadReport], correct: bool) -> String {
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut metrics = Vec::new();
    for r in reports {
        for s in &r.samples {
            let key = if reports.len() == 1 {
                s.metric.name.to_string()
            } else {
                format!("{}.{}", r.workload, s.metric.name)
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(s.value()),
                s.metric.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The `mitt-perf/v1` results file: every sample with all its values.
pub(crate) fn results_json(reports: &[WorkloadReport], trace: bool, correct: bool) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"trace\": {trace},\n  \"correct\": {correct},\n  \"workloads\": {{\n"
    );
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"seed\": {}, \"metrics\": {{",
            r.workload, r.seed
        );
        for (j, s) in r.samples.iter().enumerate() {
            let values: Vec<String> = s.values.iter().map(|&v| num(v)).collect();
            let _ = writeln!(
                out,
                "      \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"values\": [{}]}}{}",
                s.metric.name,
                s.metric.unit,
                s.metric.better.name(),
                values.join(", "),
                if j + 1 < r.samples.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "    }}}}{}",
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// `(workload, metric) -> values` from a results file.
fn parse_results(text: &str) -> Result<Vec<(String, String, Vec<f64>)>, String> {
    let doc = JsonValue::parse(text)?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} results file"));
    }
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_obj)
        .ok_or("missing \"workloads\"")?;
    let mut out = Vec::new();
    for (w, body) in workloads {
        let metrics = body
            .get("metrics")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| format!("{w}: missing \"metrics\""))?;
        for (m, entry) in metrics {
            let values = entry
                .get("values")
                .and_then(JsonValue::as_arr)
                .ok_or_else(|| format!("{w}.{m}: missing \"values\""))?
                .iter()
                .map(|v| {
                    v.as_num()
                        .ok_or_else(|| format!("{w}.{m}: non-numeric value"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            out.push((w.clone(), m.clone(), values));
        }
    }
    Ok(out)
}

/// The verdict on one metric of one workload, `a` the baseline.
fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> &'static str {
    let Some(bound) = metric.bound else {
        return "no bound";
    };
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs()
    };
    // Positive when B is worse than A.
    let worse = |x: f64, y: f64| match metric.better {
        Better::Lower => (y - x) / x.abs(),
        Better::Higher => (x - y) / x.abs(),
    };
    let all_better = a.iter().all(|&x| b.iter().all(|&y| worse(x, y) < 0.0));
    let change = worse(median(a), median(b));
    if spread(a).max(spread(b)) > bound {
        if all_better {
            "better"
        } else {
            "unresolved"
        }
    } else if change > bound {
        "REGRESSED"
    } else if -change > bound {
        "better"
    } else {
        "within bound"
    }
}

/// Compares two results files metric by metric; returns the report lines
/// and whether no metric regressed beyond its bound.
pub(crate) fn compare(a_text: &str, b_text: &str) -> Result<(Vec<String>, bool), String> {
    let a = parse_results(a_text).map_err(|e| format!("baseline: {e}"))?;
    let b = parse_results(b_text).map_err(|e| format!("candidate: {e}"))?;
    let mut lines = Vec::new();
    let mut ok = true;
    for (w, m, av) in &a {
        let Some(metric) = metrics::find(m) else {
            continue;
        };
        let Some((_, _, bv)) = b.iter().find(|(bw, bm, _)| bw == w && bm == m) else {
            lines.push(format!("{w}.{m}: missing from the candidate"));
            ok = false;
            continue;
        };
        if av.is_empty() || bv.is_empty() {
            lines.push(format!("{w}.{m}: no values"));
            ok = false;
            continue;
        }
        let v = verdict(metric, av, bv);
        ok &= v != "REGRESSED";
        let summary = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{} [{q1}, {q3}]", median(v))
        };
        lines.push(format!(
            "{w}.{m}: A {}  B {}  change {:+.2}%  {v}",
            summary(av),
            summary(bv),
            100.0 * (median(bv) / median(av) - 1.0)
        ));
    }
    Ok((lines, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(gets: Vec<f64>, p99: f64) -> WorkloadReport {
        WorkloadReport {
            workload: "cfq20",
            seed: 5,
            samples: vec![
                Sample::new("gets_per_s", gets),
                Sample::new("p99_ms", vec![p99]),
            ],
            raw: Vec::new(),
            info: Vec::new(),
            attempted: 1,
            failed: 0,
        }
    }

    fn compare_reports(a: WorkloadReport, b: WorkloadReport) -> (Vec<String>, bool) {
        compare(
            &results_json(&[a], false, true),
            &results_json(&[b], false, true),
        )
        .expect("both files parse")
    }

    #[test]
    fn compare_flags_regressions_and_unresolved_spreads() {
        let base = report(vec![100.0, 101.0, 99.0, 100.0, 100.5], 20.0);
        // Throughput within bound, p99 worse by 25% (bound 12%).
        let (lines, ok) = compare_reports(
            base.clone(),
            report(vec![98.0, 97.0, 99.0, 98.5, 97.5], 25.0),
        );
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("cfq20.gets_per_s") && l.ends_with("within bound")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("cfq20.p99_ms") && l.ends_with("REGRESSED")));
        // A spread wider than the bound is unresolved, not a regression.
        let (lines, ok) =
            compare_reports(base, report(vec![60.0, 100.0, 140.0, 80.0, 120.0], 20.0));
        assert!(ok);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("cfq20.gets_per_s") && l.ends_with("unresolved")));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(&[report(vec![1.5, 2.5], 3.0)], true);
        let v = JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_num), Some(1.0));
        let gets = v
            .get("metrics")
            .and_then(|m| m.get("gets_per_s"))
            .expect("metric");
        assert_eq!(gets.get("value").and_then(JsonValue::as_num), Some(2.0));
        assert_eq!(gets.get("unit").and_then(JsonValue::as_str), Some("1/s"));
    }
}
