//! Machine-readable bench baselines: the `BENCH_<fig>.json` schema.
//!
//! Every figure binary can emit one [`BenchReport`] — per-strategy
//! p50/p95/p99 latency, EBUSY/retry/error/breaker counters, and a
//! per-predictor calibration summary — in a stable, diff-friendly JSON
//! encoding (`mitt-bench/v1`). [`BenchReport::parse`] rejects a report
//! whose percentiles are negative or out of order, and
//! [`BenchReport::compare`] checks a run against a committed baseline and
//! returns the list of regressions beyond two fixed thresholds, plus every
//! strategy row that stopped issuing EBUSY or, having rejected and beaten
//! Base's p99 in the baseline, stopped beating it; `mitt-obs compare`,
//! which parses both files, is the one gate over them.
//!
//! Formatting rules keeping the artifact deterministic: field order is
//! fixed by the writer (never a hash map), floats are fixed-point with
//! three decimals, and rows appear in the order the binary pushed them.

use mitt_cluster::ExperimentResult;
use mitt_sim::Fnv1a;

use crate::json::{escape, num3, JsonValue};
use crate::replay::AuditStats;

/// Schema identifier embedded in every report.
pub const BENCH_SCHEMA: &str = "mitt-bench/v1";

/// One strategy's latency and counter row.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRow {
    /// Strategy label (`base`, `mittos`, `hedged`, ...).
    pub name: String,
    /// Completed user operations.
    pub ops: u64,
    /// EBUSY responses observed by clients.
    pub ebusy: u64,
    /// Retries (timeouts, failovers, hedges).
    pub retries: u64,
    /// Requests that surfaced an error.
    pub errors: u64,
    /// Circuit-breaker open transitions.
    pub breaker_opens: u64,
    /// Backoff-delayed retries.
    pub backoff_retries: u64,
    /// Median per-get latency, ms.
    pub p50_ms: f64,
    /// 95th-percentile per-get latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile per-get latency, ms.
    pub p99_ms: f64,
}

impl StrategyRow {
    /// Builds a row from a cluster experiment result (`&mut` because the
    /// latency recorder sorts lazily on the first percentile query).
    pub fn from_result(name: &str, r: &mut ExperimentResult) -> Self {
        let mut pct = |p: f64| {
            if r.get_latencies.is_empty() {
                0.0
            } else {
                r.get_latencies.percentile(p).as_millis_f64()
            }
        };
        StrategyRow {
            name: name.to_string(),
            ops: r.ops,
            ebusy: r.ebusy,
            retries: r.retries,
            errors: r.errors,
            breaker_opens: r.breaker_opens,
            backoff_retries: r.backoff_retries,
            p50_ms: pct(50.0),
            p95_ms: pct(95.0),
            p99_ms: pct(99.0),
        }
    }
}

/// One predictor's calibration row (Figure 9 quantities).
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationRow {
    /// Predictor label (`mittcfq`, `mittssd`, ... or an audit label).
    pub predictor: String,
    /// Classified predictions.
    pub total: u64,
    /// False positives, % of total.
    pub fp_pct: f64,
    /// False negatives, % of total.
    pub fn_pct: f64,
    /// FP% + FN%.
    pub inaccuracy_pct: f64,
    /// Mean |predicted − actual| error over the misclassified IOs (false
    /// positives and false negatives) only, ms; Figure 9's "diff" column.
    pub mean_err_ms: f64,
    /// Max |predicted − actual| error over the misclassified IOs, ms.
    pub max_err_ms: f64,
}

impl CalibrationRow {
    /// A row from offline audit-pair classification.
    pub fn from_audit(predictor: &str, s: &AuditStats) -> Self {
        CalibrationRow {
            predictor: predictor.to_string(),
            total: s.total as u64,
            fp_pct: s.fp_pct,
            fn_pct: s.fn_pct,
            inaccuracy_pct: s.inaccuracy_pct(),
            mean_err_ms: s.mean_diff_ms,
            max_err_ms: s.max_diff_ms,
        }
    }
}

/// A whole figure's machine-readable result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema identifier ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Figure label (`fig9`, `fig5`, ...).
    pub fig: String,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Scale knob (ops count or trace seconds) so baselines are only
    /// compared against runs of the same size.
    pub scale: u64,
    /// Per-strategy rows, in push order.
    pub strategies: Vec<StrategyRow>,
    /// Per-predictor calibration rows, in push order.
    pub calibration: Vec<CalibrationRow>,
}

/// [`BenchReport::compare`]'s latency gate: the largest allowed relative
/// growth of any percentile, in percent.
pub const LATENCY_THRESHOLD_PCT: f64 = 10.0;

/// [`BenchReport::compare`]'s calibration gate: the largest allowed
/// absolute growth of a predictor's inaccuracy, in percentage points.
pub const CALIBRATION_THRESHOLD_PP: f64 = 1.0;

impl BenchReport {
    /// An empty report for `fig` at `seed`/`scale`.
    pub fn new(fig: &str, seed: u64, scale: u64) -> Self {
        BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            fig: fig.to_string(),
            seed,
            scale,
            strategies: Vec::new(),
            calibration: Vec::new(),
        }
    }

    /// Serialises with fixed field order and fixed-point floats.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", escape(&self.schema)));
        out.push_str(&format!("  \"fig\": {},\n", escape(&self.fig)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str("  \"strategies\": [\n");
        for (i, s) in self.strategies.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"ops\": {}, \"ebusy\": {}, \"retries\": {}, \
                 \"errors\": {}, \"breaker_opens\": {}, \"backoff_retries\": {}, \
                 \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}}}{}\n",
                escape(&s.name),
                s.ops,
                s.ebusy,
                s.retries,
                s.errors,
                s.breaker_opens,
                s.backoff_retries,
                num3(s.p50_ms),
                num3(s.p95_ms),
                num3(s.p99_ms),
                if i + 1 < self.strategies.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"calibration\": [\n");
        for (i, c) in self.calibration.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"predictor\": {}, \"total\": {}, \"fp_pct\": {}, \"fn_pct\": {}, \
                 \"inaccuracy_pct\": {}, \"mean_err_ms\": {}, \"max_err_ms\": {}}}{}\n",
                escape(&c.predictor),
                c.total,
                num3(c.fp_pct),
                num3(c.fn_pct),
                num3(c.inaccuracy_pct),
                num3(c.mean_err_ms),
                num3(c.max_err_ms),
                if i + 1 < self.calibration.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Parses a report; rejects malformed documents, unknown schemas and
    /// strategy rows whose percentiles are not `0 <= p50 <= p95 <= p99`.
    ///
    /// Newer report formats (e.g. `mitt-tsl/v1` timeline exports) may carry
    /// a complete bench report embedded under a top-level `"bench"`
    /// section; when the document's own schema is not `mitt-bench/v1` the
    /// parser descends into that section instead of failing, skipping
    /// whatever other top-level sections the newer schema added. A foreign
    /// schema *without* an embedded report is still an error.
    pub fn parse(s: &str) -> Result<BenchReport, String> {
        let v = JsonValue::parse(s)?;
        Self::from_value(&v)
    }

    fn from_value(v: &JsonValue) -> Result<BenchReport, String> {
        let schema = str_field(v, "schema")?;
        if schema != BENCH_SCHEMA {
            if let Some(inner) = v.get("bench") {
                return Self::from_value(inner);
            }
            return Err(format!(
                "unsupported schema '{schema}' (and no embedded 'bench' section)"
            ));
        }
        let mut report = BenchReport::new(&str_field(v, "fig")?, 0, 0);
        report.seed = num_field(v, "seed")? as u64;
        report.scale = num_field(v, "scale")? as u64;
        for row in v
            .get("strategies")
            .and_then(JsonValue::as_arr)
            .ok_or("missing 'strategies' array")?
        {
            let s = StrategyRow {
                name: str_field(row, "name")?,
                ops: num_field(row, "ops")? as u64,
                ebusy: num_field(row, "ebusy")? as u64,
                retries: num_field(row, "retries")? as u64,
                errors: num_field(row, "errors")? as u64,
                breaker_opens: num_field(row, "breaker_opens")? as u64,
                backoff_retries: num_field(row, "backoff_retries")? as u64,
                p50_ms: num_field(row, "p50_ms")?,
                p95_ms: num_field(row, "p95_ms")?,
                p99_ms: num_field(row, "p99_ms")?,
            };
            if !(0.0 <= s.p50_ms && s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms) {
                return Err(format!(
                    "strategy '{}': percentiles p50 {} / p95 {} / p99 {} are not \
                     non-negative and ordered",
                    s.name, s.p50_ms, s.p95_ms, s.p99_ms
                ));
            }
            report.strategies.push(s);
        }
        for row in v
            .get("calibration")
            .and_then(JsonValue::as_arr)
            .ok_or("missing 'calibration' array")?
        {
            report.calibration.push(CalibrationRow {
                predictor: str_field(row, "predictor")?,
                total: num_field(row, "total")? as u64,
                fp_pct: num_field(row, "fp_pct")?,
                fn_pct: num_field(row, "fn_pct")?,
                inaccuracy_pct: num_field(row, "inaccuracy_pct")?,
                mean_err_ms: num_field(row, "mean_err_ms")?,
                max_err_ms: num_field(row, "max_err_ms")?,
            });
        }
        Ok(report)
    }

    /// The Base strategy's row (`base` or `Base`), if the report has one.
    fn base_row(&self) -> Option<&StrategyRow> {
        self.strategies
            .iter()
            .find(|s| s.name == "base" || s.name == "Base")
    }

    /// Compares `run` against `self` (the baseline); returns one line per
    /// regression beyond [`LATENCY_THRESHOLD_PCT`] or
    /// [`CALIBRATION_THRESHOLD_PP`], one per strategy row that issued EBUSY
    /// in the baseline and none in `run`, one per row that issued EBUSY and
    /// beat Base's p99 in the baseline but not in `run`, and one per
    /// baseline row missing from `run`. Empty = pass.
    pub fn compare(&self, run: &BenchReport) -> Vec<String> {
        let mut regressions = Vec::new();
        if self.fig != run.fig {
            regressions.push(format!(
                "figure mismatch: baseline '{}' vs run '{}'",
                self.fig, run.fig
            ));
            return regressions;
        }
        if self.scale != run.scale {
            regressions.push(format!(
                "scale mismatch: baseline {} vs run {} (regenerate the baseline)",
                self.scale, run.scale
            ));
            return regressions;
        }
        let base_p99 = self.base_row().map(|b| b.p99_ms);
        for base in &self.strategies {
            let Some(cur) = run.strategies.iter().find(|s| s.name == base.name) else {
                regressions.push(format!("strategy '{}' missing from run", base.name));
                continue;
            };
            // A small absolute epsilon keeps sub-millisecond noise on
            // near-zero percentiles from tripping the relative gate.
            let lat = |label: &str, b: f64, r: f64| {
                let limit = b * (1.0 + LATENCY_THRESHOLD_PCT / 100.0) + 0.01;
                if r > limit {
                    Some(format!(
                        "{}: {} {:.3} ms exceeds baseline {:.3} ms (+{:.0}% threshold)",
                        base.name, label, r, b, LATENCY_THRESHOLD_PCT
                    ))
                } else {
                    None
                }
            };
            regressions.extend(lat("p50", base.p50_ms, cur.p50_ms));
            regressions.extend(lat("p95", base.p95_ms, cur.p95_ms));
            regressions.extend(lat("p99", base.p99_ms, cur.p99_ms));
            if cur.errors > base.errors {
                regressions.push(format!(
                    "{}: errors {} exceed baseline {}",
                    base.name, cur.errors, base.errors
                ));
            }
            // A row that engaged MittOS in the baseline and no longer
            // rejects anything has lost the mechanism the gate certifies.
            if base.ebusy > 0 && cur.ebusy == 0 {
                regressions.push(format!(
                    "{}: 0 EBUSY where baseline had {}",
                    base.name, base.ebusy
                ));
            }
            // A rejecting row that beat Base in the baseline must still
            // beat the run's Base at p99.
            if base.ebusy > 0 && base_p99.is_some_and(|p99| base.p99_ms < p99) {
                if let Some(run_base) = run.base_row().filter(|b| cur.p99_ms >= b.p99_ms) {
                    regressions.push(format!(
                        "{}: p99 {:.3} ms no longer beats {} p99 {:.3} ms",
                        base.name, cur.p99_ms, run_base.name, run_base.p99_ms
                    ));
                }
            }
        }
        for base in &self.calibration {
            let Some(cur) = run
                .calibration
                .iter()
                .find(|c| c.predictor == base.predictor)
            else {
                regressions.push(format!(
                    "calibration row '{}' missing from run",
                    base.predictor
                ));
                continue;
            };
            if cur.inaccuracy_pct > base.inaccuracy_pct + CALIBRATION_THRESHOLD_PP {
                regressions.push(format!(
                    "{}: inaccuracy {:.3}% exceeds baseline {:.3}% (+{:.1} pp threshold)",
                    base.predictor,
                    cur.inaccuracy_pct,
                    base.inaccuracy_pct,
                    CALIBRATION_THRESHOLD_PP
                ));
            }
        }
        regressions
    }

    /// Folds the whole report into a digest (format-independent).
    pub fn fold_digest(&self, h: &mut Fnv1a) {
        h.write_str(&self.schema);
        h.write_str(&self.fig);
        h.write_u64(self.seed);
        h.write_u64(self.scale);
        h.write_usize(self.strategies.len());
        for s in &self.strategies {
            h.write_str(&s.name);
            h.write_u64(s.ops);
            h.write_u64(s.ebusy);
            h.write_u64(s.retries);
            h.write_u64(s.errors);
            h.write_u64(s.breaker_opens);
            h.write_u64(s.backoff_retries);
            h.write_u64(s.p50_ms.to_bits());
            h.write_u64(s.p95_ms.to_bits());
            h.write_u64(s.p99_ms.to_bits());
        }
        h.write_usize(self.calibration.len());
        for c in &self.calibration {
            h.write_str(&c.predictor);
            h.write_u64(c.total);
            h.write_u64(c.inaccuracy_pct.to_bits());
        }
    }
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn num_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("fig9", 42, 20);
        r.strategies.push(StrategyRow {
            name: "mittos".to_string(),
            ops: 1000,
            ebusy: 40,
            retries: 41,
            errors: 0,
            breaker_opens: 0,
            backoff_retries: 0,
            p50_ms: 3.25,
            p95_ms: 12.5,
            p99_ms: 20.0,
        });
        r.calibration.push(CalibrationRow {
            predictor: "mittcfq".to_string(),
            total: 5000,
            fp_pct: 0.4,
            fn_pct: 0.3,
            inaccuracy_pct: 0.7,
            mean_err_ms: 1.2,
            max_err_ms: 9.0,
        });
        r
    }

    #[test]
    fn json_round_trip_preserves_the_report() {
        let r = sample();
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed.fig, "fig9");
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed.strategies.len(), 1);
        assert_eq!(parsed.strategies[0].ebusy, 40);
        assert!((parsed.calibration[0].inaccuracy_pct - 0.7).abs() < 1e-9);
        // Serialisation is stable: round-tripping again is byte-identical.
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn identical_reports_compare_clean() {
        let r = sample();
        assert!(r.compare(&sample()).is_empty());
    }

    #[test]
    fn latency_and_calibration_regressions_are_caught() {
        let base = sample();
        let mut bad = sample();
        bad.strategies[0].p95_ms = 20.0; // +60%
        bad.calibration[0].inaccuracy_pct = 5.0; // +4.3 pp
        let regs = base.compare(&bad);
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs[0].contains("p95"));
        assert!(regs[1].contains("inaccuracy"));
    }

    /// A never-reject predictor can leave latency inside the threshold (a
    /// lightly loaded figure), so losing every EBUSY is a regression of its
    /// own; a row whose baseline never rejected stays free to.
    #[test]
    fn a_row_that_stops_rejecting_is_a_regression() {
        let base = sample();
        let mut run = sample();
        run.strategies[0].ebusy = 0;
        let regs = base.compare(&run);
        assert_eq!(regs, vec!["mittos: 0 EBUSY where baseline had 40"]);
        run.strategies[0].ebusy = 1;
        assert!(base.compare(&run).is_empty());
        let mut quiet = sample();
        quiet.strategies[0].ebusy = 0;
        assert!(quiet.compare(&run).is_empty());
        run.strategies[0].ebusy = 0;
        assert!(quiet.compare(&run).is_empty());
    }

    /// `sample()` with a Base row whose p99 is `base_p99`.
    fn with_base(base_p99: f64) -> BenchReport {
        let mut r = sample();
        r.strategies.push(StrategyRow {
            name: "Base".to_string(),
            ebusy: 0,
            p99_ms: base_p99,
            ..r.strategies[0].clone()
        });
        r
    }

    /// A rejecting row that beat Base's p99 in the baseline regresses when
    /// the run's Base catches up with it, even inside the latency
    /// threshold.
    #[test]
    fn a_rejecting_row_that_stops_beating_base_is_a_regression() {
        let base = with_base(21.0);
        assert!(base.compare(&with_base(21.0)).is_empty());
        assert!(base.compare(&with_base(20.5)).is_empty());
        let regs = base.compare(&with_base(20.0));
        assert_eq!(
            regs,
            vec!["mittos: p99 20.000 ms no longer beats Base p99 20.000 ms"]
        );
        let mut run = with_base(21.0);
        run.strategies[0].p99_ms = 21.5;
        assert_eq!(base.compare(&run).len(), 1, "{:?}", base.compare(&run));
    }

    /// The rule binds only a row that rejected and beat Base in the
    /// baseline.
    #[test]
    fn rows_that_did_not_reject_or_beat_base_are_not_bound() {
        let mut quiet = with_base(21.0);
        quiet.strategies[0].ebusy = 0;
        let mut run = with_base(19.0);
        run.strategies[0].ebusy = 0;
        assert!(quiet.compare(&run).is_empty());
        let behind = with_base(19.0);
        assert!(behind.compare(&with_base(19.0)).is_empty());
    }

    #[test]
    fn rows_missing_from_the_run_are_regressions() {
        let mut base = sample();
        base.strategies.push(StrategyRow {
            name: "base".to_string(),
            ..base.strategies[0].clone()
        });
        let mut run = sample();
        run.calibration.clear();
        let regs = base.compare(&run);
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs[0].contains("strategy 'base' missing"), "{regs:?}");
        assert!(
            regs[1].contains("calibration row 'mittcfq' missing"),
            "{regs:?}"
        );
    }

    #[test]
    fn parse_rejects_disordered_and_negative_percentiles() {
        let mut inverted = sample();
        inverted.strategies[0].p99_ms = 3.0; // below p50 = 3.25
        let mut negative = sample();
        negative.strategies[0].p50_ms = -0.5;
        for bad in [inverted, negative] {
            let err = BenchReport::parse(&bad.to_json()).unwrap_err();
            assert!(err.contains("not non-negative and ordered"), "{err}");
        }
    }

    #[test]
    fn scale_mismatch_refuses_to_compare() {
        let base = sample();
        let mut other = sample();
        other.scale = 99;
        let regs = base.compare(&other);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("scale mismatch"));
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let doc = sample().to_json().replace("mitt-bench/v1", "mitt-bench/v0");
        assert!(BenchReport::parse(&doc).is_err());
    }

    #[test]
    fn embedded_bench_section_in_newer_schema_parses() {
        // mitt-tsl/v1-style wrapper: a foreign schema with sections the
        // bench parser has never heard of, plus a complete report under
        // "bench". compare() against such a document must keep working.
        let inner = sample().to_json();
        let doc = format!(
            "{{\n  \"schema\": \"mitt-tsl/v1\",\n  \"timelines\": [],\n  \
             \"alerts\": [{{\"kind\": \"fast_burn\"}}],\n  \"bench\": {inner}}}\n"
        );
        let parsed = BenchReport::parse(&doc).unwrap();
        assert_eq!(parsed.fig, "fig9");
        assert_eq!(parsed.to_json(), inner);
        assert!(sample().compare(&parsed).is_empty());
    }

    #[test]
    fn foreign_schema_without_embedded_bench_is_rejected() {
        let err =
            BenchReport::parse("{\"schema\": \"mitt-prof/v1\", \"profiles\": []}").unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn unknown_extra_top_level_sections_are_skipped() {
        // A newer producer may append sections to a mitt-bench/v1 doc; the
        // parser reads the fields it knows and ignores the rest.
        let doc = sample().to_json().replacen(
            "{\n",
            "{\n  \"future_section\": {\"x\": 1},\n  \"blobs\": [1, 2, 3],\n",
            1,
        );
        let parsed = BenchReport::parse(&doc).unwrap();
        assert_eq!(parsed.to_json(), sample().to_json());
    }
}
