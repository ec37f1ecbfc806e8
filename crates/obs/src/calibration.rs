//! Streaming predictor-calibration telemetry (Figure 9, §7.6).
//!
//! [`CalibrationStream`] drives the shared [`PredictionJoin`] over a trace
//! event stream and keeps, per predictor, the Figure 9 counts: false
//! positives (would-reject but met the deadline) and false negatives (no
//! reject but missed it). A `Reject` closes a prediction with no outcome
//! (EBUSY before the IO ran); a `Complete` is scored by
//! [`PredictorStats::score`], as [`crate::replay::classify`] scores audit
//! pairs, so on an audit-mode replay trace the two pipelines agree exactly.
//!
//! [`chrome_export_with_counters`] re-exports a sink's trace with
//! synthesized Chrome/Perfetto counter tracks (`ph:"C"`): after each
//! resolved prediction the predictor's running inaccuracy count and the
//! sample's error are appended at the same virtual timestamp. Being a
//! pure fold over the recorded events, the export stays byte-identical
//! across same-seed runs.

use std::collections::BTreeMap;

use mitt_sim::Duration;
use mitt_trace::{EventKind, Subsystem, TraceEvent, TraceSink};

use crate::join::{Joined, PredictionJoin};

/// How the stream classifies each resolved prediction.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// Network allowance added to the deadline (§4.1's hop).
    pub hop: Duration,
    /// Classify against this deadline instead of the one recorded on the
    /// `Predict` event (Figure 9 classifies at the workload's p95, not
    /// the replay's placeholder deadline).
    pub deadline_override: Option<Duration>,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            hop: mittos::DEFAULT_HOP,
            deadline_override: None,
        }
    }
}

/// Running Figure 9 counters for one predictor.
#[derive(Debug, Clone, Default)]
pub struct PredictorStats {
    /// Predictions resolved by a completion.
    pub total: u64,
    /// Predictions closed by an EBUSY (no observable outcome).
    pub rejected: u64,
    /// False positives: would-reject, met the deadline.
    pub false_pos: u64,
    /// False negatives: admitted, missed the deadline.
    pub false_neg: u64,
}

impl PredictorStats {
    /// False positives as % of resolved predictions.
    pub fn fp_pct(&self) -> f64 {
        100.0 * self.false_pos as f64 / self.total.max(1) as f64
    }

    /// False negatives as % of resolved predictions.
    pub fn fn_pct(&self) -> f64 {
        100.0 * self.false_neg as f64 / self.total.max(1) as f64
    }

    /// FP% + FN% — the paper's inaccuracy metric.
    pub fn inaccuracy_pct(&self) -> f64 {
        self.fp_pct() + self.fn_pct()
    }

    /// Counts one prediction scored against its outcome: the predicted and
    /// the actual wait are each judged by `mittos::misses` at `deadline`
    /// and `hop`. Returns true if the prediction was misclassified.
    pub fn score(
        &mut self,
        predicted: Duration,
        actual: Duration,
        deadline: Duration,
        hop: Duration,
    ) -> bool {
        self.total += 1;
        match (
            mittos::misses(predicted, deadline, hop),
            mittos::misses(actual, deadline, hop),
        ) {
            (true, false) => self.false_pos += 1,
            (false, true) => self.false_neg += 1,
            _ => return false,
        }
        true
    }
}

/// Streaming per-predictor calibration over a trace event stream.
#[derive(Debug, Clone)]
pub struct CalibrationStream {
    cfg: CalibrationConfig,
    join: PredictionJoin,
    stats: BTreeMap<&'static str, PredictorStats>,
}

/// What [`CalibrationStream::on_event`] did with one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolved {
    /// The event did not resolve a prediction.
    None,
    /// A prediction was resolved; payload for counter-track synthesis.
    Sample {
        /// The predictor that made the prediction.
        sub: Subsystem,
        /// |predicted − actual| for this sample, ns.
        err_ns: u64,
        /// The predictor's cumulative FP+FN count after this sample.
        inaccurate: u64,
    },
}

impl CalibrationStream {
    /// An empty stream classifying with `cfg`.
    pub fn new(cfg: CalibrationConfig) -> Self {
        CalibrationStream {
            cfg,
            join: PredictionJoin::default(),
            stats: BTreeMap::new(),
        }
    }

    /// Feeds one event; reports whether it resolved a prediction.
    pub fn on_event(&mut self, ev: &TraceEvent) -> Resolved {
        match self.join.on_event(ev) {
            Joined::None => Resolved::None,
            Joined::Rejected(p) => {
                self.stats.entry(p.sub.name()).or_default().rejected += 1;
                Resolved::None
            }
            Joined::Completed(p, wait) => {
                let (deadline, hop) = (self.cfg.deadline_override, self.cfg.hop);
                let s = self.stats.entry(p.sub.name()).or_default();
                s.score(p.predicted, wait, deadline.unwrap_or(p.deadline), hop);
                Resolved::Sample {
                    sub: p.sub,
                    err_ns: p.predicted.as_nanos().abs_diff(wait.as_nanos()),
                    inaccurate: s.false_pos + s.false_neg,
                }
            }
        }
    }

    /// Builds a stream over everything a sink recorded.
    pub fn from_sink(sink: &TraceSink, cfg: CalibrationConfig) -> Self {
        let mut s = CalibrationStream::new(cfg);
        for ev in &sink.events() {
            s.on_event(ev);
        }
        s
    }

    /// Per-predictor stats, keyed by predictor name, in stable order.
    pub fn stats(&self) -> &BTreeMap<&'static str, PredictorStats> {
        &self.stats
    }

    /// Predictions still waiting for a completion (in-flight at trace end).
    pub fn unresolved(&self) -> usize {
        self.join.open()
    }
}

/// Counter-track names of a predictor: its cumulative FP+FN count, and
/// its per-sample |pred − actual| error in µs.
fn tracks(sub: Subsystem) -> (&'static str, &'static str) {
    match sub {
        Subsystem::MittNoop => ("mittnoop.inaccurate", "mittnoop.err_us"),
        Subsystem::MittCfq => ("mittcfq.inaccurate", "mittcfq.err_us"),
        Subsystem::MittSsd => ("mittssd.inaccurate", "mittssd.err_us"),
        other => unreachable!("{} emits no Predict", other.name()),
    }
}

/// Chrome-trace export with calibration counter tracks interleaved: every
/// resolved prediction appends two `ph:"C"` samples (cumulative
/// inaccuracy count, per-sample error in µs) at the completion's virtual
/// timestamp. Derived purely from the recorded events, so the JSON is
/// byte-identical across same-seed runs.
pub fn chrome_export_with_counters(sink: &TraceSink, cfg: CalibrationConfig) -> String {
    let events = sink.events();
    let mut stream = CalibrationStream::new(cfg);
    let mut merged: Vec<TraceEvent> = Vec::with_capacity(events.len());
    for ev in events {
        merged.push(ev);
        if let Resolved::Sample {
            sub,
            err_ns,
            inaccurate,
        } = stream.on_event(&ev)
        {
            let (inaccuracy, error) = tracks(sub);
            for (name, value) in [(inaccuracy, inaccurate), (error, err_ns / 1_000)] {
                merged.push(TraceEvent {
                    at: ev.at,
                    node: ev.node,
                    subsystem: sub,
                    kind: EventKind::Counter { name, value },
                });
            }
        }
    }
    mitt_trace::chrome::export(merged.into_iter(), sink.dropped())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{classify, p95_wait, replay_audit_traced, REPLAY_RING};
    use mitt_cluster::node::{Medium, NodeConfig};
    use mitt_faults::FaultPlan;
    use mitt_sim::{SimRng, SimTime};
    use mitt_workload::TraceSpec;

    fn ev(sub: Subsystem, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(1),
            node: 0,
            subsystem: sub,
            kind,
        }
    }

    #[test]
    fn stream_classifies_the_four_quadrants() {
        let d = Duration::from_millis(10);
        let cfg = CalibrationConfig {
            hop: Duration::ZERO,
            deadline_override: None,
        };
        let mut s = CalibrationStream::new(cfg);
        // (predicted ms, actual ms): TP, TN, FP, FN.
        for (i, (p, a)) in [(20, 20), (1, 1), (20, 1), (1, 20)].iter().enumerate() {
            s.on_event(&ev(
                Subsystem::MittCfq,
                EventKind::Predict {
                    io: i as u64,
                    predicted_wait: Duration::from_millis(*p),
                    deadline: Some(d),
                    admitted: true,
                },
            ));
            s.on_event(&ev(
                Subsystem::Node,
                EventKind::Complete {
                    io: i as u64,
                    wait: Duration::from_millis(*a),
                },
            ));
        }
        let st = &s.stats()["mittcfq"];
        assert_eq!(st.total, 4);
        assert_eq!(st.false_pos, 1);
        assert_eq!(st.false_neg, 1);
        assert!((st.inaccuracy_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_close_the_join_without_classification() {
        let mut s = CalibrationStream::new(CalibrationConfig::default());
        s.on_event(&ev(
            Subsystem::MittSsd,
            EventKind::Predict {
                io: 9,
                predicted_wait: Duration::from_millis(50),
                deadline: Some(Duration::from_millis(1)),
                admitted: false,
            },
        ));
        s.on_event(&ev(
            Subsystem::Node,
            EventKind::Reject {
                io: 9,
                predicted_wait: Duration::from_millis(50),
            },
        ));
        let st = &s.stats()["mittssd"];
        assert_eq!(st.rejected, 1);
        assert_eq!(st.total, 0);
        assert_eq!(s.unresolved(), 0);
    }

    #[test]
    fn stream_agrees_with_audit_pair_classification_on_a_replay() {
        let spec = TraceSpec::tpcc();
        let mut rng = SimRng::new(1);
        let trace = spec.generate(Duration::from_secs(10), &mut rng);
        let out = replay_audit_traced(
            NodeConfig::disk_cfq(),
            Medium::Disk,
            &trace,
            1.0,
            2,
            FaultPlan::new(),
            REPLAY_RING,
        );
        assert_eq!(out.trace.dropped(), 0);
        let deadline = p95_wait(&out.pairs);
        let stats = classify(&out.pairs, deadline, mittos::DEFAULT_HOP);
        let stream = CalibrationStream::from_sink(
            &out.trace,
            CalibrationConfig {
                hop: mittos::DEFAULT_HOP,
                deadline_override: Some(deadline),
            },
        );
        let st = &stream.stats()["mittcfq"];
        assert_eq!(st.total as usize, stats.total, "pair/event count mismatch");
        assert_eq!(st.false_pos as usize, stats.fp_count);
        assert_eq!(st.false_neg as usize, stats.fn_count);
    }

    #[test]
    fn counter_export_is_deterministic_and_has_counter_tracks() {
        let spec = TraceSpec::dtrs();
        let run = || {
            let mut rng = SimRng::new(5);
            let trace = spec.generate(Duration::from_secs(3), &mut rng);
            let out = replay_audit_traced(
                NodeConfig::ssd(),
                Medium::Ssd,
                &trace,
                4.0,
                6,
                FaultPlan::new(),
                REPLAY_RING,
            );
            chrome_export_with_counters(&out.trace, CalibrationConfig::default())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "counter export must be byte-identical");
        assert!(a.contains("\"ph\":\"C\""), "no counter track in export");
        assert!(a.contains("mittssd.inaccurate"));
    }
}
