//! Single-node trace replay in audit mode (§7.6, Figure 9).
//!
//! The paper replays five production block traces on one machine with
//! EBUSY suppressed: the would-be decision is attached to each IO
//! descriptor and compared with the measured outcome at completion. This
//! module drives one [`Node`] through a trace and classifies the resulting
//! (predicted wait, actual wait) pairs against a deadline — by the paper's
//! definitions:
//!
//! - false positive: EBUSY would have been returned but the IO met its
//!   deadline;
//! - false negative: no EBUSY but the IO missed its deadline.
//!
//! [`replay_audit_traced`] additionally attaches a [`TraceSink`] (so the
//! calibration stream in [`crate::calibration`] can be cross-checked
//! against the audit pairs) and an optional [`FaultPlan`] (so a
//! `PredictorBias` window can degrade the predictors for regression-gate
//! testing). The untraced entry points delegate with an empty plan and no
//! sink, leaving their RNG stream — and therefore their results —
//! identical to the historical `mitt-bench` implementation.

use std::collections::BTreeMap;

use mitt_cluster::node::{AuditPair, Medium, Node, NodeConfig, ReadOutcome, ReadReq, Ticks};
use mitt_cluster::WriteOutcome;
use mitt_device::{IoId, ProcessId};
use mitt_faults::{FaultClock, FaultPlan, NodeCtx};
use mitt_sim::{Duration, EventQueue, SimRng, SimTime};
use mitt_trace::TraceSink;
use mitt_workload::TraceIo;
use mittos::{NaiveDisk, NaiveSsd};

use crate::calibration::PredictorStats;

/// Trace-ring capacity for audited replays: large enough that a Figure 9
/// replay records every event without drops, so event-stream calibration
/// can be cross-checked 1:1 against the node's audit pairs.
pub const REPLAY_RING: usize = 1 << 20;

enum Ev {
    Submit(usize),
    DiskTick,
    SsdDone { io: IoId, wait: Duration },
}

/// A shadow predictor maintained alongside the real MittOS mirrors during
/// a replay — the §7.6 ablation baselines.
enum Shadow {
    Disk(NaiveDisk),
    Ssd(NaiveSsd),
}

impl Shadow {
    fn predict(&mut self, io: &mitt_device::BlockIo, now: SimTime) -> Duration {
        match self {
            Shadow::Disk(p) => p.predict_and_account(io, now),
            Shadow::Ssd(p) => p.predict_and_account(io, now),
        }
    }
}

/// Output of a traced audit replay.
pub struct TracedReplay {
    /// Audit pairs resolved by the MittOS predictors.
    pub pairs: Vec<AuditPair>,
    /// Audit pairs from the naive shadow predictors (§7.6 ablation).
    pub naive_pairs: Vec<AuditPair>,
    /// The replay's trace sink (disabled when the caller asked for ring 0).
    pub trace: TraceSink,
    /// The placeholder deadline attached to audited reads; classification
    /// happens offline against any deadline via [`classify`].
    pub placeholder_deadline: Duration,
}

/// Replays `trace` on a fresh audit-mode node; returns the resolved
/// prediction pairs. `rerate` compresses arrival times (the paper re-rates
/// disk traces 128x for the SSD's 128 chips).
pub fn replay_audit(
    node_cfg: NodeConfig,
    medium: Medium,
    trace: &[TraceIo],
    rerate: f64,
    seed: u64,
) -> Vec<AuditPair> {
    replay_audit_with_ablation(node_cfg, medium, trace, rerate, seed).0
}

/// As [`replay_audit`], additionally resolving predictions from the naive
/// baseline predictors over the same IO stream (§7.6's "without our
/// precision improvements" comparison).
pub fn replay_audit_with_ablation(
    node_cfg: NodeConfig,
    medium: Medium,
    trace: &[TraceIo],
    rerate: f64,
    seed: u64,
) -> (Vec<AuditPair>, Vec<AuditPair>) {
    let out = replay_audit_traced(node_cfg, medium, trace, rerate, seed, FaultPlan::new(), 0);
    (out.pairs, out.naive_pairs)
}

/// As [`replay_audit_with_ablation`], with two observability hooks: a
/// trace ring of `ring` events (0 = untraced) and a [`FaultPlan`] whose
/// `PredictorBias` windows distort predictions (empty = healthy replay).
///
/// With an empty plan and ring 0 the RNG stream is untouched relative to
/// the plain entry points, so results are bit-identical.
pub fn replay_audit_traced(
    node_cfg: NodeConfig,
    medium: Medium,
    trace: &[TraceIo],
    rerate: f64,
    seed: u64,
    plan: FaultPlan,
    ring: usize,
) -> TracedReplay {
    assert!(rerate > 0.0, "rerate factor must be positive");
    let mut cfg = node_cfg;
    cfg.audit_mode = true;
    cfg.cpu = None;
    let mut rng = SimRng::new(seed);
    let mut node = Node::new(0, cfg, &mut rng);
    let ctx = NodeCtx {
        trace: if ring > 0 {
            TraceSink::enabled(ring)
        } else {
            TraceSink::disabled()
        },
        // Forked *after* node construction so an empty plan leaves the
        // primary stream — and the replay results — unchanged.
        faults: if plan.is_empty() {
            FaultClock::disabled()
        } else {
            FaultClock::new(plan, rng.fork())
        },
        ..NodeCtx::disabled()
    };
    node.set_ctx(&ctx);
    let mut shadow = match medium {
        // The naive disk assumes the average random 4KB service time.
        Medium::Disk => Shadow::Disk(NaiveDisk::new(Duration::from_micros(6500))),
        Medium::Ssd => Shadow::Ssd(NaiveSsd::new(16 * 1024, Duration::from_micros(100))),
    };
    let mut naive_open: BTreeMap<IoId, Duration> = BTreeMap::new();
    let mut naive_pairs: Vec<AuditPair> = Vec::new();
    let mut q: EventQueue<Ev> = EventQueue::new();
    node.set_clock(&q.clock());
    q.preload(trace.iter().enumerate().map(|(i, io)| {
        let at = SimTime::from_nanos((io.at.as_nanos() as f64 / rerate) as u64);
        (at, Ev::Submit(i))
    }));
    // A placeholder deadline marks reads for auditing; classification
    // happens offline against any deadline via `classify`.
    let placeholder = match medium {
        Medium::Disk => Duration::from_millis(10),
        Medium::Ssd => Duration::from_millis(1),
    };
    while let Some((now, ev)) = q.pop() {
        let mut done = None;
        match ev {
            Ev::Submit(i) => {
                let t = trace[i];
                let mut req = ReadReq::client(t.offset, t.len.min(1 << 20), ProcessId(1));
                req.medium = medium;
                if t.is_read {
                    req = req.with_deadline(placeholder);
                    let sub = node.submit_read(&req, now);
                    if let ReadOutcome::Submitted { io, ticks } = sub.outcome {
                        let shadow_io = mitt_device::BlockIo::read(
                            io,
                            t.offset,
                            t.len.min(1 << 20),
                            ProcessId(1),
                            now,
                        );
                        naive_open.insert(io, shadow.predict(&shadow_io, now));
                        schedule_ticks(&mut q, ticks);
                    }
                } else if let WriteOutcome::Submitted(sub) = node.submit_write(&req, now) {
                    if let ReadOutcome::Submitted { io, ticks } = sub.outcome {
                        let shadow_io = mitt_device::BlockIo::write(
                            io,
                            t.offset,
                            t.len.min(1 << 20),
                            ProcessId(1),
                            now,
                        );
                        shadow.predict(&shadow_io, now);
                        schedule_ticks(&mut q, ticks);
                    }
                }
            }
            Ev::DiskTick => {
                let out = node.on_disk_tick(now);
                if let Some(next) = out.next {
                    q.schedule(next.done_at, Ev::DiskTick);
                }
                done = Some((out.done.io, out.done.wait));
            }
            Ev::SsdDone { io, wait } => {
                node.on_ssd_done(io, wait, now);
                done = Some((io, wait));
            }
        }
        let Some((io, actual_wait)) = done else {
            continue;
        };
        if let Some(pred) = naive_open.remove(&io) {
            naive_pairs.push(AuditPair {
                predicted_wait: pred,
                actual_wait,
                would_reject: false,
                deadline: placeholder,
            });
        }
    }
    TracedReplay {
        pairs: node.audit_pairs().to_vec(),
        naive_pairs,
        trace: ctx.trace,
        placeholder_deadline: placeholder,
    }
}

fn schedule_ticks(q: &mut EventQueue<Ev>, ticks: Ticks) {
    if let Some(s) = ticks.disk {
        q.schedule(s.done_at, Ev::DiskTick);
    }
    if let Some(done) = ticks.ssd {
        let (io, wait) = (done.io, done.wait);
        q.schedule_keyed(done.key, Ev::SsdDone { io, wait });
    }
}

/// Accuracy statistics over classified audit pairs.
#[derive(Debug, Clone, Copy)]
pub struct AuditStats {
    /// False positives as % of all audited IOs.
    pub fp_pct: f64,
    /// False negatives as % of all audited IOs.
    pub fn_pct: f64,
    /// Mean |predicted - actual| wait among misclassified IOs, ms.
    pub mean_diff_ms: f64,
    /// Max diff among misclassified IOs, ms.
    pub max_diff_ms: f64,
    /// Audited IO count.
    pub total: usize,
    /// False-positive count (before normalisation).
    pub fp_count: usize,
    /// False-negative count (before normalisation).
    pub fn_count: usize,
}

impl AuditStats {
    /// FP + FN.
    pub fn inaccuracy_pct(&self) -> f64 {
        self.fp_pct + self.fn_pct
    }
}

/// The p95 of actual waits — the deadline value the paper uses.
pub fn p95_wait(pairs: &[AuditPair]) -> Duration {
    let mut rec = mitt_sim::LatencyRecorder::new();
    for p in pairs {
        rec.record(p.actual_wait);
    }
    if rec.is_empty() {
        Duration::ZERO
    } else {
        rec.percentile(95.0)
    }
}

/// Classifies pairs against a deadline with [`PredictorStats::score`]:
/// the §4.1 rule `wait > deadline + hop` judges both waits. The verdict is
/// recomputed at `deadline`, so [`AuditPair::would_reject`] (the verdict
/// at the placeholder deadline) is never read.
pub fn classify(pairs: &[AuditPair], deadline: Duration, hop: Duration) -> AuditStats {
    let (mut s, mut sum_ms, mut max_ms) = (PredictorStats::default(), 0.0, 0.0_f64);
    for p in pairs {
        if s.score(p.predicted_wait, p.actual_wait, deadline, hop) {
            let d = p
                .actual_wait
                .as_nanos()
                .abs_diff(p.predicted_wait.as_nanos());
            let d = Duration::from_nanos(d).as_millis_f64();
            sum_ms += d;
            max_ms = max_ms.max(d);
        }
    }
    AuditStats {
        fp_pct: s.fp_pct(),
        fn_pct: s.fn_pct(),
        // An empty sum is 0.0, so max(1) only guards the division.
        mean_diff_ms: sum_ms / (s.false_pos + s.false_neg).max(1) as f64,
        max_diff_ms: max_ms,
        total: pairs.len(),
        fp_count: s.false_pos as usize,
        fn_count: s.false_neg as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_workload::TraceSpec;

    #[test]
    fn disk_replay_produces_pairs_and_low_inaccuracy() {
        let spec = TraceSpec::tpcc();
        let mut rng = SimRng::new(1);
        let trace = spec.generate(Duration::from_secs(20), &mut rng);
        let pairs = replay_audit(NodeConfig::disk_cfq(), Medium::Disk, &trace, 1.0, 2);
        assert!(pairs.len() > 500, "audited {} IOs", pairs.len());
        let deadline = p95_wait(&pairs);
        let stats = classify(&pairs, deadline, mittos::DEFAULT_HOP);
        // The paper reports 0.5-0.9% total inaccuracy; allow a loose band.
        assert!(
            stats.inaccuracy_pct() < 5.0,
            "inaccuracy {}%",
            stats.inaccuracy_pct()
        );
    }

    #[test]
    fn ssd_replay_produces_pairs() {
        let spec = TraceSpec::dtrs();
        let mut rng = SimRng::new(3);
        let trace = spec.generate(Duration::from_secs(10), &mut rng);
        let pairs = replay_audit(NodeConfig::ssd(), Medium::Ssd, &trace, 4.0, 4);
        assert!(pairs.len() > 150, "pairs = {}", pairs.len());
        let stats = classify(&pairs, p95_wait(&pairs), mittos::DEFAULT_HOP);
        assert!(stats.inaccuracy_pct() < 5.0);
    }

    #[test]
    fn classify_counts_quadrants() {
        let pair = |pred_ms: u64, actual_ms: u64| AuditPair {
            predicted_wait: Duration::from_millis(pred_ms),
            actual_wait: Duration::from_millis(actual_ms),
            would_reject: false,
            deadline: Duration::from_millis(10),
        };
        let pairs = vec![
            pair(20, 20), // TP
            pair(1, 1),   // TN
            pair(20, 1),  // FP
            pair(1, 20),  // FN
        ];
        let s = classify(&pairs, Duration::from_millis(10), Duration::ZERO);
        assert!((s.fp_pct - 25.0).abs() < 1e-9);
        assert!((s.fn_pct - 25.0).abs() < 1e-9);
        assert!((s.mean_diff_ms - 19.0).abs() < 1e-9);
        assert_eq!(s.fp_count, 1);
        assert_eq!(s.fn_count, 1);
    }

    #[test]
    fn traced_replay_matches_untraced_pairs() {
        let spec = TraceSpec::dapps();
        let mut rng = SimRng::new(9);
        let trace = spec.generate(Duration::from_secs(5), &mut rng);
        let plain = replay_audit(NodeConfig::disk_cfq(), Medium::Disk, &trace, 1.0, 7);
        let traced = replay_audit_traced(
            NodeConfig::disk_cfq(),
            Medium::Disk,
            &trace,
            1.0,
            7,
            FaultPlan::new(),
            REPLAY_RING,
        );
        assert_eq!(plain.len(), traced.pairs.len());
        for (a, b) in plain.iter().zip(traced.pairs.iter()) {
            assert_eq!(a.predicted_wait, b.predicted_wait);
            assert_eq!(a.actual_wait, b.actual_wait);
        }
        assert_eq!(traced.trace.dropped(), 0, "ring too small for replay");
        assert!(traced.trace.recorded() > 0);
    }

    #[test]
    fn bias_plan_degrades_replay_calibration() {
        let spec = TraceSpec::tpcc();
        let mut rng = SimRng::new(1);
        let trace = spec.generate(Duration::from_secs(20), &mut rng);
        let healthy = replay_audit(NodeConfig::disk_cfq(), Medium::Disk, &trace, 1.0, 2);
        let plan = FaultPlan::new().predictor_bias(
            Some(0),
            SimTime::ZERO,
            Duration::from_secs(40),
            8.0,
            Duration::from_millis(4),
        );
        let biased = replay_audit_traced(
            NodeConfig::disk_cfq(),
            Medium::Disk,
            &trace,
            1.0,
            2,
            plan,
            0,
        );
        let deadline = p95_wait(&healthy);
        let h = classify(&healthy, deadline, mittos::DEFAULT_HOP);
        let b = classify(&biased.pairs, deadline, mittos::DEFAULT_HOP);
        assert!(
            b.inaccuracy_pct() > h.inaccuracy_pct() + 1.0,
            "bias should visibly degrade calibration: healthy {:.2}% biased {:.2}%",
            h.inaccuracy_pct(),
            b.inaccuracy_pct()
        );
    }
}
