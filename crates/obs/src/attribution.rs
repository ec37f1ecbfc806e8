//! SLO attribution: folding per-IO blame tags into run-level summaries.
//!
//! Every layer that makes an SLO-relevant decision emits an
//! [`EventKind::Attribution`] immediately after the event it explains —
//! node-level EBUSYs (direct, bump-cancel, and cache rejects), cluster
//! failovers, crash-driven retries, breaker vetoes, and hedges. This
//! module consumes a recorded event stream and produces:
//!
//! - per-resource counts, split by node-level and cluster-level causes;
//! - deadline-miss attribution: each `Complete` that the shared
//!   [`PredictionJoin`] pairs with its `Predict`, and that misses by the
//!   §4.1 rule (`mittos::misses`), is blamed on the predictor's resource —
//!   or on the active fault window;
//! - the predicted-vs-actual wait delta across those misses;
//! - invariant checks ([`verify_attribution_invariants`]) used by the
//!   tier-1 tests.
//!
//! Everything is a pure fold over the event vector, so summaries are
//! byte-identical across same-seed runs and can be folded into digests.

use mitt_sim::{Duration, Fnv1a};
use mitt_trace::{EventKind, Resource, Subsystem, TraceEvent, TraceSink};

use crate::join::{Joined, PredictionJoin};

/// Per-resource counts and miss attribution for one recorded run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionSummary {
    /// Node-level attribution events per resource, indexed by
    /// [`Resource::code`] (EBUSYs and bump-cancels).
    pub node_counts: [u64; 8],
    /// Cluster-level attribution events per resource (failovers, crash
    /// retries, breaker vetoes, hedges).
    pub cluster_counts: [u64; 8],
    /// Deadline misses (completed, and the actual wait misses by
    /// `mittos::misses`) blamed per resource via the `Predict`/`Complete`
    /// join.
    pub miss_counts: [u64; 8],
    /// `Reject` events seen.
    pub rejects: u64,
    /// Deadline-carrying IOs that completed.
    pub completed: u64,
    /// Total misses (sum of `miss_counts`).
    pub misses: u64,
    /// Sum of |predicted - actual| over misses, ns.
    pub miss_delta_sum_ns: u64,
    /// Max |predicted - actual| over misses, ns.
    pub miss_delta_max_ns: u64,
}

impl AttributionSummary {
    /// Builds the summary from a recorded event stream; `hop` is the
    /// network allowance added to each deadline (§4.1).
    pub fn from_events(events: &[TraceEvent], hop: Duration) -> Self {
        let mut s = AttributionSummary::default();
        let mut join = PredictionJoin::default();
        let mut fault_windows_active: u64 = 0;
        for ev in events {
            if let Joined::Completed(p, wait) = join.on_event(ev) {
                s.completed += 1;
                if mittos::misses(wait, p.deadline, hop) {
                    let resource = if fault_windows_active > 0 {
                        Resource::FaultWindow
                    } else {
                        predictor_resource(p.sub)
                    };
                    s.miss_counts[resource.code() as usize] += 1;
                    s.misses += 1;
                    let delta = p.predicted.as_nanos().abs_diff(wait.as_nanos());
                    s.miss_delta_sum_ns = s.miss_delta_sum_ns.saturating_add(delta);
                    s.miss_delta_max_ns = s.miss_delta_max_ns.max(delta);
                }
            }
            match ev.kind {
                EventKind::FaultStart { .. } => fault_windows_active += 1,
                EventKind::FaultEnd { .. } => {
                    fault_windows_active = fault_windows_active.saturating_sub(1);
                }
                EventKind::Attribution { resource, .. } => {
                    let idx = resource.code() as usize;
                    if ev.node == mitt_trace::CLUSTER_NODE {
                        s.cluster_counts[idx] += 1;
                    } else {
                        s.node_counts[idx] += 1;
                    }
                }
                EventKind::Reject { .. } => s.rejects += 1,
                _ => {}
            }
        }
        s
    }

    /// As [`AttributionSummary::from_events`], reading the sink's ring.
    pub fn from_sink(sink: &TraceSink, hop: Duration) -> Self {
        Self::from_events(&sink.events(), hop)
    }

    /// Total node-level attributions.
    pub fn node_total(&self) -> u64 {
        self.node_counts.iter().sum()
    }

    /// Mean |predicted - actual| over misses, in milliseconds.
    pub fn mean_miss_delta_ms(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.miss_delta_sum_ns as f64 / self.misses as f64 / 1e6
        }
    }

    /// Folds every field into a run digest, in a fixed order.
    pub fn fold_digest(&self, h: &mut Fnv1a) {
        h.write_u64_slice(&self.node_counts);
        h.write_u64_slice(&self.cluster_counts);
        h.write_u64_slice(&self.miss_counts);
        h.write_u64(self.rejects);
        h.write_u64(self.completed);
        h.write_u64(self.misses);
        h.write_u64(self.miss_delta_sum_ns);
        h.write_u64(self.miss_delta_max_ns);
    }

    /// Human-readable rendering for run reports, one resource per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("slo attribution summary:\n");
        out.push_str(&format!(
            "  rejects {}  completed {}  misses {}  mean |pred-actual| {:.3} ms\n",
            self.rejects,
            self.completed,
            self.misses,
            self.mean_miss_delta_ms()
        ));
        for r in Resource::ALL {
            let i = r.code() as usize;
            let (n, c, m) = (
                self.node_counts[i],
                self.cluster_counts[i],
                self.miss_counts[i],
            );
            if n + c + m == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:<14} node {:>6}  cluster {:>6}  misses {:>6}\n",
                r.name(),
                n,
                c,
                m
            ));
        }
        out
    }
}

/// The resource a predictor's own misprediction is charged to.
fn predictor_resource(sub: Subsystem) -> Resource {
    match sub {
        Subsystem::MittNoop => Resource::NoopNextFree,
        Subsystem::MittCfq => Resource::CfqQueue,
        Subsystem::MittSsd => Resource::SsdChannel,
        other => unreachable!("{} emits no Predict", other.name()),
    }
}

/// Checks the pairing invariants the emitting layers guarantee:
///
/// 1. every node-level `Reject` is immediately followed by an
///    `Attribution` for the same IO on the same node ("every Reject has
///    exactly one attributed resource");
/// 2. when the `Reject` carries a finite predicted wait, the attribution
///    repeats it exactly (bump-cancels and cache rejects carry
///    `Duration::MAX` on the `Reject` and recover the admission-time
///    value, so only finite values are compared);
/// 3. every node-level `Attribution` is preceded by its `Reject` (ring
///    truncation may orphan the very first event, which is tolerated).
///
/// Returns the number of verified pairs, or a description of the first
/// violated invariant.
pub fn verify_attribution_invariants(events: &[TraceEvent]) -> Result<u64, String> {
    let mut pairs = 0u64;
    for (i, ev) in events.iter().enumerate() {
        match ev.kind {
            EventKind::Reject { io, predicted_wait } if ev.node != mitt_trace::CLUSTER_NODE => {
                let Some(next) = events.get(i + 1) else {
                    return Err(format!("reject of io {io} at index {i} has no attribution"));
                };
                match next.kind {
                    EventKind::Attribution {
                        io: aio,
                        predicted_wait: apw,
                        ..
                    } if next.node == ev.node && aio == io => {
                        if predicted_wait != Duration::MAX && apw != predicted_wait {
                            return Err(format!(
                                "attribution of io {io} repeats wait {apw:?}, reject said {predicted_wait:?}"
                            ));
                        }
                        pairs += 1;
                    }
                    _ => {
                        return Err(format!(
                            "reject of io {io} at index {i} followed by {} instead of its attribution",
                            next.kind.name()
                        ));
                    }
                }
            }
            EventKind::Attribution { io, .. } if ev.node != mitt_trace::CLUSTER_NODE => {
                if i == 0 {
                    continue; // ring truncation can orphan the first event
                }
                let prev = &events[i - 1];
                let paired = matches!(prev.kind, EventKind::Reject { io: rio, .. }
                    if prev.node == ev.node && rio == io);
                if !paired {
                    return Err(format!(
                        "node attribution of io {io} at index {i} not preceded by its reject"
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_sim::SimTime;

    fn ev(node: u32, subsystem: Subsystem, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO,
            node,
            subsystem,
            kind,
        }
    }

    #[test]
    fn paired_reject_and_attribution_verify() {
        let pw = Duration::from_millis(3);
        let events = vec![
            ev(
                0,
                Subsystem::Node,
                EventKind::Reject {
                    io: 7,
                    predicted_wait: pw,
                },
            ),
            ev(
                0,
                Subsystem::Node,
                EventKind::Attribution {
                    io: 7,
                    resource: Resource::CfqQueue,
                    predicted_wait: pw,
                    detail: 4,
                },
            ),
        ];
        assert_eq!(verify_attribution_invariants(&events), Ok(1));
        let s = AttributionSummary::from_events(&events, Duration::ZERO);
        assert_eq!(s.rejects, 1);
        assert_eq!(s.node_counts[Resource::CfqQueue.code() as usize], 1);
    }

    #[test]
    fn orphan_reject_is_a_violation() {
        let events = vec![ev(
            0,
            Subsystem::Node,
            EventKind::Reject {
                io: 1,
                predicted_wait: Duration::MAX,
            },
        )];
        assert!(verify_attribution_invariants(&events).is_err());
    }

    #[test]
    fn mismatched_wait_is_a_violation() {
        let events = vec![
            ev(
                0,
                Subsystem::Node,
                EventKind::Reject {
                    io: 1,
                    predicted_wait: Duration::from_millis(5),
                },
            ),
            ev(
                0,
                Subsystem::Node,
                EventKind::Attribution {
                    io: 1,
                    resource: Resource::NoopNextFree,
                    predicted_wait: Duration::from_millis(6),
                    detail: 0,
                },
            ),
        ];
        assert!(verify_attribution_invariants(&events).is_err());
    }

    #[test]
    fn misses_are_blamed_on_the_predictor_or_fault_window() {
        let d = Duration::from_millis(1);
        let mk = |fault: bool| {
            let mut events = Vec::new();
            if fault {
                events.push(ev(
                    0,
                    Subsystem::Cluster,
                    EventKind::FaultStart {
                        fault: 0,
                        name: "predictor_bias",
                    },
                ));
            }
            events.push(ev(
                0,
                Subsystem::MittCfq,
                EventKind::Predict {
                    io: 3,
                    predicted_wait: Duration::from_micros(10),
                    deadline: Some(d),
                    admitted: true,
                },
            ));
            events.push(ev(
                0,
                Subsystem::Node,
                EventKind::Complete {
                    io: 3,
                    wait: Duration::from_millis(9),
                },
            ));
            AttributionSummary::from_events(&events, Duration::ZERO)
        };
        let healthy = mk(false);
        assert_eq!(healthy.misses, 1);
        assert_eq!(healthy.miss_counts[Resource::CfqQueue.code() as usize], 1);
        let faulted = mk(true);
        assert_eq!(
            faulted.miss_counts[Resource::FaultWindow.code() as usize],
            1
        );
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let mut a = AttributionSummary {
            rejects: 3,
            ..Default::default()
        };
        let mut h1 = Fnv1a::new();
        a.fold_digest(&mut h1);
        let mut h2 = Fnv1a::new();
        a.fold_digest(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
        a.misses = 1;
        let mut h3 = Fnv1a::new();
        a.fold_digest(&mut h3);
        assert_ne!(h1.finish(), h3.finish());
    }
}
