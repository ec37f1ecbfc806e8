//! Deterministic per-IO event tracing for the MittOS simulator.
//!
//! The simulator's end-of-run percentiles say *what* the tail looked like;
//! this crate records *why* — every predict/reject/dispatch/complete
//! decision, stamped with the virtual clock, plus a metrics registry of
//! named counters, gauges, and bucketed histograms. Three properties are
//! load-bearing:
//!
//! - **Deterministic.** Events carry [`SimTime`] timestamps only (never the
//!   wall clock), every read of the metric series sorts them by key, and the
//!   whole trace folds into the workspace's FNV-1a digest via
//!   [`TraceSink::fold_digest`], so traces themselves are covered by the
//!   double-run determinism harness.
//! - **Cheap when off.** Instrumented code holds a [`TraceSink`] handle; a
//!   disabled sink is an `Option` that is `None`, so every emit call is one
//!   branch and no allocation.
//! - **Bounded.** Events land in a fixed-capacity ring; overflow evicts the
//!   oldest event and bumps a drop counter that is itself digested and
//!   exported, so truncation is visible, never silent.
//!
//! Exporters: [`TraceSink::export_chrome_json`] writes Chrome
//! `trace_event` JSON (load it in `about:tracing` or
//! <https://ui.perfetto.dev>), and [`TraceSink::report_text`] renders a
//! plain-text per-run report (rejection causes, per-node EBUSY rates,
//! prediction-error histogram).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use mitt_sim::{Fnv1a, SimTime};

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod report;

pub use event::{EventKind, Resource, Subsystem, TraceEvent, CLUSTER_NODE};
pub use metrics::{Histogram, MetricsRegistry, DEFAULT_BOUNDS_NS};

/// Default ring capacity used by [`TraceSink::enabled`]'s convenience
/// constructor in the cluster driver: large enough for a micro experiment,
/// small enough that a runaway workload degrades by dropping oldest events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Shared recording state behind every enabled sink handle.
#[derive(Debug)]
struct TraceCore {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    /// Oldest-evicted events since the start of the run.
    dropped: u64,
    /// Total events ever recorded (including later-dropped ones).
    recorded: u64,
    metrics: MetricsRegistry,
}

impl TraceCore {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
        self.recorded += 1;
    }
}

/// A cheap, cloneable handle to a trace buffer — or a disabled no-op.
///
/// The simulator is single-threaded, so the shared state is an
/// `Rc<RefCell<..>>`; cloning a sink shares the same buffer. A sink is
/// tagged with the node id it records for ([`TraceSink::for_node`]); the
/// tag becomes the `pid` of exported Chrome events and the per-node key of
/// counters and gauges.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    core: Option<Rc<RefCell<TraceCore>>>,
    node: u32,
}

impl TraceSink {
    /// A disabled sink: every call is a no-op costing one branch.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// An enabled sink with a fresh ring of `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        TraceSink {
            core: Some(Rc::new(RefCell::new(TraceCore {
                capacity: capacity.max(1),
                events: VecDeque::with_capacity(capacity.max(1)),
                dropped: 0,
                recorded: 0,
                metrics: MetricsRegistry::new(),
            }))),
            node: 0,
        }
    }

    /// True if events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// A handle to the same buffer, tagged with `node`.
    pub fn for_node(&self, node: u32) -> Self {
        TraceSink {
            core: self.core.clone(),
            node,
        }
    }

    /// The node tag of this handle.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Records an event at virtual time `at`.
    pub fn emit(&self, at: SimTime, subsystem: Subsystem, kind: EventKind) {
        let Some(core) = &self.core else { return };
        core.borrow_mut().push(TraceEvent {
            at,
            node: self.node,
            subsystem,
            kind,
        });
    }

    /// Adds `delta` to counter `name` under this handle's node tag.
    pub fn count(&self, name: &'static str, delta: u64) {
        let Some(core) = &self.core else { return };
        core.borrow_mut().metrics.add(name, self.node, delta);
    }

    /// Sets gauge `name` under this handle's node tag.
    pub fn gauge(&self, name: &'static str, value: i64) {
        let Some(core) = &self.core else { return };
        core.borrow_mut().metrics.set_gauge(name, self.node, value);
    }

    /// Records a (nanosecond) sample into histogram `name`.
    pub fn observe_ns(&self, name: &'static str, value: u64) {
        let Some(core) = &self.core else { return };
        core.borrow_mut().metrics.observe(name, value);
    }

    /// Number of events currently buffered (0 when disabled).
    pub fn len(&self) -> usize {
        self.core.as_ref().map_or(0, |c| c.borrow().events.len())
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded, including ones since dropped.
    pub fn recorded(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.borrow().recorded)
    }

    /// Events evicted by the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.borrow().dropped)
    }

    /// A copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.core
            .as_ref()
            .map_or_else(Vec::new, |c| c.borrow().events.iter().copied().collect())
    }

    /// A copy of the newest `n` buffered events, oldest first (the whole
    /// ring when it holds fewer). This is the flight-recorder read path:
    /// bounded, allocation-proportional to `n`, no drain.
    pub fn tail_events(&self, n: usize) -> Vec<TraceEvent> {
        self.core.as_ref().map_or_else(Vec::new, |c| {
            let core = c.borrow();
            let skip = core.events.len().saturating_sub(n);
            core.events.iter().skip(skip).copied().collect()
        })
    }

    /// A snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.core
            .as_ref()
            .map_or_else(MetricsRegistry::new, |c| c.borrow().metrics.clone())
    }

    /// Folds the whole trace — ring contents, drop counters, and every
    /// metric series — into `h`. Disabled sinks fold a fixed marker so an
    /// untraced run still digests stably.
    pub fn fold_digest(&self, h: &mut Fnv1a) {
        let Some(core) = &self.core else {
            h.write_u64(0);
            return;
        };
        let core = core.borrow();
        h.write_u64(1);
        h.write_u64(core.recorded);
        h.write_u64(core.dropped);
        h.write_usize(core.events.len());
        for ev in &core.events {
            ev.fold(h);
        }
        core.metrics.fold(h);
    }

    /// Exports the buffered events as Chrome `trace_event` JSON.
    pub fn export_chrome_json(&self) -> String {
        match &self.core {
            Some(core) => {
                let core = core.borrow();
                chrome::export(core.events.iter().copied(), core.dropped)
            }
            None => chrome::export(std::iter::empty(), 0),
        }
    }

    /// Renders the plain-text per-run report.
    pub fn report_text(&self) -> String {
        match &self.core {
            Some(core) => {
                let core = core.borrow();
                report::render(core.recorded, core.dropped, &core.metrics)
            }
            None => report::render(0, 0, &MetricsRegistry::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_sim::Duration;

    fn dispatch_at(ns: u64, io: u64) -> (SimTime, Subsystem, EventKind) {
        (
            SimTime::from_nanos(ns),
            Subsystem::Disk,
            EventKind::Dispatch { io },
        )
    }

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = TraceSink::disabled();
        let (at, sub, kind) = dispatch_at(10, 1);
        sink.emit(at, sub, kind);
        sink.count("x", 1);
        sink.observe_ns("h", 5);
        assert!(!sink.is_enabled());
        assert_eq!(sink.len(), 0);
        assert_eq!(sink.recorded(), 0);
        assert!(sink.metrics().is_empty());
    }

    #[test]
    fn clones_share_one_buffer_and_keep_node_tags() {
        let sink = TraceSink::enabled(16);
        let n0 = sink.for_node(0);
        let n1 = sink.for_node(1);
        let (at, sub, kind) = dispatch_at(10, 1);
        n0.emit(at, sub, kind);
        n1.emit(at, sub, kind);
        n1.count("node.submit", 2);
        assert_eq!(sink.len(), 2);
        let events = sink.events();
        assert_eq!(events[0].node, 0);
        assert_eq!(events[1].node, 1);
        assert_eq!(sink.metrics().counter_total("node.submit"), 2);
        assert_eq!(
            sink.metrics()
                .counter_by_key("node.submit")
                .collect::<Vec<_>>(),
            vec![(1, 2)]
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts_drops() {
        let sink = TraceSink::enabled(2);
        for i in 0..5u64 {
            let (at, sub, kind) = dispatch_at(i, i);
            sink.emit(at, sub, kind);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.recorded(), 5);
        let events = sink.events();
        assert_eq!(events[0].at, SimTime::from_nanos(3));
        assert_eq!(events[1].at, SimTime::from_nanos(4));
    }

    #[test]
    fn digest_covers_events_metrics_and_drops() {
        let run = |extra: bool| {
            let sink = TraceSink::enabled(8);
            let (at, sub, kind) = dispatch_at(10, 1);
            sink.emit(at, sub, kind);
            sink.count("node.submit", 1);
            if extra {
                sink.observe_ns("predict.error_ns", 1_000);
            }
            let mut h = Fnv1a::new();
            sink.fold_digest(&mut h);
            h.finish()
        };
        assert_eq!(run(false), run(false));
        assert_ne!(run(false), run(true));
    }

    #[test]
    fn export_and_report_round_trip() {
        let sink = TraceSink::enabled(8).for_node(2);
        sink.emit(
            SimTime::from_nanos(1_000),
            Subsystem::MittNoop,
            EventKind::Predict {
                io: 4,
                predicted_wait: Duration::from_millis(20),
                deadline: Some(Duration::from_millis(15)),
                admitted: false,
            },
        );
        sink.count(Subsystem::MittNoop.reject_counter(), 1);
        sink.count(report::SUBMIT_COUNTER, 1);
        sink.count(report::EBUSY_COUNTER, 1);
        let json = sink.export_chrome_json();
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"admitted\":false"));
        let text = sink.report_text();
        assert!(text.contains("mittnoop"));
        assert!(text.contains("node 2"));
        assert_eq!(json, sink.export_chrome_json(), "export is deterministic");
    }
}
