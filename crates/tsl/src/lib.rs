//! mitt-tsl — windowed tail-latency timelines, SLO burn-rate alerting, and
//! an alert-triggered flight recorder.
//!
//! Every report the workspace emitted before this crate (mitt-obs
//! `BenchReport`, mitt-prof, `fig_chaos`) is an end-of-run aggregate: noise
//! windows open, predictors adapt, breakers trip, and the transient that
//! explains the tail is averaged away. mitt-tsl keeps the *time axis*: the
//! virtual clock is sliced into fixed-width windows (default 100 ms of
//! sim-time) and every per-get latency, EBUSY reply, predictor verdict,
//! dispatch, device service time, and breaker transition is bucketed into
//! the window it happened in, keyed by `(strategy, node, resource)`. Each
//! window rolls up into p50/p95/p99/p999, an EBUSY rate, per-resource
//! reject counts, breaker activity, and an **SLO burn rate** — the ratio of
//! the observed deadline-miss rate to the run's error budget, evaluated
//! over a short *fast* span and a long *slow* span exactly like SRE
//! multi-window burn alerting. When a burn alert (or a
//! `mitt_faults::invariants` near-miss, fed in by the harness) fires, a
//! bounded flight recorder snapshots the tail of the trace ring plus the
//! current attribution and breaker state into a byte-stable dump for
//! post-mortem.
//!
//! Determinism contract (the part that lets the export fold into the run
//! digest): the sink is driven **only** by the virtual clock, consumes no
//! RNG, schedules no events, and every rollup happens inline at the emit
//! site — enabling it cannot perturb the simulation, so the trace digest of
//! a run is identical with tsl on or off, while the `mitt-tsl/v1` export
//! itself is byte-identical across same-seed runs. All arithmetic is
//! integer (ppm / milli-units); there is no float anywhere in the crate.
//!
//! Like [`mitt_trace::TraceSink`], a [`TslSink`] is a cheap clonable handle
//! over a shared collector: a disabled sink is one branch per call and
//! allocates nothing, and [`TslSink::for_node`] re-tags a handle so every
//! layer of the stack records under its own node id.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use mitt_sim::{Duration, Fnv1a, Pow2Hist, SimTime};
use mitt_trace::{Resource, TraceEvent, CLUSTER_NODE};

/// Tuning for one run's timeline collection and burn-rate alerting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TslConfig {
    /// Width of one timeline window in sim-time.
    pub window: Duration,
    /// The SLO deadline a get must beat to not consume error budget. When
    /// left at `Duration::ZERO` the cluster sim substitutes the strategy's
    /// own deadline (or 20 ms for deadline-less strategies) so Base and
    /// MittOS runs are judged against the same SLO.
    pub deadline: Duration,
    /// Error budget as the allowed deadline-miss fraction, in parts per
    /// million (10 000 ppm = 1 % of gets may miss).
    pub slo_budget_ppm: u64,
    /// Number of trailing windows in the fast-burn span.
    pub fast_windows: u64,
    /// Fast-burn alert threshold in milli-multiples of the budget rate
    /// (14 000 = burning budget 14x faster than allowed).
    pub fast_threshold_milli: u64,
    /// Number of trailing windows in the slow-burn span.
    pub slow_windows: u64,
    /// Slow-burn alert threshold in milli-multiples of the budget rate.
    pub slow_threshold_milli: u64,
    /// Maximum flight-recorder dumps captured per run.
    pub flight_capacity: usize,
    /// Trace-ring events snapshotted into each flight dump (tail of ring).
    pub flight_events: usize,
}

impl Default for TslConfig {
    /// 100 ms windows, 1 % error budget, 14x/3-window fast burn and
    /// 6x/12-window slow burn (the classic SRE multi-window pairing),
    /// 8 dumps of 256 events each.
    fn default() -> Self {
        TslConfig {
            window: Duration::from_millis(100),
            deadline: Duration::ZERO,
            slo_budget_ppm: 10_000,
            fast_windows: 3,
            fast_threshold_milli: 14_000,
            slow_windows: 12,
            slow_threshold_milli: 6_000,
            flight_capacity: 8,
            flight_events: 256,
        }
    }
}

/// Everything recorded into one `(node, window)` cell of the timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Cluster-level get completions observed in the window.
    pub gets: u64,
    /// Gets whose end-to-end latency exceeded the SLO deadline.
    pub misses: u64,
    /// EBUSY replies the cluster driver saw in the window.
    pub ebusy: u64,
    /// Predictor admissions recorded at this node.
    pub admits: u64,
    /// Predictor rejections recorded at this node.
    pub rejects: u64,
    /// Rejections/EBUSYs by blamed [`Resource`], indexed by `code()`.
    pub rejects_by_resource: [u64; 8],
    /// Scheduler dispatches recorded at this node.
    pub dispatches: u64,
    /// Device completions recorded at this node.
    pub completes: u64,
    /// Breaker transitions into `Open` landing in this window.
    pub breaker_opens: u64,
    /// Breaker transitions into `Closed` landing in this window.
    pub breaker_closes: u64,
    /// End-to-end get latency histogram (cluster rows).
    pub latency: Pow2Hist,
    /// Device service-time histogram (node rows).
    pub service: Pow2Hist,
}

impl WindowStats {
    fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(self.gets);
        h.write_u64(self.misses);
        h.write_u64(self.ebusy);
        h.write_u64(self.admits);
        h.write_u64(self.rejects);
        h.write_u64_slice(&self.rejects_by_resource);
        h.write_u64(self.dispatches);
        h.write_u64(self.completes);
        h.write_u64(self.breaker_opens);
        h.write_u64(self.breaker_closes);
        self.latency.fold(h);
        self.service.fold(h);
    }
}

/// Which burn span tripped an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// The short span crossed `fast_threshold_milli` (page-now severity).
    FastBurn,
    /// The long span crossed `slow_threshold_milli` (ticket severity).
    SlowBurn,
}

impl AlertKind {
    /// Stable name used in exports and trailer lines.
    pub const fn name(self) -> &'static str {
        match self {
            AlertKind::FastBurn => "fast_burn",
            AlertKind::SlowBurn => "slow_burn",
        }
    }

    /// Stable numeric code, folded into digests.
    pub const fn code(self) -> u64 {
        match self {
            AlertKind::FastBurn => 0,
            AlertKind::SlowBurn => 1,
        }
    }
}

/// One burn-rate alert onset. Alerts are edge-triggered: an entry is
/// recorded when the condition becomes true at a window close and not again
/// until it has first become false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TslAlert {
    /// Fast or slow span.
    pub kind: AlertKind,
    /// Index of the window whose close tripped the alert.
    pub window: u64,
    /// Virtual time of that window's end.
    pub at: SimTime,
    /// Burn rate over the span at trigger time, in milli-multiples of the
    /// budget rate.
    pub burn_milli: u64,
}

impl TslAlert {
    /// The sim-time interval `[start, end)` covered by the alert's span.
    pub fn span(&self, cfg: &TslConfig) -> (SimTime, SimTime) {
        let width = cfg.window.as_nanos();
        let windows = match self.kind {
            AlertKind::FastBurn => cfg.fast_windows,
            AlertKind::SlowBurn => cfg.slow_windows,
        };
        let end = (self.window + 1) * width;
        let start = end.saturating_sub(windows * width);
        (SimTime::from_nanos(start), SimTime::from_nanos(end))
    }
}

/// An invariant that passed but came close to its budget (fed in from
/// `mitt_faults::invariants` by the harness; ROADMAP item 5's coverage
/// signal for the fault-plan generator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NearMiss {
    /// Name of the invariant that nearly failed.
    pub invariant: &'static str,
    /// Slack that remained (budget minus observed worst case).
    pub margin: Duration,
    /// The budget the invariant was checked against.
    pub budget: Duration,
}

impl NearMiss {
    /// True when the margin is under a quarter of the budget — the
    /// threshold at which recording one also arms the flight recorder.
    pub fn is_close(&self) -> bool {
        self.margin.as_nanos() * 4 < self.budget.as_nanos()
    }
}

/// One flight-recorder dump: the trace-ring tail plus attribution and
/// breaker state at the moment an alert (or near-miss) fired.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Dump id (0-based capture order).
    pub id: u64,
    /// What armed the recorder (`fast_burn`, `slow_burn`, `near_miss`).
    pub trigger: &'static str,
    /// Virtual time of the snapshot.
    pub at: SimTime,
    /// Tail of the trace ring at snapshot time (bounded by
    /// [`TslConfig::flight_events`]).
    pub events: Vec<TraceEvent>,
    /// Per-replica breaker state codes as `(node, BreakerState::code())`.
    pub breakers: Vec<(u32, u64)>,
    /// Cumulative rejects/EBUSYs by resource code at snapshot time.
    pub rejects: [u64; 8],
    /// Cumulative EBUSY replies at snapshot time.
    pub ebusy: u64,
    /// Cumulative gets at snapshot time.
    pub gets: u64,
    /// Cumulative SLO misses at snapshot time.
    pub misses: u64,
}

impl FlightDump {
    fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(self.id);
        h.write_str(self.trigger);
        h.write_u64(self.at.as_nanos());
        h.write_u64(self.events.len() as u64);
        for ev in &self.events {
            ev.fold(h);
        }
        for &(node, state) in &self.breakers {
            h.write_u64(u64::from(node));
            h.write_u64(state);
        }
        h.write_u64_slice(&self.rejects);
        h.write_u64(self.ebusy);
        h.write_u64(self.gets);
        h.write_u64(self.misses);
    }

    /// FNV-1a digest of the whole dump, as printed in the export index.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.fold(&mut h);
        h.finish()
    }

    /// Renders the dump as a byte-stable `mitt-tsl-flight/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.events.len() * 96);
        out.push_str("{\"schema\":\"mitt-tsl-flight/v1\"");
        out.push_str(&format!(",\"id\":{}", self.id));
        out.push_str(&format!(",\"trigger\":\"{}\"", self.trigger));
        out.push_str(&format!(",\"at_us\":{}", self.at.as_micros()));
        out.push_str(&format!(",\"gets\":{}", self.gets));
        out.push_str(&format!(",\"misses\":{}", self.misses));
        out.push_str(&format!(",\"ebusy\":{}", self.ebusy));
        out.push_str(",\"rejects\":{");
        let mut first = true;
        for r in Resource::ALL {
            let n = self.rejects[r.code() as usize];
            if n > 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{}\":{}", r.name(), n));
            }
        }
        out.push_str("},\"breakers\":[");
        for (i, &(node, state)) in self.breakers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"node\":{node},\"state\":{state}}}"));
        }
        out.push_str("],\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut f = Fnv1a::new();
            ev.kind.fold(&mut f);
            out.push_str(&format!(
                "{{\"at_ns\":{},\"node\":{},\"sub\":\"{}\",\"kind\":\"{}\",\"fold\":\"{:#018x}\"}}",
                ev.at.as_nanos(),
                ev.node,
                ev.subsystem.name(),
                ev.kind.name(),
                f.finish()
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Burn rate in milli-multiples of the budget rate: 1000 means the miss
/// rate exactly equals the budget rate; 14 000 means budget is being burned
/// 14x faster than allowed.
fn burn_milli(misses: u64, gets: u64, budget_ppm: u64) -> u64 {
    if gets == 0 || budget_ppm == 0 {
        return 0;
    }
    (misses as u128 * 1_000_000_000u128 / (gets as u128 * budget_ppm as u128)) as u64
}

/// One node's timeline: window `w` lives in `cells[w]`. Windows are dense
/// and only move forward within a run, so a row grows at its end and a
/// record is an index, not a tree descent. A slot stays `None` until
/// something touches its window; a touched cell stays even when it counts
/// nothing (a breaker move to HalfOpen), exactly as a map entry would.
/// Cells are boxed so an untouched slot costs one pointer.
#[derive(Debug, Default)]
struct Row {
    cells: Vec<Option<Box<WindowStats>>>,
}

impl Row {
    /// The cell for window `w`, created (and the row extended) on first
    /// touch.
    fn cell(&mut self, w: u64) -> &mut WindowStats {
        let i = slot(w);
        if i >= self.cells.len() {
            self.cells.resize_with(i + 1, || None);
        }
        self.cells[i].get_or_insert_with(Box::default)
    }

    /// The cell for window `w`, if anything touched it.
    fn get(&self, w: u64) -> Option<&WindowStats> {
        self.cells.get(slot(w))?.as_deref()
    }

    /// Touched cells with their window index, in window order.
    fn iter(&self) -> impl Iterator<Item = (u64, &WindowStats)> + '_ {
        (0..)
            .zip(&self.cells)
            .filter_map(|(w, c)| Some((w, c.as_deref()?)))
    }
}

/// A window index as a row index.
fn slot(w: u64) -> usize {
    usize::try_from(w).expect("timeline row spans more windows than memory")
}

/// The shared timeline collector behind every [`TslSink`] handle.
#[derive(Debug)]
struct TslCore {
    cfg: TslConfig,
    strategy: String,
    /// Timeline rows by node, iterated in `(node, window)` order;
    /// [`CLUSTER_NODE`]'s row holds the cluster-level gets/misses/EBUSY
    /// the burn rate reads.
    rows: BTreeMap<u32, Row>,
    /// Windows strictly below this index have been closed and evaluated.
    closed_through: u64,
    alerts: Vec<TslAlert>,
    fast_active: bool,
    slow_active: bool,
    near_misses: Vec<NearMiss>,
    dumps: Vec<FlightDump>,
    /// Triggers fired but not yet snapshotted (drained by the owner via
    /// `wants_flight` / `flight_record`).
    pending_triggers: Vec<&'static str>,
    cum_rejects: [u64; 8],
    cum_ebusy: u64,
    cum_gets: u64,
    cum_misses: u64,
    finished: bool,
}

impl TslCore {
    fn window_of(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.cfg.window.as_nanos().max(1)
    }

    fn cell(&mut self, node: u32, at: SimTime) -> &mut WindowStats {
        let w = self.window_of(at);
        self.rows.entry(node).or_default().cell(w)
    }

    /// Touched cells in `(node, window)` order.
    fn cells(&self) -> impl Iterator<Item = (u32, u64, &WindowStats)> + '_ {
        self.rows
            .iter()
            .flat_map(|(&node, row)| row.iter().map(move |(w, s)| (node, w, s)))
    }

    /// Sums `(gets, misses)` over cluster windows `[lo, hi]` inclusive.
    fn span_totals(&self, lo: u64, hi: u64) -> (u64, u64) {
        let mut gets = 0;
        let mut misses = 0;
        if let Some(row) = self.rows.get(&CLUSTER_NODE) {
            for s in (lo..=hi).filter_map(|w| row.get(w)) {
                gets += s.gets;
                misses += s.misses;
            }
        }
        (gets, misses)
    }

    fn span_burn(&self, hi: u64, span: u64) -> u64 {
        let lo = (hi + 1).saturating_sub(span.max(1));
        let (gets, misses) = self.span_totals(lo, hi);
        burn_milli(misses, gets, self.cfg.slo_budget_ppm)
    }

    /// Closes every window strictly before the one containing `now`,
    /// evaluating burn alerts edge-triggered at each close.
    fn advance_to(&mut self, now: SimTime) {
        let open = self.window_of(now);
        while self.closed_through < open {
            let w = self.closed_through;
            self.evaluate_window(w);
            self.closed_through += 1;
        }
    }

    fn evaluate_window(&mut self, w: u64) {
        let cfg = self.cfg;
        let gate = self.span_burn(w, 1);
        let fast = self.span_burn(w, cfg.fast_windows);
        let fast_now = fast >= cfg.fast_threshold_milli && gate >= cfg.fast_threshold_milli;
        if fast_now && !self.fast_active {
            self.push_alert(AlertKind::FastBurn, w, fast);
        }
        self.fast_active = fast_now;

        let fast_gate = self.span_burn(w, cfg.fast_windows);
        let slow = self.span_burn(w, cfg.slow_windows);
        let slow_now = slow >= cfg.slow_threshold_milli && fast_gate >= cfg.slow_threshold_milli;
        if slow_now && !self.slow_active {
            self.push_alert(AlertKind::SlowBurn, w, slow);
        }
        self.slow_active = slow_now;
    }

    fn push_alert(&mut self, kind: AlertKind, w: u64, burn: u64) {
        let at = SimTime::from_nanos((w + 1) * self.cfg.window.as_nanos());
        self.alerts.push(TslAlert {
            kind,
            window: w,
            at,
            burn_milli: burn,
        });
        if self.dumps.len() + self.pending_triggers.len() < self.cfg.flight_capacity {
            self.pending_triggers.push(kind.name());
        }
    }
}

/// A cheap clonable handle to a shared timeline collector, mirroring
/// [`mitt_trace::TraceSink`]: disabled by default (one branch per call, no
/// allocation), enabled per run, node-tagged via [`TslSink::for_node`].
#[derive(Debug, Clone, Default)]
pub struct TslSink {
    core: Option<Rc<RefCell<TslCore>>>,
    node: u32,
}

impl TslSink {
    /// A sink that drops everything (the default).
    pub fn disabled() -> Self {
        TslSink {
            core: None,
            node: CLUSTER_NODE,
        }
    }

    /// A live sink collecting under `cfg` for a run labelled `strategy`.
    pub fn enabled(cfg: TslConfig, strategy: &str) -> Self {
        TslSink {
            core: Some(Rc::new(RefCell::new(TslCore {
                cfg,
                strategy: strategy.to_string(),
                rows: BTreeMap::new(),
                closed_through: 0,
                alerts: Vec::new(),
                fast_active: false,
                slow_active: false,
                near_misses: Vec::new(),
                dumps: Vec::new(),
                pending_triggers: Vec::new(),
                cum_rejects: [0; 8],
                cum_ebusy: 0,
                cum_gets: 0,
                cum_misses: 0,
                finished: false,
            }))),
            node: CLUSTER_NODE,
        }
    }

    /// True when samples are being collected.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// A handle to the same collector tagged with `node`.
    pub fn for_node(&self, node: u32) -> Self {
        TslSink {
            core: self.core.clone(),
            node,
        }
    }

    /// The node tag recorded with this handle's samples.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// The active config, if enabled.
    pub fn config(&self) -> Option<TslConfig> {
        self.core.as_ref().map(|c| c.borrow().cfg)
    }

    /// Records one completed cluster get: bumps the window's get count,
    /// latency histogram, and — when `latency` blows the SLO deadline —
    /// its miss count. Cluster-row only; call on the cluster-tagged handle.
    pub fn observe_get(&self, at: SimTime, latency: Duration) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            let miss = latency > core.cfg.deadline;
            core.cum_gets += 1;
            if miss {
                core.cum_misses += 1;
            }
            let cell = self.cell_for(&mut core, at);
            cell.gets += 1;
            if miss {
                cell.misses += 1;
            }
            cell.latency.observe(latency.as_nanos());
        }
    }

    /// Records one EBUSY reply blamed on `resource` (cluster handle).
    pub fn record_ebusy(&self, at: SimTime, resource: Resource) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            core.cum_ebusy += 1;
            core.cum_rejects[resource.code() as usize] += 1;
            let cell = self.cell_for(&mut core, at);
            cell.ebusy += 1;
            cell.rejects_by_resource[resource.code() as usize] += 1;
        }
    }

    /// Records one predictor admission at this handle's node.
    pub fn record_admit(&self, at: SimTime) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            self.cell_for(&mut core, at).admits += 1;
        }
    }

    /// Records one predictor rejection blamed on `resource` at this
    /// handle's node.
    pub fn record_reject(&self, at: SimTime, resource: Resource) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            core.cum_rejects[resource.code() as usize] += 1;
            let cell = self.cell_for(&mut core, at);
            cell.rejects += 1;
            cell.rejects_by_resource[resource.code() as usize] += 1;
        }
    }

    /// Records one scheduler dispatch at this handle's node.
    pub fn record_dispatch(&self, at: SimTime) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            self.cell_for(&mut core, at).dispatches += 1;
        }
    }

    /// Records one device completion with its service time at this
    /// handle's node.
    pub fn observe_service(&self, at: SimTime, service: Duration) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            let cell = self.cell_for(&mut core, at);
            cell.completes += 1;
            cell.service.observe(service.as_nanos());
        }
    }

    /// Records a breaker state change for `node` (state codes from
    /// `BreakerState::code()`: 0 Closed, 1 Open, 2 HalfOpen). Opens and
    /// closes are bucketed into the window containing `at` on both the
    /// node's row and the cluster row.
    pub fn record_breaker_transition(&self, node: u32, at: SimTime, to_code: u64) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            for row in [node, CLUSTER_NODE] {
                let cell = core.cell(row, at);
                if to_code == 1 {
                    cell.breaker_opens += 1;
                } else if to_code == 0 {
                    cell.breaker_closes += 1;
                }
            }
        }
    }

    /// Records an invariant near-miss (see [`NearMiss`]); a close one
    /// ([`NearMiss::is_close`]) also arms the flight recorder.
    pub fn record_near_miss(&self, nm: NearMiss) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            if nm.is_close()
                && core.dumps.len() + core.pending_triggers.len() < core.cfg.flight_capacity
            {
                core.pending_triggers.push("near_miss");
            }
            core.near_misses.push(nm);
        }
    }

    /// Advances the window clock to `now`, closing and evaluating every
    /// window that ended before it. Returns true when the evaluation fired
    /// an alert that still needs a flight-recorder snapshot (the caller
    /// should follow up with [`TslSink::flight_record`]).
    pub fn tick(&self, now: SimTime) -> bool {
        match &self.core {
            Some(core) => {
                let mut core = core.borrow_mut();
                core.advance_to(now);
                !core.pending_triggers.is_empty()
            }
            None => false,
        }
    }

    /// True when an alert or near-miss has armed the recorder and capacity
    /// remains for a snapshot.
    pub fn wants_flight(&self) -> bool {
        self.core
            .as_ref()
            .is_some_and(|c| !c.borrow().pending_triggers.is_empty())
    }

    /// Captures one flight dump for all pending triggers: `events` is the
    /// trace-ring tail (the sink truncates it to the configured bound),
    /// `breakers` the per-replica breaker state codes at snapshot time.
    pub fn flight_record(&self, events: Vec<TraceEvent>, breakers: Vec<(u32, u64)>, now: SimTime) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            if core.pending_triggers.is_empty() || core.dumps.len() >= core.cfg.flight_capacity {
                core.pending_triggers.clear();
                return;
            }
            let trigger = core.pending_triggers[0];
            core.pending_triggers.clear();
            let keep = core.cfg.flight_events;
            let skip = events.len().saturating_sub(keep);
            let dump = FlightDump {
                id: core.dumps.len() as u64,
                trigger,
                at: now,
                events: events.into_iter().skip(skip).collect(),
                breakers,
                rejects: core.cum_rejects,
                ebusy: core.cum_ebusy,
                gets: core.cum_gets,
                misses: core.cum_misses,
            };
            core.dumps.push(dump);
        }
    }

    /// Closes all windows through `run_end` and evaluates the final one.
    /// Idempotent; call once when the run drains.
    pub fn finish(&self, run_end: SimTime) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            if core.finished {
                return;
            }
            // Close everything up to and *including* the window containing
            // the run's end, so a tail burst in the final partial window
            // still evaluates.
            let last = core.window_of(run_end);
            while core.closed_through <= last {
                let w = core.closed_through;
                core.evaluate_window(w);
                core.closed_through += 1;
            }
            core.finished = true;
        }
    }

    /// All recorded alerts in trigger order.
    pub fn alerts(&self) -> Vec<TslAlert> {
        self.core
            .as_ref()
            .map(|c| c.borrow().alerts.clone())
            .unwrap_or_default()
    }

    /// Number of fast-burn alert onsets.
    pub fn fast_burn_alerts(&self) -> u64 {
        self.alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::FastBurn)
            .count() as u64
    }

    /// All recorded invariant near-misses.
    pub fn near_misses(&self) -> Vec<NearMiss> {
        self.core
            .as_ref()
            .map(|c| c.borrow().near_misses.clone())
            .unwrap_or_default()
    }

    /// All captured flight dumps.
    pub fn flight_dumps(&self) -> Vec<FlightDump> {
        self.core
            .as_ref()
            .map(|c| c.borrow().dumps.clone())
            .unwrap_or_default()
    }

    /// The stats cell for `(self.node, window containing at)`.
    fn cell_for<'a>(&self, core: &'a mut TslCore, at: SimTime) -> &'a mut WindowStats {
        core.cell(self.node, at)
    }

    /// Synthesizes Chrome counter-track events (`tsl.p99_us`,
    /// `tsl.burn_milli`) at each cluster window's end, for merging into a
    /// trace export so alerts are visible next to Fault/Gray spans.
    pub fn counter_events(&self) -> Vec<TraceEvent> {
        use mitt_trace::{EventKind, Subsystem};
        let core = match &self.core {
            Some(c) => c.borrow(),
            None => return Vec::new(),
        };
        let width = core.cfg.window.as_nanos();
        let mut out = Vec::new();
        let Some(cluster) = core.rows.get(&CLUSTER_NODE) else {
            return out;
        };
        for (w, stats) in cluster.iter() {
            let at = SimTime::from_nanos((w + 1) * width);
            out.push(TraceEvent {
                at,
                node: CLUSTER_NODE,
                subsystem: Subsystem::Cluster,
                kind: EventKind::Counter {
                    name: "tsl.p99_us",
                    value: stats.latency.quantile_milli(990) / 1_000,
                },
            });
            out.push(TraceEvent {
                at,
                node: CLUSTER_NODE,
                subsystem: Subsystem::Cluster,
                kind: EventKind::Counter {
                    name: "tsl.burn_milli",
                    value: burn_milli(stats.misses, stats.gets, core.cfg.slo_budget_ppm),
                },
            });
        }
        out
    }

    /// Folds the whole timeline state into a run digest. A disabled sink
    /// folds a `0` marker; an enabled one folds config, every window cell,
    /// alerts, near-misses, and flight-dump digests — so same-seed runs
    /// must produce bit-identical timelines.
    pub fn fold_digest(&self, h: &mut Fnv1a) {
        let core = match &self.core {
            Some(c) => c.borrow(),
            None => {
                h.write_u64(0);
                return;
            }
        };
        h.write_u64(1);
        h.write_str(&core.strategy);
        h.write_u64(core.cfg.window.as_nanos());
        h.write_u64(core.cfg.deadline.as_nanos());
        h.write_u64(core.cfg.slo_budget_ppm);
        h.write_u64(core.cfg.fast_windows);
        h.write_u64(core.cfg.fast_threshold_milli);
        h.write_u64(core.cfg.slow_windows);
        h.write_u64(core.cfg.slow_threshold_milli);
        h.write_u64(core.cells().count() as u64);
        for (node, w, stats) in core.cells() {
            h.write_u64(u64::from(node));
            h.write_u64(w);
            stats.fold(h);
        }
        h.write_u64(core.alerts.len() as u64);
        for a in &core.alerts {
            h.write_u64(a.kind.code());
            h.write_u64(a.window);
            h.write_u64(a.at.as_nanos());
            h.write_u64(a.burn_milli);
        }
        h.write_u64(core.near_misses.len() as u64);
        for nm in &core.near_misses {
            h.write_str(nm.invariant);
            h.write_u64(nm.margin.as_nanos());
            h.write_u64(nm.budget.as_nanos());
        }
        h.write_u64(core.dumps.len() as u64);
        for d in &core.dumps {
            d.fold(h);
        }
    }

    /// Renders the `mitt-tsl/v1` export: fixed field order, integer-only
    /// values, byte-identical across same-seed runs.
    pub fn export_json(&self) -> String {
        self.export_json_with_bench(None)
    }

    /// [`TslSink::export_json`] with an embedded pre-rendered
    /// `mitt-bench/v1` document as a trailing `"bench"` section, so
    /// `mitt-obs compare` can gate a timeline export directly against a
    /// committed bench baseline.
    pub fn export_json_with_bench(&self, bench_json: Option<&str>) -> String {
        let core = match &self.core {
            Some(c) => c.borrow(),
            None => return String::from("{\"schema\":\"mitt-tsl/v1\",\"enabled\":false}"),
        };
        let cfg = core.cfg;
        let width = cfg.window.as_nanos();
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("{\"schema\":\"mitt-tsl/v1\"");
        out.push_str(&format!(",\"strategy\":\"{}\"", core.strategy));
        out.push_str(&format!(",\"window_us\":{}", cfg.window.as_micros()));
        out.push_str(&format!(",\"deadline_us\":{}", cfg.deadline.as_micros()));
        out.push_str(&format!(",\"slo_budget_ppm\":{}", cfg.slo_budget_ppm));
        out.push_str(&format!(
            ",\"fast_burn\":{{\"windows\":{},\"threshold_milli\":{}}}",
            cfg.fast_windows, cfg.fast_threshold_milli
        ));
        out.push_str(&format!(
            ",\"slow_burn\":{{\"windows\":{},\"threshold_milli\":{}}}",
            cfg.slow_windows, cfg.slow_threshold_milli
        ));

        // Timelines: cluster row first, then per-node rows in node order
        // (BTreeMap order puts CLUSTER_NODE, u32::MAX, last).
        let cluster = core.rows.get_key_value(&CLUSTER_NODE);
        let nodes = core.rows.iter().filter(|&(&n, _)| n != CLUSTER_NODE);
        out.push_str(",\"timelines\":[");
        for (ni, (&node, row)) in cluster.into_iter().chain(nodes).enumerate() {
            if ni > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"node\":{node},\"windows\":["));
            for (i, (w, s)) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"w\":{w},\"start_us\":{}", w * width / 1_000));
                out.push_str(&format!(",\"gets\":{}", s.gets));
                out.push_str(&format!(",\"misses\":{}", s.misses));
                out.push_str(&format!(",\"ebusy\":{}", s.ebusy));
                out.push_str(&format!(",\"admits\":{}", s.admits));
                out.push_str(&format!(",\"rejects\":{}", s.rejects));
                out.push_str(&format!(",\"dispatches\":{}", s.dispatches));
                out.push_str(&format!(",\"completes\":{}", s.completes));
                out.push_str(&format!(
                    ",\"p50_us\":{}",
                    s.latency.quantile_milli(500) / 1_000
                ));
                out.push_str(&format!(
                    ",\"p95_us\":{}",
                    s.latency.quantile_milli(950) / 1_000
                ));
                out.push_str(&format!(
                    ",\"p99_us\":{}",
                    s.latency.quantile_milli(990) / 1_000
                ));
                out.push_str(&format!(
                    ",\"p999_us\":{}",
                    s.latency.quantile_milli(999) / 1_000
                ));
                out.push_str(&format!(
                    ",\"service_p99_us\":{}",
                    s.service.quantile_milli(990) / 1_000
                ));
                out.push_str(&format!(
                    ",\"burn_milli\":{}",
                    burn_milli(s.misses, s.gets, cfg.slo_budget_ppm)
                ));
                out.push_str(&format!(",\"breaker_opens\":{}", s.breaker_opens));
                out.push_str(&format!(",\"breaker_closes\":{}", s.breaker_closes));
                out.push_str(",\"reject_by_resource\":{");
                let mut rf = true;
                for r in Resource::ALL {
                    let n = s.rejects_by_resource[r.code() as usize];
                    if n > 0 {
                        if !rf {
                            out.push(',');
                        }
                        rf = false;
                        out.push_str(&format!("\"{}\":{}", r.name(), n));
                    }
                }
                out.push_str("}}");
            }
            out.push_str("]}");
        }
        out.push_str("],\"alerts\":[");
        for (i, a) in core.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (lo, hi) = a.span(&cfg);
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"window\":{},\"at_us\":{},\"span_start_us\":{},\"span_end_us\":{},\"burn_milli\":{}}}",
                a.kind.name(),
                a.window,
                a.at.as_micros(),
                lo.as_micros(),
                hi.as_micros(),
                a.burn_milli
            ));
        }
        out.push_str("],\"near_misses\":[");
        for (i, nm) in core.near_misses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"invariant\":\"{}\",\"margin_us\":{},\"budget_us\":{}}}",
                nm.invariant,
                nm.margin.as_micros(),
                nm.budget.as_micros()
            ));
        }
        out.push_str("],\"flight_recorder\":[");
        for (i, d) in core.dumps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let open = d.breakers.iter().filter(|&&(_, st)| st == 1).count();
            out.push_str(&format!(
                "{{\"id\":{},\"trigger\":\"{}\",\"at_us\":{},\"events\":{},\"breakers_open\":{},\"digest\":\"{:#018x}\"}}",
                d.id,
                d.trigger,
                d.at.as_micros(),
                d.events.len(),
                open,
                d.digest()
            ));
        }
        out.push(']');
        if let Some(bench) = bench_json {
            out.push_str(",\"bench\":");
            out.push_str(bench);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_trace::{EventKind, Subsystem};

    fn cfg_10ms() -> TslConfig {
        TslConfig {
            window: Duration::from_millis(10),
            deadline: Duration::from_millis(5),
            slo_budget_ppm: 10_000,
            fast_windows: 2,
            fast_threshold_milli: 10_000,
            slow_windows: 4,
            slow_threshold_milli: 2_000,
            flight_capacity: 4,
            flight_events: 8,
        }
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn disabled_sink_is_inert() {
        let s = TslSink::disabled();
        assert!(!s.is_enabled());
        s.observe_get(at_ms(1), Duration::from_millis(1));
        assert!(!s.tick(at_ms(100)));
        assert!(s.alerts().is_empty());
        let mut h = Fnv1a::new();
        s.fold_digest(&mut h);
        let mut h2 = Fnv1a::new();
        h2.write_u64(0);
        assert_eq!(h.finish(), h2.finish());
    }

    #[test]
    fn burn_math_is_integer_exact() {
        // 1% budget, 1% misses -> burn exactly 1000 milli.
        assert_eq!(burn_milli(1, 100, 10_000), 1_000);
        // 14% misses -> 14x burn.
        assert_eq!(burn_milli(14, 100, 10_000), 14_000);
        assert_eq!(burn_milli(0, 100, 10_000), 0);
        assert_eq!(burn_milli(5, 0, 10_000), 0);
    }

    #[test]
    fn fast_burn_fires_once_per_onset_and_overlaps_the_bad_windows() {
        let s = TslSink::enabled(cfg_10ms(), "test");
        // Window 0: healthy. Windows 1-2: everything misses.
        for i in 0..50 {
            s.observe_get(at_ms(i % 10), Duration::from_millis(1));
        }
        for i in 0..50 {
            s.observe_get(at_ms(10 + (i % 20)), Duration::from_millis(50));
        }
        s.finish(at_ms(30));
        let alerts = s.alerts();
        assert!(
            alerts.iter().any(|a| a.kind == AlertKind::FastBurn),
            "fast burn should fire, got {alerts:?}"
        );
        assert_eq!(s.fast_burn_alerts(), 1, "edge-triggered: one onset");
        let a = alerts[0];
        let (lo, hi) = a.span(&cfg_10ms());
        assert!(
            lo < at_ms(30) && hi > at_ms(10),
            "span overlaps bad windows"
        );
    }

    #[test]
    fn alert_arms_flight_recorder_and_dump_is_bounded() {
        let s = TslSink::enabled(cfg_10ms(), "test");
        for i in 0..40 {
            s.observe_get(at_ms(i % 20), Duration::from_millis(50));
        }
        assert!(s.tick(at_ms(25)), "tick past bad windows requests a dump");
        let events: Vec<TraceEvent> = (0..20)
            .map(|i| TraceEvent {
                at: at_ms(i),
                node: 0,
                subsystem: Subsystem::Node,
                kind: EventKind::Dispatch { io: i },
            })
            .collect();
        s.flight_record(events, vec![(0, 1), (1, 0)], at_ms(25));
        assert!(!s.wants_flight());
        let dumps = s.flight_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].events.len(), 8, "truncated to flight_events");
        assert_eq!(dumps[0].events[0].kind, EventKind::Dispatch { io: 12 });
        let json = dumps[0].to_json();
        assert!(json.starts_with("{\"schema\":\"mitt-tsl-flight/v1\""));
        assert!(json.contains("\"trigger\":\"fast_burn\""));
    }

    #[test]
    fn near_miss_with_thin_margin_arms_the_recorder() {
        let s = TslSink::enabled(cfg_10ms(), "test");
        s.record_near_miss(NearMiss {
            invariant: "bounded_unavailability",
            margin: Duration::from_millis(1),
            budget: Duration::from_millis(100),
        });
        assert!(s.wants_flight());
        s.record_near_miss(NearMiss {
            invariant: "breaker_flap",
            margin: Duration::from_millis(90),
            budget: Duration::from_millis(100),
        });
        assert_eq!(s.near_misses().len(), 2);
    }

    #[test]
    fn export_is_deterministic_and_self_consistent() {
        let build = || {
            let s = TslSink::enabled(cfg_10ms(), "mittos");
            let n0 = s.for_node(0);
            for i in 0..30 {
                s.observe_get(at_ms(i), Duration::from_micros(800 * (1 + i % 9)));
                n0.record_admit(at_ms(i));
                n0.observe_service(at_ms(i), Duration::from_micros(300));
            }
            n0.record_reject(at_ms(12), Resource::CfqQueue);
            s.record_ebusy(at_ms(12), Resource::CfqQueue);
            s.record_breaker_transition(0, at_ms(15), 1);
            s.finish(at_ms(30));
            s
        };
        let a = build();
        let b = build();
        assert_eq!(a.export_json(), b.export_json());
        let mut ha = Fnv1a::new();
        a.fold_digest(&mut ha);
        let mut hb = Fnv1a::new();
        b.fold_digest(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
        let json = a.export_json();
        assert!(json.starts_with("{\"schema\":\"mitt-tsl/v1\""));
        assert!(json.contains("\"strategy\":\"mittos\""));
        assert!(json.contains("\"timelines\":[{\"node\":4294967295"));
        assert!(json.contains("\"reject_by_resource\":{\"cfq_queue\":1}"));
        let with_bench = a.export_json_with_bench(Some("{\"schema\":\"mitt-bench/v1\"}"));
        assert!(with_bench.ends_with(",\"bench\":{\"schema\":\"mitt-bench/v1\"}}"));
    }

    #[test]
    fn counter_events_track_window_ends() {
        let s = TslSink::enabled(cfg_10ms(), "test");
        for i in 0..10 {
            s.observe_get(at_ms(i), Duration::from_millis(1));
        }
        s.finish(at_ms(10));
        let evs = s.counter_events();
        assert_eq!(evs.len(), 2, "one p99 + one burn counter per window");
        assert_eq!(evs[0].at, at_ms(10));
        assert!(matches!(
            evs[0].kind,
            EventKind::Counter {
                name: "tsl.p99_us",
                ..
            }
        ));
    }

    #[test]
    fn touched_empty_cells_appear_and_untouched_ones_do_not() {
        let s = TslSink::enabled(cfg_10ms(), "test");
        let n3 = s.for_node(3);
        n3.record_dispatch(at_ms(5));
        // A breaker move to HalfOpen touches window 4 without counting.
        s.record_breaker_transition(3, at_ms(41), 2);
        s.finish(at_ms(50));
        let json = s.export_json();
        let empty = |w: u64| {
            format!(
                "{{\"w\":{w},\"start_us\":{},\"gets\":0,\"misses\":0,\"ebusy\":0,\"admits\":0,\
                 \"rejects\":0,\"dispatches\":0,\"completes\":0,\"p50_us\":0,\"p95_us\":0,\
                 \"p99_us\":0,\"p999_us\":0,\"service_p99_us\":0,\"burn_milli\":0,\
                 \"breaker_opens\":0,\"breaker_closes\":0,\"reject_by_resource\":{{}}}}",
                w * 10_000
            )
        };
        // Cluster row first, then node 3 with windows 0 and 4 only.
        let cluster = format!("{{\"node\":{CLUSTER_NODE},\"windows\":[{}]}}", empty(4));
        assert!(json.contains(&cluster), "{json}");
        assert!(json.contains("\"dispatches\":1,\"completes\":0"));
        assert!(json.contains(&format!(",{}]}}]", empty(4))), "{json}");
        assert!(!json.contains("\"w\":1,"), "untouched windows stay out");
    }

    #[test]
    fn out_of_order_records_keep_window_order() {
        let build = |order: &[u64]| {
            let s = TslSink::enabled(cfg_10ms(), "test");
            for &ms in order {
                s.observe_get(at_ms(ms), Duration::from_millis(1));
            }
            let mut h = Fnv1a::new();
            s.fold_digest(&mut h);
            (s.export_json(), h.finish())
        };
        assert_eq!(build(&[35, 12, 3]), build(&[3, 12, 35]));
    }

    #[test]
    fn finish_is_idempotent() {
        let s = TslSink::enabled(cfg_10ms(), "test");
        for i in 0..20 {
            s.observe_get(at_ms(i), Duration::from_millis(50));
        }
        s.finish(at_ms(20));
        let first = s.alerts().len();
        s.finish(at_ms(20));
        assert_eq!(s.alerts().len(), first);
    }
}
