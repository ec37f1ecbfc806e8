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
//! allocates nothing, and [`TslSink::for_node`] re-tags a handle so the
//! cluster and each node record under their own id. A node records its
//! row where verdicts and completions leave it, so no layer below the
//! node holds a handle.

use std::cell::RefCell;
use std::rc::Rc;

use mitt_faults::invariants::NearMiss;
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

/// One thing a `(node, window)` cell counts.
#[derive(Debug, Clone, Copy)]
enum Rec {
    /// A completed cluster get, its latency in ns, and whether it missed
    /// the SLO deadline (cluster row).
    Get { ns: u64, miss: bool },
    /// A device completion with its service time in ns (node rows).
    Service(u64),
    /// A predictor admission (node rows).
    Admit,
    /// A predictor rejection blamed on a resource (node rows).
    Reject(Resource),
    /// An EBUSY reply blamed on a resource (cluster row).
    Ebusy(Resource),
    /// A scheduler dispatch (node rows).
    Dispatch,
    /// A breaker move to the state with this `BreakerState::code()`
    /// (either row).
    Breaker(u64),
}

impl Rec {
    /// Panics when `node`'s row is not the kind this record belongs on: a
    /// cell's hot counters mean different things on the two kinds.
    fn check_row(self, node: u32) {
        let cluster = node == CLUSTER_NODE;
        match self {
            Rec::Get { .. } => assert!(cluster, "gets record on the cluster row"),
            Rec::Ebusy(_) => assert!(cluster, "EBUSY replies record on the cluster row"),
            Rec::Service(_) => assert!(!cluster, "service times record on node rows"),
            Rec::Admit | Rec::Reject(_) | Rec::Dispatch => {
                assert!(
                    !cluster,
                    "admits, rejects and dispatches record on node rows"
                );
            }
            Rec::Breaker(_) => {}
        }
    }
}

/// A cell's counters as every reader (fold, export, counter tracks, burn
/// spans) sees them. A row kind reads zero for the counters it never
/// records: `gets`, `misses` and `ebusy` on a node row, `admits`,
/// `rejects`, `dispatches` and `completes` on the cluster row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    /// Cluster-level get completions observed in the window.
    gets: u64,
    /// Gets whose end-to-end latency exceeded the SLO deadline.
    misses: u64,
    /// EBUSY replies the cluster driver saw in the window.
    ebusy: u64,
    /// Predictor admissions recorded at this node.
    admits: u64,
    /// Predictor rejections recorded at this node.
    rejects: u64,
    /// Rejections/EBUSYs by blamed [`Resource`], indexed by `code()`.
    rejects_by_resource: [u64; 8],
    /// Scheduler dispatches recorded at this node.
    dispatches: u64,
    /// Device completions recorded at this node.
    completes: u64,
    /// Breaker transitions into `Open` landing in this window.
    breaker_opens: u64,
    /// Breaker transitions into `Closed` landing in this window.
    breaker_closes: u64,
}

/// What a timeline keeps per touched `(node, window)`: counters that read
/// out as [`Counts`], and one histogram, end-to-end get latency on the
/// cluster row and device service time on a node row.
trait WindowCell: Default {
    fn record(&mut self, rec: Rec);
    /// The counters as read on `node`'s row.
    fn counts(&self, node: u32) -> Counts;
    fn hist(&self) -> &Pow2Hist;
}

/// The `(latency, service)` histograms of a cell on `node`'s row, with
/// `empty` standing for the kind the row does not fill.
fn hists<'a>(node: u32, hist: &'a Pow2Hist, empty: &'a Pow2Hist) -> (&'a Pow2Hist, &'a Pow2Hist) {
    if node == CLUSTER_NODE {
        (hist, empty)
    } else {
        (empty, hist)
    }
}

fn fold_cell(cell: &impl WindowCell, node: u32, h: &mut Fnv1a) {
    let c = cell.counts(node);
    h.write_u64(c.gets);
    h.write_u64(c.misses);
    h.write_u64(c.ebusy);
    h.write_u64(c.admits);
    h.write_u64(c.rejects);
    h.write_u64_slice(&c.rejects_by_resource);
    h.write_u64(c.dispatches);
    h.write_u64(c.completes);
    h.write_u64(c.breaker_opens);
    h.write_u64(c.breaker_closes);
    let empty = Pow2Hist::new();
    let (latency, service) = hists(node, cell.hist(), &empty);
    latency.fold(h);
    service.fold(h);
}

// Slots of `Cell::hot`. A node row counts admits, rejects and dispatches
// there; the cluster row counts misses and EBUSY replies.
const ADMITS: usize = 0;
const REJECTS: usize = 1;
const DISPATCHES: usize = 2;
const MISSES: usize = 0;
const EBUSY: usize = 1;

/// The timeline's cell, 80 bytes. Its histogram's total is the row's get
/// count (cluster) or completion count (node), so neither is stored
/// again; the counters most cells move sit inline, and the rest in a
/// [`Rare`] record that only a cell with a reject, an EBUSY or a breaker
/// edge allocates.
#[derive(Debug, Default)]
struct Cell {
    hist: Pow2Hist,
    /// Indexed by [`ADMITS`], [`REJECTS`], [`DISPATCHES`] on a node row
    /// and by [`MISSES`], [`EBUSY`] on the cluster row.
    hot: [u64; 3],
    rare: Option<Box<Rare>>,
}

/// The counters of a [`Cell`] that few cells move.
#[derive(Debug, Default, Clone, Copy)]
struct Rare {
    rejects_by_resource: [u64; 8],
    breaker_opens: u64,
    breaker_closes: u64,
}

impl Cell {
    fn rare(&mut self) -> &mut Rare {
        self.rare.get_or_insert_with(Box::default)
    }
}

impl WindowCell for Cell {
    fn record(&mut self, rec: Rec) {
        match rec {
            Rec::Get { ns, miss } => {
                self.hist.observe(ns);
                self.hot[MISSES] += u64::from(miss);
            }
            Rec::Service(ns) => self.hist.observe(ns),
            Rec::Admit => self.hot[ADMITS] += 1,
            Rec::Reject(r) => {
                self.hot[REJECTS] += 1;
                self.rare().rejects_by_resource[r.code() as usize] += 1;
            }
            Rec::Ebusy(r) => {
                self.hot[EBUSY] += 1;
                self.rare().rejects_by_resource[r.code() as usize] += 1;
            }
            Rec::Dispatch => self.hot[DISPATCHES] += 1,
            Rec::Breaker(1) => self.rare().breaker_opens += 1,
            Rec::Breaker(0) => self.rare().breaker_closes += 1,
            Rec::Breaker(_) => {}
        }
    }

    fn counts(&self, node: u32) -> Counts {
        let rare = self.rare.as_deref().copied().unwrap_or_default();
        let mut c = Counts {
            rejects_by_resource: rare.rejects_by_resource,
            breaker_opens: rare.breaker_opens,
            breaker_closes: rare.breaker_closes,
            ..Counts::default()
        };
        if node == CLUSTER_NODE {
            c.gets = self.hist.total();
            c.misses = self.hot[MISSES];
            c.ebusy = self.hot[EBUSY];
        } else {
            c.admits = self.hot[ADMITS];
            c.rejects = self.hot[REJECTS];
            c.dispatches = self.hot[DISPATCHES];
            c.completes = self.hist.total();
        }
        c
    }

    fn hist(&self) -> &Pow2Hist {
        &self.hist
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

/// Where a timeline keeps its cells: [`Rows`] of compact [`Cell`]s here,
/// a map of the 17-counter reference cells in the tests.
trait Timeline: Default {
    type Cell: WindowCell;
    /// The cell for window `w` on `node`'s row, created on first touch. A
    /// touched cell stays even when it counts nothing (a breaker move to
    /// HalfOpen).
    fn touch(&mut self, node: u32, w: u64) -> &mut Self::Cell;
    /// The cluster row's cell for window `w`, if anything touched it.
    fn cluster(&self, w: u64) -> Option<&Self::Cell>;
    /// Touched cells in `(node, window)` order: node rows in id order,
    /// then the cluster row (where the id `u32::MAX` sorts).
    fn cells(&self) -> impl Iterator<Item = (u32, u64, &Self::Cell)> + '_;
}

/// One node's timeline: window `w` lives in `cells[w]`. Windows are dense
/// and only move forward within a run, so a row grows at its end and a
/// record is an index, not a tree descent. A slot stays `None` until
/// something touches its window; a touched cell stays even when it counts
/// nothing, exactly as a map entry would. Cells are boxed so an untouched
/// slot costs one pointer.
#[derive(Debug, Default)]
struct Row {
    cells: Vec<Option<Box<Cell>>>,
}

impl Row {
    /// The cell for window `w`, created (and the row extended) on first
    /// touch.
    fn cell(&mut self, w: u64) -> &mut Cell {
        let i = slot(w);
        if i >= self.cells.len() {
            self.cells.resize_with(i + 1, || None);
        }
        self.cells[i].get_or_insert_with(Box::default)
    }

    /// The cell for window `w`, if anything touched it.
    fn get(&self, w: u64) -> Option<&Cell> {
        self.cells.get(slot(w))?.as_deref()
    }

    /// Touched cells with their window index, in window order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Cell)> + '_ {
        (0..)
            .zip(&self.cells)
            .filter_map(|(w, c)| Some((w, c.as_deref()?)))
    }
}

/// A window index as a row index.
fn slot(w: u64) -> usize {
    usize::try_from(w).expect("timeline row spans more windows than memory")
}

/// The timeline's rows: one per node in a `Vec` indexed by node id (a
/// node nothing recorded at has an empty row), and [`CLUSTER_NODE`]'s on
/// its own.
#[derive(Debug, Default)]
struct Rows {
    nodes: Vec<Row>,
    cluster: Row,
}

impl Timeline for Rows {
    type Cell = Cell;

    fn touch(&mut self, node: u32, w: u64) -> &mut Cell {
        let row = if node == CLUSTER_NODE {
            &mut self.cluster
        } else {
            let i = usize::try_from(node).expect("node id fits in usize");
            if i >= self.nodes.len() {
                self.nodes.resize_with(i + 1, Row::default);
            }
            &mut self.nodes[i]
        };
        row.cell(w)
    }

    fn cluster(&self, w: u64) -> Option<&Cell> {
        self.cluster.get(w)
    }

    fn cells(&self) -> impl Iterator<Item = (u32, u64, &Cell)> + '_ {
        (0..)
            .zip(&self.nodes)
            .chain([(CLUSTER_NODE, &self.cluster)])
            .flat_map(|(node, row)| row.iter().map(move |(w, c)| (node, w, c)))
    }
}

/// The shared timeline collector behind every [`TslSink`] handle.
#[derive(Debug)]
struct TslCore<T: Timeline = Rows> {
    cfg: TslConfig,
    strategy: String,
    timeline: T,
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

impl<T: Timeline> TslCore<T> {
    fn new(cfg: TslConfig, strategy: &str) -> Self {
        TslCore {
            cfg,
            strategy: strategy.to_string(),
            timeline: T::default(),
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
        }
    }

    fn window_of(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.cfg.window.as_nanos().max(1)
    }

    /// Counts `rec` into `node`'s cell for the window containing `at` and
    /// into the run's cumulative counters.
    fn record(&mut self, node: u32, at: SimTime, rec: Rec) {
        rec.check_row(node);
        match rec {
            Rec::Get { miss, .. } => {
                self.cum_gets += 1;
                self.cum_misses += u64::from(miss);
            }
            Rec::Ebusy(r) => {
                self.cum_ebusy += 1;
                self.cum_rejects[r.code() as usize] += 1;
            }
            Rec::Reject(r) => self.cum_rejects[r.code() as usize] += 1,
            _ => {}
        }
        let w = self.window_of(at);
        self.timeline.touch(node, w).record(rec);
    }

    /// A breaker move lands on both the node's row and the cluster row.
    fn record_breaker_transition(&mut self, node: u32, at: SimTime, to_code: u64) {
        for row in [node, CLUSTER_NODE] {
            self.record(row, at, Rec::Breaker(to_code));
        }
    }

    /// Sums `(gets, misses)` over cluster windows `[lo, hi]` inclusive.
    fn span_totals(&self, lo: u64, hi: u64) -> (u64, u64) {
        let mut gets = 0;
        let mut misses = 0;
        for w in lo..=hi {
            if let Some(cell) = self.timeline.cluster(w) {
                let c = cell.counts(CLUSTER_NODE);
                gets += c.gets;
                misses += c.misses;
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

    /// Closes all windows through the one containing `run_end`. Idempotent.
    fn finish(&mut self, run_end: SimTime) {
        if self.finished {
            return;
        }
        // Close everything up to and *including* the window containing
        // the run's end, so a tail burst in the final partial window
        // still evaluates.
        let last = self.window_of(run_end);
        while self.closed_through <= last {
            let w = self.closed_through;
            self.evaluate_window(w);
            self.closed_through += 1;
        }
        self.finished = true;
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

    /// See [`TslSink::counter_events`].
    fn counter_events(&self) -> Vec<TraceEvent> {
        use mitt_trace::{EventKind, Subsystem};
        let width = self.cfg.window.as_nanos();
        let mut out = Vec::new();
        for (_, w, cell) in self.cluster_cells() {
            let at = SimTime::from_nanos((w + 1) * width);
            let c = cell.counts(CLUSTER_NODE);
            out.push(TraceEvent {
                at,
                node: CLUSTER_NODE,
                subsystem: Subsystem::Cluster,
                kind: EventKind::Counter {
                    name: "tsl.p99_us",
                    value: cell.hist().quantile_milli(990) / 1_000,
                },
            });
            out.push(TraceEvent {
                at,
                node: CLUSTER_NODE,
                subsystem: Subsystem::Cluster,
                kind: EventKind::Counter {
                    name: "tsl.burn_milli",
                    value: burn_milli(c.misses, c.gets, self.cfg.slo_budget_ppm),
                },
            });
        }
        out
    }

    /// The cluster row's touched cells, in window order.
    fn cluster_cells(&self) -> impl Iterator<Item = (u32, u64, &T::Cell)> + '_ {
        self.timeline
            .cells()
            .filter(|&(node, _, _)| node == CLUSTER_NODE)
    }

    /// See [`TslSink::fold_digest`] (an enabled sink).
    fn fold_digest(&self, h: &mut Fnv1a) {
        h.write_u64(1);
        h.write_str(&self.strategy);
        h.write_u64(self.cfg.window.as_nanos());
        h.write_u64(self.cfg.deadline.as_nanos());
        h.write_u64(self.cfg.slo_budget_ppm);
        h.write_u64(self.cfg.fast_windows);
        h.write_u64(self.cfg.fast_threshold_milli);
        h.write_u64(self.cfg.slow_windows);
        h.write_u64(self.cfg.slow_threshold_milli);
        h.write_u64(self.timeline.cells().count() as u64);
        for (node, w, cell) in self.timeline.cells() {
            h.write_u64(u64::from(node));
            h.write_u64(w);
            fold_cell(cell, node, h);
        }
        h.write_u64(self.alerts.len() as u64);
        for a in &self.alerts {
            h.write_u64(a.kind.code());
            h.write_u64(a.window);
            h.write_u64(a.at.as_nanos());
            h.write_u64(a.burn_milli);
        }
        h.write_u64(self.near_misses.len() as u64);
        for nm in &self.near_misses {
            h.write_str(nm.invariant);
            h.write_u64(nm.margin.as_nanos());
            h.write_u64(nm.budget.as_nanos());
        }
        h.write_u64(self.dumps.len() as u64);
        for d in &self.dumps {
            d.fold(h);
        }
    }

    /// See [`TslSink::export_json_with_bench`] (an enabled sink).
    fn export_json_with_bench(&self, bench_json: Option<&str>) -> String {
        let cfg = self.cfg;
        let width = cfg.window.as_nanos();
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("{\"schema\":\"mitt-tsl/v1\"");
        out.push_str(&format!(",\"strategy\":\"{}\"", self.strategy));
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

        // Timelines: cluster row first, then per-node rows in node order,
        // each row's touched windows in window order.
        let nodes = self
            .timeline
            .cells()
            .filter(|&(node, _, _)| node != CLUSTER_NODE);
        let empty = Pow2Hist::new();
        let mut row = None;
        out.push_str(",\"timelines\":[");
        for (node, w, cell) in self.cluster_cells().chain(nodes) {
            if row == Some(node) {
                out.push(',');
            } else {
                if row.is_some() {
                    out.push_str("]},");
                }
                row = Some(node);
                out.push_str(&format!("{{\"node\":{node},\"windows\":["));
            }
            let s = cell.counts(node);
            let (latency, service) = hists(node, cell.hist(), &empty);
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
                latency.quantile_milli(500) / 1_000
            ));
            out.push_str(&format!(
                ",\"p95_us\":{}",
                latency.quantile_milli(950) / 1_000
            ));
            out.push_str(&format!(
                ",\"p99_us\":{}",
                latency.quantile_milli(990) / 1_000
            ));
            out.push_str(&format!(
                ",\"p999_us\":{}",
                latency.quantile_milli(999) / 1_000
            ));
            out.push_str(&format!(
                ",\"service_p99_us\":{}",
                service.quantile_milli(990) / 1_000
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
        if row.is_some() {
            out.push_str("]}");
        }
        out.push_str("],\"alerts\":[");
        for (i, a) in self.alerts.iter().enumerate() {
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
        for (i, nm) in self.near_misses.iter().enumerate() {
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
        for (i, d) in self.dumps.iter().enumerate() {
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
            core: Some(Rc::new(RefCell::new(TslCore::new(cfg, strategy)))),
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

    /// Runs `f` on the collector, if enabled.
    fn with(&self, f: impl FnOnce(&mut TslCore)) {
        if let Some(core) = &self.core {
            f(&mut core.borrow_mut());
        }
    }

    /// Records one completed cluster get: bumps the window's get count,
    /// latency histogram, and — when `latency` blows the SLO deadline —
    /// its miss count. Cluster-row only; call on the cluster-tagged handle.
    ///
    /// # Panics
    ///
    /// Panics on a node-tagged handle.
    pub fn observe_get(&self, at: SimTime, latency: Duration) {
        self.with(|core| {
            let miss = latency > core.cfg.deadline;
            let ns = latency.as_nanos();
            core.record(self.node, at, Rec::Get { ns, miss });
        });
    }

    /// Records one EBUSY reply blamed on `resource`.
    ///
    /// # Panics
    ///
    /// Panics on a node-tagged handle.
    pub fn record_ebusy(&self, at: SimTime, resource: Resource) {
        self.with(|core| core.record(self.node, at, Rec::Ebusy(resource)));
    }

    /// Records one predictor admission at this handle's node.
    ///
    /// # Panics
    ///
    /// Panics on the cluster-tagged handle, as do
    /// [`TslSink::record_reject`] and [`TslSink::record_dispatch`].
    pub fn record_admit(&self, at: SimTime) {
        self.with(|core| core.record(self.node, at, Rec::Admit));
    }

    /// Records one predictor rejection blamed on `resource` at this
    /// handle's node.
    pub fn record_reject(&self, at: SimTime, resource: Resource) {
        self.with(|core| core.record(self.node, at, Rec::Reject(resource)));
    }

    /// Records one scheduler dispatch at this handle's node.
    pub fn record_dispatch(&self, at: SimTime) {
        self.with(|core| core.record(self.node, at, Rec::Dispatch));
    }

    /// Records one device completion with its service time at this
    /// handle's node.
    ///
    /// # Panics
    ///
    /// Panics on the cluster-tagged handle.
    pub fn observe_service(&self, at: SimTime, service: Duration) {
        self.with(|core| core.record(self.node, at, Rec::Service(service.as_nanos())));
    }

    /// Records a breaker state change for `node` (state codes from
    /// `BreakerState::code()`: 0 Closed, 1 Open, 2 HalfOpen). Opens and
    /// closes are bucketed into the window containing `at` on both the
    /// node's row and the cluster row.
    pub fn record_breaker_transition(&self, node: u32, at: SimTime, to_code: u64) {
        self.with(|core| core.record_breaker_transition(node, at, to_code));
    }

    /// Records an invariant near-miss (see [`NearMiss`]); a close one
    /// ([`NearMiss::is_close`]) also arms the flight recorder.
    pub fn record_near_miss(&self, nm: NearMiss) {
        self.with(|core| {
            if nm.is_close()
                && core.dumps.len() + core.pending_triggers.len() < core.cfg.flight_capacity
            {
                core.pending_triggers.push("near_miss");
            }
            core.near_misses.push(nm);
        });
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
        self.with(|core| {
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
        });
    }

    /// Closes all windows through `run_end` and evaluates the final one.
    /// Idempotent; call once when the run drains.
    pub fn finish(&self, run_end: SimTime) {
        self.with(|core| core.finish(run_end));
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

    /// Synthesizes Chrome counter-track events (`tsl.p99_us`,
    /// `tsl.burn_milli`) at each cluster window's end, for merging into a
    /// trace export so alerts are visible next to Fault/Gray spans.
    pub fn counter_events(&self) -> Vec<TraceEvent> {
        self.core
            .as_ref()
            .map(|c| c.borrow().counter_events())
            .unwrap_or_default()
    }

    /// Folds the whole timeline state into a run digest. A disabled sink
    /// folds a `0` marker; an enabled one folds config, every window cell,
    /// alerts, near-misses, and flight-dump digests — so same-seed runs
    /// must produce bit-identical timelines.
    pub fn fold_digest(&self, h: &mut Fnv1a) {
        match &self.core {
            Some(c) => c.borrow().fold_digest(h),
            None => h.write_u64(0),
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
        match &self.core {
            Some(c) => c.borrow().export_json_with_bench(bench_json),
            None => String::from("{\"schema\":\"mitt-tsl/v1\",\"enabled\":false}"),
        }
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
    fn cells_carry_only_the_histogram_their_row_fills() {
        let s = TslSink::enabled(cfg_10ms(), "MittOS");
        let n0 = s.for_node(0);
        s.observe_get(at_ms(1), Duration::from_millis(2));
        n0.observe_service(at_ms(1), Duration::from_micros(300));
        n0.record_dispatch(at_ms(1));
        let core = s.core.as_ref().expect("enabled").borrow();
        let cells: Vec<_> = core.timeline.cells().collect();
        assert_eq!(cells.len(), 2);
        let empty = Pow2Hist::new();
        for (node, _, cell) in cells {
            let (latency, service) = hists(node, cell.hist(), &empty);
            let (filled, absent, max) = if node == CLUSTER_NODE {
                (latency, service, 2_000_000)
            } else {
                (service, latency, 300_000)
            };
            assert_eq!((filled.total(), filled.max_ns()), (1, max), "node {node}");
            assert_eq!(absent.total(), 0, "node {node}");
        }
    }

    /// The cell as it was before it was compacted: all 17 counters stored
    /// apart beside the histogram. The compact [`Cell`] must read exactly
    /// as this does.
    #[derive(Debug, Default)]
    struct WindowStats {
        gets: u64,
        misses: u64,
        ebusy: u64,
        admits: u64,
        rejects: u64,
        rejects_by_resource: [u64; 8],
        dispatches: u64,
        completes: u64,
        breaker_opens: u64,
        breaker_closes: u64,
        hist: Pow2Hist,
    }

    impl WindowCell for WindowStats {
        fn record(&mut self, rec: Rec) {
            match rec {
                Rec::Get { ns, miss } => {
                    self.gets += 1;
                    if miss {
                        self.misses += 1;
                    }
                    self.hist.observe(ns);
                }
                Rec::Service(ns) => {
                    self.completes += 1;
                    self.hist.observe(ns);
                }
                Rec::Admit => self.admits += 1,
                Rec::Reject(r) => {
                    self.rejects += 1;
                    self.rejects_by_resource[r.code() as usize] += 1;
                }
                Rec::Ebusy(r) => {
                    self.ebusy += 1;
                    self.rejects_by_resource[r.code() as usize] += 1;
                }
                Rec::Dispatch => self.dispatches += 1,
                Rec::Breaker(code) => {
                    if code == 1 {
                        self.breaker_opens += 1;
                    } else if code == 0 {
                        self.breaker_closes += 1;
                    }
                }
            }
        }

        fn counts(&self, _node: u32) -> Counts {
            Counts {
                gets: self.gets,
                misses: self.misses,
                ebusy: self.ebusy,
                admits: self.admits,
                rejects: self.rejects,
                rejects_by_resource: self.rejects_by_resource,
                dispatches: self.dispatches,
                completes: self.completes,
                breaker_opens: self.breaker_opens,
                breaker_closes: self.breaker_closes,
            }
        }

        fn hist(&self) -> &Pow2Hist {
            &self.hist
        }
    }

    /// The reference store: one map entry per touched `(node, window)`.
    #[derive(Debug, Default)]
    struct MapTimeline(std::collections::BTreeMap<(u32, u64), WindowStats>);

    impl Timeline for MapTimeline {
        type Cell = WindowStats;

        fn touch(&mut self, node: u32, w: u64) -> &mut WindowStats {
            self.0.entry((node, w)).or_default()
        }

        fn cluster(&self, w: u64) -> Option<&WindowStats> {
            self.0.get(&(CLUSTER_NODE, w))
        }

        fn cells(&self) -> impl Iterator<Item = (u32, u64, &WindowStats)> + '_ {
            self.0.iter().map(|(&(node, w), cell)| (node, w, cell))
        }
    }

    /// One step of a differential drive.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Rec(u32, Rec),
        Breaker(u32, u64),
        Tick,
    }

    fn apply<T: Timeline>(core: &mut TslCore<T>, at: SimTime, step: Step) {
        match step {
            Step::Rec(node, rec) => core.record(node, at, rec),
            Step::Breaker(node, code) => core.record_breaker_transition(node, at, code),
            Step::Tick => core.advance_to(at),
        }
    }

    #[test]
    fn a_cell_is_at_most_80_bytes() {
        assert!(
            std::mem::size_of::<Cell>() <= 80,
            "{}",
            std::mem::size_of::<Cell>()
        );
    }

    #[test]
    fn compact_cells_read_like_the_17_counter_reference() {
        let cfg = cfg_10ms();
        let width = cfg.window.as_nanos();
        let (mut zero_cells, mut gaps) = (0, 0);
        for seed in [1u64, 7, 42, 0x9e37_79b9_7f4a_7c15] {
            let mut compact = TslCore::<Rows>::new(cfg, "mittos");
            let mut reference = TslCore::<MapTimeline>::new(cfg, "mittos");
            let mut x = seed;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut t = 0u64;
            for _ in 0..4_000 {
                let r = next();
                // Mostly steps inside a window, sometimes a jump over several
                // (untouched windows between touched ones), sometimes back.
                t = match r % 16 {
                    0 => t + (r >> 8) % (6 * width),
                    1 => t.saturating_sub((r >> 8) % (2 * width)),
                    _ => t + (r >> 8) % (width / 20),
                };
                let node = ((r >> 40) % 4) as u32;
                let resource = Resource::ALL[((r >> 44) % 8) as usize];
                // Latencies straddle the 5 ms deadline.
                let ns = (r >> 20) % 12_000_000;
                let step = match (r >> 4) % 20 {
                    0..=5 => Step::Rec(
                        CLUSTER_NODE,
                        Rec::Get {
                            ns,
                            miss: ns > cfg.deadline.as_nanos(),
                        },
                    ),
                    6..=8 => Step::Rec(node, Rec::Service(ns)),
                    9 | 10 => Step::Rec(node, Rec::Admit),
                    11 | 12 => Step::Rec(node, Rec::Dispatch),
                    13 => Step::Rec(node, Rec::Reject(resource)),
                    14 => Step::Rec(CLUSTER_NODE, Rec::Ebusy(resource)),
                    // Codes 0, 1 and 2: closes, opens and HalfOpen moves.
                    15..=17 => Step::Breaker(node, (r >> 50) % 3),
                    _ => Step::Tick,
                };
                let at = SimTime::from_nanos(t);
                apply(&mut compact, at, step);
                apply(&mut reference, at, step);
            }
            let end = SimTime::from_nanos(t);
            compact.finish(end);
            reference.finish(end);

            let digest = |f: &dyn Fn(&mut Fnv1a)| {
                let mut h = Fnv1a::new();
                f(&mut h);
                h.finish()
            };
            assert_eq!(
                digest(&|h| compact.fold_digest(h)),
                digest(&|h| reference.fold_digest(h)),
                "seed {seed}: fold_digest"
            );
            assert_eq!(
                compact.export_json_with_bench(None),
                reference.export_json_with_bench(None),
                "seed {seed}: export_json"
            );
            assert_eq!(
                compact.counter_events(),
                reference.counter_events(),
                "seed {seed}: counter_events"
            );
            assert!(!compact.alerts.is_empty(), "seed {seed}: burn spans read");

            // Only a cell that saw a reject, an EBUSY or a breaker edge
            // holds a side record.
            let mut last = (u32::MAX, 0);
            for (node, w, cell) in compact.timeline.cells() {
                let c = cell.counts(node);
                let rare =
                    c.rejects_by_resource != [0; 8] || c.breaker_opens + c.breaker_closes > 0;
                assert_eq!(
                    cell.rare.is_some(),
                    rare,
                    "seed {seed}: node {node} window {w}"
                );
                if c == Counts::default() && cell.hist().total() == 0 {
                    zero_cells += 1;
                }
                if last.0 == node && w > last.1 + 1 {
                    gaps += 1;
                }
                last = (node, w);
            }
        }
        assert!(zero_cells > 0, "no touched all-zero cell was driven");
        assert!(gaps > 0, "no row skipped a window");
    }

    #[test]
    #[should_panic(expected = "gets record on the cluster row")]
    fn a_get_on_a_node_row_panics() {
        TslSink::enabled(cfg_10ms(), "test")
            .for_node(0)
            .observe_get(at_ms(1), Duration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "service times record on node rows")]
    fn a_service_time_on_the_cluster_row_panics() {
        TslSink::enabled(cfg_10ms(), "test").observe_service(at_ms(1), Duration::from_micros(1));
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
