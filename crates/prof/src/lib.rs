//! Engine-side self-profiling for the MittOS simulator (`mitt-prof`).
//!
//! `mitt-trace` and `mitt-obs` observe the *simulated* world; this crate
//! observes the *engine itself* — where wall-clock time and allocation
//! churn go while the simulator runs. It exists so the ROADMAP's "10×
//! engine speed" work has numbers to ratchet. Four instruments:
//!
//! - **Phase timers** ([`ProfSink::phase`]): scoped wall-clock guards
//!   around the engine's hot regions (event dispatch, predictor calls,
//!   scheduler work, device service, stats folding, trace emission), each
//!   feeding a `simcore::stats::Pow2Hist` latency histogram. Every
//!   activation is counted, but only a sample of them is timed (see
//!   [`SAMPLE_ONE_IN`]); timed guards read the CPU tick counter, not
//!   `Instant` (see the `clock` module).
//! - **Allocation telemetry** ([`alloc::CountingAlloc`]): a counting
//!   global allocator (opt-in via the `prof` cargo feature) attributing
//!   allocations/bytes to the phase active on the allocating thread.
//! - **Live gauges** ([`ProfSink::sample_gauges`]): event-ring occupancy,
//!   in-flight IO count, and device queue depth, sampled on a virtual-
//!   clock cadence by the cluster driver.
//! - **A throughput meter**: simulated IOs (and simulated milliseconds)
//!   per wall-clock second, the headline number for engine-speed claims.
//!
//! Two exports: a `mitt-prof/v1` JSON report ([`ProfSink::report_json`])
//! and a folded-stack text file ([`ProfSink::folded_stacks`]) consumable
//! by standard flamegraph tooling (`flamegraph.pl`, speedscope, inferno).
//!
//! **Digest-neutrality invariant.** This is the one crate in the
//! workspace that is *allowed* to read the wall clock (under reasoned
//! `mitt-lint` D001 waivers) — and in exchange, nothing it records may
//! ever flow into a run digest or back into simulation behaviour. A
//! `ProfSink` has no `fold_digest`; the cluster driver consumes no value
//! from it mid-run; enabling or disabling profiling must leave same-seed
//! digests byte-identical (tests/determinism.rs enforces this).
//!
//! Like [`TraceSink`](../mitt_trace), a sink handle is an
//! `Option<Rc<RefCell<..>>>`: a disabled sink costs one branch per call
//! and never allocates.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

// mitt-lint: allow(D001, "mitt-prof is the engine profiler: wall-clock phase timers are its whole purpose, and its data never reaches a digest")
use std::time::Instant;

use mitt_sim::{Pow2Hist, SimTime};

pub mod alloc;
mod clock;
pub mod report;

pub use alloc::{snapshot as alloc_snapshot, AllocCounters, CountingAlloc};
pub use report::ProfReport;

/// The counting allocator, installed process-wide when the `prof` cargo
/// feature is enabled. Everything the process allocates is then charged
/// to the phase active on the allocating thread.
#[cfg(feature = "prof")]
#[global_allocator]
static PROF_GLOBAL_ALLOC: CountingAlloc = CountingAlloc::new();

/// Number of labelled phases (including the catch-all [`Phase::Other`]).
pub const N_PHASES: usize = 7;

/// About one outermost guard activation in this many is timed; nested
/// guards follow their outermost guard's decision. Reading the tick clock
/// costs tens of nanoseconds, and a profiled get opens about fifteen
/// guards, so timing every one of them roughly doubled the cost of a
/// profiled run. Reported totals are scaled back up (see
/// [`PhaseStats::total_ns`]).
pub const SAMPLE_ONE_IN: u64 = 16;

/// Seed of the sampling decision's xorshift. Fixed, so which activations
/// a run times is reproducible; pseudo-random, so a periodic call pattern
/// cannot alias with the sampling period the way a plain counter would.
const SAMPLER_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

thread_local! {
    /// Whether the outermost guard open on this thread is timed. Only
    /// meaningful while some guard is open (the allocation phase is not
    /// [`Phase::Other`]); nested guards copy it.
    static OUTERMOST_TIMED: Cell<bool> = const { Cell::new(false) };
}

/// Labelled engine phases the timers and the allocator attribute to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// The cluster driver's event-dispatch loop (one guard per event).
    Dispatch = 0,
    /// Predictor admission checks (MittNoop/MittCFQ/MittSSD/MittCache).
    Predict = 1,
    /// Block-layer scheduler work (CFQ/noop enqueue, dispatch, complete).
    Sched = 2,
    /// Device model service (disk seek/transfer, SSD chip scheduling).
    Device = 3,
    /// End-of-run stats folding (latency recorders, result finalize).
    StatsFold = 4,
    /// Structured trace emission (event ring pushes, metric updates).
    TraceEmit = 5,
    /// Everything outside an explicit guard.
    Other = 6,
}

impl Phase {
    /// All phases, in report order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Dispatch,
        Phase::Predict,
        Phase::Sched,
        Phase::Device,
        Phase::StatsFold,
        Phase::TraceEmit,
        Phase::Other,
    ];

    /// The stable snake_case label used in reports and folded stacks.
    pub const fn label(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::Predict => "predict",
            Phase::Sched => "sched",
            Phase::Device => "device",
            Phase::StatsFold => "stats_fold",
            Phase::TraceEmit => "trace_emit",
            Phase::Other => "other",
        }
    }

    /// The folded-stack frame path for flamegraph tooling. Child phases
    /// nest under the guard that encloses them at runtime: predictors,
    /// schedulers, and trace emission run inside event dispatch, and the
    /// device models run inside the scheduler.
    pub const fn stack(self) -> &'static str {
        match self {
            Phase::Dispatch => "engine;dispatch",
            Phase::Predict => "engine;dispatch;predict",
            Phase::Sched => "engine;dispatch;sched",
            Phase::Device => "engine;dispatch;sched;device",
            Phase::StatsFold => "engine;stats_fold",
            Phase::TraceEmit => "engine;dispatch;trace_emit",
            Phase::Other => "engine;other",
        }
    }
}

/// One phase's accumulated wall-clock timings.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Guard activations, timed or not.
    pub count: u64,
    /// Activations whose interval was timed (see [`SAMPLE_ONE_IN`]).
    pub timed: u64,
    /// Estimated total wall nanoseconds inside the guard (children
    /// included): in a [`ProfReport`], the timed activations' sum scaled
    /// by `count / timed`.
    pub total_ns: u64,
    /// Latency histogram of the timed activations.
    pub hist: Pow2Hist,
}

impl PhaseStats {
    /// These stats with `total_ns`, the timed activations' sum, scaled up
    /// to all `count` activations.
    fn estimated(&self) -> PhaseStats {
        let total_ns = if self.timed == 0 {
            0
        } else {
            let scaled =
                u128::from(self.total_ns) * u128::from(self.count) / u128::from(self.timed);
            u64::try_from(scaled).unwrap_or(u64::MAX)
        };
        PhaseStats {
            total_ns,
            ..self.clone()
        }
    }
}

/// One virtual-clock-cadence gauge sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSample {
    /// Virtual time of the sample.
    pub at: SimTime,
    /// Entries in the event calendar.
    pub event_ring: usize,
    /// Client IOs in flight across the cluster.
    pub inflight_ios: usize,
    /// IOs inside the device stacks (scheduler queues + device queues).
    pub queue_depth: usize,
}

/// Bounded gauge ring: newest samples win, eviction is counted.
const GAUGE_CAPACITY: usize = 4096;

/// Shared recording state behind every enabled sink handle.
#[derive(Debug)]
struct ProfCore {
    /// Per-phase stats; `total_ns` here is the timed activations' sum.
    phases: [PhaseStats; N_PHASES],
    /// xorshift64 state behind the outermost guards' timing decisions.
    sampler: u64,
    gauges: Vec<GaugeSample>,
    gauges_dropped: u64,
    /// Simulated IOs submitted into any node's storage stack.
    ios_submitted: u64,
    /// Events the cluster driver dispatched.
    events_dispatched: u64,
    /// Allocation counters at sink creation, subtracted from the
    /// process-global monotonic counters to give per-run numbers.
    alloc_at_start: [AllocCounters; N_PHASES],
    // mitt-lint: allow(D001, "wall-clock anchor of the throughput meter; never digested")
    started: Instant,
    /// Wall nanoseconds from `started` to `finish()`; 0 until finished.
    wall_elapsed_ns: u64,
    /// Virtual time at `finish()`.
    sim_elapsed: SimTime,
}

/// A cheap, cloneable handle to the profiling state — or a disabled no-op.
///
/// Mirrors `TraceSink`: the simulator is single-threaded, so the shared
/// state is an `Rc<RefCell<..>>`; cloning shares the same collector, and
/// a disabled sink makes every call a single branch.
#[derive(Debug, Clone, Default)]
pub struct ProfSink {
    core: Option<Rc<RefCell<ProfCore>>>,
}

impl ProfSink {
    /// A disabled sink: every call is a no-op costing one branch.
    pub fn disabled() -> Self {
        ProfSink::default()
    }

    /// An enabled sink; the throughput meter's wall clock starts now.
    pub fn enabled() -> Self {
        ProfSink {
            core: Some(Rc::new(RefCell::new(ProfCore {
                phases: Default::default(),
                sampler: SAMPLER_SEED,
                gauges: Vec::new(),
                gauges_dropped: 0,
                ios_submitted: 0,
                events_dispatched: 0,
                alloc_at_start: alloc::snapshot(),
                // mitt-lint: allow(D001, "throughput meter start anchor; never digested")
                started: Instant::now(),
                wall_elapsed_ns: 0,
                sim_elapsed: SimTime::ZERO,
            }))),
        }
    }

    /// True if profiling data is being recorded.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Opens a scoped wall-clock timer for `phase`; the elapsed time is
    /// recorded when the guard drops. While the guard lives, allocations
    /// on this thread are attributed to `phase`. Guards nest: the inner
    /// guard's phase wins until it drops. Re-entering the phase already
    /// active on this thread returns an inert guard, so a public entry
    /// point calling another guarded entry point of the same phase never
    /// double-counts the interval.
    ///
    /// Every activation is counted, but only a sample is timed: the
    /// outermost guard (none other open on this thread) draws the
    /// decision, about one in [`SAMPLE_ONE_IN`], and the guards nested in
    /// it inherit it. A phase's first activation is always timed. An
    /// untimed guard reads no clock and touches no histogram.
    #[must_use = "the guard records on drop; binding it to _ discards the measurement"]
    #[inline]
    pub fn phase(&self, phase: Phase) -> PhaseGuard {
        match &self.core {
            Some(core) => Self::open_phase(core, phase),
            None => PhaseGuard::INERT,
        }
    }

    /// [`ProfSink::phase`] on an enabled sink, out of line so a disabled
    /// sink's check inlines into every guarded call site.
    #[inline(never)]
    fn open_phase(core: &Rc<RefCell<ProfCore>>, phase: Phase) -> PhaseGuard {
        let active = alloc::thread_phase();
        if active == phase as usize {
            return PhaseGuard::INERT;
        }
        let timed = {
            let mut c = core.borrow_mut();
            let stats = &mut c.phases[phase as usize];
            let first = stats.count == 0;
            stats.count += 1;
            if active == Phase::Other as usize {
                let timed = c.sample() || first;
                OUTERMOST_TIMED.set(timed);
                timed
            } else {
                first || OUTERMOST_TIMED.get()
            }
        };
        let prev_alloc_phase = Some(alloc::set_thread_phase(phase));
        let timer = timed.then(|| {
            clock::calibrate_once();
            Timer {
                core: Rc::clone(core),
                phase,
                start: clock::now(),
            }
        });
        PhaseGuard {
            prev_alloc_phase,
            timer,
        }
    }

    /// Counts one simulated IO submitted into a storage stack (the
    /// numerator of the throughput meter).
    pub fn io_submitted(&self) {
        if let Some(core) = &self.core {
            core.borrow_mut().ios_submitted += 1;
        }
    }

    /// Counts one dispatched simulation event.
    pub fn event_dispatched(&self) {
        if let Some(core) = &self.core {
            core.borrow_mut().events_dispatched += 1;
        }
    }

    /// Records a gauge sample (called by the driver on its virtual-clock
    /// cadence). The ring is bounded: past [`GAUGE_CAPACITY`], the oldest
    /// half is compacted away and the eviction is counted, never silent.
    pub fn sample_gauges(&self, sample: GaugeSample) {
        let Some(core) = &self.core else { return };
        let mut core = core.borrow_mut();
        if core.gauges.len() >= GAUGE_CAPACITY {
            // Keep every second sample: halves the resolution, keeps the
            // full time span (better for gauges than drop-oldest).
            let kept: Vec<GaugeSample> = core.gauges.iter().copied().step_by(2).collect();
            core.gauges_dropped += (core.gauges.len() - kept.len()) as u64;
            core.gauges = kept;
        }
        core.gauges.push(sample);
    }

    /// Stops the throughput meter: records the wall-clock span since
    /// [`ProfSink::enabled`] and the final virtual time.
    pub fn finish(&self, sim_elapsed: SimTime) {
        let Some(core) = &self.core else { return };
        let mut core = core.borrow_mut();
        let elapsed = core.started.elapsed();
        core.wall_elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        core.sim_elapsed = sim_elapsed;
    }

    /// Snapshots everything into a [`ProfReport`] (alloc counters are
    /// diffed against the sink-creation snapshot, so they are per-run).
    pub fn report(&self) -> ProfReport {
        match &self.core {
            Some(core) => ProfReport::from_core(&core.borrow()),
            None => ProfReport::empty(),
        }
    }

    /// The `mitt-prof/v1` JSON report.
    pub fn report_json(&self) -> String {
        self.report().to_json()
    }

    /// The folded-stack export (`frame;frame;frame <microseconds>` lines)
    /// for flamegraph tooling.
    pub fn folded_stacks(&self) -> String {
        self.report().folded_stacks()
    }
}

/// What a timed guard needs to record its interval on drop.
#[derive(Debug)]
struct Timer {
    core: Rc<RefCell<ProfCore>>,
    phase: Phase,
    /// Tick-clock reading at guard creation.
    start: u64,
}

/// Scoped phase timer returned by [`ProfSink::phase`]. Restores the
/// previous allocation-attribution phase when dropped and, if it is timed,
/// records its elapsed wall time into the phase's histogram.
#[derive(Debug)]
pub struct PhaseGuard {
    /// The allocation phase to restore; `None` for an inert guard.
    prev_alloc_phase: Option<usize>,
    timer: Option<Timer>,
}

impl PhaseGuard {
    /// The guard of a disabled sink or a same-phase re-entry.
    const INERT: PhaseGuard = PhaseGuard {
        prev_alloc_phase: None,
        timer: None,
    };

    /// Drops a guard that is not inert, out of line so an inert guard's
    /// check inlines: restores allocation phase `prev` and records the
    /// timed interval.
    #[inline(never)]
    fn close(&mut self, prev: usize) {
        let Some(t) = self.timer.take() else {
            alloc::restore_thread_phase(prev);
            return;
        };
        let ns = clock::to_ns(clock::now().saturating_sub(t.start));
        alloc::restore_thread_phase(prev);
        // Guards never outlive the single-threaded driver's call frame,
        // so this borrow cannot collide with an outer borrow.
        let mut core = t.core.borrow_mut();
        let stats = &mut core.phases[t.phase as usize];
        stats.timed += 1;
        stats.total_ns = stats.total_ns.saturating_add(ns);
        stats.hist.observe(ns);
    }
}

impl Drop for PhaseGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(prev) = self.prev_alloc_phase {
            self.close(prev);
        }
    }
}

impl ProfCore {
    /// Draws one outermost guard's timing decision: true about once in
    /// [`SAMPLE_ONE_IN`] draws.
    fn sample(&mut self) -> bool {
        let mut x = self.sampler;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler = x;
        x.is_multiple_of(SAMPLE_ONE_IN)
    }

    /// Per-phase stats as reported: totals scaled to every activation.
    fn estimated_phases(&self) -> Vec<PhaseStats> {
        self.phases.iter().map(PhaseStats::estimated).collect()
    }

    /// Per-run allocation counters: global monotonic minus at-start.
    fn alloc_delta(&self) -> [AllocCounters; N_PHASES] {
        let now = alloc::snapshot();
        let mut out = [AllocCounters::default(); N_PHASES];
        for i in 0..N_PHASES {
            out[i] = AllocCounters {
                allocs: now[i].allocs.saturating_sub(self.alloc_at_start[i].allocs),
                bytes: now[i].bytes.saturating_sub(self.alloc_at_start[i].bytes),
                frees: now[i].frees.saturating_sub(self.alloc_at_start[i].frees),
                freed_bytes: now[i]
                    .freed_bytes
                    .saturating_sub(self.alloc_at_start[i].freed_bytes),
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = ProfSink::disabled();
        assert!(!sink.is_enabled());
        {
            let _g = sink.phase(Phase::Dispatch);
            sink.io_submitted();
            sink.event_dispatched();
        }
        sink.finish(SimTime::from_nanos(5));
        let r = sink.report();
        assert_eq!(r.ios_submitted, 0);
        assert!(r.phases.iter().all(|p| p.count == 0));
    }

    #[test]
    fn same_phase_reentry_counts_once() {
        let sink = ProfSink::enabled();
        {
            let _outer = sink.phase(Phase::Predict);
            // A guarded entry point calling another guarded entry point of
            // the same phase: only the outer guard records.
            let _inner = sink.phase(Phase::Predict);
        }
        let r = sink.report();
        assert_eq!(r.phases[Phase::Predict as usize].count, 1);
    }

    #[test]
    fn guards_record_phase_timings() {
        let sink = ProfSink::enabled();
        for _ in 0..5 {
            let _g = sink.phase(Phase::Dispatch);
            // A nested predictor call: its time lands in Predict too.
            let _p = sink.phase(Phase::Predict);
        }
        let r = sink.report();
        let dispatch = &r.phases[Phase::Dispatch as usize];
        let predict = &r.phases[Phase::Predict as usize];
        assert_eq!(dispatch.count, 5);
        assert_eq!(predict.count, 5);
        assert_eq!(dispatch.hist.total(), dispatch.timed);
        assert!(dispatch.total_ns >= predict.total_ns || dispatch.total_ns > 0);
    }

    /// Spins for `us` microseconds, returning the Instant-measured span.
    fn spin_us(us: u128) -> u128 {
        // mitt-lint: allow(D001, "the reference clock sampled estimates are checked against")
        let start = std::time::Instant::now();
        while start.elapsed().as_micros() < us {}
        start.elapsed().as_nanos()
    }

    #[test]
    fn counts_stay_exact_under_sampling() {
        let sink = ProfSink::enabled();
        for _ in 0..1_000 {
            let _d = sink.phase(Phase::Dispatch);
            let _p = sink.phase(Phase::Predict);
            let _s = sink.phase(Phase::Sched);
        }
        let r = sink.report();
        for phase in [Phase::Dispatch, Phase::Predict, Phase::Sched] {
            let stats = &r.phases[phase as usize];
            assert_eq!(stats.count, 1_000, "{phase:?}");
            assert_eq!(stats.hist.total(), stats.timed, "{phase:?}");
            // About one in SAMPLE_ONE_IN, far from none and from all.
            assert!(
                (20..=150).contains(&stats.timed),
                "{phase:?}: {}",
                stats.timed
            );
        }
        assert_eq!(r.phases[Phase::Device as usize].count, 0);
    }

    #[test]
    fn nested_guards_inherit_the_outermost_decision() {
        let sink = ProfSink::enabled();
        let (mut timed, mut untimed) = (0, 0);
        let mut device_seen = false;
        for i in 0..400 {
            let d = sink.phase(Phase::Dispatch);
            let s = sink.phase(Phase::Sched);
            if i == 0 {
                assert!(
                    d.timer.is_some() && s.timer.is_some(),
                    "first activations are timed"
                );
            } else {
                assert_eq!(s.timer.is_some(), d.timer.is_some(), "activation {i}");
            }
            // Device's first activation is nested in an untimed dispatch,
            // and is timed all the same.
            if device_seen || d.timer.is_none() {
                let v = sink.phase(Phase::Device);
                let want = !device_seen || d.timer.is_some();
                assert_eq!(v.timer.is_some(), want, "activation {i}");
                device_seen = true;
            }
            if d.timer.is_some() {
                timed += 1;
            } else {
                untimed += 1;
            }
        }
        assert!(
            device_seen && timed > 1 && untimed > 0,
            "{timed} timed, {untimed} untimed"
        );
    }

    #[test]
    fn sampled_total_tracks_instant_on_an_alternating_pattern() {
        // Alternating short and long activations: a sampler with period
        // SAMPLE_ONE_IN (even) would only ever time one of the two kinds
        // and be off by half; the pseudo-random draw sees both. A spin
        // that overran its span by 100 µs was descheduled, which skews
        // the estimate 16-fold if that activation was timed and not at all
        // if it was not, so such an attempt is retaken (the draws repeat:
        // every attempt gets a fresh sink).
        const ATTEMPTS: usize = 10;
        for attempt in 1..=ATTEMPTS {
            let sink = ProfSink::enabled();
            let (mut spun, mut overran) = (0u128, false);
            for i in 0..960 {
                let _g = sink.phase(Phase::Device);
                let us = if i % 2 == 0 { 20 } else { 60 };
                let ns = spin_us(us);
                overran |= ns > us * 1_000 + 100_000;
                spun += ns;
            }
            if overran && attempt < ATTEMPTS {
                continue;
            }
            let device = &sink.report().phases[Phase::Device as usize];
            assert_eq!(device.count, 960);
            assert!(device.timed < device.count);
            let estimated = device.total_ns as f64;
            let err = (estimated - spun as f64).abs() / spun as f64;
            assert!(err <= 0.15, "estimated {estimated} ns vs Instant {spun} ns");
            return;
        }
    }

    #[test]
    fn tick_clock_agrees_with_instant_over_a_spin() {
        let sink = ProfSink::enabled();
        let spun = {
            let _g = sink.phase(Phase::Device);
            spin_us(2_500) as f64
        };
        let recorded = sink.report().phases[Phase::Device as usize].total_ns as f64;
        let err = (recorded - spun).abs() / spun;
        assert!(err <= 0.10, "guard {recorded} ns vs Instant {spun} ns");
    }

    #[test]
    fn nested_guards_restore_alloc_phase() {
        let sink = ProfSink::enabled();
        let outside = alloc::thread_phase();
        {
            let _d = sink.phase(Phase::Dispatch);
            assert_eq!(alloc::thread_phase(), Phase::Dispatch as usize);
            {
                let _p = sink.phase(Phase::Predict);
                assert_eq!(alloc::thread_phase(), Phase::Predict as usize);
            }
            assert_eq!(alloc::thread_phase(), Phase::Dispatch as usize);
        }
        assert_eq!(alloc::thread_phase(), outside);
    }

    #[test]
    fn throughput_meter_counts_ios_and_events() {
        let sink = ProfSink::enabled();
        for _ in 0..10 {
            sink.io_submitted();
        }
        for _ in 0..20 {
            sink.event_dispatched();
        }
        sink.finish(SimTime::from_nanos(1_000_000_000));
        let r = sink.report();
        assert_eq!(r.ios_submitted, 10);
        assert_eq!(r.events_dispatched, 20);
        assert_eq!(r.sim_elapsed_ns, 1_000_000_000);
        assert!(r.wall_elapsed_ns > 0, "finish() stamps a wall span");
        assert!(r.sim_ios_per_wall_sec() > 0.0);
    }

    #[test]
    fn gauge_ring_is_bounded_and_compaction_is_counted() {
        let sink = ProfSink::enabled();
        for i in 0..(GAUGE_CAPACITY * 2 + 10) {
            sink.sample_gauges(GaugeSample {
                at: SimTime::from_nanos(i as u64),
                event_ring: i,
                inflight_ios: 1,
                queue_depth: 2,
            });
        }
        let r = sink.report();
        assert!(r.gauges.len() <= GAUGE_CAPACITY + 1);
        assert!(r.gauges_dropped > 0, "eviction is visible, not silent");
        // The surviving samples still span the whole run.
        let first = r.gauges.first().expect("non-empty").at;
        let last = r.gauges.last().expect("non-empty").at;
        assert!(last > first);
    }

    #[test]
    fn clones_share_one_collector() {
        let sink = ProfSink::enabled();
        let other = sink.clone();
        other.io_submitted();
        sink.io_submitted();
        assert_eq!(sink.report().ios_submitted, 2);
    }
}
