//! Deterministic fault injection for the MittOS simulator.
//!
//! The paper's value proposition is behavior *under adversity*: MittOS wins
//! precisely when disks fail slow, queues spike, and replicas go dark. This
//! crate is the scenario generator for that adversity — a [`FaultPlan`] of
//! virtual-clock-scheduled fault events (node crashes, fail-slow disks, SSD
//! stalls, scheduler degradation, page-cache thrash, network spikes and
//! drops, predictor miscalibration), realized at run time through a
//! [`FaultClock`] handle that reaches the device, scheduler, admission and
//! cluster layers inside each node's [`NodeCtx`], next to the trace and
//! profiling handles.
//!
//! Three properties are load-bearing:
//!
//! - **Deterministic.** A plan is data (no closures), activation windows are
//!   pure functions of the virtual clock, and the only randomness (message
//!   drops, prediction jitter) flows from a forked [`SimRng`] — so a faulted
//!   run digests byte-for-byte identically across repeats.
//! - **Cheap when off.** Like `TraceSink`, a disabled clock is an `Option`
//!   that is `None`: every query is one branch, no allocation.
//! - **Liveness-preserving.** No fault can wedge the event loop: scheduler
//!   degradation never caps in-flight IOs below one, crashes produce
//!   explicit (delayed) error replies rather than silence, and every
//!   activation has a bounded window.
//!
//! The crate also hosts the client-side resilience policies the paper only
//! sketches: a per-replica [`CircuitBreaker`] (open after K consecutive
//! EBUSY/crash responses, half-open probe after a cooldown) and a bounded
//! exponential [`BackoffConfig`] for EBUSY storms.

use std::cell::RefCell;
use std::rc::Rc;

use mitt_sim::digest::Fnv1a;
use mitt_sim::{Duration, SimRng, SimTime};

pub mod breaker;
mod ctx;
pub mod invariants;
pub mod plangen;

pub use breaker::{
    Admission, BackoffConfig, BreakerConfig, BreakerState, BreakerTransition, CircuitBreaker,
    ResilienceConfig, TransitionCause,
};
pub use ctx::NodeCtx;
pub use invariants::{check as check_invariants, InvariantInput, InvariantReport};
pub use plangen::{FaultPlanGen, PlanGenConfig, ScopeCatalog};

/// Which nodes a fault window covers.
///
/// The original plans were node- or cluster-scoped; correlated failures
/// (a top-of-rack switch dying, a zone-wide power sag) open *one* window
/// that covers a whole topology group at once. The group carries its
/// member list so this crate never needs to know the cluster layout —
/// `mitt_cluster::Topology` (or any other placement model) resolves
/// racks/zones to member sets when the plan is built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultScope {
    /// Every node.
    Cluster,
    /// A single node.
    Node(u32),
    /// A correlated group: one window, many nodes at once.
    Group {
        /// Which topology level the group models.
        label: ScopeLabel,
        /// Member node ids, as resolved by the topology at plan-build time.
        members: Vec<u32>,
    },
}

/// The topology level a correlated [`FaultScope::Group`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeLabel {
    /// All nodes sharing a top-of-rack switch.
    Rack(u32),
    /// All racks sharing a failure domain (power/cooling).
    Zone(u32),
}

impl FaultScope {
    /// True if the scope covers `node`.
    pub fn applies_to(&self, node: u32) -> bool {
        match self {
            FaultScope::Cluster => true,
            FaultScope::Node(n) => *n == node,
            FaultScope::Group { members, .. } => members.contains(&node),
        }
    }

    /// True for rack/zone group scopes (the correlated failure modes).
    pub fn is_correlated(&self) -> bool {
        matches!(self, FaultScope::Group { .. })
    }

    /// The member node indices within a cluster of `cluster` nodes, in
    /// ascending order (drivers iterate this to apply per-node actions
    /// like crash sweeps).
    pub fn node_indices(&self, cluster: usize) -> Vec<usize> {
        match self {
            FaultScope::Cluster => (0..cluster).collect(),
            FaultScope::Node(n) => {
                let n = *n as usize;
                if n < cluster {
                    vec![n]
                } else {
                    Vec::new()
                }
            }
            FaultScope::Group { members, .. } => {
                let mut out: Vec<usize> = members
                    .iter()
                    .map(|&m| m as usize)
                    .filter(|&m| m < cluster)
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    /// Short label used in reports ("cluster", "node", "rack", "zone").
    pub fn name(&self) -> &'static str {
        match self {
            FaultScope::Cluster => "cluster",
            FaultScope::Node(_) => "node",
            FaultScope::Group {
                label: ScopeLabel::Rack(_),
                ..
            } => "rack",
            FaultScope::Group {
                label: ScopeLabel::Zone(_),
                ..
            } => "zone",
        }
    }

    /// Folds the scope into a run/plan digest.
    pub fn fold_digest(&self, h: &mut Fnv1a) {
        match self {
            FaultScope::Cluster => h.write_u64(0),
            FaultScope::Node(n) => {
                h.write_u64(1);
                h.write_u64(u64::from(*n));
            }
            FaultScope::Group { label, members } => {
                match label {
                    ScopeLabel::Rack(r) => {
                        h.write_u64(2);
                        h.write_u64(u64::from(*r));
                    }
                    ScopeLabel::Zone(z) => {
                        h.write_u64(3);
                        h.write_u64(u64::from(*z));
                    }
                }
                h.write_u64(members.len() as u64);
                for m in members {
                    h.write_u64(u64::from(*m));
                }
            }
        }
    }
}

impl From<usize> for FaultScope {
    fn from(node: usize) -> Self {
        FaultScope::Node(node as u32)
    }
}

impl From<Option<usize>> for FaultScope {
    fn from(node: Option<usize>) -> Self {
        match node {
            Some(n) => FaultScope::Node(n as u32),
            None => FaultScope::Cluster,
        }
    }
}

/// What a fault event does while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node's storage-service process crashes: in-flight requests are
    /// lost and new requests fail until the window ends (restart).
    NodeCrash,
    /// Fail-slow disk: device service times are scaled by `multiplier`,
    /// ramping linearly from 1.0 over the first `ramp` of the window (the
    /// gradual degradation mode of real fail-slow hardware).
    FailSlowDisk {
        /// Peak service-time multiplier (>= 1.0).
        multiplier: f64,
        /// Time to ramp from 1.0 to the peak; `ZERO` = step function.
        ramp: Duration,
    },
    /// SSD channel/chip stall: every flash sub-IO takes `extra` longer
    /// (models retention-error retries or a stuck channel arbiter).
    SsdStall {
        /// Added per-sub-IO latency.
        extra: Duration,
    },
    /// Block-scheduler degradation: the dispatch loop feeds the device at
    /// most `max_inflight` IOs at a time (clamped to >= 1 for liveness).
    SchedDegrade {
        /// In-device IO cap while active.
        max_inflight: usize,
    },
    /// Page-cache thrash: every `period`, `evict_pct`% of resident pages
    /// are force-evicted (a neighbor's eviction storm).
    CacheThrash {
        /// Percent of resident pages evicted per storm tick.
        evict_pct: u32,
        /// Interval between storm ticks.
        period: Duration,
    },
    /// Network hop-latency spike: every message to/from the node takes
    /// `extra` longer.
    NetDelay {
        /// Added one-way latency.
        extra: Duration,
    },
    /// Network message drops: each message is lost with probability `prob`
    /// (the sim turns a drop into a bounded retransmit delay, not silence).
    NetDrop {
        /// Per-message drop probability in [0, 1].
        prob: f64,
    },
    /// Predictor miscalibration: every `T_wait` estimate is scaled by
    /// `scale` and perturbed by uniform jitter in `[0, jitter)` — bias and
    /// variance injection into the SLO decision.
    PredictorBias {
        /// Multiplicative bias on predicted waits (1.0 = none).
        scale: f64,
        /// Uniform additive jitter bound per estimate.
        jitter: Duration,
    },
    /// Gray failure: intermittent fail-slow that flaps on a fixed period.
    /// Within the window, disk service times are scaled by `multiplier`
    /// for the first `on_pct`% of every `period`, then healthy for the
    /// rest — a pure phase function of the virtual clock (no RNG). A
    /// period shorter than the circuit-breaker cooldown makes the replica
    /// look healthy to every half-open probe that lands in an off-phase.
    GrayFlap {
        /// Flap period (on-phase + off-phase).
        period: Duration,
        /// Percent of each period spent degraded (clamped to 1..=100).
        on_pct: u32,
        /// Service-time multiplier during the on-phase (>= 1.0).
        multiplier: f64,
    },
    /// Gray failure: partial degradation — each IO is independently slow
    /// with probability `fraction` (a dying platter region, one bad flash
    /// die). Sampling consumes the fault RNG only while the window is
    /// active, per the stream discipline.
    PartialDegrade {
        /// Fraction of IOs affected, in [0, 1].
        fraction: f64,
        /// Service-time multiplier for the affected IOs (>= 1.0).
        multiplier: f64,
    },
    /// Gray failure: asymmetric visibility — the device *completes* IOs
    /// `multiplier`x slower but *reports* the healthy service time to the
    /// predictor's calibration feedback, so `T_wait` estimates stay
    /// optimistic while real latencies balloon (firmware that lies to
    /// SMART, a kernel path that hides retries).
    AsymmetricSlow {
        /// Hidden service-time multiplier (>= 1.0).
        multiplier: f64,
    },
}

impl FaultKind {
    /// Short label used in trace events and reports.
    pub const fn name(self) -> &'static str {
        match self {
            FaultKind::NodeCrash => "node_crash",
            FaultKind::FailSlowDisk { .. } => "fail_slow_disk",
            FaultKind::SsdStall { .. } => "ssd_stall",
            FaultKind::SchedDegrade { .. } => "sched_degrade",
            FaultKind::CacheThrash { .. } => "cache_thrash",
            FaultKind::NetDelay { .. } => "net_delay",
            FaultKind::NetDrop { .. } => "net_drop",
            FaultKind::PredictorBias { .. } => "predictor_bias",
            FaultKind::GrayFlap { .. } => "gray_flap",
            FaultKind::PartialDegrade { .. } => "partial_degrade",
            FaultKind::AsymmetricSlow { .. } => "asym_slow",
        }
    }

    /// True for the gray-failure kinds (flap, partial, asymmetric): the
    /// modes that degrade without tripping clean failure detection.
    pub const fn is_gray(self) -> bool {
        matches!(
            self,
            FaultKind::GrayFlap { .. }
                | FaultKind::PartialDegrade { .. }
                | FaultKind::AsymmetricSlow { .. }
        )
    }

    /// Folds the kind (tag + parameters) into a plan digest. Float
    /// parameters fold as IEEE-754 bit patterns, so digests are exact.
    pub fn fold_digest(self, h: &mut Fnv1a) {
        h.write_str(self.name());
        match self {
            FaultKind::NodeCrash => {}
            FaultKind::FailSlowDisk { multiplier, ramp } => {
                h.write_u64(multiplier.to_bits());
                h.write_u64(ramp.as_nanos());
            }
            FaultKind::SsdStall { extra } => h.write_u64(extra.as_nanos()),
            FaultKind::SchedDegrade { max_inflight } => h.write_u64(max_inflight as u64),
            FaultKind::CacheThrash { evict_pct, period } => {
                h.write_u64(u64::from(evict_pct));
                h.write_u64(period.as_nanos());
            }
            FaultKind::NetDelay { extra } => h.write_u64(extra.as_nanos()),
            FaultKind::NetDrop { prob } => h.write_u64(prob.to_bits()),
            FaultKind::PredictorBias { scale, jitter } => {
                h.write_u64(scale.to_bits());
                h.write_u64(jitter.as_nanos());
            }
            FaultKind::GrayFlap {
                period,
                on_pct,
                multiplier,
            } => {
                h.write_u64(period.as_nanos());
                h.write_u64(u64::from(on_pct));
                h.write_u64(multiplier.to_bits());
            }
            FaultKind::PartialDegrade {
                fraction,
                multiplier,
            } => {
                h.write_u64(fraction.to_bits());
                h.write_u64(multiplier.to_bits());
            }
            FaultKind::AsymmetricSlow { multiplier } => h.write_u64(multiplier.to_bits()),
        }
    }
}

/// One scheduled fault: a kind, a scope, and an activation window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Which nodes the fault covers (single node, correlated rack/zone
    /// group, or the whole cluster).
    pub scope: FaultScope,
    /// Virtual time the fault activates.
    pub at: SimTime,
    /// How long it stays active.
    pub duration: Duration,
    /// What it does.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Virtual time the fault deactivates.
    pub fn until(&self) -> SimTime {
        self.at + self.duration
    }

    /// True while the fault is active at `now` (half-open window).
    pub fn active_at(&self, now: SimTime) -> bool {
        self.at <= now && now < self.until()
    }

    /// True if the fault applies to `node`.
    pub fn applies_to(&self, node: u32) -> bool {
        self.scope.applies_to(node)
    }

    /// Folds the event into a plan digest.
    pub fn fold_digest(&self, h: &mut Fnv1a) {
        self.scope.fold_digest(h);
        h.write_u64(self.at.as_nanos());
        h.write_u64(self.duration.as_nanos());
        self.kind.fold_digest(h);
    }
}

/// A seed-deterministic schedule of fault events over the virtual clock.
///
/// Built with the fluent helpers; the cluster driver walks `events` at
/// setup to schedule activation/deactivation and hands the plan to a
/// [`FaultClock`] for continuous queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults, in insertion order (activation order is decided
    /// by `at`, ties by index).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds an arbitrary fault event.
    pub fn push(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Crashes `node`'s storage service for `duration` starting at `at`.
    pub fn crash(self, node: usize, at: SimTime, duration: Duration) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::NodeCrash,
        })
    }

    /// Fail-slow disk on `node`: service times ramp to `multiplier`x over
    /// `ramp`, staying there until the window ends.
    pub fn fail_slow(
        self,
        node: usize,
        at: SimTime,
        duration: Duration,
        multiplier: f64,
        ramp: Duration,
    ) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::FailSlowDisk { multiplier, ramp },
        })
    }

    /// SSD stall on `node`: each flash sub-IO takes `extra` longer.
    pub fn ssd_stall(self, node: usize, at: SimTime, duration: Duration, extra: Duration) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::SsdStall { extra },
        })
    }

    /// Scheduler degradation on `node`: at most `max_inflight` IOs in the
    /// device while active.
    pub fn sched_degrade(
        self,
        node: usize,
        at: SimTime,
        duration: Duration,
        max_inflight: usize,
    ) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::SchedDegrade { max_inflight },
        })
    }

    /// Page-cache eviction storms on `node`.
    pub fn cache_thrash(
        self,
        node: usize,
        at: SimTime,
        duration: Duration,
        evict_pct: u32,
        period: Duration,
    ) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::CacheThrash { evict_pct, period },
        })
    }

    /// Network latency spike; `node: None` hits every hop.
    pub fn net_delay(
        self,
        node: Option<usize>,
        at: SimTime,
        duration: Duration,
        extra: Duration,
    ) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::NetDelay { extra },
        })
    }

    /// Network message drops; `node: None` hits every hop.
    pub fn net_drop(self, node: Option<usize>, at: SimTime, duration: Duration, prob: f64) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::NetDrop { prob },
        })
    }

    /// Predictor miscalibration on `node` (`None` = all predictors).
    pub fn predictor_bias(
        self,
        node: Option<usize>,
        at: SimTime,
        duration: Duration,
        scale: f64,
        jitter: Duration,
    ) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::PredictorBias { scale, jitter },
        })
    }

    /// Any fault kind under an explicit scope — the correlated-failure
    /// entry point: pass a rack/zone [`FaultScope::Group`] (from
    /// `Topology::rack_scope` / `zone_scope`) to open one window across
    /// every member at once.
    pub fn scoped(
        self,
        scope: FaultScope,
        at: SimTime,
        duration: Duration,
        kind: FaultKind,
    ) -> Self {
        self.push(FaultEvent {
            scope,
            at,
            duration,
            kind,
        })
    }

    /// Gray flapping fail-slow on `node` (see [`FaultKind::GrayFlap`]).
    pub fn gray_flap(
        self,
        node: usize,
        at: SimTime,
        duration: Duration,
        period: Duration,
        on_pct: u32,
        multiplier: f64,
    ) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::GrayFlap {
                period,
                on_pct,
                multiplier,
            },
        })
    }

    /// Gray partial degradation on `node` (see
    /// [`FaultKind::PartialDegrade`]).
    pub fn partial_degrade(
        self,
        node: usize,
        at: SimTime,
        duration: Duration,
        fraction: f64,
        multiplier: f64,
    ) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::PartialDegrade {
                fraction,
                multiplier,
            },
        })
    }

    /// Gray asymmetric slowness on `node` (see
    /// [`FaultKind::AsymmetricSlow`]).
    pub fn asym_slow(self, node: usize, at: SimTime, duration: Duration, multiplier: f64) -> Self {
        self.push(FaultEvent {
            scope: node.into(),
            at,
            duration,
            kind: FaultKind::AsymmetricSlow { multiplier },
        })
    }

    /// Number of correlated (rack/zone group) events in the plan.
    pub fn correlated_events(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.scope.is_correlated())
            .count()
    }

    /// Number of gray-failure events in the plan.
    pub fn gray_events(&self) -> usize {
        self.events.iter().filter(|e| e.kind.is_gray()).count()
    }

    /// Folds every event (scope, window, kind, parameters) into `h`, in
    /// plan order. Two plans digest equal iff they are byte-identical.
    pub fn fold_digest(&self, h: &mut Fnv1a) {
        h.write_u64(self.events.len() as u64);
        for ev in &self.events {
            ev.fold_digest(h);
        }
    }

    /// The plan's standalone FNV-1a digest (for same-seed stability
    /// checks and bench-report provenance).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.fold_digest(&mut h);
        h.finish()
    }

    /// The longest contiguous interval during which at least one node is
    /// inside a `NodeCrash` window — the worst-case outage a correlated
    /// crash can impose before failover/error paths even start. Feeds the
    /// unavailability budget in [`crate::invariants`].
    pub fn crash_envelope(&self) -> Duration {
        let mut windows: Vec<(SimTime, SimTime)> = self
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NodeCrash))
            .map(|e| (e.at, e.until()))
            .collect();
        if windows.is_empty() {
            return Duration::ZERO;
        }
        windows.sort_by_key(|&(start, end)| (start, end));
        let (mut cur_start, mut cur_end) = windows[0];
        let mut longest = Duration::ZERO;
        for &(start, end) in &windows[1..] {
            if start <= cur_end {
                cur_end = cur_end.max(end);
            } else {
                longest = longest.max(cur_end.saturating_since(cur_start));
                (cur_start, cur_end) = (start, end);
            }
        }
        longest.max(cur_end.saturating_since(cur_start))
    }

    /// The merged union of *every* fault window as sorted, disjoint
    /// `(start, end)` intervals. The unavailability invariant excuses
    /// completion gaps while any window is open (stacked slow windows may
    /// legitimately stall service); only the uncovered remainder counts
    /// against the failover budget.
    pub fn coverage(&self) -> Vec<(SimTime, SimTime)> {
        let mut windows: Vec<(SimTime, SimTime)> =
            self.events.iter().map(|e| (e.at, e.until())).collect();
        windows.sort_by_key(|&(start, end)| (start, end));
        let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
        for (start, end) in windows {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        merged
    }
}

/// True when `now` falls in the degraded on-phase of a flap window that
/// opened at `start`: the first `on_pct`% of every `period`.
fn flap_on(start: SimTime, now: SimTime, period: Duration, on_pct: u32) -> bool {
    if period.is_zero() {
        return true;
    }
    let on_pct = u64::from(on_pct.clamp(1, 100));
    let phase = now.saturating_since(start).as_nanos() % period.as_nanos();
    phase * 100 < period.as_nanos() * on_pct
}

/// Shared state behind every enabled clock handle.
#[derive(Debug)]
struct FaultCore {
    events: Vec<FaultEvent>,
    /// Entropy for drop sampling, prediction jitter and partial-degrade
    /// coins, forked from the experiment's root RNG so faulted runs stay
    /// seed-deterministic.
    rng: SimRng,
    /// Fault activations so far (bumped by the driver at each start).
    injected: u64,
    /// Messages dropped by `NetDrop` sampling.
    dropped_messages: u64,
    /// Predictions distorted by `PredictorBias`.
    distorted_predictions: u64,
    /// IOs slowed by a `PartialDegrade` coin.
    degraded_ios: u64,
}

/// A cheap, cloneable handle to a fault plan — or a disabled no-op.
///
/// Mirrors `TraceSink`: the simulator is single-threaded, so shared state
/// is `Rc<RefCell<..>>`; a handle is tagged with the node it answers for
/// ([`FaultClock::for_node`]). Query methods take the virtual `now` and are
/// `&self` (interior mutability covers the RNG), so predictors can consult
/// the clock from their existing `&self` estimation paths.
#[derive(Debug, Clone, Default)]
pub struct FaultClock {
    core: Option<Rc<RefCell<FaultCore>>>,
    node: u32,
}

impl FaultClock {
    /// A disabled clock: every query is a no-op costing one branch.
    pub fn disabled() -> Self {
        FaultClock::default()
    }

    /// An enabled clock serving `plan`, with `rng` feeding drop sampling
    /// and prediction jitter.
    pub fn new(plan: FaultPlan, rng: SimRng) -> Self {
        FaultClock {
            core: Some(Rc::new(RefCell::new(FaultCore {
                events: plan.events,
                rng,
                injected: 0,
                dropped_messages: 0,
                distorted_predictions: 0,
                degraded_ios: 0,
            }))),
            node: 0,
        }
    }

    /// True if a plan is attached.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// A handle to the same plan, answering for `node`.
    pub fn for_node(&self, node: u32) -> Self {
        FaultClock {
            core: self.core.clone(),
            node,
        }
    }

    /// The node tag of this handle.
    pub fn node(&self) -> u32 {
        self.node
    }

    fn fold_active<T>(&self, now: SimTime, init: T, mut f: impl FnMut(T, &FaultEvent) -> T) -> T {
        let Some(core) = &self.core else { return init };
        let core = core.borrow();
        let mut acc = init;
        for ev in &core.events {
            if ev.active_at(now) && ev.applies_to(self.node) {
                acc = f(acc, ev);
            }
        }
        acc
    }

    /// Service-time multiplier for this node's disk at `now` (1.0 when
    /// healthy). Concurrent fail-slow windows multiply together; within a
    /// window the multiplier ramps linearly from 1.0 over `ramp`. A
    /// [`FaultKind::GrayFlap`] window contributes its multiplier only
    /// during the on-phase of its period — a pure phase function of the
    /// virtual clock, so flapping consumes no RNG.
    pub fn disk_service_multiplier(&self, now: SimTime) -> f64 {
        self.fold_active(now, 1.0, |acc, ev| match ev.kind {
            FaultKind::FailSlowDisk { multiplier, ramp } => {
                let progress = if ramp.is_zero() {
                    1.0
                } else {
                    (now.saturating_since(ev.at).as_nanos() as f64 / ramp.as_nanos() as f64)
                        .min(1.0)
                };
                acc * (1.0 + (multiplier - 1.0) * progress)
            }
            FaultKind::GrayFlap {
                period,
                on_pct,
                multiplier,
            } => {
                if flap_on(ev.at, now, period, on_pct) {
                    acc * multiplier
                } else {
                    acc
                }
            }
            _ => acc,
        })
    }

    /// Samples the [`FaultKind::PartialDegrade`] multiplier for one IO
    /// issued at `now`: the product of every active window's multiplier
    /// whose per-IO coin lands on "affected" (1.0 otherwise). Consumes
    /// RNG only while at least one window is active, so degrade-free runs
    /// keep their exact RNG streams; affected draws bump the shared
    /// `degraded_ios` counter.
    pub fn degrade_draw(&self, now: SimTime) -> f64 {
        let Some(core) = &self.core else { return 1.0 };
        let mut core = core.borrow_mut();
        let mut mult = 1.0f64;
        let mut hit = false;
        for i in 0..core.events.len() {
            let ev = &core.events[i];
            let applies = ev.active_at(now) && ev.applies_to(self.node);
            let kind = ev.kind;
            if let FaultKind::PartialDegrade {
                fraction,
                multiplier,
            } = kind
            {
                if applies && core.rng.chance(fraction) {
                    mult *= multiplier;
                    hit = true;
                }
            }
        }
        if hit {
            core.degraded_ios += 1;
        }
        mult
    }

    /// The [`FaultKind::AsymmetricSlow`] multiplier at `now`: scales how
    /// long the device *actually* takes, while the service time it
    /// *reports* (trace events, predictor calibration feedback) stays at
    /// the healthy value. Pure; 1.0 when no window is active.
    pub fn hidden_service_multiplier(&self, now: SimTime) -> f64 {
        self.fold_active(now, 1.0, |acc, ev| {
            if let FaultKind::AsymmetricSlow { multiplier } = ev.kind {
                acc * multiplier
            } else {
                acc
            }
        })
    }

    /// True while any gray-failure window (flap, partial, asymmetric)
    /// covers this node at `now` — regardless of flap phase, since the
    /// queue backlog a flap builds persists into its off-phases. Pure;
    /// used for SLO attribution.
    pub fn gray_active(&self, now: SimTime) -> bool {
        self.fold_active(now, false, |acc, ev| acc || ev.kind.is_gray())
    }

    /// True while any correlated (rack/zone group) window covers this
    /// node at `now`. Pure; used for SLO attribution.
    pub fn correlated_active(&self, now: SimTime) -> bool {
        self.fold_active(now, false, |acc, ev| acc || ev.scope.is_correlated())
    }

    /// Extra latency added to each flash sub-IO on this node at `now`.
    pub fn ssd_stall(&self, now: SimTime) -> Duration {
        self.fold_active(now, Duration::ZERO, |acc, ev| {
            if let FaultKind::SsdStall { extra } = ev.kind {
                acc + extra
            } else {
                acc
            }
        })
    }

    /// In-device IO cap for this node's scheduler at `now`; `None` when
    /// undegraded. Clamped to >= 1 so dispatch always makes progress.
    pub fn sched_max_inflight(&self, now: SimTime) -> Option<usize> {
        self.fold_active(now, None, |acc: Option<usize>, ev| {
            if let FaultKind::SchedDegrade { max_inflight } = ev.kind {
                let cap = max_inflight.max(1);
                Some(acc.map_or(cap, |c| c.min(cap)))
            } else {
                acc
            }
        })
    }

    /// Extra one-way network latency for messages to/from this node at
    /// `now`.
    pub fn net_extra(&self, now: SimTime) -> Duration {
        self.fold_active(now, Duration::ZERO, |acc, ev| {
            if let FaultKind::NetDelay { extra } = ev.kind {
                acc + extra
            } else {
                acc
            }
        })
    }

    /// Samples whether a message to/from this node is dropped at `now`.
    /// Consumes randomness only while a `NetDrop` window is active, so a
    /// planless or drop-free run's RNG streams are untouched.
    pub fn drop_message(&self, now: SimTime) -> bool {
        let Some(core) = &self.core else { return false };
        let mut core = core.borrow_mut();
        let mut prob: f64 = 0.0;
        for ev in &core.events {
            if let FaultKind::NetDrop { prob: p } = ev.kind {
                if ev.active_at(now) && ev.applies_to(self.node) {
                    prob = prob.max(p);
                }
            }
        }
        if prob <= 0.0 {
            return false;
        }
        let dropped = core.rng.chance(prob);
        if dropped {
            core.dropped_messages += 1;
        }
        dropped
    }

    /// Distorts a predicted wait per any active `PredictorBias`: scales by
    /// the bias and adds uniform jitter in `[0, jitter)`. Identity (and
    /// RNG-silent) when no bias window is active.
    pub fn distort_wait(&self, now: SimTime, wait: Duration) -> Duration {
        let Some(core) = &self.core else { return wait };
        let mut core = core.borrow_mut();
        let mut scale: f64 = 1.0;
        let mut jitter = Duration::ZERO;
        let mut active = false;
        for ev in &core.events {
            if let FaultKind::PredictorBias {
                scale: s,
                jitter: j,
            } = ev.kind
            {
                if ev.active_at(now) && ev.applies_to(self.node) {
                    active = true;
                    scale *= s;
                    jitter += j;
                }
            }
        }
        if !active {
            return wait;
        }
        core.distorted_predictions += 1;
        let mut out = wait.mul_f64(scale.max(0.0));
        if !jitter.is_zero() {
            out += Duration::from_nanos(core.rng.range_u64(0, jitter.as_nanos()));
        }
        out
    }

    /// True while a `PredictorBias` window applies to this node at `now`.
    ///
    /// A pure query — unlike [`Self::distort_wait`] it consumes no RNG and
    /// bumps no counter, so attribution code can ask "is this prediction
    /// distorted?" without perturbing the run.
    pub fn bias_active(&self, now: SimTime) -> bool {
        self.fold_active(now, false, |acc, ev| {
            acc || matches!(ev.kind, FaultKind::PredictorBias { .. })
        })
    }

    /// True while this node's storage service is crashed at `now`.
    pub fn crashed(&self, now: SimTime) -> bool {
        self.fold_active(now, false, |acc, ev| {
            acc || matches!(ev.kind, FaultKind::NodeCrash)
        })
    }

    /// Records one fault activation (called by the driver at each
    /// `FaultStart`).
    pub fn record_injection(&self) {
        if let Some(core) = &self.core {
            core.borrow_mut().injected += 1;
        }
    }

    /// Fault activations recorded so far.
    pub fn injected(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.borrow().injected)
    }

    /// Messages dropped by `NetDrop` sampling so far.
    pub fn dropped_messages(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.borrow().dropped_messages)
    }

    /// Predictions distorted by `PredictorBias` so far.
    pub fn distorted_predictions(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.borrow().distorted_predictions)
    }

    /// IOs slowed by a `PartialDegrade` coin so far.
    pub fn degraded_ios(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.borrow().degraded_ios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn clock(plan: FaultPlan) -> FaultClock {
        FaultClock::new(plan, SimRng::new(7))
    }

    #[test]
    fn disabled_clock_is_identity() {
        let c = FaultClock::disabled();
        assert!(!c.is_enabled());
        assert_eq!(c.disk_service_multiplier(at(5)), 1.0);
        assert_eq!(c.ssd_stall(at(5)), Duration::ZERO);
        assert_eq!(c.sched_max_inflight(at(5)), None);
        assert_eq!(c.net_extra(at(5)), Duration::ZERO);
        assert!(!c.drop_message(at(5)));
        assert_eq!(c.distort_wait(at(5), ms(3)), ms(3));
        assert!(!c.crashed(at(5)));
        assert_eq!(c.injected(), 0);
    }

    #[test]
    fn windows_are_half_open_and_node_scoped() {
        let c = clock(FaultPlan::new().crash(1, at(10), ms(10)));
        let n0 = c.for_node(0);
        let n1 = c.for_node(1);
        assert!(!n1.crashed(at(9)));
        assert!(n1.crashed(at(10)));
        assert!(n1.crashed(at(19)));
        assert!(!n1.crashed(at(20)), "end is exclusive");
        assert!(!n0.crashed(at(15)), "other nodes stay up");
    }

    #[test]
    fn fail_slow_ramps_linearly_then_holds() {
        let c = clock(FaultPlan::new().fail_slow(0, at(0), ms(100), 5.0, ms(40))).for_node(0);
        assert_eq!(c.disk_service_multiplier(at(0)), 1.0);
        let mid = c.disk_service_multiplier(at(20));
        assert!((mid - 3.0).abs() < 1e-9, "half-ramp = 3.0, got {mid}");
        assert_eq!(c.disk_service_multiplier(at(40)), 5.0);
        assert_eq!(c.disk_service_multiplier(at(99)), 5.0);
        assert_eq!(c.disk_service_multiplier(at(100)), 1.0);
    }

    #[test]
    fn step_fail_slow_has_no_ramp() {
        let c =
            clock(FaultPlan::new().fail_slow(0, at(10), ms(10), 4.0, Duration::ZERO)).for_node(0);
        assert_eq!(c.disk_service_multiplier(at(10)), 4.0);
    }

    #[test]
    fn overlapping_fail_slow_windows_multiply() {
        let plan = FaultPlan::new()
            .fail_slow(0, at(0), ms(100), 2.0, Duration::ZERO)
            .fail_slow(0, at(0), ms(100), 3.0, Duration::ZERO);
        let c = clock(plan).for_node(0);
        assert_eq!(c.disk_service_multiplier(at(50)), 6.0);
    }

    #[test]
    fn sched_degrade_caps_but_never_below_one() {
        let c = clock(FaultPlan::new().sched_degrade(0, at(0), ms(10), 0)).for_node(0);
        assert_eq!(c.sched_max_inflight(at(5)), Some(1), "clamped for liveness");
        assert_eq!(c.sched_max_inflight(at(15)), None);
    }

    #[test]
    fn cluster_wide_net_faults_hit_every_node() {
        let c = clock(FaultPlan::new().net_delay(None, at(0), ms(10), ms(2)));
        assert_eq!(c.for_node(0).net_extra(at(5)), ms(2));
        assert_eq!(c.for_node(7).net_extra(at(5)), ms(2));
        assert_eq!(c.for_node(7).net_extra(at(15)), Duration::ZERO);
    }

    #[test]
    fn drop_sampling_is_seed_deterministic_and_counted() {
        let sample = |seed| {
            let c = FaultClock::new(
                FaultPlan::new().net_drop(None, at(0), ms(10), 0.5),
                SimRng::new(seed),
            );
            let hits: Vec<bool> = (0..32).map(|_| c.drop_message(at(5))).collect();
            (hits, c.dropped_messages())
        };
        let (a, na) = sample(3);
        let (b, nb) = sample(3);
        assert_eq!(a, b);
        assert_eq!(na, nb);
        assert!(na > 0, "p=0.5 over 32 samples must drop something");
        let c = clock(FaultPlan::new().net_drop(None, at(0), ms(10), 0.5));
        assert!(!c.drop_message(at(15)), "inactive window never drops");
    }

    #[test]
    fn predictor_bias_scales_and_jitters_within_bounds() {
        let c = clock(FaultPlan::new().predictor_bias(None, at(0), ms(10), 2.0, ms(1)));
        for _ in 0..16 {
            let w = c.distort_wait(at(5), ms(4));
            assert!(w >= ms(8) && w < ms(9), "2x + [0,1ms) jitter, got {w}");
        }
        assert_eq!(c.distorted_predictions(), 16);
        assert_eq!(c.distort_wait(at(15), ms(4)), ms(4), "inactive = identity");
    }

    #[test]
    fn bias_active_is_a_pure_query() {
        let c = clock(FaultPlan::new().predictor_bias(Some(1), at(0), ms(10), 2.0, ms(1)));
        let h = c.for_node(1);
        assert!(h.bias_active(at(5)));
        assert!(!h.bias_active(at(15)), "window is half-open");
        assert!(!c.for_node(0).bias_active(at(5)), "node-scoped");
        assert_eq!(
            c.distorted_predictions(),
            0,
            "querying must not count as a distortion"
        );
        assert!(!FaultClock::disabled().bias_active(at(5)));
    }

    #[test]
    fn injection_counter_is_shared_across_handles() {
        let c = clock(FaultPlan::new().crash(0, at(0), ms(1)));
        c.for_node(3).record_injection();
        c.record_injection();
        assert_eq!(c.for_node(1).injected(), 2);
    }

    fn rack_scope(members: &[u32]) -> FaultScope {
        FaultScope::Group {
            label: ScopeLabel::Rack(0),
            members: members.to_vec(),
        }
    }

    #[test]
    fn correlated_scope_covers_every_member_at_once() {
        let plan = FaultPlan::new().scoped(
            rack_scope(&[1, 3]),
            at(10),
            ms(10),
            FaultKind::FailSlowDisk {
                multiplier: 4.0,
                ramp: Duration::ZERO,
            },
        );
        let c = clock(plan);
        assert_eq!(c.for_node(1).disk_service_multiplier(at(15)), 4.0);
        assert_eq!(c.for_node(3).disk_service_multiplier(at(15)), 4.0);
        assert_eq!(c.for_node(2).disk_service_multiplier(at(15)), 1.0);
        assert!(c.for_node(1).correlated_active(at(15)));
        assert!(!c.for_node(2).correlated_active(at(15)));
        assert!(!c.for_node(1).correlated_active(at(25)), "window closed");
    }

    #[test]
    fn scope_node_indices_sort_dedup_and_clip() {
        assert_eq!(FaultScope::Cluster.node_indices(3), vec![0, 1, 2]);
        assert_eq!(FaultScope::Node(1).node_indices(3), vec![1]);
        assert_eq!(FaultScope::Node(9).node_indices(3), Vec::<usize>::new());
        assert_eq!(rack_scope(&[5, 2, 2, 9]).node_indices(6), vec![2, 5]);
    }

    #[test]
    fn gray_flap_follows_its_phase_function() {
        // 10ms period, 40% on-phase, active [0, 100).
        let c = clock(FaultPlan::new().gray_flap(0, at(0), ms(100), ms(10), 40, 5.0)).for_node(0);
        assert_eq!(c.disk_service_multiplier(at(0)), 5.0, "phase 0 is on");
        assert_eq!(c.disk_service_multiplier(at(3)), 5.0, "phase 3/10 is on");
        assert_eq!(c.disk_service_multiplier(at(4)), 1.0, "phase 4/10 is off");
        assert_eq!(c.disk_service_multiplier(at(9)), 1.0);
        assert_eq!(c.disk_service_multiplier(at(12)), 5.0, "next period is on");
        assert_eq!(c.disk_service_multiplier(at(100)), 1.0, "window closed");
        assert!(c.gray_active(at(4)), "gray covers off-phases too");
        assert!(!c.gray_active(at(100)));
    }

    #[test]
    fn partial_degrade_hits_a_fraction_and_counts() {
        let c = clock(FaultPlan::new().partial_degrade(0, at(0), ms(10), 0.5, 8.0)).for_node(0);
        let draws: Vec<f64> = (0..64).map(|_| c.degrade_draw(at(5))).collect();
        let hits = draws.iter().filter(|&&m| m > 4.0).count();
        assert!(
            draws.iter().all(|&m| !(1.5..=4.0).contains(&m)),
            "8.0 or 1.0 only"
        );
        assert!(
            hits > 0 && hits < 64,
            "p=0.5 must hit some, not all: {hits}"
        );
        assert_eq!(c.degraded_ios(), hits as u64);
        assert_eq!(c.degrade_draw(at(15)), 1.0, "inactive window never draws");
        assert_eq!(c.degraded_ios(), hits as u64);
    }

    #[test]
    fn partial_degrade_draws_are_seed_deterministic() {
        let sample = |seed| {
            let c = FaultClock::new(
                FaultPlan::new().partial_degrade(0, at(0), ms(10), 0.3, 4.0),
                SimRng::new(seed),
            )
            .for_node(0);
            (0..32).map(|_| c.degrade_draw(at(5))).collect::<Vec<f64>>()
        };
        assert_eq!(sample(11), sample(11));
    }

    #[test]
    fn asymmetric_slow_is_hidden_from_the_visible_multiplier() {
        let c = clock(FaultPlan::new().asym_slow(0, at(0), ms(10), 3.0)).for_node(0);
        assert_eq!(c.hidden_service_multiplier(at(5)), 3.0);
        assert_eq!(
            c.disk_service_multiplier(at(5)),
            1.0,
            "the visible multiplier must stay healthy"
        );
        assert!(c.gray_active(at(5)));
        assert_eq!(c.hidden_service_multiplier(at(15)), 1.0);
    }

    #[test]
    fn plan_digest_is_stable_and_sensitive() {
        let plan = || {
            FaultPlan::new()
                .crash(0, at(10), ms(10))
                .gray_flap(1, at(20), ms(50), ms(8), 50, 3.0)
        };
        assert_eq!(plan().digest(), plan().digest());
        let other =
            FaultPlan::new()
                .crash(0, at(10), ms(10))
                .gray_flap(1, at(20), ms(50), ms(8), 50, 3.5);
        assert_ne!(plan().digest(), other.digest());
    }

    #[test]
    fn crash_envelope_unions_overlapping_windows() {
        assert_eq!(FaultPlan::new().crash_envelope(), Duration::ZERO);
        let plan = FaultPlan::new()
            .crash(0, at(10), ms(20))
            .crash(1, at(25), ms(20)) // overlaps: union [10, 45)
            .crash(2, at(100), ms(10)); // disjoint, shorter
        assert_eq!(plan.crash_envelope(), ms(35));
        let plan2 = FaultPlan::new().crash(0, at(10), ms(5)).fail_slow(
            1,
            at(0),
            ms(500),
            3.0,
            Duration::ZERO,
        );
        assert_eq!(plan2.crash_envelope(), ms(5), "non-crash kinds are ignored");
    }
}
