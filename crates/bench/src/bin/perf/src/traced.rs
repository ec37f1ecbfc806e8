//! The traced run: every arm once as in the end-to-end run and once more
//! with `mitt-prof` on and allocations counted, then the layer drivers.
//! Per-layer numbers come from the profiler's existing spans and counters
//! and from the drivers; the difference between the two runs of an arm is
//! the tracing overhead.

use mitt_cluster::ClusterSim;
use mitt_prof::{Phase, ProfReport};

use crate::drivers;
use crate::e2e::{warm_up, ArmOutcome};
use crate::measure::{calibrate, counting_allocs, median, timed, Stopwatch, REFERENCE_CALIB_MS};
use crate::workloads::Workload;

/// What one traced repetition of all arms measured (raw wall times).
#[derive(Debug, Default)]
struct Totals {
    gets: u64,
    events: u64,
    ios: u64,
    retries: u64,
    ebusy: u64,
    /// Wall ns per profiling phase, indexed by `Phase as usize`.
    phase_ns: [u64; mitt_prof::N_PHASES],
    alloc_bytes: [u64; mitt_prof::N_PHASES],
    alloc_count: u64,
    depth_sum: u64,
    depth_samples: u64,
    plain_ns: u64,
    traced_ns: u64,
    /// Whether the nodes carry an SSD (see [`Totals::self_ns`]).
    has_ssd: bool,
}

impl Totals {
    fn add(&mut self, gets: u64, ebusy: u64, retries: u64, r: &ProfReport) {
        self.gets += gets;
        self.ebusy += ebusy;
        self.retries += retries;
        self.events += r.events_dispatched;
        self.ios += r.ios_submitted;
        for p in Phase::ALL {
            let i = p as usize;
            self.phase_ns[i] += r.phases[i].total_ns;
            self.alloc_bytes[i] += r.alloc[i].bytes;
            self.alloc_count += r.alloc[i].allocs;
        }
        self.depth_sum += r.gauges.iter().map(|g| g.event_ring as u64).sum::<u64>();
        self.depth_samples += r.gauges.len() as u64;
    }

    /// Self time of a phase: its span minus the child spans nested in it.
    /// Predictor, scheduler and trace spans nest directly in dispatch.
    /// Disk service nests in the scheduler span, but SSD service runs
    /// outside any scheduler span and mitt-prof does not tell the two
    /// apart; with an SSD present all device time is therefore taken out
    /// of dispatch and none out of the scheduler (so the scheduler figure
    /// is an upper bound and the dispatch figure a lower bound).
    fn self_ns(&self, p: Phase) -> u64 {
        let t = |p: Phase| self.phase_ns[p as usize];
        let (in_sched, in_dispatch) = if self.has_ssd {
            (0, t(Phase::Device))
        } else {
            (t(Phase::Device), 0)
        };
        match p {
            Phase::Dispatch => t(Phase::Dispatch).saturating_sub(
                t(Phase::Predict) + t(Phase::Sched) + t(Phase::TraceEmit) + in_dispatch,
            ),
            Phase::Sched => t(Phase::Sched).saturating_sub(in_sched),
            p => t(p),
        }
    }

    /// Per-layer metrics of this repetition; times are rescaled by `scale`.
    fn metrics(&self, scale: f64) -> Vec<(&'static str, f64)> {
        let per_get = |x: u64| x as f64 / self.gets as f64;
        let ns_per_get = |p: Phase| per_get(self.self_ns(p)) * scale;
        let bytes = |p: Phase| per_get(self.alloc_bytes[p as usize]);
        vec![
            ("cluster.events_per_get", per_get(self.events)),
            ("cluster.ios_per_get", per_get(self.ios)),
            ("cluster.retries_per_get", per_get(self.retries)),
            ("core.ebusy_per_get", per_get(self.ebusy)),
            ("cluster.dispatch_self_ns", ns_per_get(Phase::Dispatch)),
            ("core.predict_ns", ns_per_get(Phase::Predict)),
            ("sched.self_ns", ns_per_get(Phase::Sched)),
            ("device.service_ns", ns_per_get(Phase::Device)),
            ("trace.emit_ns", ns_per_get(Phase::TraceEmit)),
            (
                "alloc.bytes_per_get",
                per_get(self.alloc_bytes.iter().sum()),
            ),
            ("alloc.allocs_per_get", per_get(self.alloc_count)),
            ("alloc.dispatch_bytes_per_get", bytes(Phase::Dispatch)),
            ("alloc.sched_bytes_per_get", bytes(Phase::Sched)),
            (
                "simcore.calendar_depth_mean",
                self.depth_sum as f64 / self.depth_samples.max(1) as f64,
            ),
            (
                "prof.overhead_pct",
                100.0 * (self.traced_ns as f64 / self.plain_ns as f64 - 1.0),
            ),
        ]
    }
}

/// Everything the traced run of one workload measured.
#[derive(Debug)]
pub(crate) struct TracedRun {
    /// `(metric name, value)` in catalogue order.
    pub(crate) metrics: Vec<(&'static str, f64)>,
    pub(crate) reps: usize,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) failures: Vec<String>,
}

/// Runs the traced repetitions until `seconds` have passed (at least one),
/// then the layer drivers. Times are normalised like the end-to-end run's.
pub(crate) fn measure(
    workload: Workload,
    seed: u64,
    ops: usize,
    seconds: f64,
    smoke: bool,
) -> TracedRun {
    let mut failures = warm_up(workload, seed, (ops / 10).max(1));
    let arms = workload.arms(seed, ops);
    let has_ssd = arms.iter().any(|a| a.config().node_cfg.ssd.is_some());
    let budget = Stopwatch::start();
    let mut calib_before = calibrate(smoke);
    let mut reps: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while reps.is_empty() || (budget.elapsed_ns() as f64) < seconds * 1e9 {
        let mut totals = Totals {
            has_ssd,
            ..Totals::default()
        };
        for arm in &arms {
            let cfg = arm.config();
            let sim = ClusterSim::new(cfg.clone());
            let (plain, plain_ns) = timed(|| sim.run());
            let mut traced_cfg = cfg;
            traced_cfg.prof = true;
            let sim = ClusterSim::new(traced_cfg);
            let (traced, traced_ns) = counting_allocs(|| timed(|| sim.run()));
            let outcome = ArmOutcome::new(arm, &traced);
            if outcome != ArmOutcome::new(arm, &plain) {
                failures.push(format!(
                    "{}/{}: profiling changed the virtual results",
                    workload.name(),
                    outcome.label()
                ));
            }
            attempted += outcome.requested;
            failed += outcome.failed();
            totals.plain_ns += plain_ns;
            totals.traced_ns += traced_ns;
            totals.add(
                outcome.gets.len() as u64,
                outcome.ebusy,
                outcome.retries,
                &traced.prof.report(),
            );
        }
        let calib_after = calibrate(smoke);
        let scale = 2.0 * REFERENCE_CALIB_MS / (calib_before + calib_after);
        calib_before = calib_after;
        reps.push(totals.metrics(scale));
    }
    let mut metrics: Vec<(&'static str, f64)> = reps[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            (
                name,
                median(&reps.iter().map(|r| r[i].1).collect::<Vec<_>>()),
            )
        })
        .collect();
    let raw = drivers::run(&arms, smoke);
    let scale = 2.0 * REFERENCE_CALIB_MS / (calib_before + calibrate(smoke));
    metrics.extend(raw.into_iter().map(|(name, v)| (name, v * scale)));
    TracedRun {
        metrics,
        reps: reps.len(),
        attempted,
        failed,
        failures,
    }
}
