//! The end-to-end run: warm-up, calibrated repetitions, virtual-time
//! results, and the self-checks that make an inert MittOS fail loudly.

use mitt_cluster::{ClusterSim, ExperimentResult};
use mitt_sim::{Duration, SimTime};

use crate::measure::{calibrate, median, peak_heap, timed, Stopwatch, REFERENCE_CALIB_MS};
use crate::workloads::{Arm, Workload};

/// The virtual-time results of one arm: everything the self-checks
/// compare across repetitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArmOutcome {
    pub(crate) class: &'static str,
    pub(crate) mittos: bool,
    pub(crate) deadline: Duration,
    /// User requests the arm had to complete.
    pub(crate) requested: u64,
    /// User requests that completed.
    pub(crate) ops: u64,
    /// User requests that surfaced an error.
    pub(crate) errors: u64,
    pub(crate) ebusy: u64,
    pub(crate) retries: u64,
    pub(crate) finished_at: SimTime,
    /// Every get's latency in nanoseconds, sorted.
    pub(crate) gets: Vec<u64>,
}

impl ArmOutcome {
    pub(crate) fn new(arm: &Arm, res: &ExperimentResult) -> Self {
        let mut gets = res.get_latencies.samples().to_vec();
        gets.sort_unstable();
        ArmOutcome {
            class: arm.class,
            mittos: arm.mittos,
            deadline: arm.deadline,
            requested: arm.requested_ops(),
            ops: res.ops,
            errors: res.errors,
            ebusy: res.ebusy,
            retries: res.retries,
            finished_at: res.finished_at,
            gets,
        }
    }

    pub(crate) fn label(&self) -> String {
        let strategy = if self.mittos { "mittos" } else { "base" };
        format!("{}.{strategy}", self.class)
    }

    /// Requests that errored or never completed.
    pub(crate) fn failed(&self) -> u64 {
        self.errors + self.requested.saturating_sub(self.ops)
    }

    fn p99(&self) -> u64 {
        quantile(&self.gets, 0.99)
    }
}

/// Nearest-rank quantile of sorted nanosecond samples (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs every arm once, timing set-up (input generation plus
/// `ClusterSim::new`) and the run separately. Returns the outcomes with
/// the raw set-up and run nanoseconds.
pub(crate) fn run_arms(arms: &[Arm]) -> (Vec<ArmOutcome>, u64, u64) {
    let (mut setup_ns, mut run_ns) = (0, 0);
    let outcomes = arms
        .iter()
        .map(|arm| {
            let (sim, setup) = timed(|| ClusterSim::new(arm.config()));
            let (res, run) = timed(|| sim.run());
            setup_ns += setup;
            run_ns += run;
            ArmOutcome::new(arm, &res)
        })
        .collect();
    (outcomes, setup_ns, run_ns)
}

/// Virtual-time metrics of one repetition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Virtual {
    /// Median get latency pooled over the MittOS arms.
    pub(crate) p50_ms: f64,
    /// p99 get latency pooled over the MittOS arms.
    pub(crate) p99_ms: f64,
    /// Mean over user classes of `100 * (1 - p99_MittOS / p99_Base)`.
    pub(crate) tail_cut_pct: f64,
    /// Share of MittOS-arm gets slower than their class deadline.
    pub(crate) slo_miss_pct: f64,
    /// Gets completed over all arms.
    pub(crate) gets: u64,
    /// MittOS samples beyond the pooled p99 (the percentile's support).
    pub(crate) beyond_p99: u64,
}

impl Virtual {
    pub(crate) fn of(outcomes: &[ArmOutcome]) -> Self {
        let mut pooled: Vec<u64> = outcomes
            .iter()
            .filter(|o| o.mittos)
            .flat_map(|o| o.gets.iter().copied())
            .collect();
        pooled.sort_unstable();
        let p99 = quantile(&pooled, 0.99);
        // The classes' deadlines differ by up to 200x, so the cut is taken
        // per class (MittOS arm against its Base twin) and averaged; on a
        // single-class workload it is the plain p99 reduction.
        let cuts: Vec<f64> = outcomes
            .iter()
            .filter(|m| m.mittos)
            .filter_map(|m| {
                let base = base_twin(outcomes, m)?;
                Some(100.0 * (1.0 - m.p99() as f64 / base.p99() as f64))
            })
            .collect();
        // A failed or stranded get misses its deadline by definition.
        let (mut missed, mut judged) = (0u64, 0u64);
        for o in outcomes.iter().filter(|o| o.mittos) {
            let late = o
                .gets
                .iter()
                .filter(|&&ns| ns > o.deadline.as_nanos())
                .count();
            missed += late as u64 + o.failed();
            judged += o.gets.len() as u64 + o.failed();
        }
        Virtual {
            p50_ms: quantile(&pooled, 0.5) as f64 / 1e6,
            p99_ms: p99 as f64 / 1e6,
            tail_cut_pct: cuts.iter().sum::<f64>() / cuts.len() as f64,
            slo_miss_pct: 100.0 * missed as f64 / judged as f64,
            gets: outcomes.iter().map(|o| o.gets.len() as u64).sum(),
            beyond_p99: pooled.iter().filter(|&&ns| ns > p99).count() as u64,
        }
    }
}

/// The Base arm of `m`'s user class.
fn base_twin<'a>(outcomes: &'a [ArmOutcome], m: &ArmOutcome) -> Option<&'a ArmOutcome> {
    outcomes.iter().find(|b| !b.mittos && b.class == m.class)
}

/// Self-checks on one repetition's outcomes: every arm completed all its
/// requests without errors, and every MittOS arm issued EBUSY and beat
/// its Base twin at p99 (so an inert MittOS cannot pass).
pub(crate) fn check_outcomes(workload: Workload, outcomes: &[ArmOutcome]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |o: &ArmOutcome, what: String| {
        failures.push(format!("{}/{}: {what}", workload.name(), o.label()));
    };
    for o in outcomes.iter().filter(|o| o.failed() > 0) {
        fail(
            o,
            format!(
                "{} of {} requests failed or never completed",
                o.failed(),
                o.requested
            ),
        );
    }
    for m in outcomes.iter().filter(|o| o.mittos) {
        if m.ebusy == 0 {
            fail(m, "MittOS issued no EBUSY (inert)".to_string());
        }
        match base_twin(outcomes, m) {
            None => fail(m, "no Base arm to compare with".to_string()),
            Some(base) if m.p99() >= base.p99() => fail(
                m,
                format!("p99 {} ns does not beat Base's {} ns", m.p99(), base.p99()),
            ),
            Some(_) => {}
        }
    }
    failures
}

/// One measured repetition, normalised to the reference host.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RepSample {
    pub(crate) gets_per_s: f64,
    pub(crate) setup_s: f64,
    pub(crate) raw_gets_per_s: f64,
    pub(crate) raw_setup_s: f64,
    /// Calibration-kernel milliseconds bracketing the repetition.
    pub(crate) calib_ms: f64,
}

/// Everything the end-to-end run of one workload measured.
#[derive(Debug)]
pub(crate) struct E2eRun {
    pub(crate) reps: Vec<RepSample>,
    pub(crate) virt: Virtual,
    /// Most heap MiB live at once during the first full-size repetition.
    pub(crate) peak_heap_mb: f64,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// The first full-size repetition's outcomes (for cross-workload
    /// checks).
    pub(crate) outcomes: Vec<ArmOutcome>,
    pub(crate) failures: Vec<String>,
}

impl E2eRun {
    pub(crate) fn median(&self, f: impl Fn(&RepSample) -> f64) -> f64 {
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }
}

/// Measures one workload end to end: a warm-up at a tenth of `ops`; one
/// untimed full-size repetition that measures the peak heap (and, as the
/// first at full size, pays for growing it); then calibrated repetitions
/// of every arm until `seconds` of wall time have passed (at least three;
/// two in a smoke run).
pub(crate) fn measure(
    workload: Workload,
    seed: u64,
    ops: usize,
    seconds: f64,
    smoke: bool,
) -> E2eRun {
    let min_reps = if smoke { 2 } else { 3 };
    let mut failures = warm_up(workload, seed, (ops / 10).max(1));
    let arms = workload.arms(seed, ops);
    let ((first, _, _), heap_bytes) = peak_heap(|| run_arms(&arms));
    failures.extend(check_outcomes(workload, &first));
    let mut attempted: u64 = first.iter().map(|o| o.requested).sum();
    let mut failed: u64 = first.iter().map(ArmOutcome::failed).sum();
    let budget = Stopwatch::start();
    let mut calib_before = calibrate(smoke);
    let mut reps = Vec::new();
    while reps.len() < min_reps || (budget.elapsed_ns() as f64) < seconds * 1e9 {
        let (outcomes, setup_ns, run_ns) = run_arms(&arms);
        let calib_after = calibrate(smoke);
        let calib_ms = (calib_before + calib_after) / 2.0;
        calib_before = calib_after;
        let scale = REFERENCE_CALIB_MS / calib_ms;
        let gets: u64 = outcomes.iter().map(|o| o.gets.len() as u64).sum();
        let raw_run_s = run_ns as f64 / 1e9;
        let raw_setup_s = setup_ns as f64 / 1e9;
        reps.push(RepSample {
            gets_per_s: gets as f64 / (raw_run_s * scale),
            setup_s: raw_setup_s * scale,
            raw_gets_per_s: gets as f64 / raw_run_s,
            raw_setup_s,
            calib_ms,
        });
        attempted += outcomes.iter().map(|o| o.requested).sum::<u64>();
        failed += outcomes.iter().map(ArmOutcome::failed).sum::<u64>();
        if outcomes != first {
            failures.push(format!(
                "{}: timed repetition {} differs from the first in virtual time",
                workload.name(),
                reps.len()
            ));
        }
    }
    E2eRun {
        reps,
        virt: Virtual::of(&first),
        peak_heap_mb: heap_bytes as f64 / f64::from(1 << 20),
        attempted,
        failed,
        outcomes: first,
        failures,
    }
}

/// The warm-up: every arm at `ops` per client, untimed. For `cfq20_obs` it
/// also runs `cfq20`'s arms and checks that observability leaves the
/// virtual results untouched.
pub(crate) fn warm_up(workload: Workload, seed: u64, ops: usize) -> Vec<String> {
    let (outcomes, _, _) = run_arms(&workload.arms(seed, ops));
    if workload != Workload::Cfq20Obs {
        return Vec::new();
    }
    let (plain, _, _) = run_arms(&Workload::Cfq20.arms(seed, ops));
    if plain == outcomes {
        Vec::new()
    } else {
        vec![format!(
            "cfq20_obs: virtual results differ from cfq20's at {ops} ops/client"
        )]
    }
}
