//! Randomized chaos sweep: seed-generated fault plans (correlated
//! rack/zone windows + gray failures) checked against robustness
//! *invariants* instead of fixed numbers.
//!
//! `fig_faults` answers "how do strategies degrade under this hand-written
//! plan"; this binary answers the question randomized testing exists for:
//! does *any* generated combination of correlated and gray failures strand
//! an op, black out the cluster past the failover budget, or oscillate a
//! circuit breaker closed without a successful probe? Every run is audited
//! by `mitt_faults::invariants` (op completeness, dispatch terminality,
//! bounded unavailability, breaker legality, attribution coverage), and
//! the first seed's MittOS run is executed twice to prove the whole
//! pipeline — generator included — digests byte-identically.
//!
//! Flags: `--bench-json <file>` writes the `mitt-bench/v1` report,
//! `--trace <file>` exports the first faulted run's Chrome trace,
//! `--quiet` suppresses progress notes. Exits 1 if any invariant is
//! violated, the double-run digests diverge, or the bench report lacks a
//! row or fails `BenchReport::parse`.

use mitt_bench::{bench_json, ops_from_env, progress, trace_flag};
use mitt_cluster::{
    run_experiment, ExperimentConfig, ExperimentResult, NodeConfig, Strategy, Topology,
    CRASH_REPLY_DELAY,
};
use mitt_faults::{invariants, FaultPlan, FaultPlanGen, PlanGenConfig, ResilienceConfig};
use mitt_obs::{verify_attribution_invariants, BenchReport, StrategyRow};
use mitt_sim::{Duration, Fnv1a};
use mitt_trace::EventKind;

const SEEDS: [u64; 3] = [101, 202, 303];
const PLANS_PER_SEED: usize = 3;
const INTENSITIES: [f64; 3] = [0.5, 1.0, 2.0];

fn strategies() -> Vec<(&'static str, Strategy, bool)> {
    let deadline = Duration::from_millis(20);
    vec![
        ("base", Strategy::Base, false),
        ("hedged", Strategy::Hedged { after: deadline }, false),
        ("mittos", Strategy::MittOs { deadline }, true),
    ]
}

fn gen_cfg(topo: &Topology, intensity: f64, ops: usize) -> PlanGenConfig {
    let mut cfg = PlanGenConfig::baseline(topo.catalog());
    cfg.intensity = intensity;
    // Scale the fault horizon to the run: a closed-loop client at 2 ms
    // think time finishes `ops` gets in roughly 2-3 ms each, and windows
    // that open after the workload drains never activate.
    cfg.horizon = Duration::from_millis((ops as u64 * 2).max(100));
    cfg
}

/// The breaker cooldown the sweep's resilience runs use, shared with the
/// invariant checker's cooldown-vs-flap near-miss probe.
fn breaker_cooldown(resilience: bool) -> Duration {
    if resilience {
        ResilienceConfig::default().breaker.cooldown
    } else {
        Duration::ZERO
    }
}

fn run_cfg(
    seed: u64,
    strategy: Strategy,
    resilience: bool,
    plan: &FaultPlan,
    ops: usize,
) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(NodeConfig::disk_cfq(), strategy);
    cfg.nodes = 6;
    cfg.seed = seed;
    cfg.ops_per_client = ops;
    cfg.think_time = Duration::from_millis(2);
    cfg.trace = true;
    cfg.faults = plan.clone();
    if resilience {
        cfg.resilience = Some(ResilienceConfig::default());
    }
    cfg
}

/// Audits one finished run against the invariant catalogue; returns the
/// report plus the number of correlated / gray windows that *activated*
/// (scheduled windows past the workload's end never start).
fn audit(
    plan: &FaultPlan,
    res: &ExperimentResult,
    expected_ops: u64,
    breaker_cooldown: Duration,
) -> (invariants::InvariantReport, u64, u64) {
    let events = res.trace.events();
    let mut correlated = 0u64;
    let mut gray = 0u64;
    for ev in &events {
        if let EventKind::FaultStart { fault, .. } = ev.kind {
            if let Some(fe) = plan.events.get(fault as usize) {
                if fe.scope.is_correlated() {
                    correlated += 1;
                }
                if fe.kind.is_gray() {
                    gray += 1;
                }
            }
        }
    }
    // Worst-case failover budget: the plan's crash envelope, every replica
    // of an op paying the crash-detection delay, the full EBUSY backoff
    // ladder, and slack for draining an IO whose service was stretched by
    // windows that closed mid-flight. Gap time spent *inside* open fault
    // windows is excused by the checker (stacked slow windows legitimately
    // stall service); the budget bounds the uncovered remainder.
    let budget = invariants::unavailability_budget(
        plan,
        CRASH_REPLY_DELAY * 3,
        Duration::from_millis(30),
        Duration::from_millis(750),
    );
    let coverage = plan.coverage();
    let attribution = verify_attribution_invariants(&events).map(|_| ());
    let input = invariants::InvariantInput {
        events: &events,
        completion_times: &res.completion_times,
        run_end: res.finished_at,
        expected_ops,
        terminal_ops: res.ops,
        unavailability_budget: budget,
        fault_windows: &coverage,
        breaker_transitions: &res.breaker_transitions,
        breaker_cooldown,
        attribution: Some(attribution),
    };
    (invariants::check(&input), correlated, gray)
}

/// Folds a run's observable outputs for the double-run identity check.
fn fold_result(h: &mut Fnv1a, res: &ExperimentResult) {
    h.write_u64(res.ops);
    h.write_u64(res.ebusy);
    h.write_u64(res.retries);
    h.write_u64(res.errors);
    h.write_u64(res.injected_faults);
    h.write_u64(res.degraded_ios);
    h.write_u64(res.breaker_opens);
    h.write_u64(res.finished_at.as_nanos());
    let completions: Vec<u64> = res.completion_times.iter().map(|t| t.as_nanos()).collect();
    h.write_u64_slice(&completions);
    res.trace.fold_digest(h);
}

fn main() {
    let ops = ops_from_env(300);
    println!("# Chaos sweep: 6-node cluster striped over 3 racks / 2 zones, seed-generated");
    println!("# fault plans (correlated rack/zone + gray flap/degrade/asymmetric windows),");
    println!("# every run audited against the robustness invariant catalogue.");
    let topo = Topology::new(6, 3, 2);
    let mut report = BenchReport::new("fig_chaos", SEEDS[0], ops as u64);

    let mut plans_generated = 0u64;
    let mut runs = 0u64;
    let mut injected = 0u64;
    let mut degraded = 0u64;
    let mut correlated_active = 0u64;
    let mut gray_active = 0u64;
    let mut checks = 0u64;
    let mut violations: Vec<String> = Vec::new();
    let mut near_misses = 0u64;
    let mut close_calls = 0u64;

    for &seed in &SEEDS {
        for (p, &intensity) in INTENSITIES.iter().enumerate().take(PLANS_PER_SEED) {
            // One generator stream per (seed, intensity tier); the derived
            // seeds stay disjoint across the sweep's seed set.
            let mut generator = FaultPlanGen::new(seed + p as u64, gen_cfg(&topo, intensity, ops));
            let plan = generator.generate();
            plans_generated += 1;
            progress::note(&format!(
                "seed {seed} plan {p}: {} events ({} correlated, {} gray), digest {:#018x}",
                plan.events.len(),
                plan.correlated_events(),
                plan.gray_events(),
                plan.digest()
            ));
            // Per-plan near-miss summary: how much slack each passing
            // invariant had under this plan, across the strategy set.
            let mut plan_near: Vec<String> = Vec::new();
            for (name, strategy, resilience) in strategies() {
                let cfg = run_cfg(seed, strategy, resilience, &plan, ops);
                let expected = cfg.user_requests() as u64;
                let mut res = trace_flag().run(cfg);
                runs += 1;
                injected += res.injected_faults;
                degraded += res.degraded_ios;
                let (audit_report, corr, gray) =
                    audit(&plan, &res, expected, breaker_cooldown(resilience));
                correlated_active += corr;
                gray_active += gray;
                checks += audit_report.checked;
                for v in &audit_report.violations {
                    violations.push(format!("seed {seed} plan {p} {name}: {v}"));
                }
                near_misses += audit_report.near_misses.len() as u64;
                for nm in &audit_report.near_misses {
                    if nm.is_close() {
                        close_calls += 1;
                    }
                    plan_near.push(format!(
                        "{name} {}: margin {}us of {}us{}",
                        nm.invariant,
                        nm.margin.as_nanos() / 1_000,
                        nm.budget.as_nanos() / 1_000,
                        if nm.is_close() { " (CLOSE)" } else { "" }
                    ));
                }
                report.strategies.push(StrategyRow::from_result(
                    &format!("s{seed}.p{p}.{name}"),
                    &mut res,
                ));
            }
            for line in &plan_near {
                progress::note(&format!("seed {seed} plan {p} near-miss: {line}"));
            }
        }
    }

    // Same seed, same generator, same run => byte-identical digests, end
    // to end through plangen, correlated scopes, and gray windows.
    let digest_of = || {
        let plan = FaultPlanGen::new(SEEDS[0], gen_cfg(&topo, 1.0, ops)).generate();
        let deadline = Duration::from_millis(20);
        let res = run_experiment(run_cfg(
            SEEDS[0],
            Strategy::MittOs { deadline },
            true,
            &plan,
            ops,
        ));
        let mut h = Fnv1a::new();
        fold_result(&mut h, &res);
        h.finish()
    };
    let digest_match = digest_of() == digest_of();
    if !digest_match {
        violations.push("double run: same-seed chaos runs diverged".to_string());
    }
    // The report holds one row per (seed, plan, strategy), and reads back
    // through `BenchReport::parse`, which checks each row's percentiles.
    let rows = SEEDS.len() * PLANS_PER_SEED * strategies().len();
    if report.strategies.len() != rows {
        violations.push(format!(
            "bench report: {} rows, expected {rows}",
            report.strategies.len()
        ));
    }
    if let Err(e) = BenchReport::parse(&report.to_json()) {
        violations.push(format!("bench report: {e}"));
    }

    for v in &violations {
        println!("# VIOLATION {v}");
    }
    println!("\n# Expected shape: zero violations on every seed — randomized correlated +");
    println!("# gray failures may stretch tails arbitrarily, but may never strand an op,");
    println!("# black out the cluster past the failover budget, or close a breaker");
    println!("# without a successful half-open probe.");
    println!("plans={plans_generated}");
    println!("runs={runs}");
    println!("injected_faults={injected}");
    println!("correlated_windows={correlated_active}");
    println!("gray_windows={gray_active}");
    println!("degraded_ios={degraded}");
    println!("invariant_checks={checks}");
    println!("invariant_violations={}", violations.len());
    println!("near_misses={near_misses}");
    println!("near_miss_close_calls={close_calls}");
    println!("double_run_digest_match={}", u64::from(digest_match));

    bench_json().finish_or_exit(&report);
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contended_runs_expect_every_clients_ops() {
        let topo = Topology::new(6, 3, 2);
        let ops = 20;
        let plan = FaultPlanGen::new(SEEDS[0], gen_cfg(&topo, INTENSITIES[0], ops)).generate();
        let (_, strategy, resilience) = strategies().remove(2);
        let mut cfg = run_cfg(SEEDS[0], strategy, resilience, &plan, ops);
        cfg.clients = 3;
        assert_eq!(cfg.user_requests(), 60);
        let expected = cfg.user_requests() as u64;
        let res = run_experiment(cfg);
        assert_eq!(res.ops, expected);
        let (report, _, _) = audit(&plan, &res, expected, breaker_cooldown(resilience));
        assert!(
            report
                .violations
                .iter()
                .all(|v| !v.contains("stranded ops")),
            "{:?}",
            report.violations
        );
    }
}
