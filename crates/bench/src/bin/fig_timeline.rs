//! Windowed tail-latency timelines + SLO burn-rate alerting under a
//! generated fault plan (mitt-tsl tentpole figure).
//!
//! Runs Base and MittOS over the same seed-generated correlated/gray
//! fault plan with the timeline subsystem enabled: per-window pow2
//! latency histograms roll into p50/p95/p99/p999 timelines, the
//! multi-window burn-rate evaluator raises fast/slow-burn alerts against
//! the run's deadline SLO, and each alert onset arms the flight recorder
//! (trace-ring tail + breaker states). The figure's claim: burn-rate
//! alerts line up with the *injected* fault windows — the timeline finds
//! the faults without being told where they are — and the whole export is
//! byte-identical across same-seed runs.
//!
//! Flags: `--tsl-json <file>` writes the `mitt-tsl/v1` export (with the
//! bench report embedded as its `"bench"` section, so `mitt-obs compare`
//! gates it directly), `--bench-json <file>` writes the plain
//! `mitt-bench/v1` report, `--trace <file>` exports the MittOS run's
//! Chrome trace with `tsl.p99_us` / `tsl.burn_milli` counter tracks,
//! `--quiet` suppresses progress notes. Exits 1 if no fast-burn alert
//! fires, no alert overlaps an injected window, or the double-run export
//! diverges.

use std::path::PathBuf;

use mitt_bench::{bench_json, ops_from_env, progress, trace_flag};
use mitt_cluster::{
    run_experiment, ExperimentConfig, ExperimentResult, NodeConfig, Strategy, Topology,
    CRASH_REPLY_DELAY,
};
use mitt_faults::{invariants, FaultPlan, FaultPlanGen, PlanGenConfig, ResilienceConfig};
use mitt_obs::{
    chrome_export_with_timeline, verify_attribution_invariants, BenchReport, StrategyRow,
};
use mitt_sim::Duration;
use mitt_tsl::TslConfig;

const SEED: u64 = 42;

/// Timeline config for the figure: 20 ms windows so a 300-op run closes
/// ~30 of them, deadline left at ZERO so each strategy's own SLO is
/// substituted by the cluster wiring.
fn tsl_cfg() -> TslConfig {
    TslConfig {
        window: Duration::from_millis(20),
        ..TslConfig::default()
    }
}

fn plan(topo: &Topology, ops: usize) -> FaultPlan {
    let mut cfg = PlanGenConfig::baseline(topo.catalog());
    cfg.intensity = 2.0;
    cfg.horizon = Duration::from_millis((ops as u64 * 2).max(100));
    FaultPlanGen::new(SEED, cfg).generate()
}

fn run_cfg(strategy: Strategy, resilience: bool, plan: &FaultPlan, ops: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(NodeConfig::disk_cfq(), strategy);
    cfg.nodes = 6;
    cfg.seed = SEED;
    cfg.ops_per_client = ops;
    cfg.think_time = Duration::from_millis(2);
    cfg.trace = true;
    cfg.faults = plan.clone();
    cfg.tsl = Some(tsl_cfg());
    if resilience {
        cfg.resilience = Some(ResilienceConfig::default());
    }
    cfg
}

/// Runs one strategy and feeds the invariant checker's near-miss margins
/// back into its timeline (arming the flight recorder when one is close),
/// exactly the same way on every run so exports stay byte-identical.
fn run_audited(
    strategy: Strategy,
    resilience: bool,
    plan: &FaultPlan,
    ops: usize,
) -> ExperimentResult {
    let cfg = run_cfg(strategy, resilience, plan, ops);
    let expected_ops = cfg.user_requests() as u64;
    let res = run_experiment(cfg);
    let events = res.trace.events();
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
        breaker_cooldown: if resilience {
            ResilienceConfig::default().breaker.cooldown
        } else {
            Duration::ZERO
        },
        attribution: Some(attribution),
    };
    let audit = invariants::check(&input);
    for v in &audit.violations {
        println!("# VIOLATION {v}");
    }
    for nm in &audit.near_misses {
        res.tsl.record_near_miss(*nm);
    }
    // A close near-miss arms the recorder after the run's last tick; take
    // the post-hoc snapshot here so the dump lands in the export.
    if res.tsl.wants_flight() {
        let flight_events = res.tsl.config().map_or(0, |c| c.flight_events);
        res.tsl.flight_record(
            res.trace.tail_events(flight_events),
            Vec::new(),
            res.finished_at,
        );
    }
    res
}

/// Counts fast-burn alerts whose span overlaps an injected fault window.
fn overlapping_alerts(res: &ExperimentResult, plan: &FaultPlan) -> u64 {
    let Some(cfg) = res.tsl.config() else {
        return 0;
    };
    let coverage = plan.coverage();
    res.tsl
        .alerts()
        .iter()
        .filter(|a| {
            let (lo, hi) = a.span(&cfg);
            coverage.iter().any(|&(start, end)| lo < end && start < hi)
        })
        .count() as u64
}

/// The `--tsl-json <file>` flag.
fn tsl_json_path() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    while let Some(a) = args.next() {
        if a == "--tsl-json" {
            match args.next() {
                Some(p) => path = Some(PathBuf::from(p)),
                None => {
                    println!("usage: --tsl-json <timeline.json>");
                    std::process::exit(2);
                }
            }
        } else if let Some(p) = a.strip_prefix("--tsl-json=") {
            path = Some(PathBuf::from(p));
        }
    }
    path
}

fn main() {
    let ops = ops_from_env(300);
    let deadline = Duration::from_millis(20);
    println!("# Timeline figure: 6-node cluster under a seed-generated correlated/gray");
    println!("# fault plan, mitt-tsl windowed timelines + burn-rate alerting enabled.");
    println!("# Expected shape: fast-burn alerts fire only where fault windows were");
    println!("# injected, MittOS burns slower than Base, exports digest identically.");
    let topo = Topology::new(6, 3, 2);
    let plan = plan(&topo, ops);
    progress::note(&format!(
        "plan: {} events ({} correlated, {} gray), digest {:#018x}",
        plan.events.len(),
        plan.correlated_events(),
        plan.gray_events(),
        plan.digest()
    ));

    let mut report = BenchReport::new("fig_timeline", SEED, ops as u64);
    let mut base = run_audited(Strategy::Base, false, &plan, ops);
    let mut mitt = run_audited(Strategy::MittOs { deadline }, true, &plan, ops);

    if trace_flag().claim() {
        trace_flag().save_chrome_json(&chrome_export_with_timeline(&mitt.trace, &mitt.tsl));
    }

    let base_fast = base.tsl.fast_burn_alerts();
    let mitt_fast = mitt.tsl.fast_burn_alerts();
    let base_overlap = overlapping_alerts(&base, &plan);
    let mitt_overlap = overlapping_alerts(&mitt, &plan);
    let alerts_total = base.tsl.alerts().len() as u64 + mitt.tsl.alerts().len() as u64;
    let near_misses = base.tsl.near_misses().len() as u64 + mitt.tsl.near_misses().len() as u64;
    let flight_dumps = base.tsl.flight_dumps().len() as u64 + mitt.tsl.flight_dumps().len() as u64;

    for a in mitt.tsl.alerts() {
        let (lo, hi) = a.span(&tsl_cfg());
        progress::note(&format!(
            "mittos alert {} at {}us (span {}..{}us, burn {} milli)",
            a.kind.name(),
            a.at.as_micros(),
            lo.as_micros(),
            hi.as_micros(),
            a.burn_milli
        ));
    }

    // Same seed, same plan, same audit => byte-identical mitt-tsl/v1
    // exports, end to end through plangen, windows, alerts, near-miss
    // feed, and flight dumps.
    let rerun = run_audited(Strategy::MittOs { deadline }, true, &plan, ops);
    let export_identical = mitt.tsl.export_json() == rerun.tsl.export_json();

    report
        .strategies
        .push(StrategyRow::from_result("base", &mut base));
    report
        .strategies
        .push(StrategyRow::from_result("mittos", &mut mitt));

    if let Some(path) = tsl_json_path() {
        let doc = mitt.tsl.export_json_with_bench(Some(&report.to_json()));
        match std::fs::write(&path, &doc) {
            Ok(()) => progress::note(&format!("wrote mitt-tsl/v1 export to {}", path.display())),
            Err(e) => {
                println!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    println!("fast_burn_alerts_base={base_fast}");
    println!("fast_burn_alerts_mittos={mitt_fast}");
    println!("alerts_total={alerts_total}");
    println!("alert_overlap_base={base_overlap}");
    println!("alert_overlap_mittos={mitt_overlap}");
    println!("near_misses={near_misses}");
    println!("flight_dumps={flight_dumps}");
    println!("double_run_tsl_identical={}", u64::from(export_identical));

    bench_json().finish_or_exit(&report);
    let fast_total = base_fast + mitt_fast;
    let overlap_total = base_overlap + mitt_overlap;
    if fast_total == 0 {
        println!("FAIL: no fast-burn alert fired under an intensity-2.0 fault plan");
        std::process::exit(1);
    }
    if overlap_total == 0 {
        println!("FAIL: no alert span overlaps an injected fault window");
        std::process::exit(1);
    }
    if !export_identical {
        println!("FAIL: same-seed mitt-tsl/v1 exports diverged");
        std::process::exit(1);
    }
}
