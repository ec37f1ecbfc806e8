//! Observability integration tests (`mitt-obs` over the full stack):
//! SLO-attribution invariants on traced cluster runs, calibration
//! telemetry vs the audit-mode classifier, and the machine-readable
//! bench-report round trip with its regression gate.

use mittos_repro::cluster::{
    run_experiment, ExperimentConfig, InitialReplica, Medium, NodeConfig, NoiseKind, NoiseStream,
    Strategy,
};
use mittos_repro::device::IoClass;
use mittos_repro::faults::{FaultKind, FaultPlan, FaultScope, ScopeLabel};
use mittos_repro::obs::attribution::AttributionSummary;
use mittos_repro::obs::calibration::{CalibrationConfig, CalibrationStream};
use mittos_repro::obs::{
    chrome_export_with_timeline, verify_attribution_invariants, BenchReport, CalibrationRow,
    CompareThresholds, StrategyRow,
};
use mittos_repro::sim::{Duration, SimTime};
use mittos_repro::trace::{EventKind, Resource, Subsystem};
use mittos_repro::tsl::TslConfig;
use mittos_repro::workload::{rotating_schedule, NoiseBurst};

/// A contended traced MittOS cluster that generates plenty of rejections.
fn traced_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(
        NodeConfig::disk_cfq(),
        Strategy::MittOs {
            deadline: Duration::from_millis(15),
        },
    );
    cfg.seed = seed;
    cfg.clients = 3;
    cfg.ops_per_client = 120;
    cfg.initial_replica = InitialReplica::Random;
    cfg.think_time = Duration::from_millis(5);
    cfg.trace = true;
    cfg.noise = vec![NoiseStream {
        kind: NoiseKind::DiskReads {
            len: 1 << 20,
            class: IoClass::BestEffort,
            priority: 4,
        },
        schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(600), 4),
    }];
    cfg
}

/// Tiered nodes read through the page cache under rotating swap-out noise:
/// MittCache rejects, and each rejection issues a background refill.
fn cached_traced_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(
        NodeConfig::tiered(),
        Strategy::MittOs {
            deadline: Duration::from_micros(100),
        },
    );
    cfg.seed = seed;
    cfg.clients = 3;
    cfg.ops_per_client = 60;
    cfg.record_count = 20_000;
    cfg.medium = Medium::Disk;
    cfg.via_cache = true;
    cfg.preload_cache = true;
    cfg.think_time = Duration::from_millis(5);
    cfg.trace = true;
    cfg.noise = vec![NoiseStream {
        kind: NoiseKind::CacheSwap,
        schedules: rotating_schedule(3, Duration::from_millis(200), Duration::from_secs(600), 30),
    }];
    cfg
}

/// A CFQ cluster whose node 0 takes short, frequent bursts of top-priority
/// reads: IOs admitted between bursts are still queued when the next burst
/// arrives, so MittCFQ bumps them (late EBUSY).
fn bumping_traced_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(
        NodeConfig::disk_cfq(),
        Strategy::MittOs {
            deadline: Duration::from_millis(30),
        },
    );
    cfg.seed = seed;
    cfg.clients = 4;
    cfg.ops_per_client = 60;
    cfg.think_time = Duration::from_millis(3);
    cfg.trace = true;
    let mut schedules = vec![Vec::new(); 3];
    schedules[0] = (0..6000)
        .map(|i| NoiseBurst {
            start: SimTime::ZERO + Duration::from_millis(100) * i,
            duration: Duration::from_millis(20),
            intensity: 8,
        })
        .collect();
    cfg.noise = vec![NoiseStream {
        kind: NoiseKind::DiskReads {
            len: 4096,
            class: IoClass::BestEffort,
            priority: 0,
        },
        schedules,
    }];
    cfg
}

/// The same cluster with fail-slow and predictor-bias faults active, so
/// attribution sees fault windows and miscalibrated predictions too.
fn faulted_traced_config(seed: u64) -> ExperimentConfig {
    let at = |ms: u64| SimTime::ZERO + Duration::from_millis(ms);
    let mut cfg = traced_config(seed);
    cfg.faults = FaultPlan::new()
        .fail_slow(
            1,
            at(400),
            Duration::from_millis(600),
            3.0,
            Duration::from_millis(80),
        )
        .predictor_bias(
            None,
            at(300),
            Duration::from_millis(800),
            1.5,
            Duration::from_micros(300),
        );
    cfg
}

#[test]
fn every_reject_is_attributed_in_a_traced_run() {
    // Every node-level reject source: predictor verdicts, MittCache
    // verdicts and MittCFQ bumps.
    let cached = run_experiment(cached_traced_config(66));
    let cache_rejects = cached
        .trace
        .metrics()
        .counter_total(Subsystem::MittCache.reject_counter());
    assert!(cache_rejects > 0, "the cache run must reject in MittCache");
    let bumping = run_experiment(bumping_traced_config(67));
    let bumped = bumping.trace.metrics().counter_total("mittcfq.bumped");
    assert!(bumped > 0, "the bumping run must bump queued IOs");
    for (name, res) in [
        ("disk", run_experiment(traced_config(61))),
        ("cache", cached),
        ("bump", bumping),
    ] {
        assert!(res.ebusy > 0, "{name}: need rejections to attribute");
        let events = res.trace.events();
        let pairs = verify_attribution_invariants(&events)
            .unwrap_or_else(|e| panic!("{name}: attribution invariant: {e}"));
        assert!(pairs > 0, "{name}: no reject/attribution pairs found");

        let summary = AttributionSummary::from_events(&events, mittos_repro::os::DEFAULT_HOP);
        assert_eq!(
            summary.node_total(),
            pairs,
            "{name}: summary must count exactly the attributed rejects"
        );
        // Cache hits complete no IO, and the cache run's only storage IOs
        // are deadline-free refills, so it has nothing to classify.
        if name != "cache" {
            assert!(
                summary.completed > 0,
                "{name}: completions must be classified"
            );
        }
    }
}

#[test]
fn faulted_run_attributes_rejects_and_blames_fault_windows() {
    let res = run_experiment(faulted_traced_config(62));
    assert!(res.injected_faults > 0, "the plan must fire");
    let events = res.trace.events();
    verify_attribution_invariants(&events).expect("attribution invariant under faults");
    // The summary is an exact deterministic artifact: two runs from the
    // same seed agree field for field.
    let again = run_experiment(faulted_traced_config(62));
    let a = AttributionSummary::from_events(&events, mittos_repro::os::DEFAULT_HOP);
    let b = AttributionSummary::from_sink(&again.trace, mittos_repro::os::DEFAULT_HOP);
    assert_eq!(
        a, b,
        "attribution summaries diverged between identical runs"
    );
    assert_eq!(a.render(), b.render(), "rendered summaries diverged");
}

#[test]
fn gray_and_correlated_windows_are_attributed_at_the_cluster_level() {
    // A run under a gray flapping window plus a correlated rack-scoped
    // slow window: every EBUSY the client sees while a gray window is
    // open is attributed to the GrayWindow resource (correlated-only
    // overlap falls back to FaultWindow), and the attribution invariants
    // still hold — new reject sources may not leave orphans.
    let at = |ms: u64| SimTime::ZERO + Duration::from_millis(ms);
    let mut cfg = traced_config(65);
    cfg.faults = FaultPlan::new()
        .gray_flap(
            1,
            at(100),
            Duration::from_secs(2),
            Duration::from_millis(20),
            60,
            15.0,
        )
        .scoped(
            FaultScope::Group {
                label: ScopeLabel::Rack(0),
                members: vec![0, 1],
            },
            at(150),
            Duration::from_secs(2),
            FaultKind::FailSlowDisk {
                multiplier: 4.0,
                ramp: Duration::from_millis(10),
            },
        );
    let res = run_experiment(cfg);
    assert!(res.injected_faults > 0, "the plan must fire");
    assert!(res.ebusy > 0, "need rejections under the gray window");
    let events = res.trace.events();
    verify_attribution_invariants(&events).expect("attribution invariant under gray faults");
    let summary = AttributionSummary::from_events(&events, mittos_repro::os::DEFAULT_HOP);
    let gray = summary.cluster_counts[Resource::GrayWindow.code() as usize];
    assert!(
        gray > 0,
        "no cluster-level GrayWindow attribution: counts={:?}",
        summary.cluster_counts
    );
}

#[test]
fn calibration_stream_matches_the_trace_event_stream() {
    let res = run_experiment(traced_config(63));
    let events = res.trace.events();
    let stream = CalibrationStream::from_sink(&res.trace, CalibrationConfig::default());

    // Every deadline-carrying prediction by a predictor subsystem must be
    // resolved (rejected or classified at completion); a run that ends
    // cleanly leaves nothing open.
    let total: u64 = stream.stats().values().map(|s| s.total).sum();
    let rejected: u64 = stream.stats().values().map(|s| s.rejected).sum();
    assert!(total > 0, "no predictions observed");
    assert_eq!(stream.unresolved(), 0, "predictions left unresolved");

    // Rejections seen by the stream equal node-level Reject events that
    // follow an admitted=false prediction.
    let node_rejects = events
        .iter()
        .filter(|ev| {
            ev.node != mittos_repro::trace::CLUSTER_NODE
                && matches!(ev.kind, EventKind::Reject { .. })
        })
        .count() as u64;
    assert_eq!(rejected, node_rejects, "stream rejected != trace rejects");

    // The histogram totals agree with the FP/FN counters' universe.
    for (name, stats) in stream.stats() {
        assert!(
            stats.false_pos + stats.false_neg <= stats.total,
            "{name}: fp+fn exceeds total"
        );
    }
}

#[test]
fn bench_report_round_trips_and_gates_regressions() {
    let mut res = run_experiment(traced_config(64));
    let mut report = BenchReport::new("obs-test", 64, 1);
    report
        .strategies
        .push(StrategyRow::from_result("mittos", &mut res));
    report.calibration.push(CalibrationRow {
        predictor: "mittcfq".to_string(),
        total: 1000,
        fp_pct: 0.4,
        fn_pct: 0.3,
        inaccuracy_pct: 0.7,
        mean_err_ms: 1.2,
        max_err_ms: 3.4,
    });

    // Byte-stable round trip.
    let json = report.to_json();
    let parsed = BenchReport::parse(&json).expect("parse own output");
    assert_eq!(json, parsed.to_json(), "report JSON round trip not stable");

    // Identical reports pass the gate.
    assert!(report
        .compare(&parsed, CompareThresholds::default())
        .is_empty());

    // A degraded run fails it: p95 regression and calibration drift.
    let mut degraded = parsed;
    degraded.strategies[0].p95_ms *= 2.0;
    degraded.calibration[0].inaccuracy_pct += 5.0;
    let regressions = report.compare(&degraded, CompareThresholds::default());
    assert!(
        regressions.iter().any(|r| r.contains("p95")),
        "p95 regression not caught: {regressions:?}"
    );
    assert!(
        regressions.iter().any(|r| r.contains("inaccuracy")),
        "calibration regression not caught: {regressions:?}"
    );
}

/// The traced cluster with mitt-tsl timelines enabled on top.
fn tsl_traced_config(seed: u64) -> ExperimentConfig {
    let mut cfg = faulted_traced_config(seed);
    cfg.tsl = Some(TslConfig {
        window: Duration::from_millis(50),
        ..TslConfig::default()
    });
    cfg
}

#[test]
fn tsl_export_embeds_a_comparable_bench_report() {
    // The mitt-tsl/v1 export carries the run's mitt-bench/v1 report as a
    // trailing "bench" section; `mitt-obs compare` must parse the wrapper
    // (skipping the timeline sections it does not know) and gate against
    // it exactly as if it were handed the bare report.
    let mut res = run_experiment(tsl_traced_config(65));
    assert!(res.tsl.is_enabled());
    let mut report = BenchReport::new("obs-tsl", 65, 1);
    report
        .strategies
        .push(StrategyRow::from_result("mittos", &mut res));
    let bench_json = report.to_json();
    let wrapped = res.tsl.export_json_with_bench(Some(&bench_json));

    let parsed = BenchReport::parse(&wrapped).expect("parse embedded bench section");
    assert_eq!(parsed.to_json(), bench_json, "embedded report mangled");
    assert!(report
        .compare(&parsed, CompareThresholds::default())
        .is_empty());
}

#[test]
fn tsl_export_has_the_v1_shape_and_populated_timelines() {
    let res = run_experiment(tsl_traced_config(66));
    let json = res.tsl.export_json();
    assert!(json.starts_with("{\"schema\":\"mitt-tsl/v1\""), "{json}");
    for section in [
        "\"timelines\":[",
        "\"alerts\":[",
        "\"near_misses\":[",
        "\"flight_recorder\":[",
    ] {
        assert!(json.contains(section), "missing {section}");
    }
    // The cluster row exists and saw every completed get.
    let gets: u64 = {
        let needle = "\"gets\":";
        let mut total = 0;
        let cluster = json
            .find("\"node\":4294967295")
            .expect("cluster timeline row");
        let end = json[cluster..]
            .find("]}")
            .map_or(json.len(), |e| cluster + e);
        let mut rest = &json[cluster..end];
        while let Some(p) = rest.find(needle) {
            rest = &rest[p + needle.len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            total += digits.parse::<u64>().unwrap_or(0);
        }
        total
    };
    assert_eq!(gets, res.ops, "cluster windows must cover every get");
}

#[test]
fn chrome_export_merges_timeline_counter_tracks() {
    let res = run_experiment(tsl_traced_config(67));
    let json = chrome_export_with_timeline(&res.trace, &res.tsl);
    assert!(json.contains("tsl.p99_us"), "p99 counter track missing");
    assert!(
        json.contains("tsl.burn_milli"),
        "burn counter track missing"
    );
    // Merging is a pure function of the two sinks.
    assert_eq!(json, chrome_export_with_timeline(&res.trace, &res.tsl));
    // The plain export is untouched by the timeline merge.
    assert!(!res.trace.export_chrome_json().contains("tsl."));
}
