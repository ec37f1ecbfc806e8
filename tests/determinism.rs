//! Double-run determinism harness: the dynamic complement to `mitt-lint`.
//!
//! The static rules (tests/lint.rs) keep nondeterminism *sources* out of the
//! tree; this test proves the composed system actually is deterministic. A
//! representative cluster simulation — replicated nodes, CFQ disks, noisy
//! neighbors, the MittOS failover strategy — runs twice from the same seed,
//! and every observable output (latency sample streams, counters, the final
//! virtual clock, and with tracing enabled the full event ring + metrics
//! registry) is folded into an FNV-1a digest. One reordered event anywhere
//! in the run cascades into a digest mismatch. All three media paths are
//! covered: the CFQ disk, the OpenChannel SSD, and the LSM engine over the
//! disk.

use mittos_repro::cluster::{
    run_experiment, ExperimentConfig, ExperimentResult, InitialReplica, Medium, NodeConfig,
    NoiseKind, NoiseStream, Strategy, Topology,
};
use mittos_repro::device::IoClass;
use mittos_repro::faults::{FaultPlan, FaultPlanGen, PlanGenConfig, ResilienceConfig};
use mittos_repro::lsm::LsmConfig;
use mittos_repro::obs::attribution::AttributionSummary;
use mittos_repro::obs::replay::{replay_audit_traced, REPLAY_RING};
use mittos_repro::sim::digest::{double_run, Fnv1a};
use mittos_repro::sim::{Duration, SimTime};
use mittos_repro::tsl::TslConfig;
use mittos_repro::workload::{rotating_schedule, NoiseBurst, TraceSpec};

/// A contended three-replica cluster, small enough for a debug-build test.
/// Tracing is on so the digest also covers the event ring and metrics.
fn config(seed: u64, strategy: Strategy) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(NodeConfig::disk_cfq(), strategy);
    cfg.seed = seed;
    cfg.clients = 3;
    cfg.ops_per_client = 120;
    cfg.initial_replica = InitialReplica::Random;
    cfg.think_time = Duration::from_millis(5);
    cfg.write_fraction = 0.1;
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

/// The SSD medium under write noise (MittSSD path).
fn ssd_config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(
        NodeConfig::ssd(),
        Strategy::MittOs {
            deadline: Duration::from_millis(2),
        },
    );
    cfg.seed = seed;
    cfg.medium = Medium::Ssd;
    cfg.ops_per_client = 60;
    cfg.trace = true;
    cfg.noise = vec![NoiseStream {
        kind: NoiseKind::SsdWrites { len: 64 << 10 },
        schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(600), 4),
    }];
    cfg
}

/// An LSM-engine cluster (LevelDB-style lookup plans over the disk).
fn lsm_config(seed: u64) -> ExperimentConfig {
    let mut cfg = config(
        seed,
        Strategy::MittOs {
            deadline: Duration::from_millis(25),
        },
    );
    cfg.engine = Some(LsmConfig {
        levels: 2,
        level_ratio: 6,
        table_cache_capacity: 16,
        ..LsmConfig::default()
    });
    cfg.record_count = 100_000;
    cfg.ops_per_client = 60;
    cfg
}

/// `lsm_config` with a write mix and a memtable small enough that every
/// engine flushes and compacts (7 compactions over the run), under a table
/// cache small enough that lookups after a compaction evict. The smaller
/// keyspace makes gets land on table boundary keys, where an off-by-one
/// level search would diverge.
fn lsm_churn_config(seed: u64) -> ExperimentConfig {
    let mut cfg = lsm_config(seed);
    cfg.write_fraction = 0.3;
    cfg.record_count = 10_000;
    cfg.ops_per_client = 600;
    if let Some(engine) = cfg.engine.as_mut() {
        engine.memtable_budget = 64 << 10;
        engine.table_cache_capacity = 4;
    }
    cfg
}

/// Folds every observable output of a run into the digest, in a fixed
/// order: counters, the virtual clock, the latency sample streams, the
/// trace ring + metrics registry, and the exported Chrome JSON bytes (so
/// byte-identity of the export is part of the contract, not just the
/// in-memory event list).
fn fold_result(h: &mut Fnv1a, res: &ExperimentResult) {
    h.write_u64(res.ops);
    h.write_u64(res.ebusy);
    h.write_u64(res.retries);
    h.write_u64(res.errors);
    h.write_u64(res.stale_reads);
    h.write_u64(res.injected_faults);
    h.write_u64(res.dropped_messages);
    h.write_u64(res.distorted_predictions);
    h.write_u64(res.breaker_opens);
    h.write_u64(res.backoff_retries);
    h.write_u64(res.degraded_ios);
    h.write_u64(res.finished_at.as_nanos());
    for (node, tr) in &res.breaker_transitions {
        h.write_u64(*node as u64);
        h.write_u64(tr.at.as_nanos());
        h.write_u64(tr.from as u64);
        h.write_u64(tr.to as u64);
        h.write_u64(tr.cause as u64);
    }
    h.write_u64_slice(res.user_latencies.samples());
    h.write_u64_slice(res.get_latencies.samples());
    let completions: Vec<u64> = res.completion_times.iter().map(|t| t.as_nanos()).collect();
    h.write_u64_slice(&completions);
    res.trace.fold_digest(h);
    h.write_str(&res.trace.export_chrome_json());
    // The derived SLO-attribution summary is an observable output too: if
    // event order ever wobbles, the per-resource blame counts wobble with it.
    AttributionSummary::from_sink(&res.trace, mittos_repro::os::DEFAULT_HOP).fold_digest(h);
    // The timeline state (windows, alerts, near-misses, flight dumps) is
    // covered whenever mitt-tsl is enabled; a disabled sink folds a marker.
    res.tsl.fold_digest(h);
}

#[test]
fn same_seed_same_digest() {
    for strategy in [
        Strategy::Base,
        Strategy::MittOs {
            deadline: Duration::from_millis(15),
        },
    ] {
        let (first, second) = double_run(|h| {
            let res = run_experiment(config(21, strategy.clone()));
            fold_result(h, &res);
        });
        assert_eq!(
            first,
            second,
            "two runs from seed 21 diverged under {}: {first:#018x} vs {second:#018x}",
            strategy.name()
        );
    }
}

#[test]
fn ssd_experiment_same_seed_same_digest() {
    let (first, second) = double_run(|h| {
        let res = run_experiment(ssd_config(23));
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "SSD runs from seed 23 diverged: {first:#018x} vs {second:#018x}"
    );
}

#[test]
fn lsm_cluster_same_seed_same_digest() {
    let (first, second) = double_run(|h| {
        let res = run_experiment(lsm_config(24));
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "LSM runs from seed 24 diverged: {first:#018x} vs {second:#018x}"
    );
}

#[test]
fn exported_trace_is_byte_identical_across_runs() {
    let run = || {
        let res = run_experiment(config(
            25,
            Strategy::MittOs {
                deadline: Duration::from_millis(15),
            },
        ));
        (res.trace.export_chrome_json(), res.trace.report_text())
    };
    let (json_a, report_a) = run();
    let (json_b, report_b) = run();
    assert!(
        json_a.len() > 1024 && json_a.contains("\"traceEvents\""),
        "traced run must export a non-trivial Chrome trace"
    );
    assert_eq!(json_a, json_b, "exported Chrome traces differ between runs");
    assert_eq!(report_a, report_b, "run reports differ between runs");
}

/// The `config` cluster under a composite fault plan exercising every
/// injection path that consumes entropy or reorders events: a crash (orphan
/// sweep + delayed `Crashed` replies), a fail-slow ramp, periodic cache
/// thrash, cluster-wide network spikes, message drops (RNG-consuming), and
/// predictor miscalibration (RNG-consuming) — with the resilience policies
/// on so breaker/backoff state is covered too.
fn faulted_config(seed: u64) -> ExperimentConfig {
    let at = |ms: u64| SimTime::ZERO + Duration::from_millis(ms);
    let mut cfg = config(
        seed,
        Strategy::MittOs {
            deadline: Duration::from_millis(15),
        },
    );
    cfg.faults = FaultPlan::new()
        .crash(0, at(300), Duration::from_millis(400))
        .fail_slow(
            1,
            at(800),
            Duration::from_millis(500),
            3.0,
            Duration::from_millis(100),
        )
        .cache_thrash(
            2,
            at(600),
            Duration::from_millis(400),
            30,
            Duration::from_millis(50),
        )
        .net_delay(
            None,
            at(200),
            Duration::from_millis(600),
            Duration::from_micros(200),
        )
        .net_drop(None, at(400), Duration::from_millis(600), 0.05)
        .predictor_bias(
            None,
            at(500),
            Duration::from_millis(700),
            1.3,
            Duration::from_micros(200),
        );
    cfg.resilience = Some(ResilienceConfig::default());
    cfg
}

#[test]
fn faulted_run_same_seed_same_digest() {
    // Same seed + same FaultPlan => identical digest. Fault injection must
    // be part of the deterministic schedule, not a side channel.
    let (first, second) = double_run(|h| {
        let res = run_experiment(faulted_config(26));
        assert!(res.injected_faults > 0, "the plan must actually fire");
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "faulted runs from seed 26 diverged: {first:#018x} vs {second:#018x}"
    );
}

#[test]
fn faulted_trace_is_byte_identical_and_marks_faults() {
    let run = || {
        let res = run_experiment(faulted_config(27));
        (res.trace.export_chrome_json(), res.trace.report_text())
    };
    let (json_a, report_a) = run();
    let (json_b, report_b) = run();
    assert!(
        json_a.contains("fault_start") && json_a.contains("fault_end"),
        "fault activations must appear in the exported trace"
    );
    assert!(
        json_a.contains("\"net_hop\""),
        "per-hop network events must appear in the exported trace"
    );
    assert_eq!(json_a, json_b, "faulted Chrome traces differ between runs");
    assert_eq!(
        report_a, report_b,
        "faulted run reports differ between runs"
    );
}

#[test]
fn empty_fault_plan_leaves_the_run_untouched() {
    // A default (empty) FaultPlan must not perturb RNG forking or event
    // order: the digest with `faults = FaultPlan::default()` explicitly set
    // must equal the digest of a config that never mentions faults.
    let strategy = Strategy::MittOs {
        deadline: Duration::from_millis(15),
    };
    let digest_of = |cfg: ExperimentConfig| {
        let mut h = Fnv1a::new();
        let res = run_experiment(cfg);
        fold_result(&mut h, &res);
        h.finish()
    };
    let plain = digest_of(config(28, strategy.clone()));
    let mut with_empty_plan = config(28, strategy);
    with_empty_plan.faults = FaultPlan::default();
    assert_eq!(
        plain,
        digest_of(with_empty_plan),
        "an empty fault plan changed the run"
    );
}

#[test]
fn profiling_is_digest_neutral() {
    // mitt-prof is wall-clock-only observation: a profiled run and an
    // unprofiled run from the same seed must produce byte-identical
    // digests (including the exported trace). Profiling may not consume
    // RNG draws, schedule events, or otherwise perturb the engine.
    let strategy = Strategy::MittOs {
        deadline: Duration::from_millis(15),
    };
    let digest_of = |prof: bool| {
        let mut h = Fnv1a::new();
        let mut cfg = config(29, strategy.clone());
        cfg.prof = prof;
        let res = run_experiment(cfg);
        if prof {
            let report = res.prof.report();
            assert!(report.events_dispatched > 0, "profiler must observe events");
            assert!(report.ios_submitted > 0, "profiler must count IOs");
            assert!(
                report.phases[mittos_repro::prof::Phase::Dispatch as usize].count > 0,
                "dispatch phase timer must fire"
            );
        } else {
            assert!(!res.prof.is_enabled());
        }
        fold_result(&mut h, &res);
        h.finish()
    };
    assert_eq!(
        digest_of(true),
        digest_of(false),
        "enabling the profiler changed the run digest"
    );
}

#[test]
fn profiled_run_same_seed_same_digest() {
    let (first, second) = double_run(|h| {
        let mut cfg = config(30, Strategy::Base);
        cfg.prof = true;
        let res = run_experiment(cfg);
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "profiled runs from seed 30 diverged: {first:#018x} vs {second:#018x}"
    );
}

/// A generated chaos plan over the striped 6-node topology, at full
/// intensity so correlated scopes and gray windows are all in play.
fn chaos_config(seed: u64) -> ExperimentConfig {
    let topo = Topology::new(6, 3, 2);
    let mut gen_cfg = PlanGenConfig::baseline(topo.catalog());
    gen_cfg.horizon = Duration::from_millis(400);
    let plan = FaultPlanGen::new(seed, gen_cfg).generate();
    let mut cfg = config(
        seed,
        Strategy::MittOs {
            deadline: Duration::from_millis(15),
        },
    );
    cfg.nodes = 6;
    cfg.faults = plan;
    cfg.resilience = Some(ResilienceConfig::default());
    cfg
}

#[test]
fn generated_plan_same_seed_is_byte_identical() {
    // The plan generator is a pure function of its seed and config: two
    // generators built the same way emit digest-identical plans, and a
    // single generator's successive plans differ but replay identically.
    let topo = Topology::new(6, 3, 2);
    let cfg = || PlanGenConfig::baseline(topo.catalog());
    let a = FaultPlanGen::new(31, cfg()).generate();
    let b = FaultPlanGen::new(31, cfg()).generate();
    assert_eq!(a.digest(), b.digest(), "same-seed plans diverged");
    assert_ne!(
        FaultPlanGen::new(31, cfg()).generate().digest(),
        FaultPlanGen::new(32, cfg()).generate().digest(),
        "plan digest is insensitive to the generator seed"
    );
}

#[test]
fn generated_chaos_run_same_seed_same_digest() {
    // End to end through plangen: generator -> correlated + gray windows
    // -> traced cluster run, twice, digest-identical. This is the same
    // identity fig_chaos asserts, pinned here as a tier-1 test.
    let (first, second) = double_run(|h| {
        let res = run_experiment(chaos_config(33));
        assert!(res.injected_faults > 0, "the generated plan must fire");
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "generated chaos runs from seed 33 diverged: {first:#018x} vs {second:#018x}"
    );
}

#[test]
fn tsl_run_same_seed_same_digest() {
    // Timelines, burn-rate alerts, and flight dumps are all derived from
    // the virtual clock: two tsl-enabled chaos runs from the same seed
    // fold to identical digests (tsl state included via fold_result).
    let (first, second) = double_run(|h| {
        let mut cfg = chaos_config(34);
        cfg.tsl = Some(TslConfig::default());
        let res = run_experiment(cfg);
        assert!(res.tsl.is_enabled(), "tsl sink must be wired through");
        fold_result(h, &res);
    });
    assert_eq!(
        first, second,
        "tsl-enabled chaos runs from seed 34 diverged: {first:#018x} vs {second:#018x}"
    );
}

#[test]
fn tsl_is_trace_digest_neutral() {
    // mitt-tsl observes decisions and completions that already happen; it
    // may not consume RNG draws, schedule events, or perturb the trace.
    // Fold everything *except* the tsl state itself: enabled vs disabled
    // must agree byte-for-byte (trace-only observation stays identical).
    let digest_of = |tsl: Option<TslConfig>| {
        let mut h = Fnv1a::new();
        let mut cfg = chaos_config(35);
        cfg.tsl = tsl;
        let res = run_experiment(cfg);
        h.write_u64(res.ops);
        h.write_u64(res.ebusy);
        h.write_u64(res.finished_at.as_nanos());
        h.write_u64_slice(res.get_latencies.samples());
        res.trace.fold_digest(&mut h);
        h.write_str(&res.trace.export_chrome_json());
        h.finish()
    };
    assert_eq!(
        digest_of(Some(TslConfig::default())),
        digest_of(None),
        "enabling mitt-tsl changed the run digest"
    );
}

#[test]
fn tsl_export_and_flight_dumps_are_byte_identical_across_runs() {
    // The mitt-tsl/v1 export and every flight-recorder dump digest are
    // part of the determinism contract: a seeded chaos plan replayed from
    // scratch reproduces them byte-for-byte.
    let run = || {
        let mut cfg = chaos_config(36);
        cfg.trace = true;
        cfg.tsl = Some(TslConfig {
            window: Duration::from_millis(20),
            ..TslConfig::default()
        });
        run_experiment(cfg)
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.tsl.export_json(),
        b.tsl.export_json(),
        "same-seed mitt-tsl/v1 exports diverged"
    );
    let da = a.tsl.flight_dumps();
    let db = b.tsl.flight_dumps();
    assert_eq!(da.len(), db.len());
    for (x, y) in da.iter().zip(&db) {
        assert_eq!(x.digest(), y.digest(), "flight dump {} diverged", x.id);
    }
}

/// The `config` cluster on noop disks: the MittNoop admission path.
fn noop_config(seed: u64) -> ExperimentConfig {
    let mut cfg = config(
        seed,
        Strategy::MittOs {
            deadline: Duration::from_millis(15),
        },
    );
    cfg.node_cfg = NodeConfig::disk_noop();
    cfg
}

/// A CFQ cluster whose node 0 takes short, frequent bursts of
/// top-priority reads, with trace and tsl on: IOs admitted between bursts
/// sit in the CFQ queues when the next burst arrives, so MittCFQ bumps
/// them (late EBUSY).
fn bump_config(seed: u64) -> ExperimentConfig {
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
    cfg.tsl = Some(TslConfig::default());
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

/// The `config` cluster with §7.7 error injection on both sides: the
/// injector's RNG draws and flipped decisions are part of the digest.
fn inject_config(seed: u64) -> ExperimentConfig {
    let mut cfg = config(
        seed,
        Strategy::MittOs {
            deadline: Duration::from_millis(15),
        },
    );
    cfg.node_cfg.inject = Some((0.1, 0.1));
    cfg
}

/// Tiered nodes (disk + SSD + page cache) under rotating cache swap-out
/// and SSD write noise, with a cluster-wide `PredictorBias` window in the
/// middle of the run, trace and tsl on. The cache class covers MittCache
/// EBUSY, the background refill and cache `FaultWindow` blame; the SSD
/// class covers MittSSD EBUSY and its `FaultWindow` blame.
fn tiered_config(seed: u64, medium: Medium, via_cache: bool) -> ExperimentConfig {
    let at = |ms: u64| SimTime::ZERO + Duration::from_millis(ms);
    let deadline = if via_cache {
        Duration::from_micros(100)
    } else {
        Duration::from_millis(2)
    };
    let mut cfg = ExperimentConfig::micro(NodeConfig::tiered(), Strategy::MittOs { deadline });
    cfg.seed = seed;
    cfg.clients = 3;
    cfg.ops_per_client = 60;
    cfg.record_count = 20_000;
    cfg.medium = medium;
    cfg.via_cache = via_cache;
    cfg.preload_cache = via_cache;
    cfg.think_time = Duration::from_millis(5);
    cfg.trace = true;
    cfg.tsl = Some(TslConfig::default());
    let horizon = Duration::from_secs(600);
    cfg.noise = vec![
        NoiseStream {
            kind: NoiseKind::CacheSwap,
            schedules: rotating_schedule(3, Duration::from_millis(200), horizon, 30),
        },
        NoiseStream {
            kind: NoiseKind::SsdWrites { len: 64 << 10 },
            schedules: rotating_schedule(3, Duration::from_secs(1), horizon, 4),
        },
    ];
    cfg.faults = FaultPlan::new().predictor_bias(
        None,
        at(150),
        Duration::from_millis(300),
        1.5,
        Duration::from_micros(200),
    );
    cfg
}

/// An audited single-node trace replay (§7.6) with a `PredictorBias`
/// window and tracing on; the digest covers every audit pair (MittOS and
/// naive) and the replay's trace.
fn audit_replay_digest(seed: u64) -> u64 {
    let mut rng = mittos_repro::sim::SimRng::new(seed);
    let trace = TraceSpec::tpcc().generate(Duration::from_secs(4), &mut rng);
    let plan = FaultPlan::new().predictor_bias(
        Some(0),
        SimTime::ZERO + Duration::from_secs(1),
        Duration::from_secs(1),
        2.0,
        Duration::from_millis(1),
    );
    let out = replay_audit_traced(
        NodeConfig::disk_cfq(),
        Medium::Disk,
        &trace,
        1.0,
        seed,
        plan,
        REPLAY_RING,
    );
    let mut h = Fnv1a::new();
    for p in out.pairs.iter().chain(&out.naive_pairs) {
        h.write_u64(p.predicted_wait.as_nanos());
        h.write_u64(p.actual_wait.as_nanos());
        h.write_u64(u64::from(p.would_reject));
        h.write_u64(p.deadline.as_nanos());
    }
    out.trace.fold_digest(&mut h);
    h.finish()
}

/// Run digests pinned at a known-good commit. The double-run tests above
/// only compare two runs of the same build, so a change that alters
/// behaviour but stays deterministic passes them; these constants catch it.
/// An engine change that claims "same behaviour" must leave every one of
/// them untouched.
///
/// To regenerate after a deliberate behaviour change, run
/// `cargo test --test determinism golden -- --nocapture`: the failure
/// message lists every run's current digest in this table's format.
const GOLDEN_DIGESTS: [(&str, u64); 16] = [
    ("config/base/21", 0x218c0b21de18c9c0),
    ("config/mittos/21", 0xad50989445b3df27),
    ("ssd_config/23", 0x396929dd2f56f4a3),
    ("lsm_config/24", 0xba7c0752704e9515),
    ("faulted_config/26", 0xd2377d93699c377e),
    ("chaos_config+tsl/34", 0xdd80e2c86b8268ae),
    ("chrome_export/config/25", 0x3225449ab1abe32b),
    ("noop_config/37", 0xab78eed04a3f56b9),
    ("tiered_config+bias/38", 0x554cce07cd3ec4e2),
    ("inject_config/39", 0x2c6b142982db286e),
    ("audit_replay/40", 0xbc381a1f2d0e4ce5),
    ("tsl_export/chaos_config+tsl/34", 0x0ec3d98b214b3132),
    ("tiered_config+256k_writes/41", 0x0eecda0a88b0c3e5),
    ("lsm_churn_config/42", 0xd2fe8553a5086123),
    ("noop_config+tsl/43", 0xef63acfb0bbb1b17),
    ("bump_config+tsl/44", 0x51dd57c5de2d38b4),
];

fn golden_run_digests() -> Vec<(&'static str, u64)> {
    let mittos = Strategy::MittOs {
        deadline: Duration::from_millis(15),
    };
    let digest_of = |cfg: ExperimentConfig| {
        let mut h = Fnv1a::new();
        fold_result(&mut h, &run_experiment(cfg));
        h.finish()
    };
    let mut chaos = chaos_config(34);
    chaos.tsl = Some(TslConfig::default());
    let chaos = run_experiment(chaos);
    let mut chaos_run = Fnv1a::new();
    fold_result(&mut chaos_run, &chaos);
    let mut tsl_export = Fnv1a::new();
    tsl_export.write_str(&chaos.tsl.export_json());
    let traced = run_experiment(config(25, mittos.clone()));
    let mut export = Fnv1a::new();
    export.write_str(&traced.trace.export_chrome_json());
    export.write_str(&traced.trace.report_text());
    let mut tiered = Fnv1a::new();
    fold_result(
        &mut tiered,
        &run_experiment(tiered_config(38, Medium::Disk, true)),
    );
    fold_result(
        &mut tiered,
        &run_experiment(tiered_config(38, Medium::Ssd, false)),
    );
    // SSD-class tiered run whose noise writes span 17 pages each, so every
    // write's sub-IO completions interleave with the rest of the calendar.
    let mut wide_writes = tiered_config(41, Medium::Ssd, false);
    wide_writes.noise[1].kind = NoiseKind::SsdWrites { len: 256 << 10 };
    // The two tsl-on runs whose timelines no other golden reaches: Noop
    // dispatches, and MittCFQ bumps (late EBUSY) on a CFQ disk. Each digest
    // covers the run and its exported timeline.
    let tsl_digest = |cfg: ExperimentConfig| {
        let res = run_experiment(cfg);
        let mut h = Fnv1a::new();
        fold_result(&mut h, &res);
        h.write_str(&res.tsl.export_json());
        h.finish()
    };
    let mut noop_tsl = noop_config(43);
    noop_tsl.tsl = Some(TslConfig::default());
    vec![
        ("config/base/21", digest_of(config(21, Strategy::Base))),
        ("config/mittos/21", digest_of(config(21, mittos))),
        ("ssd_config/23", digest_of(ssd_config(23))),
        ("lsm_config/24", digest_of(lsm_config(24))),
        ("faulted_config/26", digest_of(faulted_config(26))),
        ("chaos_config+tsl/34", chaos_run.finish()),
        ("chrome_export/config/25", export.finish()),
        ("noop_config/37", digest_of(noop_config(37))),
        ("tiered_config+bias/38", tiered.finish()),
        ("inject_config/39", digest_of(inject_config(39))),
        ("audit_replay/40", audit_replay_digest(40)),
        ("tsl_export/chaos_config+tsl/34", tsl_export.finish()),
        ("tiered_config+256k_writes/41", digest_of(wide_writes)),
        ("lsm_churn_config/42", digest_of(lsm_churn_config(42))),
        ("noop_config+tsl/43", tsl_digest(noop_tsl)),
        ("bump_config+tsl/44", tsl_digest(bump_config(44))),
    ]
}

#[test]
fn golden_digests_are_unchanged() {
    let got = golden_run_digests();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let pinned: Vec<(&str, u64)> = GOLDEN_DIGESTS.to_vec();
    assert_eq!(
        pinned, got,
        "run digests drifted from the pinned goldens; if the behaviour change \
         is deliberate, replace GOLDEN_DIGESTS with:\n{table}"
    );
}

#[test]
fn different_seed_different_digest() {
    // Sanity check that the digest actually covers the run: if it never
    // changed, same_seed_same_digest would pass vacuously.
    let strategy = Strategy::MittOs {
        deadline: Duration::from_millis(15),
    };
    let digest_of = |seed: u64| {
        let mut h = Fnv1a::new();
        let res = run_experiment(config(seed, strategy.clone()));
        fold_result(&mut h, &res);
        h.finish()
    };
    assert_ne!(
        digest_of(21),
        digest_of(22),
        "digest is insensitive to the seed; it cannot be covering the run"
    );
}

/// The bump golden pins the late-EBUSY timeline records only while
/// MittCFQ really bumps in it.
#[test]
fn bump_config_bumps_queued_ios() {
    let res = run_experiment(bump_config(44));
    let bumped = res.trace.metrics().counter_total("mittcfq.bumped");
    assert!(bumped > 0, "no IO was bumped");
}
