//! Observability integration tests (`mitt-obs` over the full stack):
//! SLO-attribution invariants on traced cluster runs, every submitted IO
//! resolving in the trace, calibration telemetry vs the audit-mode
//! classifier, and the machine-readable bench-report round trip with its
//! regression gate.

use std::collections::BTreeMap;

// The example's `main` is unused here; the test calls its `run`.
#[allow(dead_code)]
#[path = "../examples/trace_run.rs"]
mod trace_run;

use mittos_repro::cluster::{
    run_experiment, ExperimentConfig, InitialReplica, Medium, Node, NodeConfig, NoiseKind,
    NoiseStream, ReadOutcome, ReadReq, Strategy,
};
use mittos_repro::device::{IoClass, ProcessId, GB};
use mittos_repro::faults::{FaultKind, FaultPlan, FaultScope, NodeCtx, ScopeLabel};
use mittos_repro::obs::attribution::AttributionSummary;
use mittos_repro::obs::calibration::{
    chrome_export_with_counters, CalibrationConfig, CalibrationStream,
};
use mittos_repro::obs::replay::{p95_wait, replay_audit_traced, REPLAY_RING};
use mittos_repro::obs::{
    chrome_export_with_timeline, verify_attribution_invariants, BenchReport, CalibrationRow,
    JsonValue, StrategyRow,
};
use mittos_repro::sim::digest::Fnv1a;
use mittos_repro::sim::{Duration, EventQueue, SimRng, SimTime};
use mittos_repro::trace::{EventKind, Resource, Subsystem, TraceEvent, TraceSink};
use mittos_repro::tsl::TslConfig;
use mittos_repro::workload::{rotating_schedule, NoiseBurst, TraceSpec};

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

/// Walks the node-level events of a drained run and checks that every
/// `Submit` is closed, later, by exactly one terminal event for the same
/// `(node, io)`: a `Complete`, a `Reject` (EBUSY at admission or a late
/// bump), or a `Revoke` (a tied copy withdrawn while queued). Returns the
/// (completed, rejected, revoked) counts.
fn every_submit_resolves(name: &str, events: &[TraceEvent]) -> (u64, u64, u64) {
    let mut open: BTreeMap<(u32, u64), SimTime> = BTreeMap::new();
    let (mut completed, mut rejected, mut revoked) = (0, 0, 0);
    for ev in events.iter().filter(|ev| ev.subsystem == Subsystem::Node) {
        let (io, counter) = match ev.kind {
            EventKind::Submit { io, .. } => {
                let again = open.insert((ev.node, io), ev.at);
                assert!(
                    again.is_none(),
                    "{name}: node {} resubmitted io {io}",
                    ev.node
                );
                continue;
            }
            EventKind::Complete { io, .. } => (io, &mut completed),
            EventKind::Reject { io, .. } => (io, &mut rejected),
            EventKind::Revoke { io } => (io, &mut revoked),
            _ => continue,
        };
        assert!(
            open.remove(&(ev.node, io)).is_some(),
            "{name}: node {} resolved io {io} at {:?} with no open Submit",
            ev.node,
            ev.at
        );
        *counter += 1;
    }
    assert!(
        open.is_empty(),
        "{name}: {} submitted IOs never resolved, first (node, io) and submit time: {:?}",
        open.len(),
        open.iter().next()
    );
    (completed, rejected, revoked)
}

#[test]
fn every_submitted_io_completes_in_an_audit_replay() {
    // Audit mode never enforces EBUSY, and the replay runs until its event
    // queue is empty, so every node-level Submit must meet its Complete.
    for (name, cfg, medium, spec, rerate) in [
        (
            "cfq",
            NodeConfig::disk_cfq(),
            Medium::Disk,
            TraceSpec::tpcc(),
            1.0,
        ),
        (
            "noop",
            NodeConfig::disk_noop(),
            Medium::Disk,
            TraceSpec::tpcc(),
            1.0,
        ),
        (
            "ssd",
            NodeConfig::ssd(),
            Medium::Ssd,
            TraceSpec::dtrs(),
            128.0,
        ),
    ] {
        let trace = spec.generate(Duration::from_secs(2), &mut SimRng::new(70));
        let out = replay_audit_traced(
            cfg,
            medium,
            &trace,
            rerate,
            71,
            FaultPlan::new(),
            REPLAY_RING,
        );
        assert_eq!(
            out.trace.dropped(),
            0,
            "{name}: ring too small for the replay"
        );
        let (completed, rejected, revoked) = every_submit_resolves(name, &out.trace.events());
        assert!(completed > 0, "{name}: no IO completed");
        assert_eq!(
            (rejected, revoked),
            (0, 0),
            "{name}: audit mode neither rejects nor revokes"
        );
    }
}

#[test]
fn every_submitted_io_completes_or_is_rejected_when_enforcing() {
    // One CFQ node driven until idle. Eight no-deadline fillers from
    // another process fill the queues; a deadline read is admitted with
    // ~5ms to spare over its ~50ms predicted wait; two RealTime reads jump
    // ahead and bump it (late EBUSY); four 1ms-deadline reads are rejected
    // at admission.
    let mut node = Node::new(0, NodeConfig::disk_cfq(), &mut SimRng::new(72));
    let trace = TraceSink::enabled(1 << 12);
    node.set_ctx(&NodeCtx {
        trace: trace.clone(),
        ..NodeCtx::disabled()
    });
    let read = |gb: u64| ReadReq::client(gb * GB, 4096, ProcessId(1));
    let victim = read(100).with_deadline(Duration::from_millis(55));
    let urgent = |gb: u64| read(gb).with_ionice(IoClass::RealTime, 4);
    let filler = |gb: u64| ReadReq::client(gb * GB, 4096, ProcessId(9));
    let mut reqs: Vec<ReadReq> = (0..8).map(|i| filler(900 - 10 * i)).collect();
    reqs.extend([victim, urgent(200), urgent(300)]);
    reqs.extend((0..4).map(|i| read(400 + 50 * i).with_deadline(Duration::from_millis(1))));
    let (mut first, mut busy, mut bumped) = (None, 0, 0);
    for req in &reqs {
        let sub = node.submit_read(req, SimTime::ZERO);
        bumped += sub.bumped.len();
        match sub.outcome {
            ReadOutcome::Submitted { ticks, .. } => first = first.or(ticks.disk),
            ReadOutcome::Busy { .. } => busy += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(
        bumped > 0,
        "the RealTime reads must bump the queued deadline read"
    );
    assert!(
        busy > 0,
        "deadline reads behind the backlog must be rejected"
    );
    let mut tick = first;
    while let Some(s) = tick {
        tick = node.on_disk_tick(s.done_at).next;
    }
    assert_eq!(trace.dropped(), 0);
    let (completed, rejected, revoked) = every_submit_resolves("enforcing", &trace.events());
    assert_eq!(rejected, (busy + bumped) as u64);
    assert_eq!(completed as usize, reqs.len() - busy - bumped);
    assert_eq!(revoked, 0);
}

#[test]
fn every_submitted_io_completes_or_is_revoked_in_a_tied_run() {
    // Two CFQ nodes, each behind eight no-deadline fillers, serve six tied
    // reads: every read goes to both nodes, and when one copy reaches its
    // disk head the other copy is revoked if it is still queued
    // (`Node::cancel_read`), as the cluster's tied strategy does. Driven
    // until both disks are idle, every Submit must end in a Complete or a
    // Revoke, and some copies must be revoked.
    let trace = TraceSink::enabled(1 << 12);
    let mut nodes: Vec<Node> = (0..2)
        .map(|i| {
            let mut node = Node::new(i, NodeConfig::disk_cfq(), &mut SimRng::new(73 + i as u64));
            node.set_ctx(&NodeCtx {
                trace: trace.clone(),
                ..NodeCtx::disabled()
            });
            node
        })
        .collect();
    let read = |gb: u64, owner: u32| ReadReq::client(gb * GB, 4096, ProcessId(owner));
    let mut q = EventQueue::new();
    let mut twin = BTreeMap::new();
    let mut submit = |nodes: &mut [Node], node: usize, req: &ReadReq| match nodes[node]
        .submit_read(req, SimTime::ZERO)
        .outcome
    {
        ReadOutcome::Submitted { io, ticks } => {
            if let Some(s) = ticks.disk {
                q.schedule(s.done_at, node);
            }
            io
        }
        other => panic!("no-deadline reads are admitted, got {other:?}"),
    };
    for node in 0..2 {
        for i in 0..8 {
            submit(&mut nodes, node, &read(900 - 10 * i - 5 * node as u64, 9));
        }
    }
    let mut submitted = 16;
    for k in 0..6 {
        let req = read(100 + 50 * k, 1);
        let copies = [submit(&mut nodes, 0, &req), submit(&mut nodes, 1, &req)];
        twin.insert((0, copies[0]), (1, copies[1]));
        twin.insert((1, copies[1]), (0, copies[0]));
        submitted += 2;
    }
    let mut revoked_here = 0;
    while let Some((now, node)) = q.pop() {
        let out = nodes[node].on_disk_tick(now);
        if let Some(next) = out.next {
            q.schedule(next.done_at, node);
            if let Some((other, copy)) = twin.remove(&(node, next.id)) {
                twin.remove(&(other, copy));
                revoked_here += usize::from(nodes[other].cancel_read(copy, now));
            }
        }
    }
    assert_eq!(trace.dropped(), 0);
    let (completed, rejected, revoked) = every_submit_resolves("tied", &trace.events());
    assert!(revoked > 0, "no tied copy was revoked while queued");
    assert_eq!(revoked as usize, revoked_here);
    assert_eq!(rejected, 0);
    assert_eq!(completed as usize + revoked as usize, submitted);
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

/// Each predictor's `(name, total, rejected, false_pos, false_neg)`, and
/// the FNV-1a digest of the counter-track Chrome export.
type CalibrationPin = (Vec<(&'static str, u64, u64, u64, u64)>, u64);

/// The [`CalibrationPin`] of one sink.
fn calibration_pin(sink: &TraceSink, cfg: CalibrationConfig) -> CalibrationPin {
    let stream = CalibrationStream::from_sink(sink, cfg);
    let counts = stream
        .stats()
        .iter()
        .map(|(name, s)| (*name, s.total, s.rejected, s.false_pos, s.false_neg))
        .collect();
    let mut h = Fnv1a::new();
    h.write_str(&chrome_export_with_counters(sink, cfg));
    (counts, h.finish())
}

#[test]
fn calibration_counts_and_counter_export_are_pinned() {
    // A faulted, enforcing cluster run: the join closes on Reject as well
    // as on Complete, and a bias window makes the predictor misclassify.
    let res = run_experiment(faulted_traced_config(62));
    assert_eq!(res.trace.dropped(), 0, "ring too small for the run");
    assert_eq!(
        calibration_pin(&res.trace, CalibrationConfig::default()),
        (vec![("mittcfq", 357, 121, 0, 19)], 0x0b16_8c79_5614_3aa7),
        "faulted cluster run"
    );

    // Audit replays: CFQ classified as Figure 9 does, at the replay's p95;
    // SSD at the placeholder deadline each `Predict` event carries.
    for (name, node, medium, spec, rerate, at_p95, pin) in [
        (
            "cfq",
            NodeConfig::disk_cfq(),
            Medium::Disk,
            TraceSpec::tpcc(),
            1.0,
            true,
            (vec![("mittcfq", 158, 0, 2, 5)], 0x3df2_1368_51c5_e46e),
        ),
        (
            "ssd",
            NodeConfig::ssd(),
            Medium::Ssd,
            TraceSpec::dtrs(),
            128.0,
            false,
            (vec![("mittssd", 142, 0, 0, 0)], 0xc019_4b93_f5ad_711a),
        ),
    ] {
        let trace = spec.generate(Duration::from_secs(5), &mut SimRng::new(80));
        let out = replay_audit_traced(
            node,
            medium,
            &trace,
            rerate,
            81,
            FaultPlan::new(),
            REPLAY_RING,
        );
        assert_eq!(out.trace.dropped(), 0, "{name}: ring too small");
        let cfg = CalibrationConfig {
            hop: mittos_repro::os::DEFAULT_HOP,
            deadline_override: at_p95.then(|| p95_wait(&out.pairs)),
        };
        assert_eq!(calibration_pin(&out.trace, cfg), pin, "{name} audit replay");
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
    assert!(report.compare(&parsed).is_empty());

    // A degraded run fails it: p95 regression and calibration drift.
    let mut degraded = parsed;
    degraded.strategies[0].p95_ms *= 2.0;
    degraded.calibration[0].inaccuracy_pct += 5.0;
    let regressions = report.compare(&degraded);
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
    assert!(report.compare(&parsed).is_empty());
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

#[test]
fn trace_run_writes_a_chrome_trace_a_v1_profile_and_folded_stacks() {
    let dir = std::env::temp_dir().join(format!("mitt-trace-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("t.json");
    trace_run::run(&out);
    let read = |ext: &str| std::fs::read_to_string(out.with_extension(ext)).expect("output");
    let parse = |ext: &str| JsonValue::parse(&read(ext)).expect("well-formed JSON");
    let arr = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_arr).unwrap().to_vec();
    let num = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_num).unwrap();
    let text = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_str).map(String::from);

    // The Chrome trace carries calibration counter tracks and the cluster's
    // per-hop network events.
    let events = arr(&parse("json"), "traceEvents");
    assert!(!events.is_empty(), "empty trace");
    assert!(events.iter().any(|e| text(e, "ph").as_deref() == Some("C")));
    assert!(events
        .iter()
        .any(|e| text(e, "name").as_deref() == Some("net_hop")));

    // Every phase row carries its timed-activation count, and dispatch was
    // sampled: some but not all of its activations timed.
    let prof = parse("prof.json");
    assert_eq!(text(&prof, "schema").as_deref(), Some("mitt-prof/v1"));
    let phases = arr(&prof, "phases");
    assert_eq!((phases.len(), arr(&prof, "alloc").len()), (7, 7));
    assert!(num(&prof, "ios_submitted") > 0.0 && num(&prof, "events_dispatched") > 0.0);
    assert!(phases.iter().all(|p| num(p, "timed") <= num(p, "count")));
    let dispatch = phases
        .iter()
        .find(|p| text(p, "phase").as_deref() == Some("dispatch"))
        .expect("dispatch row");
    assert!(0.0 < num(dispatch, "timed") && num(dispatch, "timed") < num(dispatch, "count"));

    assert!(read("folded")
        .lines()
        .any(|l| l.starts_with("engine;dispatch ")));
    std::fs::remove_dir_all(&dir).expect("clean up");
}
