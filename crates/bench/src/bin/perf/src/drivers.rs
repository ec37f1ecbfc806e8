//! Layer drivers: the harness calls each layer's public functions directly
//! and reports raw wall nanoseconds per call (milliseconds for the two
//! set-up drivers), the median of several batches.
//!
//! The ten cases of the retired criterion bench (`benches/micro.rs`) keep
//! that bench's inputs, so the §3.3/§4 micro-cost table stays comparable.
//! The set-up drivers and the YCSB driver take the workload's own configs.

use std::hint::black_box;

use mitt_cluster::{BtreeConfig, BtreePlanner, ClusterSim, ExperimentConfig};
use mitt_device::{BlockIo, Disk, DiskSpec, IoClass, IoIdGen, ProcessId, Ssd, SsdSpec, GB};
use mitt_lsm::{LsmConfig, LsmEngine};
use mitt_oscache::{PageCache, PageCacheConfig};
use mitt_prof::{Phase, ProfSink};
use mitt_sched::{Cfq, CfqConfig, DiskScheduler};
use mitt_sim::dist::Zipfian;
use mitt_sim::{Duration, EventQueue, SimRng, SimTime};
use mitt_trace::{EventKind, Subsystem, TraceSink, DEFAULT_RING_CAPACITY};
use mitt_tsl::{TslConfig, TslSink};
use mitt_workload::{KeyDist, YcsbConfig, YcsbGenerator};
use mittos::{DiskProfile, MittCache, MittCfq, MittNoop, MittSsd, Slo, SsdProfile, DEFAULT_HOP};

use crate::measure::{median, timed};
use crate::workloads::Arm;

/// Batches per driver; the driver's value is their median.
const BATCHES: usize = 5;

/// Wall nanoseconds per call of `f` over `calls` calls.
fn per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let ((), ns) = timed(|| (0..calls).for_each(&mut f));
    ns as f64 / calls as f64
}

/// How much work each driver does: a smoke run makes 1% of the calls in a
/// single batch.
#[derive(Debug, Clone, Copy)]
struct Effort {
    smoke: bool,
}

impl Effort {
    fn calls(self, n: u64) -> u64 {
        if self.smoke {
            (n / 100).max(1)
        } else {
            n
        }
    }

    /// Median of the batches' values.
    fn median(self, mut batch: impl FnMut() -> f64) -> f64 {
        let batches = if self.smoke { 1 } else { BATCHES };
        median(&(0..batches).map(|_| batch()).collect::<Vec<_>>())
    }
}

/// Runs every driver; `arms` shape the set-up and YCSB drivers. Returns
/// `(metric name, raw value)` pairs in catalogue order.
pub(crate) fn run(arms: &[Arm], smoke: bool) -> Vec<(&'static str, f64)> {
    let e = Effort { smoke };
    let configs: Vec<ExperimentConfig> = arms.iter().map(Arm::config).collect();
    let mut out = Vec::new();

    // simcore: the event calendar, 256 pseudo-random times per round.
    out.push((
        "simcore.schedule_pop_ns",
        e.median(|| {
            per_call(e.calls(1_000), |_| {
                let mut q = EventQueue::<u32>::new();
                for i in 0..256u32 {
                    q.schedule(
                        SimTime::from_nanos(u64::from(i.wrapping_mul(2_654_435_761))),
                        i,
                    );
                }
                while q.pop().is_some() {}
            }) / 256.0
        }),
    ));
    let zipf = Zipfian::new(e.calls(10_000_000), 0.99);
    let mut rng = SimRng::new(1);
    out.push((
        "simcore.zipfian_ns",
        e.median(|| {
            per_call(e.calls(500_000), |_| {
                black_box(zipf.sample_index(&mut rng));
            })
        }),
    ));

    // workload: the cluster's own key generator, and input generation.
    let cfg = &configs[0];
    let ycsb = YcsbGenerator::new(YcsbConfig {
        record_count: cfg.record_count,
        value_size: cfg.read_len,
        read_fraction: 1.0 - cfg.write_fraction,
        key_dist: KeyDist::Zipfian { theta: 0.99 },
    });
    out.push((
        "workload.ycsb_next_op_ns",
        e.median(|| {
            per_call(e.calls(500_000), |_| {
                black_box(ycsb.next_op(&mut rng));
            })
        }),
    ));
    out.push((
        "workload.noise_gen_ms",
        e.median(|| {
            per_call(1, |_| {
                for arm in arms {
                    black_box(arm.config());
                }
            }) / 1e6
        }),
    ));

    // device: the disk service model and SSD page-level service of a
    // 256 KB (64-page) write, the shape of `tiered3`'s SSD noise.
    let spec = DiskSpec::default();
    let mut from = 0u64;
    out.push((
        "device.disk_service_ns",
        e.median(|| {
            per_call(e.calls(1_000_000), |_| {
                from = (from + 31 * GB) % (900 * GB);
                black_box(spec.expected_service(black_box(from), 500 * GB, 4096));
            })
        }),
    ));
    let mut ssd = Ssd::new(SsdSpec::default(), SimRng::new(1));
    let mut ids = IoIdGen::new();
    out.push((
        "device.ssd_page_ns",
        e.median(|| {
            per_call(e.calls(5_000), |i| {
                let io = BlockIo::write(
                    ids.next_id(),
                    i * (256 << 10),
                    256 << 10,
                    ProcessId(9),
                    SimTime::ZERO,
                );
                for sub in ssd.submit(&io, SimTime::ZERO).subs {
                    ssd.complete_sub(sub.channel, SimTime::ZERO);
                }
            }) / 64.0
        }),
    ));

    // sched: a CFQ enqueue + SSTF dispatch + completion cycle of 32 IOs
    // on a fresh scheduler and disk (built outside the timed region).
    out.push((
        "sched.cfq_cycle_ns",
        e.median(|| {
            let mut rigs: Vec<_> = (0..e.calls(500))
                .map(|_| {
                    (
                        Cfq::new(CfqConfig::default()),
                        Disk::new(DiskSpec::default(), SimRng::new(1)),
                        IoIdGen::new(),
                    )
                })
                .collect();
            let mut rigs = rigs.iter_mut();
            per_call(e.calls(500), |_| {
                let (sched, disk, ids) = rigs.next().expect("one rig per cycle");
                cfq_cycle(sched, disk, ids);
            })
        }),
    ));

    // core: the four predictors.
    let profile = DiskProfile::from_spec(&DiskSpec::default());
    let mut noop = MittNoop::new(profile, DEFAULT_HOP);
    let mut offset = 0u64;
    out.push((
        "core.mittnoop_admit_ns",
        e.median(|| {
            per_call(e.calls(1_000_000), |_| {
                offset = (offset + 7_777_777_777) % (900 * GB);
                let io = BlockIo::read(ids.next_id(), offset, 4096, ProcessId(1), SimTime::ZERO)
                    .with_deadline(Duration::from_millis(20));
                let d = noop.admit(black_box(&io), SimTime::ZERO);
                noop.on_complete(io.id, Duration::from_millis(5));
                black_box(d);
            })
        }),
    ));
    for (name, processes) in [
        ("core.mittcfq_predict_p1_ns", 1u32),
        ("core.mittcfq_predict_p16_ns", 16),
        ("core.mittcfq_predict_p128_ns", 128),
    ] {
        let mut cfq = MittCfq::new(profile, DEFAULT_HOP);
        for i in 0..processes * 4 {
            let io = BlockIo::read(
                ids.next_id(),
                u64::from(i) * 1_000_000,
                4096,
                ProcessId(i % processes),
                SimTime::ZERO,
            );
            cfq.account(&io, SimTime::ZERO);
        }
        out.push((
            name,
            e.median(|| {
                per_call(e.calls(200_000), |_| {
                    black_box(cfq.predicted_wait(
                        IoClass::BestEffort,
                        4,
                        ProcessId(0),
                        SimTime::ZERO,
                    ));
                })
            }),
        ));
    }
    let ssd_spec = SsdSpec::default();
    let mut mitt_ssd = MittSsd::new(&ssd_spec, SsdProfile::from_spec(&ssd_spec), DEFAULT_HOP);
    let mut lpn = 0u64;
    out.push((
        "core.mittssd_admit_ns",
        e.median(|| {
            per_call(e.calls(1_000_000), |_| {
                lpn = (lpn + 1) % 100_000;
                let io = BlockIo::read(
                    ids.next_id(),
                    lpn * u64::from(ssd_spec.page_size),
                    4096,
                    ProcessId(1),
                    SimTime::ZERO,
                )
                .with_deadline(Duration::from_millis(100));
                let d = mitt_ssd.admit(black_box(&io), SimTime::ZERO);
                mitt_ssd.on_complete_sub(io.id, 0, ssd_spec.read_page, ssd_spec.chip_of_page(lpn));
                black_box(d);
            })
        }),
    ));
    let mut cache = PageCache::new(PageCacheConfig::default());
    for i in 0..10_000u64 {
        cache.insert_range(i * 4096, 4096);
    }
    let mitt_cache = MittCache::new(Duration::from_millis(2));
    let slo = Some(Slo::deadline(Duration::from_micros(100)));
    let mut off = 0u64;
    out.push((
        "core.mittcache_check_ns",
        e.median(|| {
            per_call(e.calls(1_000_000), |_| {
                off = (off + 4096) % (10_000 * 4096);
                black_box(mitt_cache.check(&cache, black_box(off), 4096, slo, SimTime::ZERO));
            })
        }),
    ));

    // oscache: the addrcheck page-table walk over resident pages.
    out.push((
        "oscache.addrcheck_ns",
        e.median(|| {
            per_call(e.calls(1_000_000), |_| {
                off = (off + 4096) % (10_000 * 4096);
                black_box(cache.addrcheck(black_box(off), 4096));
            })
        }),
    ));

    // lsm: lookup plans and puts (flushes and compactions amortised).
    let mut engine = LsmEngine::preloaded(LsmConfig::default());
    let mut key = 0u64;
    out.push((
        "lsm.get_plan_ns",
        e.median(|| {
            per_call(e.calls(50_000), |_| {
                key = (key + 7919) % 1_000_000;
                black_box(engine.get_plan(black_box(key)));
            })
        }),
    ));
    out.push((
        "lsm.put_ns",
        e.median(|| {
            per_call(e.calls(50_000), |_| {
                key = (key + 7919) % 1_000_000;
                black_box(engine.put(black_box(key), 4096));
            })
        }),
    ));

    // cluster: building every arm's simulator, and B-tree page plans.
    out.push((
        "cluster.new_ms",
        e.median(|| {
            per_call(1, |_| {
                for cfg in &configs {
                    black_box(ClusterSim::new(cfg.clone()));
                }
            }) / 1e6
        }),
    ));
    let planner = BtreePlanner::new(BtreeConfig::default(), 10_000_000);
    out.push((
        "cluster.btree_touches_ns",
        e.median(|| {
            per_call(e.calls(500_000), |_| {
                key = (key + 104_729) % 10_000_000;
                black_box(planner.touches(black_box(key)));
            })
        }),
    ));

    // Observability sinks, each enabled and (where it has an off path)
    // disabled.
    for (name, sink) in [
        (
            "trace.emit_on_ns",
            TraceSink::enabled(DEFAULT_RING_CAPACITY),
        ),
        ("trace.emit_off_ns", TraceSink::disabled()),
    ] {
        out.push((
            name,
            e.median(|| {
                per_call(e.calls(1_000_000), |i| {
                    black_box(&sink).emit(
                        SimTime::from_nanos(i),
                        Subsystem::Cluster,
                        EventKind::Mark {
                            name: "perf",
                            value: i,
                        },
                    );
                })
            }),
        ));
    }
    let tsl = TslSink::enabled(
        TslConfig {
            deadline: Duration::from_millis(16),
            ..TslConfig::default()
        },
        "MittOS",
    );
    let mut at = 0u64;
    out.push((
        "tsl.observe_get_on_ns",
        e.median(|| {
            per_call(e.calls(1_000_000), |i| {
                // One get per 100 µs of virtual time, alternating fast and
                // deadline-missing latencies.
                at += 100_000;
                let latency = Duration::from_millis(if i % 2 == 0 { 7 } else { 20 });
                tsl.observe_get(SimTime::from_nanos(at), latency);
            })
        }),
    ));
    for (name, sink) in [
        ("prof.guard_on_ns", ProfSink::enabled()),
        ("prof.guard_off_ns", ProfSink::disabled()),
    ] {
        out.push((
            name,
            e.median(|| {
                per_call(e.calls(1_000_000), |_| {
                    drop(black_box(&sink).phase(Phase::Sched))
                })
            }),
        ));
    }
    out
}

/// Enqueues 32 reads from 4 processes and completes them all.
fn cfq_cycle(sched: &mut Cfq, disk: &mut Disk, ids: &mut IoIdGen) {
    let mut started = None;
    for i in 0..32u64 {
        let io = BlockIo::read(
            ids.next_id(),
            i * 10_000_000,
            4096,
            ProcessId((i % 4) as u32),
            SimTime::ZERO,
        );
        started = started.or(sched.enqueue(io, disk, SimTime::ZERO).started);
    }
    let mut tick = started.expect("an idle disk starts the first IO");
    for _ in 0..32 {
        let (_, out) = sched
            .on_complete(disk, tick.done_at)
            .expect("the ticked IO is in flight");
        match out.started {
            Some(next) => tick = next,
            None => break,
        }
    }
}
