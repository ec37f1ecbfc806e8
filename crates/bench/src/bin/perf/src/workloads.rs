//! The four benchmark workloads.
//!
//! Every traffic-defining field of every arm is written out here rather
//! than taken from `mitt_bench::setups`, a figure binary, or the
//! `ExperimentConfig::cluster20`/`micro` skeletons: a later change to any
//! of those must not silently move the benchmark's traffic. Deadlines are
//! constants, so a different `--seed` changes the inputs but never the SLO.
//!
//! `--seed` is the cluster's root seed: it drives the client key streams,
//! replica picks, device and network jitter, and device profiling. The
//! noise schedules stay the figures' own. Where the bursts land decides
//! most of the tail, so reseeding them would move p99 and the tail cut by
//! more than the bounds the benchmark keeps on them.
//!
//! All workloads are closed loop (each client issues its next request
//! only after the previous one completed and its think time elapsed),
//! single process and single thread; the arms of a workload run one
//! after another.

use mitt_cluster::node::{CacheNodeConfig, DiskNodeConfig};
use mitt_cluster::{
    CpuConfig, ExperimentConfig, InitialReplica, Medium, NodeConfig, NoiseKind, NoiseStream,
    SchedKind, Strategy,
};
use mitt_device::{DiskSpec, IoClass, SsdSpec};
use mitt_lsm::LsmConfig;
use mitt_oscache::PageCacheConfig;
use mitt_sched::CfqConfig;
use mitt_sim::{Duration, SimRng, SimTime};
use mitt_tsl::TslConfig;
use mitt_workload::{NoiseBurst, NoiseGen};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    /// The Fig 5 cluster: 20 disk+CFQ nodes under EC2 bursty disk noise.
    /// Chosen because it is the paper's headline setup. Cluster dispatch,
    /// CFQ and MittCFQ carry the work (about 6 events and 1 IO per get);
    /// SSD, page cache, LSM and every observability sink are bypassed.
    Cfq20,
    /// `Cfq20`'s inputs with trace, tsl and prof all on. Chosen because it
    /// is what every traced figure run pays: the observability layers do
    /// most of their work here and none in `Cfq20`, so the pair isolates
    /// instrumentation cost. Its virtual results must equal `Cfq20`'s.
    Cfq20Obs,
    /// The §7.8.5 all-in-one setup: 3 tiered nodes (disk + SSD + page
    /// cache), three concurrent noises, three user classes. Chosen because
    /// it is the device- and event-queue-heavy case (hundreds of events
    /// and tens of IOs per get, mostly SSD page-level noise service) and
    /// the only workload that exercises MittSSD, MittCache and addrcheck.
    Tiered3,
    /// The Fig 13 cluster: 20 nodes running LSM engines with 5% writes.
    /// Chosen because gets execute multi-IO lookup plans (about 1.2 IOs
    /// per get) plus memtable flushes and compactions, where any step's
    /// EBUSY fails the get over. The only workload that exercises `lsm`.
    Lsm20,
}

impl Workload {
    /// Every workload, in report order.
    pub(crate) const ALL: [Workload; 4] = [
        Workload::Cfq20,
        Workload::Cfq20Obs,
        Workload::Tiered3,
        Workload::Lsm20,
    ];

    /// The name used on the command line and in metric keys.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::Cfq20 => "cfq20",
            Workload::Cfq20Obs => "cfq20_obs",
            Workload::Tiered3 => "tiered3",
            Workload::Lsm20 => "lsm20",
        }
    }

    /// Parses a command-line workload name.
    pub(crate) fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The seed of the figure the workload reproduces.
    pub(crate) fn default_seed(self) -> u64 {
        match self {
            Workload::Cfq20 | Workload::Cfq20Obs => FIG5_SEED,
            Workload::Tiered3 => ALL_IN_ONE_SEED,
            Workload::Lsm20 => FIG13_SEED,
        }
    }

    /// User requests per client: full size, or the smoke size at which
    /// the self-checks still hold.
    pub(crate) fn ops(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Workload::Cfq20 | Workload::Cfq20Obs | Workload::Lsm20, false) => 8_000,
            (Workload::Cfq20 | Workload::Cfq20Obs | Workload::Lsm20, true) => 400,
            (Workload::Tiered3, false) => 1_000,
            (Workload::Tiered3, true) => 40,
        }
    }

    /// The workload's arms, in run order. `ops` is user requests per
    /// client.
    pub(crate) fn arms(self, seed: u64, ops: usize) -> Vec<Arm> {
        let pair = |shape: Shape| {
            [false, true]
                .map(|mittos| Arm {
                    class: "all",
                    mittos,
                    deadline: CLUSTER_DEADLINE,
                    seed,
                    ops,
                    shape,
                })
                .to_vec()
        };
        match self {
            Workload::Cfq20 => pair(Shape::Cfq20 { obs: false }),
            Workload::Cfq20Obs => pair(Shape::Cfq20 { obs: true }),
            Workload::Lsm20 => pair(Shape::Lsm20),
            Workload::Tiered3 => TIERED_CLASSES
                .iter()
                .enumerate()
                .flat_map(|(i, &(class, deadline))| {
                    [false, true].map(move |mittos| Arm {
                        class,
                        mittos,
                        deadline,
                        seed: seed.wrapping_add(i as u64),
                        ops,
                        shape: Shape::Tiered3,
                    })
                })
                .collect(),
        }
    }
}

/// Seeds of the figures the workloads reproduce.
const FIG5_SEED: u64 = 5;
const FIG13_SEED: u64 = 13;
const ALL_IN_ONE_SEED: u64 = 140;

/// The SLO deadline of the 20-node workloads' MittOS arms (about the
/// Base p95 of the Fig 5 cluster).
pub(crate) const CLUSTER_DEADLINE: Duration = Duration::from_millis(16);

/// `tiered3`'s user classes and their deadlines (§7.8.5).
const TIERED_CLASSES: [(&str, Duration); 3] = [
    ("disk", Duration::from_millis(20)),
    ("ssd", Duration::from_millis(2)),
    ("cache", Duration::from_micros(100)),
];

/// How far ahead noise schedules are generated: longer than any arm runs
/// in virtual time.
const NOISE_HORIZON: Duration = Duration::from_secs(3600);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Cfq20 { obs: bool },
    Tiered3,
    Lsm20,
}

/// One arm: a strategy run over one user class of a workload.
#[derive(Debug, Clone)]
pub(crate) struct Arm {
    /// User class (`all` on the single-class workloads).
    pub(crate) class: &'static str,
    /// MittOS (true) or Base (false).
    pub(crate) mittos: bool,
    /// The class's SLO deadline; MittOS arms attach it to every get.
    pub(crate) deadline: Duration,
    seed: u64,
    ops: usize,
    shape: Shape,
}

impl Arm {
    /// User requests the arm must complete.
    pub(crate) fn requested_ops(&self) -> u64 {
        (self.clients() * self.ops) as u64
    }

    fn clients(&self) -> usize {
        match self.shape {
            Shape::Cfq20 { .. } | Shape::Lsm20 => 20,
            Shape::Tiered3 => 3,
        }
    }

    fn strategy(&self) -> Strategy {
        if self.mittos {
            Strategy::MittOs {
                deadline: self.deadline,
            }
        } else {
            Strategy::Base
        }
    }

    /// Builds the arm's experiment, generating its noise schedules. This is
    /// the input-generation half of the benchmark's set-up time.
    pub(crate) fn config(&self) -> ExperimentConfig {
        match self.shape {
            Shape::Cfq20 { obs } => {
                let mut cfg = self.cluster20(2_000_000, ec2_disk_noise(FIG5_SEED ^ 0xD15C));
                cfg.trace = obs;
                cfg.prof = obs;
                cfg.tsl = obs.then(TslConfig::default);
                cfg
            }
            Shape::Lsm20 => {
                let mut cfg =
                    self.cluster20(1_000_000, ec2_disk_noise((FIG13_SEED ^ 0xF13) ^ 0xD15C));
                cfg.write_fraction = 0.05;
                cfg.engine = Some(LsmConfig::default());
                cfg
            }
            Shape::Tiered3 => self.tiered3(),
        }
    }

    fn cluster20(&self, record_count: u64, noise: NoiseStream) -> ExperimentConfig {
        ExperimentConfig {
            seed: self.seed,
            nodes: 20,
            replication: 3,
            clients: self.clients(),
            ops_per_client: self.ops,
            scale_factor: 1,
            strategy: self.strategy(),
            node_cfg: node_cfg(false),
            record_count,
            read_len: 4096,
            medium: Medium::Disk,
            via_cache: false,
            write_fraction: 0.0,
            hop: mittos::DEFAULT_HOP,
            noise: vec![noise],
            background: Vec::new(),
            preload_cache: false,
            watch_node: None,
            initial_replica: InitialReplica::Random,
            think_time: Duration::from_millis(10),
            engine: None,
            mmap_btree: None,
            replication_lag: Duration::ZERO,
            monotonic_guard: false,
            trace: false,
            prof: false,
            tsl: None,
            faults: Default::default(),
            resilience: None,
        }
    }

    fn tiered3(&self) -> ExperimentConfig {
        let (medium, via_cache) = match self.class {
            "ssd" => (Medium::Ssd, false),
            "cache" => (Medium::Disk, true),
            _ => (Medium::Disk, false),
        };
        ExperimentConfig {
            seed: self.seed,
            nodes: 3,
            replication: 3,
            clients: self.clients(),
            ops_per_client: self.ops,
            scale_factor: 1,
            strategy: self.strategy(),
            node_cfg: node_cfg(true),
            record_count: 50_000,
            read_len: 4096,
            medium,
            via_cache,
            write_fraction: 0.0,
            hop: mittos::DEFAULT_HOP,
            noise: tiered_noise(),
            background: Vec::new(),
            preload_cache: via_cache,
            watch_node: None,
            initial_replica: InitialReplica::Node(0),
            think_time: Duration::from_millis(40),
            engine: None,
            mmap_btree: None,
            replication_lag: Duration::ZERO,
            monotonic_guard: false,
            trace: false,
            prof: false,
            tsl: None,
            faults: Default::default(),
            resilience: None,
        }
    }
}

/// A disk+CFQ node; `tiered` adds the SSD and the page cache of §7.8.5.
fn node_cfg(tiered: bool) -> NodeConfig {
    NodeConfig {
        disk: Some(DiskNodeConfig {
            spec: DiskSpec::default(),
            sched: SchedKind::Cfq(CfqConfig::default()),
            nvram: true,
            profile_samples: 400,
        }),
        ssd: tiered.then(SsdSpec::default),
        cache: tiered.then(|| CacheNodeConfig {
            cfg: PageCacheConfig::default(),
            min_io_latency: Duration::from_millis(2),
        }),
        cpu: Some(CpuConfig {
            cores: 16,
            pre_io: Duration::from_micros(20),
            post_io: Duration::from_micros(15),
        }),
        audit_mode: false,
        inject: None,
        disable_bump_cancel: false,
        hop: mittos::DEFAULT_HOP,
    }
}

/// EC2-like bursty disk noise on each of 20 nodes: concurrent 1 MB reads,
/// ~2.5% busy duty cycle, bursts mostly 0.1-2 s (Fig 3a/3d).
fn ec2_disk_noise(rng_seed: u64) -> NoiseStream {
    let gen = NoiseGen {
        burst_median: Duration::from_millis(350),
        burst_sigma: 0.9,
        burst_cap: Duration::from_secs(3),
        gap_mean: Duration::from_secs(18),
        intensity_weights: vec![(1, 0.35), (2, 0.4), (3, 0.15), (4, 0.1)],
    };
    let mut rng = SimRng::new(rng_seed);
    NoiseStream {
        kind: NoiseKind::DiskReads {
            len: 1 << 20,
            class: IoClass::BestEffort,
            priority: 4,
        },
        schedules: (0..20)
            .map(|_| gen.generate(NOISE_HORIZON, &mut rng.fork()))
            .collect(),
    }
}

/// §7.8.5's three concurrent noises, all on node 0: 4 KB disk reads in
/// 500 ms bursts every 2.5 s, steady 256 KB SSD writes, and a 20% cache
/// swap-out every 2 s.
fn tiered_noise() -> Vec<NoiseStream> {
    let periodic = |every: Duration, len: Duration, intensity: u32| -> Vec<Vec<NoiseBurst>> {
        let bursts = (0..NOISE_HORIZON.as_nanos() / every.as_nanos())
            .map(|i| NoiseBurst {
                start: SimTime::ZERO + every * i,
                duration: len,
                intensity,
            })
            .collect();
        vec![bursts, Vec::new(), Vec::new()]
    };
    vec![
        NoiseStream {
            kind: NoiseKind::DiskReads {
                len: 4096,
                class: IoClass::BestEffort,
                priority: 7,
            },
            schedules: periodic(Duration::from_millis(2500), Duration::from_millis(500), 6),
        },
        NoiseStream {
            kind: NoiseKind::SsdWrites { len: 256 << 10 },
            schedules: periodic(NOISE_HORIZON, NOISE_HORIZON, 8),
        },
        NoiseStream {
            kind: NoiseKind::CacheSwap,
            schedules: periodic(Duration::from_secs(2), Duration::from_millis(1), 20),
        },
    ]
}
