//! The cluster simulator: replicated key-value store, clients, noise and
//! faults — the machinery behind every evaluation figure.
//!
//! A [`ClusterSim`] wires N [`Node`]s (each with its own storage stack and
//! MittOS predictors), a replicated keyspace (every key readable from R
//! consecutive nodes), closed-loop YCSB clients issuing `get()`s — each
//! user request fanning out to `scale_factor` parallel gets (§7.3) — and
//! per-node noisy-neighbor schedules. Every client-side decision of the
//! tail-tolerance strategy under test (placement, deadlines, timers,
//! reactions to replies) lives in [`crate::strategy`].

use mitt_device::{IoClass, IoId, ProcessId, GB};
use mitt_faults::{
    BreakerTransition, CircuitBreaker, FaultClock, FaultKind, FaultPlan, NodeCtx, ResilienceConfig,
};
use mitt_lsm::{GetStep, LsmConfig, LsmEngine};
use mitt_prof::{GaugeSample, Phase, ProfSink};
use mitt_sim::{push_within, Duration, EventQueue, FastMap, LatencyRecorder, SimRng, SimTime};
use mitt_trace::report::{NET_HOP_COUNTER, NET_HOP_FAULTED_COUNTER, NET_HOP_HIST};
use mitt_trace::{EventKind, Resource, Subsystem, TraceSink, CLUSTER_NODE, DEFAULT_RING_CAPACITY};
use mitt_tsl::{TslConfig, TslSink};
use mitt_workload::{KeyDist, NoiseBurst, YcsbConfig, YcsbGenerator};
use mittos::DeadlineTuner;

use crate::mmapdb::{BtreeConfig, BtreePlanner};
use crate::node::{Medium, Node, NodeConfig, ReadOutcome, ReadReq, Ticks, WriteOutcome};
use crate::ops::{AccessStep, AttemptState, OpState, OpTable, UserReq};
use crate::strategy::Strategy;

/// How long a client waits before concluding a request sent to a crashed
/// node is lost (the failure-detection timeout). Every strategy without a
/// circuit breaker pays this per try that lands on a crashed replica.
pub const CRASH_REPLY_DELAY: Duration = Duration::from_millis(250);

/// Sender-side retransmission delay after a `NetDrop` window eats a
/// message: the copy is detected missing and resent after this long
/// (dropped messages delay, they never strand an op).
pub const RETRANSMIT_DELAY: Duration = Duration::from_millis(1);

/// What the noisy neighbor does during a burst.
#[derive(Debug, Clone, Copy)]
pub enum NoiseKind {
    /// Keeps `intensity` concurrent reads of `len` bytes outstanding on
    /// the disk (the paper's 1 MB-read injector).
    DiskReads {
        /// Bytes per noise read.
        len: u32,
        /// ionice class of the noise tenant.
        class: IoClass,
        /// ionice priority of the noise tenant.
        priority: u8,
    },
    /// Keeps `intensity` concurrent writes of `len` bytes outstanding on
    /// the SSD.
    SsdWrites {
        /// Bytes per noise write.
        len: u32,
    },
    /// Swaps out `intensity` percent of the node's cached pages at burst
    /// start (VM ballooning).
    CacheSwap,
}

/// One noisy-neighbor load: what a burst does and when each node's
/// bursts happen. Multiple streams can run concurrently (§7.8.5 injects
/// disk, SSD and cache noise at once).
#[derive(Debug, Clone)]
pub struct NoiseStream {
    /// What a burst does.
    pub kind: NoiseKind,
    /// `schedules[node]` = that node's bursts (time-ordered).
    pub schedules: Vec<Vec<NoiseBurst>>,
}

/// Where a get()'s first try lands.
#[derive(Debug, Clone, Copy)]
pub enum InitialReplica {
    /// Uniformly random among the key's replicas.
    Random,
    /// Always the replica at this index of the replica list (index 0 =
    /// the key's primary).
    Fixed(usize),
    /// Always the given node when it replicates the key (the
    /// microbenchmarks direct all first tries at the noisy node).
    Node(usize),
}

/// Full experiment description.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Root RNG seed; everything derives from it.
    pub seed: u64,
    /// Cluster size.
    pub nodes: usize,
    /// Replication factor (3 in the paper).
    pub replication: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// User requests each client issues.
    pub ops_per_client: usize,
    /// Parallel gets per user request (§7.3's SF).
    pub scale_factor: usize,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Node template.
    pub node_cfg: NodeConfig,
    /// Keyspace size.
    pub record_count: u64,
    /// Bytes read per get().
    pub read_len: u32,
    /// Which medium holds the data.
    pub medium: Medium,
    /// Route reads through the page cache (mmap path).
    pub via_cache: bool,
    /// Fraction of client ops that are writes (§7.8.6).
    pub write_fraction: f64,
    /// One-way network hop.
    pub hop: Duration,
    /// Concurrent noisy-neighbor streams.
    pub noise: Vec<NoiseStream>,
    /// Open-loop background IO per node (trace replay, macrobenchmarks):
    /// `(node, arrivals)`.
    pub background: Vec<(usize, Vec<mitt_workload::TraceIo>)>,
    /// Preload every node's cache with the whole keyspace (MittCache
    /// experiments).
    pub preload_cache: bool,
    /// Node whose EBUSY/occupancy timeline to record (Figure 13b).
    pub watch_node: Option<usize>,
    /// First-try placement.
    pub initial_replica: InitialReplica,
    /// Closed-loop think time between a user request's completion and the
    /// client's next issue (0 = back-to-back; Figure 3's probes use
    /// 100 ms / 20 ms pacing).
    pub think_time: Duration,
    /// When set, every node runs a LevelDB-like LSM engine (§5): a get()
    /// executes the engine's lookup plan (index + data block reads, table
    /// cache, blooms) and *any* step's EBUSY fails the whole try over —
    /// the two-level LevelDB+Riak integration. `None` = flat key-value
    /// layout.
    pub engine: Option<LsmConfig>,
    /// When set, gets traverse a MongoDB-style mmap B-tree: every page
    /// dereference is `addrcheck`-guarded through the node's page cache,
    /// and an EBUSY at *any* level (root, internal, leaf, record) fails
    /// the try over. Requires a node config with a cache.
    pub mmap_btree: Option<BtreeConfig>,
    /// Asynchronous replication lag: a write completed at one replica
    /// becomes visible at the others this much later (ZERO = synchronous).
    /// Enables the §8.3 staleness accounting.
    pub replication_lag: Duration,
    /// §8.3's conservative switching: during failover, prefer replicas
    /// that have already applied the session's writes ("do not failover
    /// until the other replicas are no longer stale"), at the price of
    /// sometimes waiting out the busy-but-fresh replica.
    pub monotonic_guard: bool,
    /// Record a structured event trace and metrics registry for the run
    /// (every node plus the cluster driver share one bounded ring); the
    /// sink lands in [`ExperimentResult::trace`].
    pub trace: bool,
    /// Self-profile the engine: phase timers, allocation telemetry, live
    /// gauges and a throughput meter land in [`ExperimentResult::prof`].
    /// Profiling is wall-clock-only observation — it never consumes RNG
    /// draws or schedules events, so digests are identical with it on or
    /// off for the same seed.
    pub prof: bool,
    /// Windowed tail-latency timelines and SLO burn-rate alerting (see
    /// `mitt-tsl`): per-window percentile/EBUSY rollups land in
    /// [`ExperimentResult::tsl`]. Rollups are inline — no events, no RNG —
    /// so the trace digest is identical with this on or off; the timeline
    /// itself folds into the run digest. A `deadline` left at ZERO is
    /// substituted with the strategy's own SLO deadline (20 ms for
    /// deadline-less strategies) so Base and MittOS runs are judged
    /// against the same SLO.
    pub tsl: Option<TslConfig>,
    /// Scheduled fault injection (empty = healthy run; the RNG streams and
    /// digests of planless runs are untouched).
    pub faults: FaultPlan,
    /// Client-side resilience policies — per-replica circuit breaker and
    /// bounded EBUSY backoff — honoured by the MittOS strategies only.
    /// `None` reproduces the paper's behaviour exactly.
    pub resilience: Option<ResilienceConfig>,
}

impl ExperimentConfig {
    /// User requests the run issues and waits for: `ops_per_client` from
    /// each of the `clients`.
    pub fn user_requests(&self) -> usize {
        self.clients * self.ops_per_client
    }

    /// A small 3-node / 1-client microbenchmark skeleton.
    pub fn micro(node_cfg: NodeConfig, strategy: Strategy) -> Self {
        ExperimentConfig {
            seed: 1,
            nodes: 3,
            replication: 3,
            clients: 1,
            ops_per_client: 300,
            scale_factor: 1,
            strategy,
            node_cfg,
            record_count: 200_000,
            read_len: 4096,
            medium: Medium::Disk,
            via_cache: false,
            write_fraction: 0.0,
            hop: mittos::DEFAULT_HOP,
            noise: Vec::new(),
            background: Vec::new(),
            preload_cache: false,
            watch_node: None,
            initial_replica: InitialReplica::Node(0),
            think_time: Duration::ZERO,
            engine: None,
            mmap_btree: None,
            replication_lag: Duration::ZERO,
            monotonic_guard: false,
            trace: false,
            prof: false,
            tsl: None,
            faults: FaultPlan::default(),
            resilience: None,
        }
    }

    /// The paper's 20-node / 20-client macrobenchmark skeleton.
    pub fn cluster20(node_cfg: NodeConfig, strategy: Strategy) -> Self {
        ExperimentConfig {
            seed: 1,
            nodes: 20,
            replication: 3,
            clients: 20,
            ops_per_client: 250,
            scale_factor: 1,
            strategy,
            node_cfg,
            record_count: 2_000_000,
            read_len: 4096,
            medium: Medium::Disk,
            via_cache: false,
            write_fraction: 0.0,
            hop: mittos::DEFAULT_HOP,
            noise: Vec::new(),
            background: Vec::new(),
            preload_cache: false,
            watch_node: None,
            initial_replica: InitialReplica::Random,
            think_time: Duration::ZERO,
            engine: None,
            mmap_btree: None,
            replication_lag: Duration::ZERO,
            monotonic_guard: false,
            trace: false,
            prof: false,
            tsl: None,
            faults: FaultPlan::default(),
            resilience: None,
        }
    }
}

/// Watch-node timeline (Figure 13b).
#[derive(Debug, Default, Clone)]
pub struct WatchLog {
    /// Times the node returned EBUSY.
    pub ebusy_times: Vec<SimTime>,
    /// `(time, IOs inside the disk stack)` samples.
    pub occupancy: Vec<(SimTime, usize)>,
}

/// Everything an experiment run produces.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Per user-request completion latency (max over its SF gets).
    pub user_latencies: LatencyRecorder,
    /// Per-get completion latency.
    pub get_latencies: LatencyRecorder,
    /// EBUSY responses clients observed.
    pub ebusy: u64,
    /// Retries (timeouts, failovers, hedges).
    pub retries: u64,
    /// Requests that surfaced an error to the user.
    pub errors: u64,
    /// Completed user requests.
    pub ops: u64,
    /// Reads served by a replica that had not yet applied the session's
    /// latest write to that key (§8.3 staleness; 0 with synchronous
    /// replication).
    pub stale_reads: u64,
    /// Watch-node timeline, if requested.
    pub watch: Option<WatchLog>,
    /// Virtual time when the workload finished.
    pub finished_at: SimTime,
    /// The run's trace sink (disabled unless [`ExperimentConfig::trace`]
    /// was set): export with `export_chrome_json()` / `report_text()`.
    pub trace: TraceSink,
    /// The run's engine-profiling sink (disabled unless
    /// [`ExperimentConfig::prof`] was set): export with `report_json()` /
    /// `folded_stacks()`. Never feeds the run digest.
    pub prof: ProfSink,
    /// The run's windowed-timeline sink (disabled unless
    /// [`ExperimentConfig::tsl`] was set): export with `export_json()`;
    /// alerts, near-misses and flight dumps are queryable directly.
    pub tsl: TslSink,
    /// Fault windows the run activated (0 on a healthy run).
    pub injected_faults: u64,
    /// Messages eaten by `NetDrop` windows (each cost one retransmit).
    pub dropped_messages: u64,
    /// `T_wait` estimates distorted by `PredictorBias` windows.
    pub distorted_predictions: u64,
    /// Circuit-breaker open transitions (resilience policies only).
    pub breaker_opens: u64,
    /// Whole-round EBUSY backoff retries (MittOS + resilience).
    pub backoff_retries: u64,
    /// Completion time of every get, in completion order; gaps between
    /// consecutive entries expose unavailability windows under faults.
    pub completion_times: Vec<SimTime>,
    /// IOs hit by a `PartialDegrade` gray window (summed over replicas).
    pub degraded_ios: u64,
    /// Per-replica breaker transition logs as `(node, transition)` pairs,
    /// drained at finalize; the invariant checker audits their legality.
    pub breaker_transitions: Vec<(usize, BreakerTransition)>,
    /// Most ops the simulator held at once: unfinished ones plus finished
    /// ones still named by a pending event or in-flight IO. It follows the
    /// ops in flight, not the run length.
    pub peak_live_ops: usize,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum TryResult {
    /// Success; carries the server's piggybacked queue size (C3-style
    /// feedback: the serving node reports its IO backlog with the reply).
    Ok { server_queue: usize },
    Busy {
        wait: Duration,
        /// The resource the serving node blamed for the rejection
        /// (forwarded so failovers can be attributed client-side).
        resource: Resource,
    },
    /// The serving node crashed before replying; the client's failure
    /// detector delivers this verdict [`CRASH_REPLY_DELAY`] after the loss.
    Crashed,
}

pub(crate) enum Ev {
    ClientIssue {
        client: usize,
    },
    OpArrive {
        op: usize,
        attempt: usize,
    },
    SubmitIo {
        op: usize,
        attempt: usize,
    },
    PlanStep {
        op: usize,
        attempt: usize,
    },
    DiskTick {
        node: usize,
    },
    /// An SSD request's last page completed (its other pages are settled
    /// by the node as deferred releases).
    SsdDone {
        node: u32,
        io: IoId,
        wait: Duration,
    },
    LocalDone {
        op: usize,
        attempt: usize,
    },
    Reply {
        op: usize,
        attempt: usize,
        result: TryResult,
    },
    /// The timer a strategy armed with try `attempt` (a timeout, hedge,
    /// tie or backoff delay) expired.
    Timer {
        op: usize,
        attempt: usize,
    },
    TiedCancel {
        node: usize,
        io: IoId,
    },
    NoiseBurst {
        stream: usize,
        node: usize,
        idx: usize,
    },
    NoiseIo {
        stream: usize,
        node: usize,
        idx: usize,
    },
    BgIo {
        node: usize,
        stream: usize,
        idx: usize,
    },
    WatchSample,
    FaultStart {
        idx: usize,
    },
    FaultEnd {
        idx: usize,
    },
    ThrashTick {
        idx: usize,
    },
}

impl Ev {
    /// The op this event names, if any. Such an event pins its op from
    /// `ClusterSim::schedule` until its handler returns.
    fn op(&self) -> Option<usize> {
        match *self {
            Ev::OpArrive { op, .. }
            | Ev::SubmitIo { op, .. }
            | Ev::PlanStep { op, .. }
            | Ev::LocalDone { op, .. }
            | Ev::Reply { op, .. }
            | Ev::Timer { op, .. } => Some(op),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum IoCtx {
    Get {
        op: usize,
        attempt: usize,
    },
    Noise {
        stream: usize,
        node: usize,
        idx: usize,
    },
    Background,
}

pub(crate) struct ClientState {
    pub(crate) rng: SimRng,
    issued: usize,
    /// Snitch/C3 state: per-replica EWMA latency (ns).
    pub(crate) ewma: Vec<f64>,
    /// C3 state: per-replica EWMA of server-reported queue size.
    pub(crate) qhat: Vec<f64>,
    pub(crate) outstanding: Vec<u32>,
    pub(crate) tuner: Option<DeadlineTuner>,
    /// Session state for §8.3 monotonic reads: the client's last write
    /// time per key.
    pub(crate) last_write: FastMap<u64, SimTime>,
}

/// The cluster simulator.
pub struct ClusterSim {
    pub(crate) cfg: ExperimentConfig,
    q: EventQueue<Ev>,
    nodes: Vec<Node>,
    pub(crate) clients: Vec<ClientState>,
    ycsb: YcsbGenerator,
    pub(crate) ops: OpTable<OpState>,
    users: OpTable<UserReq>,
    pub(crate) io_ctx: FastMap<(usize, IoId), IoCtx>,
    engines: Vec<LsmEngine>,
    btree: Option<BtreePlanner>,
    /// §8.3 replication state: when each (node, key) applied its latest
    /// write. Absent = applied since forever.
    pub(crate) fresh_at: FastMap<(usize, u64), SimTime>,
    noise_rng: SimRng,
    net_rng: SimRng,
    /// Shared fault clock (disabled on planless runs).
    fault_clock: FaultClock,
    /// Per-node handles of `fault_clock`; empty when disabled.
    fault_handles: Vec<FaultClock>,
    /// Per-replica client-side circuit breakers; empty unless a resilience
    /// policy is configured for a MittOS strategy.
    pub(crate) breakers: Vec<CircuitBreaker>,
    /// Which nodes are currently crashed.
    down: Vec<bool>,
    /// Engine self-profiling handle (disabled unless `cfg.prof`).
    prof: ProfSink,
    /// Next virtual time the profiler samples its live gauges; sampling is
    /// done inline in `handle()` so no extra events perturb the queue.
    next_prof_sample: SimTime,
    /// Windowed-timeline handle, cluster-tagged (disabled unless
    /// `cfg.tsl`). Window advancement happens inline in `handle()` so no
    /// extra events perturb the queue.
    tsl: TslSink,
    /// Scratch for `tsl_tick_pages`: the settled pages' completion times.
    page_times: Vec<SimTime>,
    pub(crate) result: ExperimentResult,
    completed_users: usize,
    target_users: usize,
    usable: u64,
}

impl ClusterSim {
    /// Builds the cluster (profiling every node's devices) and seeds the
    /// initial events.
    pub fn new(cfg: ExperimentConfig) -> Self {
        assert!(cfg.replication >= 1 && cfg.replication <= cfg.nodes);
        assert!(cfg.scale_factor >= 1);
        let mut root = SimRng::new(cfg.seed);
        let mut nodes: Vec<Node> = (0..cfg.nodes)
            .map(|i| Node::new(i, cfg.node_cfg.clone(), &mut root))
            .collect();
        let clients: Vec<ClientState> = (0..cfg.clients)
            .map(|_| ClientState {
                rng: root.fork(),
                issued: 0,
                ewma: vec![0.0; cfg.nodes],
                qhat: vec![0.0; cfg.nodes],
                outstanding: vec![0; cfg.nodes],
                last_write: FastMap::default(),
                tuner: cfg.strategy.tuner(),
            })
            .collect();
        let ycsb = YcsbGenerator::new(YcsbConfig {
            record_count: cfg.record_count,
            value_size: cfg.read_len,
            read_fraction: 1.0 - cfg.write_fraction,
            key_dist: KeyDist::Zipfian { theta: 0.99 },
        });
        // Offsets must fit the smallest medium; keep keys inside ~90% of a
        // 1TB disk / the SSD's space.
        let usable = 900 * GB;
        let target_users = cfg.user_requests();
        let target_gets = target_users * cfg.scale_factor;
        let btree = cfg
            .mmap_btree
            .as_ref()
            .map(|b| BtreePlanner::new(b.clone(), cfg.record_count));
        let engines = match &cfg.engine {
            Some(lsm_cfg) => {
                let mut c = lsm_cfg.clone();
                c.keyspace = cfg.record_count;
                (0..cfg.nodes)
                    .map(|_| LsmEngine::preloaded(c.clone()))
                    .collect()
            }
            None => Vec::new(),
        };
        let noise_rng = root.fork();
        let net_rng = root.fork();
        // Fault clock forks last, and only when a plan exists: planless
        // runs keep the exact RNG streams (and digests) of a build without
        // fault injection.
        let fault_clock = if cfg.faults.is_empty() {
            FaultClock::disabled()
        } else {
            FaultClock::new(cfg.faults.clone(), root.fork())
        };
        let fault_handles: Vec<FaultClock> = if fault_clock.is_enabled() {
            (0..cfg.nodes)
                .map(|i| fault_clock.for_node(i as u32))
                .collect()
        } else {
            Vec::new()
        };
        let breakers: Vec<CircuitBreaker> = match cfg.resilience {
            Some(r) if cfg.strategy.slo_deadline().is_some() => (0..cfg.nodes)
                .map(|_| CircuitBreaker::new(r.breaker))
                .collect(),
            _ => Vec::new(),
        };
        let down = vec![false; cfg.nodes];
        let tsl = match cfg.tsl {
            Some(mut t) => {
                if t.deadline.is_zero() {
                    // Judge every strategy against the same SLO: the MittOS
                    // deadline when the strategy carries one, 20 ms (the
                    // paper's disk p95) otherwise.
                    t.deadline = cfg
                        .strategy
                        .slo_deadline()
                        .unwrap_or(Duration::from_millis(20));
                }
                TslSink::enabled(t, cfg.strategy.name())
            }
            None => TslSink::disabled(),
        };
        let ctx = NodeCtx {
            faults: fault_clock.clone(),
            trace: if cfg.trace {
                TraceSink::enabled(DEFAULT_RING_CAPACITY)
            } else {
                TraceSink::disabled()
            },
            prof: if cfg.prof {
                ProfSink::enabled()
            } else {
                ProfSink::disabled()
            },
        };
        let q = EventQueue::new();
        for node in &mut nodes {
            node.set_ctx(&ctx);
            node.set_tsl(&tsl);
            node.set_clock(&q.clock());
        }
        if let Some(watch) = cfg.watch_node {
            nodes[watch].record_ebusy_times();
        }
        let cluster = ctx.for_node(CLUSTER_NODE);
        let mut sim = ClusterSim {
            q,
            nodes,
            clients,
            ycsb,
            ops: OpTable::new(),
            users: OpTable::new(),
            io_ctx: FastMap::default(),
            engines,
            btree,
            fresh_at: FastMap::default(),
            noise_rng,
            net_rng,
            fault_clock,
            fault_handles,
            breakers,
            down,
            prof: ctx.prof,
            next_prof_sample: SimTime::ZERO,
            tsl: tsl.clone(),
            page_times: Vec::new(),
            result: ExperimentResult {
                user_latencies: LatencyRecorder::with_limit(target_users),
                get_latencies: LatencyRecorder::with_limit(target_gets),
                ebusy: 0,
                retries: 0,
                errors: 0,
                ops: 0,
                stale_reads: 0,
                watch: cfg.watch_node.map(|_| WatchLog::default()),
                finished_at: SimTime::ZERO,
                trace: cluster.trace,
                prof: cluster.prof,
                tsl,
                injected_faults: 0,
                dropped_messages: 0,
                distorted_predictions: 0,
                breaker_opens: 0,
                backoff_retries: 0,
                completion_times: Vec::new(),
                degraded_ios: 0,
                breaker_transitions: Vec::new(),
                peak_live_ops: 0,
            },
            completed_users: 0,
            target_users,
            usable,
            cfg,
        };
        sim.setup();
        sim
    }

    fn setup(&mut self) {
        if self.cfg.preload_cache {
            if let Some(planner) = &self.btree {
                // Preload the whole mmap-ed file: node levels + records.
                let base = self
                    .cfg
                    .mmap_btree
                    .as_ref()
                    .expect("btree set")
                    .region_offset;
                let size = planner.file_size();
                let mut at = base;
                while at < base + size {
                    let chunk = (base + size - at).min(1 << 30) as u32;
                    for node in &mut self.nodes {
                        node.preload(at, chunk);
                    }
                    at += u64::from(chunk);
                }
            } else {
                let len = self.cfg.read_len;
                for key in 0..self.cfg.record_count {
                    let offset = self.offset_of(key);
                    for node in &mut self.nodes {
                        node.preload(offset, len);
                    }
                }
            }
        }
        // Noise schedules: thousands of pre-generated bursts, added to the
        // calendar in one batch and sorted once.
        let bursts = self.cfg.noise.iter().enumerate().flat_map(|(stream, ns)| {
            ns.schedules
                .iter()
                .enumerate()
                .flat_map(move |(node, bursts)| {
                    bursts
                        .iter()
                        .enumerate()
                        .map(move |(idx, b)| (b.start, Ev::NoiseBurst { stream, node, idx }))
                })
        });
        self.q.preload(bursts);
        // Background streams.
        for (stream, (node, ios)) in self.cfg.background.iter().enumerate() {
            if !ios.is_empty() {
                self.q.schedule(
                    ios[0].at,
                    Ev::BgIo {
                        node: *node,
                        stream,
                        idx: 0,
                    },
                );
            }
        }
        // Fault plan: one activation and one deactivation event per window.
        for idx in 0..self.cfg.faults.events.len() {
            let ev = &self.cfg.faults.events[idx];
            self.q.schedule(ev.at, Ev::FaultStart { idx });
            self.q.schedule(ev.until(), Ev::FaultEnd { idx });
        }
        // Clients.
        for client in 0..self.cfg.clients {
            self.q.schedule(SimTime::ZERO, Ev::ClientIssue { client });
        }
        if self.cfg.watch_node.is_some() {
            self.q
                .schedule_in(Duration::from_millis(50), Ev::WatchSample);
        }
    }

    fn offset_of(&self, key: u64) -> u64 {
        // Page-aligned, scattered over the usable space, identical on
        // every replica.
        let slot = key % (self.usable / u64::from(self.cfg.read_len.max(4096)));
        slot * u64::from(self.cfg.read_len.max(4096))
    }

    fn replicas_of(&self, key: u64) -> Vec<usize> {
        let n = self.cfg.nodes;
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize % n;
        (0..self.cfg.replication).map(|i| (h + i) % n).collect()
    }

    fn net_delay(&mut self) -> Duration {
        // Jitter scales with the hop so sub-ms local setups (Figure 3
        // probes) are not swamped by a fixed jitter term.
        let jitter_max = (self.cfg.hop.as_nanos() / 4).max(1);
        self.cfg.hop + Duration::from_nanos(self.net_rng.range_u64(0, jitter_max))
    }

    /// Runs the experiment to completion and returns the results.
    pub fn run(mut self) -> ExperimentResult {
        while self.completed_users < self.target_users {
            // The calendar pop is dispatch work: one guard spans it and
            // the handler, so `Phase::Dispatch` holds the calendar's cost.
            let dispatch = self.prof.phase(Phase::Dispatch);
            let Some((now, ev)) = self.q.pop() else {
                panic!(
                    "event queue drained with {}/{} user requests done; stuck ops: {}",
                    self.completed_users,
                    self.target_users,
                    self.stuck_ops_debug()
                );
            };
            let op = ev.op();
            self.handle(now, ev);
            drop(dispatch);
            if let Some(op) = op {
                self.unpin(op);
            }
            // The safe point: no handler holds an op or user id here.
            self.ops.retire_while(|o| o.done && o.pins == 0);
            self.users.retire_while(|u| u.remaining == 0);
        }
        self.finalize();
        if let (Some(w), Some(node)) = (&mut self.result.watch, self.cfg.watch_node) {
            w.ebusy_times = self.nodes[node].ebusy_times().to_vec();
        }
        self.result
    }

    fn stuck_ops_debug(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().filter(|(_, o)| !o.done).take(5) {
            out.push_str(&format!(
                "[op {i}: key={} attempts={:?}] ",
                op.key,
                op.attempts
                    .iter()
                    .map(|a| (a.node, a.io, a.resolved, a.deadline.is_some()))
                    .collect::<Vec<_>>()
            ));
        }
        out
    }

    /// Schedules `ev` at `at`, pinning the op it names. Every op-naming
    /// event must come through here: the run loop unpins after handling
    /// it, and an unpin without a pin panics.
    pub(crate) fn schedule(&mut self, at: SimTime, ev: Ev) {
        if let Some(op) = ev.op() {
            self.ops[op].pins += 1;
        }
        self.q.schedule(at, ev);
    }

    fn unpin(&mut self, op: usize) {
        let pins = &mut self.ops[op].pins;
        *pins = pins
            .checked_sub(1)
            .expect("op unpinned more often than pinned");
    }

    /// Remembers what IO `io` on `node` is for; a client IO pins its op.
    fn ctx_insert(&mut self, node: usize, io: IoId, ctx: IoCtx) {
        if let IoCtx::Get { op, .. } = ctx {
            self.ops[op].pins += 1;
        }
        let old = self.io_ctx.insert((node, io), ctx);
        debug_assert!(old.is_none(), "IO {io:?} on node {node} registered twice");
    }

    /// Forgets IO `io` on `node`, unpinning its op for a client IO.
    pub(crate) fn ctx_remove(&mut self, node: usize, io: IoId) -> Option<IoCtx> {
        let ctx = self.io_ctx.remove(&(node, io));
        if let Some(IoCtx::Get { op, .. }) = ctx {
            self.unpin(op);
        }
        ctx
    }

    /// Per-event profiler bookkeeping: the dispatch counter plus live
    /// gauges on a ~10 ms virtual-time cadence. Sampling happens inline
    /// (never via scheduled events) so the event queue's contents — and
    /// therefore tie-breaking and digests — are untouched by profiling.
    fn prof_tick(&mut self, now: SimTime) {
        self.prof.event_dispatched();
        if now < self.next_prof_sample {
            return;
        }
        self.next_prof_sample = now + Duration::from_millis(10);
        self.prof.sample_gauges(GaugeSample {
            at: now,
            event_ring: self.q.raw_len(),
            inflight_ios: self.io_ctx.len(),
            queue_depth: self.nodes.iter().map(Node::disk_occupancy).sum(),
        });
    }

    /// Inline timeline bookkeeping: advances the window clock and, when a
    /// burn-rate alert (or near-miss) just armed the flight recorder,
    /// snapshots the trace-ring tail plus current breaker states into a
    /// bounded dump. Pure observation — reads the ring, consumes no RNG,
    /// schedules nothing — so digests are untouched by enabling it.
    fn tsl_tick(&mut self, now: SimTime) {
        if self.tsl.tick(now) {
            let events = self
                .result
                .trace
                .tail_events(self.tsl.config().map_or(0, |c| c.flight_events));
            let breakers = self
                .breakers
                .iter()
                .enumerate()
                .map(|(n, b)| (n as u32, b.state(now).code()))
                .collect();
            self.tsl.flight_record(events, breakers, now);
        }
    }

    /// Settles every node's SSD page releases at or below the current
    /// event and ticks the timeline at each page's completion time, in time
    /// order, so windows close and flight dumps land where they would if
    /// every page were its own event. Ties need no seq order: a tick
    /// depends only on the time, and settling emits nothing.
    fn tsl_tick_pages(&mut self) {
        if self.cfg.node_cfg.ssd.is_none() {
            return;
        }
        let upto = self.q.key();
        let mut times = std::mem::take(&mut self.page_times);
        for node in &mut self.nodes {
            node.settle_ssd(upto, |at| times.push(at));
        }
        times.sort_unstable();
        for &at in &times {
            self.tsl_tick(at);
        }
        times.clear();
        self.page_times = times;
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        if self.prof.is_enabled() {
            self.prof_tick(now);
        }
        if self.tsl.is_enabled() {
            self.tsl_tick_pages();
            self.tsl_tick(now);
        }
        match ev {
            Ev::ClientIssue { client } => self.client_issue(client, now),
            Ev::OpArrive { op, attempt } => self.op_arrive(op, attempt, now),
            Ev::SubmitIo { op, attempt } => self.submit_io(op, attempt, now),
            Ev::PlanStep { op, attempt } => {
                if !self.ops[op].done {
                    self.engine_step(op, attempt, now);
                }
            }
            Ev::DiskTick { node } => self.disk_tick(node, now),
            Ev::SsdDone { node, io, wait } => {
                let node = node as usize;
                self.nodes[node].on_ssd_done(io, wait, now);
                self.io_done(node, io, now);
            }
            Ev::LocalDone { op, attempt } => self.local_done(op, attempt, now),
            Ev::Reply {
                op,
                attempt,
                result,
            } => self.reply(op, attempt, result, now),
            Ev::Timer { op, attempt } => self.timer_fire(op, attempt, now),
            Ev::TiedCancel { node, io } => {
                // Revocation only wins if the IO is still queued; an
                // executing IO keeps its context and completes normally.
                if self.nodes[node].cancel_read(io, now) {
                    self.ctx_remove(node, io);
                }
            }
            Ev::NoiseBurst { stream, node, idx } => self.noise_burst(stream, node, idx, now),
            Ev::NoiseIo { stream, node, idx } => self.noise_io(stream, node, idx, now),
            Ev::BgIo { node, stream, idx } => self.bg_io(node, stream, idx, now),
            Ev::WatchSample => {
                if let (Some(w), Some(node)) = (&mut self.result.watch, self.cfg.watch_node) {
                    w.occupancy.push((now, self.nodes[node].disk_occupancy()));
                    if self.completed_users < self.target_users {
                        self.q
                            .schedule_in(Duration::from_millis(50), Ev::WatchSample);
                    }
                }
            }
            Ev::FaultStart { idx } => self.fault_start(idx, now),
            Ev::FaultEnd { idx } => self.fault_end(idx, now),
            Ev::ThrashTick { idx } => self.thrash_tick(idx, now),
        }
    }

    // ------------------------------------------------------------------
    // Client side.
    // ------------------------------------------------------------------

    fn client_issue(&mut self, client: usize, now: SimTime) {
        if self.clients[client].issued >= self.cfg.ops_per_client {
            return;
        }
        self.clients[client].issued += 1;
        let user = self.users.push(UserReq {
            remaining: self.cfg.scale_factor,
            started: now,
        });
        for _ in 0..self.cfg.scale_factor {
            let op_rng = &mut self.clients[client].rng;
            let key = self.ycsb.next_op(op_rng).key();
            let is_write = op_rng.chance(self.cfg.write_fraction);
            let offset = self.offset_of(key);
            let replicas = self.replicas_of(key);
            let op = self.ops.push(OpState {
                client,
                user,
                key,
                offset,
                replicas,
                attempts: Vec::new(),
                busy_waits: Vec::new(),
                done: false,
                started: now,
                is_write,
                round_base: 0,
                backoff_round: 0,
                pins: 0,
            });
            {
                let _t = self.prof.phase(Phase::TraceEmit);
                self.result.trace.emit(
                    now,
                    Subsystem::Cluster,
                    EventKind::SpanBegin {
                        name: "op",
                        id: op as u64,
                    },
                );
            }
            self.start_op(op, now);
        }
    }

    /// Sends `op`'s next try to `node`, with the deadline the strategy
    /// gives that try.
    pub(crate) fn send_try(&mut self, op: usize, node: usize, now: SimTime) {
        let attempt = self.ops[op].attempts.len();
        let deadline = self.deadline_for(op);
        // If the replica's breaker just admitted a half-open probe, this
        // try is it: bind_probe is a one-shot claim.
        let probe = !self.breakers.is_empty() && self.breakers[node].bind_probe();
        self.ops[op].attempts.push(AttemptState {
            node,
            io: None,
            resolved: false,
            deadline,
            plan: None,
            step: 0,
            probe,
        });
        let client = self.ops[op].client;
        self.clients[client].outstanding[node] += 1;
        let delay = self.net_delay_node(node, now);
        self.schedule(now + delay, Ev::OpArrive { op, attempt });
    }

    /// One-way delay to or from `node`, honouring any active network fault
    /// window: hop spikes add to the sample, and a dropped message costs a
    /// detection delay plus a retransmitted copy — drops delay messages
    /// rather than stranding ops, keeping the event loop live.
    pub(crate) fn net_delay_node(&mut self, node: usize, now: SimTime) -> Duration {
        let base = self.net_delay();
        let (d, faulted) = match self.fault_handles.get(node) {
            Some(fc) => {
                let fc = fc.clone();
                let extra = fc.net_extra(now);
                let mut d = base + extra;
                let dropped = fc.drop_message(now);
                if dropped {
                    d = d + RETRANSMIT_DELAY + self.net_delay();
                }
                (d, !extra.is_zero() || dropped)
            }
            None => (base, false),
        };
        self.emit_net_hop(node, d, faulted, now);
        d
    }

    /// Records one message leg in the trace: a `net_hop` event plus the
    /// hop counters/histogram (closing the "instrument the network model"
    /// item). Purely observational — no RNG is consumed, so traced and
    /// untraced runs stay schedule-identical.
    fn emit_net_hop(&mut self, node: usize, delay: Duration, faulted: bool, now: SimTime) {
        if !self.result.trace.is_enabled() {
            return;
        }
        let _t = self.prof.phase(Phase::TraceEmit);
        self.result.trace.emit(
            now,
            Subsystem::Cluster,
            EventKind::NetHop {
                node: node as u32,
                delay,
                faulted,
            },
        );
        self.result.trace.count(NET_HOP_COUNTER, 1);
        self.result.trace.observe_ns(NET_HOP_HIST, delay.as_nanos());
        if faulted {
            self.result.trace.count(NET_HOP_FAULTED_COUNTER, 1);
        }
    }

    // ------------------------------------------------------------------
    // Node side.
    // ------------------------------------------------------------------

    fn op_arrive(&mut self, op: usize, attempt: usize, now: SimTime) {
        let node = self.ops[op].attempts[attempt].node;
        if self.down[node] {
            // Arrived at a crashed node: the client learns only after the
            // failure-detection timeout.
            self.crashed_reply(op, attempt, now);
            return;
        }
        let ready = self.nodes[node].cpu_pre(now);
        self.schedule(ready, Ev::SubmitIo { op, attempt });
    }

    /// Schedules the delayed failure-detector verdict for a try that was
    /// lost to a crash.
    fn crashed_reply(&mut self, op: usize, attempt: usize, now: SimTime) {
        self.schedule(
            now + CRASH_REPLY_DELAY,
            Ev::Reply {
                op,
                attempt,
                result: TryResult::Crashed,
            },
        );
    }

    fn submit_io(&mut self, op: usize, attempt: usize, now: SimTime) {
        if self.ops[op].done && self.cfg.strategy.drops_late_tries() {
            // Late attempt of an already-served op (e.g. hedge raced the
            // reply): drop it before it consumes device time.
            self.ops[op].attempts[attempt].resolved = true;
            return;
        }
        let node_id = self.ops[op].attempts[attempt].node;
        if self.down[node_id] {
            // The node crashed between arrival and submission.
            self.crashed_reply(op, attempt, now);
            return;
        }
        let deadline = self.ops[op].attempts[attempt].deadline;
        let offset = self.ops[op].offset;
        let is_write = self.ops[op].is_write;
        if !self.engines.is_empty() {
            if is_write {
                self.engine_put(op, attempt, node_id, now);
            } else {
                if self.ops[op].attempts[attempt].plan.is_none() {
                    let key = self.ops[op].key;
                    let steps: Vec<AccessStep> = self.engines[node_id]
                        .get_plan(key)
                        .steps
                        .iter()
                        .map(|s| match *s {
                            GetStep::MemtableHit => AccessStep::Memory,
                            GetStep::IndexRead { offset, len, .. }
                            | GetStep::DataRead { offset, len, .. } => AccessStep::Storage {
                                offset,
                                len,
                                via_cache: false,
                            },
                        })
                        .collect();
                    self.result.trace.count("lsm.lookup_plans", 1);
                    self.result.trace.emit(
                        now,
                        Subsystem::Cluster,
                        EventKind::Mark {
                            name: "lsm_plan_steps",
                            value: steps.len() as u64,
                        },
                    );
                    self.ops[op].attempts[attempt].plan = Some(steps);
                    self.ops[op].attempts[attempt].step = 0;
                }
                self.engine_step(op, attempt, now);
            }
            return;
        }
        if let Some(planner) = &self.btree {
            if !is_write {
                if self.ops[op].attempts[attempt].plan.is_none() {
                    let key = self.ops[op].key;
                    let steps: Vec<AccessStep> = planner
                        .touches(key)
                        .into_iter()
                        .map(|t| AccessStep::Storage {
                            offset: t.offset,
                            len: t.len,
                            via_cache: true,
                        })
                        .collect();
                    self.ops[op].attempts[attempt].plan = Some(steps);
                    self.ops[op].attempts[attempt].step = 0;
                }
                self.engine_step(op, attempt, now);
                return;
            }
        }
        let mut req = ReadReq::client(offset, self.cfg.read_len, ProcessId(1000));
        req.medium = self.cfg.medium;
        req.via_cache = self.cfg.via_cache;
        if let Some(d) = deadline {
            req = req.with_deadline(d);
        }
        if is_write {
            match self.nodes[node_id].submit_write(&req, now) {
                WriteOutcome::Buffered { latency } => {
                    self.schedule(now + latency, Ev::LocalDone { op, attempt });
                }
                WriteOutcome::Submitted(sub) => {
                    self.after_submission(op, attempt, node_id, sub.outcome, sub.bumped, now);
                }
            }
            return;
        }
        let sub = self.nodes[node_id].submit_read(&req, now);
        self.after_submission(op, attempt, node_id, sub.outcome, sub.bumped, now);
    }

    /// Executes the next step of a multi-access lookup plan (LSM engine or
    /// mmap B-tree walk): memory steps complete locally; storage accesses
    /// flow through the MittOS stack, and an EBUSY on *any* step fails the
    /// whole try over (the two-level propagation of §5).
    fn engine_step(&mut self, op: usize, attempt: usize, now: SimTime) {
        let att = &self.ops[op].attempts[attempt];
        let node_id = att.node;
        let deadline = att.deadline;
        let step_idx = att.step;
        if self.down[node_id] {
            // The node crashed mid-plan: the rest of the lookup is lost.
            self.crashed_reply(op, attempt, now);
            return;
        }
        let step = att.plan.as_ref().and_then(|p| p.get(step_idx)).copied();
        let Some(step) = step else {
            // Plan exhausted: the lookup answered.
            self.schedule(now, Ev::LocalDone { op, attempt });
            return;
        };
        let att = &mut self.ops[op].attempts[attempt];
        att.step += 1;
        if att.plan.as_ref().is_some_and(|p| att.step == p.len()) {
            // Last step issued: release the plan's buffer. An empty plan
            // answers every later `step < len` / `get(step)` check as the
            // walked one did, and `Some` keeps it from being planned again.
            att.plan = Some(Vec::new());
        }
        match step {
            AccessStep::Memory => {
                // Memory lookup: ~memtable search cost.
                self.schedule(
                    now + Duration::from_micros(20),
                    Ev::LocalDone { op, attempt },
                );
            }
            AccessStep::Storage {
                offset,
                len,
                via_cache,
            } => {
                let mut req = ReadReq::client(offset, len, ProcessId(1000));
                req.medium = self.cfg.medium;
                req.via_cache = via_cache;
                if let Some(d) = deadline {
                    req = req.with_deadline(d);
                }
                let sub = self.nodes[node_id].submit_read(&req, now);
                self.after_submission(op, attempt, node_id, sub.outcome, sub.bumped, now);
            }
        }
    }

    /// Engine-mode put: a memtable insert (fast), plus any flush and
    /// compaction IO submitted as background load.
    fn engine_put(&mut self, op: usize, attempt: usize, node_id: usize, now: SimTime) {
        let key = self.ops[op].key;
        let flush = self.engines[node_id].put(key, self.cfg.read_len);
        if !flush.is_empty() {
            self.result.trace.count("lsm.flush_ios", flush.len() as u64);
            self.result.trace.emit(
                now,
                Subsystem::Cluster,
                EventKind::Mark {
                    name: "lsm_flush_ios",
                    value: flush.len() as u64,
                },
            );
        }
        let mut bg: Vec<mitt_lsm::LsmIo> = flush;
        if let Some(job) = self.engines[node_id].maybe_compact() {
            self.result.trace.count("lsm.compactions", 1);
            self.result.trace.emit(
                now,
                Subsystem::Cluster,
                EventKind::Mark {
                    name: "lsm_compaction_ios",
                    value: (job.reads.len() + job.writes.len()) as u64,
                },
            );
            bg.extend(job.reads);
            bg.extend(job.writes);
        }
        for io in bg {
            let req = ReadReq {
                offset: io.offset % self.usable,
                len: io.len,
                deadline: None,
                owner: ProcessId(4000 + node_id as u32),
                class: IoClass::BestEffort,
                priority: 6,
                medium: self.cfg.medium,
                via_cache: false,
            };
            self.submit_untracked(node_id, &req, io.is_read, IoCtx::Background, now);
        }
        // The user-visible put commits at memtable speed.
        self.schedule(
            now + Duration::from_micros(50),
            Ev::LocalDone { op, attempt },
        );
    }

    /// Routes the late EBUSYs of bump-cancelled IOs back to their ops.
    /// Every submission path that can admit a higher-priority IO — client
    /// gets, noise tenants, background streams, engine flushes — must call
    /// this with the node's `bumped` list.
    fn handle_bumped(&mut self, node_id: usize, bumped: Vec<IoId>, now: SimTime) {
        for id in bumped {
            if let Some(IoCtx::Get {
                op: bop,
                attempt: batt,
            }) = self.ctx_remove(node_id, id)
            {
                let delay = self.net_delay_node(node_id, now);
                self.schedule(
                    now + delay,
                    Ev::Reply {
                        op: bop,
                        attempt: batt,
                        result: TryResult::Busy {
                            wait: Duration::MAX,
                            // Only the CFQ tolerable-time table bumps
                            // admitted IOs, so the blame is unambiguous.
                            resource: Resource::CfqQueue,
                        },
                    },
                );
            }
        }
    }

    /// Submits a read or write no client waits on (noise tenant,
    /// background stream, engine flush or compaction): bumped IOs fail
    /// their ops over, and a queued IO is remembered as `ctx` with its
    /// completions scheduled. Returns the commit latency when NVRAM
    /// buffered a write.
    fn submit_untracked(
        &mut self,
        node: usize,
        req: &ReadReq,
        is_read: bool,
        ctx: IoCtx,
        now: SimTime,
    ) -> Option<Duration> {
        let sub = if is_read {
            self.nodes[node].submit_read(req, now)
        } else {
            match self.nodes[node].submit_write(req, now) {
                WriteOutcome::Submitted(sub) => sub,
                WriteOutcome::Buffered { latency } => return Some(latency),
            }
        };
        self.handle_bumped(node, sub.bumped, now);
        if let ReadOutcome::Submitted { io, ticks } = sub.outcome {
            self.ctx_insert(node, io, ctx);
            self.schedule_ticks(node, ticks, now);
        }
        None
    }

    fn after_submission(
        &mut self,
        op: usize,
        attempt: usize,
        node_id: usize,
        outcome: ReadOutcome,
        bumped: Vec<IoId>,
        now: SimTime,
    ) {
        // Bumped IOs get a late EBUSY: fail their ops over.
        self.handle_bumped(node_id, bumped, now);
        match outcome {
            ReadOutcome::CacheHit { latency } => {
                // Mid-plan cache hits continue the walk; standalone reads
                // complete.
                let more_steps = self.ops[op].attempts[attempt]
                    .plan
                    .as_ref()
                    .is_some_and(|p| self.ops[op].attempts[attempt].step < p.len());
                if more_steps {
                    self.schedule(now + latency, Ev::PlanStep { op, attempt });
                } else {
                    self.schedule(now + latency, Ev::LocalDone { op, attempt });
                }
            }
            ReadOutcome::Busy {
                predicted_wait,
                resource,
                ticks,
            } => {
                self.schedule_ticks(node_id, ticks, now);
                let delay = self.net_delay_node(node_id, now) + Duration::from_micros(5);
                self.schedule(
                    now + delay,
                    Ev::Reply {
                        op,
                        attempt,
                        result: TryResult::Busy {
                            wait: predicted_wait,
                            resource,
                        },
                    },
                );
            }
            ReadOutcome::Submitted { io, ticks } => {
                self.ops[op].attempts[attempt].io = Some(io);
                self.ctx_insert(node_id, io, IoCtx::Get { op, attempt });
                self.schedule_ticks(node_id, ticks, now);
            }
        }
    }

    fn schedule_ticks(&mut self, node: usize, ticks: Ticks, now: SimTime) {
        if let Some(s) = ticks.disk {
            self.on_started(node, s.id, now);
            self.schedule(s.done_at, Ev::DiskTick { node });
        }
        if let Some(done) = ticks.ssd {
            let node = u32::try_from(node).expect("node index fits in u32");
            let (io, wait) = (done.io, done.wait);
            self.q
                .schedule_keyed(done.key, Ev::SsdDone { node, io, wait });
        }
    }

    fn disk_tick(&mut self, node: usize, now: SimTime) {
        let out = self.nodes[node].on_disk_tick(now);
        if let Some(next) = out.next {
            self.on_started(node, next.id, now);
            self.schedule(next.done_at, Ev::DiskTick { node });
        }
        self.io_done(node, out.done.io, now);
    }

    fn io_done(&mut self, node: usize, io: IoId, now: SimTime) {
        match self.ctx_remove(node, io) {
            Some(IoCtx::Get { op, attempt }) => {
                // Engine mode: continue the lookup plan until it runs dry.
                let more_steps = self.ops[op].attempts[attempt]
                    .plan
                    .as_ref()
                    .is_some_and(|p| self.ops[op].attempts[attempt].step < p.len());
                if more_steps && !self.ops[op].done {
                    self.engine_step(op, attempt, now);
                } else {
                    self.schedule(now, Ev::LocalDone { op, attempt });
                }
            }
            Some(IoCtx::Noise { stream, node, idx }) => {
                // Keep the noise slot occupied until the burst ends.
                if self.burst_active(stream, node, idx, now) {
                    self.schedule(now, Ev::NoiseIo { stream, node, idx });
                }
            }
            Some(IoCtx::Background) | None => {}
        }
    }

    fn local_done(&mut self, op: usize, attempt: usize, now: SimTime) {
        let node = self.ops[op].attempts[attempt].node;
        if self.down[node] {
            // The node crashed after serving the IO but before replying.
            self.crashed_reply(op, attempt, now);
            return;
        }
        let ready = self.nodes[node].cpu_post(now);
        let delay = self.net_delay_node(node, now);
        // Piggyback the server's current IO backlog on the reply
        // (C3-style feedback; other strategies ignore it).
        let server_queue = self.nodes[node].disk_occupancy();
        self.schedule(
            ready + delay,
            Ev::Reply {
                op,
                attempt,
                result: TryResult::Ok { server_queue },
            },
        );
    }

    // ------------------------------------------------------------------
    // Replies.
    // ------------------------------------------------------------------

    fn reply(&mut self, op: usize, attempt: usize, result: TryResult, now: SimTime) {
        self.ops[op].attempts[attempt].resolved = true;
        self.feedback(op, attempt, result, now);
        if self.ops[op].done {
            return;
        }
        let node = self.ops[op].attempts[attempt].node;
        match result {
            TryResult::Ok { .. } => self.complete_op(op, attempt, now),
            TryResult::Busy { wait, resource } => {
                self.result.ebusy += 1;
                self.tsl.record_ebusy(now, resource);
                self.ops[op].busy_waits.push((node, wait));
                // A rejection issued while the replica sat inside a gray or
                // correlated fault window gets a cluster-level attribution
                // naming the window — these causes have no node-side
                // counterpart (the node blames its own queue), so the
                // cluster counts them. Purely observational: no RNG, and
                // nothing emitted when tracing is off.
                let window = self.fault_handles.get(node).and_then(|fc| {
                    if fc.gray_active(now) {
                        Some(Resource::GrayWindow)
                    } else {
                        fc.correlated_active(now).then_some(Resource::FaultWindow)
                    }
                });
                if let Some(window) = window {
                    self.emit_cluster_attribution(op, window, wait, node, true, now);
                }
                self.fail_over(op, attempt, Some((resource, wait)), now);
            }
            TryResult::Crashed => {
                self.result.trace.count("cluster.crash_detected", 1);
                if self.ops[op].attempts.iter().any(|a| !a.resolved) {
                    // A sibling try (clone/hedge/tie) is still in flight:
                    // let it win.
                    return;
                }
                // A crash is only ever an injected fault; no node-side
                // Reject exists, so the cluster attributes (and counts) it.
                self.emit_cluster_attribution(
                    op,
                    Resource::FaultWindow,
                    Duration::MAX,
                    node,
                    true,
                    now,
                );
                self.fail_over(op, attempt, None, now);
            }
        }
    }

    /// Records a cluster-side SLO attribution of `op` to `resource` at
    /// `node` directly after the event it explains (Failover, Crashed
    /// verdict, breaker veto, hedge). `bump` controls the per-resource
    /// counter: busy-triggered failovers re-attribute a rejection the node
    /// already counted, so they record the event only; causes with no
    /// node-side counterpart count here.
    pub(crate) fn emit_cluster_attribution(
        &mut self,
        op: usize,
        resource: Resource,
        predicted_wait: Duration,
        node: usize,
        bump: bool,
        now: SimTime,
    ) {
        if !self.result.trace.is_enabled() {
            return;
        }
        self.result.trace.emit(
            now,
            Subsystem::Cluster,
            EventKind::Attribution {
                io: op as u64,
                resource,
                predicted_wait,
                detail: node as u64,
            },
        );
        if bump {
            self.result.trace.count(resource.counter(), 1);
        }
    }

    /// Records a hedge of `op` to `to` in the trace. A hedge fires on
    /// client-side tail suspicion: the only resource visible from outside
    /// the first try's node is the request's network path.
    pub(crate) fn emit_hedge(&mut self, op: usize, first: usize, to: usize, now: SimTime) {
        self.result.trace.count("cluster.hedge", 1);
        self.result.trace.emit(
            now,
            Subsystem::Cluster,
            EventKind::Hedge {
                op: op as u64,
                to: to as u32,
            },
        );
        self.emit_cluster_attribution(op, Resource::NetHop, Duration::MAX, first, true, now);
    }

    /// Records an EBUSY-triggered replica switch in the trace.
    pub(crate) fn emit_failover(&mut self, op: usize, from: usize, to: usize, now: SimTime) {
        self.result.trace.count("cluster.failover", 1);
        self.result.trace.emit(
            now,
            Subsystem::Cluster,
            EventKind::Failover {
                op: op as u64,
                from: from as u32,
                to: to as u32,
            },
        );
    }

    /// Ends `op` with an error the user sees.
    pub(crate) fn fail_op(&mut self, op: usize, attempt: usize, now: SimTime) {
        self.result.errors += 1;
        self.complete_op(op, attempt, now);
    }

    fn complete_op(&mut self, op: usize, served_attempt: usize, now: SimTime) {
        if !self.cfg.replication_lag.is_zero() {
            let key = self.ops[op].key;
            let client = self.ops[op].client;
            if self.ops[op].is_write {
                // The write is visible now at the serving replica and
                // `replication_lag` later at the others.
                let served_by = self.ops[op].attempts[served_attempt].node;
                for &r in &self.ops[op].replicas.clone() {
                    let visible = if r == served_by {
                        now
                    } else {
                        now + self.cfg.replication_lag
                    };
                    self.fresh_at.insert((r, key), visible);
                }
                self.clients[client].last_write.insert(key, now);
            } else if self.clients[client].last_write.contains_key(&key) {
                let served_by = self.ops[op].attempts[served_attempt].node;
                if self
                    .fresh_at
                    .get(&(served_by, key))
                    .is_some_and(|&visible| visible > now)
                {
                    self.result.stale_reads += 1;
                }
            }
        }
        self.ops[op].done = true;
        {
            let _t = self.prof.phase(Phase::TraceEmit);
            self.result.trace.emit(
                now,
                Subsystem::Cluster,
                EventKind::SpanEnd {
                    name: "op",
                    id: op as u64,
                },
            );
        }
        let latency = now.saturating_since(self.ops[op].started);
        self.result.get_latencies.record(latency);
        self.tsl.observe_get(now, latency);
        let gets = self.target_users * self.cfg.scale_factor;
        push_within(&mut self.result.completion_times, now, gets);
        let user = self.ops[op].user;
        self.users[user].remaining -= 1;
        if self.users[user].remaining == 0 {
            let ulat = now.saturating_since(self.users[user].started);
            self.result.user_latencies.record(ulat);
            self.result.ops += 1;
            self.completed_users += 1;
            let client = self.ops[op].client;
            self.schedule(now + self.cfg.think_time, Ev::ClientIssue { client });
        }
    }

    // ------------------------------------------------------------------
    // Noise and background load.
    // ------------------------------------------------------------------

    fn burst_of(&self, stream: usize, node: usize, idx: usize) -> Option<NoiseBurst> {
        self.cfg
            .noise
            .get(stream)
            .and_then(|ns| ns.schedules.get(node))
            .and_then(|bursts| bursts.get(idx))
            .copied()
    }

    fn burst_active(&self, stream: usize, node: usize, idx: usize, now: SimTime) -> bool {
        self.burst_of(stream, node, idx)
            .is_some_and(|b| now < b.end())
    }

    fn noise_burst(&mut self, stream: usize, node: usize, idx: usize, now: SimTime) {
        let Some(burst) = self.burst_of(stream, node, idx) else {
            return;
        };
        match self.cfg.noise[stream].kind {
            NoiseKind::CacheSwap => {
                self.nodes[node].swap_out_pct(burst.intensity, now);
            }
            NoiseKind::DiskReads { .. } | NoiseKind::SsdWrites { .. } => {
                for _ in 0..burst.intensity {
                    self.schedule(now, Ev::NoiseIo { stream, node, idx });
                }
            }
        }
    }

    fn noise_io(&mut self, stream: usize, node: usize, idx: usize, now: SimTime) {
        if !self.burst_active(stream, node, idx, now) {
            return;
        }
        let noise_owner = ProcessId(2000 + node as u32);
        let noise = IoCtx::Noise { stream, node, idx };
        match self.cfg.noise[stream].kind {
            NoiseKind::DiskReads {
                len,
                class,
                priority,
            } => {
                let offset = self.noise_rng.range_u64(0, self.usable);
                let req = ReadReq {
                    offset,
                    len,
                    deadline: None,
                    owner: noise_owner,
                    class,
                    priority,
                    medium: Medium::Disk,
                    via_cache: false,
                };
                self.submit_untracked(node, &req, true, noise, now);
            }
            NoiseKind::SsdWrites { len } => {
                let offset = self.noise_rng.range_u64(0, self.usable);
                let req = ReadReq {
                    offset,
                    len,
                    deadline: None,
                    owner: noise_owner,
                    class: IoClass::BestEffort,
                    priority: 4,
                    medium: Medium::Ssd,
                    via_cache: false,
                };
                if let Some(latency) = self.submit_untracked(node, &req, false, noise, now) {
                    // NVRAM absorbed it; keep the pressure up.
                    self.schedule(now + latency, Ev::NoiseIo { stream, node, idx });
                }
            }
            NoiseKind::CacheSwap => {}
        }
    }

    fn bg_io(&mut self, node: usize, stream: usize, idx: usize, now: SimTime) {
        let ios = &self.cfg.background[stream].1;
        let Some(io) = ios.get(idx).copied() else {
            return;
        };
        if let Some(next) = ios.get(idx + 1) {
            self.schedule(
                next.at,
                Ev::BgIo {
                    node,
                    stream,
                    idx: idx + 1,
                },
            );
        }
        let req = ReadReq {
            offset: io.offset % self.usable,
            len: io.len,
            deadline: None,
            owner: ProcessId(3000 + stream as u32),
            class: IoClass::BestEffort,
            priority: 5,
            medium: self.cfg.medium,
            via_cache: false,
        };
        self.submit_untracked(node, &req, io.is_read, IoCtx::Background, now);
    }

    // ------------------------------------------------------------------
    // Fault injection.
    // ------------------------------------------------------------------

    /// A planned fault window opens. The shared clock answers most queries
    /// (service multipliers, stalls, caps, distortions) from the device and
    /// predictor layers; only the cluster-level kinds — crash, thrash —
    /// need driver action here.
    fn fault_start(&mut self, idx: usize, now: SimTime) {
        let ev = self.cfg.faults.events[idx].clone();
        self.fault_clock.record_injection();
        self.result.trace.count("cluster.fault_injected", 1);
        if ev.scope.is_correlated() {
            self.result.trace.count("cluster.fault_correlated", 1);
        }
        if ev.kind.is_gray() {
            self.result.trace.count("cluster.fault_gray", 1);
        }
        self.result.trace.emit(
            now,
            Subsystem::Cluster,
            EventKind::FaultStart {
                fault: idx as u64,
                name: ev.kind.name(),
            },
        );
        match ev.kind {
            FaultKind::NodeCrash => {
                for n in ev.scope.node_indices(self.cfg.nodes) {
                    self.node_crash(n, now);
                }
            }
            FaultKind::CacheThrash { evict_pct, period } => {
                self.apply_thrash(idx, evict_pct, now);
                if !period.is_zero() {
                    self.schedule(now + period, Ev::ThrashTick { idx });
                }
            }
            _ => {}
        }
    }

    /// A fault window closes; crashed nodes restart. The restart model is
    /// a process restart with warm device state — the gentlest case, and
    /// the outage still shows in the latency tail.
    fn fault_end(&mut self, idx: usize, now: SimTime) {
        let ev = self.cfg.faults.events[idx].clone();
        self.result.trace.emit(
            now,
            Subsystem::Cluster,
            EventKind::FaultEnd {
                fault: idx as u64,
                name: ev.kind.name(),
            },
        );
        if matches!(ev.kind, FaultKind::NodeCrash) {
            for n in ev.scope.node_indices(self.cfg.nodes) {
                self.down[n] = false;
            }
        }
    }

    /// Marks a node down and orphans its in-flight client IOs: their
    /// replies become `Crashed` verdicts after the detection timeout. The
    /// orphan sweep is sorted by IO id so the schedule stays deterministic
    /// (the context map iterates in arbitrary order).
    fn node_crash(&mut self, node: usize, now: SimTime) {
        self.down[node] = true;
        let mut orphans: Vec<(IoId, usize, usize)> = self
            .io_ctx
            .iter()
            .filter_map(|(&(n, io), ctx)| match *ctx {
                IoCtx::Get { op, attempt } if n == node => Some((io, op, attempt)),
                _ => None,
            })
            .collect();
        orphans.sort_by_key(|&(io, _, _)| io);
        for (io, op, attempt) in orphans {
            self.ctx_remove(node, io);
            self.crashed_reply(op, attempt, now);
        }
    }

    /// Force-evicts a slice of resident pages on the thrash target(s).
    fn apply_thrash(&mut self, idx: usize, pct: u32, now: SimTime) {
        let scope = self.cfg.faults.events[idx].scope.clone();
        for n in scope.node_indices(self.cfg.nodes) {
            self.nodes[n].swap_out_pct(pct, now);
        }
    }

    /// Re-applies an eviction storm every `period` while its window lasts.
    fn thrash_tick(&mut self, idx: usize, now: SimTime) {
        let ev = self.cfg.faults.events[idx].clone();
        if !ev.active_at(now) {
            return;
        }
        if let FaultKind::CacheThrash { evict_pct, period } = ev.kind {
            self.apply_thrash(idx, evict_pct, now);
            if !period.is_zero() {
                self.schedule(now + period, Ev::ThrashTick { idx });
            }
        }
    }

    /// Folds fault and resilience counters into the result.
    fn finalize(&mut self) {
        let _fold = self.prof.phase(Phase::StatsFold);
        self.result.finished_at = self.q.now();
        self.result.peak_live_ops = self.ops.peak();
        for b in &self.breakers {
            self.result.breaker_opens += b.opens();
        }
        for (node, b) in self.breakers.iter().enumerate() {
            self.result
                .breaker_transitions
                .extend(b.transitions().iter().map(|&tr| (node, tr)));
        }
        if self.fault_clock.is_enabled() {
            self.result.injected_faults = self.fault_clock.injected();
            self.result.dropped_messages = self.fault_clock.dropped_messages();
            self.result.distorted_predictions = self.fault_clock.distorted_predictions();
            self.result.degraded_ios = self.fault_clock.degraded_ios();
        }
        if self.tsl.is_enabled() {
            let now = self.q.now();
            // Breaker transition logs are drained post-hoc (just above):
            // back-fill their windows so timelines carry open/close counts.
            for &(node, tr) in &self.result.breaker_transitions {
                self.tsl
                    .record_breaker_transition(node as u32, tr.at, tr.to.code());
            }
            self.tsl.finish(now);
            // An alert fired by the final (partial) window still deserves
            // its snapshot.
            self.tsl_tick(now);
        }
        self.prof.finish(self.q.now());
    }
}

/// Convenience: build, run, and return results.
pub fn run_experiment(cfg: ExperimentConfig) -> ExperimentResult {
    ClusterSim::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_workload::rotating_schedule;

    #[test]
    fn events_stay_within_forty_bytes() {
        // Every calendar entry carries an `Ev`; a wider one widens every
        // entry an insert shifts and every pop moves out.
        let size = std::mem::size_of::<Ev>();
        assert!(size <= 40, "Ev grew to {size} bytes");
    }

    /// Finished ops retire once nothing names them, so the op table's
    /// high-water mark follows the ops in flight: ten times the run length
    /// must not grow it. A pin that is never released keeps its op, and
    /// every op behind it, to the end of the run.
    #[test]
    fn live_ops_do_not_grow_with_run_length() {
        let ms = Duration::from_millis;
        for strategy in [
            Strategy::Base,
            Strategy::MittOs { deadline: ms(15) },
            Strategy::Hedged { after: ms(13) },
            Strategy::Tied {
                delay: Duration::from_micros(500),
            },
            Strategy::AppTimeout { timeout: ms(13) },
        ] {
            let peak = |ops_per_client: usize| {
                let mut cfg = quick(strategy.clone());
                cfg.clients = 3;
                cfg.ops_per_client = ops_per_client;
                cfg.initial_replica = InitialReplica::Random;
                cfg.think_time = ms(5);
                cfg.write_fraction = 0.1;
                cfg.noise = vec![NoiseStream {
                    kind: NoiseKind::DiskReads {
                        len: 1 << 20,
                        class: IoClass::BestEffort,
                        priority: 4,
                    },
                    schedules: rotating_schedule(3, Duration::from_secs(1), ms(600_000), 4),
                }];
                let res = run_experiment(cfg);
                assert_eq!(res.ops, 3 * ops_per_client as u64);
                res.peak_live_ops
            };
            // The runs are deterministic. Measured marks at 200/2000 ops per
            // client: Base 18/25, MittOS 5/5, Hedged 200/205, Tied 126/198,
            // AppTO 99/130. A leaked pin holds thousands.
            let (short, long) = (peak(200), peak(2000));
            assert!(
                long <= 2 * short.max(50),
                "{}: {long} live ops at 2000 ops per client against {short} at 200",
                strategy.name()
            );
        }
    }

    /// `get_latencies`, `user_latencies` and `completion_times` grow
    /// toward the run's known counts and never past them, on a healthy run
    /// and on one whose tries to a crashed replica are lost. The counts
    /// (300 users, 900 gets) are not powers of two, so plain doubling
    /// would overshoot both.
    #[test]
    fn result_vectors_stay_within_the_run_s_known_counts() {
        for crash in [false, true] {
            let mut cfg = quick(Strategy::Base);
            cfg.clients = 2;
            cfg.ops_per_client = 150;
            cfg.scale_factor = 3;
            cfg.think_time = Duration::from_millis(2);
            if crash {
                cfg.faults = FaultPlan::new().crash(
                    0,
                    SimTime::ZERO + Duration::from_millis(100),
                    Duration::from_secs(3),
                );
            }
            let users = cfg.user_requests();
            let gets = users * cfg.scale_factor;
            let res = run_experiment(cfg);
            if crash {
                assert!(res.injected_faults >= 1, "the crash never fired");
                assert!(res.retries > 0, "no try was lost to the crash");
            }
            for (name, len, capacity, known) in [
                (
                    "user_latencies",
                    res.user_latencies.len(),
                    res.user_latencies.capacity(),
                    users,
                ),
                (
                    "get_latencies",
                    res.get_latencies.len(),
                    res.get_latencies.capacity(),
                    gets,
                ),
                (
                    "completion_times",
                    res.completion_times.len(),
                    res.completion_times.capacity(),
                    gets,
                ),
            ] {
                assert!(
                    len <= known && capacity <= known,
                    "crash {crash}: {name} len {len}, capacity {capacity}, known {known}"
                );
            }
        }
    }

    fn quick(strategy: Strategy) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::micro(NodeConfig::disk_cfq(), strategy);
        cfg.ops_per_client = 60;
        cfg
    }

    #[test]
    fn base_strategy_completes_all_ops() {
        let res = run_experiment(quick(Strategy::Base));
        assert_eq!(res.ops, 60);
        assert_eq!(res.errors, 0);
        // Disk reads over the network: a handful of ms each.
        let mut lat = res.user_latencies;
        let p50 = lat.percentile(50.0);
        assert!(
            (Duration::from_millis(2)..Duration::from_millis(30)).contains(&p50),
            "p50 = {p50}"
        );
    }

    #[test]
    fn mittos_on_quiet_cluster_rarely_rejects() {
        let res = run_experiment(quick(Strategy::MittOs {
            deadline: Duration::from_millis(20),
        }));
        assert_eq!(res.ops, 60);
        assert_eq!(res.errors, 0);
        assert!(res.ebusy <= 3, "quiet cluster, got {} EBUSYs", res.ebusy);
    }

    #[test]
    fn mittos_fails_over_under_rotating_noise() {
        let mut cfg = quick(Strategy::MittOs {
            deadline: Duration::from_millis(20),
        });
        cfg.ops_per_client = 150;
        cfg.noise = vec![NoiseStream {
            kind: NoiseKind::DiskReads {
                len: 1 << 20,
                class: IoClass::BestEffort,
                priority: 4,
            },
            schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(120), 4),
        }];
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 150);
        assert!(res.ebusy > 10, "noisy node must reject: {}", res.ebusy);
        assert!(res.retries > 10, "rejections must fail over");
        assert_eq!(res.errors, 0, "two quiet replicas always exist");
    }

    #[test]
    fn hedged_retries_slow_requests() {
        let mut cfg = quick(Strategy::Hedged {
            after: Duration::from_millis(13),
        });
        cfg.noise = vec![NoiseStream {
            kind: NoiseKind::DiskReads {
                len: 1 << 20,
                class: IoClass::BestEffort,
                priority: 4,
            },
            schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(60), 4),
        }];
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 60);
        assert!(res.retries > 0, "hedges must fire under noise");
    }

    #[test]
    fn apptimeout_completes_with_failover() {
        let mut cfg = quick(Strategy::AppTimeout {
            timeout: Duration::from_millis(13),
        });
        cfg.noise = vec![NoiseStream {
            kind: NoiseKind::DiskReads {
                len: 1 << 20,
                class: IoClass::BestEffort,
                priority: 4,
            },
            schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(60), 4),
        }];
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 60);
        assert_eq!(res.errors, 0);
    }

    #[test]
    fn clone_and_tied_complete() {
        for strategy in [
            Strategy::Clone2,
            Strategy::Tied {
                delay: Duration::from_millis(1),
            },
        ] {
            let res = run_experiment(quick(strategy));
            assert_eq!(res.ops, 60);
            assert_eq!(res.errors, 0);
        }
    }

    #[test]
    fn snitch_and_c3_complete() {
        for strategy in [Strategy::Snitch { alpha: 0.3 }, Strategy::C3] {
            let res = run_experiment(quick(strategy));
            assert_eq!(res.ops, 60);
        }
    }

    #[test]
    fn scale_factor_amplifies_tail() {
        let mk = |sf: usize| {
            let mut cfg = quick(Strategy::Base);
            cfg.seed = 7;
            cfg.scale_factor = sf;
            cfg.ops_per_client = 80;
            cfg.nodes = 6;
            run_experiment(cfg)
        };
        let mut sf1 = mk(1);
        let mut sf5 = mk(5);
        assert_eq!(sf5.ops, 80);
        // A user request waiting on 5 parallel gets has a worse median
        // than a single get.
        assert!(
            sf5.user_latencies.percentile(50.0) > sf1.user_latencies.percentile(50.0),
            "SF=5 p50 {} vs SF=1 p50 {}",
            sf5.user_latencies.percentile(50.0),
            sf1.user_latencies.percentile(50.0)
        );
    }

    #[test]
    fn cache_cluster_serves_from_memory() {
        let mut cfg = ExperimentConfig::micro(
            NodeConfig::cached_disk(),
            Strategy::MittOs {
                deadline: Duration::from_millis(1),
            },
        );
        cfg.ops_per_client = 60;
        cfg.record_count = 5_000;
        cfg.via_cache = true;
        cfg.preload_cache = true;
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 60);
        // Everything preloaded: sub-ms latencies (two hops + hit latency).
        let mut lat = res.user_latencies;
        let p90 = lat.percentile(90.0);
        assert!(p90 < Duration::from_millis(2), "p90 = {p90}");
    }

    #[test]
    fn write_workload_uses_nvram() {
        let mut cfg = quick(Strategy::Base);
        cfg.write_fraction = 1.0;
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 60);
        let mut lat = res.user_latencies;
        // NVRAM commit + two hops: ~0.7ms, far below disk latency.
        assert!(lat.percentile(95.0) < Duration::from_millis(2));
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let a = run_experiment(quick(Strategy::MittOs {
            deadline: Duration::from_millis(20),
        }));
        let b = run_experiment(quick(Strategy::MittOs {
            deadline: Duration::from_millis(20),
        }));
        assert_eq!(a.user_latencies.samples(), b.user_latencies.samples());
        assert_eq!(a.ebusy, b.ebusy);
    }

    #[test]
    fn ssd_cluster_runs() {
        let mut cfg = ExperimentConfig::micro(
            NodeConfig::ssd(),
            Strategy::MittOs {
                deadline: Duration::from_millis(2),
            },
        );
        cfg.medium = Medium::Ssd;
        cfg.ops_per_client = 60;
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 60);
        let mut lat = res.user_latencies;
        // SSD read + 2 hops: ~1ms.
        assert!(lat.percentile(90.0) < Duration::from_millis(3));
    }

    #[test]
    fn lsm_engine_cluster_completes_gets() {
        let mut cfg = quick(Strategy::MittOs {
            deadline: Duration::from_millis(25),
        });
        cfg.engine = Some(mitt_lsm::LsmConfig {
            levels: 2,
            level_ratio: 6,
            table_cache_capacity: 16,
            ..mitt_lsm::LsmConfig::default()
        });
        cfg.record_count = 100_000;
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 60);
        assert_eq!(res.errors, 0);
        // Engine lookups cost 1-2 block reads: latencies stay disk-scale.
        let mut lat = res.user_latencies;
        let p50 = lat.percentile(50.0);
        assert!(
            (Duration::from_millis(3)..Duration::from_millis(40)).contains(&p50),
            "p50 = {p50}"
        );
    }

    #[test]
    fn lsm_engine_ebusy_propagates_to_coordinator() {
        let mut cfg = quick(Strategy::MittOs {
            deadline: Duration::from_millis(15),
        });
        cfg.engine = Some(mitt_lsm::LsmConfig::default());
        cfg.record_count = 100_000;
        cfg.ops_per_client = 120;
        cfg.noise = vec![NoiseStream {
            kind: NoiseKind::DiskReads {
                len: 1 << 20,
                class: IoClass::BestEffort,
                priority: 4,
            },
            schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(120), 4),
        }];
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 120);
        assert!(
            res.ebusy > 10,
            "engine reads must be rejected: {}",
            res.ebusy
        );
        assert_eq!(res.errors, 0, "coordinator always finds a quiet replica");
    }

    #[test]
    fn lsm_engine_writes_flush_in_background() {
        let mut cfg = quick(Strategy::Base);
        cfg.engine = Some(mitt_lsm::LsmConfig {
            memtable_budget: 32 * 1024,
            table_size: 256 * 1024,
            ..mitt_lsm::LsmConfig::default()
        });
        cfg.record_count = 100_000;
        cfg.write_fraction = 1.0;
        cfg.ops_per_client = 300;
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 300);
        // Puts commit at memtable speed despite background flushes.
        let mut lat = res.user_latencies;
        assert!(lat.percentile(95.0) < Duration::from_millis(2));
    }

    #[test]
    fn mmap_btree_walks_complete_from_cache() {
        let mut cfg = ExperimentConfig::micro(
            NodeConfig::cached_disk(),
            Strategy::MittOs {
                deadline: Duration::from_micros(100),
            },
        );
        cfg.ops_per_client = 60;
        cfg.record_count = 20_000;
        cfg.mmap_btree = Some(crate::mmapdb::BtreeConfig {
            fanout: 64,
            ..crate::mmapdb::BtreeConfig::default()
        });
        cfg.preload_cache = true;
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 60);
        assert_eq!(res.errors, 0);
        // Fully resident tree: three addrcheck'd memory touches + hops.
        let mut lat = res.user_latencies;
        assert!(lat.percentile(90.0) < Duration::from_millis(2));
    }

    #[test]
    fn mmap_btree_swapped_pages_trigger_failover() {
        let mut cfg = ExperimentConfig::micro(
            NodeConfig::cached_disk(),
            Strategy::MittOs {
                deadline: Duration::from_micros(100),
            },
        );
        cfg.ops_per_client = 200;
        cfg.record_count = 20_000;
        cfg.mmap_btree = Some(crate::mmapdb::BtreeConfig {
            fanout: 64,
            ..crate::mmapdb::BtreeConfig::default()
        });
        cfg.preload_cache = true;
        // Swap-out bursts on node 0 keep evicting pages mid-walk.
        let mut schedules = vec![Vec::new(); 3];
        schedules[0] = (0..2400)
            .map(|i| NoiseBurst {
                start: SimTime::ZERO + Duration::from_millis(250) * i,
                duration: Duration::from_millis(1),
                intensity: 20,
            })
            .collect();
        cfg.noise = vec![NoiseStream {
            kind: NoiseKind::CacheSwap,
            schedules,
        }];
        let res = run_experiment(cfg);
        assert_eq!(res.ops, 200);
        assert!(
            res.ebusy > 10,
            "swapped pages must EBUSY mid-walk: {}",
            res.ebusy
        );
        assert_eq!(res.errors, 0);
        let mut lat = res.get_latencies;
        assert!(
            lat.percentile(95.0) < Duration::from_millis(3),
            "failover keeps the walk at memory speed: {}",
            lat.percentile(95.0)
        );
    }

    #[test]
    fn mittoswait_retries_least_busy_replica_when_all_reject() {
        // All three replicas severely contended: plain MittOS disables the
        // deadline on the 3rd try and may park behind a long queue; the
        // wait-hint variant keeps rejecting and then picks the least-busy
        // replica.
        let mk = |strategy: Strategy| {
            let mut cfg = quick(strategy);
            cfg.ops_per_client = 120;
            cfg.think_time = Duration::from_millis(5);
            let all_busy = |intensity| NoiseStream {
                kind: NoiseKind::DiskReads {
                    len: 512 << 10,
                    class: IoClass::BestEffort,
                    priority: 4,
                },
                schedules: (0..3)
                    .map(|_| {
                        vec![mitt_workload::NoiseBurst {
                            start: SimTime::ZERO,
                            duration: Duration::from_secs(600),
                            intensity,
                        }]
                    })
                    .collect(),
            };
            cfg.noise = vec![all_busy(2)];
            run_experiment(cfg)
        };
        let deadline = Duration::from_millis(10);
        let wait_res = mk(Strategy::MittOsWait { deadline });
        assert_eq!(wait_res.ops, 120);
        assert_eq!(wait_res.errors, 0);
        // With every replica contended, multi-rejection rounds must occur
        // (the 4th-try path is exercised).
        assert!(
            wait_res.ebusy as f64 > 1.5 * 120.0,
            "expected repeated rejections: {}",
            wait_res.ebusy
        );
    }

    #[test]
    fn hedges_do_not_fire_on_a_quiet_cluster() {
        let res = run_experiment(quick(Strategy::Hedged {
            after: Duration::from_millis(25),
        }));
        assert_eq!(res.ops, 60);
        // Every get finishes well under the hedge threshold: no duplicate
        // load ("limits the additional load to approximately 5%").
        assert_eq!(res.retries, 0, "no hedges on a quiet cluster");
    }

    #[test]
    fn snitch_learns_to_avoid_a_permanently_slow_replica() {
        // Node 0 is severely contended for the whole run; after warm-up,
        // snitching should route almost everything to nodes 1-2.
        let mut cfg = quick(Strategy::Snitch { alpha: 0.3 });
        cfg.ops_per_client = 300;
        cfg.think_time = Duration::from_millis(5);
        cfg.initial_replica = InitialReplica::Random;
        let mut schedules = vec![Vec::new(); 3];
        schedules[0] = vec![mitt_workload::NoiseBurst {
            start: SimTime::ZERO,
            duration: Duration::from_secs(600),
            intensity: 4,
        }];
        cfg.noise = vec![NoiseStream {
            kind: NoiseKind::DiskReads {
                len: 1 << 20,
                class: IoClass::BestEffort,
                priority: 4,
            },
            schedules,
        }];
        let mut snitch = run_experiment(cfg).get_latencies;
        // Stable busyness is the case adaptivity handles (§7.8.3): the
        // p90 should look like a quiet two-replica cluster, not the busy
        // node.
        assert!(
            snitch.percentile(90.0) < Duration::from_millis(20),
            "snitch p90 {}",
            snitch.percentile(90.0)
        );
    }

    #[test]
    fn background_streams_create_contention() {
        let mut quiet_cfg = quick(Strategy::Base);
        quiet_cfg.think_time = Duration::from_millis(5);
        let mut busy_cfg = quick(Strategy::Base);
        busy_cfg.think_time = Duration::from_millis(5);
        let spec = mitt_workload::TraceSpec::tpcc();
        let mut rng = SimRng::new(5);
        busy_cfg.background = (0..3)
            .map(|node| {
                let mut r = rng.fork();
                (node, spec.generate(Duration::from_secs(120), &mut r))
            })
            .collect();
        let mut quiet = run_experiment(quiet_cfg).get_latencies;
        let mut busy = run_experiment(busy_cfg).get_latencies;
        assert!(
            busy.percentile(95.0) > quiet.percentile(95.0),
            "background load must show up: {} vs {}",
            busy.percentile(95.0),
            quiet.percentile(95.0)
        );
    }

    #[test]
    fn monotonic_guard_cuts_failover_staleness() {
        let mk = |guard: bool| {
            let mut cfg = quick(Strategy::MittOs {
                deadline: Duration::from_millis(15),
            });
            cfg.clients = 3;
            cfg.ops_per_client = 500;
            cfg.write_fraction = 0.1;
            cfg.record_count = 1_000;
            cfg.replication_lag = Duration::from_millis(25);
            cfg.monotonic_guard = guard;
            cfg.initial_replica = InitialReplica::Random;
            cfg.think_time = Duration::from_millis(5);
            cfg.noise = vec![NoiseStream {
                kind: NoiseKind::DiskReads {
                    len: 1 << 20,
                    class: IoClass::BestEffort,
                    priority: 4,
                },
                schedules: rotating_schedule(
                    3,
                    Duration::from_secs(1),
                    Duration::from_secs(3600),
                    4,
                ),
            }];
            run_experiment(cfg)
        };
        let plain = mk(false);
        let guarded = mk(true);
        assert!(
            plain.stale_reads > 0,
            "lag + failover must create staleness"
        );
        assert!(
            guarded.stale_reads * 2 <= plain.stale_reads + 2,
            "guard should at least halve staleness: {} vs {}",
            guarded.stale_reads,
            plain.stale_reads
        );
        assert_eq!(guarded.ops, 1500);
    }

    #[test]
    fn watch_node_records_timeline() {
        let mut cfg = quick(Strategy::MittOs {
            deadline: Duration::from_millis(20),
        });
        cfg.watch_node = Some(0);
        cfg.noise = vec![NoiseStream {
            kind: NoiseKind::DiskReads {
                len: 1 << 20,
                class: IoClass::BestEffort,
                priority: 4,
            },
            schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(60), 4),
        }];
        let res = run_experiment(cfg);
        let watch = res.watch.expect("watch log requested");
        assert!(!watch.occupancy.is_empty());
        assert!(!watch.ebusy_times.is_empty());
    }
}
