//! One storage node: devices + scheduler + page cache + MittOS predictors.
//!
//! A [`Node`] is the simulated machine of Figure 1: local storage managed by
//! the host OS, shared by the data-parallel store and its noisy neighbors.
//! It composes the passive models from the substrate crates and wires the
//! MittOS predictors into the submission path:
//!
//! ```text
//!   submit_read ──► MittCache (addrcheck)             — hit / EBUSY / miss
//!                     └─► MittNoop | MittCFQ | MittSSD — admit / EBUSY
//!                           └─► noop | CFQ scheduler ──► disk (SSTF)
//!                           └─────────────────────────► SSD chips
//! ```
//!
//! Every IO — client get(), noisy neighbor, trace replay, cache refill —
//! flows through the same predictors, so the mirrors see exactly what the
//! kernel would. The node also hosts the audit mode of §7.6 (predictions
//! attached to descriptors instead of enforced) and the §7.7 error
//! injector.
//!
//! An admitted SSD request costs its driver one calendar event, at the key
//! its last page would have popped at. Each page's completion (its device
//! channel slot, MittSSD's channel count and chip calibration) is a
//! deferred release carrying the key the calendar would have given it;
//! `submit_ssd`, the one place SSD state is read, first applies every
//! release at or below the current event's key (read from the driver's
//! [`EventClock`], see [`Node::set_clock`]), so every submission sees the
//! state a per-page event stream would have left.

use mitt_device::{
    BlockIo, Disk, DiskSpec, GcBurst, IoClass, IoId, IoIdGen, IoKind, NvramBuffer, ProcessId, Ssd,
    SsdSpec, Started,
};
use mitt_faults::NodeCtx;
use mitt_oscache::{PageCache, PageCacheConfig};
use mitt_sched::{Cfq, CfqConfig, DiskScheduler, Noop};
use mitt_sim::{Duration, EventClock, EventKey, FastMap, FastSet, SimRng, SimTime};
use mitt_trace::report::{CACHE_HIT_COUNTER, EBUSY_COUNTER, PREDICT_ERROR_HIST, SUBMIT_COUNTER};
use mitt_trace::{EventKind, Resource, Subsystem};
use mitt_tsl::TslSink;
use mittos::{
    admit, profile_disk, profile_ssd, Admission, CacheVerdict, Decision, DiskPredictor,
    ErrorInjector, MittCache, MittCfq, MittNoop, MittSsd, Slo, ADDRCHECK_COST,
};

use crate::cpu::{CpuConfig, CpuModel};

/// Which device holds the requested data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Medium {
    /// The rotational disk stack (noop or CFQ).
    Disk,
    /// The OpenChannel SSD stack.
    Ssd,
}

/// Disk-stack configuration.
#[derive(Debug, Clone)]
pub struct DiskNodeConfig {
    /// Device parameters.
    pub spec: DiskSpec,
    /// Scheduler choice.
    pub sched: SchedKind,
    /// Absorb writes in an NVRAM buffer (§7.8.6).
    pub nvram: bool,
    /// Probe IOs for the offline profiling run.
    pub profile_samples: usize,
}

/// IO scheduler choice for the disk stack.
#[derive(Debug, Clone)]
pub enum SchedKind {
    /// FIFO dispatch (MittNoop predictor).
    Noop,
    /// CFQ service trees (MittCFQ predictor).
    Cfq(CfqConfig),
}

/// Page-cache configuration.
#[derive(Debug, Clone)]
pub struct CacheNodeConfig {
    /// Cache geometry.
    pub cfg: PageCacheConfig,
    /// Storage floor used by MittCache's residency-expectation test.
    pub min_io_latency: Duration,
}

/// Full node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Disk stack, if present.
    pub disk: Option<DiskNodeConfig>,
    /// SSD stack, if present.
    pub ssd: Option<SsdSpec>,
    /// Page cache over the storage, if present.
    pub cache: Option<CacheNodeConfig>,
    /// CPU model for request handlers, if modelled.
    pub cpu: Option<CpuConfig>,
    /// §7.6 audit mode: predictions recorded, EBUSY never enforced.
    pub audit_mode: bool,
    /// §7.7 error injection: (false-negative rate, false-positive rate).
    pub inject: Option<(f64, f64)>,
    /// Ablation: ignore MittCFQ's tolerable-time table, letting bumped
    /// IOs miss their deadlines silently instead of late-EBUSYing.
    pub disable_bump_cancel: bool,
    /// One-hop failover cost added to deadlines.
    pub hop: Duration,
}

impl NodeConfig {
    /// A CFQ disk node — the MittCFQ experiments' default.
    pub fn disk_cfq() -> Self {
        NodeConfig {
            disk: Some(DiskNodeConfig {
                spec: DiskSpec::default(),
                sched: SchedKind::Cfq(CfqConfig::default()),
                nvram: true,
                profile_samples: 400,
            }),
            ssd: None,
            cache: None,
            cpu: Some(CpuConfig::disk_node()),
            audit_mode: false,
            inject: None,
            disable_bump_cancel: false,
            hop: mittos::DEFAULT_HOP,
        }
    }

    /// A noop disk node (MittNoop).
    pub fn disk_noop() -> Self {
        let mut cfg = NodeConfig::disk_cfq();
        if let Some(d) = cfg.disk.as_mut() {
            d.sched = SchedKind::Noop;
        }
        cfg
    }

    /// An SSD node on the paper's 8-core machine.
    pub fn ssd() -> Self {
        NodeConfig {
            disk: None,
            ssd: Some(SsdSpec::default()),
            cache: None,
            cpu: Some(CpuConfig::ssd_node()),
            audit_mode: false,
            inject: None,
            disable_bump_cancel: false,
            hop: mittos::DEFAULT_HOP,
        }
    }

    /// A disk node with the page cache in front (MittCache experiments).
    pub fn cached_disk() -> Self {
        let mut cfg = NodeConfig::disk_cfq();
        cfg.cache = Some(CacheNodeConfig {
            cfg: PageCacheConfig::default(),
            min_io_latency: Duration::from_millis(2),
        });
        cfg
    }

    /// All three stacks on one node (§7.8.5 "all in one").
    pub fn tiered() -> Self {
        let mut cfg = NodeConfig::disk_cfq();
        cfg.ssd = Some(SsdSpec::default());
        cfg.cache = Some(CacheNodeConfig {
            cfg: PageCacheConfig::default(),
            // The cache fronts the disk path; anything non-resident costs
            // at least a couple of ms there.
            min_io_latency: Duration::from_millis(2),
        });
        cfg
    }
}

/// A read request entering the node's OS.
#[derive(Debug, Clone)]
pub struct ReadReq {
    /// Byte offset on the target medium.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
    /// SLO deadline (None = plain POSIX read).
    pub deadline: Option<Duration>,
    /// Submitting process.
    pub owner: ProcessId,
    /// ionice class.
    pub class: IoClass,
    /// ionice priority (0..=7).
    pub priority: u8,
    /// Which device holds the data.
    pub medium: Medium,
    /// Check the page cache first (mmap/addrcheck path).
    pub via_cache: bool,
}

impl ReadReq {
    /// A client get(): best-effort read on the disk medium.
    pub fn client(offset: u64, len: u32, owner: ProcessId) -> Self {
        ReadReq {
            offset,
            len,
            deadline: None,
            owner,
            class: IoClass::BestEffort,
            priority: 4,
            medium: Medium::Disk,
            via_cache: false,
        }
    }

    /// Attaches an SLO deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Targets the SSD medium.
    pub fn on_ssd(mut self) -> Self {
        self.medium = Medium::Ssd;
        self
    }

    /// Routes through the page cache (mmap/addrcheck path).
    pub fn cached(mut self) -> Self {
        self.via_cache = true;
        self
    }

    /// Sets ionice class/priority (noise tenants).
    pub fn with_ionice(mut self, class: IoClass, priority: u8) -> Self {
        self.class = class;
        self.priority = priority;
        self
    }
}

/// Completion events the caller must schedule.
#[derive(Debug, Default)]
pub struct Ticks {
    /// Disk head started an IO: schedule a disk tick at `done_at`.
    pub disk: Option<Started>,
    /// An SSD request was admitted: schedule its completion at its key.
    pub ssd: Option<SsdDone>,
}

/// The completion of an admitted SSD request. Schedule it under `key`
/// (`EventQueue::schedule_keyed`), the calendar position of its last page,
/// and hand it back to [`Node::on_ssd_done`] when it pops.
#[derive(Debug, Clone, Copy)]
pub struct SsdDone {
    /// Where the request's last page completes.
    pub key: EventKey,
    /// The request.
    pub io: IoId,
    /// Its wait before service: the longest any of its pages queued.
    pub wait: Duration,
}

/// Outcome of submitting a read.
#[derive(Debug)]
pub enum ReadOutcome {
    /// Served from the page cache after `latency`.
    CacheHit {
        /// Service latency (addrcheck + memory copy).
        latency: Duration,
    },
    /// Rejected with EBUSY. `ticks` carries the background cache-refill IO
    /// MittCache keeps issuing after the rejection (§4.4 caveat).
    Busy {
        /// The predicted wait that violated the deadline.
        predicted_wait: Duration,
        /// The resource the rejection is blamed on (SLO attribution).
        resource: Resource,
        /// Refill completions to schedule.
        ticks: Ticks,
    },
    /// Queued into the storage stack; completion arrives via device ticks.
    Submitted {
        /// The assigned IO id (completion events reference it).
        io: IoId,
        /// Completions to schedule.
        ticks: Ticks,
    },
}

/// A full submission result.
#[derive(Debug)]
pub struct Submission {
    /// What happened to the request.
    pub outcome: ReadOutcome,
    /// Previously accepted IOs bumped out by this one (late EBUSY): the
    /// caller must fail their requests over.
    pub bumped: Vec<IoId>,
}

/// A completed storage IO.
#[derive(Debug, Clone, Copy)]
pub struct DoneIo {
    /// The IO that finished.
    pub io: IoId,
    /// Time it spent waiting before service (the quantity MittOS bounds).
    pub wait: Duration,
}

/// Result of a disk tick.
#[derive(Debug)]
pub struct DiskTickOut {
    /// The IO that completed.
    pub done: DoneIo,
    /// Next IO the head picked up, if any (schedule its tick).
    pub next: Option<Started>,
}

/// One resolved prediction in audit mode.
#[derive(Debug, Clone, Copy)]
pub struct AuditPair {
    /// Wait the predictor estimated at submission.
    pub predicted_wait: Duration,
    /// Wait the IO actually experienced.
    pub actual_wait: Duration,
    /// Whether MittOS would have returned EBUSY at `deadline`, the
    /// placeholder the audited read carried (or was later bumped).
    /// `mitt_obs::classify` recomputes the verdict at the offline deadline
    /// and never reads this field.
    pub would_reject: bool,
    /// The placeholder deadline the decision was made against.
    pub deadline: Duration,
}

struct DiskStack {
    disk: Disk,
    sched: Box<dyn DiskScheduler>,
    mitt: Box<dyn DiskPredictor>,
    nvram: Option<NvramBuffer>,
}

/// Bits of a packed page key that hold the page's index in its request;
/// the completion time in nanoseconds takes the rest.
const PAGE_BITS: u32 = 16;
const PAGE_MASK: u64 = (1 << PAGE_BITS) - 1;

/// Packs page `index` completing at `at` as `at << 16 | index`. Page `i`
/// of a request is keyed `(at, base + i)`, so within one request packed
/// keys order exactly like event keys.
///
/// # Panics
///
/// Panics, in every build, if `at` needs more than 48 bits of nanoseconds
/// (about 78 hours) or `index` more than 16.
fn pack(at: SimTime, index: u32) -> u64 {
    let ns = at.as_nanos();
    assert!(
        ns >> (64 - PAGE_BITS) == 0 && u64::from(index) <= PAGE_MASK,
        "SSD page key out of range: page {index} at {at}"
    );
    ns << PAGE_BITS | u64::from(index)
}

/// One page of an admitted SSD request whose completion is not applied
/// yet: what its release gives back to the device and to MittSSD.
struct PendingPage {
    chip: u16,
    channel: u16,
    /// The chip busy time the device charged.
    busy: Duration,
    /// The busy time MittSSD accounted for it.
    predicted: Duration,
}

/// An admitted SSD request with pages still to settle.
#[derive(Default)]
struct PendingRequest {
    /// The seq of page 0's key: page `i` settles once the calendar reaches
    /// `(done_at, base + i)`.
    base: u64,
    /// Every page, in striping order.
    pages: Vec<PendingPage>,
    /// The packed key ([`pack`]) of each unsettled page, latest first.
    keys: Vec<u64>,
}

impl PendingRequest {
    /// The event key of the page packed as `key`.
    fn key(&self, key: u64) -> EventKey {
        EventKey {
            at: SimTime::from_nanos(key >> PAGE_BITS),
            seq: self.base + (key & PAGE_MASK),
        }
    }

    /// The greatest packed key of this request that is due at the event
    /// key `(at, seq)`, with `at` packed ([`pack`]), or `None` when none can
    /// be: at time `at`, only the pages whose seq is at or below `seq` are
    /// due.
    fn last_due(&self, at: u64, seq: u64) -> Option<u64> {
        match seq.checked_sub(self.base) {
            Some(index) => Some(at | index.min(PAGE_MASK)),
            None => at.checked_sub(1),
        }
    }
}

struct SsdStack {
    ssd: Ssd,
    mitt: MittSsd,
    /// The GC bursts of the request being submitted.
    gc: Vec<GcBurst>,
    /// Each admitted request with unsettled pages.
    requests: Vec<PendingRequest>,
    /// Settled requests, whose buffers later requests reuse.
    spare: Vec<PendingRequest>,
}

impl SsdStack {
    /// Applies every page release keyed at or below `upto`, passing each
    /// page's completion time to `on_page`. A release only returns a
    /// channel slot and corrects one chip's mirror by a fixed amount, so
    /// releases commute and apply request by request.
    fn settle(&mut self, upto: EventKey, mut on_page: impl FnMut(SimTime)) {
        let at = pack(upto.at, 0);
        let mut i = 0;
        while let Some(req) = self.requests.get_mut(i) {
            let due = match req.last_due(at, upto.seq) {
                Some(last) if req.keys.last().is_some_and(|&k| k <= last) => {
                    req.keys.partition_point(|&k| k > last)
                }
                _ => {
                    i += 1;
                    continue;
                }
            };
            for &k in &req.keys[due..] {
                let p = &req.pages[(k & PAGE_MASK) as usize];
                let (chip, channel) = (usize::from(p.chip), usize::from(p.channel));
                let at = SimTime::from_nanos(k >> PAGE_BITS);
                self.ssd.complete_sub(channel, at);
                self.mitt.release_page(chip, channel, p.busy, p.predicted);
                on_page(at);
            }
            req.keys.truncate(due);
            if req.keys.is_empty() {
                let mut req = self.requests.swap_remove(i);
                req.pages.clear();
                self.spare.push(req);
            } else {
                i += 1;
            }
        }
    }
}

struct CacheStack {
    cache: PageCache,
    mitt: MittCache,
    swap_rng: SimRng,
}

/// An admitted IO's prediction, open until the IO completes or is revoked:
/// a traced run keeps one per admitted IO, for its error sample and a
/// bumped IO's attributed wait; audit mode keeps one per deadline IO, with
/// the [`AuditPair`] its completion fills in.
#[derive(Clone, Copy)]
struct OpenPrediction {
    predicted_wait: Duration,
    audit: Option<AuditPair>,
}

/// What the node does with a predictor's raw verdict on a deadline IO:
/// §7.6 audit mode records it and admits anyway; §7.7 error injection may
/// flip it.
struct Policy {
    audit_mode: bool,
    /// The audit of the IO being admitted, which [`Node::settle`] takes.
    audited: Option<AuditPair>,
    injector: Option<ErrorInjector>,
}

impl Policy {
    fn apply(&mut self, io: &BlockIo, raw: Decision) -> Decision {
        let Some(deadline) = io.deadline else {
            return raw;
        };
        if self.audit_mode {
            self.audited = Some(AuditPair {
                predicted_wait: raw.predicted_wait(),
                actual_wait: Duration::ZERO,
                would_reject: !raw.is_admit(),
                deadline,
            });
            return Decision::Admit {
                predicted_wait: raw.predicted_wait(),
            };
        }
        match &mut self.injector {
            Some(inj) => inj.apply(raw),
            None => raw,
        }
    }
}

/// One storage node.
pub struct Node {
    /// Node index within the cluster.
    pub id: usize,
    disk: Option<DiskStack>,
    ssd: Option<SsdStack>,
    cache: Option<CacheStack>,
    cpu: Option<CpuModel>,
    ids: IoIdGen,
    policy: Policy,
    disable_bump_cancel: bool,
    audit_pairs: Vec<AuditPair>,
    fill_after_read: FastSet<IoId>,
    /// Times this node returned EBUSY, kept only once
    /// [`Node::record_ebusy_times`] asks for them.
    ebusy_times: Option<Vec<SimTime>>,
    ctx: NodeCtx,
    /// This node's timeline row: every admit, reject, dispatch and device
    /// service is recorded here, where the verdict or completion leaves
    /// the storage stack.
    tsl: TslSink,
    /// Open predictions of admitted IOs, resolved at completion.
    open: FastMap<IoId, OpenPrediction>,
    /// The driving calendar's position: SSD page releases settle against
    /// its current key and draw their sequence numbers from it.
    clock: EventClock,
}

impl Node {
    /// Builds a node, running the offline device profiling the predictors
    /// need (§4.1's 11-hour run, instantaneous in virtual time).
    pub fn new(id: usize, cfg: NodeConfig, rng: &mut SimRng) -> Self {
        let disk = cfg.disk.map(|d| {
            // Profile a scratch twin of the device so the production
            // disk's state is untouched.
            let mut scratch = Disk::new(d.spec.clone(), rng.fork());
            let mut prof_rng = rng.fork();
            let profile = profile_disk(&mut scratch, d.profile_samples, &mut prof_rng)
                .expect("scratch disk is idle and exclusively owned");
            let disk = Disk::new(d.spec.clone(), rng.fork());
            let (sched, mitt): (Box<dyn DiskScheduler>, Box<dyn DiskPredictor>) = match d.sched {
                SchedKind::Noop => (
                    Box::new(Noop::new()),
                    Box::new(MittNoop::new(profile, cfg.hop)),
                ),
                SchedKind::Cfq(ref c) => (
                    Box::new(Cfq::new(c.clone())),
                    Box::new(MittCfq::new(profile, cfg.hop)),
                ),
            };
            DiskStack {
                disk,
                sched,
                mitt,
                nvram: d.nvram.then(NvramBuffer::default_disk_backed),
            }
        });
        let ssd = cfg.ssd.map(|spec| {
            let mut scratch = Ssd::new(spec.clone(), rng.fork());
            let profile = profile_ssd(&mut scratch, 200);
            let ssd = Ssd::new(spec.clone(), rng.fork());
            let mitt = MittSsd::new(&spec, profile, cfg.hop);
            SsdStack {
                ssd,
                mitt,
                gc: Vec::new(),
                requests: Vec::new(),
                spare: Vec::new(),
            }
        });
        let cache = cfg.cache.map(|c| CacheStack {
            cache: PageCache::new(c.cfg),
            mitt: MittCache::new(c.min_io_latency),
            swap_rng: rng.fork(),
        });
        let injector = cfg
            .inject
            .map(|(fn_rate, fp_rate)| ErrorInjector::new(fn_rate, fp_rate, rng.fork()));
        Node {
            id,
            disk,
            ssd,
            cache,
            cpu: cfg.cpu.map(CpuModel::new),
            ids: IoIdGen::new(),
            policy: Policy {
                audit_mode: cfg.audit_mode,
                audited: None,
                injector,
            },
            disable_bump_cancel: cfg.disable_bump_cancel,
            audit_pairs: Vec::new(),
            fill_after_read: FastSet::default(),
            ebusy_times: None,
            ctx: NodeCtx::disabled(),
            tsl: TslSink::disabled(),
            open: FastMap::default(),
            clock: EventClock::default(),
        }
    }

    /// Attaches the run's handles, tagged with this node's id, and hands
    /// them to the scheduler, both devices and the cache check, so the
    /// whole stack records into one ring. The predictors take none: the
    /// shared admission path instruments their decisions from here.
    pub fn set_ctx(&mut self, ctx: &NodeCtx) {
        let ctx = ctx.for_node(self.id as u32);
        if let Some(ds) = &mut self.disk {
            ds.sched.set_ctx(ctx.clone());
            ds.disk.set_ctx(ctx.clone());
        }
        if let Some(ss) = &mut self.ssd {
            ss.ssd.set_ctx(ctx.clone());
        }
        if let Some(cs) = &mut self.cache {
            cs.mitt.set_ctx(ctx.clone());
        }
        self.ctx = ctx;
    }

    /// Attaches the run's timeline, tagged with this node's id.
    pub fn set_tsl(&mut self, tsl: &TslSink) {
        self.tsl = tsl.for_node(self.id as u32);
    }

    /// Attaches the clock of the calendar that drives this node. SSD
    /// submissions must happen while that calendar's current event is
    /// being handled, and panic otherwise (a node without a clock stays at
    /// time zero, so its first SSD submission after time zero panics).
    pub fn set_clock(&mut self, clock: &EventClock) {
        self.clock = clock.clone();
    }

    /// Runs pre-IO request-handler CPU work; returns when the IO can start.
    pub fn cpu_pre(&mut self, now: SimTime) -> SimTime {
        match &mut self.cpu {
            Some(c) => c.run_pre(now),
            None => now,
        }
    }

    /// Runs post-IO reply CPU work; returns when the reply can be sent.
    pub fn cpu_post(&mut self, now: SimTime) -> SimTime {
        match &mut self.cpu {
            Some(c) => c.run_post(now),
            None => now,
        }
    }

    /// Submits a read through the MittOS stack.
    pub fn submit_read(&mut self, req: &ReadReq, now: SimTime) -> Submission {
        self.ctx.prof.io_submitted();
        self.ctx.trace.count(SUBMIT_COUNTER, 1);
        // mmap/addrcheck path: consult the page cache first.
        if req.via_cache {
            if let Some(cs) = &mut self.cache {
                let slo = req.deadline.map(Slo::deadline);
                match cs.mitt.check(&cs.cache, req.offset, req.len, slo, now) {
                    CacheVerdict::Hit => {
                        self.tsl.record_admit(now);
                        cs.cache.access(req.offset, req.len);
                        let latency = cs.cache.config().hit_latency + ADDRCHECK_COST;
                        self.ctx.trace.count(CACHE_HIT_COUNTER, 1);
                        self.ctx.trace.emit(
                            now,
                            Subsystem::Node,
                            EventKind::CacheHit {
                                io: req.offset,
                                latency,
                            },
                        );
                        return Submission {
                            outcome: ReadOutcome::CacheHit { latency },
                            bumped: Vec::new(),
                        };
                    }
                    CacheVerdict::Busy { refill } => {
                        let resource = cs.mitt.attribution(now);
                        // MittCache emits no Predict event, so the
                        // attribution carries no predicted wait either.
                        self.reject(
                            req.offset,
                            Duration::MAX,
                            Duration::MAX,
                            resource,
                            refill.len() as u64,
                            now,
                        );
                        // Keep swapping the data in at Idle priority so the
                        // tenant's cache share is not starved (§4.4).
                        let ticks = self.submit_refill(req.offset, req.len, req.medium, now);
                        return Submission {
                            outcome: ReadOutcome::Busy {
                                predicted_wait: Duration::MAX,
                                resource,
                                ticks,
                            },
                            bumped: Vec::new(),
                        };
                    }
                    CacheVerdict::Miss { .. } => {
                        // Fall through to storage with the deadline
                        // propagated; fill the cache on completion.
                        self.tsl.record_admit(now);
                    }
                }
            }
        }
        let fill = req.via_cache && self.cache.is_some();
        let sub = self.submit_storage(req, now);
        if fill {
            if let ReadOutcome::Submitted { io, .. } = &sub.outcome {
                self.fill_after_read.insert(*io);
            }
        }
        sub
    }

    fn build_io(&mut self, req: &ReadReq, kind: IoKind, now: SimTime) -> BlockIo {
        let id = self.ids.next_id();
        let mut io = match kind {
            IoKind::Read => BlockIo::read(id, req.offset, req.len, req.owner, now),
            IoKind::Write => BlockIo::write(id, req.offset, req.len, req.owner, now),
        };
        io = io.with_ionice(req.class, req.priority);
        if let Some(d) = req.deadline {
            io = io.with_deadline(d);
        }
        self.ctx.trace.emit(
            now,
            Subsystem::Node,
            EventKind::Submit {
                io: io.id.0,
                len: io.len,
            },
        );
        io
    }

    fn submit_storage(&mut self, req: &ReadReq, now: SimTime) -> Submission {
        match req.medium {
            Medium::Disk => self.submit_disk(req, IoKind::Read, now),
            Medium::Ssd => self.submit_ssd(req, IoKind::Read, now),
        }
    }

    /// Returns EBUSY for `io`: the node-level `Reject` event reporting
    /// `wait`, directly followed by its SLO-attribution companion carrying
    /// `attributed` (consumers pair them by order), plus the EBUSY and
    /// per-resource counters and the timeline's reject record.
    fn reject(
        &mut self,
        io: u64,
        wait: Duration,
        attributed: Duration,
        resource: Resource,
        detail: u64,
        now: SimTime,
    ) {
        if let Some(times) = &mut self.ebusy_times {
            times.push(now);
        }
        self.tsl.record_reject(now, resource);
        self.ctx.trace.count(EBUSY_COUNTER, 1);
        self.ctx.trace.emit(
            now,
            Subsystem::Node,
            EventKind::Reject {
                io,
                predicted_wait: wait,
            },
        );
        self.ctx.trace.emit(
            now,
            Subsystem::Node,
            EventKind::Attribution {
                io,
                resource,
                predicted_wait: attributed,
                detail,
            },
        );
        self.ctx.trace.count(resource.counter(), 1);
    }

    /// Settles the verdict of a storage admission: a rejection becomes
    /// EBUSY and the returned submission; an admitted IO's prediction stays
    /// open when it is traced or audited.
    fn settle(&mut self, io: &BlockIo, adm: &Admission, now: SimTime) -> Option<Submission> {
        match adm.decision {
            Decision::Reject { predicted_wait } => {
                let (resource, detail) = (adm.resource, adm.detail);
                self.reject(
                    io.id.0,
                    predicted_wait,
                    predicted_wait,
                    resource,
                    detail,
                    now,
                );
                Some(Submission {
                    outcome: ReadOutcome::Busy {
                        predicted_wait,
                        resource,
                        ticks: Ticks::default(),
                    },
                    bumped: Vec::new(),
                })
            }
            Decision::Admit { predicted_wait } => {
                self.tsl.record_admit(now);
                let audit = self.policy.audited.take();
                if audit.is_some() || self.ctx.trace.is_enabled() {
                    let open = OpenPrediction {
                        predicted_wait,
                        audit,
                    };
                    self.open.insert(io.id, open);
                }
                None
            }
        }
    }

    fn submit_disk(&mut self, req: &ReadReq, kind: IoKind, now: SimTime) -> Submission {
        let io = self.build_io(req, kind, now);
        let ds = self.disk.as_mut().expect("node has no disk stack");
        let policy = &mut self.policy;
        let adm = admit(ds.mitt.as_mut(), &io, now, &self.ctx, |io, raw| {
            policy.apply(io, raw)
        });
        if let Some(busy) = self.settle(&io, &adm, now) {
            return busy;
        }
        let mut bumped = adm.bumped;
        if self.disable_bump_cancel {
            // Ablation: pretend the tolerable-time table does not exist —
            // bumped IOs stay queued and miss silently.
            bumped.clear();
        }
        if self.policy.audit_mode {
            // EBUSY is not enforced in audit mode: bumped IOs keep running,
            // but their predictions flip to "would reject".
            for id in bumped.drain(..) {
                if let Some(a) = self.open.get_mut(&id).and_then(|o| o.audit.as_mut()) {
                    a.would_reject = true;
                }
            }
        }
        let ds = self.disk.as_mut().expect("node has no disk stack");
        for id in &bumped {
            ds.sched.cancel(*id);
        }
        for &id in &bumped {
            // The bumped IO's own Predict event carried its admission-time
            // wait; attribute with that value.
            let pw = self.open.remove(&id).map(|o| o.predicted_wait);
            let pw = pw.unwrap_or(Duration::MAX);
            self.reject(id.0, Duration::MAX, pw, adm.resource, adm.detail, now);
        }
        let ds = self.disk.as_mut().expect("node has no disk stack");
        let io_id = io.id;
        let out = ds.sched.enqueue(io, &mut ds.disk, now);
        for id in &out.dispatched {
            ds.mitt.on_dispatch(*id, now);
            self.tsl.record_dispatch(now);
        }
        Submission {
            outcome: ReadOutcome::Submitted {
                io: io_id,
                ticks: Ticks {
                    disk: out.started,
                    ssd: None,
                },
            },
            bumped,
        }
    }

    /// Admits and submits a request to the SSD stack, after settling every
    /// page release at or below the current event's key; the returned
    /// ticks hold the request's one completion, and each page becomes a
    /// release keyed where its own completion would have popped.
    ///
    /// # Panics
    ///
    /// Panics if `req.len` is 0: an empty request would have no sub-IO to
    /// complete it, so it would never finish. Panics if `now` is not the
    /// time of the current event of the calendar attached with
    /// [`Node::set_clock`]: pages released against any other clock would
    /// never settle, or settle out of order.
    fn submit_ssd(&mut self, req: &ReadReq, kind: IoKind, now: SimTime) -> Submission {
        assert!(req.len > 0, "an SSD request must cover at least one byte");
        let upto = self.clock.key();
        assert_eq!(
            upto.at, now,
            "SSD submission outside the driving calendar's current event"
        );
        let ss = self.ssd.as_mut().expect("node has no SSD stack");
        ss.settle(upto, |_| {});
        let io = self.build_io(req, kind, now);
        let ss = self.ssd.as_mut().expect("node has no SSD stack");
        let policy = &mut self.policy;
        let adm = admit(&mut ss.mitt, &io, now, &self.ctx, |io, raw| {
            policy.apply(io, raw)
        });
        if let Some(busy) = self.settle(&io, &adm, now) {
            return busy;
        }
        // One walk of the stripe: MittSSD accounts each page, the device
        // serves it, and the node keeps one record for its release.
        let ss = self.ssd.as_mut().expect("node has no SSD stack");
        let tsl = &self.tsl;
        let tsl_on = tsl.is_enabled();
        let mut req = ss.spare.pop().unwrap_or_default();
        let mut wait = Duration::ZERO;
        ss.ssd.submit_pages(&io, now, |sub, gc| {
            let predicted = ss.mitt.account_page(io.kind, sub.chip, sub.channel, now);
            wait = wait.max(sub.done_at.saturating_since(now).saturating_sub(sub.busy));
            if tsl_on {
                tsl.observe_service(sub.done_at, sub.busy);
            }
            req.keys.push(pack(sub.done_at, sub.key.index));
            req.pages.push(PendingPage {
                chip: u16::try_from(sub.chip).expect("chip index fits in u16"),
                channel: u16::try_from(sub.channel).expect("channel index fits in u16"),
                busy: sub.busy,
                predicted,
            });
            ss.gc.extend(gc);
        });
        req.base = self.clock.reserve(req.pages.len() as u64);
        req.keys.sort_unstable_by(|a, b| b.cmp(a));
        let last = req.key(req.keys[0]);
        ss.requests.push(req);
        for gc in ss.gc.drain(..) {
            ss.mitt.on_gc(gc.chip, gc.busy, now);
        }
        Submission {
            outcome: ReadOutcome::Submitted {
                io: io.id,
                ticks: Ticks {
                    disk: None,
                    ssd: Some(SsdDone {
                        key: last,
                        io: io.id,
                        wait,
                    }),
                },
            },
            bumped: Vec::new(),
        }
    }

    /// Submits a write. Disk writes are absorbed by NVRAM when configured
    /// (§7.8.6); otherwise writes flow through the storage stack like
    /// reads.
    pub fn submit_write(&mut self, req: &ReadReq, now: SimTime) -> WriteOutcome {
        self.ctx.prof.io_submitted();
        if req.medium == Medium::Disk {
            if let Some(ds) = &mut self.disk {
                if let Some(nvram) = &mut ds.nvram {
                    return WriteOutcome::Buffered {
                        latency: nvram.write(req.len, now),
                    };
                }
            }
        }
        let sub = match req.medium {
            Medium::Disk => self.submit_disk(req, IoKind::Write, now),
            Medium::Ssd => self.submit_ssd(req, IoKind::Write, now),
        };
        WriteOutcome::Submitted(sub)
    }

    /// Issues the background swap-in read MittCache schedules after an
    /// EBUSY, at Idle priority with no deadline.
    fn submit_refill(&mut self, offset: u64, len: u32, medium: Medium, now: SimTime) -> Ticks {
        let req = ReadReq {
            offset,
            len,
            deadline: None,
            owner: ProcessId(u32::MAX - 1),
            class: IoClass::Idle,
            priority: 7,
            medium,
            via_cache: false,
        };
        let sub = self.submit_storage(&req, now);
        match sub.outcome {
            ReadOutcome::Submitted { io, ticks } => {
                self.fill_after_read.insert(io);
                ticks
            }
            _ => Ticks::default(),
        }
    }

    /// Handles a disk completion event.
    ///
    /// # Panics
    ///
    /// Panics if the node has no disk stack or no IO is in flight.
    pub fn on_disk_tick(&mut self, now: SimTime) -> DiskTickOut {
        let ds = self.disk.as_mut().expect("node has no disk stack");
        let (fin, out) = ds
            .sched
            .on_complete(&mut ds.disk, now)
            .expect("disk tick scheduled, so an IO is in flight");
        ds.mitt.on_complete(fin.io.id, fin.service);
        self.tsl.observe_service(now, fin.service);
        for id in &out.dispatched {
            ds.mitt.on_dispatch(*id, now);
            self.tsl.record_dispatch(now);
        }
        let wait = fin.started_at.saturating_since(fin.io.submit);
        self.resolve_prediction(fin.io.id, wait, now);
        if self.fill_after_read.remove(&fin.io.id) {
            if let Some(cs) = &mut self.cache {
                let evicted = cs.cache.insert_range(fin.io.offset, fin.io.len);
                if !evicted.is_empty() {
                    self.ctx.trace.count("cache.evicted", evicted.len() as u64);
                    self.ctx.trace.emit(
                        now,
                        Subsystem::Node,
                        EventKind::Mark {
                            name: "cache_evict",
                            value: evicted.len() as u64,
                        },
                    );
                }
            }
        }
        DiskTickOut {
            done: DoneIo {
                io: fin.io.id,
                wait,
            },
            next: out.started,
        }
    }

    /// Finishes an SSD request when its [`SsdDone`] pops. Its pages are
    /// settled by the next submission that reads SSD state.
    pub fn on_ssd_done(&mut self, io: IoId, wait: Duration, now: SimTime) {
        self.resolve_prediction(io, wait, now);
        // Tiered SSD reads refill the cache through submit_read's hit
        // path, not here: the SSD keeps no offset per request.
        self.fill_after_read.remove(&io);
    }

    /// Applies every SSD page release keyed at or below `upto`, passing
    /// each page's completion time to `on_page` (not in time order).
    /// Drivers that must observe page completion times (the timeline's
    /// clock) call this before handling each event; otherwise the next SSD
    /// submission settles them.
    pub fn settle_ssd(&mut self, upto: EventKey, on_page: impl FnMut(SimTime)) {
        if let Some(ss) = &mut self.ssd {
            ss.settle(upto, on_page);
        }
    }

    /// Resolves a finished IO: closes its open prediction into an
    /// [`AuditPair`] (audit mode, traced or not), then emits the node-level
    /// completion event and the IO's prediction-error sample
    /// (|predicted - actual| wait).
    fn resolve_prediction(&mut self, id: IoId, actual_wait: Duration, now: SimTime) {
        let open = self.open.remove(&id);
        if let Some(mut pair) = open.and_then(|o| o.audit) {
            pair.actual_wait = actual_wait;
            self.audit_pairs.push(pair);
        }
        if !self.ctx.trace.is_enabled() {
            return;
        }
        self.ctx.trace.emit(
            now,
            Subsystem::Node,
            EventKind::Complete {
                io: id.0,
                wait: actual_wait,
            },
        );
        if let Some(OpenPrediction { predicted_wait, .. }) = open {
            let err = predicted_wait.as_nanos().abs_diff(actual_wait.as_nanos());
            self.ctx.trace.observe_ns(PREDICT_ERROR_HIST, err);
        }
    }

    /// Cancels a still-queued disk IO (tied-request revocation), ending it
    /// with a node-level `Revoke` event. Returns true if the IO was revoked
    /// before reaching the device.
    pub fn cancel_read(&mut self, id: IoId, now: SimTime) -> bool {
        let Some(ds) = self.disk.as_mut() else {
            return false;
        };
        if ds.sched.cancel(id).is_some() {
            ds.mitt.on_cancel(id);
            self.fill_after_read.remove(&id);
            self.open.remove(&id);
            self.ctx
                .trace
                .emit(now, Subsystem::Node, EventKind::Revoke { io: id.0 });
            true
        } else {
            false
        }
    }

    /// Swaps out a percentage of resident pages (cache noise / thrash
    /// faults); each eviction storm is recorded as a trace marker.
    pub fn swap_out_pct(&mut self, pct: u32, now: SimTime) {
        if let Some(cs) = &mut self.cache {
            let mut rng = cs.swap_rng.fork();
            let evicted = cs.cache.swap_out_fraction(f64::from(pct) / 100.0, &mut rng);
            if evicted > 0 {
                self.ctx.trace.count("cache.evicted", evicted as u64);
                self.ctx.trace.emit(
                    now,
                    Subsystem::Node,
                    EventKind::Mark {
                        name: "cache_evict",
                        value: evicted as u64,
                    },
                );
            }
        }
    }

    /// Preloads a byte range into the page cache (experiment setup).
    pub fn preload(&mut self, offset: u64, len: u32) {
        if let Some(cs) = &mut self.cache {
            cs.cache.insert_range(offset, len);
        }
    }

    /// Drops a byte range from the cache (`posix_fadvise`).
    pub fn fadvise(&mut self, offset: u64, len: u32) {
        if let Some(cs) = &mut self.cache {
            cs.cache.fadvise_dontneed(offset, len);
        }
    }

    /// IOs currently inside the disk stack (scheduler + device), the
    /// Figure 13b occupancy signal.
    pub fn disk_occupancy(&self) -> usize {
        self.disk
            .as_ref()
            .map_or(0, |ds| ds.sched.queued() + ds.disk.occupancy())
    }

    /// Starts keeping the time of every EBUSY this node returns, for
    /// [`Node::ebusy_times`]; a node that nobody watches keeps none.
    pub fn record_ebusy_times(&mut self) {
        self.ebusy_times.get_or_insert_with(Vec::new);
    }

    /// Times at which this node returned EBUSY since
    /// [`Node::record_ebusy_times`]; empty if it was never called.
    pub fn ebusy_times(&self) -> &[SimTime] {
        self.ebusy_times.as_deref().unwrap_or_default()
    }

    /// Resolved audit pairs (audit mode only).
    pub fn audit_pairs(&self) -> &[AuditPair] {
        &self.audit_pairs
    }
}

/// Outcome of a write submission.
#[derive(Debug)]
pub enum WriteOutcome {
    /// Absorbed by NVRAM after `latency` (§7.8.6).
    Buffered {
        /// User-visible commit latency.
        latency: Duration,
    },
    /// Flows through the storage stack like a read.
    Submitted(Submission),
}

#[cfg(test)]
mod tests {
    use super::*;
    use mittos::Predictor;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    fn drain_disk(node: &mut Node, first: Option<Started>) -> Vec<(IoId, SimTime)> {
        let mut done = Vec::new();
        let mut tick = first;
        while let Some(s) = tick {
            let out = node.on_disk_tick(s.done_at);
            done.push((out.done.io, s.done_at));
            tick = out.next;
        }
        done
    }

    #[test]
    fn disk_read_completes_through_stack() {
        let mut r = rng();
        let mut node = Node::new(0, NodeConfig::disk_cfq(), &mut r);
        let req = ReadReq::client(500 * mitt_device::GB, 4096, ProcessId(1))
            .with_deadline(Duration::from_millis(20));
        let sub = node.submit_read(&req, SimTime::ZERO);
        let ReadOutcome::Submitted { io, ticks } = sub.outcome else {
            panic!("expected submission, got {:?}", sub.outcome);
        };
        let done = drain_disk(&mut node, ticks.disk);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, io);
        // Idle disk: wait should be ~zero.
        assert!(done[0].1 > SimTime::ZERO);
    }

    #[test]
    fn busy_disk_rejects_deadline_reads() {
        let mut r = rng();
        let mut node = Node::new(0, NodeConfig::disk_cfq(), &mut r);
        node.record_ebusy_times();
        // Saturate with no-deadline noise IOs.
        let mut first = None;
        for i in 0..30u64 {
            let req = ReadReq::client((i * 31) % 1000 * mitt_device::GB, 4096, ProcessId(9));
            let sub = node.submit_read(&req, SimTime::ZERO);
            if let ReadOutcome::Submitted { ticks, .. } = sub.outcome {
                first = first.or(ticks.disk);
            }
        }
        let req = ReadReq::client(100 * mitt_device::GB, 4096, ProcessId(1))
            .with_deadline(Duration::from_millis(20));
        let sub = node.submit_read(&req, SimTime::ZERO);
        assert!(
            matches!(sub.outcome, ReadOutcome::Busy { .. }),
            "30 queued IOs must exceed a 20ms deadline"
        );
        assert_eq!(node.ebusy_times().len(), 1);
        // The stack still drains cleanly.
        let done = drain_disk(&mut node, first);
        assert_eq!(done.len(), 30);
    }

    #[test]
    fn ssd_read_completes_and_releases_channels() {
        let mut r = rng();
        let mut node = Node::new(0, NodeConfig::ssd(), &mut r);
        let mut q = mitt_sim::EventQueue::new();
        node.set_clock(&q.clock());
        let req = ReadReq::client(0, 4096, ProcessId(1))
            .on_ssd()
            .with_deadline(Duration::from_millis(2));
        let sub = node.submit_read(&req, SimTime::ZERO);
        let ReadOutcome::Submitted { io, ticks } = sub.outcome else {
            panic!("expected submission");
        };
        let done = ticks.ssd.expect("one completion per request");
        assert_eq!(done.io, io);
        q.schedule_keyed(done.key, done.io);
        let (now, popped) = q.pop().expect("completion scheduled");
        assert_eq!((now, popped), (done.key.at, io));
        node.on_ssd_done(io, done.wait, now);
        let ss = node.ssd.as_ref().expect("SSD node");
        assert_eq!(ss.ssd.channel_outstanding(0), 1, "not settled yet");
        let mut settled = Vec::new();
        node.settle_ssd(q.key(), |at| settled.push(at));
        assert_eq!(settled, [now]);
        let ss = node.ssd.as_ref().expect("SSD node");
        assert_eq!(ss.ssd.channel_outstanding(0), 0, "channel released");
        assert_eq!(ss.mitt.blame().1, 0, "MittSSD released the sub-IO");
    }

    /// A calendar event of [`deferred_ssd_pages_match_an_eager_per_page_reference`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Drive {
        Read {
            lpn: u64,
            deadline: Option<Duration>,
        },
        Write {
            lpn: u64,
            pages: u32,
        },
        Done {
            io: IoId,
            wait: Duration,
        },
        /// One page's completion: the eager reference's own events only.
        Page(mitt_device::SubCompletion),
    }

    /// The eager reference: the SSD and MittSSD driven by one calendar
    /// event per page, settled the moment each page pops.
    struct Eager {
        ssd: Ssd,
        mitt: MittSsd,
        q: mitt_sim::EventQueue<Drive>,
        ids: IoIdGen,
        /// Each request's last page key and wait, until that page pops.
        last: FastMap<IoId, (EventKey, Duration)>,
        /// GC bursts the drive fired.
        gc: usize,
    }

    impl Eager {
        /// Pops up to the next event that is not a mid-request page,
        /// settling pages on the way; a request's last page pops as its
        /// `Done`.
        fn pop(&mut self) -> Option<(SimTime, Drive)> {
            loop {
                let (now, ev) = self.q.pop()?;
                let Drive::Page(sub) = ev else {
                    return Some((now, ev));
                };
                let io = sub.key.io;
                self.ssd.complete_sub(sub.channel, now);
                self.mitt
                    .on_complete_sub(io, sub.key.index, sub.busy, sub.chip);
                if self.last.get(&io).is_some_and(|l| l.0 == self.q.key()) {
                    let (_, wait) = self.last.remove(&io).expect("just found");
                    return Some((now, Drive::Done { io, wait }));
                }
            }
        }

        /// Admits and submits like `Node::submit_ssd`, one event per page;
        /// returns the completion, or `None` on EBUSY.
        fn submit(
            &mut self,
            req: &ReadReq,
            kind: IoKind,
            now: SimTime,
        ) -> Option<(SsdDone, Vec<SimTime>)> {
            let id = self.ids.next_id();
            let mut io = match kind {
                IoKind::Read => BlockIo::read(id, req.offset, req.len, req.owner, now),
                IoKind::Write => BlockIo::write(id, req.offset, req.len, req.owner, now),
            };
            io.deadline = req.deadline;
            if !self.mitt.admit(&io, now).is_admit() {
                return None;
            }
            let out = self.ssd.submit(&io, now);
            self.gc += out.gc.len();
            for gc in &out.gc {
                self.mitt.on_gc(gc.chip, gc.busy, now);
            }
            let base = self.q.clock().reserve(0);
            let (mut last, mut wait) = (EventKey::default(), Duration::ZERO);
            for (sub, seq) in out.subs.iter().zip(base..) {
                last = last.max(EventKey {
                    at: sub.done_at,
                    seq,
                });
                wait = wait.max(sub.done_at.saturating_since(now).saturating_sub(sub.busy));
                self.q.schedule(sub.done_at, Drive::Page(*sub));
            }
            self.last.insert(id, (last, wait));
            let times = out.subs.iter().map(|s| s.done_at).collect();
            Some((
                SsdDone {
                    key: last,
                    io: id,
                    wait,
                },
                times,
            ))
        }
    }

    /// Differential check of the deferred SSD path against an eager
    /// reference that pops one calendar event per page. The drive has no
    /// jitter and no ECC retries and every request starts on a 20 µs grid,
    /// so page completions tie on the nanosecond with each other and with
    /// reads: probe reads scheduled up front (below every page's key),
    /// reads scheduled at one of a request's page completion times after
    /// the request (above that page's key), and reads issued while a
    /// request's completion is handled (at its last page's key). After
    /// every submission both sides agree on the verdict, the completion
    /// key and wait, every channel's occupancy and MittSSD's predicted
    /// wait on every chip in play. Every `gc_every_writes` programs a chip
    /// collects; returns the GC bursts fired.
    fn deferred_against_eager(gc_every_writes: u64) -> usize {
        let spec = SsdSpec {
            jitter: 0.0,
            retry_prob: 0.0,
            gc_every_writes,
            ..SsdSpec::default()
        };
        let page = u64::from(spec.page_size);
        let grid = Duration::from_micros(20);
        let mut cfg = NodeConfig::ssd();
        cfg.ssd = Some(spec.clone());
        let mut node = Node::new(0, cfg, &mut rng());
        let mut q = mitt_sim::EventQueue::new();
        node.set_clock(&q.clock());
        let profile = profile_ssd(&mut Ssd::new(spec.clone(), SimRng::new(1)), 200);
        let mut eager = Eager {
            ssd: Ssd::new(spec.clone(), SimRng::new(2)),
            mitt: MittSsd::new(&spec, profile, mittos::DEFAULT_HOP),
            q: mitt_sim::EventQueue::new(),
            ids: IoIdGen::new(),
            last: FastMap::default(),
            gc: 0,
        };
        let mut drive = SimRng::new(0xd1ff);
        // Chips 0..32: two chips behind each of the 16 channels.
        let schedule = |q: &mut mitt_sim::EventQueue<Drive>, e: &mut Eager, at, ev| {
            q.schedule(at, ev);
            e.q.schedule(at, ev);
        };
        for step in 0..2_000u64 {
            let at = SimTime::ZERO + grid * step;
            let deadline = drive.chance(0.5).then(|| grid * drive.range_u64(1, 40));
            let read = Drive::Read {
                lpn: drive.range_u64(0, 32),
                deadline,
            };
            schedule(&mut q, &mut eager, at, read);
            if step % 25 == 0 {
                let write = Drive::Write {
                    lpn: drive.range_u64(0, 32),
                    pages: drive.range_u64(1, 7) as u32,
                };
                schedule(&mut q, &mut eager, at, write);
            }
        }
        let probe = |lpn: u64| {
            BlockIo::read(
                IoId(u64::MAX),
                lpn * page,
                4096,
                ProcessId(0),
                SimTime::ZERO,
            )
        };
        let (mut reads, mut tied, mut admitted) = (0, 0, 0);
        while let Some((now, ev)) = q.pop() {
            let (eager_now, eager_ev) = eager.pop().expect("the reference has the same events");
            assert_eq!((now, ev), (eager_now, eager_ev));
            assert_eq!(q.key(), eager.q.key());
            let submission = match ev {
                Drive::Read { lpn, deadline } => {
                    let mut req = ReadReq::client(lpn * page, 4096, ProcessId(1)).on_ssd();
                    req.deadline = deadline;
                    Some((req, IoKind::Read))
                }
                Drive::Write { lpn, pages } => {
                    let req =
                        ReadReq::client(lpn * page, pages * spec.page_size, ProcessId(9)).on_ssd();
                    Some((req, IoKind::Write))
                }
                Drive::Done { io, wait } => {
                    node.on_ssd_done(io, wait, now);
                    let read =
                        ReadReq::client(drive.range_u64(0, 32) * page, 4096, ProcessId(1)).on_ssd();
                    drive.chance(0.5).then_some((read, IoKind::Read))
                }
                Drive::Page { .. } => unreachable!("the deferred calendar has no page events"),
            };
            let Some((req, kind)) = submission else {
                continue;
            };
            tied += usize::from(eager.q.peek_time() == Some(now));
            reads += usize::from(kind == IoKind::Read);
            let sub = match kind {
                IoKind::Read => node.submit_read(&req, now),
                IoKind::Write => match node.submit_write(&req, now) {
                    WriteOutcome::Submitted(sub) => sub,
                    WriteOutcome::Buffered { .. } => unreachable!("SSD nodes buffer no writes"),
                },
            };
            let reference = eager.submit(&req, kind, now);
            match (sub.outcome, reference) {
                (ReadOutcome::Busy { .. }, None) => {}
                (ReadOutcome::Submitted { ticks, .. }, Some((want, times))) => {
                    admitted += 1;
                    let done = ticks.ssd.expect("an SSD completion");
                    assert_eq!(
                        (done.key, done.io, done.wait),
                        (want.key, want.io, want.wait)
                    );
                    q.schedule_keyed(
                        done.key,
                        Drive::Done {
                            io: done.io,
                            wait: done.wait,
                        },
                    );
                    if drive.chance(0.3) {
                        // A read at one page's completion time, scheduled
                        // after the request: it pops after that page.
                        let at = times[drive.index(times.len())];
                        let read = Drive::Read {
                            lpn: drive.range_u64(0, 32),
                            deadline: None,
                        };
                        schedule(&mut q, &mut eager, at, read);
                    }
                }
                (got, want) => panic!(
                    "at {now}: deferred {got:?}, eager admitted {}",
                    want.is_some()
                ),
            }
            let ss = node.ssd.as_ref().expect("SSD node");
            for c in 0..spec.channels {
                assert_eq!(
                    ss.ssd.channel_outstanding(c),
                    eager.ssd.channel_outstanding(c),
                    "channel {c} at {now}"
                );
            }
            for lpn in 0..32 {
                assert_eq!(
                    ss.mitt.predicted_wait(&probe(lpn), now),
                    eager.mitt.predicted_wait(&probe(lpn), now),
                    "chip {lpn} at {now}"
                );
            }
            assert_eq!(ss.mitt.blame(), eager.mitt.blame());
        }
        assert!(eager.pop().is_none(), "the reference drained too");
        assert!(
            reads > 2_000 && admitted > 1_000,
            "{reads} reads, {admitted} admitted"
        );
        assert!(
            tied > 500,
            "only {tied} submissions tied with a pending event"
        );
        eager.gc
    }

    /// [`deferred_against_eager`] at the drive's GC cadence, which fires
    /// no burst in this run, and with GC every four programs per chip, so
    /// bursts land between MittSSD's page accounting and its releases.
    #[test]
    fn deferred_ssd_pages_match_an_eager_per_page_reference() {
        assert_eq!(
            deferred_against_eager(SsdSpec::default().gc_every_writes),
            0
        );
        let bursts = deferred_against_eager(4);
        assert!(bursts > 20, "only {bursts} GC bursts");
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_length_ssd_request_panics() {
        // Page-aligned and above 0: the request covers no page, so no
        // sub-IO would ever complete it.
        let mut r = rng();
        let mut node = Node::new(0, NodeConfig::ssd(), &mut r);
        let req = ReadReq::client(3 * 16_384, 0, ProcessId(1)).on_ssd();
        node.submit_read(&req, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside the driving calendar")]
    fn ssd_request_without_a_calendar_panics() {
        let mut r = rng();
        let mut node = Node::new(0, NodeConfig::ssd(), &mut r);
        let req = ReadReq::client(0, 4096, ProcessId(1)).on_ssd();
        node.submit_read(&req, SimTime::from_nanos(1));
    }

    #[test]
    fn ssd_busy_chip_rejects() {
        let mut r = rng();
        let mut node = Node::new(0, NodeConfig::ssd(), &mut r);
        // Queue writes on chip 0 (offset 0 maps to chip 0).
        for _ in 0..3 {
            let wreq = ReadReq::client(0, 4096, ProcessId(9)).on_ssd();
            node.submit_write(&wreq, SimTime::ZERO);
        }
        let req = ReadReq::client(0, 4096, ProcessId(1))
            .on_ssd()
            .with_deadline(Duration::from_micros(300));
        let sub = node.submit_read(&req, SimTime::ZERO);
        assert!(matches!(sub.outcome, ReadOutcome::Busy { .. }));
    }

    #[test]
    fn cache_hit_and_busy_paths() {
        let mut r = rng();
        let mut node = Node::new(0, NodeConfig::cached_disk(), &mut r);
        node.preload(0, 8192);
        let req = ReadReq::client(0, 4096, ProcessId(1))
            .cached()
            .with_deadline(Duration::from_micros(100));
        let sub = node.submit_read(&req, SimTime::ZERO);
        assert!(matches!(sub.outcome, ReadOutcome::CacheHit { .. }));
        // Swap the page out: tight deadline now earns EBUSY + background
        // refill.
        node.fadvise(0, 4096);
        let sub = node.submit_read(&req, SimTime::ZERO);
        let ReadOutcome::Busy { ticks, .. } = sub.outcome else {
            panic!("expected EBUSY after swap-out");
        };
        // The refill IO fills the cache when it completes.
        let done = drain_disk(&mut node, ticks.disk);
        assert_eq!(done.len(), 1);
        let sub = node.submit_read(&req, SimTime::ZERO + Duration::from_secs(1));
        assert!(
            matches!(sub.outcome, ReadOutcome::CacheHit { .. }),
            "refill must repopulate the cache"
        );
    }

    #[test]
    fn cold_miss_goes_to_disk_not_ebusy() {
        let mut r = rng();
        let mut node = Node::new(0, NodeConfig::cached_disk(), &mut r);
        let req = ReadReq::client(4096, 4096, ProcessId(1))
            .cached()
            .with_deadline(Duration::from_micros(100));
        let sub = node.submit_read(&req, SimTime::ZERO);
        assert!(
            matches!(sub.outcome, ReadOutcome::Submitted { .. }),
            "first access is not contention"
        );
    }

    #[test]
    fn nvram_absorbs_writes() {
        let mut r = rng();
        let mut node = Node::new(0, NodeConfig::disk_cfq(), &mut r);
        let req = ReadReq::client(0, 4096, ProcessId(1));
        match node.submit_write(&req, SimTime::ZERO) {
            WriteOutcome::Buffered { latency } => {
                assert!(latency < Duration::from_millis(1));
            }
            WriteOutcome::Submitted(_) => panic!("nvram node must buffer"),
        }
    }

    #[test]
    fn audit_mode_never_rejects_but_records() {
        let mut r = rng();
        let mut cfg = NodeConfig::disk_cfq();
        cfg.audit_mode = true;
        let mut node = Node::new(0, cfg, &mut r);
        let mut first = None;
        // Build a backlog, then submit deadline IOs that would be rejected.
        for i in 0..20u64 {
            let req = ReadReq::client((i * 37) % 1000 * mitt_device::GB, 4096, ProcessId(9));
            if let ReadOutcome::Submitted { ticks, .. } =
                node.submit_read(&req, SimTime::ZERO).outcome
            {
                first = first.or(ticks.disk);
            }
        }
        let req = ReadReq::client(1, 4096, ProcessId(1)).with_deadline(Duration::from_millis(10));
        let sub = node.submit_read(&req, SimTime::ZERO);
        assert!(
            matches!(sub.outcome, ReadOutcome::Submitted { .. }),
            "audit mode must not reject"
        );
        drain_disk(&mut node, first);
        assert_eq!(node.audit_pairs().len(), 1);
        let pair = node.audit_pairs()[0];
        assert!(pair.would_reject, "backlog was far beyond the deadline");
        assert!(pair.actual_wait > Duration::from_millis(10));
    }

    #[test]
    fn injected_false_positive_rejects_idle_node() {
        let mut r = rng();
        let mut cfg = NodeConfig::disk_cfq();
        cfg.inject = Some((0.0, 1.0));
        let mut node = Node::new(0, cfg, &mut r);
        let req = ReadReq::client(0, 4096, ProcessId(1)).with_deadline(Duration::from_millis(20));
        let sub = node.submit_read(&req, SimTime::ZERO);
        assert!(
            matches!(sub.outcome, ReadOutcome::Busy { .. }),
            "100% FP injection must reject even an idle node"
        );
    }

    #[test]
    fn tied_cancellation_revokes_queued_io() {
        let mut r = rng();
        let mut node = Node::new(0, NodeConfig::disk_cfq(), &mut r);
        // First IO occupies the head; the second stays queued.
        let a = ReadReq::client(0, 4096, ProcessId(1));
        let sub_a = node.submit_read(&a, SimTime::ZERO);
        let ReadOutcome::Submitted { ticks, .. } = sub_a.outcome else {
            panic!()
        };
        // CFQ dispatches up to max_device_ios immediately; queue more to
        // leave one in scheduler queues.
        let mut queued_id = None;
        for i in 0..8u64 {
            let r2 = ReadReq::client((i + 2) * mitt_device::GB, 4096, ProcessId(1));
            if let ReadOutcome::Submitted { io, .. } = node.submit_read(&r2, SimTime::ZERO).outcome
            {
                queued_id = Some(io);
            }
        }
        let victim = queued_id.expect("at least one IO queued");
        assert!(
            node.cancel_read(victim, SimTime::ZERO),
            "queued IO must be cancellable"
        );
        assert!(
            !node.cancel_read(victim, SimTime::ZERO),
            "double cancel is a no-op"
        );
        // Drain to make sure the cancelled IO never completes.
        let done = drain_disk(&mut node, ticks.disk);
        assert!(done.iter().all(|&(id, _)| id != victim));
    }
    /// Every admission decision — admitted or rejected, on any predictor —
    /// is timed as exactly one `Predict` activation.
    #[test]
    fn one_predict_activation_per_admission_decision() {
        use mitt_prof::Phase;
        for cfg in [
            NodeConfig::disk_noop(),
            NodeConfig::disk_cfq(),
            NodeConfig::ssd(),
        ] {
            let on_ssd = cfg.ssd.is_some();
            let mut node = Node::new(0, cfg, &mut rng());
            let prof = mitt_prof::ProfSink::enabled();
            node.set_ctx(&NodeCtx {
                prof: prof.clone(),
                ..NodeCtx::disabled()
            });
            let predicts = || prof.report().phases[Phase::Predict as usize].count;
            let submit = |node: &mut Node, offset: u64, deadline: Option<Duration>| {
                let mut req = ReadReq::client(offset, 4096, ProcessId(1));
                req.deadline = deadline;
                if on_ssd {
                    req = req.on_ssd();
                    if deadline.is_none() {
                        // Writes build the SSD backlog (no NVRAM on this node).
                        let WriteOutcome::Submitted(sub) = node.submit_write(&req, SimTime::ZERO)
                        else {
                            panic!("SSD writes go through the predictor");
                        };
                        return sub.outcome;
                    }
                }
                node.submit_read(&req, SimTime::ZERO).outcome
            };
            let before = predicts();
            let out = submit(&mut node, 0, Some(Duration::from_millis(20)));
            assert!(matches!(out, ReadOutcome::Submitted { .. }), "{out:?}");
            assert_eq!(predicts(), before + 1, "admitted read");
            // Backlog without deadlines: one decision each.
            for i in 0..30u64 {
                let before = predicts();
                submit(&mut node, (i * 31) % 1000 * mitt_device::GB, None);
                assert_eq!(predicts(), before + 1, "backlog IO {i}");
            }
            let before = predicts();
            let out = submit(&mut node, 0, Some(Duration::from_micros(1)));
            assert!(matches!(out, ReadOutcome::Busy { .. }), "{out:?}");
            assert_eq!(predicts(), before + 1, "rejected read");
        }
    }
}
