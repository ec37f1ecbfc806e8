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

use mitt_device::{
    BlockIo, Disk, DiskSpec, IoClass, IoId, IoIdGen, IoKind, NvramBuffer, ProcessId, Ssd, SsdSpec,
    Started, SubCompletion, SubIoKey,
};
use mitt_faults::NodeCtx;
use mitt_oscache::{PageCache, PageCacheConfig};
use mitt_sched::{Cfq, CfqConfig, DiskScheduler, Noop};
use mitt_sim::{Duration, FastMap, FastSet, SimRng, SimTime};
use mitt_trace::report::{CACHE_HIT_COUNTER, EBUSY_COUNTER, PREDICT_ERROR_HIST, SUBMIT_COUNTER};
use mitt_trace::{EventKind, Resource, Subsystem};
use mitt_tsl::TslSink;
use mittos::{
    admit, profile_disk, profile_ssd, Admission, CacheVerdict, Decision, DiskPredictor,
    DiskProfile, ErrorInjector, MittCache, MittCfq, MittNoop, MittSsd, Slo, ADDRCHECK_COST,
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
    /// SSD sub-IOs: schedule an SSD tick for each.
    pub ssd: Vec<SubCompletion>,
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
    /// Whether MittOS would have returned EBUSY.
    pub would_reject: bool,
    /// The deadline the decision was made against.
    pub deadline: Duration,
}

struct DiskStack {
    disk: Disk,
    sched: Box<dyn DiskScheduler>,
    mitt: Box<dyn DiskPredictor>,
    nvram: Option<NvramBuffer>,
    profile: DiskProfile,
}

struct PendingSsd {
    remaining: u32,
    submit: SimTime,
    worst_wait: Duration,
}

struct SsdStack {
    ssd: Ssd,
    mitt: MittSsd,
    pending: FastMap<IoId, PendingSsd>,
}

struct CacheStack {
    cache: PageCache,
    mitt: MittCache,
    swap_rng: SimRng,
}

struct OpenAudit {
    predicted_wait: Duration,
    deadline: Duration,
    would_reject: bool,
}

/// What the node does with a predictor's raw verdict on a deadline IO:
/// §7.6 audit mode records it and admits anyway; §7.7 error injection may
/// flip it.
struct Policy {
    audit_mode: bool,
    /// Audited IOs awaiting their actual wait.
    open: FastMap<IoId, OpenAudit>,
    injector: Option<ErrorInjector>,
}

impl Policy {
    fn apply(&mut self, io: &BlockIo, raw: Decision) -> Decision {
        let Some(deadline) = io.deadline else {
            return raw;
        };
        if self.audit_mode {
            self.open.insert(
                io.id,
                OpenAudit {
                    predicted_wait: raw.predicted_wait(),
                    deadline,
                    would_reject: !raw.is_admit(),
                },
            );
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
    ebusy_times: Vec<SimTime>,
    ctx: NodeCtx,
    /// This node's timeline row: every admit, reject, dispatch and device
    /// service is recorded here, where the verdict or completion leaves
    /// the storage stack.
    tsl: TslSink,
    /// Predicted wait of each admitted, traced IO, resolved against the
    /// actual wait at completion to feed the prediction-error histogram.
    pred_wait: FastMap<IoId, Duration>,
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
                profile,
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
                pending: FastMap::default(),
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
                open: FastMap::default(),
                injector,
            },
            disable_bump_cancel: cfg.disable_bump_cancel,
            audit_pairs: Vec::new(),
            fill_after_read: FastSet::default(),
            ebusy_times: Vec::new(),
            ctx: NodeCtx::disabled(),
            tsl: TslSink::disabled(),
            pred_wait: FastMap::default(),
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
        self.ebusy_times.push(now);
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
    /// EBUSY and the returned submission; an admitted IO's predicted wait
    /// is kept for its prediction-error sample.
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
                if self.ctx.trace.is_enabled() {
                    self.pred_wait.insert(io.id, predicted_wait);
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
                if let Some(a) = self.policy.open.get_mut(&id) {
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
            let pw = self.pred_wait.remove(&id).unwrap_or(Duration::MAX);
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
                    ssd: Vec::new(),
                },
            },
            bumped,
        }
    }

    /// Admits and submits a request to the SSD stack; the returned ticks
    /// hold one completion per page sub-IO.
    ///
    /// # Panics
    ///
    /// Panics if `req.len` is 0: an empty request would have no sub-IO to
    /// complete it, so it would never finish.
    fn submit_ssd(&mut self, req: &ReadReq, kind: IoKind, now: SimTime) -> Submission {
        assert!(req.len > 0, "an SSD request must cover at least one byte");
        let io = self.build_io(req, kind, now);
        let ss = self.ssd.as_mut().expect("node has no SSD stack");
        let policy = &mut self.policy;
        let adm = admit(&mut ss.mitt, &io, now, &self.ctx, |io, raw| {
            policy.apply(io, raw)
        });
        if let Some(busy) = self.settle(&io, &adm, now) {
            return busy;
        }
        let ss = self.ssd.as_mut().expect("node has no SSD stack");
        let out = ss.ssd.submit(&io, now);
        if self.tsl.is_enabled() {
            for sub in &out.subs {
                self.tsl.observe_service(sub.done_at, sub.busy);
            }
        }
        for gc in &out.gc {
            ss.mitt.on_gc(gc.chip, gc.busy, now);
        }
        ss.pending.insert(
            io.id,
            PendingSsd {
                remaining: out.subs.len() as u32,
                submit: now,
                worst_wait: Duration::ZERO,
            },
        );
        Submission {
            outcome: ReadOutcome::Submitted {
                io: io.id,
                ticks: Ticks {
                    disk: None,
                    ssd: out.subs,
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
        if let Some(open) = self.policy.open.remove(&fin.io.id) {
            self.audit_pairs.push(AuditPair {
                predicted_wait: open.predicted_wait,
                actual_wait: wait,
                would_reject: open.would_reject,
                deadline: open.deadline,
            });
        }
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

    /// Handles one SSD sub-IO completion; returns the finished request
    /// once its last sub-page lands.
    pub fn on_ssd_tick(
        &mut self,
        key: SubIoKey,
        channel: usize,
        chip: usize,
        busy: Duration,
        now: SimTime,
    ) -> Option<DoneIo> {
        let ss = self.ssd.as_mut().expect("node has no SSD stack");
        ss.ssd.complete_sub(channel, now);
        ss.mitt.on_complete_sub(key.io, key.index, busy, chip);
        let pend = ss
            .pending
            .get_mut(&key.io)
            .expect("sub completion for unknown IO");
        let sub_wait = now.saturating_since(pend.submit).saturating_sub(busy);
        pend.worst_wait = pend.worst_wait.max(sub_wait);
        pend.remaining -= 1;
        if pend.remaining > 0 {
            return None;
        }
        let pend = ss.pending.remove(&key.io).expect("entry exists");
        self.resolve_prediction(key.io, pend.worst_wait, now);
        if let Some(open) = self.policy.open.remove(&key.io) {
            self.audit_pairs.push(AuditPair {
                predicted_wait: open.predicted_wait,
                actual_wait: pend.worst_wait,
                would_reject: open.would_reject,
                deadline: open.deadline,
            });
        }
        // SSD reads filling the cache (tiered configuration).
        if self.fill_after_read.remove(&key.io) {
            // Offset/len are unavailable here (the SSD tracks sub-IOs);
            // tiered reads re-insert via submit_read's hit path instead.
        }
        Some(DoneIo {
            io: key.io,
            wait: pend.worst_wait,
        })
    }

    /// Emits the node-level completion event and resolves the IO's
    /// prediction-error sample (|predicted - actual| wait).
    fn resolve_prediction(&mut self, id: IoId, actual_wait: Duration, now: SimTime) {
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
        if let Some(predicted) = self.pred_wait.remove(&id) {
            let err = predicted.as_nanos().abs_diff(actual_wait.as_nanos());
            self.ctx.trace.observe_ns(PREDICT_ERROR_HIST, err);
        }
    }

    /// Cancels a still-queued disk IO (tied-request revocation). Returns
    /// true if the IO was revoked before reaching the device.
    pub fn cancel_read(&mut self, id: IoId) -> bool {
        let Some(ds) = self.disk.as_mut() else {
            return false;
        };
        if ds.sched.cancel(id).is_some() {
            ds.mitt.on_cancel(id);
            self.fill_after_read.remove(&id);
            self.pred_wait.remove(&id);
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

    /// Times at which this node returned EBUSY.
    pub fn ebusy_times(&self) -> &[SimTime] {
        &self.ebusy_times
    }

    /// Resolved audit pairs (audit mode only).
    pub fn audit_pairs(&self) -> &[AuditPair] {
        &self.audit_pairs
    }

    /// The fitted disk profile, if a disk stack exists.
    pub fn disk_profile(&self) -> Option<DiskProfile> {
        self.disk.as_ref().map(|d| d.profile)
    }

    /// Cache hit ratio so far, if a cache exists.
    pub fn cache_hit_ratio(&self) -> Option<f64> {
        self.cache.as_ref().map(|c| c.cache.hit_ratio())
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
        let req = ReadReq::client(0, 4096, ProcessId(1))
            .on_ssd()
            .with_deadline(Duration::from_millis(2));
        let sub = node.submit_read(&req, SimTime::ZERO);
        let ReadOutcome::Submitted { io, ticks } = sub.outcome else {
            panic!("expected submission");
        };
        assert_eq!(ticks.ssd.len(), 1);
        let sc = ticks.ssd[0];
        let done = node.on_ssd_tick(sc.key, sc.channel, sc.chip, sc.busy, sc.done_at);
        assert_eq!(done.expect("request finishes").io, io);
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
        assert!(node.cancel_read(victim), "queued IO must be cancellable");
        assert!(!node.cancel_read(victim), "double cancel is a no-op");
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
