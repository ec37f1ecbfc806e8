//! Rotational disk model with an SSTF device queue.
//!
//! The model matches the performance structure the paper's MittNoop/MittCFQ
//! predictors assume (Appendix A): service time is a fixed command overhead,
//! plus a seek cost linear in the head travel distance (GB), plus a
//! rotational latency, plus a transfer cost linear in the IO size. The
//! device holds its own queue (invisible to the OS, §7.8.2) and reorders
//! pending IOs by shortest-seek-time-first, exactly the idiosyncrasy the
//! paper had to characterize to make `T_nextFree` accurate.
//!
//! The only stochastic component is the rotational position, sampled
//! uniformly in `[0, rot_max)`. A predictor using the expected value
//! therefore carries a bounded per-IO error — the source of the small
//! calibration diffs (<3ms) reported in §7.6.

use mitt_faults::NodeCtx;
use mitt_prof::Phase;
use mitt_sim::{Duration, SimRng, SimTime};
use mitt_trace::{EventKind, Subsystem};

use crate::io::{BlockIo, IoId};

/// Span label for per-IO device service (Dispatch -> Complete); renders as
/// stacked spans on the disk track in Perfetto.
pub const DISK_IO_SPAN: &str = "disk_io";

/// Static performance parameters of a disk.
#[derive(Debug, Clone)]
pub struct DiskSpec {
    /// Addressable capacity in bytes.
    pub capacity: u64,
    /// Fixed per-command overhead (controller, bus, settle).
    pub cmd_overhead: Duration,
    /// Base cost of any non-zero seek.
    pub seek_base: Duration,
    /// Additional seek cost per GB of head travel distance.
    pub seek_per_gb: Duration,
    /// Maximum rotational delay; actual delay is uniform in `[0, rot_max)`.
    pub rot_max: Duration,
    /// Transfer cost per KiB.
    pub transfer_per_kib: Duration,
    /// Maximum IOs held in the device (queued + in flight).
    pub queue_depth: usize,
}

impl Default for DiskSpec {
    /// A 1 TB SATA disk tuned so that 4 KB random reads take ~3-12 ms
    /// (6-10 ms typical), matching the no-noise EC2 `d2` latencies in
    /// Figure 3a of the paper.
    fn default() -> Self {
        DiskSpec {
            capacity: 1000 * GB,
            cmd_overhead: Duration::from_millis(3),
            seek_base: Duration::from_micros(500),
            seek_per_gb: Duration::from_micros(6),
            rot_max: Duration::from_millis(4),
            transfer_per_kib: Duration::from_micros(10),
            queue_depth: 32,
        }
    }
}

/// One gibibyte... actually a decimal GB, matching how the paper buckets
/// seek distances ("seekCostPerGB").
pub const GB: u64 = 1_000_000_000;

impl DiskSpec {
    /// Deterministic seek cost from head position `from` to IO offset `to`.
    pub fn seek_cost(&self, from: u64, to: u64) -> Duration {
        let dist = from.abs_diff(to);
        if dist == 0 {
            return Duration::ZERO;
        }
        let gb = dist as f64 / GB as f64;
        self.seek_base + self.seek_per_gb.mul_f64(gb)
    }

    /// Deterministic transfer cost for `len` bytes.
    pub fn transfer_cost(&self, len: u32) -> Duration {
        self.transfer_per_kib.mul_f64(f64::from(len) / 1024.0)
    }

    /// Expected (mean) service time for an IO given the current head
    /// position: the model a well-calibrated predictor converges to.
    pub fn expected_service(&self, head: u64, io_offset: u64, len: u32) -> Duration {
        self.cmd_overhead
            + self.seek_cost(head, io_offset)
            + self.rot_max / 2
            + self.transfer_cost(len)
    }
}

/// A started IO: the device began executing `id` and will raise a
/// completion at `done_at`. This is the "begin execution" signal tied
/// requests need (§7.8.2) — real hardware hides it, our model exposes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Started {
    /// The IO now occupying the device head.
    pub id: IoId,
    /// Absolute completion time; schedule the device tick here.
    pub done_at: SimTime,
}

/// A finished IO returned by [`Disk::complete`].
#[derive(Debug, Clone)]
pub struct FinishedIo {
    /// The completed request.
    pub io: BlockIo,
    /// When the device began executing it.
    pub started_at: SimTime,
    /// Actual device service time (excludes device-queue wait).
    pub service: Duration,
}

/// Error returned when the device queue is full; the scheduler must hold
/// the IO until a completion frees a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFull;

impl std::fmt::Display for DiskFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "device queue full")
    }
}

impl std::error::Error for DiskFull {}

/// Error returned by [`Disk::complete`] when no IO is in flight — the
/// completion tick raced a cancellation or was scheduled twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoInflight;

impl std::fmt::Display for NoInflight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "complete() with no in-flight IO")
    }
}

impl std::error::Error for NoInflight {}

struct InFlight {
    io: BlockIo,
    started_at: SimTime,
    done_at: SimTime,
    service: Duration,
}

/// The disk device: SSTF queue + single head.
pub struct Disk {
    spec: DiskSpec,
    rng: SimRng,
    head: u64,
    queue: Vec<BlockIo>,
    in_flight: Option<InFlight>,
    served: u64,
    ctx: NodeCtx,
}

impl Disk {
    /// Creates a disk with the given spec; `rng` drives rotational jitter.
    pub fn new(spec: DiskSpec, rng: SimRng) -> Self {
        Disk {
            spec,
            rng,
            head: 0,
            queue: Vec::new(),
            in_flight: None,
            served: 0,
            ctx: NodeCtx::disabled(),
        }
    }

    /// Attaches the node's handles: the device emits dispatch/complete
    /// events, times submit/complete as the `Device` phase, and fail-slow
    /// windows scale service times.
    pub fn set_ctx(&mut self, ctx: NodeCtx) {
        self.ctx = ctx;
    }

    /// The device's static parameters.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// Current head byte position.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Number of IOs inside the device (queued + in flight).
    pub fn occupancy(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight.is_some())
    }

    /// True if the device can accept another IO.
    pub fn has_room(&self) -> bool {
        self.occupancy() < self.spec.queue_depth
    }

    /// True if no IO is executing or queued.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_none() && self.queue.is_empty()
    }

    /// Total IOs served since creation.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Samples the *visible* service time for an IO starting at the current
    /// head position (advances the jitter RNG). Active fail-slow, gray-flap
    /// and partial-degrade windows scale the whole service time; all of
    /// these are symmetric — the slowdown shows in the reported service, so
    /// predictors recalibrate against it.
    fn sample_service(&mut self, io: &BlockIo, now: SimTime) -> Duration {
        let rot = Duration::from_nanos(self.rng.range_u64(0, self.spec.rot_max.as_nanos().max(1)));
        let service = self.spec.cmd_overhead
            + self.spec.seek_cost(self.head, io.offset)
            + rot
            + self.spec.transfer_cost(io.len);
        let mult = self.ctx.faults.disk_service_multiplier(now) * self.ctx.faults.degrade_draw(now);
        // mitt-lint: allow(T002, "1.0 is an exact no-fault sentinel assigned from config, never the result of arithmetic")
        if mult != 1.0 {
            service.mul_f64(mult)
        } else {
            service
        }
    }

    fn start(&mut self, io: BlockIo, now: SimTime) -> Started {
        let service = self.sample_service(&io, now);
        // Asymmetric-visibility windows stretch the *actual* completion
        // while the device keeps reporting the visible service: predictors
        // calibrate from `FinishedIo::service`, so their `T_wait` estimates
        // stay optimistic for the whole window — exactly the gray failure
        // MittOS's own telemetry cannot see.
        let hidden = self.ctx.faults.hidden_service_multiplier(now);
        // mitt-lint: allow(T002, "1.0 is an exact no-fault sentinel assigned from config, never the result of arithmetic")
        let actual = if hidden != 1.0 {
            service.mul_f64(hidden)
        } else {
            service
        };
        let done_at = now + actual;
        let id = io.id;
        self.head = io.end_offset().min(self.spec.capacity);
        self.in_flight = Some(InFlight {
            io,
            started_at: now,
            done_at,
            service,
        });
        self.ctx
            .trace
            .emit(now, Subsystem::Disk, EventKind::Dispatch { io: id.0 });
        self.ctx.trace.emit(
            now,
            Subsystem::Disk,
            EventKind::SpanBegin {
                name: DISK_IO_SPAN,
                id: id.0,
            },
        );
        Started { id, done_at }
    }

    /// Submits an IO to the device.
    ///
    /// Returns `Ok(Some(started))` if the device was idle and began
    /// executing the IO immediately — the caller must schedule a completion
    /// event at `started.done_at`. Returns `Ok(None)` if the IO was queued
    /// behind others, and `Err(DiskFull)` if the device queue is full.
    pub fn submit(&mut self, io: BlockIo, now: SimTime) -> Result<Option<Started>, DiskFull> {
        let _t = self.ctx.prof.phase(Phase::Device);
        if !self.has_room() {
            return Err(DiskFull);
        }
        if self.in_flight.is_none() {
            debug_assert!(self.queue.is_empty(), "idle device with queued IO");
            return Ok(Some(self.start(io, now)));
        }
        self.queue.push(io);
        Ok(None)
    }

    /// Completes the in-flight IO and starts the SSTF-nearest queued IO.
    ///
    /// Returns [`NoInflight`] if no IO is executing — a completion tick
    /// that raced a cancellation, or a double-scheduled tick. The device
    /// state is untouched in that case.
    ///
    /// # Panics
    ///
    /// Panics if called before the in-flight IO's completion time.
    pub fn complete(&mut self, now: SimTime) -> Result<(FinishedIo, Option<Started>), NoInflight> {
        let _t = self.ctx.prof.phase(Phase::Device);
        let fl = self.in_flight.take().ok_or(NoInflight)?;
        assert!(
            now >= fl.done_at,
            "complete() at {now} before done_at {}",
            fl.done_at
        );
        self.served += 1;
        self.ctx.trace.emit(
            now,
            Subsystem::Disk,
            EventKind::SpanEnd {
                name: DISK_IO_SPAN,
                id: fl.io.id.0,
            },
        );
        self.ctx.trace.emit(
            now,
            Subsystem::Disk,
            EventKind::Complete {
                io: fl.io.id.0,
                wait: fl.service,
            },
        );
        let finished = FinishedIo {
            io: fl.io,
            started_at: fl.started_at,
            service: fl.service,
        };
        let next = self.pick_sstf().map(|io| self.start(io, now));
        Ok((finished, next))
    }

    /// Removes and returns the queued IO with the shortest seek distance
    /// from the current head position.
    fn pick_sstf(&mut self) -> Option<BlockIo> {
        let head = self.head;
        let (best, _) = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(idx, io)| (io.offset.abs_diff(head), *idx))?;
        Some(self.queue.swap_remove(best))
    }

    /// Cancels a queued (not yet executing) IO. Returns the request if it
    /// was still cancellable. Used by tied requests to revoke the loser.
    pub fn cancel_queued(&mut self, id: IoId) -> Option<BlockIo> {
        let pos = self.queue.iter().position(|io| io.id == id)?;
        Some(self.queue.swap_remove(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{IoIdGen, ProcessId};
    use mitt_faults::FaultClock;
    use mitt_trace::TraceSink;

    fn disk() -> Disk {
        Disk::new(DiskSpec::default(), SimRng::new(1))
    }

    fn rd(g: &mut IoIdGen, offset: u64) -> BlockIo {
        BlockIo::read(g.next_id(), offset, 4096, ProcessId(0), SimTime::ZERO)
    }

    #[test]
    fn idle_disk_starts_immediately() {
        let mut d = disk();
        let mut g = IoIdGen::new();
        let io = rd(&mut g, 500 * GB);
        let started = d.submit(io, SimTime::ZERO).unwrap().unwrap();
        assert_eq!(started.id, IoId(0));
        // 4KB read at 500GB distance: 3ms cmd + 0.5ms base + 3ms seek +
        // rot(0..4ms) + 40us transfer => between 6.5ms and 10.6ms.
        let ms = started.done_at.as_millis_f64();
        assert!((6.5..10.6).contains(&ms), "service {ms}ms");
        assert!(!d.is_idle());
    }

    #[test]
    fn busy_disk_queues_and_completes_in_turn() {
        let mut d = disk();
        let mut g = IoIdGen::new();
        let s0 = d.submit(rd(&mut g, 0), SimTime::ZERO).unwrap().unwrap();
        assert!(d.submit(rd(&mut g, GB), SimTime::ZERO).unwrap().is_none());
        assert_eq!(d.occupancy(), 2);
        let (fin, next) = d.complete(s0.done_at).unwrap();
        assert_eq!(fin.io.id, IoId(0));
        let next = next.expect("second IO starts");
        assert_eq!(next.id, IoId(1));
        assert!(next.done_at > s0.done_at);
        let (_, none) = d.complete(next.done_at).unwrap();
        assert!(none.is_none());
        assert!(d.is_idle());
        assert_eq!(d.served(), 2);
    }

    #[test]
    fn sstf_picks_nearest_offset() {
        let mut d = disk();
        let mut g = IoIdGen::new();
        // Start one IO at offset 100GB so head ends near 100GB.
        let s = d
            .submit(rd(&mut g, 100 * GB), SimTime::ZERO)
            .unwrap()
            .unwrap();
        let far = rd(&mut g, 900 * GB); // id 1
        let near = rd(&mut g, 110 * GB); // id 2
        d.submit(far, SimTime::ZERO).unwrap();
        d.submit(near, SimTime::ZERO).unwrap();
        let (_, next) = d.complete(s.done_at).unwrap();
        assert_eq!(next.unwrap().id, IoId(2), "SSTF must pick the near IO");
    }

    #[test]
    fn queue_depth_enforced() {
        let spec = DiskSpec {
            queue_depth: 2,
            ..DiskSpec::default()
        };
        let mut d = Disk::new(spec, SimRng::new(2));
        let mut g = IoIdGen::new();
        d.submit(rd(&mut g, 0), SimTime::ZERO).unwrap();
        d.submit(rd(&mut g, GB), SimTime::ZERO).unwrap();
        assert!(!d.has_room());
        assert_eq!(d.submit(rd(&mut g, 2 * GB), SimTime::ZERO), Err(DiskFull));
    }

    #[test]
    fn cancel_queued_removes_only_pending() {
        let mut d = disk();
        let mut g = IoIdGen::new();
        let s = d.submit(rd(&mut g, 0), SimTime::ZERO).unwrap().unwrap();
        d.submit(rd(&mut g, GB), SimTime::ZERO).unwrap();
        // In-flight IO is not cancellable through the queue interface.
        assert!(d.cancel_queued(s.id).is_none());
        assert!(d.cancel_queued(IoId(1)).is_some());
        let (_, next) = d.complete(s.done_at).unwrap();
        assert!(next.is_none(), "cancelled IO must not start");
    }

    #[test]
    fn expected_service_is_mean_of_actual() {
        let spec = DiskSpec::default();
        let mut d = Disk::new(spec.clone(), SimRng::new(3));
        let mut g = IoIdGen::new();
        let expected = spec.expected_service(0, 300 * GB, 4096);
        // Run many single IOs from a fixed head position and average.
        let mut total = Duration::ZERO;
        let n = 2000;
        let mut now = SimTime::ZERO;
        for _ in 0..n {
            d.head = 0;
            let s = d.submit(rd(&mut g, 300 * GB), now).unwrap().unwrap();
            let (fin, _) = d.complete(s.done_at).unwrap();
            total += fin.service;
            now = s.done_at;
        }
        let mean_ms = (total / n).as_millis_f64();
        let expected_ms = expected.as_millis_f64();
        assert!(
            (mean_ms - expected_ms).abs() < 0.15,
            "mean {mean_ms}ms vs expected {expected_ms}ms"
        );
    }

    #[test]
    fn complete_without_inflight_reports_error() {
        let mut d = disk();
        assert_eq!(d.complete(SimTime::ZERO).unwrap_err(), NoInflight);
        let mut g = IoIdGen::new();
        let s = d.submit(rd(&mut g, 0), SimTime::ZERO).unwrap().unwrap();
        d.complete(s.done_at).unwrap();
        // Second completion for the same tick: device is idle again.
        assert_eq!(d.complete(s.done_at).unwrap_err(), NoInflight);
    }

    #[test]
    fn traced_disk_emits_dispatch_complete_and_service_spans() {
        let sink = TraceSink::enabled(16);
        let mut d = disk();
        d.set_ctx(NodeCtx {
            trace: sink.for_node(3),
            ..NodeCtx::disabled()
        });
        let mut g = IoIdGen::new();
        let s = d.submit(rd(&mut g, 0), SimTime::ZERO).unwrap().unwrap();
        d.complete(s.done_at).unwrap();
        let kinds: Vec<_> = sink.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["dispatch", "disk_io", "disk_io", "complete"]);
        assert!(matches!(
            sink.events()[1].kind,
            EventKind::SpanBegin {
                name: DISK_IO_SPAN,
                id: 0
            }
        ));
        assert!(matches!(
            sink.events()[2].kind,
            EventKind::SpanEnd {
                name: DISK_IO_SPAN,
                id: 0
            }
        ));
        assert!(sink.events().iter().all(|e| e.node == 3));
    }

    #[test]
    fn fail_slow_window_scales_service_time() {
        use mitt_faults::FaultPlan;
        let sample = |faulted: bool| {
            let mut d = disk();
            if faulted {
                let plan = FaultPlan::new().fail_slow(
                    0,
                    SimTime::ZERO,
                    Duration::from_secs(10),
                    4.0,
                    Duration::ZERO,
                );
                d.set_ctx(NodeCtx {
                    faults: FaultClock::new(plan, SimRng::new(9)).for_node(0),
                    ..NodeCtx::disabled()
                });
            }
            let mut g = IoIdGen::new();
            let s = d
                .submit(rd(&mut g, 500 * GB), SimTime::ZERO)
                .unwrap()
                .unwrap();
            let (fin, _) = d.complete(s.done_at).unwrap();
            fin.service
        };
        let healthy = sample(false);
        let slow = sample(true);
        // Same seed, same rotational jitter: exactly 4x.
        assert_eq!(slow, healthy.mul_f64(4.0), "{healthy} -> {slow}");
    }

    #[test]
    fn asymmetric_window_stretches_completion_but_not_reported_service() {
        use mitt_faults::FaultPlan;
        let sample = |faulted: bool| {
            let mut d = disk();
            if faulted {
                let plan =
                    FaultPlan::new().asym_slow(0, SimTime::ZERO, Duration::from_secs(10), 5.0);
                d.set_ctx(NodeCtx {
                    faults: FaultClock::new(plan, SimRng::new(9)).for_node(0),
                    ..NodeCtx::disabled()
                });
            }
            let mut g = IoIdGen::new();
            let s = d
                .submit(rd(&mut g, 500 * GB), SimTime::ZERO)
                .unwrap()
                .unwrap();
            let (fin, _) = d.complete(s.done_at).unwrap();
            (fin.service, s.done_at)
        };
        let (healthy_service, healthy_done) = sample(false);
        let (gray_service, gray_done) = sample(true);
        // The reported service — what predictors calibrate from — is
        // untouched, while the wall the IO actually occupied the device
        // is 5x: the visibility asymmetry.
        assert_eq!(gray_service, healthy_service);
        assert_eq!(
            gray_done.as_nanos(),
            healthy_done.as_nanos() * 5,
            "{healthy_done} -> {gray_done}"
        );
    }

    #[test]
    fn seek_cost_zero_for_same_position() {
        let spec = DiskSpec::default();
        assert_eq!(spec.seek_cost(42, 42), Duration::ZERO);
        assert!(spec.seek_cost(0, GB) >= spec.seek_base);
    }

    #[test]
    fn transfer_cost_scales_linearly() {
        let spec = DiskSpec::default();
        let small = spec.transfer_cost(4096);
        let big = spec.transfer_cost(1_048_576);
        assert!(big > small * 200 && big < small * 300);
    }
}
