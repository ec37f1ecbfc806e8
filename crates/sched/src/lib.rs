//! Block-layer IO schedulers.
//!
//! Two disciplines from the paper's case studies sit between the
//! application and the disk's device queue:
//!
//! - [`noop`]: a plain FIFO dispatch queue (§4.1). Arriving IOs are absorbed
//!   into the device queue in arrival order; the device itself still
//!   reorders by SSTF.
//! - [`cfq`]: Linux's Completely Fair Queueing (§4.2) — three service trees
//!   (RealTime / BestEffort / Idle), per-process nodes with offset-sorted
//!   queues, and weighted round-robin slices by ionice priority. High
//!   priority arrivals can "bump" already-accepted best-effort IOs to the
//!   back, the hazard MittCFQ's tolerable-time table exists to catch.
//!
//! Both implement [`DiskScheduler`], the interface the per-node OS model
//! drives: `enqueue` on arrival, `on_complete` when the device raises a
//! completion, `cancel` when MittOS rejects an already-queued IO.
//!
//! # Examples
//!
//! ```
//! use mitt_device::{BlockIo, Disk, DiskSpec, IoIdGen, ProcessId};
//! use mitt_sched::{Cfq, CfqConfig, DiskScheduler};
//! use mitt_sim::{SimRng, SimTime};
//!
//! let mut sched = Cfq::new(CfqConfig::default());
//! let mut disk = Disk::new(DiskSpec::default(), SimRng::new(1));
//! let mut ids = IoIdGen::new();
//! let io = BlockIo::read(ids.next_id(), 0, 4096, ProcessId(1), SimTime::ZERO);
//! let out = sched.enqueue(io, &mut disk, SimTime::ZERO);
//! let started = out.started.expect("idle disk starts immediately");
//! let (finished, _) = sched.on_complete(&mut disk, started.done_at).unwrap();
//! assert_eq!(finished.io.id, started.id);
//! ```

use mitt_device::{BlockIo, Disk, FinishedIo, IoId, NoInflight, Started};
use mitt_faults::NodeCtx;
use mitt_sim::SimTime;

pub mod cfq;
pub mod noop;

pub use cfq::{Cfq, CfqConfig};
pub use noop::Noop;

/// What a scheduler action moved into the device.
///
/// `started` is the at-most-one IO the (previously idle) device head began
/// executing — the caller schedules a device tick at its completion time.
/// `dispatched` lists every IO that left the scheduler queues for the
/// device queue during this action; the MittCFQ predictor consumes it to
/// move predicted service from its per-node ledger to its device mirror
/// (dispatched IOs are no longer bump-cancellable).
#[derive(Debug, Default)]
pub struct DispatchOut {
    /// IO the idle device began executing, if any.
    pub started: Option<Started>,
    /// All IOs moved from scheduler queues into the device this action.
    pub dispatched: Vec<IoId>,
}

/// A block-layer scheduler feeding a [`Disk`].
pub trait DiskScheduler {
    /// Accepts a new IO, dispatching into the device if there is room.
    fn enqueue(&mut self, io: BlockIo, disk: &mut Disk, now: SimTime) -> DispatchOut;

    /// Handles a device completion: retires the in-flight IO and dispatches
    /// more queued work.
    ///
    /// Propagates [`NoInflight`] from the device when the completion tick
    /// raced a cancellation (scheduler state is untouched in that case).
    fn on_complete(
        &mut self,
        disk: &mut Disk,
        now: SimTime,
    ) -> Result<(FinishedIo, DispatchOut), NoInflight>;

    /// Removes an IO still waiting in scheduler queues.
    ///
    /// Returns the request if it had not yet been dispatched to the device;
    /// IOs already in the device queue or in flight are not cancellable
    /// here (the paper's §7.8.2 point — the device queue is invisible).
    fn cancel(&mut self, id: IoId) -> Option<BlockIo>;

    /// Number of IOs waiting in scheduler queues (excluding the device).
    fn queued(&self) -> usize;

    /// The scheduler's name for reports.
    fn name(&self) -> &'static str;

    /// Attaches the node's handles: schedulers emit queued-span and
    /// queue-depth telemetry, time enqueue/completion as the `Sched` phase,
    /// and honour `SchedDegrade` windows by capping how many IOs they keep
    /// in the device (never below one, so completions always re-trigger
    /// dispatch and the queue keeps draining). Observation never feeds back
    /// into scheduling decisions.
    fn set_ctx(&mut self, ctx: NodeCtx);
}
