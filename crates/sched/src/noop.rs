//! The noop scheduler: a FIFO dispatch queue (§4.1).

use std::collections::VecDeque;

use mitt_device::{BlockIo, Disk, FinishedIo, IoId, NoInflight};
use mitt_faults::NodeCtx;
use mitt_prof::Phase;
use mitt_sim::SimTime;
use mitt_trace::{EventKind, Subsystem};

use crate::{DiskScheduler, DispatchOut};

/// Span label for time an IO spends in scheduler queues.
pub(crate) const QUEUED_SPAN: &str = "sched_q";

/// FIFO dispatch queue. IOs flow to the device in arrival order as device
/// queue slots free up; the device itself still reorders by SSTF.
#[derive(Default)]
pub struct Noop {
    fifo: VecDeque<BlockIo>,
    ctx: NodeCtx,
}

impl Noop {
    /// Creates an empty noop scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves queued IOs into the device while it has room (capped by any
    /// active scheduler-degradation fault).
    fn dispatch(&mut self, disk: &mut Disk, now: SimTime) -> DispatchOut {
        let mut out = DispatchOut::default();
        let cap = self.ctx.faults.sched_max_inflight(now);
        while disk.has_room() && cap.is_none_or(|c| disk.occupancy() < c) {
            let Some(io) = self.fifo.pop_front() else {
                break;
            };
            out.dispatched.push(io.id);
            self.ctx.trace.emit(
                now,
                Subsystem::Sched,
                EventKind::SpanEnd {
                    name: QUEUED_SPAN,
                    id: io.id.0,
                },
            );
            match disk.submit(io, now) {
                Ok(s) => {
                    debug_assert!(
                        out.started.is_none() || s.is_none(),
                        "device can start at most one IO per dispatch round"
                    );
                    out.started = out.started.or(s);
                }
                Err(_) => unreachable!("has_room() checked before submit"),
            }
        }
        out
    }
}

impl DiskScheduler for Noop {
    fn enqueue(&mut self, io: BlockIo, disk: &mut Disk, now: SimTime) -> DispatchOut {
        let _t = self.ctx.prof.phase(Phase::Sched);
        self.ctx.trace.emit(
            now,
            Subsystem::Sched,
            EventKind::SpanBegin {
                name: QUEUED_SPAN,
                id: io.id.0,
            },
        );
        self.fifo.push_back(io);
        let out = self.dispatch(disk, now);
        self.ctx.trace.gauge("sched.queued", self.fifo.len() as i64);
        out
    }

    fn on_complete(
        &mut self,
        disk: &mut Disk,
        now: SimTime,
    ) -> Result<(FinishedIo, DispatchOut), NoInflight> {
        let _t = self.ctx.prof.phase(Phase::Sched);
        let (finished, started) = disk.complete(now)?;
        let mut out = self.dispatch(disk, now);
        out.started = started.or(out.started);
        self.ctx.trace.gauge("sched.queued", self.fifo.len() as i64);
        Ok((finished, out))
    }

    fn cancel(&mut self, id: IoId) -> Option<BlockIo> {
        let pos = self.fifo.iter().position(|io| io.id == id)?;
        self.fifo.remove(pos)
    }

    fn queued(&self) -> usize {
        self.fifo.len()
    }

    fn name(&self) -> &'static str {
        "noop"
    }

    fn set_ctx(&mut self, ctx: NodeCtx) {
        self.ctx = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_device::{DiskSpec, IoIdGen, ProcessId};
    use mitt_sim::SimRng;

    fn small_disk() -> Disk {
        let spec = DiskSpec {
            queue_depth: 2,
            ..DiskSpec::default()
        };
        Disk::new(spec, SimRng::new(1))
    }

    fn rd(g: &mut IoIdGen, offset: u64) -> BlockIo {
        BlockIo::read(g.next_id(), offset, 4096, ProcessId(0), SimTime::ZERO)
    }

    #[test]
    fn fifo_order_into_device() {
        let mut sched = Noop::new();
        let mut disk = small_disk();
        let mut g = IoIdGen::new();
        let s = sched
            .enqueue(rd(&mut g, 0), &mut disk, SimTime::ZERO)
            .started
            .unwrap();
        assert_eq!(s.id, IoId(0));
        // Device has one more slot; next two: one enters the device queue,
        // one stays in the scheduler FIFO.
        assert!(sched
            .enqueue(rd(&mut g, 10), &mut disk, SimTime::ZERO)
            .started
            .is_none());
        assert!(sched
            .enqueue(rd(&mut g, 20), &mut disk, SimTime::ZERO)
            .started
            .is_none());
        assert_eq!(sched.queued(), 1);
        assert_eq!(disk.occupancy(), 2);
        // Completion backfills the freed slot from the FIFO.
        let (fin, next) = sched.on_complete(&mut disk, s.done_at).unwrap();
        assert_eq!(fin.io.id, IoId(0));
        assert!(next.started.is_some());
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn cancel_only_reaches_scheduler_queue() {
        let mut sched = Noop::new();
        let mut disk = small_disk();
        let mut g = IoIdGen::new();
        sched.enqueue(rd(&mut g, 0), &mut disk, SimTime::ZERO);
        sched.enqueue(rd(&mut g, 10), &mut disk, SimTime::ZERO);
        sched.enqueue(rd(&mut g, 20), &mut disk, SimTime::ZERO);
        // id 0 is in flight, id 1 in the device queue: both invisible.
        assert!(sched.cancel(IoId(0)).is_none());
        assert!(sched.cancel(IoId(1)).is_none());
        assert_eq!(sched.cancel(IoId(2)).map(|io| io.id), Some(IoId(2)));
    }

    #[test]
    fn degrade_window_caps_device_occupancy_but_still_drains() {
        use mitt_faults::{FaultClock, FaultPlan};
        use mitt_sim::Duration;
        let mut sched = Noop::new();
        let mut disk = small_disk();
        // Degrade to 1 in-device IO for the first second.
        let plan = FaultPlan::new().sched_degrade(0, SimTime::ZERO, Duration::from_secs(1), 1);
        sched.set_ctx(NodeCtx {
            faults: FaultClock::new(plan, SimRng::new(4)).for_node(0),
            ..NodeCtx::disabled()
        });
        let mut g = IoIdGen::new();
        let mut next_tick = None;
        for i in 0..4u64 {
            if let Some(s) = sched
                .enqueue(rd(&mut g, i * 1000), &mut disk, SimTime::ZERO)
                .started
            {
                next_tick = Some(s.done_at);
            }
        }
        assert_eq!(disk.occupancy(), 1, "degraded dispatch holds IOs back");
        assert_eq!(sched.queued(), 3);
        let mut done = 0;
        while let Some(t) = next_tick {
            let (_, out) = sched.on_complete(&mut disk, t).unwrap();
            done += 1;
            next_tick = out.started.map(|s| s.done_at);
        }
        assert_eq!(done, 4, "completions keep draining the capped queue");
        assert!(disk.is_idle());
    }

    #[test]
    fn drains_all_ios_eventually() {
        let mut sched = Noop::new();
        let mut disk = small_disk();
        let mut g = IoIdGen::new();
        let mut pending = Vec::new();
        let mut next_tick = None;
        for i in 0..10u64 {
            let io = rd(&mut g, i * 1000);
            if let Some(s) = sched.enqueue(io, &mut disk, SimTime::ZERO).started {
                next_tick = Some(s.done_at);
            }
        }
        let mut done = 0;
        while let Some(t) = next_tick {
            let (fin, out) = sched.on_complete(&mut disk, t).unwrap();
            pending.push(fin.io.id);
            done += 1;
            next_tick = out.started.map(|s| s.done_at);
        }
        assert_eq!(done, 10);
        assert!(disk.is_idle());
        assert_eq!(sched.queued(), 0);
    }
}
