//! The CFQ scheduler: service trees, per-process queues, weighted
//! round-robin slices (§4.2).
//!
//! Structure mirrors the paper's description of Linux CFQ: three service
//! trees (RealTime, BestEffort, Idle); per-process nodes inside each tree;
//! inside each node a queue of pending IOs sorted by on-disk offset. CFQ
//! always serves the RealTime tree first, then BestEffort, then Idle; within
//! a tree it round-robins across nodes with slices proportional to ionice
//! priority. Dispatched IOs move to the device queue (bounded by
//! [`CfqConfig::max_device_ios`]) and become invisible/uncancellable.
//!
//! Because higher classes preempt lower ones at every dispatch decision, an
//! accepted BestEffort IO can be "bumped to the back" by a later RealTime
//! burst — the exact hazard that forces MittCFQ to re-check accepted IOs
//! via its tolerable-time table.

use std::collections::{BTreeMap, VecDeque};

use mitt_device::{BlockIo, Disk, FinishedIo, IoClass, IoId, NoInflight, ProcessId};
use mitt_faults::NodeCtx;
use mitt_prof::Phase;
use mitt_sim::{FastMap, SimTime};
use mitt_trace::{EventKind, Subsystem};

use crate::noop::QUEUED_SPAN;
use crate::{DiskScheduler, DispatchOut};

/// Tuning knobs for CFQ.
#[derive(Debug, Clone)]
pub struct CfqConfig {
    /// Slice credit units per priority step: a node's slice is
    /// `base_quantum * (8 - priority)` IOs.
    pub base_quantum: u32,
    /// Maximum IOs the scheduler keeps inside the device (Linux
    /// `cfq_quantum`). Small values preserve priority enforcement; large
    /// values hand ordering control to the device's SSTF.
    pub max_device_ios: usize,
}

impl Default for CfqConfig {
    fn default() -> Self {
        CfqConfig {
            base_quantum: 2,
            max_device_ios: 2,
        }
    }
}

fn class_idx(class: IoClass) -> usize {
    match class {
        IoClass::RealTime => 0,
        IoClass::BestEffort => 1,
        IoClass::Idle => 2,
    }
}

/// One process's queue inside a service tree. Nodes live *in* the
/// round-robin deque, so "every rr entry has a node" holds by construction
/// rather than as a cross-container invariant between a pid list and a
/// pid-keyed map.
struct ProcNode {
    pid: ProcessId,
    queue: BTreeMap<(u64, IoId), BlockIo>,
    credit: i64,
    priority: u8,
}

#[derive(Default)]
struct Tree {
    /// Round-robin order of active process nodes; front is next to serve.
    rr: VecDeque<ProcNode>,
}

impl Tree {
    fn node_mut(&mut self, pid: ProcessId) -> Option<&mut ProcNode> {
        self.rr.iter_mut().find(|n| n.pid == pid)
    }
}

/// The CFQ scheduler.
pub struct Cfq {
    cfg: CfqConfig,
    trees: [Tree; 3],
    /// IoId -> (tree index, owner, offset): exact location for O(1) cancel.
    /// Enqueue, dispatch and cancel keep it in step with the trees, so its
    /// length is the queued count.
    index: FastMap<IoId, (usize, ProcessId, u64)>,
    in_device: usize,
    ctx: NodeCtx,
}

impl Cfq {
    /// Creates a CFQ scheduler with the given config.
    pub fn new(cfg: CfqConfig) -> Self {
        Cfq {
            cfg,
            trees: Default::default(),
            index: FastMap::default(),
            in_device: 0,
            ctx: NodeCtx::disabled(),
        }
    }

    /// Creates a CFQ scheduler with default tuning.
    pub fn with_defaults() -> Self {
        Cfq::new(CfqConfig::default())
    }

    fn quantum(&self, priority: u8) -> i64 {
        i64::from(self.cfg.base_quantum) * i64::from(8 - priority)
    }

    /// Picks the next IO to dispatch according to CFQ policy, or `None` if
    /// all trees are empty. Because nodes live in the rr deque, the front
    /// node *is* the one being served — there is no pid-to-map lookup that
    /// could dangle.
    fn pick(&mut self) -> Option<BlockIo> {
        let quantum_base = self.cfg.base_quantum;
        for tree in &mut self.trees {
            while let Some(node) = tree.rr.front_mut() {
                let Some((_, io)) = node.queue.pop_first() else {
                    // Emptied by a cancel; retire the node.
                    tree.rr.pop_front();
                    continue;
                };
                node.credit -= 1;
                let slice_done = node.credit <= 0;
                let emptied = node.queue.is_empty();
                if slice_done {
                    // Slice used up: refresh credit and rotate to the back.
                    node.credit = i64::from(quantum_base) * i64::from(8 - node.priority);
                    if let Some(node) = tree.rr.pop_front() {
                        if !emptied {
                            tree.rr.push_back(node);
                        }
                    }
                } else if emptied {
                    tree.rr.pop_front();
                }
                return Some(io);
            }
        }
        None
    }

    fn dispatch(&mut self, disk: &mut Disk, now: SimTime) -> DispatchOut {
        let mut out = DispatchOut::default();
        let limit = match self.ctx.faults.sched_max_inflight(now) {
            Some(cap) => self.cfg.max_device_ios.min(cap),
            None => self.cfg.max_device_ios,
        };
        while disk.has_room() && self.in_device < limit {
            let Some(io) = self.pick() else {
                break;
            };
            self.index.remove(&io.id);
            out.dispatched.push(io.id);
            self.ctx.tsl.record_dispatch(now);
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
                    self.in_device += 1;
                    out.started = out.started.or(s);
                }
                Err(_) => unreachable!("has_room() checked before submit"),
            }
        }
        out
    }

    /// Pending IOs per process in a given class tree, exposed so tests and
    /// audits can inspect fairness.
    pub fn pending_of(&self, class: IoClass, pid: ProcessId) -> usize {
        self.trees[class_idx(class)]
            .rr
            .iter()
            .find(|n| n.pid == pid)
            .map_or(0, |n| n.queue.len())
    }

    /// IOs this scheduler currently has inside the device.
    pub fn in_device(&self) -> usize {
        self.in_device
    }
}

impl DiskScheduler for Cfq {
    fn enqueue(&mut self, io: BlockIo, disk: &mut Disk, now: SimTime) -> DispatchOut {
        let _t = self.ctx.prof.phase(Phase::Sched);
        let t = class_idx(io.class);
        self.index.insert(io.id, (t, io.owner, io.offset));
        self.ctx.trace.emit(
            now,
            Subsystem::Sched,
            EventKind::SpanBegin {
                name: QUEUED_SPAN,
                id: io.id.0,
            },
        );
        let quantum = self.quantum(io.priority);
        let tree = &mut self.trees[t];
        if tree.node_mut(io.owner).is_none() {
            tree.rr.push_back(ProcNode {
                pid: io.owner,
                queue: BTreeMap::new(),
                credit: quantum,
                priority: io.priority,
            });
        }
        if let Some(node) = tree.node_mut(io.owner) {
            // ionice changes apply to subsequent slices.
            node.priority = io.priority;
            node.queue.insert((io.offset, io.id), io);
        }
        let out = self.dispatch(disk, now);
        self.ctx
            .trace
            .gauge("sched.queued", self.index.len() as i64);
        out
    }

    fn on_complete(
        &mut self,
        disk: &mut Disk,
        now: SimTime,
    ) -> Result<(FinishedIo, DispatchOut), NoInflight> {
        let _t = self.ctx.prof.phase(Phase::Sched);
        let (finished, started) = disk.complete(now)?;
        debug_assert!(self.in_device > 0, "completion without dispatched IO");
        self.in_device = self.in_device.saturating_sub(1);
        let mut out = self.dispatch(disk, now);
        out.started = started.or(out.started);
        self.ctx
            .trace
            .gauge("sched.queued", self.index.len() as i64);
        Ok((finished, out))
    }

    fn cancel(&mut self, id: IoId) -> Option<BlockIo> {
        let (t, pid, offset) = self.index.remove(&id)?;
        let tree = &mut self.trees[t];
        let pos = tree.rr.iter().position(|n| n.pid == pid)?;
        let io = tree.rr[pos].queue.remove(&(offset, id));
        if tree.rr[pos].queue.is_empty() {
            tree.rr.remove(pos);
        }
        io
    }

    fn queued(&self) -> usize {
        self.index.len()
    }

    fn name(&self) -> &'static str {
        "cfq"
    }

    fn set_ctx(&mut self, ctx: NodeCtx) {
        self.ctx = ctx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_device::{DiskSpec, IoIdGen, Started};
    use mitt_sim::SimRng;

    fn disk() -> Disk {
        Disk::new(
            DiskSpec {
                queue_depth: 8,
                ..DiskSpec::default()
            },
            SimRng::new(1),
        )
    }

    fn io(g: &mut IoIdGen, pid: u32, offset: u64, class: IoClass, prio: u8) -> BlockIo {
        BlockIo::read(g.next_id(), offset, 4096, ProcessId(pid), SimTime::ZERO)
            .with_ionice(class, prio)
    }

    /// Drains the whole system, returning completion order of IO ids.
    fn drain(sched: &mut Cfq, disk: &mut Disk, first: Option<Started>) -> Vec<IoId> {
        let mut order = Vec::new();
        let mut tick = first;
        while let Some(s) = tick {
            let (fin, next) = sched.on_complete(disk, s.done_at).unwrap();
            order.push(fin.io.id);
            tick = next.started;
        }
        order
    }

    #[test]
    fn realtime_served_before_best_effort() {
        let mut sched = Cfq::new(CfqConfig {
            base_quantum: 2,
            max_device_ios: 1,
        });
        let mut d = disk();
        let mut g = IoIdGen::new();
        // One BE IO starts (device idle), then queue 2 BE + 2 RT.
        let s = sched.enqueue(
            io(&mut g, 1, 0, IoClass::BestEffort, 4),
            &mut d,
            SimTime::ZERO,
        );
        for off in [100, 200] {
            sched.enqueue(
                io(&mut g, 1, off, IoClass::BestEffort, 4),
                &mut d,
                SimTime::ZERO,
            );
        }
        let rt_a = io(&mut g, 2, 300, IoClass::RealTime, 4); // id 3
        let rt_b = io(&mut g, 2, 400, IoClass::RealTime, 4); // id 4
        sched.enqueue(rt_a, &mut d, SimTime::ZERO);
        sched.enqueue(rt_b, &mut d, SimTime::ZERO);
        let order = drain(&mut sched, &mut d, s.started);
        // After the in-flight BE IO, both RT IOs must be served before the
        // remaining BE ones.
        assert_eq!(order[0], IoId(0));
        assert_eq!(&order[1..3], &[IoId(3), IoId(4)]);
    }

    #[test]
    fn idle_class_served_last() {
        let mut sched = Cfq::new(CfqConfig {
            base_quantum: 2,
            max_device_ios: 1,
        });
        let mut d = disk();
        let mut g = IoIdGen::new();
        let s = sched.enqueue(io(&mut g, 1, 0, IoClass::Idle, 4), &mut d, SimTime::ZERO);
        sched.enqueue(io(&mut g, 1, 50, IoClass::Idle, 4), &mut d, SimTime::ZERO);
        sched.enqueue(
            io(&mut g, 2, 100, IoClass::BestEffort, 4),
            &mut d,
            SimTime::ZERO,
        );
        let order = drain(&mut sched, &mut d, s.started);
        assert_eq!(order, vec![IoId(0), IoId(2), IoId(1)]);
    }

    #[test]
    fn priority_weights_round_robin_shares() {
        // Process 1 at priority 0 (slice 16), process 2 at priority 7
        // (slice 2): in the first 18 dispatches after the initial IO,
        // process 1 should get 16 and process 2 only 2.
        let mut sched = Cfq::new(CfqConfig {
            base_quantum: 2,
            max_device_ios: 1,
        });
        let mut d = disk();
        let mut g = IoIdGen::new();
        let mut first = None;
        for i in 0..20u64 {
            let s = sched.enqueue(
                io(&mut g, 1, i * 10, IoClass::BestEffort, 0),
                &mut d,
                SimTime::ZERO,
            );
            first = first.or(s.started);
        }
        for i in 0..20u64 {
            sched.enqueue(
                io(&mut g, 2, 100_000 + i * 10, IoClass::BestEffort, 7),
                &mut d,
                SimTime::ZERO,
            );
        }
        let order = drain(&mut sched, &mut d, first);
        assert_eq!(order.len(), 40);
        let p1_in_first_18 = order[1..19].iter().filter(|id| id.0 < 20).count();
        assert_eq!(p1_in_first_18, 16, "order: {order:?}");
    }

    #[test]
    fn within_node_ios_dispatch_by_offset() {
        let mut sched = Cfq::new(CfqConfig {
            base_quantum: 8,
            max_device_ios: 1,
        });
        let mut d = disk();
        let mut g = IoIdGen::new();
        let s = sched.enqueue(
            io(&mut g, 1, 0, IoClass::BestEffort, 4),
            &mut d,
            SimTime::ZERO,
        );
        let high = io(&mut g, 1, 900, IoClass::BestEffort, 4); // id 1
        let low = io(&mut g, 1, 100, IoClass::BestEffort, 4); // id 2
        sched.enqueue(high, &mut d, SimTime::ZERO);
        sched.enqueue(low, &mut d, SimTime::ZERO);
        let order = drain(&mut sched, &mut d, s.started);
        assert_eq!(order, vec![IoId(0), IoId(2), IoId(1)]);
    }

    #[test]
    fn cancel_removes_queued_io_and_cleans_node() {
        let mut sched = Cfq::new(CfqConfig {
            base_quantum: 2,
            max_device_ios: 1,
        });
        let mut d = disk();
        let mut g = IoIdGen::new();
        let s = sched.enqueue(
            io(&mut g, 1, 0, IoClass::BestEffort, 4),
            &mut d,
            SimTime::ZERO,
        );
        sched.enqueue(
            io(&mut g, 2, 10, IoClass::BestEffort, 4),
            &mut d,
            SimTime::ZERO,
        );
        assert_eq!(sched.queued(), 1);
        assert_eq!(sched.cancel(IoId(1)).map(|io| io.id), Some(IoId(1)));
        assert_eq!(sched.queued(), 0);
        assert_eq!(sched.pending_of(IoClass::BestEffort, ProcessId(2)), 0);
        // Dispatched IO cannot be cancelled.
        assert!(sched.cancel(IoId(0)).is_none());
        let order = drain(&mut sched, &mut d, s.started);
        assert_eq!(order, vec![IoId(0)]);
    }

    /// The queued count the index length replaces: a walk of every tree.
    fn walked(sched: &Cfq) -> usize {
        sched
            .trees
            .iter()
            .flat_map(|t| &t.rr)
            .map(|n| n.queue.len())
            .sum()
    }

    #[test]
    fn queued_count_matches_a_tree_walk() {
        let mut sched = Cfq::new(CfqConfig {
            base_quantum: 1,
            max_device_ios: 2,
        });
        let mut d = disk();
        let mut g = IoIdGen::new();
        let mut rng = SimRng::new(7);
        let mut live: Vec<IoId> = Vec::new();
        let mut ticks: Vec<SimTime> = Vec::new();
        for step in 0..2_000u64 {
            match rng.index(4) {
                0 | 1 => {
                    let class =
                        [IoClass::RealTime, IoClass::BestEffort, IoClass::Idle][rng.index(3)];
                    let pid = (rng.next_u64() % 4) as u32;
                    let b = io(&mut g, pid, rng.next_u64() % 1_000_000, class, 4);
                    live.push(b.id);
                    let out = sched.enqueue(b, &mut d, SimTime::ZERO);
                    ticks.extend(out.started.map(|s| s.done_at));
                }
                2 if !live.is_empty() => {
                    let id = live.swap_remove(rng.index(live.len()));
                    // Already-dispatched IOs refuse the cancel: no change.
                    let _ = sched.cancel(id);
                }
                _ => {
                    if let Some(at) = ticks.pop() {
                        let (_, out) = sched.on_complete(&mut d, at).unwrap();
                        ticks.extend(out.started.map(|s| s.done_at));
                    }
                }
            }
            assert_eq!(sched.queued(), walked(&sched), "after step {step}");
        }
        while let Some(at) = ticks.pop() {
            let (_, out) = sched.on_complete(&mut d, at).unwrap();
            ticks.extend(out.started.map(|s| s.done_at));
            assert_eq!(sched.queued(), walked(&sched));
        }
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn max_device_ios_bounds_dispatch() {
        let mut sched = Cfq::new(CfqConfig {
            base_quantum: 2,
            max_device_ios: 2,
        });
        let mut d = disk();
        let mut g = IoIdGen::new();
        for i in 0..6u64 {
            sched.enqueue(
                io(&mut g, 1, i * 10, IoClass::BestEffort, 4),
                &mut d,
                SimTime::ZERO,
            );
        }
        assert_eq!(sched.in_device(), 2);
        assert_eq!(d.occupancy(), 2);
        assert_eq!(sched.queued(), 4);
    }

    #[test]
    fn drains_everything_across_classes() {
        let mut sched = Cfq::with_defaults();
        let mut d = disk();
        let mut g = IoIdGen::new();
        let mut first = None;
        for i in 0..30u64 {
            let class = match i % 3 {
                0 => IoClass::RealTime,
                1 => IoClass::BestEffort,
                _ => IoClass::Idle,
            };
            let s = sched.enqueue(
                io(&mut g, (i % 5) as u32, i * 777, class, (i % 8) as u8),
                &mut d,
                SimTime::ZERO,
            );
            first = first.or(s.started);
        }
        let order = drain(&mut sched, &mut d, first);
        assert_eq!(order.len(), 30);
        assert_eq!(sched.queued(), 0);
        assert!(d.is_idle());
    }
}
