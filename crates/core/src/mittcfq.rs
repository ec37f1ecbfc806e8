//! MittCFQ: the SLO-aware CFQ predictor (§4.2).
//!
//! CFQ's two-level queueing (service trees of per-process nodes above the
//! device queue) makes the wait-time of a new IO the sum of:
//!
//! 1. everything already in the device (tracked O(1) as a `device_free`
//!    timestamp, like MittNoop), and
//! 2. every queued IO that CFQ will serve *before* the new IO: all IOs in
//!    higher service classes, plus — within the same class — IOs of nodes
//!    whose priority is at least as urgent, plus the new IO's own node.
//!
//! To keep the check O(P) in the number of processes rather than O(N) in
//! pending IOs, MittCFQ maintains per-node predicted totals.
//!
//! CFQ adds a hazard noop lacks: an IO accepted now can be *bumped to the
//! back* by higher-priority arrivals until its deadline is hopeless. The
//! paper keeps a hash table keyed by "tolerable time" for this. Here each
//! admitted deadline IO's queue record stores how much extra delay it can
//! absorb; every admitted higher-priority IO debits the tolerable time of
//! each queued lower-priority record, and IOs whose tolerable time goes
//! negative are cancelled with a late EBUSY.

use mitt_device::{BlockIo, IoClass, IoId, ProcessId};
use mitt_sim::{Duration, FastMap, SimTime};
use mitt_trace::{Resource, Subsystem};

use crate::admit::{admit_bare, DiskPredictor, Predictor};
use crate::profile::DiskProfile;
use crate::slo::Decision;

fn class_idx(class: IoClass) -> u8 {
    match class {
        IoClass::RealTime => 0,
        IoClass::BestEffort => 1,
        IoClass::Idle => 2,
    }
}

struct QueuedRec {
    service_ns: i64,
    class: u8,
    priority: u8,
    owner: ProcessId,
    /// Remaining tolerable delay (deadline headroom); `None` for IOs
    /// without a deadline.
    tolerable_ns: Option<i64>,
}

#[derive(Default)]
struct NodeTotal {
    total_ns: i64,
    count: usize,
    priority: u8,
}

/// Outcome of a MittCFQ admission: the decision for the new IO plus any
/// previously accepted IOs whose deadline just became hopeless (to be
/// cancelled from the scheduler and failed with EBUSY).
#[derive(Debug)]
pub struct CfqAdmission {
    /// Admit/reject for the arriving IO.
    pub decision: Decision,
    /// Accepted-but-bumped IOs to cancel with a late EBUSY.
    pub bumped: Vec<IoId>,
}

/// The MittCFQ admission predictor.
pub struct MittCfq {
    profile: DiskProfile,
    hop: Duration,
    /// Device mirror, as in MittNoop.
    device_free_ns: i64,
    device_pending: FastMap<IoId, i64>,
    last_tail: u64,
    /// CFQ-queue ledger.
    queued: FastMap<IoId, QueuedRec>,
    node_totals: FastMap<(u8, ProcessId), NodeTotal>,
    admitted: u64,
    rejected: u64,
    bumped_total: u64,
}

impl MittCfq {
    /// Creates a predictor from a fitted disk profile and hop cost.
    pub fn new(profile: DiskProfile, hop: Duration) -> Self {
        MittCfq {
            profile,
            hop,
            device_free_ns: 0,
            device_pending: FastMap::default(),
            last_tail: 0,
            queued: FastMap::default(),
            node_totals: FastMap::default(),
            admitted: 0,
            rejected: 0,
            bumped_total: 0,
        }
    }

    /// Predicted wait for an IO of the given class/priority/owner arriving
    /// at `now`: device backlog, plus all queued IOs CFQ serves strictly
    /// first (higher classes; same-class nodes at equal-or-stricter
    /// priority; the IO's own node), plus the *slice share* of same-class
    /// lower-priority nodes — CFQ's weighted round-robin still grants them
    /// `q_their / (q_their + q_mine)` of the dispatch slots while this IO
    /// waits, so ignoring them entirely would underpredict under
    /// low-priority noise.
    pub fn predicted_wait(
        &self,
        class: IoClass,
        priority: u8,
        owner: ProcessId,
        now: SimTime,
    ) -> Duration {
        let device = (self.device_free_ns - now.as_nanos() as i64).max(0);
        let cls = class_idx(class);
        let my_quantum = f64::from(8 - priority);
        let mut ahead = 0i64;
        for (&(c, pid), nt) in &self.node_totals {
            if c < cls || (c == cls && (pid == owner || nt.priority <= priority)) {
                ahead += nt.total_ns;
            } else if c == cls {
                let their_quantum = f64::from(8 - nt.priority);
                let share = their_quantum / (their_quantum + my_quantum);
                ahead += (nt.total_ns as f64 * share) as i64;
            }
        }
        Duration::from_nanos((device + ahead).max(0) as u64)
    }

    /// The admission check with bump detection.
    pub fn admit(&mut self, io: &BlockIo, now: SimTime) -> CfqAdmission {
        let adm = admit_bare(self, io, now);
        CfqAdmission {
            decision: adm.decision,
            bumped: adm.bumped,
        }
    }

    /// Unconditionally accounts an IO as admitted into the CFQ queues,
    /// debiting lower-priority deadline IOs' tolerable times. Returns IOs
    /// whose deadline just became hopeless (to cancel with a late EBUSY).
    pub fn account(&mut self, io: &BlockIo, now: SimTime) -> Vec<IoId> {
        let wait = self.predicted_wait(io.class, io.priority, io.owner, now);
        self.admitted += 1;
        let service = self.profile.service(self.last_tail, io.offset, io.len);
        let service_ns = service.as_nanos() as i64;
        self.last_tail = io.end_offset();
        let cls = class_idx(io.class);
        let tolerable_ns = io
            .deadline
            .map(|d| (d + self.hop).as_nanos() as i64 - wait.as_nanos() as i64);
        self.queued.insert(
            io.id,
            QueuedRec {
                service_ns,
                class: cls,
                priority: io.priority,
                owner: io.owner,
                tolerable_ns,
            },
        );
        let nt = self.node_totals.entry((cls, io.owner)).or_default();
        nt.total_ns += service_ns;
        nt.count += 1;
        nt.priority = io.priority;
        // Debit the tolerable time of every queued deadline IO the new IO
        // will be served ahead of; cancel those driven negative.
        self.debit_bumped(cls, io.priority, io.id, service_ns)
    }

    fn debit_bumped(
        &mut self,
        new_class: u8,
        new_prio: u8,
        new_id: IoId,
        service_ns: i64,
    ) -> Vec<IoId> {
        let mut moves: Vec<(IoId, i64)> = Vec::new(); // (id, new_tol)
        for (&id, rec) in &self.queued {
            if id == new_id {
                continue;
            }
            let Some(tol) = rec.tolerable_ns else {
                continue;
            };
            let lower_urgency =
                rec.class > new_class || (rec.class == new_class && rec.priority > new_prio);
            if lower_urgency {
                moves.push((id, tol - service_ns));
            }
        }
        // Sort by IoId so the cancellation order (and hence the bumped-EBUSY
        // event order seen by callers) never depends on hash-map layout.
        moves.sort_unstable_by_key(|&(id, _)| id);
        let mut bumped = Vec::new();
        for (id, new_tol) in moves {
            if new_tol < 0 {
                // Deadline hopeless: cancel with late EBUSY.
                self.remove_queued(id);
                self.bumped_total += 1;
                bumped.push(id);
            } else if let Some(rec) = self.queued.get_mut(&id) {
                rec.tolerable_ns = Some(new_tol);
            }
        }
        bumped
    }

    fn remove_queued(&mut self, id: IoId) -> Option<QueuedRec> {
        let rec = self.queued.remove(&id)?;
        if let Some(nt) = self.node_totals.get_mut(&(rec.class, rec.owner)) {
            nt.total_ns -= rec.service_ns;
            nt.count -= 1;
            if nt.count == 0 {
                self.node_totals.remove(&(rec.class, rec.owner));
            }
        }
        Some(rec)
    }

    /// Records that the scheduler dispatched `id` into the device: its
    /// predicted service moves from the queue ledger to the device mirror.
    pub fn on_dispatch(&mut self, id: IoId, now: SimTime) {
        if let Some(rec) = self.remove_queued(id) {
            self.device_pending.insert(id, rec.service_ns);
            self.device_free_ns = self.device_free_ns.max(now.as_nanos() as i64) + rec.service_ns;
        }
    }

    /// Calibrates the device mirror with the completed IO's actual service
    /// time, as in MittNoop.
    pub fn on_complete(&mut self, id: IoId, actual_service: Duration) {
        if let Some(predicted) = self.device_pending.remove(&id) {
            let diff = actual_service.as_nanos() as i64 - predicted;
            self.device_free_ns += diff;
        }
    }

    /// Drops accounting for an IO cancelled while still queued (tied
    /// requests, application abort).
    pub fn on_cancel(&mut self, id: IoId) {
        self.remove_queued(id);
    }

    /// (admitted, rejected, bumped) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.admitted, self.rejected, self.bumped_total)
    }

    /// Number of distinct (class, process) nodes with queued IOs — the `P`
    /// in the paper's O(P) complexity claim.
    pub fn active_nodes(&self) -> usize {
        self.node_totals.len()
    }
}

impl Predictor for MittCfq {
    fn subsystem(&self) -> Subsystem {
        Subsystem::MittCfq
    }

    fn wait(&self, io: &BlockIo, now: SimTime) -> Duration {
        self.predicted_wait(io.class, io.priority, io.owner, now)
    }

    fn account(&mut self, io: &BlockIo, now: SimTime) -> Vec<IoId> {
        MittCfq::account(self, io, now)
    }

    fn count_reject(&mut self) {
        self.rejected += 1;
    }

    /// The CFQ queues, with their depth behind the predicted wait.
    fn blame(&self) -> (Resource, u64) {
        (Resource::CfqQueue, self.queued.len() as u64)
    }

    fn hop(&self) -> Duration {
        self.hop
    }
}

impl DiskPredictor for MittCfq {
    fn on_dispatch(&mut self, id: IoId, now: SimTime) {
        MittCfq::on_dispatch(self, id, now);
    }

    fn on_complete(&mut self, id: IoId, actual_service: Duration) {
        MittCfq::on_complete(self, id, actual_service);
    }

    fn on_cancel(&mut self, id: IoId) {
        MittCfq::on_cancel(self, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::DEFAULT_HOP;
    use mitt_device::{DiskSpec, IoIdGen, GB};

    fn predictor() -> MittCfq {
        MittCfq::new(DiskProfile::from_spec(&DiskSpec::default()), DEFAULT_HOP)
    }

    fn io(
        g: &mut IoIdGen,
        pid: u32,
        offset: u64,
        class: IoClass,
        prio: u8,
        deadline_ms: Option<u64>,
    ) -> BlockIo {
        let mut io = BlockIo::read(g.next_id(), offset, 4096, ProcessId(pid), SimTime::ZERO)
            .with_ionice(class, prio);
        if let Some(ms) = deadline_ms {
            io = io.with_deadline(Duration::from_millis(ms));
        }
        io
    }

    #[test]
    fn higher_class_wait_ignores_lower_class_queue() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        // Queue a pile of Idle IOs.
        for i in 0..8u64 {
            p.admit(
                &io(&mut g, 1, i * 50 * GB, IoClass::Idle, 4, None),
                SimTime::ZERO,
            );
        }
        // A RealTime IO sees zero CFQ wait (device empty, Idle behind it).
        let w = p.predicted_wait(IoClass::RealTime, 4, ProcessId(2), SimTime::ZERO);
        assert_eq!(w, Duration::ZERO);
        // An Idle IO of another process sees the whole backlog.
        let w = p.predicted_wait(IoClass::Idle, 4, ProcessId(2), SimTime::ZERO);
        assert!(w > Duration::from_millis(20));
    }

    #[test]
    fn rejects_when_backlog_exceeds_deadline() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        for i in 0..8u64 {
            p.admit(
                &io(&mut g, 1, i * 50 * GB, IoClass::BestEffort, 4, None),
                SimTime::ZERO,
            );
        }
        let adm = p.admit(
            &io(&mut g, 2, 500 * GB, IoClass::BestEffort, 4, Some(10)),
            SimTime::ZERO,
        );
        assert!(!adm.decision.is_admit());
        assert!(adm.bumped.is_empty(), "rejection must not bump others");
        let (_, rejected, _) = p.counters();
        assert_eq!(rejected, 1);
    }

    #[test]
    fn bump_cancels_accepted_io_when_tolerable_goes_negative() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        // Accept a BestEffort IO with a deadline close to its wait.
        let victim = io(&mut g, 1, 100 * GB, IoClass::BestEffort, 4, Some(8));
        let adm = p.admit(&victim, SimTime::ZERO);
        assert!(adm.decision.is_admit());
        // Each RealTime IO (~5-7ms predicted) debits the victim's ~8ms of
        // headroom; after two, the victim must be bumped out.
        let mut bumped = Vec::new();
        for i in 0..2u64 {
            let adm = p.admit(
                &io(&mut g, 2, (200 + i * 100) * GB, IoClass::RealTime, 4, None),
                SimTime::ZERO,
            );
            bumped.extend(adm.bumped);
        }
        assert_eq!(bumped, vec![victim.id]);
        let (_, _, bumped_total) = p.counters();
        assert_eq!(bumped_total, 1);
        // The victim's service was removed from the ledger.
        let w = p.predicted_wait(IoClass::BestEffort, 4, ProcessId(1), SimTime::ZERO);
        let w_rt = p.predicted_wait(IoClass::RealTime, 4, ProcessId(2), SimTime::ZERO);
        assert!(w >= w_rt, "BE wait includes RT backlog");
    }

    #[test]
    fn same_priority_arrivals_do_not_bump() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        let victim = io(&mut g, 1, 100 * GB, IoClass::BestEffort, 4, Some(8));
        p.admit(&victim, SimTime::ZERO);
        for i in 0..3u64 {
            let adm = p.admit(
                &io(
                    &mut g,
                    2,
                    (200 + i * 100) * GB,
                    IoClass::BestEffort,
                    4,
                    None,
                ),
                SimTime::ZERO,
            );
            assert!(adm.bumped.is_empty(), "equal priority must not bump");
        }
    }

    #[test]
    fn dispatch_moves_service_to_device_mirror() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        let a = io(&mut g, 1, 100 * GB, IoClass::BestEffort, 4, None);
        p.admit(&a, SimTime::ZERO);
        let before = p.predicted_wait(IoClass::BestEffort, 4, ProcessId(9), SimTime::ZERO);
        assert!(before > Duration::ZERO, "ledger counts the queued IO");
        p.on_dispatch(a.id, SimTime::ZERO);
        let after = p.predicted_wait(IoClass::BestEffort, 4, ProcessId(9), SimTime::ZERO);
        // Wait unchanged in total (moved from ledger to device mirror)...
        assert_eq!(before, after);
        // ...but now visible to every class, including RealTime.
        let rt = p.predicted_wait(IoClass::RealTime, 0, ProcessId(9), SimTime::ZERO);
        assert_eq!(rt, after);
        p.on_complete(a.id, before);
        assert_eq!(p.active_nodes(), 0);
    }

    #[test]
    fn cancel_refunds_ledger() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        let a = io(&mut g, 1, 100 * GB, IoClass::BestEffort, 4, Some(50));
        p.admit(&a, SimTime::ZERO);
        p.on_cancel(a.id);
        assert_eq!(p.active_nodes(), 0);
        assert_eq!(
            p.predicted_wait(IoClass::BestEffort, 4, ProcessId(2), SimTime::ZERO),
            Duration::ZERO
        );
    }

    #[test]
    fn own_node_backlog_counts_for_same_process() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        // Process 1 queues IOs at priority 4; a new priority-2 IO from the
        // same process still waits behind its own node's queue.
        for i in 0..4u64 {
            p.admit(
                &io(&mut g, 1, i * 100 * GB, IoClass::BestEffort, 4, None),
                SimTime::ZERO,
            );
        }
        let own = p.predicted_wait(IoClass::BestEffort, 2, ProcessId(1), SimTime::ZERO);
        assert!(own > Duration::ZERO);
        // A different process at stricter priority 2 is mostly served
        // before node-1's priority-4 IOs, but CFQ's weighted round-robin
        // still grants node 1 its slice share: the predicted wait is the
        // backlog scaled by q_their / (q_their + q_mine) = 4/10.
        let other = p.predicted_wait(IoClass::BestEffort, 2, ProcessId(2), SimTime::ZERO);
        assert!(other > Duration::ZERO && other < own);
        let expected = own.mul_f64(0.4);
        let diff = if other > expected {
            other - expected
        } else {
            expected - other
        };
        assert!(
            diff < Duration::from_micros(1),
            "share {other} vs expected {expected}"
        );
    }
}
