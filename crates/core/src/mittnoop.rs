//! MittNoop: the SLO-aware noop scheduler predictor (§4.1).
//!
//! Under noop, arriving IOs flow FIFO into the device queue, so the wait
//! time of a new IO is simply "when does the disk become free". MittNoop
//! keeps that as a single running timestamp `T_nextFree`:
//!
//! - **O(1) check**: `T_wait = T_nextFree - T_now`; reject with EBUSY when
//!   `T_wait > T_deadline + T_hop`.
//! - **Accuracy**: on admission, `T_nextFree += T_processNewIO` where the
//!   per-IO estimate comes from the fitted [`DiskProfile`]. On completion,
//!   the measured "diff" between actual and predicted service recalibrates
//!   `T_nextFree`, so model error does not accumulate over millions of IOs.
//!
//! The predictor must observe *every* IO entering the scheduler (including
//! other tenants' — the host OS sees them all); IOs without a deadline are
//! always admitted but still accounted.

use mitt_device::{BlockIo, IoId};
use mitt_sim::{Duration, FastMap, SimTime};
use mitt_trace::{Resource, Subsystem};

use crate::admit::{admit_bare, DiskPredictor, Predictor};
use crate::profile::DiskProfile;
use crate::slo::Decision;

/// The MittNoop admission predictor.
pub struct MittNoop {
    profile: DiskProfile,
    hop: Duration,
    /// When the disk is predicted to become free, in ns (signed so
    /// calibration can swing slightly below `now`).
    next_free_ns: i64,
    /// End offset of the last admitted IO: the predicted head position.
    last_tail: u64,
    /// Predicted service of each admitted, not-yet-completed IO.
    pending: FastMap<IoId, i64>,
    rejected: u64,
    admitted: u64,
}

impl MittNoop {
    /// Creates a predictor from a fitted disk profile and hop cost.
    pub fn new(profile: DiskProfile, hop: Duration) -> Self {
        MittNoop {
            profile,
            hop,
            next_free_ns: 0,
            last_tail: 0,
            pending: FastMap::default(),
            rejected: 0,
            admitted: 0,
        }
    }

    /// Predicted wait for an IO arriving at `now` (before admission).
    pub fn predicted_wait(&self, now: SimTime) -> Duration {
        let wait = self.next_free_ns - now.as_nanos() as i64;
        Duration::from_nanos(wait.max(0) as u64)
    }

    /// Predicted service time for `io` from the current predicted head
    /// position.
    pub fn predicted_service(&self, io: &BlockIo) -> Duration {
        self.profile.service(self.last_tail, io.offset, io.len)
    }

    /// The admission check: rejects (without any state change) when the
    /// deadline cannot be met; otherwise accounts the IO and admits.
    pub fn admit(&mut self, io: &BlockIo, now: SimTime) -> Decision {
        admit_bare(self, io, now).decision
    }

    /// Unconditionally accounts an IO as admitted (advancing `T_nextFree`
    /// by its predicted service).
    pub fn account(&mut self, io: &BlockIo, now: SimTime) {
        self.admitted += 1;
        let service = self.predicted_service(io);
        self.pending.insert(io.id, service.as_nanos() as i64);
        self.next_free_ns =
            self.next_free_ns.max(now.as_nanos() as i64) + service.as_nanos() as i64;
        self.last_tail = io.end_offset();
    }

    /// Calibrates `T_nextFree` with the measured diff between actual and
    /// predicted service time of a completed IO (§4.1 "Accuracy").
    pub fn on_complete(&mut self, id: IoId, actual_service: Duration) {
        if let Some(predicted) = self.pending.remove(&id) {
            let diff = actual_service.as_nanos() as i64 - predicted;
            self.next_free_ns += diff;
        }
    }

    /// Drops accounting for an IO cancelled before reaching the device
    /// (e.g. a tied-request revocation): its predicted service is refunded.
    pub fn on_cancel(&mut self, id: IoId) {
        if let Some(predicted) = self.pending.remove(&id) {
            self.next_free_ns -= predicted;
        }
    }

    /// (admitted, rejected) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.admitted, self.rejected)
    }
}

impl Predictor for MittNoop {
    fn subsystem(&self) -> Subsystem {
        Subsystem::MittNoop
    }

    fn wait(&self, _io: &BlockIo, now: SimTime) -> Duration {
        self.predicted_wait(now)
    }

    fn account(&mut self, io: &BlockIo, now: SimTime) -> Vec<IoId> {
        MittNoop::account(self, io, now);
        Vec::new()
    }

    fn count_reject(&mut self) {
        self.rejected += 1;
    }

    /// The drain estimate, backed by the admitted, not-yet-completed IOs.
    fn blame(&self) -> (Resource, u64) {
        (Resource::NoopNextFree, self.pending.len() as u64)
    }

    fn hop(&self) -> Duration {
        self.hop
    }
}

impl DiskPredictor for MittNoop {
    fn on_complete(&mut self, id: IoId, actual_service: Duration) {
        MittNoop::on_complete(self, id, actual_service);
    }

    fn on_cancel(&mut self, id: IoId) {
        MittNoop::on_cancel(self, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::DEFAULT_HOP;
    use mitt_device::{DiskSpec, IoIdGen, ProcessId, GB};

    fn predictor() -> MittNoop {
        MittNoop::new(DiskProfile::from_spec(&DiskSpec::default()), DEFAULT_HOP)
    }

    fn rd(g: &mut IoIdGen, offset: u64, deadline_ms: Option<u64>) -> BlockIo {
        let mut io = BlockIo::read(g.next_id(), offset, 4096, ProcessId(0), SimTime::ZERO);
        if let Some(ms) = deadline_ms {
            io = io.with_deadline(Duration::from_millis(ms));
        }
        io
    }

    #[test]
    fn idle_disk_admits_with_zero_wait() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        let d = p.admit(&rd(&mut g, 100 * GB, Some(20)), SimTime::ZERO);
        assert_eq!(d.predicted_wait(), Duration::ZERO);
        assert!(d.is_admit());
    }

    #[test]
    fn accumulated_backlog_triggers_rejection() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        // Admit enough no-deadline IOs to build >20ms of predicted backlog.
        for i in 0..6u64 {
            let d = p.admit(&rd(&mut g, (i * 137) % 1000 * GB, None), SimTime::ZERO);
            assert!(d.is_admit(), "no-deadline IOs are always admitted");
        }
        let wait = p.predicted_wait(SimTime::ZERO);
        assert!(wait > Duration::from_millis(20), "backlog {wait}");
        let d = p.admit(&rd(&mut g, 500 * GB, Some(20)), SimTime::ZERO);
        assert!(!d.is_admit());
        // Rejection leaves the mirror untouched.
        assert_eq!(p.predicted_wait(SimTime::ZERO), wait);
        assert_eq!(p.counters(), (6, 1));
    }

    #[test]
    fn wait_decays_with_time() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        p.admit(&rd(&mut g, 500 * GB, None), SimTime::ZERO);
        let w0 = p.predicted_wait(SimTime::ZERO);
        let later = SimTime::ZERO + w0;
        assert_eq!(p.predicted_wait(later), Duration::ZERO);
    }

    #[test]
    fn completion_diff_recalibrates() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        let io = rd(&mut g, 500 * GB, None);
        p.admit(&io, SimTime::ZERO);
        let predicted = p.predicted_wait(SimTime::ZERO);
        // Device actually took 2ms longer than predicted.
        let actual = predicted + Duration::from_millis(2);
        p.on_complete(io.id, actual);
        assert_eq!(p.predicted_wait(SimTime::ZERO), actual);
    }

    #[test]
    fn cancel_refunds_prediction() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        let a = rd(&mut g, 100 * GB, None);
        let b = rd(&mut g, 600 * GB, None);
        p.admit(&a, SimTime::ZERO);
        let after_a = p.predicted_wait(SimTime::ZERO);
        p.admit(&b, SimTime::ZERO);
        p.on_cancel(b.id);
        assert_eq!(p.predicted_wait(SimTime::ZERO), after_a);
    }

    #[test]
    fn idle_period_resets_base_time() {
        let mut p = predictor();
        let mut g = IoIdGen::new();
        p.admit(&rd(&mut g, 100 * GB, None), SimTime::ZERO);
        // Long after the backlog drains, a new IO sees zero wait and the
        // mirror restarts from `now`.
        let later = SimTime::ZERO + Duration::from_secs(10);
        let d = p.admit(&rd(&mut g, 200 * GB, Some(20)), later);
        assert!(d.is_admit());
        assert_eq!(d.predicted_wait(), Duration::ZERO);
        assert!(p.predicted_wait(later) > Duration::ZERO);
    }
}
