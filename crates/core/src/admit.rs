//! The one admission path every MittOS predictor shares (§4).
//!
//! The paper applies a single rule at every resource: predict `T_wait` and
//! reject with EBUSY iff `T_wait > T_deadline + T_hop`. MittNoop, MittCFQ
//! and MittSSD differ only in how they estimate the wait, what admitting an
//! IO does to their mirror, and which resource a rejection is blamed on.
//! That difference is the [`Predictor`] trait; [`admit()`] is everything
//! else, written once for the predictors' own `admit` methods and for the
//! cluster node's submission path alike.

use mitt_device::{BlockIo, IoId};
use mitt_faults::NodeCtx;
use mitt_prof::Phase;
use mitt_sim::{Duration, SimTime};
use mitt_trace::{EventKind, Resource, Subsystem};

use crate::slo::{decide, Decision, Slo};

/// Trace counter of accepted IOs a later admission bumped (late EBUSY).
const BUMPED_COUNTER: &str = "mittcfq.bumped";

/// What differs between the MittOS predictors.
///
/// Predictors are pure mirrors: they hold no trace, profiling or fault
/// handles. [`admit()`] applies those from the caller's [`NodeCtx`].
pub trait Predictor {
    /// Subsystem tag of the `predict` events and admit/reject counters.
    fn subsystem(&self) -> Subsystem;

    /// Predicted wait before service for `io` arriving at `now`.
    fn wait(&self, io: &BlockIo, now: SimTime) -> Duration;

    /// Accounts an admitted IO in the mirror. Returns previously accepted
    /// IOs whose deadline just became hopeless (only MittCFQ bumps).
    fn account(&mut self, io: &BlockIo, now: SimTime) -> Vec<IoId>;

    /// Counts one rejected IO.
    fn count_reject(&mut self);

    /// The resource a rejection is blamed on when no fault is distorting
    /// predictions, plus a resource-specific detail (queue depth, IOs
    /// backing the estimate, in-flight sub-IOs).
    fn blame(&self) -> (Resource, u64);

    /// The one-hop failover cost `T_hop` added to deadlines.
    fn hop(&self) -> Duration;
}

/// A disk-stack predictor (MittNoop or MittCFQ) as a node drives it: the
/// admission half plus the scheduler and device callbacks.
pub trait DiskPredictor: Predictor {
    /// The scheduler moved `id` into the device queue.
    fn on_dispatch(&mut self, _id: IoId, _now: SimTime) {}

    /// `id` completed after `actual_service`; calibrates the mirror.
    fn on_complete(&mut self, id: IoId, actual_service: Duration);

    /// `id` was cancelled before reaching the device.
    fn on_cancel(&mut self, id: IoId);
}

/// The outcome of one admission decision.
#[derive(Debug)]
pub struct Admission {
    /// The final decision, after the caller's policy.
    pub decision: Decision,
    /// The resource blamed for the rejection, or for the IOs this admission
    /// bumped: the predictor's own, or `FaultWindow` inside a
    /// `PredictorBias` window.
    pub resource: Resource,
    /// The predictor's detail for `resource`, taken after accounting.
    pub detail: u64,
    /// Accepted IOs this admission bumped (late EBUSY).
    pub bumped: Vec<IoId>,
}

/// Decides whether `io` may enter the predictor's resource at `now`.
///
/// Under one `Predict` timer: the wait estimate, distorted by any active
/// `PredictorBias` fault; [`decide`]; the `predict` event and the
/// subsystem's admit/reject counter for that raw verdict; then `policy`,
/// which may overrule the verdict (audit mode, error injection); then, for
/// an admitted IO, accounting in the mirror.
pub fn admit<P: Predictor + ?Sized>(
    predictor: &mut P,
    io: &BlockIo,
    now: SimTime,
    ctx: &NodeCtx,
    policy: impl FnOnce(&BlockIo, Decision) -> Decision,
) -> Admission {
    let _t = ctx.prof.phase(Phase::Predict);
    let wait = ctx.faults.distort_wait(now, predictor.wait(io, now));
    let raw = decide(wait, io.deadline.map(Slo::deadline), predictor.hop());
    if ctx.trace.is_enabled() {
        let sub = predictor.subsystem();
        ctx.trace.emit(
            now,
            sub,
            EventKind::Predict {
                io: io.id.0,
                predicted_wait: wait,
                deadline: io.deadline,
                admitted: raw.is_admit(),
            },
        );
        let counter = if raw.is_admit() {
            sub.admit_counter()
        } else {
            sub.reject_counter()
        };
        ctx.trace.count(counter, 1);
    }
    let decision = policy(io, raw);
    let mut bumped = Vec::new();
    if decision.is_admit() {
        bumped = predictor.account(io, now);
        if !bumped.is_empty() {
            ctx.trace.count(BUMPED_COUNTER, bumped.len() as u64);
        }
    } else {
        predictor.count_reject();
    }
    let (own, detail) = predictor.blame();
    Admission {
        decision,
        resource: ctx.blame(now, own),
        detail,
        bumped,
    }
}

/// [`admit()`] with no handles and no policy: the predictors' own `admit`.
pub(crate) fn admit_bare<P: Predictor>(predictor: &mut P, io: &BlockIo, now: SimTime) -> Admission {
    admit(predictor, io, now, &NodeCtx::disabled(), |_, raw| raw)
}
