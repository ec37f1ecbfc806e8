//! Client-side resilience policies: per-replica circuit breaking and
//! bounded exponential backoff.
//!
//! The paper's MittOS client retries EBUSY on the next replica and, in the
//! wait-variant, falls back to the least-busy replica on the 4th try. Under
//! a *persistent* fault (a crashed or fail-slow replica) that policy keeps
//! hammering the dead node and pays the detection cost on every request.
//! The [`CircuitBreaker`] remembers recent per-replica outcomes so the
//! client can stop selecting a replica that has failed `K` times in a row,
//! probing it again only after a cooldown; [`BackoffConfig`] bounds the
//! retry storm when *every* replica rejects.
//!
//! The state machine is the classic three-state breaker, driven entirely by
//! the virtual clock:
//!
//! ```text
//!            K consecutive failures
//!   Closed ──────────────────────────▶ Open
//!     ▲                                 │ cooldown elapses
//!     │ probe succeeds                  ▼
//!     └───────────────────────────── HalfOpen ──▶ Open (probe fails)
//! ```
//!
//! **Probe identity matters.** Only the outcome of the *probe request*
//! admitted in `HalfOpen` may close the breaker. A stray late `Ok` from a
//! request sent before the trip must not — under a gray flap shorter than
//! the cooldown, that late-Ok path silently closes the breaker without
//! ever probing, and the client oscillates straight back into the
//! degraded replica. Callers therefore tag the request that
//! [`CircuitBreaker::admit`] returned [`Admission::Probe`] for and route
//! its reply to the `on_probe_*` methods; every state transition is
//! recorded in a [`BreakerTransition`] log so the robustness invariants
//! (`mitt_faults::invariants`) can assert no Open→Closed edge ever lacks
//! a successful probe.

use mitt_sim::{Duration, SimTime};

/// Tuning for one replica's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures (EBUSY or crash) that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker rejects before allowing a half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    /// Open after 3 consecutive failures; probe again after 50 ms.
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(50),
        }
    }
}

/// Observable breaker state at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are skipped until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe request is allowed through.
    HalfOpen,
}

/// How [`CircuitBreaker::admit`] classified an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A normal request through a closed breaker.
    Normal,
    /// The single half-open probe: the caller must tag the request and
    /// route its reply to `on_probe_success` / `on_probe_failure`.
    Probe,
}

/// Why a breaker changed state (the transition-log entry's cause).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionCause {
    /// `failure_threshold` consecutive failures tripped a closed breaker.
    FailureThreshold,
    /// The half-open probe came back `Ok`.
    ProbeSuccess,
    /// The half-open probe came back EBUSY/crashed.
    ProbeFailure,
}

impl TransitionCause {
    /// Stable numeric code, folded into run digests.
    pub const fn code(self) -> u64 {
        match self {
            TransitionCause::FailureThreshold => 0,
            TransitionCause::ProbeSuccess => 1,
            TransitionCause::ProbeFailure => 2,
        }
    }
}

/// One recorded breaker state change. The implicit Open→HalfOpen edge at
/// cooldown expiry is a pure function of the clock and is not logged;
/// everything caused by a reply is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Virtual time of the change.
    pub at: SimTime,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// What caused it.
    pub cause: TransitionCause,
}

impl BreakerState {
    /// Stable numeric code, folded into run digests.
    pub const fn code(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// A per-replica circuit breaker driven by the virtual clock.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    consecutive_failures: u32,
    /// `Some(when)` while open/half-open: the instant the breaker tripped.
    opened_at: Option<SimTime>,
    /// True once the half-open probe has been handed out.
    probe_inflight: bool,
    /// True between `admit` returning `Probe` and the caller binding the
    /// probe to a concrete request via [`CircuitBreaker::bind_probe`].
    probe_unbound: bool,
    /// Times this breaker transitioned Closed -> Open.
    opens: u64,
    /// Every reply-caused state change, in order.
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            consecutive_failures: 0,
            opened_at: None,
            probe_inflight: false,
            probe_unbound: false,
            opens: 0,
            transitions: Vec::new(),
        }
    }

    /// The state at `now`.
    pub fn state(&self, now: SimTime) -> BreakerState {
        match self.opened_at {
            None => BreakerState::Closed,
            Some(opened) => {
                if now.saturating_since(opened) >= self.cfg.cooldown {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
        }
    }

    /// Whether (and how) a request may be sent to this replica at `now`.
    /// A half-open breaker admits exactly one probe per cooldown window;
    /// only that probe's outcome (via
    /// [`CircuitBreaker::on_probe_success`] /
    /// [`CircuitBreaker::on_probe_failure`]) may settle the state.
    pub fn admit(&mut self, now: SimTime) -> Option<Admission> {
        match self.state(now) {
            BreakerState::Closed => Some(Admission::Normal),
            BreakerState::Open => None,
            BreakerState::HalfOpen => {
                if self.probe_inflight {
                    None
                } else {
                    self.probe_inflight = true;
                    self.probe_unbound = true;
                    Some(Admission::Probe)
                }
            }
        }
    }

    /// [`CircuitBreaker::admit`] collapsed to a yes/no.
    pub fn allow(&mut self, now: SimTime) -> bool {
        self.admit(now).is_some()
    }

    /// Claims the probe admission handed out by the last
    /// [`CircuitBreaker::admit`], binding it to the request the caller is
    /// about to send. Returns true exactly once per admitted probe.
    pub fn bind_probe(&mut self) -> bool {
        std::mem::take(&mut self.probe_unbound)
    }

    fn record(
        &mut self,
        at: SimTime,
        from: BreakerState,
        to: BreakerState,
        cause: TransitionCause,
    ) {
        self.transitions.push(BreakerTransition {
            at,
            from,
            to,
            cause,
        });
    }

    /// Records a successful *non-probe* response: clears the failure
    /// streak but never closes a tripped breaker — a late `Ok` from a
    /// request sent before the trip says nothing about the replica now
    /// (under a gray flap it is exactly how the old breaker oscillated
    /// open↔closed without ever probing).
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
    }

    /// Records the half-open probe coming back `Ok` at `now`: the only
    /// edge that closes a tripped breaker.
    pub fn on_probe_success(&mut self, now: SimTime) {
        let from = self.state(now);
        self.consecutive_failures = 0;
        self.probe_inflight = false;
        if self.opened_at.take().is_some() {
            self.record(
                now,
                from,
                BreakerState::Closed,
                TransitionCause::ProbeSuccess,
            );
        }
    }

    /// Records a failed *non-probe* response (EBUSY or crash) at `now`:
    /// extends the streak and trips a closed breaker at the threshold.
    /// Failures while already tripped carry no new information and leave
    /// the state alone.
    pub fn on_failure(&mut self, now: SimTime) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.opened_at.is_none() && self.consecutive_failures >= self.cfg.failure_threshold {
            self.opened_at = Some(now);
            self.probe_inflight = false;
            self.probe_unbound = false;
            self.opens += 1;
            self.record(
                now,
                BreakerState::Closed,
                BreakerState::Open,
                TransitionCause::FailureThreshold,
            );
        }
    }

    /// Records the half-open probe failing at `now`: restart the cooldown
    /// from now (HalfOpen → Open, no fresh `opens` count).
    pub fn on_probe_failure(&mut self, now: SimTime) {
        let from = self.state(now);
        self.probe_inflight = false;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.opened_at.is_some() {
            self.opened_at = Some(now);
            self.record(now, from, BreakerState::Open, TransitionCause::ProbeFailure);
        }
    }

    /// Times this breaker transitioned Closed -> Open.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Every reply-caused state change so far, in order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }
}

/// Bounded exponential backoff for all-replicas-EBUSY storms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Delay before the first full-cluster retry.
    pub base: Duration,
    /// Cap on any single delay.
    pub max: Duration,
    /// Retry rounds before the op is failed to the application.
    pub max_rounds: u32,
}

impl Default for BackoffConfig {
    /// 2 ms base doubling to a 32 ms cap, at most 4 rounds.
    fn default() -> Self {
        BackoffConfig {
            base: Duration::from_millis(2),
            max: Duration::from_millis(32),
            max_rounds: 4,
        }
    }
}

impl BackoffConfig {
    /// Delay before retry round `round` (0-based), or `None` once the
    /// round budget is spent: `min(base * 2^round, max)`.
    pub fn delay(&self, round: u32) -> Option<Duration> {
        if round >= self.max_rounds {
            return None;
        }
        let factor = 1u64 << round.min(32);
        Some(Duration::from_nanos(self.base.as_nanos().saturating_mul(factor)).min(self.max))
    }
}

/// The client-side resilience bundle threaded into the cluster driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceConfig {
    /// Per-replica circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// All-replicas-EBUSY retry backoff.
    pub backoff: BackoffConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(10),
        })
    }

    #[test]
    fn opens_after_k_consecutive_failures() {
        let mut b = breaker();
        b.on_failure(at(1));
        b.on_failure(at(2));
        assert_eq!(b.state(at(2)), BreakerState::Closed);
        b.on_failure(at(3));
        assert_eq!(b.state(at(3)), BreakerState::Open);
        assert!(!b.allow(at(4)));
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = breaker();
        b.on_failure(at(1));
        b.on_failure(at(2));
        b.on_success();
        b.on_failure(at(3));
        b.on_failure(at(4));
        assert_eq!(b.state(at(4)), BreakerState::Closed);
    }

    #[test]
    fn half_open_allows_one_probe_then_settles() {
        let mut b = breaker();
        for t in 1..=3 {
            b.on_failure(at(t));
        }
        // Cooldown is 10ms from the trip at t=3.
        assert_eq!(b.state(at(12)), BreakerState::Open);
        assert_eq!(b.state(at(13)), BreakerState::HalfOpen);
        assert_eq!(
            b.admit(at(13)),
            Some(Admission::Probe),
            "probe goes through"
        );
        assert!(b.bind_probe(), "the admitted probe binds once");
        assert!(!b.bind_probe());
        assert_eq!(b.admit(at(13)), None, "second concurrent probe is held");
        b.on_probe_success(at(14));
        assert_eq!(b.state(at(14)), BreakerState::Closed);
        assert_eq!(b.admit(at(14)), Some(Admission::Normal));
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let mut b = breaker();
        for t in 1..=3 {
            b.on_failure(at(t));
        }
        assert_eq!(b.admit(at(20)), Some(Admission::Probe));
        b.on_probe_failure(at(20));
        assert_eq!(b.state(at(25)), BreakerState::Open);
        assert_eq!(b.state(at(30)), BreakerState::HalfOpen);
        assert_eq!(b.opens(), 1, "re-trip after probe is not a fresh open");
    }

    #[test]
    fn late_ok_never_closes_a_tripped_breaker() {
        // The gray-flap trap: requests sent before the trip complete Ok
        // while the breaker is Open. They must not close it.
        let mut b = breaker();
        for t in 1..=3 {
            b.on_failure(at(t));
        }
        assert_eq!(b.state(at(4)), BreakerState::Open);
        b.on_success();
        assert_eq!(b.state(at(4)), BreakerState::Open, "late Ok ignored");
        // Still open across the cooldown edge, and the probe slot is
        // untouched by the stray success.
        assert_eq!(b.state(at(13)), BreakerState::HalfOpen);
        assert_eq!(b.admit(at(13)), Some(Admission::Probe));
        // A stray non-probe failure while half-open doesn't restart the
        // cooldown or consume the probe.
        b.on_failure(at(14));
        assert!(b.probe_inflight, "probe still pending");
        b.on_probe_success(at(15));
        assert_eq!(b.state(at(15)), BreakerState::Closed);
    }

    #[test]
    fn transition_log_records_legal_edges_only() {
        let mut b = breaker();
        for t in 1..=3 {
            b.on_failure(at(t));
        }
        b.on_success(); // late Ok: no transition
        assert_eq!(b.admit(at(13)), Some(Admission::Probe));
        b.on_probe_failure(at(13));
        assert_eq!(b.admit(at(24)), Some(Admission::Probe));
        b.on_probe_success(at(24));
        let log = b.transitions();
        assert_eq!(log.len(), 3);
        assert_eq!(
            (log[0].from, log[0].to, log[0].cause),
            (
                BreakerState::Closed,
                BreakerState::Open,
                TransitionCause::FailureThreshold
            )
        );
        assert_eq!(
            (log[1].from, log[1].to, log[1].cause),
            (
                BreakerState::HalfOpen,
                BreakerState::Open,
                TransitionCause::ProbeFailure
            )
        );
        assert_eq!(
            (log[2].from, log[2].to, log[2].cause),
            (
                BreakerState::HalfOpen,
                BreakerState::Closed,
                TransitionCause::ProbeSuccess
            )
        );
        assert!(
            log.iter()
                .filter(|t| t.to == BreakerState::Closed)
                .all(|t| t.cause == TransitionCause::ProbeSuccess),
            "no close without a successful probe"
        );
    }

    #[test]
    fn backoff_doubles_and_caps_and_bounds_rounds() {
        let b = BackoffConfig {
            base: Duration::from_millis(2),
            max: Duration::from_millis(12),
            max_rounds: 4,
        };
        assert_eq!(b.delay(0), Some(Duration::from_millis(2)));
        assert_eq!(b.delay(1), Some(Duration::from_millis(4)));
        assert_eq!(b.delay(2), Some(Duration::from_millis(8)));
        assert_eq!(b.delay(3), Some(Duration::from_millis(12)), "capped");
        assert_eq!(b.delay(4), None, "round budget spent");
    }
}
