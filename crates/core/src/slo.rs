//! SLO types and the fast-rejecting interface's vocabulary.
//!
//! The paper's interface change is small by design (§3.3): `read()` gains a
//! deadline argument, and a new error — `EBUSY` — tells the application the
//! OS predicts the deadline cannot be met. [`Decision`] is the outcome of
//! the in-kernel admission check; [`MittError::Busy`] is what the
//! application sees, optionally enriched with the predicted wait time (the
//! §8.1 "richer responses" extension).

use mitt_sim::Duration;

/// Default one-hop failover cost added to deadlines before rejecting
/// (`T_hop` in §4.1): 0.3 ms in the paper's EC2/Emulab testbeds.
pub const DEFAULT_HOP: Duration = Duration::from_micros(300);

/// An application-provided service-level objective for one IO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slo {
    /// The IO must complete within this much time of submission.
    pub deadline: Duration,
}

impl Slo {
    /// Creates a latency-deadline SLO.
    pub fn deadline(deadline: Duration) -> Self {
        Slo { deadline }
    }
}

/// Outcome of MittOS's admission check for one IO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The IO was admitted; `predicted_wait` is the queueing delay the
    /// predictor expects before service begins.
    Admit {
        /// Predicted wait before the IO reaches the device head.
        predicted_wait: Duration,
    },
    /// The IO was rejected with EBUSY — it was never queued, so it adds no
    /// load to the contended resource.
    Reject {
        /// Predicted wait that violated the deadline; applications using
        /// the rich interface can pick the least-busy replica with it.
        predicted_wait: Duration,
    },
}

impl Decision {
    /// True if the IO was admitted.
    pub fn is_admit(&self) -> bool {
        matches!(self, Decision::Admit { .. })
    }

    /// The predicted wait regardless of outcome.
    pub fn predicted_wait(&self) -> Duration {
        match *self {
            Decision::Admit { predicted_wait } | Decision::Reject { predicted_wait } => {
                predicted_wait
            }
        }
    }
}

/// Errors surfaced by the SLO-aware interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MittError {
    /// The OS predicts the SLO cannot be met; retry on another replica.
    /// Carries the predicted wait time (§7.8.1 extension; plain EBUSY
    /// callers may ignore it).
    Busy {
        /// Predicted wait at the contended resource.
        predicted_wait: Duration,
    },
}

impl std::fmt::Display for MittError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MittError::Busy { predicted_wait } => {
                write!(f, "EBUSY (predicted wait {predicted_wait})")
            }
        }
    }
}

impl std::error::Error for MittError {}

/// The §4.1 rule: a wait misses iff `wait > deadline + hop`. [`decide`]
/// rejects the predicted waits that miss; Figure 9 (§7.6) scores each
/// prediction against whether the measured wait missed.
pub fn misses(wait: Duration, deadline: Duration, hop: Duration) -> bool {
    wait > deadline + hop
}

/// Decides admit/reject given a predicted wait, deadline, and hop cost:
/// reject iff the predicted wait [`misses`] the deadline.
pub fn decide(predicted_wait: Duration, slo: Option<Slo>, hop: Duration) -> Decision {
    match slo {
        Some(slo) if misses(predicted_wait, slo.deadline, hop) => {
            Decision::Reject { predicted_wait }
        }
        _ => Decision::Admit { predicted_wait },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_slo_always_admits() {
        let d = decide(Duration::from_secs(10), None, DEFAULT_HOP);
        assert!(d.is_admit());
    }

    #[test]
    fn rejects_only_past_deadline_plus_hop() {
        let slo = Some(Slo::deadline(Duration::from_millis(20)));
        let hop = Duration::from_micros(300);
        assert!(decide(Duration::from_millis(20), slo, hop).is_admit());
        // 20.3ms is exactly deadline + hop: still admitted (strict >).
        assert!(decide(Duration::from_micros(20_300), slo, hop).is_admit());
        let d = decide(Duration::from_micros(20_301), slo, hop);
        assert!(!d.is_admit());
        assert_eq!(d.predicted_wait(), Duration::from_micros(20_301));
    }

    #[test]
    fn the_outcome_rule_is_the_admission_rule() {
        let (d, hop) = (Duration::from_millis(20), Duration::from_micros(300));
        for us in [0, 20_000, 20_300, 20_301, 90_000] {
            let wait = Duration::from_micros(us);
            let reject = !decide(wait, Some(Slo::deadline(d)), hop).is_admit();
            assert_eq!(misses(wait, d, hop), reject, "wait {us} us");
        }
    }

    #[test]
    fn busy_error_displays_wait() {
        let e = MittError::Busy {
            predicted_wait: Duration::from_millis(5),
        };
        assert!(e.to_string().contains("EBUSY"));
    }
}
