//! Prediction-error injection (§7.7).
//!
//! Figure 10 asks how much prediction accuracy matters: would a simpler,
//! less accurate device model still help? [`ErrorInjector`] wraps a
//! predictor's decisions and flips them at configured rates:
//!
//! - a **false negative** lets a doomed IO through (MittOS wanted to return
//!   EBUSY but does not) — at 100% this degenerates to the Base system;
//! - a **false positive** rejects a healthy IO, triggering an unnecessary
//!   failover — at 100% every IO bounces between replicas, *worse* than
//!   Base.

use mitt_sim::SimRng;

use crate::slo::Decision;

/// Flips admit/reject decisions at configured error rates.
#[derive(Debug)]
pub struct ErrorInjector {
    false_negative_rate: f64,
    false_positive_rate: f64,
    rng: SimRng,
    injected_fn: u64,
    injected_fp: u64,
}

impl ErrorInjector {
    /// Creates an injector. Rates are probabilities in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]`.
    pub fn new(false_negative_rate: f64, false_positive_rate: f64, rng: SimRng) -> Self {
        assert!(
            (0.0..=1.0).contains(&false_negative_rate)
                && (0.0..=1.0).contains(&false_positive_rate),
            "rates must be probabilities"
        );
        ErrorInjector {
            false_negative_rate,
            false_positive_rate,
            rng,
            injected_fn: 0,
            injected_fp: 0,
        }
    }

    /// An injector that never interferes.
    pub fn none(rng: SimRng) -> Self {
        ErrorInjector::new(0.0, 0.0, rng)
    }

    /// Applies error injection to a predictor decision. Only decisions on
    /// deadline-tagged IOs should be passed through here.
    pub fn apply(&mut self, decision: Decision) -> Decision {
        match decision {
            Decision::Reject { predicted_wait }
                if self.false_negative_rate > 0.0 && self.rng.chance(self.false_negative_rate) =>
            {
                self.injected_fn += 1;
                Decision::Admit { predicted_wait }
            }
            Decision::Admit { predicted_wait }
                if self.false_positive_rate > 0.0 && self.rng.chance(self.false_positive_rate) =>
            {
                self.injected_fp += 1;
                Decision::Reject { predicted_wait }
            }
            d => d,
        }
    }

    /// (injected false negatives, injected false positives).
    pub fn counters(&self) -> (u64, u64) {
        (self.injected_fn, self.injected_fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_sim::Duration;

    fn admit() -> Decision {
        Decision::Admit {
            predicted_wait: Duration::ZERO,
        }
    }

    fn reject() -> Decision {
        Decision::Reject {
            predicted_wait: Duration::from_millis(50),
        }
    }

    #[test]
    fn zero_rates_pass_through() {
        let mut inj = ErrorInjector::none(SimRng::new(1));
        for _ in 0..100 {
            assert!(inj.apply(admit()).is_admit());
            assert!(!inj.apply(reject()).is_admit());
        }
        assert_eq!(inj.counters(), (0, 0));
    }

    #[test]
    fn full_false_negative_never_rejects() {
        let mut inj = ErrorInjector::new(1.0, 0.0, SimRng::new(2));
        for _ in 0..100 {
            assert!(inj.apply(reject()).is_admit());
        }
        assert_eq!(inj.counters().0, 100);
    }

    #[test]
    fn full_false_positive_never_admits() {
        let mut inj = ErrorInjector::new(0.0, 1.0, SimRng::new(3));
        for _ in 0..100 {
            assert!(!inj.apply(admit()).is_admit());
        }
        assert_eq!(inj.counters().1, 100);
    }

    #[test]
    fn partial_rate_flips_roughly_proportionally() {
        let mut inj = ErrorInjector::new(0.2, 0.0, SimRng::new(4));
        let flipped = (0..10_000)
            .filter(|_| inj.apply(reject()).is_admit())
            .count();
        assert!((1_800..2_200).contains(&flipped), "flipped={flipped}");
    }

    #[test]
    fn wait_hint_survives_flip() {
        let mut inj = ErrorInjector::new(1.0, 0.0, SimRng::new(5));
        let d = inj.apply(reject());
        assert_eq!(d.predicted_wait(), Duration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn invalid_rate_panics() {
        ErrorInjector::new(1.5, 0.0, SimRng::new(6));
    }
}
