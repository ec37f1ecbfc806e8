//! Prediction-accuracy auditing (§7.6, Figure 9).
//!
//! During an accuracy test EBUSY is *not* enforced: a rejected IO could not
//! be measured otherwise (it never reaches the device). Instead the
//! would-be decision is attached to the IO descriptor; when the IO actually
//! completes, the audit compares prediction against reality:
//!
//! - **false positive**: EBUSY would have been returned, but the IO met its
//!   deadline;
//! - **false negative**: no EBUSY, but the IO missed its deadline.
//!
//! The audit also records how far predictions were off ("diff") within the
//! misclassified population, which the paper reports as <3 ms for disk and
//! <1 ms for SSD.

use mitt_device::IoId;
use mitt_sim::{Duration, FastMap, OnlineStats};

/// One audited in-flight IO.
#[derive(Debug, Clone, Copy)]
struct AuditRec {
    deadline_plus_hop: Duration,
    predicted_wait: Duration,
    predicted_reject: bool,
}

/// Tallies prediction accuracy over a run.
#[derive(Debug, Default)]
pub struct AccuracyAudit {
    open: FastMap<IoId, AuditRec>,
    true_pos: u64,
    true_neg: u64,
    false_pos: u64,
    false_neg: u64,
    /// |actual wait - predicted wait| among misclassified IOs, in ms.
    diff_ms: OnlineStats,
    max_diff: Duration,
}

impl AccuracyAudit {
    /// Creates an empty audit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a prediction for a deadline-tagged IO about to be
    /// submitted (EBUSY suppressed, decision attached to the descriptor).
    pub fn on_predict(
        &mut self,
        id: IoId,
        deadline_plus_hop: Duration,
        predicted_wait: Duration,
        predicted_reject: bool,
    ) {
        self.open.insert(
            id,
            AuditRec {
                deadline_plus_hop,
                predicted_wait,
                predicted_reject,
            },
        );
    }

    /// Resolves a prediction with the IO's actual wait (time from
    /// submission to reaching the device head, the quantity the deadline
    /// check bounds).
    pub fn on_complete(&mut self, id: IoId, actual_wait: Duration) {
        let Some(rec) = self.open.remove(&id) else {
            return;
        };
        let actually_violates = actual_wait > rec.deadline_plus_hop;
        match (rec.predicted_reject, actually_violates) {
            (true, true) => self.true_pos += 1,
            (false, false) => self.true_neg += 1,
            (true, false) => self.false_pos += 1,
            (false, true) => self.false_neg += 1,
        }
        if rec.predicted_reject != actually_violates {
            let diff = if actual_wait > rec.predicted_wait {
                actual_wait - rec.predicted_wait
            } else {
                rec.predicted_wait - actual_wait
            };
            self.diff_ms.push(diff.as_millis_f64());
            self.max_diff = self.max_diff.max(diff);
        }
    }

    /// Total resolved predictions.
    pub fn total(&self) -> u64 {
        self.true_pos + self.true_neg + self.false_pos + self.false_neg
    }

    /// False positives as a percentage of all resolved predictions.
    pub fn false_positive_pct(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.false_pos as f64 / self.total() as f64
        }
    }

    /// False negatives as a percentage of all resolved predictions.
    pub fn false_negative_pct(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.false_neg as f64 / self.total() as f64
        }
    }

    /// Total inaccuracy percentage (FP + FN).
    pub fn inaccuracy_pct(&self) -> f64 {
        self.false_positive_pct() + self.false_negative_pct()
    }

    /// Mean |actual - predicted| among misclassified IOs, in ms.
    pub fn mean_diff_ms(&self) -> f64 {
        self.diff_ms.mean()
    }

    /// Largest prediction diff among misclassified IOs.
    pub fn max_diff(&self) -> Duration {
        self.max_diff
    }

    /// Raw (TP, TN, FP, FN) counts.
    pub fn confusion(&self) -> (u64, u64, u64, u64) {
        (self.true_pos, self.true_neg, self.false_pos, self.false_neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn classifies_all_four_quadrants() {
        let mut a = AccuracyAudit::new();
        // TP: predicted reject, actually violates.
        a.on_predict(IoId(0), ms(10), ms(30), true);
        a.on_complete(IoId(0), ms(25));
        // TN: predicted admit, actually fine.
        a.on_predict(IoId(1), ms(10), ms(2), false);
        a.on_complete(IoId(1), ms(3));
        // FP: predicted reject, actually fine.
        a.on_predict(IoId(2), ms(10), ms(30), true);
        a.on_complete(IoId(2), ms(8));
        // FN: predicted admit, actually violates.
        a.on_predict(IoId(3), ms(10), ms(2), false);
        a.on_complete(IoId(3), ms(40));
        assert_eq!(a.confusion(), (1, 1, 1, 1));
        assert!((a.false_positive_pct() - 25.0).abs() < 1e-9);
        assert!((a.false_negative_pct() - 25.0).abs() < 1e-9);
        assert!((a.inaccuracy_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn diff_tracked_only_for_misclassified() {
        let mut a = AccuracyAudit::new();
        a.on_predict(IoId(0), ms(10), ms(2), false);
        a.on_complete(IoId(0), ms(3)); // TN: no diff recorded
        assert_eq!(a.mean_diff_ms(), 0.0);
        a.on_predict(IoId(1), ms(10), ms(2), false);
        a.on_complete(IoId(1), ms(40)); // FN: diff = 38ms
        assert!((a.mean_diff_ms() - 38.0).abs() < 1e-9);
        assert_eq!(a.max_diff(), ms(38));
    }

    #[test]
    fn unknown_completion_is_ignored() {
        let mut a = AccuracyAudit::new();
        a.on_complete(IoId(9), ms(1));
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn boundary_is_not_a_violation() {
        let mut a = AccuracyAudit::new();
        a.on_predict(IoId(0), ms(10), ms(10), false);
        a.on_complete(IoId(0), ms(10)); // exactly deadline+hop: ok
        assert_eq!(a.confusion(), (0, 1, 0, 0));
    }
}
