//! The prediction→outcome join (§4.1, Figure 9): each deadline-carrying
//! `Predict` pairs, by `(node, io)`, with the event that ends its IO — a
//! `Reject` (EBUSY: the IO never ran) or a node-level `Complete` carrying
//! the actual wait. [`crate::calibration`] and [`crate::attribution`] both
//! drive it and judge what it resolves by `mittos::misses`. Only
//! `mittos::admit` emits `Predict`, for MittNoop, MittCFQ and MittSSD.

use std::collections::BTreeMap;

use mitt_sim::Duration;
use mitt_trace::{EventKind, Subsystem, TraceEvent};

/// One deadline-carrying prediction awaiting its IO's end.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// The predictor that made it.
    pub sub: Subsystem,
    /// The wait it predicted.
    pub predicted: Duration,
    /// The deadline recorded on the `Predict` event.
    pub deadline: Duration,
}

/// What one event did to the join.
#[derive(Debug, Clone, Copy)]
pub enum Joined {
    /// The event closed no prediction.
    None,
    /// A `Reject` closed the prediction: the IO never ran.
    Rejected(Prediction),
    /// A node-level `Complete` closed the prediction with the IO's actual
    /// wait.
    Completed(Prediction, Duration),
}

/// Open predictions keyed by `(node, io)`, closed by `Reject` or `Complete`.
#[derive(Debug, Clone, Default)]
pub struct PredictionJoin {
    open: BTreeMap<(u32, u64), Prediction>,
}

impl PredictionJoin {
    /// Feeds one event; reports the prediction it closed, if any.
    pub fn on_event(&mut self, ev: &TraceEvent) -> Joined {
        match ev.kind {
            EventKind::Predict {
                io,
                predicted_wait,
                deadline: Some(deadline),
                ..
            } => {
                let p = Prediction {
                    sub: ev.subsystem,
                    predicted: predicted_wait,
                    deadline,
                };
                self.open.insert((ev.node, io), p);
                Joined::None
            }
            EventKind::Reject { io, .. } => self
                .open
                .remove(&(ev.node, io))
                .map_or(Joined::None, Joined::Rejected),
            EventKind::Complete { io, wait } if ev.subsystem == Subsystem::Node => self
                .open
                .remove(&(ev.node, io))
                .map_or(Joined::None, |p| Joined::Completed(p, wait)),
            _ => Joined::None,
        }
    }

    /// Predictions still open (in flight at the end of the trace).
    pub fn open(&self) -> usize {
        self.open.len()
    }
}
