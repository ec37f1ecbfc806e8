//! mitt-obs: observability over the MittOS simulation.
//!
//! Three layers, all derived deterministically from the trace stream so
//! that every artifact is byte-identical across same-seed runs:
//!
//! 1. **SLO attribution** ([`attribution`]): every EBUSY, deadline miss,
//!    failover, and hedge in a trace is tagged by the emitting layer with
//!    the responsible resource (CFQ queue depth, noop `T_nextFree`, SSD
//!    chip/channel, cache contention, network hop, fault window, breaker
//!    state). This module folds those tags into per-resource summaries,
//!    verifies the pairing invariants, and renders them for run reports.
//!
//! 2. **Predictor calibration** ([`calibration`]): a streaming consumer of
//!    `Predict`/`Complete` events that maintains per-predictor false
//!    positive / false negative / inaccuracy counters (Figure 9
//!    definitions), and synthesizes Chrome/Perfetto counter tracks of the
//!    running inaccuracy and each sample's error. It and attribution pair
//!    predictions with outcomes through one join ([`join`]) and judge them
//!    by `mittos::decide`'s own rule, `mittos::misses` (§4.1).
//!
//! 3. **Bench baselines** ([`bench`] + [`json`]): a stable JSON schema for
//!    per-figure benchmark reports (`BENCH_<fig>.json`) — per-strategy
//!    p50/p95/p99 latency, EBUSY/retry/breaker counters, and a calibration
//!    summary — plus a comparator (`mitt-obs compare`) that fails on
//!    fixed regression thresholds.
//!
//! The audit-mode replay engine (§7.6) lives here too ([`replay`]) so the
//! calibration pipeline and the figure binaries exercise one production
//! implementation; `mitt-bench` re-exports it for compatibility.

pub mod attribution;
pub mod bench;
pub mod calibration;
pub mod join;
pub mod json;
pub mod replay;
pub mod timeline;

pub use attribution::{verify_attribution_invariants, AttributionSummary};
pub use bench::{
    BenchReport, CalibrationRow, StrategyRow, BENCH_SCHEMA, CALIBRATION_THRESHOLD_PP,
    LATENCY_THRESHOLD_PCT,
};
pub use calibration::{
    chrome_export_with_counters, CalibrationConfig, CalibrationStream, PredictorStats,
};
pub use json::JsonValue;
pub use replay::{
    classify, p95_wait, replay_audit, replay_audit_traced, replay_audit_with_ablation, AuditStats,
    TracedReplay, REPLAY_RING,
};
pub use timeline::chrome_export_with_timeline;
