//! Deterministic discrete-event simulation core for the MittOS reproduction.
//!
//! Every other crate in this workspace — device models, IO schedulers, the
//! MittOS predictors, and the replicated cluster — is a *passive* state
//! machine driven by virtual time. This crate supplies the shared substrate:
//!
//! - [`SimTime`] / [`Duration`]: nanosecond-resolution virtual time.
//! - [`EventQueue`]: the event calendar with a deterministic tie-break.
//! - [`FastMap`] / [`FastSet`] ([`hash`]): deterministic, fast-hashing maps
//!   for the per-IO state keyed by integers.
//! - [`SimRng`]: a seedable, forkable xoshiro256** PRNG, plus the
//!   distributions ([`dist`]) used by workload and noise generators.
//! - [`LatencyRecorder`] and friends ([`stats`]): exact percentile/CDF
//!   statistics matching how the paper reports results.
//! - [`Fnv1a`] ([`digest`]): order-sensitive result digests backing the
//!   double-run determinism harness.
//!
//! Determinism is a hard requirement: given a seed, every experiment binary
//! reproduces its figure bit-for-bit. Nothing in this crate reads the wall
//! clock or ambient entropy.

#![warn(missing_docs)]

pub mod digest;
pub mod dist;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use digest::Fnv1a;
pub use dist::Distribution;
pub use hash::{FastMap, FastSet};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{reduction_pct, LatencyRecorder, Pow2Hist};
pub use time::{Duration, SimTime};
