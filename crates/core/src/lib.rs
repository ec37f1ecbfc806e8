//! MittOS core: the fast rejecting SLO-aware OS interface (SOSP '17).
//!
//! This crate is the paper's primary contribution. The principle: *the OS
//! should quickly reject IOs whose SLOs it predicts it cannot meet*, so a
//! replicated application can fail over instantly instead of waiting to
//! speculate. The interface change is one argument and one error code:
//! `read(..., deadline)` and `EBUSY`.
//!
//! The hard part is prediction, and it differs per resource:
//!
//! | Module       | Resource             | Mechanism |
//! |--------------|----------------------|-----------|
//! | [`mittnoop`]  | noop disk scheduler | O(1) `T_nextFree` + profiled seek model + diff calibration |
//! | [`mittcfq`]   | CFQ disk scheduler  | O(P) per-process totals + per-IO tolerable times for late bumps |
//! | [`mittssd`]   | host-managed SSD    | per-chip next-free mirror + per-channel outstanding counts |
//! | [`mittcache`] | OS page cache       | `addrcheck()` page-table walk + deadline propagation |
//!
//! The three IO predictors share one admission path, [`admit()`]: each
//! supplies only its wait estimate, its accounting and its blame
//! ([`Predictor`]), and the decision, distortion, telemetry and policy hook
//! are written once.
//!
//! Supporting modules: [`profile`] fits the device models by measurement
//! (the paper's 11-hour offline profiling), [`inject`] deliberately
//! corrupts decisions to test sensitivity (Figure 10), and [`tuning`]
//! auto-adjusts deadlines from EBUSY-rate feedback (§8.1 extension).
//!
//! Predictors are *mirrors*, not oracles: they never inspect device
//! internals at decision time. They maintain their own free-time estimates
//! from the stream of submissions and completion diffs, exactly as the
//! paper's kernel code does — which is why they can be measurably wrong.
//!
//! # Examples
//!
//! ```
//! use mitt_device::{BlockIo, DiskSpec, IoIdGen, ProcessId};
//! use mitt_sim::{Duration, SimTime};
//! use mittos::{DiskProfile, MittNoop, DEFAULT_HOP};
//!
//! let profile = DiskProfile::from_spec(&DiskSpec::default());
//! let mut mitt = MittNoop::new(profile, DEFAULT_HOP);
//! let mut ids = IoIdGen::new();
//! let io = BlockIo::read(ids.next_id(), 0, 4096, ProcessId(1), SimTime::ZERO)
//!     .with_deadline(Duration::from_millis(20));
//! let decision = mitt.admit(&io, SimTime::ZERO);
//! assert!(decision.is_admit()); // idle disk: no wait predicted
//! ```

#![deny(missing_docs)]

pub mod admit;
pub mod inject;
pub mod mittcache;
pub mod mittcfq;
pub mod mittnoop;
pub mod mittssd;
pub mod naive;
pub mod profile;
pub mod slo;
pub mod tuning;

pub use admit::{admit, Admission, DiskPredictor, Predictor};
pub use inject::ErrorInjector;
pub use mittcache::{CacheVerdict, MittCache, ADDRCHECK_COST};
pub use mittcfq::{CfqAdmission, MittCfq};
pub use mittnoop::MittNoop;
pub use mittssd::MittSsd;
pub use naive::{NaiveDisk, NaiveSsd};
pub use profile::{profile_disk, profile_ssd, DiskProfile, ProfileError, SsdProfile};
pub use slo::{decide, misses, Decision, MittError, Slo, DEFAULT_HOP};
pub use tuning::DeadlineTuner;
