//! Replicated key-value cluster simulation over MittOS nodes.
//!
//! This crate assembles the full evaluation platform of §7: [`node::Node`]
//! models one machine (storage stack + MittOS predictors + CPU),
//! [`sim::ClusterSim`] runs N of them under closed-loop YCSB clients with
//! pluggable tail-tolerance strategies ([`strategy::Strategy`]) and per-node
//! noisy-neighbor schedules ([`sim::NoiseStream`]).
//!
//! # Examples
//!
//! ```
//! use mitt_cluster::{run_experiment, ExperimentConfig, NodeConfig, Strategy};
//! use mitt_sim::Duration;
//!
//! let mut cfg = ExperimentConfig::micro(
//!     NodeConfig::disk_cfq(),
//!     Strategy::MittOs { deadline: Duration::from_millis(20) },
//! );
//! cfg.ops_per_client = 20;
//! let result = run_experiment(cfg);
//! assert_eq!(result.ops, 20);
//! assert_eq!(result.errors, 0);
//! ```

pub mod cpu;
pub mod mmapdb;
pub mod node;
pub mod nosql;
mod ops;
pub mod sim;
pub mod strategy;
pub mod topology;

pub use cpu::{CpuConfig, CpuModel};
pub use mmapdb::{BtreeConfig, BtreePlanner, PageTouch};
pub use node::{
    AuditPair, Medium, Node, NodeConfig, ReadOutcome, ReadReq, SchedKind, Submission, WriteOutcome,
};
pub use nosql::{run_survey, surveyed_systems, NosqlSystem, SurveyRow};
pub use sim::{
    run_experiment, ClusterSim, ExperimentConfig, ExperimentResult, InitialReplica, NoiseKind,
    NoiseStream, WatchLog, CRASH_REPLY_DELAY, RETRANSMIT_DELAY,
};
pub use strategy::Strategy;
pub use topology::Topology;
