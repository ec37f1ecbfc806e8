//! The "No TT in NoSQL" survey (§2, Table 1).
//!
//! The paper analyzed six popular NoSQL systems on a 4-node setup (1
//! client, 3 replicas) under one second of severe IO contention rotating
//! across the replicas, and found: none fail over by default (timeouts are
//! tens of seconds), three of six surface *read errors* instead of failing
//! over even when the timeout is lowered to 100 ms, only two support
//! cloning, and none support hedged/tied requests.
//!
//! We encode each system's published configuration as a behaviour profile
//! and *measure* what that behaviour does under the paper's rotating
//! contention — so the table's claims are reproduced from simulation, not
//! just restated.

use mitt_device::IoClass;
use mitt_sim::Duration;
use mitt_workload::rotating_schedule;

use crate::node::NodeConfig;
use crate::sim::{run_experiment, ExperimentConfig, InitialReplica, NoiseKind, NoiseStream};
use crate::strategy::Strategy;

/// A surveyed NoSQL system's tail-tolerance configuration.
#[derive(Debug, Clone)]
pub struct NosqlSystem {
    /// System name.
    pub name: &'static str,
    /// Default request timeout (the "TO Val." column).
    pub default_timeout: Duration,
    /// Whether a timeout triggers failover to another replica (the
    /// "Failover" column; three systems surface an error instead).
    pub failover_on_timeout: bool,
    /// Whether the system supports request cloning (two of six do).
    pub supports_clone: bool,
    /// Whether the system supports hedged/tied requests (none do).
    pub supports_hedged: bool,
    /// Whether the system monitors replica latency (Cassandra snitching).
    pub snitch: bool,
}

/// The six systems of Table 1 with their default timeouts and feature
/// flags as reported in §2.
pub fn surveyed_systems() -> Vec<NosqlSystem> {
    vec![
        NosqlSystem {
            name: "Cassandra",
            default_timeout: Duration::from_secs(12),
            failover_on_timeout: true,
            supports_clone: true,
            supports_hedged: false,
            snitch: true,
        },
        NosqlSystem {
            name: "Couchbase",
            default_timeout: Duration::from_secs(75),
            failover_on_timeout: false,
            supports_clone: false,
            supports_hedged: false,
            snitch: false,
        },
        NosqlSystem {
            name: "HBase",
            default_timeout: Duration::from_secs(60),
            failover_on_timeout: true,
            supports_clone: true,
            supports_hedged: false,
            snitch: false,
        },
        NosqlSystem {
            name: "MongoDB",
            default_timeout: Duration::from_secs(30),
            failover_on_timeout: false,
            supports_clone: false,
            supports_hedged: false,
            snitch: false,
        },
        NosqlSystem {
            name: "Riak",
            default_timeout: Duration::from_secs(10),
            failover_on_timeout: false,
            supports_clone: false,
            supports_hedged: false,
            snitch: false,
        },
        NosqlSystem {
            name: "Voldemort",
            default_timeout: Duration::from_secs(5),
            failover_on_timeout: true,
            supports_clone: false,
            supports_hedged: false,
            snitch: false,
        },
    ]
}

/// Measured survey row.
#[derive(Debug)]
pub struct SurveyRow {
    /// The system.
    pub system: NosqlSystem,
    /// p99 get() latency with default configuration under rotating 1 s
    /// contention.
    pub p99_default: Duration,
    /// Retries observed with the default configuration (0 = "no TT").
    pub retries_default: u64,
    /// p99 with the timeout lowered to 100 ms.
    pub p99_100ms: Duration,
    /// Read errors surfaced to users with the 100 ms timeout.
    pub errors_100ms: u64,
    /// Retries with the 100 ms timeout.
    pub retries_100ms: u64,
}

impl SurveyRow {
    /// The "Def. TT" column: tail-tolerant by default?
    pub fn default_tail_tolerant(&self) -> bool {
        // Tail-tolerant means the 1s contention does not reach the user:
        // p99 should stay well below the noise length.
        self.retries_default > 0 && self.p99_default < Duration::from_millis(100)
    }

    /// The "Failover" column under a 100 ms timeout: retried without
    /// surfacing errors?
    pub fn failover_works(&self) -> bool {
        self.errors_100ms == 0 && self.retries_100ms > 0
    }
}

fn survey_config(system: &NosqlSystem, timeout: Duration, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(
        NodeConfig::disk_cfq(),
        Strategy::NosqlProfile {
            timeout,
            failover: system.failover_on_timeout,
        },
    );
    cfg.seed = seed;
    cfg.ops_per_client = 250;
    cfg.initial_replica = InitialReplica::Random;
    // The paper's setup: severe contention rotating across the three
    // replicas every second.
    cfg.noise = vec![NoiseStream {
        kind: NoiseKind::DiskReads {
            len: 1 << 20,
            class: IoClass::BestEffort,
            priority: 4,
        },
        schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(600), 6),
    }];
    cfg
}

/// Runs the survey: every system under default and 100 ms timeouts.
pub fn run_survey(seed: u64) -> Vec<SurveyRow> {
    surveyed_systems()
        .into_iter()
        .map(|system| {
            let mut default_run =
                run_experiment(survey_config(&system, system.default_timeout, seed));
            let mut fast_run =
                run_experiment(survey_config(&system, Duration::from_millis(100), seed));
            SurveyRow {
                p99_default: default_run.get_latencies.percentile(99.0),
                retries_default: default_run.retries,
                p99_100ms: fast_run.get_latencies.percentile(99.0),
                errors_100ms: fast_run.errors,
                retries_100ms: fast_run.retries,
                system,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_systems_match_table_claims() {
        let systems = surveyed_systems();
        assert_eq!(systems.len(), 6);
        // "only two employ cloning and none of them employ hedged/tied".
        assert_eq!(systems.iter().filter(|s| s.supports_clone).count(), 2);
        assert!(systems.iter().all(|s| !s.supports_hedged));
        // "three of them do not failover on a timeout".
        assert_eq!(systems.iter().filter(|s| !s.failover_on_timeout).count(), 3);
        // "the timeout values are very coarse-grained (tens of seconds)".
        assert!(systems
            .iter()
            .all(|s| s.default_timeout >= Duration::from_secs(5)));
    }

    #[test]
    fn default_configs_are_not_tail_tolerant() {
        // One representative run (MongoDB): with a 30s timeout, the 1s
        // contention is fully absorbed by the user.
        let system = surveyed_systems().remove(3);
        assert_eq!(system.name, "MongoDB");
        let mut res = run_experiment(survey_config(&system, system.default_timeout, 3));
        assert_eq!(res.retries, 0, "30s timeout never fires on 1s bursts");
        assert!(
            res.get_latencies.percentile(99.0) > Duration::from_millis(50),
            "p99 {} should absorb the contention",
            res.get_latencies.percentile(99.0)
        );
    }

    #[test]
    fn hundred_ms_timeout_errors_without_failover() {
        let system = surveyed_systems().remove(3); // MongoDB: no failover
        let res = run_experiment(survey_config(&system, Duration::from_millis(100), 3));
        assert!(res.errors > 0, "no-failover system must surface errors");
    }

    #[test]
    fn hundred_ms_timeout_with_failover_avoids_errors() {
        let system = surveyed_systems().remove(0); // Cassandra: fails over
        let res = run_experiment(survey_config(&system, Duration::from_millis(100), 3));
        assert_eq!(res.errors, 0);
        assert!(res.retries > 0, "timeouts must fire under contention");
    }
}
