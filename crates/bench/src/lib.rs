//! Benchmark harness for the MittOS reproduction.
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! experiment index):
//!
//! ```text
//! cargo run --release -p mitt-bench --bin table1      # §2 NoSQL survey
//! cargo run --release -p mitt-bench --bin fig3        # EC2 dynamism
//! cargo run --release -p mitt-bench --bin fig4        # microbenchmarks
//! cargo run --release -p mitt-bench --bin fig5        # MittCFQ vs all
//! cargo run --release -p mitt-bench --bin fig6        # tail at scale
//! cargo run --release -p mitt-bench --bin fig7        # MittCache
//! cargo run --release -p mitt-bench --bin fig8        # MittSSD
//! cargo run --release -p mitt-bench --bin fig9        # accuracy
//! cargo run --release -p mitt-bench --bin fig10       # error sensitivity
//! cargo run --release -p mitt-bench --bin fig11       # workload mix
//! cargo run --release -p mitt-bench --bin fig12       # snitching/C3
//! cargo run --release -p mitt-bench --bin fig13       # Riak/LevelDB
//! cargo run --release -p mitt-bench --bin all_in_one  # §7.8.5
//! cargo run --release -p mitt-bench --bin writes      # §7.8.6
//! ```
//!
//! `MITT_OPS=<n>` scales user requests per client down for smoke runs.
//! The §4 overhead claims (O(1)/O(P) prediction cost, addrcheck cost,
//! scheduler and device ops) are measured by the layer drivers of the
//! `perf` benchmark (`crates/bench/src/bin/perf`, run with `--trace 1`).

pub mod flags;
pub mod progress;
pub mod report;
pub mod setups;

pub use flags::{bench_json, flag_value, trace_flag, BenchJsonFlag, TraceFlag};
pub use report::{
    print_cdf, print_percentiles, print_reductions, print_trace_report, reduction_at,
};
pub use setups::{
    ec2_cache_noise, ec2_disk_noise, ec2_ssd_noise, fig5_config, measure_p95, ops_from_env,
    steady_noise_on,
};
