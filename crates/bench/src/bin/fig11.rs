//! Figure 11: workload mix — MittOS+KV colocated with filebench-like
//! personalities and a Hadoop-like job stream (§7.8.1).
//!
//! `--bench-json BENCH_fig11.json` writes a machine-readable per-strategy
//! report at the run's scale; `mitt-obs compare baselines/BENCH_fig11.json
//! BENCH_fig11.json` gates it against the committed baseline, which is
//! recorded at the binary's default scale.

use mitt_bench::{bench_json, ops_from_env, print_cdf, reduction_at, trace_flag};
use mitt_cluster::{ExperimentConfig, NodeConfig, Strategy};
use mitt_obs::{BenchReport, StrategyRow};
use mitt_sim::{Duration, SimRng};
use mitt_workload::macrobench::{fileserver, hadoop_jobs, varmail, webserver, HadoopConfig};
use mitt_workload::TraceIo;

fn background(seed: u64, horizon: Duration) -> Vec<(usize, Vec<TraceIo>)> {
    let mut rng = SimRng::new(seed);
    let mut bg = Vec::new();
    // filebench personalities on nodes 0-2, one node each — different
    // levels of noise, as in the paper — leaving most replica sets with
    // at least one quiet node to fail over to.
    for (node, spec) in [fileserver(), varmail(), webserver()].iter().enumerate() {
        let mut r = rng.fork();
        bg.push((node, spec.generate(horizon, &mut r)));
    }
    // Hadoop-like jobs on nodes 3-5.
    for node in 3..6 {
        let mut r = rng.fork();
        bg.push((node, hadoop_jobs(&HadoopConfig::default(), 8, &mut r)));
    }
    bg
}

fn cfg_for(strategy: Strategy, ops: usize, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::cluster20(NodeConfig::disk_cfq(), strategy);
    cfg.seed = seed;
    cfg.ops_per_client = ops;
    cfg.think_time = Duration::from_millis(10);
    cfg.background = background(seed, Duration::from_secs(600));
    cfg
}

fn main() {
    let ops = ops_from_env(300);
    let seed = 11;
    // The user's deadline is the p95 of her *expected* workload (§7.2) —
    // measured on the cluster without the colocated tenants.
    let p95 = {
        let mut quiet_cfg = cfg_for(Strategy::Base, ops, seed);
        quiet_cfg.background.clear();
        let mut quiet = trace_flag().run(quiet_cfg).get_latencies;
        quiet.percentile(95.0)
    };
    let mut base = trace_flag().run(cfg_for(Strategy::Base, ops, seed));
    println!("# Fig 11 setup: filebench fileserver/varmail/webserver + Hadoop jobs colocated;");
    println!(
        "# expected-workload p95 = {:.2}ms (deadline & hedge threshold)",
        p95.as_millis_f64()
    );

    let mut mitt = trace_flag().run(cfg_for(Strategy::MittOs { deadline: p95 }, ops, seed));
    let mut hedged = trace_flag().run(cfg_for(Strategy::Hedged { after: p95 }, ops, seed));
    // The §7.8.1 fix: return the predicted wait with EBUSY so the final
    // retry goes to the least-busy replica.
    let mut mitt_wait =
        trace_flag().run(cfg_for(Strategy::MittOsWait { deadline: p95 }, ops, seed));
    mitt_bench::progress!(
        "MittCFQ: ebusy={} retries={} errors={}",
        mitt.ebusy,
        mitt.retries,
        mitt.errors
    );
    let mut report = BenchReport::new("fig11", seed, ops as u64);
    report
        .strategies
        .push(StrategyRow::from_result("mittcfq", &mut mitt));
    report
        .strategies
        .push(StrategyRow::from_result("mitt+wait", &mut mitt_wait));
    report
        .strategies
        .push(StrategyRow::from_result("hedged", &mut hedged));
    report
        .strategies
        .push(StrategyRow::from_result("base", &mut base));
    let mut mitt = mitt.get_latencies;
    let mut hedged = hedged.get_latencies;

    let mut series = vec![
        ("MittCFQ", mitt.clone()),
        ("Mitt+Wait", mitt_wait.get_latencies),
        ("Hedged", hedged.clone()),
        ("Base", base.get_latencies),
    ];
    print_cdf(
        "Fig 11a: latency CDF under the workload mix",
        &mut series,
        41,
    );

    println!("\n## Fig 11b: % latency reduction of MittCFQ vs Hedged by percentile");
    println!("{:>10} {:>12}", "percentile", "reduction %");
    for p in [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 95.0, 99.0, 99.9] {
        println!("{p:>10} {:>12.1}", reduction_at(&mut hedged, &mut mitt, p));
    }
    println!("\n# Expected shape: positive reductions overall (paper: up to 41%), possibly");
    println!("# negative above ~p99 where forced 3rd retries hit busier replicas — the");
    println!("# limitation the wait-time-hint extension (MittOS+Wait) addresses.");

    bench_json().finish_or_exit(&report);
}
