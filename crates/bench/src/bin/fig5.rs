//! Figure 5: MittCFQ vs Base / application timeout / cloning / hedged
//! requests on a 20-node cluster with EC2-style disk noise.
//!
//! The deadline, timeout and hedge threshold are all set to the measured
//! p95 of the Base run (§7.2's "13ms" convention).
//!
//! `--bench-json BENCH_fig5.json` writes a machine-readable per-strategy
//! report at the run's scale; `mitt-obs compare baselines/BENCH_fig5.json
//! BENCH_fig5.json` gates it against the committed baseline, which is
//! recorded at the binary's default scale.

use mitt_bench::{
    bench_json, fig5_config, measure_p95, ops_from_env, print_cdf, print_percentiles,
    print_reductions, trace_flag,
};
use mitt_cluster::Strategy;
use mitt_obs::{BenchReport, StrategyRow};

fn main() {
    let ops = ops_from_env(800);
    let seed = 5;

    // Measure the p95 under Base; it becomes every strategy's threshold.
    let p95 = measure_p95(fig5_config(Strategy::Base, ops, seed));
    println!("# Fig 5 setup: 20-node MongoDB-like cluster, EC2 disk noise.");
    println!(
        "# measured Base p95 = {:.2}ms (deadline/timeout/hedge threshold)",
        p95.as_millis_f64()
    );

    let strategies = [
        Strategy::MittOs { deadline: p95 },
        Strategy::Hedged { after: p95 },
        Strategy::Clone2,
        Strategy::AppTimeout { timeout: p95 },
        Strategy::Base,
    ];
    let mut report = BenchReport::new("fig5", seed, ops as u64);
    let mut series = Vec::new();
    for s in strategies {
        let name = s.name();
        let mut res = trace_flag().run(fig5_config(s, ops, seed));
        mitt_bench::progress!(
            "ran {name}: ops={} ebusy={} retries={} errors={}",
            res.ops,
            res.ebusy,
            res.retries,
            res.errors
        );
        report
            .strategies
            .push(StrategyRow::from_result(name, &mut res));
        series.push((name, res.get_latencies));
    }
    print_percentiles("Fig 5a: YCSB get() latencies, 20-node cluster", &mut series);
    print_cdf("Fig 5a: latency CDF", &mut series, 41);

    let mut ours = series.remove(0).1;
    let mut others: Vec<_> = series.into_iter().filter(|(n, _)| *n != "Base").collect();
    print_reductions(
        "Fig 5b: % latency reduction of MittCFQ",
        "MittCFQ",
        &mut ours,
        &mut others,
    );
    println!("\n# Expected shape: MittOS < Hedged < Clone < AppTO < Base above ~p95;");
    println!("# Clone worse than Base below ~p93 (self-inflicted load);");
    println!("# reductions grow with percentile (paper: 23-47% at p95).");

    bench_json().finish_or_exit(&report);
}
