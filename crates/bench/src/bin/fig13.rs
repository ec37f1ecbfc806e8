//! Figure 13: MittOS-powered LevelDB+Riak (§7.8.4).
//!
//! The two-level integration of §5: every node runs a LevelDB-like LSM
//! engine (memtable, leveled SSTables, blooms, table cache); a get()
//! executes the engine's lookup plan through `read(..., deadline)`, and an
//! EBUSY on *any* block read propagates to the Riak-like coordinator,
//! which fails the whole get over to another replica. Panel (b) shows one
//! node's outstanding-IO timeline with the instants it returned EBUSY.
//!
//! `--bench-json BENCH_fig13.json` writes a machine-readable per-strategy
//! report at the run's scale; `mitt-obs compare baselines/BENCH_fig13.json
//! BENCH_fig13.json` gates it against the committed baseline, which is
//! recorded at the binary's default scale.

use mitt_bench::{bench_json, ec2_disk_noise, ops_from_env, print_cdf, trace_flag};
use mitt_cluster::{ExperimentConfig, NodeConfig, Strategy};
use mitt_obs::{BenchReport, StrategyRow};
use mitt_sim::{Duration, SimTime};

fn cfg_for(strategy: Strategy, ops: usize, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::cluster20(NodeConfig::disk_cfq(), strategy);
    cfg.seed = seed;
    cfg.ops_per_client = ops;
    cfg.record_count = 1_000_000;
    // A light write mix exercises the put path only: at 800 ops per client
    // each node sees about 40 puts (~160 KB), far below the 4 MB memtable
    // budget, so no engine flushes or compacts during the run.
    cfg.write_fraction = 0.05;
    cfg.engine = Some(mitt_lsm::LsmConfig::default());
    let noise = ec2_disk_noise(20, Duration::from_secs(3600), seed ^ 0xF13);
    // Watch the node whose contention starts earliest, so the panel (b)
    // window is guaranteed to contain noise episodes.
    let watch = noise
        .schedules
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .min_by_key(|(_, b)| b[0].start)
        .map(|(n, _)| n)
        .unwrap_or(0);
    cfg.noise = vec![noise];
    cfg.watch_node = Some(watch);
    cfg.think_time = Duration::from_millis(10);
    cfg
}

fn main() {
    let ops = ops_from_env(800);
    let seed = 13;
    let mut base = trace_flag().run(cfg_for(Strategy::Base, ops, seed));
    let p95 = base.get_latencies.percentile(95.0);
    println!("# Fig 13 setup: Riak-like coordinator over LevelDB-like engines (20 nodes);");
    println!("# measured Base p95 = {:.2}ms", p95.as_millis_f64());

    let mut mitt = trace_flag().run(cfg_for(Strategy::MittOs { deadline: p95 }, ops, seed));
    let mut report = BenchReport::new("fig13", seed, ops as u64);
    report
        .strategies
        .push(StrategyRow::from_result("mittcfq", &mut mitt));
    report
        .strategies
        .push(StrategyRow::from_result("base", &mut base));
    let watch = mitt.watch.as_ref().expect("watch node configured");
    mitt_bench::progress!(
        "MittCFQ: ebusy={} retries={} node0_ebusy={}",
        mitt.ebusy,
        mitt.retries,
        watch.ebusy_times.len()
    );
    let mut series = vec![
        ("MittCFQ", mitt.get_latencies.clone()),
        ("Base", base.get_latencies.clone()),
    ];
    print_cdf("Fig 13a: Riak get() latency CDF", &mut series, 41);

    // Panel (b): outstanding IOs on node 0 over a 15-second window, with
    // EBUSY instants marked.
    println!("\n## Fig 13b: watched-node timeline (15s window)");
    println!("{:>9} {:>14} {:>8}", "t(s)", "#outstanding", "EBUSYs");
    // Center the window on the node's first EBUSY so the panel always
    // shows an active noise episode.
    let anchor = watch
        .ebusy_times
        .first()
        .copied()
        .unwrap_or(SimTime::ZERO + Duration::from_secs(5));
    let window_start = anchor.saturating_since(SimTime::ZERO + Duration::from_secs(2));
    let window_start = SimTime::ZERO + window_start;
    let window_end = window_start + Duration::from_secs(15);
    let bucket = Duration::from_millis(500);
    let mut t = window_start;
    while t < window_end {
        let occ = watch
            .occupancy
            .iter()
            .filter(|(at, _)| *at >= t && *at < t + bucket)
            .map(|&(_, o)| o)
            .max()
            .unwrap_or(0);
        let ebusy = watch
            .ebusy_times
            .iter()
            .filter(|&&at| at >= t && at < t + bucket)
            .count();
        println!(
            "{:>9.1} {:>14} {:>8}",
            t.as_secs_f64(),
            occ,
            if ebusy > 0 {
                format!("* {ebusy}")
            } else {
                String::new()
            }
        );
        t += bucket;
    }
    println!("\n# Expected shape: EBUSY instants coincide with outstanding-IO spikes; when");
    println!("# the queue is shallow enough to meet the deadline, no EBUSY is returned.");

    bench_json().finish_or_exit(&report);
}
