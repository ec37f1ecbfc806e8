//! Figure 3: millisecond-level latency dynamism on 20 multi-tenant nodes.
//!
//! (a-c) per-node latency CDFs for disk, SSD and OS-cache probes under the
//! EC2-style noise model; (d-f) noise inter-arrival CDFs; (g) probability
//! that N of the 20 nodes are busy simultaneously.

use mitt_bench::{
    ec2_cache_noise, ec2_disk_noise, ec2_ssd_noise, ops_from_env, print_cdf, trace_flag,
};
use mitt_cluster::{ExperimentConfig, InitialReplica, Medium, NodeConfig, NoiseStream, Strategy};
use mitt_sim::{Duration, LatencyRecorder};
use mitt_workload::occupancy_histogram;

/// Runs 20 independent single-node probe experiments; returns per-node
/// latency recorders.
fn probe_nodes(
    node_cfg: NodeConfig,
    medium: Medium,
    via_cache: bool,
    noise: &NoiseStream,
    think: Duration,
    ops: usize,
    seed: u64,
) -> Vec<LatencyRecorder> {
    (0..noise.schedules.len())
        .map(|node| {
            let mut cfg = ExperimentConfig::micro(node_cfg.clone(), Strategy::Base);
            cfg.seed = seed + node as u64;
            cfg.nodes = 1;
            cfg.replication = 1;
            cfg.clients = 1;
            cfg.ops_per_client = ops;
            cfg.medium = medium;
            cfg.via_cache = via_cache;
            cfg.preload_cache = via_cache;
            cfg.record_count = 20_000;
            cfg.think_time = think;
            cfg.initial_replica = InitialReplica::Fixed(0);
            // Local probes: negligible network.
            cfg.hop = Duration::from_nanos(500);
            cfg.noise = vec![NoiseStream {
                kind: noise.kind,
                schedules: vec![noise.schedules[node].clone()],
            }];
            trace_flag().run(cfg).get_latencies
        })
        .collect()
}

fn tail_summary(title: &str, recs: &mut [LatencyRecorder], busy_threshold: Duration) {
    println!("\n## {title} (20 nodes)");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "node", "p50(ms)", "p95", "p97", "p99", "max"
    );
    for (i, r) in recs.iter_mut().enumerate() {
        println!(
            "{:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            i,
            r.percentile(50.0).as_millis_f64(),
            r.percentile(95.0).as_millis_f64(),
            r.percentile(97.0).as_millis_f64(),
            r.percentile(99.0).as_millis_f64(),
            r.max().as_millis_f64(),
        );
    }
    let mut pooled = LatencyRecorder::new();
    for r in recs.iter() {
        pooled.merge(r);
    }
    let frac = pooled.fraction_above(busy_threshold);
    println!(
        "pooled: {:.2}% of probes above {:.2}ms (paper: tails appear ~p97-p99)",
        frac * 100.0,
        busy_threshold.as_millis_f64()
    );
    let mut series = vec![("pooled", pooled)];
    print_cdf(&format!("{title} pooled CDF"), &mut series, 21);
}

fn interarrival_cdf(title: &str, noise: &NoiseStream) {
    let mut gaps = LatencyRecorder::new();
    for sched in &noise.schedules {
        for w in sched.windows(2) {
            gaps.record(w[1].start.saturating_since(w[0].end()));
        }
    }
    let mut series = vec![("inter-arrival", gaps)];
    println!();
    print_cdf(
        &format!("{title} noise inter-arrival CDF (x in ms)"),
        &mut series,
        11,
    );
}

fn main() {
    let horizon = Duration::from_secs(600);
    let ops = ops_from_env(4000);

    // --- Disk (Figures 3a, 3d) ---
    let disk_noise = ec2_disk_noise(20, horizon, 11);
    let mut disk = probe_nodes(
        NodeConfig::disk_cfq(),
        Medium::Disk,
        false,
        &disk_noise,
        Duration::from_millis(100),
        ops.min(5_900),
        100,
    );
    tail_summary(
        "Fig 3a: disk probe latencies",
        &mut disk,
        Duration::from_millis(20),
    );
    interarrival_cdf("Fig 3d: disk", &disk_noise);

    // --- SSD (Figures 3b, 3e) ---
    let ssd_noise = ec2_ssd_noise(20, horizon, 12);
    let mut ssd = probe_nodes(
        NodeConfig::ssd(),
        Medium::Ssd,
        false,
        &ssd_noise,
        Duration::from_millis(20),
        ops,
        200,
    );
    tail_summary(
        "Fig 3b: SSD probe latencies",
        &mut ssd,
        Duration::from_millis(1),
    );
    interarrival_cdf("Fig 3e: SSD", &ssd_noise);

    // --- OS cache (Figures 3c, 3f) ---
    let cache_noise = ec2_cache_noise(20, horizon, 13);
    let mut cache = probe_nodes(
        NodeConfig::cached_disk(),
        Medium::Disk,
        true,
        &cache_noise,
        Duration::from_millis(20),
        ops,
        300,
    );
    tail_summary(
        "Fig 3c: OS cache probe latencies",
        &mut cache,
        Duration::from_micros(100),
    );
    interarrival_cdf("Fig 3f: cache", &cache_noise);

    // --- Simultaneously busy nodes (Figure 3g) ---
    println!("\n## Fig 3g: P(N of 20 nodes busy simultaneously)");
    println!("{:>10} {:>10} {:>10}", "N busy", "disk", "ssd");
    let occ_disk = occupancy_histogram(&disk_noise.schedules, horizon, Duration::from_millis(100));
    let occ_ssd = occupancy_histogram(&ssd_noise.schedules, horizon, Duration::from_millis(20));
    for n in 0..6 {
        println!(
            "{:>10} {:>10.3} {:>10.3}",
            n,
            occ_disk.get(n).copied().unwrap_or(0.0),
            occ_ssd.get(n).copied().unwrap_or(0.0)
        );
    }
    println!(
        "# Expected shape: P diminishes rapidly with N; almost always a quiet replica exists."
    );
}
