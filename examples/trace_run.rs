//! A traced MittOS run: structured events, metrics, and a Chrome trace.
//!
//! Runs the 3-replica rotating-contention microbenchmark with
//! `ExperimentConfig::trace` enabled, prints the latency summary and the
//! per-run trace report (rejections by subsystem, per-node EBUSY rates,
//! prediction-error histogram), prints the SLO-attribution summary, and
//! exports the event ring as Chrome `trace_event` JSON — with per-predictor
//! calibration counter tracks merged in — open it at `chrome://tracing` or
//! <https://ui.perfetto.dev>.
//!
//! The run is also self-profiled (`ExperimentConfig::prof`): the
//! `mitt-prof/v1` report goes to `<out>.prof.json` and folded stacks for
//! flamegraph tools (`flamegraph.pl`, inferno, speedscope) to
//! `<out>.folded`, beside the trace. Profiling leaves the trace unchanged.
//!
//! Run with: `cargo run --release --example trace_run [out.json]`
//! (default output path: `trace_run.json`); add `--features prof` to
//! install the counting allocator and get per-phase allocation telemetry.
//! `tests/obs.rs` runs [`run`] and checks the shape of all three files.

use std::path::Path;

use mitt_bench::print_trace_report;
use mitt_obs::attribution::AttributionSummary;
use mitt_obs::calibration::{chrome_export_with_counters, CalibrationConfig};
use mittos_repro::cluster::{
    run_experiment, ExperimentConfig, InitialReplica, NodeConfig, NoiseKind, NoiseStream, Strategy,
};
use mittos_repro::device::IoClass;
use mittos_repro::sim::Duration;
use mittos_repro::workload::rotating_schedule;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_run.json".to_string());
    run(Path::new(&out_path));
}

/// Runs the traced, profiled cluster and writes the Chrome trace to
/// `out`, with the profile and the folded stacks beside it.
pub(crate) fn run(out: &Path) {
    let mut cfg = ExperimentConfig::micro(
        NodeConfig::disk_cfq(),
        Strategy::MittOs {
            deadline: Duration::from_millis(15),
        },
    );
    cfg.seed = 21;
    cfg.clients = 3;
    cfg.ops_per_client = 200;
    cfg.initial_replica = InitialReplica::Random;
    cfg.think_time = Duration::from_millis(5);
    cfg.noise = vec![NoiseStream {
        kind: NoiseKind::DiskReads {
            len: 1 << 20,
            class: IoClass::BestEffort,
            priority: 4,
        },
        schedules: rotating_schedule(3, Duration::from_secs(1), Duration::from_secs(600), 4),
    }];
    cfg.trace = true;
    cfg.prof = true;

    let mut res = run_experiment(cfg);
    println!(
        "600 gets under rotating contention, MittOS(15ms): \
         avg {:.2}ms p95 {:.2}ms p99 {:.2}ms | {} EBUSYs, {} retries",
        res.get_latencies.mean().as_millis_f64(),
        res.get_latencies.percentile(95.0).as_millis_f64(),
        res.get_latencies.percentile(99.0).as_millis_f64(),
        res.ebusy,
        res.retries
    );

    print_trace_report("trace report", &res.trace);

    let attribution = AttributionSummary::from_sink(&res.trace, mittos::DEFAULT_HOP);
    println!("\n{}", attribution.render());

    let json = chrome_export_with_counters(&res.trace, CalibrationConfig::default());
    std::fs::write(out, &json).expect("write trace JSON");
    println!(
        "\nwrote {} events ({} bytes) to {}",
        res.trace.len(),
        json.len(),
        out.display()
    );
    println!("open chrome://tracing (or https://ui.perfetto.dev) and load the file.");

    let prof = res.prof.report();
    for (path, contents) in [
        (out.with_extension("prof.json"), prof.to_json()),
        (out.with_extension("folded"), prof.folded_stacks()),
    ] {
        std::fs::write(&path, contents).expect("write profile");
        println!("wrote {}", path.display());
    }
}
