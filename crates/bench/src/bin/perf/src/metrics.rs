//! The metric catalogue: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root declares the same metrics; the
//! smoke test fails if the two drift apart.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Better {
    Higher,
    Lower,
}

impl Better {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) unit: &'static str,
    pub(crate) better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub(crate) bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// End-to-end metrics, reported per workload by the untraced run.
pub(crate) const END_TO_END: [Metric; 7] = [
    e2e("gets_per_s", "1/s", Better::Higher, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_heap_mb", "MiB", Better::Lower, 0.10),
    e2e("p50_ms", "ms", Better::Lower, 0.04),
    e2e("p99_ms", "ms", Better::Lower, 0.12),
    e2e("tail_cut_pct", "%", Better::Higher, 0.20),
    e2e("slo_miss_pct", "%", Better::Lower, 0.15),
];

/// Per-layer metrics, reported per workload by the traced run (`--trace
/// 1`). Layer names are the crate directory names; `alloc` is mitt-prof's
/// counting allocator. Times are normalised to the reference host.
pub(crate) const PER_LAYER: [Metric; 38] = [
    // From the traced rerun of every arm (mitt-prof spans and counters).
    layer("cluster.events_per_get", "count"),
    layer("cluster.ios_per_get", "count"),
    layer("cluster.retries_per_get", "count"),
    layer("core.ebusy_per_get", "count"),
    layer("cluster.dispatch_self_ns", "ns"),
    layer("core.predict_ns", "ns"),
    layer("sched.self_ns", "ns"),
    layer("device.service_ns", "ns"),
    layer("trace.emit_ns", "ns"),
    layer("alloc.bytes_per_get", "B"),
    layer("alloc.allocs_per_get", "count"),
    layer("alloc.dispatch_bytes_per_get", "B"),
    layer("alloc.sched_bytes_per_get", "B"),
    layer("simcore.calendar_depth_mean", "count"),
    layer("prof.overhead_pct", "%"),
    // From the layer drivers (the harness calling each layer directly).
    layer("simcore.schedule_pop_ns", "ns"),
    layer("simcore.zipfian_ns", "ns"),
    layer("workload.ycsb_next_op_ns", "ns"),
    layer("workload.noise_gen_ms", "ms"),
    layer("device.disk_service_ns", "ns"),
    layer("device.ssd_page_ns", "ns"),
    layer("sched.cfq_cycle_ns", "ns"),
    layer("core.mittnoop_admit_ns", "ns"),
    layer("core.mittcfq_predict_p1_ns", "ns"),
    layer("core.mittcfq_predict_p16_ns", "ns"),
    layer("core.mittcfq_predict_p128_ns", "ns"),
    layer("core.mittssd_admit_ns", "ns"),
    layer("core.mittcache_check_ns", "ns"),
    layer("oscache.addrcheck_ns", "ns"),
    layer("lsm.get_plan_ns", "ns"),
    layer("lsm.put_ns", "ns"),
    layer("cluster.new_ms", "ms"),
    layer("cluster.btree_touches_ns", "ns"),
    layer("trace.emit_on_ns", "ns"),
    layer("trace.emit_off_ns", "ns"),
    layer("tsl.observe_get_on_ns", "ns"),
    layer("prof.guard_on_ns", "ns"),
    layer("prof.guard_off_ns", "ns"),
];

/// Looks a metric up by name in either catalogue.
pub(crate) fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
