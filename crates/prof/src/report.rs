//! The `mitt-prof/v1` report: JSON and folded-stack exports.
//!
//! The JSON artifact is hand-formatted with a fixed field order and
//! fixed-point floats (the same discipline as `mitt-obs`' bench reports),
//! so diffs are meaningful. The folded-stack export is one
//! `frame;frame;frame <value>` line per phase, the lingua franca of
//! flamegraph tooling (`flamegraph.pl`, inferno, speedscope); values are
//! wall nanoseconds, and child phases are subtracted from their enclosing
//! guard so the flame's self-times add up instead of double counting.

use crate::alloc::{tracking_installed, AllocCounters};
use crate::{GaugeSample, Phase, PhaseStats, ProfCore, N_PHASES};

/// Schema identifier embedded in every JSON report.
pub const PROF_SCHEMA: &str = "mitt-prof/v1";

/// A point-in-time snapshot of everything a [`ProfSink`](crate::ProfSink)
/// collected.
#[derive(Debug, Clone)]
pub struct ProfReport {
    /// Whether the counting allocator is actually installed (the `prof`
    /// cargo feature); without it the alloc table is all zeros.
    pub alloc_tracking: bool,
    /// Wall nanoseconds between sink creation and `finish()` (0 if the
    /// run was never finished).
    pub wall_elapsed_ns: u64,
    /// Virtual nanoseconds the run covered.
    pub sim_elapsed_ns: u64,
    /// Simulation events dispatched.
    pub events_dispatched: u64,
    /// Simulated IOs submitted into storage stacks.
    pub ios_submitted: u64,
    /// Per-phase wall-clock timings, indexed by `Phase as usize`; each
    /// `total_ns` is already scaled from the timed activations to all.
    pub phases: Vec<PhaseStats>,
    /// Per-phase allocation counters for the run (not process-lifetime).
    pub alloc: [AllocCounters; N_PHASES],
    /// Gauge samples, oldest first (resolution-halved if the ring filled).
    pub gauges: Vec<GaugeSample>,
    /// Gauge samples compacted away by the bounded ring.
    pub gauges_dropped: u64,
}

impl ProfReport {
    /// The all-zero report a disabled sink produces.
    pub(crate) fn empty() -> Self {
        ProfReport {
            alloc_tracking: tracking_installed(),
            wall_elapsed_ns: 0,
            sim_elapsed_ns: 0,
            events_dispatched: 0,
            ios_submitted: 0,
            phases: vec![PhaseStats::default(); N_PHASES],
            alloc: [AllocCounters::default(); N_PHASES],
            gauges: Vec::new(),
            gauges_dropped: 0,
        }
    }

    pub(crate) fn from_core(core: &ProfCore) -> Self {
        ProfReport {
            alloc_tracking: tracking_installed(),
            wall_elapsed_ns: core.wall_elapsed_ns,
            sim_elapsed_ns: core.sim_elapsed.as_nanos(),
            events_dispatched: core.events_dispatched,
            ios_submitted: core.ios_submitted,
            phases: core.estimated_phases(),
            alloc: core.alloc_delta(),
            gauges: core.gauges.clone(),
            gauges_dropped: core.gauges_dropped,
        }
    }

    /// The headline throughput number: simulated IOs per wall second.
    pub fn sim_ios_per_wall_sec(&self) -> f64 {
        if self.wall_elapsed_ns == 0 {
            0.0
        } else {
            self.ios_submitted as f64 / (self.wall_elapsed_ns as f64 / 1e9)
        }
    }

    /// Simulated milliseconds per wall millisecond (the "cluster-seconds
    /// per wall-second" speed ratio of ROADMAP item 1).
    pub fn sim_ms_per_wall_ms(&self) -> f64 {
        if self.wall_elapsed_ns == 0 {
            0.0
        } else {
            self.sim_elapsed_ns as f64 / self.wall_elapsed_ns as f64
        }
    }

    /// Events dispatched per wall second.
    pub fn events_per_wall_sec(&self) -> f64 {
        if self.wall_elapsed_ns == 0 {
            0.0
        } else {
            self.events_dispatched as f64 / (self.wall_elapsed_ns as f64 / 1e9)
        }
    }

    /// Serialises as `mitt-prof/v1` JSON with fixed field order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{PROF_SCHEMA}\",\n"));
        out.push_str(&format!("  \"alloc_tracking\": {},\n", self.alloc_tracking));
        out.push_str(&format!(
            "  \"wall_elapsed_ms\": {},\n",
            fmt3(self.wall_elapsed_ns as f64 / 1e6)
        ));
        out.push_str(&format!(
            "  \"sim_elapsed_ms\": {},\n",
            fmt3(self.sim_elapsed_ns as f64 / 1e6)
        ));
        out.push_str(&format!(
            "  \"events_dispatched\": {},\n",
            self.events_dispatched
        ));
        out.push_str(&format!("  \"ios_submitted\": {},\n", self.ios_submitted));
        out.push_str(&format!(
            "  \"sim_ios_per_wall_sec\": {},\n",
            fmt3(self.sim_ios_per_wall_sec())
        ));
        out.push_str(&format!(
            "  \"sim_ms_per_wall_ms\": {},\n",
            fmt3(self.sim_ms_per_wall_ms())
        ));
        out.push_str(&format!(
            "  \"events_per_wall_sec\": {},\n",
            fmt3(self.events_per_wall_sec())
        ));
        out.push_str("  \"phases\": [\n");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let s = &self.phases[*phase as usize];
            out.push_str(&format!(
                "    {{\"phase\": \"{}\", \"count\": {}, \"timed\": {}, \"total_us\": {}, \
                 \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}{}\n",
                phase.label(),
                s.count,
                s.timed,
                fmt3(s.total_ns as f64 / 1e3),
                fmt3(s.hist.mean_ns()),
                s.hist.quantile_milli(500),
                s.hist.quantile_milli(990),
                s.hist.max_ns(),
                if i + 1 < N_PHASES { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"alloc\": [\n");
        for (i, phase) in Phase::ALL.iter().enumerate() {
            let a = &self.alloc[*phase as usize];
            out.push_str(&format!(
                "    {{\"phase\": \"{}\", \"allocs\": {}, \"bytes\": {}, \
                 \"frees\": {}, \"freed_bytes\": {}}}{}\n",
                phase.label(),
                a.allocs,
                a.bytes,
                a.frees,
                a.freed_bytes,
                if i + 1 < N_PHASES { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        let max_ring = self.gauges.iter().map(|g| g.event_ring).max().unwrap_or(0);
        let max_inflight = self
            .gauges
            .iter()
            .map(|g| g.inflight_ios)
            .max()
            .unwrap_or(0);
        let max_depth = self.gauges.iter().map(|g| g.queue_depth).max().unwrap_or(0);
        out.push_str(&format!(
            "  \"gauges\": {{\"samples\": {}, \"dropped\": {}, \"max_event_ring\": {}, \
             \"max_inflight_ios\": {}, \"max_queue_depth\": {}}}\n",
            self.gauges.len(),
            self.gauges_dropped,
            max_ring,
            max_inflight,
            max_depth
        ));
        out.push_str("}\n");
        out
    }

    /// Folded-stack export: `engine;dispatch;predict 12345` lines (values
    /// in wall nanoseconds of *self* time). Feed to `flamegraph.pl` or
    /// paste into <https://www.speedscope.app>.
    pub fn folded_stacks(&self) -> String {
        let total = |p: Phase| self.phases[p as usize].total_ns;
        // Children run inside their parent's guard, so subtract them for
        // honest self-times (saturating: clock jitter can skew a little).
        let dispatch_self = total(Phase::Dispatch)
            .saturating_sub(total(Phase::Predict))
            .saturating_sub(total(Phase::Sched))
            .saturating_sub(total(Phase::TraceEmit));
        let sched_self = total(Phase::Sched).saturating_sub(total(Phase::Device));
        let rows = [
            (Phase::Dispatch.stack(), dispatch_self),
            (Phase::Predict.stack(), total(Phase::Predict)),
            (Phase::Sched.stack(), sched_self),
            (Phase::Device.stack(), total(Phase::Device)),
            (Phase::TraceEmit.stack(), total(Phase::TraceEmit)),
            (Phase::StatsFold.stack(), total(Phase::StatsFold)),
            (Phase::Other.stack(), total(Phase::Other)),
        ];
        let mut out = String::new();
        for (stack, ns) in rows {
            if ns > 0 {
                out.push_str(&format!("{stack} {ns}\n"));
            }
        }
        out
    }
}

/// Fixed-point formatting with three decimals (the `mitt-obs` `num3`
/// discipline: deterministic, diff-friendly, locale-free).
fn fmt3(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0.000".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfSink;
    use mitt_sim::SimTime;

    fn sample_sink() -> ProfSink {
        let sink = ProfSink::enabled();
        {
            let _d = sink.phase(Phase::Dispatch);
            let _p = sink.phase(Phase::Predict);
        }
        {
            let _d = sink.phase(Phase::Dispatch);
            let _s = sink.phase(Phase::Sched);
            let _v = sink.phase(Phase::Device);
        }
        sink.io_submitted();
        sink.sample_gauges(GaugeSample {
            at: SimTime::from_nanos(10),
            event_ring: 7,
            inflight_ios: 3,
            queue_depth: 2,
        });
        sink.finish(SimTime::from_nanos(2_000_000));
        sink
    }

    #[test]
    fn json_has_schema_and_all_phase_rows() {
        let json = sample_sink().report_json();
        assert!(json.contains("\"schema\": \"mitt-prof/v1\""));
        for phase in Phase::ALL {
            assert!(json.contains(&format!("\"phase\": \"{}\"", phase.label())));
        }
        assert!(json.contains("\"ios_submitted\": 1"));
        assert!(json.contains("\"max_event_ring\": 7"));
        // Two top-level tables plus the gauge summary.
        assert!(json.contains("\"alloc\": ["));
        assert!(json.contains("\"gauges\": {"));
    }

    #[test]
    fn folded_stacks_nest_and_are_non_empty() {
        let folded = sample_sink().report().folded_stacks();
        assert!(!folded.is_empty());
        assert!(folded.contains("engine;dispatch;predict "));
        assert!(folded.contains("engine;dispatch;sched;device "));
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("stack value");
            assert!(stack.starts_with("engine"));
            assert!(value.parse::<u64>().expect("integer ns") > 0);
        }
    }

    #[test]
    fn wall_clock_values_never_reach_a_digest_surface() {
        // The report type deliberately has no fold_digest: this test is a
        // compile-time tripwire — if someone adds one, they must come
        // here and justify how wall-clock data stays out of run digests.
        let r = sample_sink().report();
        let json = r.to_json();
        assert!(json.contains("wall_elapsed_ms"));
    }

    #[test]
    fn disabled_report_is_all_zero_but_schema_valid() {
        let r = ProfSink::disabled().report();
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"mitt-prof/v1\""));
        assert!(json.contains("\"ios_submitted\": 0"));
        assert_eq!(r.folded_stacks(), "");
    }
}
