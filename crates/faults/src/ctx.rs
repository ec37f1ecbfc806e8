//! [`NodeCtx`]: the one per-node handle bundle every storage component
//! takes.
//!
//! A node's devices, scheduler, page-cache check and admission path all
//! consult the same three handles: the fault clock, the trace ring and the
//! engine profiler. They travel together as one cheap-to-clone value,
//! tagged once per node by [`NodeCtx::for_node`], so a component gains or
//! loses an instrument without a new setter. Every handle is a no-op when
//! disabled, and none of them ever alters a decision except the fault
//! clock, whose effects are part of the plan. The windowed timeline is not
//! one of them: the cluster node records it from the verdicts and
//! completions it already handles.

use mitt_prof::ProfSink;
use mitt_sim::SimTime;
use mitt_trace::{Resource, TraceSink};

use crate::FaultClock;

/// The fault, trace and profiling handles of one node.
#[derive(Debug, Clone, Default)]
pub struct NodeCtx {
    /// Scheduled faults (`PredictorBias`, fail-slow, stalls, ...).
    pub faults: FaultClock,
    /// Structured event trace and metrics registry.
    pub trace: TraceSink,
    /// Engine phase timers (wall-clock only, digest-neutral).
    pub prof: ProfSink,
}

impl NodeCtx {
    /// A context with every handle disabled.
    pub fn disabled() -> Self {
        NodeCtx::default()
    }

    /// The same handles, tagged with `node` (the profiler is untagged).
    pub fn for_node(&self, node: u32) -> Self {
        NodeCtx {
            faults: self.faults.for_node(node),
            trace: self.trace.for_node(node),
            prof: self.prof.clone(),
        }
    }

    /// The resource a rejection decided at `now` is blamed on: the
    /// predictor's `own` resource, unless a `PredictorBias` window is
    /// distorting this node's predictions, in which case the fault takes
    /// the blame. A pure query: no RNG, no counters.
    pub fn blame(&self, now: SimTime, own: Resource) -> Resource {
        if self.faults.bias_active(now) {
            Resource::FaultWindow
        } else {
            own
        }
    }
}
