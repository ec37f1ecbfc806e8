//! Trace event schema.
//!
//! Every event is stamped with the *virtual* clock ([`SimTime`]) and tagged
//! with the node and subsystem that emitted it. Payloads are small `Copy`
//! types so recording an event is a couple of word moves; strings are
//! `&'static str` labels, never owned formatting, so an instrumented run
//! allocates nothing per event beyond the ring slot.

use mitt_sim::{Duration, Fnv1a, SimTime};

/// Node tag used for cluster-level events that belong to no single replica
/// (op spans, failover decisions made by the client-side driver).
pub const CLUSTER_NODE: u32 = u32::MAX;

/// The simulator layer that emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// MittNoop predictor (disk + noop scheduler).
    MittNoop,
    /// MittCFQ predictor (disk + CFQ scheduler).
    MittCfq,
    /// MittSSD predictor.
    MittSsd,
    /// MittCache page-cache predictor.
    MittCache,
    /// Block-layer scheduler (noop/CFQ queues).
    Sched,
    /// Disk device model.
    Disk,
    /// SSD device model.
    Ssd,
    /// Per-node OS model (submit/EBUSY/completion lifecycle).
    Node,
    /// Cluster driver (failover, hedging, op spans).
    Cluster,
}

impl Subsystem {
    /// Stable numeric code, used as the Chrome-trace thread id and folded
    /// into digests.
    pub const fn code(self) -> u64 {
        match self {
            Subsystem::MittNoop => 0,
            Subsystem::MittCfq => 1,
            Subsystem::MittSsd => 2,
            Subsystem::MittCache => 3,
            Subsystem::Sched => 4,
            Subsystem::Disk => 5,
            Subsystem::Ssd => 6,
            Subsystem::Node => 7,
            Subsystem::Cluster => 8,
        }
    }

    /// Lower-case name, used as the Chrome-trace category and in reports.
    pub const fn name(self) -> &'static str {
        match self {
            Subsystem::MittNoop => "mittnoop",
            Subsystem::MittCfq => "mittcfq",
            Subsystem::MittSsd => "mittssd",
            Subsystem::MittCache => "mittcache",
            Subsystem::Sched => "sched",
            Subsystem::Disk => "disk",
            Subsystem::Ssd => "ssd",
            Subsystem::Node => "node",
            Subsystem::Cluster => "cluster",
        }
    }

    /// Counter name bumped when this subsystem admits an IO.
    pub const fn admit_counter(self) -> &'static str {
        match self {
            Subsystem::MittNoop => "mittnoop.admit",
            Subsystem::MittCfq => "mittcfq.admit",
            Subsystem::MittSsd => "mittssd.admit",
            Subsystem::MittCache => "mittcache.admit",
            Subsystem::Sched => "sched.admit",
            Subsystem::Disk => "disk.admit",
            Subsystem::Ssd => "ssd.admit",
            Subsystem::Node => "node.admit",
            Subsystem::Cluster => "cluster.admit",
        }
    }

    /// Counter name bumped when this subsystem rejects (EBUSY) an IO.
    pub const fn reject_counter(self) -> &'static str {
        match self {
            Subsystem::MittNoop => "mittnoop.reject",
            Subsystem::MittCfq => "mittcfq.reject",
            Subsystem::MittSsd => "mittssd.reject",
            Subsystem::MittCache => "mittcache.reject",
            Subsystem::Sched => "sched.reject",
            Subsystem::Disk => "disk.reject",
            Subsystem::Ssd => "ssd.reject",
            Subsystem::Node => "node.reject",
            Subsystem::Cluster => "cluster.reject",
        }
    }

    /// All subsystems, in `code()` order (for report iteration).
    pub const ALL: [Subsystem; 9] = [
        Subsystem::MittNoop,
        Subsystem::MittCfq,
        Subsystem::MittSsd,
        Subsystem::MittCache,
        Subsystem::Sched,
        Subsystem::Disk,
        Subsystem::Ssd,
        Subsystem::Node,
        Subsystem::Cluster,
    ];
}

/// The resource a rejection, miss, failover, or hedge is blamed on.
///
/// Attribution answers the question mitt-trace alone leaves open: *which*
/// layer of the stack made (or should have made) this IO miss its SLO. The
/// taxonomy mirrors the predictor stack — one variant per §4 prediction
/// source — plus the cluster-side causes (network, faults, breakers) that
/// the OS never sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource {
    /// The CFQ scheduler's queue depth (MittCFQ's predicted wait).
    CfqQueue,
    /// The noop scheduler's `T_nextFree` drain estimate (MittNoop).
    NoopNextFree,
    /// An SSD chip/channel conflict (MittSSD's per-chip wait).
    SsdChannel,
    /// A page-cache contention miss (MittCache residency-expectation EBUSY).
    CacheMiss,
    /// A network hop (hedge triggers, retransmit delay).
    NetHop,
    /// An active fault-injection window (crash, fail-slow, bias, ...).
    FaultWindow,
    /// A circuit breaker held open by the client-side resilience policy.
    Breaker,
    /// An active gray-failure window (flapping fail-slow, partial
    /// degradation, asymmetric visibility) distorting the replica.
    GrayWindow,
}

impl Resource {
    /// Stable numeric code, folded into digests.
    pub const fn code(self) -> u64 {
        match self {
            Resource::CfqQueue => 0,
            Resource::NoopNextFree => 1,
            Resource::SsdChannel => 2,
            Resource::CacheMiss => 3,
            Resource::NetHop => 4,
            Resource::FaultWindow => 5,
            Resource::Breaker => 6,
            Resource::GrayWindow => 7,
        }
    }

    /// Lower-case name, used in Chrome args and reports.
    pub const fn name(self) -> &'static str {
        match self {
            Resource::CfqQueue => "cfq_queue",
            Resource::NoopNextFree => "noop_next_free",
            Resource::SsdChannel => "ssd_channel",
            Resource::CacheMiss => "cache_miss",
            Resource::NetHop => "net_hop",
            Resource::FaultWindow => "fault_window",
            Resource::Breaker => "breaker",
            Resource::GrayWindow => "gray_window",
        }
    }

    /// Metrics-registry counter bumped once per attribution of this
    /// resource.
    pub const fn counter(self) -> &'static str {
        match self {
            Resource::CfqQueue => "attr.cfq_queue",
            Resource::NoopNextFree => "attr.noop_next_free",
            Resource::SsdChannel => "attr.ssd_channel",
            Resource::CacheMiss => "attr.cache_miss",
            Resource::NetHop => "attr.net_hop",
            Resource::FaultWindow => "attr.fault_window",
            Resource::Breaker => "attr.breaker",
            Resource::GrayWindow => "attr.gray_window",
        }
    }

    /// All resources, in `code()` order (for report iteration).
    pub const ALL: [Resource; 8] = [
        Resource::CfqQueue,
        Resource::NoopNextFree,
        Resource::SsdChannel,
        Resource::CacheMiss,
        Resource::NetHop,
        Resource::FaultWindow,
        Resource::Breaker,
        Resource::GrayWindow,
    ];
}

/// What happened. Typed payloads for the hot-path lifecycle events, plus
/// generic span begin/end and instants for everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An IO request entered a node's OS model.
    Submit {
        /// IO id.
        io: u64,
        /// Request length in bytes.
        len: u32,
    },
    /// A predictor compared predicted wait against a deadline.
    Predict {
        /// IO id.
        io: u64,
        /// Predicted wait (queueing delay before reaching the device head).
        predicted_wait: Duration,
        /// SLO deadline attached to the IO, if any.
        deadline: Option<Duration>,
        /// Whether the predictor admitted the IO.
        admitted: bool,
    },
    /// An IO was rejected with EBUSY (or retroactively bumped).
    Reject {
        /// IO id.
        io: u64,
        /// Predicted wait that triggered the rejection.
        predicted_wait: Duration,
    },
    /// An IO left scheduler queues for the device.
    Dispatch {
        /// IO id.
        io: u64,
    },
    /// A queued IO was withdrawn before reaching the device (tied-request
    /// revocation): like `Complete` and `Reject`, it ends the IO.
    Revoke {
        /// IO id.
        io: u64,
    },
    /// An IO completed.
    Complete {
        /// IO id.
        io: u64,
        /// Observed wait (device level: service time; node level: queueing
        /// wait from submit to device head).
        wait: Duration,
    },
    /// The cluster driver retried an op on another replica after EBUSY.
    Failover {
        /// Operation id.
        op: u64,
        /// Replica that returned EBUSY.
        from: u32,
        /// Replica the op was resent to.
        to: u32,
    },
    /// The cluster driver sent a speculative duplicate request.
    Hedge {
        /// Operation id.
        op: u64,
        /// Replica receiving the hedge.
        to: u32,
    },
    /// A read was served from the page cache.
    CacheHit {
        /// Request identifier: cache reads allocate no block-layer IO id,
        /// so nodes key this by the request's byte offset.
        io: u64,
        /// Latency charged for the hit.
        latency: Duration,
    },
    /// Generic span start (rendered as a Chrome `"B"` event).
    SpanBegin {
        /// Span label (static so recording never allocates).
        name: &'static str,
        /// Span correlation id.
        id: u64,
    },
    /// Generic span end (rendered as a Chrome `"E"` event).
    SpanEnd {
        /// Span label; must match the begin event.
        name: &'static str,
        /// Span correlation id.
        id: u64,
    },
    /// Generic point-in-time marker with one numeric argument (rendered
    /// as a Chrome `"i"` instant event).
    Mark {
        /// Marker label.
        name: &'static str,
        /// Free-form numeric payload.
        value: u64,
    },
    /// A planned fault activated (see `mitt-faults`).
    FaultStart {
        /// Index of the fault in the experiment's `FaultPlan`.
        fault: u64,
        /// Fault-kind label (`node_crash`, `fail_slow_disk`, ...).
        name: &'static str,
    },
    /// A planned fault deactivated.
    FaultEnd {
        /// Index of the fault in the experiment's `FaultPlan`.
        fault: u64,
        /// Fault-kind label; matches the start event.
        name: &'static str,
    },
    /// SLO attribution: a Reject/miss/failover/hedge blamed on a resource.
    ///
    /// Emitted immediately after the event it explains (node-level Rejects,
    /// cluster-level Busy/Crashed replies, breaker skips, hedge fires), so
    /// consumers can pair them by ring order.
    Attribution {
        /// IO id at node level; operation id at cluster level.
        io: u64,
        /// The resource held responsible.
        resource: Resource,
        /// Predicted wait behind the decision (`Duration::MAX` when no
        /// prediction was involved, e.g. cache EBUSY or crash detection).
        predicted_wait: Duration,
        /// Resource-specific detail: queue depth for [`Resource::CfqQueue`],
        /// in-flight count for [`Resource::SsdChannel`], refill-page count
        /// for [`Resource::CacheMiss`], replica id at cluster level.
        detail: u64,
    },
    /// A message traversed one network hop (client→node or node→client).
    NetHop {
        /// Destination (or origin) replica of the hop.
        node: u32,
        /// Total delay charged for the hop, including fault-injected extra
        /// delay and retransmits.
        delay: Duration,
        /// True when an active fault window stretched or dropped the hop.
        faulted: bool,
    },
    /// A sampled counter value (rendered as a Chrome `"C"` counter track).
    Counter {
        /// Counter-track name (static so recording never allocates).
        name: &'static str,
        /// Sampled value.
        value: u64,
    },
}

impl EventKind {
    /// Event name as shown in trace viewers and reports.
    pub const fn name(&self) -> &'static str {
        match self {
            EventKind::Submit { .. } => "submit",
            EventKind::Predict { .. } => "predict",
            EventKind::Reject { .. } => "reject",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Complete { .. } => "complete",
            EventKind::Revoke { .. } => "revoke",
            EventKind::Failover { .. } => "failover",
            EventKind::Hedge { .. } => "hedge",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::SpanBegin { name, .. } => name,
            EventKind::SpanEnd { name, .. } => name,
            EventKind::Mark { name, .. } => name,
            EventKind::FaultStart { .. } => "fault_start",
            EventKind::FaultEnd { .. } => "fault_end",
            EventKind::Attribution { .. } => "attr",
            EventKind::NetHop { .. } => "net_hop",
            EventKind::Counter { name, .. } => name,
        }
    }

    /// Folds the kind tag and payload into a digest, field by field.
    pub fn fold(&self, h: &mut Fnv1a) {
        match *self {
            EventKind::Submit { io, len } => {
                h.write_u64(0);
                h.write_u64(io);
                h.write_u64(u64::from(len));
            }
            EventKind::Predict {
                io,
                predicted_wait,
                deadline,
                admitted,
            } => {
                h.write_u64(1);
                h.write_u64(io);
                h.write_u64(predicted_wait.as_nanos());
                match deadline {
                    Some(d) => {
                        h.write_u64(1);
                        h.write_u64(d.as_nanos());
                    }
                    None => h.write_u64(0),
                }
                h.write_u64(u64::from(admitted));
            }
            EventKind::Reject { io, predicted_wait } => {
                h.write_u64(2);
                h.write_u64(io);
                h.write_u64(predicted_wait.as_nanos());
            }
            EventKind::Dispatch { io } => {
                h.write_u64(3);
                h.write_u64(io);
            }
            EventKind::Complete { io, wait } => {
                h.write_u64(4);
                h.write_u64(io);
                h.write_u64(wait.as_nanos());
            }
            EventKind::Failover { op, from, to } => {
                h.write_u64(5);
                h.write_u64(op);
                h.write_u64(u64::from(from));
                h.write_u64(u64::from(to));
            }
            EventKind::Hedge { op, to } => {
                h.write_u64(6);
                h.write_u64(op);
                h.write_u64(u64::from(to));
            }
            EventKind::CacheHit { io, latency } => {
                h.write_u64(7);
                h.write_u64(io);
                h.write_u64(latency.as_nanos());
            }
            EventKind::SpanBegin { name, id } => {
                h.write_u64(8);
                h.write_str(name);
                h.write_u64(id);
            }
            EventKind::SpanEnd { name, id } => {
                h.write_u64(9);
                h.write_str(name);
                h.write_u64(id);
            }
            EventKind::Mark { name, value } => {
                h.write_u64(10);
                h.write_str(name);
                h.write_u64(value);
            }
            EventKind::FaultStart { fault, name } => {
                h.write_u64(11);
                h.write_u64(fault);
                h.write_str(name);
            }
            EventKind::FaultEnd { fault, name } => {
                h.write_u64(12);
                h.write_u64(fault);
                h.write_str(name);
            }
            EventKind::Attribution {
                io,
                resource,
                predicted_wait,
                detail,
            } => {
                h.write_u64(13);
                h.write_u64(io);
                h.write_u64(resource.code());
                h.write_u64(predicted_wait.as_nanos());
                h.write_u64(detail);
            }
            EventKind::NetHop {
                node,
                delay,
                faulted,
            } => {
                h.write_u64(14);
                h.write_u64(u64::from(node));
                h.write_u64(delay.as_nanos());
                h.write_u64(u64::from(faulted));
            }
            EventKind::Counter { name, value } => {
                h.write_u64(15);
                h.write_str(name);
                h.write_u64(value);
            }
            EventKind::Revoke { io } => {
                h.write_u64(16);
                h.write_u64(io);
            }
        }
    }
}

/// One recorded event: virtual timestamp, origin, payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event was recorded.
    pub at: SimTime,
    /// Node the emitting sink was tagged with ([`CLUSTER_NODE`] for
    /// cluster-level events).
    pub node: u32,
    /// Emitting subsystem.
    pub subsystem: Subsystem,
    /// Payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Folds the whole event into a digest.
    pub fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(self.at.as_nanos());
        h.write_u64(u64::from(self.node));
        h.write_u64(self.subsystem.code());
        self.kind.fold(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystem_codes_are_distinct_and_ordered() {
        for (i, s) in Subsystem::ALL.iter().enumerate() {
            assert_eq!(s.code(), i as u64);
        }
    }

    #[test]
    fn resource_codes_are_distinct_and_ordered() {
        for (i, r) in Resource::ALL.iter().enumerate() {
            assert_eq!(r.code(), i as u64);
            assert!(r.counter().starts_with("attr."));
            assert!(r.counter().ends_with(r.name()));
        }
    }

    #[test]
    fn fold_distinguishes_payload_fields() {
        let ev = |kind| TraceEvent {
            at: SimTime::from_nanos(5),
            node: 1,
            subsystem: Subsystem::Disk,
            kind,
        };
        let mut a = Fnv1a::new();
        ev(EventKind::Dispatch { io: 7 }).fold(&mut a);
        let mut b = Fnv1a::new();
        ev(EventKind::Dispatch { io: 8 }).fold(&mut b);
        assert_ne!(a.finish(), b.finish());

        let mut c = Fnv1a::new();
        ev(EventKind::Predict {
            io: 7,
            predicted_wait: Duration::from_millis(1),
            deadline: None,
            admitted: true,
        })
        .fold(&mut c);
        let mut d = Fnv1a::new();
        ev(EventKind::Predict {
            io: 7,
            predicted_wait: Duration::from_millis(1),
            deadline: Some(Duration::ZERO),
            admitted: true,
        })
        .fold(&mut d);
        assert_ne!(c.finish(), d.finish());
    }
}
