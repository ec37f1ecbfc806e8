//! Chrome `trace_event` JSON exporter.
//!
//! Produces the "JSON object format" understood by `about:tracing` and
//! Perfetto: `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Timestamps
//! are virtual-clock microseconds rendered with fixed three-decimal
//! precision from the integer nanosecond clock, so the output is
//! byte-identical across runs and platforms — no float formatting is
//! involved anywhere.

use core::fmt::Write as _;

use mitt_sim::SimTime;

use crate::event::{EventKind, TraceEvent};

/// Renders a virtual timestamp as microseconds with exactly three decimals.
fn ts_micros(at: SimTime) -> String {
    let ns = at.as_nanos();
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Appends one event as a Chrome trace JSON object.
fn push_event(out: &mut String, ev: &TraceEvent) {
    let ph = match ev.kind {
        EventKind::SpanBegin { .. } => "B",
        EventKind::SpanEnd { .. } => "E",
        EventKind::Counter { .. } => "C",
        _ => "i",
    };
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
        ev.kind.name(),
        ev.subsystem.name(),
        ph,
        ts_micros(ev.at),
        ev.node,
        ev.subsystem.code(),
    );
    if ph == "i" {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":{");
    match ev.kind {
        EventKind::Submit { io, len } => {
            let _ = write!(out, "\"io\":{io},\"len\":{len}");
        }
        EventKind::Predict {
            io,
            predicted_wait,
            deadline,
            admitted,
        } => {
            let _ = write!(
                out,
                "\"io\":{io},\"predicted_wait_ns\":{},\"admitted\":{admitted}",
                predicted_wait.as_nanos()
            );
            if let Some(d) = deadline {
                let _ = write!(out, ",\"deadline_ns\":{}", d.as_nanos());
            }
        }
        EventKind::Reject { io, predicted_wait } => {
            let _ = write!(
                out,
                "\"io\":{io},\"predicted_wait_ns\":{}",
                predicted_wait.as_nanos()
            );
        }
        EventKind::Dispatch { io } | EventKind::Revoke { io } => {
            let _ = write!(out, "\"io\":{io}");
        }
        EventKind::Complete { io, wait } => {
            let _ = write!(out, "\"io\":{io},\"wait_ns\":{}", wait.as_nanos());
        }
        EventKind::Failover { op, from, to } => {
            let _ = write!(out, "\"op\":{op},\"from\":{from},\"to\":{to}");
        }
        EventKind::Hedge { op, to } => {
            let _ = write!(out, "\"op\":{op},\"to\":{to}");
        }
        EventKind::CacheHit { io, latency } => {
            let _ = write!(out, "\"io\":{io},\"latency_ns\":{}", latency.as_nanos());
        }
        EventKind::SpanBegin { id, .. } | EventKind::SpanEnd { id, .. } => {
            let _ = write!(out, "\"id\":{id}");
        }
        EventKind::Mark { value, .. } => {
            let _ = write!(out, "\"value\":{value}");
        }
        EventKind::FaultStart { fault, name } | EventKind::FaultEnd { fault, name } => {
            let _ = write!(out, "\"fault\":{fault},\"kind\":\"{name}\"");
        }
        EventKind::Attribution {
            io,
            resource,
            predicted_wait,
            detail,
        } => {
            let _ = write!(
                out,
                "\"io\":{io},\"resource\":\"{}\",\"predicted_wait_ns\":{},\"detail\":{detail}",
                resource.name(),
                predicted_wait.as_nanos()
            );
        }
        EventKind::NetHop {
            node,
            delay,
            faulted,
        } => {
            let _ = write!(
                out,
                "\"node\":{node},\"delay_ns\":{},\"faulted\":{faulted}",
                delay.as_nanos()
            );
        }
        EventKind::Counter { value, .. } => {
            let _ = write!(out, "\"value\":{value}");
        }
    }
    out.push_str("}}");
}

/// Exports events as a complete Chrome trace JSON document.
///
/// `dropped` is the ring-buffer drop count; when non-zero it is surfaced as
/// an `otherData` field so a truncated trace is visibly truncated.
pub fn export(events: impl Iterator<Item = TraceEvent>, dropped: u64) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        push_event(&mut out, &ev);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"");
    let _ = write!(out, ",\"otherData\":{{\"dropped_events\":{dropped}}}");
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Subsystem;
    use mitt_sim::Duration;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                at: SimTime::from_nanos(1_234_567),
                node: 0,
                subsystem: Subsystem::Cluster,
                kind: EventKind::SpanBegin { name: "op", id: 1 },
            },
            TraceEvent {
                at: SimTime::from_nanos(1_300_000),
                node: 0,
                subsystem: Subsystem::MittCfq,
                kind: EventKind::Predict {
                    io: 9,
                    predicted_wait: Duration::from_millis(3),
                    deadline: Some(Duration::from_millis(15)),
                    admitted: true,
                },
            },
            TraceEvent {
                at: SimTime::from_nanos(2_000_000),
                node: 0,
                subsystem: Subsystem::Cluster,
                kind: EventKind::SpanEnd { name: "op", id: 1 },
            },
        ]
    }

    #[test]
    fn timestamps_are_fixed_point_micros() {
        assert_eq!(ts_micros(SimTime::from_nanos(0)), "0.000");
        assert_eq!(ts_micros(SimTime::from_nanos(1_234_567)), "1234.567");
        assert_eq!(ts_micros(SimTime::from_nanos(1_000)), "1.000");
    }

    #[test]
    fn export_produces_balanced_json_with_expected_fields() {
        let json = export(sample_events().into_iter(), 0);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"predicted_wait_ns\":3000000"));
        assert!(json.contains("\"deadline_ns\":15000000"));
        assert!(json.contains("\"ts\":1300.000"));
    }

    #[test]
    fn counter_events_render_as_counter_tracks() {
        let json = export(
            [TraceEvent {
                at: SimTime::from_nanos(5_000),
                node: 0,
                subsystem: Subsystem::MittCfq,
                kind: EventKind::Counter {
                    name: "mittcfq.inaccuracy",
                    value: 3,
                },
            }]
            .into_iter(),
            0,
        );
        assert!(
            json.contains("\"ph\":\"C\""),
            "missing counter phase: {json}"
        );
        assert!(json.contains("\"name\":\"mittcfq.inaccuracy\""));
        assert!(json.contains("\"value\":3"));
        assert!(
            !json.contains("\"s\":\"t\""),
            "counter events must not carry instant scope: {json}"
        );
    }

    #[test]
    fn export_is_deterministic() {
        let a = export(sample_events().into_iter(), 2);
        let b = export(sample_events().into_iter(), 2);
        assert_eq!(a, b);
        assert!(a.contains("\"dropped_events\":2"));
    }
}
