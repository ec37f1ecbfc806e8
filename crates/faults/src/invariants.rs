//! Robustness invariants for randomized chaos sweeps.
//!
//! Generated fault plans (see [`crate::plangen`]) make fixed-number
//! assertions useless — every seed produces different tails. What must hold
//! for *every* seed is a small catalogue of safety properties, checked here
//! against the artifacts a run already produces (op counters, the trace
//! ring, breaker transition logs, completion timestamps):
//!
//! 1. **No stranded ops** — every issued op reaches a terminal outcome
//!    (completion or explicit error); the counters must add up.
//! 2. **Every dispatched IO terminates** — on the single-in-flight disk, a
//!    `Dispatch` that is overtaken by a *later* `Complete` of a different
//!    IO on the same node can never finish: the device moved on without
//!    completing it. (IOs still queued or still executing when the run
//!    stops are benign, as is ring truncation — a dropped `Dispatch` leaves
//!    only its newer `Complete`, which the scan ignores.)
//! 3. **Bounded unavailability** — the longest gap between consecutive
//!    completions (including the run's start and end edges), *minus* the
//!    time the gap overlaps excused intervals, stays within a budget
//!    derived from the plan's crash envelope plus detection delay, retry
//!    backoff, and slack. Excused intervals are the open fault windows
//!    plus the in-flight span of any disk IO *dispatched* inside one
//!    (service multipliers are sampled at dispatch, so a stacked-window
//!    stretch legitimately drains past the window's close). What the
//!    invariant forbids is the cluster staying dark with no fault — active
//!    or draining — to blame.
//! 4. **Breaker legality** — per-replica transition logs must be
//!    continuous (each edge starts where the previous ended) and may only
//!    close via a successful half-open probe. An `Open → Closed` edge with
//!    any other cause is the gray-flap oscillation bug.
//! 5. **Attribution coverage** — the caller passes the result of
//!    `mitt_obs::verify_attribution_invariants` (this crate does not
//!    depend on obs); a failure there is folded in as a violation.
//!
//! The checker never panics on malformed input — every anomaly becomes a
//! human-readable violation string so a chaos sweep can report all of them
//! at once.

use mitt_sim::{Duration, SimTime};
use mitt_trace::{EventKind, Subsystem, TraceEvent};

use crate::breaker::{BreakerState, BreakerTransition, TransitionCause};
use crate::FaultPlan;

/// Everything one robustness check needs, borrowed from a finished run.
#[derive(Debug)]
pub struct InvariantInput<'a> {
    /// The run's trace ring contents (possibly truncated; oldest first).
    pub events: &'a [TraceEvent],
    /// Completion timestamps of every finished op, in any order.
    pub completion_times: &'a [SimTime],
    /// Virtual time the run finished at.
    pub run_end: SimTime,
    /// Ops the workload was configured to issue.
    pub expected_ops: u64,
    /// Ops that reached a terminal outcome (completed + explicit errors).
    pub terminal_ops: u64,
    /// Maximum tolerated *uncovered* completion gap (see
    /// [`unavailability_budget`]).
    pub unavailability_budget: Duration,
    /// Merged, disjoint fault-window intervals (from
    /// [`FaultPlan::coverage`]); gap time inside them is excused.
    pub fault_windows: &'a [(SimTime, SimTime)],
    /// Per-replica breaker transition logs as `(node, transition)` pairs,
    /// in per-node chronological order.
    pub breaker_transitions: &'a [(usize, BreakerTransition)],
    /// The breakers' configured cooldown, for the cooldown-vs-flap margin
    /// (ZERO disables that near-miss probe; legality checks are
    /// unaffected).
    pub breaker_cooldown: Duration,
    /// Outcome of the obs-layer attribution check, if the caller ran it.
    pub attribution: Option<Result<(), String>>,
}

/// The verdict: how many invariant families were evaluated and every
/// violation found, as self-contained messages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// Number of invariant families evaluated.
    pub checked: u64,
    /// All violations found, in check order.
    pub violations: Vec<String>,
    /// Invariants that *passed* but with measured slack — how close the run
    /// came to each budget. Surfaced through `mitt-tsl` (a close margin
    /// arms its flight recorder) and the chaos harness's per-plan summary.
    pub near_misses: Vec<NearMiss>,
}

impl InvariantReport {
    /// True when no invariant was violated.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

/// An invariant that passed but came close to its budget (ROADMAP item 5's
/// coverage signal for the fault-plan generator; `mitt-tsl` records it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NearMiss {
    /// Name of the invariant that nearly failed.
    pub invariant: &'static str,
    /// Slack that remained (budget minus observed worst case).
    pub margin: Duration,
    /// The budget the invariant was checked against.
    pub budget: Duration,
}

impl NearMiss {
    /// True when the margin is under a quarter of the budget — the
    /// threshold at which recording one also arms the flight recorder.
    pub fn is_close(&self) -> bool {
        self.margin.as_nanos() * 4 < self.budget.as_nanos()
    }
}

/// Derives the tolerated completion-gap budget for a plan: the longest
/// union of overlapping crash windows (while every replica of a key can be
/// down, nothing completes for it), plus the crash detection delay, the
/// caller's worst-case retry backoff, and `slack` for ordinary queueing
/// under concurrent fail-slow windows.
pub fn unavailability_budget(
    plan: &FaultPlan,
    detection_delay: Duration,
    backoff_budget: Duration,
    slack: Duration,
) -> Duration {
    plan.crash_envelope() + detection_delay + backoff_budget + slack
}

/// Runs the full invariant catalogue against one finished run.
pub fn check(input: &InvariantInput<'_>) -> InvariantReport {
    let mut report = InvariantReport::default();
    check_op_counts(input, &mut report);
    check_dispatch_terminals(input, &mut report);
    check_unavailability(input, &mut report);
    check_breaker_legality(input, &mut report);
    check_attribution(input, &mut report);
    report
}

fn check_op_counts(input: &InvariantInput<'_>, report: &mut InvariantReport) {
    report.checked += 1;
    if input.terminal_ops != input.expected_ops {
        report.violations.push(format!(
            "stranded ops: {} of {} ops never reached a terminal outcome",
            input.expected_ops.saturating_sub(input.terminal_ops),
            input.expected_ops
        ));
    }
}

fn check_dispatch_terminals(input: &InvariantInput<'_>, report: &mut InvariantReport) {
    report.checked += 1;
    // (node, io) -> event index of the still-unmatched disk Dispatch.
    let mut pending: Vec<(u32, u64, usize)> = Vec::new();
    // Per node, the index of the newest disk Complete seen.
    let mut last_complete: Vec<(u32, usize)> = Vec::new();
    for (idx, ev) in input.events.iter().enumerate() {
        if ev.subsystem != Subsystem::Disk {
            continue;
        }
        match ev.kind {
            EventKind::Dispatch { io } => pending.push((ev.node, io, idx)),
            EventKind::Complete { io, .. } => {
                pending.retain(|&(n, i, _)| !(n == ev.node && i == io));
                match last_complete.iter_mut().find(|(n, _)| *n == ev.node) {
                    Some(slot) => slot.1 = idx,
                    None => last_complete.push((ev.node, idx)),
                }
            }
            _ => {}
        }
    }
    for &(node, io, idx) in &pending {
        let overtaken = last_complete
            .iter()
            .any(|&(n, last)| n == node && last > idx);
        if overtaken {
            report.violations.push(format!(
                "stranded IO: disk {node} dispatched io {io} and completed a later IO without completing it"
            ));
        }
    }
}

/// Merges possibly-overlapping intervals into sorted disjoint ones, so
/// overlap subtraction never double-counts.
fn merge_intervals(mut intervals: Vec<(SimTime, SimTime)>) -> Vec<(SimTime, SimTime)> {
    intervals.sort_by_key(|&(start, end)| (start, end));
    let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
    for (start, end) in intervals {
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

fn check_unavailability(input: &InvariantInput<'_>, report: &mut InvariantReport) {
    report.checked += 1;
    let budget = input.unavailability_budget;
    let inside_window = |t: SimTime| {
        input
            .fault_windows
            .iter()
            .any(|&(start, end)| t >= start && t < end)
    };
    // Excused intervals: the fault windows themselves, plus the in-flight
    // span of every disk IO dispatched while a window was open — its
    // service multiplier was sampled under the fault, so its drain past
    // the window's close is the fault's doing, not a failover bug.
    let mut excused: Vec<(SimTime, SimTime)> = input.fault_windows.to_vec();
    let mut pending: Vec<(u32, u64, SimTime)> = Vec::new();
    for ev in input.events {
        if ev.subsystem != Subsystem::Disk {
            continue;
        }
        match ev.kind {
            EventKind::Dispatch { io } if inside_window(ev.at) => {
                pending.push((ev.node, io, ev.at));
            }
            EventKind::Complete { io, .. } => {
                if let Some(pos) = pending
                    .iter()
                    .position(|&(n, i, _)| n == ev.node && i == io)
                {
                    let (_, _, at) = pending.swap_remove(pos);
                    excused.push((at, ev.at));
                }
            }
            _ => {}
        }
    }
    let excused = merge_intervals(excused);
    // Uncovered gap = gap length minus its overlap with excused intervals.
    let uncovered = |a: SimTime, b: SimTime| {
        let mut gap = b.saturating_since(a);
        for &(start, end) in &excused {
            let lo = start.max(a);
            let hi = end.min(b);
            gap = gap.saturating_sub(hi.saturating_since(lo));
        }
        gap
    };
    let mut times: Vec<SimTime> = input.completion_times.to_vec();
    times.sort();
    let mut prev = SimTime::ZERO;
    let mut worst = Duration::ZERO;
    let mut worst_raw = Duration::ZERO;
    for &t in &times {
        let u = uncovered(prev, t);
        if u > worst {
            worst = u;
            worst_raw = t.saturating_since(prev);
        }
        prev = t;
    }
    let end_gap = uncovered(prev, input.run_end);
    if end_gap > worst {
        worst = end_gap;
        worst_raw = input.run_end.saturating_since(prev);
    }
    if worst > budget {
        report.violations.push(format!(
            "unavailability: completion gap of {}us ({}us outside fault windows) exceeds budget {}us",
            worst_raw.as_nanos() / 1_000,
            worst.as_nanos() / 1_000,
            budget.as_nanos() / 1_000
        ));
    } else if !times.is_empty() {
        report.near_misses.push(NearMiss {
            invariant: "bounded_unavailability",
            margin: budget.saturating_sub(worst),
            budget,
        });
    }
}

fn check_breaker_legality(input: &InvariantInput<'_>, report: &mut InvariantReport) {
    report.checked += 1;
    // Per-node continuity cursor: the state the next transition must leave.
    // Open -> HalfOpen is a pure function of the cooldown clock and is never
    // logged, so a cursor of Open also accepts an edge leaving HalfOpen.
    let compatible = |expected: BreakerState, from: BreakerState| {
        expected == from || (expected == BreakerState::Open && from == BreakerState::HalfOpen)
    };
    let mut cursors: Vec<(usize, BreakerState)> = Vec::new();
    for &(node, tr) in input.breaker_transitions {
        let cursor = cursors.iter_mut().find(|(n, _)| *n == node);
        match cursor {
            Some(slot) => {
                if !compatible(slot.1, tr.from) {
                    report.violations.push(format!(
                        "breaker {node}: discontinuous log ({:?} edge leaves from {:?}, expected {:?})",
                        tr.cause, tr.from, slot.1
                    ));
                }
                slot.1 = tr.to;
            }
            None => {
                if tr.from != BreakerState::Closed {
                    report.violations.push(format!(
                        "breaker {node}: first transition starts from {:?}, not Closed",
                        tr.from
                    ));
                }
                cursors.push((node, tr.to));
            }
        }
        if tr.to == BreakerState::Closed && tr.cause != TransitionCause::ProbeSuccess {
            report.violations.push(format!(
                "breaker {node}: closed via {:?} at {}ns without a successful half-open probe",
                tr.cause,
                tr.at.as_nanos()
            ));
        }
    }
    // Cooldown-vs-flap margin: the shortest closed dwell (a legal
    // ProbeSuccess close followed by the same breaker re-opening) measured
    // against the cooldown. A dwell under the cooldown is legal — only
    // *closing* is probe-gated — but a short one means the gray window was
    // flapping just slower than the breaker could track: the exact regime
    // the probe-gated close exists for.
    if input.breaker_cooldown > Duration::ZERO {
        let mut worst_dwell: Option<Duration> = None;
        let mut closed_at: Vec<(usize, SimTime)> = Vec::new();
        for &(node, tr) in input.breaker_transitions {
            match tr.to {
                BreakerState::Closed => match closed_at.iter_mut().find(|(n, _)| *n == node) {
                    Some(slot) => slot.1 = tr.at,
                    None => closed_at.push((node, tr.at)),
                },
                BreakerState::Open => {
                    if let Some(pos) = closed_at.iter().position(|(n, _)| *n == node) {
                        let (_, at) = closed_at.swap_remove(pos);
                        let dwell = tr.at.saturating_since(at);
                        worst_dwell = Some(worst_dwell.map_or(dwell, |w| w.min(dwell)));
                    }
                }
                BreakerState::HalfOpen => {}
            }
        }
        if let Some(dwell) = worst_dwell {
            report.near_misses.push(NearMiss {
                invariant: "breaker_cooldown_flap",
                margin: dwell.min(input.breaker_cooldown),
                budget: input.breaker_cooldown,
            });
        }
    }
}

fn check_attribution(input: &InvariantInput<'_>, report: &mut InvariantReport) {
    report.checked += 1;
    if let Some(Err(msg)) = &input.attribution {
        report.violations.push(format!("attribution: {msg}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;

    fn disk_ev(at: u64, node: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(at),
            node,
            subsystem: Subsystem::Disk,
            kind,
        }
    }

    fn base_input<'a>(
        events: &'a [TraceEvent],
        times: &'a [SimTime],
        transitions: &'a [(usize, BreakerTransition)],
    ) -> InvariantInput<'a> {
        InvariantInput {
            events,
            completion_times: times,
            run_end: SimTime::from_nanos(10_000),
            expected_ops: times.len() as u64,
            terminal_ops: times.len() as u64,
            unavailability_budget: Duration::from_millis(500),
            fault_windows: &[],
            breaker_transitions: transitions,
            breaker_cooldown: Duration::ZERO,
            attribution: Some(Ok(())),
        }
    }

    #[test]
    fn clean_run_passes_all_checks() {
        let events = [
            disk_ev(10, 0, EventKind::Dispatch { io: 1 }),
            disk_ev(
                20,
                0,
                EventKind::Complete {
                    io: 1,
                    wait: Duration::from_nanos(10),
                },
            ),
        ];
        let times = [SimTime::from_nanos(20), SimTime::from_nanos(9_000)];
        let report = check(&base_input(&events, &times, &[]));
        assert!(report.pass(), "violations: {:?}", report.violations);
        assert_eq!(report.checked, 5);
    }

    #[test]
    fn overtaken_dispatch_is_stranded_but_trailing_dispatch_is_benign() {
        let events = [
            disk_ev(10, 0, EventKind::Dispatch { io: 1 }),
            disk_ev(
                30,
                0,
                EventKind::Complete {
                    io: 2,
                    wait: Duration::from_nanos(5),
                },
            ),
            // Still executing at run end: benign.
            disk_ev(40, 1, EventKind::Dispatch { io: 9 }),
        ];
        let times = [SimTime::from_nanos(30)];
        let report = check(&base_input(&events, &times, &[]));
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("io 1"));
    }

    #[test]
    fn completion_gap_beyond_budget_is_flagged() {
        let times = [SimTime::from_nanos(100), SimTime::from_nanos(9_900)];
        let mut input = base_input(&[], &times, &[]);
        input.unavailability_budget = Duration::from_nanos(5_000);
        let report = check(&input);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("unavailability"));
    }

    #[test]
    fn gap_covered_by_a_fault_window_is_excused() {
        let times = [SimTime::from_nanos(100), SimTime::from_nanos(9_900)];
        let windows = [(SimTime::from_nanos(200), SimTime::from_nanos(9_500))];
        let mut input = base_input(&[], &times, &[]);
        input.unavailability_budget = Duration::from_nanos(5_000);
        input.fault_windows = &windows;
        // Raw gap 9_800ns, but 9_300ns of it sits inside the window:
        // 500ns uncovered, within budget.
        assert!(check(&input).pass());
    }

    #[test]
    fn drain_of_an_io_dispatched_inside_a_window_is_excused() {
        // The window closes at 500ns, but an IO dispatched at 300ns (under
        // the fault's service multiplier) drains until 9_500ns. Its whole
        // in-flight span is the fault's doing, so only 500ns of the raw
        // 9_800ns gap is charged against the budget.
        let events = [
            disk_ev(300, 0, EventKind::Dispatch { io: 1 }),
            disk_ev(
                9_500,
                0,
                EventKind::Complete {
                    io: 1,
                    wait: Duration::from_nanos(9_200),
                },
            ),
        ];
        let times = [SimTime::from_nanos(100), SimTime::from_nanos(9_900)];
        let windows = [(SimTime::from_nanos(200), SimTime::from_nanos(500))];
        let mut input = base_input(&events, &times, &[]);
        input.unavailability_budget = Duration::from_nanos(5_000);
        input.fault_windows = &windows;
        assert!(check(&input).pass());
        // Without the dispatch evidence the same gap is a violation: the
        // 300ns window alone cannot excuse a 9_800ns blackout.
        input.events = &[];
        assert!(!check(&input).pass());
    }

    #[test]
    fn run_end_edge_counts_toward_the_gap() {
        let times = [SimTime::from_nanos(100)];
        let mut input = base_input(&[], &times, &[]);
        input.run_end = SimTime::from_nanos(1_000_000);
        input.unavailability_budget = Duration::from_nanos(500_000);
        assert!(!check(&input).pass());
    }

    #[test]
    fn close_without_probe_success_is_illegal() {
        let tr = |from, to, cause, at| BreakerTransition {
            at: SimTime::from_nanos(at),
            from,
            to,
            cause,
        };
        let legal = [
            (
                0usize,
                tr(
                    BreakerState::Closed,
                    BreakerState::Open,
                    TransitionCause::FailureThreshold,
                    10,
                ),
            ),
            (
                0usize,
                tr(
                    BreakerState::HalfOpen,
                    BreakerState::Closed,
                    TransitionCause::ProbeSuccess,
                    20,
                ),
            ),
        ];
        assert!(check(&base_input(&[], &[SimTime::from_nanos(1)], &legal)).pass());

        let illegal = [
            (
                1usize,
                tr(
                    BreakerState::Closed,
                    BreakerState::Open,
                    TransitionCause::FailureThreshold,
                    10,
                ),
            ),
            (
                1usize,
                tr(
                    BreakerState::Open,
                    BreakerState::Closed,
                    TransitionCause::FailureThreshold,
                    20,
                ),
            ),
        ];
        let report = check(&base_input(&[], &[SimTime::from_nanos(1)], &illegal));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("without a successful half-open probe")));
    }

    #[test]
    fn stranded_op_counts_and_attribution_failures_surface() {
        let times = [SimTime::from_nanos(100)];
        let mut input = base_input(&[], &times, &[]);
        input.expected_ops = 3;
        input.terminal_ops = 2;
        input.attribution = Some(Err("reject 7 lacks attribution".to_string()));
        let report = check(&input);
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations[0].contains("stranded ops: 1 of 3"));
        assert!(report.violations[1].contains("attribution"));
    }

    #[test]
    fn passing_unavailability_records_slack_near_miss() {
        let times = [SimTime::from_nanos(100), SimTime::from_nanos(9_900)];
        let mut input = base_input(&[], &times, &[]);
        input.unavailability_budget = Duration::from_nanos(10_000);
        let report = check(&input);
        assert!(report.pass());
        let nm = report
            .near_misses
            .iter()
            .find(|n| n.invariant == "bounded_unavailability")
            .expect("slack recorded");
        // Worst gap is 9_800ns; slack = 200ns of a 10_000ns budget.
        assert_eq!(nm.margin, Duration::from_nanos(200));
        assert_eq!(nm.budget, Duration::from_nanos(10_000));
        assert!(nm.is_close(), "200/10_000 is well under a quarter");
    }

    #[test]
    fn closed_dwell_under_cooldown_records_flap_margin() {
        let tr = |from, to, cause, at| BreakerTransition {
            at: SimTime::from_nanos(at),
            from,
            to,
            cause,
        };
        let log = [
            (
                0usize,
                tr(
                    BreakerState::Closed,
                    BreakerState::Open,
                    TransitionCause::FailureThreshold,
                    10,
                ),
            ),
            (
                0usize,
                tr(
                    BreakerState::HalfOpen,
                    BreakerState::Closed,
                    TransitionCause::ProbeSuccess,
                    1_000,
                ),
            ),
            // Re-opens 400ns after closing: dwell 400 vs cooldown 50_000.
            (
                0usize,
                tr(
                    BreakerState::Closed,
                    BreakerState::Open,
                    TransitionCause::FailureThreshold,
                    1_400,
                ),
            ),
        ];
        let times = [SimTime::from_nanos(1)];
        let mut input = base_input(&[], &times, &log);
        input.breaker_cooldown = Duration::from_nanos(50_000);
        let report = check(&input);
        assert!(
            report.pass(),
            "short dwell is legal: {:?}",
            report.violations
        );
        let nm = report
            .near_misses
            .iter()
            .find(|n| n.invariant == "breaker_cooldown_flap")
            .expect("dwell margin recorded");
        assert_eq!(nm.margin, Duration::from_nanos(400));
        assert!(nm.is_close());
        // With no re-open the probe records nothing.
        let times = [SimTime::from_nanos(1)];
        let mut quiet = base_input(&[], &times, &log[..2]);
        quiet.breaker_cooldown = Duration::from_nanos(50_000);
        assert!(!check(&quiet)
            .near_misses
            .iter()
            .any(|n| n.invariant == "breaker_cooldown_flap"));
    }

    #[test]
    fn budget_tracks_the_crash_envelope() {
        let plan = FaultPlan::new().crash(
            0,
            SimTime::from_nanos(10_000_000),
            Duration::from_millis(300),
        );
        let b = unavailability_budget(
            &plan,
            Duration::from_millis(250),
            Duration::from_millis(50),
            Duration::from_millis(100),
        );
        assert_eq!(b, Duration::from_millis(700));
    }
}
