//! The phase timers' tick clock.
//!
//! A timed [`PhaseGuard`](crate::PhaseGuard) reads the clock twice. A
//! profiled get opens about fifteen guards, so timing every one of them
//! would put about thirty reads on the hot path of every profiled get;
//! guards are therefore sampled (see
//! [`SAMPLE_ONE_IN`](crate::SAMPLE_ONE_IN)), and an untimed guard reads no
//! clock at all. On x86_64 the clock is the CPU
//! timestamp counter (`rdtsc`: about 21 ns a read on a 2-vCPU Xeon VM,
//! against 29 ns for `rdtscp` and 48 ns for `Instant::now()`, which goes
//! through the vDSO's `clock_gettime`). Ticks become nanoseconds through a
//! ratio calibrated once per process against `Instant`; other targets read
//! `Instant` and count nanoseconds directly.
//!
//! The throughput meter ([`ProfSink::enabled`](crate::ProfSink::enabled) /
//! [`ProfSink::finish`](crate::ProfSink::finish)) does not use this clock:
//! it is the benchmark's stopwatch and stays on `Instant`, so its readings
//! never depend on a calibration. Calibration runs on the first timed
//! guard a process opens, before that guard stamps its start, so no
//! guard's interval includes it.

use std::sync::OnceLock;
// mitt-lint: allow(D001, "the tick clock is calibrated against Instant; profiler data never reaches a digest")
use std::time::Instant;

/// Reads the tick counter.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn now() -> u64 {
    // SAFETY: `rdtsc` has no preconditions and exists on every x86_64 CPU.
    // mitt-lint: allow(D001, "phase timer tick; profiler data never reaches a digest")
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Reads the tick counter: nanoseconds since the first read.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub(crate) fn now() -> u64 {
    // mitt-lint: allow(D001, "anchor of the phase timer ticks; profiler data never reaches a digest")
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    // mitt-lint: allow(D001, "phase timer tick; profiler data never reaches a digest")
    let elapsed = ANCHOR.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds per tick in 32.32 fixed point, calibrated on first use.
#[inline]
fn ns_per_tick_q32() -> u64 {
    static RATIO: OnceLock<u64> = OnceLock::new();
    *RATIO.get_or_init(calibrate)
}

/// Calibrates the tick ratio if this process has not yet done so.
#[inline]
pub(crate) fn calibrate_once() {
    ns_per_tick_q32();
}

/// Converts a tick interval to nanoseconds.
#[inline]
pub(crate) fn to_ns(ticks: u64) -> u64 {
    let ns = (u128::from(ticks) * u128::from(ns_per_tick_q32())) >> 32;
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Times a 1 ms span with both clocks. Each end is a tick read bracketed
/// by two `Instant` reads; a bracket wider than 20 µs (the thread was
/// descheduled mid-pair) is retaken, so a preemption cannot skew the ratio.
#[cfg(target_arch = "x86_64")]
fn calibrate() -> u64 {
    use std::time::Duration;
    const SPAN: Duration = Duration::from_millis(1);
    const MAX_BRACKET: Duration = Duration::from_micros(20);
    // mitt-lint: allow(D001, "calibration brackets a tick read with Instant reads; never digested")
    let bracketed = || (Instant::now(), now(), Instant::now());
    let pair = || loop {
        let (before, ticks, after) = bracketed();
        let bracket = after - before;
        if bracket <= MAX_BRACKET {
            return (before + bracket / 2, ticks);
        }
    };
    let (i0, t0) = pair();
    let (i1, t1) = loop {
        let (i, t) = pair();
        if i - i0 >= SPAN {
            break (i, t);
        }
    };
    let ns = (i1 - i0).as_nanos();
    let ticks = u128::from(t1.saturating_sub(t0).max(1));
    u64::try_from((ns << 32) / ticks).unwrap_or(u64::MAX)
}

/// Ticks already are nanoseconds.
#[cfg(not(target_arch = "x86_64"))]
fn calibrate() -> u64 {
    1 << 32
}
