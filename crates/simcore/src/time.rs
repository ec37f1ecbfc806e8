//! Virtual time for the discrete-event simulator.
//!
//! All simulated clocks are nanosecond-resolution [`SimTime`] instants
//! measured from the start of the simulation. Durations between instants are
//! [`Duration`]s. Both are thin wrappers over `u64`, so arithmetic is cheap
//! and ordering is total; overflow panics in debug builds like any other
//! integer arithmetic.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// A time later than any the simulator will ever reach.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ns` nanoseconds after the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional milliseconds since the epoch.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration since `earlier`, or [`Duration::ZERO`] if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The duration until `later`, or [`Duration::ZERO`] if `later` is in
    /// the past.
    pub fn saturating_until(self, later: SimTime) -> Duration {
        Duration(later.0.saturating_sub(self.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// A duration longer than any the simulator will ever produce.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest nanosecond and clamping negatives to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        Duration::from_secs_f64(ms / 1e3)
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest nanosecond and clamping negatives to zero.
    pub fn from_micros_f64(us: f64) -> Self {
        Duration::from_secs_f64(us / 1e6)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond and clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return Duration::ZERO;
        }
        Duration(round_ns(s * 1e9))
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction that stops at zero instead of underflowing.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// The longer of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The shorter of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Scales the duration by a non-negative factor, rounding to the
    /// nearest nanosecond.
    pub fn mul_f64(self, factor: f64) -> Duration {
        debug_assert!(factor >= 0.0, "duration scale factor must be >= 0");
        Duration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

/// `ns.round() as u64` for `ns >= 0`, without libm's `round` (a library
/// call on baseline x86-64, paid on every jittered device service time).
///
/// Below 2^53 the truncation and the fraction `ns - t` are exact, so
/// comparing the fraction with 0.5 rounds half away from zero, as
/// `round` does. From 2^53 up `ns` is already an integer and the fraction
/// is 0, except at and above 2^64, where the cast saturates to
/// `u64::MAX` and so does the add. No branch: the fraction sits on each
/// side of 0.5 about half the time.
fn round_ns(ns: f64) -> u64 {
    let t = ns as u64;
    t.saturating_add(u64::from(ns - t as f64 >= 0.5))
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.as_micros_f64())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn round_ns_matches_libm_round() {
        let edges = [
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            1e9 + 0.5,
            4_503_599_627_370_495.5, // 2^52 - 0.5
            4_503_599_627_370_496.0 - 1.0,
            4_503_599_627_370_496.0 + 1.0,
            9_007_199_254_740_992.0,      // 2^53
            9_223_372_036_854_775_808.0,  // 2^63
            18_446_744_073_709_551_616.0, // 2^64
            1e30,
            f64::MAX,
        ];
        for &x in &edges {
            assert_eq!(round_ns(x), x.round() as u64, "{x:e}");
        }
        for k in 0..1_000u64 {
            let x = k as f64 + 0.5;
            assert_eq!(round_ns(x), x.round() as u64, "{x}");
        }
        // Seeded values spread over magnitudes 2^-8 .. 2^70 (a uniform
        // mantissa scaled by a uniform power of two), the integer-plus-half
        // beside each, and each passed in as seconds.
        let mut rng = SimRng::new(0x0dd_1e55);
        for _ in 0..1_000_000 {
            let x = (1.0 + rng.unit_f64()) * 2f64.powi(rng.range_u64(0, 79) as i32 - 8);
            assert_eq!(round_ns(x), x.round() as u64, "{x:e}");
            let h = x.trunc() + 0.5;
            assert_eq!(round_ns(h), h.round() as u64, "{h:e}");
            let s = x / 1e9;
            assert_eq!(
                Duration::from_secs_f64(s).as_nanos(),
                (s * 1e9).round() as u64
            );
        }
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(Duration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(Duration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Duration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(Duration::from_micros_f64(2.5).as_nanos(), 2_500);
    }

    #[test]
    fn negative_and_nan_float_durations_clamp_to_zero() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::INFINITY), Duration::ZERO);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::ZERO + Duration::from_millis(10);
        assert_eq!(t.as_millis(), 10);
        assert_eq!(t - SimTime::ZERO, Duration::from_millis(10));
        assert_eq!((t - Duration::from_millis(4)).as_millis(), 6);
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_nanos(5);
        let late = SimTime::from_nanos(9);
        assert_eq!(late.saturating_since(early).as_nanos(), 4);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(early.saturating_until(late).as_nanos(), 4);
        assert_eq!(late.saturating_until(early), Duration::ZERO);
        assert_eq!(
            Duration::from_nanos(3).saturating_sub(Duration::from_nanos(7)),
            Duration::ZERO
        );
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_millis(10);
        assert_eq!(d.mul_f64(0.5), Duration::from_millis(5));
        assert_eq!(d * 3, Duration::from_millis(30));
        assert_eq!(d / 2, Duration::from_millis(5));
        assert_eq!(
            [d, d, d].into_iter().sum::<Duration>(),
            Duration::from_millis(30)
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Duration::from_nanos(120).to_string(), "120ns");
        assert_eq!(Duration::from_micros(15).to_string(), "15.0us");
        assert_eq!(Duration::from_millis(20).to_string(), "20.00ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
    }
}
