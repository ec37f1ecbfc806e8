//! Latency statistics: exact percentiles, CDF extraction, and streaming
//! summaries.
//!
//! The paper reports latency CDFs (Figures 4-8, 11-13), percentile tables
//! (p75/p90/p95/p99), and percentage latency reductions between strategies
//! (Figures 5b, 6d, 7b, 8b). [`LatencyRecorder`] collects every sample so
//! those statistics are exact, matching how the authors post-process YCSB
//! client logs.

use crate::digest::Fnv1a;
use crate::time::Duration;

/// Collects latency samples and answers exact percentile/CDF queries.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.samples.push(latency.as_nanos());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by the nearest-rank method.
    ///
    /// # Panics
    ///
    /// Panics if the recorder is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Duration {
        assert!(!self.samples.is_empty(), "quantile of empty recorder");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Duration::from_nanos(self.samples[rank - 1])
    }

    /// Percentile shorthand: `percentile(95.0)` is the p95 latency.
    pub fn percentile(&mut self, p: f64) -> Duration {
        self.quantile(p / 100.0)
    }

    /// Arithmetic mean of all samples.
    ///
    /// # Panics
    ///
    /// Panics if the recorder is empty.
    pub fn mean(&self) -> Duration {
        assert!(!self.samples.is_empty(), "mean of empty recorder");
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        Duration::from_nanos((sum / self.samples.len() as u128) as u64)
    }

    /// Largest sample.
    pub fn max(&mut self) -> Duration {
        assert!(!self.samples.is_empty(), "max of empty recorder");
        self.ensure_sorted();
        Duration::from_nanos(*self.samples.last().expect("non-empty"))
    }

    /// Smallest sample.
    pub fn min(&mut self) -> Duration {
        assert!(!self.samples.is_empty(), "min of empty recorder");
        self.ensure_sorted();
        Duration::from_nanos(self.samples[0])
    }

    /// Fraction of samples strictly greater than `threshold`.
    pub fn fraction_above(&self, threshold: Duration) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let t = threshold.as_nanos();
        let above = self.samples.iter().filter(|&&s| s > t).count();
        above as f64 / self.samples.len() as f64
    }

    /// Extracts `points` evenly spaced CDF points as
    /// `(latency, cumulative_probability)` pairs — the series plotted in the
    /// paper's CDF figures.
    pub fn cdf(&mut self, points: usize) -> Vec<(Duration, f64)> {
        assert!(points >= 2, "need at least two CDF points");
        if self.samples.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1) as f64;
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                (Duration::from_nanos(self.samples[rank - 1]), q)
            })
            .collect()
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Read-only view of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }
}

/// Percentage latency reduction of `ours` versus `other`, the paper's
/// `(T_other - T_mittos) / T_other` metric (footnote 2). Positive means
/// `ours` is faster.
pub fn reduction_pct(other: Duration, ours: Duration) -> f64 {
    if other.is_zero() {
        return 0.0;
    }
    100.0 * (other.as_nanos() as f64 - ours.as_nanos() as f64) / other.as_nanos() as f64
}

/// Streaming mean/variance via Welford's algorithm, for counters where
/// keeping every sample would be wasteful.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Power-of-two-bucket histogram of nanosecond samples: bucket `i` holds
/// values in `[2^i, 2^(i+1))` (zero counts as one), so the whole
/// nanosecond-to-centuries range fits in 64 fixed buckets with no
/// allocation per sample. Quantiles are bucket upper bounds taken at
/// integer milli-quantiles (990 = p99), so they never touch a float.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pow2Hist {
    counts: [u64; 64],
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for Pow2Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Pow2Hist {
    /// An empty histogram.
    pub const fn new() -> Self {
        Pow2Hist {
            counts: [0; 64],
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one nanosecond sample.
    pub fn observe(&mut self, ns: u64) {
        let idx = 63 - ns.max(1).leading_zeros() as usize;
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(ns);
        self.max = self.max.max(ns);
    }

    /// Number of samples.
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// Largest sample in nanoseconds.
    pub const fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean sample in nanoseconds, or 0.0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Upper bound (`2^(i+1)` ns) of the bucket holding the
    /// `q_milli`/1000 quantile (500 = p50, 999 = p99.9); 0 when empty.
    /// Bucketed, so within 2x of the true value by construction.
    pub fn quantile_milli(&self, q_milli: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((u128::from(self.total) * u128::from(q_milli)).div_ceil(1000)).max(1) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << 63
    }

    /// Folds the sample count and the non-empty buckets (index, count)
    /// into a digest.
    pub fn fold(&self, h: &mut Fnv1a) {
        h.write_u64(self.total);
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                h.write_u64(i as u64);
                h.write_u64(c);
            }
        }
    }
}

/// Fixed-width histogram over durations, used for timeline plots such as
/// the per-bucket noise occupancy of Figure 13b.
#[derive(Debug, Clone)]
pub struct TimeHistogram {
    bucket: Duration,
    counts: Vec<u64>,
}

impl TimeHistogram {
    /// Creates a histogram with `buckets` buckets of width `bucket`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero or `buckets` is zero.
    pub fn new(bucket: Duration, buckets: usize) -> Self {
        assert!(!bucket.is_zero() && buckets > 0, "degenerate histogram");
        TimeHistogram {
            bucket,
            counts: vec![0; buckets],
        }
    }

    /// Adds `weight` at offset `at` from the histogram origin. Samples past
    /// the last bucket are clamped into it.
    pub fn add(&mut self, at: Duration, weight: u64) {
        let idx = (at.as_nanos() / self.bucket.as_nanos()) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += weight;
    }

    /// The per-bucket totals.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bucket width.
    pub fn bucket_width(&self) -> Duration {
        self.bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn pow2_hist_quantiles_are_bucket_upper_bounds() {
        let mut h = Pow2Hist::new();
        assert_eq!(h.quantile_milli(990), 0, "empty");
        for _ in 0..99 {
            h.observe(1_000); // bucket 9 -> upper bound 1024
        }
        h.observe(1_000_000); // bucket 19 -> upper bound 2^20
        assert_eq!(h.total(), 100);
        assert_eq!(h.max_ns(), 1_000_000);
        assert_eq!(h.quantile_milli(500), 1 << 10);
        assert_eq!(h.quantile_milli(990), 1 << 10);
        assert_eq!(h.quantile_milli(999), 1 << 20);
        assert!((h.mean_ns() - 10_990.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(ms(i));
        }
        assert_eq!(r.percentile(50.0), ms(50));
        assert_eq!(r.percentile(95.0), ms(95));
        assert_eq!(r.percentile(99.0), ms(99));
        assert_eq!(r.percentile(100.0), ms(100));
        assert_eq!(r.quantile(0.0), ms(1));
        assert_eq!(r.min(), ms(1));
        assert_eq!(r.max(), ms(100));
    }

    #[test]
    fn mean_is_exact() {
        let mut r = LatencyRecorder::new();
        r.record(ms(10));
        r.record(ms(20));
        r.record(ms(30));
        assert_eq!(r.mean(), ms(20));
    }

    #[test]
    fn fraction_above_counts_strictly_greater() {
        let mut r = LatencyRecorder::new();
        for i in 1..=10 {
            r.record(ms(i));
        }
        assert!((r.fraction_above(ms(5)) - 0.5).abs() < 1e-9);
        assert_eq!(r.fraction_above(ms(10)), 0.0);
        assert_eq!(r.fraction_above(Duration::ZERO), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut r = LatencyRecorder::new();
        let mut x = 17u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            r.record(Duration::from_nanos(x % 1_000_000));
        }
        let cdf = r.cdf(50);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0, "latency axis must be monotone");
            assert!(w[1].1 >= w[0].1, "probability axis must be monotone");
        }
        assert_eq!(cdf.first().unwrap().1, 0.0);
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(ms(1));
        b.record(ms(3));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.max(), ms(3));
    }

    #[test]
    fn reduction_pct_signs() {
        assert!((reduction_pct(ms(100), ms(75)) - 25.0).abs() < 1e-9);
        assert!(reduction_pct(ms(50), ms(100)) < 0.0);
        assert_eq!(reduction_pct(Duration::ZERO, ms(1)), 0.0);
    }

    #[test]
    fn online_stats_match_closed_form() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_histogram_buckets_and_clamps() {
        let mut h = TimeHistogram::new(ms(10), 3);
        h.add(ms(0), 1);
        h.add(ms(9), 1);
        h.add(ms(10), 2);
        h.add(ms(500), 5); // clamped to last bucket
        assert_eq!(h.counts(), &[2, 2, 5]);
        assert_eq!(h.bucket_width(), ms(10));
    }

    #[test]
    #[should_panic(expected = "quantile of empty recorder")]
    fn quantile_empty_panics() {
        LatencyRecorder::new().quantile(0.5);
    }
}

/// Streaming quantile estimation with the P² algorithm (Jain & Chlamtac,
/// 1985): five markers, O(1) memory, no sample retention.
///
/// [`LatencyRecorder`] keeps every sample for exact figures; `P2Quantile`
/// serves long-running monitors — e.g. the runtime p95 estimate a
/// deployment would feed into its deadline choice (§7.2) without storing
/// millions of latencies.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    heights: [f64; 5],
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    count: usize,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not strictly between 0 and 1.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0,1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Observes one duration.
    pub fn observe(&mut self, d: Duration) {
        self.observe_f64(d.as_nanos() as f64);
    }

    /// Observes one raw value.
    pub fn observe_f64(&mut self, x: f64) {
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        self.count += 1;
        // Find the cell k the observation falls into and clamp extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };
        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }
        // Adjust the three middle markers by parabolic (or linear)
        // interpolation.
        for i in 1..4 {
            let delta = self.desired[i] - self.positions[i];
            let below = self.positions[i] - self.positions[i - 1];
            let above = self.positions[i + 1] - self.positions[i];
            if (delta >= 1.0 && above > 1.0) || (delta <= -1.0 && below > 1.0) {
                let sign = delta.signum();
                let candidate = self.parabolic(i, sign);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, sign)
                    };
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + sign / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + sign) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - sign) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, sign: f64) -> f64 {
        let j = (i as f64 + sign) as usize;
        self.heights[i]
            + sign * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current quantile estimate.
    ///
    /// # Panics
    ///
    /// Panics before any observation.
    pub fn estimate(&self) -> Duration {
        Duration::from_nanos(self.estimate_f64().max(0.0) as u64)
    }

    /// The raw estimate (exact order statistic until five samples).
    pub fn estimate_f64(&self) -> f64 {
        assert!(self.count > 0, "estimate before any observation");
        if self.count < 5 {
            let mut tmp: Vec<f64> = self.heights[..self.count].to_vec();
            tmp.sort_by(f64::total_cmp);
            let rank = ((self.q * self.count as f64).ceil() as usize).clamp(1, self.count);
            return tmp[rank - 1];
        }
        self.heights[2]
    }

    /// Observations seen so far.
    pub fn count(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod p2_tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn tracks_uniform_p95_within_a_few_percent() {
        let mut p2 = P2Quantile::new(0.95);
        let mut exact = LatencyRecorder::new();
        let mut rng = SimRng::new(9);
        for _ in 0..50_000 {
            let x = rng.range_u64(0, 1_000_000);
            p2.observe(Duration::from_nanos(x));
            exact.record(Duration::from_nanos(x));
        }
        let est = p2.estimate().as_nanos() as f64;
        let truth = exact.quantile(0.95).as_nanos() as f64;
        assert!(
            (est - truth).abs() / truth < 0.03,
            "p95 estimate {est} vs exact {truth}"
        );
    }

    #[test]
    fn tracks_heavy_tailed_median() {
        use crate::dist::{Distribution, LogNormal};
        let dist = LogNormal::from_median(5.0, 1.2);
        let mut p2 = P2Quantile::new(0.5);
        let mut rng = SimRng::new(10);
        for _ in 0..100_000 {
            p2.observe_f64(dist.sample(&mut rng));
        }
        let est = p2.estimate_f64();
        assert!((est - 5.0).abs() / 5.0 < 0.05, "median estimate {est}");
    }

    #[test]
    fn small_sample_is_exact() {
        let mut p2 = P2Quantile::new(0.5);
        for x in [30.0, 10.0, 20.0] {
            p2.observe_f64(x);
        }
        assert_eq!(p2.estimate_f64(), 20.0);
        assert_eq!(p2.count(), 3);
    }

    #[test]
    #[should_panic(expected = "estimate before any observation")]
    fn empty_estimate_panics() {
        P2Quantile::new(0.9).estimate_f64();
    }

    #[test]
    fn monotone_inputs_stay_bracketed() {
        let mut p2 = P2Quantile::new(0.9);
        for i in 0..10_000 {
            p2.observe_f64(f64::from(i));
        }
        let est = p2.estimate_f64();
        assert!((8_000.0..10_000.0).contains(&est), "p90 estimate {est}");
    }
}
