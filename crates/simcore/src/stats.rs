//! Latency statistics: exact percentiles, CDF extraction, and a
//! power-of-two histogram.
//!
//! The paper reports latency CDFs (Figures 4-8, 11-13), percentile tables
//! (p75/p90/p95/p99), and percentage latency reductions between strategies
//! (Figures 5b, 6d, 7b, 8b). [`LatencyRecorder`] collects every sample so
//! those statistics are exact, matching how the authors post-process YCSB
//! client logs.

use crate::digest::Fnv1a;
use crate::time::Duration;

/// Pushes `x` onto `v`, growing it by doubling as `Vec::push` does but
/// never past `limit` slots, so a vector whose final length is known
/// holds no slack past it and reaches each size no later than an
/// unbounded one would. Past `limit` it grows as `Vec::push` does.
pub fn push_within<T>(v: &mut Vec<T>, x: T, limit: usize) {
    if v.len() == v.capacity() {
        let grown = (v.capacity() * 2).max(4).min(limit);
        if grown > v.len() {
            v.reserve_exact(grown - v.len());
        }
    }
    v.push(x);
}

/// Collects latency samples and answers exact percentile/CDF queries.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
    sorted: bool,
    /// Most samples the recorder expects (see [`push_within`]).
    limit: usize,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::with_limit(usize::MAX)
    }
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder that expects at most `limit` samples:
    /// its buffer grows by doubling but never past `limit` slots.
    pub fn with_limit(limit: usize) -> Self {
        LatencyRecorder {
            samples: Vec::new(),
            sorted: false,
            limit,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        push_within(&mut self.samples, latency.as_nanos(), self.limit);
        self.sorted = false;
    }

    /// Samples the buffer can hold before it next grows.
    pub fn capacity(&self) -> usize {
        self.samples.capacity()
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

/// Power-of-two-bucket histogram of nanosecond samples: bucket `i` holds
/// values in `[2^i, 2^(i+1))` (zero counts as one), so the whole
/// nanosecond-to-centuries range fits in 64 buckets. Only non-empty
/// buckets are stored, as `(index, count)` pairs in ascending index
/// order: a timeline cell touches a few buckets, so an empty
/// histogram allocates nothing and a filled one holds a few pairs rather
/// than 64 counts. Quantiles are bucket upper bounds taken at integer
/// milli-quantiles (990 = p99), so they never touch a float.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pow2Hist {
    buckets: Vec<(u8, u64)>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Pow2Hist {
    /// An empty histogram.
    pub const fn new() -> Self {
        Pow2Hist {
            buckets: Vec::new(),
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one nanosecond sample.
    pub fn observe(&mut self, ns: u64) {
        let idx = (63 - ns.max(1).leading_zeros()) as u8;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(at) => self.buckets[at].1 += 1,
            Err(at) => {
                // A histogram gains at most 64 buckets, so growing by
                // exactly one costs few reallocations and no slack.
                self.buckets.reserve_exact(1);
                self.buckets.insert(at, (idx, 1));
            }
        }
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
        for &(i, c) in &self.buckets {
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
        for &(i, c) in &self.buckets {
            h.write_u64(u64::from(i));
            h.write_u64(c);
        }
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

    /// The dense form `Pow2Hist` had before it stored only non-empty
    /// buckets: 64 fixed counters. The sparse form must answer exactly as
    /// this does.
    struct DenseHist {
        counts: [u64; 64],
        total: u64,
        sum: u64,
        max: u64,
    }

    impl DenseHist {
        fn new() -> Self {
            DenseHist {
                counts: [0; 64],
                total: 0,
                sum: 0,
                max: 0,
            }
        }

        fn observe(&mut self, ns: u64) {
            self.counts[63 - ns.max(1).leading_zeros() as usize] += 1;
            self.total += 1;
            self.sum = self.sum.saturating_add(ns);
            self.max = self.max.max(ns);
        }

        fn mean_ns(&self) -> f64 {
            if self.total == 0 {
                0.0
            } else {
                self.sum as f64 / self.total as f64
            }
        }

        fn quantile_milli(&self, q_milli: u64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let rank =
                ((u128::from(self.total) * u128::from(q_milli)).div_ceil(1000)).max(1) as u64;
            let mut seen = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return 1u64 << (i + 1).min(63);
                }
            }
            1u64 << 63
        }

        fn digest(&self) -> u64 {
            let mut h = Fnv1a::new();
            h.write_u64(self.total);
            for (i, &c) in self.counts.iter().enumerate() {
                if c > 0 {
                    h.write_u64(i as u64);
                    h.write_u64(c);
                }
            }
            h.finish()
        }
    }

    fn assert_same(sparse: &Pow2Hist, dense: &DenseHist, ctx: &str) {
        assert_eq!(sparse.total(), dense.total, "{ctx}: total");
        assert_eq!(sparse.max_ns(), dense.max, "{ctx}: max");
        assert_eq!(
            sparse.mean_ns().to_bits(),
            dense.mean_ns().to_bits(),
            "{ctx}: mean"
        );
        for q in 0..=1000 {
            assert_eq!(
                sparse.quantile_milli(q),
                dense.quantile_milli(q),
                "{ctx}: quantile {q}"
            );
        }
        let mut h = Fnv1a::new();
        sparse.fold(&mut h);
        assert_eq!(h.finish(), dense.digest(), "{ctx}: fold");
    }

    #[test]
    fn sparse_pow2_hist_matches_the_dense_oracle() {
        // 0, 1, u64::MAX and both sides of every power-of-two edge.
        let mut edges = vec![0, 1, u64::MAX];
        for k in 1..64 {
            let p = 1u64 << k;
            edges.extend([p - 1, p, p + 1]);
        }
        for seed in [1u64, 7, 42, 0x9e37_79b9_7f4a_7c15] {
            let mut x = seed;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut sparse = Pow2Hist::new();
            let mut dense = DenseHist::new();
            assert_same(&sparse, &dense, "empty");
            for n in 0..3_000u64 {
                let r = next();
                // Mix edge values, latency-like values of a few buckets,
                // and full-range draws, so buckets arrive in every order.
                let ns = match r % 4 {
                    0 => edges[(r >> 8) as usize % edges.len()],
                    1 => 200_000 + (r >> 8) % 3_000_000,
                    2 => r >> (r >> 58),
                    _ => r >> 40,
                };
                sparse.observe(ns);
                dense.observe(ns);
                if n < 64 || n % 250 == 0 {
                    assert_same(&sparse, &dense, &format!("seed {seed} after {}", n + 1));
                }
            }
            assert_same(&sparse, &dense, &format!("seed {seed} at end"));
        }
    }

    #[test]
    fn push_within_doubles_up_to_the_limit_and_no_further() {
        let mut capped = Vec::new();
        let mut plain = Vec::new();
        for i in 0..100u64 {
            push_within(&mut capped, i, 100);
            plain.push(i);
            let expect = if plain.capacity() > 100 {
                100
            } else {
                plain.capacity()
            };
            assert_eq!(capped.capacity(), expect, "after {} pushes", i + 1);
        }
        assert_eq!(capped, plain);
        let mut r = LatencyRecorder::with_limit(5);
        for i in 0..5 {
            r.record(ms(i));
        }
        assert_eq!((r.len(), r.capacity()), (5, 5));
        r.record(ms(5));
        assert_eq!(r.len(), 6, "past the limit it still records");
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
    #[should_panic(expected = "quantile of empty recorder")]
    fn quantile_empty_panics() {
        LatencyRecorder::new().quantile(0.5);
    }
}
