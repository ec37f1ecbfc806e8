//! Probability distributions used by workloads, noise processes, and device
//! jitter models.
//!
//! Everything here samples through [`SimRng`], so simulations remain
//! deterministic. The Zipfian sampler follows the YCSB/Gray rejection
//! construction so key popularity matches the paper's YCSB workloads.

use std::sync::{Mutex, PoisonError};

use crate::rng::SimRng;

/// A sampleable distribution over `f64`.
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

/// Exponential distribution with the given rate parameter (1/mean).
///
/// Used for Poisson arrival processes (open-loop request arrivals, noise
/// burst arrivals).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `rate` (> 0).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "invalid rate {rate}");
        Exponential { rate }
    }

    /// Creates an exponential distribution with the given mean (> 0).
    pub fn from_mean(mean: f64) -> Self {
        Exponential::new(1.0 / mean)
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.unit_open_f64().ln() / self.rate
    }
}

/// Normal distribution sampled via Box-Muller.
#[derive(Debug, Clone, Copy)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(std_dev >= 0.0 && std_dev.is_finite(), "invalid std dev");
        Normal { mean, std_dev }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u1 = rng.unit_open_f64();
        let u2 = rng.unit_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.std_dev * z
    }
}

/// Log-normal distribution: `exp(Normal(mu, sigma))`.
///
/// Heavy-tailed; models noise burst lengths and service-time outliers.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates a log-normal from the underlying normal's `mu` and `sigma`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            norm: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal with the given median (`exp(mu)`) and `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not strictly positive.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Bounded Pareto distribution over `[lo, hi]` with shape `alpha`.
///
/// Models heavy-tailed noise inter-arrival times (Fig 3d-f of the paper
/// shows inter-arrivals spread over many seconds with a heavy tail).
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
        assert!(alpha > 0.0, "alpha must be positive");
        BoundedPareto { lo, hi, alpha }
    }
}

impl Distribution for BoundedPareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse-CDF sampling for the bounded Pareto.
        let u = rng.unit_f64();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

/// Uniform distribution over `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "empty range");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }
}

/// Zipfian distribution over `0..n` with skew `theta`, using the
/// Gray et al. construction popularized by YCSB.
///
/// Item 0 is the most popular. `theta = 0.99` matches YCSB's default.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Creates a Zipfian distribution over `0..n`.
    ///
    /// The first construction with a given `(n, theta)` in a process is
    /// O(n) (it sums the zeta normalization constant); later ones read the
    /// same sum from a process-wide memo. Sampling is O(1).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty item space");
        assert!((0.0..1.0).contains(&theta) && theta > 0.0, "theta in (0,1)");
        let zetan = zeta_memoised(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws one item rank in `0..n` (0 = most popular).
    pub fn sample_index(&self, rng: &mut SimRng) -> u64 {
        let u = rng.unit_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let spread = self.eta * u - self.eta + 1.0;
        ((self.n as f64) * spread.powf(self.alpha)) as u64
    }

    /// The zeta(2, theta) constant, exposed for testing.
    #[doc(hidden)]
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

/// Zeta sums computed so far in this process, as `(n, theta bits, sum)`.
///
/// A figure binary builds many clusters over the same record count, and
/// the sum costs one `powf` per record. Entries are never evicted: a
/// process sees a handful of `(n, theta)` pairs, at 24 bytes each.
static ZETA_MEMO: Mutex<Vec<(u64, u64, f64)>> = Mutex::new(Vec::new());

/// `Zipfian::zeta(n, theta)`, summed once per exact `(n, theta)` key.
///
/// The memoised value is the very sum a direct call returns (same terms,
/// same left-to-right order), so it is bit-identical. The lock is not
/// held while summing; two threads missing at once both sum and the
/// second keeps the first entry, which has the same bits. Every update is
/// a single `push`, so a guard recovered from a poisoned lock still holds
/// only complete entries.
fn zeta_memoised(n: u64, theta: f64) -> f64 {
    let key = (n, theta.to_bits());
    let find = |memo: &[(u64, u64, f64)]| {
        memo.iter()
            .find(|&&(en, et, _)| (en, et) == key)
            .map(|&(_, _, z)| z)
    };
    if let Some(z) = find(&ZETA_MEMO.lock().unwrap_or_else(PoisonError::into_inner)) {
        return z;
    }
    let z = Zipfian::zeta(n, theta);
    let mut memo = ZETA_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if find(&memo).is_none() {
        memo.push((key.0, key.1, z));
    }
    z
}

impl Distribution for Zipfian {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_index(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(dist: &impl Distribution, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::from_mean(4.0);
        let m = mean_of(&d, 1, 200_000);
        assert!((m - 4.0).abs() < 0.05, "mean={m}");
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::new(2.0);
        let mut rng = SimRng::new(2);
        assert!((0..10_000).all(|_| d.sample(&mut rng) > 0.0));
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 3.0);
        let mut rng = SimRng::new(3);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var - 9.0).abs() < 0.2, "var={var}");
    }

    #[test]
    fn lognormal_median_matches() {
        let d = LogNormal::from_median(5.0, 1.0);
        let mut rng = SimRng::new(4);
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[50_000];
        assert!((median - 5.0).abs() < 0.2, "median={median}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = BoundedPareto::new(0.1, 20.0, 1.2);
        let mut rng = SimRng::new(5);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((0.1..=20.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn zipfian_ranks_in_range_and_skewed() {
        let d = Zipfian::new(1000, 0.99);
        let mut rng = SimRng::new(6);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            let i = d.sample_index(&mut rng);
            assert!(i < 1000);
            counts[i as usize] += 1;
        }
        // Rank 0 should dominate and the head should hold most of the mass.
        assert!(counts[0] > counts[10] && counts[0] > counts[500].max(1) * 20);
        let head: u32 = counts[..100].iter().sum();
        assert!(head as f64 > 0.6 * 100_000.0, "head mass {head}");
    }

    #[test]
    fn zeta_memo_hits_equal_the_direct_sum_and_keys_do_not_alias() {
        // Record counts no other test uses, so each key's first call here
        // is a miss and its second a hit.
        let keys = [(1_237, 0.99), (1_238, 0.99), (1_237, 0.98), (1_237, 0.5)];
        for &(n, theta) in &keys {
            let direct = Zipfian::zeta(n, theta);
            let first = Zipfian::new(n, theta).zetan;
            let hit = Zipfian::new(n, theta).zetan;
            assert_eq!(first.to_bits(), direct.to_bits(), "miss for ({n}, {theta})");
            assert_eq!(hit.to_bits(), direct.to_bits(), "hit for ({n}, {theta})");
            let memo = ZETA_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
            let entries: Vec<f64> = memo
                .iter()
                .filter(|&&(en, et, _)| (en, et) == (n, theta.to_bits()))
                .map(|&(_, _, z)| z)
                .collect();
            assert_eq!(entries.len(), 1, "one entry per key");
            assert_eq!(entries[0].to_bits(), direct.to_bits());
        }
        // Neighbouring keys hold distinct sums, so an aliased lookup would
        // have shown above as a bit mismatch.
        let sums: Vec<u64> = keys
            .iter()
            .map(|&(n, t)| Zipfian::zeta(n, t).to_bits())
            .collect();
        for (i, a) in sums.iter().enumerate() {
            assert!(sums[i + 1..].iter().all(|b| b != a), "keys {i} alias");
        }
    }

    #[test]
    fn uniform_in_range() {
        let d = Uniform::new(-2.0, 3.0);
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((-2.0..3.0).contains(&x));
        }
    }
}
