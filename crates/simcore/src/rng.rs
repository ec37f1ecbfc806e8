//! Deterministic pseudo-random number generation.
//!
//! The simulator cannot depend on ambient entropy: every experiment must be
//! reproducible from a single seed. [`SimRng`] is a self-contained
//! xoshiro256** generator seeded through SplitMix64, so its stream is stable
//! across platforms and crate versions (unlike `rand::rngs::SmallRng`, whose
//! algorithm is explicitly unspecified).
//!
//! [`SimRng::fork`] derives statistically independent child generators, one
//! per simulated component, so adding a consumer of randomness to one
//! component never perturbs the stream seen by another.

/// A seedable, forkable xoshiro256** PRNG.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator.
    ///
    /// The child's stream is decorrelated from the parent's by hashing one
    /// parent output through SplitMix64, and the parent advances by exactly
    /// one step regardless of how the child is used.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() ^ 0xA076_1D64_78BD_642F)
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `(0, 1]`, safe as a log argument.
    pub fn unit_open_f64(&mut self) -> f64 {
        1.0 - self.unit_f64()
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire's nearly-divisionless bounded sampling with rejection to
        // remove modulo bias.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// A uniform `usize` in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit_f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Fisher-Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_f64_in_range_and_roughly_uniform() {
        let mut rng = SimRng::new(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn range_u64_covers_bounds_without_bias() {
        let mut rng = SimRng::new(3);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.range_u64(10, 15) as usize - 10] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = SimRng::new(9);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let matches = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn fork_advances_parent_exactly_one_step() {
        let mut a = SimRng::new(5);
        let mut b = SimRng::new(5);
        let _child = a.fork();
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(13);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
