//! Order-sensitive result digests for determinism checks.
//!
//! The static rules in `mitt-lint` keep nondeterminism *sources* out of the
//! tree; this module is the dynamic complement. A simulation run folds its
//! observable outputs — completion times, counters, latency samples — into
//! one [`Fnv1a`] digest, and the double-run harness (`tests/determinism.rs`
//! at the workspace root) asserts that two runs from the same seed produce
//! the same 64-bit digest. Any nondeterminism anywhere in the event stream
//! cascades into a digest mismatch, bit-for-bit.
//!
//! FNV-1a is used because it is tiny, dependency-free, stable across
//! platforms, and *order-sensitive*: it detects event reorderings that an
//! order-insensitive checksum (e.g. XOR of hashes) would cancel out.

/// A 64-bit FNV-1a streaming hasher.
///
/// # Examples
///
/// ```
/// use mitt_sim::digest::Fnv1a;
///
/// let mut a = Fnv1a::new();
/// a.write_u64(42);
/// let mut b = Fnv1a::new();
/// b.write_u64(42);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    state: u64,
}

/// FNV-1a 64-bit offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub const fn new() -> Self {
        Fnv1a {
            state: OFFSET_BASIS,
        }
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Folds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Folds an `i64` (little-endian bytes).
    pub fn write_i64(&mut self, x: i64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64` so digests agree across platforms.
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Folds a string's UTF-8 bytes, length-prefixed so concatenations
    /// cannot collide (`"ab" + "c"` vs `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Folds a slice of `u64` samples, length-prefixed.
    pub fn write_u64_slice(&mut self, xs: &[u64]) {
        self.write_usize(xs.len());
        for &x in xs {
            self.write_u64(x);
        }
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Runs `fold` twice on fresh hashers and returns both digests.
///
/// The closure must fully describe one simulation run (construct, run, fold
/// outputs); determinism holds iff the two digests are equal. Keeping the
/// construction inside the closure guarantees no state leaks between runs.
pub fn double_run<F: FnMut(&mut Fnv1a)>(mut fold: F) -> (u64, u64) {
    let mut first = Fnv1a::new();
    fold(&mut first);
    let mut second = Fnv1a::new();
    fold(&mut second);
    (first.finish(), second.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv1a_vectors() {
        // Reference vectors from the canonical FNV test suite.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn order_sensitive() {
        let mut ab = Fnv1a::new();
        ab.write_u64(1);
        ab.write_u64(2);
        let mut ba = Fnv1a::new();
        ba.write_u64(2);
        ba.write_u64(1);
        assert_ne!(ab.finish(), ba.finish());
    }

    #[test]
    fn length_prefix_prevents_concat_collisions() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn double_run_agrees_for_pure_folds() {
        let (x, y) = double_run(|h| {
            let mut rng = crate::SimRng::new(7);
            for _ in 0..100 {
                h.write_u64(rng.next_u64());
            }
        });
        assert_eq!(x, y);
    }
}
