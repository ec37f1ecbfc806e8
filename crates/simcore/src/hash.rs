//! A fast, deterministic hasher for the simulator's integer-keyed maps.
//!
//! std's default `RandomState` (SipHash-1-3, seeded per process) defends
//! against adversarial keys, which a simulator keyed by its own IO ids and
//! page numbers does not have, and its cost shows up on every per-IO map
//! lookup. [`FastHasher`] is the Fx hash used inside rustc: one rotate, xor
//! and multiply per word, with no per-process seed.
//!
//! Determinism of the hash does not make iteration order meaningful: it
//! still depends on insertion history and capacity. mitt-lint's D003 rule
//! treats [`FastMap`]/[`FastSet`] exactly like `HashMap`/`HashSet`.
//!
//! # Examples
//!
//! ```
//! use mitt_sim::hash::FastMap;
//!
//! let mut m: FastMap<u64, &str> = FastMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (from rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style streaming hasher; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            self.add(u64::from_le_bytes(buf));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves the best-mixed bits at the top; rotate them into
    /// the low bits the table indexes with, so keys sharing low zero bits
    /// (page-aligned offsets) still spread.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `HashMap` over [`FastHasher`]; build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` over [`FastHasher`]; build with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(x)
    }

    #[test]
    fn hashing_is_a_pure_function_of_the_key() {
        assert_eq!(hash_of((3usize, 42u64)), hash_of((3usize, 42u64)));
        assert_ne!(hash_of((3usize, 42u64)), hash_of((42usize, 3u64)));
        assert_ne!(hash_of(1u64), hash_of(2u64));
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        assert_ne!(hash_of("abcdefghi"), hash_of("abcdefghj"));
        assert_ne!(hash_of([0u8; 3]), hash_of([0u8; 4]));
    }

    #[test]
    fn page_aligned_keys_spread_over_low_bits() {
        // 256 keys 4 KiB apart must not pile into a handful of buckets.
        let mut low: Vec<u64> = (0..256u64).map(|k| hash_of(k << 12) & 0xff).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }
}
