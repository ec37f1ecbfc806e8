//! Named counters, gauges, and bucketed histograms.
//!
//! Series are keyed by `(&'static str, u32)` — the static name plus the
//! node tag of the emitting sink — in [`FastMap`]s, so an update hashes the
//! key once instead of comparing names down a tree. Order is a read-time
//! concern: every read that exposes it (the digest fold, the per-node and
//! name listings, the histogram list) sorts by key first, so output is the
//! same name-then-node order as a `BTreeMap` and folds into an [`Fnv1a`]
//! digest byte-for-byte reproducibly.

use mitt_sim::{Duration, FastMap, Fnv1a};

/// Default histogram bucket upper bounds in nanoseconds: 250 µs doubling up
/// to 1 s, sized for millisecond-scale wait/prediction-error distributions.
pub const DEFAULT_BOUNDS_NS: [u64; 13] = [
    250_000,
    500_000,
    1_000_000,
    2_000_000,
    4_000_000,
    8_000_000,
    16_000_000,
    32_000_000,
    64_000_000,
    128_000_000,
    256_000_000,
    512_000_000,
    1_000_000_000,
];

/// A fixed-bucket histogram over `u64` samples (nanoseconds by convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is the overflow bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds, which must
    /// be strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of samples recorded.
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating).
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Buckets as `(upper_bound, count)`; the final bucket has no bound
    /// (`None`) and holds overflow samples.
    pub fn buckets(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.bounds.get(i).copied(), c))
    }

    /// Folds bounds, counts, and totals into a digest.
    pub fn fold(&self, h: &mut Fnv1a) {
        h.write_u64_slice(&self.bounds);
        h.write_u64_slice(&self.counts);
        h.write_u64(self.total);
        h.write_u64(self.sum);
    }
}

/// Registry of counters, gauges, and histograms; reads are key-ordered.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: FastMap<(&'static str, u32), u64>,
    gauges: FastMap<(&'static str, u32), i64>,
    histograms: FastMap<&'static str, Histogram>,
}

/// The entries of `map` sorted by key.
fn sorted<K: Ord + Copy, V>(map: &FastMap<K, V>) -> Vec<(K, &V)> {
    let mut entries: Vec<(K, &V)> = map.iter().map(|(&k, v)| (k, v)).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    entries
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` under node tag `key`.
    pub fn add(&mut self, name: &'static str, key: u32, delta: u64) {
        *self.counters.entry((name, key)).or_insert(0) += delta;
    }

    /// Sets the gauge `name` under node tag `key`.
    pub fn set_gauge(&mut self, name: &'static str, key: u32, value: i64) {
        self.gauges.insert((name, key), value);
    }

    /// Records a sample into the histogram `name`, creating it with
    /// [`DEFAULT_BOUNDS_NS`] on first use. Histograms are global (merged
    /// across nodes).
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(&DEFAULT_BOUNDS_NS))
            .observe(value);
    }

    /// Sum of counter `name` across all node tags.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Per-node values of counter `name`, in node order.
    pub fn counter_by_key(&self, name: &str) -> impl Iterator<Item = (u32, u64)> {
        let mut per_node: Vec<(u32, u64)> = self
            .counters
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(&(_, k), &v)| (k, v))
            .collect();
        per_node.sort_unstable();
        per_node.into_iter()
    }

    /// All distinct counter names, in lexicographic order.
    pub fn counter_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.counters.keys().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// The gauge `name` under node tag `key`, if set.
    pub fn gauge(&self, name: &str, key: u32) -> Option<i64> {
        self.gauges.get(&(name, key)).copied()
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        sorted(&self.histograms).into_iter()
    }

    /// Number of distinct series (counters + gauges + histograms).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds every series — names, keys, and values in key order — into a
    /// digest.
    pub fn fold(&self, h: &mut Fnv1a) {
        h.write_usize(self.counters.len());
        for ((name, key), &v) in sorted(&self.counters) {
            h.write_str(name);
            h.write_u64(u64::from(key));
            h.write_u64(v);
        }
        h.write_usize(self.gauges.len());
        for ((name, key), &v) in sorted(&self.gauges) {
            h.write_str(name);
            h.write_u64(u64::from(key));
            h.write_i64(v);
        }
        h.write_usize(self.histograms.len());
        for (name, hist) in sorted(&self.histograms) {
            h.write_str(name);
            hist.fold(h);
        }
    }
}

/// Formats a nanosecond bucket bound the way reports print it.
pub fn bound_label(bound: Option<u64>) -> String {
    match bound {
        Some(ns) => format!("<= {}", Duration::from_nanos(ns)),
        None => "overflow".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut hist = Histogram::new(&[10, 20]);
        hist.observe(5);
        hist.observe(10); // inclusive upper bound
        hist.observe(15);
        hist.observe(99); // overflow
        let buckets: Vec<_> = hist.buckets().collect();
        assert_eq!(buckets, vec![(Some(10), 2), (Some(20), 1), (None, 1)]);
        assert_eq!(hist.total(), 4);
        assert_eq!(hist.sum(), 129);
    }

    #[test]
    fn registry_fold_is_insertion_order_independent() {
        let mut a = MetricsRegistry::new();
        a.add("x", 0, 1);
        a.add("y", 1, 2);
        a.observe("h", 500_000);
        let mut b = MetricsRegistry::new();
        b.observe("h", 500_000);
        b.add("y", 1, 2);
        b.add("x", 0, 1);
        let mut ha = Fnv1a::new();
        a.fold(&mut ha);
        let mut hb = Fnv1a::new();
        b.fold(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn counter_totals_and_per_key_views() {
        let mut m = MetricsRegistry::new();
        m.add("ebusy", 0, 3);
        m.add("ebusy", 2, 4);
        m.add("other", 0, 9);
        assert_eq!(m.counter_total("ebusy"), 7);
        let per: Vec<_> = m.counter_by_key("ebusy").collect();
        assert_eq!(per, vec![(0, 3), (2, 4)]);
        assert_eq!(m.counter_names(), vec!["ebusy", "other"]);
    }

    #[test]
    fn gauges_set_and_read_back() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("queued", 1, 5);
        m.set_gauge("queued", 1, 7);
        assert_eq!(m.gauge("queued", 1), Some(7));
        assert_eq!(m.gauge("queued", 0), None);
    }
}
