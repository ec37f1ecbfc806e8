//! Named counters, gauges, and bucketed histograms.
//!
//! Series are keyed by `(&'static str, u32)` — the static name plus the
//! node tag of the emitting sink — and by content: two equal names at
//! different addresses are one series. Each kind of series keeps its
//! values in a slot vector, a content-keyed [`FastMap`] from key to slot,
//! and a small direct-mapped cache keyed by the name's address, its
//! length and the node tag. A traced get updates about nine series; with
//! the cache, an update compares the address, length and tag and indexes
//! the slot, and hashes and compares the name's bytes only on a miss.
//!
//! Order is a read-time concern: every read that exposes it (the digest
//! fold, the per-node and name listings, the histogram list) sorts by key
//! first, so output is the same name-then-node order as a `BTreeMap` and
//! folds into an [`Fnv1a`] digest byte-for-byte reproducibly.

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
        // The first bound >= value, or the overflow bucket past them all.
        let idx = self.bounds.partition_point(|&b| b < value);
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
    counters: Series<u64>,
    gauges: Series<i64>,
    /// Histograms are global: every one sits under node tag 0.
    histograms: Series<Histogram>,
}

/// Lines in a [`Series`] cache, a power of two. A traced cluster run
/// updates a few hundred `(name, node)` series per kind.
const CACHE_LINES: usize = 512;

/// One direct-mapped cache line: a series key by address, and its slot.
#[derive(Debug, Clone, Copy, Default)]
struct CacheLine {
    /// The name's address; 0 (never a reference's address) marks an
    /// empty line.
    ptr: usize,
    len: usize,
    key: u32,
    slot: u32,
}

/// One kind of series: values in first-use order, found by content through
/// `index` and by address through `cache`.
#[derive(Debug, Clone)]
struct Series<V> {
    slots: Vec<((&'static str, u32), V)>,
    index: FastMap<(&'static str, u32), u32>,
    cache: Box<[CacheLine; CACHE_LINES]>,
}

impl<V> Default for Series<V> {
    fn default() -> Self {
        Series {
            slots: Vec::new(),
            index: FastMap::default(),
            cache: Box::new([CacheLine::default(); CACHE_LINES]),
        }
    }
}

impl<V> Series<V> {
    /// The value of series `(name, key)`, created with `init` on first use.
    #[inline]
    fn slot(&mut self, name: &'static str, key: u32, init: impl FnOnce() -> V) -> &mut V {
        let ptr = name.as_ptr() as usize;
        let mix = (ptr as u64).rotate_left(26) ^ u64::from(key);
        let line_of =
            mix.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CACHE_LINES.trailing_zeros());
        let line = &mut self.cache[line_of as usize % CACHE_LINES];
        if line.ptr == ptr && line.len == name.len() && line.key == key {
            return &mut self.slots[line.slot as usize].1;
        }
        let next = u32::try_from(self.slots.len()).expect("fewer than 2^32 series");
        let slot = *self.index.entry((name, key)).or_insert(next);
        if slot == next {
            self.slots.push(((name, key), init()));
        }
        *line = CacheLine {
            ptr,
            len: name.len(),
            key,
            slot,
        };
        &mut self.slots[slot as usize].1
    }

    /// The value of series `(name, key)`, looked up by content.
    fn get(&self, name: &str, key: u32) -> Option<&V> {
        let &slot = self.index.get(&(name, key))?;
        Some(&self.slots[slot as usize].1)
    }

    /// Every series of `name`, in first-use order.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (u32, &'a V)> + 'a {
        self.slots
            .iter()
            .filter(move |((n, _), _)| *n == name)
            .map(|&((_, k), ref v)| (k, v))
    }

    /// Every series, sorted by key.
    fn sorted(&self) -> Vec<((&'static str, u32), &V)> {
        let mut entries: Vec<_> = self.slots.iter().map(|(k, v)| (*k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` under node tag `key`.
    pub fn add(&mut self, name: &'static str, key: u32, delta: u64) {
        *self.counters.slot(name, key, || 0) += delta;
    }

    /// Sets the gauge `name` under node tag `key`.
    pub fn set_gauge(&mut self, name: &'static str, key: u32, value: i64) {
        *self.gauges.slot(name, key, || 0) = value;
    }

    /// Records a sample into the histogram `name`, creating it with
    /// [`DEFAULT_BOUNDS_NS`] on first use. Histograms are global (merged
    /// across nodes).
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms
            .slot(name, 0, || Histogram::new(&DEFAULT_BOUNDS_NS))
            .observe(value);
    }

    /// Sum of counter `name` across all node tags.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.named(name).map(|(_, v)| *v).sum()
    }

    /// Per-node values of counter `name`, in node order.
    pub fn counter_by_key(&self, name: &str) -> impl Iterator<Item = (u32, u64)> {
        let mut per_node: Vec<(u32, u64)> =
            self.counters.named(name).map(|(k, &v)| (k, v)).collect();
        per_node.sort_unstable();
        per_node.into_iter()
    }

    /// All distinct counter names, in lexicographic order.
    pub fn counter_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> =
            self.counters.slots.iter().map(|&((n, _), _)| n).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// The gauge `name` under node tag `key`, if set.
    pub fn gauge(&self, name: &str, key: u32) -> Option<i64> {
        self.gauges.get(name, key).copied()
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name, 0)
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms
            .sorted()
            .into_iter()
            .map(|((name, _), hist)| (name, hist))
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
        for ((name, key), &v) in self.counters.sorted() {
            h.write_str(name);
            h.write_u64(u64::from(key));
            h.write_u64(v);
        }
        h.write_usize(self.gauges.len());
        for ((name, key), &v) in self.gauges.sorted() {
            h.write_str(name);
            h.write_u64(u64::from(key));
            h.write_i64(v);
        }
        h.write_usize(self.histograms.len());
        for (name, hist) in self.histograms() {
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

    /// The content-keyed registry the cached one must agree with: one
    /// `FastMap` per kind, sorted on every read.
    #[derive(Default)]
    struct Reference {
        counters: FastMap<(&'static str, u32), u64>,
        gauges: FastMap<(&'static str, u32), i64>,
        histograms: FastMap<&'static str, Histogram>,
    }

    fn by_key<K: Ord + Copy, V>(map: &FastMap<K, V>) -> Vec<(K, &V)> {
        let mut entries: Vec<(K, &V)> = map.iter().map(|(&k, v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }

    impl Reference {
        fn fold(&self, h: &mut Fnv1a) {
            h.write_usize(self.counters.len());
            for ((name, key), &v) in by_key(&self.counters) {
                h.write_str(name);
                h.write_u64(u64::from(key));
                h.write_u64(v);
            }
            h.write_usize(self.gauges.len());
            for ((name, key), &v) in by_key(&self.gauges) {
                h.write_str(name);
                h.write_u64(u64::from(key));
                h.write_i64(v);
            }
            h.write_usize(self.histograms.len());
            for (name, hist) in by_key(&self.histograms) {
                h.write_str(name);
                hist.fold(h);
            }
        }
    }

    fn digest(fold: impl FnOnce(&mut Fnv1a)) -> u64 {
        let mut h = Fnv1a::new();
        fold(&mut h);
        h.finish()
    }

    #[test]
    fn cached_registry_matches_a_content_keyed_reference() {
        // Equal names at distinct addresses must share one series, and a
        // name's prefix at the same address must not.
        let leaked = |s: &str| -> &'static str { Box::leak(s.to_owned().into_boxed_str()) };
        let hop = leaked("net.hop");
        let names = [
            "node.submit",
            leaked("node.submit"),
            "net.hop",
            hop,
            leaked("net.hop"),
            "sched.queued",
            "",
            leaked(""),
            &hop[..3],
        ];
        assert_ne!(names[0].as_ptr(), names[1].as_ptr());
        const KEYS: u64 = CACHE_LINES as u64 + 88;
        let mut rng = mitt_sim::SimRng::new(0x5eed);
        let mut pick = |n: u64| rng.next_u64() % n;
        let mut got = MetricsRegistry::new();
        let mut want = Reference::default();
        for step in 0..20_000 {
            let name = names[pick(names.len() as u64) as usize];
            // More node tags than cache lines, so lines are contended.
            let key = pick(KEYS) as u32;
            let value = pick(1 << 31);
            match pick(3) {
                0 => {
                    got.add(name, key, value);
                    *want.counters.entry((name, key)).or_insert(0) += value;
                }
                1 => {
                    got.set_gauge(name, key, value as i64 - (1 << 30));
                    want.gauges.insert((name, key), value as i64 - (1 << 30));
                }
                _ => {
                    got.observe(name, value);
                    want.histograms
                        .entry(name)
                        .or_insert_with(|| Histogram::new(&DEFAULT_BOUNDS_NS))
                        .observe(value);
                }
            }
            if step % 1_000 != 999 {
                continue;
            }
            assert_eq!(
                digest(|h| got.fold(h)),
                digest(|h| want.fold(h)),
                "step {step}"
            );
            let want_len = want.counters.len() + want.gauges.len() + want.histograms.len();
            assert_eq!(got.len(), want_len);
            let mut want_names: Vec<_> = want.counters.keys().map(|&(n, _)| n).collect();
            want_names.sort_unstable();
            want_names.dedup();
            assert_eq!(got.counter_names(), want_names);
            for name in names {
                let per_node: Vec<_> = by_key(&want.counters)
                    .into_iter()
                    .filter(|&((n, _), _)| n == name)
                    .map(|((_, k), &v)| (k, v))
                    .collect();
                assert_eq!(got.counter_by_key(name).collect::<Vec<_>>(), per_node);
                let total: u64 = per_node.iter().map(|&(_, v)| v).sum();
                assert_eq!(got.counter_total(name), total);
                for key in 0..KEYS as u32 {
                    assert_eq!(got.gauge(name, key), want.gauges.get(&(name, key)).copied());
                }
                assert_eq!(got.histogram(name), want.histograms.get(name));
            }
            let hists: Vec<_> = got.histograms().collect();
            let want_hists: Vec<_> = by_key(&want.histograms);
            assert_eq!(hists, want_hists);
        }
    }

    #[test]
    fn histogram_bucket_search_matches_a_linear_scan() {
        let bounds = DEFAULT_BOUNDS_NS;
        let mut hist = Histogram::new(&bounds);
        let mut counts = [0u64; DEFAULT_BOUNDS_NS.len() + 1];
        let edges = bounds.iter().flat_map(|&b| [b - 1, b, b + 1]);
        for v in edges.chain([0, u64::MAX]) {
            hist.observe(v);
            counts[bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())] += 1;
        }
        let got: Vec<u64> = hist.buckets().map(|(_, c)| c).collect();
        assert_eq!(got, counts);
    }
}
