//! OS page cache model (§4.4): LRU residency, mmap address checks,
//! fadvise-driven eviction, and swap pressure.
//!
//! MittCache's job is cheap: it walks existing buffer/page tables to decide
//! whether a `read()`/`addrcheck()` can be served from memory within the
//! SLO. This crate supplies those tables. The cache distinguishes pages
//! that were *never* loaded from pages that were resident and got swapped
//! out under memory contention — the paper's caveat that EBUSY should signal
//! contention (re-evicted pages), not cold first accesses.
//!
//! The model is page-granular with exact LRU: a doubly linked recency list
//! threaded through a slot array, so a touch, an insert, an eviction and the
//! removal of any one page are each O(1), and eviction order depends only on
//! the sequence of calls.
//!
//! Residency and swap history share one page table, as in an OS: one 4-byte
//! entry per page holding the page's LRU slot, "was resident, is not" or
//! "never resident", in 2 KiB chunks of 512 pages under a hashed directory.
//! A resident page costs its 16-byte slot plus 4 bytes of table; a chunk
//! holding a single page costs the whole 2 KiB. A page lookup is one
//! directory probe and an index.
//!
//! # Examples
//!
//! ```
//! use mitt_oscache::{PageCache, PageCacheConfig, PageState};
//!
//! let mut cache = PageCache::new(PageCacheConfig::default());
//! cache.insert_range(0, 8192);
//! assert!(cache.addrcheck(0, 8192).resident);
//! cache.fadvise_dontneed(0, 4096);
//! // A swapped-out page is contention; MittCache turns this into EBUSY.
//! assert_eq!(cache.page_state(0), PageState::SwappedOut);
//! assert!(cache.addrcheck(0, 8192).contended);
//! ```

use mitt_sim::{Duration, FastMap, SimRng};

/// Marks an absent link.
const NIL: u32 = u32::MAX;

/// log2 of the pages one page-table chunk covers.
const CHUNK_SHIFT: u32 = 9;

/// Pages per page-table chunk: 512 four-byte entries, 2 KiB.
const CHUNK_PAGES: usize = 1 << CHUNK_SHIFT;

/// Page-table entry of a page that has never been resident.
const NEVER: u32 = u32::MAX;

/// Page-table entry of a page that was resident and is not.
const OUT: u32 = u32::MAX - 1;

/// Result of checking one page's residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// In the page cache; a read is a memory copy.
    Resident,
    /// Never been brought in — a cold miss, not contention.
    NeverLoaded,
    /// Was resident but evicted (fadvise, LRU pressure, swap): the
    /// contention signal MittCache turns into EBUSY.
    SwappedOut,
}

/// Result of an [`PageCache::addrcheck`] over a byte range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeCheck {
    /// True if every page of the range is resident.
    pub resident: bool,
    /// True if at least one non-resident page was previously resident
    /// (i.e. the miss is due to memory contention).
    pub contended: bool,
    /// Pages (by page number) that must be read from storage.
    pub missing_pages: Vec<u64>,
}

/// Static parameters of the page cache.
#[derive(Debug, Clone)]
pub struct PageCacheConfig {
    /// Page size in bytes.
    pub page_size: u32,
    /// Capacity in pages.
    pub capacity_pages: usize,
    /// Latency of serving a cached read (memory copy + syscall).
    pub hit_latency: Duration,
}

impl Default for PageCacheConfig {
    /// 4 KB pages, 1M pages (4 GB), ~20 µs hit latency — matching the
    /// paper's "latencies without noise are expected to be ~0.02ms (OS
    /// cache)" for 4 KB cached reads.
    fn default() -> Self {
        PageCacheConfig {
            page_size: 4096,
            capacity_pages: 1 << 20,
            hit_latency: Duration::from_micros(20),
        }
    }
}

/// Page number -> entry: the page's LRU slot, [`OUT`] or [`NEVER`].
///
/// Entries sit in 512-page chunks keyed by `page >> 9`, the leaf level of
/// a two-level page table under a hashed directory; a page whose chunk is
/// absent is [`NEVER`]. A chunk is never freed, so a page keeps its swap
/// history for the cache's lifetime.
#[derive(Default)]
struct PageTable {
    chunks: FastMap<u64, Box<[u32; CHUNK_PAGES]>>,
    /// The chunk keys in ascending order, rebuilt by each
    /// [`PageTable::resident_sorted`]; kept so that a swap-out allocates
    /// only its page list.
    sorted_keys: Vec<u64>,
}

/// A page's index within its chunk.
fn in_chunk(page: u64) -> usize {
    (page & (CHUNK_PAGES as u64 - 1)) as usize
}

impl PageTable {
    fn get(&self, page: u64) -> u32 {
        self.chunks
            .get(&(page >> CHUNK_SHIFT))
            .map_or(NEVER, |chunk| chunk[in_chunk(page)])
    }

    /// The entry of `page`, or `None` if its chunk is absent.
    fn get_mut(&mut self, page: u64) -> Option<&mut u32> {
        self.chunks
            .get_mut(&(page >> CHUNK_SHIFT))
            .map(|chunk| &mut chunk[in_chunk(page)])
    }

    /// The entry of `page`, adding its chunk if absent.
    fn entry(&mut self, page: u64) -> &mut u32 {
        let chunk = self
            .chunks
            .entry(page >> CHUNK_SHIFT)
            .or_insert_with(|| Box::new([NEVER; CHUNK_PAGES]));
        &mut chunk[in_chunk(page)]
    }

    /// The `resident` resident pages, in ascending page order.
    fn resident_sorted(&mut self, resident: usize) -> Vec<u64> {
        self.sorted_keys.clear();
        self.sorted_keys.extend(self.chunks.keys());
        self.sorted_keys.sort_unstable(); // Hash-map order is unspecified; fix it.
        let mut pages = Vec::with_capacity(resident);
        for key in &self.sorted_keys {
            let chunk = &self.chunks[key];
            pages.extend(
                (0..CHUNK_PAGES)
                    .filter(|&i| chunk[i] < OUT)
                    .map(|i| key << CHUNK_SHIFT | i as u64),
            );
        }
        pages
    }
}

#[derive(Clone, Copy)]
struct Slot {
    page: u64,
    /// Next more recently used slot; unused while the slot is free.
    newer: u32,
    /// Next less recently used slot, or the next free slot.
    older: u32,
}

/// Exact LRU order over slots, linked newest to oldest. A released slot
/// joins a free list chained through `older` and is reused first.
struct Lru {
    slots: Vec<Slot>,
    newest: u32,
    oldest: u32,
    /// Head of the free-slot list.
    free: u32,
}

impl Lru {
    /// Takes a slot for `page` and makes it the most recently used.
    fn push(&mut self, page: u64) -> u32 {
        let slot = match self.free {
            NIL => {
                self.slots.push(Slot {
                    page,
                    newer: NIL,
                    older: NIL,
                });
                // At most capacity + 1 pages are resident at once, and
                // `PageCache::new` bounds the capacity below `OUT`.
                (self.slots.len() - 1) as u32
            }
            f => {
                self.free = self.slots[f as usize].older;
                self.slots[f as usize].page = page;
                f
            }
        };
        self.push_newest(slot);
        slot
    }

    /// Makes `slot` the most recently used.
    fn touch(&mut self, slot: u32) {
        if slot != self.newest {
            self.unlink(slot);
            self.push_newest(slot);
        }
    }

    /// Unlinks `slot` and puts it on the free list.
    fn release(&mut self, slot: u32) {
        self.unlink(slot);
        self.slots[slot as usize].older = self.free;
        self.free = slot;
    }

    /// The least recently used page.
    fn oldest_page(&self) -> Option<u64> {
        (self.oldest != NIL).then(|| self.slots[self.oldest as usize].page)
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { newer, older, .. } = self.slots[slot as usize];
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    fn push_newest(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.newer = NIL;
        s.older = self.newest;
        match self.newest {
            NIL => self.oldest = slot,
            n => self.slots[n as usize].newer = slot,
        }
        self.newest = slot;
    }
}

/// An exact-LRU page cache with swap-out tracking.
///
/// `table` maps each page to its slot in `lru` while it is resident, and
/// records whether a non-resident page ever was.
pub struct PageCache {
    cfg: PageCacheConfig,
    table: PageTable,
    lru: Lru,
    /// Pages whose table entry is a slot.
    resident: usize,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.capacity_pages` would let a slot index reach the
    /// page table's sentinel entries (`u32::MAX - 1` and up).
    pub fn new(cfg: PageCacheConfig) -> Self {
        assert!(
            cfg.capacity_pages < OUT as usize,
            "page cache capacity too large"
        );
        PageCache {
            cfg,
            table: PageTable::default(),
            lru: Lru {
                slots: Vec::new(),
                newest: NIL,
                oldest: NIL,
                free: NIL,
            },
            resident: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's static parameters.
    pub fn config(&self) -> &PageCacheConfig {
        &self.cfg
    }

    /// Pages a byte range `[offset, offset+len)` spans.
    pub fn pages_of(&self, offset: u64, len: u32) -> std::ops::RangeInclusive<u64> {
        let ps = u64::from(self.cfg.page_size);
        let first = offset / ps;
        let last = (offset + (u64::from(len).max(1) - 1)) / ps;
        first..=last
    }

    /// Residency state of one page.
    pub fn page_state(&self, page: u64) -> PageState {
        match self.table.get(page) {
            NEVER => PageState::NeverLoaded,
            OUT => PageState::SwappedOut,
            _ => PageState::Resident,
        }
    }

    /// Makes `page` resident and most recently used.
    fn bump(&mut self, page: u64) {
        let entry = self.table.entry(page);
        if *entry < OUT {
            self.lru.touch(*entry);
        } else {
            *entry = self.lru.push(page);
            self.resident += 1;
        }
    }

    /// Drops `page` if it is resident.
    fn remove(&mut self, page: u64) {
        if let Some(entry) = self.table.get_mut(page) {
            if *entry < OUT {
                self.lru.release(*entry);
                *entry = OUT;
                self.resident -= 1;
            }
        }
    }

    /// Walks the page table for a byte range without side effects other
    /// than statistics — the `addrcheck()` system call of §4.4.
    pub fn addrcheck(&self, offset: u64, len: u32) -> RangeCheck {
        let mut missing = Vec::new();
        let mut contended = false;
        for page in self.pages_of(offset, len) {
            match self.page_state(page) {
                PageState::Resident => {}
                PageState::NeverLoaded => missing.push(page),
                PageState::SwappedOut => {
                    contended = true;
                    missing.push(page);
                }
            }
        }
        RangeCheck {
            resident: missing.is_empty(),
            contended,
            missing_pages: missing,
        }
    }

    /// Performs a cached read access: bumps LRU stamps for resident pages
    /// and reports what is missing. Counts one hit if fully resident, one
    /// miss otherwise.
    pub fn access(&mut self, offset: u64, len: u32) -> RangeCheck {
        let check = self.addrcheck(offset, len);
        if check.resident {
            self.hits += 1;
            for page in self.pages_of(offset, len) {
                self.bump(page);
            }
        } else {
            self.misses += 1;
        }
        check
    }

    /// Inserts the pages of a byte range (after a storage read completes),
    /// evicting LRU pages as needed. Returns evicted page numbers.
    pub fn insert_range(&mut self, offset: u64, len: u32) -> Vec<u64> {
        let mut evicted = Vec::new();
        for page in self.pages_of(offset, len) {
            self.bump(page);
            while self.resident > self.cfg.capacity_pages {
                if let Some(e) = self.lru.oldest_page() {
                    self.remove(e);
                    evicted.push(e);
                }
            }
        }
        evicted
    }

    /// Drops the pages of a byte range (`posix_fadvise(DONTNEED)`), the
    /// mechanism the paper uses to construct the MittCache microbenchmark.
    pub fn fadvise_dontneed(&mut self, offset: u64, len: u32) {
        for page in self.pages_of(offset, len) {
            self.remove(page);
        }
    }

    /// Swaps out a uniformly random `fraction` of resident pages,
    /// emulating another tenant's memory ballooning (§6, Figure 3c).
    /// The draw is a shuffle of the resident pages in ascending order.
    pub fn swap_out_fraction(&mut self, fraction: f64, rng: &mut SimRng) -> usize {
        let n = ((self.resident as f64) * fraction.clamp(0.0, 1.0)) as usize;
        let mut all = self.table.resident_sorted(self.resident);
        rng.shuffle(&mut all);
        for &page in all.iter().take(n) {
            self.remove(page);
        }
        n
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// (hits, misses) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use mitt_sim::FastSet;

    fn cache(capacity: usize) -> PageCache {
        PageCache::new(PageCacheConfig {
            page_size: 4096,
            capacity_pages: capacity,
            hit_latency: Duration::from_micros(20),
        })
    }

    #[test]
    fn cold_access_is_never_loaded_not_contended() {
        let mut c = cache(16);
        let r = c.access(0, 4096);
        assert!(!r.resident);
        assert!(!r.contended);
        assert_eq!(r.missing_pages, vec![0]);
        assert_eq!(c.page_state(0), PageState::NeverLoaded);
    }

    #[test]
    fn insert_makes_resident_and_hits() {
        let mut c = cache(16);
        c.insert_range(0, 8192);
        let r = c.access(0, 8192);
        assert!(r.resident);
        assert_eq!(c.page_state(1), PageState::Resident);
        assert_eq!(c.counters(), (1, 0));
    }

    #[test]
    fn fadvise_marks_swapped_out_and_contended() {
        let mut c = cache(16);
        c.insert_range(0, 4096);
        c.fadvise_dontneed(0, 4096);
        assert_eq!(c.page_state(0), PageState::SwappedOut);
        let r = c.addrcheck(0, 4096);
        assert!(!r.resident);
        assert!(r.contended, "re-evicted page must signal contention");
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut c = cache(2);
        c.insert_range(0, 4096); // page 0
        c.insert_range(4096, 4096); // page 1
        c.access(0, 4096); // make page 0 most recent
        let evicted = c.insert_range(8192, 4096); // page 2 evicts page 1
        assert_eq!(evicted, vec![1]);
        assert_eq!(c.page_state(0), PageState::Resident);
        assert_eq!(c.page_state(1), PageState::SwappedOut);
    }

    #[test]
    fn range_spanning_pages() {
        let c = cache(16);
        let pages: Vec<u64> = c.pages_of(4000, 200).collect();
        assert_eq!(pages, vec![0, 1]); // 4000..4200 crosses the 4096 line
        let one: Vec<u64> = c.pages_of(0, 1).collect();
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn swap_out_fraction_is_proportional_and_deterministic() {
        let mut c = cache(1000);
        for i in 0..100u64 {
            c.insert_range(i * 4096, 4096);
        }
        let mut rng = SimRng::new(7);
        let n = c.swap_out_fraction(0.2, &mut rng);
        assert_eq!(n, 20);
        assert_eq!(c.resident_pages(), 80);
        // Deterministic under a fixed seed.
        let mut c2 = cache(1000);
        for i in 0..100u64 {
            c2.insert_range(i * 4096, 4096);
        }
        let mut rng2 = SimRng::new(7);
        c2.swap_out_fraction(0.2, &mut rng2);
        let s1: Vec<PageState> = (0..100).map(|p| c.page_state(p)).collect();
        let s2: Vec<PageState> = (0..100).map(|p| c2.page_state(p)).collect();
        assert_eq!(s1, s2);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = cache(16);
        c.insert_range(0, 4096);
        c.access(0, 4096);
        c.access(4096, 4096);
        assert_eq!(c.counters(), (1, 1));
    }

    /// The stamp-map LRU the linked slot list replaced, kept as the
    /// reference for eviction order: page -> stamp, and stamp -> page with
    /// the oldest stamp first. Swap history is a plain set of every page
    /// ever loaded, and a swap-out shuffles the sorted resident pages.
    struct StampLru {
        cfg: PageCacheConfig,
        pages: FastMap<u64, u64>,
        order: BTreeMap<u64, u64>,
        loaded: FastSet<u64>,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl StampLru {
        fn new(cfg: PageCacheConfig) -> Self {
            StampLru {
                cfg,
                pages: FastMap::default(),
                order: BTreeMap::new(),
                loaded: FastSet::default(),
                stamp: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn span(&self, offset: u64, len: u32) -> std::ops::RangeInclusive<u64> {
            let ps = u64::from(self.cfg.page_size);
            offset / ps..=(offset + (u64::from(len).max(1) - 1)) / ps
        }

        fn page_state(&self, page: u64) -> PageState {
            if self.pages.contains_key(&page) {
                PageState::Resident
            } else if self.loaded.contains(&page) {
                PageState::SwappedOut
            } else {
                PageState::NeverLoaded
            }
        }

        fn bump(&mut self, page: u64) {
            if let Some(old) = self.pages.get(&page).copied() {
                self.order.remove(&old);
            }
            self.stamp += 1;
            self.pages.insert(page, self.stamp);
            self.order.insert(self.stamp, page);
        }

        fn drop_page(&mut self, page: u64) {
            if let Some(stamp) = self.pages.remove(&page) {
                self.order.remove(&stamp);
            }
        }

        fn access(&mut self, offset: u64, len: u32) {
            if self.span(offset, len).all(|p| self.pages.contains_key(&p)) {
                self.hits += 1;
                for page in self.span(offset, len) {
                    self.bump(page);
                }
            } else {
                self.misses += 1;
            }
        }

        fn insert_range(&mut self, offset: u64, len: u32) -> Vec<u64> {
            let mut evicted = Vec::new();
            for page in self.span(offset, len) {
                self.loaded.insert(page);
                self.bump(page);
                while self.pages.len() > self.cfg.capacity_pages {
                    let (&stamp, &oldest) = self.order.iter().next().expect("over capacity");
                    self.order.remove(&stamp);
                    self.pages.remove(&oldest);
                    evicted.push(oldest);
                }
            }
            evicted
        }

        fn fadvise_dontneed(&mut self, offset: u64, len: u32) {
            for page in self.span(offset, len) {
                self.drop_page(page);
            }
        }

        fn swap_out_fraction(&mut self, fraction: f64, rng: &mut SimRng) -> usize {
            let n = ((self.pages.len() as f64) * fraction.clamp(0.0, 1.0)) as usize;
            let mut all: Vec<u64> = self.pages.keys().copied().collect();
            all.sort_unstable();
            rng.shuffle(&mut all);
            for &page in all.iter().take(n) {
                self.drop_page(page);
            }
            n
        }
    }

    /// Drives the cache and the stamp-map reference through the same
    /// seeded calls, at capacities small enough that most inserts evict,
    /// and compares everything observable after every call. No golden run
    /// evicts (their caches hold 1 M pages), so this is the guard on
    /// eviction order. Ranges fall in four regions of the page space: from
    /// page 0, across the chunk edges at pages 511/512/513, in a chunk
    /// 2^40 pages away, and just below the last page.
    #[test]
    fn lru_matches_the_stamp_map_reference() {
        for &capacity in &[0usize, 1, 2, 16, 1_000] {
            for seed in 0..3u64 {
                let cfg = PageCacheConfig {
                    capacity_pages: capacity,
                    ..PageCacheConfig::default()
                };
                let mut got = PageCache::new(cfg.clone());
                let mut want = StampLru::new(cfg);
                let mut rng = SimRng::new(seed * 1_000 + capacity as u64);
                let (mut got_rng, mut want_rng) = (SimRng::new(seed), SimRng::new(seed));
                // Twice the capacity plus a few, so pages fall out and return;
                // ranges of up to a fiftieth of it, so a large cache fills.
                let universe = 2 * capacity as u64 + 8;
                let max_len = 4096 * (capacity as u64 / 50).max(4);
                let width = universe;
                let regions = [
                    0,
                    512u64.saturating_sub(width / 2),
                    1 << 40,
                    u64::MAX / 4096 - width - max_len / 4096,
                ];
                let mut touched = std::collections::BTreeSet::new();
                let mut evictions = 0;
                for step in 0..1_500 {
                    let base = regions[rng.range_u64(0, 4) as usize];
                    let offset = base * 4096 + rng.range_u64(0, width * 4096);
                    let len = rng.range_u64(1, max_len) as u32;
                    touched.extend(got.pages_of(offset, len));
                    match rng.range_u64(0, 100) {
                        0..=44 => {
                            let evicted = got.insert_range(offset, len);
                            assert_eq!(
                                evicted,
                                want.insert_range(offset, len),
                                "evicted, capacity {capacity} seed {seed} step {step}"
                            );
                            evictions += evicted.len();
                        }
                        45..=84 => {
                            got.access(offset, len);
                            want.access(offset, len);
                        }
                        85..=97 => {
                            got.fadvise_dontneed(offset, len);
                            want.fadvise_dontneed(offset, len);
                        }
                        _ => {
                            let f = rng.unit_f64() * 0.5;
                            assert_eq!(
                                got.swap_out_fraction(f, &mut got_rng),
                                want.swap_out_fraction(f, &mut want_rng),
                                "swapped, capacity {capacity} seed {seed} step {step}"
                            );
                        }
                    }
                    for &page in &touched {
                        assert_eq!(
                            got.page_state(page),
                            want.page_state(page),
                            "page {page}, capacity {capacity} seed {seed} step {step}"
                        );
                    }
                    assert_eq!(got.resident_pages(), want.pages.len());
                    assert_eq!(got.counters(), (want.hits, want.misses));
                }
                assert!(
                    evictions > 0,
                    "capacity {capacity} seed {seed} never evicted"
                );
            }
        }
    }

    /// `swap_out_fraction` shuffles the resident pages in ascending order
    /// whatever order their chunks were added in, so the same pages leave
    /// as in the reference's sort-and-shuffle.
    #[test]
    fn swap_out_draws_match_the_reference_across_chunks() {
        let cfg = PageCacheConfig::default();
        let mut got = PageCache::new(cfg.clone());
        let mut want = StampLru::new(cfg);
        let last = u64::MAX / 4096;
        // Six chunks, added out of page order, two ranges across an edge.
        let ranges = [
            (1u64 << 40, 40),
            (500, 30),
            (last - 39, 40),
            (3 << 20, 9),
            (1_020, 8),
        ];
        let mut pages = Vec::new();
        for (round, seed) in (0..6u64).enumerate() {
            for &(first, n) in &ranges[..=round % ranges.len()] {
                got.insert_range(first * 4096, n * 4096);
                want.insert_range(first * 4096, n * 4096);
                pages.extend(first..first + u64::from(n));
            }
            let (mut got_rng, mut want_rng) = (SimRng::new(seed), SimRng::new(seed));
            assert_eq!(
                got.swap_out_fraction(0.3, &mut got_rng),
                want.swap_out_fraction(0.3, &mut want_rng)
            );
            for &page in &pages {
                assert_eq!(got.page_state(page), want.page_state(page), "page {page}");
            }
            assert_eq!(got.resident_pages(), want.pages.len());
        }
        assert!(got.resident_pages() > 0);
    }

    #[test]
    fn pages_at_chunk_edges_and_the_top_of_the_page_space() {
        let mut c = cache(16);
        let last = u64::MAX / 4096;
        c.insert_range(511 * 4096, 3 * 4096);
        c.insert_range(last * 4096, 4096);
        for page in [511, 512, 513, last] {
            assert_eq!(c.page_state(page), PageState::Resident, "page {page}");
        }
        for page in [510, 514, 1 << 40, last - 1] {
            assert_eq!(c.page_state(page), PageState::NeverLoaded, "page {page}");
        }
        c.fadvise_dontneed(512 * 4096, 4096);
        c.fadvise_dontneed(last * 4096, 4096);
        assert_eq!(c.page_state(511), PageState::Resident);
        assert_eq!(c.page_state(512), PageState::SwappedOut);
        assert_eq!(c.page_state(513), PageState::Resident);
        assert_eq!(c.page_state(last), PageState::SwappedOut);
        assert_eq!(c.resident_pages(), 2);
        assert!(c.addrcheck(511 * 4096, 3 * 4096).contended);
    }

    /// Slot indices run up to the capacity itself (one page over it, just
    /// before the eviction), so `u32::MAX - 2` is the largest capacity
    /// whose slots stay below the sentinel entries.
    #[test]
    fn the_largest_capacity_keeps_slots_below_the_sentinels() {
        assert_eq!(cache(u32::MAX as usize - 2).resident_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "page cache capacity too large")]
    fn a_capacity_reaching_the_sentinels_panics() {
        cache(u32::MAX as usize - 1);
    }

    #[test]
    fn partial_residency_is_a_miss() {
        let mut c = cache(16);
        c.insert_range(0, 4096);
        let r = c.access(0, 8192); // page 0 resident, page 1 not
        assert!(!r.resident);
        assert_eq!(r.missing_pages, vec![1]);
    }
}
