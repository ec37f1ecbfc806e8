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
//! The model is page-granular with exact LRU, implemented as a stamp map so
//! eviction order is deterministic.
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

use std::collections::BTreeMap;

use mitt_sim::{Duration, FastMap, FastSet, SimRng};

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

/// An exact-LRU page cache with swap-out tracking.
pub struct PageCache {
    cfg: PageCacheConfig,
    /// page -> LRU stamp.
    pages: FastMap<u64, u64>,
    /// LRU stamp -> page (oldest first).
    order: BTreeMap<u64, u64>,
    /// Pages that have ever been resident.
    ever_resident: FastSet<u64>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new(cfg: PageCacheConfig) -> Self {
        PageCache {
            cfg,
            pages: FastMap::default(),
            order: BTreeMap::new(),
            ever_resident: FastSet::default(),
            stamp: 0,
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
        let last = (offset + u64::from(len).max(1) - 1) / ps;
        first..=last
    }

    /// Residency state of one page.
    pub fn page_state(&self, page: u64) -> PageState {
        if self.pages.contains_key(&page) {
            PageState::Resident
        } else if self.ever_resident.contains(&page) {
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

    fn evict_lru(&mut self) -> Option<u64> {
        let (&stamp, &page) = self.order.iter().next()?;
        self.order.remove(&stamp);
        self.pages.remove(&page);
        Some(page)
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
            // (Named `spanned`, not `pages`: the `pages` field is a FastMap
            // and shadowing its name trips the D003 iteration lint.)
            let spanned: Vec<u64> = self.pages_of(offset, len).collect();
            for page in spanned {
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
        let spanned: Vec<u64> = self.pages_of(offset, len).collect();
        for page in spanned {
            self.ever_resident.insert(page);
            self.bump(page);
            while self.pages.len() > self.cfg.capacity_pages {
                if let Some(e) = self.evict_lru() {
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
            if let Some(stamp) = self.pages.remove(&page) {
                self.order.remove(&stamp);
            }
        }
    }

    /// Swaps out a uniformly random `fraction` of resident pages,
    /// emulating another tenant's memory ballooning (§6, Figure 3c).
    pub fn swap_out_fraction(&mut self, fraction: f64, rng: &mut SimRng) -> usize {
        let n = ((self.pages.len() as f64) * fraction.clamp(0.0, 1.0)) as usize;
        let mut all: Vec<u64> = self.pages.keys().copied().collect();
        all.sort_unstable(); // Hash-map order is unspecified; fix it.
        rng.shuffle(&mut all);
        for &page in all.iter().take(n) {
            if let Some(stamp) = self.pages.remove(&page) {
                self.order.remove(&stamp);
            }
        }
        n
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Fraction of accesses served fully from cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// (hits, misses) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn hit_ratio_tracks_accesses() {
        let mut c = cache(16);
        c.insert_range(0, 4096);
        c.access(0, 4096);
        c.access(4096, 4096);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
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
