//! MittCache: the SLO-aware page-cache check (§4.4).
//!
//! For `read(..., deadline)` on cached files, MittCache first consults the
//! buffer cache: a fully resident range is served from memory; a miss
//! propagates the deadline to the IO layer, where a deadline smaller than
//! the smallest possible device latency is rejected outright (the user
//! expected an in-memory read).
//!
//! For mmap-ed files — where no system call intercepts the access — the
//! paper adds `addrcheck(addr, len, deadline)`: a quick page-table walk
//! (~82 ns) before dereferencing. Two caveats from the paper are modelled:
//! EBUSY signals *contention* (pages that were resident and got swapped
//! out), not cold first accesses; and after EBUSY the OS should keep
//! swapping the data in anyway so the tenant's cache share is not starved.

use mitt_faults::NodeCtx;
use mitt_oscache::{PageCache, RangeCheck};
use mitt_prof::Phase;
use mitt_sim::{Duration, SimTime};
use mitt_trace::{Resource, Subsystem};

use crate::slo::Slo;

/// Cost of one `addrcheck()` page-table walk (82 ns in §4.4).
pub const ADDRCHECK_COST: Duration = Duration::from_nanos(82);

/// Verdict of the MittCache check for one access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheVerdict {
    /// Every page resident: serve at memory speed.
    Hit,
    /// EBUSY: the deadline implies memory residency, but pages are swapped
    /// out under contention. The caller should fail over — and should
    /// still schedule a background swap-in (`refill`).
    Busy {
        /// Pages to swap back in at low priority after the EBUSY.
        refill: Vec<u64>,
    },
    /// Some pages missing but the deadline (if any) leaves room for device
    /// IO: propagate the deadline down the storage stack.
    Miss {
        /// Pages the storage layer must fetch.
        missing_pages: Vec<u64>,
        /// True if the miss is due to swap-out rather than first access.
        contended: bool,
    },
}

/// The MittCache checker.
#[derive(Debug, Clone)]
pub struct MittCache {
    /// Smallest possible latency of the storage layer below the cache; a
    /// deadline below this means "I expect a cache hit".
    min_io_latency: Duration,
    ctx: NodeCtx,
}

impl MittCache {
    /// Creates a checker; `min_io_latency` is the floor of the backing
    /// device (e.g. ~100 µs for the SSD, ~2 ms for the disk).
    pub fn new(min_io_latency: Duration) -> Self {
        MittCache {
            min_io_latency,
            ctx: NodeCtx::disabled(),
        }
    }

    /// Attaches the node's handles: every check bumps an admit/reject
    /// counter (the cache-hit *events* are emitted by the node) and is
    /// timed as the `Predict` phase; a `PredictorBias` window distorts the
    /// storage floor the residency-expectation test compares against,
    /// producing spurious EBUSYs (over-rejection) while active.
    pub fn set_ctx(&mut self, ctx: NodeCtx) {
        self.ctx = ctx;
    }

    /// The storage floor used for the residency-expectation test.
    pub fn min_io_latency(&self) -> Duration {
        self.min_io_latency
    }

    /// SLO-attribution resource for a cache EBUSY decided at `now`: a
    /// genuine contention miss, unless a `PredictorBias` window is
    /// inflating the storage floor (the caller supplies the refill count
    /// as the detail).
    pub fn attribution(&self, now: SimTime) -> Resource {
        self.ctx.blame(now, Resource::CacheMiss)
    }

    /// Checks an access of `[offset, offset+len)` against the cache.
    pub fn check(
        &self,
        cache: &PageCache,
        offset: u64,
        len: u32,
        slo: Option<Slo>,
        now: SimTime,
    ) -> CacheVerdict {
        let _t = self.ctx.prof.phase(Phase::Predict);
        let rc: RangeCheck = cache.addrcheck(offset, len);
        if rc.resident {
            self.ctx
                .trace
                .count(Subsystem::MittCache.admit_counter(), 1);
            return CacheVerdict::Hit;
        }
        // A miscalibration fault inflates the perceived storage floor, so
        // deadlines that actually leave room for device IO look hopeless.
        let floor = self.ctx.faults.distort_wait(now, self.min_io_latency);
        if let Some(slo) = slo {
            // The user expects memory speed but the data is not resident.
            // Only *contention* (swapped-out pages) earns an EBUSY; cold
            // first-time accesses fall through to the device.
            if slo.deadline < floor && rc.contended {
                self.ctx
                    .trace
                    .count(Subsystem::MittCache.reject_counter(), 1);
                return CacheVerdict::Busy {
                    refill: rc.missing_pages,
                };
            }
        }
        self.ctx
            .trace
            .count(Subsystem::MittCache.admit_counter(), 1);
        CacheVerdict::Miss {
            missing_pages: rc.missing_pages,
            contended: rc.contended,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitt_oscache::PageCacheConfig;

    fn setup() -> (MittCache, PageCache) {
        let mc = MittCache::new(Duration::from_millis(2));
        let cache = PageCache::new(PageCacheConfig::default());
        (mc, cache)
    }

    fn tight() -> Option<Slo> {
        Some(Slo::deadline(Duration::from_micros(100)))
    }

    #[test]
    fn resident_range_hits() {
        let (mc, mut cache) = setup();
        cache.insert_range(0, 8192);
        assert_eq!(
            mc.check(&cache, 0, 8192, tight(), SimTime::ZERO),
            CacheVerdict::Hit
        );
    }

    #[test]
    fn swapped_out_with_tight_deadline_is_busy() {
        let (mc, mut cache) = setup();
        cache.insert_range(0, 4096);
        cache.fadvise_dontneed(0, 4096);
        match mc.check(&cache, 0, 4096, tight(), SimTime::ZERO) {
            CacheVerdict::Busy { refill } => assert_eq!(refill, vec![0]),
            v => panic!("expected Busy, got {v:?}"),
        }
    }

    #[test]
    fn cold_miss_never_busy() {
        let (mc, cache) = setup();
        match mc.check(&cache, 0, 4096, tight(), SimTime::ZERO) {
            CacheVerdict::Miss {
                missing_pages,
                contended,
            } => {
                assert_eq!(missing_pages, vec![0]);
                assert!(!contended, "first access is not contention");
            }
            v => panic!("expected Miss, got {v:?}"),
        }
    }

    #[test]
    fn loose_deadline_propagates_to_io_layer() {
        let (mc, mut cache) = setup();
        cache.insert_range(0, 4096);
        cache.fadvise_dontneed(0, 4096);
        let slo = Some(Slo::deadline(Duration::from_millis(20)));
        match mc.check(&cache, 0, 4096, slo, SimTime::ZERO) {
            CacheVerdict::Miss { contended, .. } => assert!(contended),
            v => panic!("expected Miss, got {v:?}"),
        }
    }

    #[test]
    fn no_slo_is_plain_posix_read() {
        let (mc, mut cache) = setup();
        cache.insert_range(0, 4096);
        cache.fadvise_dontneed(0, 4096);
        assert!(matches!(
            mc.check(&cache, 0, 4096, None, SimTime::ZERO),
            CacheVerdict::Miss { .. }
        ));
    }
}
