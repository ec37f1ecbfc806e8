//! The LSM engine: memtable, leveled tables, table cache, compaction.

use std::collections::BTreeSet;

use mitt_sim::FastMap;

use crate::cache::TableCache;
use crate::sstable::{SsTable, TableId, BLOCK_SIZE, INDEX_SIZE};

/// Engine tuning parameters.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Number of leveled tiers below L0.
    pub levels: u8,
    /// Bytes buffered in the memtable before a flush.
    pub memtable_budget: u64,
    /// Bytes per SSTable.
    pub table_size: u64,
    /// Bloom filter false-positive rate.
    pub bloom_fp_rate: f64,
    /// Table-cache capacity (tables whose index block is in memory).
    pub table_cache_capacity: usize,
    /// Keyspace the engine serves.
    pub keyspace: u64,
    /// L0 table count that triggers a compaction.
    pub l0_trigger: usize,
    /// Table-count ratio between adjacent levels.
    pub level_ratio: usize,
    /// Device region where tables are placed.
    pub region_offset: u64,
    /// Size of that region in bytes.
    pub region_size: u64,
}

impl Default for LsmConfig {
    /// A LevelDB-flavoured configuration: 2 MB tables, 4 MB memtable,
    /// 1% blooms, three leveled tiers at 10x fan-out.
    fn default() -> Self {
        LsmConfig {
            levels: 3,
            memtable_budget: 4 << 20,
            table_size: 2 << 20,
            bloom_fp_rate: 0.01,
            table_cache_capacity: 64,
            keyspace: 1_000_000,
            l0_trigger: 4,
            level_ratio: 10,
            region_offset: 10_000_000_000,
            region_size: 400_000_000_000,
        }
    }
}

/// One block IO the engine asks the storage stack to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmIo {
    /// Device byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
    /// Read (true) or write.
    pub is_read: bool,
}

/// One step of a `get()` lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GetStep {
    /// Served from the memtable; no IO.
    MemtableHit,
    /// Table-cache miss: the table's index block must be read first.
    IndexRead {
        /// Table whose index is fetched.
        table: TableId,
        /// Index block offset.
        offset: u64,
        /// Index block length.
        len: u32,
    },
    /// A data-block read probing this table for the key.
    DataRead {
        /// Table probed.
        table: TableId,
        /// Data block offset.
        offset: u64,
        /// Data block length.
        len: u32,
        /// True if the key is actually here (the walk ends).
        found: bool,
    },
}

/// The full lookup plan for one key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GetPlan {
    /// IO/memory steps in execution order.
    pub steps: Vec<GetStep>,
    /// Whether the key exists in the engine.
    pub found: bool,
}

/// A background compaction: reads of the inputs, writes of the merged
/// outputs.
#[derive(Debug, Clone, Default)]
pub struct CompactionJob {
    /// Input-table reads (sequential chunks).
    pub reads: Vec<LsmIo>,
    /// Output-table writes.
    pub writes: Vec<LsmIo>,
    /// Source level that was compacted.
    pub from_level: u8,
}

/// Engine operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmStats {
    /// get() calls served.
    pub gets: u64,
    /// Served entirely from the memtable.
    pub memtable_hits: u64,
    /// Data-block reads caused by bloom false positives.
    pub bloom_false_probes: u64,
    /// Index blocks read (table-cache misses).
    pub index_reads: u64,
    /// Data blocks read.
    pub data_reads: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// Compactions run.
    pub compactions: u64,
}

fn level_hash(key: u64) -> u64 {
    let mut x = key.wrapping_mul(0xA24B_AED4_963E_E407);
    x ^= x >> 29;
    x = x.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    x ^ (x >> 32)
}

/// True if `tables` is sorted by key range, each range is non-empty, and no
/// two ranges overlap — the invariant of every level below L0.
fn sorted_and_disjoint(tables: &[SsTable]) -> bool {
    tables.iter().all(|t| t.min_key <= t.max_key)
        && tables.windows(2).all(|w| w[0].max_key < w[1].min_key)
}

/// A LevelDB-like engine over a simulated device region.
pub struct LsmEngine {
    cfg: LsmConfig,
    /// `levels[0]` is L0 (oldest first, walked newest first); `levels[l]`
    /// for l >= 1 is sorted by key range and non-overlapping, which is what
    /// lets `get_plan` binary-search it.
    levels: Vec<Vec<SsTable>>,
    /// Keys captured by each L0 table (from its flush).
    l0_keys: FastMap<TableId, BTreeSet<u64>>,
    memtable: BTreeSet<u64>,
    memtable_bytes: u64,
    /// Keys whose residence level changed since preload (flush/compact).
    overrides: FastMap<u64, u8>,
    cache: TableCache,
    /// Table count summed over levels 1..=levels (`home_level`'s modulus).
    home_slots: u64,
    next_table: u64,
    alloc_cursor: u64,
    stats: LsmStats,
}

impl LsmEngine {
    /// Builds an engine preloaded with a full complement of leveled tables
    /// covering the keyspace — the steady state of a long-running store.
    /// Each key resides at a level picked deterministically by hash,
    /// weighted by level capacity (deeper levels hold more data).
    pub fn preloaded(cfg: LsmConfig) -> Self {
        assert!(cfg.levels >= 1, "need at least one leveled tier");
        assert!(cfg.keyspace > 0, "empty keyspace");
        let mut engine = LsmEngine {
            levels: vec![Vec::new(); cfg.levels as usize + 1],
            l0_keys: FastMap::default(),
            memtable: BTreeSet::new(),
            memtable_bytes: 0,
            overrides: FastMap::default(),
            cache: TableCache::new(cfg.table_cache_capacity),
            home_slots: 0,
            next_table: 0,
            alloc_cursor: 0,
            stats: LsmStats::default(),
            cfg,
        };
        for level in 1..=engine.cfg.levels {
            let count = engine.tables_at(level);
            let span = engine.cfg.keyspace / count as u64;
            for i in 0..count {
                let min_key = i as u64 * span;
                let max_key = if i + 1 == count {
                    engine.cfg.keyspace - 1
                } else {
                    (i as u64 + 1) * span - 1
                };
                let t = engine.new_table(level, min_key, max_key);
                engine.levels[level as usize].push(t);
            }
            engine.home_slots += count as u64;
        }
        engine
    }

    fn tables_at(&self, level: u8) -> usize {
        // L1 has `level_ratio` tables, L2 ratio^2, ...
        self.cfg.level_ratio.pow(u32::from(level))
    }

    fn new_table(&mut self, level: u8, min_key: u64, max_key: u64) -> SsTable {
        let id = TableId(self.next_table);
        self.next_table += 1;
        let offset = self.cfg.region_offset
            + (self.alloc_cursor % (self.cfg.region_size / self.cfg.table_size))
                * self.cfg.table_size;
        self.alloc_cursor += 1;
        SsTable {
            id,
            level,
            min_key,
            max_key,
            offset,
            size: self.cfg.table_size,
            bloom_fp_rate: self.cfg.bloom_fp_rate,
        }
    }

    /// The level a preloaded key resides at (capacity-weighted hash).
    fn home_level(&self, key: u64) -> u8 {
        let mut slot = level_hash(key) % self.home_slots;
        for l in 1..=self.cfg.levels {
            let cap = self.tables_at(l) as u64;
            if slot < cap {
                return l;
            }
            slot -= cap;
        }
        self.cfg.levels
    }

    /// The level `key` currently resides at, accounting for writes.
    pub fn residence(&self, key: u64) -> u8 {
        self.overrides
            .get(&key)
            .copied()
            .unwrap_or_else(|| self.home_level(key))
    }

    /// Appends the reads probing `table` for `key`: its index block on a
    /// table-cache miss, then the data block. Takes the fields it updates
    /// so callers can pass a table borrowed from `levels`.
    fn probe(
        cache: &mut TableCache,
        stats: &mut LsmStats,
        table: &SsTable,
        key: u64,
        found: bool,
        plan: &mut GetPlan,
    ) {
        if !cache.touch(table.id) {
            stats.index_reads += 1;
            plan.steps.push(GetStep::IndexRead {
                table: table.id,
                offset: table.index_offset(),
                len: INDEX_SIZE,
            });
        }
        stats.data_reads += 1;
        if !found {
            stats.bloom_false_probes += 1;
        }
        plan.steps.push(GetStep::DataRead {
            table: table.id,
            offset: table.block_offset(key),
            len: BLOCK_SIZE,
            found,
        });
    }

    /// Plans the IOs for `get(key)` — LevelDB's read path: memtable, then
    /// L0 newest-first, then one candidate table per level, with bloom
    /// filters pruning non-holding tables (modulo false positives).
    pub fn get_plan(&mut self, key: u64) -> GetPlan {
        self.stats.gets += 1;
        let mut plan = GetPlan::default();
        if self.memtable.contains(&key) {
            self.stats.memtable_hits += 1;
            plan.steps.push(GetStep::MemtableHit);
            plan.found = true;
            return plan;
        }
        let residence = self.residence(key);
        // L0, newest first. A key resides in L0 iff some L0 table's flush
        // captured it (residence == 0).
        for t in self.levels[0].iter().rev() {
            if !t.covers(key) {
                continue;
            }
            let holds = residence == 0
                && self
                    .l0_keys
                    .get(&t.id)
                    .is_some_and(|keys| keys.contains(&key));
            if t.bloom_may_contain(key, holds) {
                Self::probe(&mut self.cache, &mut self.stats, t, key, holds, &mut plan);
                if holds {
                    plan.found = true;
                    return plan;
                }
            }
        }
        for level in 1..=self.cfg.levels {
            // The level is sorted and disjoint: the only table that can
            // cover `key` is the last one starting at or below it.
            let tables = &self.levels[level as usize];
            let at = tables.partition_point(|t| t.min_key <= key);
            let Some(t) = at.checked_sub(1).map(|i| &tables[i]) else {
                continue;
            };
            if !t.covers(key) {
                continue;
            }
            let holds = residence == level && key < self.cfg.keyspace;
            if t.bloom_may_contain(key, holds) {
                Self::probe(&mut self.cache, &mut self.stats, t, key, holds, &mut plan);
                if holds {
                    plan.found = true;
                    return plan;
                }
            }
        }
        plan
    }

    /// Applies a `put`: buffers in the memtable and, at the budget, flushes
    /// an L0 table. Returns the flush writes to submit (empty for a pure
    /// memtable insert).
    pub fn put(&mut self, key: u64, value_size: u32) -> Vec<LsmIo> {
        self.memtable.insert(key);
        self.memtable_bytes += u64::from(value_size) + 16;
        if self.memtable_bytes < self.cfg.memtable_budget {
            return Vec::new();
        }
        self.flush()
    }

    /// Flushes the memtable into a new L0 table; returns its writes.
    pub fn flush(&mut self) -> Vec<LsmIo> {
        if self.memtable.is_empty() {
            return Vec::new();
        }
        self.stats.flushes += 1;
        let keys = std::mem::take(&mut self.memtable);
        self.memtable_bytes = 0;
        let min_key = *keys.first().expect("non-empty");
        let max_key = *keys.last().expect("non-empty");
        let table = self.new_table(0, min_key, max_key);
        let writes = Self::sequential_ios(table.offset, table.size, false);
        for &k in &keys {
            self.overrides.insert(k, 0);
        }
        self.l0_keys.insert(table.id, keys);
        self.levels[0].push(table);
        writes
    }

    /// Runs one compaction step if a level is over budget; returns the
    /// job's IOs, or `None` when the tree is in shape.
    pub fn maybe_compact(&mut self) -> Option<CompactionJob> {
        // L0 compacts into L1 when it accumulates l0_trigger tables.
        if self.levels[0].len() >= self.cfg.l0_trigger {
            return Some(self.compact_l0());
        }
        None
    }

    fn compact_l0(&mut self) -> CompactionJob {
        self.stats.compactions += 1;
        let mut job = CompactionJob {
            from_level: 0,
            ..CompactionJob::default()
        };
        let l0 = std::mem::take(&mut self.levels[0]);
        let mut moved: BTreeSet<u64> = BTreeSet::new();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for t in &l0 {
            job.reads
                .extend(Self::sequential_ios(t.offset, t.size, true));
            lo = lo.min(t.min_key);
            hi = hi.max(t.max_key);
            if let Some(keys) = self.l0_keys.remove(&t.id) {
                moved.extend(keys);
            }
        }
        // Overlapping L1 tables join the merge and are rewritten.
        let (overlapping, kept): (Vec<SsTable>, Vec<SsTable>) = self.levels[1]
            .drain(..)
            .partition(|t| t.max_key >= lo && t.min_key <= hi);
        // The outputs replace the rewritten tables, so they span the union
        // of their ranges and L0's: every key either covered stays covered.
        for t in &overlapping {
            job.reads
                .extend(Self::sequential_ios(t.offset, t.size, true));
            lo = lo.min(t.min_key);
            hi = hi.max(t.max_key);
        }
        self.levels[1] = kept;
        // Write merged outputs: enough tables to hold inputs, but no more
        // than one per key so none is empty.
        let out_tables = ((l0.len() + overlapping.len()) as u64)
            .min((hi - lo).saturating_add(1))
            .max(1);
        let span = ((hi - lo) / out_tables).max(1);
        for i in 0..out_tables {
            let min_key = lo + i * span;
            let max_key = if i + 1 == out_tables {
                hi
            } else {
                lo + (i + 1) * span - 1
            };
            let t = self.new_table(1, min_key, max_key);
            job.writes
                .extend(Self::sequential_ios(t.offset, t.size, false));
            self.levels[1].push(t);
        }
        self.levels[1].sort_by_key(|t| t.min_key);
        debug_assert!(
            self.levels[1..].iter().all(|l| sorted_and_disjoint(l)),
            "compaction left a level unsorted or overlapping"
        );
        for k in moved {
            self.overrides.insert(k, 1);
        }
        job
    }

    fn sequential_ios(offset: u64, size: u64, is_read: bool) -> Vec<LsmIo> {
        const CHUNK: u64 = 256 * 1024;
        let mut ios = Vec::new();
        let mut at = 0;
        while at < size {
            let len = CHUNK.min(size - at) as u32;
            ios.push(LsmIo {
                offset: offset + at,
                len,
                is_read,
            });
            at += CHUNK;
        }
        ios
    }

    /// Operation counters.
    pub fn stats(&self) -> LsmStats {
        self.stats
    }

    /// Tables currently at `level`.
    pub fn tables_at_level(&self, level: u8) -> usize {
        self.levels[level as usize].len()
    }

    /// The engine configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use mitt_sim::SimRng;

    use super::*;

    fn small() -> LsmConfig {
        LsmConfig {
            levels: 2,
            level_ratio: 4,
            keyspace: 10_000,
            memtable_budget: 64 * 1024,
            table_size: 256 * 1024,
            table_cache_capacity: 8,
            ..LsmConfig::default()
        }
    }

    #[test]
    fn preloaded_levels_partition_the_keyspace() {
        let e = LsmEngine::preloaded(small());
        assert_eq!(e.tables_at_level(0), 0);
        assert_eq!(e.tables_at_level(1), 4);
        assert_eq!(e.tables_at_level(2), 16);
        // Every key is covered by exactly one table per level.
        for key in (0..10_000).step_by(97) {
            for level in 1..=2 {
                let covering = e.levels[level].iter().filter(|t| t.covers(key)).count();
                assert_eq!(covering, 1, "key {key} level {level}");
            }
        }
    }

    #[test]
    fn get_plan_finds_every_preloaded_key_with_one_true_data_read() {
        let mut e = LsmEngine::preloaded(small());
        for key in (0..10_000).step_by(131) {
            let plan = e.get_plan(key);
            assert!(plan.found, "key {key} must exist");
            let true_reads = plan
                .steps
                .iter()
                .filter(|s| matches!(s, GetStep::DataRead { found: true, .. }))
                .count();
            assert_eq!(true_reads, 1);
            // The found-read is the last step.
            assert!(matches!(
                plan.steps.last(),
                Some(GetStep::DataRead { found: true, .. })
            ));
        }
    }

    #[test]
    fn bloom_keeps_extra_probes_rare() {
        let mut e = LsmEngine::preloaded(small());
        let mut total_data_reads = 0usize;
        let n = 2000;
        for key in 0..n {
            let plan = e.get_plan(key);
            total_data_reads += plan
                .steps
                .iter()
                .filter(|s| matches!(s, GetStep::DataRead { .. }))
                .count();
        }
        // Ideal is exactly 1 per get; blooms allow ~1% extra.
        let per_get = total_data_reads as f64 / n as f64;
        assert!(
            (1.0..1.1).contains(&per_get),
            "data reads per get {per_get}"
        );
    }

    #[test]
    fn memtable_hits_after_put() {
        let mut e = LsmEngine::preloaded(small());
        let ios = e.put(42, 100);
        assert!(ios.is_empty(), "small put stays in memtable");
        let plan = e.get_plan(42);
        assert_eq!(plan.steps, vec![GetStep::MemtableHit]);
        assert!(plan.found);
    }

    #[test]
    fn flush_moves_keys_to_l0_and_reads_find_them_there() {
        let mut e = LsmEngine::preloaded(small());
        e.put(5000, 100);
        let writes = e.flush();
        assert!(!writes.is_empty());
        assert!(writes.iter().all(|io| !io.is_read));
        assert_eq!(e.tables_at_level(0), 1);
        let plan = e.get_plan(5000);
        assert!(plan.found);
        match plan.steps.last() {
            Some(GetStep::DataRead {
                found: true, table, ..
            }) => {
                assert!(e.l0_keys.contains_key(table), "found in an L0 table");
            }
            other => panic!("expected L0 data read, got {other:?}"),
        }
    }

    #[test]
    fn writes_eventually_trigger_flush_and_compaction() {
        let mut e = LsmEngine::preloaded(small());
        let mut flush_ios = 0usize;
        let mut compactions = 0usize;
        for key in 0..40_000u64 {
            let ios = e.put(key % 10_000, 128);
            flush_ios += ios.len();
            if let Some(job) = e.maybe_compact() {
                compactions += 1;
                assert!(!job.reads.is_empty() && !job.writes.is_empty());
                assert!(job.reads.iter().all(|io| io.is_read));
                assert!(job.writes.iter().all(|io| !io.is_read));
            }
        }
        assert!(flush_ios > 0, "flushes must happen");
        assert!(compactions > 0, "L0 must compact");
        assert!(
            e.tables_at_level(0) < small().l0_trigger,
            "compaction keeps L0 below trigger"
        );
        let s = e.stats();
        // 256KB tables flush as exactly one 256KB write chunk each.
        assert_eq!(s.flushes as usize, flush_ios);
    }

    #[test]
    fn table_cache_serves_hot_indexes() {
        let mut e = LsmEngine::preloaded(small());
        // First read of a key misses the table cache; the second hits.
        let p1 = e.get_plan(1234);
        let p2 = e.get_plan(1234);
        let idx1 = p1
            .steps
            .iter()
            .filter(|s| matches!(s, GetStep::IndexRead { .. }))
            .count();
        let idx2 = p2
            .steps
            .iter()
            .filter(|s| matches!(s, GetStep::IndexRead { .. }))
            .count();
        assert!(idx1 >= 1);
        assert_eq!(idx2, 0, "second lookup must hit the table cache");
    }

    #[test]
    fn compaction_keeps_every_key_findable() {
        // A wide write window (rewritten L1 tables reach past the L0
        // range) and a narrow one (fewer keys than merge outputs).
        for (lo, hi) in [(4_000, 6_000), (5_000, 5_004)] {
            let mut e = LsmEngine::preloaded(small());
            let mut rng = SimRng::new(lo);
            for _ in 0..2_000 {
                e.put(rng.range_u64(lo, hi), 128);
                e.maybe_compact();
            }
            assert!(e.stats().compactions >= 1, "window {lo}..{hi} compacted");
            let lost: Vec<u64> = (0..10_000).filter(|&k| !e.get_plan(k).found).collect();
            assert!(
                lost.is_empty(),
                "window {lo}..{hi}: {} keys unfindable, first {:?}",
                lost.len(),
                &lost[..lost.len().min(5)]
            );
        }
    }

    /// Asserts the invariant `get_plan`'s binary search relies on: every
    /// level below L0 is sorted, disjoint, free of empty ranges, and
    /// covers the whole keyspace without gaps.
    fn assert_levels_partition_the_keyspace(e: &LsmEngine) {
        for (level, tables) in e.levels.iter().enumerate().skip(1) {
            assert!(sorted_and_disjoint(tables), "level {level}: {tables:?}");
            assert_eq!(tables.first().map(|t| t.min_key), Some(0), "level {level}");
            assert!(
                tables
                    .last()
                    .is_some_and(|t| t.max_key >= e.cfg.keyspace - 1),
                "level {level} ends short"
            );
            for w in tables.windows(2) {
                assert_eq!(w[0].max_key + 1, w[1].min_key, "gap at level {level}");
            }
        }
    }

    #[test]
    fn levels_stay_a_partition_through_random_writes() {
        for seed in 0..8u64 {
            let mut e = LsmEngine::preloaded(small());
            let mut rng = SimRng::new(seed);
            // Narrow windows compact the same L1 range over and over,
            // splitting it down to single-key tables.
            let width = [1, 4, 50, 10_000][seed as usize % 4];
            let base = rng.range_u64(0, 10_000 - width + 1);
            for _ in 0..2_000 {
                match rng.index(10) {
                    0 => {
                        e.flush();
                    }
                    1 => {
                        e.maybe_compact();
                    }
                    _ => {
                        e.put(base + rng.range_u64(0, width), 512);
                    }
                }
                assert_levels_partition_the_keyspace(&e);
            }
            assert!(e.stats().compactions > 0, "seed {seed} compacted");
        }
    }

    /// The lookup as first written, the differential test's reference: a
    /// linear scan of each level for the covering table, and a table cache
    /// that evicts the entry with the smallest LRU stamp. It plans over
    /// its own engine's levels and counts into that engine's stats.
    struct Reference {
        engine: LsmEngine,
        cache: BTreeMap<TableId, u64>,
        stamp: u64,
    }

    impl Reference {
        fn new(cfg: LsmConfig) -> Self {
            Reference {
                engine: LsmEngine::preloaded(cfg),
                cache: BTreeMap::new(),
                stamp: 0,
            }
        }

        fn touch(&mut self, id: TableId) -> bool {
            let hit = self.cache.contains_key(&id);
            self.stamp += 1;
            self.cache.insert(id, self.stamp);
            if self.cache.len() > self.engine.cfg.table_cache_capacity {
                let (&evict, _) = self
                    .cache
                    .iter()
                    .min_by_key(|(_, &s)| s)
                    .expect("cache is over capacity");
                self.cache.remove(&evict);
            }
            hit
        }

        fn probe(&mut self, t: &SsTable, key: u64, found: bool, plan: &mut GetPlan) {
            if !self.touch(t.id) {
                self.engine.stats.index_reads += 1;
                plan.steps.push(GetStep::IndexRead {
                    table: t.id,
                    offset: t.index_offset(),
                    len: INDEX_SIZE,
                });
            }
            self.engine.stats.data_reads += 1;
            if !found {
                self.engine.stats.bloom_false_probes += 1;
            }
            plan.steps.push(GetStep::DataRead {
                table: t.id,
                offset: t.block_offset(key),
                len: BLOCK_SIZE,
                found,
            });
        }

        fn get_plan(&mut self, key: u64) -> GetPlan {
            self.engine.stats.gets += 1;
            let mut plan = GetPlan::default();
            if self.engine.memtable.contains(&key) {
                self.engine.stats.memtable_hits += 1;
                plan.steps.push(GetStep::MemtableHit);
                plan.found = true;
                return plan;
            }
            let residence = self.engine.residence(key);
            let l0: Vec<SsTable> = self.engine.levels[0].clone();
            for t in l0.iter().rev().filter(|t| t.covers(key)) {
                let holds = residence == 0
                    && self
                        .engine
                        .l0_keys
                        .get(&t.id)
                        .is_some_and(|k| k.contains(&key));
                if t.bloom_may_contain(key, holds) {
                    self.probe(t, key, holds, &mut plan);
                    if holds {
                        plan.found = true;
                        return plan;
                    }
                }
            }
            for level in 1..=self.engine.cfg.levels {
                let candidate = self.engine.levels[level as usize]
                    .iter()
                    .find(|t| t.covers(key))
                    .cloned();
                let Some(t) = candidate else {
                    continue;
                };
                let holds = residence == level && key < self.engine.cfg.keyspace;
                if t.bloom_may_contain(key, holds) {
                    self.probe(&t, key, holds, &mut plan);
                    if holds {
                        plan.found = true;
                        return plan;
                    }
                }
            }
            plan
        }
    }

    #[test]
    fn lookup_matches_the_linear_scan_reference() {
        let job = |j: Option<CompactionJob>| j.map(|j| (j.reads, j.writes, j.from_level));
        for capacity in [0, 1, 16] {
            for seed in 0..4u64 {
                let cfg = LsmConfig {
                    table_cache_capacity: capacity,
                    ..small()
                };
                let mut e = LsmEngine::preloaded(cfg.clone());
                let mut r = Reference::new(cfg);
                let mut rng = SimRng::new(seed);
                // Gets dominate; keys past the keyspace probe the edges.
                for op in 0..3_000 {
                    let key = rng.range_u64(0, 10_100);
                    match rng.index(20) {
                        0..=2 => assert_eq!(e.put(key, 512), r.engine.put(key, 512)),
                        3 => assert_eq!(e.flush(), r.engine.flush()),
                        4 => assert_eq!(job(e.maybe_compact()), job(r.engine.maybe_compact())),
                        _ => assert_eq!(e.get_plan(key), r.get_plan(key), "op {op} key {key}"),
                    }
                    assert_eq!(
                        e.stats(),
                        r.engine.stats(),
                        "cap {capacity} seed {seed} op {op}"
                    );
                }
                assert!(e.stats().compactions > 0 && e.stats().index_reads > 0);
            }
        }
    }

    #[test]
    fn residence_respects_overrides() {
        let mut e = LsmEngine::preloaded(small());
        let key = 777;
        let home = e.residence(key);
        assert!(home >= 1);
        e.put(key, 100);
        e.flush();
        assert_eq!(e.residence(key), 0, "flushed key now lives in L0");
    }
}
