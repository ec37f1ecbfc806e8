//! A LevelDB-like LSM storage engine model.
//!
//! §5 of the MittOS paper integrates MittOS into LevelDB and propagates the
//! EBUSY up to Riak, the replicated layer above it. This crate supplies
//! that engine as a *planning* model: it tracks the logical structure of an
//! LSM tree — memtable, leveled SSTables with key ranges, per-table bloom
//! filters, a table (index-block) cache, and size-triggered compaction —
//! and translates `get`/`put` operations into the block IOs a real LevelDB
//! would issue. The storage stack (and MittOS's fast rejection of any of
//! those IOs) lives in the `mitt-cluster` node model; this crate is pure
//! bookkeeping over offsets and lengths, which is exactly what the
//! simulation needs.
//!
//! The content of keys is never materialized. Whether a table "contains" a
//! key, and whether a bloom filter false-positives, are deterministic
//! functions of hashes, so every run replays identically.
//!
//! # Examples
//!
//! ```
//! use mitt_lsm::{GetStep, LsmConfig, LsmEngine};
//!
//! let mut engine = LsmEngine::preloaded(LsmConfig::default());
//! let plan = engine.get_plan(42);
//! assert!(plan.found);
//! // The walk ends at the data block that holds the key.
//! assert!(matches!(plan.steps.last(), Some(GetStep::DataRead { found: true, .. })));
//! ```

mod cache;
pub mod engine;
pub mod sstable;

pub use engine::{CompactionJob, GetPlan, GetStep, LsmConfig, LsmEngine, LsmIo, LsmStats};
pub use sstable::{SsTable, TableId};
