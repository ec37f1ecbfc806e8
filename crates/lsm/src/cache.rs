//! The table cache: an exact LRU over table ids with O(1) touch and evict.

use crate::sstable::TableId;

/// Marks an absent link or an uncached table.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    id: TableId,
    /// Next more recently touched slot.
    newer: u32,
    /// Next less recently touched slot.
    older: u32,
}

/// Which tables have their index block in memory.
///
/// A doubly linked recency list threaded through a slot array, plus a
/// dense `TableId -> slot` index (table ids are allocated sequentially from
/// zero). A touch moves a table to the newest end; a miss at capacity
/// reuses the oldest slot, evicting the least recently touched table.
#[derive(Debug, Clone)]
pub(crate) struct TableCache {
    capacity: usize,
    slots: Vec<Slot>,
    slot_of: Vec<u32>,
    newest: u32,
    oldest: u32,
}

impl TableCache {
    /// An empty cache holding at most `capacity` tables (0 disables it).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity < NIL as usize, "table cache capacity too large");
        TableCache {
            capacity,
            slots: Vec::with_capacity(capacity),
            slot_of: Vec::new(),
            newest: NIL,
            oldest: NIL,
        }
    }

    /// Marks `id` most recently used; returns whether it was cached.
    pub(crate) fn touch(&mut self, id: TableId) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let idx = usize::try_from(id.0).expect("table id fits in usize");
        if idx >= self.slot_of.len() {
            self.slot_of.resize(idx + 1, NIL);
        }
        let slot = self.slot_of[idx];
        if slot != NIL {
            if slot != self.newest {
                self.unlink(slot);
                self.push_newest(slot);
            }
            return true;
        }
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(Slot {
                id,
                newer: NIL,
                older: NIL,
            });
            (self.slots.len() - 1) as u32
        } else {
            let victim = self.oldest;
            let evicted = self.slots[victim as usize].id;
            self.slot_of[evicted.0 as usize] = NIL;
            self.unlink(victim);
            self.slots[victim as usize].id = id;
            victim
        };
        self.push_newest(slot);
        self.slot_of[idx] = slot;
        false
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
