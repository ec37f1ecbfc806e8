//! Per-op client state and the table that holds it while it is live.
//!
//! An op's id is global and increasing over the run: trace span ids,
//! `Failover`/`Hedge` events and calendar events name ops by it. The
//! [`OpTable`] keeps only the ops (or user requests) that may still be
//! named, so its size follows the ops in flight, not the run length: the
//! simulator retires finished entries from the front at a point where no
//! handler holds an id (see `ClusterSim::run`).

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use mitt_device::IoId;
use mitt_sim::{Duration, SimTime};

/// One step of a multi-access lookup (LSM engine or mmap B-tree walk).
#[derive(Debug, Clone, Copy)]
pub(crate) enum AccessStep {
    /// Served from process memory (memtable); no IO.
    Memory,
    /// A storage access, optionally through the page cache (mmap path).
    Storage {
        offset: u64,
        len: u32,
        via_cache: bool,
    },
}

pub(crate) struct AttemptState {
    pub(crate) node: usize,
    pub(crate) io: Option<IoId>,
    pub(crate) resolved: bool,
    pub(crate) deadline: Option<Duration>,
    /// Multi-step lookup plan and the next step to execute. The plan is
    /// emptied once its last step is issued (see `engine_step`).
    pub(crate) plan: Option<Vec<AccessStep>>,
    pub(crate) step: usize,
    /// True when this try carries the replica's half-open breaker probe:
    /// its reply must route to the probe-aware breaker feedback so a
    /// fault-window EBUSY cannot close the breaker.
    pub(crate) probe: bool,
}

pub(crate) struct OpState {
    pub(crate) client: usize,
    pub(crate) user: usize,
    pub(crate) key: u64,
    pub(crate) offset: u64,
    pub(crate) replicas: Vec<usize>,
    pub(crate) attempts: Vec<AttemptState>,
    pub(crate) busy_waits: Vec<(usize, Duration)>,
    pub(crate) done: bool,
    pub(crate) started: SimTime,
    pub(crate) is_write: bool,
    /// Attempts before this index belong to previous backoff rounds; the
    /// failover walk counts tries from here.
    pub(crate) round_base: usize,
    /// Backoff rounds consumed so far (bounded by the policy).
    pub(crate) backoff_round: u32,
    /// Calendar events and in-flight client IOs that name this op. A done
    /// op is retired only at zero: late replies to it still update
    /// `outstanding`, the breakers and the adaptive EWMAs.
    pub(crate) pins: u32,
}

pub(crate) struct UserReq {
    pub(crate) remaining: usize,
    pub(crate) started: SimTime,
}

/// Entries addressed by global, increasing ids, of which only a suffix is
/// live: a `VecDeque` plus the id of its front.
pub(crate) struct OpTable<T> {
    live: VecDeque<T>,
    /// Global id of `live`'s front (the number of entries retired).
    front: usize,
    /// Most entries held at once.
    peak: usize,
}

impl<T> OpTable<T> {
    pub(crate) fn new() -> Self {
        OpTable {
            live: VecDeque::new(),
            front: 0,
            peak: 0,
        }
    }

    /// Appends `entry` and returns its id.
    pub(crate) fn push(&mut self, entry: T) -> usize {
        let id = self.front + self.live.len();
        self.live.push_back(entry);
        self.peak = self.peak.max(self.live.len());
        id
    }

    /// Drops entries from the front while `retired` holds for them.
    pub(crate) fn retire_while(&mut self, mut retired: impl FnMut(&T) -> bool) {
        while self.live.front().is_some_and(&mut retired) {
            self.live.pop_front();
            self.front += 1;
        }
    }

    /// Live entries with their ids, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        (self.front..).zip(&self.live)
    }

    /// Most entries the table held at once.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }
}

impl<T> Index<usize> for OpTable<T> {
    type Output = T;

    fn index(&self, id: usize) -> &T {
        &self.live[id - self.front]
    }
}

impl<T> IndexMut<usize> for OpTable<T> {
    fn index_mut(&mut self, id: usize) -> &mut T {
        &mut self.live[id - self.front]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_stay_global_across_retirement() {
        let mut t = OpTable::new();
        for v in 0..5u32 {
            assert_eq!(t.push(v), v as usize);
        }
        t.retire_while(|&v| v < 3);
        assert_eq!(t[3], 3);
        assert_eq!(t[4], 4);
        assert_eq!(t.push(5), 5);
        t[5] = 50;
        assert_eq!(t.iter().collect::<Vec<_>>(), [(3, &3), (4, &4), (5, &50)]);
        assert_eq!(t.peak(), 5);
    }

    #[test]
    fn retirement_stops_at_the_first_live_entry() {
        let mut t = OpTable::new();
        for v in [true, false, true] {
            t.push(v);
        }
        t.retire_while(|&done| done);
        assert_eq!(t.iter().count(), 2, "only the front's done run retires");
    }

    #[test]
    #[should_panic]
    fn a_retired_id_is_not_addressable() {
        let mut t = OpTable::new();
        t.push(1u8);
        t.push(2u8);
        t.retire_while(|_| true);
        let _ = t[0];
    }
}
