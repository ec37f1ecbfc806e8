//! The event calendar driving every simulation.
//!
//! [`EventQueue`] is a priority queue of `(time, event)` pairs. Ties on time
//! are broken by insertion order (a monotonically increasing sequence
//! number), which makes every simulation fully deterministic: two runs with
//! the same seed schedule and pop events in exactly the same order.
//!
//! Events known before the run starts (pre-generated noise bursts, which
//! outnumber the live events by orders of magnitude) can bypass the heap via
//! [`EventQueue::preload`]: they sit in one sorted `Vec` and `pop` takes
//! whichever of that `Vec`'s tail and the heap's top comes first. Since
//! `(at, seq)` is a total order and preloaded entries draw their sequence
//! numbers exactly as `schedule` would, the pop order is the same as if
//! every event had gone through the heap.
//!
//! Events that arrive together, such as the per-page completions of one
//! striped SSD request, can go in as a *run* via
//! [`EventQueue::schedule_batch`]: the batch is sorted once and only its
//! earliest member is keyed, in a small second heap of run heads. Popping a
//! run's head re-keys that entry to the next member in place. Run members
//! draw their sequence numbers exactly as `schedule` would too, and `pop`
//! consults the run heads only while a run is live, so a calendar without
//! runs pops exactly as before.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};

/// Aligned to 16 bytes so that the heap moves entries in whole 16-byte
/// words: with the cluster's 40-byte events an entry would be 56 bytes,
/// which the compiler copies as a mix of 8- and 16-byte moves that later
/// loads cannot forward from. At 64 bytes a pop-and-schedule loop ran
/// about 5% faster.
#[repr(C, align(16))]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The position in the total pop order: smaller pops first.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we pop the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event calendar with a virtual clock.
///
/// The queue owns the simulation clock: [`EventQueue::pop`] advances `now`
/// to the timestamp of the event it returns. Scheduling an event in the past
/// is a logic error and panics in debug builds; in release builds it is
/// clamped to `now` to keep time monotonic.
///
/// # Examples
///
/// ```
/// use mitt_sim::{Duration, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(Duration::from_millis(2), "b");
/// q.schedule_in(Duration::from_millis(1), "a");
/// assert_eq!(q.pop().unwrap().1, "a");
/// assert_eq!(q.now().as_millis(), 1);
/// assert_eq!(q.pop().unwrap().1, "b");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Preloaded entries in ascending `Entry` order: the earliest is last.
    lane: Vec<Entry<E>>,
    /// One `(at, seq, run)` key per live run, keyed by the run's head.
    run_heads: BinaryHeap<Entry<u32>>,
    /// Batches from [`EventQueue::schedule_batch`], each in ascending
    /// `Entry` order (earliest last). Emptied runs keep their buffers and
    /// are reused through `free_runs`.
    runs: Vec<Vec<Entry<E>>>,
    free_runs: Vec<u32>,
    /// Run members beyond each live run's head (the head is counted by
    /// `run_heads`).
    run_tails: usize,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lane: Vec::new(),
            run_heads: BinaryHeap::new(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            run_tails: 0,
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Stamps `event` with its (clamped) time and the next sequence number.
    fn entry(&mut self, at: SimTime, event: E) -> Entry<E> {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        Entry {
            at: at.max(self.now),
            seq,
            event,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than the current time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let entry = self.entry(at, event);
        self.heap.push(entry);
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Schedules a batch of `(at, event)` pairs as one presorted run.
    ///
    /// Sequence numbers are assigned in iteration order, so the pop order is
    /// exactly that of calling [`EventQueue::schedule`] for each pair in
    /// turn. The batch is sorted once and only its earliest member is keyed
    /// among the run heads; popping it re-keys that key to the next member in
    /// place. A batch of one event goes into the heap like `schedule`'s.
    /// Meant for the completions of one striped request, which arrive
    /// together and pop in any interleaving with the rest of the calendar.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any `at` is earlier than the current time.
    pub fn schedule_batch(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        let id = self.free_runs.pop().unwrap_or_else(|| {
            self.runs.push(Vec::new());
            (self.runs.len() - 1) as u32
        });
        let mut run = std::mem::take(&mut self.runs[id as usize]);
        for (at, event) in events {
            let entry = self.entry(at, event);
            run.push(entry);
        }
        run.sort_unstable();
        if run.len() > 1 {
            self.run_tails += run.len() - 1;
            if let Some(&Entry { at, seq, .. }) = run.last() {
                self.run_heads.push(Entry { at, seq, event: id });
            }
        } else {
            if let Some(entry) = run.pop() {
                self.heap.push(entry);
            }
            self.free_runs.push(id);
        }
        self.runs[id as usize] = run;
    }

    /// Schedules a batch of `(at, event)` pairs outside the heap.
    ///
    /// Sequence numbers are assigned in iteration order, so the pop order is
    /// exactly that of calling [`EventQueue::schedule`] for each pair in
    /// turn. Meant for large batches known up front; each call re-sorts the
    /// preloaded entries.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any `at` is earlier than the current time.
    pub fn preload(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        for (at, event) in events {
            let entry = self.entry(at, event);
            self.lane.push(entry);
        }
        self.lane.sort_unstable();
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the calendar is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.run_heads.is_empty() {
            if let Some(popped) = self.pop_run() {
                return Some(popped);
            }
        }
        // `Entry` order is reversed and `None` sorts below `Some`, so the
        // greater side holds the earliest event.
        let entry = if self.lane.last() > self.heap.peek() {
            self.lane.pop()
        } else {
            self.heap.pop()
        }?;
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    /// [`EventQueue::pop`] while runs are live: if the earliest run head
    /// precedes both the lane's tail and the heap's top, takes it and
    /// re-keys its `run_heads` entry in place to the run's next member (one
    /// sift-down instead of a pop and a push), or retires the entry with
    /// the run's last member. Returns `None`, touching nothing, when a
    /// single event comes first. Kept out of line so the single-event path
    /// of a calendar without runs is what it always was.
    #[inline(never)]
    fn pop_run(&mut self) -> Option<(SimTime, E)> {
        let mut top = self.run_heads.peek_mut()?;
        let key = top.key();
        let single_first = |e: Option<&Entry<E>>| e.is_some_and(|e| e.key() < key);
        if single_first(self.lane.last()) || single_first(self.heap.peek()) {
            return None;
        }
        let run = &mut self.runs[top.event as usize];
        let head = run.pop()?;
        if let Some(next) = run.last() {
            top.at = next.at;
            top.seq = next.seq;
            self.run_tails -= 1;
        } else {
            let id = PeekMut::pop(top).event;
            self.free_runs.push(id);
        }
        self.now = head.at;
        self.popped += 1;
        Some((head.at, head.event))
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let singles = self.lane.last().max(self.heap.peek()).map(Entry::key);
        let runs = self.run_heads.peek().map(Entry::key);
        match (singles, runs) {
            (Some(s), Some(r)) => Some(s.min(r).0),
            (s, r) => s.or(r).map(|(at, _)| at),
        }
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty() && self.run_heads.is_empty()
    }

    /// Number of pending events, preloaded ones and every run member
    /// included.
    pub fn raw_len(&self) -> usize {
        self.heap.len() + self.lane.len() + self.run_heads.len() + self.run_tails
    }

    /// Total number of events delivered so far.
    pub fn events_delivered(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.events_delivered(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(Duration::from_millis(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now().as_millis(), 7);
    }

    #[test]
    fn peek_reports_the_earliest_of_both_lanes() {
        let mut q = EventQueue::new();
        assert!(q.is_empty() && q.peek_time().is_none());
        q.schedule(SimTime::from_nanos(9), "heap");
        q.preload([(SimTime::from_nanos(4), "lane")]);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(4)));
        assert_eq!(q.pop().unwrap().1, "lane");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn preloaded_ties_keep_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.schedule(t, 0);
        q.preload((1..4).map(|i| (t, i)));
        q.schedule(t, 4);
        q.preload([(t, 5)]);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn batch_members_interleave_with_singles() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos;
        q.schedule(t(5), "s5");
        q.schedule_batch([(t(9), "b9"), (t(2), "b2"), (t(5), "b5"), (t(7), "b7")]);
        q.schedule(t(7), "s7");
        assert_eq!(q.raw_len(), 6);
        assert_eq!(q.peek_time(), Some(t(2)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["b2", "s5", "b5", "b7", "s7", "b9"]);
        assert!(q.is_empty() && q.raw_len() == 0);
        // Emptied runs are reused; empty and one-event batches work too.
        q.schedule_batch([]);
        q.schedule_batch([(t(12), "one")]);
        q.schedule_batch([(t(11), "x"), (t(11), "y")]);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["x", "y", "one"]);
        assert_eq!(q.runs.len(), 1, "one run buffer served every batch");
    }

    /// Differential check: a calendar fed through `schedule_batch` runs and
    /// `preload` batches pops the same `(time, payload)` sequence as one fed
    /// through `schedule` alone, under random interleavings with `schedule`
    /// and `pop`. Times are drawn from a narrow window so ties on `at` are
    /// frequent, and batch sizes include 0 and 1.
    #[test]
    fn batches_and_preload_pop_exactly_like_schedule() {
        let mut rng = SimRng::new(0x5eed);
        for _ in 0..300 {
            let mut fast = EventQueue::new();
            let mut reference = EventQueue::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut payload = 0u32;
            let mut draw = |rng: &mut SimRng, now: SimTime| {
                payload += 1;
                (now + Duration::from_nanos(rng.range_u64(0, 8)), payload)
            };
            for _ in 0..80 {
                let now = fast.now();
                match rng.index(5) {
                    op @ (0 | 1) => {
                        let n = rng.index(7);
                        let batch: Vec<(SimTime, u32)> =
                            (0..n).map(|_| draw(&mut rng, now)).collect();
                        for &(at, p) in &batch {
                            reference.schedule(at, p);
                        }
                        let before = fast.raw_len();
                        if op == 0 {
                            fast.schedule_batch(batch);
                        } else {
                            fast.preload(batch);
                        }
                        assert_eq!(fast.raw_len(), before + n, "raw_len counts every member");
                    }
                    2 => {
                        let (at, p) = draw(&mut rng, now);
                        fast.schedule(at, p);
                        reference.schedule(at, p);
                    }
                    _ => {
                        got.extend(fast.pop());
                        want.extend(reference.pop());
                    }
                }
                assert_eq!(fast.raw_len(), reference.raw_len());
                assert_eq!(fast.peek_time(), reference.peek_time());
                assert_eq!(fast.now(), reference.now());
                assert_eq!(fast.events_delivered(), reference.events_delivered());
                assert_eq!(fast.is_empty(), reference.is_empty());
            }
            got.extend(std::iter::from_fn(|| fast.pop()));
            want.extend(std::iter::from_fn(|| reference.pop()));
            assert_eq!(got, want);
            assert_eq!(fast.events_delivered(), reference.events_delivered());
            assert_eq!(fast.raw_len(), 0);
        }
    }
}
