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

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
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

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.lane.last().max(self.heap.peek()).map(|e| e.at)
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Number of pending events, preloaded ones included.
    pub fn raw_len(&self) -> usize {
        self.heap.len() + self.lane.len()
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

    /// Differential check: a calendar fed through `preload` batches pops
    /// the same `(time, payload)` sequence as one fed through `schedule`
    /// alone, under random interleavings with `schedule` and `pop`. Times
    /// are drawn from a narrow window so ties on `at` are frequent.
    #[test]
    fn preload_pops_exactly_like_schedule() {
        let mut rng = SimRng::new(0x5eed);
        for _ in 0..200 {
            let mut fast = EventQueue::new();
            let mut reference = EventQueue::new();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut payload = 0u32;
            let mut draw = |rng: &mut SimRng, now: SimTime| {
                payload += 1;
                (now + Duration::from_nanos(rng.range_u64(0, 8)), payload)
            };
            for _ in 0..60 {
                let now = fast.now();
                match rng.index(3) {
                    0 => {
                        let n = rng.index(6);
                        let batch: Vec<(SimTime, u32)> =
                            (0..n).map(|_| draw(&mut rng, now)).collect();
                        for &(at, p) in &batch {
                            reference.schedule(at, p);
                        }
                        let before = fast.raw_len();
                        fast.preload(batch);
                        assert_eq!(fast.raw_len(), before + n, "raw_len counts the lane");
                    }
                    1 => {
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
            }
            got.extend(std::iter::from_fn(|| fast.pop()));
            want.extend(std::iter::from_fn(|| reference.pop()));
            assert_eq!(got, want);
            assert_eq!(fast.events_delivered(), reference.events_delivered());
        }
    }
}
