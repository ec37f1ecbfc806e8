//! The event calendar driving every simulation.
//!
//! [`EventQueue`] is a priority queue of `(time, event)` pairs. Ties on time
//! are broken by insertion order (a monotonically increasing sequence
//! number), which makes every simulation fully deterministic: two runs with
//! the same seed schedule and pop events in exactly the same order.
//!
//! The calendar is one deque of entries kept sorted, earliest first. A
//! simulation's live events are few and mostly due soon, so
//! [`EventQueue::schedule`] finds each one's slot by galloping from the
//! earliest end and inserts it there, shifting whichever side of the deque
//! is shorter. Events known up front (pre-generated noise bursts, which
//! outnumber the live events by orders of magnitude, or a replayed trace)
//! go in through [`EventQueue::preload`], which appends a batch and sorts
//! once. Preloaded entries draw their sequence numbers exactly as
//! `schedule` would, so the pop order is the same either way.
//!
//! That `(at, seq)` pair is an event's [`EventKey`]. A component that
//! settles some completions itself, outside the calendar, can still settle
//! them in calendar order: [`EventClock::reserve`] hands out the sequence
//! numbers `schedule` would have drawn, [`EventQueue::schedule_keyed`]
//! schedules an event under a reserved key, and [`EventClock::key`] reports
//! the key of the event being handled. The cluster's SSD stack gives each
//! striped request one calendar event this way, at its last page's key,
//! and releases the other pages as deferred records.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::time::{Duration, SimTime};

/// An event's place in the total pop order: its time, then the sequence
/// number that breaks ties on time. Smaller keys pop first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct EventKey {
    /// When the event fires.
    pub at: SimTime,
    /// The sequence number drawn when the event was scheduled or reserved.
    pub seq: u64,
}

/// A pending event under its key.
struct Entry<E> {
    key: EventKey,
    event: E,
}

/// The calendar position a queue shares with its [`EventClock`]s.
#[derive(Default)]
struct Position {
    /// Key of the most recently popped event.
    key: Cell<EventKey>,
    /// The next sequence number to hand out.
    next_seq: Cell<u64>,
}

/// A shared handle on an [`EventQueue`]'s position (see
/// [`EventQueue::clock`]), for a component that settles work in calendar
/// order without owning the calendar. A default clock belongs to no queue:
/// its key stays at time zero, sequence 0.
#[derive(Clone, Default)]
pub struct EventClock(Rc<Position>);

impl EventClock {
    /// The key of the event being handled: the queue's most recently
    /// popped event.
    pub fn key(&self) -> EventKey {
        self.0.key.get()
    }

    /// Reserves `n` consecutive sequence numbers and returns the first.
    /// They come from the counter [`EventQueue::schedule`] draws from, so
    /// an event scheduled later under one of them with
    /// [`EventQueue::schedule_keyed`] pops exactly where it would have, had
    /// it been scheduled at the moment of the reservation.
    pub fn reserve(&self, n: u64) -> u64 {
        let first = self.0.next_seq.get();
        self.0.next_seq.set(first + n);
        first
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
    /// Pending entries in key order: the earliest is at the front.
    calendar: VecDeque<Entry<E>>,
    /// The calendar position; its key's time is the current virtual time.
    clock: EventClock,
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
            calendar: VecDeque::new(),
            clock: EventClock::default(),
            popped: 0,
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.key().at
    }

    /// The key of the most recently popped event (time zero, sequence 0
    /// before the first pop).
    pub fn key(&self) -> EventKey {
        self.clock.key()
    }

    /// A handle that follows this calendar's position and reserves
    /// sequence numbers from it.
    pub fn clock(&self) -> EventClock {
        self.clock.clone()
    }

    /// Stamps `event` with its (clamped) time and sequence number `seq`.
    fn entry(&self, at: SimTime, seq: u64, event: E) -> Entry<E> {
        let now = self.now();
        debug_assert!(at >= now, "scheduled event in the past: at={at} now={now}");
        Entry {
            key: EventKey {
                at: at.max(now),
                seq,
            },
            event,
        }
    }

    /// Inserts `entry` at its place in key order. Gallops from the front
    /// (probing slots 0, 1, 3, 7, ...) to the first probe keyed above it,
    /// then binary-searches the bracket that probe closes, so an event due
    /// before the `i`-th entry costs O(log i) comparisons.
    /// `VecDeque::insert` shifts the shorter side.
    fn insert(&mut self, entry: Entry<E>) {
        let key = entry.key;
        let len = self.calendar.len();
        let (mut lo, mut hi) = (0, 0);
        while hi < len && self.calendar[hi].key < key {
            lo = hi + 1;
            hi = 2 * hi + 1;
        }
        hi = hi.min(len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.calendar[mid].key < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.calendar.insert(lo, entry);
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is earlier than the current time.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let entry = self.entry(at, self.clock.reserve(1), event);
        self.insert(entry);
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        let at = self.now() + delay;
        self.schedule(at, event);
    }

    /// Schedules `event` under `key`, whose sequence number was reserved
    /// with [`EventClock::reserve`]: it pops where an event scheduled at
    /// `key.at` at the moment of the reservation would have.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `key.at` is earlier than the current time
    /// or `key.seq` was never handed out.
    pub fn schedule_keyed(&mut self, key: EventKey, event: E) {
        debug_assert!(
            key.seq < self.clock.0.next_seq.get(),
            "sequence number {} was never reserved",
            key.seq
        );
        let entry = self.entry(key.at, key.seq, event);
        self.insert(entry);
    }

    /// Schedules a batch of `(at, event)` pairs at once: appends them, then
    /// sorts the calendar.
    ///
    /// Sequence numbers are assigned in iteration order, so the pop order is
    /// exactly that of calling [`EventQueue::schedule`] for each pair in
    /// turn. Meant for large batches known up front, where one sort beats
    /// an insert per event; each call sorts the whole calendar.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any `at` is earlier than the current time.
    pub fn preload(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        for (at, event) in events {
            let entry = self.entry(at, self.clock.reserve(1), event);
            self.calendar.push_back(entry);
        }
        self.calendar
            .make_contiguous()
            .sort_unstable_by_key(|e| e.key);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the calendar is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { key, event } = self.calendar.pop_front()?;
        self.clock.0.key.set(key);
        self.popped += 1;
        Some((key.at, event))
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.calendar.front().map(|e| e.key.at)
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.calendar.is_empty()
    }

    /// Number of pending events, preloaded ones included.
    pub fn raw_len(&self) -> usize {
        self.calendar.len()
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
    fn peek_reports_the_earliest_of_scheduled_and_preloaded() {
        let mut q = EventQueue::new();
        assert!(q.is_empty() && q.peek_time().is_none());
        q.schedule(SimTime::from_nanos(9), "live");
        q.preload([(SimTime::from_nanos(4), "preloaded")]);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(4)));
        assert_eq!(q.pop().unwrap().1, "preloaded");
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
    fn keyed_events_pop_at_their_reserved_place() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos;
        let clock = q.clock();
        q.schedule(t(5), "s5");
        let base = clock.reserve(3);
        q.schedule(t(7), "s7");
        // Scheduled out of order and after `s7`, yet each pops where a
        // plain `schedule` at reservation time would have put it.
        q.schedule_keyed(
            EventKey {
                at: t(7),
                seq: base + 2,
            },
            "k7",
        );
        q.schedule_keyed(
            EventKey {
                at: t(2),
                seq: base,
            },
            "k2",
        );
        q.schedule_keyed(
            EventKey {
                at: t(5),
                seq: base + 1,
            },
            "k5",
        );
        assert_eq!(q.raw_len(), 5);
        assert_eq!(q.peek_time(), Some(t(2)));
        let mut order = Vec::new();
        while let Some((at, e)) = q.pop() {
            assert_eq!(q.key().at, at);
            assert_eq!(clock.key(), q.key(), "the clock follows every pop");
            order.push(e);
        }
        assert_eq!(order, ["k2", "s5", "k5", "k7", "s7"]);
        assert_eq!(q.key(), EventKey { at: t(7), seq: 4 }, "s7 drew seq 4");
        assert!(q.is_empty() && q.raw_len() == 0);
    }

    /// An independent reference calendar: every pending `(at, seq,
    /// payload)` in a `Vec` sorted latest first, so the earliest pops off
    /// the end. It shares no code with [`EventQueue`]; like `schedule`, it
    /// draws sequence numbers in call order.
    #[derive(Default)]
    struct Oracle {
        pending: Vec<(SimTime, u64, u32)>,
        next_seq: u64,
        key: EventKey,
    }

    impl Oracle {
        fn schedule(&mut self, at: SimTime, p: u32) {
            let seq = self.next_seq;
            self.next_seq += 1;
            let i = self.pending.partition_point(|e| (e.0, e.1) > (at, seq));
            self.pending.insert(i, (at, seq, p));
        }

        fn pop(&mut self) -> Option<(SimTime, u32)> {
            let (at, seq, p) = self.pending.pop()?;
            self.key = EventKey { at, seq };
            Some((at, p))
        }

        fn key(&self) -> EventKey {
            self.key
        }

        fn now(&self) -> SimTime {
            self.key.at
        }

        fn raw_len(&self) -> usize {
            self.pending.len()
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.pending.last().map(|e| e.0)
        }
    }

    /// Pops one event from both calendars and checks they agree on it and
    /// on the key it leaves behind; false once both are empty.
    fn pop_both(q: &mut EventQueue<u32>, oracle: &mut Oracle) -> bool {
        let got = q.pop();
        assert_eq!(got, oracle.pop());
        assert_eq!(q.key(), oracle.key());
        got.is_some()
    }

    /// Differential check of the calendar against the [`Oracle`] on the
    /// inputs a sorted calendar is sensitive to: deep inserts into a few
    /// thousand preloaded entries, long ascending runs of `schedule` (a
    /// replayed trace), ties at `now`, and `preload` batches landing
    /// between live events, interleaved at random with bursts of pops.
    #[test]
    fn calendar_pops_like_an_independent_oracle() {
        let mut rng = SimRng::new(0xca1e);
        let horizon = 1_000_000;
        for _ in 0..6 {
            let mut q = EventQueue::new();
            let mut oracle = Oracle::default();
            let mut payload = 0u32;
            let mut next = || {
                payload += 1;
                payload
            };
            let ns = Duration::from_nanos;
            let preloaded: Vec<(SimTime, u32)> = (0..rng.range_u64(1_000, 4_000))
                .map(|_| (SimTime::ZERO + ns(rng.range_u64(0, horizon)), next()))
                .collect();
            for &(at, p) in &preloaded {
                oracle.schedule(at, p);
            }
            q.preload(preloaded);
            for _ in 0..60 {
                let now = q.now();
                match rng.index(6) {
                    0 => {
                        for _ in 0..rng.index(400) {
                            let (at, p) = (now + ns(rng.range_u64(0, horizon)), next());
                            q.schedule(at, p);
                            oracle.schedule(at, p);
                        }
                    }
                    1 => {
                        for _ in 0..rng.index(40) {
                            let (at, p) = (now + ns(rng.range_u64(0, 4)), next());
                            q.schedule(at, p);
                            oracle.schedule(at, p);
                        }
                    }
                    2 => {
                        for _ in 0..rng.index(20) {
                            let p = next();
                            q.schedule(now, p);
                            oracle.schedule(now, p);
                        }
                    }
                    3 => {
                        let mut at = now + ns(rng.range_u64(0, 1_000));
                        for _ in 0..rng.range_u64(100, 3_000) {
                            at += ns(rng.range_u64(0, 3));
                            let p = next();
                            q.schedule(at, p);
                            oracle.schedule(at, p);
                        }
                    }
                    4 => {
                        let batch: Vec<(SimTime, u32)> = (0..rng.index(1_500))
                            .map(|_| (now + ns(rng.range_u64(0, horizon / 10)), next()))
                            .collect();
                        for &(at, p) in &batch {
                            oracle.schedule(at, p);
                        }
                        q.preload(batch);
                    }
                    _ => {
                        for _ in 0..rng.index(1_500) {
                            pop_both(&mut q, &mut oracle);
                        }
                    }
                }
                assert_eq!(q.raw_len(), oracle.raw_len());
                assert_eq!(q.peek_time(), oracle.peek_time());
            }
            while pop_both(&mut q, &mut oracle) {}
            assert!(q.is_empty());
        }
    }

    /// Pops `fast`'s next event into `got`, preceded by the `deferred`
    /// members keyed at or below it in key order; returns its key.
    fn pop_settling(
        fast: &mut EventQueue<u32>,
        deferred: &mut Vec<(EventKey, u32)>,
        got: &mut Vec<(SimTime, u32)>,
    ) -> Option<EventKey> {
        let (at, p) = fast.pop()?;
        let key = fast.key();
        deferred.sort_unstable_by_key(|d| std::cmp::Reverse(d.0));
        while let Some(&(k, p)) = deferred.last().filter(|d| d.0 <= key) {
            deferred.pop();
            got.push((k.at, p));
        }
        got.push((at, p));
        Some(key)
    }

    /// Differential check of deferred settling against the [`Oracle`] fed
    /// through `schedule` alone, under random interleavings with
    /// `schedule`, `preload` and `pop`. The fast side reserves each batch's
    /// sequence numbers, schedules only the batch's greatest key and keeps
    /// the other members aside; before each event it pops, it settles the
    /// kept members keyed at or below that event, in key order. Other
    /// batches go in through `schedule_keyed` in reverse order. Times are
    /// drawn from a narrow window so ties on `at` are frequent, and batch
    /// sizes include 0 and 1.
    #[test]
    fn deferred_batches_settle_exactly_like_schedule() {
        let mut rng = SimRng::new(0x5eed);
        for _ in 0..300 {
            let mut fast = EventQueue::new();
            let mut reference = Oracle::default();
            let clock = fast.clock();
            let mut deferred: Vec<(EventKey, u32)> = Vec::new();
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
                        let base = clock.reserve(n as u64);
                        let mut keyed: Vec<(EventKey, u32)> = batch
                            .iter()
                            .zip(base..)
                            .map(|(&(at, p), seq)| (EventKey { at, seq }, p))
                            .collect();
                        if op == 0 {
                            keyed.sort_unstable();
                            if let Some((key, p)) = keyed.pop() {
                                fast.schedule_keyed(key, p);
                            }
                            deferred.extend(keyed);
                        } else {
                            for (key, p) in keyed.into_iter().rev() {
                                fast.schedule_keyed(key, p);
                            }
                        }
                    }
                    2 => {
                        let batch: Vec<(SimTime, u32)> =
                            (0..rng.index(4)).map(|_| draw(&mut rng, now)).collect();
                        for &(at, p) in &batch {
                            reference.schedule(at, p);
                        }
                        fast.preload(batch);
                    }
                    3 => {
                        let (at, p) = draw(&mut rng, now);
                        fast.schedule(at, p);
                        reference.schedule(at, p);
                    }
                    _ => {
                        if let Some(key) = pop_settling(&mut fast, &mut deferred, &mut got) {
                            while want.len() < got.len() {
                                want.extend(reference.pop());
                            }
                            assert_eq!(reference.key(), key);
                        }
                    }
                }
                assert_eq!(got, want);
                assert_eq!(fast.now(), reference.now());
                assert_eq!(fast.key(), reference.key());
                assert_eq!(clock.key(), fast.key());
                assert_eq!(
                    fast.raw_len() + deferred.len(),
                    reference.raw_len(),
                    "every event is in the calendar or deferred"
                );
            }
            while pop_settling(&mut fast, &mut deferred, &mut got).is_some() {}
            want.extend(std::iter::from_fn(|| reference.pop()));
            assert_eq!(got, want);
            assert!(deferred.is_empty(), "every deferred member settled");
            assert_eq!(fast.raw_len(), 0);
        }
    }
}
