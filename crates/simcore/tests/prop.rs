//! Property-based tests for the simulation core.

#![cfg(feature = "props")]
// Gated: `proptest` is a crates.io dependency, unavailable offline.
// See the root Cargo.toml note to re-enable.

use proptest::prelude::*;

use mitt_sim::{Duration, EventQueue, LatencyRecorder, SimRng, SimTime};

proptest! {
    /// Events always pop in nondecreasing time order, regardless of the
    /// schedule order.
    #[test]
    fn event_queue_pops_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Equal-time events preserve insertion order (determinism).
    #[test]
    fn event_queue_is_fifo_within_a_timestamp(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_nanos(42), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_are_monotone(samples in prop::collection::vec(0u64..10_000_000, 2..300)) {
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            rec.record(Duration::from_nanos(s));
        }
        let qs = [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0];
        let values: Vec<Duration> = qs.iter().map(|&q| rec.quantile(q)).collect();
        for w in values.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        prop_assert_eq!(values[0], rec.min());
        prop_assert_eq!(*values.last().unwrap(), rec.max());
    }

    /// The mean lies between min and max.
    #[test]
    fn mean_is_bounded(samples in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            rec.record(Duration::from_nanos(s));
        }
        let mean = rec.mean();
        prop_assert!(rec.min() <= mean && mean <= rec.max());
    }

    /// range_u64 always lands inside its bounds.
    #[test]
    fn rng_range_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let x = rng.range_u64(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&x));
        }
    }

    /// Forked streams never produce the parent's next outputs.
    #[test]
    fn fork_does_not_alias_parent(seed in any::<u64>()) {
        let mut parent = SimRng::new(seed);
        let mut probe = parent.clone();
        let mut child = parent.fork();
        // `probe` replays what the parent *would* have produced without
        // the fork; the child's stream must diverge from it.
        let same = (0..32).filter(|_| probe.next_u64() == child.next_u64()).count();
        prop_assert!(same < 4, "child aliases parent stream");
    }

    /// Duration arithmetic: (a + b) - b == a.
    #[test]
    fn duration_add_sub_roundtrip(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let da = Duration::from_nanos(a);
        let db = Duration::from_nanos(b);
        prop_assert_eq!((da + db) - db, da);
        prop_assert_eq!((SimTime::ZERO + da + db) - db, SimTime::ZERO + da);
    }
}
