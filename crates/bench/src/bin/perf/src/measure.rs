//! Measurement: the stopwatch, the calibration kernel that normalises
//! timings to a reference host, summary statistics, and the process
//! allocator that measures peak heap and counts allocations on demand.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicIsize, AtomicU8, Ordering};

use mitt_prof::{CountingAlloc, ProfSink};
use mitt_sim::SimTime;

/// A wall-clock stopwatch. The workspace reads the wall clock only inside
/// `mitt-prof`, so the stopwatch is a profiling sink used for its
/// throughput meter alone: started on creation, read by `finish`.
pub(crate) struct Stopwatch(ProfSink);

impl Stopwatch {
    pub(crate) fn start() -> Self {
        Stopwatch(ProfSink::enabled())
    }

    /// Wall nanoseconds since [`Stopwatch::start`].
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.0.finish(SimTime::ZERO);
        self.0.report().wall_elapsed_ns
    }
}

/// Runs `f` and returns its result with the wall nanoseconds it took.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed_ns())
}

/// Calibration-kernel milliseconds on the reference host; every
/// normalised timing is rescaled to a host where the kernel takes this.
pub(crate) const REFERENCE_CALIB_MS: f64 = 100.0;

/// The calibration kernel: std-only work shaped like the simulator's
/// (sequential fill, a sort, and pointer-chasing ordered-map traffic) that
/// calls no workspace code, so no change to the simulator can move it.
/// Fills 1 000 000 xorshift64 values, sorts them, inserts every 4th into a
/// `BTreeMap` keyed by `rotate_left(17)`, then looks up every 8th.
fn calibration_kernel() -> usize {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut values: Vec<u64> = (0..1_000_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let mut map = BTreeMap::new();
    for &v in values.iter().step_by(4) {
        map.insert(v.rotate_left(17), v);
    }
    values
        .iter()
        .step_by(8)
        .filter(|v| map.contains_key(&v.rotate_left(17)))
        .count()
}

/// Best of three calibration-kernel runs, in milliseconds. A smoke run
/// skips the kernel and reports raw timings.
pub(crate) fn calibrate(smoke: bool) -> f64 {
    if smoke {
        return REFERENCE_CALIB_MS;
    }
    (0..3)
        .map(|_| timed(|| black_box(calibration_kernel())).1 as f64 / 1e6)
        .fold(f64::INFINITY, f64::min)
}

/// Median of `v` (mean of the middle two for even lengths).
pub(crate) fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(v, n=4)`); a single value is its own quartiles.
pub(crate) fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// What the process allocator does besides handing every request to
/// `System`: nothing (the end-to-end runs pay one relaxed load per call),
/// charge `mitt-prof`'s per-phase counters (the traced run), or track the
/// live heap and its peak (the memory repetition).
static MODE: AtomicU8 = AtomicU8::new(PLAIN);
const PLAIN: u8 = 0;
const COUNT: u8 = 1;
const HEAP: u8 = 2;

/// Heap bytes allocated minus bytes freed since [`peak_heap`] started.
static HEAP_LIVE: AtomicIsize = AtomicIsize::new(0);
static HEAP_PEAK: AtomicIsize = AtomicIsize::new(0);

fn with_mode<T>(mode: u8, f: impl FnOnce() -> T) -> T {
    MODE.store(mode, Ordering::Relaxed);
    let out = f();
    MODE.store(PLAIN, Ordering::Relaxed);
    out
}

/// Runs `f` with allocations charged to `mitt-prof`'s per-phase counters.
pub(crate) fn counting_allocs<T>(f: impl FnOnce() -> T) -> T {
    with_mode(COUNT, f)
}

/// Runs `f` and returns its result with the most heap bytes it held live
/// at once, above what was live when it started. The allocation sequence
/// of a seeded run is fixed, so this is exact and repeats run to run.
pub(crate) fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    HEAP_LIVE.store(0, Ordering::Relaxed);
    HEAP_PEAK.store(0, Ordering::Relaxed);
    let out = with_mode(HEAP, f);
    (out, HEAP_PEAK.load(Ordering::Relaxed).unsigned_abs())
}

/// Adds `bytes` (negative for a free) to the live heap while [`peak_heap`]
/// runs. The simulator runs on one thread, so the unsynchronised peak
/// update never loses a maximum there.
fn track(bytes: isize) {
    if MODE.load(Ordering::Relaxed) == HEAP {
        let live = HEAP_LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if live > HEAP_PEAK.load(Ordering::Relaxed) {
            HEAP_PEAK.store(live, Ordering::Relaxed);
        }
    }
}

fn counting() -> bool {
    MODE.load(Ordering::Relaxed) == COUNT
}

/// The process allocator: `System`, routed through `mitt-prof`'s
/// `CountingAlloc` while [`counting_allocs`] runs.
struct SwitchedAlloc;

const COUNTING: CountingAlloc = CountingAlloc::new();

// SAFETY: both branches hand the request verbatim to `System` (the
// counting wrapper and `track` only update counters), so a block
// allocated on either branch may be resized or freed on either branch,
// and every `GlobalAlloc` contract is `System`'s own. `Layout` sizes never
// exceed `isize::MAX`, so the casts in `track` are lossless.
unsafe impl GlobalAlloc for SwitchedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            return COUNTING.alloc(layout);
        }
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            return COUNTING.dealloc(ptr, layout);
        }
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            return COUNTING.alloc_zeroed(layout);
        }
        track(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            return COUNTING.realloc(ptr, layout, new_size);
        }
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: SwitchedAlloc = SwitchedAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn calibration_kernel_finds_every_looked_up_key() {
        // Every 8th sorted value is also a 4th one, so all 125 000 lookups
        // hit; a kernel the optimiser had hollowed out would not count them.
        assert_eq!(calibration_kernel(), 125_000);
    }
}
