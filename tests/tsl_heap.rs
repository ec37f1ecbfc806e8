//! Heap budget of the tsl timeline: the bytes a finished run's timeline
//! keeps per touched `(node, window)` cell. A contended MittOS cluster runs
//! once with tsl off and once with it on; the difference between the bytes
//! each held result retains is the timeline's, and it is divided by the
//! number of windows the `mitt-tsl/v1` export lists.
//!
//! The file installs its own global allocator, so it builds only without
//! the `prof` feature, which installs mitt-prof's.
#![cfg(not(feature = "prof"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mittos_repro::cluster::{
    run_experiment, ExperimentConfig, ExperimentResult, InitialReplica, NodeConfig, NoiseKind,
    NoiseStream, Strategy,
};
use mittos_repro::device::IoClass;
use mittos_repro::sim::{Duration, SimRng};
use mittos_repro::tsl::TslConfig;
use mittos_repro::workload::NoiseGen;

/// Budget per touched cell: the cell, its 8-byte row slot and a few
/// 16-byte histogram pairs, with room for row growth slack. The
/// 17-counter cell (184 bytes) came to 219 per cell here, the compact one
/// (80 bytes) to 126.
const BUDGET_PER_CELL: isize = 140;

thread_local! {
    /// Bytes allocated minus bytes freed on this thread. The simulator
    /// runs on the test's thread, and libtest's own threads count apart.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(bytes: isize) {
    // During thread teardown the slot may be gone; nothing is measured then.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

/// `System`, counting the live bytes of each thread.
struct LiveBytes;

// SAFETY: every call is handed verbatim to `System`, so its contracts are
// `System`'s own; `track` only updates a thread-local counter and never
// allocates. `Layout` sizes never exceed `isize::MAX`, so the casts are
// lossless.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// A three-replica MittOS cluster under the Fig 5 cluster's kind of disk
/// noise (`NoiseGen::ec2_disk` bursts, with gaps short enough to land in a
/// short run), with 10 ms windows. Gets, misses, admits and dispatches land
/// in most windows, and rejects and EBUSY replies in about one cell in
/// ten, as on the `cfq20_obs` benchmark's MittOS arm.
fn config(tsl: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::micro(
        NodeConfig::disk_cfq(),
        Strategy::MittOs {
            deadline: Duration::from_millis(16),
        },
    );
    cfg.seed = 11;
    cfg.clients = 4;
    cfg.ops_per_client = 300;
    cfg.initial_replica = InitialReplica::Random;
    cfg.think_time = Duration::from_millis(2);
    let gen = NoiseGen {
        gap_mean: Duration::from_secs(3),
        ..NoiseGen::ec2_disk()
    };
    let mut rng = SimRng::new(5);
    cfg.noise = vec![NoiseStream {
        kind: NoiseKind::DiskReads {
            len: 1 << 20,
            class: IoClass::BestEffort,
            priority: 4,
        },
        schedules: (0..cfg.nodes)
            .map(|_| gen.generate(Duration::from_secs(600), &mut rng.fork()))
            .collect(),
    }];
    cfg.tsl = tsl.then(|| TslConfig {
        window: Duration::from_millis(10),
        ..TslConfig::default()
    });
    cfg
}

/// Runs `cfg` and returns the held result with the bytes it retains.
fn retained(cfg: ExperimentConfig) -> (ExperimentResult, isize) {
    let before = LIVE.with(Cell::get);
    let res = run_experiment(cfg);
    let after = LIVE.with(Cell::get);
    (res, after - before)
}

#[test]
fn a_touched_timeline_cell_retains_at_most_the_budget() {
    // The first run fills process-wide memos (the Zipfian zeta sum), which
    // would otherwise count against whichever run came first.
    drop(run_experiment(config(false)));
    let (off, off_bytes) = retained(config(false));
    let (on, on_bytes) = retained(config(true));
    assert_eq!(off.get_latencies.samples(), on.get_latencies.samples());
    let export = on.tsl.export_json();
    let cells = export.matches("{\"w\":").count() as isize;
    assert!(cells > 1_000, "only {cells} touched cells");
    let per_cell = (on_bytes - off_bytes) / cells;
    assert!(
        per_cell <= BUDGET_PER_CELL,
        "{per_cell} retained bytes per touched cell over {cells} cells \
         (budget {BUDGET_PER_CELL})"
    );
}
