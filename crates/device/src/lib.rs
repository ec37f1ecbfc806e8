//! Storage device models for the MittOS reproduction.
//!
//! Three devices back the paper's three case studies:
//!
//! - [`disk`]: a rotational disk with a seek-distance cost model and an SSTF
//!   device queue (MittNoop/MittCFQ, §4.1-4.2 and Appendix A).
//! - [`ssd`]: an OpenChannel-style SSD with parallel channels/chips, MLC
//!   program-time asymmetry, erases and host-visible GC (MittSSD, §4.3).
//! - [`nvram`]: the capacitor-backed write buffer that keeps write latency
//!   insulated from drive contention (§7.8.6).
//!
//! All models are passive state machines over virtual time: `submit`
//! returns the absolute completion times the caller must schedule on its
//! event queue. The *devices* are ground truth; the MittOS predictors in the
//! `mittos` crate maintain independent mirrors of this state and can
//! therefore be wrong in exactly the ways the paper measures (Figure 9).
//!
//! # Examples
//!
//! ```
//! use mitt_device::{BlockIo, Disk, DiskSpec, IoIdGen, ProcessId, GB};
//! use mitt_sim::{SimRng, SimTime};
//!
//! let mut disk = Disk::new(DiskSpec::default(), SimRng::new(1));
//! let mut ids = IoIdGen::new();
//! let io = BlockIo::read(ids.next_id(), 500 * GB, 4096, ProcessId(1), SimTime::ZERO);
//! let started = disk.submit(io, SimTime::ZERO).unwrap().unwrap();
//! let (finished, _) = disk.complete(started.done_at).unwrap();
//! // A 4KB random read lands in the 6-10ms ballpark of the paper's disks.
//! assert!(finished.service.as_millis() >= 3);
//! ```

pub mod disk;
pub mod io;
pub mod nvram;
pub mod ssd;

pub use disk::{Disk, DiskFull, DiskSpec, FinishedIo, NoInflight, Started, GB};
pub use io::{BlockIo, IoClass, IoId, IoIdGen, IoKind, ProcessId};
pub use nvram::NvramBuffer;
pub use ssd::{GcBurst, Ssd, SsdSpec, SsdSubmit, Stripe, SubCompletion, SubIoKey};
