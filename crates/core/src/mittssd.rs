//! MittSSD: the SLO-aware host-managed SSD predictor (§4.3).
//!
//! An SSD is not a single queue: every chip has its own queueing delay and
//! chips share channel bandwidth. Block-level accounting (MittNoop-style)
//! would be wrong — ten IOs to ten different channels create no queueing at
//! all. MittSSD therefore mirrors the drive's internal geometry, which is
//! only possible because the drive is host-managed (LightNVM/OpenChannel):
//! the OS runs the FTL, so it knows which chip every page lives on and
//! issues every GC/erase itself.
//!
//! Per the paper: `T_wait = (T_chipNextFree - T_now) + 60µs ×
//! #IOsSameChannel`; a page read advances the chip's next-free time by
//! 100 µs, programs by the profiled MLC pattern time, and erases by 6 ms.
//! For a striped multi-page request, if *any* sub-page violates the
//! deadline the whole request is rejected and nothing is submitted.

use mitt_device::{BlockIo, IoId, IoKind, SsdSpec};
use mitt_sim::{Duration, SimTime};
use mitt_trace::{Resource, Subsystem};

use crate::admit::{admit_bare, Predictor};
use crate::profile::SsdProfile;
use crate::slo::Decision;

/// One admitted sub-IO of a request-level caller awaiting its
/// completion, kept with its chip.
struct SubRec {
    io: IoId,
    index: u32,
    channel: u32,
    predicted: Duration,
}

/// The MittSSD admission predictor.
pub struct MittSsd {
    profile: SsdProfile,
    hop: Duration,
    spec: SsdSpec,
    chip_free_ns: Vec<i64>,
    chan_outstanding: Vec<u32>,
    /// Mirror of each chip's append pointer, for program-time prediction.
    append_page: Vec<u32>,
    /// Each chip's sub-IOs admitted through [`MittSsd::admit`] or
    /// [`MittSsd::account`] and not yet completed: a chip's queue is
    /// short, so a completion finds its record by a scan. Callers that
    /// keep their own page records use the page steps and never fill it.
    chip_subs: Vec<Vec<SubRec>>,
    /// Admitted sub-IOs not yet completed, across all requests.
    in_flight: u64,
    admitted: u64,
    rejected: u64,
}

impl MittSsd {
    /// Creates a predictor for a drive with the given geometry and a
    /// measured timing profile.
    pub fn new(spec: &SsdSpec, profile: SsdProfile, hop: Duration) -> Self {
        MittSsd {
            profile,
            hop,
            spec: spec.clone(),
            chip_free_ns: vec![0; spec.num_chips()],
            chan_outstanding: vec![0; spec.channels],
            append_page: vec![0; spec.num_chips()],
            chip_subs: (0..spec.num_chips()).map(|_| Vec::new()).collect(),
            in_flight: 0,
            admitted: 0,
            rejected: 0,
        }
    }

    fn sub_wait_ns(&self, chip: usize, channel: usize, now: SimTime) -> i64 {
        let chip_wait = (self.chip_free_ns[chip] - now.as_nanos() as i64).max(0);
        let chan_wait = self.profile.channel_delay.as_nanos() as i64
            * i64::from(self.chan_outstanding[channel]);
        chip_wait + chan_wait
    }

    /// Predicted wait of the *worst* sub-page of `io` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `io.len` is 0 (see [`SsdSpec::stripe`]).
    pub fn predicted_wait(&self, io: &BlockIo, now: SimTime) -> Duration {
        let worst = self
            .spec
            .stripe(io.offset, io.len)
            .map(|(_, chip, channel)| self.sub_wait_ns(chip, channel, now))
            .max()
            .unwrap_or(0);
        Duration::from_nanos(worst.max(0) as u64)
    }

    /// The admission check. On rejection, *no* sub-page is accounted: the
    /// request never reaches the device.
    pub fn admit(&mut self, io: &BlockIo, now: SimTime) -> Decision {
        let decision = admit_bare(self, io, now).decision;
        if decision.is_admit() {
            self.account_subs(io, now);
        }
        decision
    }

    /// Unconditionally accounts an IO as admitted (advancing the chip and
    /// channel mirrors for every sub-page).
    pub fn account(&mut self, io: &BlockIo, now: SimTime) {
        self.admitted += 1;
        self.account_subs(io, now);
    }

    /// Accounts every page of `io` and keeps a record of each for
    /// [`MittSsd::on_complete_sub`].
    fn account_subs(&mut self, io: &BlockIo, now: SimTime) {
        for (index, chip, channel) in self.spec.stripe(io.offset, io.len) {
            let predicted = self.account_page(io.kind, chip, channel, now);
            debug_assert!(
                !self.chip_subs[chip]
                    .iter()
                    .any(|s| s.io == io.id && s.index == index),
                "{:?} admitted twice",
                io.id
            );
            self.chip_subs[chip].push(SubRec {
                io: io.id,
                index,
                channel: channel as u32,
                predicted,
            });
        }
    }

    /// Accounts one page of an admitted request on `chip` behind
    /// `channel`: picks its predicted busy time (a page read, or the
    /// program time of the chip's next append page), advances the chip's
    /// next-free mirror by it and counts the page on its channel. Returns
    /// the predicted busy time, which [`MittSsd::release_page`] takes
    /// back when the page completes.
    #[inline]
    pub fn account_page(
        &mut self,
        kind: IoKind,
        chip: usize,
        channel: usize,
        now: SimTime,
    ) -> Duration {
        let busy = match kind {
            IoKind::Read => self.profile.read_page,
            IoKind::Write => {
                let page = self.append_page[chip];
                let next = page + 1;
                self.append_page[chip] = if next == self.spec.pages_per_block {
                    0
                } else {
                    next
                };
                self.profile.prog_time(page)
            }
        };
        self.chip_free_ns[chip] =
            self.chip_free_ns[chip].max(now.as_nanos() as i64) + busy.as_nanos() as i64;
        self.chan_outstanding[channel] += 1;
        self.in_flight += 1;
        busy
    }

    /// Completes one page accounted by [`MittSsd::account_page`]: releases
    /// its channel slot and calibrates the chip mirror by the actual busy
    /// time minus the `predicted` one.
    #[inline]
    pub fn release_page(
        &mut self,
        chip: usize,
        channel: usize,
        actual: Duration,
        predicted: Duration,
    ) {
        debug_assert!(self.chan_outstanding[channel] > 0);
        self.chan_outstanding[channel] = self.chan_outstanding[channel].saturating_sub(1);
        self.chip_free_ns[chip] += actual.as_nanos() as i64 - predicted.as_nanos() as i64;
        self.in_flight -= 1;
    }

    /// Accounts a GC burst the OS-side FTL just issued on `chip`.
    pub fn on_gc(&mut self, chip: usize, busy: Duration, now: SimTime) {
        self.chip_free_ns[chip] =
            self.chip_free_ns[chip].max(now.as_nanos() as i64) + busy.as_nanos() as i64;
    }

    /// Accounts an explicit erase (wear leveling, trim).
    pub fn on_erase(&mut self, chip: usize, now: SimTime) {
        let erase = self.profile.erase;
        self.on_gc(chip, erase, now);
    }

    /// Completes page `index` of `io` on `chip`, admitted through
    /// [`MittSsd::admit`] or [`MittSsd::account`]: releases its channel
    /// slot and calibrates the chip mirror with the actual busy time. A
    /// sub-IO that was never admitted on `chip`, or has already completed,
    /// is ignored.
    pub fn on_complete_sub(&mut self, io: IoId, index: u32, actual_busy: Duration, chip: usize) {
        let subs = &mut self.chip_subs[chip];
        let Some(at) = subs.iter().position(|s| s.io == io && s.index == index) else {
            return;
        };
        let sub = subs.swap_remove(at);
        self.release_page(chip, sub.channel as usize, actual_busy, sub.predicted);
    }

    /// (admitted, rejected) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.admitted, self.rejected)
    }
}

impl Predictor for MittSsd {
    fn subsystem(&self) -> Subsystem {
        Subsystem::MittSsd
    }

    fn wait(&self, io: &BlockIo, now: SimTime) -> Duration {
        self.predicted_wait(io, now)
    }

    /// Counts the admitted request and accounts none of its pages: whoever
    /// walks its stripe accounts them with [`MittSsd::account_page`], as
    /// [`MittSsd::admit`] and [`MittSsd::account`] do themselves.
    fn account(&mut self, _io: &BlockIo, _now: SimTime) -> Vec<IoId> {
        self.admitted += 1;
        Vec::new()
    }

    fn count_reject(&mut self) {
        self.rejected += 1;
    }

    /// Channel contention, with the in-flight sub-IOs across all chips.
    fn blame(&self) -> (Resource, u64) {
        (Resource::SsdChannel, self.in_flight)
    }

    fn hop(&self) -> Duration {
        self.hop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::DEFAULT_HOP;
    use mitt_device::{IoIdGen, ProcessId};

    fn predictor() -> (MittSsd, SsdSpec) {
        let spec = SsdSpec {
            jitter: 0.0,
            retry_prob: 0.0,
            gc_every_writes: 0,
            ..SsdSpec::default()
        };
        let prof = SsdProfile::from_spec(&spec);
        (MittSsd::new(&spec, prof, DEFAULT_HOP), spec)
    }

    fn rd(g: &mut IoIdGen, offset: u64, len: u32, deadline: Option<Duration>) -> BlockIo {
        let mut io = BlockIo::read(g.next_id(), offset, len, ProcessId(0), SimTime::ZERO);
        if let Some(d) = deadline {
            io = io.with_deadline(d);
        }
        io
    }

    fn wr(g: &mut IoIdGen, offset: u64, len: u32) -> BlockIo {
        BlockIo::write(g.next_id(), offset, len, ProcessId(0), SimTime::ZERO)
    }

    #[test]
    fn idle_chips_admit_sub_ms_reads() {
        let (mut p, _) = predictor();
        let mut g = IoIdGen::new();
        let d = p.admit(
            &rd(&mut g, 0, 4096, Some(Duration::from_millis(1))),
            SimTime::ZERO,
        );
        assert!(d.is_admit());
        assert_eq!(d.predicted_wait(), Duration::ZERO);
    }

    #[test]
    fn read_queued_behind_write_is_rejected() {
        let (mut p, spec) = predictor();
        let mut g = IoIdGen::new();
        // A write occupies chip 0 for 1-2ms.
        let w = wr(&mut g, 0, 4096);
        assert!(p.admit(&w, SimTime::ZERO).is_admit());
        // A 0.3ms-deadline read to the same chip must be rejected...
        let stride = u64::from(spec.page_size) * spec.num_chips() as u64;
        let r = rd(&mut g, stride, 4096, Some(Duration::from_micros(300)));
        assert!(!p.admit(&r, SimTime::ZERO).is_admit());
        // ...but a read to another chip is fine.
        let other = rd(
            &mut g,
            u64::from(spec.page_size) * 5,
            4096,
            Some(Duration::from_micros(300)),
        );
        assert!(p.admit(&other, SimTime::ZERO).is_admit());
    }

    #[test]
    fn striped_request_rejected_if_any_subpage_violates() {
        let (mut p, spec) = predictor();
        let mut g = IoIdGen::new();
        // Busy chip 2 with an erase.
        p.on_erase(2, SimTime::ZERO);
        // A 4-page read striped over chips 0..3 includes chip 2: rejected.
        let io = rd(
            &mut g,
            0,
            4 * spec.page_size,
            Some(Duration::from_millis(2)),
        );
        let d = p.admit(&io, SimTime::ZERO);
        assert!(!d.is_admit());
        assert!(d.predicted_wait() >= Duration::from_millis(5));
        // Nothing was accounted for the rejected stripe.
        let clean = rd(&mut g, 0, 4096, Some(Duration::from_millis(2)));
        let d = p.admit(&clean, SimTime::ZERO);
        assert_eq!(d.predicted_wait(), Duration::ZERO);
    }

    #[test]
    fn channel_outstanding_adds_delay() {
        let (mut p, spec) = predictor();
        let mut g = IoIdGen::new();
        // Two IOs to different chips on channel 0.
        let page = u64::from(spec.page_size);
        let chans = spec.channels as u64;
        assert!(p
            .admit(&rd(&mut g, 0, 4096, None), SimTime::ZERO)
            .is_admit());
        let next = rd(&mut g, page * chans, 4096, None);
        let w = p.predicted_wait(&next, SimTime::ZERO);
        assert_eq!(w, spec.channel_delay, "one outstanding channel IO = 60us");
    }

    #[test]
    fn completion_releases_channel_and_calibrates() {
        let (mut p, _spec) = predictor();
        let mut g = IoIdGen::new();
        let io = rd(&mut g, 0, 4096, None);
        p.admit(&io, SimTime::ZERO);
        // Device actually took 150us instead of 100us.
        p.on_complete_sub(io.id, 0, Duration::from_micros(150), 0);
        let probe = rd(&mut g, 0, 4096, None);
        let w = p.predicted_wait(&probe, SimTime::ZERO);
        assert_eq!(w, Duration::from_micros(150), "chip mirror calibrated");
    }

    #[test]
    fn write_prediction_follows_mlc_pattern() {
        let (mut p, spec) = predictor();
        let mut g = IoIdGen::new();
        let stride = u64::from(spec.page_size) * spec.num_chips() as u64;
        // Eight writes to chip 0: predicted chip busy must follow the
        // profiled pattern 1,1,1,1,1,1,1,2 (ms).
        let mut waits = Vec::new();
        for i in 0..8u64 {
            let io = wr(&mut g, i * stride, 4096);
            waits.push(p.predicted_wait(&io, SimTime::ZERO));
            p.admit(&io, SimTime::ZERO);
        }
        assert_eq!(waits[0], Duration::ZERO);
        for i in 1..8 {
            let delta = waits[i] - waits[i - 1];
            // Each admitted write adds its program time to the chip mirror
            // plus one outstanding-IO channel delay.
            let expected = spec.prog_time(i as u32 - 1) + spec.channel_delay;
            assert_eq!(delta, expected, "page {}", i - 1);
        }
    }

    /// `blame()` reports the admitted sub-IOs that have not completed,
    /// across random admissions (reads and multi-page writes) and
    /// out-of-order completions; a repeated completion changes nothing.
    #[test]
    fn blame_counts_sub_ios_in_flight() {
        let (mut p, spec) = predictor();
        let mut g = IoIdGen::new();
        let mut rng = mitt_sim::SimRng::new(0xb1a3e);
        let page = u64::from(spec.page_size);
        let (mut open, mut done) = (Vec::new(), Vec::new());
        for step in 0..3_000 {
            let now = SimTime::from_nanos(step * 10_000);
            if open.is_empty() || rng.chance(0.3) {
                let offset = rng.range_u64(0, 1 << 30);
                let len = rng.range_u64(1, 20 * page) as u32;
                let io = if rng.chance(0.5) {
                    rd(&mut g, offset, len, None)
                } else {
                    wr(&mut g, offset, len)
                };
                p.account(&io, now);
                open.extend(
                    spec.stripe(offset, len)
                        .map(|(index, chip, _)| (io.id, index, chip)),
                );
            } else if !done.is_empty() && rng.chance(0.2) {
                let (io, index, chip) = done[rng.index(done.len())];
                let before = (p.chip_free_ns.clone(), p.chan_outstanding.clone());
                p.on_complete_sub(io, index, spec.read_page, chip);
                assert_eq!(before, (p.chip_free_ns.clone(), p.chan_outstanding.clone()));
            } else {
                let sub = open.swap_remove(rng.index(open.len()));
                p.on_complete_sub(sub.0, sub.1, spec.read_page, sub.2);
                done.push(sub);
            }
            assert_eq!(p.blame(), (Resource::SsdChannel, open.len() as u64));
            let queued: u32 = p.chan_outstanding.iter().sum();
            assert_eq!(u64::from(queued), open.len() as u64);
        }
        assert!(done.len() > 1_000);
    }
}
