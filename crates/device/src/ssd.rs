//! OpenChannel-style SSD model: parallel channels and chips, MLC page
//! programming asymmetry, erases, and host-visible garbage collection.
//!
//! Mirrors the device of §4.3: 16 channels × 8 chips, 16 KB pages, 100 µs
//! page reads, 1 ms / 2 ms lower/upper MLC page programs laid out in the
//! profiled per-block pattern ("11111121121122…"), 6 ms erases, and a 60 µs
//! per-outstanding-IO channel queueing delay. Because the drive is
//! host-managed (LightNVM), every operation — including GC — is issued by
//! the OS, which is what makes the MittSSD predictor's white-box mirror
//! possible.
//!
//! Requests larger than one page are chopped into per-page sub-IOs striped
//! across chips; each sub-IO completes independently. A small multiplicative
//! jitter plus rare ECC-retry reads model the residual device variability
//! that the predictor cannot see (the source of Figure 9b's ≤0.8%
//! inaccuracy).

use mitt_faults::NodeCtx;
use mitt_prof::Phase;
use mitt_sim::{Duration, SimRng, SimTime};

use crate::io::{BlockIo, IoId, IoKind};

/// Static parameters of the SSD.
#[derive(Debug, Clone)]
pub struct SsdSpec {
    /// Number of parallel channels.
    pub channels: usize,
    /// Chips (LUNs) behind each channel.
    pub chips_per_channel: usize,
    /// Flash page size in bytes.
    pub page_size: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Chip busy time for one page read (incl. cell read + transfer).
    pub read_page: Duration,
    /// Program time of a lower (fast) MLC page.
    pub prog_fast: Duration,
    /// Program time of an upper (slow) MLC page.
    pub prog_slow: Duration,
    /// Block erase time.
    pub erase: Duration,
    /// Queueing delay added per outstanding IO on the same channel.
    pub channel_delay: Duration,
    /// Multiplicative jitter half-width on chip busy times (e.g. 0.03 =
    /// ±3%), invisible to predictors.
    pub jitter: f64,
    /// Probability that a page read needs an ECC retry.
    pub retry_prob: f64,
    /// Extra chip busy time for an ECC retry.
    pub retry_extra: Duration,
    /// Page programs on a chip between garbage-collection bursts
    /// (0 disables GC).
    pub gc_every_writes: u64,
    /// Pages copied (read+program) during one GC burst.
    pub gc_move_pages: u32,
}

impl Default for SsdSpec {
    /// The 2 TB OpenChannel SSD of the paper's testbed: 16 channels,
    /// 128 chips.
    fn default() -> Self {
        SsdSpec {
            channels: 16,
            chips_per_channel: 8,
            page_size: 16 * 1024,
            pages_per_block: 512,
            read_page: Duration::from_micros(100),
            prog_fast: Duration::from_millis(1),
            prog_slow: Duration::from_millis(2),
            erase: Duration::from_millis(6),
            channel_delay: Duration::from_micros(60),
            jitter: 0.03,
            retry_prob: 0.002,
            retry_extra: Duration::from_micros(400),
            gc_every_writes: 2048,
            gc_move_pages: 32,
        }
    }
}

impl SsdSpec {
    /// Total chip count.
    pub fn num_chips(&self) -> usize {
        self.channels * self.chips_per_channel
    }

    /// The channel a chip sits behind.
    pub fn channel_of(&self, chip: usize) -> usize {
        chip % self.channels
    }

    /// The chip a logical page is striped onto.
    pub fn chip_of_page(&self, lpn: u64) -> usize {
        (lpn % self.num_chips() as u64) as usize
    }

    /// The pages a request of `len` bytes at byte `offset` covers, striped
    /// round-robin over the chips: yields `(index, chip, channel)` per page,
    /// `index` counting from 0 within the request. Offsets are in logical
    /// page units (`offset / page_size`), so a page lands on
    /// [`SsdSpec::chip_of_page`] behind [`SsdSpec::channel_of`]; the walk
    /// divides once per request and steps with wrap-around per page.
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0: an empty request covers no page.
    pub fn stripe(&self, offset: u64, len: u32) -> Stripe {
        assert!(len > 0, "an SSD request must cover at least one byte");
        let page = u64::from(self.page_size);
        let first = offset / page;
        let last = (offset + u64::from(len - 1)) / page;
        let chip = self.chip_of_page(first);
        Stripe {
            index: 0,
            pages: (last - first + 1) as u32,
            chip,
            channel: self.channel_of(chip),
            num_chips: self.num_chips(),
            channels: self.channels,
        }
    }

    /// Program time of the page at index `page_in_block` within its block.
    ///
    /// Reproduces the profiled MLC pattern of §4.3: pages 0-6 are fast
    /// (lower pages), page 7 slow, pages 8-9 fast, and from page 10 the
    /// pattern "1122" repeats (two fast, two slow).
    pub fn prog_time(&self, page_in_block: u32) -> Duration {
        let fast = match page_in_block {
            0..=6 => true,
            7 => false,
            8 | 9 => true,
            i => (i - 10) % 4 < 2,
        };
        if fast {
            self.prog_fast
        } else {
            self.prog_slow
        }
    }

    /// Average page program time under the repeating pattern.
    pub fn prog_avg(&self) -> Duration {
        (self.prog_fast + self.prog_slow) / 2
    }
}

/// The pages of one request in striping order; see [`SsdSpec::stripe`].
#[derive(Debug, Clone)]
pub struct Stripe {
    index: u32,
    pages: u32,
    chip: usize,
    channel: usize,
    num_chips: usize,
    channels: usize,
}

impl Iterator for Stripe {
    type Item = (u32, usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        if self.index == self.pages {
            return None;
        }
        let page = (self.index, self.chip, self.channel);
        self.index += 1;
        self.chip += 1;
        if self.chip == self.num_chips {
            self.chip = 0;
        }
        self.channel += 1;
        if self.channel == self.channels {
            self.channel = 0;
        }
        Some(page)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.pages - self.index) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Stripe {}

/// Identifies one per-page sub-IO of a striped request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubIoKey {
    /// Parent request.
    pub io: IoId,
    /// Page index within the parent request.
    pub index: u32,
}

/// A scheduled sub-IO completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubCompletion {
    /// Which sub-IO.
    pub key: SubIoKey,
    /// Absolute completion time — schedule the SSD tick here.
    pub done_at: SimTime,
    /// Chip that served it.
    pub chip: usize,
    /// Channel that carried it.
    pub channel: usize,
    /// Chip busy time charged (excludes channel delay and queue wait).
    pub busy: Duration,
}

/// A garbage-collection burst triggered by write pressure on a chip.
///
/// The OS issues GC on a host-managed drive, so callers must forward this
/// to the MittSSD predictor to keep its chip mirror accurate.
#[derive(Debug, Clone, Copy)]
pub struct GcBurst {
    /// The chip that collected.
    pub chip: usize,
    /// Total chip busy time consumed (copies + erase).
    pub busy: Duration,
}

/// Result of submitting a request to the SSD.
#[derive(Debug, Clone, Default)]
pub struct SsdSubmit {
    /// One completion per page sub-IO (caller schedules each).
    pub subs: Vec<SubCompletion>,
    /// GC bursts triggered by this submission.
    pub gc: Vec<GcBurst>,
}

struct Chip {
    next_free: SimTime,
    append_page: u32,
    writes_since_gc: u64,
}

/// The SSD device.
pub struct Ssd {
    spec: SsdSpec,
    rng: SimRng,
    chips: Vec<Chip>,
    channel_outstanding: Vec<u32>,
    served_pages: u64,
    ctx: NodeCtx,
}

impl Ssd {
    /// Creates an SSD with the given spec; `rng` drives jitter and retries.
    pub fn new(spec: SsdSpec, rng: SimRng) -> Self {
        let chips = (0..spec.num_chips())
            .map(|_| Chip {
                next_free: SimTime::ZERO,
                append_page: 0,
                writes_since_gc: 0,
            })
            .collect();
        let channel_outstanding = vec![0; spec.channels];
        Ssd {
            spec,
            rng,
            chips,
            channel_outstanding,
            served_pages: 0,
            ctx: NodeCtx::disabled(),
        }
    }

    /// Attaches the node's handles: stall windows extend every flash
    /// sub-IO, and submit/complete are timed as the `Device` phase.
    pub fn set_ctx(&mut self, ctx: NodeCtx) {
        self.ctx = ctx;
    }

    /// The device's static parameters.
    pub fn spec(&self) -> &SsdSpec {
        &self.spec
    }

    /// Outstanding sub-IOs currently on `channel`.
    pub fn channel_outstanding(&self, channel: usize) -> u32 {
        self.channel_outstanding[channel]
    }

    /// Total page operations served.
    pub fn served_pages(&self) -> u64 {
        self.served_pages
    }

    #[inline]
    fn jittered(&mut self, d: Duration) -> Duration {
        // mitt-lint: allow(T002, "0.0 is an exact jitter-disabled sentinel from the spec, never the result of arithmetic")
        if self.spec.jitter == 0.0 {
            return d;
        }
        let f = self
            .rng
            .range_f64(1.0 - self.spec.jitter, 1.0 + self.spec.jitter);
        d.mul_f64(f)
    }

    /// Chip busy time for one page of this request (advances jitter RNG).
    ///
    /// Marked `#[inline]`, as are `jittered` and `maybe_gc`: the generic
    /// [`Ssd::submit_pages`] is compiled in its caller's crate, where only
    /// inline-marked helpers of this crate can be inlined.
    #[inline]
    fn page_busy(&mut self, kind: IoKind, chip: usize) -> Duration {
        match kind {
            IoKind::Read => {
                let mut busy = self.spec.read_page;
                if self.rng.chance(self.spec.retry_prob) {
                    busy += self.spec.retry_extra;
                }
                self.jittered(busy)
            }
            IoKind::Write => {
                let page = self.chips[chip].append_page;
                let next = page + 1;
                self.chips[chip].append_page = if next == self.spec.pages_per_block {
                    0
                } else {
                    next
                };
                self.jittered(self.spec.prog_time(page))
            }
        }
    }

    #[inline]
    fn maybe_gc(&mut self, chip: usize) -> Option<GcBurst> {
        if self.spec.gc_every_writes == 0 {
            return None;
        }
        if self.chips[chip].writes_since_gc < self.spec.gc_every_writes {
            return None;
        }
        self.chips[chip].writes_since_gc = 0;
        let copies = (self.spec.read_page + self.spec.prog_avg())
            .mul_f64(f64::from(self.spec.gc_move_pages));
        let busy = copies + self.spec.erase;
        self.chips[chip].next_free += busy;
        Some(GcBurst { chip, busy })
    }

    /// Submits a request; every page becomes an independently completing
    /// sub-IO.
    ///
    /// The offset is interpreted in logical page units (`offset /
    /// page_size`), striped round-robin across chips, matching the paper's
    /// ">16KB multi-page read to a chip is automatically chopped" note.
    ///
    /// # Panics
    ///
    /// Panics if `io.len` is 0 (see [`SsdSpec::stripe`]).
    pub fn submit(&mut self, io: &BlockIo, now: SimTime) -> SsdSubmit {
        let mut out = SsdSubmit::default();
        self.submit_pages(io, now, |sub, gc| {
            out.subs.push(sub);
            out.gc.extend(gc);
        });
        out
    }

    /// Submits a request page by page in striping order, handing each
    /// page's completion, and the GC burst its program triggered if any,
    /// to `on_page`; every page becomes an independently completing
    /// sub-IO. The whole walk, `on_page` included, is timed as the
    /// `Device` phase.
    ///
    /// # Panics
    ///
    /// Panics if `io.len` is 0 (see [`SsdSpec::stripe`]).
    pub fn submit_pages(
        &mut self,
        io: &BlockIo,
        now: SimTime,
        mut on_page: impl FnMut(SubCompletion, Option<GcBurst>),
    ) {
        let _t = self.ctx.prof.phase(Phase::Device);
        let stall = self.ctx.faults.ssd_stall(now);
        for (index, chip, channel) in self.spec.stripe(io.offset, io.len) {
            let busy = self.page_busy(io.kind, chip) + stall;
            let start = self.chips[chip].next_free.max(now);
            self.chips[chip].next_free = start + busy;
            let queue_delay =
                self.spec.channel_delay * u64::from(self.channel_outstanding[channel]);
            let done_at = self.chips[chip].next_free + queue_delay;
            self.channel_outstanding[channel] += 1;
            let gc = if io.kind == IoKind::Write {
                self.chips[chip].writes_since_gc += 1;
                self.maybe_gc(chip)
            } else {
                None
            };
            let sub = SubCompletion {
                key: SubIoKey { io: io.id, index },
                done_at,
                chip,
                channel,
                busy,
            };
            on_page(sub, gc);
        }
    }

    /// Records completion of a sub-IO, releasing its channel slot.
    ///
    /// # Panics
    ///
    /// Panics if the channel has no outstanding IO (double completion).
    pub fn complete_sub(&mut self, channel: usize, _now: SimTime) {
        let _t = self.ctx.prof.phase(Phase::Device);
        assert!(
            self.channel_outstanding[channel] > 0,
            "double completion on channel {channel}"
        );
        self.channel_outstanding[channel] -= 1;
        self.served_pages += 1;
    }

    /// Issues an explicit block erase on `chip` (wear-leveling, trim).
    /// Returns the chip busy time consumed.
    pub fn erase(&mut self, chip: usize, now: SimTime) -> Duration {
        let busy = self.jittered(self.spec.erase);
        let start = self.chips[chip].next_free.max(now);
        self.chips[chip].next_free = start + busy;
        busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{IoIdGen, ProcessId};
    use mitt_faults::FaultClock;

    fn ssd() -> Ssd {
        let spec = SsdSpec {
            jitter: 0.0,
            retry_prob: 0.0,
            ..SsdSpec::default()
        };
        Ssd::new(spec, SimRng::new(1))
    }

    fn rd(g: &mut IoIdGen, offset: u64, len: u32) -> BlockIo {
        BlockIo::read(g.next_id(), offset, len, ProcessId(0), SimTime::ZERO)
    }

    fn wr(g: &mut IoIdGen, offset: u64, len: u32) -> BlockIo {
        BlockIo::write(g.next_id(), offset, len, ProcessId(0), SimTime::ZERO)
    }

    /// The stepping walk agrees with the dividing definitions on every
    /// page, over random requests of every alignment, including ones that
    /// wrap from the last chip back to chip 0.
    #[test]
    fn stripe_matches_chip_of_page_on_every_page() {
        let spec = SsdSpec::default();
        let page = u64::from(spec.page_size);
        let chips = spec.num_chips() as u64;
        let mut rng = SimRng::new(0x57_21be);
        let mut wrapped = 0;
        for i in 0..5_000 {
            let offset = if i % 4 == 0 {
                // Start near the last chip so the request wraps.
                (rng.range_u64(0, 1 << 20) * chips + chips - 1 - rng.range_u64(0, 3)) * page
                    + rng.range_u64(0, page)
            } else {
                rng.range_u64(0, 1 << 40)
            };
            let len = rng.range_u64(1, 40 * page) as u32;
            let first = offset / page;
            let last = (offset + u64::from(len) - 1) / page;
            let want: Vec<(u32, usize, usize)> = (first..=last)
                .enumerate()
                .map(|(index, lpn)| {
                    let chip = spec.chip_of_page(lpn);
                    (index as u32, chip, spec.channel_of(chip))
                })
                .collect();
            let stripe = spec.stripe(offset, len);
            assert_eq!(stripe.len(), want.len());
            let got: Vec<(u32, usize, usize)> = stripe.collect();
            assert_eq!(got, want, "offset {offset} len {len}");
            wrapped += usize::from(got.windows(2).any(|w| w[1].1 < w[0].1));
        }
        assert!(wrapped > 500, "only {wrapped} requests wrapped to chip 0");
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_length_stripe_panics() {
        // Page-aligned and above 0: the page range would be empty.
        let spec = SsdSpec::default();
        let _ = spec.stripe(u64::from(spec.page_size) * 3, 0);
    }

    #[test]
    fn single_page_read_takes_read_page() {
        let mut s = ssd();
        let mut g = IoIdGen::new();
        let out = s.submit(&rd(&mut g, 0, 4096), SimTime::ZERO);
        assert_eq!(out.subs.len(), 1);
        assert_eq!(out.subs[0].done_at.as_micros(), 100);
        assert!(out.gc.is_empty());
    }

    #[test]
    fn stall_window_extends_every_sub_io() {
        use mitt_faults::FaultPlan;
        let mut s = ssd();
        let plan = FaultPlan::new().ssd_stall(
            0,
            SimTime::ZERO,
            Duration::from_secs(1),
            Duration::from_micros(500),
        );
        s.set_ctx(NodeCtx {
            faults: FaultClock::new(plan, SimRng::new(2)).for_node(0),
            ..NodeCtx::disabled()
        });
        let mut g = IoIdGen::new();
        let page = s.spec().page_size;
        let out = s.submit(&rd(&mut g, 0, 2 * page), SimTime::ZERO);
        // read_page 100us + 500us stall per sub-IO, distinct chips.
        assert!(out.subs.iter().all(|sub| sub.done_at.as_micros() == 600));
        for sub in &out.subs {
            s.complete_sub(sub.channel, sub.done_at);
        }
        // Outside the window the stall vanishes.
        let after = s.submit(&rd(&mut g, 0, 4096), SimTime::from_nanos(2_000_000_000));
        assert_eq!(
            after.subs[0].done_at.as_micros(),
            2_000_100,
            "stall must not outlive its window"
        );
    }

    #[test]
    fn multi_page_read_stripes_across_chips() {
        let mut s = ssd();
        let mut g = IoIdGen::new();
        let page = s.spec().page_size;
        let out = s.submit(&rd(&mut g, 0, 4 * page), SimTime::ZERO);
        assert_eq!(out.subs.len(), 4);
        let chips: Vec<usize> = out.subs.iter().map(|c| c.chip).collect();
        assert_eq!(chips, vec![0, 1, 2, 3]);
        // Different chips and channels: all finish in parallel (plus
        // channel delays of zero outstanding each, channels differ).
        for sub in &out.subs {
            assert_eq!(sub.done_at.as_micros(), 100);
        }
    }

    #[test]
    fn same_chip_reads_queue_behind_each_other() {
        let mut s = ssd();
        let mut g = IoIdGen::new();
        let stride = u64::from(s.spec().page_size) * s.spec().num_chips() as u64;
        let a = s.submit(&rd(&mut g, 0, 4096), SimTime::ZERO);
        let b = s.submit(&rd(&mut g, stride, 4096), SimTime::ZERO);
        assert_eq!(a.subs[0].chip, b.subs[0].chip);
        // Second read waits for the first: 100us chip + 100us chip +
        // 60us channel delay from one outstanding IO.
        assert_eq!(b.subs[0].done_at.as_micros(), 260);
    }

    #[test]
    fn channel_delay_applies_across_chips_on_same_channel() {
        let mut s = ssd();
        let mut g = IoIdGen::new();
        let page = u64::from(s.spec().page_size);
        let channels = s.spec().channels as u64;
        // lpn 0 -> chip 0 (channel 0); lpn 16 -> chip 16 (channel 0 again).
        let a = s.submit(&rd(&mut g, 0, 4096), SimTime::ZERO);
        let b = s.submit(&rd(&mut g, page * channels, 4096), SimTime::ZERO);
        assert_eq!(a.subs[0].channel, b.subs[0].channel);
        assert_ne!(a.subs[0].chip, b.subs[0].chip);
        // Different chip so no chip queueing, but one outstanding channel IO
        // adds 60us: 100 + 60.
        assert_eq!(b.subs[0].done_at.as_micros(), 160);
    }

    #[test]
    fn mlc_program_pattern_matches_paper_prefix() {
        let spec = SsdSpec::default();
        let pattern: String = (0..16)
            .map(|i| {
                if spec.prog_time(i) == spec.prog_fast {
                    '1'
                } else {
                    '2'
                }
            })
            .collect();
        // Pages 0-6 fast, page 7 slow, pages 8-9 fast, then "1122" repeats.
        assert_eq!(pattern, "1111111211112211");
        // Every block index must map to one of the two programmed times.
        for i in 0..spec.pages_per_block {
            let t = spec.prog_time(i);
            assert!(t == spec.prog_fast || t == spec.prog_slow);
        }
    }

    #[test]
    fn writes_are_slower_than_reads_and_trigger_gc() {
        let spec = SsdSpec {
            jitter: 0.0,
            retry_prob: 0.0,
            gc_every_writes: 4,
            ..SsdSpec::default()
        };
        let mut s = Ssd::new(spec, SimRng::new(2));
        let mut g = IoIdGen::new();
        let stride = u64::from(s.spec().page_size) * s.spec().num_chips() as u64;
        let mut gc_seen = 0;
        for i in 0..8u64 {
            let out = s.submit(&wr(&mut g, i * stride, 4096), SimTime::ZERO);
            assert!(out.subs[0].busy >= Duration::from_millis(1));
            gc_seen += out.gc.len();
        }
        assert_eq!(gc_seen, 2, "8 writes with gc_every_writes=4");
    }

    #[test]
    fn erase_blocks_chip_for_6ms() {
        let mut s = ssd();
        let mut g = IoIdGen::new();
        let busy = s.erase(0, SimTime::ZERO);
        assert_eq!(busy, Duration::from_millis(6));
        let out = s.submit(&rd(&mut g, 0, 4096), SimTime::ZERO);
        assert_eq!(out.subs[0].done_at.as_micros(), 6100);
    }

    #[test]
    fn complete_sub_releases_channel() {
        let mut s = ssd();
        let mut g = IoIdGen::new();
        let out = s.submit(&rd(&mut g, 0, 4096), SimTime::ZERO);
        let sub = out.subs[0];
        assert_eq!(s.channel_outstanding(sub.channel), 1);
        s.complete_sub(sub.channel, sub.done_at);
        assert_eq!(s.channel_outstanding(sub.channel), 0);
        assert_eq!(s.served_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "double completion")]
    fn double_completion_panics() {
        let mut s = ssd();
        s.complete_sub(0, SimTime::ZERO);
    }
}
