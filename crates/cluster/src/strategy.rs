//! Tail-tolerance strategies, implemented as §7.2 describes them, and
//! every client-side decision they make about a get()'s tries.
//! [`ClusterSim`] owns the event loop, nodes, network, noise and faults,
//! and asks this module's functions what the strategy under test does
//! (DESIGN.md §17).

use mitt_device::IoId;
use mitt_faults::BreakerState;
use mitt_sim::{Duration, SimTime};
use mitt_trace::Resource;
use mittos::DeadlineTuner;

use crate::sim::{ClusterSim, Ev, InitialReplica, IoCtx, TryResult};

/// Tail-tolerance strategy under test.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Single try, no timeout.
    Base,
    /// Timeout-and-retry with app-level cancellation; 3rd try never
    /// times out.
    AppTimeout {
        /// Retry threshold (the p95 latency in the paper).
        timeout: Duration,
    },
    /// Duplicate every request to two replicas.
    Clone2,
    /// Second request after the first is outstanding `after`.
    Hedged {
        /// Hedge threshold (the p95 latency in the paper).
        after: Duration,
    },
    /// Two tied requests; the loser is revoked when the winner begins
    /// execution at the device (§7.8.2 — doable here because our OS
    /// exposes the begin-execution signal).
    Tied {
        /// Delay before the duplicate is sent.
        delay: Duration,
    },
    /// Pick the replica with the lowest EWMA latency; no failover.
    Snitch {
        /// EWMA smoothing factor.
        alpha: f64,
    },
    /// C3-style adaptive selection: EWMA latency + cubic outstanding
    /// penalty.
    C3,
    /// MittOS: deadline-tagged reads, instant EBUSY failover; the 3rd try
    /// disables the deadline.
    MittOs {
        /// The SLO deadline (p95 expected latency).
        deadline: Duration,
    },
    /// MittOS with wait-time hints: when all replicas return EBUSY, a 4th
    /// try goes to the least-busy one (§7.8.1 extension).
    MittOsWait {
        /// The SLO deadline.
        deadline: Duration,
    },
    /// MittOS with the §8.1 deadline auto-tuner, fed by the EBUSY rate.
    MittOsAuto {
        /// Initial deadline before feedback kicks in.
        initial: Duration,
    },
    /// A surveyed NoSQL system's behaviour (Table 1): a default timeout
    /// and whether timing out fails over or surfaces an error.
    NosqlProfile {
        /// The system's (coarse) default timeout.
        timeout: Duration,
        /// True if a timeout triggers failover; false surfaces an error.
        failover: bool,
    },
}

impl Strategy {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Base => "Base",
            Strategy::AppTimeout { .. } => "AppTO",
            Strategy::Clone2 => "Clone",
            Strategy::Hedged { .. } => "Hedged",
            Strategy::Tied { .. } => "Tied",
            Strategy::Snitch { .. } => "Snitch",
            Strategy::C3 => "C3",
            Strategy::MittOs { .. } => "MittOS",
            Strategy::MittOsWait { .. } => "MittOS+Wait",
            Strategy::MittOsAuto { .. } => "MittOS+Auto",
            Strategy::NosqlProfile { .. } => "NoSQL",
        }
    }

    /// The SLO deadline the strategy tags reads with (MittOS+Auto's
    /// starting point), or `None` for the strategies that never send one.
    /// Only the strategies with one fail over on EBUSY and honour a
    /// resilience policy.
    pub(crate) fn slo_deadline(&self) -> Option<Duration> {
        match *self {
            Strategy::MittOs { deadline } | Strategy::MittOsWait { deadline } => Some(deadline),
            Strategy::MittOsAuto { initial } => Some(initial),
            _ => None,
        }
    }

    /// The deadline of a read's try `attempt_no`, counted from the start
    /// of its backoff round. `rounds_left` says a backoff policy still has
    /// whole-round retries to give; `tuner` is the client's MittOS+Auto
    /// tuner.
    pub(crate) fn try_deadline(
        &self,
        attempt_no: usize,
        replication: usize,
        rounds_left: bool,
        tuner: Option<&DeadlineTuner>,
    ) -> Option<Duration> {
        let deadline = match *self {
            // The final (3rd) retry disables the deadline so the op
            // always has a completion path. With a backoff policy the
            // whole-round retry *is* the completion path, so the deadline
            // stays on every try until the round budget is spent; the
            // final round then reverts to the plain rule.
            Strategy::MittOs { deadline } if rounds_left => return Some(deadline),
            Strategy::MittOs { deadline } => deadline,
            // The rich interface keeps the deadline on every replica try;
            // when all three reject, the 4th goes to the least-busy one
            // with the deadline disabled (§7.8.1).
            Strategy::MittOsWait { deadline } => {
                return (attempt_no < replication).then_some(deadline)
            }
            Strategy::MittOsAuto { .. } => tuner.expect("auto strategy has a tuner").deadline(),
            _ => return None,
        };
        (attempt_no + 1 < replication).then_some(deadline)
    }

    /// The timer armed with a get()'s first try: AppTO's or the NoSQL
    /// profile's timeout, the hedge threshold or the tie delay.
    pub(crate) fn first_timer(&self) -> Option<Duration> {
        match *self {
            Strategy::AppTimeout { timeout } | Strategy::NosqlProfile { timeout, .. } => {
                Some(timeout)
            }
            Strategy::Hedged { after } => Some(after),
            Strategy::Tied { delay } => Some(delay),
            _ => None,
        }
    }

    /// A client's deadline tuner (MittOS+Auto only).
    pub(crate) fn tuner(&self) -> Option<DeadlineTuner> {
        match *self {
            Strategy::MittOsAuto { initial } => Some(DeadlineTuner::default_p95(initial)),
            _ => None,
        }
    }

    /// Whether a try that reaches its node after the op was served is
    /// dropped before it consumes device time. Clone keeps its copies:
    /// the duplicated load is the strategy's cost.
    pub(crate) fn drops_late_tries(&self) -> bool {
        !matches!(self, Strategy::Clone2)
    }
}

impl ClusterSim {
    /// Sends a get()'s first try (both copies for Clone) and arms the
    /// strategy's timer.
    pub(crate) fn start_op(&mut self, op: usize, now: SimTime) {
        let node = match self.cfg.strategy {
            Strategy::Clone2 => {
                // Two random distinct replicas.
                let n = self.ops[op].replicas.len();
                let rng = &mut self.clients[self.ops[op].client].rng;
                let a = rng.index(n);
                let mut b = rng.index(n);
                if b == a {
                    b = (a + 1) % n;
                }
                self.send_try(op, self.ops[op].replicas[a], now);
                self.ops[op].replicas[b]
            }
            Strategy::Snitch { .. } | Strategy::C3 => self.adaptive_pick(op),
            _ if self.cfg.strategy.slo_deadline().is_some() => self.order_replicas(op, now),
            _ => {
                let idx = self.pick_initial(op);
                self.ops[op].replicas[idx]
            }
        };
        self.send_try(op, node, now);
        if let Some(after) = self.cfg.strategy.first_timer() {
            self.schedule(now + after, Ev::Timer { op, attempt: 0 });
        }
    }

    fn pick_initial(&mut self, op: usize) -> usize {
        let n_replicas = self.ops[op].replicas.len();
        match self.cfg.initial_replica {
            InitialReplica::Fixed(i) => i.min(n_replicas - 1),
            InitialReplica::Node(n) => self.ops[op]
                .replicas
                .iter()
                .position(|&r| r == n)
                .unwrap_or(0),
            InitialReplica::Random => self.clients[self.ops[op].client].rng.index(n_replicas),
        }
    }

    /// MittOS's failover walk: rotates the op's replica list so failovers
    /// walk the remaining replicas in order, and returns its head, the
    /// first try's replica.
    fn order_replicas(&mut self, op: usize, now: SimTime) -> usize {
        let replica_idx = self.pick_initial(op);
        self.ops[op].replicas.rotate_left(replica_idx);
        if self.cfg.monotonic_guard && !self.ops[op].is_write {
            // §8.3: be conservative about switching — walk replicas that
            // have applied the session's writes first, so a failover never
            // lands on a stale one while a fresh one exists.
            let key = self.ops[op].key;
            let client = self.ops[op].client;
            if self.clients[client].last_write.contains_key(&key) {
                let fresh_at = &self.fresh_at;
                self.ops[op]
                    .replicas
                    .sort_by_key(|&r| fresh_at.get(&(r, key)).map_or(SimTime::ZERO, |&v| v));
            }
        }
        // Skip replicas whose breaker is open (crashed or fail-slow
        // suspects); if every breaker is open keep the default order —
        // liveness beats the breaker.
        let breakers = &mut self.breakers;
        let replicas = &mut self.ops[op].replicas;
        let mut allowed = |r: usize| breakers.get_mut(r).is_none_or(|b| b.allow(now));
        if let Some(pos) = replicas.iter().position(|&r| allowed(r)) {
            replicas.rotate_left(pos);
        }
        replicas[0]
    }

    /// Snitch's and C3's choice: the replica with the lowest EWMA latency,
    /// for C3 plus a cubic penalty on its queue estimate.
    fn adaptive_pick(&self, op: usize) -> usize {
        let st = &self.clients[self.ops[op].client];
        let replicas = &self.ops[op].replicas;
        let c3 = matches!(self.cfg.strategy, Strategy::C3);
        let mut best = replicas[0];
        let mut best_score = f64::INFINITY;
        for &r in replicas {
            let base = st.ewma[r];
            let score = if c3 {
                // C3's cubic queue penalty: the queue estimate blends the
                // server-piggybacked backlog with the client's own
                // outstanding requests to that replica.
                let q = st.qhat[r] + f64::from(st.outstanding[r]) + 1.0;
                base + q * q * q * (base.max(1e5) / 8.0)
            } else {
                base
            };
            if score < best_score {
                best_score = score;
                best = r;
            }
        }
        best
    }

    /// The deadline of `op`'s next try; writes carry none.
    pub(crate) fn deadline_for(&self, op: usize) -> Option<Duration> {
        let o = &self.ops[op];
        if o.is_write {
            return None;
        }
        let max_rounds = self.cfg.resilience.map_or(0, |r| r.backoff.max_rounds);
        let tuner = self.clients[o.client].tuner.as_ref();
        let (attempt_no, replication) = (o.attempts.len() - o.round_base, self.cfg.replication);
        let strategy = &self.cfg.strategy;
        strategy.try_deadline(attempt_no, replication, o.backoff_round < max_rounds, tuner)
    }

    /// What a reply teaches the client, late replies included: its
    /// outstanding count, the replica's breaker, the Snitch/C3 EWMAs and
    /// the MittOS+Auto tuner.
    pub(crate) fn feedback(&mut self, op: usize, attempt: usize, result: TryResult, now: SimTime) {
        let node = self.ops[op].attempts[attempt].node;
        let st = &mut self.clients[self.ops[op].client];
        st.outstanding[node] = st.outstanding[node].saturating_sub(1);
        // Per-replica circuit-breaker feedback (the breaker tracks replica
        // health, not op outcomes). Probe tries use the probe-aware edges:
        // only a *successful* probe may close a tripped breaker, and a
        // rejected probe re-opens it — a gray window flapping faster than
        // the cooldown can no longer oscillate the breaker closed.
        if !self.breakers.is_empty() {
            let b = &mut self.breakers[node];
            let ok = matches!(result, TryResult::Ok { .. });
            match (ok, self.ops[op].attempts[attempt].probe) {
                (true, true) => b.on_probe_success(now),
                (true, false) => b.on_success(),
                (false, true) => b.on_probe_failure(now),
                (false, false) => b.on_failure(now),
            }
        }
        let alpha = match self.cfg.strategy {
            Strategy::Snitch { alpha } => Some(alpha),
            Strategy::C3 => Some(0.3),
            _ => None,
        };
        if let Some(alpha) = alpha {
            let sample = now.saturating_since(self.ops[op].started).as_secs_f64() * 1e9;
            let e = &mut st.ewma[node];
            // mitt-lint: allow(T002, "0.0 is the exact cold-start sentinel for an empty EWMA, never the result of arithmetic")
            *e = if *e == 0.0 {
                sample
            } else {
                alpha * sample + (1.0 - alpha) * *e
            };
        }
        if let (Strategy::C3, TryResult::Ok { server_queue }) = (&self.cfg.strategy, result) {
            let q = &mut st.qhat[node];
            *q = 0.3 * server_queue as f64 + 0.7 * *q;
        }
        if let Some(t) = st.tuner.as_mut() {
            t.record(matches!(result, TryResult::Busy { .. }));
        }
    }

    /// Follows up a failed try of an unfinished op: `busy` carries the
    /// rejecting node's blame and promised wait, `None` is a crash
    /// verdict. Sends the next try, backs off or surfaces an error.
    pub(crate) fn fail_over(
        &mut self,
        op: usize,
        attempt: usize,
        busy: Option<(Resource, Duration)>,
        now: SimTime,
    ) {
        let from = self.ops[op].attempts[attempt].node;
        let tries = self.ops[op].attempts.len() - self.ops[op].round_base;
        let to = match self.cfg.strategy {
            // Non-MittOS strategies never see EBUSY.
            _ if busy.is_some() && self.cfg.strategy.slo_deadline().is_none() => {
                return self.fail_op(op, attempt, now)
            }
            // MittOS fails over on EBUSY; on a crash (a connection-level
            // failure, distinct from tail-latency timeouts) every strategy
            // does, each lost try having already paid the detection delay.
            _ if tries < self.cfg.replication => self.next_replica(op, tries, now),
            // Every replica looks dead: surface the outage.
            _ if busy.is_none() => return self.fail_op(op, attempt, now),
            Strategy::MittOsWait { .. } => self.least_busy(op, now),
            _ => return self.back_off(op, attempt, now),
        };
        self.result.retries += 1;
        self.emit_failover(op, from, to, now);
        if let Some((resource, wait)) = busy {
            self.emit_cluster_attribution(op, resource, wait, from, false, now);
        }
        self.send_try(op, to, now);
    }

    /// Picks the replica for retry round `tries`, skipping replicas whose
    /// circuit breaker is open. Falls back to the plain rotation when every
    /// candidate is open — liveness beats the breaker.
    fn next_replica(&mut self, op: usize, tries: usize, now: SimTime) -> usize {
        let replicas = &self.ops[op].replicas;
        let n = replicas.len();
        let default = replicas[tries % n];
        if self.breakers.is_empty() {
            return default;
        }
        let breakers = &mut self.breakers;
        let Some(cand) = (0..n)
            .map(|i| replicas[(tries + i) % n])
            .find(|&c| breakers[c].allow(now))
        else {
            return default;
        };
        if cand != default {
            // The breaker vetoed the rotation's choice: an attribution with
            // no node-side counterpart, so the cluster counts it too.
            self.emit_cluster_attribution(op, Resource::Breaker, Duration::MAX, default, true, now);
        }
        cand
    }

    /// MittOS+Wait's try after every replica rejected: the one whose
    /// rejection promised the shortest wait. With a breaker,
    /// suspected-dead replicas are excluded unless no candidate remains.
    fn least_busy(&self, op: usize, now: SimTime) -> usize {
        let open = |n: usize| {
            !self.breakers.is_empty() && self.breakers[n].state(now) == BreakerState::Open
        };
        let waits = &self.ops[op].busy_waits;
        let all_open = waits.iter().all(|&(n, _)| open(n));
        waits
            .iter()
            .filter(|&&(n, _)| all_open || !open(n))
            .min_by_key(|&&(_, w)| w)
            .expect("at least one busy reply")
            .0
    }

    /// Every try of the round was rejected, the last even with the
    /// deadline disabled. With a backoff policy the client sits out
    /// briefly and retries a fresh round; otherwise surface an error —
    /// with P(3 nodes busy) tiny (§6) this is rare.
    fn back_off(&mut self, op: usize, attempt: usize, now: SimTime) {
        let round = self.ops[op].backoff_round;
        match self.cfg.resilience.and_then(|r| r.backoff.delay(round)) {
            Some(delay) => {
                self.ops[op].backoff_round = round + 1;
                self.ops[op].round_base = self.ops[op].attempts.len();
                self.result.backoff_retries += 1;
                self.result.trace.count("cluster.backoff", 1);
                let attempt = self.ops[op].attempts.len();
                self.schedule(now + delay, Ev::Timer { op, attempt });
            }
            None => self.fail_op(op, attempt, now),
        }
    }

    /// A backoff delay expired: issue a fresh fast-reject round.
    fn retry_op(&mut self, op: usize, now: SimTime) {
        if self.ops[op].done {
            return;
        }
        self.result.retries += 1;
        let node = self.next_replica(op, 0, now);
        self.send_try(op, node, now);
    }

    /// The timer armed with try `attempt` fired: AppTO and a NoSQL profile
    /// time the try out, Hedged and Tied send their second copy, and MittOS
    /// starts the round after a backoff.
    pub(crate) fn timer_fire(&mut self, op: usize, attempt: usize, now: SimTime) {
        let (timeout, failover) = match self.cfg.strategy {
            Strategy::AppTimeout { timeout } => (timeout, true),
            Strategy::NosqlProfile { timeout, failover } => (timeout, failover),
            Strategy::Hedged { .. } | Strategy::Tied { .. } => return self.second_copy(op, now),
            _ => return self.retry_op(op, now),
        };
        if self.ops[op].done || self.ops[op].attempts[attempt].resolved {
            return;
        }
        // Application-level cancel: ignore whatever that try returns.
        self.ops[op].attempts[attempt].resolved = true;
        if let Some(io) = self.ops[op].attempts[attempt].io {
            let node = self.ops[op].attempts[attempt].node;
            self.ctx_remove(node, io);
        }
        if !failover {
            // Table 1's surprise: three of six systems surface a read
            // error instead of failing over.
            return self.fail_op(op, attempt, now);
        }
        self.result.retries += 1;
        let tries = self.ops[op].attempts.len();
        let next = self.next_replica(op, tries, now);
        self.send_try(op, next, now);
        // The final try never times out (avoids user-visible errors, §7.2).
        if tries + 1 < self.cfg.replication {
            self.schedule(now + timeout, Ev::Timer { op, attempt: tries });
        }
    }

    /// Hedged's and Tied's second copy, sent to the first replica other
    /// than the first try's while the op is unserved and has one try. A
    /// hedge is a retry, and is traced as one.
    fn second_copy(&mut self, op: usize, now: SimTime) {
        if self.ops[op].done || self.ops[op].attempts.len() > 1 {
            return;
        }
        let first = self.ops[op].attempts[0].node;
        let next = self.ops[op]
            .replicas
            .iter()
            .copied()
            .find(|&r| r != first)
            .unwrap_or(first);
        if matches!(self.cfg.strategy, Strategy::Hedged { .. }) {
            self.result.retries += 1;
            self.emit_hedge(op, first, next, now);
        }
        self.send_try(op, next, now);
    }

    /// Begin-execution hook: the first of a Tied op's copies to begin
    /// executing revokes the other.
    pub(crate) fn on_started(&mut self, node: usize, id: IoId, now: SimTime) {
        if !matches!(self.cfg.strategy, Strategy::Tied { .. }) {
            return;
        }
        let Some(&IoCtx::Get { op, attempt }) = self.io_ctx.get(&(node, id)) else {
            return;
        };
        if self.ops[op].done {
            return;
        }
        // Only the first attempt to begin execution wins the tie; if a
        // revocation is already in flight either way, do nothing (both
        // cancelling each other would orphan the op).
        if self.ops[op].attempts.iter().any(|a| a.resolved) {
            return;
        }
        let other = 1 - attempt;
        let Some((to, Some(io))) = self.ops[op].attempts.get(other).map(|a| (a.node, a.io)) else {
            return;
        };
        let delay = self.net_delay_node(to, now);
        self.schedule(now + delay, Ev::TiedCancel { node: to, io });
        self.ops[op].attempts[other].resolved = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLICATION: usize = 3;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Deadlines of tries 0..=3 of a round.
    fn deadlines(
        s: &Strategy,
        rounds_left: bool,
        tuner: Option<&DeadlineTuner>,
    ) -> Vec<Option<Duration>> {
        (0..=REPLICATION)
            .map(|n| s.try_deadline(n, REPLICATION, rounds_left, tuner))
            .collect()
    }

    #[test]
    fn mittos_drops_the_deadline_on_the_last_try_unless_rounds_are_left() {
        let s = Strategy::MittOs { deadline: ms(20) };
        let d = Some(ms(20));
        assert_eq!(deadlines(&s, false, None), [d, d, None, None]);
        assert_eq!(deadlines(&s, true, None), [d, d, d, d]);
    }

    #[test]
    fn mittos_wait_keeps_the_deadline_on_every_replica() {
        let s = Strategy::MittOsWait { deadline: ms(20) };
        let d = Some(ms(20));
        // The 4th try, to the least-busy replica, goes without one; a
        // backoff policy does not change the rule.
        assert_eq!(deadlines(&s, false, None), [d, d, d, None]);
        assert_eq!(deadlines(&s, true, None), [d, d, d, None]);
    }

    #[test]
    fn mittos_auto_follows_its_tuner() {
        let s = Strategy::MittOsAuto { initial: ms(20) };
        let mut tuner = s.tuner().expect("MittOS+Auto has a tuner");
        while tuner.record(true).is_none() {}
        let tuned = Some(tuner.deadline());
        assert_ne!(
            tuned,
            Some(ms(20)),
            "an all-EBUSY window moves the deadline"
        );
        assert_eq!(
            deadlines(&s, false, Some(&tuner)),
            [tuned, tuned, None, None]
        );
        assert_eq!(
            deadlines(&s, true, Some(&tuner)),
            [tuned, tuned, None, None]
        );
    }

    fn others() -> [Strategy; 8] {
        [
            Strategy::Base,
            Strategy::AppTimeout { timeout: ms(13) },
            Strategy::Clone2,
            Strategy::Hedged { after: ms(14) },
            Strategy::Tied { delay: ms(15) },
            Strategy::Snitch { alpha: 0.3 },
            Strategy::C3,
            Strategy::NosqlProfile {
                timeout: ms(16),
                failover: true,
            },
        ]
    }

    #[test]
    fn only_the_mittos_variants_carry_an_slo_deadline() {
        assert_eq!(
            Strategy::MittOs { deadline: ms(20) }.slo_deadline(),
            Some(ms(20))
        );
        assert_eq!(
            Strategy::MittOsWait { deadline: ms(21) }.slo_deadline(),
            Some(ms(21))
        );
        assert_eq!(
            Strategy::MittOsAuto { initial: ms(22) }.slo_deadline(),
            Some(ms(22))
        );
        for s in others() {
            assert_eq!(s.slo_deadline(), None, "{}", s.name());
            assert_eq!(deadlines(&s, true, None), [None; 4], "{}", s.name());
            assert!(s.tuner().is_none(), "{}", s.name());
        }
    }

    #[test]
    fn the_first_try_arms_the_strategys_own_timer() {
        let timers: Vec<_> = others().iter().map(Strategy::first_timer).collect();
        let none = None;
        assert_eq!(
            timers,
            [
                none,
                Some(ms(13)),
                none,
                Some(ms(14)),
                Some(ms(15)),
                none,
                none,
                Some(ms(16))
            ]
        );
        for s in [
            Strategy::MittOs { deadline: ms(20) },
            Strategy::MittOsWait { deadline: ms(20) },
            Strategy::MittOsAuto { initial: ms(20) },
        ] {
            assert_eq!(s.first_timer(), None, "{}", s.name());
        }
    }
}
