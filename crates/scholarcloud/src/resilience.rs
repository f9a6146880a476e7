//! Resilience primitives for the domestic proxy: deterministic
//! exponential backoff, per-remote circuit breakers, and a health-scored
//! pool of remote proxies.
//!
//! The paper keeps ScholarCloud usable while the GFW blacklists remote
//! VMs one by one (§4.2): the client side must *notice* a dead remote
//! quickly (timeouts + passive failure counting + active probes), stop
//! hammering it (circuit breaker), and move traffic to a sibling
//! (failover). Everything here is pure state-machine logic — no clocks,
//! no RNG — so the proxy stays deterministic: time comes in as
//! [`SimTime`] arguments and jitter comes in as an externally drawn
//! uniform sample, both from the simulation's seeded sources.
//!
//! # Breaker state machine
//!
//! ```text
//!            failures ≥ threshold
//!   Closed ─────────────────────────▶ Open ◀──────────────┐
//!     ▲                                │                  │
//!     │                                │ cooldown elapsed │ trial fails
//!     │ trial (or probe)               ▼                  │ (or probe fails:
//!     │ succeeds                    HalfOpen ─────────────┘  cooldown restarts)
//!     └────────────────────────────────┘  (one trial in flight)
//! ```

use sc_simnet::addr::SocketAddr;
use sc_simnet::time::{SimDuration, SimTime};

/// Deterministic exponential backoff with bounded jitter.
///
/// The raw sequence is `base · multiplier^attempt`, saturating at
/// `cap`. Jitter is applied from an *externally supplied* uniform draw
/// in `[0, 1)` (the caller owns the RNG), scaling the raw delay by a
/// factor in `[1 − jitter_frac, 1 + jitter_frac)` — so identical seeds
/// yield identical schedules.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// Delay before the first retry (attempt 0).
    pub base: SimDuration,
    /// Upper bound on the raw (un-jittered) delay.
    pub cap: SimDuration,
    /// Geometric growth factor per attempt.
    pub multiplier: u32,
    /// Half-width of the jitter band as a fraction of the raw delay
    /// (`0.25` → ±25%). Must be in `[0, 1]`.
    pub jitter_frac: f64,
}

/// The delay schedule between a request's connect attempts.
pub const BACKOFF: BackoffPolicy = BackoffPolicy {
    base: SimDuration::from_millis(100),
    cap: SimDuration::from_secs(2),
    multiplier: 2,
    jitter_frac: 0.25,
};
/// How long a tunnel (or probe) connect may take before the attempt is
/// aborted and counted as a failure.
pub const CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Total connect attempts per browser request before it fails with 502
/// (first try included).
pub const MAX_ATTEMPTS: u32 = 3;
/// Consecutive failures that open a remote's circuit breaker.
pub const BREAKER_THRESHOLD: u32 = 2;
/// How long an open breaker refuses traffic before half-opening.
pub const BREAKER_COOLDOWN: SimDuration = SimDuration::from_secs(8);
/// Interval between active health-probe rounds (probes target remotes
/// that are unproven or unhealthy).
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// How long a request may stay parked waiting for *any* remote to come
/// back before it fails fast with 503.
pub const QUEUE_FAIL_AFTER: SimDuration = SimDuration::from_secs(2);

impl BackoffPolicy {
    /// The un-jittered delay for `attempt` (0-based), saturating at the
    /// cap.
    pub fn raw_delay(&self, attempt: u32) -> SimDuration {
        let factor = u64::from(self.multiplier.max(1)).saturating_pow(attempt.min(32));
        let raw = self.base.saturating_mul(factor);
        raw.clamp(SimDuration::ZERO, self.cap)
    }

    /// The jittered delay for `attempt`, with `jitter_draw` a uniform
    /// sample in `[0, 1)` supplied by the caller's (seeded) RNG.
    pub fn delay(&self, attempt: u32, jitter_draw: f64) -> SimDuration {
        let raw = self.raw_delay(attempt).as_secs_f64();
        let factor = 1.0 + self.jitter_frac * (2.0 * jitter_draw - 1.0);
        SimDuration::from_secs_f64(raw * factor.max(0.0))
    }
}

/// Circuit-breaker states (see the module docs for the transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are refused until the cooldown elapses.
    Open,
    /// Probation: exactly one trial request is allowed through.
    HalfOpen,
}

impl BreakerState {
    /// Lower-case name for traces and dashboards.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// A state transition, returned so the caller can emit it as an
/// observability event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// A per-remote circuit breaker: `threshold` consecutive failures open
/// it; after `cooldown` it half-opens and admits one trial.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    threshold: u32,
    cooldown: SimDuration,
    opened_at: SimTime,
    trial_inflight: bool,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(threshold: u32, cooldown: SimDuration) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            threshold: threshold.max(1),
            cooldown,
            opened_at: SimTime::ZERO,
            trial_inflight: false,
        }
    }

    /// Current state (without side effects — an elapsed cooldown shows
    /// as `Open` until [`allow`](Self::allow) actually admits a trial).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether [`allow`](Self::allow) would admit a request at `now`,
    /// without consuming the half-open trial slot.
    pub fn would_allow(&self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => now.saturating_since(self.opened_at) >= self.cooldown,
            BreakerState::HalfOpen => !self.trial_inflight,
        }
    }

    /// Admits or refuses a request at `now`. An elapsed cooldown moves
    /// `Open → HalfOpen` and the admitted request becomes the trial.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now.saturating_since(self.opened_at) >= self.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.trial_inflight = true;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.trial_inflight {
                    false
                } else {
                    self.trial_inflight = true;
                    true
                }
            }
        }
    }

    /// Records a success (trial, regular request, or active probe): the
    /// breaker closes from any state.
    pub fn record_success(&mut self) -> Option<BreakerTransition> {
        self.consecutive_failures = 0;
        self.trial_inflight = false;
        let from = self.state;
        if from != BreakerState::Closed {
            self.state = BreakerState::Closed;
            return Some(BreakerTransition { from, to: BreakerState::Closed });
        }
        None
    }

    /// Records a failure at `now`. Opens the breaker once the threshold
    /// is hit; a failure while open (e.g. a failing probe) restarts the
    /// cooldown, so a dark remote stays fenced off until something
    /// actually succeeds against it.
    pub fn record_failure(&mut self, now: SimTime) -> Option<BreakerTransition> {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.trial_inflight = false;
        let from = self.state;
        let opens = match from {
            BreakerState::Closed => self.consecutive_failures >= self.threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open => {
                self.opened_at = now;
                false
            }
        };
        if opens {
            self.state = BreakerState::Open;
            self.opened_at = now;
            return Some(BreakerTransition { from, to: BreakerState::Open });
        }
        None
    }
}

/// Passive health record for one remote.
#[derive(Debug, Clone, Default)]
pub struct RemoteHealth {
    /// EWMA of observed connect RTTs (α = 0.3).
    pub rtt_ewma: Option<SimDuration>,
    /// Failures since the last success.
    pub consecutive_failures: u32,
}

impl RemoteHealth {
    fn record_rtt(&mut self, rtt: SimDuration) {
        self.rtt_ewma = Some(match self.rtt_ewma {
            None => rtt,
            Some(prev) => SimDuration::from_micros(
                (7 * prev.as_micros() + 3 * rtt.as_micros()) / 10,
            ),
        });
    }
}

/// One remote proxy in the pool.
#[derive(Debug, Clone)]
pub struct RemoteEntry {
    /// Where the remote listens.
    pub addr: SocketAddr,
    /// Passive health.
    pub health: RemoteHealth,
    /// Per-remote circuit breaker.
    pub breaker: CircuitBreaker,
    /// Retired entries (drained elastic instances) keep their index —
    /// in-flight bookkeeping stays valid — but never receive new picks,
    /// probes, or availability votes.
    pub retired: bool,
    /// Smooth-weighted-round-robin accumulator (see [`RemotePool::pick`]).
    swrr_current: i64,
}

/// A pool of remote proxies with deterministic weighted dispatch.
///
/// Selection is two-tier: candidates (breaker admits, not retired) are
/// first narrowed to the healthiest group (fewest consecutive
/// failures), then smooth weighted round-robin spreads load across that
/// group in proportion to RTT-derived weights — a fast remote carries
/// more streams than a slow sibling instead of *all* of them, like
/// shadowsocks-rust's multi-server balancer. Weights derive from the
/// millisecond-quantized RTT EWMA, so sub-millisecond jitter never
/// flips a pick, and SWRR's accumulator tie-breaks on the lowest
/// index — same-seed runs dispatch and fail over identically.
///
/// Membership is dynamic: the elastic tier appends fresh instances with
/// [`add_remote`](Self::add_remote) and retires drained ones with
/// [`retire`](Self::retire); indices are stable for the pool's lifetime.
#[derive(Debug, Clone)]
pub struct RemotePool {
    entries: Vec<RemoteEntry>,
    threshold: u32,
    cooldown: SimDuration,
}

fn fresh_entry(addr: SocketAddr, threshold: u32, cooldown: SimDuration) -> RemoteEntry {
    RemoteEntry {
        addr,
        health: RemoteHealth::default(),
        breaker: CircuitBreaker::new(threshold, cooldown),
        retired: false,
        swrr_current: 0,
    }
}

impl RemotePool {
    /// Builds a pool with one closed breaker per remote.
    pub fn new(addrs: Vec<SocketAddr>, threshold: u32, cooldown: SimDuration) -> Self {
        let entries = addrs
            .into_iter()
            .map(|addr| fresh_entry(addr, threshold, cooldown))
            .collect();
        RemotePool { entries, threshold, cooldown }
    }

    /// Number of remotes ever admitted to the pool (retired included —
    /// indices are stable, so this is also the index upper bound).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool has no remotes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of non-retired remotes.
    pub fn active_len(&self) -> usize {
        self.entries.iter().filter(|e| !e.retired).count()
    }

    /// Read access to a remote.
    pub fn entry(&self, idx: usize) -> &RemoteEntry {
        &self.entries[idx]
    }

    /// Appends a fresh remote (clean health, closed breaker) and returns
    /// its stable index. The elastic tier calls this when an instance
    /// turns warm; the SWRR accumulator starts at zero, so a newcomer
    /// competes fairly from its first pick.
    pub fn add_remote(&mut self, addr: SocketAddr) -> usize {
        let idx = self.entries.len();
        self.entries.push(fresh_entry(addr, self.threshold, self.cooldown));
        idx
    }

    /// Retires a remote: it keeps its index (in-flight streams finish
    /// their bookkeeping) but receives no further picks or probes.
    pub fn retire(&mut self, idx: usize) {
        self.entries[idx].retired = true;
    }

    /// The index of the non-retired remote at `addr`, if any.
    pub fn index_of(&self, addr: SocketAddr) -> Option<usize> {
        self.entries.iter().position(|e| !e.retired && e.addr == addr)
    }

    /// Whether any non-retired remote would currently admit a request.
    pub fn any_available(&self, now: SimTime) -> bool {
        self.entries
            .iter()
            .any(|e| !e.retired && e.breaker.would_allow(now))
    }

    /// A remote's dispatch weight: derived from the millisecond-
    /// quantized RTT EWMA (sub-millisecond propagation jitter must never
    /// flip a pick — see the pool proptests), inversely proportional to
    /// latency, floored at 1. An unproven remote weighs as 0 ms: it
    /// gets traffic immediately and earns a real weight from its first
    /// measured RTT.
    fn weight(h: &RemoteHealth) -> i64 {
        let ms = h.rtt_ewma.map_or(0, |d| d.as_micros() / 1000) as i64;
        1 + 1000 / (1 + ms)
    }

    /// Picks a remote at `now`, consuming its half-open trial slot if
    /// applicable. `exclude` deprioritizes the remote a failed attempt
    /// just used (it is still chosen if it is the only candidate).
    ///
    /// Two-tier weighted dispatch: among admissible remotes with the
    /// fewest consecutive failures, smooth weighted round-robin (each
    /// candidate's accumulator grows by its weight; the largest
    /// accumulator wins and pays back the group's total) spreads
    /// streams in proportion to RTT weight. At fully equal health the
    /// first pick is the lowest index and subsequent picks rotate —
    /// deterministic, history-pure, and never timing-sensitive.
    pub fn pick(&mut self, now: SimTime, exclude: Option<usize>) -> Option<usize> {
        let mut candidates: Vec<usize> = (0..self.entries.len())
            .filter(|&i| !self.entries[i].retired && self.entries[i].breaker.would_allow(now))
            .collect();
        if let Some(e) = exclude {
            if candidates.len() > 1 {
                candidates.retain(|&i| i != e);
            }
        }
        if candidates.is_empty() {
            return None;
        }
        // Tier 1: only the healthiest group (fewest consecutive
        // failures) receives traffic — failures outrank RTT.
        let min_failures = candidates
            .iter()
            .map(|&i| self.entries[i].health.consecutive_failures)
            .min()
            .expect("non-empty");
        candidates.retain(|&i| self.entries[i].health.consecutive_failures == min_failures);
        // Tier 2: SWRR within the group. Accumulators persist across
        // picks (that is what makes the rotation smooth), but only
        // group members advance — a breaker-fenced remote neither gains
        // nor loses standing while dark.
        let mut total = 0i64;
        for &i in &candidates {
            let w = Self::weight(&self.entries[i].health);
            self.entries[i].swrr_current += w;
            total += w;
        }
        let best = candidates
            .into_iter()
            .max_by_key(|&i| (self.entries[i].swrr_current, std::cmp::Reverse(i)))
            .expect("non-empty");
        self.entries[best].swrr_current -= total;
        let admitted = self.entries[best].breaker.allow(now);
        debug_assert!(admitted);
        Some(best)
    }

    /// Records a successful connect (or probe) with its observed RTT.
    pub fn record_success(
        &mut self,
        idx: usize,
        rtt: SimDuration,
    ) -> Option<BreakerTransition> {
        let e = &mut self.entries[idx];
        e.health.consecutive_failures = 0;
        e.health.record_rtt(rtt);
        e.breaker.record_success()
    }

    /// Closes a remote's breaker and clears its failure streak without
    /// recording a synthetic success or RTT sample: used when the
    /// caller learns the failures were not the remote's fault (the
    /// censor was killing the *scheme*, and the scheme just rotated).
    pub fn forgive(&mut self, idx: usize) -> Option<BreakerTransition> {
        let e = &mut self.entries[idx];
        e.health.consecutive_failures = 0;
        e.breaker.record_success()
    }

    /// Records a failed connect (or probe).
    pub fn record_failure(&mut self, idx: usize, now: SimTime) -> Option<BreakerTransition> {
        let e = &mut self.entries[idx];
        e.health.consecutive_failures = e.health.consecutive_failures.saturating_add(1);
        e.breaker.record_failure(now)
    }

    /// Number of non-retired breakers currently not closed (dashboard
    /// gauge).
    pub fn breakers_not_closed(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !e.retired && e.breaker.state() != BreakerState::Closed)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_simnet::addr::Addr;

    fn sec(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn backoff_grows_to_cap() {
        let p = BACKOFF;
        assert_eq!(p.raw_delay(0), SimDuration::from_millis(100));
        assert_eq!(p.raw_delay(1), SimDuration::from_millis(200));
        assert_eq!(p.raw_delay(4), SimDuration::from_millis(1600));
        assert_eq!(p.raw_delay(5), SimDuration::from_secs(2));
        assert_eq!(p.raw_delay(60), SimDuration::from_secs(2), "saturates at the cap");
    }

    #[test]
    fn jitter_stays_in_band() {
        let p = BACKOFF;
        let raw = p.raw_delay(2).as_secs_f64();
        for draw in [0.0, 0.1, 0.5, 0.9, 0.999] {
            let d = p.delay(2, draw).as_secs_f64();
            assert!(d >= raw * 0.75 - 1e-9 && d < raw * 1.25 + 1e-9, "draw {draw} gave {d}");
        }
    }

    #[test]
    fn breaker_opens_half_opens_and_closes() {
        let mut b = CircuitBreaker::new(2, SimDuration::from_secs(5));
        assert!(b.allow(sec(0)));
        assert!(b.record_failure(sec(0)).is_none(), "below threshold");
        let t = b.record_failure(sec(1)).expect("threshold hit");
        assert_eq!(t.to, BreakerState::Open);
        assert!(!b.allow(sec(3)), "cooldown not elapsed");
        assert!(b.allow(sec(6)), "half-open trial admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(sec(6)), "only one trial in flight");
        let t = b.record_success().expect("trial closes the breaker");
        assert_eq!((t.from, t.to), (BreakerState::HalfOpen, BreakerState::Closed));
        assert!(b.allow(sec(6)));
    }

    #[test]
    fn failed_trial_reopens_and_open_failures_restart_cooldown() {
        let mut b = CircuitBreaker::new(1, SimDuration::from_secs(4));
        b.record_failure(sec(0));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(sec(4)));
        let t = b.record_failure(sec(4)).expect("failed trial reopens");
        assert_eq!((t.from, t.to), (BreakerState::HalfOpen, BreakerState::Open));
        // A probe failure at t=7 restarts the cooldown: t=8 still refused.
        assert!(b.record_failure(sec(7)).is_none());
        assert!(!b.allow(sec(8)));
        assert!(b.allow(sec(11)));
    }

    #[test]
    fn pool_prefers_healthy_then_fast_then_lowest_index() {
        let addrs: Vec<SocketAddr> = (0..3)
            .map(|i| SocketAddr::new(Addr::new(99, 0, 0, 40 + i), 8443))
            .collect();
        let mut pool = RemotePool::new(addrs, 3, SimDuration::from_secs(5));
        assert_eq!(pool.pick(sec(0), None), Some(0), "tie broken by index");
        pool.record_success(1, SimDuration::from_millis(50));
        pool.record_success(0, SimDuration::from_millis(200));
        pool.record_success(2, SimDuration::from_millis(90));
        assert_eq!(pool.pick(sec(0), None), Some(1), "fastest EWMA wins");
        pool.record_failure(1, sec(1));
        assert_eq!(pool.pick(sec(1), None), Some(2), "failures outrank RTT");
        assert_eq!(pool.pick(sec(1), Some(2)), Some(0), "exclude deprioritizes");
    }

    #[test]
    fn pool_exhaustion_and_recovery() {
        let addrs: Vec<SocketAddr> =
            (0..2).map(|i| SocketAddr::new(Addr::new(99, 0, 0, 40 + i), 8443)).collect();
        let mut pool = RemotePool::new(addrs, 1, SimDuration::from_secs(10));
        pool.record_failure(0, sec(0));
        pool.record_failure(1, sec(0));
        assert!(!pool.any_available(sec(5)));
        assert_eq!(pool.pick(sec(5), None), None);
        assert_eq!(pool.breakers_not_closed(), 2);
        // Probe success on remote 1 closes its breaker: traffic resumes.
        let t = pool.record_success(1, SimDuration::from_millis(80)).unwrap();
        assert_eq!(t.to, BreakerState::Closed);
        assert!(pool.any_available(sec(5)));
        assert_eq!(pool.pick(sec(5), None), Some(1));
    }

    #[test]
    fn swrr_rotates_among_equal_weights() {
        let addrs: Vec<SocketAddr> = (0..3)
            .map(|i| SocketAddr::new(Addr::new(99, 0, 0, 40 + i), 8443))
            .collect();
        let mut pool = RemotePool::new(addrs, 100, SimDuration::from_secs(5));
        let picks: Vec<Option<usize>> = (0..6).map(|_| pool.pick(sec(0), None)).collect();
        assert_eq!(
            picks,
            vec![Some(0), Some(1), Some(2), Some(0), Some(1), Some(2)],
            "equal weights round-robin from the lowest index"
        );
    }

    #[test]
    fn weighted_dispatch_favors_faster_remote() {
        let addrs: Vec<SocketAddr> =
            (0..2).map(|i| SocketAddr::new(Addr::new(99, 0, 0, 40 + i), 8443)).collect();
        let mut pool = RemotePool::new(addrs, 100, SimDuration::from_secs(5));
        pool.record_success(0, SimDuration::from_millis(10));
        pool.record_success(1, SimDuration::from_millis(30));
        let mut counts = [0usize; 2];
        for _ in 0..120 {
            counts[pool.pick(sec(0), None).unwrap()] += 1;
        }
        assert!(counts[1] > 0, "slow remote still carries some streams");
        assert!(
            counts[0] > 2 * counts[1],
            "3x-faster remote carries >2x the streams: {counts:?}"
        );
    }

    #[test]
    fn retired_remotes_never_picked_and_membership_is_dynamic() {
        let addrs = vec![SocketAddr::new(Addr::new(99, 0, 0, 40), 8443)];
        let mut pool = RemotePool::new(addrs, 1, SimDuration::from_secs(2));
        let fresh = SocketAddr::new(Addr::new(99, 0, 1, 7), 8443);
        let idx = pool.add_remote(fresh);
        assert_eq!(idx, 1);
        assert_eq!(pool.index_of(fresh), Some(1));
        pool.retire(0);
        assert_eq!(pool.active_len(), 1);
        assert_eq!(pool.len(), 2, "indices stay stable after retirement");
        for _ in 0..4 {
            assert_eq!(pool.pick(sec(0), None), Some(1), "retired entry never picked");
        }
        pool.record_failure(1, sec(0));
        assert!(!pool.any_available(sec(0)), "retired entries cast no availability vote");
    }

    #[test]
    fn half_open_pick_consumes_the_trial_slot() {
        let addrs = vec![SocketAddr::new(Addr::new(99, 0, 0, 40), 8443)];
        let mut pool = RemotePool::new(addrs, 1, SimDuration::from_secs(2));
        pool.record_failure(0, sec(0));
        assert_eq!(pool.pick(sec(3), None), Some(0), "cooldown elapsed: trial admitted");
        assert_eq!(pool.pick(sec(3), None), None, "trial slot consumed");
    }
}
