//! Overload control for the domestic proxy: bounded admission,
//! deadline-aware load shedding, per-client fairness, and a global
//! retry budget.
//!
//! The paper's §4.5 scalability experiment served ~1,000 users from one
//! 4-core VM — the domestic proxy is the deployment's shared
//! chokepoint. Under a flash crowd an unprotected proxy queues
//! unboundedly and collapses tail latency for everyone; the overload
//! pipeline here degrades *gracefully* instead: excess work is refused
//! early with a fast, browser-visible `503`/`429 + Retry-After`, and
//! the work that is admitted still finishes within its deadline budget.
//!
//! # Pipeline
//!
//! ```text
//!            ┌────────────────────── per-client fairness ──────────────────────┐
//! request ──▶ token bucket (rate)  ──▶ max streams per client ──▶ capacity ─▶ Admit
//!            │ full? ─▶ 429        │  over? ─▶ 429              │ free slot
//!            └──────────────────────┴───────────────────────────┤
//!                                                               ▼ saturated
//!                                              bounded queue + deadline check
//!                                              queue full        ─▶ 503 shed
//!                                              budget < EWMA     ─▶ 503 shed
//!                                              otherwise         ─▶ Enqueue
//! ```
//!
//! Queued work carries a deadline (`arrival + deadline_budget`); at
//! dequeue time anything whose *remaining* budget no longer covers the
//! observed tunnel-establishment EWMA is shed rather than admitted to
//! die of timeout downstream. The retry budget is the third guard: the
//! resilience layer (PR 3) may only retry while the global budget —
//! refilled at `retry_budget_frac` tokens per admitted request — has a
//! whole token, so under brownout retries amplify offered load by at
//! most `1 + retry_budget_frac` instead of `max_attempts`×.
//!
//! Everything here is pure state-machine logic in the style of
//! [`resilience`](crate::resilience): no clocks, no RNG — time comes in
//! as [`SimTime`] arguments so the proxy stays deterministic and two
//! same-seed runs make byte-identical admission decisions.

use std::collections::{BTreeMap, VecDeque};

use sc_simnet::addr::Addr;
use sc_simnet::time::{SimDuration, SimTime};

/// A deterministic token bucket: `rate_per_sec` tokens accrue per
/// simulated second up to `capacity`, refilled lazily on access from
/// the caller-supplied clock.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    rate_per_sec: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A full bucket (burst available immediately).
    pub fn new(rate_per_sec: f64, capacity: f64) -> Self {
        let capacity = capacity.max(0.0);
        TokenBucket { capacity, rate_per_sec: rate_per_sec.max(0.0), tokens: capacity, last: SimTime::ZERO }
    }

    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate_per_sec).min(self.capacity);
    }

    /// Takes one token if available.
    pub fn try_take(&mut self, now: SimTime) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after refilling to `now`).
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Whether the bucket is back at capacity at `now` (idle-client GC).
    pub fn full(&mut self, now: SimTime) -> bool {
        self.refill(now);
        self.tokens >= self.capacity
    }
}

/// The global retry budget: every *admitted* request deposits
/// `frac` of a token (capped at `burst`), every retry withdraws a whole
/// one. Unlike [`TokenBucket`] the refill is work-driven, not
/// time-driven — the budget tracks offered load, so the amplification
/// bound holds at any request rate.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    /// Milli-tokens: integer arithmetic so `10 × 0.1 = 1` exactly —
    /// the budget must be bit-deterministic, not just approximately
    /// fair.
    millitokens: u64,
    deposit_milli: u64,
    burst_milli: u64,
    /// Retries refused because the budget was exhausted (diagnostics).
    pub denied: u64,
}

impl RetryBudget {
    /// Starts with a full burst allowance.
    pub fn new(frac: f64, burst: f64) -> Self {
        let burst_milli = (burst.max(0.0) * 1000.0).round() as u64;
        RetryBudget {
            millitokens: burst_milli,
            deposit_milli: (frac.max(0.0) * 1000.0).round() as u64,
            burst_milli,
            denied: 0,
        }
    }

    /// Credits the budget for one admitted request.
    pub fn on_admit(&mut self) {
        self.millitokens =
            (self.millitokens + self.deposit_milli).min(self.burst_milli.max(self.millitokens));
    }

    /// Withdraws one token for a retry; `false` means the retry must
    /// not happen (counted in [`denied`](Self::denied)).
    pub fn try_retry(&mut self) -> bool {
        if self.millitokens >= 1000 {
            self.millitokens -= 1000;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.millitokens as f64 / 1000.0
    }
}

/// EWMA of observed service times (tunnel establishment, admit →
/// connected), the shedding estimate: a queued request whose remaining
/// deadline budget cannot cover this estimate is rejected instead of
/// queued to die.
#[derive(Debug, Clone, Default)]
pub struct ServiceEwma {
    ewma: Option<SimDuration>,
}

impl ServiceEwma {
    /// Records one observed service time (α = 0.3, like the pool's RTT
    /// EWMA).
    pub fn record(&mut self, d: SimDuration) {
        self.ewma = Some(match self.ewma {
            None => d,
            Some(prev) => {
                SimDuration::from_micros((7 * prev.as_micros() + 3 * d.as_micros()) / 10)
            }
        });
    }

    /// Current estimate; `ZERO` until the first observation (nothing is
    /// shed on deadline before the proxy has seen real service times).
    pub fn estimate(&self) -> SimDuration {
        self.ewma.unwrap_or(SimDuration::ZERO)
    }
}

/// `Retry-After` advertised on 429/503 shed responses.
pub const RETRY_AFTER: SimDuration = SimDuration::from_secs(1);

/// Overload-control tunables. The defaults are deliberately generous —
/// nominal paper-shaped scenarios (a handful of clients) never hit any
/// of these limits, so traces from earlier PRs are unchanged; the
/// flash-crowd scenarios shrink `max_tunnels`/`queue_len` to model an
/// undersized proxy.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Concurrent tunnels the proxy will carry (active slots).
    pub max_tunnels: usize,
    /// Bounded pending queue for requests arriving while saturated.
    /// Also caps the resilience layer's parked set.
    pub queue_len: usize,
    /// Per-request deadline budget: a request may spend at most this
    /// long queued + establishing before it is useless to the browser.
    pub deadline_budget: SimDuration,
    /// Per-client token-bucket refill rate (requests/second).
    pub per_client_rate: f64,
    /// Per-client token-bucket burst capacity.
    pub per_client_burst: f64,
    /// Max concurrent streams (admitted + queued) per client address.
    pub max_streams_per_client: usize,
    /// Retry-budget deposit per admitted request (0.1 → retries may
    /// amplify offered load by at most 1.1×).
    pub retry_budget_frac: f64,
    /// Retry-budget burst allowance (tokens available before any
    /// deposits, and the deposit cap).
    pub retry_budget_burst: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_tunnels: 256,
            queue_len: 64,
            deadline_budget: SimDuration::from_secs(6),
            per_client_rate: 16.0,
            per_client_burst: 32.0,
            max_streams_per_client: 32,
            retry_budget_frac: 0.1,
            retry_budget_burst: 8.0,
        }
    }
}

/// The verdict on an arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Admitted: an active slot was consumed; the caller must
    /// [`release`](AdmissionController::release) it on any terminal path.
    Admit,
    /// Saturated but within limits: queued (the controller holds the
    /// token until [`drain`](AdmissionController::drain) or
    /// [`remove_queued`](AdmissionController::remove_queued)).
    Enqueue,
    /// Shed: the pending queue is full → `503`.
    ShedQueueFull,
    /// Shed: the deadline budget cannot cover the service estimate →
    /// `503`.
    ShedDeadline,
    /// Throttled: the client's token bucket is empty → `429`.
    Throttled,
    /// Throttled: the client is at its concurrent-stream cap → `429`.
    TooManyStreams,
}

impl Decision {
    /// Short machine-readable name for traces.
    pub fn name(self) -> &'static str {
        match self {
            Decision::Admit => "admit",
            Decision::Enqueue => "enqueue",
            Decision::ShedQueueFull => "shed_queue_full",
            Decision::ShedDeadline => "shed_deadline",
            Decision::Throttled => "throttled",
            Decision::TooManyStreams => "too_many_streams",
        }
    }

    /// The HTTP status this decision surfaces to the browser (`None`
    /// for admit/enqueue).
    pub fn status(self) -> Option<u16> {
        match self {
            Decision::Admit | Decision::Enqueue => None,
            Decision::ShedQueueFull | Decision::ShedDeadline => Some(503),
            Decision::Throttled | Decision::TooManyStreams => Some(429),
        }
    }
}

/// What [`drain`](AdmissionController::drain) did with one queued entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dequeued<T> {
    /// Dequeued into a free slot; the caller starts the tunnel and must
    /// eventually [`release`](AdmissionController::release).
    Admit {
        /// The queued token.
        token: T,
        /// How long the request waited in the queue.
        waited: SimDuration,
    },
    /// Dequeued and shed: the remaining deadline budget no longer
    /// covers the service estimate → `503`.
    Shed {
        /// The queued token.
        token: T,
    },
}

#[derive(Debug, Clone)]
struct Queued<T> {
    token: T,
    client: Addr,
    enqueued_at: SimTime,
    deadline: SimTime,
}

#[derive(Debug, Clone)]
struct ClientState {
    bucket: TokenBucket,
    /// Outstanding work (admitted + queued) for this client.
    streams: usize,
}

/// The admission controller: tracks active tunnels, the bounded queue,
/// and per-client state. Generic over the queued token `T` (the
/// domestic proxy queues browser connection handles).
///
/// Deterministic by construction: per-client state lives in a
/// [`BTreeMap`] keyed by [`Addr`] and the queue is FIFO, so iteration
/// order never depends on hash seeds.
#[derive(Debug, Clone)]
pub struct AdmissionController<T> {
    cfg: AdmissionConfig,
    active: usize,
    queue: VecDeque<Queued<T>>,
    clients: BTreeMap<Addr, ClientState>,
    service: ServiceEwma,
    /// Global retry budget consulted by the resilience layer.
    pub retry_budget: RetryBudget,
    /// Requests admitted (directly or from the queue).
    pub admitted: u64,
    /// Requests shed with 503 (queue full / deadline).
    pub shed: u64,
    /// Requests throttled with 429 (rate / stream cap).
    pub throttled: u64,
}

impl<T: Copy + PartialEq> AdmissionController<T> {
    /// A controller with no work outstanding.
    pub fn new(cfg: AdmissionConfig) -> Self {
        let retry_budget = RetryBudget::new(cfg.retry_budget_frac, cfg.retry_budget_burst);
        AdmissionController {
            cfg,
            active: 0,
            queue: VecDeque::new(),
            clients: BTreeMap::new(),
            service: ServiceEwma::default(),
            retry_budget,
            admitted: 0,
            shed: 0,
            throttled: 0,
        }
    }

    /// Active (admitted, unreleased) tunnels.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The current service-time estimate.
    pub fn service_estimate(&self) -> SimDuration {
        self.service.estimate()
    }

    /// The configured queue bound (shared with the parked-set cap).
    pub fn queue_len(&self) -> usize {
        self.cfg.queue_len
    }

    fn client(&mut self, client: Addr, now: SimTime) -> &mut ClientState {
        let cfg = &self.cfg;
        let state = self.clients.entry(client).or_insert_with(|| {
            let mut bucket = TokenBucket::new(cfg.per_client_rate, cfg.per_client_burst);
            // A fresh bucket's `last` is time zero; align it so the
            // client does not inherit a phantom idle-time refill.
            bucket.refill(now);
            bucket.tokens = bucket.capacity;
            ClientState { bucket, streams: 0 }
        });
        state
    }

    /// Whether `remaining` budget still covers the service estimate.
    /// Exactly-equal budgets are admitted — shedding triggers only when
    /// the budget is strictly short.
    fn deadline_ok(&self, remaining: SimDuration) -> bool {
        remaining >= self.service.estimate()
    }

    /// Decides the fate of a request arriving from `client` at `now`.
    /// On [`Decision::Enqueue`] the controller keeps `token`.
    pub fn on_request(&mut self, token: T, client: Addr, now: SimTime) -> Decision {
        let max_streams = self.cfg.max_streams_per_client;
        let state = self.client(client, now);
        if !state.bucket.try_take(now) {
            self.throttled += 1;
            return Decision::Throttled;
        }
        if state.streams >= max_streams {
            self.throttled += 1;
            return Decision::TooManyStreams;
        }
        if self.active < self.cfg.max_tunnels {
            self.active += 1;
            self.client(client, now).streams += 1;
            self.admitted += 1;
            self.retry_budget.on_admit();
            return Decision::Admit;
        }
        if self.queue.len() >= self.cfg.queue_len {
            self.shed += 1;
            return Decision::ShedQueueFull;
        }
        if !self.deadline_ok(self.cfg.deadline_budget) {
            self.shed += 1;
            return Decision::ShedDeadline;
        }
        self.client(client, now).streams += 1;
        self.queue.push_back(Queued {
            token,
            client,
            enqueued_at: now,
            deadline: now + self.cfg.deadline_budget,
        });
        Decision::Enqueue
    }

    /// Dequeues as much as the current capacity allows: expired entries
    /// are shed regardless of free slots, admissible entries are
    /// admitted while slots remain. Call whenever a slot frees or on a
    /// periodic tick; returns the actions in queue order.
    pub fn drain(&mut self, now: SimTime) -> Vec<Dequeued<T>> {
        let mut out = Vec::new();
        while let Some(front) = self.queue.front() {
            let remaining = front.deadline.saturating_since(now);
            if !self.deadline_ok(remaining) {
                let q = self.queue.pop_front().expect("front checked");
                self.release_stream(q.client);
                self.shed += 1;
                out.push(Dequeued::Shed { token: q.token });
                continue;
            }
            if self.active >= self.cfg.max_tunnels {
                break;
            }
            let q = self.queue.pop_front().expect("front checked");
            self.active += 1;
            self.admitted += 1;
            self.retry_budget.on_admit();
            out.push(Dequeued::Admit {
                token: q.token,
                waited: now.saturating_since(q.enqueued_at),
            });
        }
        out
    }

    /// Records an observed service time without releasing a slot (the
    /// domestic proxy observes establishment while the tunnel stays
    /// active and holds its slot).
    pub fn record_service(&mut self, d: SimDuration) {
        self.service.record(d);
    }

    /// Releases an admitted request's slot (tunnel finished, failed, or
    /// the browser went away). `establish` carries the observed
    /// admit→connected service time when the tunnel did establish.
    pub fn release(&mut self, client: Addr, now: SimTime, establish: Option<SimDuration>) {
        debug_assert!(self.active > 0, "release without an active slot");
        self.active = self.active.saturating_sub(1);
        if let Some(d) = establish {
            self.service.record(d);
        }
        self.release_stream(client);
        self.gc_client(client, now);
    }

    /// Removes a still-queued request (browser disconnected while
    /// waiting). Returns whether the token was found.
    pub fn remove_queued(&mut self, token: T) -> bool {
        if let Some(pos) = self.queue.iter().position(|q| q.token == token) {
            let q = self.queue.remove(pos).expect("position checked");
            self.release_stream(q.client);
            true
        } else {
            false
        }
    }

    fn release_stream(&mut self, client: Addr) {
        if let Some(state) = self.clients.get_mut(&client) {
            state.streams = state.streams.saturating_sub(1);
        }
    }

    /// Drops idle per-client state (no outstanding streams, bucket back
    /// at capacity) so a flash crowd does not leak client entries
    /// forever.
    fn gc_client(&mut self, client: Addr, now: SimTime) {
        if let Some(state) = self.clients.get_mut(&client) {
            if state.streams == 0 && state.bucket.full(now) {
                self.clients.remove(&client);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn client(n: u8) -> Addr {
        Addr::new(10, 0, 1, n)
    }

    #[test]
    fn bucket_burst_then_refill() {
        let mut b = TokenBucket::new(2.0, 4.0);
        // Full burst up front…
        for _ in 0..4 {
            assert!(b.try_take(at(0)));
        }
        assert!(!b.try_take(at(0)), "burst exhausted");
        // …then rate-limited refill: 2 tokens/s.
        assert!(b.try_take(at(1)));
        assert!(b.try_take(at(1)));
        assert!(!b.try_take(at(1)));
        // Refill caps at capacity no matter how long the idle gap.
        assert!(b.full(at(1000)));
        assert!((b.available(at(1000)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_zero_rate_never_refills() {
        let mut b = TokenBucket::new(0.0, 1.0);
        assert!(b.try_take(at(0)));
        assert!(!b.try_take(at(1_000_000)), "zero rate: burst only");
    }

    #[test]
    fn bucket_fractional_refill_accumulates() {
        let mut b = TokenBucket::new(0.5, 1.0);
        assert!(b.try_take(at(0)));
        assert!(!b.try_take(at(1)), "0.5 tokens: not enough");
        assert!(b.try_take(at(2)), "1.0 tokens accrued");
    }

    #[test]
    fn retry_budget_caps_amplification() {
        let mut rb = RetryBudget::new(0.1, 2.0);
        // Burst: two retries are free.
        assert!(rb.try_retry());
        assert!(rb.try_retry());
        assert!(!rb.try_retry());
        assert_eq!(rb.denied, 1);
        // Ten admits earn exactly one more retry.
        for _ in 0..10 {
            rb.on_admit();
        }
        assert!(rb.try_retry());
        assert!(!rb.try_retry());
        assert_eq!(rb.denied, 2);
    }

    #[test]
    fn admits_until_capacity_then_queues_then_sheds() {
        let mut cfg = AdmissionConfig::default();
        cfg.max_tunnels = 2;
        cfg.queue_len = 1;
        let mut adm: AdmissionController<u32> = AdmissionController::new(cfg);
        assert_eq!(adm.on_request(1, client(1), at(0)), Decision::Admit);
        assert_eq!(adm.on_request(2, client(2), at(0)), Decision::Admit);
        assert_eq!(adm.on_request(3, client(3), at(0)), Decision::Enqueue);
        assert_eq!(adm.on_request(4, client(4), at(0)), Decision::ShedQueueFull);
        assert_eq!((adm.active(), adm.queue_depth()), (2, 1));
        // A release frees a slot; draining admits the queued request.
        adm.release(client(1), at(1), Some(SimDuration::from_millis(300)));
        let drained = adm.drain(at(1));
        assert_eq!(
            drained,
            vec![Dequeued::Admit { token: 3, waited: SimDuration::from_secs(1) }]
        );
        assert_eq!(adm.admitted, 3);
        assert_eq!(adm.shed, 1);
    }

    #[test]
    fn deadline_boundary_budget_equal_to_ewma_admits() {
        let mut cfg = AdmissionConfig::default();
        cfg.max_tunnels = 1;
        cfg.queue_len = 8;
        cfg.deadline_budget = SimDuration::from_secs(2);
        let mut adm: AdmissionController<u32> = AdmissionController::new(cfg);
        assert_eq!(adm.on_request(1, client(1), at(0)), Decision::Admit);
        // Teach the EWMA a 2 s service time — exactly the budget.
        adm.release(client(1), at(0), Some(SimDuration::from_secs(2)));
        assert_eq!(adm.service_estimate(), SimDuration::from_secs(2));
        assert_eq!(adm.on_request(2, client(2), at(0)), Decision::Admit);
        // Saturated again: budget == EWMA must still enqueue (strictly
        // short budgets shed).
        assert_eq!(adm.on_request(3, client(3), at(10)), Decision::Enqueue);
        // At the deadline itself the remaining budget is zero < EWMA:
        // the queued entry is shed even with a free slot.
        adm.release(client(2), at(12), None);
        assert_eq!(adm.drain(at(12)), vec![Dequeued::Shed { token: 3 }]);
    }

    #[test]
    fn fresh_queue_sheds_when_budget_strictly_short() {
        let mut cfg = AdmissionConfig::default();
        cfg.max_tunnels = 1;
        cfg.deadline_budget = SimDuration::from_millis(500);
        let mut adm: AdmissionController<u32> = AdmissionController::new(cfg);
        assert_eq!(adm.on_request(1, client(1), at(0)), Decision::Admit);
        adm.release(client(1), at(0), Some(SimDuration::from_millis(600)));
        assert_eq!(adm.on_request(2, client(1), at(0)), Decision::Admit);
        // Saturated and the full budget (500 ms) < EWMA (600 ms):
        // rejected at arrival, never queued.
        assert_eq!(adm.on_request(3, client(2), at(0)), Decision::ShedDeadline);
        assert_eq!(adm.queue_depth(), 0);
    }

    #[test]
    fn per_client_rate_and_stream_caps() {
        let mut cfg = AdmissionConfig::default();
        cfg.per_client_rate = 1.0;
        cfg.per_client_burst = 2.0;
        cfg.max_streams_per_client = 1;
        let mut adm: AdmissionController<u32> = AdmissionController::new(cfg);
        assert_eq!(adm.on_request(1, client(1), at(0)), Decision::Admit);
        // Second request: bucket still has a token but the stream cap
        // bites.
        assert_eq!(adm.on_request(2, client(1), at(0)), Decision::TooManyStreams);
        // Third: the bucket is now empty too.
        assert_eq!(adm.on_request(3, client(1), at(0)), Decision::Throttled);
        // A different client is unaffected — fairness is per address.
        assert_eq!(adm.on_request(4, client(2), at(0)), Decision::Admit);
        // Releasing the stream lets the client back in once the bucket
        // refills.
        adm.release(client(1), at(5), None);
        assert_eq!(adm.on_request(5, client(1), at(5)), Decision::Admit);
        assert_eq!(adm.throttled, 2);
    }

    #[test]
    fn remove_queued_frees_the_stream_slot() {
        let mut cfg = AdmissionConfig::default();
        cfg.max_tunnels = 1;
        cfg.max_streams_per_client = 1;
        let mut adm: AdmissionController<u32> = AdmissionController::new(cfg);
        assert_eq!(adm.on_request(1, client(1), at(0)), Decision::Admit);
        assert_eq!(adm.on_request(2, client(2), at(0)), Decision::Enqueue);
        assert!(adm.remove_queued(2));
        assert!(!adm.remove_queued(2), "already gone");
        assert_eq!(adm.queue_depth(), 0);
        // The stream slot came back: client 2 can queue again.
        assert_eq!(adm.on_request(3, client(2), at(0)), Decision::Enqueue);
    }
}
