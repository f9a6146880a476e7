//! The elastic serverless remote tier: autoscaling, cold starts, cost
//! metering, and IP churn that outruns a blacklisting campaign.
//!
//! CensorLess-style deployments run circumvention remotes as ephemeral
//! cloud functions instead of long-lived VMs: capacity follows demand,
//! idle time costs (almost) nothing, and — decisive under censorship —
//! a blacklisted instance is simply retired and replaced at a fresh IP,
//! turning enumeration-and-blocking into a losing race for the censor.
//!
//! This module is the pure controller. It owns no sockets and no clock:
//! the [`DomesticProxy`](crate::DomesticProxy) drives it from a
//! recurring timer, feeding in sim time, admission signals, and uniform
//! RNG draws, and executes the returned [`ElasticAction`]s against the
//! [`RemotePool`](crate::RemotePool) and the simulation's node
//! lifecycle. That split keeps every transition deterministic and
//! directly proptestable (see `tests/elastic_props.rs`).
//!
//! # Instance state machine
//!
//! ```text
//!              cold start elapses            idle timeout / blacklist
//!  Provisioning ────────────────▶ Warm ──────────────────▶ Draining
//!       ▲                          │                           │
//!       │ scale-out / churn        │ streams dispatched        │ in-flight
//!       │ replacement              ▼ (SWRR weighted)           ▼ drains to 0
//!   (fresh IP from pool)      RemotePool entry             Retired
//! ```
//!
//! Draining instances take no new streams (their pool entry is retired)
//! but are never powered off while a stream is still in flight — the
//! invariant that lets scale-in happen mid-traffic without stranding
//! loads. Blacklisted instances follow the same path; their in-flight
//! streams die at the GFW's hands, the breaker/failover machinery moves
//! the browsers elsewhere, and the drained husk is powered off.
//!
//! # Cost model
//!
//! Three meters, all integer micro-dollars (floats would accumulate
//! platform-dependent rounding and break byte-identical traces):
//!
//! * **per-invocation** — every stream dispatched to an elastic
//!   instance ([`note_stream_start`](ElasticPool::note_stream_start));
//! * **per-GB egress** — every plaintext byte relayed back from an
//!   instance ([`note_egress`](ElasticPool::note_egress));
//! * **warm-idle** — every microsecond an instance spends `Warm` or
//!   `Draining`, accrued on each tick.
//!
//! [`ElasticConfig::static_cost_micro`] prices the same workload on a
//! static always-on VM pool, so an experiment can compare the two arms
//! with one cost arithmetic (see `examples/elastic_lab.rs`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use sc_simnet::addr::Addr;
use sc_simnet::time::{SimDuration, SimTime};

/// Cost: micro-dollars charged per stream dispatched.
pub const COST_PER_INVOCATION_MICRO: u64 = 50;
/// Cost: micro-dollars per GB of egress (instance → domestic).
pub const COST_PER_GB_EGRESS_MICRO: u64 = 90_000;
/// Cost: micro-dollars per hour an instance stays warm.
pub const COST_PER_WARM_HOUR_MICRO: u64 = 40_000;
/// Cost: micro-dollars per hour of a *static always-on* VM — used only
/// by [`ElasticConfig::static_cost_micro`] to price the control arm of
/// cost experiments (the paper's 2-VM deployment runs about 2.2 USD/day
/// ≈ 46 000 µ$/hour per VM).
pub const COST_PER_VM_HOUR_MICRO: u64 = 46_000;
/// Surge capacity (whole instances) added to desired capacity while an
/// SLO burn is in progress. Queue depth only sees demand the warm set
/// already failed to absorb; a latency burn fires earlier, while
/// requests are still being served — slowly.
pub const BURN_HEADROOM: usize = 1;

/// Tunables for the elastic tier.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Floor on live (warm + provisioning) instances: scale-in stops
    /// here, so the tier can never go completely dark by its own hand.
    pub min_instances: usize,
    /// Ceiling on live instances: scale-out stops here.
    pub max_instances: usize,
    /// Cold-start band: each provision samples a deterministic latency
    /// in `[cold_start_min, cold_start_max)` from the seeded RNG.
    pub cold_start_min: SimDuration,
    /// Upper edge of the cold-start band (exclusive).
    pub cold_start_max: SimDuration,
    /// Target concurrent streams per warm instance: demand above
    /// `warm × target` triggers scale-out.
    pub target_inflight: usize,
    /// How long a warm instance must sit at zero in-flight streams
    /// before the idle scale-in drains it.
    pub idle_timeout: SimDuration,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            min_instances: 1,
            max_instances: 8,
            cold_start_min: SimDuration::from_millis(300),
            cold_start_max: SimDuration::from_millis(1500),
            target_inflight: 4,
            idle_timeout: SimDuration::from_secs(10),
        }
    }
}

impl ElasticConfig {
    /// The cold-start latency for a uniform `draw` in `[0, 1)`.
    pub fn cold_start(&self, draw: f64) -> SimDuration {
        let lo = self.cold_start_min.as_micros();
        let hi = self.cold_start_max.as_micros().max(lo);
        let span = (hi - lo) as f64;
        SimDuration::from_micros(lo + (span * draw) as u64)
    }

    /// What the same workload costs on a static pool of `instances`
    /// always-on VMs over `runtime`, relaying `egress_bytes` — the
    /// control arm's price under the *same* cost arithmetic as the
    /// elastic meters (egress is billed identically; invocations are
    /// free on a VM you already pay for by the hour).
    pub fn static_cost_micro(instances: usize, runtime: SimDuration, egress_bytes: u64) -> u64 {
        let vm_us = instances as u128 * runtime.as_micros() as u128;
        let vm = vm_us * COST_PER_VM_HOUR_MICRO as u128 / 3_600_000_000;
        let egress = egress_bytes as u128 * COST_PER_GB_EGRESS_MICRO as u128 / 1_000_000_000;
        (vm + egress) as u64
    }
}

/// Where an instance is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Spawn requested; the cold start has not elapsed yet.
    Provisioning,
    /// Serving: its pool entry receives weighted dispatch.
    Warm,
    /// Retired from dispatch; waiting for in-flight streams to finish.
    Draining,
    /// Powered off. Terminal.
    Retired,
}

impl InstanceState {
    /// Lower-case name for traces and dashboards.
    pub fn name(self) -> &'static str {
        match self {
            InstanceState::Provisioning => "provisioning",
            InstanceState::Warm => "warm",
            InstanceState::Draining => "draining",
            InstanceState::Retired => "retired",
        }
    }
}

/// Why an instance left the warm set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainReason {
    /// Idle timer elapsed with zero in-flight streams.
    Idle,
    /// GFW blacklisting suspected (breaker opened): churn and replace.
    Blacklist,
}

impl DrainReason {
    /// Lower-case name for traces.
    pub fn name(self) -> &'static str {
        match self {
            DrainReason::Idle => "idle",
            DrainReason::Blacklist => "blacklist",
        }
    }
}

/// One elastic instance's bookkeeping.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The instance's (unique, never reused) IP.
    pub addr: Addr,
    /// Lifecycle state.
    pub state: InstanceState,
    /// When the provision was requested.
    pub spawned_at: SimTime,
    /// The sampled cold-start latency.
    pub cold_start: SimDuration,
    /// Streams currently in flight on this instance.
    pub inflight: usize,
    /// When the instance last went idle (zero in-flight), while warm.
    pub idle_since: Option<SimTime>,
    /// Set when the drain was a blacklist churn.
    pub churned: bool,
}

impl Instance {
    fn warm_deadline(&self) -> SimTime {
        self.spawned_at + self.cold_start
    }
}

/// An action the driver must execute against the pool/simulation.
/// Returned in a deterministic order (instance creation order within
/// each phase of the tick).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElasticAction {
    /// A fresh instance was requested: node stays dark until `Warm`.
    Provision {
        /// The fresh IP drawn from the address pool.
        addr: Addr,
        /// Its sampled cold-start latency.
        cold_start: SimDuration,
    },
    /// An instance's cold start elapsed: power its node up and add it
    /// to the remote pool.
    Warm {
        /// The instance now serving.
        addr: Addr,
        /// The cold start it paid (observability: cold-start histogram).
        cold_start: SimDuration,
    },
    /// Retire the instance's pool entry — no new streams — but keep the
    /// node powered while streams drain.
    Drain {
        /// The draining instance.
        addr: Addr,
        /// Why it drained.
        reason: DrainReason,
    },
    /// Drained dry: power the node off.
    Retire {
        /// The instance to power off.
        addr: Addr,
    },
}

/// The autoscaler + cost meter. Pure state machine: every mutation
/// happens in [`tick`](Self::tick) or an explicit `note_*`/`churn`
/// call, with time and randomness passed in.
#[derive(Debug)]
pub struct ElasticPool {
    cfg: ElasticConfig,
    instances: Vec<Instance>,
    /// Fresh IPs not yet used, drawn FIFO. Exhaustion is survivable:
    /// scale-out simply stops (and is counted) until capacity frees up.
    available: VecDeque<Addr>,
    /// Provisions refused because the address pool ran dry.
    pub starved_provisions: u64,
    invocations: u64,
    egress_bytes: u64,
    churns: u64,
    /// Accumulated instance-microseconds spent warm/draining.
    warm_us: u128,
    last_accrual: SimTime,
}

impl ElasticPool {
    /// Creates the controller over a pool of fresh addresses. Nothing
    /// is provisioned yet; call [`seed_warm`](Self::seed_warm) for
    /// instances that are already up at t = 0, then drive
    /// [`tick`](Self::tick) for the rest.
    pub fn new(cfg: ElasticConfig, addr_pool: Vec<Addr>) -> Self {
        ElasticPool {
            cfg,
            instances: Vec::new(),
            available: addr_pool.into(),
            starved_provisions: 0,
            invocations: 0,
            egress_bytes: 0,
            churns: 0,
            warm_us: 0,
            last_accrual: SimTime::ZERO,
        }
    }

    /// Marks the next `n` pool addresses as warm from birth (their
    /// nodes are already up and listed in the proxy's remote pool —
    /// the pre-warmed baseline capacity). Returns the warmed addresses.
    pub fn seed_warm(&mut self, n: usize) -> Vec<Addr> {
        let mut warmed = Vec::new();
        for _ in 0..n {
            let Some(addr) = self.available.pop_front() else { break };
            self.instances.push(Instance {
                addr,
                state: InstanceState::Warm,
                spawned_at: SimTime::ZERO,
                cold_start: SimDuration::ZERO,
                inflight: 0,
                idle_since: Some(SimTime::ZERO),
                churned: false,
            });
            warmed.push(addr);
        }
        warmed
    }

    fn instance_mut(&mut self, addr: Addr) -> Option<&mut Instance> {
        self.instances.iter_mut().find(|i| i.addr == addr)
    }

    /// All instances, in creation order (timeline rendering, tests).
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Addresses currently warm (the blacklisting campaign's target
    /// list: the censor can only block what is serving).
    pub fn warm_addrs(&self) -> Vec<Addr> {
        self.instances
            .iter()
            .filter(|i| i.state == InstanceState::Warm)
            .map(|i| i.addr)
            .collect()
    }

    /// Instances currently warm.
    pub fn warm_count(&self) -> usize {
        self.instances.iter().filter(|i| i.state == InstanceState::Warm).count()
    }

    /// Instances currently live: warm or still cold-starting (capacity
    /// that is, or is about to be, serving).
    pub fn live_count(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| {
                matches!(i.state, InstanceState::Warm | InstanceState::Provisioning)
            })
            .count()
    }

    /// Streams dispatched to elastic instances so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Plaintext bytes relayed back from elastic instances so far.
    pub fn egress_bytes(&self) -> u64 {
        self.egress_bytes
    }

    /// Blacklist churns so far (instances retired and replaced).
    pub fn churns(&self) -> u64 {
        self.churns
    }

    /// A stream was dispatched to `addr`: one invocation charged, the
    /// idle timer reset. Returns false (and meters nothing) if `addr`
    /// is not an elastic instance.
    pub fn note_stream_start(&mut self, addr: Addr) -> bool {
        match self.instance_mut(addr) {
            Some(i) => {
                i.inflight += 1;
                i.idle_since = None;
                self.invocations += 1;
                true
            }
            None => false,
        }
    }

    /// A stream on `addr` finished (or died). The idle timer starts
    /// only when the last stream leaves.
    pub fn note_stream_end(&mut self, addr: Addr, now: SimTime) {
        if let Some(i) = self.instance_mut(addr) {
            i.inflight = i.inflight.saturating_sub(1);
            if i.inflight == 0 && i.state == InstanceState::Warm {
                i.idle_since = Some(now);
            }
        }
    }

    /// Plaintext bytes relayed back from `addr` (egress metering).
    pub fn note_egress(&mut self, addr: Addr, bytes: u64) {
        if self.instance_mut(addr).is_some() {
            self.egress_bytes += bytes;
        }
    }

    /// The breaker on `addr` opened: treat it as blacklisted. The next
    /// tick drains it and provisions a replacement at a fresh IP.
    /// Returns true if this call marked a warm instance for churn.
    pub fn churn(&mut self, addr: Addr) -> bool {
        if let Some(i) = self.instance_mut(addr) {
            if i.state == InstanceState::Warm && !i.churned {
                i.churned = true;
                return true;
            }
        }
        false
    }

    /// An instance's current state.
    pub fn state_of(&self, addr: Addr) -> Option<InstanceState> {
        self.instances.iter().find(|i| i.addr == addr).map(|i| i.state)
    }

    /// One controller tick at `now`. `queue_depth` is the admission
    /// queue's current depth (the demand the warm set is failing to
    /// absorb); `burning` is the SLO burn-rate signal — true while a
    /// latency or availability objective is actively burning budget,
    /// which adds [`BURN_HEADROOM`]
    /// instances of surge demand so scale-out starts *before* the queue
    /// backs up; `draw` supplies uniform samples in `[0, 1)` from the
    /// caller's seeded RNG, consumed once per provision in a fixed
    /// order — so same-seed runs provision identical cold starts.
    ///
    /// Phases, in deterministic order: accrue warm charges, promote
    /// cold-started instances, drain churned instances, drain idle
    /// surplus, retire drained-dry instances, provision up to desired
    /// capacity.
    pub fn tick(
        &mut self,
        now: SimTime,
        queue_depth: usize,
        burning: bool,
        mut draw: impl FnMut() -> f64,
    ) -> Vec<ElasticAction> {
        let mut actions = Vec::new();
        self.accrue(now);

        // Promote: cold start elapsed → Warm.
        for i in self.instances.iter_mut() {
            if i.state == InstanceState::Provisioning && now >= i.warm_deadline() {
                i.state = InstanceState::Warm;
                i.idle_since = Some(now);
                actions.push(ElasticAction::Warm { addr: i.addr, cold_start: i.cold_start });
            }
        }

        // Churn: blacklisted instances leave the warm set immediately
        // (their replacement is provisioned below — draining capacity
        // does not count as live).
        for i in self.instances.iter_mut() {
            if i.state == InstanceState::Warm && i.churned {
                i.state = InstanceState::Draining;
                self.churns += 1;
                actions
                    .push(ElasticAction::Drain { addr: i.addr, reason: DrainReason::Blacklist });
            }
        }

        // Demand → desired capacity.
        let inflight: usize = self
            .instances
            .iter()
            .filter(|i| i.state == InstanceState::Warm)
            .map(|i| i.inflight)
            .sum();
        let mut demand = inflight + queue_depth;
        if burning {
            // A burning SLO is demand the queue cannot see yet: requests
            // are being served, just too slowly. Surge ahead of it.
            demand += BURN_HEADROOM * self.cfg.target_inflight.max(1);
        }
        let desired = demand
            .div_ceil(self.cfg.target_inflight.max(1))
            .clamp(self.cfg.min_instances, self.cfg.max_instances);

        // Idle scale-in: drain warm instances idle past the timeout,
        // oldest-idle first, never below desired (≥ min).
        let mut live = self.live_count();
        if live > desired {
            let mut idle: Vec<(SimTime, usize)> = self
                .instances
                .iter()
                .enumerate()
                .filter_map(|(k, i)| match (i.state, i.idle_since) {
                    (InstanceState::Warm, Some(since))
                        if i.inflight == 0
                            && now.saturating_since(since) >= self.cfg.idle_timeout =>
                    {
                        Some((since, k))
                    }
                    _ => None,
                })
                .collect();
            idle.sort();
            for (_, k) in idle {
                if live <= desired {
                    break;
                }
                let i = &mut self.instances[k];
                i.state = InstanceState::Draining;
                actions.push(ElasticAction::Drain { addr: i.addr, reason: DrainReason::Idle });
                live -= 1;
            }
        }

        // Retire: draining instances with nothing in flight power off.
        // Never with streams still up — scale-in must not strand loads.
        for i in self.instances.iter_mut() {
            if i.state == InstanceState::Draining && i.inflight == 0 {
                i.state = InstanceState::Retired;
                actions.push(ElasticAction::Retire { addr: i.addr });
            }
        }

        // Scale out to desired capacity, fresh IP per instance.
        while self.live_count() < desired {
            let Some(addr) = self.available.pop_front() else {
                self.starved_provisions += 1;
                break;
            };
            let cold_start = self.cfg.cold_start(draw());
            self.instances.push(Instance {
                addr,
                state: InstanceState::Provisioning,
                spawned_at: now,
                cold_start,
                inflight: 0,
                idle_since: None,
                churned: false,
            });
            actions.push(ElasticAction::Provision { addr, cold_start });
        }

        actions
    }

    /// Accrues warm-idle charges up to `now` (warm and draining
    /// instances both hold memory and an IP, so both bill).
    fn accrue(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_accrual).as_micros() as u128;
        self.last_accrual = now;
        let billing = self
            .instances
            .iter()
            .filter(|i| matches!(i.state, InstanceState::Warm | InstanceState::Draining))
            .count() as u128;
        self.warm_us += billing * dt;
    }

    /// Micro-dollars charged for invocations so far.
    pub fn cost_invocation_micro(&self) -> u64 {
        self.invocations * COST_PER_INVOCATION_MICRO
    }

    /// Micro-dollars charged for egress so far.
    pub fn cost_egress_micro(&self) -> u64 {
        (self.egress_bytes as u128 * COST_PER_GB_EGRESS_MICRO as u128 / 1_000_000_000) as u64
    }

    /// Micro-dollars charged for warm time so far (accrued at ticks).
    pub fn cost_warm_micro(&self) -> u64 {
        (self.warm_us * COST_PER_WARM_HOUR_MICRO as u128 / 3_600_000_000) as u64
    }

    /// Total micro-dollars charged so far.
    pub fn total_cost_micro(&self) -> u64 {
        self.cost_invocation_micro() + self.cost_egress_micro() + self.cost_warm_micro()
    }
}

/// Shared handle to an [`ElasticPool`], cloned between the scenario
/// builder (which seeds it and hands a copy to the experiment driver
/// for blacklist targeting) and the [`DomesticProxy`](crate::DomesticProxy)
/// that ticks it. Single-threaded by design, like every other shared
/// handle in the simulation.
#[derive(Debug, Clone)]
pub struct ElasticHandle {
    inner: Rc<RefCell<ElasticPool>>,
}

impl ElasticHandle {
    /// Wraps a pool in a shareable handle.
    pub fn new(pool: ElasticPool) -> Self {
        ElasticHandle { inner: Rc::new(RefCell::new(pool)) }
    }

    /// Runs `f` with mutable access to the pool.
    pub fn with<R>(&self, f: impl FnOnce(&mut ElasticPool) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }

    /// Addresses currently warm (see [`ElasticPool::warm_addrs`]).
    pub fn warm_addrs(&self) -> Vec<Addr> {
        self.inner.borrow().warm_addrs()
    }

    /// Total micro-dollars charged so far.
    pub fn total_cost_micro(&self) -> u64 {
        self.inner.borrow().total_cost_micro()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_addrs(n: usize) -> Vec<Addr> {
        (0..n).map(|i| Addr::new(99, 0, 1, 1 + i as u8)).collect()
    }

    fn cfg() -> ElasticConfig {
        ElasticConfig {
            min_instances: 1,
            max_instances: 4,
            cold_start_min: SimDuration::from_millis(500),
            cold_start_max: SimDuration::from_millis(500),
            target_inflight: 2,
            idle_timeout: SimDuration::from_secs(5),
        }
    }

    #[test]
    fn scale_out_waits_for_cold_start() {
        let mut p = ElasticPool::new(cfg(), pool_addrs(8));
        let seeded = p.seed_warm(1);
        assert_eq!(seeded.len(), 1);
        // Demand for 3 instances: queue depth 6, target 2.
        let acts = p.tick(SimTime::from_millis(100), 6, false, || 0.0);
        let provisions =
            acts.iter().filter(|a| matches!(a, ElasticAction::Provision { .. })).count();
        assert_eq!(provisions, 2);
        assert_eq!(p.warm_count(), 1, "cold-starting instances are not warm yet");
        // Before the cold start elapses: no promotion.
        let acts = p.tick(SimTime::from_millis(400), 6, false, || 0.0);
        assert!(acts.iter().all(|a| !matches!(a, ElasticAction::Warm { .. })));
        // After: both turn warm.
        let acts = p.tick(SimTime::from_millis(700), 6, false, || 0.0);
        let warms = acts.iter().filter(|a| matches!(a, ElasticAction::Warm { .. })).count();
        assert_eq!(warms, 2);
        assert_eq!(p.warm_count(), 3);
    }

    #[test]
    fn idle_scale_in_respects_min_and_inflight() {
        let mut p = ElasticPool::new(cfg(), pool_addrs(8));
        let seeded = p.seed_warm(3);
        // One instance holds a stream; all idle timers are long past.
        p.note_stream_start(seeded[2]);
        let acts = p.tick(SimTime::from_secs(60), 0, false, || 0.0);
        let drains: Vec<Addr> = acts
            .iter()
            .filter_map(|a| match a {
                ElasticAction::Drain { addr, reason: DrainReason::Idle } => Some(*addr),
                _ => None,
            })
            .collect();
        // Desired = max(ceil(1/2), min) = 1. Busy instance is not idle,
        // so the two idle ones drain down to desired.
        assert_eq!(drains, vec![seeded[0], seeded[1]]);
        assert_eq!(p.state_of(seeded[2]), Some(InstanceState::Warm));
        // Idle drains retire the same tick (nothing in flight).
        assert_eq!(p.state_of(seeded[0]), Some(InstanceState::Retired));
    }

    #[test]
    fn churn_drains_replaces_and_never_strands_inflight() {
        let mut p = ElasticPool::new(cfg(), pool_addrs(8));
        let seeded = p.seed_warm(1);
        p.note_stream_start(seeded[0]);
        p.churn(seeded[0]);
        let acts = p.tick(SimTime::from_secs(1), 0, false, || 0.5);
        assert!(acts.contains(&ElasticAction::Drain {
            addr: seeded[0],
            reason: DrainReason::Blacklist
        }));
        // Replacement provisioned at a fresh IP; victim not yet retired
        // (a stream is still in flight).
        assert!(acts.iter().any(|a| matches!(
            a,
            ElasticAction::Provision { addr, .. } if *addr != seeded[0]
        )));
        assert_eq!(p.state_of(seeded[0]), Some(InstanceState::Draining));
        assert_eq!(p.churns(), 1);
        // Stream ends → next tick powers it off.
        p.note_stream_end(seeded[0], SimTime::from_secs(2));
        let acts = p.tick(SimTime::from_secs(2), 0, false, || 0.5);
        assert!(acts.contains(&ElasticAction::Retire { addr: seeded[0] }));
        assert_eq!(p.state_of(seeded[0]), Some(InstanceState::Retired));
    }

    #[test]
    fn cost_meters_are_integer_and_monotone() {
        let mut p = ElasticPool::new(cfg(), pool_addrs(4));
        let seeded = p.seed_warm(2);
        p.note_stream_start(seeded[0]);
        p.note_egress(seeded[0], 2_000_000_000); // 2 GB
        p.tick(SimTime::from_secs(3600), 0, false, || 0.0);
        assert_eq!(p.cost_invocation_micro(), COST_PER_INVOCATION_MICRO);
        assert_eq!(p.cost_egress_micro(), 2 * COST_PER_GB_EGRESS_MICRO);
        // Two instances warm for one hour (one idle-drained at the tick,
        // but billing accrues before the drain).
        assert_eq!(p.cost_warm_micro(), 2 * COST_PER_WARM_HOUR_MICRO);
        assert_eq!(
            p.total_cost_micro(),
            p.cost_invocation_micro() + p.cost_egress_micro() + p.cost_warm_micro()
        );
    }

    #[test]
    fn slo_burn_scales_out_before_the_queue_backs_up() {
        // Same demand picture in both arms: one warm instance, two
        // streams in flight (at target), zero queued — the queue-depth
        // signal alone sees nothing to scale for.
        let arm = |burning: bool| {
            let mut p = ElasticPool::new(cfg(), pool_addrs(8));
            let seeded = p.seed_warm(1);
            p.note_stream_start(seeded[0]);
            p.note_stream_start(seeded[0]);
            let acts = p.tick(SimTime::from_secs(1), 0, burning, || 0.0);
            acts.iter().filter(|a| matches!(a, ElasticAction::Provision { .. })).count()
        };
        assert_eq!(arm(false), 0, "no queue, no burn: nothing to do");
        assert_eq!(
            arm(true),
            1,
            "a burning latency SLO surges capacity before requests queue"
        );
    }

    #[test]
    fn address_pool_exhaustion_is_survivable() {
        let mut p = ElasticPool::new(cfg(), pool_addrs(1));
        p.seed_warm(1);
        let acts = p.tick(SimTime::from_secs(1), 100, false, || 0.0);
        assert!(acts.iter().all(|a| !matches!(a, ElasticAction::Provision { .. })));
        assert!(p.starved_provisions > 0);
    }

    #[test]
    fn static_cost_prices_vm_hours_plus_egress() {
        let cost =
            ElasticConfig::static_cost_micro(4, SimDuration::from_secs(3600), 1_000_000_000);
        assert_eq!(cost, 4 * COST_PER_VM_HOUR_MICRO + COST_PER_GB_EGRESS_MICRO);
    }
}
