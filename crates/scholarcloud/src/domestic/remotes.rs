//! The remote side of the establish stage: the [`RemotePool`] and
//! everything that keeps it honest. Per-remote breakers and the events
//! their transitions emit, the active probes that detect recovery, the
//! detection-driven scheme rotation those failures feed, and the drive
//! of the elastic tier (whose instances are entries of the same pool).
//! The establish stage picks from it and reports attempt outcomes; the
//! relay stage's mid-stream resets land here too.

use std::collections::BTreeMap;
use std::rc::Rc;

use sc_obs::{Fields, Level, Quoted};
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{TcpEvent, TcpHandle};
use sc_simnet::time::{SimDuration, SimTime};

use super::io::{Io, Timer};
use super::trace;
use crate::config::{ScConfig, REMOTE_PORT};
use crate::elastic::{ElasticAction, ElasticHandle};
use crate::resilience::{
    BreakerState, BreakerTransition, RemotePool, BREAKER_COOLDOWN, BREAKER_THRESHOLD,
    CONNECT_TIMEOUT, PROBE_INTERVAL,
};

/// Elastic autoscaler control-loop period. Half the smallest default
/// cold start, so a scale-out decision is never more than one tick
/// stale relative to the capacity it produces.
const ELASTIC_TICK: SimDuration = SimDuration::from_millis(500);

/// An active health probe: a bare TCP connect to a remote, closed as
/// soon as it succeeds. (The remote proxy sees a connection that dies
/// before sending a preamble — indistinguishable from a web crawler
/// timing out, so probes do not burn the cover story.)
struct Probe {
    remote_idx: usize,
    started: SimTime,
    /// Success recorded; awaiting the close handshake's events.
    done: bool,
}

pub(super) struct Remotes {
    cfg: Rc<ScConfig>,
    pool: RemotePool,
    /// The elastic remote tier this proxy drives (None = the paper's
    /// static VM pool; every elastic path is inert then).
    elastic: Option<ElasticHandle>,
    probes: BTreeMap<TcpHandle, Probe>,
    /// Breaker openings observed (rotation-policy evidence).
    breaker_opens: u64,
    /// Interference units already consumed by past rotations.
    evidence_consumed: u64,
    /// When the scheme last rotated (cooldown bookkeeping).
    last_rotation: Option<SimTime>,
}

impl Remotes {
    /// One circuit breaker per configured remote.
    pub fn new(cfg: Rc<ScConfig>) -> Self {
        Remotes {
            pool: RemotePool::new(
                cfg.remotes.clone(),
                BREAKER_THRESHOLD,
                BREAKER_COOLDOWN,
            ),
            elastic: None,
            probes: BTreeMap::new(),
            breaker_opens: 0,
            evidence_consumed: 0,
            last_rotation: None,
            cfg,
        }
    }

    pub fn attach_elastic(&mut self, handle: ElasticHandle) {
        self.elastic = Some(handle);
    }

    pub fn start(&mut self, io: &mut impl Io) {
        io.timer(PROBE_INTERVAL, Timer::ProbeTick);
        if self.elastic.is_some() {
            io.timer(ELASTIC_TICK, Timer::ElasticTick);
        }
    }

    pub fn owns_probe(&self, h: TcpHandle) -> bool {
        self.probes.contains_key(&h)
    }

    /// Picks the remote for the next attempt (health-scored, breakers
    /// permitting), preferring one other than `exclude`.
    pub fn pick(&mut self, now: SimTime, exclude: Option<usize>) -> Option<usize> {
        self.pool.pick(now, exclude)
    }

    pub fn addr(&self, idx: usize) -> SocketAddr {
        self.pool.entry(idx).addr
    }

    /// Notes a new connection to pool entry `idx`: every connection to
    /// an elastic instance is one billable invocation (the cloud
    /// function spins per connection).
    pub fn stream_start(&self, idx: usize) {
        if let Some(handle) = &self.elastic {
            if handle.with(|p| p.note_stream_start(self.addr(idx).addr)) {
                sc_obs::counter_add("scholarcloud.elastic_invocations", 1);
            }
        }
    }

    /// Notes the end of a stream (or attempt) on pool entry `idx` for
    /// elastic idle accounting (no-op for static remotes).
    pub fn stream_end(&self, idx: usize, now: SimTime) {
        if let Some(handle) = &self.elastic {
            handle.with(|p| p.note_stream_end(self.addr(idx).addr, now));
        }
    }

    /// Relayed plaintext is the instance's billable egress under the
    /// elastic cost model.
    pub fn egress(&self, idx: usize, bytes: u64) {
        if let Some(handle) = &self.elastic {
            handle.with(|p| p.note_egress(self.addr(idx).addr, bytes));
        }
    }

    fn breaker_event(&self, idx: usize, t: BreakerTransition, now: SimTime) {
        sc_obs::counter_add("scholarcloud.breaker_transitions", 1);
        match t.to {
            BreakerState::Open => sc_obs::ts_bump(now.as_micros(), "scholarcloud.breaker_opens", 1),
            BreakerState::Closed => {
                sc_obs::ts_bump(now.as_micros(), "scholarcloud.breaker_closes", 1)
            }
            BreakerState::HalfOpen => {}
        }
        trace::event(now, Level::Warn, "resilience", "breaker", |f| {
            f.field("remote", self.pool.entry(idx).addr)
                .field("from", t.from.name())
                .field("to", t.to.name());
        });
    }

    pub fn succeeded(&mut self, idx: usize, rtt: SimDuration, now: SimTime) {
        if let Some(t) = self.pool.record_success(idx, rtt) {
            self.breaker_event(idx, t, now);
        }
    }

    /// Records a failure against pool entry `idx` (a dead attempt, a
    /// timed-out probe, or an established stream's mid-stream RST — a
    /// health signal, GFW interference or a dying VM).
    pub fn failed(&mut self, idx: usize, io: &mut impl Io) {
        let now = io.now();
        let Some(t) = self.pool.record_failure(idx, now) else { return };
        self.breaker_event(idx, t, now);
        if t.to == BreakerState::Open {
            // An elastic instance whose breaker opens is presumed
            // blacklisted: churn it — retire at this IP, replace at a
            // fresh one — instead of waiting out probe recovery that
            // will never come.
            self.churn(idx, now);
            self.breaker_opens += 1;
            // Rotate *now*, not at the next tick: this request's own
            // retry already picks up the new scheme.
            self.maybe_rotate(now);
        }
    }

    /// Evaluates the detection-driven scheme-rotation policy: breaker
    /// openings (tunnels dying at the censor's hands) plus remote-side
    /// probe sightings are the interference evidence; enough *new*
    /// evidence since the last rotation — outside the cooldown — rotates
    /// the blinding scheme, changing the cover traffic's on-wire shape
    /// and starving whatever signature the censor had learned. No timer
    /// is involved: an undetected scheme never rotates.
    fn maybe_rotate(&mut self, now: SimTime) {
        let Some(policy) = self.cfg.rotation else { return };
        let evidence = self.breaker_opens + self.cfg.interference.probe_sightings();
        let fresh = evidence.saturating_sub(self.evidence_consumed);
        let cooling =
            self.last_rotation.is_some_and(|last| now.saturating_since(last) < policy.cooldown);
        if fresh < policy.threshold || cooling {
            return;
        }
        self.evidence_consumed = evidence;
        self.last_rotation = Some(now);
        let from = self.cfg.scheme.get();
        // A fresh cover generation with the new codec: the censor's
        // classifier has never seen the rotated deployment's preamble,
        // so every learned signature starves from here on out.
        let to = self.cfg.scheme.rotate_fresh_at(now.as_micros());
        sc_obs::counter_add("scholarcloud.adaptive_rotations", 1);
        trace::event(now, Level::Info, "adaptive", "rotate", |f| {
            f.field("from", format!("{from:?}")).field("to", format!("{to:?}")).field("evidence", fresh);
        });
        // Breaker amnesty: the opens that drove this rotation were the
        // censor killing the *scheme*, not the remotes. Forgive every
        // live breaker so the very next attempt tries the rotated
        // scheme immediately instead of waiting out a cooldown against
        // an endpoint that was never actually sick.
        for idx in 0..self.pool.len() {
            if self.pool.entry(idx).retired {
                continue;
            }
            if let Some(t) = self.pool.forgive(idx) {
                self.breaker_event(idx, t, now);
            }
        }
    }

    /// Launches one probe round (unproven or unhealthy remotes only) and
    /// re-arms the next tick.
    pub fn probe_round(&mut self, io: &mut impl Io) {
        let now = io.now();
        // Probe sightings accrue on the remote side between our own
        // failure events; re-evaluate rotation on the same cadence as
        // health probing so they are picked up without a dedicated timer.
        self.maybe_rotate(now);
        for idx in 0..self.pool.len() {
            let e = self.pool.entry(idx);
            // Retired entries (drained elastic instances) are gone for
            // good — probing them would just re-open their breakers.
            if e.retired {
                continue;
            }
            let needs_probe = e.health.rtt_ewma.is_none()
                || e.health.consecutive_failures > 0
                || e.breaker.state() != BreakerState::Closed;
            // Probes that already succeeded (`done`) are only waiting for
            // their close handshake; they must not suppress a fresh probe
            // of a remote that may have gone dark since.
            let already_probing = self.probes.values().any(|p| p.remote_idx == idx && !p.done);
            if !needs_probe || already_probing {
                continue;
            }
            let h = io.connect(e.addr);
            self.probes.insert(h, Probe { remote_idx: idx, started: now, done: false });
            io.timer(CONNECT_TIMEOUT, Timer::ProbeDeadline(h));
            sc_obs::counter_add("scholarcloud.probes", 1);
        }
        io.timer(PROBE_INTERVAL, Timer::ProbeTick);
    }

    /// The connect deadline of probe `h` fired.
    pub fn probe_deadline(&mut self, h: TcpHandle, io: &mut impl Io) {
        if self.probes.get(&h).is_none_or(|p| p.done) {
            return;
        }
        io.abort(h);
        let p = self.probes.remove(&h).expect("checked");
        sc_obs::counter_add("scholarcloud.probe_timeouts", 1);
        self.failed(p.remote_idx, io);
    }

    /// A TCP event on probe `h`. `true` when it just proved a remote
    /// healthy: the caller retries the [`parked`](Self::parked) set.
    pub fn on_probe_event(&mut self, h: TcpHandle, ev: TcpEvent, io: &mut impl Io) -> bool {
        match ev {
            TcpEvent::Connected => {
                let now = io.now();
                let Some(p) = self.probes.get_mut(&h) else { return false };
                p.done = true;
                let (idx, rtt) = (p.remote_idx, now.saturating_since(p.started));
                io.close(h);
                sc_obs::observe("scholarcloud.probe_rtt_us", rtt.as_micros());
                self.succeeded(idx, rtt, now);
                true
            }
            TcpEvent::ConnectFailed | TcpEvent::Reset | TcpEvent::PeerClosed => {
                if let Some(p) = self.probes.remove(&h).filter(|p| !p.done) {
                    self.failed(p.remote_idx, io);
                }
                false
            }
            _ => false,
        }
    }

    /// Marks the instance behind pool entry `idx` as blacklisted, if it
    /// is an elastic one; the next autoscaler tick drains and replaces
    /// it.
    fn churn(&mut self, idx: usize, now: SimTime) {
        let Some(handle) = &self.elastic else { return };
        let addr = self.pool.entry(idx).addr.addr;
        if handle.with(|p| p.churn(addr)) {
            sc_obs::counter_add("scholarcloud.elastic_churns", 1);
            elastic_event(now, "churn", addr, |_| {});
        }
    }

    /// One autoscaler control-loop tick: feed the admission queue depth
    /// into the elastic pool, execute the actions it returns against
    /// the remote pool and the node lifecycle, and publish the cost and
    /// capacity telemetry.
    pub fn elastic_tick(&mut self, queue_depth: usize, io: &mut impl Io) {
        let Some(handle) = self.elastic.clone() else { return };
        let now = io.now();
        // SLO burn-rate input: a latency or availability objective
        // actively burning budget is demand the queue cannot see yet, so
        // it surges capacity ahead of the backlog. Outside an SLO-guarded
        // run there is no engine and the signal is simply false.
        let burning = sc_obs::with_slo_engine(|e| e.any_fired()).unwrap_or(false);
        let actions = handle.with(|p| p.tick(now, queue_depth, burning, || io.rand_unit()));
        for act in actions {
            match act {
                ElasticAction::Provision { addr, cold_start } => {
                    sc_obs::counter_add("scholarcloud.elastic_provisions", 1);
                    elastic_event(now, "provision", addr, |f| {
                        f.field("cold_start_us", Quoted(cold_start.as_micros()));
                    });
                }
                ElasticAction::Warm { addr, cold_start } => {
                    // The instance's node comes up and its pool entry
                    // starts taking weighted dispatch.
                    io.node_power(addr, true);
                    let sock = SocketAddr::new(addr, REMOTE_PORT);
                    if self.pool.index_of(sock).is_none() {
                        self.pool.add_remote(sock);
                    }
                    sc_obs::observe("scholarcloud.elastic_cold_start_us", cold_start.as_micros());
                    elastic_event(now, "warm", addr, |f| {
                        f.field("cold_start_us", Quoted(cold_start.as_micros()));
                    });
                }
                ElasticAction::Drain { addr, reason } => {
                    if let Some(idx) = self.pool.index_of(SocketAddr::new(addr, REMOTE_PORT)) {
                        self.pool.retire(idx);
                    }
                    elastic_event(now, "drain", addr, |f| {
                        f.field("reason", reason.name());
                    });
                }
                ElasticAction::Retire { addr } => {
                    // In-flight streams drained; the husk powers off.
                    io.node_power(addr, false);
                    sc_obs::counter_add("scholarcloud.elastic_retires", 1);
                    elastic_event(now, "retire", addr, |_| {});
                }
            }
        }
        let live = handle.with(|p| p.live_count());
        sc_obs::ts_record(now.as_micros(), "scholarcloud.elastic_instances", live as u64);
        trace::event(now, Level::Info, "elastic", "cost", |f| {
            handle.with(|p| {
                f.field("warm", p.warm_count() as u64)
                    .field("live", live as u64)
                    .field("invocation_micro", p.cost_invocation_micro())
                    .field("egress_micro", p.cost_egress_micro())
                    .field("warm_micro", p.cost_warm_micro())
                    .field("total_micro", p.total_cost_micro());
            })
        });
        io.timer(ELASTIC_TICK, Timer::ElasticTick);
    }
}

/// One `scholarcloud/elastic` lifecycle event about the instance at
/// `addr`; `more` appends what is particular to the transition.
fn elastic_event(
    now: SimTime,
    name: &'static str,
    addr: Addr,
    more: impl FnOnce(&mut Fields<'_>),
) {
    trace::event(now, Level::Info, "elastic", name, |f| {
        more(f.field("instance", addr));
    });
}
