//! The domestic proxy: the only thing users ever talk to. It terminates
//! browser HTTP-proxy connections (CONNECT for HTTPS, absolute-form for
//! plain HTTP), enforces the whitelist, and forwards whitelisted traffic
//! to a pool of remote proxies under the cover + blinding protocol.
//!
//! # Pipeline
//!
//! A request moves through five stages, each a struct that owns only its
//! own tables, touches the network only through [`io::Io`], and hands
//! work for another stage back to the driver as a small outcome enum:
//!
//! 1. [`admit`] — whitelist and overload control: concurrent tunnels are
//!    capped, excess requests wait in a bounded deadline-aware queue,
//!    per-client token buckets and stream caps keep one hot client from
//!    starving the rest. Shed work fails fast with `503`/`429 +
//!    Retry-After` instead of queueing to die.
//! 2. [`gateway`] — plain-HTTP requests answered from the shared content
//!    cache or a coalesced in-flight fetch.
//! 3. [`peer`] — a non-owner's cacheable miss takes one intra-fleet hop
//!    to the key's owner shard instead of crossing the border.
//! 4. [`establish`] — a tunnel to *some* remote under deadline, retry
//!    with failover, breakers, probes, parking (over [`remotes`], the
//!    health-scored pool with its scheme rotation and elastic tier).
//! 5. [`relay`] — established streams, with transparent mid-stream
//!    resume while the browser has observed nothing.
//!
//! This file is the driver: the browser-connection table, the only
//! `impl App`, and the routing between stages — in particular the order
//! in which a failure in one stage unwinds the others.
//!
//! Error surface seen by browsers: `403` off-whitelist, `429`
//! throttled (per-client rate or stream cap), `502` retries exhausted
//! or retry budget spent, `503` parked too long with no remote
//! available, shed by the admission queue, or deadline-shed.
//! Non-whitelisted traffic is untouched by any of it (it never transits
//! the proxy: the PAC file sends it DIRECT).

mod admit;
mod establish;
mod gateway;
mod io;
mod peer;
mod relay;
mod remotes;
#[cfg(test)]
mod tests;
mod trace;

use std::collections::BTreeMap;
use std::rc::Rc;

use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse};
use sc_obs::{SpanId, TraceCtx};
use sc_simnet::addr::Addr;
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::sim::Ctx;

use self::admit::{Admit, Request};
use self::establish::{Abandoned, Establish};
use self::gateway::{Gateway, Miss, Parsed};
use self::io::{Io, Timer};
use self::peer::Peer;
use self::relay::{Ended, Ending, Relay};
use self::remotes::Remotes;
use crate::admission::Dequeued;
use crate::config::ScConfig;
use crate::elastic::ElasticHandle;
use crate::fleet::FleetMember;

/// Loop-guard header on intra-fleet peering hops: carries the
/// requesting shard's index, and its presence means "answer locally,
/// never forward again" — a peering hop is one hop, by construction.
pub const FLEET_HEADER: &str = "Sc-Fleet";

/// Work a stage hands back for another stage: every edge of the
/// pipeline, routed by [`DomesticProxy::step`].
enum Step {
    /// Nothing further.
    Done,
    /// A whitelisted request: run it through admission.
    Admit(Request),
    /// A request named a host off the whitelist: `403`, close.
    RefuseHost { browser: TcpHandle, host: String },
    /// Admission refused: answer `code` + `Retry-After`, close.
    Shed { browser: TcpHandle, code: u16, reason: &'static str },
    /// Admission let the request in, holding a slot or (`queued`) still
    /// waiting for one under its open admission `span`.
    Establish { req: Request, queued: bool, span: SpanId },
    /// A cacheable gateway miss led by its requester: one intra-fleet
    /// hop if a peer owns the key, upstream otherwise.
    Lead(Miss),
    /// The key's owner answered the hop: settle the leader's fetch.
    Settle { leader: TcpHandle, resp: HttpResponse },
    /// The hop failed or was refused: the leader's fetch goes upstream.
    FallBack { leader: TcpHandle, tctx: TraceCtx },
    /// Every remote is dark and the request parked. The oldest parked
    /// requests beyond the cap (`overflow`) are shed; `expired` says
    /// this one has waited out its window.
    Parked { browser: TcpHandle, overflow: Vec<TcpHandle>, expired: bool },
    /// A connect attempt died with attempts left: retry if the retry
    /// budget grants it.
    Retry { browser: TcpHandle, reason: &'static str, attempts: u32 },
    /// The request is lost: answer `code`, close, free its slot.
    Fail { browser: TcpHandle, code: u16, reason: &'static str },
}

/// What a browser connection is doing. A finished connection has no
/// entry at all.
enum ConnState {
    AwaitRequest(HttpParser),
    /// CONNECT accepted; tunnel establishment in progress.
    Pending,
    Tunneling { remote: TcpHandle },
    /// Plain-HTTP gateway mode: one request at a time, keep-alive
    /// across requests.
    Gateway(HttpParser),
}

struct Conn {
    /// The client behind the connection: admission's fairness key.
    client: Addr,
    state: ConnState,
}

/// The domestic proxy app. Install on the domestic VM node.
pub struct DomesticProxy {
    config: Rc<ScConfig>,
    conns: BTreeMap<TcpHandle, Conn>,
    admit: Admit,
    gateway: Gateway,
    peer: Peer,
    establish: Establish,
    remotes: Remotes,
    relay: Relay,
}

impl DomesticProxy {
    /// Creates the proxy with one circuit breaker per configured remote.
    pub fn new(config: ScConfig) -> Self {
        let config = Rc::new(config);
        DomesticProxy {
            conns: BTreeMap::new(),
            admit: Admit::new(config.clone()),
            gateway: Gateway::new(config.clone()),
            peer: Peer::new(config.resilience.connect_timeout),
            establish: Establish::new(config.clone()),
            remotes: Remotes::new(config.clone()),
            relay: Relay::new(config.clone()),
            config,
        }
    }

    /// Joins a fleet: this proxy becomes shard `member.self_idx`, its
    /// cacheable misses route to each key's owner shard, and its
    /// admission pressure is published to the shared sickness board.
    pub fn with_fleet(mut self, member: FleetMember) -> Self {
        self.admit.join_fleet(member.self_idx, member.handle.clone());
        self.gateway.join_fleet(member.self_idx);
        self.peer.join_fleet(member);
        self
    }

    /// Attaches an elastic remote tier: the proxy ticks its autoscaler,
    /// meters invocations/egress into its cost model, executes its
    /// provision/retire actions against the remote pool and node
    /// lifecycle, and churns instances whose breaker opens.
    pub fn with_elastic(mut self, handle: ElasticHandle) -> Self {
        self.remotes.attach_elastic(handle);
        self
    }

    /// Entries held per table, plus active admission slots: all zero
    /// once every connection the proxy accepted has finished.
    pub fn occupancy(&self) -> Vec<(&'static str, usize)> {
        let mut all = vec![
            ("browser conns", self.conns.len()),
            ("active admission slots", self.admit.ctl.active()),
            ("queued requests", self.admit.ctl.queue_depth()),
        ];
        all.extend(self.gateway.occupancy());
        all.extend(self.peer.occupancy());
        all.extend(self.establish.occupancy());
        all.extend(self.relay.occupancy());
        all
    }

    /// Forgets a browser connection the proxy is done with.
    fn finish(&mut self, browser: TcpHandle) {
        self.conns.remove(&browser);
    }

    fn set_state(&mut self, browser: TcpHandle, state: ConnState) {
        if let Some(conn) = self.conns.get_mut(&browser) {
            conn.state = state;
        }
    }

    // ---- the pipeline's edges ---------------------------------------------

    fn step(&mut self, step: Step, io: &mut impl Io) {
        match step {
            Step::Done => {}
            Step::Admit(req) => {
                let verdict = self.admit.on_request(req, io);
                self.step(verdict, io);
            }
            Step::RefuseHost { browser, host } => {
                self.admit.refuse_host(browser, &host, io);
                self.finish(browser);
            }
            Step::Shed { browser, code, reason } => {
                // Coalesced waiters get the same answer, the queued
                // request (if any) closes its spans. No slot was held.
                self.fail_waiters(browser, code, io);
                self.establish.shed(browser, code, reason, io.now());
                self.admit.refuse(browser, code, reason, io);
                self.finish(browser);
            }
            Step::Establish { req, queued, span } => {
                let browser = req.browser;
                // Gateway conns keep their request parser: the conn
                // outlives the per-request fetch.
                if req.is_connect {
                    self.set_state(browser, ConnState::Pending);
                }
                self.establish.enter(req, queued, span, io.now());
                if !queued {
                    self.attempt(browser, io);
                }
            }
            Step::Lead(miss) => {
                // A non-owner's miss takes one intra-fleet hop to the
                // key's owner (whose singleflight coalesces the whole
                // fleet's demand) instead of a cross-border fetch —
                // unless it already IS such a hop.
                let owner = match miss.via_hop {
                    false => self.peer.owner_of(&miss.key, io.now()),
                    true => None,
                };
                match owner {
                    Some(owner) => {
                        self.peer.start(&miss, owner, io);
                        self.gateway.lead_via_peer(miss);
                    }
                    None => {
                        let upstream = self.gateway.lead_upstream(miss, io.now());
                        self.step(upstream, io);
                    }
                }
            }
            Step::Settle { leader, resp } => self.gateway.settle(leader, resp, true, io),
            Step::FallBack { leader, tctx } => {
                let upstream = self.gateway.fall_back_upstream(leader, tctx, io.now());
                self.step(upstream, io);
            }
            Step::Parked { browser, overflow, expired } => {
                for oldest in overflow {
                    self.step(Step::Fail { browser: oldest, code: 503, reason: "parked_overflow" }, io);
                }
                // A same-instant park burst can shed this very request.
                if expired && self.establish.is_pending(browser) {
                    self.step(Step::Fail { browser, code: 503, reason: "all_remotes_dark" }, io);
                }
            }
            Step::Retry { browser, reason, attempts } => {
                if self.admit.grant_retry(reason, attempts, io.now()) {
                    self.establish.backoff(browser, reason, io);
                } else {
                    let reason = "retry_budget_exhausted";
                    self.step(Step::Fail { browser, code: 502, reason }, io);
                }
            }
            Step::Fail { browser, code, reason } => {
                self.fail_waiters(browser, code, io);
                let held = self.establish.fail(browser, code, reason, io);
                self.finish(browser);
                if let Some(client) = held {
                    self.release(client, io);
                }
            }
        }
    }

    /// A gateway leader's request failed: its coalesced waiters got the
    /// same answer and are done.
    fn fail_waiters(&mut self, leader: TcpHandle, code: u16, io: &mut impl Io) {
        for waiter in self.gateway.fail_waiters(leader, code, io) {
            self.finish(waiter);
        }
    }

    /// Hands back the slot charged to `client` and lets queued work
    /// advance into the freed capacity.
    fn release(&mut self, client: Addr, io: &mut impl Io) {
        self.admit.ctl.release(client, io.now(), None);
        self.drain_queue(io);
        self.admit.publish_sickness();
    }

    /// Dequeues as much as capacity allows: deadline-expired entries
    /// are shed with 503, admissible ones start their first attempt.
    fn drain_queue(&mut self, io: &mut impl Io) {
        let now = io.now();
        let actions = self.admit.ctl.drain(now);
        if actions.is_empty() {
            return;
        }
        for action in actions {
            match action {
                Dequeued::Shed { token: browser } => {
                    self.step(Step::Shed { browser, code: 503, reason: "deadline_shed" }, io);
                }
                Dequeued::Admit { token, waited } => {
                    sc_obs::counter_add("scholarcloud.admitted", 1);
                    if self.establish.dequeued(token, waited, now) {
                        self.admit.note_dequeue(waited, now);
                        self.attempt(token, io);
                    } else {
                        // The browser vanished without its queue entry
                        // being removed; hand the slot straight back.
                        let client = self.conns.get(&token).map(|c| c.client);
                        self.admit.ctl.release(client.unwrap_or(Addr::new(0, 0, 0, 0)), now, None);
                    }
                }
            }
        }
        self.admit.after_drain(io);
    }

    fn attempt(&mut self, browser: TcpHandle, io: &mut impl Io) {
        let cap = self.admit.park_cap();
        let tried = self.establish.try_attempt(browser, cap, &mut self.remotes, io);
        self.step(tried, io);
    }

    fn attempt_failed(&mut self, rh: TcpHandle, reason: &'static str, io: &mut impl Io) {
        let failed = self.establish.attempt_failed(rh, reason, &mut self.remotes, io);
        self.step(failed, io);
    }

    fn end_stream(&mut self, rh: TcpHandle, how: Ending, io: &mut impl Io) -> Option<Ended> {
        self.relay.end(rh, how, &mut self.remotes, io)
    }

    // ---- events, by the stage that owns the handle ------------------------

    fn on_attempt_event(&mut self, rh: TcpHandle, ev: TcpEvent, io: &mut impl Io) {
        match ev {
            TcpEvent::Connected => {
                let Some(up) = self.establish.connected(rh, &mut self.remotes, io) else { return };
                self.admit.ctl.record_service(up.service);
                // A gateway leader's conn stays in gateway mode; only
                // opaque tunnels switch to piping.
                if up.req.is_connect {
                    self.set_state(up.req.browser, ConnState::Tunneling { remote: rh });
                }
                self.relay.open(rh, up, io);
            }
            TcpEvent::ConnectFailed => self.attempt_failed(rh, "connect_failed", io),
            TcpEvent::Reset => self.attempt_failed(rh, "reset", io),
            TcpEvent::PeerClosed => self.attempt_failed(rh, "peer_closed", io),
            _ => {}
        }
    }

    fn on_stream_event(&mut self, rh: TcpHandle, ev: TcpEvent, io: &mut impl Io) {
        match ev {
            TcpEvent::DataReceived => {
                let Some((browser, plain)) = self.relay.downstream(rh, &self.remotes, io) else {
                    return;
                };
                // A gateway fetch reassembles the upstream response
                // instead of piping bytes through.
                let ended = match self.gateway.upstream_data(browser, &plain) {
                    Parsed::NotMine => return io.send(browser, &plain),
                    Parsed::More => return,
                    Parsed::Garbled => {
                        io.abort(rh);
                        let ended = self.end_stream(rh, Ending::Garbled, io);
                        let reason = "bad_upstream_response";
                        self.step(Step::Fail { browser, code: 502, reason }, io);
                        ended
                    }
                    Parsed::Response(resp) => {
                        // One fetch per tunnel: close the upstream leg.
                        io.close(rh);
                        let ended = self.end_stream(rh, Ending::Clean, io);
                        self.gateway.settle(browser, resp, false, io);
                        ended
                    }
                };
                if let Some(ended) = ended {
                    self.release(ended.client, io);
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                let how = self.relay.ending_for(rh, ev == TcpEvent::Reset);
                let Some(ended) = self.end_stream(rh, how, io) else { return };
                match ended.replay {
                    Some(replay) => {
                        self.set_state(ended.browser, ConnState::Pending);
                        self.establish.resume(replay, ended.remote_idx, io.now());
                        self.attempt(ended.browser, io);
                    }
                    None => {
                        // A gateway fetch dying mid-response takes its
                        // coalesced waiters down with the same status.
                        self.fail_waiters(ended.browser, 502, io);
                        io.close(ended.browser);
                        self.finish(ended.browser);
                        self.release(ended.client, io);
                    }
                }
            }
            _ => {}
        }
    }

    /// The first request on a browser connection decides its mode.
    fn first_request(&mut self, browser: TcpHandle, client: Addr, req: HttpRequest, io: &mut impl Io) {
        let step = if req.method == "CONNECT" {
            self.admit.connect(browser, client, &req, io)
        } else if req.target.starts_with("http://") || req.target.starts_with('/') {
            // Plain HTTP: the conn stays in gateway mode for keep-alive
            // follow-ups; each request runs through the shared cache.
            self.set_state(browser, ConnState::Gateway(HttpParser::new()));
            self.gateway.request(browser, client, req, io)
        } else {
            io.send(browser, &HttpResponse::new(400, Vec::new()).encode());
            Step::Done
        };
        self.step(step, io);
    }

    fn on_browser_event(&mut self, h: TcpHandle, ev: TcpEvent, io: &mut impl Io) {
        match ev {
            TcpEvent::Accepted { peer } => {
                let state = ConnState::AwaitRequest(HttpParser::new());
                self.conns.insert(h, Conn { client: peer.addr, state });
                sc_obs::counter_add("scholarcloud.domestic_accepts", 1);
            }
            TcpEvent::DataReceived => {
                let data = io.recv(h);
                let Some(conn) = self.conns.get_mut(&h) else { return };
                let client = conn.client;
                let (first, parsed) = match &mut conn.state {
                    ConnState::Pending => return self.establish.early_data(h, &data),
                    ConnState::Tunneling { remote } => {
                        return self.relay.upstream(*remote, &data, io);
                    }
                    ConnState::AwaitRequest(parser) => (true, parser.push(&data)),
                    ConnState::Gateway(parser) => (false, parser.push(&data)),
                };
                let requests = parsed.map(|msgs| {
                    msgs.into_iter().filter_map(|m| match m {
                        HttpMessage::Request(r) => Some(r),
                        _ => None,
                    })
                });
                match (first, requests) {
                    // Bytes that never parse as HTTP are not a browser.
                    // No admission slot is held: admission only engages
                    // after a parsed request is whitelisted.
                    (true, Err(_)) => {
                        self.admit.decoy(h, io);
                        self.finish(h);
                    }
                    // One request per proxy connection decides its mode.
                    (true, Ok(mut requests)) => {
                        if let Some(req) = requests.next() {
                            self.first_request(h, client, req, io);
                        }
                    }
                    (false, Err(_)) => {
                        io.abort(h);
                        self.browser_gone(h, io);
                    }
                    (false, Ok(requests)) => {
                        for req in requests {
                            let routed = self.gateway.request(h, client, req, io);
                            self.step(routed, io);
                        }
                    }
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => self.browser_gone(h, io),
            _ => {}
        }
    }

    /// A browser connection went away: whatever it had in flight in any
    /// stage is torn down, and its slot (if it held one) freed.
    fn browser_gone(&mut self, h: TcpHandle, io: &mut impl Io) {
        // A departing gateway leader hands its fetch to the first
        // waiter, which re-enters admission under its own identity.
        let promoted = self.gateway.browser_gone(h, io.now());
        self.step(promoted, io);
        let held = match self.establish.abandon(h, &self.remotes, io) {
            Abandoned::Queued => {
                self.admit.forget_queued(h, io.now());
                None
            }
            Abandoned::Held(client) => Some(client),
            Abandoned::NotPending => match self.conns.get(&h).map(|c| &c.state) {
                Some(&ConnState::Tunneling { remote }) => {
                    io.close(remote);
                    self.end_stream(remote, Ending::Clean, io).map(|ended| ended.client)
                }
                _ => None,
            },
        };
        self.finish(h);
        if let Some(client) = held {
            self.release(client, io);
        }
    }

    fn on_timer(&mut self, timer: Timer, io: &mut impl Io) {
        match timer {
            Timer::ProbeTick => self.remotes.probe_round(io),
            Timer::ProbeDeadline(h) => self.remotes.probe_deadline(h, io),
            Timer::ElasticTick => self.remotes.elastic_tick(self.admit.ctl.queue_depth(), io),
            Timer::ConnectDeadline(rh) => {
                if self.establish.connect_deadline(rh, io) {
                    self.attempt_failed(rh, "connect_timeout", io);
                }
            }
            Timer::Retry(browser) => {
                if self.establish.retry_due(browser) {
                    self.attempt(browser, io);
                }
            }
            Timer::QueueTick => {
                self.admit.queue_tick_fired();
                self.drain_queue(io);
                self.admit.ensure_queue_tick(io);
            }
            Timer::PeerDeadline(h) => {
                let outcome = self.peer.deadline(h, io);
                self.step(outcome, io);
            }
        }
    }

    /// Routes one event to the stage that owns its handle.
    fn route(&mut self, ev: AppEvent, io: &mut impl Io) {
        match ev {
            AppEvent::TimerFired(token) => {
                if let Some(timer) = Timer::from_token(token) {
                    self.on_timer(timer, io);
                }
            }
            AppEvent::Tcp(h, ev) if self.remotes.owns_probe(h) => {
                // A probe (or trial) that proves a remote healthy lets
                // every parked request retry immediately.
                if self.remotes.on_probe_event(h, ev, io) {
                    for browser in self.establish.parked() {
                        self.attempt(browser, io);
                    }
                }
            }
            AppEvent::Tcp(h, ev) if self.peer.owns(h) => {
                let outcome = self.peer.on_event(h, ev, io);
                self.step(outcome, io);
            }
            AppEvent::Tcp(h, ev) if self.establish.owns_attempt(h) => self.on_attempt_event(h, ev, io),
            AppEvent::Tcp(h, ev) if self.relay.owns(h) => self.on_stream_event(h, ev, io),
            AppEvent::Tcp(h, ev) => self.on_browser_event(h, ev, io),
            _ => {}
        }
    }
}

impl App for DomesticProxy {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(self.config.domestic.port);
        self.remotes.start(ctx);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        // Wall-clock attribution for the benchmark; inert unless the
        // profiler is enabled, never read by proxy logic.
        let _prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Proxy);
        self.route(ev, ctx);
    }
}
