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
//! This file is the driver's front half: the browser-connection table,
//! the only `impl App`, and the routing of each event to the stage that
//! owns its handle. [`step`] is the back half: the edges between stages.
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
mod step;
#[cfg(test)]
mod tests;
mod trace;

use std::collections::BTreeMap;
use std::rc::Rc;

use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse};
use sc_simnet::addr::Addr;
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::sim::Ctx;

use self::admit::Admit;
use self::establish::{Abandoned, Establish};
use self::gateway::Gateway;
use self::io::{Io, Timer};
use self::peer::Peer;
use self::relay::{Ending, Relay};
use self::remotes::Remotes;
use self::step::Step;
use crate::config::ScConfig;
use crate::elastic::ElasticHandle;
use crate::fleet::FleetMember;

/// Loop-guard header on intra-fleet peering hops: carries the
/// requesting shard's index, and its presence means "answer locally,
/// never forward again" — a peering hop is one hop, by construction.
pub const FLEET_HEADER: &str = "Sc-Fleet";

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
            peer: Peer::new(),
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

    fn gateway_request(
        &mut self,
        browser: TcpHandle,
        client: Addr,
        req: HttpRequest,
        io: &mut impl Io,
    ) -> Step {
        let peer = &self.peer;
        self.gateway.request(browser, client, req, |key, now| peer.owner_of(key, now), io)
    }

    /// The first request on a browser connection decides its mode.
    fn first_request(
        &mut self,
        browser: TcpHandle,
        client: Addr,
        req: HttpRequest,
        io: &mut impl Io,
    ) {
        let step = if req.method() == "CONNECT" {
            self.admit.connect(browser, client, &req, io)
        } else if req.target().starts_with("http://") || req.target().starts_with('/') {
            // Plain HTTP: the conn stays in gateway mode for keep-alive
            // follow-ups; each request runs through the shared cache.
            self.set_state(browser, ConnState::Gateway(HttpParser::new()));
            self.gateway_request(browser, client, req, io)
        } else {
            io.send(browser, HttpResponse::new(400, Vec::new()).into_wire());
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
                    ConnState::AwaitRequest(parser) => (true, parser.push_bytes(data)),
                    ConnState::Gateway(parser) => (false, parser.push_bytes(data)),
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
                            let routed = self.gateway_request(h, client, req, io);
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
            AppEvent::Tcp(h, ev) if self.establish.owns_attempt(h) => {
                self.on_attempt_event(h, ev, io);
            }
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
