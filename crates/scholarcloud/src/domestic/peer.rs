//! Stage 3 — peer: one intra-fleet hop to the cache shard that owns a
//! key, instead of a cross-border fetch.
//!
//! Owns this proxy's private fleet view (peer dead-marks with re-probe
//! backoff) and the in-flight hops. A hop either settles like an
//! upstream response or falls back upstream; either way the outcome
//! goes back to the driver, which owns neither the cache nor admission.

use std::collections::BTreeMap;

use bytes::Bytes;
use sc_cache::CacheKey;
use sc_netproto::http::{HttpParser, HttpRequest, HttpResponse};
use sc_obs::{Level, Quoted, SpanId};
use sc_simnet::api::{Io, TcpEvent, TcpHandle};
use sc_simnet::time::{SimDuration, SimTime};

use super::gateway::{first_response, Miss};
use super::io::Timer;
use super::trace;
use super::{Step, FLEET_HEADER};
use crate::fleet::FleetMember;
use crate::resilience::CONNECT_TIMEOUT;

/// An in-flight intra-fleet peering hop: a non-owner's cacheable miss
/// forwarded to the key's owner shard instead of upstream.
struct Hop {
    /// The gateway leader whose request this hop serves.
    leader: TcpHandle,
    /// Owner shard index the hop targets.
    owner: usize,
    /// The request's wire chunks, sent once the peer TCP connects.
    wire: [Bytes; 2],
    connected: bool,
    /// Response settled; awaiting the close handshake's events.
    done: bool,
    /// Reassembles the owner's response.
    parser: HttpParser,
    /// Open "peer_fetch" span.
    span: SpanId,
}

/// One deadline covers a whole hop (connect + response): a crashed or
/// wedged owner must cost one bounded wait, then the fallback goes
/// upstream.
const HOP_DEADLINE: SimDuration = CONNECT_TIMEOUT.saturating_mul(2);

pub(super) struct Peer {
    /// `None` = the paper's single-proxy deployment: nothing ever hops.
    fleet: Option<FleetMember>,
    hops: BTreeMap<TcpHandle, Hop>,
}

impl Peer {
    pub fn new() -> Self {
        Peer { fleet: None, hops: BTreeMap::new() }
    }

    pub fn join_fleet(&mut self, member: FleetMember) {
        self.fleet = Some(member);
    }

    pub fn owns(&self, h: TcpHandle) -> bool {
        self.hops.contains_key(&h)
    }

    pub fn occupancy(&self) -> [(&'static str, usize); 1] {
        [("peer hops", self.hops.len())]
    }

    fn shard(&self) -> Option<usize> {
        self.fleet.as_ref().map(|f| f.self_idx)
    }

    /// The peer shard owning `key` right now, or `None` when the hop
    /// should not happen: no fleet, a one-member fleet, or this shard
    /// owns the key itself (possibly by inheritance from a dead peer).
    pub fn owner_of(&self, key: &CacheKey, now: SimTime) -> Option<usize> {
        let f = self.fleet.as_ref()?;
        if f.handle.len() < 2 {
            return None;
        }
        let owner = f.owner_for(key, now);
        (owner != f.self_idx).then_some(owner)
    }

    /// Launches the hop for `miss`: one absolute-form GET to the key's
    /// owner shard, marked with the loop-guard header and carrying *our*
    /// stored validator (the owner's `304` renews our entry).
    pub fn start(&mut self, miss: Miss, io: &mut impl Io) {
        let owner = miss.owner;
        let now = io.now();
        let f = self.fleet.as_ref().expect("owner_of found a fleet");
        let (self_idx, addr) = (f.self_idx, f.handle.member_addr(owner));
        let key = &miss.key;
        trace::event(now, Level::Debug, "fleet", "peer_fetch", |f| {
            f.field("shard", self_idx)
                .field("owner", Quoted(owner as u64))
                .field("host", &key.0)
                .field("path", &key.1);
        });
        let span = trace::span(now, "fleet", "peer_fetch", miss.tctx, |f| {
            f.field("owner", owner);
        });
        let hop = if miss.port == 80 {
            HttpRequest::new("GET", format_args!("http://{}{}", key.0, key.1))
        } else {
            HttpRequest::new("GET", format_args!("http://{}:{}{}", key.0, miss.port, key.1))
        };
        let mut hop = hop
            .header("Host", &key.0)
            .header_fmt(FLEET_HEADER, self_idx)
            .header_fmt(sc_obs::TRACE_HEADER, miss.tctx.with_parent(span));
        if let Some(etag) = &miss.stored_etag {
            hop = hop.header("If-None-Match", etag);
        }
        let h = io.tcp_connect(addr);
        self.hops.insert(
            h,
            Hop {
                leader: miss.leader,
                owner,
                wire: hop.into_wire(),
                connected: false,
                done: false,
                parser: HttpParser::new(),
                span,
            },
        );
        io.set_timer(HOP_DEADLINE, Timer::PeerDeadline(h).token());
    }

    pub fn on_event(&mut self, h: TcpHandle, ev: TcpEvent, io: &mut impl Io) -> Step {
        let Some(hop) = self.hops.get_mut(&h) else { return Step::Done };
        match ev {
            TcpEvent::Connected => {
                hop.connected = true;
                io.tcp_send_bytes(h, std::mem::take(&mut hop.wire));
                Step::Done
            }
            TcpEvent::DataReceived => {
                let data = io.tcp_recv_all(h);
                if hop.done {
                    return Step::Done;
                }
                match hop.parser.push_bytes(data) {
                    Err(_) => {
                        io.tcp_abort(h);
                        self.failed(h, "bad_peer_response", io)
                    }
                    Ok(msgs) => match first_response(msgs) {
                        Some(resp) => self.answered(h, resp, io),
                        None => Step::Done,
                    },
                }
            }
            TcpEvent::ConnectFailed | TcpEvent::Reset | TcpEvent::PeerClosed => {
                if hop.done {
                    // Settled hop: just drain the close handshake.
                    self.hops.remove(&h);
                    return Step::Done;
                }
                let reason = match ev {
                    TcpEvent::ConnectFailed => "peer_connect_failed",
                    TcpEvent::Reset => "peer_reset",
                    _ => "peer_closed",
                };
                self.failed(h, reason, io)
            }
            _ => Step::Done,
        }
    }

    /// The whole-hop deadline fired.
    pub fn deadline(&mut self, h: TcpHandle, io: &mut impl Io) -> Step {
        let Some(hop) = self.hops.get(&h).filter(|hop| !hop.done) else {
            return Step::Done;
        };
        let reason =
            if hop.connected { "peer_response_timeout" } else { "peer_connect_timeout" };
        io.tcp_abort(h);
        self.failed(h, reason, io)
    }

    /// The owner shard answered. A `200`/`304` settles exactly like an
    /// upstream response (the `200` body is stored locally too — a
    /// deliberate hot-key replica, so repeat traffic at this shard stops
    /// paying the hop); no admission slot was held, so nothing is
    /// released. Anything else means the owner is alive but refusing
    /// (shedding under fleet pressure): not a liveness failure — no
    /// dead-mark, fall back upstream.
    fn answered(&mut self, h: TcpHandle, resp: HttpResponse, io: &mut impl Io) -> Step {
        let now = io.now();
        let shard = self.shard();
        let hop = self.hops.get_mut(&h).expect("caller checked");
        hop.done = true;
        let (leader, owner) = (hop.leader, hop.owner);
        let ok = resp.status == 200 || resp.status == 304;
        io.tcp_close(h);
        trace::end(now, &mut hop.span, |f| {
            f.field("ok", ok).field("status", resp.status);
        });
        if !ok {
            trace::event(now, Level::Info, "fleet", "peer_refused", |f| {
                trace::sharded(f, shard)
                    .field("owner", Quoted(owner as u64))
                    .field("status", Quoted(resp.status.into()));
            });
            return Step::FallBack { leader };
        }
        if self.fleet.as_mut().is_some_and(|f| f.mark_peer_up(owner)) {
            trace::event(now, Level::Info, "fleet", "peer_up", |f| {
                trace::sharded(f, shard).field("peer", Quoted(owner as u64));
            });
        }
        Step::Settle { leader, resp }
    }

    /// The hop died (connect failure, deadline, reset): dead-mark the
    /// owner with exponential re-probe backoff — misses on its keyspace
    /// re-route to each key's next-highest scorer until the backoff
    /// elapses — and fall back upstream for this request.
    fn failed(&mut self, h: TcpHandle, reason: &'static str, io: &mut impl Io) -> Step {
        let Some(mut hop) = self.hops.remove(&h).filter(|hop| !hop.done) else {
            return Step::Done;
        };
        let now = io.now();
        trace::end(now, &mut hop.span, |f| {
            f.field("ok", false).field("reason", reason);
        });
        let backoff = self.fleet.as_mut().map(|f| f.mark_peer_dead(hop.owner, now));
        trace::event(now, Level::Warn, "fleet", "peer_dead", |f| {
            trace::sharded(f, self.shard())
                .field("peer", Quoted(hop.owner as u64))
                .field("reason", reason)
                .field("backoff_us", Quoted(backoff.map_or(0, |b| b.as_micros())));
        });
        Step::FallBack { leader: hop.leader }
    }
}
