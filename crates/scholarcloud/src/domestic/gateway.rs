//! Stage 2 — gateway: plain-HTTP requests answered from the shared
//! content cache, a coalesced in-flight fetch, or upstream.
//!
//! Unlike CONNECT tunnels, these requests expose their HTTP semantics —
//! the only place caching can apply. The proxy terminates HTTP on a
//! gateway connection (one request at a time, keep-alive across
//! requests). What the cache decides — hit, wait or lead, which
//! validator goes upstream, how each requester is answered — is
//! `sc_cache::CachePolicy`'s; the stage parses targets, rewrites the
//! upstream request, owns the in-flight fetches and the waiters' spans,
//! and records it all in the trace. A fetch that must leave the proxy
//! goes back to the driver as a request for admission or a [`Miss`] for
//! the peer stage.

use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use sc_cache::{Answer, CacheKey, CachePolicy, Lead, Plan, Upstream};
use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse, Messages};
use sc_netproto::socks::MAX_DOMAIN_LEN;
use sc_obs::{Fields, Level, Quoted, SpanId, TraceCtx};
use sc_simnet::addr::Addr;
use sc_simnet::api::{Io, TcpHandle};
use sc_simnet::time::SimTime;

use super::admit::{stream_header, trace_ctx_of, Request};
use super::trace;
use super::{Step, FLEET_HEADER};
use crate::config::ScConfig;

/// An in-flight fetch on behalf of a gateway requester, keyed by that
/// leader's browser handle. The upstream leg runs through the normal
/// admission + establish machinery (or one intra-fleet hop); the
/// response is reassembled here instead of being piped through.
struct Fetch {
    /// The leader's fairness key (a replayed fetch is re-admitted).
    client: Addr,
    /// `(host, path)` — the shared cache's key.
    key: CacheKey,
    /// Origin port of the upstream leg.
    port: u16,
    /// Origin-form request (replayed if the flight's leadership moves
    /// or a peering hop falls back upstream).
    request: HttpRequest,
    /// The leader's trace context: the upstream leg's spans parent into
    /// it.
    tctx: TraceCtx,
    /// Reassembles the upstream response stream.
    parser: HttpParser,
}

/// A requester parked on another leader's in-flight fetch.
struct Wait {
    key: CacheKey,
    /// Open "coalesce_wait" span.
    span: SpanId,
    /// The waiter's own identity, used if it is promoted to leader.
    tctx: TraceCtx,
    client: Addr,
}

/// A leader's cacheable miss on a key another shard owns: what the
/// peer stage needs to fetch it from there. (The fetch itself is already
/// registered under the leader, so waiters coalesce locally too and a
/// failed hop can fall back upstream.)
pub(super) struct Miss {
    pub leader: TcpHandle,
    /// The shard that owns `key`.
    pub owner: usize,
    pub key: CacheKey,
    pub port: u16,
    /// The validator of our stale entry, if we hold one.
    pub stored_etag: Option<String>,
    pub tctx: TraceCtx,
}

/// What an upstream stream's bytes amounted to.
pub(super) enum Parsed {
    /// No fetch of this browser's is waiting for them: here they are
    /// back.
    NotMine(Bytes),
    /// Not a whole response yet.
    More,
    /// Not HTTP.
    Garbled,
    /// The response is complete.
    Response(HttpResponse),
}

pub(super) struct Gateway {
    cfg: Rc<ScConfig>,
    /// This proxy's fleet shard, for event attribution.
    shard: Option<usize>,
    fetches: BTreeMap<TcpHandle, Fetch>,
    /// The shared cache's decisions for this proxy's requesters.
    policy: CachePolicy<TcpHandle>,
    waits: BTreeMap<TcpHandle, Wait>,
}

impl Gateway {
    pub fn new(cfg: Rc<ScConfig>) -> Self {
        Gateway {
            cfg,
            shard: None,
            fetches: BTreeMap::new(),
            policy: CachePolicy::default(),
            waits: BTreeMap::new(),
        }
    }

    pub fn join_fleet(&mut self, self_idx: usize) {
        self.shard = Some(self_idx);
    }

    /// `(table, entries)` for the conservation checks.
    pub fn occupancy(&self) -> [(&'static str, usize); 3] {
        [
            ("gateway fetches", self.fetches.len()),
            ("gateway waiters", self.waits.len()),
            ("gateway flights", self.policy.in_flight()),
        ]
    }

    fn cache_event(&self, now: SimTime, name: &'static str, key: &CacheKey) {
        trace::event(now, Level::Debug, "cache", name, |f| {
            trace::sharded(f.field("host", &key.0).field("path", &key.1), self.shard);
        });
    }

    /// One parsed request on a gateway-mode browser conn: resolve the
    /// target (absolute-form, or origin-form via the Host header — the
    /// browser's RTT probes arrive that way), enforce the whitelist, and
    /// serve from the shared cache, an in-flight coalesced fetch, the
    /// shard `owner_of` says owns the key, or upstream.
    pub fn request(
        &mut self,
        browser: TcpHandle,
        client: Addr,
        req: HttpRequest,
        owner_of: impl Fn(&CacheKey, SimTime) -> Option<usize>,
        io: &mut impl Io,
    ) -> Step {
        let Some((host, port, path)) = split_target(&req) else {
            io.tcp_send_bytes(browser, HttpResponse::new(400, Vec::new()).into_wire());
            return Step::Done;
        };
        if !self.cfg.whitelisted(host) {
            return Step::RefuseHost { browser, host: host.to_string() };
        }
        let now = io.now();
        let tctx = trace_ctx_of(&req);
        let key: CacheKey = (host.to_string(), path.to_string());
        // An intra-fleet peering hop announces itself with the
        // loop-guard header: the owner answers locally (cache,
        // coalesced flight, or its own upstream fetch) and never
        // re-forwards.
        let peer_hop = req.header_value(FLEET_HEADER).and_then(|v| v.parse::<usize>().ok());
        if let Some(from) = peer_hop {
            trace::event(now, Level::Debug, "fleet", "peer_serve", |f| {
                trace::sharded(f, self.shard).field("from", Quoted(from as u64)).field("path", &key.1);
            });
        }
        if req.method() != "GET" || !self.cfg.cache.borrow().enabled() {
            // Non-GET (the HEAD RTT probe) or cache disabled: a plain
            // uncoalesced pass-through fetch.
            let request = upstream_request(req, &key.1, false, None);
            return self.go_upstream(browser, Fetch { client, key, port, request, tctx, parser: HttpParser::new() });
        }
        let plan = {
            let _prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Cache);
            let owner = peer_hop.is_none().then_some(|| owner_of(&key, now));
            let validator = req.header_value("If-None-Match");
            let mut cache = self.cfg.cache.borrow_mut();
            // A hit's answer is built from the entry where it lies.
            self.policy.request(&mut cache, &key, browser, validator, owner, now).map_hit(answer)
        };
        // An instant "cache_lookup" span records the verdict in the
        // trace tree (and marks the request as having reached the cache
        // tier even when it never goes upstream).
        let mut lookup_span = trace::span(now, "cache", "cache_lookup", tctx, |f| {
            f.field("verdict", plan.verdict());
        });
        trace::end(now, &mut lookup_span, |_| {});
        match plan {
            Plan::Hit(resp) => {
                self.cache_event(now, "hit", &key);
                io.tcp_send_bytes(browser, resp.into_wire());
                Step::Done
            }
            Plan::Wait { .. } => {
                // No admission slot, no tunnel: park on the leader's
                // in-flight fetch.
                let span = trace::span(now, "cache", "coalesce_wait", tctx, |f| {
                    f.field("path", &key.1);
                });
                self.cache_event(now, "coalesced", &key);
                self.waits.insert(browser, Wait { key, span, tctx, client });
                Step::Done
            }
            Plan::Lead(Lead { validator, owner: Some(owner), .. }) => {
                // A non-owner's miss takes one intra-fleet hop to the
                // key's owner (whose singleflight coalesces the whole
                // fleet's demand) instead of a cross-border fetch.
                let request = upstream_request(req, &key.1, true, None);
                let hop = Miss { leader: browser, owner, key: key.clone(), port, stored_etag: validator, tctx };
                self.fetches.insert(browser, Fetch { client, key, port, request, tctx, parser: HttpParser::new() });
                Step::Hop(hop)
            }
            Plan::Lead(lead) => {
                if lead.missed {
                    self.cache_event(now, "miss", &key);
                }
                let request = upstream_request(req, &key.1, true, lead.validator.as_deref());
                self.go_upstream(browser, Fetch { client, key, port, request, tctx, parser: HttpParser::new() })
            }
        }
    }

    /// Replays a failed hop's request through the normal upstream
    /// machinery, with the validator the cache holds now if the fetch
    /// revalidates. One hop max: even if another peer now owns the key,
    /// the fallback goes straight upstream — bounded worst-case latency
    /// per request, by construction. (The browser may have vanished
    /// while the hop was in flight.)
    pub fn fall_back_upstream(&mut self, leader: TcpHandle, now: SimTime) -> Step {
        let Some(mut fetch) = self.fetches.remove(&leader) else { return Step::Done };
        let lead = self.policy.fall_back(&mut self.cfg.cache.borrow_mut(), &fetch.key, now);
        if lead.missed {
            self.cache_event(now, "miss", &fetch.key);
        }
        if let Some(etag) = &lead.validator {
            fetch.request = fetch.request.header("If-None-Match", etag);
        }
        self.go_upstream(leader, fetch)
    }

    /// Registers `fetch` under `browser` and builds its upstream leg's
    /// [`Request`] (one tunnel per fetch).
    fn go_upstream(&mut self, browser: TcpHandle, fetch: Fetch) -> Step {
        let req = Request {
            browser,
            client: fetch.client,
            header: stream_header(&fetch.key.0, fetch.port, false, fetch.tctx),
            // The replay buffer's own copy (of a head: a gateway fetch is
            // a GET or the probe's HEAD).
            initial_plain: fetch.request.encode(),
            is_connect: false,
            tctx: fetch.tctx,
        };
        self.fetches.insert(browser, fetch);
        Step::Admit(req)
    }

    /// Feeds an upstream stream's plaintext to `browser`'s fetch.
    pub fn upstream_data(&mut self, browser: TcpHandle, plain: Bytes) -> Parsed {
        let Some(fetch) = self.fetches.get_mut(&browser) else { return Parsed::NotMine(plain) };
        match fetch.parser.push_bytes(plain) {
            Err(_) => Parsed::Garbled,
            Ok(msgs) => first_response(msgs).map_or(Parsed::More, Parsed::Response),
        }
    }

    /// Settles `leader`'s completed fetch: the policy updates the cache,
    /// and the leader and every coalesced waiter are answered. Shared
    /// between the upstream path (which then releases its admission
    /// slot) and the intra-fleet peering path (which held none).
    /// `via_peer` bodies came from a peer's cache over the LAN.
    pub fn settle(&mut self, leader: TcpHandle, resp: HttpResponse, via_peer: bool, io: &mut impl Io) {
        let Some(fetch) = self.fetches.remove(&leader) else { return };
        let now = io.now();
        let settled = {
            let _prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Cache);
            let upstream = Upstream {
                status: resp.status,
                etag: resp.header_value("ETag"),
                max_age: resp.max_age_secs(),
                content_type: resp.header_value("Content-Type"),
                body: &resp.body,
            };
            self.policy.settle(&mut self.cfg.cache.borrow_mut(), &fetch.key, leader, upstream, via_peer, now)
        };
        if settled.renewed {
            self.cache_event(now, "revalidated", &fetch.key);
        }
        if settled.missed {
            self.cache_event(now, "miss", &fetch.key);
        }
        for victim in &settled.evicted {
            self.cache_event(now, "evicted", victim);
        }
        // With no entry to answer from (a pass-through fetch, an
        // uncacheable status) every requester gets the upstream answer.
        let passed = settled.entry.is_none().then(|| resp.into_wire());
        for (w, not_modified) in settled.answers {
            self.end_wait(w, now, |f| {
                f.field("ok", true);
            });
            let wire = settled.entry.as_ref().map(|entry| answer(Answer { entry, not_modified }).into_wire());
            io.tcp_send_bytes(w, wire.or_else(|| passed.clone()).expect("an entry or the upstream answer"));
        }
    }

    fn end_wait(&mut self, waiter: TcpHandle, now: SimTime, fields: impl FnOnce(&mut Fields<'_>)) {
        if let Some(mut wait) = self.waits.remove(&waiter) {
            trace::end(now, &mut wait.span, fields);
        }
    }

    /// A gateway leader's request failed (shed, retries exhausted, or
    /// upstream death): its coalesced waiters get the same answer —
    /// without this they would hang until their browsers time out.
    /// Returns the waiters whose connections were closed.
    pub fn fail_waiters(&mut self, leader: TcpHandle, code: u16, io: &mut impl Io) -> Vec<TcpHandle> {
        let Some(fetch) = self.fetches.remove(&leader) else { return Vec::new() };
        let waiters = self.policy.fail(&fetch.key, leader);
        if waiters.is_empty() {
            return waiters;
        }
        let wire = HttpResponse::new(code, Vec::new()).into_wire();
        for &w in &waiters {
            self.end_wait(w, io.now(), |f| {
                f.field("ok", false).field("code", code);
            });
            io.tcp_send_bytes(w, wire.clone());
            io.tcp_close(w);
        }
        waiters
    }

    /// A gateway browser conn went away: drop it from any coalesced
    /// flight. A departing waiter is simply removed; a departing leader
    /// hands the fetch to its first waiter, whose replayed request —
    /// returned here — goes back through admission under the waiter's
    /// own slot and trace context.
    pub fn browser_gone(&mut self, browser: TcpHandle, now: SimTime) -> Step {
        if let Some(mut wait) = self.waits.remove(&browser) {
            trace::end(now, &mut wait.span, |f| {
                f.field("ok", false);
            });
            self.policy.leave(&mut self.cfg.cache.borrow_mut(), &wait.key, browser, now);
            return Step::Done;
        }
        let Some(fetch) = self.fetches.remove(&browser) else { return Step::Done };
        let promoted = self.policy.leave(&mut self.cfg.cache.borrow_mut(), &fetch.key, browser, now);
        let Some(promoted) = promoted else { return Step::Done };
        // The dead leader's attempt is torn down by the caller; the
        // promoted waiter restarts the fetch. Its coalesce wait ends
        // here.
        let (tctx, client) = match self.waits.remove(&promoted) {
            Some(mut wait) => {
                trace::end(now, &mut wait.span, |f| {
                    f.field("promoted", true);
                });
                (wait.tctx, wait.client)
            }
            None => (TraceCtx::NONE, fetch.client),
        };
        self.go_upstream(promoted, Fetch { client, tctx, parser: HttpParser::new(), ..fetch })
    }
}

/// A cache answer as HTTP: a bodyless `304`, or the full entry with its
/// body — shared, not copied. Validators and freshness are forwarded so
/// browser caches layer on top.
fn answer(Answer { entry, not_modified }: Answer<'_>) -> HttpResponse {
    let mut resp = if not_modified {
        HttpResponse::new(304, Vec::new())
    } else {
        HttpResponse::new(entry.status, entry.body.clone()).header("Content-Type", &entry.content_type)
    };
    if !entry.etag.is_empty() {
        resp = resp.header("ETag", &entry.etag);
    }
    if let Some(max_age) = entry.max_age {
        resp = resp.header_fmt("Cache-Control", format_args!("public, max-age={max_age}"));
    }
    resp
}

/// The upstream leg's request for `path`: origin-form, and never saying
/// it is a hop. A `cached` fetch also leaves the client's validator
/// behind: the client is answered from the cache, and the shared cache
/// needs the full body for its other readers, so only `ours` — the
/// store's own validator — may go upstream.
fn upstream_request(req: HttpRequest, path: &str, cached: bool, ours: Option<&str>) -> HttpRequest {
    let mut request = HttpRequest::new(req.method(), path);
    for (name, value) in req.headers() {
        let dropped = name.eq_ignore_ascii_case(FLEET_HEADER)
            || (cached && name.eq_ignore_ascii_case("If-None-Match"));
        if !dropped {
            request = request.header(name, value);
        }
    }
    if let Some(etag) = ours {
        request = request.header("If-None-Match", etag);
    }
    request.body = req.body;
    request
}

/// The first complete response among freshly parsed messages.
pub(super) fn first_response(msgs: Messages) -> Option<HttpResponse> {
    msgs.into_iter().find_map(|m| match m {
        HttpMessage::Response(r) => Some(r),
        _ => None,
    })
}

/// `(host, port, path)` of a gateway request: absolute-form, or
/// origin-form with a Host header. `None` for anything else: a port
/// that is not a `u16`, or a host longer than a stream header can carry.
fn split_target(req: &HttpRequest) -> Option<(&str, u16, &str)> {
    let (host, port, path) = if let Some(rest) = req.target().strip_prefix("http://") {
        let (hostport, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        match hostport.rsplit_once(':') {
            Some((h, p)) => (h, p.parse().ok()?, path),
            None => (hostport, 80, path),
        }
    } else if req.target().starts_with('/') {
        (req.host()?, 80, req.target())
    } else {
        return None;
    };
    (host.len() <= MAX_DOMAIN_LEN).then_some((host, port, path))
}
