//! Stage 2 — gateway: plain-HTTP requests answered from the shared
//! content cache, a coalesced in-flight fetch, or upstream.
//!
//! Unlike CONNECT tunnels, these requests expose their HTTP semantics —
//! the only place caching can apply. The proxy terminates HTTP on a
//! gateway connection (one request at a time, keep-alive across
//! requests). The stage owns the in-flight fetches, the singleflight
//! table with its parked waiters, and the requesters' validators; a
//! fetch that must leave the proxy goes back to the driver as a request
//! for admission or a [`Miss`] for the peer stage.

use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use sc_cache::{CacheKey, CachedResponse, Lookup, Role, Singleflight, StoredResponse};
use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse, Messages};
use sc_netproto::socks::MAX_DOMAIN_LEN;
use sc_obs::{Fields, Level, Quoted, SpanId, TraceCtx};
use sc_simnet::addr::Addr;
use sc_simnet::api::TcpHandle;
use sc_simnet::time::SimTime;

use super::admit::{stream_header, trace_ctx_of, Request};
use super::io::Io;
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
    /// Store a `200` under `key` and fan it out to coalesced waiters.
    cacheable: bool,
    /// Carries our stored validator: an upstream `304` renews the entry.
    revalidating: bool,
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
    /// Coalescing table for cacheable fetches.
    flights: Singleflight<TcpHandle>,
    waits: BTreeMap<TcpHandle, Wait>,
    /// `If-None-Match` validators sent by requesters, consulted when
    /// answering from the cache (matching validator → bodyless 304).
    inm: BTreeMap<TcpHandle, String>,
}

impl Gateway {
    pub fn new(cfg: Rc<ScConfig>) -> Self {
        Gateway {
            cfg,
            shard: None,
            fetches: BTreeMap::new(),
            flights: Singleflight::new(),
            waits: BTreeMap::new(),
            inm: BTreeMap::new(),
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
            ("gateway flights", self.flights.len()),
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
            io.send(browser, HttpResponse::new(400, Vec::new()).into_wire());
            return Step::Done;
        };
        if !self.cfg.whitelisted(host) {
            return Step::RefuseHost { browser, host: host.to_string() };
        }
        let now = io.now();
        let tctx = trace_ctx_of(&req);
        let key: CacheKey = (host.to_string(), path.to_string());
        match req.header_value("If-None-Match") {
            Some(inm) => {
                self.inm.insert(browser, inm.to_string());
            }
            None => {
                self.inm.remove(&browser);
            }
        }
        let cacheable = req.method() == "GET" && self.cfg.cache.borrow().enabled();
        // An intra-fleet peering hop announces itself with the
        // loop-guard header: the owner answers locally (cache,
        // coalesced flight, or its own upstream fetch) and never
        // re-forwards.
        let peer_hop = req.header_value(FLEET_HEADER).and_then(|v| v.parse::<usize>().ok());
        if let Some(from) = peer_hop {
            self.cfg.cache.borrow_mut().note_peer_serve();
            trace::count(now, "scholarcloud.peer_serves", 1);
            trace::event(now, Level::Debug, "fleet", "peer_serve", |f| {
                trace::sharded(f, self.shard).field("from", Quoted(from as u64)).field("path", &key.1);
            });
        }

        // Upstream leg is origin-form and never says it is a hop. A
        // cacheable fetch also leaves the client's validator behind: it
        // is answered from the cache, not forwarded — the shared cache
        // needs the full body for its other readers, so only *its own*
        // validator may go upstream.
        let mut request = HttpRequest::new(req.method(), &key.1);
        for (name, value) in req.headers() {
            let dropped = name.eq_ignore_ascii_case(FLEET_HEADER)
                || (cacheable && name.eq_ignore_ascii_case("If-None-Match"));
            if !dropped {
                request = request.header(name, value);
            }
        }
        request.body = req.body;

        if !cacheable {
            // Non-GET (the HEAD RTT probe) or cache disabled: a plain
            // uncoalesced pass-through fetch.
            let fetch = Fetch::new(client, key, port, request, false, false);
            return self.go_upstream(browser, fetch, tctx, false, now);
        }

        enum Plan {
            /// The answer, built from the entry where it lies, and the
            /// length of the body it shares with it.
            Hit(HttpResponse, usize),
            Fetch { stored_etag: Option<String> },
        }
        let plan = {
            let _prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Cache);
            let mut cache = self.cfg.cache.borrow_mut();
            match cache.lookup(&key, now) {
                Lookup::Fresh(entry) => {
                    let (resp, len) = (answer_from(entry, self.inm.remove(&browser)), entry.body.len());
                    cache.note_hit(len);
                    Plan::Hit(resp, len)
                }
                Lookup::Stale(_) => Plan::Fetch {
                    stored_etag: cache.etag_of(&key).filter(|e| !e.is_empty()).map(str::to_string),
                },
                Lookup::Miss => Plan::Fetch { stored_etag: None },
            }
        };
        // An instant "cache_lookup" span records the verdict in the
        // trace tree (and marks the request as having reached the cache
        // tier even when it never goes upstream).
        let verdict = match &plan {
            Plan::Hit(..) => "hit",
            Plan::Fetch { stored_etag: Some(_) } => "stale",
            Plan::Fetch { stored_etag: None } => "miss",
        };
        let mut lookup_span =
            trace::span(now, "cache", "cache_lookup", tctx, |f| {
                f.field("verdict", verdict);
            });
        trace::end(now, &mut lookup_span, |_| {});
        match plan {
            Plan::Hit(resp, body_len) => {
                trace::count(now, "scholarcloud.cache_hits", 1);
                trace::count(now, "scholarcloud.cache_bytes_saved", body_len as u64);
                self.cache_event(now, "hit", &key);
                io.send(browser, resp.into_wire());
                Step::Done
            }
            Plan::Fetch { stored_etag } => match self.flights.begin(&key, browser) {
                Role::Waiter => {
                    // No admission slot, no tunnel: park on the leader's
                    // in-flight fetch.
                    let span = trace::span(now, "cache", "coalesce_wait", tctx, |f| {
                        f.field("path", &key.1);
                    });
                    self.cfg.cache.borrow_mut().note_coalesced();
                    trace::count(now, "scholarcloud.cache_coalesced", 1);
                    self.cache_event(now, "coalesced", &key);
                    self.waits.insert(browser, Wait { key, span, tctx, client });
                    Step::Done
                }
                Role::Leader => {
                    let revalidating = stored_etag.is_some();
                    // A non-owner's miss takes one intra-fleet hop to
                    // the key's owner (whose singleflight coalesces the
                    // whole fleet's demand) instead of a cross-border
                    // fetch — unless it already IS such a hop.
                    let owner = if peer_hop.is_none() { owner_of(&key, now) } else { None };
                    if let Some(owner) = owner {
                        self.cfg.cache.borrow_mut().note_peer_fetch();
                        let hop = key.clone();
                        let fetch = Fetch::new(client, key, port, request, true, revalidating);
                        self.fetches.insert(browser, fetch);
                        return Step::Hop(Miss {
                            leader: browser,
                            owner,
                            key: hop,
                            port,
                            stored_etag,
                            tctx,
                        });
                    }
                    // Only *our* stored validator rides upstream.
                    if let Some(etag) = &stored_etag {
                        request = request.header("If-None-Match", etag);
                    }
                    let fetch = Fetch::new(client, key, port, request, true, revalidating);
                    self.go_upstream(browser, fetch, tctx, false, now)
                }
            },
        }
    }

    /// Replays a failed hop's request through the normal upstream
    /// machinery. One hop max: even if another peer now owns the key,
    /// the fallback goes straight upstream — bounded worst-case latency
    /// per request, by construction. (The browser may have vanished
    /// while the hop was in flight.)
    pub fn fall_back_upstream(
        &mut self,
        leader: TcpHandle,
        tctx: TraceCtx,
        now: SimTime,
    ) -> Step {
        let Some(mut fetch) = self.fetches.remove(&leader) else { return Step::Done };
        if fetch.revalidating {
            let cache = self.cfg.cache.borrow();
            if let Some(etag) = cache.etag_of(&fetch.key).filter(|e| !e.is_empty()) {
                fetch.request = fetch.request.header("If-None-Match", etag);
            }
        }
        self.go_upstream(leader, fetch, tctx, false, now)
    }

    /// Registers `fetch` under `browser` and builds its upstream leg's
    /// [`Request`] (one tunnel per fetch). A `replay` re-runs a fetch
    /// the stats already counted as a miss.
    fn go_upstream(
        &mut self,
        browser: TcpHandle,
        fetch: Fetch,
        tctx: TraceCtx,
        replay: bool,
        now: SimTime,
    ) -> Step {
        if fetch.cacheable {
            self.cfg.cache.borrow_mut().note_upstream_fetch(&fetch.key, now);
            if !fetch.revalidating && !replay {
                self.cfg.cache.borrow_mut().note_miss();
                trace::count(now, "scholarcloud.cache_misses", 1);
                self.cache_event(now, "miss", &fetch.key);
            }
        }
        let req = Request {
            browser,
            client: fetch.client,
            header: stream_header(&fetch.key.0, fetch.port, false, tctx),
            // The replay buffer's own copy (of a head: a gateway fetch is
            // a GET or the probe's HEAD).
            initial_plain: fetch.request.encode(),
            is_connect: false,
            tctx,
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

    /// Settles `leader`'s completed fetch: update the cache, answer the
    /// leader and every coalesced waiter. Shared between the upstream
    /// path (which then releases its admission slot) and the intra-fleet
    /// peering path (which held none). `via_peer` bodies came from a
    /// peer's cache over the LAN, so a changed representation there is
    /// not a local miss.
    pub fn settle(
        &mut self,
        leader: TcpHandle,
        resp: HttpResponse,
        via_peer: bool,
        io: &mut impl Io,
    ) {
        let Some(fetch) = self.fetches.remove(&leader) else { return };
        let now = io.now();
        // A pass-through fetch was never coalesced.
        let flight = if fetch.cacheable { self.flights.complete(&fetch.key) } else { None };
        let cache_prof = sc_obs::prof::scope(sc_obs::prof::Subsystem::Cache);
        let served: Option<StoredResponse> = if !fetch.cacheable {
            None
        } else if resp.status == 304 && fetch.revalidating {
            // Our validator held: a cheap bodyless exchange renewed the
            // entry for everyone.
            let renewed = {
                let mut cache = self.cfg.cache.borrow_mut();
                let ttl = cache.ttl_for(&fetch.key.0, resp.max_age_secs());
                cache.revalidate(&fetch.key, ttl, now, resp.header_value("ETag")).cloned()
            };
            if let Some(r) = &renewed {
                self.cfg.cache.borrow_mut().note_bytes_saved(r.body.len());
                trace::count(now, "scholarcloud.cache_revalidated", 1);
                trace::count(now, "scholarcloud.cache_bytes_saved", r.body.len() as u64);
                self.cache_event(now, "revalidated", &fetch.key);
            }
            renewed
        } else if resp.status == 200 {
            // The entry shares the response's body, and so will every
            // answer built from it.
            let entry = CachedResponse {
                status: 200,
                content_type: resp
                    .header_value("Content-Type")
                    .unwrap_or("application/octet-stream")
                    .to_string(),
                etag: resp.header_value("ETag").unwrap_or_default().to_string(),
                max_age: resp.max_age_secs(),
                body: resp.body.clone(),
            };
            // The representation changed upstream: the stale entry did
            // not help after all. (The store emits nothing, so the miss
            // is told before the key moves into it.)
            let changed = fetch.revalidating && !via_peer;
            if changed {
                self.cfg.cache.borrow_mut().note_miss();
                trace::count(now, "scholarcloud.cache_misses", 1);
                self.cache_event(now, "miss", &fetch.key);
            }
            let evicted = {
                let mut cache = self.cfg.cache.borrow_mut();
                let ttl = cache.ttl_for(&fetch.key.0, entry.max_age);
                cache.insert(fetch.key, entry.clone(), ttl, now).evicted
            };
            for victim in &evicted {
                trace::count(now, "scholarcloud.cache_evicted", 1);
                self.cache_event(now, "evicted", victim);
            }
            Some(entry)
        } else {
            None
        };
        drop(cache_prof);
        let waiters = flight.map_or(Vec::new(), |f| f.waiters);
        match served {
            Some(entry) => {
                self.serve_from_cache(leader, &entry, io);
                for w in waiters {
                    self.end_wait(w, now, |f| {
                        f.field("ok", true);
                    });
                    self.cfg.cache.borrow_mut().note_bytes_saved(entry.body.len());
                    trace::count(now, "scholarcloud.cache_bytes_saved", entry.body.len() as u64);
                    self.serve_from_cache(w, &entry, io);
                }
            }
            None => {
                // Pass-through (non-GET, cache off, or an uncacheable
                // status): every coalesced requester gets the same
                // answer.
                let wire = resp.into_wire();
                io.send(leader, wire.clone());
                for w in waiters {
                    self.end_wait(w, now, |f| {
                        f.field("ok", true);
                    });
                    io.send(w, wire.clone());
                }
            }
        }
    }

    fn end_wait(&mut self, waiter: TcpHandle, now: SimTime, fields: impl FnOnce(&mut Fields<'_>)) {
        if let Some(mut wait) = self.waits.remove(&waiter) {
            trace::end(now, &mut wait.span, fields);
        }
    }

    /// Answers a gateway requester from a cache entry: `304` when its own
    /// validator still matches, the full `200` otherwise. Validators and
    /// freshness are forwarded so browser caches layer on top.
    fn serve_from_cache(&mut self, browser: TcpHandle, entry: &StoredResponse, io: &mut impl Io) {
        let inm = self.inm.remove(&browser);
        io.send(browser, answer_from(entry, inm).into_wire());
    }

    /// A gateway leader's request failed (shed, retries exhausted, or
    /// upstream death): its coalesced waiters get the same answer —
    /// without this they would hang until their browsers time out.
    /// Returns the waiters whose connections were closed.
    pub fn fail_waiters(
        &mut self,
        leader: TcpHandle,
        code: u16,
        io: &mut impl Io,
    ) -> Vec<TcpHandle> {
        let Some(fetch) = self.fetches.remove(&leader) else { return Vec::new() };
        self.inm.remove(&leader);
        if !fetch.cacheable {
            return Vec::new();
        }
        let Some(flight) = self.flights.complete(&fetch.key) else { return Vec::new() };
        let wire = HttpResponse::new(code, Vec::new()).into_wire();
        for &w in &flight.waiters {
            self.end_wait(w, io.now(), |f| {
                f.field("ok", false).field("code", code);
            });
            self.inm.remove(&w);
            io.send(w, wire.clone());
            io.close(w);
        }
        flight.waiters
    }

    /// A gateway browser conn went away: drop it from any coalesced
    /// flight. A departing waiter is simply removed; a departing leader
    /// hands the fetch to its first waiter, whose replayed request —
    /// returned here — goes back through admission under the waiter's
    /// own slot and trace context.
    pub fn browser_gone(&mut self, browser: TcpHandle, now: SimTime) -> Step {
        self.inm.remove(&browser);
        if let Some(mut wait) = self.waits.remove(&browser) {
            trace::end(now, &mut wait.span, |f| {
                f.field("ok", false);
            });
            self.flights.forget(&wait.key, browser);
            return Step::Done;
        }
        let Some(fetch) = self.fetches.remove(&browser).filter(|f| f.cacheable) else {
            return Step::Done;
        };
        let Some(promoted) = self.flights.forget(&fetch.key, browser) else { return Step::Done };
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
        let replayed = Fetch { client, parser: HttpParser::new(), ..fetch };
        self.go_upstream(promoted, replayed, tctx, true, now)
    }
}

/// The answer to a requester from a cache entry: `304` when the
/// validator it sent (`inm`) still matches, else the full `200` with the
/// entry's body — shared, not copied.
fn answer_from(entry: &StoredResponse, inm: Option<String>) -> HttpResponse {
    let not_modified = !entry.etag.is_empty() && inm.as_deref() == Some(entry.etag.as_str());
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

impl Fetch {
    fn new(
        client: Addr,
        key: CacheKey,
        port: u16,
        request: HttpRequest,
        cacheable: bool,
        revalidating: bool,
    ) -> Self {
        Fetch { client, key, port, request, cacheable, revalidating, parser: HttpParser::new() }
    }
}
