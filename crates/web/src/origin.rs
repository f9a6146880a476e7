//! The origin server: the Google Scholar model (Figure 4's session
//! structure).
//!
//! The Scholar server:
//! * on port 80 answers every request with an HTTPS redirect (TCP-2);
//! * on port 443 speaks the simulated TLS and serves the page and its
//!   subresources (TCP-3);
//! * the separate `accounts.google.com` host serves the first-visit
//!   account-recording request (TCP-4).

use std::borrow::Cow;
use std::collections::HashMap;

use bytes::Bytes;
use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse};
use sc_netproto::tls::TlsServer;
use sc_obs::prof::{self, Subsystem};
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::sim::Ctx;

use crate::page::PageSpec;

/// Service time of one request on the origin's single core (µs): a
/// 2.3 GHz single-core VM serving ~3000 simple requests/s. Requests queue
/// for the core, modelling the paper's VM saturating under concurrent
/// clients (Figure 7).
const SERVICE_US: u64 = 330;

struct Session {
    tls: Option<TlsServer>,
    http: HttpParser,
}

/// One representation the origin serves, rendered once: every response
/// carrying it shares `body`, and a conditional request is compared with
/// `etag` as it stands.
struct Document {
    path: String,
    content_type: &'static str,
    body: Bytes,
    etag: String,
}

/// An HTTPS (and redirecting HTTP) origin serving a [`PageSpec`].
pub struct OriginServer {
    host: String,
    /// The HTML at `/` (and, under its own validator, at `/scholar…`).
    html: Document,
    resources: Vec<Document>,
    /// Deterministic `Last-Modified` stamp derived from the page entropy
    /// (the sim has no wall clock; the value only needs to be stable).
    last_modified: String,
    entropy: u64,
    /// `max-age` (seconds) advertised on every cacheable response. Long
    /// by default so the paper scenarios' in-run cache behavior is
    /// unchanged; cache experiments shorten it to exercise
    /// revalidation.
    max_age: u64,
    /// Serve the page directly on port 80 instead of redirecting to
    /// HTTPS — the configuration the domestic proxy's shared cache sees
    /// (only absolute-form plain HTTP exposes HTTP semantics to it).
    serve_http: bool,
    sessions: HashMap<TcpHandle, Session>,
    /// Pending responses waiting out the service delay: token → (conn,
    /// wire chunks, origin span closed when the response leaves).
    pending: HashMap<u64, (TcpHandle, [Bytes; 2], sc_obs::SpanId)>,
    next_token: u64,
    /// Time at which the single service core frees up (µs).
    busy_until_us: u64,
}

impl OriginServer {
    /// Creates an origin for `host` serving `page`.
    pub fn new(host: &str, page: PageSpec, entropy: u64) -> Self {
        let document = |path: &str, content_type, body: Vec<u8>| Document {
            path: path.to_string(),
            content_type,
            etag: etag_for(entropy, host, path, body.len()),
            body: body.into(),
        };
        OriginServer {
            host: host.to_string(),
            html: document("/", "text/html", page.render_html()),
            resources: page
                .resources
                .iter()
                .map(|r| document(&r.path, "application/octet-stream", vec![b'x'; r.len]))
                .collect(),
            last_modified: format!(
                "Wed, 01 Mar 2017 {:02}:{:02}:{:02} GMT",
                entropy % 24,
                (entropy / 24) % 60,
                (entropy / 1440) % 60
            ),
            entropy,
            max_age: 86_400,
            serve_http: false,
            sessions: HashMap::new(),
            pending: HashMap::new(),
            next_token: 1,
            busy_until_us: 0,
        }
    }

    /// Overrides the advertised `max-age` (seconds).
    pub fn with_max_age(mut self, secs: u64) -> Self {
        self.max_age = secs;
        self
    }

    /// Serves the page on port 80 instead of redirecting to HTTPS.
    pub fn with_http_serving(mut self) -> Self {
        self.serve_http = true;
        self
    }

    fn with_validators(&self, resp: HttpResponse, etag: &str) -> HttpResponse {
        resp.header("ETag", etag)
            .header("Last-Modified", &self.last_modified)
            .header_fmt("Cache-Control", format_args!("public, max-age={}", self.max_age))
    }

    fn response_for(&mut self, req: &HttpRequest) -> HttpResponse {
        if req.method() == "HEAD" {
            return HttpResponse::new(204, Vec::new());
        }
        let target = req.target();
        let (doc, etag) = if target == "/" {
            (&self.html, Cow::Borrowed(self.html.etag.as_str()))
        } else if target.starts_with("/scholar") {
            // The same page under another name has that name's validator.
            (&self.html, Cow::Owned(etag_for(self.entropy, &self.host, target, self.html.body.len())))
        } else if let Some(doc) = self.resources.iter().find(|doc| doc.path == target) {
            (doc, Cow::Borrowed(doc.etag.as_str()))
        } else {
            return HttpResponse::new(404, Vec::new());
        };
        // A matching validator gets the cheap 304-style exchange: no
        // body, and a quarter of the service time (no rendering).
        if req.header_value("If-None-Match") == Some(&*etag) {
            return self.with_validators(HttpResponse::new(304, Vec::new()), &etag);
        }
        let full = HttpResponse::new(200, doc.body.clone()).header("Content-Type", doc.content_type);
        self.with_validators(full, &etag)
    }

    /// Queues `wire` for transmission once the service core has spent
    /// `cost_us` on it. The origin span stays open until the response is
    /// actually sent, so its duration covers queueing for the core too.
    fn respond(&mut self, h: TcpHandle, wire: [Bytes; 2], cost_us: u64, span: sc_obs::SpanId, ctx: &mut Ctx<'_>) {
        let now_us = ctx.now().as_micros();
        let start = self.busy_until_us.max(now_us);
        let done = start + cost_us;
        self.busy_until_us = done;
        let delay = sc_simnet::time::SimDuration::from_micros(done - now_us);
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, (h, wire, span));
        ctx.set_timer(delay, token);
    }
}

impl App for OriginServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(80);
        ctx.tcp_listen(443);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let _prof = prof::scope(Subsystem::Web);
        match ev {
            AppEvent::TimerFired(token) => {
                if let Some((h, wire, span)) = self.pending.remove(&token) {
                    ctx.tcp_send_bytes(h, wire);
                    sc_obs::span_end(ctx.now().as_micros(), span, |_| {});
                }
            }
            AppEvent::Tcp(h, TcpEvent::Accepted { .. }) => {
                let port = ctx.tcp_local(h).map(|l| l.port).unwrap_or(443);
                let tls = (port == 443).then(|| {
                    let _prof = prof::scope(Subsystem::Crypto);
                    TlsServer::new(self.entropy ^ h.0 as u64)
                });
                self.sessions.insert(h, Session { tls, http: HttpParser::new() });
            }
            AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                let data = ctx.tcp_recv_all(h);
                let Some(session) = self.sessions.get_mut(&h) else { return };
                // The stream's plaintext: what TLS opened, or the bytes
                // themselves on port 80.
                let plaintext = match session.tls.as_mut() {
                    Some(tls) => {
                        let out = {
                            let _prof = prof::scope(Subsystem::Crypto);
                            tls.on_bytes(&data)
                        };
                        let Ok(out) = out else {
                            ctx.tcp_abort(h);
                            self.sessions.remove(&h);
                            return;
                        };
                        if !out.wire.is_empty() {
                            ctx.tcp_send_bytes(h, out.wire);
                        }
                        out.plaintext
                    }
                    None => data,
                };
                let messages = session.http.push_bytes(plaintext).unwrap_or_default();
                let requests = messages.into_iter().filter_map(|m| match m {
                    HttpMessage::Request(r) => Some(r),
                    HttpMessage::Response(_) => None,
                });
                for req in requests {
                    let is_tls = session_is_tls(&self.sessions, h);
                    // Requests arriving with trace context get an origin
                    // span parented into the originating load's tree: it
                    // covers the modelled service (and core-queueing)
                    // time, the deepest tier of the waterfall.
                    let tctx = req
                        .header_value(sc_obs::TRACE_HEADER)
                        .and_then(sc_obs::TraceCtx::parse)
                        .unwrap_or(sc_obs::TraceCtx::NONE);
                    let span = sc_obs::span_start_ctx(
                        ctx.now().as_micros(),
                        sc_obs::Level::Debug,
                        "web",
                        "origin",
                        "origin",
                        tctx,
                        |f| {
                            f.field("path", req.target());
                        },
                    );
                    if !is_tls && !self.serve_http {
                        // Port 80: HTTPS redirect (Figure 4's TCP-2).
                        let resp = HttpResponse::new(301, Vec::new())
                            .header_fmt("Location", format_args!("https://{}{}", self.host, req.target()));
                        self.respond(h, resp.into_wire(), SERVICE_US, span, ctx);
                        continue;
                    }
                    let resp = self.response_for(&req);
                    // A 304 renders no body: a quarter of the service time.
                    let cost = if resp.status == 304 { SERVICE_US / 4 } else { SERVICE_US };
                    let wire = if is_tls {
                        let session = self.sessions.get_mut(&h).expect("session exists");
                        let tls = session.tls.as_mut().expect("tls session");
                        let (head, body) = resp.into_parts();
                        let _prof = prof::scope(Subsystem::Crypto);
                        [tls.send(&[&head, &body]), Bytes::new()]
                    } else {
                        resp.into_wire()
                    };
                    self.respond(h, wire, cost, span, ctx);
                }
            }
            AppEvent::Tcp(h, TcpEvent::PeerClosed | TcpEvent::Reset) => {
                self.sessions.remove(&h);
            }
            _ => {}
        }
    }
}

fn session_is_tls(sessions: &HashMap<TcpHandle, Session>, h: TcpHandle) -> bool {
    sessions.get(&h).is_some_and(|s| s.tls.is_some())
}

/// Deterministic validator for the representation of `host` at `path`: a
/// hash of the page entropy, the host, the path, and the body length, so
/// the same seeded run always produces the same ETag and a content
/// change (different entropy or length) changes it.
fn etag_for(entropy: u64, host: &str, path: &str, body_len: usize) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&entropy.to_le_bytes());
    eat(host.as_bytes());
    eat(path.as_bytes());
    eat(&(body_len as u64).to_le_bytes());
    format!("\"{h:016x}\"")
}
