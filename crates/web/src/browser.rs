//! The browser model: loads pages over any access method (direct, SOCKS
//! proxy, HTTP proxy, PAC policy), with a DNS cache and a content cache —
//! the two caches whose cold state makes first-time page loads slower
//! (§4.3), plus the first-visit account-recording connection (TCP-4).
//!
//! Page load time is measured exactly as in the paper's methodology: from
//! navigation start until every referenced resource has arrived; a page
//! is loaded once a minute so consecutive accesses do not overlap.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};
use sc_dns::message::MAX_NAME_LEN;
use sc_dns::stub::{ResolveOutcome, StubResolver};
use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse};
use sc_netproto::pac::PacFile;
use sc_netproto::socks::TargetAddr;
use sc_netproto::tls::TlsClient;
use sc_obs::prof::{self, Subsystem};
use sc_obs::{Quoted, SpanId, TraceCtx};
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{pack_token, unpack_token, App, AppEvent, Io, TcpEvent, TcpHandle};
use sc_simnet::hash::FixedMap;
use sc_simnet::time::{SimDuration, SimTime};

/// How the browser reaches the network.
#[derive(Debug, Clone)]
pub enum ProxyPolicy {
    /// Connect directly (also used under transparent VPN tunnels).
    Direct,
    /// All traffic through a local SOCKS5 proxy (Shadowsocks, Tor).
    Socks(SocketAddr),
    /// Route per PAC file (ScholarCloud).
    Pac(PacFile),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Direct,
    Socks(SocketAddr),
    HttpProxy(SocketAddr),
}

/// Poll interval while waiting for a tunnel to come up.
const WAIT_POLL: SimDuration = SimDuration::from_millis(50);
/// First re-probe delay after a PAC proxy is marked dead; doubles per
/// consecutive failure up to [`PROXY_DEAD_CAP`]. Mirrors the fleet
/// tier's own peer dead-marking so client and server views converge.
const PROXY_DEAD_BASE: SimDuration = SimDuration::from_millis(500);
/// Upper bound on the dead-proxy re-probe backoff.
const PROXY_DEAD_CAP: SimDuration = SimDuration::from_secs(8);
/// PAC failover retries per load: each dead-marks one proxy and
/// replays the page through the next candidate, so a whole small fleet
/// can be walked within one load's deadline.
const MAX_FAILOVER_RETRIES: u32 = 4;
/// Stub resolver retransmission interval.
const DNS_RETRY: SimDuration = SimDuration::from_secs(1);
/// Freshness lifetime assumed for responses that carry no `max-age`
/// (heuristic caching, like real browsers do for validator-only
/// responses).
const DEFAULT_CONTENT_TTL: SimDuration = SimDuration::from_secs(300);

/// Why a timer was armed. Timers cannot be cancelled, so whoever
/// handles a fired one re-checks that its subject still needs it. The
/// purpose and its subject travel in the token
/// ([`pack_token`]: the load index or the handle under a tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timer {
    /// Staggered-start (load-ramp) delay before the browser begins.
    Ramp,
    /// Poll of the readiness gate.
    Wait,
    /// Stub resolver retransmission.
    DnsRetry,
    /// The next load is due.
    NextLoad,
    /// Deadline of the load with this index.
    Deadline(usize),
    /// Backoff of the load with this index after the proxy throttled it
    /// (`429`/`503` + `Retry-After`).
    Throttle(usize),
    /// Connect deadline of a PAC proxy candidate.
    Connect(TcpHandle),
}

impl Timer {
    fn token(self) -> u64 {
        let (tag, value) = match self {
            Timer::Ramp => (0, 0),
            Timer::Wait => (1, 0),
            Timer::DnsRetry => (2, 0),
            Timer::NextLoad => (3, 0),
            Timer::Deadline(load) => (4, load),
            Timer::Throttle(load) => (5, load),
            Timer::Connect(h) => (6, h.0),
        };
        pack_token(tag, value)
    }

    fn from_token(token: u64) -> Option<Timer> {
        let (tag, value) = unpack_token(token);
        Some(match tag {
            0 => Timer::Ramp,
            1 => Timer::Wait,
            2 => Timer::DnsRetry,
            3 => Timer::NextLoad,
            4 => Timer::Deadline(value),
            5 => Timer::Throttle(value),
            6 => Timer::Connect(TcpHandle(value)),
            _ => return None,
        })
    }
}

/// Readiness gate the browser waits on before its first load (Tor's
/// bootstrap, a VPN handshake): any shared `Fn() -> bool`, so sc-web
/// need not depend on sc-tunnels. `None` means start immediately.
pub type ReadyGate = Option<Rc<dyn Fn() -> bool>>;

/// Host of the page to load.
pub const PAGE_HOST: &str = "scholar.google.com";
/// Retries per load of a `429`/`503` proxy answer carrying
/// `Retry-After` before the load fails: a well-behaved client under
/// overload control backs off and re-fetches the page within the same
/// load. The backoff is deterministic: `Retry-After × 2^attempt`, no
/// jitter.
pub const MAX_THROTTLE_RETRIES: u32 = 3;
/// Connect deadline for a PAC proxy candidate when the policy has a
/// fallback list (≥ 2 proxies): a crashed proxy drops SYNs silently, so
/// without this the browser would wait out the whole load deadline
/// instead of failing over down the PAC list.
pub const PROXY_CONNECT_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// Browser configuration.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// DNS resolver used for direct routes.
    pub resolver: Addr,
    /// Access method.
    pub policy: ProxyPolicy,
    /// 443 for HTTPS pages, 80 for plain HTTP.
    pub page_port: u16,
    /// Gap between consecutive page loads (the paper used 60 s).
    pub interval: SimDuration,
    /// Number of loads to perform.
    pub loads: usize,
    /// Deterministic entropy for TLS.
    pub entropy: u64,
    /// Per-load timeout after which the load is recorded as failed.
    pub timeout: SimDuration,
    /// Delay before the browser starts at all (load-ramp scenarios where
    /// clients come online staggered). The PLT clock starts *after* the
    /// delay, so a ramped client's first load is not charged for it.
    pub start_delay: SimDuration,
}

impl BrowserConfig {
    /// A typical scholar-measurement config: HTTPS page, one load per
    /// minute.
    pub fn scholar(resolver: Addr, policy: ProxyPolicy) -> Self {
        BrowserConfig {
            resolver,
            policy,
            page_port: 443,
            interval: SimDuration::from_secs(60),
            loads: 10,
            entropy: 7,
            timeout: SimDuration::from_secs(55),
            start_delay: SimDuration::ZERO,
        }
    }

    fn page_port_for(&self, host: &str) -> u16 {
        // Subresources use the page's scheme; the account host is HTTPS.
        if host == PAGE_HOST {
            self.page_port
        } else {
            443
        }
    }
}

/// Result of one page load.
#[derive(Debug, Clone)]
pub struct PageLoadResult {
    /// Load index (0 = first).
    pub index: usize,
    /// Navigation start.
    pub started: SimTime,
    /// Page load time, if the load completed.
    pub plt: Option<SimDuration>,
    /// Whether caches were cold.
    pub first_time: bool,
    /// Application-level round-trip time sampled after the load.
    pub rtt: Option<SimDuration>,
    /// The load failed (reset, refused, or timed out).
    pub failed: bool,
    /// TCP connections opened for this load.
    pub connections: usize,
    /// Non-200 status an HTTP proxy answered CONNECT with, when that is
    /// what failed the load (`403` off-whitelist, `429` throttled,
    /// `502` upstream tunnel exhausted, `503` every upstream dark or
    /// shed) — the user-visible difference between "refused" and
    /// "temporarily degraded". Kept on successful loads too when a
    /// throttle was overcome along the way.
    pub proxy_status: Option<u16>,
    /// The proxy throttled this load (`429`, or `503` with
    /// `Retry-After`) at least once — distinct from a hard failure: a
    /// throttled load may still have succeeded after backing off.
    pub throttled: bool,
    /// Resources served from the browser's own cache after a cheap
    /// conditional revalidation (`304 Not Modified`) during this load.
    pub revalidated: usize,
}

/// A cached representation in the browser's content cache: the body plus
/// the freshness/validator metadata HTTP caching runs on. While the entry
/// is fresh the browser does not refetch at all; once stale it refetches
/// conditionally (`If-None-Match`), and a `304` renews the entry without
/// transferring the body again.
#[derive(Debug, Clone)]
struct CachedContent {
    etag: Option<String>,
    expires_at: SimTime,
    /// Shared with the response it came in.
    body: Bytes,
}

/// host → path → cached representation, so a lookup borrows both.
type ContentCache = FixedMap<String, FixedMap<String, CachedContent>>;

fn cached<'a>(cache: &'a ContentCache, host: &str, path: &str) -> Option<&'a CachedContent> {
    cache.get(host)?.get(path)
}

/// Shared log the harness reads results from.
pub type LoadLog = Rc<RefCell<Vec<PageLoadResult>>>;

/// Creates an empty load log.
pub fn new_load_log() -> LoadLog {
    Rc::new(RefCell::new(Vec::new()))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnPhase {
    Connecting,
    SocksGreetSent,
    SocksConnectSent,
    ProxyConnectSent,
    TlsHandshake,
    Ready,
}

/// A request a connection has queued or in flight.
enum Fetch {
    /// A page resource.
    Get(String),
    /// The `HEAD /` that samples the RTT once a page is complete,
    /// stamped when it is sent.
    RttProbe(SimTime),
}

struct Conn {
    host: String,
    port: u16,
    phase: ConnPhase,
    connect_span: SpanId,
    tunnel_span: SpanId,
    fetch_span: SpanId,
    route: Route,
    tls: Option<TlsClient>,
    http: HttpParser,
    proxy_http: HttpParser,
    queue: VecDeque<Fetch>,
    current: Option<Fetch>,
}

impl Conn {
    /// Closes whichever of the connection's spans are still open as
    /// failed, with `reason`: a connection dropped mid-phase ends its
    /// phase span rather than leaving it open for the rest of the run.
    fn end_spans(&mut self, now: SimTime, reason: &'static str) {
        for span in [&mut self.connect_span, &mut self.tunnel_span, &mut self.fetch_span] {
            sc_obs::span_end(
                now.as_micros(),
                std::mem::replace(span, SpanId::NONE),
                |f| {
                    f.field("ok", false).field("reason", reason);
                },
            );
        }
    }
}

/// Opens a Debug `web` `load` span named `name` under `parent`.
fn load_span(
    now: SimTime,
    name: &'static str,
    parent: TraceCtx,
    f: impl FnOnce(&mut sc_obs::Fields<'_>),
) -> SpanId {
    sc_obs::span_start_ctx(now.as_micros(), sc_obs::Level::Debug, "web", "load", name, parent, f)
}

struct ActiveLoad {
    index: usize,
    started: SimTime,
    span: SpanId,
    /// Deterministic end-to-end trace id minted for this load; carried
    /// on every request this load issues (`Sc-Trace`) so downstream
    /// tiers can parent their spans into this load's tree.
    trace: sc_obs::TraceId,
    pending: usize,
    first_time: bool,
    connections: usize,
    proxy_status: Option<u16>,
    /// Retry-After retries taken so far in this load.
    throttle_retries: u32,
    /// PAC failover retries taken so far in this load (each one
    /// dead-marked a proxy and replayed the page via the next).
    failover_retries: u32,
    /// The load was throttled at least once.
    throttled: bool,
    /// 304-revalidated resources in this load.
    revalidated: usize,
}

/// How a load ended.
enum LoadEnd {
    /// Every resource arrived; the RTT probe's sample, if one was taken.
    Done(Option<SimDuration>),
    /// Reset, refused, throttled past its budget or timed out.
    Failed,
}

/// Per-PAC-proxy liveness as seen by this browser: proxies are marked
/// dead on connect failure/timeout and re-probed after a deterministic
/// exponential backoff (the re-probe is simply the next routed
/// connect).
#[derive(Debug, Clone, Copy, Default)]
struct ProxyHealth {
    dead_until: SimTime,
    fail_level: u32,
}

/// The browser app.
pub struct Browser {
    config: BrowserConfig,
    gate: ReadyGate,
    stub: StubResolver,
    conns: BTreeMap<TcpHandle, Conn>,
    /// `(port, open connection)` of the connection each `host:port` reuses
    /// within a load: a handful, the host compared where the connection
    /// keeps it.
    by_host: Vec<(u16, TcpHandle)>,
    /// Resolution token → the fetch waiting on it (host, port, path)
    /// and its `dns` span.
    pending_dns: FixedMap<u64, (String, u16, String, SpanId)>,
    next_dns_token: u64,
    content_cache: ContentCache,
    load: Option<ActiveLoad>,
    loads_done: usize,
    visited: bool,
    /// When the browser itself started (load 0's PLT clock includes any
    /// tunnel bootstrap the gate made it wait for, like the paper's Tor
    /// first-time measurements).
    browser_started: SimTime,
    log: LoadLog,
    /// Dead-mark state per PAC proxy (parallel to the PAC's ordered
    /// fallback list; empty outside PAC policies).
    proxy_dead: Vec<ProxyHealth>,
}

impl Browser {
    /// Creates a browser writing results into `log`; if `gate` is given,
    /// the first load waits for it.
    pub fn new(config: BrowserConfig, gate: ReadyGate, log: LoadLog) -> Self {
        let stub = StubResolver::new(config.resolver);
        let proxy_dead = match &config.policy {
            ProxyPolicy::Pac(pac) => vec![ProxyHealth::default(); pac.proxies.len()],
            _ => Vec::new(),
        };
        Browser {
            config,
            gate,
            stub,
            conns: BTreeMap::new(),
            by_host: Vec::new(),
            pending_dns: FixedMap::default(),
            next_dns_token: 1,
            content_cache: FixedMap::default(),
            load: None,
            loads_done: 0,
            visited: false,
            browser_started: SimTime::ZERO,
            log,
            proxy_dead,
        }
    }

    /// Trace context of the in-flight load: its trace id, parented on
    /// the page-load root span. Empty when no load is active.
    fn load_ctx(&self) -> TraceCtx {
        match self.load.as_ref() {
            Some(l) => TraceCtx::new(l.trace, l.span),
            None => TraceCtx::NONE,
        }
    }

    fn route_for(&self, host: &str, now: SimTime) -> Route {
        match &self.config.policy {
            ProxyPolicy::Direct => Route::Direct,
            ProxyPolicy::Socks(p) => Route::Socks(*p),
            ProxyPolicy::Pac(pac) => {
                let candidates = pac.candidates(host);
                if candidates.is_empty() {
                    return Route::Direct;
                }
                // Browser-style PAC walking: the first candidate not
                // currently dead-marked, in list order. When every
                // proxy is dead-marked the one whose re-probe comes
                // soonest is tried anyway (lowest index tie-break) —
                // DIRECT is no fallback for a censored host, so the
                // browser must keep probing *something*.
                let pick = candidates
                    .iter()
                    .enumerate()
                    .find(|&(i, _)| self.proxy_dead[i].dead_until <= now)
                    .map(|(i, _)| i)
                    .unwrap_or_else(|| {
                        (0..candidates.len())
                            .min_by_key(|&i| (self.proxy_dead[i].dead_until, i))
                            .unwrap_or(0)
                    });
                Route::HttpProxy(candidates[pick])
            }
        }
    }

    /// Begins the first load once the readiness gate is open, polling it
    /// until then.
    fn start_when_ready(&mut self, io: &mut impl Io) {
        match &self.gate {
            Some(ready) if !ready() => io.set_timer(WAIT_POLL, Timer::Wait.token()),
            _ => self.begin_load(io),
        }
    }

    fn begin_load(&mut self, io: &mut impl Io) {
        let index = self.loads_done;
        // The very first load's clock starts at browser launch, so tunnel
        // bootstrap (waited out via the gate) counts into first-time PLT.
        let started = if index == 0 { self.browser_started } else { io.now() };
        // The trace id is minted whether or not a sink is attached —
        // it is a pure hash, and propagating it unconditionally keeps
        // traced and untraced packet schedules identical.
        let trace = sc_obs::TraceId::mint(self.config.entropy, index as u64);
        let span = sc_obs::span_start_ctx(
            started.as_micros(),
            sc_obs::Level::Info,
            "web",
            "load",
            "page_load",
            TraceCtx::new(trace, SpanId::NONE),
            |f| {
                f.field("index", index).field("first_time", !self.visited);
            },
        );
        self.load = Some(ActiveLoad {
            index,
            started,
            span,
            trace,
            pending: 1, // the HTML itself
            first_time: !self.visited,
            connections: 0,
            proxy_status: None,
            throttle_retries: 0,
            failover_retries: 0,
            throttled: false,
            revalidated: 0,
        });
        io.set_timer(self.config.timeout, Timer::Deadline(index).token());
        self.fetch(PAGE_HOST, self.config.page_port, "/", io);
    }

    /// The open connection to `host:port`, if there is one.
    fn conn_to(&self, host: &str, port: u16) -> Option<TcpHandle> {
        let to = |conn| self.conns.get(&conn).is_some_and(|c: &Conn| c.host == host);
        self.by_host.iter().find(|&&(p, conn)| p == port && to(conn)).map(|&(_, conn)| conn)
    }

    /// Requests `path` from `host:port`, opening or reusing a connection.
    fn fetch(&mut self, host: &str, port: u16, path: &str, io: &mut impl Io) {
        if let Some(h) = self.conn_to(host, port) {
            if let Some(conn) = self.conns.get_mut(&h) {
                conn.queue.push_back(Fetch::Get(path.to_string()));
                self.pump_conn(h, io);
                return;
            }
        }
        let route = self.route_for(host, io.now());
        match route {
            Route::Direct => {
                // Resolve first (the DNS stub returns synchronously on a
                // cache hit — the warm-cache fast path).
                let token = self.next_dns_token;
                self.next_dns_token += 1;
                let span = load_span(io.now(), "dns", self.load_ctx(), |f| {
                    f.field("host", host);
                });
                self.pending_dns.insert(token, (host.to_string(), port, path.to_string(), span));
                if let Some(res) = self.stub.resolve(host, token, io) {
                    self.on_resolved(res.token, res.outcome, io);
                } else {
                    io.set_timer(DNS_RETRY, Timer::DnsRetry.token());
                }
            }
            Route::Socks(p) | Route::HttpProxy(p) => {
                let h = io.tcp_connect(p);
                self.register_conn(h, host, port, route, path, io);
            }
        }
    }

    fn on_resolved(&mut self, token: u64, outcome: ResolveOutcome, io: &mut impl Io) {
        let Some((host, port, path, span)) = self.pending_dns.remove(&token) else { return };
        let addr = match outcome {
            ResolveOutcome::Resolved(addrs) => addrs.first().copied(),
            ResolveOutcome::Failed(_) => None,
        };
        sc_obs::span_end(io.now().as_micros(), span, |f| {
            f.field("ok", addr.is_some());
        });
        match addr {
            Some(addr) => {
                let h = io.tcp_connect(SocketAddr::new(addr, port));
                self.register_conn(h, &host, port, Route::Direct, &path, io);
            }
            None => self.end_load(LoadEnd::Failed, io),
        }
    }

    fn register_conn(
        &mut self,
        h: TcpHandle,
        host: &str,
        port: u16,
        route: Route,
        path: &str,
        io: &mut impl Io,
    ) {
        let connect_span = load_span(io.now(), "connect", self.load_ctx(), |f| {
            f.field("host", host);
        });
        // A second connection to one host:port (two fetches that waited
        // on DNS together) takes the first one's entry over.
        let replaced = self.conn_to(host, port);
        self.conns.insert(
            h,
            Conn {
                host: host.to_string(),
                port,
                phase: ConnPhase::Connecting,
                connect_span,
                tunnel_span: SpanId::NONE,
                fetch_span: SpanId::NONE,
                route,
                tls: None,
                http: HttpParser::new(),
                proxy_http: HttpParser::new(),
                queue: VecDeque::from([Fetch::Get(path.to_string())]),
                current: None,
            },
        );
        match self.by_host.iter_mut().find(|(_, open)| Some(*open) == replaced) {
            Some(entry) => entry.1 = h,
            None => self.by_host.push((port, h)),
        }
        if let Some(load) = self.load.as_mut() {
            load.connections += 1;
        }
        // Fleet PAC policies guard every proxy connect with a deadline:
        // a crashed proxy drops SYNs silently, and failover must not
        // wait for the load deadline. Single-proxy policies keep the
        // pre-fleet behaviour (and the pre-fleet event schedule).
        if matches!(route, Route::HttpProxy(_)) && self.pac_fleet_size() >= 2 {
            io.set_timer(PROXY_CONNECT_TIMEOUT, Timer::Connect(h).token());
        }
    }

    /// Forgets connection `h`, ending its open spans with `reason`.
    fn drop_conn(&mut self, h: TcpHandle, reason: &'static str, now: SimTime) {
        if let Some(mut conn) = self.conns.remove(&h) {
            conn.end_spans(now, reason);
            self.by_host.retain(|&(_, open)| open != h);
        }
    }

    /// Number of proxies in the PAC fallback list (0 outside PAC).
    fn pac_fleet_size(&self) -> usize {
        match &self.config.policy {
            ProxyPolicy::Pac(pac) => pac.proxies.len(),
            _ => 0,
        }
    }

    /// Index of `addr` in the PAC fallback list.
    fn pac_proxy_index(&self, addr: SocketAddr) -> Option<usize> {
        match &self.config.policy {
            ProxyPolicy::Pac(pac) => pac.proxies.iter().position(|&p| p == addr),
            _ => None,
        }
    }

    /// A connect to a PAC proxy succeeded: count it for fleet
    /// availability and clear any dead-mark (rejoin after recovery).
    fn mark_proxy_up(&mut self, addr: SocketAddr, io: &mut impl Io) {
        if self.pac_fleet_size() < 2 {
            return;
        }
        emit_fleet(io.now(), sc_obs::Level::Debug, "connect_ok", |f| {
            f.field("proxy", addr);
        });
        let Some(idx) = self.pac_proxy_index(addr) else { return };
        if self.proxy_dead[idx].fail_level > 0 {
            self.proxy_dead[idx] = ProxyHealth::default();
            emit_fleet(io.now(), sc_obs::Level::Info, "proxy_recovered", |f| {
                f.field("proxy", addr);
            });
        }
    }

    /// Dead-marks `addr` after a failed connect: exponential re-probe
    /// backoff, mirroring the fleet tier's own peer dead-marking.
    fn mark_proxy_dead(&mut self, addr: SocketAddr, reason: &str, io: &mut impl Io) {
        emit_fleet(io.now(), sc_obs::Level::Debug, "connect_fail", |f| {
            f.field("proxy", addr).field("reason", reason);
        });
        let Some(idx) = self.pac_proxy_index(addr) else { return };
        let level = self.proxy_dead[idx].fail_level;
        self.proxy_dead[idx].fail_level = level.saturating_add(1);
        let backoff = PROXY_DEAD_BASE
            .saturating_mul(1u64 << level.min(4))
            .clamp(PROXY_DEAD_BASE, PROXY_DEAD_CAP);
        self.proxy_dead[idx].dead_until = io.now() + backoff;
        // The numbers go out as strings, as they always have.
        emit_fleet(io.now(), sc_obs::Level::Warn, "proxy_dead", |f| {
            f.field("proxy", addr).field("reason", reason).field("backoff_us", Quoted(backoff.as_micros()));
        });
    }

    /// A proxy-route connect died (refused, reset, or timed out while
    /// still connecting). Under a fleet PAC policy the proxy is
    /// dead-marked and the load replayed through the next candidate;
    /// otherwise (or once retries are exhausted) the load fails.
    fn proxy_conn_failed(&mut self, h: TcpHandle, reason: &'static str, io: &mut impl Io) {
        let addr = match self.conns.get(&h) {
            Some(c) if c.phase == ConnPhase::Connecting => match c.route {
                Route::HttpProxy(p) => Some(p),
                _ => None,
            },
            _ => None,
        };
        let (Some(addr), true) = (addr, self.pac_fleet_size() >= 2) else {
            return self.end_load(LoadEnd::Failed, io);
        };
        self.drop_conn(h, reason, io.now());
        self.mark_proxy_dead(addr, reason, io);
        if !self.proxy_failover_retry(addr, io) {
            self.end_load(LoadEnd::Failed, io);
        }
    }

    /// Replays the in-flight load from scratch through the (new) best
    /// PAC candidate. Bounded per load; the load's deadline timer keeps
    /// running throughout.
    fn proxy_failover_retry(&mut self, from: SocketAddr, io: &mut impl Io) -> bool {
        let Some(load) = self.load.as_mut() else { return false };
        if load.failover_retries >= MAX_FAILOVER_RETRIES {
            return false;
        }
        let attempt = load.failover_retries;
        load.failover_retries += 1;
        load.pending = 1; // the replayed HTML
        // benchmark/src/run.rs reads this counter until ROADMAP 8j moves it to the trace.
        sc_obs::counter_add("web.failovers", 1);
        emit_fleet(io.now(), sc_obs::Level::Info, "failover", |f| {
            f.field("from", from).field("attempt", Quoted(attempt.into()));
        });
        self.teardown_conns("failover", io);
        self.fetch(PAGE_HOST, self.config.page_port, "/", io);
        true
    }

    /// The load deadline fired with work still outstanding: dead-mark
    /// every PAC proxy holding a stalled connection so the *next* load
    /// routes around it immediately. A proxy that crashes mid-tunnel
    /// dies silently (no RST in the simulator), so this is the only
    /// signal the browser gets for an already-established connection.
    fn deadline_dead_marks(&mut self, io: &mut impl Io) {
        if self.pac_fleet_size() < 2 {
            return;
        }
        let stalled: BTreeSet<SocketAddr> = self
            .conns
            .values()
            .filter(|c| c.phase != ConnPhase::Ready || c.current.is_some())
            .filter_map(|c| match c.route {
                Route::HttpProxy(p) => Some(p),
                _ => None,
            })
            .collect();
        for p in stalled {
            self.mark_proxy_dead(p, "load_deadline", io);
        }
    }

    /// Called when a connection's tunnel/TLS is ready or a response
    /// completed: sends the next queued request.
    fn pump_conn(&mut self, h: TcpHandle, io: &mut impl Io) {
        let lctx = self.load_ctx();
        let Some(conn) = self.conns.get_mut(&h) else { return };
        if conn.phase != ConnPhase::Ready || conn.current.is_some() {
            return;
        }
        let Some(mut next) = conn.queue.pop_front() else { return };
        let req = match &mut next {
            Fetch::RttProbe(sent) => {
                *sent = io.now();
                HttpRequest::new("HEAD", "/")
                    .header("Host", &conn.host)
                    .header_fmt(sc_obs::TRACE_HEADER, lctx)
            }
            Fetch::Get(path) => {
                conn.fetch_span = load_span(io.now(), "fetch", lctx, |f| {
                    f.field("path", &*path);
                });
                let req = if matches!(conn.route, Route::HttpProxy(_)) && conn.port == 80 {
                    // Absolute-form through an HTTP proxy.
                    HttpRequest::new("GET", format_args!("http://{}{}", conn.host, path))
                } else {
                    HttpRequest::new("GET", &*path)
                };
                // Every request carries the trace context, parented on its
                // fetch span, so the proxy tier and origin can stitch their
                // spans into this load's tree.
                let req = req
                    .header("Host", &conn.host)
                    .header_fmt(sc_obs::TRACE_HEADER, lctx.with_parent(conn.fetch_span));
                // A stale cached copy with a validator turns the refetch into
                // a conditional request: the origin (or the proxy's shared
                // cache) may answer with a cheap bodyless 304.
                let stale_etag = cached(&self.content_cache, &conn.host, path)
                    .filter(|e| e.expires_at <= io.now())
                    .and_then(|e| e.etag.as_deref());
                match stale_etag {
                    Some(etag) => req.header("If-None-Match", etag),
                    None => req,
                }
            }
        };
        conn.current = Some(next);
        match conn.tls.as_mut() {
            Some(tls) => {
                let (head, body) = req.into_parts();
                let record = {
                    let _prof = prof::scope(Subsystem::Crypto);
                    tls.send(&[&head, &body])
                };
                io.tcp_send_bytes(h, record);
            }
            None => {
                io.tcp_send_bytes(h, req.into_wire());
            }
        }
    }

    fn begin_app_layer(&mut self, h: TcpHandle, io: &mut impl Io) {
        let Some(conn) = self.conns.get_mut(&h) else { return };
        if conn.port != 443 {
            return self.tunnel_ready(h, io);
        }
        let (tls, hello) = {
            let _prof = prof::scope(Subsystem::Crypto);
            let mut tls = TlsClient::new(&conn.host, self.config.entropy ^ h.0 as u64);
            let hello = tls.start_handshake();
            (tls, hello)
        };
        conn.tls = Some(tls);
        conn.phase = ConnPhase::TlsHandshake;
        io.tcp_send_bytes(h, hello);
    }

    /// The connection's tunnel, and its TLS if it has one, is up: close
    /// the tunnel span and send the first queued request.
    fn tunnel_ready(&mut self, h: TcpHandle, io: &mut impl Io) {
        let Some(conn) = self.conns.get_mut(&h) else { return };
        conn.phase = ConnPhase::Ready;
        let sp = std::mem::replace(&mut conn.tunnel_span, SpanId::NONE);
        sc_obs::span_end(io.now().as_micros(), sp, |_| {});
        self.pump_conn(h, io);
    }

    fn on_response(&mut self, h: TcpHandle, resp: HttpResponse, io: &mut impl Io) {
        let status = resp.status;
        let Some(conn) = self.conns.get_mut(&h) else { return };
        let sp = std::mem::replace(&mut conn.fetch_span, SpanId::NONE);
        sc_obs::span_end(io.now().as_micros(), sp, |f| {
            f.field("status", status);
        });
        let path = match conn.current.take() {
            // The RTT probe's answer completes the load.
            Some(Fetch::RttProbe(sent)) => {
                let rtt = io.now() - sent;
                return self.end_load(LoadEnd::Done(Some(rtt)), io);
            }
            Some(Fetch::Get(path)) => path,
            None => String::new(),
        };
        if status >= 400 {
            // A gateway-mode `429`/`503` carrying `Retry-After` is
            // backpressure — an overload shed or an elastic cold-start
            // window — not proxy death: honor the hint and retry within
            // the throttle budget, exactly like the CONNECT path. The
            // proxy is deliberately NOT dead-marked here; dead-marking
            // a member that is warming capacity would route the whole
            // crowd away from it just as it comes good.
            if !(matches!(status, 429 | 503) && self.proxy_throttled(&resp, io)) {
                self.end_load(LoadEnd::Failed, io);
            }
            return;
        }
        let Some(load) = self.load.as_mut() else { return };
        load.pending -= 1;
        let now = io.now();
        let ttl = resp
            .max_age_secs()
            .map(SimDuration::from_secs)
            .unwrap_or(DEFAULT_CONTENT_TTL);
        let is_page = path == "/" && conn.host == PAGE_HOST;
        let body = if status == 304 {
            // Our stale copy is still good: renew it and serve from cache
            // without the body having crossed the wire again.
            load.revalidated += 1;
            match self.content_cache.get_mut(&conn.host).and_then(|paths| paths.get_mut(&path)) {
                Some(entry) => {
                    entry.expires_at = now + ttl;
                    if let Some(etag) = resp.header_value("ETag") {
                        entry.etag = Some(etag.to_string());
                    }
                    entry.body.clone()
                }
                None => Bytes::new(),
            }
        } else {
            let entry = CachedContent {
                etag: resp.header_value("ETag").map(str::to_string),
                expires_at: now + ttl,
                body: resp.body.clone(),
            };
            // The host is borrowed: a key is made only for a host the
            // cache has not seen.
            match self.content_cache.get_mut(&conn.host) {
                Some(paths) => paths.insert(path, entry),
                None => self.content_cache.entry(conn.host.clone()).or_default().insert(path, entry),
            };
            resp.body
        };
        // The HTML: schedule subresource fetches.
        if is_page {
            let first_time = self.load.as_ref().is_some_and(|l| l.first_time);
            let mut to_fetch = Vec::new();
            for r in crate::page::PageSpec::parse_manifest(&body) {
                if r.first_visit_only && !first_time {
                    continue;
                }
                // A fresh cached copy needs no fetch at all; stale or
                // absent entries are (re)fetched — stale ones turn into
                // conditional requests in `pump_conn`.
                let fresh = cached(&self.content_cache, &r.host, &r.path).is_some_and(|e| e.expires_at > now);
                if fresh {
                    continue;
                }
                // The host comes off the wire: one that no DNS query or
                // SOCKS request can carry fails the load before anything
                // is routed.
                if r.host.is_empty() || r.host.len() > MAX_NAME_LEN {
                    return self.end_load(LoadEnd::Failed, io);
                }
                to_fetch.push(r);
            }
            if let Some(load) = self.load.as_mut() {
                load.pending += to_fetch.len();
            }
            for r in to_fetch {
                self.fetch(&r.host, self.config.page_port_for(&r.host), &r.path, io);
            }
        }
        if self.load.as_ref().is_some_and(|l| l.pending == 0) {
            // Page complete: sample RTT with a HEAD on the main connection.
            if let Some(main) = self.conn_to(PAGE_HOST, self.config.page_port) {
                let ready = self.conns.get_mut(&main).filter(|c| c.phase == ConnPhase::Ready);
                if let Some(conn) = ready {
                    conn.queue.push_back(Fetch::RttProbe(now));
                    return self.pump_conn(main, io);
                }
            }
            self.end_load(LoadEnd::Done(None), io);
        } else {
            self.pump_conn(h, io);
        }
    }

    /// The one throttle rule, for a refused CONNECT and a gateway
    /// `429`/`503` alike. The load keeps the proxy's status, and counts
    /// as throttled on a `429` or a `Retry-After`. A `429`/`503` with
    /// `Retry-After` tears every connection down, waits `Retry-After ×
    /// 2^attempt` (deterministic — backoff shape is part of the trace,
    /// so no jitter) and re-fetches the page. Returns `false` when there
    /// is no retry — no hint, or [`MAX_THROTTLE_RETRIES`] taken — and the
    /// caller fails the load. The load's deadline timer keeps running
    /// throughout, so a throttle wait can never extend a load past its
    /// budget.
    fn proxy_throttled(&mut self, resp: &HttpResponse, io: &mut impl Io) -> bool {
        let retry_after =
            resp.header_value("Retry-After").and_then(|v| v.trim().parse::<u64>().ok());
        // A hint from the wire can be any u64; a wait longer than the
        // load's deadline ends at the deadline anyway, so clamp it there
        // before converting to microseconds, which would overflow.
        let max_secs = self.config.timeout.as_micros().div_ceil(1_000_000);
        let Some(load) = self.load.as_mut() else { return false };
        load.proxy_status = Some(resp.status);
        load.throttled |= resp.status == 429 || retry_after.is_some();
        let Some(secs) = retry_after.filter(|_| matches!(resp.status, 429 | 503)) else {
            return false;
        };
        if load.throttle_retries >= MAX_THROTTLE_RETRIES {
            return false;
        }
        let attempt = load.throttle_retries;
        load.throttle_retries += 1;
        let delay = SimDuration::from_secs(secs.min(max_secs).max(1))
            .saturating_mul(1u64 << attempt.min(16));
        // Back off with nothing in flight: the proxy told us to go away,
        // so holding sockets open would just occupy its accept queue.
        load.pending = 1; // the retried HTML
        let index = load.index;
        let t_us = io.now().as_micros();
        sc_obs::ts_bump(t_us, "web.throttled", 1);
        sc_obs::event(t_us, sc_obs::Level::Info, "web", "browser", "throttled", |f| {
            f.field("attempt", attempt).field("delay_us", delay.as_micros());
        });
        self.teardown_conns("throttled", io);
        io.set_timer(delay, Timer::Throttle(index).token());
        true
    }

    /// Ends the in-flight load: logs it, closes every connection and
    /// arms the next load.
    fn end_load(&mut self, end: LoadEnd, io: &mut impl Io) {
        let Some(load) = self.load.take() else { return };
        let now = io.now();
        let (plt, rtt) = match end {
            LoadEnd::Done(rtt) => (Some(now - load.started), rtt),
            LoadEnd::Failed => (None, None),
        };
        let ok = plt.is_some();
        match plt {
            Some(plt) => {
                sc_obs::ts_bump(now.as_micros(), "web.loads_ok", 1);
                // PLT samples carry the load's trace id as an exemplar, so a
                // fired latency alert can point at the worst offending traces.
                sc_obs::ts_record_ex(now.as_micros(), "web.plt_us", plt.as_micros(), load.trace);
            }
            None => sc_obs::ts_bump_ex(now.as_micros(), "web.loads_failed", 1, load.trace),
        }
        sc_obs::span_end(now.as_micros(), load.span, |f| {
            f.field("ok", ok).field("connections", load.connections);
        });
        self.log.borrow_mut().push(PageLoadResult {
            index: load.index,
            started: load.started,
            plt,
            first_time: load.first_time,
            rtt,
            failed: !ok,
            connections: load.connections,
            // A load that overcame a throttle en route keeps the status
            // that stalled it, so the harness can count brownouts that
            // ultimately succeeded.
            proxy_status: load.proxy_status.filter(|_| !ok || load.throttled),
            throttled: load.throttled,
            revalidated: load.revalidated,
        });
        self.visited = true;
        self.loads_done += 1;
        self.teardown_conns(if ok { "load_done" } else { "load_failed" }, io);
        self.schedule_next(load.started, io);
    }

    /// Closes every connection, in handle order, ending the spans of any
    /// caught mid-phase with `reason`.
    fn teardown_conns(&mut self, reason: &'static str, io: &mut impl Io) {
        // Popped, not cleared: the emptied map keeps its node for the
        // next load.
        while let Some((h, mut conn)) = self.conns.pop_first() {
            conn.end_spans(io.now(), reason);
            io.tcp_close(h);
        }
        self.by_host.clear();
        self.pending_dns.clear();
    }

    fn schedule_next(&mut self, last_start: SimTime, io: &mut impl Io) {
        if self.loads_done >= self.config.loads {
            return;
        }
        let next_at = last_start + self.config.interval;
        let delay = next_at.saturating_since(io.now()).clamp(
            SimDuration::from_millis(1),
            self.config.interval,
        );
        io.set_timer(delay, Timer::NextLoad.token());
    }

    /// A timer fired. An unknown token, and a stale one — for a load no
    /// longer in flight, a conn no longer connecting — does nothing.
    fn on_timer(&mut self, token: u64, io: &mut impl Io) {
        let in_flight = self.load.as_ref().map(|l| l.index);
        match Timer::from_token(token) {
            Some(Timer::Ramp) => {
                // Ramp delay elapsed: restart the PLT clock so the
                // stagger does not count into first-time PLT, then go
                // through the normal readiness gate.
                self.browser_started = io.now();
                self.start_when_ready(io);
            }
            Some(Timer::Wait) => self.start_when_ready(io),
            Some(Timer::DnsRetry) if self.stub.has_pending() && in_flight.is_some() => {
                self.stub.retry_pending(io);
                io.set_timer(DNS_RETRY, Timer::DnsRetry.token());
            }
            Some(Timer::NextLoad) if in_flight.is_none() && self.loads_done < self.config.loads => {
                self.begin_load(io);
            }
            Some(Timer::Deadline(index)) if in_flight == Some(index) => {
                self.deadline_dead_marks(io);
                self.end_load(LoadEnd::Failed, io);
            }
            Some(Timer::Throttle(index)) if in_flight == Some(index) => {
                self.fetch(PAGE_HOST, self.config.page_port, "/", io);
            }
            // A crashed proxy drops SYNs silently, so this is where a
            // dead proxy is detected.
            Some(Timer::Connect(h))
                if self.conns.get(&h).is_some_and(|c| c.phase == ConnPhase::Connecting) =>
            {
                io.tcp_abort(h);
                self.proxy_conn_failed(h, "connect_timeout", io);
            }
            _ => {}
        }
    }

    /// Takes one event, over any [`Io`].
    fn handle(&mut self, ev: AppEvent, io: &mut impl Io) {
        match ev {
            AppEvent::TimerFired(token) => self.on_timer(token, io),
            AppEvent::Udp { socket, payload, .. } => {
                if let Some(res) = self.stub.on_datagram(socket, &payload, io.now()) {
                    self.on_resolved(res.token, res.outcome, io);
                }
            }
            AppEvent::Tcp(h, tcp_ev) => {
                let Some(conn) = self.conns.get(&h) else { return };
                let connecting = conn.phase == ConnPhase::Connecting;
                let busy = conn.current.is_some() || !conn.queue.is_empty();
                match tcp_ev {
                    TcpEvent::Connected => self.on_connected(h, io),
                    TcpEvent::DataReceived => {
                        let data = io.tcp_recv_all(h);
                        self.on_bytes(h, data, io);
                    }
                    TcpEvent::ConnectFailed | TcpEvent::Reset if connecting => {
                        let reason = match tcp_ev {
                            TcpEvent::ConnectFailed => "connect_refused",
                            _ => "connect_reset",
                        };
                        self.proxy_conn_failed(h, reason, io);
                    }
                    TcpEvent::ConnectFailed | TcpEvent::Reset => {
                        self.end_load(LoadEnd::Failed, io);
                    }
                    TcpEvent::PeerClosed => {
                        // Server closed (keep-alive expiry): drop the conn;
                        // outstanding work fails the load.
                        self.drop_conn(h, "peer_closed", io.now());
                        if busy {
                            self.end_load(LoadEnd::Failed, io);
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn on_connected(&mut self, h: TcpHandle, io: &mut impl Io) {
        if let Some(Route::HttpProxy(p)) = self.conns.get(&h).map(|c| c.route) {
            self.mark_proxy_up(p, io);
        }
        let lctx = self.load_ctx();
        let Some(conn) = self.conns.get_mut(&h) else { return };
        let sp = std::mem::replace(&mut conn.connect_span, SpanId::NONE);
        sc_obs::span_end(io.now().as_micros(), sp, |_| {});
        let via = match conn.route {
            Route::Direct => "direct",
            Route::Socks(_) => "socks",
            Route::HttpProxy(_) => "http_proxy",
        };
        conn.tunnel_span = load_span(io.now(), "tunnel", lctx, |f| {
            f.field("via", via);
        });
        match conn.route {
            Route::Direct => self.begin_app_layer(h, io),
            Route::Socks(_) => {
                conn.phase = ConnPhase::SocksGreetSent;
                io.tcp_send_bytes(h, Bytes::from_static(&[5, 1, 0]));
            }
            // Absolute-form proxying, no CONNECT.
            Route::HttpProxy(_) if conn.port == 80 => self.tunnel_ready(h, io),
            Route::HttpProxy(_) => {
                conn.phase = ConnPhase::ProxyConnectSent;
                let req = HttpRequest::new("CONNECT", format_args!("{}:{}", conn.host, conn.port))
                    .header("Host", &conn.host)
                    .header_fmt(sc_obs::TRACE_HEADER, lctx.with_parent(conn.tunnel_span));
                io.tcp_send_bytes(h, req.into_wire());
            }
        }
    }

    fn on_bytes(&mut self, h: TcpHandle, data: Bytes, io: &mut impl Io) {
        let Some(conn) = self.conns.get_mut(&h) else { return };
        // What of `data` belongs to the TLS / HTTP stream: all of it, once
        // the proxy preliminaries are over.
        let stream = match conn.phase {
            ConnPhase::SocksGreetSent if data.starts_with(&[5, 0]) => {
                conn.phase = ConnPhase::SocksConnectSent;
                // The host goes into the request and back, not copied.
                let target = TargetAddr::Domain(std::mem::take(&mut conn.host), conn.port);
                let mut req = BytesMut::with_capacity(3 + target.encoded_len());
                req.put_slice(&[5, 1, 0]);
                target.encode_into(&mut req);
                if let TargetAddr::Domain(host, _) = target {
                    conn.host = host;
                }
                io.tcp_send_bytes(h, req.freeze());
                return;
            }
            ConnPhase::SocksConnectSent if data.len() >= 10 && data[0] == 5 && data[1] == 0 => {
                let rest = data.slice(10..);
                self.begin_app_layer(h, io);
                if rest.is_empty() {
                    return;
                }
                rest
            }
            ConnPhase::SocksGreetSent | ConnPhase::SocksConnectSent => {
                return self.end_load(LoadEnd::Failed, io);
            }
            ConnPhase::ProxyConnectSent => return self.on_connect_answer(h, data, io),
            _ => data,
        };
        // TLS / plain processing.
        let Some(conn) = self.conns.get_mut(&h) else { return };
        let plaintext = match conn.tls.as_mut() {
            Some(tls) => {
                let out = {
                    let _prof = prof::scope(Subsystem::Crypto);
                    tls.on_bytes(&stream)
                };
                let Ok(out) = out else { return self.end_load(LoadEnd::Failed, io) };
                if !out.wire.is_empty() {
                    io.tcp_send_bytes(h, out.wire);
                }
                if out.handshake_complete {
                    self.tunnel_ready(h, io);
                }
                out.plaintext
            }
            None => stream,
        };
        if plaintext.is_empty() {
            return;
        }
        let Some(conn) = self.conns.get_mut(&h) else { return };
        let Ok(msgs) = conn.http.push_bytes(plaintext) else {
            return self.end_load(LoadEnd::Failed, io);
        };
        for m in msgs {
            if let HttpMessage::Response(resp) = m {
                self.on_response(h, resp, io);
            }
        }
    }

    /// The HTTP proxy's answer to CONNECT: a `200` opens the tunnel.
    fn on_connect_answer(&mut self, h: TcpHandle, data: Bytes, io: &mut impl Io) {
        let Some(conn) = self.conns.get_mut(&h) else { return };
        let Ok(msgs) = conn.proxy_http.push_bytes(data) else {
            return self.end_load(LoadEnd::Failed, io);
        };
        let mut ok = false;
        for m in msgs {
            let HttpMessage::Response(r) = m else { continue };
            if r.status == 200 {
                ok = true;
                continue;
            }
            // The proxy refused or degraded: the load keeps the status so
            // the harness can tell a 403 (policy) from a 429 (throttled)
            // from a 502/503 (upstream dark or shed).
            let t_us = io.now().as_micros();
            sc_obs::ts_bump(t_us, "web.proxy_errors", 1);
            sc_obs::event(t_us, sc_obs::Level::Warn, "web", "browser", "proxy_error", |f| {
                f.field("status", r.status);
            });
            if !self.proxy_throttled(&r, io) {
                self.end_load(LoadEnd::Failed, io);
            }
            return;
        }
        if ok {
            self.begin_app_layer(h, io);
        }
    }
}

/// A `web.fleet` event; `f` writes its fields only when it is recorded.
fn emit_fleet(
    now: SimTime,
    level: sc_obs::Level,
    name: &'static str,
    f: impl FnOnce(&mut sc_obs::Fields<'_>),
) {
    sc_obs::event(now.as_micros(), level, "web", "fleet", name, f);
}

impl App for Browser {
    fn on_start(&mut self, ctx: &mut sc_simnet::sim::Ctx<'_>) {
        self.browser_started = ctx.now();
        self.stub.bind(ctx);
        if self.config.start_delay > SimDuration::ZERO {
            ctx.set_timer(self.config.start_delay, Timer::Ramp.token());
        } else {
            self.start_when_ready(ctx);
        }
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut sc_simnet::sim::Ctx<'_>) {
        let _prof = prof::scope(Subsystem::Web);
        self.handle(ev, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_tokens_round_trip() {
        let timers = [
            Timer::Ramp,
            Timer::Wait,
            Timer::DnsRetry,
            Timer::NextLoad,
            Timer::Deadline(0),
            Timer::Deadline(7),
            Timer::Throttle(7),
            Timer::Connect(TcpHandle(3)),
            Timer::Connect(TcpHandle(123_456)),
        ];
        for timer in timers {
            assert_eq!(Timer::from_token(timer.token()), Some(timer));
        }
        // The deadlines of two loads, and the connect deadlines of two
        // handles, are told apart by their tokens: nothing else keeps them.
        assert_ne!(Timer::Deadline(0).token(), Timer::Deadline(1).token());
        assert_ne!(Timer::Connect(TcpHandle(3)).token(), Timer::Connect(TcpHandle(4)).token());
        let distinct: BTreeSet<u64> = timers.iter().map(|t| t.token()).collect();
        assert_eq!(distinct.len(), timers.len());
        assert_eq!(Timer::from_token(u64::MAX), None);
        assert_eq!(Timer::from_token(pack_token(7, 0)), None);
    }
}
