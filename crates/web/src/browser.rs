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
use sc_dns::stub::{ResolveOutcome, StubResolver};
use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse};
use sc_netproto::pac::PacFile;
use sc_netproto::tls::TlsClient;
use sc_obs::prof::{self, Subsystem};
use sc_obs::Quoted;
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::hash::FixedMap;
use sc_simnet::sim::Ctx;
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
const TIMER_NEXT_LOAD: u64 = 1;
const TIMER_WAIT: u64 = 2;
const TIMER_DNS_RETRY: u64 = 3;
/// Staggered-start (load-ramp) delay before the browser begins.
const TIMER_RAMP: u64 = 4;
/// Backoff after the proxy throttled us (`429`/`503` + `Retry-After`).
const TIMER_THROTTLE: u64 = 5;
/// Proxy-connect deadline tokens start here (load deadlines use
/// `1_000 + seq`, so the two spaces never collide).
const TIMER_CONNECT_BASE: u64 = 1_000_000;
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

/// Readiness gate the browser waits on before its first load (Tor's
/// bootstrap, a VPN handshake). `None` means start immediately.
pub type ReadyGate = Option<sc_ready::ReadyProbe>;

/// Minimal readiness probe, kept separate so sc-web does not depend on
/// sc-tunnels: any `Fn() -> bool` shared handle.
pub mod sc_ready {
    use std::rc::Rc;

    /// A cloneable readiness probe.
    #[derive(Clone)]
    pub struct ReadyProbe(Rc<dyn Fn() -> bool>);

    impl ReadyProbe {
        /// Wraps a readiness check.
        pub fn new(f: impl Fn() -> bool + 'static) -> Self {
            ReadyProbe(Rc::new(f))
        }

        /// Whether the gate is open.
        pub fn is_ready(&self) -> bool {
            (self.0)()
        }
    }

    impl core::fmt::Debug for ReadyProbe {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.debug_struct("ReadyProbe").finish_non_exhaustive()
        }
    }
}

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

struct Conn {
    host: String,
    port: u16,
    phase: ConnPhase,
    connect_span: sc_obs::SpanId,
    tunnel_span: sc_obs::SpanId,
    fetch_span: sc_obs::SpanId,
    route: Route,
    tls: Option<TlsClient>,
    http: HttpParser,
    proxy_http: HttpParser,
    queue: VecDeque<String>,
    current: Option<String>,
    rtt_probe_sent: Option<SimTime>,
}

impl Conn {
    /// Closes whichever of the connection's spans are still open as
    /// failed, with `reason`: a connection dropped mid-phase ends its
    /// phase span rather than leaving it open for the rest of the run.
    fn end_spans(&mut self, now: SimTime, reason: &'static str) {
        for span in [&mut self.connect_span, &mut self.tunnel_span, &mut self.fetch_span] {
            sc_obs::span_end(
                now.as_micros(),
                std::mem::replace(span, sc_obs::SpanId::NONE),
                |f| {
                    f.field("ok", false).field("reason", reason);
                },
            );
        }
    }
}

struct ActiveLoad {
    index: usize,
    started: SimTime,
    span: sc_obs::SpanId,
    /// Deterministic end-to-end trace id minted for this load; carried
    /// on every request this load issues (`Sc-Trace`) so downstream
    /// tiers can parent their spans into this load's tree.
    trace: sc_obs::TraceId,
    pending: usize,
    first_time: bool,
    connections: usize,
    deadline_token: u64,
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
    /// `(host, port, open connection)`, reused within a load: a handful,
    /// found by comparing the borrowed host.
    by_host: Vec<(String, u16, TcpHandle)>,
    pending_dns: FixedMap<u64, (String, u16, String)>,
    dns_spans: FixedMap<u64, sc_obs::SpanId>,
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
    deadline_seq: u64,
    /// An armed [`TIMER_THROTTLE`] belongs to the load with this
    /// deadline token (stale firings for finished loads are ignored).
    throttle_wait_for: Option<u64>,
    /// Dead-mark state per PAC proxy (parallel to the PAC's ordered
    /// fallback list; empty outside PAC policies).
    proxy_dead: Vec<ProxyHealth>,
    /// Armed proxy-connect deadlines: token → the conn it guards.
    connect_deadlines: FixedMap<u64, TcpHandle>,
    connect_seq: u64,
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
            dns_spans: FixedMap::default(),
            next_dns_token: 1,
            content_cache: FixedMap::default(),
            load: None,
            loads_done: 0,
            visited: false,
            browser_started: SimTime::ZERO,
            log,
            deadline_seq: 0,
            throttle_wait_for: None,
            proxy_dead,
            connect_deadlines: FixedMap::default(),
            connect_seq: 0,
        }
    }

    /// Trace context of the in-flight load: its trace id, parented on
    /// the page-load root span. Empty when no load is active.
    fn load_ctx(&self) -> sc_obs::TraceCtx {
        match self.load.as_ref() {
            Some(l) => sc_obs::TraceCtx::new(l.trace, l.span),
            None => sc_obs::TraceCtx::NONE,
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

    fn begin_load(&mut self, ctx: &mut Ctx<'_>) {
        let index = self.loads_done;
        self.deadline_seq += 1;
        let deadline_token = 1_000 + self.deadline_seq;
        // The very first load's clock starts at browser launch, so tunnel
        // bootstrap (waited out via the gate) counts into first-time PLT.
        let started = if index == 0 { self.browser_started } else { ctx.now() };
        sc_obs::counter_add("web.loads_started", 1);
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
            sc_obs::TraceCtx::new(trace, sc_obs::SpanId::NONE),
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
            deadline_token,
            proxy_status: None,
            throttle_retries: 0,
            failover_retries: 0,
            throttled: false,
            revalidated: 0,
        });
        ctx.set_timer(self.config.timeout, deadline_token);
        self.fetch(PAGE_HOST, self.config.page_port, "/", ctx);
    }

    /// The open connection to `host:port`, if there is one.
    fn conn_to(&self, host: &str, port: u16) -> Option<TcpHandle> {
        self.by_host.iter().find(|(h, p, _)| h == host && *p == port).map(|&(_, _, conn)| conn)
    }

    /// Requests `path` from `host:port`, opening or reusing a connection.
    fn fetch(&mut self, host: &str, port: u16, path: &str, ctx: &mut Ctx<'_>) {
        if let Some(h) = self.conn_to(host, port) {
            if let Some(conn) = self.conns.get_mut(&h) {
                conn.queue.push_back(path.to_string());
                self.pump_conn(h, ctx);
                return;
            }
        }
        let route = self.route_for(host, ctx.now());
        match route {
            Route::Direct => {
                // Resolve first (the DNS stub returns synchronously on a
                // cache hit — the warm-cache fast path).
                let token = self.next_dns_token;
                self.next_dns_token += 1;
                self.pending_dns
                    .insert(token, (host.to_string(), port, path.to_string()));
                let dns_span = sc_obs::span_start_ctx(
                    ctx.now().as_micros(),
                    sc_obs::Level::Debug,
                    "web",
                    "load",
                    "dns",
                    self.load_ctx(),
                    |f| {
                        f.field("host", host);
                    },
                );
                if !dns_span.is_none() {
                    self.dns_spans.insert(token, dns_span);
                }
                if let Some(res) = self.stub.resolve(host, token, ctx) {
                    self.on_resolved(res.token, res.outcome, ctx);
                } else {
                    ctx.set_timer(DNS_RETRY, TIMER_DNS_RETRY);
                }
            }
            Route::Socks(p) | Route::HttpProxy(p) => {
                let h = ctx.tcp_connect(p);
                self.register_conn(h, host, port, route, path, ctx);
            }
        }
    }

    fn on_resolved(&mut self, token: u64, outcome: ResolveOutcome, ctx: &mut Ctx<'_>) {
        let Some((host, port, path)) = self.pending_dns.remove(&token) else { return };
        if let Some(sp) = self.dns_spans.remove(&token) {
            let ok = matches!(&outcome, ResolveOutcome::Resolved(a) if !a.is_empty());
            sc_obs::span_end(ctx.now().as_micros(), sp, |f| {
                f.field("ok", ok);
            });
        }
        match outcome {
            ResolveOutcome::Resolved(addrs) if !addrs.is_empty() => {
                let h = ctx.tcp_connect(SocketAddr::new(addrs[0], port));
                self.register_conn(h, &host, port, Route::Direct, &path, ctx);
            }
            _ => self.fail_load(ctx),
        }
    }

    fn register_conn(
        &mut self,
        h: TcpHandle,
        host: &str,
        port: u16,
        route: Route,
        path: &str,
        ctx: &mut Ctx<'_>,
    ) {
        sc_obs::counter_add("web.connections_opened", 1);
        let connect_span = sc_obs::span_start_ctx(
            ctx.now().as_micros(),
            sc_obs::Level::Debug,
            "web",
            "load",
            "connect",
            self.load_ctx(),
            |f| {
                f.field("host", host);
            },
        );
        let mut queue = VecDeque::new();
        queue.push_back(path.to_string());
        self.conns.insert(
            h,
            Conn {
                host: host.to_string(),
                port,
                phase: ConnPhase::Connecting,
                connect_span,
                tunnel_span: sc_obs::SpanId::NONE,
                fetch_span: sc_obs::SpanId::NONE,
                route,
                tls: None,
                http: HttpParser::new(),
                proxy_http: HttpParser::new(),
                queue,
                current: None,
                rtt_probe_sent: None,
            },
        );
        match self.by_host.iter_mut().find(|(known, p, _)| known == host && *p == port) {
            Some(entry) => entry.2 = h,
            None => self.by_host.push((host.to_string(), port, h)),
        }
        if let Some(load) = self.load.as_mut() {
            load.connections += 1;
        }
        // Fleet PAC policies guard every proxy connect with a deadline:
        // a crashed proxy drops SYNs silently, and failover must not
        // wait for the load deadline. Single-proxy policies keep the
        // pre-fleet behaviour (and the pre-fleet event schedule).
        if matches!(route, Route::HttpProxy(_)) && self.pac_fleet_size() >= 2 {
            self.connect_seq += 1;
            let token = TIMER_CONNECT_BASE + self.connect_seq;
            self.connect_deadlines.insert(token, h);
            ctx.set_timer(PROXY_CONNECT_TIMEOUT, token);
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
    fn mark_proxy_up(&mut self, addr: SocketAddr, ctx: &mut Ctx<'_>) {
        if self.pac_fleet_size() < 2 {
            return;
        }
        sc_obs::counter_add("web.proxy_connect_ok", 1);
        emit_fleet(ctx.now(), sc_obs::Level::Debug, "connect_ok", |f| {
            f.field("proxy", addr);
        });
        let Some(idx) = self.pac_proxy_index(addr) else { return };
        if self.proxy_dead[idx].fail_level > 0 {
            self.proxy_dead[idx] = ProxyHealth::default();
            sc_obs::counter_add("web.proxy_recoveries", 1);
            sc_obs::ts_bump(ctx.now().as_micros(), "web.proxy_recoveries", 1);
            emit_fleet(ctx.now(), sc_obs::Level::Info, "proxy_recovered", |f| {
                f.field("proxy", addr);
            });
        }
    }

    /// Dead-marks `addr` after a failed connect: exponential re-probe
    /// backoff, mirroring the fleet tier's own peer dead-marking.
    fn mark_proxy_dead(&mut self, addr: SocketAddr, reason: &str, ctx: &mut Ctx<'_>) {
        sc_obs::counter_add("web.proxy_connect_fail", 1);
        emit_fleet(ctx.now(), sc_obs::Level::Debug, "connect_fail", |f| {
            f.field("proxy", addr).field("reason", reason);
        });
        let Some(idx) = self.pac_proxy_index(addr) else { return };
        let level = self.proxy_dead[idx].fail_level;
        self.proxy_dead[idx].fail_level = level.saturating_add(1);
        let backoff = PROXY_DEAD_BASE
            .saturating_mul(1u64 << level.min(4))
            .clamp(PROXY_DEAD_BASE, PROXY_DEAD_CAP);
        self.proxy_dead[idx].dead_until = ctx.now() + backoff;
        sc_obs::counter_add("web.proxy_dead_marks", 1);
        sc_obs::ts_bump(ctx.now().as_micros(), "web.proxy_dead_marks", 1);
        // The numbers go out as strings, as they always have.
        emit_fleet(ctx.now(), sc_obs::Level::Warn, "proxy_dead", |f| {
            f.field("proxy", addr).field("reason", reason).field("backoff_us", Quoted(backoff.as_micros()));
        });
    }

    /// A proxy-route connect died (refused, reset, or timed out while
    /// still connecting). Under a fleet PAC policy the proxy is
    /// dead-marked and the load replayed through the next candidate;
    /// otherwise (or once retries are exhausted) the load fails.
    fn proxy_conn_failed(&mut self, h: TcpHandle, reason: &'static str, ctx: &mut Ctx<'_>) {
        let addr = match self.conns.get(&h) {
            Some(c) if c.phase == ConnPhase::Connecting => match c.route {
                Route::HttpProxy(p) => Some(p),
                _ => None,
            },
            _ => None,
        };
        let (Some(addr), true) = (addr, self.pac_fleet_size() >= 2) else {
            self.fail_load(ctx);
            return;
        };
        if let Some(mut conn) = self.conns.remove(&h) {
            conn.end_spans(ctx.now(), reason);
            self.by_host.retain(|&(_, _, open)| open != h);
        }
        self.mark_proxy_dead(addr, reason, ctx);
        if !self.proxy_failover_retry(addr, ctx) {
            self.fail_load(ctx);
        }
    }

    /// Replays the in-flight load from scratch through the (new) best
    /// PAC candidate. Bounded per load; the load's deadline timer keeps
    /// running throughout.
    fn proxy_failover_retry(&mut self, from: SocketAddr, ctx: &mut Ctx<'_>) -> bool {
        let Some(load) = self.load.as_mut() else { return false };
        if load.failover_retries >= MAX_FAILOVER_RETRIES {
            return false;
        }
        let attempt = load.failover_retries;
        load.failover_retries += 1;
        load.pending = 1; // the replayed HTML
        sc_obs::counter_add("web.failovers", 1);
        sc_obs::ts_bump(ctx.now().as_micros(), "web.failovers", 1);
        emit_fleet(ctx.now(), sc_obs::Level::Info, "failover", |f| {
            f.field("from", from).field("attempt", Quoted(attempt.into()));
        });
        self.teardown_conns("failover", ctx);
        self.fetch(PAGE_HOST, self.config.page_port, "/", ctx);
        true
    }

    /// The load deadline fired with work still outstanding: dead-mark
    /// every PAC proxy holding a stalled connection so the *next* load
    /// routes around it immediately. A proxy that crashes mid-tunnel
    /// dies silently (no RST in the simulator), so this is the only
    /// signal the browser gets for an already-established connection.
    fn deadline_dead_marks(&mut self, ctx: &mut Ctx<'_>) {
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
            self.mark_proxy_dead(p, "load_deadline", ctx);
        }
    }

    /// Called when a connection's tunnel/TLS is ready or a response
    /// completed: sends the next queued request.
    fn pump_conn(&mut self, h: TcpHandle, ctx: &mut Ctx<'_>) {
        let lctx = self.load_ctx();
        let Some(conn) = self.conns.get_mut(&h) else { return };
        if conn.phase != ConnPhase::Ready || conn.current.is_some() {
            return;
        }
        let Some(path) = conn.queue.pop_front() else { return };
        conn.fetch_span = if path == "\u{0}rtt" {
            sc_obs::SpanId::NONE
        } else {
            sc_obs::span_start_ctx(
                ctx.now().as_micros(),
                sc_obs::Level::Debug,
                "web",
                "load",
                "fetch",
                lctx,
                |f| {
                    f.field("path", &path);
                },
            )
        };
        let req = if path == "\u{0}rtt" {
            conn.rtt_probe_sent = Some(ctx.now());
            HttpRequest::new("HEAD", "/").header("Host", &conn.host).header_fmt(sc_obs::TRACE_HEADER, lctx)
        } else {
            let req = if matches!(conn.route, Route::HttpProxy(_)) && conn.port == 80 {
                // Absolute-form through an HTTP proxy.
                HttpRequest::new("GET", format_args!("http://{}{}", conn.host, path))
            } else {
                HttpRequest::new("GET", &path)
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
            let stale_etag = cached(&self.content_cache, &conn.host, &path)
                .filter(|e| e.expires_at <= ctx.now())
                .and_then(|e| e.etag.as_deref());
            match stale_etag {
                Some(etag) => req.header("If-None-Match", etag),
                None => req,
            }
        };
        conn.current = Some(path);
        match conn.tls.as_mut() {
            Some(tls) => {
                let (head, body) = req.into_parts();
                let record = {
                    let _prof = prof::scope(Subsystem::Crypto);
                    tls.send(&[&head, &body])
                };
                ctx.tcp_send_bytes(h, record);
            }
            None => {
                ctx.tcp_send_bytes(h, req.into_wire());
            }
        }
    }

    fn begin_app_layer(&mut self, h: TcpHandle, ctx: &mut Ctx<'_>) {
        let Some(conn) = self.conns.get_mut(&h) else { return };
        if conn.port == 443 {
            let (tls, hello) = {
                let _prof = prof::scope(Subsystem::Crypto);
                let mut tls = TlsClient::new(&conn.host, self.config.entropy ^ h.0 as u64);
                let hello = tls.start_handshake();
                (tls, hello)
            };
            conn.tls = Some(tls);
            conn.phase = ConnPhase::TlsHandshake;
            ctx.tcp_send_bytes(h, hello);
        } else {
            conn.phase = ConnPhase::Ready;
            let sp = std::mem::replace(&mut conn.tunnel_span, sc_obs::SpanId::NONE);
            sc_obs::span_end(ctx.now().as_micros(), sp, |_| {});
            self.pump_conn(h, ctx);
        }
    }

    fn on_response(&mut self, h: TcpHandle, resp: HttpResponse, ctx: &mut Ctx<'_>) {
        let status = resp.status;
        let (host, path, probe_start) = {
            let Some(conn) = self.conns.get_mut(&h) else { return };
            let path = conn.current.take().unwrap_or_default();
            let sp = std::mem::replace(&mut conn.fetch_span, sc_obs::SpanId::NONE);
            sc_obs::span_end(ctx.now().as_micros(), sp, |f| {
                f.field("status", status);
            });
            (conn.host.clone(), path, conn.rtt_probe_sent.take())
        };
        // RTT probe response?
        if path == "\u{0}rtt" {
            if let Some(sent) = probe_start {
                let rtt = ctx.now() - sent;
                self.finish_load(Some(rtt), ctx);
            }
            return;
        }
        if status >= 400 {
            // A gateway-mode `429`/`503` carrying `Retry-After` is
            // backpressure — an overload shed or an elastic cold-start
            // window — not proxy death: honor the hint and retry within
            // the throttle budget, exactly like the CONNECT path. The
            // proxy is deliberately NOT dead-marked here; dead-marking
            // a member that is warming capacity would route the whole
            // crowd away from it just as it comes good.
            if matches!(status, 429 | 503) {
                let retry_after = resp
                    .header_value("Retry-After")
                    .and_then(|v| v.trim().parse::<u64>().ok());
                if let Some(load) = self.load.as_mut() {
                    load.proxy_status = Some(status);
                    if status == 429 || retry_after.is_some() {
                        load.throttled = true;
                    }
                }
                if let Some(secs) = retry_after {
                    if self.throttle_backoff(secs, ctx) {
                        return;
                    }
                }
            }
            self.fail_load(ctx);
            return;
        }
        let Some(load) = self.load.as_mut() else { return };
        load.pending -= 1;
        let now = ctx.now();
        let ttl = resp
            .max_age_secs()
            .map(SimDuration::from_secs)
            .unwrap_or(DEFAULT_CONTENT_TTL);
        let is_page = path == "/" && host == PAGE_HOST;
        let body = if status == 304 {
            // Our stale copy is still good: renew it and serve from cache
            // without the body having crossed the wire again.
            load.revalidated += 1;
            sc_obs::counter_add("web.revalidated", 1);
            match self.content_cache.get_mut(&host).and_then(|paths| paths.get_mut(&path)) {
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
            match self.content_cache.get_mut(&host) {
                Some(paths) => paths.insert(path, entry),
                None => self.content_cache.entry(host).or_default().insert(path, entry),
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
                to_fetch.push(r);
            }
            if let Some(load) = self.load.as_mut() {
                load.pending += to_fetch.len();
            }
            for r in to_fetch {
                self.fetch(&r.host, self.config.page_port_for(&r.host), &r.path, ctx);
            }
        }
        let done = self.load.as_ref().is_some_and(|l| l.pending == 0);
        if done {
            // Page complete: sample RTT with a HEAD on the main connection.
            if let Some(main) = self.conn_to(PAGE_HOST, self.config.page_port) {
                if self.conns.get(&main).is_some_and(|c| c.phase == ConnPhase::Ready) {
                    if let Some(conn) = self.conns.get_mut(&main) {
                        conn.queue.push_back("\u{0}rtt".to_string());
                    }
                    self.pump_conn(main, ctx);
                    return;
                }
            }
            self.finish_load(None, ctx);
        } else {
            self.pump_conn(h, ctx);
        }
    }

    fn finish_load(&mut self, rtt: Option<SimDuration>, ctx: &mut Ctx<'_>) {
        let Some(load) = self.load.take() else { return };
        let now = ctx.now();
        sc_obs::counter_add("web.loads_ok", 1);
        sc_obs::observe("web.plt_us", (now - load.started).as_micros());
        sc_obs::ts_bump(now.as_micros(), "web.loads_ok", 1);
        // PLT samples carry the load's trace id as an exemplar, so a
        // fired latency alert can point at the worst offending traces.
        sc_obs::ts_record_ex(
            now.as_micros(),
            "web.plt_us",
            (now - load.started).as_micros(),
            load.trace,
        );
        if let Some(rtt) = rtt {
            sc_obs::observe("web.rtt_us", rtt.as_micros());
            sc_obs::ts_record(now.as_micros(), "web.rtt_us", rtt.as_micros());
        }
        sc_obs::span_end(
            now.as_micros(),
            load.span,
            |f| {
                f.field("ok", true).field("connections", load.connections);
            },
        );
        self.log.borrow_mut().push(PageLoadResult {
            index: load.index,
            started: load.started,
            plt: Some(now - load.started),
            first_time: load.first_time,
            rtt,
            failed: false,
            connections: load.connections,
            // A load that overcame a throttle en route keeps the status
            // that stalled it, so the harness can count brownouts that
            // ultimately succeeded.
            proxy_status: if load.throttled { load.proxy_status } else { None },
            throttled: load.throttled,
            revalidated: load.revalidated,
        });
        self.visited = true;
        self.loads_done += 1;
        self.throttle_wait_for = None;
        self.teardown_conns("load_done", ctx);
        self.schedule_next(load.started, ctx);
    }

    fn fail_load(&mut self, ctx: &mut Ctx<'_>) {
        let Some(load) = self.load.take() else { return };
        sc_obs::counter_add("web.loads_failed", 1);
        sc_obs::ts_bump_ex(ctx.now().as_micros(), "web.loads_failed", 1, load.trace);
        sc_obs::span_end(
            ctx.now().as_micros(),
            load.span,
            |f| {
                f.field("ok", false).field("connections", load.connections);
            },
        );
        self.log.borrow_mut().push(PageLoadResult {
            index: load.index,
            started: load.started,
            plt: None,
            first_time: load.first_time,
            rtt: None,
            failed: true,
            connections: load.connections,
            proxy_status: load.proxy_status,
            throttled: load.throttled,
            revalidated: load.revalidated,
        });
        self.visited = true;
        self.loads_done += 1;
        self.throttle_wait_for = None;
        self.teardown_conns("load_failed", ctx);
        self.schedule_next(load.started, ctx);
    }

    /// Honors a proxy `Retry-After` on a `429`/`503`: tears down every
    /// connection, waits `retry_after × 2^attempt` (deterministic —
    /// backoff shape is part of the trace, so no jitter), and re-fetches
    /// the page. Returns `false` when retries are exhausted,
    /// in which case the caller fails the load instead. The load's
    /// deadline timer keeps running throughout, so a throttle wait can
    /// never extend a load past its budget.
    fn throttle_backoff(&mut self, retry_after_secs: u64, ctx: &mut Ctx<'_>) -> bool {
        // A hint from the wire can be any u64; a wait longer than the
        // load's deadline ends at the deadline anyway, so clamp it there
        // before converting to microseconds, which would overflow.
        let max_secs = self.config.timeout.as_micros().div_ceil(1_000_000);
        let Some(load) = self.load.as_mut() else { return false };
        if load.throttle_retries >= MAX_THROTTLE_RETRIES {
            return false;
        }
        let attempt = load.throttle_retries;
        load.throttle_retries += 1;
        load.throttled = true;
        let delay = SimDuration::from_secs(retry_after_secs.min(max_secs).max(1))
            .saturating_mul(1u64 << attempt.min(16));
        // Back off with nothing in flight: the proxy told us to go away,
        // so holding sockets open would just occupy its accept queue.
        let token = load.deadline_token;
        load.pending = 1; // the retried HTML
        sc_obs::counter_add("web.throttled", 1);
        sc_obs::ts_bump(ctx.now().as_micros(), "web.throttled", 1);
        sc_obs::event(
            ctx.now().as_micros(),
            sc_obs::Level::Info,
            "web",
            "browser",
            "throttled",
            |f| {
                f.field("attempt", attempt).field("delay_us", delay.as_micros());
            },
        );
        self.teardown_conns("throttled", ctx);
        self.throttle_wait_for = Some(token);
        ctx.set_timer(delay, TIMER_THROTTLE);
        true
    }

    /// Closes every connection, in handle order, ending the spans of any
    /// caught mid-phase with `reason`.
    fn teardown_conns(&mut self, reason: &'static str, ctx: &mut Ctx<'_>) {
        // Popped, not cleared: the emptied map keeps its node for the
        // next load.
        while let Some((h, mut conn)) = self.conns.pop_first() {
            conn.end_spans(ctx.now(), reason);
            ctx.tcp_close(h);
        }
        self.by_host.clear();
        self.pending_dns.clear();
    }

    fn schedule_next(&mut self, last_start: SimTime, ctx: &mut Ctx<'_>) {
        if self.loads_done >= self.config.loads {
            return;
        }
        let next_at = last_start + self.config.interval;
        let delay = next_at.saturating_since(ctx.now()).clamp(
            SimDuration::from_millis(1),
            self.config.interval,
        );
        ctx.set_timer(delay, TIMER_NEXT_LOAD);
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

impl BrowserConfig {
    fn page_port_for(&self, host: &str) -> u16 {
        // Subresources use the page's scheme; the account host is HTTPS.
        if host == PAGE_HOST {
            self.page_port
        } else {
            443
        }
    }
}

impl App for Browser {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.browser_started = ctx.now();
        self.stub.bind(ctx);
        if self.config.start_delay > SimDuration::ZERO {
            ctx.set_timer(self.config.start_delay, TIMER_RAMP);
            return;
        }
        match &self.gate {
            Some(gate) if !gate.is_ready() => ctx.set_timer(WAIT_POLL, TIMER_WAIT),
            _ => self.begin_load(ctx),
        }
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let _prof = prof::scope(Subsystem::Web);
        match ev {
            AppEvent::TimerFired(TIMER_RAMP) => {
                // Ramp delay elapsed: restart the PLT clock so the
                // stagger does not count into first-time PLT, then go
                // through the normal readiness gate.
                self.browser_started = ctx.now();
                match &self.gate {
                    Some(gate) if !gate.is_ready() => ctx.set_timer(WAIT_POLL, TIMER_WAIT),
                    _ => self.begin_load(ctx),
                }
            }
            AppEvent::TimerFired(TIMER_WAIT) => {
                match &self.gate {
                    Some(gate) if !gate.is_ready() => ctx.set_timer(WAIT_POLL, TIMER_WAIT),
                    _ => self.begin_load(ctx),
                }
            }
            AppEvent::TimerFired(TIMER_DNS_RETRY) => {
                if self.stub.has_pending() && self.load.is_some() {
                    self.stub.retry_pending(ctx);
                    ctx.set_timer(DNS_RETRY, TIMER_DNS_RETRY);
                }
            }
            AppEvent::TimerFired(TIMER_NEXT_LOAD) => {
                if self.load.is_none() && self.loads_done < self.config.loads {
                    self.begin_load(ctx);
                }
            }
            AppEvent::TimerFired(TIMER_THROTTLE) => {
                // Only act if the wait belongs to the load still in
                // flight (deadline tokens are unique per load, so a
                // stale timer from an already-finished load no-ops).
                let current = self.load.as_ref().map(|l| l.deadline_token);
                if current.is_some() && current == self.throttle_wait_for {
                    self.throttle_wait_for = None;
                    self.fetch(PAGE_HOST, self.config.page_port, "/", ctx);
                }
            }
            AppEvent::TimerFired(token) if token >= TIMER_CONNECT_BASE => {
                // Proxy-connect deadline: a crashed proxy drops SYNs
                // silently, so this is where a dead proxy is detected.
                // Stale firings (conn already past Connecting, or gone)
                // no-op.
                if let Some(h) = self.connect_deadlines.remove(&token) {
                    let connecting = self
                        .conns
                        .get(&h)
                        .is_some_and(|c| c.phase == ConnPhase::Connecting);
                    if connecting {
                        ctx.tcp_abort(h);
                        sc_obs::counter_add("web.proxy_connect_timeouts", 1);
                        self.proxy_conn_failed(h, "connect_timeout", ctx);
                    }
                }
            }
            AppEvent::TimerFired(token) if token > 1_000 => {
                // Load deadline.
                if self.load.as_ref().is_some_and(|l| l.deadline_token == token) {
                    self.deadline_dead_marks(ctx);
                    self.fail_load(ctx);
                }
            }
            AppEvent::Udp { socket, payload, .. } => {
                if let Some(res) = self.stub.on_datagram(socket, &payload, ctx.now()) {
                    self.on_resolved(res.token, res.outcome, ctx);
                }
            }
            AppEvent::Tcp(h, tcp_ev) => {
                if !self.conns.contains_key(&h) {
                    return;
                }
                match tcp_ev {
                    TcpEvent::Connected => {
                        if let Some(Route::HttpProxy(p)) = self.conns.get(&h).map(|c| c.route) {
                            self.mark_proxy_up(p, ctx);
                        }
                        let lctx = self.load_ctx();
                        let conn = self.conns.get_mut(&h).expect("checked");
                        let sp = std::mem::replace(&mut conn.connect_span, sc_obs::SpanId::NONE);
                        sc_obs::span_end(ctx.now().as_micros(), sp, |_| {});
                        let via = match conn.route {
                            Route::Direct => "direct",
                            Route::Socks(_) => "socks",
                            Route::HttpProxy(_) => "http_proxy",
                        };
                        conn.tunnel_span = sc_obs::span_start_ctx(
                            ctx.now().as_micros(),
                            sc_obs::Level::Debug,
                            "web",
                            "load",
                            "tunnel",
                            lctx,
                            |f| {
                                f.field("via", via);
                            },
                        );
                        match conn.route {
                            Route::Direct => self.begin_app_layer(h, ctx),
                            Route::Socks(_) => {
                                conn.phase = ConnPhase::SocksGreetSent;
                                ctx.tcp_send_bytes(h, Bytes::from_static(&[5, 1, 0]));
                            }
                            Route::HttpProxy(_) => {
                                if conn.port == 80 {
                                    // Absolute-form proxying, no CONNECT.
                                    conn.phase = ConnPhase::Ready;
                                    let sp = std::mem::replace(
                                        &mut conn.tunnel_span,
                                        sc_obs::SpanId::NONE,
                                    );
                                    sc_obs::span_end(ctx.now().as_micros(), sp, |_| {});
                                    self.pump_conn(h, ctx);
                                } else {
                                    conn.phase = ConnPhase::ProxyConnectSent;
                                    let authority = format_args!("{}:{}", conn.host, conn.port);
                                    let req = HttpRequest::new("CONNECT", authority)
                                        .header("Host", &conn.host)
                                        .header_fmt(sc_obs::TRACE_HEADER, lctx.with_parent(conn.tunnel_span));
                                    ctx.tcp_send_bytes(h, req.into_wire());
                                }
                            }
                        }
                    }
                    TcpEvent::DataReceived => {
                        let data = ctx.tcp_recv_all(h);
                        self.on_bytes(h, data, ctx);
                    }
                    TcpEvent::ConnectFailed | TcpEvent::Reset => {
                        let connecting = self
                            .conns
                            .get(&h)
                            .is_some_and(|c| c.phase == ConnPhase::Connecting);
                        if connecting {
                            let reason = if matches!(tcp_ev, TcpEvent::ConnectFailed) {
                                "connect_refused"
                            } else {
                                "connect_reset"
                            };
                            self.proxy_conn_failed(h, reason, ctx);
                        } else {
                            self.fail_load(ctx);
                        }
                    }
                    TcpEvent::PeerClosed => {
                        // Server closed (keep-alive expiry): drop the conn;
                        // outstanding work fails the load.
                        let had_work = self
                            .conns
                            .get(&h)
                            .is_some_and(|c| c.current.is_some() || !c.queue.is_empty());
                        if let Some(mut conn) = self.conns.remove(&h) {
                            conn.end_spans(ctx.now(), "peer_closed");
                            self.by_host.retain(|&(_, _, open)| open != h);
                        }
                        if had_work {
                            self.fail_load(ctx);
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

impl Browser {
    fn on_bytes(&mut self, h: TcpHandle, data: Bytes, ctx: &mut Ctx<'_>) {
        let Some(conn) = self.conns.get_mut(&h) else { return };
        // What of `data` belongs to the TLS / HTTP stream: all of it, once
        // the proxy preliminaries are over.
        let mut stream = data.clone();
        match conn.phase {
            ConnPhase::SocksGreetSent => {
                if data.starts_with(&[5, 0]) {
                    conn.phase = ConnPhase::SocksConnectSent;
                    let host = conn.host.as_bytes();
                    let mut req = BytesMut::with_capacity(7 + host.len());
                    req.put_slice(&[5, 1, 0, 3, host.len() as u8]);
                    req.put_slice(host);
                    req.put_u16(conn.port);
                    ctx.tcp_send_bytes(h, req.freeze());
                } else {
                    self.fail_load(ctx);
                }
                return;
            }
            ConnPhase::SocksConnectSent => {
                if data.len() >= 10 && data[0] == 5 && data[1] == 0 {
                    stream = data.slice(10..);
                    self.begin_app_layer(h, ctx);
                    if stream.is_empty() {
                        return;
                    }
                } else {
                    self.fail_load(ctx);
                    return;
                }
            }
            ConnPhase::ProxyConnectSent => {
                let Ok(msgs) = conn.proxy_http.push_bytes(data) else {
                    self.fail_load(ctx);
                    return;
                };
                let mut ok = false;
                for m in msgs {
                    if let HttpMessage::Response(r) = m {
                        if r.status == 200 {
                            ok = true;
                        } else {
                            // The proxy refused or degraded: keep the
                            // status so the harness can tell a 403
                            // (policy) from a 429 (throttled) from a
                            // 502/503 (upstream dark or shed).
                            let retry_after = r
                                .header_value("Retry-After")
                                .and_then(|v| v.trim().parse::<u64>().ok());
                            if let Some(load) = self.load.as_mut() {
                                load.proxy_status = Some(r.status);
                                if r.status == 429 || retry_after.is_some() {
                                    load.throttled = true;
                                }
                            }
                            sc_obs::counter_add("web.proxy_errors", 1);
                            sc_obs::ts_bump(ctx.now().as_micros(), "web.proxy_errors", 1);
                            sc_obs::event(
                                ctx.now().as_micros(),
                                sc_obs::Level::Warn,
                                "web",
                                "browser",
                                "proxy_error",
                                |f| {
                                    f.field("status", r.status);
                                },
                            );
                            if matches!(r.status, 429 | 503) && retry_after.is_some() {
                                if let Some(secs) = retry_after {
                                    if self.throttle_backoff(secs, ctx) {
                                        return;
                                    }
                                }
                            }
                            self.fail_load(ctx);
                            return;
                        }
                    }
                }
                if ok {
                    self.begin_app_layer(h, ctx);
                }
                return;
            }
            _ => {}
        }

        // TLS / plain processing.
        let Some(conn) = self.conns.get_mut(&h) else { return };
        let plaintext = match conn.tls.as_mut() {
            Some(tls) => {
                let out = {
                    let _prof = prof::scope(Subsystem::Crypto);
                    tls.on_bytes(&stream)
                };
                let Ok(out) = out else {
                    self.fail_load(ctx);
                    return;
                };
                if !out.wire.is_empty() {
                    ctx.tcp_send_bytes(h, out.wire);
                }
                if out.handshake_complete {
                    conn.phase = ConnPhase::Ready;
                    let sp = std::mem::replace(&mut conn.tunnel_span, sc_obs::SpanId::NONE);
                    sc_obs::span_end(ctx.now().as_micros(), sp, |_| {});
                    self.pump_conn(h, ctx);
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
            self.fail_load(ctx);
            return;
        };
        for m in msgs {
            if let HttpMessage::Response(resp) = m {
                self.on_response(h, resp, ctx);
            }
        }
    }
}
