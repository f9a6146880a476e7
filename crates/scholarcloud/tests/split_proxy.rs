//! End-to-end tests of the ScholarCloud split proxy: whitelisted fetches,
//! refusal of off-whitelist targets, probe decoys, and scheme rotation.

use std::cell::RefCell;
use std::rc::Rc;

use sc_core::{DomesticProxy, RemoteProxy, ScConfig};
use sc_simnet::prelude::*;
use sc_tunnels::names::NameMap;

const CLIENT: Addr = Addr::new(10, 0, 0, 1);
const DOMESTIC: Addr = Addr::new(10, 1, 0, 1);
const REMOTE: Addr = Addr::new(99, 0, 0, 40);
const WEB: Addr = Addr::new(99, 2, 0, 1);

fn topology(seed: u64) -> (Sim, NodeId) {
    let mut sim = Sim::new(seed);
    let client = sim.add_node("client", CLIENT);
    let cernet = sim.add_node("cernet", Addr::new(10, 0, 0, 254));
    let domestic = sim.add_node("domestic-proxy", DOMESTIC);
    let border = sim.add_node("border", Addr::new(172, 16, 0, 1));
    let us = sim.add_node("us", Addr::new(99, 0, 0, 254));
    let remote = sim.add_node("remote-proxy", REMOTE);
    let web = sim.add_node("web", WEB);
    let lan = LinkConfig::with_delay(SimDuration::from_millis(2));
    sim.add_link(client, cernet, lan);
    sim.add_link(domestic, cernet, lan);
    sim.add_link(cernet, border, LinkConfig::with_delay(SimDuration::from_millis(5)));
    sim.add_link(border, us, LinkConfig::with_delay(SimDuration::from_millis(60)));
    sim.add_link(us, remote, lan);
    sim.add_link(us, web, lan);
    sim.compute_routes();
    (sim, client)
}

fn config() -> ScConfig {
    let mut cfg = ScConfig::new(DOMESTIC, REMOTE);
    cfg.whitelist = vec!["scholar.google.com".into()];
    cfg
}

fn names() -> NameMap {
    NameMap::new([("scholar.google.com", WEB)])
}

struct WebServer;
impl App for WebServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(80);
        ctx.tcp_listen(443);
    }
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        if let AppEvent::Tcp(h, TcpEvent::DataReceived) = ev {
            let data = ctx.tcp_recv_all(h);
            if data.windows(4).any(|w| w == b"\r\n\r\n") {
                ctx.tcp_send(h, b"HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\nscholar");
            }
        }
    }
}

#[derive(Default)]
struct FetchLog {
    response: Vec<u8>,
    connect_ok: bool,
    refused: bool,
    failed: bool,
    /// Status code of the proxy's CONNECT answer (200, 403, 502, 503…).
    status: Option<u16>,
    /// When the CONNECT answer arrived.
    answered_at: Option<SimTime>,
}

/// Speaks HTTP-proxy to the domestic proxy: CONNECT, then a request inside
/// the tunnel (standing in for TLS bytes; the proxies treat port-443
/// payloads as opaque either way). `start_delay` postpones the CONNECT —
/// the resilience tests use it to arrive after probes have already judged
/// the remote pool.
struct ProxyFetcher {
    proxy: SocketAddr,
    target: String,
    port: u16,
    start_delay: SimDuration,
    log: Rc<RefCell<FetchLog>>,
    conn: Option<TcpHandle>,
}

impl App for ProxyFetcher {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.start_delay == SimDuration::ZERO {
            self.conn = Some(ctx.tcp_connect(self.proxy));
        } else {
            ctx.set_timer(self.start_delay, 0);
        }
    }
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        if let AppEvent::TimerFired(_) = ev {
            if self.conn.is_none() {
                self.conn = Some(ctx.tcp_connect(self.proxy));
            }
            return;
        }
        let Some(h) = self.conn else { return };
        match ev {
            AppEvent::Tcp(eh, TcpEvent::Connected) if eh == h => {
                let req = format!(
                    "CONNECT {}:{} HTTP/1.1\r\nHost: {}\r\n\r\n",
                    self.target, self.port, self.target
                );
                ctx.tcp_send(h, req.as_bytes());
            }
            AppEvent::Tcp(eh, TcpEvent::DataReceived) if eh == h => {
                let data = ctx.tcp_recv_all(h);
                let mut log = self.log.borrow_mut();
                if !log.connect_ok {
                    let text = String::from_utf8_lossy(&data);
                    log.status = text
                        .strip_prefix("HTTP/1.1 ")
                        .and_then(|r| r.get(..3))
                        .and_then(|c| c.parse().ok());
                    log.answered_at = Some(ctx.now());
                    if text.starts_with("HTTP/1.1 200") {
                        log.connect_ok = true;
                        drop(log);
                        ctx.tcp_send(h, b"GET /scholar HTTP/1.1\r\nHost: scholar.google.com\r\n\r\n");
                    } else {
                        log.refused = true;
                    }
                } else {
                    log.response.extend_from_slice(&data);
                }
            }
            AppEvent::Tcp(eh, TcpEvent::ConnectFailed | TcpEvent::Reset) if eh == h => {
                self.log.borrow_mut().failed = true;
            }
            _ => {}
        }
    }
}

fn install_scholarcloud(sim: &mut Sim, cfg: &ScConfig) {
    let dnode = sim.node_by_addr(DOMESTIC).unwrap();
    sim.install_app(dnode, Box::new(DomesticProxy::new(cfg.clone())));
    let rnode = sim.node_by_addr(REMOTE).unwrap();
    sim.install_app(rnode, Box::new(RemoteProxy::new(cfg.clone(), names())));
    let wnode = sim.node_by_addr(WEB).unwrap();
    sim.install_app(wnode, Box::new(WebServer));
}

#[test]
fn whitelisted_fetch_succeeds_through_split_proxy() {
    let (mut sim, client) = topology(7);
    let cfg = config();
    install_scholarcloud(&mut sim, &cfg);
    let log = Rc::new(RefCell::new(FetchLog::default()));
    sim.install_app(
        client,
        Box::new(ProxyFetcher {
            proxy: cfg.domestic,
            target: "scholar.google.com".into(),
            port: 443,
            start_delay: SimDuration::ZERO,
            log: log.clone(),
            conn: None,
        }),
    );
    sim.run_for(SimDuration::from_secs(20));
    let log = log.borrow();
    assert!(log.connect_ok, "CONNECT should be accepted");
    let text = String::from_utf8_lossy(&log.response);
    assert!(text.contains("200 OK") && text.ends_with("scholar"), "got {text:?}");
}

#[test]
fn off_whitelist_connect_is_refused() {
    let (mut sim, client) = topology(8);
    let cfg = config();
    install_scholarcloud(&mut sim, &cfg);
    let log = Rc::new(RefCell::new(FetchLog::default()));
    sim.install_app(
        client,
        Box::new(ProxyFetcher {
            proxy: cfg.domestic,
            target: "facebook.example".into(),
            port: 443,
            start_delay: SimDuration::ZERO,
            log: log.clone(),
            conn: None,
        }),
    );
    sim.run_for(SimDuration::from_secs(10));
    assert!(log.borrow().refused, "non-whitelisted domain must get 403");
    assert!(!log.borrow().connect_ok);
    assert_eq!(log.borrow().status, Some(403), "refusal must be a 403, not a generic error");
}

#[test]
fn dead_remote_surfaces_502_after_retries() {
    const REMOTE2: Addr = Addr::new(99, 0, 0, 41);
    let (mut sim, client) = topology(21);
    // Two remote VMs, neither running the proxy: every connect attempt
    // dies, and with two candidates the retry budget (3 attempts) runs
    // out before either breaker (threshold 2) can fence its remote. The
    // browser must see a 502 — a distinguishable upstream failure, not a
    // hang or a 403. (A *single* dead remote trips its breaker first and
    // surfaces 503 instead — covered below.)
    let us = sim.node_by_addr(Addr::new(99, 0, 0, 254)).unwrap();
    let remote2 = sim.add_node("remote-proxy-2", REMOTE2);
    sim.add_link(us, remote2, LinkConfig::with_delay(SimDuration::from_millis(2)));
    sim.compute_routes();
    let mut cfg = ScConfig::new(DOMESTIC, REMOTE).with_remotes(&[REMOTE, REMOTE2]);
    cfg.whitelist = vec!["scholar.google.com".into()];
    let dnode = sim.node_by_addr(DOMESTIC).unwrap();
    sim.install_app(dnode, Box::new(DomesticProxy::new(cfg.clone())));
    let log = Rc::new(RefCell::new(FetchLog::default()));
    sim.install_app(
        client,
        Box::new(ProxyFetcher {
            proxy: cfg.domestic,
            target: "scholar.google.com".into(),
            port: 443,
            start_delay: SimDuration::ZERO,
            log: log.clone(),
            conn: None,
        }),
    );
    sim.run_for(SimDuration::from_secs(15));
    let log = log.borrow();
    assert!(!log.connect_ok);
    assert_eq!(log.status, Some(502), "exhausted retries must surface as 502");
}

#[test]
fn all_dark_pool_fails_fast_with_503() {
    let (mut sim, client) = topology(22);
    let cfg = config();
    let dnode = sim.node_by_addr(DOMESTIC).unwrap();
    sim.install_app(dnode, Box::new(DomesticProxy::new(cfg.clone())));
    // Give the health probes time to fail twice and open the breaker for
    // the (dead) remote, then CONNECT: with no pickable upstream the
    // request is parked briefly and answered 503 — graceful degradation
    // instead of burning the retry budget per request.
    let start_delay = SimDuration::from_secs(6);
    let log = Rc::new(RefCell::new(FetchLog::default()));
    sim.install_app(
        client,
        Box::new(ProxyFetcher {
            proxy: cfg.domestic,
            target: "scholar.google.com".into(),
            port: 443,
            start_delay,
            log: log.clone(),
            conn: None,
        }),
    );
    sim.run_for(SimDuration::from_secs(15));
    let log = log.borrow();
    assert!(!log.connect_ok);
    assert_eq!(log.status, Some(503), "all-dark pool must answer 503");
    let answered = log.answered_at.expect("CONNECT must be answered");
    let waited = answered - (SimTime::ZERO + start_delay);
    assert!(
        waited < SimDuration::from_secs(4),
        "503 must fail fast (queue_fail_after + slack), waited {waited}"
    );
}

#[test]
fn dead_primary_fails_over_to_live_backup() {
    const REMOTE2: Addr = Addr::new(99, 0, 0, 41);
    let (mut sim, client) = topology(23);
    // Second remote VM next to the (dead) primary; only it runs the proxy.
    let us = sim.node_by_addr(Addr::new(99, 0, 0, 254)).unwrap();
    let remote2 = sim.add_node("remote-proxy-2", REMOTE2);
    sim.add_link(us, remote2, LinkConfig::with_delay(SimDuration::from_millis(2)));
    sim.compute_routes();
    let mut cfg = ScConfig::new(DOMESTIC, REMOTE).with_remotes(&[REMOTE, REMOTE2]);
    cfg.whitelist = vec!["scholar.google.com".into()];
    let dnode = sim.node_by_addr(DOMESTIC).unwrap();
    sim.install_app(dnode, Box::new(DomesticProxy::new(cfg.clone())));
    sim.install_app(remote2, Box::new(RemoteProxy::new(cfg.clone(), names())));
    let wnode = sim.node_by_addr(WEB).unwrap();
    sim.install_app(wnode, Box::new(WebServer));
    let log = Rc::new(RefCell::new(FetchLog::default()));
    sim.install_app(
        client,
        Box::new(ProxyFetcher {
            proxy: cfg.domestic,
            target: "scholar.google.com".into(),
            port: 443,
            start_delay: SimDuration::ZERO,
            log: log.clone(),
            conn: None,
        }),
    );
    sim.run_for(SimDuration::from_secs(20));
    let log = log.borrow();
    assert!(log.connect_ok, "failover to the live backup must succeed the CONNECT");
    let text = String::from_utf8_lossy(&log.response);
    assert!(text.ends_with("scholar"), "fetch through the backup remote, got {text:?}");
}

#[test]
fn plain_http_absolute_form_is_tunneled() {
    struct PlainFetcher {
        proxy: SocketAddr,
        log: Rc<RefCell<FetchLog>>,
        conn: Option<TcpHandle>,
    }
    impl App for PlainFetcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.conn = Some(ctx.tcp_connect(self.proxy));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            let Some(h) = self.conn else { return };
            match ev {
                AppEvent::Tcp(eh, TcpEvent::Connected) if eh == h => {
                    ctx.tcp_send(
                        h,
                        b"GET http://scholar.google.com/citations HTTP/1.1\r\nHost: scholar.google.com\r\n\r\n",
                    );
                }
                AppEvent::Tcp(eh, TcpEvent::DataReceived) if eh == h => {
                    let data = ctx.tcp_recv_all(h);
                    self.log.borrow_mut().response.extend_from_slice(&data);
                }
                _ => {}
            }
        }
    }
    let (mut sim, client) = topology(9);
    let cfg = config();
    install_scholarcloud(&mut sim, &cfg);
    let log = Rc::new(RefCell::new(FetchLog::default()));
    sim.install_app(
        client,
        Box::new(PlainFetcher { proxy: cfg.domestic, log: log.clone(), conn: None }),
    );
    sim.run_for(SimDuration::from_secs(20));
    let text = String::from_utf8_lossy(&log.borrow().response).to_string();
    assert!(text.contains("200 OK"), "got {text:?}");
}

#[test]
fn garbage_gets_the_decoy() {
    struct Garbage {
        remote: SocketAddr,
        got: Rc<RefCell<Vec<u8>>>,
        conn: Option<TcpHandle>,
    }
    impl App for Garbage {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.conn = Some(ctx.tcp_connect(self.remote));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            let Some(h) = self.conn else { return };
            match ev {
                AppEvent::Tcp(eh, TcpEvent::Connected) if eh == h => {
                    ctx.tcp_send(h, &[0xde; 48]);
                }
                AppEvent::Tcp(eh, TcpEvent::DataReceived) if eh == h => {
                    let data = ctx.tcp_recv_all(h);
                    self.got.borrow_mut().extend_from_slice(&data);
                }
                _ => {}
            }
        }
    }
    let (mut sim, client) = topology(10);
    let cfg = config();
    install_scholarcloud(&mut sim, &cfg);
    let got = Rc::new(RefCell::new(Vec::new()));
    sim.install_app(
        client,
        Box::new(Garbage { remote: cfg.remotes[0], got: got.clone(), conn: None }),
    );
    sim.run_for(SimDuration::from_secs(10));
    let got = got.borrow();
    assert!(
        got.starts_with(b"HTTP/1.1 400"),
        "prober must see a web server, got {:?}",
        String::from_utf8_lossy(&got)
    );
}

#[test]
fn scheme_rotation_keeps_service_working() {
    let (mut sim, client) = topology(11);
    let cfg = config();
    install_scholarcloud(&mut sim, &cfg);
    // First fetch on the initial scheme.
    let log1 = Rc::new(RefCell::new(FetchLog::default()));
    sim.install_app(
        client,
        Box::new(ProxyFetcher {
            proxy: cfg.domestic,
            target: "scholar.google.com".into(),
            port: 443,
            start_delay: SimDuration::ZERO,
            log: log1.clone(),
            conn: None,
        }),
    );
    sim.run_for(SimDuration::from_secs(10));
    assert!(log1.borrow().connect_ok);
    // Rotate and fetch again: both proxies share the SchemeHandle, so no
    // redeploy is needed — the paper's agility property.
    let new_scheme = cfg.scheme.rotate();
    assert_ne!(new_scheme, sc_crypto::BlindingScheme::ByteMap);
    let log2 = Rc::new(RefCell::new(FetchLog::default()));
    sim.install_app(
        client,
        Box::new(ProxyFetcher {
            proxy: cfg.domestic,
            target: "scholar.google.com".into(),
            port: 443,
            start_delay: SimDuration::ZERO,
            log: log2.clone(),
            conn: None,
        }),
    );
    sim.run_for(SimDuration::from_secs(10));
    let text = String::from_utf8_lossy(&log2.borrow().response).to_string();
    assert!(text.ends_with("scholar"), "after rotation: {text:?}");
}

/// Speaks the inter-proxy protocol to the remote by hand: connects after
/// `start_delay`, sends each of `segments` `gap` after the one before it
/// (so each arrives as a segment of its own), and keeps what comes back.
struct PreambleSender {
    remote: SocketAddr,
    segments: Vec<Vec<u8>>,
    start_delay: SimDuration,
    gap: SimDuration,
    got: Rc<RefCell<Vec<u8>>>,
    conn: Option<TcpHandle>,
}

impl PreambleSender {
    fn new(remote: SocketAddr, segments: Vec<Vec<u8>>, start_delay: SimDuration) -> Self {
        let got = Rc::new(RefCell::new(Vec::new()));
        PreambleSender { remote, segments, start_delay, gap: SimDuration::from_millis(500), got, conn: None }
    }

    fn send_next(&mut self, h: TcpHandle, ctx: &mut Ctx<'_>) {
        if self.segments.is_empty() {
            return;
        }
        let segment = self.segments.remove(0);
        ctx.tcp_send(h, &segment);
        if !self.segments.is_empty() {
            ctx.set_timer(self.gap, 1);
        }
    }
}

impl App for PreambleSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start_delay, 0);
    }
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        match ev {
            AppEvent::TimerFired(_) => match self.conn {
                None => self.conn = Some(ctx.tcp_connect(self.remote)),
                Some(h) => self.send_next(h, ctx),
            },
            AppEvent::Tcp(h, TcpEvent::Connected) => self.send_next(h, ctx),
            AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                let data = ctx.tcp_recv_all(h);
                self.got.borrow_mut().extend_from_slice(&data);
            }
            _ => {}
        }
    }
}

/// What the domestic proxy sends for one HTTPS stream, as two pieces —
/// the cover preamble, then the blinded stream header and first request —
/// and the codec that reads the remote's answer.
fn tunnel_open(cfg: &ScConfig, nonce: u64) -> (Vec<u8>, Vec<u8>, sc_core::StreamCodec) {
    let hello = sc_core::Hello { scheme: cfg.scheme.get(), nonce, generation: cfg.scheme.generation() };
    let mut preamble = String::new();
    hello.encode_into(&sc_crypto::hmac::HmacKey::new(&cfg.secret), "cdn.front.example", &mut preamble);
    let (mut up, down) = sc_core::StreamCodec::pair(&cfg.secret, &hello, false);
    let header = sc_core::StreamHeader {
        is_tls: true,
        trace: 0,
        parent: 0,
        target: sc_netproto::socks::TargetAddr::Domain("scholar.google.com".into(), 443),
    };
    let mut stream = header.encode();
    stream.extend_from_slice(b"GET /scholar HTTP/1.1\r\nHost: scholar.google.com\r\n\r\n");
    up.encode(&mut stream);
    (preamble.into_bytes(), stream, down)
}

#[test]
fn a_preamble_whose_stream_header_comes_in_a_later_segment_is_relayed() {
    let (mut sim, client) = topology(12);
    let cfg = config();
    install_scholarcloud(&mut sim, &cfg);
    let (preamble, stream, mut down) = tunnel_open(&cfg, 0x5eed);
    let sender = PreambleSender::new(cfg.remotes[0], vec![preamble, stream], SimDuration::from_millis(1));
    let got = sender.got.clone();
    sim.install_app(client, Box::new(sender));
    sim.run_for(SimDuration::from_secs(10));
    let mut reply = got.borrow().clone();
    assert!(!reply.starts_with(b"HTTP/1.1 400"), "a genuine split preamble was decoyed");
    down.decode(&mut reply);
    assert!(reply.ends_with(b"scholar"), "got {:?}", String::from_utf8_lossy(&reply));
}

#[test]
fn a_replayed_preamble_is_decoyed_however_it_is_cut() {
    let (mut sim, client) = topology(13);
    let cfg = config();
    install_scholarcloud(&mut sim, &cfg);
    let (preamble, stream, mut down) = tunnel_open(&cfg, 0xfeed);
    let whole = [preamble.clone(), stream.clone()].concat();
    // The genuine connection, then a capture of it replayed whole, then
    // replayed in the two pieces.
    let senders = [
        PreambleSender::new(cfg.remotes[0], vec![whole.clone()], SimDuration::from_millis(1)),
        PreambleSender::new(cfg.remotes[0], vec![whole], SimDuration::from_secs(3)),
        PreambleSender::new(cfg.remotes[0], vec![preamble, stream], SimDuration::from_secs(5)),
    ];
    let got: Vec<_> = senders.iter().map(|s| s.got.clone()).collect();
    for sender in senders {
        sim.install_app(client, Box::new(sender));
    }
    sim.run_for(SimDuration::from_secs(10));
    let mut reply = got[0].borrow().clone();
    down.decode(&mut reply);
    assert!(reply.ends_with(b"scholar"), "got {:?}", String::from_utf8_lossy(&reply));
    for replay in &got[1..] {
        let replay = replay.borrow();
        assert!(replay.starts_with(b"HTTP/1.1 400"), "replay answered {:?}", String::from_utf8_lossy(&replay));
    }
}
