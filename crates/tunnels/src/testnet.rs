//! A small world for the tunnels' unit tests: a client one border link
//! away from the US side, where the Shadowsocks remote, the Tor bridge,
//! relays and directory, and a web server sit; and the apps that drive
//! sessions through it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use sc_netproto::socks::TargetAddr;
use sc_simnet::prelude::*;

use crate::names::NameMap;
use crate::status::TunnelStatus;
use crate::tor::{DirectoryServer, MeekGateway, OrRelay, TorConfig, DIR_PORT, MEEK_PORT, OR_PORT, TOR_SOCKS_PORT};

pub(crate) const CLIENT: Addr = Addr::new(10, 0, 0, 1);
pub(crate) const SS_SERVER: Addr = Addr::new(99, 0, 0, 11);
const BRIDGE: Addr = Addr::new(99, 0, 0, 20);
const MIDDLE: Addr = Addr::new(99, 0, 0, 21);
pub(crate) const EXIT: Addr = Addr::new(99, 0, 0, 22);
const DIRECTORY: Addr = Addr::new(99, 0, 0, 30);
pub(crate) const WEB: Addr = Addr::new(99, 2, 0, 1);

/// Every node of the world, linked and routed, with no app installed.
pub(crate) fn world(seed: u64) -> Sim {
    let mut sim = Sim::new(seed);
    let client = sim.add_node("client", CLIENT);
    let border = sim.add_node("border", Addr::new(172, 16, 0, 1));
    let us = sim.add_node("us-router", Addr::new(99, 0, 0, 254));
    sim.add_link(client, border, LinkConfig::with_delay(SimDuration::from_millis(5)));
    sim.add_link(border, us, LinkConfig::with_delay(SimDuration::from_millis(60)));
    for (name, addr) in
        [("ss", SS_SERVER), ("bridge", BRIDGE), ("middle", MIDDLE), ("exit", EXIT), ("dir", DIRECTORY), ("web", WEB)]
    {
        let node = sim.add_node(name, addr);
        sim.add_link(us, node, LinkConfig::with_delay(SimDuration::from_millis(2)));
    }
    sim.compute_routes();
    sim
}

/// The uncensored DNS view: `web.example` is the web server.
pub(crate) fn names() -> NameMap {
    NameMap::new([("web.example", WEB)])
}

pub(crate) fn install(sim: &mut Sim, addr: Addr, app: impl App) {
    let node = sim.node_by_addr(addr).expect("a node of the world");
    sim.install_app(node, Box::new(app));
}

/// The installed app of type `T` on the node at `addr`.
pub(crate) fn app<T: App>(sim: &Sim, addr: Addr) -> &T {
    let node = sim.node(sim.node_by_addr(addr).expect("a node of the world"));
    node.apps
        .iter()
        .flatten()
        .find_map(|app| (&**app as &dyn std::any::Any).downcast_ref::<T>())
        .expect("the app is installed")
}

/// The Tor network (bridge with its meek gateway, middle, exit and
/// directory), and the config a client needs to use it.
pub(crate) fn install_tor_network(sim: &mut Sim) -> TorConfig {
    install(sim, BRIDGE, OrRelay::new(OR_PORT, 100, NameMap::default()));
    install(sim, BRIDGE, MeekGateway::new(101));
    install(sim, MIDDLE, OrRelay::new(OR_PORT, 102, NameMap::default()));
    install(sim, EXIT, OrRelay::new(OR_PORT, 103, names()));
    install(sim, DIRECTORY, DirectoryServer::new());
    TorConfig {
        directory: SocketAddr::new(DIRECTORY, DIR_PORT),
        bridge: SocketAddr::new(BRIDGE, MEEK_PORT),
        front_domain: "ajax.cdn-front.example".into(),
        middle: SocketAddr::new(MIDDLE, OR_PORT),
        exit: SocketAddr::new(EXIT, OR_PORT),
        socks_port: TOR_SOCKS_PORT,
    }
}

/// What the web server saw, in order: the connections it accepted,
/// those whose peer closed, and what each one sent.
#[derive(Default)]
pub(crate) struct WebLog {
    pub(crate) accepted: Vec<TcpHandle>,
    pub(crate) closed: Vec<TcpHandle>,
    pub(crate) received: BTreeMap<TcpHandle, Vec<u8>>,
}

/// Port 80 of [`WEB`]: answers every request with `hello` if `answer`,
/// else holds it.
pub(crate) struct WebServer {
    pub(crate) answer: bool,
    pub(crate) log: Rc<RefCell<WebLog>>,
}

impl App for WebServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(80);
    }
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let AppEvent::Tcp(h, ev) = ev else { return };
        match ev {
            TcpEvent::Accepted { .. } => self.log.borrow_mut().accepted.push(h),
            TcpEvent::DataReceived => {
                let mut log = self.log.borrow_mut();
                let request = log.received.entry(h).or_default();
                request.extend_from_slice(&ctx.tcp_recv_all(h));
                if self.answer && request.ends_with(b"\r\n\r\n") {
                    ctx.tcp_send(h, b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello");
                }
            }
            TcpEvent::PeerClosed => {
                self.log.borrow_mut().closed.push(h);
                ctx.tcp_close(h);
            }
            _ => {}
        }
    }
}

/// The request every session sends.
pub(crate) const REQUEST: &[u8] = b"GET / HTTP/1.1\r\nHost: web.example\r\n\r\n";

/// A session's bytes: a greeting offering the one auth `method`, a
/// CONNECT to web.example:80 (from byte 3) and [`REQUEST`] (from byte 21).
pub(crate) fn socks_wire(method: u8) -> Vec<u8> {
    let mut wire = vec![5, 1, method, 5, 1, 0];
    wire.extend(TargetAddr::Domain("web.example".into(), 80).encode());
    wire.extend_from_slice(REQUEST);
    wire
}

/// How long a cut session waits before its second write.
const CUT_GAP: SimDuration = SimDuration::from_millis(50);

/// Opens `sessions` SOCKS sessions at once to the local proxy on `port`,
/// once `ready` is up (or at start). Each sends its [`socks_wire`] in one
/// segment, or cut in two writes [`CUT_GAP`] apart. A session closes when
/// its response arrives or the proxy closes it.
pub(crate) struct SocksSessions {
    pub(crate) port: u16,
    pub(crate) sessions: usize,
    pub(crate) method: u8,
    pub(crate) ready: Option<TunnelStatus>,
    pub(crate) cut: Option<usize>,
}

impl SocksSessions {
    fn open(&self, ctx: &mut Ctx<'_>) {
        let proxy = SocketAddr::new(ctx.addr(), self.port);
        for _ in 0..self.sessions {
            ctx.tcp_connect(proxy);
        }
    }
}

impl App for SocksSessions {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        match self.ready {
            None => self.open(ctx),
            Some(_) => ctx.set_timer(SimDuration::ZERO, 0),
        }
    }
    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        match ev {
            AppEvent::TimerFired(0) if self.ready.as_ref().is_some_and(TunnelStatus::is_up) => self.open(ctx),
            AppEvent::TimerFired(0) => ctx.set_timer(SimDuration::from_millis(50), 0),
            // The second write of session `token - 1`.
            AppEvent::TimerFired(token) => {
                let cut = self.cut.expect("a cut session");
                ctx.tcp_send(TcpHandle(token as usize - 1), &socks_wire(self.method)[cut..]);
            }
            AppEvent::Tcp(h, TcpEvent::Connected) => {
                let wire = socks_wire(self.method);
                let Some(cut) = self.cut else {
                    ctx.tcp_send(h, &wire);
                    return;
                };
                ctx.tcp_send(h, &wire[..cut]);
                ctx.set_timer(CUT_GAP, 1 + h.0 as u64);
            }
            AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                if ctx.tcp_recv_all(h).ends_with(b"hello") {
                    ctx.tcp_close(h);
                }
            }
            AppEvent::Tcp(h, TcpEvent::PeerClosed) => ctx.tcp_close(h),
            _ => {}
        }
    }
}
