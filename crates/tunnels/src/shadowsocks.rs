//! Shadowsocks: a local SOCKS5 proxy on the client device and a remote
//! proxy outside the wall, with AES-256-CFB encryption — as studied in
//! §4 of the paper.
//!
//! Faithful details that drive the paper's findings:
//!
//! * **Extra auth connection (TCP-1 in Figure 4)**: each HTTP session
//!   begins with a separate TCP connection performing user/password
//!   authentication, re-run whenever the 10-second keep-alive expires —
//!   the root cause the paper identifies for Shadowsocks' 3.7 s PLT.
//! * **Headerless high-entropy wire format** (IV ‖ ciphertext): exactly
//!   what the GFW's "fully encrypted traffic" heuristic flags.
//! * **Probe behaviour**: the remote server consumes undecryptable bytes
//!   silently — the signature the GFW's active prober confirms.

use bytes::{BufMut, BytesMut};
use rand::Rng;
use sc_crypto::hmac::bytes_to_key;
use sc_crypto::modes::Cfb;
use sc_crypto::{Aes, KeySize};
use sc_netproto::socks::TargetAddr;
use sc_obs::prof::{self, Subsystem};

use crate::front::{FrontEvent, SocksFront};
use crate::names::NameMap;
use sc_simnet::addr::SocketAddr;
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::hash::FixedMap;
use sc_simnet::sim::Ctx;
use sc_simnet::time::{SimDuration, SimTime};

/// Default Shadowsocks remote port.
pub const SS_PORT: u16 = 8388;
/// The local SOCKS5 port `SsLocal` listens on.
pub const SS_LOCAL_PORT: u16 = 1080;
/// The keep-alive window after which authentication must be redone
/// (the 10-second default the paper calls out).
pub const DEFAULT_KEEPALIVE: SimDuration = SimDuration::from_secs(10);

const AUTH_MAGIC: &[u8] = b"SSAUTH";

/// Shadowsocks deployment parameters.
#[derive(Debug, Clone)]
pub struct SsConfig {
    /// The remote proxy.
    pub server: SocketAddr,
    /// Shared password (keys derived via the EVP-style KDF).
    pub password: String,
    /// Username for the per-session auth connection.
    pub username: String,
    /// Auth keep-alive window.
    pub keepalive: SimDuration,
    /// Authenticate once per data connection (Figure 4 shows the TCP-1
    /// auth connection in every HTTP session) instead of sharing one
    /// authenticated window across connections.
    pub auth_per_connection: bool,
}

impl SsConfig {
    /// A typical deployment against `server`.
    pub fn new(server: SocketAddr) -> Self {
        SsConfig {
            server,
            password: "scholar-tunnel-pw".into(),
            username: "scholar".into(),
            keepalive: DEFAULT_KEEPALIVE,
            auth_per_connection: false,
        }
    }

    fn key(&self) -> [u8; 32] {
        bytes_to_key(self.password.as_bytes(), 32)
            .try_into()
            .expect("32-byte key")
    }
}

fn new_cfb(key: &[u8; 32], iv: [u8; 16]) -> Cfb {
    Cfb::new(Aes::new(KeySize::Aes256, key).expect("32-byte key"), iv)
}

/// Encrypts one write's worth of stream, on the profiler's crypto row.
fn seal(tx: &mut Cfb, data: &mut [u8]) {
    let _prof = prof::scope(Subsystem::Crypto);
    tx.encrypt(data);
}

/// Decrypts one read's worth of stream, on the profiler's crypto row.
fn open(rx: &mut Cfb, data: &mut [u8]) {
    let _prof = prof::scope(Subsystem::Crypto);
    rx.decrypt(data);
}

/// The receiving half of a Shadowsocks stream: the peer's IV until its
/// 16 bytes are whole, then the CFB state. Each arriving byte is
/// decrypted once — the register must see ciphertext only.
#[derive(Debug)]
enum RecvHalf {
    /// The IV so far, and how much of it has arrived.
    Iv([u8; 16], usize),
    Open(Box<Cfb>),
}

impl RecvHalf {
    fn new() -> Self {
        RecvHalf::Iv([0; 16], 0)
    }

    /// The plaintext of `data` (the hop's one copy, decrypted where it
    /// lies), or `None` while the IV is not whole.
    fn open(&mut self, key: &[u8; 32], data: &[u8]) -> Option<BytesMut> {
        let rest = match self {
            RecvHalf::Open(_) => data,
            RecvHalf::Iv(iv, have) => {
                let take = (iv.len() - *have).min(data.len());
                iv[*have..*have + take].copy_from_slice(&data[..take]);
                *have += take;
                if *have < iv.len() {
                    return None;
                }
                *self = RecvHalf::Open(Box::new(new_cfb(key, *iv)));
                &data[take..]
            }
        };
        let RecvHalf::Open(rx) = self else { unreachable!("opened above") };
        let mut plain = BytesMut::from(rest);
        open(rx, &mut plain);
        Some(plain)
    }
}

// --- local proxy -------------------------------------------------------------

#[derive(Debug)]
enum RemoteConn {
    AuthInFlight {
        /// In per-connection mode, the browser connection this auth is
        /// dedicated to.
        dedicated: Option<TcpHandle>,
        /// The IV this side sends, drawn when the auth begins.
        iv: [u8; 16],
        tx: Box<Cfb>,
        rx: RecvHalf,
        /// What has been decrypted and not consumed yet.
        plain: Vec<u8>,
        challenge_answered: bool,
    },
    DataConnecting {
        browser: TcpHandle,
    },
    DataUp {
        browser: TcpHandle,
        tx: Box<Cfb>,
        rx: RecvHalf,
    },
}

/// The Shadowsocks local proxy app (runs on the user's machine; browsers
/// speak SOCKS5 to it on [`SS_LOCAL_PORT`]).
pub struct SsLocal {
    config: SsConfig,
    key: [u8; 32],
    /// Browsers; a tunnel is the remote data connection.
    front: SocksFront<TcpHandle>,
    remotes: FixedMap<TcpHandle, RemoteConn>,
    last_auth: Option<SimTime>,
    auth_in_flight: bool,
}

impl SsLocal {
    /// Creates the local proxy.
    pub fn new(config: SsConfig) -> Self {
        let key = config.key();
        SsLocal {
            config,
            key,
            front: SocksFront::new(),
            remotes: FixedMap::default(),
            last_auth: None,
            auth_in_flight: false,
        }
    }

    fn auth_fresh(&self, now: SimTime) -> bool {
        self.last_auth
            .is_some_and(|t| now - t < self.config.keepalive)
    }

    fn begin_auth(&mut self, dedicated: Option<TcpHandle>, ctx: &mut Ctx<'_>) {
        if dedicated.is_none() {
            if self.auth_in_flight {
                return;
            }
            self.auth_in_flight = true;
        }
        let h = ctx.tcp_connect(self.config.server);
        let mut iv = [0u8; 16];
        ctx.rng().fill(&mut iv);
        let tx = Box::new(new_cfb(&self.key, iv));
        self.remotes.insert(
            h,
            RemoteConn::AuthInFlight {
                dedicated,
                iv,
                tx,
                rx: RecvHalf::new(),
                plain: Vec::new(),
                challenge_answered: false,
            },
        );
    }

    /// Opens a data connection for every waiting browser without one
    /// (`only` that one, if given), in handle order.
    fn open_data_conns(&mut self, only: Option<TcpHandle>, ctx: &mut Ctx<'_>) {
        let (server, remotes) = (self.config.server, &mut self.remotes);
        self.front.bind(only, |browser| {
            let h = ctx.tcp_connect(server);
            remotes.insert(h, RemoteConn::DataConnecting { browser });
            h
        });
    }

    fn on_connect(&mut self, browser: TcpHandle, ctx: &mut Ctx<'_>) {
        if self.config.auth_per_connection {
            // Figure-4 behaviour: every HTTP session begins with its own
            // TCP-1 authentication connection.
            self.begin_auth(Some(browser), ctx);
        } else if self.auth_fresh(ctx.now()) {
            self.open_data_conns(Some(browser), ctx);
        } else {
            self.begin_auth(None, ctx);
        }
    }
}

impl App for SsLocal {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(SS_LOCAL_PORT);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let AppEvent::Tcp(h, tcp_ev) = ev else { return };

        // --- browser side ---
        if self.front.owns(h, &tcp_ev) {
            match self.front.on_event(h, tcp_ev, ctx) {
                Some(FrontEvent::Connect(browser)) => self.on_connect(browser, ctx),
                Some(FrontEvent::Data(remote, data)) => {
                    if let Some(RemoteConn::DataUp { tx, .. }) = self.remotes.get_mut(&remote) {
                        // The hop's one copy, encrypted where it lies.
                        let mut enc = BytesMut::from(&data[..]);
                        seal(tx, &mut enc);
                        ctx.tcp_send_bytes(remote, enc.freeze());
                    }
                }
                Some(FrontEvent::Left(Some(remote))) => {
                    ctx.tcp_close(remote);
                    // A connection still connecting is freed quietly: no
                    // event will come back to remove its entry.
                    if let Some(RemoteConn::DataConnecting { .. }) = self.remotes.get(&remote) {
                        self.remotes.remove(&remote);
                    }
                }
                Some(FrontEvent::Left(None)) | None => {}
            }
            return;
        }

        // --- remote side ---
        match tcp_ev {
            TcpEvent::Connected => {
                match self.remotes.get_mut(&h) {
                    Some(RemoteConn::AuthInFlight { iv, tx, .. }) => {
                        // IV ‖ E(MAGIC ‖ ulen ‖ user ‖ plen ‖ pass)
                        let user = self.config.username.as_bytes();
                        let pass = self.config.password.as_bytes();
                        let mut frame =
                            BytesMut::with_capacity(iv.len() + AUTH_MAGIC.len() + 2 + user.len() + pass.len());
                        frame.put_slice(iv);
                        let at = frame.len();
                        frame.put_slice(AUTH_MAGIC);
                        frame.put_u8(user.len() as u8);
                        frame.put_slice(user);
                        frame.put_u8(pass.len() as u8);
                        frame.put_slice(pass);
                        seal(tx, &mut frame[at..]);
                        ctx.tcp_send_bytes(h, frame.freeze());
                    }
                    Some(RemoteConn::DataConnecting { browser }) => {
                        let browser = *browser;
                        let Some((target, early)) = self.front.open(browser) else { return };
                        let mut iv = [0u8; 16];
                        ctx.rng().fill(&mut iv);
                        let mut tx = new_cfb(&self.key, iv);
                        // IV ‖ E(target ‖ early bytes), sealed where it lies.
                        let mut frame = BytesMut::with_capacity(iv.len() + target.encoded_len() + early.len());
                        frame.put_slice(&iv);
                        target.encode_into(&mut frame);
                        frame.put_slice(&early);
                        seal(&mut tx, &mut frame[iv.len()..]);
                        ctx.tcp_send_bytes(h, frame.freeze());
                        self.remotes
                            .insert(h, RemoteConn::DataUp { browser, tx: Box::new(tx), rx: RecvHalf::new() });
                    }
                    _ => {}
                }
            }
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                match self.remotes.get_mut(&h) {
                    Some(RemoteConn::AuthInFlight { dedicated, tx, rx, plain, challenge_answered, .. }) => {
                        let Some(chunk) = rx.open(&self.key, &data) else { return };
                        plain.extend_from_slice(&chunk);
                        if !*challenge_answered {
                            // Server sent a 16-byte challenge; answer with
                            // HMAC(password, challenge).
                            if plain.len() < 16 {
                                return;
                            }
                            let challenge: [u8; 16] = plain[..16].try_into().expect("checked");
                            plain.drain(..16);
                            *challenge_answered = true;
                            let mac = sc_crypto::hmac::hmac_sha256(self.config.password.as_bytes(), &challenge);
                            let mut answer = BytesMut::from(&mac[..16]);
                            seal(tx, &mut answer);
                            ctx.tcp_send_bytes(h, answer.freeze());
                        }
                        // Expect the 1-byte OK verdict.
                        if plain.is_empty() {
                            return;
                        }
                        let ok = plain[0] == 1;
                        let dedicated = *dedicated;
                        ctx.tcp_close(h);
                        self.remotes.remove(&h);
                        if !ok {
                            return;
                        }
                        self.last_auth = Some(ctx.now());
                        if dedicated.is_none() {
                            self.auth_in_flight = false;
                        }
                        self.open_data_conns(dedicated, ctx);
                    }
                    Some(RemoteConn::DataUp { browser, rx, .. }) => {
                        if let Some(plain) = rx.open(&self.key, &data) {
                            ctx.tcp_send_bytes(*browser, plain.freeze());
                        }
                    }
                    _ => {}
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                match self.remotes.remove(&h) {
                    Some(RemoteConn::DataUp { browser, .. }) | Some(RemoteConn::DataConnecting { browser }) => {
                        self.front.end(browser, ctx);
                    }
                    Some(RemoteConn::AuthInFlight { dedicated, .. }) => {
                        if dedicated.is_none() {
                            self.auth_in_flight = false;
                        }
                    }
                    None => {}
                }
            }
            _ => {}
        }
    }
}

// --- remote proxy -------------------------------------------------------------

/// One client connection of the remote: its receiving half, what has
/// been decrypted and not consumed yet, and where it stands.
#[derive(Debug)]
struct ServerConn {
    rx: RecvHalf,
    plain: Vec<u8>,
    state: ServerState,
}

#[derive(Debug)]
enum ServerState {
    /// Awaiting an auth frame or a target header.
    Handshake,
    /// A challenge is out: the answer it expects, and the cipher stream
    /// the verdict goes out on.
    Challenged { expect: [u8; 16], tx: Box<Cfb> },
    /// Relaying to an upstream connection.
    Relaying {
        upstream: TcpHandle,
        tx: Option<Box<Cfb>>,
    },
    /// Undecryptable input: consume silently (probe-visible behaviour).
    Blackhole,
}

/// The Shadowsocks remote proxy app (runs on the VM outside the wall).
pub struct SsRemote {
    key: [u8; 32],
    username: String,
    password: String,
    names: NameMap,
    conns: FixedMap<TcpHandle, ServerConn>,
    /// Upstream handle → client handle.
    upstreams: FixedMap<TcpHandle, TcpHandle>,
}

impl SsRemote {
    /// Creates the remote proxy for the given config. `names` is the
    /// outside world's DNS view, used to resolve domain targets (remote
    /// resolution is what lets Shadowsocks shrug off DNS poisoning).
    pub fn new(config: &SsConfig, names: NameMap) -> Self {
        SsRemote {
            key: config.key(),
            username: config.username.clone(),
            password: config.password.clone(),
            names,
            conns: FixedMap::default(),
            upstreams: FixedMap::default(),
        }
    }

    fn try_interpret(&mut self, h: TcpHandle, ctx: &mut Ctx<'_>) {
        let Some(conn) = self.conns.get_mut(&h) else { return };
        // Auth frame: MAGIC ‖ ulen ‖ user ‖ plen ‖ pass.
        if let Some(rest) = conn.plain.strip_prefix(AUTH_MAGIC) {
            let Some(&ulen) = rest.first() else { return };
            let ulen = ulen as usize;
            let Some(&plen) = rest.get(1 + ulen) else { return };
            let plen = plen as usize;
            let Some(pass) = rest.get(2 + ulen..2 + ulen + plen) else { return };
            if &rest[1..1 + ulen] != self.username.as_bytes() || pass != self.password.as_bytes() {
                // Bad credentials: silent (probe-visible).
                conn.state = ServerState::Blackhole;
                return;
            }
            // Issue the challenge (second auth round trip — the paper's
            // costly TCP-1 exchange).
            let mut iv = [0u8; 16];
            ctx.rng().fill(&mut iv);
            let mut tx = new_cfb(&self.key, iv);
            let mut challenge = [0u8; 16];
            ctx.rng().fill(&mut challenge);
            let mac = sc_crypto::hmac::hmac_sha256(self.password.as_bytes(), &challenge);
            let expect = mac[..16].try_into().expect("16 of 32 bytes");
            // IV ‖ E(challenge)
            let mut frame = BytesMut::with_capacity(iv.len() + challenge.len());
            frame.put_slice(&iv);
            frame.put_slice(&challenge);
            seal(&mut tx, &mut frame[iv.len()..]);
            ctx.tcp_send_bytes(h, frame.freeze());
            conn.plain.drain(..AUTH_MAGIC.len() + 2 + ulen + plen);
            conn.state = ServerState::Challenged { expect, tx: Box::new(tx) };
            return;
        }
        // Challenge answer? Right, the verdict goes out and the answer
        // stays unconsumed: the client closes after the verdict.
        if let ServerState::Challenged { expect, tx } = &mut conn.state {
            if conn.plain.len() < expect.len() {
                return;
            }
            if sc_crypto::hmac::ct_eq(&conn.plain[..16], expect) {
                let mut ok = BytesMut::from(&[1u8][..]);
                seal(tx, &mut ok);
                ctx.tcp_send_bytes(h, ok.freeze());
                conn.state = ServerState::Handshake;
            } else {
                conn.state = ServerState::Blackhole;
            }
            return;
        }
        // Target header?
        let Some((target, consumed)) = TargetAddr::decode(&conn.plain) else {
            // Enough bytes to rule out a valid header ⇒ garbage.
            if conn.plain.len() >= 64 {
                conn.state = ServerState::Blackhole;
            }
            return;
        };
        let upstream_addr = match &target {
            TargetAddr::Ip(a, p) => SocketAddr::new(*a, *p),
            TargetAddr::Domain(name, p) => match self.names.resolve(name) {
                Some(a) => SocketAddr::new(a, *p),
                None => {
                    conn.state = ServerState::Blackhole;
                    return;
                }
            },
        };
        let upstream = ctx.tcp_connect(upstream_addr);
        // TCP holds what is sent before the handshake completes.
        ctx.tcp_send(upstream, &conn.plain[consumed..]);
        self.upstreams.insert(upstream, h);
        conn.plain = Vec::new();
        conn.state = ServerState::Relaying { upstream, tx: None };
    }
}

impl App for SsRemote {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(SS_PORT);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let AppEvent::Tcp(h, tcp_ev) = ev else { return };

        // Upstream side.
        if let Some(&client) = self.upstreams.get(&h) {
            match tcp_ev {
                TcpEvent::DataReceived => {
                    let data = ctx.tcp_recv_all(h);
                    let Some(ServerConn { state: ServerState::Relaying { tx, .. }, .. }) = self.conns.get_mut(&client)
                    else {
                        return;
                    };
                    // The IV goes out as its own write, before the first
                    // sealed chunk.
                    let tx = tx.get_or_insert_with(|| {
                        let mut iv = [0u8; 16];
                        ctx.rng().fill(&mut iv);
                        ctx.tcp_send(client, &iv);
                        Box::new(new_cfb(&self.key, iv))
                    });
                    let mut enc = BytesMut::from(&data[..]);
                    seal(tx, &mut enc);
                    ctx.tcp_send_bytes(client, enc.freeze());
                }
                TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                    ctx.tcp_close(client);
                    self.upstreams.remove(&h);
                }
                _ => {}
            }
            return;
        }

        // Client side.
        match tcp_ev {
            TcpEvent::Accepted { .. } => {
                let conn = ServerConn { rx: RecvHalf::new(), plain: Vec::new(), state: ServerState::Handshake };
                self.conns.insert(h, conn);
            }
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                let Some(conn) = self.conns.get_mut(&h) else { return };
                match conn.state {
                    ServerState::Blackhole => { /* consume silently */ }
                    ServerState::Relaying { upstream, .. } => {
                        if let Some(plain) = conn.rx.open(&self.key, &data) {
                            ctx.tcp_send_bytes(upstream, plain.freeze());
                        }
                    }
                    ServerState::Handshake | ServerState::Challenged { .. } => {
                        let Some(chunk) = conn.rx.open(&self.key, &data) else { return };
                        conn.plain.extend_from_slice(&chunk);
                        self.try_interpret(h, ctx);
                    }
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => {
                if let Some(ServerConn { state: ServerState::Relaying { upstream, .. }, .. }) = self.conns.remove(&h) {
                    ctx.tcp_close(upstream);
                    self.upstreams.remove(&upstream);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use bytes::Bytes;
    use sc_simnet::sim::Sim;

    use super::*;
    use crate::testnet::{self, OneBrowser, SocksSessions, WebLog, WebServer, CLIENT, REQUEST, SS_SERVER, WEB};

    /// A Shadowsocks world: the remote, the local proxy and `sessions`
    /// browsers offering `method`, against a web server that answers or
    /// holds every request.
    fn run(sessions: usize, method: u8, answer: bool) -> Sim {
        run_cut(sessions, method, answer, None, Rc::default())
    }

    /// [`run`], each session's bytes cut at `cut`, the web server
    /// logging to `log`.
    fn run_cut(sessions: usize, method: u8, answer: bool, cut: Option<usize>, log: Rc<RefCell<WebLog>>) -> Sim {
        let mut sim = testnet::world(46);
        let cfg = SsConfig::new(SocketAddr::new(SS_SERVER, SS_PORT));
        testnet::install(&mut sim, SS_SERVER, SsRemote::new(&cfg, testnet::names()));
        testnet::install(&mut sim, WEB, WebServer { answer, log });
        testnet::install(&mut sim, CLIENT, SsLocal::new(cfg));
        testnet::install(&mut sim, CLIENT, SocksSessions { port: SS_LOCAL_PORT, sessions, method, ready: None, cut });
        sim.run_for(SimDuration::from_secs(10));
        sim
    }

    #[test]
    fn queued_browsers_get_their_data_connections_in_handle_order() {
        // Eight browsers queue behind the one auth round trip; when it
        // completes, each gets a data connection (held open: the web
        // server never answers). Handles are handed out in connect order.
        let sim = run(8, 0, false);
        let local = testnet::app::<SsLocal>(&sim, CLIENT);
        let mut data: Vec<(TcpHandle, TcpHandle)> = local
            .remotes
            .iter()
            .filter_map(|(&h, conn)| match conn {
                RemoteConn::DataUp { browser, .. } | RemoteConn::DataConnecting { browser, .. } => {
                    Some((h, *browser))
                }
                RemoteConn::AuthInFlight { .. } => None,
            })
            .collect();
        data.sort_unstable();
        let browsers: Vec<TcpHandle> = data.iter().map(|&(_, browser)| browser).collect();
        let mut ascending = browsers.clone();
        ascending.sort_unstable();
        assert_eq!(browsers.len(), 8);
        assert_eq!(browsers, ascending, "data connections opened out of browser order");
    }

    #[test]
    fn sessions_that_end_leave_no_browser_entry() {
        for (method, label) in [(0, "fetched and closed"), (2, "refused at the greeting")] {
            let sim = run(6, method, true);
            let local = testnet::app::<SsLocal>(&sim, CLIENT);
            assert_eq!(local.front.len(), 0, "{label}: browser entries left");
        }
    }

    #[test]
    fn early_bytes_cut_at_every_split_reach_the_origin_once() {
        for cut in 1..testnet::socks_wire(0).len() {
            let log = Rc::default();
            let sim = run_cut(1, 0, true, Some(cut), Rc::clone(&log));
            let log = log.borrow();
            let received: Vec<&[u8]> = log.received.values().map(Vec::as_slice).collect();
            assert_eq!(received, [REQUEST], "cut at {cut}: what the origin got");
            assert_eq!(log.closed, log.accepted, "cut at {cut}: the session never completed");
            assert_eq!(testnet::app::<SsLocal>(&sim, CLIENT).front.len(), 0, "cut at {cut}");
        }
    }

    /// One [`OneBrowser`] sending `wire` to a local proxy whose auth is
    /// fresh; the local proxy and what the browser saw.
    fn one_browser(wire: Vec<u8>, hang_up: bool) -> (Sim, (Vec<u8>, bool)) {
        let mut sim = testnet::world(46);
        let cfg = SsConfig::new(SocketAddr::new(SS_SERVER, SS_PORT));
        testnet::install(&mut sim, SS_SERVER, SsRemote::new(&cfg, testnet::names()));
        let mut local = SsLocal::new(cfg);
        local.last_auth = Some(SimTime::ZERO);
        testnet::install(&mut sim, CLIENT, local);
        let seen = Rc::default();
        testnet::install(&mut sim, CLIENT, OneBrowser { port: SS_LOCAL_PORT, wire, hang_up, seen: Rc::clone(&seen) });
        sim.run_for(SimDuration::from_secs(2));
        let seen = seen.borrow().clone();
        (sim, seen)
    }

    #[test]
    fn a_browser_that_leaves_while_its_data_connection_connects_leaves_no_remote() {
        let (sim, _) = one_browser(testnet::socks_wire(0)[..21].to_vec(), true);
        let local = testnet::app::<SsLocal>(&sim, CLIENT);
        assert_eq!(local.front.len(), 0, "browser entries left");
        assert!(local.remotes.is_empty(), "remote entries left: {:?}", local.remotes);
    }

    #[test]
    fn a_connect_to_an_unknown_address_type_is_refused_and_closed() {
        for atyp in [0x04, 0x09] {
            let mut wire = vec![5, 1, 0, 5, 1, 0, atyp];
            wire.extend_from_slice(&[0; 18]);
            let (sim, seen) = one_browser(wire, false);
            assert_eq!(seen, (vec![5, 0, 5, 8, 0, 1, 0, 0, 0, 0, 0, 0], true), "ATYP {atyp}: reply, closed");
            assert_eq!(testnet::app::<SsLocal>(&sim, CLIENT).front.len(), 0, "ATYP {atyp}: browser entries left");
        }
    }

    /// The remote's half of the auth exchange, scripted: IV ‖ challenge
    /// goes out in two writes a timer apart, and the answer that comes
    /// back is checked (and, if right, accepted).
    struct SplitChallenge {
        key: [u8; 32],
        password: String,
        challenge: [u8; 16],
        tx: Box<Cfb>,
        rx: Option<Box<Cfb>>,
        conn: Option<TcpHandle>,
        rest: Vec<u8>,
        answered_right: Rc<Cell<Option<bool>>>,
    }

    impl App for SplitChallenge {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.tcp_listen(SS_PORT);
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            match ev {
                // The auth connection's; the data connection that follows
                // a right answer is left unread.
                AppEvent::Tcp(h, TcpEvent::DataReceived) if self.conn.is_none_or(|c| c == h) => {
                    let received = ctx.tcp_recv_all(h);
                    let mut data = received.to_vec();
                    let Some(rx) = &mut self.rx else {
                        // IV ‖ E(auth frame), one write from the local proxy.
                        let rx = self.rx.insert(Box::new(new_cfb(&self.key, data[..16].try_into().unwrap())));
                        open(rx, &mut data[16..]);
                        let mut frame = [7u8; 16].to_vec();
                        frame.extend_from_slice(&self.challenge);
                        seal(&mut self.tx, &mut frame[16..]);
                        ctx.tcp_send(h, &frame[..20]);
                        self.rest = frame.split_off(20);
                        self.conn = Some(h);
                        ctx.set_timer(SimDuration::from_millis(20), 0);
                        return;
                    };
                    open(rx, &mut data);
                    let want = &sc_crypto::hmac::hmac_sha256(self.password.as_bytes(), &self.challenge)[..16];
                    self.answered_right.set(Some(data == want));
                    if data == want {
                        let mut ok = vec![1u8];
                        seal(&mut self.tx, &mut ok);
                        ctx.tcp_send_bytes(h, Bytes::from(ok));
                    }
                }
                AppEvent::TimerFired(_) => {
                    ctx.tcp_send(self.conn.expect("challenge begun"), &self.rest);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn a_challenge_split_across_reads_is_decrypted_once() {
        let mut sim = testnet::world(46);
        let cfg = SsConfig::new(SocketAddr::new(SS_SERVER, SS_PORT));
        let answered_right = Rc::new(Cell::new(None));
        let remote = SplitChallenge {
            key: cfg.key(),
            password: cfg.password.clone(),
            challenge: *b"sixteen-byte-chl",
            tx: Box::new(new_cfb(&cfg.key(), [7; 16])),
            rx: None,
            conn: None,
            rest: Vec::new(),
            answered_right: answered_right.clone(),
        };
        testnet::install(&mut sim, SS_SERVER, remote);
        testnet::install(&mut sim, CLIENT, SsLocal::new(cfg));
        testnet::install(&mut sim, CLIENT, SocksSessions { port: SS_LOCAL_PORT, sessions: 1, method: 0, ready: None, cut: None });
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(answered_right.get(), Some(true), "the challenge's answer");
        assert!(testnet::app::<SsLocal>(&sim, CLIENT).last_auth.is_some(), "auth never completed");
    }
}
