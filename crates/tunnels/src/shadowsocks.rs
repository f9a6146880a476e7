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

use std::collections::BTreeMap;

use rand::Rng;
use sc_crypto::hmac::bytes_to_key;
use sc_crypto::modes::Cfb;
use sc_crypto::{Aes, KeySize};
use sc_netproto::socks::{SocksServerSession, TargetAddr};
use sc_obs::prof::{self, Subsystem};

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

// --- local proxy -------------------------------------------------------------

#[derive(Debug)]
enum BrowserConn {
    Negotiating(SocksServerSession),
    /// Waiting for auth (and then a data connection).
    Queued {
        target: TargetAddr,
        buffered: Vec<u8>,
    },
    /// Proxied via the given remote data connection.
    Proxied(TcpHandle),
}

#[derive(Debug)]
enum RemoteConn {
    AuthInFlight {
        /// In per-connection mode, the browser connection this auth is
        /// dedicated to.
        dedicated: Option<TcpHandle>,
        rx: Option<Box<Cfb>>,
        tx: Box<Cfb>,
        buf: Vec<u8>,
        challenge_answered: bool,
    },
    DataConnecting {
        browser: TcpHandle,
        target: TargetAddr,
        buffered: Vec<u8>,
    },
    DataUp {
        browser: TcpHandle,
        tx: Box<Cfb>,
        rx: Option<Box<Cfb>>,
        rx_buf: Vec<u8>,
    },
}

/// The Shadowsocks local proxy app (runs on the user's machine; browsers
/// speak SOCKS5 to it on [`SS_LOCAL_PORT`]).
pub struct SsLocal {
    config: SsConfig,
    key: [u8; 32],
    browsers: BTreeMap<TcpHandle, BrowserConn>,
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
            browsers: BTreeMap::new(),
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
                rx: None,
                tx,
                buf: iv.to_vec(),
                challenge_answered: false,
            },
        );
    }

    fn open_data_conn(&mut self, browser: TcpHandle, target: TargetAddr, buffered: Vec<u8>, ctx: &mut Ctx<'_>) {
        let h = ctx.tcp_connect(self.config.server);
        self.remotes
            .insert(h, RemoteConn::DataConnecting { browser, target, buffered });
        self.browsers.insert(browser, BrowserConn::Proxied(h));
    }

    /// Opens a data connection for every queued browser, in handle order.
    fn flush_queued(&mut self, ctx: &mut Ctx<'_>) {
        let queued: Vec<(TcpHandle, TargetAddr, Vec<u8>)> = self
            .browsers
            .iter_mut()
            .filter_map(|(h, c)| {
                if let BrowserConn::Queued { target, buffered } = c {
                    let t = target.clone();
                    let b = std::mem::take(buffered);
                    Some((*h, t, b))
                } else {
                    None
                }
            })
            .collect();
        for (h, target, buffered) in queued {
            self.open_data_conn(h, target, buffered, ctx);
        }
    }

    fn on_socks_ready(&mut self, browser: TcpHandle, target: TargetAddr, leftover: Vec<u8>, ctx: &mut Ctx<'_>) {
        if self.config.auth_per_connection {
            // Figure-4 behaviour: every HTTP session begins with its own
            // TCP-1 authentication connection.
            self.browsers
                .insert(browser, BrowserConn::Queued { target, buffered: leftover });
            self.begin_auth(Some(browser), ctx);
        } else if self.auth_fresh(ctx.now()) {
            self.open_data_conn(browser, target, leftover, ctx);
        } else {
            self.browsers
                .insert(browser, BrowserConn::Queued { target, buffered: leftover });
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
        if self.browsers.contains_key(&h) || matches!(tcp_ev, TcpEvent::Accepted { .. }) {
            match tcp_ev {
                TcpEvent::Accepted { .. } => {
                    self.browsers
                        .insert(h, BrowserConn::Negotiating(SocksServerSession::new()));
                }
                TcpEvent::DataReceived => {
                    let data = ctx.tcp_recv_all(h);
                    match self.browsers.get_mut(&h) {
                        Some(BrowserConn::Negotiating(sess)) => {
                            let out = sess.on_bytes(&data);
                            if !out.reply.is_empty() {
                                ctx.tcp_send_bytes(h, out.reply);
                            }
                            if out.failed {
                                ctx.tcp_close(h);
                                self.browsers.remove(&h);
                            } else if let Some(target) = out.connect {
                                self.on_socks_ready(h, target, out.leftover, ctx);
                            }
                        }
                        Some(BrowserConn::Queued { buffered, .. }) => {
                            buffered.extend_from_slice(&data);
                        }
                        Some(BrowserConn::Proxied(remote)) => {
                            let remote = *remote;
                            match self.remotes.get_mut(&remote) {
                                Some(RemoteConn::DataUp { tx, .. }) => {
                                    let mut enc = data.to_vec();
                                    seal(tx, &mut enc);
                                    ctx.tcp_send_bytes(remote, enc);
                                }
                                Some(RemoteConn::DataConnecting { buffered, .. }) => {
                                    buffered.extend_from_slice(&data);
                                }
                                _ => {}
                            }
                        }
                        _ => {}
                    }
                }
                TcpEvent::PeerClosed | TcpEvent::Reset => {
                    if let Some(BrowserConn::Proxied(remote)) = self.browsers.remove(&h) {
                        ctx.tcp_close(remote);
                    }
                }
                _ => {}
            }
            return;
        }

        // --- remote side ---
        match tcp_ev {
            TcpEvent::Connected => {
                match self.remotes.get_mut(&h) {
                    Some(RemoteConn::AuthInFlight { tx, buf, .. }) => {
                        // IV ‖ E(MAGIC ‖ ulen ‖ user ‖ plen ‖ pass)
                        let user = self.config.username.as_bytes().to_vec();
                        let pass = self.config.password.as_bytes().to_vec();
                        let mut plain = AUTH_MAGIC.to_vec();
                        plain.push(user.len() as u8);
                        plain.extend_from_slice(&user);
                        plain.push(pass.len() as u8);
                        plain.extend_from_slice(&pass);
                        let mut frame = std::mem::take(buf); // the IV
                        seal(tx, &mut plain);
                        frame.extend_from_slice(&plain);
                        ctx.tcp_send_bytes(h, frame);
                    }
                    Some(RemoteConn::DataConnecting { browser, target, buffered }) => {
                        let browser = *browser;
                        let target = target.clone();
                        let buffered = std::mem::take(buffered);
                        let mut iv = [0u8; 16];
                        ctx.rng().fill(&mut iv);
                        let mut tx = new_cfb(&self.key, iv);
                        // IV ‖ E(target ‖ early bytes), sealed where it lies.
                        let mut frame = iv.to_vec();
                        frame.extend_from_slice(&target.encode());
                        frame.extend_from_slice(&buffered);
                        seal(&mut tx, &mut frame[iv.len()..]);
                        ctx.tcp_send_bytes(h, frame);
                        self.remotes.insert(
                            h,
                            RemoteConn::DataUp {
                                browser,
                                tx: Box::new(tx),
                                rx: None,
                                rx_buf: Vec::new(),
                            },
                        );
                    }
                    _ => {}
                }
            }
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                match self.remotes.get_mut(&h) {
                    Some(RemoteConn::AuthInFlight { dedicated, rx, tx, buf, challenge_answered }) => {
                        buf.extend_from_slice(&data);
                        if rx.is_none() {
                            if buf.len() < 16 {
                                return;
                            }
                            let iv: [u8; 16] = buf[..16].try_into().expect("checked");
                            *rx = Some(Box::new(new_cfb(&self.key, iv)));
                            buf.drain(..16);
                        }
                        let mut plain = std::mem::take(buf);
                        open(rx.as_mut().expect("just set"), &mut plain);
                        if !*challenge_answered {
                            // Server sent a 16-byte challenge; answer with
                            // HMAC(password, challenge).
                            if plain.len() < 16 {
                                // Re-encrypt leftover? Simpler: stash the
                                // decrypted prefix back (decrypted bytes
                                // buffer as plain).
                                *buf = plain;
                                return;
                            }
                            let challenge: [u8; 16] = plain[..16].try_into().expect("checked");
                            *challenge_answered = true;
                            let mut answer = sc_crypto::hmac::hmac_sha256(
                                self.config.password.as_bytes(),
                                &challenge,
                            )[..16]
                                .to_vec();
                            seal(tx, &mut answer);
                            ctx.tcp_send_bytes(h, answer);
                            *buf = plain[16..].to_vec();
                            return;
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
                        match dedicated {
                            Some(browser) => {
                                if let Some(BrowserConn::Queued { target, buffered }) =
                                    self.browsers.get_mut(&browser)
                                {
                                    let target = target.clone();
                                    let buffered = std::mem::take(buffered);
                                    self.open_data_conn(browser, target, buffered, ctx);
                                }
                            }
                            None => {
                                self.auth_in_flight = false;
                                self.flush_queued(ctx);
                            }
                        }
                    }
                    Some(RemoteConn::DataUp { browser, rx, rx_buf, .. }) => {
                        let browser = *browser;
                        rx_buf.extend_from_slice(&data);
                        if rx.is_none() {
                            if rx_buf.len() < 16 {
                                return;
                            }
                            let iv: [u8; 16] = rx_buf[..16].try_into().expect("checked length");
                            *rx = Some(Box::new(new_cfb(&self.key, iv)));
                            rx_buf.drain(..16);
                        }
                        if let Some(rx) = rx {
                            let mut plain = std::mem::take(rx_buf);
                            open(rx, &mut plain);
                            ctx.tcp_send_bytes(browser, plain);
                        }
                    }
                    _ => {}
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                match self.remotes.remove(&h) {
                    Some(RemoteConn::DataUp { browser, .. })
                    | Some(RemoteConn::DataConnecting { browser, .. }) => {
                        ctx.tcp_close(browser);
                        self.browsers.remove(&browser);
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

#[derive(Debug)]
enum ServerConn {
    /// Awaiting IV + first decrypted bytes.
    Handshake {
        rx: Option<Box<Cfb>>,
        buf: Vec<u8>,
        plain: Vec<u8>,
    },
    /// Relaying to an upstream connection.
    Relaying {
        upstream: TcpHandle,
        rx: Box<Cfb>,
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
    /// Outstanding auth challenges: conn → (expected answer, reply
    /// cipher stream).
    pending_challenges: FixedMap<TcpHandle, (Vec<u8>, Box<Cfb>)>,
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
            pending_challenges: FixedMap::default(),
        }
    }

    fn try_interpret(&mut self, h: TcpHandle, ctx: &mut Ctx<'_>) {
        let Some(ServerConn::Handshake { rx, plain, .. }) = self.conns.get_mut(&h) else { return };
        let plain_snapshot = plain.clone();
        // Auth frame?
        if plain_snapshot.starts_with(AUTH_MAGIC) {
            let rest = &plain_snapshot[AUTH_MAGIC.len()..];
            if !rest.is_empty() {
                let ulen = rest[0] as usize;
                if rest.len() >= 1 + ulen + 1 {
                    let plen = rest[1 + ulen] as usize;
                    if rest.len() >= 2 + ulen + plen {
                        let user = String::from_utf8_lossy(&rest[1..1 + ulen]).to_string();
                        let pass = String::from_utf8_lossy(&rest[2 + ulen..2 + ulen + plen]).to_string();
                        if user == self.username && pass == self.password {
                            // Issue the challenge (second auth round trip
                            // — the paper's costly TCP-1 exchange).
                            let mut iv = [0u8; 16];
                            ctx.rng().fill(&mut iv);
                            let mut tx = new_cfb(&self.key, iv);
                            let mut challenge = [0u8; 16];
                            ctx.rng().fill(&mut challenge);
                            let expect = sc_crypto::hmac::hmac_sha256(
                                self.password.as_bytes(),
                                &challenge,
                            )[..16]
                                .to_vec();
                            let mut body = challenge.to_vec();
                            seal(&mut tx, &mut body);
                            let mut frame = iv.to_vec();
                            frame.extend_from_slice(&body);
                            ctx.tcp_send_bytes(h, frame);
                            let consumed = AUTH_MAGIC.len() + 2 + ulen + plen;
                            if let Some(ServerConn::Handshake { plain, .. }) = self.conns.get_mut(&h) {
                                plain.drain(..consumed);
                            }
                            self.pending_challenges.insert(h, (expect, Box::new(tx)));
                        } else {
                            // Bad credentials: silent (probe-visible).
                            self.conns.insert(h, ServerConn::Blackhole);
                        }
                        return;
                    }
                }
            }
            return; // need more bytes
        }
        // Challenge answer?
        if let Some((expect, _)) = self.pending_challenges.get(&h) {
            if plain_snapshot.len() >= expect.len() {
                let (expect, mut tx) = self.pending_challenges.remove(&h).expect("checked");
                if sc_crypto::hmac::ct_eq(&plain_snapshot[..16], &expect) {
                    let mut ok = vec![1u8];
                    seal(&mut tx, &mut ok);
                    ctx.tcp_send_bytes(h, ok);
                } else {
                    self.conns.insert(h, ServerConn::Blackhole);
                }
            }
            return;
        }
        // Target header?
        match TargetAddr::decode(&plain_snapshot) {
            Some((target, consumed)) => {
                let upstream_addr = match &target {
                    TargetAddr::Ip(a, p) => SocketAddr::new(*a, *p),
                    TargetAddr::Domain(name, p) => match self.names.resolve(name) {
                        Some(a) => SocketAddr::new(a, *p),
                        None => {
                            self.conns.insert(h, ServerConn::Blackhole);
                            return;
                        }
                    },
                };
                let upstream = ctx.tcp_connect(upstream_addr);
                // TCP holds what is sent before the handshake completes.
                ctx.tcp_send(upstream, &plain_snapshot[consumed..]);
                self.upstreams.insert(upstream, h);
                let rx = rx.take().expect("IV consumed before header");
                self.conns.insert(h, ServerConn::Relaying { upstream, rx, tx: None });
            }
            None => {
                // Enough bytes to rule out a valid header ⇒ garbage.
                if plain_snapshot.len() >= 64 {
                    self.conns.insert(h, ServerConn::Blackhole);
                }
            }
        }
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
                    if let Some(ServerConn::Relaying { tx, .. }) = self.conns.get_mut(&client) {
                        if tx.is_none() {
                            let mut iv = [0u8; 16];
                            ctx.rng().fill(&mut iv);
                            *tx = Some(Box::new(new_cfb(&self.key, iv)));
                            ctx.tcp_send(client, &iv);
                        }
                        let tx = tx.as_mut().expect("just initialized");
                        let mut enc = data.to_vec();
                        seal(tx, &mut enc);
                        ctx.tcp_send_bytes(client, enc);
                    }
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
                self.conns.insert(
                    h,
                    ServerConn::Handshake { rx: None, buf: Vec::new(), plain: Vec::new() },
                );
            }
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                match self.conns.get_mut(&h) {
                    Some(ServerConn::Handshake { rx, buf, plain }) => {
                        buf.extend_from_slice(&data);
                        if rx.is_none() {
                            if buf.len() < 16 {
                                return;
                            }
                            let iv: [u8; 16] = buf[..16].try_into().expect("checked length");
                            *rx = Some(Box::new(new_cfb(&self.key, iv)));
                            buf.drain(..16);
                        }
                        if let Some(rx) = rx {
                            let mut chunk = std::mem::take(buf);
                            open(rx, &mut chunk);
                            plain.extend_from_slice(&chunk);
                        }
                        self.try_interpret(h, ctx);
                    }
                    Some(ServerConn::Relaying { upstream, rx, .. }) => {
                        let upstream = *upstream;
                        let mut plain = data.to_vec();
                        open(rx, &mut plain);
                        ctx.tcp_send_bytes(upstream, plain);
                    }
                    Some(ServerConn::Blackhole) => { /* consume silently */ }
                    None => {}
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => {
                if let Some(ServerConn::Relaying { upstream, .. }) = self.conns.remove(&h) {
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
    use std::rc::Rc;

    use sc_simnet::sim::Sim;

    use super::*;
    use crate::testnet::{self, SocksSessions, WebServer, CLIENT, SS_SERVER, WEB};

    /// A Shadowsocks world: the remote, the local proxy and `sessions`
    /// browsers offering `method`, against a web server that answers or
    /// holds every request.
    fn run(sessions: usize, method: u8, answer: bool) -> Sim {
        let mut sim = testnet::world(46);
        let cfg = SsConfig::new(SocketAddr::new(SS_SERVER, SS_PORT));
        testnet::install(&mut sim, SS_SERVER, SsRemote::new(&cfg, testnet::names()));
        testnet::install(&mut sim, WEB, WebServer { answer, log: Rc::default() });
        testnet::install(&mut sim, CLIENT, SsLocal::new(cfg));
        testnet::install(&mut sim, CLIENT, SocksSessions { port: SS_LOCAL_PORT, sessions, method, ready: None });
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
            assert!(local.browsers.is_empty(), "{label}: {} browser entries left", local.browsers.len());
        }
    }
}
