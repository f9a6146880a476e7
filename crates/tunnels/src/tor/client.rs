//! The Tor client: bootstraps from a directory, connects to its bridge
//! through the meek transport, builds a three-hop circuit, and exposes a
//! local SOCKS5 port to the browser — the moving parts behind the paper's
//! observation that Tor's first-time page load takes 13–20 seconds.

use bytes::BytesMut;
use rand::Rng;
use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest};
use sc_netproto::tls::TlsClient;
use sc_obs::prof::{self, Subsystem};
use sc_simnet::addr::SocketAddr;
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::hash::FixedMap;
use sc_simnet::sim::Ctx;
use sc_simnet::time::SimDuration;

use super::cells::{Cell, CellBuf, MalformedCell, OnionLayer, RELAY_DATA_MAX, cmd, parse_relay_payload, relay_cmd};
use super::directory::DIR_PORT;
use super::meek::MEEK_PATH;
use crate::front::{FrontEvent, SocksFront};
use crate::status::{TunnelState, TunnelStatus};
use sc_crypto::dh::{PrivateKey, PublicKey};

/// Default local SOCKS port (as in the Tor Browser bundle).
pub const TOR_SOCKS_PORT: u16 = 9050;
/// Base poll interval of the meek transport.
pub const POLL_INTERVAL: SimDuration = SimDuration::from_millis(250);
/// Maximum idle poll interval (real meek backs off when idle).
pub const POLL_MAX: SimDuration = SimDuration::from_secs(5);

const TIMER_POLL: u64 = 1;

/// Tor deployment parameters.
#[derive(Debug, Clone)]
pub struct TorConfig {
    /// The directory server.
    pub directory: SocketAddr,
    /// The meek-fronted bridge (HTTPS endpoint).
    pub bridge: SocketAddr,
    /// The innocuous domain fronted in the meek TLS SNI.
    pub front_domain: String,
    /// Middle relay OR address.
    pub middle: SocketAddr,
    /// Exit relay OR address.
    pub exit: SocketAddr,
    /// Local SOCKS port for the browser.
    pub socks_port: u16,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    FetchingCerts,
    FetchingConsensus,
    FetchingDescriptors,
    TlsToBridge,
    Creating,
    Extending(u8),
    Ready,
    Failed,
}

/// The Tor client app.
pub struct TorClient {
    config: TorConfig,
    status: TunnelStatus,
    entropy: u64,
    phase: Phase,
    // Bootstrap.
    dir_conn: Option<TcpHandle>,
    dir_http: HttpParser,
    // Meek transport.
    meek_conn: Option<TcpHandle>,
    tls: Option<TlsClient>,
    session_id: u64,
    http: HttpParser,
    poll_in_flight: bool,
    /// Cells awaiting the next poll, which carries them as its body.
    tx_queue: BytesMut,
    cells: CellBuf,
    /// Consecutive polls that returned no data (drives idle backoff).
    idle_polls: u32,
    // Circuit.
    layers: Vec<OnionLayer>,
    hop_keys: Vec<PrivateKey>,
    circ_id: u32,
    // Streams: a browser's tunnel is its stream id.
    front: SocksFront<u16>,
    /// Stream id → browser.
    streams: FixedMap<u16, TcpHandle>,
    next_stream: u16,
}

impl TorClient {
    /// Creates a client; readiness is reported on `status`.
    pub fn new(config: TorConfig, entropy: u64, status: TunnelStatus) -> Self {
        TorClient {
            config,
            status,
            entropy,
            phase: Phase::FetchingCerts,
            dir_conn: None,
            dir_http: HttpParser::new(),
            meek_conn: None,
            tls: None,
            session_id: 0,
            http: HttpParser::new(),
            poll_in_flight: false,
            tx_queue: BytesMut::new(),
            cells: CellBuf::new(),
            idle_polls: 0,
            layers: Vec::new(),
            hop_keys: Vec::new(),
            circ_id: 7,
            front: SocksFront::new(),
            streams: FixedMap::default(),
            next_stream: 1,
        }
    }

    // --- meek transport ---

    fn meek_flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.poll_in_flight {
            return;
        }
        let Some(conn) = self.meek_conn else { return };
        let Some(tls) = self.tls.as_mut() else { return };
        if !tls.is_connected() {
            return;
        }
        let mut req = HttpRequest::new("POST", MEEK_PATH)
            .header("Host", &self.config.front_domain)
            .header_fmt("X-Session-Id", self.session_id);
        req.body = std::mem::take(&mut self.tx_queue).freeze();
        let (head, body) = req.into_parts();
        let wire = {
            let _prof = prof::scope(Subsystem::Crypto);
            tls.send(&[&head, &body])
        };
        ctx.tcp_send_bytes(conn, wire);
        self.poll_in_flight = true;
    }

    fn queue_cell(&mut self, cell: Cell, ctx: &mut Ctx<'_>) {
        self.tx_queue.extend_from_slice(cell.wire());
        self.meek_flush(ctx);
    }

    /// Builds a relay cell for hop `upto`, wraps its payload in onion
    /// layers 0..=`upto` where it lies, and queues it.
    fn send_relay(&mut self, upto: usize, stream_id: u16, rcmd: u8, data: &[u8], ctx: &mut Ctx<'_>) {
        let mut cell = Cell::relay(self.circ_id, stream_id, rcmd, data);
        for layer in self.layers[..=upto].iter_mut().rev() {
            layer.forward(cell.payload_mut());
        }
        self.queue_cell(cell, ctx);
    }

    // --- circuit building ---

    fn begin_create(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Creating;
        let key = PrivateKey::from_entropy(self.entropy ^ 0x1111);
        let cell = Cell::new(self.circ_id, cmd::CREATE, &key.public_key().to_bytes());
        self.hop_keys.push(key);
        self.queue_cell(cell, ctx);
    }

    fn begin_extend(&mut self, hop: u8, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Extending(hop);
        let target = if hop == 1 { self.config.middle } else { self.config.exit };
        let key = PrivateKey::from_entropy(self.entropy ^ (0x2222 * (hop as u64 + 1)));
        // addr(4) port(2) client_pub(8)
        let mut data = [0u8; 14];
        data[..4].copy_from_slice(&target.addr.octets());
        data[4..6].copy_from_slice(&target.port.to_be_bytes());
        data[6..].copy_from_slice(&key.public_key().to_bytes());
        self.hop_keys.push(key);
        self.send_relay(self.layers.len() - 1, 0, relay_cmd::EXTEND, &data, ctx);
    }

    fn on_hop_established(&mut self, pub_bytes: &[u8], ctx: &mut Ctx<'_>) {
        let Ok(bytes8): Result<[u8; 8], _> = pub_bytes.try_into() else {
            self.phase = Phase::Failed;
            self.status.set(TunnelState::Failed);
            return;
        };
        let Ok(peer) = PublicKey::from_bytes(bytes8) else {
            self.phase = Phase::Failed;
            self.status.set(TunnelState::Failed);
            return;
        };
        let key = self.hop_keys[self.layers.len()].agree(&peer);
        self.layers.push(OnionLayer::new(key));
        match self.layers.len() {
            1 => self.begin_extend(1, ctx),
            2 => self.begin_extend(2, ctx),
            _ => {
                self.phase = Phase::Ready;
                self.status.set(TunnelState::Up { established_at: ctx.now() });
            }
        }
    }

    // --- inbound cells ---

    fn on_cell(&mut self, mut cell: Cell, ctx: &mut Ctx<'_>) {
        match cell.cmd() {
            cmd::CREATED => {
                if self.phase == Phase::Creating {
                    self.on_hop_established(cell.payload(), ctx);
                }
            }
            cmd::RELAY => {
                // Peel layers in the cell until one recognizes it.
                let recognized = self.layers.iter_mut().any(|layer| {
                    layer.backward(cell.payload_mut());
                    parse_relay_payload(cell.payload()).is_some()
                });
                if !recognized {
                    return;
                }
                let Some((stream_id, rcmd, data)) = parse_relay_payload(cell.payload()) else { return };
                match rcmd {
                    relay_cmd::EXTENDED => {
                        if matches!(self.phase, Phase::Extending(_)) {
                            self.on_hop_established(data, ctx);
                        }
                    }
                    relay_cmd::CONNECTED => {
                        let Some(&browser) = self.streams.get(&stream_id) else { return };
                        // SOCKS success already sent at negotiation time;
                        // now flush buffered request bytes.
                        let Some((_, early)) = self.front.open(browser) else { return };
                        for chunk in early.chunks(RELAY_DATA_MAX) {
                            self.send_relay(2, stream_id, relay_cmd::DATA, chunk, ctx);
                        }
                    }
                    relay_cmd::DATA => {
                        if let Some(&browser) = self.streams.get(&stream_id) {
                            ctx.tcp_send_bytes(browser, cell.into_relay_data());
                        }
                    }
                    relay_cmd::END => {
                        if let Some(browser) = self.streams.remove(&stream_id) {
                            self.front.end(browser, ctx);
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    fn open_stream(&mut self, browser: TcpHandle, ctx: &mut Ctx<'_>) {
        let Some(target) = self.front.target(browser) else { return };
        let begin = target.encode();
        let stream_id = self.next_stream;
        self.next_stream += 1;
        self.streams.insert(stream_id, browser);
        self.front.bind(Some(browser), |_| stream_id);
        self.send_relay(2, stream_id, relay_cmd::BEGIN, &begin, ctx);
    }
}

impl App for TorClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(self.config.socks_port);
        self.session_id = ctx.rng().gen();
        // Bootstrap: fetch the consensus first.
        let h = ctx.tcp_connect(self.config.directory);
        self.dir_conn = Some(h);
        debug_assert_eq!(self.config.directory.port, DIR_PORT);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        match ev {
            AppEvent::TimerFired(TIMER_POLL) => {
                self.meek_flush(ctx);
            }
            AppEvent::Tcp(h, tcp_ev) if Some(h) == self.dir_conn => match tcp_ev {
                TcpEvent::Connected => {
                    // Bootstrap stage 1: authority certificates.
                    let req = HttpRequest::get("directory.torproject.sim", "/certs");
                    ctx.tcp_send_bytes(h, req.into_wire());
                }
                TcpEvent::DataReceived => {
                    let data = ctx.tcp_recv_all(h);
                    if let Ok(msgs) = self.dir_http.push_bytes(data) {
                        for msg in msgs {
                            if let HttpMessage::Response(_) = msg {
                                match self.phase {
                                    Phase::FetchingCerts => {
                                        self.phase = Phase::FetchingConsensus;
                                        let req = HttpRequest::get(
                                            "directory.torproject.sim",
                                            "/consensus",
                                        );
                                        ctx.tcp_send_bytes(h, req.into_wire());
                                    }
                                    Phase::FetchingConsensus => {
                                        // Second bootstrap stage: relay
                                        // descriptors, on the same conn.
                                        self.phase = Phase::FetchingDescriptors;
                                        let req = HttpRequest::get(
                                            "directory.torproject.sim",
                                            "/descriptors",
                                        );
                                        ctx.tcp_send_bytes(h, req.into_wire());
                                    }
                                    Phase::FetchingDescriptors => {
                                        ctx.tcp_close(h);
                                        self.phase = Phase::TlsToBridge;
                                        let conn = ctx.tcp_connect(self.config.bridge);
                                        self.meek_conn = Some(conn);
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                }
                TcpEvent::ConnectFailed | TcpEvent::Reset => {
                    self.phase = Phase::Failed;
                    self.status.set(TunnelState::Failed);
                }
                _ => {}
            },
            AppEvent::Tcp(h, tcp_ev) if Some(h) == self.meek_conn => match tcp_ev {
                TcpEvent::Connected => {
                    let mut tls = TlsClient::new(&self.config.front_domain, self.entropy);
                    let hello = tls.start_handshake();
                    ctx.tcp_send_bytes(h, hello);
                    self.tls = Some(tls);
                }
                TcpEvent::DataReceived => {
                    let data = ctx.tcp_recv_all(h);
                    let Some(tls) = self.tls.as_mut() else { return };
                    let out = {
                        let _prof = prof::scope(Subsystem::Crypto);
                        tls.on_bytes(&data)
                    };
                    let Ok(out) = out else {
                        self.phase = Phase::Failed;
                        self.status.set(TunnelState::Failed);
                        return;
                    };
                    if !out.wire.is_empty() {
                        ctx.tcp_send_bytes(h, out.wire);
                    }
                    if out.handshake_complete {
                        self.begin_create(ctx);
                    }
                    if !out.plaintext.is_empty() {
                        if let Ok(msgs) = self.http.push_bytes(out.plaintext) {
                            for msg in msgs {
                                if let HttpMessage::Response(resp) = msg {
                                    self.poll_in_flight = false;
                                    if resp.body.is_empty() {
                                        self.idle_polls = self.idle_polls.saturating_add(1);
                                    } else {
                                        self.idle_polls = 0;
                                    }
                                    self.cells.push(&resp.body);
                                    loop {
                                        match self.cells.next_cell() {
                                            Ok(Some(cell)) => self.on_cell(cell, ctx),
                                            Ok(None) => break,
                                            Err(MalformedCell) => {
                                                // A protocol violation: the
                                                // bridge link is aborted.
                                                ctx.tcp_abort(h);
                                                self.phase = Phase::Failed;
                                                self.status.set(TunnelState::Failed);
                                                return;
                                            }
                                        }
                                    }
                                    // Keep the poll loop alive, backing
                                    // off while idle as real meek does.
                                    if !self.tx_queue.is_empty() {
                                        self.meek_flush(ctx);
                                    } else if self.phase != Phase::Failed {
                                        let factor = 1u64 << self.idle_polls.min(5);
                                        let delay = POLL_INTERVAL
                                            .saturating_mul(factor)
                                            .clamp(POLL_INTERVAL, POLL_MAX);
                                        ctx.set_timer(delay, TIMER_POLL);
                                    }
                                }
                            }
                        }
                    }
                }
                TcpEvent::ConnectFailed | TcpEvent::Reset => {
                    self.phase = Phase::Failed;
                    self.status.set(TunnelState::Failed);
                }
                _ => {}
            },
            // Browser SOCKS side.
            AppEvent::Tcp(h, tcp_ev) => match self.front.on_event(h, tcp_ev, ctx) {
                Some(FrontEvent::Connect(browser)) if self.phase == Phase::Ready => self.open_stream(browser, ctx),
                Some(FrontEvent::Connect(browser)) => self.front.end(browser, ctx),
                Some(FrontEvent::Data(stream_id, data)) => {
                    for chunk in data.chunks(RELAY_DATA_MAX) {
                        self.send_relay(2, stream_id, relay_cmd::DATA, chunk, ctx);
                    }
                }
                Some(FrontEvent::Left(Some(stream_id))) => {
                    if self.streams.remove(&stream_id).is_some() {
                        self.send_relay(2, stream_id, relay_cmd::END, &[], ctx);
                    }
                }
                Some(FrontEvent::Left(None)) | None => {}
            },
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use sc_simnet::sim::Sim;

    use super::*;
    use crate::testnet::{self, SocksSessions, WebLog, WebServer, CLIENT, REQUEST, WEB};

    /// A Tor world whose `sessions` browsers offer `method`, each cut at
    /// `cut`: the client, its readiness, and what the web server saw.
    fn run(sessions: usize, method: u8, cut: Option<usize>) -> (Sim, TunnelStatus, Rc<RefCell<WebLog>>) {
        let mut sim = testnet::world(47);
        let config = testnet::install_tor_network(&mut sim);
        let log = Rc::default();
        testnet::install(&mut sim, WEB, WebServer { answer: true, log: Rc::clone(&log) });
        let status = TunnelStatus::new();
        testnet::install(&mut sim, CLIENT, TorClient::new(config, 7, status.clone()));
        let ready = Some(status.clone());
        testnet::install(&mut sim, CLIENT, SocksSessions { port: TOR_SOCKS_PORT, sessions, method, ready, cut });
        sim.run_for(SimDuration::from_secs(120));
        (sim, status, log)
    }

    #[test]
    fn sessions_that_end_leave_no_browser_entry() {
        for (method, label) in [(0, "fetched and closed"), (2, "refused at the greeting")] {
            let (sim, status, _) = run(4, method, None);
            assert!(status.is_up(), "{label}: the circuit never came up");
            let client = testnet::app::<TorClient>(&sim, CLIENT);
            assert_eq!(client.front.len(), 0, "{label}: browser entries left");
            assert!(client.streams.is_empty(), "{label}: {} streams left", client.streams.len());
        }
    }

    #[test]
    fn early_bytes_cut_in_the_greeting_the_connect_and_the_request_reach_the_origin_once() {
        // The greeting is bytes 0..3, the CONNECT 3..21, the request 21...
        for cut in [1, 8, 31] {
            let (sim, status, log) = run(1, 0, Some(cut));
            assert!(status.is_up(), "cut at {cut}: the circuit never came up");
            let log = log.borrow();
            let received: Vec<&[u8]> = log.received.values().map(Vec::as_slice).collect();
            assert_eq!(received, [REQUEST], "cut at {cut}: what the origin got");
            assert_eq!(log.closed, log.accepted, "cut at {cut}: the session never completed");
            assert_eq!(testnet::app::<TorClient>(&sim, CLIENT).front.len(), 0, "cut at {cut}");
        }
    }
}
