//! An onion router: accepts circuits over TCP, peels/adds one onion
//! layer, extends circuits toward other relays, and (as exit) opens
//! streams to targets.

use std::collections::BTreeMap;

use sc_crypto::dh::{PrivateKey, PublicKey};
use sc_netproto::socks::TargetAddr;
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{App, AppEvent, Io, TcpEvent, TcpHandle};
use sc_simnet::hash::FixedMap;

use super::cells::{Cell, CellBuf, MalformedCell, OnionLayer, RELAY_DATA_MAX, cmd, parse_relay_payload, relay_cmd};
use crate::names::NameMap;

/// Default OR port.
pub const OR_PORT: u16 = 9001;

#[derive(Debug)]
struct Circuit {
    /// Link toward the client.
    prev: (TcpHandle, u32),
    /// This hop's onion layer.
    layer: OnionLayer,
    /// Link toward the next relay, once extended.
    next: Option<(TcpHandle, u32)>,
    /// Relay cells awaiting the next-hop connection (their circuit id is
    /// set when they are sent).
    pending_next: Vec<Cell>,
    /// Exit streams: stream id → upstream connection.
    streams: BTreeMap<u16, TcpHandle>,
}

#[derive(Debug, Default)]
struct OutConn {
    connected: bool,
    pending_cells: Vec<Cell>,
}

/// An onion router app. Every relay in the simulated Tor network — the
/// bridge's OR half, middles, and exits — is an instance of this.
pub struct OrRelay {
    port: u16,
    entropy: u64,
    /// Exit-side DNS view for resolving BEGIN targets by name.
    names: NameMap,
    /// Cell reassembly per connection (both inbound and outbound links).
    bufs: FixedMap<TcpHandle, CellBuf>,
    /// (link, circ id on that link) → circuit index.
    by_link: FixedMap<(TcpHandle, u32), usize>,
    circuits: Vec<Circuit>,
    /// Outbound relay links.
    out_conns: FixedMap<TcpHandle, OutConn>,
    /// Upstream (exit) connections: handle → (circuit, stream id).
    upstreams: FixedMap<TcpHandle, (usize, u16)>,
    next_out_circ: u32,
}

impl OrRelay {
    /// Creates a relay listening on `port`. `names` is only consulted in
    /// the exit role (BEGIN with a domain target).
    pub fn new(port: u16, entropy: u64, names: NameMap) -> Self {
        OrRelay {
            port,
            entropy,
            names,
            bufs: FixedMap::default(),
            by_link: FixedMap::default(),
            circuits: Vec::new(),
            out_conns: FixedMap::default(),
            upstreams: FixedMap::default(),
            next_out_circ: 1,
        }
    }

    fn send_cell(&mut self, conn: TcpHandle, cell: Cell, io: &mut impl Io) {
        if let Some(out) = self.out_conns.get_mut(&conn) {
            if !out.connected {
                out.pending_cells.push(cell);
                return;
            }
        }
        io.tcp_send_bytes(conn, cell.into_wire());
    }

    /// Originates a backward relay payload at this hop (EXTENDED,
    /// CONNECTED, DATA, END): one layer of our own encryption, applied
    /// in the cell.
    fn originate_backward(&mut self, circ_idx: usize, stream_id: u16, rcmd: u8, data: &[u8], io: &mut impl Io) {
        let (prev_conn, prev_circ) = self.circuits[circ_idx].prev;
        let mut cell = Cell::relay(prev_circ, stream_id, rcmd, data);
        self.circuits[circ_idx].layer.backward(cell.payload_mut());
        self.send_cell(prev_conn, cell, io);
    }

    /// Acts on a RELAY cell whose payload this hop's layer recognized.
    fn handle_recognized(&mut self, circ_idx: usize, cell: Cell, io: &mut impl Io) {
        let Some((stream_id, rcmd, data)) = parse_relay_payload(cell.payload()) else { return };
        match rcmd {
            relay_cmd::EXTEND => {
                // data: addr(4) port(2) client_pub(8)
                if data.len() != 14 {
                    return;
                }
                let addr = Addr::new(data[0], data[1], data[2], data[3]);
                let port = u16::from_be_bytes([data[4], data[5]]);
                let next = io.tcp_connect(SocketAddr::new(addr, port));
                self.out_conns.insert(next, OutConn::default());
                self.bufs.insert(next, CellBuf::new());
                let out_circ = self.next_out_circ;
                self.next_out_circ += 1;
                self.circuits[circ_idx].next = Some((next, out_circ));
                self.by_link.insert((next, out_circ), circ_idx);
                let create = Cell::new(out_circ, cmd::CREATE, &data[6..14]);
                self.send_cell(next, create, io);
            }
            relay_cmd::BEGIN => {
                // data: SOCKS-format target address (IP or domain).
                let Some((target, _)) = TargetAddr::decode(data) else { return };
                let dest = match &target {
                    TargetAddr::Ip(a, p) => SocketAddr::new(*a, *p),
                    TargetAddr::Domain(name, p) => match self.names.resolve(name) {
                        Some(a) => SocketAddr::new(a, *p),
                        None => {
                            self.originate_backward(circ_idx, stream_id, relay_cmd::END, &[], io);
                            return;
                        }
                    },
                };
                let upstream = io.tcp_connect(dest);
                self.circuits[circ_idx].streams.insert(stream_id, upstream);
                self.upstreams.insert(upstream, (circ_idx, stream_id));
            }
            relay_cmd::DATA => {
                if let Some(&upstream) = self.circuits[circ_idx].streams.get(&stream_id) {
                    // Before the exit's handshake completes, TCP holds it.
                    io.tcp_send_bytes(upstream, cell.into_relay_data());
                }
            }
            relay_cmd::END => {
                if let Some(upstream) = self.circuits[circ_idx].streams.remove(&stream_id) {
                    io.tcp_close(upstream);
                    self.upstreams.remove(&upstream);
                }
            }
            _ => {}
        }
    }

    fn on_cell(&mut self, conn: TcpHandle, mut cell: Cell, io: &mut impl Io) {
        let key = (conn, cell.circ_id());
        if let Some(&circ_idx) = self.by_link.get(&key) {
            let is_forward = self.circuits[circ_idx].prev == key;
            if is_forward {
                match cell.cmd() {
                    cmd::RELAY => {
                        self.circuits[circ_idx].layer.forward(cell.payload_mut());
                        if parse_relay_payload(cell.payload()).is_some() {
                            self.handle_recognized(circ_idx, cell, io);
                        } else if let Some((next, out_circ)) = self.circuits[circ_idx].next {
                            let connected = self
                                .out_conns
                                .get(&next)
                                .is_some_and(|o| o.connected);
                            if connected {
                                cell.set_circ_id(out_circ);
                                self.send_cell(next, cell, io);
                            } else {
                                self.circuits[circ_idx].pending_next.push(cell);
                            }
                        } else {
                            // Not for us and nowhere to forward: the cell
                            // raced circuit extension; queue it.
                            self.circuits[circ_idx].pending_next.push(cell);
                        }
                    }
                    cmd::DESTROY => {
                        if let Some((next, out_circ)) = self.circuits[circ_idx].next {
                            self.send_cell(next, Cell::new(out_circ, cmd::DESTROY, &[]), io);
                        }
                        // In stream order: the order of the closes is
                        // the order of their FINs on the wire.
                        for (_, upstream) in std::mem::take(&mut self.circuits[circ_idx].streams) {
                            io.tcp_close(upstream);
                            self.upstreams.remove(&upstream);
                        }
                    }
                    _ => {}
                }
            } else {
                // Backward direction (from the next hop).
                match cell.cmd() {
                    cmd::CREATED => {
                        // Our EXTEND completed: relay EXTENDED to client,
                        // and flush any cells that raced the extension.
                        self.originate_backward(circ_idx, 0, relay_cmd::EXTENDED, cell.payload(), io);
                        let pending = std::mem::take(&mut self.circuits[circ_idx].pending_next);
                        if let Some((next, out_circ)) = self.circuits[circ_idx].next {
                            for mut cell in pending {
                                cell.set_circ_id(out_circ);
                                self.send_cell(next, cell, io);
                            }
                        }
                    }
                    cmd::RELAY => {
                        self.circuits[circ_idx].layer.backward(cell.payload_mut());
                        let (prev_conn, prev_circ) = self.circuits[circ_idx].prev;
                        cell.set_circ_id(prev_circ);
                        self.send_cell(prev_conn, cell, io);
                    }
                    _ => {}
                }
            }
            return;
        }

        // Unknown circuit: CREATE starts one.
        if cell.cmd() == cmd::CREATE {
            let Ok(pub_bytes): Result<[u8; 8], _> = cell.payload().try_into() else {
                return;
            };
            let Ok(client_pub) = PublicKey::from_bytes(pub_bytes) else { return };
            let dh = PrivateKey::from_entropy(self.entropy ^ (key.1 as u64) << 16 ^ conn.0 as u64);
            let shared = dh.agree(&client_pub);
            let circ_idx = self.circuits.len();
            self.circuits.push(Circuit {
                prev: key,
                layer: OnionLayer::new(shared),
                next: None,
                pending_next: Vec::new(),
                streams: BTreeMap::new(),
            });
            self.by_link.insert(key, circ_idx);
            let created = Cell::new(key.1, cmd::CREATED, &dh.public_key().to_bytes());
            self.send_cell(conn, created, io);
        }
    }

    /// Takes one event, over any [`Io`].
    fn handle(&mut self, ev: AppEvent, io: &mut impl Io) {
        let AppEvent::Tcp(h, tcp_ev) = ev else { return };

        // Exit upstream side.
        if let Some(&(circ_idx, stream_id)) = self.upstreams.get(&h) {
            match tcp_ev {
                TcpEvent::Connected => {
                    self.originate_backward(circ_idx, stream_id, relay_cmd::CONNECTED, &[], io);
                }
                TcpEvent::DataReceived => {
                    let data = io.tcp_recv_all(h);
                    for chunk in data.chunks(RELAY_DATA_MAX) {
                        self.originate_backward(circ_idx, stream_id, relay_cmd::DATA, chunk, io);
                    }
                }
                TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                    self.originate_backward(circ_idx, stream_id, relay_cmd::END, &[], io);
                    self.circuits[circ_idx].streams.remove(&stream_id);
                    self.upstreams.remove(&h);
                }
                _ => {}
            }
            return;
        }

        match tcp_ev {
            TcpEvent::Accepted { .. } => {
                self.bufs.insert(h, CellBuf::new());
            }
            TcpEvent::Connected => {
                if let Some(out) = self.out_conns.get_mut(&h) {
                    out.connected = true;
                    let pending = std::mem::take(&mut out.pending_cells);
                    for cell in pending {
                        io.tcp_send_bytes(h, cell.into_wire());
                    }
                }
            }
            TcpEvent::DataReceived => {
                let data = io.tcp_recv_all(h);
                // Taken out while its cells are handled (which may open
                // links of their own), and walked a cell at a time.
                let Some(buf) = self.bufs.get_mut(&h) else { return };
                let mut buf = std::mem::take(buf);
                buf.push(&data);
                loop {
                    match buf.next_cell() {
                        Ok(Some(cell)) => self.on_cell(h, cell, io),
                        Ok(None) => break,
                        Err(MalformedCell) => {
                            // A protocol violation: the link is aborted,
                            // and what it still held goes with it.
                            io.tcp_abort(h);
                            self.bufs.remove(&h);
                            return;
                        }
                    }
                }
                if let Some(slot) = self.bufs.get_mut(&h) {
                    *slot = buf;
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => {
                self.bufs.remove(&h);
            }
            _ => {}
        }
    }
}

impl App for OrRelay {
    fn on_start(&mut self, ctx: &mut sc_simnet::sim::Ctx<'_>) {
        ctx.tcp_listen(self.port);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut sc_simnet::sim::Ctx<'_>) {
        self.handle(ev, ctx);
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use sc_simnet::sim::Ctx;
    use sc_simnet::time::SimDuration;

    use super::*;
    use crate::testnet::{self, WebLog, WebServer, CLIENT, EXIT, WEB};

    /// Speaks cells to the exit directly: a one-hop circuit, `streams`
    /// exit streams to web.example:80, and a DESTROY a second later.
    struct OneHop {
        streams: u16,
        key: PrivateKey,
        cells: CellBuf,
    }

    impl App for OneHop {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.tcp_connect(SocketAddr::new(EXIT, OR_PORT));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            match ev {
                AppEvent::Tcp(h, TcpEvent::Connected) => {
                    let public = self.key.public_key().to_bytes();
                    ctx.tcp_send_bytes(h, Cell::new(1, cmd::CREATE, &public).into_wire());
                }
                AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                    let data = ctx.tcp_recv_all(h);
                    self.cells.push(&data);
                    while let Some(cell) = self.cells.next_cell().unwrap() {
                        if cell.cmd() != cmd::CREATED {
                            continue;
                        }
                        let exit = PublicKey::from_bytes(cell.payload()[..8].try_into().unwrap()).unwrap();
                        let mut layer = OnionLayer::new(self.key.agree(&exit));
                        let target = TargetAddr::Domain("web.example".into(), 80).encode();
                        for stream in 1..=self.streams {
                            let mut cell = Cell::relay(1, stream, relay_cmd::BEGIN, &target);
                            layer.forward(cell.payload_mut());
                            ctx.tcp_send_bytes(h, cell.into_wire());
                        }
                        ctx.set_timer(SimDuration::from_secs(1), h.0 as u64);
                    }
                }
                AppEvent::TimerFired(h) => {
                    ctx.tcp_send_bytes(TcpHandle(h as usize), Cell::new(1, cmd::DESTROY, &[]).into_wire());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn destroy_closes_the_exit_streams_in_stream_order() {
        let mut sim = testnet::world(48);
        let log = Rc::new(RefCell::new(WebLog::default()));
        testnet::install(&mut sim, WEB, WebServer { answer: false, log: log.clone() });
        testnet::install(&mut sim, EXIT, OrRelay::new(OR_PORT, 103, testnet::names()));
        let one_hop = OneHop { streams: 8, key: PrivateKey::from_entropy(7), cells: CellBuf::new() };
        testnet::install(&mut sim, CLIENT, one_hop);
        sim.run_for(SimDuration::from_secs(3));
        let log = log.borrow();
        // The exit connects in stream order, so the web server accepts in
        // stream order; the closes must come in the same order.
        assert_eq!(log.accepted.len(), 8);
        assert_eq!(log.closed, log.accepted, "exit streams closed out of stream order");
    }

    /// Opens an OR connection to the exit and sends, in one write, a cell
    /// whose length field is too large followed by a good CREATE; logs
    /// what comes back.
    struct Hostile {
        log: Rc<RefCell<Vec<TcpEvent>>>,
    }

    impl App for Hostile {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.tcp_connect(SocketAddr::new(EXIT, OR_PORT));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            let AppEvent::Tcp(h, ev) = ev else { return };
            if ev == TcpEvent::Connected {
                let mut bad = Cell::new(1, cmd::CREATE, &[]).wire().to_vec();
                bad[5..7].copy_from_slice(&u16::MAX.to_be_bytes());
                let public = PrivateKey::from_entropy(7).public_key().to_bytes();
                bad.extend_from_slice(Cell::new(2, cmd::CREATE, &public).wire());
                ctx.tcp_send(h, &bad);
            }
            self.log.borrow_mut().push(ev);
        }
    }

    #[test]
    fn a_malformed_cell_aborts_the_or_connection() {
        let mut sim = testnet::world(49);
        testnet::install(&mut sim, EXIT, OrRelay::new(OR_PORT, 103, testnet::names()));
        let log = Rc::new(RefCell::new(Vec::new()));
        testnet::install(&mut sim, CLIENT, Hostile { log: log.clone() });
        sim.run_for(SimDuration::from_secs(3));
        // The link is reset, and the CREATE behind the bad cell is neither
        // answered nor left buffered.
        assert_eq!(*log.borrow(), [TcpEvent::Connected, TcpEvent::Reset]);
        let exit = testnet::app::<OrRelay>(&sim, EXIT);
        assert!(exit.circuits.is_empty(), "no circuit was created");
        assert!(exit.bufs.is_empty(), "{} links still buffer bytes", exit.bufs.len());
    }
}
