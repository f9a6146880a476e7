//! An onion router: accepts circuits over TCP, peels/adds one onion
//! layer, extends circuits toward other relays, and (as exit) opens
//! streams to targets.

use std::collections::BTreeMap;

use sc_crypto::dh::{PrivateKey, PublicKey};
use sc_netproto::socks::TargetAddr;
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{App, AppEvent, TcpEvent, TcpHandle};
use sc_simnet::hash::FixedMap;
use sc_simnet::sim::Ctx;

use super::cells::{
    Cell, CellBuf, OnionLayer, RELAY_DATA_MAX, cmd, parse_relay_payload, relay_cmd, relay_payload,
};
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
    /// Relay payloads awaiting the next-hop connection.
    pending_next: Vec<Vec<u8>>,
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

    fn send_cell(&mut self, conn: TcpHandle, cell: Cell, ctx: &mut Ctx<'_>) {
        if let Some(out) = self.out_conns.get_mut(&conn) {
            if !out.connected {
                out.pending_cells.push(cell);
                return;
            }
        }
        ctx.tcp_send_bytes(conn, cell.encode());
    }

    /// Originates a backward relay payload at this hop (EXTENDED,
    /// CONNECTED, DATA, END): one layer of our own encryption.
    fn originate_backward(&mut self, circ_idx: usize, payload: Vec<u8>, ctx: &mut Ctx<'_>) {
        let (prev_conn, prev_circ) = self.circuits[circ_idx].prev;
        let mut data = payload;
        self.circuits[circ_idx].layer.backward(&mut data);
        self.send_cell(prev_conn, Cell::new(prev_circ, cmd::RELAY, data), ctx);
    }

    fn handle_recognized(&mut self, circ_idx: usize, stream_id: u16, rcmd: u8, data: Vec<u8>, ctx: &mut Ctx<'_>) {
        match rcmd {
            relay_cmd::EXTEND => {
                // data: addr(4) port(2) client_pub(8)
                if data.len() != 14 {
                    return;
                }
                let addr = Addr::new(data[0], data[1], data[2], data[3]);
                let port = u16::from_be_bytes([data[4], data[5]]);
                let next = ctx.tcp_connect(SocketAddr::new(addr, port));
                self.out_conns.insert(next, OutConn::default());
                self.bufs.insert(next, CellBuf::new());
                let out_circ = self.next_out_circ;
                self.next_out_circ += 1;
                self.circuits[circ_idx].next = Some((next, out_circ));
                self.by_link.insert((next, out_circ), circ_idx);
                let create = Cell::new(out_circ, cmd::CREATE, data[6..14].to_vec());
                self.send_cell(next, create, ctx);
            }
            relay_cmd::BEGIN => {
                // data: SOCKS-format target address (IP or domain).
                let Some((target, _)) = TargetAddr::decode(&data) else { return };
                let dest = match &target {
                    TargetAddr::Ip(a, p) => SocketAddr::new(*a, *p),
                    TargetAddr::Domain(name, p) => match self.names.resolve(name) {
                        Some(a) => SocketAddr::new(a, *p),
                        None => {
                            self.originate_backward(
                                circ_idx,
                                relay_payload(stream_id, relay_cmd::END, &[]),
                                ctx,
                            );
                            return;
                        }
                    },
                };
                let upstream = ctx.tcp_connect(dest);
                self.circuits[circ_idx].streams.insert(stream_id, upstream);
                self.upstreams.insert(upstream, (circ_idx, stream_id));
            }
            relay_cmd::DATA => {
                if let Some(&upstream) = self.circuits[circ_idx].streams.get(&stream_id) {
                    // Before the exit's handshake completes, TCP holds it.
                    ctx.tcp_send_bytes(upstream, data);
                }
            }
            relay_cmd::END => {
                if let Some(upstream) = self.circuits[circ_idx].streams.remove(&stream_id) {
                    ctx.tcp_close(upstream);
                    self.upstreams.remove(&upstream);
                }
            }
            _ => {}
        }
    }

    fn on_cell(&mut self, conn: TcpHandle, cell: Cell, ctx: &mut Ctx<'_>) {
        let key = (conn, cell.circ_id);
        if let Some(&circ_idx) = self.by_link.get(&key) {
            let is_forward = self.circuits[circ_idx].prev == key;
            if is_forward {
                match cell.cmd {
                    cmd::RELAY => {
                        let mut payload = cell.payload;
                        self.circuits[circ_idx].layer.forward(&mut payload);
                        if let Some((sid, rcmd, data)) = parse_relay_payload(&payload) {
                            let data = data.to_vec();
                            self.handle_recognized(circ_idx, sid, rcmd, data, ctx);
                        } else if let Some((next, out_circ)) = self.circuits[circ_idx].next {
                            let connected = self
                                .out_conns
                                .get(&next)
                                .is_some_and(|o| o.connected);
                            if connected {
                                self.send_cell(next, Cell::new(out_circ, cmd::RELAY, payload), ctx);
                            } else {
                                self.circuits[circ_idx].pending_next.push(payload);
                            }
                        } else {
                            // Not for us and nowhere to forward: the cell
                            // raced circuit extension; queue it.
                            self.circuits[circ_idx].pending_next.push(payload);
                        }
                    }
                    cmd::DESTROY => {
                        if let Some((next, out_circ)) = self.circuits[circ_idx].next {
                            self.send_cell(next, Cell::new(out_circ, cmd::DESTROY, vec![]), ctx);
                        }
                        // In stream order: the order of the closes is
                        // the order of their FINs on the wire.
                        for (_, upstream) in std::mem::take(&mut self.circuits[circ_idx].streams) {
                            ctx.tcp_close(upstream);
                            self.upstreams.remove(&upstream);
                        }
                    }
                    _ => {}
                }
            } else {
                // Backward direction (from the next hop).
                match cell.cmd {
                    cmd::CREATED => {
                        // Our EXTEND completed: relay EXTENDED to client,
                        // and flush any cells that raced the extension.
                        self.originate_backward(
                            circ_idx,
                            relay_payload(0, relay_cmd::EXTENDED, &cell.payload),
                            ctx,
                        );
                        let pending = std::mem::take(&mut self.circuits[circ_idx].pending_next);
                        if let Some((next, out_circ)) = self.circuits[circ_idx].next {
                            for payload in pending {
                                self.send_cell(next, Cell::new(out_circ, cmd::RELAY, payload), ctx);
                            }
                        }
                    }
                    cmd::RELAY => {
                        let mut payload = cell.payload;
                        self.circuits[circ_idx].layer.backward(&mut payload);
                        let (prev_conn, prev_circ) = self.circuits[circ_idx].prev;
                        self.send_cell(prev_conn, Cell::new(prev_circ, cmd::RELAY, payload), ctx);
                    }
                    _ => {}
                }
            }
            return;
        }

        // Unknown circuit: CREATE starts one.
        if cell.cmd == cmd::CREATE {
            let Ok(pub_bytes): Result<[u8; 8], _> = cell.payload.as_slice().try_into() else {
                return;
            };
            let Ok(client_pub) = PublicKey::from_bytes(pub_bytes) else { return };
            let dh = PrivateKey::from_entropy(self.entropy ^ (cell.circ_id as u64) << 16 ^ conn.0 as u64);
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
            let created = Cell::new(cell.circ_id, cmd::CREATED, dh.public_key().to_bytes().to_vec());
            self.send_cell(conn, created, ctx);
        }
    }
}

impl App for OrRelay {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.tcp_listen(self.port);
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        let AppEvent::Tcp(h, tcp_ev) = ev else { return };

        // Exit upstream side.
        if let Some(&(circ_idx, stream_id)) = self.upstreams.get(&h) {
            match tcp_ev {
                TcpEvent::Connected => {
                    self.originate_backward(
                        circ_idx,
                        relay_payload(stream_id, relay_cmd::CONNECTED, &[]),
                        ctx,
                    );
                }
                TcpEvent::DataReceived => {
                    let data = ctx.tcp_recv_all(h);
                    for chunk in data.chunks(RELAY_DATA_MAX) {
                        self.originate_backward(
                            circ_idx,
                            relay_payload(stream_id, relay_cmd::DATA, chunk),
                            ctx,
                        );
                    }
                }
                TcpEvent::PeerClosed | TcpEvent::Reset | TcpEvent::ConnectFailed => {
                    self.originate_backward(
                        circ_idx,
                        relay_payload(stream_id, relay_cmd::END, &[]),
                        ctx,
                    );
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
                        ctx.tcp_send_bytes(h, cell.encode());
                    }
                }
            }
            TcpEvent::DataReceived => {
                let data = ctx.tcp_recv_all(h);
                let cells = {
                    let Some(buf) = self.bufs.get_mut(&h) else { return };
                    buf.push(&data);
                    let mut cells = Vec::new();
                    while let Some(c) = buf.next_cell() {
                        cells.push(c);
                    }
                    cells
                };
                for cell in cells {
                    self.on_cell(h, cell, ctx);
                }
            }
            TcpEvent::PeerClosed | TcpEvent::Reset => {
                self.bufs.remove(&h);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

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
                    let public = self.key.public_key().to_bytes().to_vec();
                    ctx.tcp_send(h, &Cell::new(1, cmd::CREATE, public).encode());
                }
                AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                    let data = ctx.tcp_recv_all(h);
                    self.cells.push(&data);
                    while let Some(cell) = self.cells.next_cell() {
                        if cell.cmd != cmd::CREATED {
                            continue;
                        }
                        let exit = PublicKey::from_bytes(cell.payload[..8].try_into().unwrap()).unwrap();
                        let mut layer = OnionLayer::new(self.key.agree(&exit));
                        let target = TargetAddr::Domain("web.example".into(), 80).encode();
                        for stream in 1..=self.streams {
                            let mut payload = relay_payload(stream, relay_cmd::BEGIN, &target);
                            layer.forward(&mut payload);
                            ctx.tcp_send(h, &Cell::new(1, cmd::RELAY, payload).encode());
                        }
                        ctx.set_timer(SimDuration::from_secs(1), h.0 as u64);
                    }
                }
                AppEvent::TimerFired(h) => {
                    ctx.tcp_send(TcpHandle(h as usize), &Cell::new(1, cmd::DESTROY, vec![]).encode());
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
}
