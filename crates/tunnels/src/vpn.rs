//! Packet-level VPNs: the machinery shared by native VPN (PPTP, L2TP) and
//! OpenVPN — control-channel handshake, per-packet sealing, full-tunnel
//! capture on the client, and NAT + forwarding on the server.
//!
//! The paper's observations these reproduce:
//! * native VPN "forwards all traffic to remote VPN servers outside China,
//!   significantly increasing access latency to domestic Internet
//!   services" — the client installs a **full tunnel**;
//! * VPN traffic is classified by the GFW as PPTP/L2TP/OpenVPN (legal,
//!   registered classes since 2015) and passes with baseline loss only.

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};
use sc_crypto::dh::{PrivateKey, PublicKey};
use sc_crypto::hmac::{ct_eq, HmacKey};
use sc_crypto::modes::Ctr;
use sc_crypto::{Aes, KeySize};
use sc_obs::prof::{self, Subsystem};
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{App, AppEvent, PacketTunnel, TcpEvent, TcpHandle, UdpHandle};
use sc_simnet::packet::{L4, Packet, proto};
use sc_simnet::sim::Ctx;
use sc_simnet::time::SimTime;

use crate::status::{TunnelState, TunnelStatus};

/// PPTP control port.
pub const PPTP_PORT: u16 = 1723;
/// L2TP port.
pub const L2TP_PORT: u16 = 1701;
/// OpenVPN port.
pub const OPENVPN_PORT: u16 = 1194;
/// NAT port range used by VPN servers.
pub const NAT_PORT_LO: u16 = 20_000;
/// Upper bound of the NAT port range.
pub const NAT_PORT_HI: u16 = 29_999;

/// OpenVPN wire opcodes (shifted, as on the real wire).
pub mod opcode {
    /// P_CONTROL_HARD_RESET_CLIENT_V2.
    pub const HARD_RESET_CLIENT: u8 = 0x38;
    /// P_CONTROL_HARD_RESET_SERVER_V2.
    pub const HARD_RESET_SERVER: u8 = 0x40;
    /// P_DATA_V1.
    pub const DATA: u8 = 0x30;
}

/// Which VPN flavour a client/server pair speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VpnVariant {
    /// PPTP: TCP control on 1723, GRE (protocol 47) data channel.
    Pptp,
    /// L2TP/IPsec: UDP control on 1701, ESP (protocol 50) data channel.
    L2tp,
    /// OpenVPN: UDP 1194 control + data with opcode framing.
    OpenVpn,
}

impl VpnVariant {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            VpnVariant::Pptp => "pptp",
            VpnVariant::L2tp => "l2tp",
            VpnVariant::OpenVpn => "openvpn",
        }
    }

    /// Extra bytes this encapsulation adds per data packet on the wire
    /// (sealing overhead + any opcode byte).
    pub fn per_packet_overhead(self) -> usize {
        match self {
            // nonce(8) + tag(8)
            VpnVariant::Pptp | VpnVariant::L2tp => 16,
            // opcode(1) + nonce(8) + tag(8)
            VpnVariant::OpenVpn => 17,
        }
    }
}

// --- per-packet sealing -------------------------------------------------

/// A VPN session key with its AES-256 schedule expanded and its HMAC
/// pads hashed once, so that sealing or opening a packet builds only the
/// per-packet counter block and MACs only the packet.
#[derive(Clone)]
pub struct SessionKey {
    mac_key: HmacKey,
    aes: Aes,
}

impl SessionKey {
    /// Expands the agreed 32-byte secret.
    pub fn new(key: [u8; 32]) -> Self {
        let aes = Aes::new(KeySize::Aes256, &key).expect("32-byte key");
        SessionKey { mac_key: HmacKey::new(&key), aes }
    }

    fn ctr(&self, nonce: &[u8; 8]) -> Ctr {
        let mut nblock = [0u8; 16];
        nblock[..8].copy_from_slice(nonce);
        Ctr::new(self.aes.clone(), nblock)
    }
}

/// Seals `plain` with `key`: nonce(8) || ctr-ciphertext || hmac-tag(8).
pub fn seal_packet(key: &SessionKey, nonce: u64, plain: &[u8]) -> Vec<u8> {
    let _prof = prof::scope(Subsystem::Crypto);
    let nonce = nonce.to_be_bytes();
    let mut out = Vec::with_capacity(plain.len() + 16);
    out.extend_from_slice(&nonce);
    out.extend_from_slice(plain);
    key.ctr(&nonce).apply(&mut out[8..]);
    let tag = key.mac_key.mac(&out);
    out.extend_from_slice(&tag[..8]);
    out
}

/// Opens a sealed packet; `None` on any authentication failure.
pub fn open_packet(key: &SessionKey, data: &[u8]) -> Option<Vec<u8>> {
    let _prof = prof::scope(Subsystem::Crypto);
    if data.len() < 16 {
        return None;
    }
    let (body, tag) = data.split_at(data.len() - 8);
    let expect = key.mac_key.mac(body);
    if !ct_eq(&expect[..8], tag) {
        return None;
    }
    let (nonce, ct) = body.split_first_chunk::<8>()?;
    let mut pt = ct.to_vec();
    key.ctr(nonce).apply(&mut pt);
    Some(pt)
}

// --- NAT ------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct NatFlow {
    client: Addr,
    protocol: u8,
    inner_src: SocketAddr,
    inner_dst: SocketAddr,
}

#[derive(Debug, Clone, Copy)]
struct NatEntry {
    flow: NatFlow,
}

/// A port-rewriting NAT for VPN servers.
#[derive(Debug, Default)]
pub struct Nat {
    by_port: HashMap<u16, NatEntry>,
    by_flow: HashMap<NatFlow, u16>,
    next_port: u16,
}

impl Nat {
    /// Creates an empty NAT.
    pub fn new() -> Self {
        Nat { by_port: HashMap::new(), by_flow: HashMap::new(), next_port: NAT_PORT_LO }
    }

    /// Translates an outbound inner packet from `client`: rewrites the
    /// source to `(public_addr, nat_port)` and returns the packet to
    /// forward. Returns `None` for packets without ports.
    pub fn outbound(&mut self, client: Addr, public_addr: Addr, mut inner: Packet) -> Option<Packet> {
        let inner_src = inner.src_socket()?;
        let inner_dst = inner.dst_socket()?;
        let flow = NatFlow { client, protocol: inner.l4.protocol(), inner_src, inner_dst };
        let port = match self.by_flow.get(&flow) {
            Some(&p) => p,
            None => {
                let p = self.alloc_port();
                self.by_flow.insert(flow, p);
                self.by_port.insert(p, NatEntry { flow });
                p
            }
        };
        inner.src = public_addr;
        match &mut inner.l4 {
            L4::Tcp(t) => t.src_port = port,
            L4::Udp(u) => u.src_port = port,
            L4::Raw { .. } => return None,
        }
        Some(inner)
    }

    /// Translates an inbound reply addressed to a NAT port: rewrites the
    /// destination back to the client's inner socket. Returns the client
    /// address and the restored packet.
    pub fn inbound(&mut self, mut pkt: Packet) -> Option<(Addr, Packet)> {
        let dst_port = pkt.dst_socket()?.port;
        let entry = self.by_port.get(&dst_port)?;
        let flow = entry.flow;
        pkt.dst = flow.inner_src.addr;
        match &mut pkt.l4 {
            L4::Tcp(t) => t.dst_port = flow.inner_src.port,
            L4::Udp(u) => u.dst_port = flow.inner_src.port,
            L4::Raw { .. } => return None,
        }
        Some((flow.client, pkt))
    }

    fn alloc_port(&mut self) -> u16 {
        loop {
            let p = self.next_port;
            self.next_port = if self.next_port >= NAT_PORT_HI { NAT_PORT_LO } else { self.next_port + 1 };
            if !self.by_port.contains_key(&p) {
                return p;
            }
        }
    }

    /// Active translations (diagnostics / memory model).
    pub fn len(&self) -> usize {
        self.by_port.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_port.is_empty()
    }
}

// --- encapsulation ----------------------------------------------------------

fn encap_packet(variant: VpnVariant, from: Addr, to: Addr, sealed: Vec<u8>) -> Packet {
    match variant {
        VpnVariant::Pptp => Packet::raw(from, to, proto::GRE, Bytes::from(sealed)),
        VpnVariant::L2tp => Packet::raw(from, to, proto::ESP, Bytes::from(sealed)),
        VpnVariant::OpenVpn => {
            let mut framed = BytesMut::with_capacity(sealed.len() + 1);
            framed.put_u8(opcode::DATA);
            framed.put_slice(&sealed);
            Packet::udp(
                SocketAddr::new(from, OPENVPN_PORT),
                SocketAddr::new(to, OPENVPN_PORT),
                framed.freeze(),
            )
        }
    }
}

fn decap_payload(variant: VpnVariant, pkt: &Packet) -> Option<Bytes> {
    match (variant, &pkt.l4) {
        (VpnVariant::Pptp, L4::Raw { protocol: proto::GRE, payload }) => Some(payload.clone()),
        (VpnVariant::L2tp, L4::Raw { protocol: proto::ESP, payload }) => Some(payload.clone()),
        (VpnVariant::OpenVpn, L4::Udp(u)) if u.payload.first() == Some(&opcode::DATA) => {
            Some(u.payload.slice(1..))
        }
        _ => None,
    }
}

// --- client ---------------------------------------------------------------

/// The full-tunnel packet capture installed once the handshake completes.
struct VpnTunnel {
    variant: VpnVariant,
    own: Addr,
    server: Addr,
    key: SessionKey,
    nonce: u64,
}

impl PacketTunnel for VpnTunnel {
    fn name(&self) -> &str {
        self.variant.name()
    }

    fn wrap(&mut self, pkt: Packet, _now: SimTime) -> Vec<Packet> {
        // Never capture traffic to the VPN server itself (control channel
        // and our own encapsulated output) or loopback deliveries of
        // already-decapsulated inbound packets.
        if pkt.dst == self.server || pkt.dst == self.own {
            return vec![pkt];
        }
        self.nonce += 1;
        let sealed = seal_packet(&self.key, self.nonce, &pkt.encode());
        vec![encap_packet(self.variant, self.own, self.server, sealed)]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientPhase {
    Idle,
    Handshaking,
    Up,
}

/// A VPN client app: runs the control handshake, installs the full tunnel,
/// and decapsulates inbound data.
pub struct VpnClient {
    variant: VpnVariant,
    server: Addr,
    status: TunnelStatus,
    phase: ClientPhase,
    dh: Option<PrivateKey>,
    key: Option<SessionKey>,
    control_tcp: Option<TcpHandle>,
    control_udp: Option<UdpHandle>,
    entropy: u64,
}

impl VpnClient {
    /// Creates a client that will connect to `server` and report readiness
    /// on `status`.
    pub fn new(variant: VpnVariant, server: Addr, entropy: u64, status: TunnelStatus) -> Self {
        VpnClient {
            variant,
            server,
            status,
            phase: ClientPhase::Idle,
            dh: None,
            key: None,
            control_tcp: None,
            control_udp: None,
            entropy,
        }
    }

    fn hello_payload(&mut self) -> Vec<u8> {
        let dh = PrivateKey::from_entropy(self.entropy);
        let mut msg = match self.variant {
            VpnVariant::Pptp => b"SCCRQ".to_vec(),
            VpnVariant::L2tp => b"L2TP-SCCRQ".to_vec(),
            VpnVariant::OpenVpn => vec![opcode::HARD_RESET_CLIENT],
        };
        msg.extend_from_slice(&dh.public_key().to_bytes());
        self.dh = Some(dh);
        msg
    }

    fn finish_handshake(&mut self, server_pub_bytes: &[u8], ctx: &mut Ctx<'_>) {
        let Ok(bytes8): Result<[u8; 8], _> = server_pub_bytes.try_into() else { return };
        let Ok(server_pub) = PublicKey::from_bytes(bytes8) else { return };
        let dh = self.dh.expect("hello sent before reply");
        let key = SessionKey::new(dh.agree(&server_pub));
        self.key = Some(key.clone());
        self.phase = ClientPhase::Up;
        ctx.install_tunnel(Box::new(VpnTunnel {
            variant: self.variant,
            own: ctx.addr(),
            server: self.server,
            key,
            nonce: 0,
        }));
        self.status.set(TunnelState::Up { established_at: ctx.now() });
    }
}

impl App for VpnClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = ClientPhase::Handshaking;
        match self.variant {
            VpnVariant::Pptp => {
                ctx.register_raw(proto::GRE);
                self.control_tcp =
                    Some(ctx.tcp_connect(SocketAddr::new(self.server, PPTP_PORT)));
            }
            VpnVariant::L2tp => {
                ctx.register_raw(proto::ESP);
                let sock = ctx.udp_bind(0).expect("ephemeral bind");
                self.control_udp = Some(sock);
                let hello = self.hello_payload();
                ctx.udp_send(sock, SocketAddr::new(self.server, L2TP_PORT), Bytes::from(hello));
            }
            VpnVariant::OpenVpn => {
                let sock = ctx.udp_bind(OPENVPN_PORT).expect("openvpn port free");
                self.control_udp = Some(sock);
                let hello = self.hello_payload();
                ctx.udp_send(sock, SocketAddr::new(self.server, OPENVPN_PORT), Bytes::from(hello));
            }
        }
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        match ev {
            AppEvent::Tcp(h, TcpEvent::Connected) if Some(h) == self.control_tcp => {
                let hello = self.hello_payload();
                ctx.tcp_send_bytes(h, hello);
            }
            AppEvent::Tcp(h, TcpEvent::DataReceived) if Some(h) == self.control_tcp => {
                let data = ctx.tcp_recv_all(h);
                if self.phase == ClientPhase::Handshaking {
                    if let Some(rest) = data.strip_prefix(b"SCCRP".as_slice()) {
                        self.finish_handshake(rest, ctx);
                    }
                }
            }
            AppEvent::Tcp(h, TcpEvent::ConnectFailed | TcpEvent::Reset)
                if Some(h) == self.control_tcp =>
            {
                self.status.set(TunnelState::Failed);
            }
            AppEvent::Udp { socket, payload, .. } if Some(socket) == self.control_udp => {
                if self.phase != ClientPhase::Handshaking {
                    // Data channel for OpenVPN rides the same socket.
                    if self.variant == VpnVariant::OpenVpn
                        && payload.first() == Some(&opcode::DATA)
                    {
                        self.deliver_inner(&payload[1..], ctx);
                    }
                    return;
                }
                match self.variant {
                    VpnVariant::L2tp => {
                        if let Some(rest) = payload.strip_prefix(b"L2TP-SCCRP".as_slice()) {
                            self.finish_handshake(rest, ctx);
                        }
                    }
                    VpnVariant::OpenVpn => {
                        if payload.first() == Some(&opcode::HARD_RESET_SERVER) {
                            self.finish_handshake(&payload[1..], ctx);
                        }
                    }
                    VpnVariant::Pptp => {}
                }
            }
            AppEvent::RawPacket(pkt) => {
                // GRE/ESP data from the server.
                if let Some(sealed) = decap_payload(self.variant, &pkt) {
                    self.deliver_inner(&sealed, ctx);
                }
            }
            _ => {}
        }
    }
}

impl VpnClient {
    fn deliver_inner(&mut self, sealed: &[u8], ctx: &mut Ctx<'_>) {
        let Some(key) = &self.key else { return };
        let Some(plain) = open_packet(key, sealed) else { return };
        let Ok(inner) = Packet::decode(&plain) else { return };
        // Feed the decapsulated reply into our own stack (loopback),
        // bypassing the tunnel so it cannot be re-captured.
        ctx.send_packet_untunneled(inner);
    }
}

// --- server -----------------------------------------------------------------

/// A VPN server app: answers control handshakes, decapsulates client
/// packets, NATs them onto the open Internet, and returns replies.
pub struct VpnServer {
    variant: VpnVariant,
    /// Session key per client address.
    sessions: HashMap<Addr, SessionKey>,
    nat: Nat,
    nonce: u64,
    entropy: u64,
    udp_sock: Option<UdpHandle>,
    /// Data packets forwarded (diagnostics).
    pub forwarded: u64,
}

impl VpnServer {
    /// Creates a server for one VPN flavour.
    pub fn new(variant: VpnVariant, entropy: u64) -> Self {
        VpnServer {
            variant,
            sessions: HashMap::new(),
            nat: Nat::new(),
            nonce: 1 << 48, // disjoint from client nonce space
            entropy,
            udp_sock: None,
            forwarded: 0,
        }
    }

    fn handle_hello(&mut self, client: Addr, client_pub: &[u8], ctx: &mut Ctx<'_>) -> Option<Vec<u8>> {
        let bytes8: [u8; 8] = client_pub.try_into().ok()?;
        let client_pub = PublicKey::from_bytes(bytes8).ok()?;
        let dh = PrivateKey::from_entropy(self.entropy ^ client.as_u32() as u64);
        let key = dh.agree(&client_pub);
        self.sessions.insert(client, SessionKey::new(key));
        let _ = ctx;
        let mut reply = match self.variant {
            VpnVariant::Pptp => b"SCCRP".to_vec(),
            VpnVariant::L2tp => b"L2TP-SCCRP".to_vec(),
            VpnVariant::OpenVpn => vec![opcode::HARD_RESET_SERVER],
        };
        reply.extend_from_slice(&dh.public_key().to_bytes());
        Some(reply)
    }

    fn handle_data(&mut self, from: Addr, sealed: &[u8], ctx: &mut Ctx<'_>) {
        let Some(key) = self.sessions.get(&from) else { return };
        let Some(plain) = open_packet(key, sealed) else { return };
        let Ok(inner) = Packet::decode(&plain) else { return };
        let public = ctx.addr();
        if let Some(translated) = self.nat.outbound(from, public, inner) {
            self.forwarded += 1;
            ctx.send_packet(translated);
        }
    }

    fn return_to_client(&mut self, client: Addr, inner: Packet, ctx: &mut Ctx<'_>) {
        let Some(key) = self.sessions.get(&client) else { return };
        self.nonce += 1;
        let sealed = seal_packet(key, self.nonce, &inner.encode());
        let pkt = encap_packet(self.variant, ctx.addr(), client, sealed);
        ctx.send_packet(pkt);
    }
}

impl App for VpnServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.register_port_tap(NAT_PORT_LO, NAT_PORT_HI);
        match self.variant {
            VpnVariant::Pptp => {
                ctx.tcp_listen(PPTP_PORT);
                ctx.register_raw(proto::GRE);
            }
            VpnVariant::L2tp => {
                self.udp_sock = ctx.udp_bind(L2TP_PORT);
                ctx.register_raw(proto::ESP);
            }
            VpnVariant::OpenVpn => {
                self.udp_sock = ctx.udp_bind(OPENVPN_PORT);
            }
        }
    }

    fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
        match ev {
            AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                // PPTP control channel.
                let data = ctx.tcp_recv_all(h);
                if let Some(rest) = data.strip_prefix(b"SCCRQ".as_slice()) {
                    let peer = ctx.tcp_peer(h).map(|p| p.addr);
                    if let Some(client) = peer {
                        if let Some(reply) = self.handle_hello(client, rest, ctx) {
                            ctx.tcp_send_bytes(h, reply);
                        }
                    }
                }
            }
            AppEvent::Udp { socket, from, payload } if Some(socket) == self.udp_sock => {
                match self.variant {
                    VpnVariant::L2tp => {
                        if let Some(rest) = payload.strip_prefix(b"L2TP-SCCRQ".as_slice()) {
                            if let Some(reply) = self.handle_hello(from.addr, rest, ctx) {
                                ctx.udp_send(socket, from, Bytes::from(reply));
                            }
                        }
                    }
                    VpnVariant::OpenVpn => match payload.first() {
                        Some(&opcode::HARD_RESET_CLIENT) => {
                            if let Some(reply) = self.handle_hello(from.addr, &payload[1..], ctx) {
                                ctx.udp_send(socket, from, Bytes::from(reply));
                            }
                        }
                        Some(&opcode::DATA) => {
                            self.handle_data(from.addr, &payload[1..], ctx);
                        }
                        _ => {}
                    },
                    VpnVariant::Pptp => {}
                }
            }
            AppEvent::RawPacket(pkt) => {
                // Either GRE/ESP data from a client, or a NAT-tapped reply.
                if let Some(sealed) = decap_payload(self.variant, &pkt) {
                    let from = pkt.src;
                    self.handle_data(from, &sealed, ctx);
                } else if let Some((client, restored)) = self.nat.inbound(pkt) {
                    self.return_to_client(client, restored, ctx);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let key = SessionKey::new([7u8; 32]);
        let sealed = seal_packet(&key, 42, b"inner packet");
        assert_eq!(open_packet(&key, &sealed).unwrap(), b"inner packet");
        // Tampering is detected.
        let mut bad = sealed.clone();
        bad[10] ^= 1;
        assert!(open_packet(&key, &bad).is_none());
        // Wrong key fails.
        assert!(open_packet(&SessionKey::new([8u8; 32]), &sealed).is_none());
        // Truncation fails.
        assert!(open_packet(&key, &sealed[..10]).is_none());
    }

    #[test]
    fn sealed_payload_is_high_entropy() {
        let key = SessionKey::new([9u8; 32]);
        let sealed = seal_packet(&key, 1, &vec![0u8; 2000]);
        let stats = sc_crypto::entropy::PayloadStats::analyze(&sealed);
        assert!(stats.entropy > 7.0);
    }

    #[test]
    fn nat_roundtrip() {
        let mut nat = Nat::new();
        let client = Addr::new(10, 0, 0, 1);
        let public = Addr::new(99, 0, 0, 9);
        let inner = Packet::tcp(
            SocketAddr::new(client, 40_000),
            SocketAddr::new(Addr::new(99, 2, 0, 1), 443),
            sc_simnet::packet::TcpSegmentBody {
                seq: 1,
                ack: 0,
                flags: sc_simnet::packet::TcpFlags::SYN,
                window: 100,
                payload: Bytes::new(),
            },
        );
        let out = nat.outbound(client, public, inner).unwrap();
        assert_eq!(out.src, public);
        let nat_port = out.src_socket().unwrap().port;
        assert!((NAT_PORT_LO..=NAT_PORT_HI).contains(&nat_port));

        // Simulate the reply.
        let reply = Packet::tcp(
            SocketAddr::new(Addr::new(99, 2, 0, 1), 443),
            SocketAddr::new(public, nat_port),
            sc_simnet::packet::TcpSegmentBody {
                seq: 0,
                ack: 2,
                flags: sc_simnet::packet::TcpFlags::SYN_ACK,
                window: 100,
                payload: Bytes::new(),
            },
        );
        let (back_client, restored) = nat.inbound(reply).unwrap();
        assert_eq!(back_client, client);
        assert_eq!(restored.dst_socket().unwrap(), SocketAddr::new(client, 40_000));
        assert_eq!(nat.len(), 1);
    }

    #[test]
    fn nat_reuses_port_for_same_flow() {
        let mut nat = Nat::new();
        let client = Addr::new(10, 0, 0, 1);
        let public = Addr::new(99, 0, 0, 9);
        let mk = || {
            Packet::tcp(
                SocketAddr::new(client, 41_000),
                SocketAddr::new(Addr::new(99, 2, 0, 1), 80),
                sc_simnet::packet::TcpSegmentBody {
                    seq: 1,
                    ack: 0,
                    flags: sc_simnet::packet::TcpFlags::ACK,
                    window: 100,
                    payload: Bytes::new(),
                },
            )
        };
        let p1 = nat.outbound(client, public, mk()).unwrap();
        let p2 = nat.outbound(client, public, mk()).unwrap();
        assert_eq!(p1.src_socket(), p2.src_socket());
        assert_eq!(nat.len(), 1);
    }

    #[test]
    fn variant_overheads() {
        assert_eq!(VpnVariant::Pptp.per_packet_overhead(), 16);
        assert_eq!(VpnVariant::OpenVpn.per_packet_overhead(), 17);
        assert_eq!(VpnVariant::Pptp.name(), "pptp");
    }
}
