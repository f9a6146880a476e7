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

use bytes::{BufMut, Bytes, BytesMut};
use sc_crypto::dh::{PrivateKey, PublicKey};
use sc_crypto::hmac::{ct_eq, HmacKey};
use sc_crypto::modes::Ctr;
use sc_crypto::{Aes, KeySize};
use sc_obs::prof::{self, Subsystem};
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::api::{App, AppEvent, Io, PacketTunnel, TcpEvent, TcpHandle, UdpHandle};
use sc_simnet::hash::FixedMap;
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

    /// What a data packet's sealed body follows on the wire: OpenVPN's
    /// data opcode, nothing for GRE and ESP.
    fn data_prefix(self) -> &'static [u8] {
        match self {
            VpnVariant::Pptp | VpnVariant::L2tp => &[],
            VpnVariant::OpenVpn => &[opcode::DATA],
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

/// Seals `inner` with `key` behind `prefix`, in one buffer: prefix ‖
/// nonce(8) ‖ ctr-ciphertext of the encoded packet ‖ hmac-tag(8). The
/// packet is encoded straight into the buffer, the cipher and the MAC run
/// over it in place, and the buffer is frozen: one allocation.
pub fn seal_packet(key: &SessionKey, nonce: u64, prefix: &[u8], inner: &Packet) -> Bytes {
    let nonce = nonce.to_be_bytes();
    let at = prefix.len();
    let mut out = BytesMut::with_capacity(at + 8 + inner.encoded_len() + 8);
    out.put_slice(prefix);
    out.put_slice(&nonce);
    inner.encode_into(&mut out);
    let tag = {
        let _prof = prof::scope(Subsystem::Crypto);
        key.ctr(&nonce).apply(&mut out[at + 8..]);
        key.mac_key.mac(&out[at..])
    };
    out.put_slice(&tag[..8]);
    out.freeze()
}

/// Opens a sealed packet (what follows any opcode): checks the tag, then
/// decrypts into one buffer, which [`Packet::decode`] hands out views of.
/// `None` on any authentication failure.
pub fn open_packet(key: &SessionKey, data: &[u8]) -> Option<Bytes> {
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
    let mut pt = BytesMut::from(ct);
    key.ctr(nonce).apply(&mut pt);
    Some(pt.freeze())
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
    by_port: FixedMap<u16, NatEntry>,
    by_flow: FixedMap<NatFlow, u16>,
    next_port: u16,
}

impl Nat {
    /// Creates an empty NAT.
    pub fn new() -> Self {
        Nat { by_port: FixedMap::default(), by_flow: FixedMap::default(), next_port: NAT_PORT_LO }
    }

    /// Translates an outbound inner packet from `client`: rewrites the
    /// source to `(public_addr, nat_port)` and returns the packet to
    /// forward. Returns `None` for packets without ports, and for a new
    /// flow once every port in the range is mapped (the flow is dropped).
    pub fn outbound(&mut self, client: Addr, public_addr: Addr, mut inner: Packet) -> Option<Packet> {
        let inner_src = inner.src_socket()?;
        let inner_dst = inner.dst_socket()?;
        let flow = NatFlow { client, protocol: inner.l4.protocol(), inner_src, inner_dst };
        let port = match self.by_flow.get(&flow) {
            Some(&p) => p,
            None => {
                let p = self.alloc_port()?;
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

    /// The next unmapped port, or `None` when all of them are mapped.
    fn alloc_port(&mut self) -> Option<u16> {
        for _ in NAT_PORT_LO..=NAT_PORT_HI {
            let p = self.next_port;
            self.next_port = if self.next_port >= NAT_PORT_HI { NAT_PORT_LO } else { self.next_port + 1 };
            if !self.by_port.contains_key(&p) {
                return Some(p);
            }
        }
        None
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

/// The data packet carrying `inner` from `from` to `to`, sealed with
/// `key` under `nonce` in the one buffer the outer packet carries.
fn encap_packet(variant: VpnVariant, key: &SessionKey, nonce: u64, from: Addr, to: Addr, inner: &Packet) -> Packet {
    let sealed = seal_packet(key, nonce, variant.data_prefix(), inner);
    match variant {
        VpnVariant::Pptp => Packet::raw(from, to, proto::GRE, sealed),
        VpnVariant::L2tp => Packet::raw(from, to, proto::ESP, sealed),
        VpnVariant::OpenVpn => {
            Packet::udp(SocketAddr::new(from, OPENVPN_PORT), SocketAddr::new(to, OPENVPN_PORT), sealed)
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

/// A control-channel handshake message: `magic` ‖ the DH public key.
fn control_message(magic: &[u8], public: PublicKey) -> Bytes {
    let public = public.to_bytes();
    let mut msg = BytesMut::with_capacity(magic.len() + public.len());
    msg.put_slice(magic);
    msg.put_slice(&public);
    msg.freeze()
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

    fn wrap(&mut self, pkt: Packet, _now: SimTime) -> Packet {
        // Never capture traffic to the VPN server itself (control channel
        // and our own encapsulated output) or loopback deliveries of
        // already-decapsulated inbound packets.
        if pkt.dst == self.server || pkt.dst == self.own {
            return pkt;
        }
        self.nonce += 1;
        encap_packet(self.variant, &self.key, self.nonce, self.own, self.server, &pkt)
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

    fn hello_payload(&mut self) -> Bytes {
        let dh = PrivateKey::from_entropy(self.entropy);
        let magic: &[u8] = match self.variant {
            VpnVariant::Pptp => b"SCCRQ",
            VpnVariant::L2tp => b"L2TP-SCCRQ",
            VpnVariant::OpenVpn => &[opcode::HARD_RESET_CLIENT],
        };
        let msg = control_message(magic, dh.public_key());
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
                ctx.udp_send(sock, SocketAddr::new(self.server, L2TP_PORT), hello);
            }
            VpnVariant::OpenVpn => {
                let sock = ctx.udp_bind(OPENVPN_PORT).expect("openvpn port free");
                self.control_udp = Some(sock);
                let hello = self.hello_payload();
                ctx.udp_send(sock, SocketAddr::new(self.server, OPENVPN_PORT), hello);
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
        let Ok(inner) = Packet::decode(plain) else { return };
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
    sessions: FixedMap<Addr, SessionKey>,
    nat: Nat,
    nonce: u64,
    entropy: u64,
    udp_sock: Option<UdpHandle>,
}

impl VpnServer {
    /// Creates a server for one VPN flavour.
    pub fn new(variant: VpnVariant, entropy: u64) -> Self {
        VpnServer {
            variant,
            sessions: FixedMap::default(),
            nat: Nat::new(),
            nonce: 1 << 48, // disjoint from client nonce space
            entropy,
            udp_sock: None,
        }
    }

    fn handle_hello(&mut self, client: Addr, client_pub: &[u8], ctx: &mut Ctx<'_>) -> Option<Bytes> {
        let bytes8: [u8; 8] = client_pub.try_into().ok()?;
        let client_pub = PublicKey::from_bytes(bytes8).ok()?;
        let dh = PrivateKey::from_entropy(self.entropy ^ client.as_u32() as u64);
        let key = dh.agree(&client_pub);
        self.sessions.insert(client, SessionKey::new(key));
        let _ = ctx;
        let magic: &[u8] = match self.variant {
            VpnVariant::Pptp => b"SCCRP",
            VpnVariant::L2tp => b"L2TP-SCCRP",
            VpnVariant::OpenVpn => &[opcode::HARD_RESET_SERVER],
        };
        Some(control_message(magic, dh.public_key()))
    }

    fn handle_data(&mut self, from: Addr, sealed: &[u8], ctx: &mut Ctx<'_>) {
        let Some(key) = self.sessions.get(&from) else { return };
        let Some(plain) = open_packet(key, sealed) else { return };
        let Ok(inner) = Packet::decode(plain) else { return };
        let public = ctx.addr();
        if let Some(translated) = self.nat.outbound(from, public, inner) {
            ctx.send_packet(translated);
        }
    }

    fn return_to_client(&mut self, client: Addr, inner: Packet, ctx: &mut Ctx<'_>) {
        let Some(key) = self.sessions.get(&client) else { return };
        self.nonce += 1;
        let pkt = encap_packet(self.variant, key, self.nonce, ctx.addr(), client, &inner);
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
                                ctx.udp_send(socket, from, reply);
                            }
                        }
                    }
                    VpnVariant::OpenVpn => match payload.first() {
                        Some(&opcode::HARD_RESET_CLIENT) => {
                            if let Some(reply) = self.handle_hello(from.addr, &payload[1..], ctx) {
                                ctx.udp_send(socket, from, reply);
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

    /// A raw packet carrying `payload`, as a stand-in for any inner packet.
    fn inner(payload: &[u8]) -> Packet {
        Packet::raw(Addr::new(10, 0, 0, 1), Addr::new(99, 2, 0, 1), proto::ESP, Bytes::copy_from_slice(payload))
    }

    #[test]
    fn seal_open_roundtrip() {
        let key = SessionKey::new([7u8; 32]);
        let sealed = seal_packet(&key, 42, &[], &inner(b"inner packet"));
        assert_eq!(Packet::decode(open_packet(&key, &sealed).unwrap()).unwrap(), inner(b"inner packet"));
        // Tampering is detected.
        let mut bad = sealed.to_vec();
        bad[10] ^= 1;
        assert!(open_packet(&key, &bad).is_none());
        // Wrong key fails.
        assert!(open_packet(&SessionKey::new([8u8; 32]), &sealed).is_none());
        // Truncation fails.
        assert!(open_packet(&key, &sealed[..10]).is_none());
    }

    #[test]
    fn open_refuses_short_input_and_any_flipped_tag_bit() {
        let key = SessionKey::new([7u8; 32]);
        let sealed = seal_packet(&key, 42, &[], &inner(b""));
        // Below nonce ‖ tag there is nothing to authenticate.
        for len in 0..16 {
            assert!(open_packet(&key, &sealed[..len.min(sealed.len())]).is_none(), "{len} bytes");
            assert!(open_packet(&key, &vec![0u8; len]).is_none(), "{len} zero bytes");
        }
        let tag_at = sealed.len() - 8;
        for bit in 0..64 {
            let mut bad = sealed.to_vec();
            bad[tag_at + bit / 8] ^= 1 << (bit % 8);
            assert!(open_packet(&key, &bad).is_none(), "tag bit {bit} flipped");
        }
        assert!(open_packet(&key, &sealed).is_some());
    }

    #[test]
    fn sealed_payload_is_high_entropy() {
        let key = SessionKey::new([9u8; 32]);
        let sealed = seal_packet(&key, 1, &[], &inner(&[0u8; 2000]));
        let stats = sc_crypto::entropy::PayloadStats::analyze(&sealed);
        assert!(stats.entropy > 7.0);
    }

    #[test]
    fn a_full_nat_drops_new_flows_and_keeps_translating_mapped_ones() {
        let mut nat = Nat::new();
        let public = Addr::new(99, 0, 0, 9);
        let ports = (NAT_PORT_HI - NAT_PORT_LO) as u32 + 1;
        // One flow per (client, source port): 10 000 of them fill the range.
        let flow = |i: u32| {
            let client = Addr::from_u32(Addr::new(10, 0, 0, 0).as_u32() + i / 1000);
            let pkt = Packet::udp(
                SocketAddr::new(client, 40_000 + (i % 1000) as u16),
                SocketAddr::new(Addr::new(99, 2, 0, 1), 53),
                Bytes::new(),
            );
            (client, pkt)
        };
        for i in 0..ports {
            let (client, pkt) = flow(i);
            assert!(nat.outbound(client, public, pkt).is_some(), "flow {i}");
        }
        assert_eq!(nat.len(), ports as usize);
        let (client, pkt) = flow(ports);
        assert!(nat.outbound(client, public, pkt).is_none(), "a new flow finds no port");
        let (client, pkt) = flow(17);
        let out = nat.outbound(client, public, pkt).expect("a mapped flow still translates");
        assert_eq!(out.src, public);
        assert_eq!(nat.len(), ports as usize);
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    const CLIENT: Addr = Addr::new(10, 0, 0, 1);
    const SERVER: Addr = Addr::new(99, 0, 0, 9);
    const WEB: Addr = Addr::new(99, 2, 0, 1);

    /// A segment between the client's inner socket and the web server.
    fn segment(upstream: bool, payload: &'static [u8]) -> Packet {
        let (client, web) = (SocketAddr::new(CLIENT, 40_000), SocketAddr::new(WEB, 443));
        let (src, dst) = if upstream { (client, web) } else { (web, client) };
        let body = sc_simnet::packet::TcpSegmentBody {
            seq: 1_000,
            ack: 7,
            flags: sc_simnet::packet::TcpFlags::ACK,
            window: 65_535,
            payload: Bytes::from_static(payload),
        };
        Packet::tcp(src, dst, body)
    }

    /// The client's first data packet through the full tunnel.
    fn client_wire(variant: VpnVariant, key: &SessionKey, inner: Packet) -> Packet {
        let mut tunnel = VpnTunnel { variant, own: CLIENT, server: SERVER, key: key.clone(), nonce: 0 };
        tunnel.wrap(inner, SimTime::ZERO)
    }

    /// The server's first reply, as `return_to_client` seals it.
    fn server_wire(variant: VpnVariant, key: &SessionKey, inner: Packet) -> Packet {
        let nonce = VpnServer::new(variant, 0).nonce + 1;
        encap_packet(variant, key, nonce, SERVER, CLIENT, &inner)
    }

    /// The sealed wire bytes of one packet each way, pinned per variant:
    /// the codec, the nonce layout, the cipher, the MAC and the opcode
    /// framing may be rewritten, the bytes may not move.
    #[test]
    fn sealed_wire_bytes_are_pinned() {
        let key = SessionKey::new([0x42; 32]);
        // nonce ‖ E(inner) ‖ tag; the client counts from 1, the server
        // from 2^48 + 1. GRE and ESP carry the same bytes, OpenVPN puts
        // its data opcode (0x30) in front.
        const UP: &str = "b5f52168b2a9a13d10fe4347d5c64dedf7acca66acf616eea438452b293d25983b906579181d17c6b36652dd54cfeae507ca1723";
        const DOWN: &str = "eb1b6f90d5f770abc6ca9dc9bf3369a59916a6fc2ddc36d6e05298e4251d7bf03a305cc556c3384be12c68431cdc8606d6d6597e21";
        let expect = [
            (VpnVariant::Pptp, ""),
            (VpnVariant::L2tp, ""),
            (VpnVariant::OpenVpn, "30"),
        ];
        for (variant, opcode) in expect {
            let up_hex = format!("{opcode}0000000000000001{UP}");
            let down_hex = format!("{opcode}0001000000000001{DOWN}");
            let up = client_wire(variant, &key, segment(true, b"GET /"));
            let down = server_wire(variant, &key, segment(false, b"200 OK"));
            assert_eq!((up.src, up.dst, down.src, down.dst), (CLIENT, SERVER, SERVER, CLIENT));
            let proto = match variant {
                VpnVariant::Pptp => proto::GRE,
                VpnVariant::L2tp => proto::ESP,
                VpnVariant::OpenVpn => proto::UDP,
            };
            assert_eq!((up.l4.protocol(), down.l4.protocol()), (proto, proto), "{variant:?}");
            assert_eq!(hex(up.l4.payload()), up_hex, "{variant:?} client to server");
            assert_eq!(hex(down.l4.payload()), down_hex, "{variant:?} server to client");
            // And each opens back to the packet it carries.
            for (wire, inner) in [(&up, segment(true, b"GET /")), (&down, segment(false, b"200 OK"))] {
                let sealed = decap_payload(variant, wire).expect("a data packet");
                let plain = open_packet(&key, &sealed).expect("authentic");
                assert_eq!(Packet::decode(plain).unwrap(), inner);
            }
        }
    }

    /// What each encapsulation adds to a packet on the wire: nonce (8)
    /// and tag (8), and OpenVPN's opcode byte in front.
    #[test]
    fn variant_overheads() {
        let key = SessionKey::new([0x42; 32]);
        for (variant, overhead) in [(VpnVariant::Pptp, 16), (VpnVariant::L2tp, 16), (VpnVariant::OpenVpn, 17)] {
            let inner = segment(true, b"GET /");
            let carried = inner.encoded_len();
            assert_eq!(client_wire(variant, &key, inner).l4.payload().len(), carried + overhead, "{variant:?}");
        }
        assert_eq!(VpnVariant::Pptp.name(), "pptp");
    }
}
