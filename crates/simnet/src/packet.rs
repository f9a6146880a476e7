//! Packets: the layer-3 unit the simulator forwards and the GFW inspects.
//!
//! Packets carry a structured header plus a transport payload. A binary
//! wire codec ([`Packet::encode`] / [`Packet::decode`]) exists so that
//! packet-level tunnels (PPTP/L2TP/OpenVPN) can encapsulate whole packets
//! as opaque bytes — exactly the operation the GFW's DPI then has to see
//! through (or not).

use bytes::{BufMut, Bytes, BytesMut};

use crate::addr::{Addr, SocketAddr};

/// IP protocol numbers used by the simulation (matching IANA where they exist).
pub mod proto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// GRE (used by PPTP data channels).
    pub const GRE: u8 = 47;
    /// ESP (used by L2TP/IPsec data channels).
    pub const ESP: u8 = 50;
}

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags {
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Acknowledgement field valid.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
}

impl TcpFlags {
    /// SYN only.
    pub const SYN: TcpFlags = TcpFlags { syn: true, ack: false, fin: false, rst: false };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags { syn: true, ack: true, fin: false, rst: false };
    /// ACK only.
    pub const ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: false, rst: false };
    /// FIN+ACK.
    pub const FIN_ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: true, rst: false };
    /// RST only.
    pub const RST: TcpFlags = TcpFlags { syn: false, ack: false, fin: false, rst: true };

    fn to_byte(self) -> u8 {
        (self.syn as u8) | (self.ack as u8) << 1 | (self.fin as u8) << 2 | (self.rst as u8) << 3
    }

    fn from_byte(b: u8) -> Self {
        TcpFlags {
            syn: b & 1 != 0,
            ack: b & 2 != 0,
            fin: b & 4 != 0,
            rst: b & 8 != 0,
        }
    }
}

/// A TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (simulation uses 64-bit
    /// sequence space to sidestep wrap-around bookkeeping).
    pub seq: u64,
    /// Cumulative acknowledgement number (valid when `flags.ack`).
    pub ack: u64,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub window: u32,
    /// Payload bytes.
    pub payload: Bytes,
}

/// A UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Transport-layer content of a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L4 {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// A raw layer-4 payload with an explicit protocol number (GRE, ESP, …).
    Raw {
        /// IP protocol number.
        protocol: u8,
        /// Raw payload bytes.
        payload: Bytes,
    },
}

impl L4 {
    /// The IP protocol number of this payload.
    pub fn protocol(&self) -> u8 {
        match self {
            L4::Tcp(_) => proto::TCP,
            L4::Udp(_) => proto::UDP,
            L4::Raw { protocol, .. } => *protocol,
        }
    }

    /// The transport payload bytes (what DPI inspects).
    pub fn payload(&self) -> &Bytes {
        match self {
            L4::Tcp(t) => &t.payload,
            L4::Udp(u) => &u.payload,
            L4::Raw { payload, .. } => payload,
        }
    }
}

/// A layer-3 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Time-to-live hop count.
    pub ttl: u8,
    /// Transport content.
    pub l4: L4,
}

/// Default TTL for newly created packets.
pub const DEFAULT_TTL: u8 = 64;

/// Fixed per-packet header overhead charged on the wire (bytes): models the
/// IP + transport headers that the simulator's structured representation
/// doesn't serialize per hop.
pub const HEADER_OVERHEAD: usize = 40;

impl Packet {
    /// Creates a TCP packet.
    pub fn tcp(src: SocketAddr, dst: SocketAddr, seg_body: TcpSegmentBody) -> Packet {
        Packet {
            src: src.addr,
            dst: dst.addr,
            ttl: DEFAULT_TTL,
            l4: L4::Tcp(TcpSegment {
                src_port: src.port,
                dst_port: dst.port,
                seq: seg_body.seq,
                ack: seg_body.ack,
                flags: seg_body.flags,
                window: seg_body.window,
                payload: seg_body.payload,
            }),
        }
    }

    /// Creates a UDP packet.
    pub fn udp(src: SocketAddr, dst: SocketAddr, payload: Bytes) -> Packet {
        Packet {
            src: src.addr,
            dst: dst.addr,
            ttl: DEFAULT_TTL,
            l4: L4::Udp(UdpDatagram {
                src_port: src.port,
                dst_port: dst.port,
                payload,
            }),
        }
    }

    /// Creates a raw-protocol packet (GRE, ESP, …).
    pub fn raw(src: Addr, dst: Addr, protocol: u8, payload: Bytes) -> Packet {
        Packet {
            src,
            dst,
            ttl: DEFAULT_TTL,
            l4: L4::Raw { protocol, payload },
        }
    }

    /// Bytes this packet occupies on the wire (payload + header overhead).
    pub fn wire_len(&self) -> usize {
        self.l4.payload().len() + HEADER_OVERHEAD
    }

    /// The source socket address, if the transport has ports.
    pub fn src_socket(&self) -> Option<SocketAddr> {
        match &self.l4 {
            L4::Tcp(t) => Some(SocketAddr::new(self.src, t.src_port)),
            L4::Udp(u) => Some(SocketAddr::new(self.src, u.src_port)),
            L4::Raw { .. } => None,
        }
    }

    /// The destination socket address, if the transport has ports.
    pub fn dst_socket(&self) -> Option<SocketAddr> {
        match &self.l4 {
            L4::Tcp(t) => Some(SocketAddr::new(self.dst, t.dst_port)),
            L4::Udp(u) => Some(SocketAddr::new(self.dst, u.dst_port)),
            L4::Raw { .. } => None,
        }
    }

    /// Bytes [`encode_into`](Self::encode_into) writes.
    pub fn encoded_len(&self) -> usize {
        // src(4) dst(4) ttl(1) protocol(1), the transport header, the
        // payload's length(4) and the payload.
        let header = match &self.l4 {
            L4::Tcp(_) => 2 + 2 + 8 + 8 + 1 + 4,
            L4::Udp(_) => 2 + 2,
            L4::Raw { .. } => 0,
        };
        10 + header + 4 + self.l4.payload().len()
    }

    /// Appends the packet's wire form (for tunnel encapsulation) to
    /// `out`: the buffer a tunnel seals is written once, the inner
    /// packet included.
    pub fn encode_into(&self, out: &mut impl BufMut) {
        out.put_u32(self.src.as_u32());
        out.put_u32(self.dst.as_u32());
        out.put_u8(self.ttl);
        out.put_u8(self.l4.protocol());
        match &self.l4 {
            L4::Tcp(t) => {
                out.put_u16(t.src_port);
                out.put_u16(t.dst_port);
                out.put_u64(t.seq);
                out.put_u64(t.ack);
                out.put_u8(t.flags.to_byte());
                out.put_u32(t.window);
            }
            L4::Udp(u) => {
                out.put_u16(u.src_port);
                out.put_u16(u.dst_port);
            }
            L4::Raw { .. } => {}
        }
        let payload = self.l4.payload();
        out.put_u32(payload.len() as u32);
        out.put_slice(payload);
    }

    /// [`encode_into`](Self::encode_into) a buffer of its own, sized once.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Parses a packet from bytes produced by [`Packet::encode`]. The
    /// payload is a view of `data`, not a copy.
    ///
    /// # Errors
    ///
    /// Returns [`PacketDecodeError`] on truncation or malformed fields.
    pub fn decode(data: Bytes) -> Result<Packet, PacketDecodeError> {
        fn take<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8], PacketDecodeError> {
            if data.len() < n {
                return Err(PacketDecodeError::Truncated);
            }
            let (head, tail) = data.split_at(n);
            *data = tail;
            Ok(head)
        }
        fn take_u8(d: &mut &[u8]) -> Result<u8, PacketDecodeError> {
            Ok(take(d, 1)?[0])
        }
        fn take_u16(d: &mut &[u8]) -> Result<u16, PacketDecodeError> {
            Ok(u16::from_be_bytes(take(d, 2)?.try_into().unwrap()))
        }
        fn take_u32(d: &mut &[u8]) -> Result<u32, PacketDecodeError> {
            Ok(u32::from_be_bytes(take(d, 4)?.try_into().unwrap()))
        }
        fn take_u64(d: &mut &[u8]) -> Result<u64, PacketDecodeError> {
            Ok(u64::from_be_bytes(take(d, 8)?.try_into().unwrap()))
        }

        // The payload: its length, then a view of that many bytes.
        let payload = |d: &mut &[u8]| -> Result<Bytes, PacketDecodeError> {
            let len = take_u32(d)? as usize;
            let at = data.len() - d.len();
            take(d, len)?;
            Ok(data.slice(at..at + len))
        };

        let mut rest: &[u8] = &data;
        let d = &mut rest;
        let src = Addr::from_u32(take_u32(d)?);
        let dst = Addr::from_u32(take_u32(d)?);
        let ttl = take_u8(d)?;
        let protocol = take_u8(d)?;
        let l4 = match protocol {
            proto::TCP => {
                let src_port = take_u16(d)?;
                let dst_port = take_u16(d)?;
                let seq = take_u64(d)?;
                let ack = take_u64(d)?;
                let flags = TcpFlags::from_byte(take_u8(d)?);
                let window = take_u32(d)?;
                let payload = payload(d)?;
                L4::Tcp(TcpSegment { src_port, dst_port, seq, ack, flags, window, payload })
            }
            proto::UDP => {
                let src_port = take_u16(d)?;
                let dst_port = take_u16(d)?;
                let payload = payload(d)?;
                L4::Udp(UdpDatagram { src_port, dst_port, payload })
            }
            other => L4::Raw { protocol: other, payload: payload(d)? },
        };
        if !d.is_empty() {
            return Err(PacketDecodeError::TrailingBytes(d.len()));
        }
        Ok(Packet { src, dst, ttl, l4 })
    }
}

/// Helper struct for building TCP segments without a 7-argument function.
#[derive(Debug, Clone)]
pub struct TcpSegmentBody {
    /// Sequence number.
    pub seq: u64,
    /// Acknowledgement number.
    pub ack: u64,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised window.
    pub window: u32,
    /// Payload.
    pub payload: Bytes,
}

/// Error parsing a serialized packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketDecodeError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Bytes remained after a complete packet.
    TrailingBytes(usize),
}

impl core::fmt::Display for PacketDecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PacketDecodeError::Truncated => write!(f, "truncated packet"),
            PacketDecodeError::TrailingBytes(n) => {
                write!(f, "unexpected {n} trailing bytes after packet")
            }
        }
    }
}

impl std::error::Error for PacketDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tcp() -> Packet {
        Packet::tcp(
            SocketAddr::new(Addr::new(10, 0, 0, 1), 5000),
            SocketAddr::new(Addr::new(99, 0, 0, 2), 443),
            TcpSegmentBody {
                seq: 1_000_000,
                ack: 42,
                flags: TcpFlags::SYN_ACK,
                window: 65_535,
                payload: Bytes::from_static(b"hello"),
            },
        )
    }

    #[test]
    fn tcp_encode_decode_roundtrip() {
        let pkt = sample_tcp();
        let decoded = Packet::decode(pkt.encode()).unwrap();
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn udp_encode_decode_roundtrip() {
        let pkt = Packet::udp(
            SocketAddr::new(Addr::new(10, 0, 0, 1), 3333),
            SocketAddr::new(Addr::new(8, 8, 8, 8), 53),
            Bytes::from_static(&[1, 2, 3, 4, 5]),
        );
        assert_eq!(Packet::decode(pkt.encode()).unwrap(), pkt);
    }

    #[test]
    fn raw_encode_decode_roundtrip() {
        let pkt = Packet::raw(
            Addr::new(10, 0, 0, 1),
            Addr::new(99, 0, 0, 1),
            proto::GRE,
            Bytes::from_static(b"inner packet bytes"),
        );
        assert_eq!(Packet::decode(pkt.encode()).unwrap(), pkt);
        assert_eq!(pkt.l4.protocol(), 47);
    }

    fn samples() -> [Packet; 3] {
        [
            sample_tcp(),
            Packet::udp(
                SocketAddr::new(Addr::new(10, 0, 0, 1), 3333),
                SocketAddr::new(Addr::new(8, 8, 8, 8), 53),
                Bytes::from_static(&[1, 2, 3, 4, 5]),
            ),
            Packet::raw(Addr::new(10, 0, 0, 1), Addr::new(99, 0, 0, 1), proto::ESP, Bytes::from_static(b"sealed")),
        ]
    }

    #[test]
    fn encoded_len_is_what_encode_writes() {
        for pkt in samples() {
            let mut out = Vec::new();
            pkt.encode_into(&mut out);
            assert_eq!(out.len(), pkt.encoded_len());
            assert_eq!(pkt.encode(), out);
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        for pkt in samples() {
            let enc = pkt.encode();
            for cut in 0..enc.len() {
                assert_eq!(
                    Packet::decode(enc.slice(..cut)).unwrap_err(),
                    PacketDecodeError::Truncated,
                    "{:?} cut at {cut}",
                    pkt.l4.protocol()
                );
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        for pkt in samples() {
            for extra in [1, 2, 40] {
                let mut enc = pkt.encode().to_vec();
                enc.extend(std::iter::repeat_n(0xff, extra));
                assert_eq!(
                    Packet::decode(Bytes::from(enc)).unwrap_err(),
                    PacketDecodeError::TrailingBytes(extra)
                );
            }
        }
    }

    #[test]
    fn decoded_payload_is_a_view_of_the_input() {
        for pkt in samples() {
            let enc = pkt.encode();
            let decoded = Packet::decode(enc.clone()).unwrap();
            let payload = decoded.l4.payload();
            let at = enc.len() - payload.len();
            assert_eq!(payload.as_ptr(), enc[at..].as_ptr(), "the payload is not copied");
        }
    }

    #[test]
    fn flags_byte_roundtrip() {
        for b in 0u8..16 {
            assert_eq!(TcpFlags::from_byte(b).to_byte(), b);
        }
    }

    #[test]
    fn socket_accessors() {
        let pkt = sample_tcp();
        assert_eq!(pkt.src_socket().unwrap().port, 5000);
        assert_eq!(pkt.dst_socket().unwrap().port, 443);
        let raw = Packet::raw(Addr::UNSPECIFIED, Addr::UNSPECIFIED, 47, Bytes::new());
        assert!(raw.src_socket().is_none());
    }

    #[test]
    fn wire_len_includes_header() {
        let pkt = sample_tcp();
        assert_eq!(pkt.wire_len(), 5 + HEADER_OVERHEAD);
    }

    #[test]
    fn nested_encapsulation_roundtrip() {
        // A packet inside a UDP tunnel inside another packet — the pattern
        // every VPN in sc-tunnels relies on.
        let inner = sample_tcp();
        let outer = Packet::udp(
            SocketAddr::new(Addr::new(10, 0, 0, 1), 999),
            SocketAddr::new(Addr::new(99, 0, 0, 9), 1194),
            inner.encode(),
        );
        let outer2 = Packet::decode(outer.encode()).unwrap();
        if let L4::Udp(u) = &outer2.l4 {
            assert_eq!(Packet::decode(u.payload.clone()).unwrap(), inner);
        } else {
            panic!("expected UDP");
        }
    }
}
