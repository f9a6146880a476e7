//! SOCKS5 (RFC 1928) without authentication — the protocol spoken
//! between a browser and the Shadowsocks or Tor local proxy, and (in
//! Shadowsocks' wire format) the address header sent to the remote.

use bytes::BufMut;
use sc_simnet::addr::Addr;

/// SOCKS protocol version byte.
pub const SOCKS_VERSION: u8 = 5;

/// Longest domain the address format carries: its length is one byte. A
/// longer name is refused where it enters, before a [`TargetAddr`] is
/// made of it.
pub const MAX_DOMAIN_LEN: usize = u8::MAX as usize;

/// A connect target: domain name or literal address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetAddr {
    /// A domain to be resolved by the proxy.
    Domain(String, u16),
    /// A literal address.
    Ip(Addr, u16),
}

impl TargetAddr {
    /// The port.
    pub fn port(&self) -> u16 {
        match self {
            TargetAddr::Domain(_, p) | TargetAddr::Ip(_, p) => *p,
        }
    }

    /// Bytes [`encode_into`](Self::encode_into) writes.
    pub fn encoded_len(&self) -> usize {
        match self {
            TargetAddr::Ip(..) => 7,
            TargetAddr::Domain(d, _) => 4 + d.len(),
        }
    }

    /// Appends the SOCKS5 address format (ATYP + addr + port) — also the
    /// header format Shadowsocks prepends to each proxied stream — to
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics on a domain longer than [`MAX_DOMAIN_LEN`] bytes: its length
    /// byte cannot say so, and the peer would misread every byte after
    /// it.
    pub fn encode_into(&self, out: &mut impl BufMut) {
        match self {
            TargetAddr::Ip(a, p) => {
                out.put_u8(0x01);
                out.put_slice(&a.octets());
                out.put_u16(*p);
            }
            TargetAddr::Domain(d, p) => {
                let len = u8::try_from(d.len()).expect("a domain is refused above MAX_DOMAIN_LEN bytes");
                out.put_u8(0x03);
                out.put_u8(len);
                out.put_slice(d.as_bytes());
                out.put_u16(*p);
            }
        }
    }

    /// [`encode_into`](Self::encode_into) a buffer of its own, sized once.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes from SOCKS5 address format. Returns the target and the
    /// number of bytes consumed, or `None` if more data is needed or the
    /// ATYP is unsupported.
    pub fn decode(data: &[u8]) -> Option<(TargetAddr, usize)> {
        match *data.first()? {
            0x01 => {
                if data.len() < 7 {
                    return None;
                }
                let addr = Addr::new(data[1], data[2], data[3], data[4]);
                let port = u16::from_be_bytes([data[5], data[6]]);
                Some((TargetAddr::Ip(addr, port), 7))
            }
            0x03 => {
                let len = *data.get(1)? as usize;
                if data.len() < 2 + len + 2 {
                    return None;
                }
                let domain = String::from_utf8_lossy(&data[2..2 + len]).to_string();
                let port = u16::from_be_bytes([data[2 + len], data[3 + len]]);
                Some((TargetAddr::Domain(domain, port), 2 + len + 2))
            }
            _ => None,
        }
    }
}

/// The "no authentication required" method, the only one offered back.
const NO_AUTH: u8 = 0x00;

/// A CONNECT reply with `code` (0 = success), its bind address zeroed as
/// most implementations do.
fn connect_reply(code: u8) -> [u8; 10] {
    [SOCKS_VERSION, code, 0x00, 0x01, 0, 0, 0, 0, 0, 0]
}

/// Server-side SOCKS5 state machine, driven by stream bytes.
#[derive(Debug)]
pub struct SocksServerSession {
    state: SocksState,
    buf: Vec<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SocksState {
    Greeting,
    Request,
    Ready,
    Failed,
}

/// Output of feeding bytes to the server session.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SocksOutput {
    /// Bytes to send back to the client.
    pub reply: Vec<u8>,
    /// Set when the CONNECT target has been accepted.
    pub connect: Option<TargetAddr>,
    /// Leftover bytes that belong to the proxied stream (sent by an eager
    /// client after its CONNECT).
    pub leftover: Vec<u8>,
    /// The session failed (bad version, no acceptable method…).
    pub failed: bool,
}

impl SocksServerSession {
    /// A session that accepts anonymous clients.
    pub fn new() -> Self {
        SocksServerSession { state: SocksState::Greeting, buf: Vec::new() }
    }

    /// Whether negotiation finished and the stream is proxied.
    pub fn is_ready(&self) -> bool {
        self.state == SocksState::Ready
    }

    /// Feeds client bytes.
    pub fn on_bytes(&mut self, data: &[u8]) -> SocksOutput {
        self.buf.extend_from_slice(data);
        let mut out = SocksOutput::default();
        loop {
            match self.state {
                SocksState::Greeting => {
                    if self.buf.len() < 2 {
                        break;
                    }
                    let nmethods = self.buf[1] as usize;
                    if self.buf.len() < 2 + nmethods {
                        break;
                    }
                    if self.buf[0] != SOCKS_VERSION {
                        self.state = SocksState::Failed;
                        out.failed = true;
                        break;
                    }
                    let offered = self.buf[2..2 + nmethods].contains(&NO_AUTH);
                    self.buf.drain(..2 + nmethods);
                    if !offered {
                        out.reply.extend([SOCKS_VERSION, 0xff]);
                        self.state = SocksState::Failed;
                        out.failed = true;
                        break;
                    }
                    out.reply.extend([SOCKS_VERSION, NO_AUTH]);
                    self.state = SocksState::Request;
                }
                SocksState::Request => {
                    if self.buf.len() < 3 {
                        break;
                    }
                    if self.buf[0] != SOCKS_VERSION || self.buf[1] != 0x01 {
                        out.reply.extend(connect_reply(7));
                        self.state = SocksState::Failed;
                        out.failed = true;
                        break;
                    }
                    // `decode` reads IPv4 and domain targets only: refuse
                    // any other address type at once, or it would wait for
                    // bytes that never make a target.
                    if self.buf.get(3).is_some_and(|atyp| ![0x01, 0x03].contains(atyp)) {
                        out.reply.extend(connect_reply(8));
                        self.state = SocksState::Failed;
                        out.failed = true;
                        break;
                    }
                    let Some((target, consumed)) = TargetAddr::decode(&self.buf[3..]) else { break };
                    self.buf.drain(..3 + consumed);
                    out.reply.extend(connect_reply(0));
                    out.connect = Some(target);
                    self.state = SocksState::Ready;
                }
                SocksState::Ready => {
                    out.leftover.extend(self.buf.drain(..));
                    break;
                }
                SocksState::Failed => {
                    self.buf.clear();
                    break;
                }
            }
        }
        out
    }
}

impl Default for SocksServerSession {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GREETING: [u8; 3] = [5, 1, NO_AUTH];

    fn connect(target: &TargetAddr) -> Vec<u8> {
        let mut out = vec![5, 0x01, 0x00];
        out.extend(target.encode());
        out
    }

    #[test]
    fn anonymous_connect_flow() {
        let mut s = SocksServerSession::new();
        let o1 = s.on_bytes(&GREETING);
        assert_eq!(o1.reply, vec![5, 0]);
        let target = TargetAddr::Domain("scholar.google.com".into(), 443);
        let o2 = s.on_bytes(&connect(&target));
        assert_eq!(o2.reply, connect_reply(0));
        assert_eq!(o2.reply.len(), 10);
        assert_eq!(o2.connect, Some(target));
        assert!(s.is_ready());
    }

    #[test]
    fn a_greeting_without_no_auth_is_refused() {
        // Username/password (0x02) alone: no acceptable method.
        let mut s = SocksServerSession::new();
        let o = s.on_bytes(&[5, 1, 2]);
        assert!(o.failed);
        assert_eq!(o.reply, vec![5, 0xff]);
        assert!(!s.is_ready());
    }

    #[test]
    fn a_connect_to_an_unknown_address_type_is_refused_with_code_8() {
        for atyp in [0x04, 0x09] {
            let mut s = SocksServerSession::new();
            s.on_bytes(&GREETING);
            let o = s.on_bytes(&[5, 0x01, 0x00, atyp]);
            assert_eq!(o.reply, [5, 8, 0, 1, 0, 0, 0, 0, 0, 0], "ATYP {atyp}");
            assert!(o.failed, "ATYP {atyp}");
        }
    }

    #[test]
    fn eager_client_data_is_preserved() {
        let mut s = SocksServerSession::new();
        s.on_bytes(&GREETING);
        let mut bytes = connect(&TargetAddr::Domain("h".into(), 80));
        bytes.extend_from_slice(b"GET / HTTP/1.1\r\n\r\n");
        let o = s.on_bytes(&bytes);
        assert!(o.connect.is_some());
        assert_eq!(o.leftover, b"GET / HTTP/1.1\r\n\r\n");
    }

    #[test]
    fn fragmented_negotiation() {
        let mut s = SocksServerSession::new();
        let mut wire = GREETING.to_vec();
        wire.extend(connect(&TargetAddr::Domain("example.com".into(), 443)));
        let mut connected = None;
        for b in wire {
            let o = s.on_bytes(&[b]);
            if o.connect.is_some() {
                connected = o.connect;
            }
        }
        assert_eq!(connected, Some(TargetAddr::Domain("example.com".into(), 443)));
    }

    #[test]
    fn target_addr_roundtrip() {
        for t in [
            TargetAddr::Ip(Addr::new(1, 2, 3, 4), 8080),
            TargetAddr::Domain("a.very.long.domain.example".into(), 443),
        ] {
            let enc = t.encode();
            let (dec, used) = TargetAddr::decode(&enc).unwrap();
            assert_eq!(dec, t);
            assert_eq!(used, enc.len());
            assert_eq!(t.port(), dec.port());
        }
        assert!(TargetAddr::decode(&[0x04, 0, 0]).is_none()); // IPv6 unsupported
        assert!(TargetAddr::decode(&[0x01, 1, 2]).is_none()); // truncated
    }

    #[test]
    fn every_domain_length_the_format_can_say_round_trips_in_a_buffer_sized_once() {
        for len in [0, 1, 63, 254, MAX_DOMAIN_LEN] {
            let t = TargetAddr::Domain("a".repeat(len), 443);
            let enc = t.encode();
            assert_eq!((enc.len(), enc.capacity()), (t.encoded_len(), t.encoded_len()));
            assert_eq!(TargetAddr::decode(&enc), Some((t, len + 4)));
        }
    }

    /// A 319-byte name's length byte would read 63: the peer would take
    /// the first 63 bytes for the domain and the rest for the stream.
    #[test]
    #[should_panic(expected = "MAX_DOMAIN_LEN")]
    fn a_domain_the_length_byte_cannot_say_is_never_encoded() {
        let name = format!("{}.scholar.google.com", "a".repeat(300));
        assert_eq!(name.len(), 319);
        TargetAddr::Domain(name, 443).encode();
    }
}
