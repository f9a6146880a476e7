//! Network addressing: IPv4-style 32-bit addresses and socket addresses.

use core::fmt;

/// A 32-bit network address, printed in dotted-quad form.
///
/// The simulation assigns one address per node. Prefix helpers let the GFW
/// and routing policies reason about "regions" (e.g. `10.x.x.x` = domestic,
/// `99.x.x.x` = foreign) the way real deployments reason about ASes.
///
/// # Examples
///
/// ```
/// use sc_simnet::addr::Addr;
///
/// let a = Addr::new(10, 0, 0, 1);
/// assert_eq!(a.to_string(), "10.0.0.1");
/// assert_eq!(a.octets()[0], 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Addr = Addr(0);

    /// Creates an address from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr(u32::from_be_bytes([a, b, c, d]))
    }

    /// Creates an address from a raw 32-bit value.
    pub const fn from_u32(v: u32) -> Self {
        Addr(v)
    }

    /// The raw 32-bit value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The four octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Whether this address falls inside `prefix`/`prefix_len`.
    pub fn in_prefix(self, prefix: Addr, prefix_len: u8) -> bool {
        if prefix_len == 0 {
            return true;
        }
        let shift = 32 - prefix_len as u32;
        (self.0 >> shift) == (prefix.0 >> shift)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl Addr {
    /// Appends the dotted quad with the trace writer's digit writer.
    fn push_dotted(self, out: &mut String) {
        for (i, octet) in self.octets().into_iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            sc_obs::sink::push_u64(out, u64::from(octet));
        }
    }
}

/// A trace field value: the dotted quad as a JSON string, written
/// without `core::fmt`.
impl sc_obs::FieldValue for Addr {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        self.push_dotted(out);
        out.push('"');
    }
}

/// An address/port pair.
///
/// # Examples
///
/// ```
/// use sc_simnet::addr::{Addr, SocketAddr};
///
/// let s = SocketAddr::new(Addr::new(99, 0, 0, 2), 443);
/// assert_eq!(s.to_string(), "99.0.0.2:443");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SocketAddr {
    /// Network address.
    pub addr: Addr,
    /// Transport port.
    pub port: u16,
}

impl SocketAddr {
    /// Creates a socket address.
    pub const fn new(addr: Addr, port: u16) -> Self {
        SocketAddr { addr, port }
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// A trace field value: `a.b.c.d:port` as a JSON string, written
/// without `core::fmt`.
impl sc_obs::FieldValue for SocketAddr {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        self.addr.push_dotted(out);
        out.push(':');
        sc_obs::sink::push_u64(out, u64::from(self.port));
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_roundtrip() {
        let a = Addr::new(192, 168, 1, 77);
        assert_eq!(a.octets(), [192, 168, 1, 77]);
        assert_eq!(Addr::from_u32(a.as_u32()), a);
    }

    #[test]
    fn prefix_matching() {
        let domestic = Addr::new(10, 0, 0, 0);
        assert!(Addr::new(10, 5, 6, 7).in_prefix(domestic, 8));
        assert!(!Addr::new(99, 5, 6, 7).in_prefix(domestic, 8));
        // Zero-length prefix matches everything.
        assert!(Addr::new(1, 2, 3, 4).in_prefix(Addr::UNSPECIFIED, 0));
        // Full-length prefix is exact match.
        assert!(Addr::new(10, 0, 0, 1).in_prefix(Addr::new(10, 0, 0, 1), 32));
        assert!(!Addr::new(10, 0, 0, 2).in_prefix(Addr::new(10, 0, 0, 1), 32));
    }

    #[test]
    fn display() {
        assert_eq!(Addr::new(8, 8, 8, 8).to_string(), "8.8.8.8");
        assert_eq!(
            SocketAddr::new(Addr::new(10, 0, 0, 1), 8080).to_string(),
            "10.0.0.1:8080"
        );
    }

    mod props {
        use proptest::prelude::*;
        use sc_obs::{write_line, Level, SpanId};

        use super::*;

        /// A trace line with `fields`.
        fn line(fields: impl FnOnce(&mut sc_obs::Fields<'_>)) -> String {
            let mut out = String::new();
            write_line(&mut out, 1, Level::Info, "simnet", "packet", "drop", SpanId::NONE, fields);
            out
        }

        proptest! {
            /// An address written as a field value is the line its
            /// `Display` text makes as a `&str` field (which sc-obs checks
            /// against its `fmt` oracle).
            #[test]
            fn addresses_write_as_their_display_text(
                raw in any::<u32>(),
                port in any::<u16>(),
                edge in 0usize..4,
            ) {
                let addr = Addr::from_u32([raw, 0, u32::MAX, 0x0a00_0001][edge]);
                let sock = SocketAddr::new(addr, [port, 0, u16::MAX, 443][edge]);
                let direct = line(|f| {
                    f.field("addr", addr).field("sock", sock);
                });
                let (addr_text, sock_text) = (addr.to_string(), sock.to_string());
                let via_text = line(|f| {
                    f.field("addr", addr_text.as_str()).field("sock", sock_text.as_str());
                });
                prop_assert_eq!(direct, via_text);
            }
        }
    }
}
