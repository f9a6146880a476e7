//! Property-based tests on the simulator's wire formats and invariants.

use bytes::Bytes;
use proptest::prelude::*;
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::packet::{L4, Packet, TcpFlags, TcpSegmentBody};
use sc_simnet::time::{SimDuration, SimTime};

fn packet_strategy() -> impl Strategy<Value = Packet> {
    let payload = prop::collection::vec(any::<u8>(), 0..1500);
    (any::<u32>(), any::<u32>(), any::<u8>(), 0u8..3, any::<u16>(), any::<u16>(),
     any::<u64>(), any::<u64>(), 0u8..16, any::<u32>(), payload)
        .prop_map(|(src, dst, ttl, kind, sp, dp, seq, ack, flags, window, payload)| {
            let src_a = Addr::from_u32(src);
            let dst_a = Addr::from_u32(dst);
            let mut pkt = match kind {
                0 => Packet::tcp(
                    SocketAddr::new(src_a, sp),
                    SocketAddr::new(dst_a, dp),
                    TcpSegmentBody {
                        seq,
                        ack,
                        flags: tcp_flags_from(flags),
                        window,
                        payload: Bytes::from(payload),
                    },
                ),
                1 => Packet::udp(
                    SocketAddr::new(src_a, sp),
                    SocketAddr::new(dst_a, dp),
                    Bytes::from(payload),
                ),
                _ => Packet::raw(src_a, dst_a, 47, Bytes::from(payload)),
            };
            pkt.ttl = ttl;
            pkt
        })
}

fn tcp_flags_from(bits: u8) -> TcpFlags {
    TcpFlags {
        syn: bits & 1 != 0,
        ack: bits & 2 != 0,
        fin: bits & 4 != 0,
        rst: bits & 8 != 0,
    }
}

proptest! {
    /// Packet encode/decode is the identity.
    #[test]
    fn packet_codec_roundtrip(pkt in packet_strategy()) {
        let decoded = Packet::decode(pkt.encode()).unwrap();
        prop_assert_eq!(decoded, pkt);
    }

    /// Truncating an encoded packet never decodes successfully (except at
    /// full length) and never panics.
    #[test]
    fn packet_decode_rejects_truncation(pkt in packet_strategy(), cut in 0usize..100) {
        let wire = pkt.encode();
        let cut = cut.min(wire.len().saturating_sub(1));
        prop_assert!(Packet::decode(wire.slice(..cut)).is_err());
    }

    /// Nested encapsulation (VPN-style) is lossless.
    #[test]
    fn packet_nested_encapsulation(inner in packet_strategy(), outer_port: u16) {
        let outer = Packet::udp(
            SocketAddr::new(Addr::new(10, 0, 0, 1), outer_port),
            SocketAddr::new(Addr::new(99, 0, 0, 1), 1194),
            inner.encode(),
        );
        let outer2 = Packet::decode(outer.encode()).unwrap();
        if let L4::Udp(u) = &outer2.l4 {
            prop_assert_eq!(Packet::decode(u.payload.clone()).unwrap(), inner);
        } else {
            prop_assert!(false);
        }
    }

    /// Time arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_arithmetic(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t0 = SimTime::from_micros(t);
        let dd = SimDuration::from_micros(d);
        prop_assert_eq!((t0 + dd) - t0, dd);
        prop_assert!((t0 + dd) >= t0);
    }

    /// Address prefix matching is reflexive at /32 and monotone in length.
    #[test]
    fn prefix_monotonicity(a: u32, len in 0u8..33) {
        let addr = Addr::from_u32(a);
        prop_assert!(addr.in_prefix(addr, 32));
        prop_assert!(addr.in_prefix(addr, len));
    }
}
