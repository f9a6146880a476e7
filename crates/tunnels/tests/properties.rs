//! Property-based tests on tunnel wire formats and invariants.

use proptest::prelude::*;
use sc_tunnels::tor::cells::{
    CELL_PAYLOAD, Cell, CellBuf, OnionLayer, cmd, parse_relay_payload, relay_payload,
};
use sc_tunnels::vpn::{NAT_PORT_HI, NAT_PORT_LO, Nat, SessionKey, open_packet, seal_packet};

proptest! {
    /// Sealed VPN packets always open to the original bytes; any single
    /// bit flip is rejected.
    #[test]
    fn vpn_seal_open(key: [u8; 32],
                     nonce: u64,
                     plain in prop::collection::vec(any::<u8>(), 0..1500),
                     flip in 0usize..1500) {
        let key = SessionKey::new(key);
        let sealed = seal_packet(&key, nonce, &plain);
        prop_assert_eq!(open_packet(&key, &sealed).unwrap(), plain);
        let mut bad = sealed.clone();
        let i = flip % bad.len();
        bad[i] ^= 1;
        prop_assert!(open_packet(&key, &bad).is_none());
    }

    /// Seal never produces the same wire bytes for different nonces.
    #[test]
    fn vpn_seal_nonce_uniqueness(key: [u8; 32],
                                 n1: u64, n2: u64,
                                 plain in prop::collection::vec(any::<u8>(), 1..500)) {
        prop_assume!(n1 != n2);
        let key = SessionKey::new(key);
        prop_assert_ne!(seal_packet(&key, n1, &plain), seal_packet(&key, n2, &plain));
    }

    /// Tor cells survive arbitrary re-chunking of the byte stream.
    #[test]
    fn cell_stream_rechunking(payloads in prop::collection::vec(
                                  prop::collection::vec(any::<u8>(), 0..CELL_PAYLOAD), 1..8),
                              chunk in 1usize..700) {
        let cells: Vec<Cell> = payloads
            .into_iter()
            .enumerate()
            .map(|(i, p)| Cell::new(i as u32, cmd::RELAY, p))
            .collect();
        let mut wire = Vec::new();
        for c in &cells {
            wire.extend(c.encode());
        }
        let mut buf = CellBuf::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            buf.push(piece);
            while let Some(c) = buf.next_cell() {
                got.push(c);
            }
        }
        prop_assert_eq!(got, cells);
    }

    /// Three onion layers peel back to the original relay payload for any
    /// stream id / command / data, across several sequential cells.
    #[test]
    fn onion_three_hops(msgs in prop::collection::vec(
                            (any::<u16>(), 1u8..7, prop::collection::vec(any::<u8>(), 0..400)),
                            1..6),
                        keys: [u8; 3]) {
        let mk = |i: usize| OnionLayer::new([keys[i]; 32]);
        let mut client = [mk(0), mk(1), mk(2)];
        let mut hops = [mk(0), mk(1), mk(2)];
        for (sid, rcmd, data) in msgs {
            let plain = relay_payload(sid, rcmd, &data);
            let mut wrapped = plain.clone();
            for layer in client.iter_mut().rev() {
                layer.forward(&mut wrapped);
            }
            for hop in hops.iter_mut() {
                hop.forward(&mut wrapped);
            }
            let (s, c, d) = parse_relay_payload(&wrapped).unwrap();
            prop_assert_eq!(s, sid);
            prop_assert_eq!(c, rcmd);
            prop_assert_eq!(d, &data[..]);
        }
    }

    /// NAT translation is invertible and allocated ports stay in range.
    #[test]
    fn nat_invertible(client_port in 1024u16..65000, dst_port in 1u16..65000,
                      flows in 1usize..50) {
        use bytes::Bytes;
        use sc_simnet::addr::{Addr, SocketAddr};
        use sc_simnet::packet::{Packet, TcpFlags, TcpSegmentBody};
        let mut nat = Nat::new();
        let client = Addr::new(10, 0, 0, 1);
        let public = Addr::new(99, 0, 0, 9);
        for i in 0..flows {
            let sport = client_port.wrapping_add(i as u16).max(1);
            let inner = Packet::tcp(
                SocketAddr::new(client, sport),
                SocketAddr::new(Addr::new(99, 2, 0, 1), dst_port),
                TcpSegmentBody { seq: 0, ack: 0, flags: TcpFlags::SYN, window: 0, payload: Bytes::new() },
            );
            let out = nat.outbound(client, public, inner).unwrap();
            let nat_port = out.src_socket().unwrap().port;
            prop_assert!((NAT_PORT_LO..=NAT_PORT_HI).contains(&nat_port));
            // Reply comes back to the NAT port.
            let reply = Packet::tcp(
                SocketAddr::new(Addr::new(99, 2, 0, 1), dst_port),
                SocketAddr::new(public, nat_port),
                TcpSegmentBody { seq: 0, ack: 1, flags: TcpFlags::SYN_ACK, window: 0, payload: Bytes::new() },
            );
            let (back, restored) = nat.inbound(reply).unwrap();
            prop_assert_eq!(back, client);
            prop_assert_eq!(restored.dst_socket().unwrap(), SocketAddr::new(client, sport));
        }
    }
}
