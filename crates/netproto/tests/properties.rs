//! Property-based tests on the protocol codecs.

use proptest::prelude::*;
use sc_netproto::http::{HttpMessage, HttpParser, HttpRequest, HttpResponse};
use sc_netproto::pac::PacFile;
use sc_netproto::socks::TargetAddr;
use sc_netproto::tls::{TlsClient, TlsServer};
use sc_simnet::addr::{Addr, SocketAddr};

fn domain_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,10}(\\.[a-z][a-z0-9]{1,8}){1,3}"
}

proptest! {
    /// HTTP responses round-trip through the parser under any fragmentation.
    #[test]
    fn http_response_roundtrip(status in 200u16..599, body in prop::collection::vec(any::<u8>(), 0..4000),
                               frag in 1usize..193) {
        let resp = HttpResponse::new(status, body.clone());
        let wire = resp.encode();
        let mut parser = HttpParser::new();
        let mut msgs = Vec::new();
        for chunk in wire.chunks(frag) {
            msgs.extend(parser.push(chunk).unwrap());
        }
        prop_assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            HttpMessage::Response(r) => {
                prop_assert_eq!(r.status, status);
                prop_assert_eq!(&r.body, &body);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// Pipelined requests parse in order.
    #[test]
    fn http_pipelining(paths in prop::collection::vec("[a-z0-9/]{1,20}", 1..6)) {
        let mut wire = Vec::new();
        for p in &paths {
            wire.extend(HttpRequest::get("h.example", &format!("/{p}")).encode());
        }
        let mut parser = HttpParser::new();
        let msgs = parser.push(&wire).unwrap();
        prop_assert_eq!(msgs.len(), paths.len());
    }

    /// SOCKS target addresses round-trip.
    #[test]
    fn socks_target_roundtrip(a: u32, port: u16, domain in domain_strategy(), is_ip: bool) {
        let target = if is_ip {
            TargetAddr::Ip(Addr::from_u32(a), port)
        } else {
            TargetAddr::Domain(domain, port)
        };
        let enc = target.encode();
        let (dec, used) = TargetAddr::decode(&enc).unwrap();
        prop_assert_eq!(used, enc.len());
        prop_assert_eq!(dec, target);
    }

    /// PAC generate → parse is the identity, and decisions agree.
    #[test]
    fn pac_roundtrip(domains in prop::collection::vec(domain_strategy(), 1..8),
                     addr: u32, port: u16, probe in domain_strategy()) {
        let proxy = SocketAddr::new(Addr::from_u32(addr), port);
        let pac = PacFile::new(domains, proxy);
        let parsed = PacFile::parse(&pac.to_javascript()).unwrap();
        prop_assert_eq!(&parsed, &pac);
        prop_assert_eq!(parsed.decide(&probe), pac.decide(&probe));
    }

    /// TLS carries arbitrary application data faithfully in both
    /// directions under arbitrary record sizes.
    #[test]
    fn tls_bidirectional_transport(c2s in prop::collection::vec(any::<u8>(), 1..2000),
                                   s2c in prop::collection::vec(any::<u8>(), 1..2000),
                                   entropy: u64) {
        let mut client = TlsClient::new("host.example", entropy);
        let mut server = TlsServer::new(entropy ^ 1);
        let ch = client.start_handshake();
        let s1 = server.on_bytes(&ch).unwrap();
        let c1 = client.on_bytes(&s1.wire).unwrap();
        let s2 = server.on_bytes(&c1.wire).unwrap();
        let _ = client.on_bytes(&s2.wire).unwrap();

        let wire = client.send(&[&c2s]);
        let got = server.on_bytes(&wire).unwrap();
        prop_assert_eq!(got.plaintext, c2s);
        let wire = server.send(&[&s2c]);
        let got = client.on_bytes(&wire).unwrap();
        prop_assert_eq!(got.plaintext, s2c);
    }

    /// Whatever bytes arrive, in whatever pieces, a TLS endpoint answers
    /// with output or an error — in its handshake or connected, and again
    /// after it has already refused something.
    #[test]
    fn tls_endpoints_survive_arbitrary_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..600),
        // Half the time, dress the noise as one whole record, so it gets
        // past the deframer and into the state machines.
        looks_like_a_record: bool,
        record_type in 20u8..25,
        frag in 1usize..97,
        connected: bool,
    ) {
        let mut bytes = noise;
        if looks_like_a_record && bytes.len() >= 7 {
            let len = (bytes.len() - 7) as u32;
            bytes[..3].copy_from_slice(&[record_type, 0x03, 0x03]);
            bytes[3..7].copy_from_slice(&len.to_be_bytes());
        }
        let mut client = TlsClient::new("host.example", 11);
        let mut server = TlsServer::new(12);
        let ch = client.start_handshake();
        if connected {
            let s1 = server.on_bytes(&ch).unwrap();
            let c1 = client.on_bytes(&s1.wire).unwrap();
            let s2 = server.on_bytes(&c1.wire).unwrap();
            client.on_bytes(&s2.wire).unwrap();
        }
        for chunk in bytes.chunks(frag) {
            let _ = client.on_bytes(chunk);
            let _ = server.on_bytes(chunk);
        }
    }

    /// A handshake with one byte of one flight damaged in transit never
    /// panics either side, and never ends with the two sides connected
    /// and unable to talk.
    #[test]
    fn tls_handshake_survives_a_mutated_flight(
        flight in 0usize..4,
        at: usize,
        flip in 1u8..=255,
        entropy: u64,
    ) {
        let mut client = TlsClient::new("host.example", entropy);
        let mut server = TlsServer::new(entropy ^ 1);
        let damage = |n: usize, mut wire: Vec<u8>| {
            if n == flight && !wire.is_empty() {
                let at = at % wire.len();
                wire[at] ^= flip;
            }
            wire
        };
        let ch = damage(0, client.start_handshake().to_vec());
        let s1 = server.on_bytes(&ch).map(|o| o.wire.to_vec()).unwrap_or_default();
        let c1 = client.on_bytes(&damage(1, s1)).map(|o| o.wire.to_vec()).unwrap_or_default();
        let s2 = server.on_bytes(&damage(2, c1)).map(|o| o.wire.to_vec()).unwrap_or_default();
        let _ = client.on_bytes(&damage(3, s2));
        if client.is_connected() && server.is_connected() {
            let got = server.on_bytes(&client.send(&[b"ping"])).unwrap();
            prop_assert_eq!(&got.plaintext[..], b"ping");
        }
    }
}
