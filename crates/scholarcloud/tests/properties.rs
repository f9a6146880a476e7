//! Property-based tests on ScholarCloud's wire protocol.

use proptest::prelude::*;
use sc_core::frame::{Hello, StreamCodec, StreamHeader, could_be_preamble};
use sc_crypto::blinding::BlindingScheme;
use sc_crypto::hmac::HmacKey;
use sc_netproto::socks::TargetAddr;

fn preamble(hello: &Hello, key: &HmacKey, front_host: &str) -> Vec<u8> {
    let mut out = String::new();
    hello.encode_into(key, front_host, &mut out);
    out.into_bytes()
}

fn scheme_strategy() -> impl Strategy<Value = BlindingScheme> {
    (0u8..4).prop_map(|i| BlindingScheme::from_wire_id(i).unwrap())
}

proptest! {
    /// Hello encode/parse is the identity for any scheme/nonce/host.
    #[test]
    fn hello_roundtrip(scheme in scheme_strategy(), nonce: u64,
                       secret in prop::collection::vec(any::<u8>(), 1..64),
                       host in "[a-z]{1,10}\\.[a-z]{2,6}") {
        let hello = Hello { scheme, nonce, generation: 0 };
        let key = HmacKey::new(&secret);
        let wire = preamble(&hello, &key, &host);
        let (parsed, used) = Hello::parse(&key, 0, &wire).unwrap().unwrap();
        prop_assert_eq!(parsed, hello);
        prop_assert_eq!(used, wire.len());
        prop_assert!(could_be_preamble(&wire[..wire.len().min(6)]));
    }

    /// A receiver at cover-path generation `now` accepts every scheme's
    /// preamble from its own generation and from the one before (flows in
    /// flight across a rotation), and refuses one from two generations
    /// back: the path no longer matches, so the sender gets the decoy.
    #[test]
    fn hello_generations(nonce: u64, now in 2u32..1_000_000,
                         secret in prop::collection::vec(any::<u8>(), 1..32)) {
        let key = HmacKey::new(&secret);
        for id in 0u8..4 {
            let scheme = BlindingScheme::from_wire_id(id).unwrap();
            for generation in [now, now - 1] {
                let hello = Hello { scheme, nonce, generation };
                let wire = preamble(&hello, &key, "h.example");
                let (parsed, used) = Hello::parse(&key, now, &wire).unwrap().unwrap();
                prop_assert_eq!(parsed, hello);
                prop_assert_eq!(used, wire.len());
            }
            let stale = preamble(&Hello { scheme, nonce, generation: now - 2 }, &key, "h.example");
            prop_assert!(Hello::parse(&key, now, &stale).is_err(), "generation {} at {}", now - 2, now);
        }
    }

    /// A preamble never authenticates under a different secret.
    #[test]
    fn hello_secret_binding(scheme in scheme_strategy(), nonce: u64,
                            s1 in prop::collection::vec(any::<u8>(), 1..32),
                            s2 in prop::collection::vec(any::<u8>(), 1..32)) {
        prop_assume!(s1 != s2);
        let wire = preamble(&Hello { scheme, nonce, generation: 0 }, &HmacKey::new(&s1), "h.example");
        prop_assert!(Hello::parse(&HmacKey::new(&s2), 0, &wire).is_err());
    }

    /// Stream headers round-trip for all targets.
    #[test]
    fn stream_header_roundtrip(is_tls: bool, port: u16, trace: u64, parent: u64,
                               domain in "[a-z]{1,20}\\.[a-z]{2,8}") {
        let header = StreamHeader { is_tls, trace, parent, target: TargetAddr::Domain(domain, port) };
        let wire = header.encode();
        let (parsed, used) = StreamHeader::decode(&wire).unwrap();
        prop_assert_eq!(parsed, header);
        prop_assert_eq!(used, wire.len());
    }

    /// The stream codec is lossless for any scheme, any chunking, with or
    /// without the extra encryption layer.
    #[test]
    fn codec_roundtrip(scheme in scheme_strategy(), nonce: u64, encrypt: bool,
                       secret in prop::collection::vec(any::<u8>(), 1..48),
                       data in prop::collection::vec(any::<u8>(), 0..2000),
                       chunk in 1usize..257) {
        let hello = Hello { scheme, nonce, generation: 0 };
        // Each end's pair; both directions of the tunnel carry the data.
        let (mut near_up, mut near_down) = StreamCodec::pair(&secret, &hello, encrypt);
        let (mut far_up, mut far_down) = StreamCodec::pair(&secret, &hello, encrypt);
        for (tx, rx) in [(&mut near_up, &mut far_up), (&mut far_down, &mut near_down)] {
            let mut wire = data.clone();
            for piece in wire.chunks_mut(chunk) {
                tx.encode(piece);
            }
            for piece in wire.chunks_mut(chunk) {
                rx.decode(piece);
            }
            prop_assert_eq!(&wire, &data);
        }
    }

    /// Garbage (not starting with POST /) is immediately identified as
    /// non-preamble, so probes get the decoy without delay.
    #[test]
    fn garbage_rejected_fast(garbage in prop::collection::vec(any::<u8>(), 6..64)) {
        prop_assume!(!garbage.starts_with(b"POST /"));
        prop_assert!(!could_be_preamble(&garbage));
    }
}
