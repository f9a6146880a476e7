//! Property-based tests on the cryptographic primitives' invariants.

use proptest::prelude::*;
use sc_crypto::aes::{Aes, KeySize};
use sc_crypto::blinding::BlindingScheme;
use sc_crypto::hmac::{hkdf_expand_into, hkdf_extract, hmac_sha256};
use sc_crypto::modes::{Cfb, Ctr};
use sc_crypto::sha256::{Sha256, sha256};

proptest! {
    /// Block encryption is invertible for every key size.
    #[test]
    fn aes_roundtrip(key in prop::collection::vec(any::<u8>(), 32), block: [u8; 16]) {
        let aes = Aes::new(KeySize::Aes256, &key).unwrap();
        let mut b = block;
        aes.encrypt_block(&mut b);
        aes.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    /// Distinct keys (almost surely) produce distinct ciphertexts.
    #[test]
    fn aes_distinct_keys_distinct_output(k1 in prop::collection::vec(any::<u8>(), 32),
                                         k2 in prop::collection::vec(any::<u8>(), 32)) {
        prop_assume!(k1 != k2);
        let a = Aes::new(KeySize::Aes256, &k1).unwrap();
        let b = Aes::new(KeySize::Aes256, &k2).unwrap();
        let mut x = [0u8; 16];
        let mut y = [0u8; 16];
        a.encrypt_block(&mut x);
        b.encrypt_block(&mut y);
        prop_assert_ne!(x, y);
    }

    /// CFB decrypt(encrypt(x)) == x under arbitrary chunking on both sides.
    #[test]
    fn cfb_roundtrip_arbitrary_chunks(
        key in prop::collection::vec(any::<u8>(), 32),
        iv: [u8; 16],
        data in prop::collection::vec(any::<u8>(), 0..2000),
        enc_chunk in 1usize..97,
        dec_chunk in 1usize..97,
    ) {
        let mut enc = Cfb::new(Aes::new(KeySize::Aes256, &key).unwrap(), iv);
        let mut dec = Cfb::new(Aes::new(KeySize::Aes256, &key).unwrap(), iv);
        let mut wire = data.clone();
        for chunk in wire.chunks_mut(enc_chunk) {
            enc.encrypt(chunk);
        }
        for chunk in wire.chunks_mut(dec_chunk) {
            dec.decrypt(chunk);
        }
        prop_assert_eq!(wire, data);
    }

    /// CTR is an involution when re-keyed identically.
    #[test]
    fn ctr_involution(key in prop::collection::vec(any::<u8>(), 32), nonce: [u8; 16],
                      data in prop::collection::vec(any::<u8>(), 0..2000)) {
        let mut a = Ctr::new(Aes::new(KeySize::Aes256, &key).unwrap(), nonce);
        let mut b = Ctr::new(Aes::new(KeySize::Aes256, &key).unwrap(), nonce);
        let mut x = data.clone();
        a.apply(&mut x);
        b.apply(&mut x);
        prop_assert_eq!(x, data);
    }

    /// Incremental hashing equals one-shot hashing for any split.
    #[test]
    fn sha256_incremental(data in prop::collection::vec(any::<u8>(), 0..3000), split in 0usize..3000) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// HMAC differs when the key differs.
    #[test]
    fn hmac_key_sensitivity(k1 in prop::collection::vec(any::<u8>(), 1..64),
                            k2 in prop::collection::vec(any::<u8>(), 1..64),
                            msg in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }

    /// HKDF output of any requested length is the prefix of a longer one.
    #[test]
    fn hkdf_length(salt in prop::collection::vec(any::<u8>(), 0..32),
                   ikm in prop::collection::vec(any::<u8>(), 1..64),
                   len in 1usize..1000) {
        let (prk, mut out, mut longest) = (hkdf_extract(&salt, &ikm), vec![0u8; len], vec![0u8; 1000]);
        hkdf_expand_into(&prk, b"t", &mut out);
        hkdf_expand_into(&prk, b"t", &mut longest);
        prop_assert_eq!(&out[..], &longest[..len]);
    }

    /// Every blinding scheme round-trips under arbitrary stream splits.
    #[test]
    fn blinding_roundtrip(scheme_id in 0u8..4,
                          key in prop::collection::vec(any::<u8>(), 1..48),
                          data in prop::collection::vec(any::<u8>(), 0..1500),
                          split in 0usize..1500) {
        let scheme = BlindingScheme::from_wire_id(scheme_id).unwrap();
        let codec = scheme.instantiate(&key);
        let split = split.min(data.len());
        let mut wire = data.clone();
        codec.encode(&mut wire[..split], 0);
        codec.encode(&mut wire[split..], split as u64);
        let mut out = wire;
        codec.decode(&mut out[..split], 0);
        codec.decode(&mut out[split..], split as u64);
        prop_assert_eq!(out, data);
    }
}
