//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869), used for tunnel key
//! derivation and message authentication in the simulated handshakes.

use crate::sha256::{sha256, Sha256};

/// Computes HMAC-SHA256 over `data` with `key`.
///
/// # Examples
///
/// ```
/// use sc_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(data)
}

/// An HMAC-SHA256 key with its two padded-key blocks already hashed: the
/// SHA-256 chaining values after `key ^ ipad` and after `key ^ opad`.
/// Whoever MACs many messages under one key (a TLS session, a VPN
/// session, a proxy's preamble secret) builds this once; each tag then
/// costs the message's own blocks plus two, with no pad to rebuild.
///
/// # Examples
///
/// ```
/// use sc_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(b"message"), hmac_sha256(b"key", b"message"));
/// let mut mac = key.start();
/// mac.update(b"mess");
/// mac.update(b"age");
/// assert_eq!(mac.finalize(), key.mac(b"message"));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl core::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

impl HmacKey {
    /// Prepares `key` (any length; keys over 64 bytes are hashed first).
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; 64];
        if key.len() > 64 {
            block_key[..32].copy_from_slice(&sha256(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let midstate_after = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&block_key.map(|b| b ^ pad));
            h.midstate()
        };
        Self { inner: midstate_after(0x36), outer: midstate_after(0x5c) }
    }

    /// Starts a MAC over a message fed in pieces.
    pub fn start(&self) -> HmacSha256 {
        HmacSha256 { inner: Sha256::from_midstate(self.inner, 1), outer: self.outer }
    }

    /// The tag of `data`.
    pub fn mac(&self, data: &[u8]) -> [u8; 32] {
        let mut mac = self.start();
        mac.update(data);
        mac.finalize()
    }
}

/// Incremental HMAC-SHA256.
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: [u32; 8],
}

impl HmacSha256 {
    /// Creates a MAC keyed with `key` (any length; long keys are hashed).
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).start()
    }

    /// Feeds message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = Sha256::from_midstate(self.outer, 1);
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// Constant-time equality for MAC tags.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// HKDF-Extract (RFC 5869 §2.2).
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand (RFC 5869 §2.3) into a buffer the caller owns:
/// `out.len()` bytes of output keying material, nothing allocated.
///
/// # Panics
///
/// Panics if `out.len() > 255 * 32` (the RFC limit).
pub fn hkdf_expand_into(prk: &[u8; 32], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * 32, "HKDF output length exceeds RFC 5869 limit");
    let key = HmacKey::new(prk);
    let mut t = [0u8; 32];
    for (i, chunk) in out.chunks_mut(32).enumerate() {
        let mut mac = key.start();
        if i > 0 {
            mac.update(&t);
        }
        mac.update(info);
        mac.update(&[i as u8 + 1]);
        t = mac.finalize();
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// Derives a fixed-size key from a password the way Shadowsocks' `EVP_BytesToKey`
/// does (MD5 chain in the original; we use a SHA-256 chain — the derivation
/// shape, password → key bytes, is what matters to the simulation).
pub fn bytes_to_key(password: &[u8], key_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(key_len);
    let mut prev: Vec<u8> = Vec::new();
    while out.len() < key_len {
        let mut h = Sha256::new();
        h.update(&prev);
        h.update(password);
        prev = h.finalize().to_vec();
        let take = (key_len - out.len()).min(32);
        out.extend_from_slice(&prev[..take]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::on_each_backend;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 4231 test cases 1, 2 ("Jefe") and 6 (key longer than a block),
    // through every entry point, on both kernels.
    #[test]
    fn rfc4231_cases_1_2_6() {
        on_each_backend(|| {
            for (key, msg, tag) in [
                (
                    vec![0x0b; 20],
                    &b"Hi There"[..],
                    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
                ),
                (
                    b"Jefe".to_vec(),
                    b"what do ya want for nothing?",
                    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
                ),
                (
                    vec![0xaa; 131],
                    b"Test Using Larger Than Block-Size Key - Hash Key First",
                    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
                ),
            ] {
                let tag = hex(tag);
                assert_eq!(hmac_sha256(&key, msg).to_vec(), tag);
                let prepared = HmacKey::new(&key);
                assert_eq!(prepared.mac(msg).to_vec(), tag);
                // The prepared key is not used up by a tag.
                assert_eq!(prepared.mac(msg).to_vec(), tag);
                let mut pieces = HmacSha256::new(&key);
                let (a, b) = msg.split_at(msg.len() / 2);
                pieces.update(a);
                pieces.update(b);
                assert_eq!(pieces.finalize().to_vec(), tag);
            }
        });
    }

    /// RFC 2104 as written — H((K' ^ opad) || H((K' ^ ipad) || m)) over
    /// concatenated bytes — so the midstate shortcut has something other
    /// than itself to equal.
    fn reference_hmac(key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut block_key = if key.len() > 64 { sha256(key).to_vec() } else { key.to_vec() };
        block_key.resize(64, 0);
        let pad = |p: u8| block_key.iter().map(|b| b ^ p).collect::<Vec<u8>>();
        let inner = sha256(&[pad(0x36), msg.to_vec()].concat());
        sha256(&[pad(0x5c), inner.to_vec()].concat())
    }

    // Key lengths around the block size (zero-padded below it, hashed
    // above it) and message lengths around the padding boundaries.
    #[test]
    fn prepared_key_equals_the_definition_at_the_boundaries() {
        on_each_backend(|| {
            for key_len in [0usize, 1, 63, 64, 65, 131] {
                let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 1) as u8).collect();
                let prepared = HmacKey::new(&key);
                for msg_len in [0usize, 1, 55, 56, 64, 119, 1400] {
                    let msg: Vec<u8> = (0..msg_len).map(|i| (i % 253) as u8).collect();
                    let expect = reference_hmac(&key, &msg);
                    assert_eq!(prepared.mac(&msg), expect, "key {key_len}, message {msg_len}");
                    assert_eq!(hmac_sha256(&key, &msg), expect, "key {key_len}, message {msg_len}");
                }
            }
        });
    }

    /// HKDF (extract, then expand into a buffer), as the protocols run it.
    fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
        let mut out = vec![0u8; out_len];
        hkdf_expand_into(&hkdf_extract(salt, ikm), info, &mut out);
        out
    }

    // RFC 5869 test cases 1 and 3 (empty salt and info), on both kernels.
    #[test]
    fn rfc5869_cases_1_3() {
        on_each_backend(|| {
            let okm = hkdf(
                &hex("000102030405060708090a0b0c"),
                &[0x0b; 22],
                &hex("f0f1f2f3f4f5f6f7f8f9"),
                42,
            );
            assert_eq!(
                okm,
                hex("3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")
            );
            let okm = hkdf(&[], &[0x0b; 22], &[], 42);
            assert_eq!(
                okm,
                hex("8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")
            );
        });
    }

    #[test]
    fn hkdf_expand_into_fills_any_length_up_to_the_limit() {
        let prk = hkdf_extract(b"salt", b"input keying material");
        let mut longest = vec![0u8; 255 * 32];
        hkdf_expand_into(&prk, b"info", &mut longest);
        for len in [0usize, 1, 31, 32, 33, 160] {
            let mut out = vec![0u8; len];
            hkdf_expand_into(&prk, b"info", &mut out);
            // A shorter output is a prefix of a longer one.
            assert_eq!(out, longest[..len]);
        }
    }

    #[test]
    #[should_panic(expected = "RFC 5869 limit")]
    fn hkdf_expand_refuses_more_than_the_limit() {
        hkdf_expand_into(&[0; 32], b"", &mut [0; 255 * 32 + 1]);
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn bytes_to_key_is_deterministic_and_sized() {
        let k1 = bytes_to_key(b"barfoo!", 32);
        let k2 = bytes_to_key(b"barfoo!", 32);
        assert_eq!(k1, k2);
        assert_eq!(k1.len(), 32);
        let k3 = bytes_to_key(b"other", 32);
        assert_ne!(k1, k3);
        assert_eq!(bytes_to_key(b"x", 48).len(), 48);
    }
}
