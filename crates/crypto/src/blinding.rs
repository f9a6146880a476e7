//! Message blinding codecs — the core trick of ScholarCloud (§3 of the
//! paper): re-encode already-encrypted bytes with a *confidential* scheme so
//! the GFW's protocol classifiers do not recognize the traffic.
//!
//! The paper notes that "even a simple but non-public algorithm like byte
//! mapping (f: [0,2^8) → [0,2^8))" suffices. We implement that byte-map
//! scheme plus two alternates, and a rotation mechanism so the operator can
//! switch schemes when the censor adapts (the paper's agility argument).

use std::rc::Rc;

use crate::sha256::{sha256, Sha256};

/// A reversible byte-stream transform applied between the domestic and
/// remote proxies.
///
/// Implementations must satisfy `decode(encode(x)) == x` for any position
/// in the stream; the codec may be stateful (position-dependent).
pub trait Blinder: Send + core::fmt::Debug {
    /// Stable identifier of the scheme, carried in the ScholarCloud frame
    /// header so both proxies agree on the codec.
    fn scheme(&self) -> BlindingScheme;

    /// Encodes `data` in place. `stream_pos` is the byte offset of
    /// `data[0]` within the logical stream, so stateless implementations
    /// can still be position-keyed.
    fn encode(&self, data: &mut [u8], stream_pos: u64);

    /// Decodes `data` in place (inverse of [`Blinder::encode`]).
    fn decode(&self, data: &mut [u8], stream_pos: u64);
}

/// Identifier for the available blinding schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlindingScheme {
    /// No blinding (ablation baseline — ciphertext goes out as-is).
    Identity,
    /// Secret byte permutation `f: [0,256) -> [0,256)` (the paper's example).
    ByteMap,
    /// Position-keyed rolling XOR with a keyed byte stream.
    XorRolling,
    /// Nibble swap composed with a keyed XOR — a cheap format mangler.
    NibbleSwap,
}

impl BlindingScheme {
    /// Wire identifier byte.
    pub fn wire_id(self) -> u8 {
        match self {
            BlindingScheme::Identity => 0,
            BlindingScheme::ByteMap => 1,
            BlindingScheme::XorRolling => 2,
            BlindingScheme::NibbleSwap => 3,
        }
    }

    /// Parses a wire identifier byte.
    pub fn from_wire_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(BlindingScheme::Identity),
            1 => Some(BlindingScheme::ByteMap),
            2 => Some(BlindingScheme::XorRolling),
            3 => Some(BlindingScheme::NibbleSwap),
            _ => None,
        }
    }

    /// Constructs the codec for this scheme from a shared secret key, in
    /// the one allocation both directions of a tunnel end share (a codec
    /// keeps no state).
    pub fn instantiate(self, key: &[u8]) -> Rc<dyn Blinder> {
        match self {
            BlindingScheme::Identity => Rc::new(Identity),
            BlindingScheme::ByteMap => Rc::new(ByteMap::from_key(key)),
            BlindingScheme::XorRolling => Rc::new(XorRolling::from_key(key)),
            BlindingScheme::NibbleSwap => Rc::new(NibbleSwap::from_key(key)),
        }
    }

    /// All rotatable schemes, in rotation order (Identity excluded — it is
    /// only an ablation baseline, never deployed).
    pub fn rotation() -> [BlindingScheme; 3] {
        [
            BlindingScheme::ByteMap,
            BlindingScheme::XorRolling,
            BlindingScheme::NibbleSwap,
        ]
    }
}

/// The no-op codec (ablation baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Blinder for Identity {
    fn scheme(&self) -> BlindingScheme {
        BlindingScheme::Identity
    }
    fn encode(&self, _data: &mut [u8], _stream_pos: u64) {}
    fn decode(&self, _data: &mut [u8], _stream_pos: u64) {}
}

/// The paper's byte-mapping scheme: a secret permutation of byte values,
/// derived from a shared key via a keyed Fisher–Yates shuffle.
#[derive(Clone)]
pub struct ByteMap {
    forward: [u8; 256],
    inverse: [u8; 256],
}

impl core::fmt::Debug for ByteMap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ByteMap").finish_non_exhaustive()
    }
}

/// A tiny deterministic PRNG (xorshift64*) used only to derive permutations
/// from keys; not exposed publicly.
struct KeyRng(u64);

impl KeyRng {
    /// Seeded from `sha256(domain ‖ key)`, hashed as it is read.
    fn from_key(key: &[u8], domain: &[u8]) -> Self {
        let mut material = Sha256::new();
        material.update(domain);
        material.update(key);
        let digest = material.finalize();
        let seed = u64::from_be_bytes(digest[..8].try_into().unwrap());
        KeyRng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

impl ByteMap {
    /// Derives the secret permutation from a shared key.
    pub fn from_key(key: &[u8]) -> Self {
        let mut rng = KeyRng::from_key(key, b"scholarcloud-bytemap-v1");
        let mut forward = [0u8; 256];
        for (i, f) in forward.iter_mut().enumerate() {
            *f = i as u8;
        }
        // Fisher–Yates keyed shuffle.
        for i in (1..256usize).rev() {
            let j = rng.below((i + 1) as u64) as usize;
            forward.swap(i, j);
        }
        let mut inverse = [0u8; 256];
        for (i, &f) in forward.iter().enumerate() {
            inverse[f as usize] = i as u8;
        }
        Self { forward, inverse }
    }
}

impl Blinder for ByteMap {
    fn scheme(&self) -> BlindingScheme {
        BlindingScheme::ByteMap
    }

    fn encode(&self, data: &mut [u8], _stream_pos: u64) {
        for b in data.iter_mut() {
            *b = self.forward[*b as usize];
        }
    }

    fn decode(&self, data: &mut [u8], _stream_pos: u64) {
        for b in data.iter_mut() {
            *b = self.inverse[*b as usize];
        }
    }
}

/// Rolling XOR: each byte is XORed with a keyed pad indexed by absolute
/// stream position, so the transform is self-synchronizing given the offset.
#[derive(Clone)]
pub struct XorRolling {
    pad: [u8; 1024],
}

impl core::fmt::Debug for XorRolling {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("XorRolling").finish_non_exhaustive()
    }
}

impl XorRolling {
    /// Derives the XOR pad from a shared key.
    pub fn from_key(key: &[u8]) -> Self {
        let mut rng = KeyRng::from_key(key, b"scholarcloud-xorroll-v1");
        let mut pad = [0u8; 1024];
        for chunk in pad.chunks_mut(8) {
            let w = rng.next().to_be_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&w[..n]);
        }
        Self { pad }
    }

    fn apply(&self, data: &mut [u8], stream_pos: u64) {
        for (i, b) in data.iter_mut().enumerate() {
            let pos = (stream_pos + i as u64) as usize % self.pad.len();
            // Mix in the position so repeated plaintext does not produce
            // repeated ciphertext at pad-period distance.
            let tweak = ((stream_pos + i as u64) / self.pad.len() as u64) as u8;
            *b ^= self.pad[pos] ^ tweak.wrapping_mul(0x9d);
        }
    }
}

impl Blinder for XorRolling {
    fn scheme(&self) -> BlindingScheme {
        BlindingScheme::XorRolling
    }

    fn encode(&self, data: &mut [u8], stream_pos: u64) {
        self.apply(data, stream_pos);
    }

    fn decode(&self, data: &mut [u8], stream_pos: u64) {
        self.apply(data, stream_pos);
    }
}

/// Nibble swap + keyed XOR. Cheap, and changes the byte-value histogram
/// shape that naive DPI fingerprints key on.
#[derive(Clone)]
pub struct NibbleSwap {
    key_byte: u8,
}

impl core::fmt::Debug for NibbleSwap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NibbleSwap").finish_non_exhaustive()
    }
}

impl NibbleSwap {
    /// Derives the keyed XOR byte from a shared key.
    pub fn from_key(key: &[u8]) -> Self {
        let digest = sha256(key);
        Self {
            key_byte: digest[0] | 1, // never zero
        }
    }
}

impl Blinder for NibbleSwap {
    fn scheme(&self) -> BlindingScheme {
        BlindingScheme::NibbleSwap
    }

    fn encode(&self, data: &mut [u8], stream_pos: u64) {
        for (i, b) in data.iter_mut().enumerate() {
            let x = *b ^ self.key_byte ^ ((stream_pos + i as u64) as u8);
            *b = x.rotate_left(4);
        }
    }

    fn decode(&self, data: &mut [u8], stream_pos: u64) {
        for (i, b) in data.iter_mut().enumerate() {
            let x = b.rotate_right(4);
            *b = x ^ self.key_byte ^ ((stream_pos + i as u64) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(scheme: BlindingScheme) {
        let codec = scheme.instantiate(b"shared secret");
        let plain: Vec<u8> = (0..2048u32).map(|i| (i * 31 % 256) as u8).collect();
        let mut data = plain.clone();
        // Encode in two chunks at different stream positions.
        codec.encode(&mut data[..1000], 0);
        codec.encode(&mut data[1000..], 1000);
        if scheme != BlindingScheme::Identity {
            assert_ne!(data, plain, "{scheme:?} must change the bytes");
        }
        codec.decode(&mut data[..500], 0);
        codec.decode(&mut data[500..], 500);
        assert_eq!(data, plain, "{scheme:?} roundtrip");
    }

    #[test]
    fn all_schemes_roundtrip() {
        for scheme in [
            BlindingScheme::Identity,
            BlindingScheme::ByteMap,
            BlindingScheme::XorRolling,
            BlindingScheme::NibbleSwap,
        ] {
            roundtrip(scheme);
        }
    }

    #[test]
    fn wire_ids_roundtrip() {
        for scheme in [
            BlindingScheme::Identity,
            BlindingScheme::ByteMap,
            BlindingScheme::XorRolling,
            BlindingScheme::NibbleSwap,
        ] {
            assert_eq!(BlindingScheme::from_wire_id(scheme.wire_id()), Some(scheme));
        }
        assert_eq!(BlindingScheme::from_wire_id(200), None);
    }

    #[test]
    fn bytemap_is_a_permutation() {
        let map = ByteMap::from_key(b"k");
        let mut seen = [false; 256];
        for b in 0u8..=255 {
            let mut x = [b];
            map.encode(&mut x, 0);
            assert!(!seen[x[0] as usize], "duplicate output {:#x}", x[0]);
            seen[x[0] as usize] = true;
        }
    }

    #[test]
    fn different_keys_give_different_maps() {
        let a = ByteMap::from_key(b"key-a");
        let b = ByteMap::from_key(b"key-b");
        let mut xa = *b"some sample data";
        let mut xb = *b"some sample data";
        a.encode(&mut xa, 0);
        b.encode(&mut xb, 0);
        assert_ne!(xa, xb);
    }

    #[test]
    fn xor_rolling_differs_beyond_pad_period() {
        let codec = XorRolling::from_key(b"k");
        let mut first = vec![0u8; 16];
        let mut later = vec![0u8; 16];
        codec.encode(&mut first, 0);
        codec.encode(&mut later, 1024); // same pad offset, different period
        assert_ne!(first, later);
    }

    #[test]
    fn rotation_excludes_identity() {
        assert!(!BlindingScheme::rotation().contains(&BlindingScheme::Identity));
    }
}
