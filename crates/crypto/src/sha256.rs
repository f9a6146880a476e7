//! SHA-256 (FIPS 180-4), used for key derivation, HMAC, and the simulated
//! TLS handshake transcript hash.
//!
//! The compression function has two kernels behind one entry point,
//! `compress_blocks`: the portable rounds below, and on x86_64 a SHA-NI
//! one (`mod x86`) that keeps the state in two registers across every block
//! of a span. Which one runs is decided from what the CPU reports
//! (`is_x86_feature_detected!`), never by a caller: the two produce the
//! same bytes, so there is nothing to choose. The portable kernel is the
//! fallback on every other CPU and the oracle the hardware one is tested
//! against.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
    0x5be0cd19,
];

/// The kernel [`Sha256`] runs on this CPU: `"sha-ni"` or
/// `"portable"`. For logs and bench labels; nothing selects on it.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        return "sha-ni";
    }
    "portable"
}

/// Folds `data`, a whole number of 64-byte blocks, into `state`.
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if !crate::portable_forced() && x86::compress_blocks(state, data) {
        return;
    }
    compress_blocks_portable(state, data);
}

/// The FIPS 180-4 rounds on `u32`s: the kernel for CPUs without SHA
/// extensions, and the oracle for the one with them.
fn compress_blocks_portable(state: &mut [u32; 8], data: &[u8]) {
    for block in data.chunks_exact(64) {
        // The message schedule as a rolling window: w[t % 16] holds W[t]
        // once round t has been reached, W[t - 16] before.
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        // One round with the working variables renamed instead of moved:
        // only `d` and `h` change, and the caller rotates the names.
        macro_rules! round {
            ($a:ident $b:ident $c:ident $d:ident $e:ident $f:ident $g:ident $h:ident, $kw:expr) => {
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = ($e & $f) ^ (!$e & $g);
                let temp1 = $h.wrapping_add(s1).wrapping_add(ch).wrapping_add($kw);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
                $d = $d.wrapping_add(temp1);
                $h = temp1.wrapping_add(s0.wrapping_add(maj));
            };
        }
        for (group, k) in K.chunks_exact(8).enumerate() {
            // Rounds 8*group .. 8*group + 8 read the window half `base..`.
            let base = 8 * (group % 2);
            if group >= 2 {
                for i in base..base + 8 {
                    let w15 = w[(i + 1) % 16];
                    let w2 = w[(i + 14) % 16];
                    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                    w[i] = w[i]
                        .wrapping_add(s0)
                        .wrapping_add(w[(i + 9) % 16])
                        .wrapping_add(s1);
                }
            }
            let mut kw = [0u32; 8];
            for ((kw, k), w) in kw.iter_mut().zip(k).zip(&w[base..base + 8]) {
                *kw = k.wrapping_add(*w);
            }
            round!(a b c d e f g h, kw[0]);
            round!(h a b c d e f g, kw[1]);
            round!(g h a b c d e f, kw[2]);
            round!(f g h a b c d e, kw[3]);
            round!(e f g h a b c d, kw[4]);
            round!(d e f g h a b c, kw[5]);
            round!(c d e f g h a b, kw[6]);
            round!(b c d e f g h a, kw[7]);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernel. All the `unsafe` in this file is in here: the
/// unaligned loads and stores, and the one call into code compiled for
/// features the build target does not assume, behind the check that the
/// CPU has them. What the module offers the rest of the file is safe.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use core::arch::x86_64::*;

    /// Whether this CPU has every feature [`kernel`] is compiled for
    /// (std caches the CPUID probe; this is a load and a mask).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Folds `data`, a whole number of 64-byte blocks, into `state` if
    /// this CPU can; says whether it did.
    pub(super) fn compress_blocks(state: &mut [u32; 8], data: &[u8]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` has just reported every CPU feature
        // `kernel` is compiled for.
        unsafe { kernel(state, data) };
        true
    }

    /// `sha256rnds2` works on the state as (ABEF, CDGH); these convert
    /// from and to the (ABCD, EFGH) order of the digest words.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn to_rounds_order(abcd: __m128i, efgh: __m128i) -> (__m128i, __m128i) {
        let cdab = _mm_shuffle_epi32::<0xB1>(abcd);
        let efgh = _mm_shuffle_epi32::<0x1B>(efgh);
        (_mm_alignr_epi8::<8>(cdab, efgh), _mm_blend_epi16::<0xF0>(efgh, cdab))
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn to_digest_order(abef: __m128i, cdgh: __m128i) -> (__m128i, __m128i) {
        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        (_mm_blend_epi16::<0xF0>(feba, dchg), _mm_alignr_epi8::<8>(dchg, feba))
    }

    /// [`compress_blocks`] proper: `state` stays in two registers from
    /// the first block to the last.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn kernel(state: &mut [u32; 8], data: &[u8]) {
        // Big-endian message words to little-endian lanes.
        let be = _mm_set_epi64x(0x0c0d0e0f_08090a0b, 0x04050607_00010203);
        // SAFETY: `state` is 32 readable bytes; `loadu` needs no alignment.
        let (abcd, efgh) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let (mut s0, mut s1) = to_rounds_order(abcd, efgh);

        for block in data.chunks_exact(64) {
            let (save0, save1) = (s0, s1);
            // Four schedule vectors W[4i..4i+4], rolling.
            let mut w = [_mm_setzero_si128(); 4];
            for i in 0..16 {
                let wi = if i < 4 {
                    // SAFETY: `block` is 64 bytes, so bytes 16*i..16*i+16
                    // are in bounds for i < 4; `loadu` needs no alignment.
                    let raw = unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>().add(i)) };
                    _mm_shuffle_epi8(raw, be)
                } else {
                    // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16],
                    // four at a time: msg1 does the σ0 half over the
                    // vector 4 back (same slot as `i`), msg2 the σ1 half.
                    let (w4, w3, w2, w1) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8::<4>(w1, w2));
                    _mm_sha256msg2_epu32(t, w1)
                };
                w[i % 4] = wi;
                // SAFETY: `K` is 64 words, so words 4*i..4*i+4 are in
                // bounds for i < 16; `loadu` needs no alignment.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().cast::<__m128i>().add(i)) };
                let kw = _mm_add_epi32(wi, k);
                s1 = _mm_sha256rnds2_epu32(s1, s0, kw);
                s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32::<0x0E>(kw));
            }
            s0 = _mm_add_epi32(s0, save0);
            s1 = _mm_add_epi32(s1, save1);
        }

        let (abcd, efgh) = to_digest_order(s0, s1);
        // SAFETY: `state` is 32 writable bytes; `storeu` needs no alignment.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, abcd);
            _mm_storeu_si128(p.add(1), efgh);
        }
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use sc_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sc_crypto::sha256::sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::from_midstate(H0, 0)
    }

    /// A hasher that has already absorbed `blocks` whole blocks, which
    /// left it in `state` (how [`crate::hmac::HmacKey`] resumes from its
    /// padded key).
    pub(crate) fn from_midstate(state: [u32; 8], blocks: u64) -> Self {
        Self {
            state,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 64 * blocks,
        }
    }

    /// The chaining value after the whole blocks fed so far.
    pub(crate) fn midstate(&self) -> [u32; 8] {
        debug_assert_eq!(self.buffer_len, 0, "midstate taken inside a block");
        self.state
    }

    /// Feeds `data` into the hash: one kernel call per span of whole
    /// blocks.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros to 56 mod 64, then the bit length. The
        // buffer is never full between calls, so the 0x80 always fits;
        // the length may need a block of its own.
        let bit_len = self.total_len.wrapping_mul(8);
        let mut pad = [0u8; 128];
        pad[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        pad[self.buffer_len] = 0x80;
        let padded = if self.buffer_len < 56 { 64 } else { 128 };
        pad[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &pad[..padded]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::on_each_backend;
    use proptest::prelude::*;

    fn hex32(s: &str) -> [u8; 32] {
        let v: Vec<u8> = (0..64)
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    // FIPS 180-4 / NIST example vectors, on both kernels.
    #[test]
    fn short_message_vectors() {
        on_each_backend(|| {
            for (msg, digest) in [
                (&b""[..], "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
                (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
                (
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                ),
            ] {
                assert_eq!(sha256(msg), hex32(digest), "{} bytes", msg.len());
            }
        });
    }

    // Lengths on either side of the padding boundaries: 55 is the longest
    // message whose padding fits one block, 56..=63 spill the length into
    // a second one, and 119/120 repeat that one block later.
    #[test]
    fn padding_boundaries() {
        on_each_backend(|| {
            for (len, digest) in [
                (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
                (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
                (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"),
                (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"),
                (119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"),
                (120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"),
            ] {
                assert_eq!(sha256(&vec![b'a'; len]), hex32(digest), "{len} bytes of 'a'");
            }
        });
    }

    // FIPS 180-4 long-message vector.
    #[test]
    fn million_a() {
        on_each_backend(|| {
            let mut h = Sha256::new();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                h.finalize(),
                hex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
            );
        });
    }

    #[test]
    fn incremental_equals_oneshot_for_odd_splits() {
        on_each_backend(|| {
            let data: Vec<u8> = (0..300u16).map(|i| (i % 256) as u8).collect();
            for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200, 299, 300] {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), sha256(&data), "split at {split}");
            }
        });
    }

    /// The SHA-NI kernel by name; `false` (and one line saying so) on a
    /// CPU without it.
    fn sha_ni(state: &mut [u32; 8], data: &[u8]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if x86::compress_blocks(state, data) {
            return true;
        }
        crate::testing::note_skipped("sha_ni");
        false
    }

    #[test]
    fn kernels_agree_on_a_run_of_blocks_from_any_state() {
        let data: Vec<u8> = (0..64 * 9).map(|i| (i * 131 % 251) as u8).collect();
        for blocks in 0..=9 {
            let mut portable = H0;
            // A state that is not the initial one either.
            portable[3] ^= blocks as u32;
            let mut hardware = portable;
            compress_blocks_portable(&mut portable, &data[..64 * blocks]);
            if !sha_ni(&mut hardware, &data[..64 * blocks]) {
                return;
            }
            assert_eq!(hardware, portable, "{blocks} blocks");
        }
    }

    proptest! {
        /// Any message of up to 1 KiB, fed in any pieces, hashes to the
        /// same digest on the portable kernel and on the dispatched one,
        /// and to the one-shot digest.
        #[test]
        fn backends_agree_under_arbitrary_chunking(
            data in prop::collection::vec(any::<u8>(), 0..=1024),
            lens in prop::collection::vec(0usize..150, 1..8),
        ) {
            prop_assume!(lens.iter().any(|&l| l > 0));
            let digests = std::cell::RefCell::new(Vec::new());
            on_each_backend(|| {
                let mut h = Sha256::new();
                let mut rest = &data[..];
                for &len in lens.iter().cycle() {
                    if rest.is_empty() {
                        break;
                    }
                    let (piece, tail) = rest.split_at(len.min(rest.len()));
                    h.update(piece);
                    rest = tail;
                }
                digests.borrow_mut().push((h.finalize(), sha256(&data)));
            });
            let digests = digests.into_inner();
            prop_assert_eq!(digests[0].0, digests[0].1, "portable: chunked vs one-shot");
            prop_assert_eq!(digests[1].0, digests[1].1, "dispatched: chunked vs one-shot");
            prop_assert_eq!(digests[0].0, digests[1].0, "portable vs dispatched");
        }
    }
}
