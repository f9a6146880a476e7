//! AES block cipher (FIPS-197), implemented from scratch for the
//! reproduction so that Shadowsocks' AES-256-CFB wire format is real.
//!
//! Encryption has two kernels behind [`Aes::encrypt_block`] (and the
//! run-of-blocks form the modes use): on x86_64 with AES-NI, `aesenc`
//! with up to eight independent blocks in flight; everywhere else the
//! standard four-table ("T-table") round on `u32` columns, with the
//! tables derived from the S-box at compile time. Which one runs is
//! decided from what the CPU reports, never by a caller, and both read
//! the one key schedule — big-endian column words in a fixed array — so
//! an [`Aes`] is the same size whichever kernel it feeds (the AES-NI
//! kernel byte-swaps each round key as it loads it).
//!
//! Decryption is the byte-wise inverse straight from the specification:
//! CFB and CTR only ever run the cipher forwards, so nothing on the data
//! path decrypts a block. The portable kernel is *not* hardened against
//! timing side channels (its table lookups are indexed by secret state);
//! the AES-NI one has no secret-dependent lookups. Either way the
//! simulator's threat model is a classifier looking at ciphertext bytes,
//! not a co-resident attacker.

/// The AES S-box.
pub(crate) const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16,
];

/// The inverse AES S-box.
pub(crate) const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7,
    0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde,
    0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42,
    0xfa, 0xc3, 0x4e, 0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c,
    0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15,
    0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84, 0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7,
    0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc,
    0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73, 0x96, 0xac, 0x74, 0x22, 0xe7, 0xad,
    0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d,
    0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4, 0x1f, 0xdd, 0xa8,
    0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f, 0x60, 0x51,
    0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0,
    0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c,
    0x7d,
];

const RCON: [u8; 11] = [0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Most rounds any key size needs (AES-256); the schedule is sized for it.
const MAX_ROUNDS: usize = 14;

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ ((b >> 7) * 0x1b)
}

/// SubBytes and MixColumns for one input byte: the column
/// `(2·S[x], S[x], S[x], 3·S[x])` as a big-endian word, rotated right by
/// `8 * row` so that table `row` serves the byte ShiftRows takes from
/// that row.
const fn te_table(row: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        table[x] = u32::from_be_bytes([s2, s, s, s2 ^ s]).rotate_right(8 * row);
        x += 1;
    }
    table
}

static TE0: [u32; 256] = te_table(0);
static TE1: [u32; 256] = te_table(1);
static TE2: [u32; 256] = te_table(2);
static TE3: [u32; 256] = te_table(3);

/// One output column of a full round: rows 0..=3 taken from the four
/// columns ShiftRows draws them from.
fn te(c0: u32, c1: u32, c2: u32, c3: u32) -> u32 {
    TE0[(c0 >> 24) as usize]
        ^ TE1[(c1 >> 16) as u8 as usize]
        ^ TE2[(c2 >> 8) as u8 as usize]
        ^ TE3[c3 as u8 as usize]
}

/// One output column of the last round: SubBytes and ShiftRows only.
fn sub_shifted(c0: u32, c1: u32, c2: u32, c3: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[(c0 >> 24) as usize],
        SBOX[(c1 >> 16) as u8 as usize],
        SBOX[(c2 >> 8) as u8 as usize],
        SBOX[c3 as u8 as usize],
    ])
}

/// SubBytes on each byte of a word.
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// AES key size, selecting the 128-, 192-, or 256-bit variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySize {
    /// AES-128 (10 rounds).
    Aes128,
    /// AES-192 (12 rounds).
    Aes192,
    /// AES-256 (14 rounds).
    Aes256,
}

impl KeySize {
    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            KeySize::Aes128 => 16,
            KeySize::Aes192 => 24,
            KeySize::Aes256 => 32,
        }
    }

    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    fn nk(self) -> usize {
        self.key_len() / 4
    }
}

/// Error returned when constructing a cipher from a key of the wrong length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidKeyLength {
    /// The length that was supplied.
    pub got: usize,
    /// The length that was required.
    pub expected: usize,
}

impl core::fmt::Display for InvalidKeyLength {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "invalid AES key length: got {} bytes, expected {}",
            self.got, self.expected
        )
    }
}

impl std::error::Error for InvalidKeyLength {}

/// An expanded AES key, usable for block encryption and decryption.
///
/// # Examples
///
/// ```
/// use sc_crypto::aes::{Aes, KeySize};
///
/// let key = [0u8; 32];
/// let aes = Aes::new(KeySize::Aes256, &key).unwrap();
/// let mut block = *b"sixteen byte blk";
/// let orig = block;
/// aes.encrypt_block(&mut block);
/// assert_ne!(block, orig);
/// aes.decrypt_block(&mut block);
/// assert_eq!(block, orig);
/// ```
#[derive(Clone)]
pub struct Aes {
    /// One row of four big-endian column words per round key; rows past
    /// `size.rounds()` are unused.
    round_keys: [[u32; 4]; MAX_ROUNDS + 1],
    size: KeySize,
}

impl core::fmt::Debug for Aes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Aes").field("size", &self.size).finish()
    }
}

/// GF(2^8) multiplication.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

impl Aes {
    /// Expands `key` into round keys.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidKeyLength`] if `key.len()` does not match `size`.
    pub fn new(size: KeySize, key: &[u8]) -> Result<Self, InvalidKeyLength> {
        if key.len() != size.key_len() {
            return Err(InvalidKeyLength {
                got: key.len(),
                expected: size.key_len(),
            });
        }
        let nk = size.nk();
        let mut round_keys = [[0u32; 4]; MAX_ROUNDS + 1];
        let w = &mut round_keys.as_flattened_mut()[..4 * (size.rounds() + 1)];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        for i in nk..w.len() {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / nk]) << 24);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        Ok(Self { round_keys, size })
    }

    fn add_round_key(&self, state: &mut [u8; 16], round: usize) {
        for (bytes, word) in state.chunks_exact_mut(4).zip(self.round_keys[round]) {
            for (s, k) in bytes.iter_mut().zip(word.to_be_bytes()) {
                *s ^= k;
            }
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for s in state.iter_mut() {
            *s = INV_SBOX[*s as usize];
        }
    }

    // State layout: state[4*c + r] = byte at row r, column c (column-major,
    // matching the FIPS-197 byte order of the input block).
    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * ((c + r) % 4) + r] = s[4 * c + r];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] =
                gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
            state[4 * c + 1] =
                gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
            state[4 * c + 2] =
                gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
            state[4 * c + 3] =
                gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
        }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.encrypt_blocks(core::slice::from_mut(block));
    }

    /// Encrypts every block of `blocks` in place, each on its own (ECB):
    /// what CTR and CFB-decrypt need for a run of keystream blocks, and
    /// what lets the AES-NI kernel overlap [`PARALLEL_BLOCKS`] of them.
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        if !crate::portable_forced()
            && x86::encrypt_blocks(&self.round_keys, self.size.rounds(), blocks)
        {
            return;
        }
        for block in blocks {
            self.encrypt_block_portable(block);
        }
    }

    /// The T-table kernel: the one for CPUs without AES instructions,
    /// and the oracle for the one with them.
    pub(crate) fn encrypt_block_portable(&self, block: &mut [u8; 16]) {
        let nr = self.size.rounds();
        let mut s = self.round_keys[0];
        for (col, bytes) in s.iter_mut().zip(block.chunks_exact(4)) {
            *col ^= u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        let [mut s0, mut s1, mut s2, mut s3] = s;
        // Column c of the next state takes row r from column c + r
        // (ShiftRows); the table lookup does SubBytes and MixColumns.
        for rk in &self.round_keys[1..nr] {
            let t0 = te(s0, s1, s2, s3) ^ rk[0];
            let t1 = te(s1, s2, s3, s0) ^ rk[1];
            let t2 = te(s2, s3, s0, s1) ^ rk[2];
            let t3 = te(s3, s0, s1, s2) ^ rk[3];
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }
        // The last round has no MixColumns.
        let rk = &self.round_keys[nr];
        let out = [
            sub_shifted(s0, s1, s2, s3) ^ rk[0],
            sub_shifted(s1, s2, s3, s0) ^ rk[1],
            sub_shifted(s2, s3, s0, s1) ^ rk[2],
            sub_shifted(s3, s0, s1, s2) ^ rk[3],
        ];
        for (bytes, word) in block.chunks_exact_mut(4).zip(out) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.size.rounds();
        self.add_round_key(block, nr);
        for r in (1..nr).rev() {
            Self::inv_shift_rows(block);
            Self::inv_sub_bytes(block);
            self.add_round_key(block, r);
            Self::inv_mix_columns(block);
        }
        Self::inv_shift_rows(block);
        Self::inv_sub_bytes(block);
        self.add_round_key(block, 0);
    }
}

/// How many independent blocks `Aes::encrypt_blocks` overlaps on
/// AES-NI (`aesenc` has a latency of several cycles and a throughput of
/// one or two per cycle); the modes hand it runs of a few times this
/// many.
pub(crate) const PARALLEL_BLOCKS: usize = 8;

/// The kernel [`Aes::encrypt_block`] runs on this CPU: `"aes-ni"` or
/// `"portable"`. For logs and bench labels; nothing selects on it.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if x86::available() {
        return "aes-ni";
    }
    "portable"
}

/// The AES-NI kernel. All the `unsafe` in this file is in here: the
/// unaligned loads and stores, and the one call into code compiled for
/// features the build target does not assume, behind the check that the
/// CPU has them. What the module offers the rest of the file is safe.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MAX_ROUNDS, PARALLEL_BLOCKS};
    use core::arch::x86_64::*;

    /// Whether this CPU has every feature [`kernel`] is compiled for
    /// (std caches the CPUID probe; this is a load and a mask).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("aes") && is_x86_feature_detected!("ssse3")
    }

    /// Encrypts every block of `blocks` in place if this CPU can; says
    /// whether it did. `round_keys` is the schedule as `Aes` holds it:
    /// big-endian column words, `rounds + 1` rows used.
    pub(super) fn encrypt_blocks(
        round_keys: &[[u32; 4]; MAX_ROUNDS + 1],
        rounds: usize,
        blocks: &mut [[u8; 16]],
    ) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` has just reported every CPU feature
        // `kernel` is compiled for.
        unsafe { kernel(round_keys, rounds, blocks) };
        true
    }

    #[target_feature(enable = "aes,sse2,ssse3")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes; `loadu` needs no alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    #[target_feature(enable = "aes,sse2,ssse3")]
    fn store(block: &mut [u8; 16], v: __m128i) {
        // SAFETY: `block` is 16 writable bytes; `storeu` needs no alignment.
        unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), v) }
    }

    /// [`encrypt_blocks`] proper, [`PARALLEL_BLOCKS`] at a time while
    /// that many are left.
    #[target_feature(enable = "aes,sse2,ssse3")]
    fn kernel(round_keys: &[[u32; 4]; MAX_ROUNDS + 1], rounds: usize, blocks: &mut [[u8; 16]]) {
        // `aesenc` takes a round key as the 16 key-schedule bytes in
        // order; a big-endian word held as a native `u32` has its four
        // reversed.
        let swap = _mm_set_epi64x(0x0c0d0e0f_08090a0b, 0x04050607_00010203);
        let mut keys = [_mm_setzero_si128(); MAX_ROUNDS + 1];
        for (key, words) in keys.iter_mut().zip(&round_keys[..=rounds]) {
            let [w0, w1, w2, w3] = words.map(|w| w as i32);
            *key = _mm_shuffle_epi8(_mm_set_epi32(w3, w2, w1, w0), swap);
        }
        let (first, middle, last) = (keys[0], &keys[1..rounds], keys[rounds]);

        let (wide, narrow) = blocks.as_chunks_mut::<PARALLEL_BLOCKS>();
        for run in wide {
            let mut s = run.each_ref().map(|b| _mm_xor_si128(load(b), first));
            for &key in middle {
                s = s.map(|s| _mm_aesenc_si128(s, key));
            }
            for (block, s) in run.iter_mut().zip(s) {
                store(block, _mm_aesenclast_si128(s, last));
            }
        }
        for block in narrow {
            let mut s = _mm_xor_si128(load(block), first);
            for &key in middle {
                s = _mm_aesenc_si128(s, key);
            }
            store(block, _mm_aesenclast_si128(s, last));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::on_each_backend;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The FIPS-197 §5.1 cipher transcribed step by step (SubBytes,
    /// ShiftRows, MixColumns, AddRoundKey on a byte state): the reference
    /// the table-driven `encrypt_block` must equal.
    fn reference_encrypt_block(aes: &Aes, block: &mut [u8; 16]) {
        fn sub_bytes(state: &mut [u8; 16]) {
            for s in state.iter_mut() {
                *s = SBOX[*s as usize];
            }
        }
        fn shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[4 * c + r] = s[4 * ((c + r) % 4) + r];
                }
            }
        }
        fn mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
                state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
                state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
                state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
                state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
            }
        }
        let nr = aes.size.rounds();
        aes.add_round_key(block, 0);
        for r in 1..nr {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            aes.add_round_key(block, r);
        }
        sub_bytes(block);
        shift_rows(block);
        aes.add_round_key(block, nr);
    }

    const SIZES: [KeySize; 3] = [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256];

    /// The AES-NI kernel by name; `false` (and one line saying so) on a
    /// CPU without it.
    fn aes_ni(aes: &Aes, blocks: &mut [[u8; 16]]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if x86::encrypt_blocks(&aes.round_keys, aes.size.rounds(), blocks) {
            return true;
        }
        crate::testing::note_skipped("aes");
        false
    }

    proptest! {
        /// The T-table kernel equals the byte-wise reference for every key
        /// size, key and block, and so does the AES-NI one where there is
        /// one.
        #[test]
        fn kernels_equal_reference(
            size_id in 0usize..3,
            key_bytes: [u8; 32],
            block: [u8; 16],
        ) {
            let size = SIZES[size_id];
            let aes = Aes::new(size, &key_bytes[..size.key_len()]).unwrap();
            let mut reference = block;
            reference_encrypt_block(&aes, &mut reference);
            let mut portable = block;
            aes.encrypt_block_portable(&mut portable);
            prop_assert_eq!(portable, reference);
            let mut hardware = [block];
            if aes_ni(&aes, &mut hardware) {
                prop_assert_eq!(hardware[0], reference);
            }
            let mut dispatched = block;
            aes.encrypt_block(&mut dispatched);
            prop_assert_eq!(dispatched, reference);
            aes.decrypt_block(&mut dispatched);
            prop_assert_eq!(dispatched, block);
        }

        /// A run of blocks comes out of the AES-NI kernel as it does out
        /// of the portable one a block at a time, whether the run is
        /// shorter than the eight it overlaps, a multiple, or neither.
        #[test]
        fn kernels_agree_on_runs_of_blocks(
            size_id in 0usize..3,
            key_bytes: [u8; 32],
            blocks in prop::collection::vec(any::<[u8; 16]>(), 0..=2 * PARALLEL_BLOCKS + 3),
        ) {
            let size = SIZES[size_id];
            let aes = Aes::new(size, &key_bytes[..size.key_len()]).unwrap();
            let mut portable = blocks.clone();
            for block in &mut portable {
                aes.encrypt_block_portable(block);
            }
            let mut hardware = blocks.clone();
            if aes_ni(&aes, &mut hardware) {
                prop_assert_eq!(&hardware, &portable);
            }
            let mut dispatched = blocks;
            aes.encrypt_blocks(&mut dispatched);
            prop_assert_eq!(dispatched, portable);
        }
    }

    // FIPS-197 Appendix C test vectors, on both kernels.
    #[test]
    fn fips197_appendix_c() {
        let plain: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        on_each_backend(|| {
            for (size, key, cipher) in [
                (KeySize::Aes128, "000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
                (
                    KeySize::Aes192,
                    "000102030405060708090a0b0c0d0e0f1011121314151617",
                    "dda97ca4864cdfe06eaf70a0ec0d7191",
                ),
                (
                    KeySize::Aes256,
                    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
                    "8ea2b7ca516745bfeafc49904b496089",
                ),
            ] {
                let aes = Aes::new(size, &hex(key)).unwrap();
                let mut block = plain;
                aes.encrypt_block(&mut block);
                assert_eq!(block.to_vec(), hex(cipher), "{size:?}");
                aes.decrypt_block(&mut block);
                assert_eq!(block, plain, "{size:?}");
            }
        });
    }

    /// Both kernels read the one schedule, so a hardware kernel costs an
    /// `Aes` (and everything that embeds one: every `Ctr`, `Cfb`, TLS and
    /// VPN session) no bytes: 15 round keys of 16 bytes and the key size.
    #[test]
    fn aes_is_the_size_it_was_before_the_hardware_kernel() {
        assert_eq!(core::mem::size_of::<Aes>(), 244);
    }

    #[test]
    fn rejects_wrong_key_length() {
        let err = Aes::new(KeySize::Aes256, &[0u8; 16]).unwrap_err();
        assert_eq!(err.expected, 32);
        assert_eq!(err.got, 16);
        assert!(err.to_string().contains("invalid AES key length"));
    }

    #[test]
    fn all_key_sizes_roundtrip() {
        for size in [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256] {
            let key: Vec<u8> = (0..size.key_len() as u8).map(|b| b.wrapping_mul(7)).collect();
            let aes = Aes::new(size, &key).unwrap();
            let mut block = [0xabu8; 16];
            aes.encrypt_block(&mut block);
            aes.decrypt_block(&mut block);
            assert_eq!(block, [0xabu8; 16]);
        }
    }

    #[test]
    fn gmul_known_products() {
        // 0x57 * 0x83 = 0xc1 (FIPS-197 §4.2 example).
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }

    #[test]
    fn sbox_and_inverse_are_inverse_permutations() {
        for b in 0u8..=255 {
            assert_eq!(INV_SBOX[SBOX[b as usize] as usize], b);
        }
    }
}
