//! Block cipher modes of operation: CFB (as used by Shadowsocks'
//! `aes-256-cfb` method) and CTR (used by the simulated TLS record layer).
//!
//! Where the keystream blocks of a run do not depend on each other — CTR
//! either way, CFB when decrypting (each is the cipher over the previous
//! *ciphertext* block, all of which are at hand) — the modes hand the
//! cipher a run of them (32) in one call, which an AES-NI kernel works
//! through eight at a time. CFB encryption is serial by construction.

use crate::aes::{Aes, PARALLEL_BLOCKS};

/// Keystream blocks prepared per call into the cipher: a few of its
/// strides, so what a call costs before its first block (the AES-NI
/// kernel re-reads the key schedule) is spread over many, and still only
/// half a KiB of stack.
const RUN: usize = 4 * PARALLEL_BLOCKS;

/// AES-CFB streaming encryptor/decryptor with full-block (128-bit) feedback.
///
/// Shadowsocks' classic stream-cipher methods use CFB with a random IV sent
/// in the clear at the start of each connection; this type reproduces that
/// construction byte for byte.
///
/// # Examples
///
/// ```
/// use sc_crypto::aes::{Aes, KeySize};
/// use sc_crypto::modes::Cfb;
///
/// let aes = Aes::new(KeySize::Aes256, &[7u8; 32]).unwrap();
/// let iv = [9u8; 16];
/// let mut enc = Cfb::new(aes.clone(), iv);
/// let mut dec = Cfb::new(aes, iv);
///
/// let mut data = b"attack at dawn".to_vec();
/// enc.encrypt(&mut data);
/// dec.decrypt(&mut data);
/// assert_eq!(&data, b"attack at dawn");
/// ```
#[derive(Debug, Clone)]
pub struct Cfb {
    cipher: Aes,
    /// The last 16 ciphertext bytes (the IV before any); complete
    /// whenever `offset == 16`.
    register: [u8; 16],
    keystream: [u8; 16],
    /// Bytes of `keystream` already used; 16 means none are left.
    offset: usize,
}

impl Cfb {
    /// Creates a CFB stream from a block cipher and IV.
    pub fn new(cipher: Aes, iv: [u8; 16]) -> Self {
        Self {
            cipher,
            register: iv,
            keystream: [0; 16],
            offset: 16,
        }
    }

    /// Encrypts `data` in place, advancing the stream state.
    pub fn encrypt(&mut self, data: &mut [u8]) {
        let (blocks, tail) = self.finish_block(data, false).as_chunks_mut::<16>();
        for block in blocks {
            self.cipher.encrypt_block(&mut self.register);
            xor_in(block, &self.register);
            self.register = *block;
        }
        self.start_block(tail, false);
    }

    /// Decrypts `data` in place, advancing the stream state.
    pub fn decrypt(&mut self, data: &mut [u8]) {
        let (blocks, tail) = self.finish_block(data, true).as_chunks_mut::<16>();
        for run in blocks.chunks_mut(RUN) {
            // Keystream block i is the cipher over ciphertext block i - 1.
            let mut keystream = [[0u8; 16]; RUN];
            let keystream = &mut keystream[..run.len()];
            let (last, before) = run.split_last().expect("chunks are non-empty");
            keystream[0] = self.register;
            keystream[1..].copy_from_slice(before);
            self.register = *last;
            self.cipher.encrypt_blocks(keystream);
            for (block, k) in run.iter_mut().zip(keystream) {
                xor_in(block, k);
            }
        }
        self.start_block(tail, true);
    }

    /// Uses up the keystream block in progress; returns what is left of
    /// `data`, which is empty unless that block is now finished.
    fn finish_block<'a>(&mut self, data: &'a mut [u8], decrypt: bool) -> &'a mut [u8] {
        let (head, rest) = data.split_at_mut(data.len().min(16 - self.offset));
        self.within_block(head, decrypt);
        rest
    }

    /// Opens a keystream block for `tail`, the bytes after the last whole
    /// block (fewer than 16; none leaves the state as it is).
    fn start_block(&mut self, tail: &mut [u8], decrypt: bool) {
        if tail.is_empty() {
            return;
        }
        self.keystream = self.register;
        self.cipher.encrypt_block(&mut self.keystream);
        self.offset = 0;
        self.within_block(tail, decrypt);
    }

    /// CFB over bytes that fit in what is left of the current keystream
    /// block.
    fn within_block(&mut self, bytes: &mut [u8], decrypt: bool) {
        let end = self.offset + bytes.len();
        let register = &mut self.register[self.offset..end];
        // In CFB the *ciphertext* feeds back into the shift register.
        if decrypt {
            register.copy_from_slice(bytes);
        }
        xor_in(bytes, &self.keystream[self.offset..end]);
        if !decrypt {
            register.copy_from_slice(bytes);
        }
        self.offset = end;
    }
}

fn xor_in(data: &mut [u8], keystream: &[u8]) {
    for (d, k) in data.iter_mut().zip(keystream) {
        *d ^= k;
    }
}

/// AES-CTR keystream cipher. Encryption and decryption are identical.
///
/// # Examples
///
/// ```
/// use sc_crypto::aes::{Aes, KeySize};
/// use sc_crypto::modes::Ctr;
///
/// let aes = Aes::new(KeySize::Aes128, &[1u8; 16]).unwrap();
/// let mut a = Ctr::new(aes.clone(), [0u8; 16]);
/// let mut b = Ctr::new(aes, [0u8; 16]);
/// let mut data = vec![0u8; 100];
/// a.apply(&mut data);
/// b.apply(&mut data);
/// assert_eq!(data, vec![0u8; 100]);
/// ```
#[derive(Debug, Clone)]
pub struct Ctr {
    cipher: Aes,
    /// The next counter block, as a big-endian 128-bit integer.
    counter: u128,
    keystream: [u8; 16],
    /// Bytes of `keystream` already used; 16 means none are left.
    offset: usize,
}

impl Ctr {
    /// Creates a CTR stream with the given initial counter block.
    pub fn new(cipher: Aes, nonce: [u8; 16]) -> Self {
        Self {
            cipher,
            counter: u128::from_be_bytes(nonce),
            keystream: [0; 16],
            offset: 16,
        }
    }

    /// XORs the keystream into `data` (encrypts or decrypts).
    pub fn apply(&mut self, data: &mut [u8]) {
        // Leftover keystream first, then whole blocks a run at a time; a
        // short last chunk leaves the rest of its block for the next call.
        let (head, rest) = data.split_at_mut(data.len().min(16 - self.offset));
        xor_in(head, &self.keystream[self.offset..]);
        self.offset += head.len();
        let (blocks, tail) = rest.as_chunks_mut::<16>();
        for run in blocks.chunks_mut(RUN) {
            let mut keystream = [[0u8; 16]; RUN];
            let keystream = &mut keystream[..run.len()];
            for k in keystream.iter_mut() {
                *k = self.next_counter_block();
            }
            self.cipher.encrypt_blocks(keystream);
            for (block, k) in run.iter_mut().zip(keystream) {
                xor_in(block, k);
            }
        }
        if !tail.is_empty() {
            self.keystream = self.next_counter_block();
            self.cipher.encrypt_block(&mut self.keystream);
            xor_in(tail, &self.keystream);
            self.offset = tail.len();
        }
    }

    fn next_counter_block(&mut self) -> [u8; 16] {
        let block = self.counter.to_be_bytes();
        self.counter = self.counter.wrapping_add(1);
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::KeySize;
    use crate::testing::on_each_backend;
    use proptest::prelude::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // NIST SP 800-38A appendix F: the four-block plaintext and the
    // AES-128/192/256 keys every mode's vectors share.
    const PLAIN: &str = "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
                         30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710";
    const KEYS: [(KeySize, &str); 3] = [
        (KeySize::Aes128, "2b7e151628aed2a6abf7158809cf4f3c"),
        (KeySize::Aes192, "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b"),
        (KeySize::Aes256, "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"),
    ];

    // F.3.13, F.3.15, F.3.17 (CFB128 encrypt) and their decrypt twins,
    // on both kernels.
    #[test]
    fn nist_cfb128_all_key_sizes() {
        let cipher = [
            "3b3fd92eb72dad20333449f8e83cfb4ac8a64537a0b3a93fcde3cdad9f1ce58b\
             26751f67a3cbb140b1808cf187a4f4dfc04b05357c5d1c0eeac4c66f9ff7f2e6",
            "cdc80d6fddf18cab34c25909c99a417467ce7f7f81173621961a2b70171d3d7a\
             2e1e8a1dd59b88b1c8e60fed1efac4c9c05f9f9ca9834fa042ae8fba584b09ff",
            "dc7e84bfda79164b7ecd8486985d386039ffed143b28b1c832113c6331e5407b\
             df10132415e54b92a13ed0a8267ae2f975a385741ab9cef82031623d55b1e471",
        ];
        let iv: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        on_each_backend(|| {
            for ((size, key), cipher) in KEYS.into_iter().zip(cipher) {
                let aes = Aes::new(size, &hex(key)).unwrap();
                let mut data = hex(PLAIN);
                Cfb::new(aes.clone(), iv).encrypt(&mut data);
                assert_eq!(data, hex(cipher), "{size:?} encrypt");
                Cfb::new(aes, iv).decrypt(&mut data);
                assert_eq!(data, hex(PLAIN), "{size:?} decrypt");
            }
        });
    }

    // F.5.1, F.5.3, F.5.5 (CTR encrypt), on both kernels.
    #[test]
    fn nist_ctr_all_key_sizes() {
        let cipher = [
            "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee",
            "1abc932417521ca24f2b0459fe7e6e0b090339ec0aa6faefd5ccc2c6f4ce8e94\
             1e36b26bd1ebc670d1bd1d665620abf74f78a7f6d29809585a97daec58c6b050",
            "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5\
             2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6",
        ];
        let nonce: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        on_each_backend(|| {
            for ((size, key), cipher) in KEYS.into_iter().zip(cipher) {
                let mut data = hex(PLAIN);
                Ctr::new(Aes::new(size, &hex(key)).unwrap(), nonce).apply(&mut data);
                assert_eq!(data, hex(cipher), "{size:?}");
            }
        });
    }

    /// CFB one byte at a time, straight from the definition, over the
    /// portable block kernel: the reference the run-wise `Cfb` must equal
    /// under any chunking, whichever kernel it dispatches to.
    fn reference_cfb(aes: &Aes, iv: [u8; 16], data: &mut [u8], decrypt: bool) {
        let mut register = iv;
        let mut keystream = [0u8; 16];
        for (i, byte) in data.iter_mut().enumerate() {
            if i % 16 == 0 {
                keystream = register;
                aes.encrypt_block_portable(&mut keystream);
            }
            let input = *byte;
            *byte ^= keystream[i % 16];
            register[i % 16] = if decrypt { input } else { *byte };
        }
    }

    /// CTR one byte at a time with a byte-wise carry, over the portable
    /// block kernel.
    fn reference_ctr(aes: &Aes, nonce: [u8; 16], data: &mut [u8]) {
        let mut counter = nonce;
        let mut keystream = [0u8; 16];
        for (i, byte) in data.iter_mut().enumerate() {
            if i % 16 == 0 {
                keystream = counter;
                aes.encrypt_block_portable(&mut keystream);
                for c in counter.iter_mut().rev() {
                    *c = c.wrapping_add(1);
                    if *c != 0 {
                        break;
                    }
                }
            }
            *byte ^= keystream[i % 16];
        }
    }

    /// Calls `f` on consecutive chunks of `data` whose lengths cycle
    /// through `lens`.
    fn in_chunks(data: &mut [u8], lens: &[usize], mut f: impl FnMut(&mut [u8])) {
        let mut rest = data;
        for &len in lens.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at_mut(len.min(rest.len()));
            f(chunk);
            rest = tail;
        }
    }

    // On either side of a block (16), of the kernel's stride (128) and
    // of a run (512).
    const SPLITS: [usize; 18] =
        [1, 15, 16, 17, 31, 32, 33, 0, 47, 100, 127, 128, 129, 300, 511, 513, 143, 1024];

    #[test]
    fn cfb_equals_reference_across_fixed_split_points() {
        let aes = Aes::new(KeySize::Aes256, &[0x42; 32]).unwrap();
        let iv = [0x17; 16];
        let plain: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut expect = plain.clone();
        reference_cfb(&aes, iv, &mut expect, false);
        on_each_backend(|| {
            let mut data = plain.clone();
            let mut enc = Cfb::new(aes.clone(), iv);
            in_chunks(&mut data, &SPLITS, |c| enc.encrypt(c));
            assert_eq!(data, expect);

            let mut dec = Cfb::new(aes.clone(), iv);
            in_chunks(&mut data, &SPLITS[3..], |c| dec.decrypt(c));
            assert_eq!(data, plain);
        });
    }

    #[test]
    fn ctr_equals_reference_across_fixed_split_points() {
        let aes = Aes::new(KeySize::Aes128, &[0x24; 16]).unwrap();
        let nonce = [0x71; 16];
        let mut expect = vec![0u8; 5000];
        reference_ctr(&aes, nonce, &mut expect);
        on_each_backend(|| {
            let mut data = vec![0u8; 5000];
            let mut ctr = Ctr::new(aes.clone(), nonce);
            in_chunks(&mut data, &SPLITS, |c| ctr.apply(c));
            assert_eq!(data, expect);
        });
    }

    /// A counter block `before` blocks short of carrying out of its low
    /// 64 bits (into `high`), or — with `high` all ones — of wrapping to
    /// zero.
    fn nonce_about_to_carry(high: [u8; 8], before: u8) -> [u8; 16] {
        let mut nonce = [0xffu8; 16];
        nonce[..8].copy_from_slice(&high);
        nonce[15] = 0xff - before;
        nonce
    }

    #[test]
    fn ctr_counter_carries_and_wraps_like_the_bytewise_increment() {
        let aes = Aes::new(KeySize::Aes128, &[0; 16]).unwrap();
        on_each_backend(|| {
            // The carry and the wrap at the first block of a run, inside
            // a stride, and at the first block of the second run.
            for high in [[0u8; 8], [0xff; 8]] {
                for before in [0, 3, RUN as u8] {
                    let nonce = nonce_about_to_carry(high, before);
                    let mut expect = [0u8; 16 * (RUN + 4)];
                    reference_ctr(&aes, nonce, &mut expect);
                    let mut data = [0u8; 16 * (RUN + 4)];
                    Ctr::new(aes.clone(), nonce).apply(&mut data);
                    assert_eq!(data, expect, "high {high:?}, {before} blocks before");
                    assert_ne!(&data[0..16], &data[16..32]);
                }
            }
        });
    }

    proptest! {
        /// Run-wise CFB equals the byte-at-a-time reference, in both
        /// directions, however the stream is cut up — pieces shorter
        /// than a block, longer than a run, and in between.
        #[test]
        fn cfb_equals_reference_under_arbitrary_chunking(
            size_id in 0usize..3,
            key_bytes: [u8; 32],
            iv: [u8; 16],
            data in prop::collection::vec(any::<u8>(), 0..4500),
            lens in prop::collection::vec(0usize..700, 1..8),
        ) {
            prop_assume!(lens.iter().any(|&l| l > 0));
            let size = [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256][size_id];
            let aes = Aes::new(size, &key_bytes[..size.key_len()]).unwrap();
            let mut expect = data.clone();
            reference_cfb(&aes, iv, &mut expect, false);
            let mut back = expect.clone();
            reference_cfb(&aes, iv, &mut back, true);
            prop_assert_eq!(&back, &data);

            on_each_backend(|| {
                let mut wire = data.clone();
                let mut enc = Cfb::new(aes.clone(), iv);
                in_chunks(&mut wire, &lens, |c| enc.encrypt(c));
                assert_eq!(&wire, &expect);
                let mut dec = Cfb::new(aes.clone(), iv);
                in_chunks(&mut wire, &lens, |c| dec.decrypt(c));
                assert_eq!(&wire, &data);
            });
        }

        /// Run-wise CTR equals the byte-at-a-time reference however the
        /// stream is cut up, for every key size, across a carry out of
        /// the counter's low 64 bits and across its wrap at `u128::MAX`.
        #[test]
        fn ctr_equals_reference_under_arbitrary_chunking(
            size_id in 0usize..3,
            key_bytes: [u8; 32],
            nonce_head: [u8; 8],
            wraps: bool,
            before in 0u8..40,
            data in prop::collection::vec(any::<u8>(), 0..4500),
            lens in prop::collection::vec(0usize..700, 1..8),
        ) {
            prop_assume!(lens.iter().any(|&l| l > 0));
            let size = [KeySize::Aes128, KeySize::Aes192, KeySize::Aes256][size_id];
            let aes = Aes::new(size, &key_bytes[..size.key_len()]).unwrap();
            let nonce = nonce_about_to_carry(if wraps { [0xff; 8] } else { nonce_head }, before);
            let mut expect = data.clone();
            reference_ctr(&aes, nonce, &mut expect);
            on_each_backend(|| {
                let mut wire = data.clone();
                let mut ctr = Ctr::new(aes.clone(), nonce);
                in_chunks(&mut wire, &lens, |c| ctr.apply(c));
                assert_eq!(&wire, &expect);
            });
        }
    }
}
