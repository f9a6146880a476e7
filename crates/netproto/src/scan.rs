//! Byte searches a word at a time: the one scan kernel the stack's
//! parsers and the GFW's filters search with.
//!
//! Eight bytes are loaded as a `u64` and compared with the wanted byte
//! all at once: after XOR with the byte repeated, a matching byte is
//! zero, and `(x - 0x01..01) & !x & 0x80..80` flags the zero bytes of
//! `x` in their high bits (the has-zero-byte trick). The lowest flag is
//! exact; a flag above a real match can be false (the subtraction
//! borrows out of the matching byte), so every candidate past the first
//! is confirmed against the byte itself. A tail shorter than a word
//! goes a byte at a time.

const ONES: u64 = u64::from_le_bytes([0x01; 8]);
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);

/// The bytes of `word` equal to `byte`, each flagged by its high bit.
#[inline(always)]
fn flags(word: u64, byte: u8) -> u64 {
    let x = word ^ (ONES * u64::from(byte));
    x.wrapping_sub(ONES) & !x & HIGHS
}

/// The first position in `hay` whose byte is `a` or `b` and that `hit`
/// accepts. Candidates go to `hit` in order.
#[inline(always)]
fn first_candidate(hay: &[u8], a: u8, b: u8, mut hit: impl FnMut(usize) -> bool) -> Option<usize> {
    let mut words = hay.chunks_exact(8);
    let mut base = 0;
    for word in words.by_ref() {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        let mut found = flags(word, a) | flags(word, b);
        while found != 0 {
            let at = base + (found.trailing_zeros() / 8) as usize;
            if (hay[at] == a || hay[at] == b) && hit(at) {
                return Some(at);
            }
            found &= found - 1;
        }
        base += 8;
    }
    (base..hay.len()).find(|&at| (hay[at] == a || hay[at] == b) && hit(at))
}

/// Position of the first `byte` in `hay`.
pub fn find_byte(hay: &[u8], byte: u8) -> Option<usize> {
    first_candidate(hay, byte, byte, |_| true)
}

/// Position of the first occurrence of `needle` in `hay` (an empty
/// needle is found at 0).
pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let Some((&first, rest)) = needle.split_first() else { return Some(0) };
    // A needle can only start where the rest of it still fits.
    let starts = hay.len().checked_sub(rest.len())?;
    first_candidate(&hay[..starts], first, first, |at| hay[at + 1..at + needle.len()] == *rest)
}

/// [`find`], with ASCII letters matching either case. Both cases of the
/// needle's first byte are looked for in the same pass over a word.
pub fn find_ignore_ascii_case(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let Some((&first, rest)) = needle.split_first() else { return Some(0) };
    let starts = hay.len().checked_sub(rest.len())?;
    let (lower, upper) = (first.to_ascii_lowercase(), first.to_ascii_uppercase());
    first_candidate(&hay[..starts], lower, upper, |at| hay[at + 1..at + needle.len()].eq_ignore_ascii_case(rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-byte searches the kernel replaces, as the reference.
    fn find_byte_ref(hay: &[u8], byte: u8) -> Option<usize> {
        hay.iter().position(|&b| b == byte)
    }

    fn find_ref(hay: &[u8], needle: &[u8]) -> Option<usize> {
        if needle.is_empty() {
            return Some(0);
        }
        hay.windows(needle.len()).position(|w| w == needle)
    }

    fn find_ignore_ascii_case_ref(hay: &[u8], needle: &[u8]) -> Option<usize> {
        if needle.is_empty() {
            return Some(0);
        }
        hay.windows(needle.len()).position(|w| w.eq_ignore_ascii_case(needle))
    }

    /// Every search, against its reference, for one haystack and needle.
    fn assert_all_agree(hay: &[u8], needle: &[u8]) {
        if let Some(&byte) = needle.first() {
            assert_eq!(find_byte(hay, byte), find_byte_ref(hay, byte), "find_byte {byte:#04x} in {hay:?}");
        }
        assert_eq!(find(hay, needle), find_ref(hay, needle), "find {needle:?} in {hay:?}");
        assert_eq!(
            find_ignore_ascii_case(hay, needle),
            find_ignore_ascii_case_ref(hay, needle),
            "find_ignore_ascii_case {needle:?} in {hay:?}"
        );
    }

    /// Bytes that trip the has-zero trick: pairs that differ in the low
    /// bit (a borrow out of a match flags `byte ^ 0x01` above it), both
    /// cases of a letter, and the CR/LF the parsers look for.
    const ALPHABET: [u8; 12] = [b'a', b'`', b'A', 0x00, 0x01, b'\r', 0x0c, b'\n', 0x0b, 0x80, 0x81, b'R'];

    proptest! {
        /// Arbitrary haystacks over bytes that make candidates and false
        /// flags common, with needles drawn from the same bytes.
        #[test]
        fn searches_match_the_per_byte_reference(
            hay in prop::collection::vec(0usize..ALPHABET.len(), 0..70),
            needle in prop::collection::vec(0usize..ALPHABET.len(), 0..5),
        ) {
            let hay: Vec<u8> = hay.into_iter().map(|i| ALPHABET[i]).collect();
            let needle: Vec<u8> = needle.into_iter().map(|i| ALPHABET[i]).collect();
            assert_all_agree(&hay, &needle);
            // Every suffix too: each starts at another offset in a word.
            for from in 0..hay.len() {
                assert_all_agree(&hay[from..], &needle);
            }
        }

        /// Arbitrary bytes, and a needle cut out of them, so there is a hit.
        #[test]
        fn a_needle_cut_from_arbitrary_bytes_is_found_where_the_reference_finds_it(
            hay in prop::collection::vec(any::<u8>(), 1..90),
            at: usize,
            len in 1usize..9,
            shout: bool,
        ) {
            let at = at % hay.len();
            let needle = &hay[at..(at + len).min(hay.len())];
            assert_all_agree(&hay, needle);
            let shouted = if shout { needle.to_ascii_uppercase() } else { needle.to_ascii_lowercase() };
            prop_assert_eq!(
                find_ignore_ascii_case(&hay, &shouted),
                find_ignore_ascii_case_ref(&hay, &shouted)
            );
        }
    }

    /// A needle planted at every offset of haystacks of every length up
    /// to five words — on the 8-byte boundary, straddling it, in a tail
    /// shorter than a word — over a background with none of its bytes,
    /// then in the other case, then after a decoy of its first bytes.
    #[test]
    fn a_needle_at_every_offset_and_across_every_word_boundary_is_found() {
        for needle in [&b"R"[..], b"\r\n", b"RES ", b"\r\n\r\n", b"falun", b"Tiananmen"] {
            for len in 0..=40usize {
                for at in 0..=len.saturating_sub(needle.len()) {
                    if at + needle.len() > len {
                        continue;
                    }
                    let mut hay = vec![b'.'; len];
                    hay[at..at + needle.len()].copy_from_slice(needle);
                    assert_all_agree(&hay, needle);
                    assert_eq!(find(&hay, needle), Some(at));
                    let other = if needle[0].is_ascii_uppercase() {
                        needle.to_ascii_lowercase()
                    } else {
                        needle.to_ascii_uppercase()
                    };
                    hay[at..at + needle.len()].copy_from_slice(&other);
                    assert_all_agree(&hay, needle);
                    let letters = needle.iter().any(u8::is_ascii_alphabetic);
                    assert_eq!(find_ignore_ascii_case(&hay, needle), Some(at));
                    assert_eq!(find(&hay, needle).is_some(), !letters || other == needle);
                    // A partial match just before it: every candidate
                    // in the word is tried, not just the first.
                    if at >= needle.len() && needle.len() > 1 {
                        hay[at - needle.len()..at - 1].copy_from_slice(&needle[..needle.len() - 1]);
                        assert_all_agree(&hay, needle);
                    }
                }
            }
        }
    }

    /// A match followed by the bytes a borrow out of it flags falsely.
    #[test]
    fn false_flags_above_a_match_are_not_matches() {
        for byte in [0x00, 0x01, b'\n', b'A', 0x7f, 0x80, 0xfe, 0xff] {
            let twin = byte ^ 0x01;
            for at in 0..8 {
                let mut hay = vec![twin; 16];
                hay[at] = byte;
                assert_eq!(find_byte(&hay, byte), Some(at));
                assert_eq!(find(&hay, &[byte, byte]), None);
                assert_eq!(find(&hay, &[twin, twin]), find_ref(&hay, &[twin, twin]));
                assert_eq!(find(&hay[at + 1..], &[byte]), None);
            }
        }
    }

    #[test]
    fn empty_and_oversized_needles() {
        assert_eq!(find(b"", b""), Some(0));
        assert_eq!(find(b"abc", b""), Some(0));
        assert_eq!(find_ignore_ascii_case(b"", b""), Some(0));
        assert_eq!(find(b"abc", b"abcd"), None);
        assert_eq!(find_ignore_ascii_case(b"ab", b"ABC"), None);
        assert_eq!(find_byte(b"", b'a'), None);
    }
}
