//! The one hasher behind every hashed table in the workspace: a
//! fixed-state multiply-rotate hash in place of the standard library's
//! randomly keyed SipHash.
//!
//! SipHash buys resistance to keys chosen to collide. Every key hashed
//! here — addresses, ports, flow tuples, handles, names — is minted
//! inside the simulator from a seeded scenario, so there is no adversary
//! to resist, and the ~20 ns it costs per lookup is paid several times
//! per packet hop. A fixed state also makes a table's iteration order a
//! function of its history alone, so it repeats from run to run; but no
//! one chose that order, so a table some loop walks is a `BTreeMap` or
//! `BTreeSet` instead, and [`FixedMap`] / [`FixedSet`] are for tables
//! that are only looked up. This file is the one place under
//! `crates/*/src` that names the standard `HashMap` / `HashSet`
//! (DESIGN.md §6o; `scripts/check.sh` enforces it).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant with no short bit pattern (the fractional bits
/// of the golden ratio).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-rotate hasher over machine words; see the module docs for
/// why a fixed state is safe here.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedHasher(u64);

impl FixedHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FixedHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("chunks of 8")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // At most seven bytes are left: the eighth carries their
            // count, so a tail and the same tail plus a NUL differ.
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            word[7] = rest.len() as u8;
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    /// A multiply pushes entropy toward the high bits, and the table
    /// picks a bucket from the low ones: rotate the best bits down, or
    /// addresses that differ only in their first octet share a bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `BuildHasher` for [`FixedHasher`]: every map starts from the same state.
pub type FixedState = BuildHasherDefault<FixedHasher>;

/// A `HashMap` keyed by simulator-minted values (see the module docs).
pub type FixedMap<K, V> = HashMap<K, V, FixedState>;

/// A `HashSet` of simulator-minted values (see the module docs).
pub type FixedSet<T> = HashSet<T, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, SocketAddr};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        FixedState::default().hash_one(value)
    }

    /// The worst bucket load when `keys` are filed by the low `bits` of
    /// their hash — what the table's probe sequence starts from.
    fn worst_bucket<T: Hash>(keys: &[T], bits: u32) -> usize {
        let mut load = vec![0usize; 1 << bits];
        for key in keys {
            load[(hash_of(key) & ((1 << bits) - 1)) as usize] += 1;
        }
        load.into_iter().max().unwrap()
    }

    #[test]
    fn two_maps_of_the_same_keys_iterate_in_the_same_order() {
        let (mut a, mut b) = (FixedMap::default(), FixedMap::default());
        for port in 0..500u16 {
            a.insert(port, ());
            b.insert(port, ());
        }
        assert!(
            a.keys().eq(b.keys()),
            "iteration order is a function of the contents"
        );
    }

    #[test]
    fn keys_shaped_like_the_simulators_spread_over_the_low_bits() {
        // Node addresses: a few /8 regions, hosts counted up from .1.
        let addrs: Vec<Addr> = [10u8, 99, 172, 203]
            .into_iter()
            .flat_map(|region| (1..=64u8).map(move |host| Addr::new(region, 0, 0, host)))
            .collect();
        assert!(
            worst_bucket(&addrs, 9) <= 4,
            "256 addresses over 512 buckets"
        );
        // Addresses that differ only in the first octet.
        let regions: Vec<Addr> = (0..=255u8).map(|r| Addr::new(r, 0, 0, 1)).collect();
        assert!(
            worst_bucket(&regions, 9) <= 4,
            "256 regions over 512 buckets"
        );
        // TCP demux keys: one server port, ephemeral ports counted up.
        let server = Addr::new(99, 0, 0, 2);
        let demux: Vec<(u16, SocketAddr)> = (0..1024u16)
            .map(|i| (443, SocketAddr::new(server, 40_000 + i)))
            .collect();
        assert!(
            worst_bucket(&demux, 11) <= 5,
            "1024 connections over 2048 buckets"
        );
    }

    #[test]
    fn byte_strings_hash_by_content_and_length() {
        assert_ne!(hash_of(&"gfw-sni"), hash_of(&"gfw-dpi"));
        assert_ne!(hash_of(&"gfw-ip-block"), hash_of(&"gfw-ip-block\0"));
        assert_ne!(hash_of(&[0u8; 8][..]), hash_of(&[0u8; 16][..]));
        assert_ne!(hash_of(&[7u8; 3][..]), hash_of(&[7u8; 4][..]));
    }
}
