//! Consistent-hash shard placement for the fleet content cache.
//!
//! With N domestic proxies the shared content cache is sharded so each
//! `(host, path)` key has exactly one *owner* shard holding its entry;
//! a miss at any other shard costs one intra-fleet peering hop instead
//! of a cross-border upstream fetch. Placement uses rendezvous
//! (highest-random-weight) hashing: every member scores
//! `hash(key, member)` and the highest score owns the key. Rendezvous
//! beats a hash ring here because membership is tiny (2–8 proxies) and
//! the minimal-disruption property is exact — when a member dies, only
//! the keys it owned move, each to its second-highest scorer, and they
//! move *back* on recovery. All arithmetic is integer FNV-1a, so
//! placement is a pure function of `(key, membership)`: same fleet,
//! same owners, every run.

use crate::store::CacheKey;

/// 64-bit FNV-1a's starting state.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a state `h` carried over `bytes`: folding the pieces of a
/// string in order hashes it as one buffer would.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Rendezvous-hash shard map over a fixed fleet membership.
///
/// Members are identified by their index `0..n`; the scenario layer
/// maps indices to proxy addresses. The map itself is immutable —
/// liveness is passed per lookup (`owner_among`) so every caller's view
/// of who is alive decides placement locally and deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    members: usize,
}

impl ShardMap {
    /// A map over `members` shards (at least 1).
    pub fn new(members: usize) -> Self {
        assert!(members >= 1, "shard map needs at least one member");
        ShardMap { members }
    }

    /// Number of shards.
    pub fn members(&self) -> usize {
        self.members
    }

    /// The rendezvous score of `member` for `key`: FNV-1a over
    /// `host ‖ 0 ‖ path ‖ 0 ‖ member as u64 LE`, hashed piece by piece.
    fn score(key: &CacheKey, member: usize) -> u64 {
        [key.0.as_bytes(), &[0], key.1.as_bytes(), &[0], &(member as u64).to_le_bytes()]
            .into_iter()
            .fold(FNV_OFFSET, fnv1a)
    }

    /// The owner shard for `key` with every member alive.
    pub fn owner(&self, key: &CacheKey) -> usize {
        self.owner_among(key, &vec![true; self.members])
            .expect("all-alive membership always has an owner")
    }

    /// The owner shard for `key` among the members marked alive, or
    /// `None` if the whole fleet is down. A dead member's keyspace
    /// redistributes to each key's next-highest scorer; keys owned by
    /// the survivors do not move.
    pub fn owner_among(&self, key: &CacheKey, alive: &[bool]) -> Option<usize> {
        assert_eq!(alive.len(), self.members, "liveness vector must cover the fleet");
        (0..self.members)
            .filter(|&m| alive[m])
            // max_by_key keeps the *last* max; tie-break on the lowest
            // index explicitly so placement never depends on iteration
            // direction. (64-bit score ties are astronomically rare but
            // determinism must not hinge on that.)
            .min_by_key(|&m| (std::cmp::Reverse(Self::score(key, m)), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(host: &str, path: &str) -> CacheKey {
        (host.to_string(), path.to_string())
    }

    fn keys(n: usize) -> Vec<CacheKey> {
        (0..n).map(|i| key("scholar.google.com", &format!("/paper/{i}"))).collect()
    }

    /// The score as it was first written: the pieces copied into one
    /// buffer, then hashed.
    fn buffered_score(key: &CacheKey, member: usize) -> u64 {
        let mut bytes = Vec::with_capacity(key.0.len() + key.1.len() + 10);
        bytes.extend_from_slice(key.0.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(key.1.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(member as u64).to_le_bytes());
        fnv1a(FNV_OFFSET, &bytes)
    }

    #[test]
    fn the_streamed_score_is_the_buffered_one() {
        // FNV-1a of the empty string and of "a", the published values.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut ks = keys(64);
        ks.extend([key("", ""), key("h", "/p"), key("scholar.google.com", "")]);
        for k in &ks {
            for m in 0..8 {
                assert_eq!(ShardMap::score(k, m), buffered_score(k, m));
            }
        }
    }

    #[test]
    fn single_member_owns_everything() {
        let map = ShardMap::new(1);
        for k in keys(50) {
            assert_eq!(map.owner(&k), 0);
        }
    }

    #[test]
    fn placement_is_stable_and_spread() {
        let map = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for k in keys(400) {
            let o = map.owner(&k);
            assert_eq!(map.owner(&k), o, "same key, same owner");
            counts[o] += 1;
        }
        for (m, &c) in counts.iter().enumerate() {
            assert!(c > 40, "member {m} owns only {c}/400 keys — not a spread");
        }
    }

    #[test]
    fn dead_member_moves_only_its_own_keys() {
        let map = ShardMap::new(4);
        let all = vec![true; 4];
        let mut without_2 = all.clone();
        without_2[2] = false;
        for k in keys(400) {
            let before = map.owner_among(&k, &all).unwrap();
            let after = map.owner_among(&k, &without_2).unwrap();
            if before != 2 {
                assert_eq!(after, before, "survivor-owned key moved");
            } else {
                assert_ne!(after, 2, "dead member still owns a key");
            }
        }
    }

    #[test]
    fn recovery_restores_original_placement() {
        let map = ShardMap::new(3);
        let all = vec![true; 3];
        let degraded = vec![true, false, true];
        for k in keys(100) {
            let original = map.owner_among(&k, &all).unwrap();
            let _ = map.owner_among(&k, &degraded).unwrap();
            assert_eq!(map.owner_among(&k, &all).unwrap(), original);
        }
    }

    #[test]
    fn whole_fleet_down_has_no_owner() {
        let map = ShardMap::new(2);
        assert_eq!(map.owner_among(&key("h", "/p"), &[false, false]), None);
    }
}
