//! Property tests for the shared content cache: whatever interleaving of
//! inserts, lookups, revalidations and time advances the simulator produces,
//! the store must (a) never exceed its declared byte budget, (b) never
//! resurrect an evicted entry, (c) fan one leader's body out unchanged to
//! every coalesced waiter, and (d) be a pure function of the op stream —
//! the property the byte-identical-trace guarantee leans on.

use proptest::prelude::*;
use sc_cache::{
    CacheConfig, CacheKey, CachedResponse, ContentCache, Lookup, Role, Singleflight,
};
use sc_simnet::time::{SimDuration, SimTime};

/// One step of the op stream:
/// `(dt_ms, path_id, body_len, kind)` — advance time, then act on one of
/// a small set of keys so the stream actually collides: 0–2 insert (3×
/// weight so the budget sees pressure), 3–4 lookup, 5 revalidate.
type Op = (u16, u8, u16, u8);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u16..500, 0u8..6, 0u16..700, 0u8..6), 1..120)
}

fn key(path_id: u8) -> CacheKey {
    ("scholar.google.com".to_string(), format!("/p{path_id}"))
}

fn resp(body_len: u16, version: u8) -> CachedResponse {
    CachedResponse {
        status: 200,
        content_type: "text/html".to_string(),
        etag: format!("\"v{version}\""),
        max_age: Some(30),
        body: vec![version; body_len as usize],
    }
}

/// Replays `ops` against a fresh cache, checking the budget invariant
/// after every step and returning a full decision log plus final stats.
fn replay(ops: &[Op], capacity: usize) -> (Vec<String>, String) {
    let mut cache = ContentCache::new(CacheConfig {
        capacity_bytes: capacity,
        default_ttl: SimDuration::from_secs(10),
        host_ttl: Vec::new(),
    });
    let ttl = SimDuration::from_secs(10);
    let mut now = SimTime::ZERO;
    let mut log = Vec::new();
    for (i, &(dt_ms, path_id, body_len, kind)) in ops.iter().enumerate() {
        now = now + SimDuration::from_millis(u64::from(dt_ms));
        let k = key(path_id % 4);
        match kind {
            0..=2 => {
                let out = cache.insert(k.clone(), resp(body_len, path_id), ttl, now);
                log.push(format!("{i} insert {k:?} -> {} {:?}", out.inserted, out.evicted));
            }
            3 | 4 => {
                let what = match cache.lookup(&k, now) {
                    Lookup::Fresh(r) => format!("fresh:{}", r.body.len()),
                    Lookup::Stale(r) => format!("stale:{}", r.body.len()),
                    Lookup::Miss => "miss".to_string(),
                };
                log.push(format!("{i} lookup {k:?} -> {what}"));
            }
            _ => {
                let hit = cache.revalidate(&k, ttl, now, Some("\"r\"")).is_some();
                log.push(format!("{i} revalidate {k:?} -> {hit}"));
            }
        }
        // (a) The hard budget is an invariant of every state, not just a
        // final condition.
        assert!(
            cache.used_bytes() <= cache.capacity_bytes(),
            "budget exceeded after step {i}: {} > {}",
            cache.used_bytes(),
            cache.capacity_bytes()
        );
    }
    let s = cache.stats;
    let summary = format!(
        "ins={} evict={} reval={} oversize={}",
        s.insertions, s.evicted, s.revalidated, s.rejected_oversize
    );
    (log, summary)
}

proptest! {
    #[test]
    fn byte_budget_never_exceeded(ops in ops(), capacity in 0usize..2048) {
        // The assertion lives inside replay, checked after every op.
        let _ = replay(&ops, capacity);
    }

    #[test]
    fn decisions_are_deterministic(ops in ops(), capacity in 0usize..2048) {
        // Same op stream, two fresh caches: identical decision logs —
        // no HashMap iteration order may leak into eviction choices.
        let a = replay(&ops, capacity);
        let b = replay(&ops, capacity);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn no_resurrection_after_eviction(ops in ops(), capacity in 64usize..1024) {
        // Model check: an entry evicted by pressure must stay gone
        // until a later insert under the same key.
        let mut cache = ContentCache::new(CacheConfig {
            capacity_bytes: capacity,
            default_ttl: SimDuration::from_secs(10),
            host_ttl: Vec::new(),
        });
        let ttl = SimDuration::from_secs(10);
        let mut now = SimTime::ZERO;
        let mut live: std::collections::BTreeSet<CacheKey> = Default::default();
        for &(dt_ms, path_id, body_len, kind) in &ops {
            now = now + SimDuration::from_millis(u64::from(dt_ms));
            let k = key(path_id % 4);
            match kind {
                0..=2 => {
                    let out = cache.insert(k.clone(), resp(body_len, path_id), ttl, now);
                    for victim in &out.evicted {
                        prop_assert_ne!(victim, &k, "insert may not evict its own key");
                        live.remove(victim);
                    }
                    if out.inserted {
                        live.insert(k.clone());
                    } else {
                        live.remove(&k);
                    }
                }
                _ => {}
            }
            // The cache agrees with the model exactly: present iff live.
            let found = !matches!(cache.lookup(&k, now), Lookup::Miss);
            prop_assert_eq!(
                found,
                live.contains(&k),
                "cache and model disagree on {:?}",
                k
            );
        }
    }

    #[test]
    fn coalesced_waiters_all_observe_the_same_body(
        waiters in proptest::collection::vec(0u32..1000, 0..24),
        body_len in 1u16..600,
    ) {
        // One leader, arbitrary waiters; the leader's completed fetch is
        // inserted once and fanned out. Every waiter must see exactly
        // the inserted body, in arrival order.
        let mut cache = ContentCache::new(CacheConfig::default());
        let mut sf: Singleflight<u32> = Singleflight::new();
        let k = key(0);
        prop_assert_eq!(sf.begin(&k, 9999), Role::Leader);
        for (i, w) in waiters.iter().enumerate() {
            prop_assert_eq!(sf.begin(&k, *w), Role::Waiter, "waiter {} must coalesce", i);
        }
        let body = resp(body_len, 7);
        let now = SimTime::ZERO;
        cache.insert(k.clone(), body.clone(), SimDuration::from_secs(10), now);
        let flight = sf.complete(&k).expect("flight registered");
        prop_assert_eq!(flight.leader, 9999);
        prop_assert_eq!(&flight.waiters, &waiters);
        for _ in &flight.waiters {
            match cache.lookup(&k, now) {
                Lookup::Fresh(r) => prop_assert_eq!(&r.body, &body.body),
                other => prop_assert!(false, "expected fresh body for waiter, got {:?}", other),
            }
        }
        prop_assert!(sf.leader(&k).is_none(), "completed flight must not linger");
    }
}
