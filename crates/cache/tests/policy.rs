//! The cache policy through its public API, with no simulator: what
//! each requester is told, and what the store and its counters do.

use sc_cache::{
    Answer, CacheConfig, CacheKey, CachePolicy, CachedResponse, ContentCache, Lead, Lookup, Plan,
    Upstream,
};
use sc_simnet::bytes::Bytes;
use sc_simnet::time::{SimDuration, SimTime};

const TTL: SimDuration = SimDuration::from_secs(10);
/// Past the entries' lifetime: every lookup finds them stale.
const LATER: SimTime = SimTime::from_secs(20);

fn key(path: &str) -> CacheKey {
    ("scholar.google.com".to_string(), path.to_string())
}

fn cache(capacity_bytes: usize) -> ContentCache {
    ContentCache::new(CacheConfig { capacity_bytes, default_ttl: TTL, host_ttl: Vec::new() })
}

/// A store holding `path` with etag `"v1"` and a 100-byte body, stale
/// at [`LATER`].
fn stored(capacity_bytes: usize, path: &str) -> ContentCache {
    let mut c = cache(capacity_bytes);
    let entry = CachedResponse {
        status: 200,
        content_type: "text/html".into(),
        etag: "\"v1\"".into(),
        max_age: None,
        body: vec![b'x'; 100],
    };
    assert!(c.insert(key(path), entry, TTL, SimTime::ZERO).inserted);
    c
}

/// A request from a browser behind this shard whose key no peer owns.
fn ask(
    policy: &mut CachePolicy<u32>,
    cache: &mut ContentCache,
    path: &str,
    requester: u32,
    validator: Option<&str>,
) -> String {
    let plan = policy.request(cache, &key(path), requester, validator, Some(|| None), LATER);
    let verdict = plan.verdict();
    match plan {
        Plan::Hit(Answer { not_modified, .. }) => format!("{verdict} hit 304:{not_modified}"),
        Plan::Wait { .. } => format!("{verdict} wait"),
        Plan::Lead(Lead { validator, owner, missed }) => {
            format!("{verdict} lead {validator:?} {owner:?} missed:{missed}")
        }
    }
}

fn upstream<'a>(status: u16, etag: Option<&'a str>, body: &'a Bytes) -> Upstream<'a> {
    Upstream { status, etag, max_age: None, content_type: Some("text/html"), body }
}

fn body_of(cache: &mut ContentCache, path: &str) -> Bytes {
    match cache.lookup(&key(path), LATER) {
        Lookup::Fresh(entry) | Lookup::Stale(entry) => entry.body.clone(),
        Lookup::Miss => panic!("{path} is stored"),
    }
}

#[test]
fn a_fresh_hit_is_a_304_only_for_a_matching_validator() {
    let mut c = stored(4096, "/");
    let mut policy = CachePolicy::default();
    let now = SimTime::from_secs(1);
    for (validator, not_modified) in [(Some("\"v1\""), true), (Some("\"v0\""), false), (None, false)] {
        let plan = policy.request(&mut c, &key("/"), 1, validator, Some(|| None), now);
        assert!(matches!(plan, Plan::Hit(a) if a.not_modified == not_modified), "{validator:?}");
    }
    assert_eq!((c.stats.hits, c.stats.bytes_saved, policy.in_flight()), (3, 300, 0));
}

#[test]
fn after_a_304_each_requester_is_answered_by_its_own_validator() {
    let mut c = stored(4096, "/");
    let kept = body_of(&mut c, "/");
    let mut policy = CachePolicy::default();
    assert_eq!(ask(&mut policy, &mut c, "/", 1, Some("\"v1\"")), "stale lead Some(\"\\\"v1\\\"\") None missed:false");
    assert_eq!(ask(&mut policy, &mut c, "/", 2, None), "stale wait");

    let settled = policy.settle(&mut c, &key("/"), 1, upstream(304, None, &Bytes::new()), false, LATER);

    assert!(settled.renewed && !settled.missed);
    assert_eq!(settled.answers, [(1, true), (2, false)], "the leader's validator matches, the waiter sent none");
    let entry = settled.entry.expect("the renewed entry answers them");
    assert_eq!(entry.body.as_ptr(), kept.as_ptr(), "the waiter's 200 shares the stored body");
    assert!(matches!(c.lookup(&key("/"), LATER), Lookup::Fresh(_)));
    let s = &c.stats;
    assert_eq!((s.revalidated, s.misses, s.coalesced, s.bytes_saved), (1, 0, 1, 200));
    assert_eq!(policy.in_flight(), 0);
}

#[test]
fn a_promoted_waiter_keeps_its_own_validator() {
    let mut c = stored(4096, "/");
    let mut policy = CachePolicy::default();
    ask(&mut policy, &mut c, "/", 1, None);
    ask(&mut policy, &mut c, "/", 2, Some("\"v1\""));
    ask(&mut policy, &mut c, "/", 3, None);

    assert_eq!(policy.leave(&mut c, &key("/"), 1, LATER), Some(2));
    assert_eq!(c.stats.upstream_fetches.len(), 2, "the promoted replay is an upstream fetch");
    assert_eq!(c.stats.misses, 0, "but no second miss");

    let settled = policy.settle(&mut c, &key("/"), 2, upstream(304, None, &Bytes::new()), false, LATER);
    assert_eq!(settled.answers, [(2, true), (3, false)]);
}

#[test]
fn a_changed_representation_is_a_local_miss_but_not_via_a_peer() {
    for (via_peer, misses) in [(false, 1), (true, 0)] {
        let mut c = stored(4096, "/");
        let mut policy = CachePolicy::default();
        ask(&mut policy, &mut c, "/", 1, None);
        let body = Bytes::from(vec![b'y'; 50]);

        let settled = policy.settle(&mut c, &key("/"), 1, upstream(200, Some("\"v2\""), &body), via_peer, LATER);

        assert_eq!((settled.missed, c.stats.misses), (!via_peer, misses), "via_peer {via_peer}");
        let entry = settled.entry.expect("a 200 is stored");
        assert_eq!((entry.etag.as_str(), entry.body.as_ptr()), ("\"v2\"", body.as_ptr()));
        assert_eq!(body_of(&mut c, "/").as_ptr(), body.as_ptr(), "stored without a copy");
    }
}

#[test]
fn a_failed_flight_returns_its_waiters_in_arrival_order() {
    let mut c = cache(4096);
    let mut policy = CachePolicy::default();
    assert_eq!(ask(&mut policy, &mut c, "/", 7, Some("\"v1\"")), "miss lead None None missed:true");
    for waiter in [9, 3, 5] {
        assert_eq!(ask(&mut policy, &mut c, "/", waiter, None), "miss wait");
    }
    assert_eq!(policy.fail(&key("/"), 9), Vec::<u32>::new(), "only the leader fails a flight");
    assert_eq!(policy.fail(&key("/"), 7), [9, 3, 5]);
    assert_eq!(policy.in_flight(), 0);
    // Nothing of the failed flight lingers: the next request leads anew.
    assert_eq!(ask(&mut policy, &mut c, "/", 3, None), "miss lead None None missed:true");
}

/// The store evicted the stale entry while its revalidation was in
/// flight. The upstream's bodyless 304 used to be passed through to
/// requesters that sent no validator, so a browser with no copy got an
/// empty body.
#[test]
fn a_304_for_an_evicted_entry_is_answered_from_the_kept_copy() {
    let mut c = stored(300, "/");
    let kept = body_of(&mut c, "/");
    let mut policy = CachePolicy::default();
    ask(&mut policy, &mut c, "/", 1, None);
    ask(&mut policy, &mut c, "/", 2, None);
    // Room for one entry only: storing another evicts the stale one.
    let other = CachedResponse { status: 200, content_type: String::new(), etag: String::new(), max_age: None, body: vec![0; 100] };
    assert_eq!(c.insert(key("/other"), other, TTL, LATER).evicted, [key("/")]);

    let settled = policy.settle(&mut c, &key("/"), 1, upstream(304, Some("\"v1\""), &Bytes::new()), false, LATER);

    assert!(!settled.renewed, "nothing in the store was renewed");
    assert_eq!(settled.answers, [(1, false), (2, false)], "neither sent a validator: both get the body");
    let entry = settled.entry.expect("the kept copy answers them");
    assert_eq!((entry.body.as_ptr(), entry.body.len()), (kept.as_ptr(), 100));
}

#[test]
fn a_fetch_that_leads_no_flight_is_passed_through() {
    let mut c = cache(4096);
    let mut policy = CachePolicy::default();
    ask(&mut policy, &mut c, "/", 1, None);
    // Requester 2's pass-through fetch (a HEAD, say) of the same key.
    let settled = policy.settle(&mut c, &key("/"), 2, upstream(200, None, &Bytes::new()), false, LATER);
    assert!(settled.entry.is_none());
    assert_eq!(settled.answers, [(2, false)]);
    assert_eq!((policy.in_flight(), c.len()), (1, 0), "requester 1's flight is untouched");
}

#[test]
fn a_peer_routed_leader_counts_a_peer_fetch_and_a_peer_request_never_hops() {
    let mut c = cache(4096);
    let mut policy = CachePolicy::default();
    let plan = policy.request(&mut c, &key("/a"), 1, None, Some(|| Some(2)), LATER);
    assert!(matches!(plan, Plan::Lead(Lead { owner: Some(2), missed: false, .. })));
    let plan = policy.request(&mut c, &key("/b"), 2, None, None::<fn() -> Option<usize>>, LATER);
    assert!(matches!(plan, Plan::Lead(Lead { owner: None, missed: true, .. })));
    let s = &c.stats;
    assert_eq!((s.peer_fetches, s.peer_serves, s.misses, s.upstream_fetches.len()), (1, 1, 1, 1));
    // The hop failed: the fetch goes upstream, a miss after all.
    assert_eq!(policy.fall_back(&mut c, &key("/a"), LATER), Lead { validator: None, owner: None, missed: true });
}
