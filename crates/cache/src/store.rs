//! The byte-budgeted HTTP store: TTL freshness, ETag validators, and
//! deterministic LRU eviction.

use std::cell::{Ref, RefCell, RefMut};
use std::collections::BTreeMap;
use std::rc::Rc;

use sc_simnet::bytes::Bytes;
use sc_simnet::hash::FixedMap;
use sc_simnet::time::{SimDuration, SimTime};

/// Cache identity of a response: the origin host (lowercased by the
/// caller) and the request path.
pub type CacheKey = (String, String);

/// Fixed per-entry bookkeeping charge added to the body length when
/// accounting an entry against the byte budget, so a flood of tiny
/// entries cannot grow the index unboundedly under a nominal budget.
pub const ENTRY_OVERHEAD: usize = 64;

/// Sizing and freshness policy for a [`ContentCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Hard byte budget for stored entries (body + key + overhead). A
    /// budget of `0` disables the cache entirely: every lookup misses and
    /// nothing is stored.
    pub capacity_bytes: usize,
    /// Freshness lifetime used when the origin supplied no `max-age` and
    /// no per-host override matches.
    pub default_ttl: SimDuration,
    /// Per-host TTL overrides (exact host match, highest precedence).
    /// The deployment operator pins these alongside the whitelist.
    pub host_ttl: Vec<(String, SimDuration)>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 256 * 1024,
            default_ttl: SimDuration::from_secs(60),
            host_ttl: Vec::new(),
        }
    }
}

/// The cached representation of an origin response. What is inserted
/// may hold its body as a `Vec<u8>` or as [`Bytes`]; what is stored, and
/// what a lookup sees, is a [`StoredResponse`], whose body every reader
/// shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResponse<B = Vec<u8>> {
    /// Origin status (only `200` bodies are cached today).
    pub status: u16,
    /// `Content-Type` to replay downstream (empty if the origin sent none).
    pub content_type: String,
    /// The origin's validator; replayed downstream and used for
    /// conditional revalidation upstream (`If-None-Match`).
    pub etag: String,
    /// `max-age` the origin advertised, replayed downstream so browser
    /// caches age in step with the shared cache.
    pub max_age: Option<u64>,
    /// The response body.
    pub body: B,
}

/// A response as the cache holds it: cloning the body is a second
/// reference to the stored bytes, not a copy of them.
pub type StoredResponse = CachedResponse<Bytes>;

struct Entry {
    resp: StoredResponse,
    expires_at: SimTime,
    /// LRU position: the key's slot in the recency index. Strictly
    /// monotone, so eviction order is a pure function of the access
    /// sequence.
    seq: u64,
}

/// Result of a cache lookup at a given instant.
#[derive(Debug)]
pub enum Lookup<'a> {
    /// Entry present and within its TTL: serve it directly.
    Fresh(&'a StoredResponse),
    /// Entry present but past its TTL: usable only after a cheap
    /// conditional revalidation (304) upstream.
    Stale(&'a StoredResponse),
    /// No entry.
    Miss,
}

/// What an insert did: whether the body was stored and which keys were
/// evicted to make room (in eviction order). The caller emits
/// observability events from this, keeping the store itself pure.
#[derive(Debug, Default)]
pub struct InsertOutcome {
    /// False when the cache is disabled or the entry exceeds the whole
    /// budget by itself.
    pub inserted: bool,
    /// Keys evicted (least recently used first) to fit the new entry.
    pub evicted: Vec<CacheKey>,
}

/// Counters describing everything the cache did, readable mid-run through
/// a [`CacheHandle`]. All counts are exact, not sampled. `PartialEq`
/// lets determinism harnesses compare whole runs structurally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served directly from a fresh entry.
    pub hits: u64,
    /// Requests that became the leader of a full upstream fetch.
    pub misses: u64,
    /// Requests attached as waiters to an in-flight fetch.
    pub coalesced: u64,
    /// Entries evicted under byte-budget pressure (or explicitly).
    pub evicted: u64,
    /// Stale entries refreshed by a 304 from the origin.
    pub revalidated: u64,
    /// Bodies stored.
    pub insertions: u64,
    /// Bodies refused because they exceed the whole budget.
    pub rejected_oversize: u64,
    /// Body bytes served from the cache instead of refetched upstream
    /// (fresh hits, coalesced waiters, and revalidated replays).
    pub bytes_saved: u64,
    /// Misses this shard forwarded to the owning peer instead of going
    /// upstream (fleet cache-peering hop, requester side).
    pub peer_fetches: u64,
    /// Peer-forwarded requests this shard answered as the key's owner
    /// (fleet cache-peering hop, owner side).
    pub peer_serves: u64,
    /// Every upstream fetch started on behalf of the cache path, in start
    /// order: `(sim time µs, "host path")`. Lets experiments assert
    /// coalescing held the fetch count for a hot key to 1 during a surge.
    pub upstream_fetches: Vec<(u64, String)>,
}

impl CacheStats {
    /// Requests answered from cache state: fresh hits, coalesced waiters,
    /// and stale entries refreshed by a 304.
    pub fn served_from_cache(&self) -> u64 {
        self.hits + self.coalesced + self.revalidated
    }

    /// Fraction of cacheable requests that avoided a full upstream body
    /// transfer. `0.0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.served_from_cache() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.served_from_cache() as f64 / total as f64
        }
    }

    /// Upstream fetches recorded for `host`/`path` strictly before
    /// `before_us` (µs of sim time).
    pub fn fetches_before(&self, host: &str, path: &str, before_us: u64) -> usize {
        let label = format!("{host} {path}");
        self.upstream_fetches
            .iter()
            .filter(|(t, k)| *t < before_us && *k == label)
            .count()
    }
}

/// The shared store. All mutation goes through `&mut self`; the proxy is
/// single-threaded per sim node, so a [`CacheHandle`] wraps this in
/// `Rc<RefCell<_>>` rather than any lock.
pub struct ContentCache {
    cfg: CacheConfig,
    map: FixedMap<CacheKey, Entry>,
    /// Recency index: seq → key, lowest seq = least recently used.
    /// A `BTreeMap`, so eviction scans are ordered and the evicted
    /// sequence is deterministic.
    lru: BTreeMap<u64, CacheKey>,
    next_seq: u64,
    used: usize,
    /// Everything the cache did; read through [`CacheHandle::stats`].
    pub stats: CacheStats,
}

impl ContentCache {
    /// Creates an empty cache with the given policy.
    pub fn new(cfg: CacheConfig) -> Self {
        ContentCache {
            cfg,
            map: FixedMap::default(),
            lru: BTreeMap::new(),
            next_seq: 0,
            used: 0,
            stats: CacheStats::default(),
        }
    }

    /// False when the byte budget is zero (the cache-off control
    /// configuration): lookups miss and inserts are dropped.
    pub fn enabled(&self) -> bool {
        self.cfg.capacity_bytes > 0
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.cfg.capacity_bytes
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn cost(key: &CacheKey, resp: &StoredResponse) -> usize {
        resp.body.len() + key.0.len() + key.1.len() + ENTRY_OVERHEAD
    }

    /// Resolves the freshness lifetime for an entry from `host`:
    /// per-host operator override, else the origin's `max-age`, else the
    /// configured default.
    pub fn ttl_for(&self, host: &str, origin_max_age: Option<u64>) -> SimDuration {
        for (h, ttl) in &self.cfg.host_ttl {
            if h == host {
                return *ttl;
            }
        }
        match origin_max_age {
            Some(secs) => SimDuration::from_secs(secs),
            None => self.cfg.default_ttl,
        }
    }

    /// Looks up `key` at instant `now`, refreshing its LRU position on
    /// any find (fresh or stale — a stale find is about to be
    /// revalidated, which is a use). Does not touch the stats counters:
    /// hit/miss/coalesced accounting belongs to the request dispatcher,
    /// which alone knows whether a miss became a leader or a waiter.
    pub fn lookup(&mut self, key: &CacheKey, now: SimTime) -> Lookup<'_> {
        if !self.enabled() {
            return Lookup::Miss;
        }
        let Some(entry) = self.map.get_mut(key) else {
            return Lookup::Miss;
        };
        // Touch: move to the most-recent end of the recency index (the
        // index's own copy of the key moves with it).
        let indexed = self.lru.remove(&entry.seq).expect("index and map agree");
        entry.seq = self.next_seq;
        self.next_seq += 1;
        self.lru.insert(entry.seq, indexed);
        if now < entry.expires_at {
            Lookup::Fresh(&entry.resp)
        } else {
            Lookup::Stale(&entry.resp)
        }
    }

    /// Returns the stored etag for `key`, fresh or stale, without
    /// touching recency.
    pub fn etag_of(&self, key: &CacheKey) -> Option<&str> {
        self.map.get(key).map(|e| e.resp.etag.as_str())
    }

    /// Stores `resp` under `key` with lifetime `ttl`, evicting
    /// least-recently-used entries until the budget holds. A body larger
    /// than the whole budget is rejected (and any previous entry under
    /// the key is dropped rather than left to serve stale data). The body
    /// is kept as it comes — a `Vec<u8>` adopted, [`Bytes`] shared — never
    /// copied.
    pub fn insert(
        &mut self,
        key: CacheKey,
        resp: CachedResponse<impl Into<Bytes>>,
        ttl: SimDuration,
        now: SimTime,
    ) -> InsertOutcome {
        let resp = StoredResponse {
            status: resp.status,
            content_type: resp.content_type,
            etag: resp.etag,
            max_age: resp.max_age,
            body: resp.body.into(),
        };
        let mut out = InsertOutcome::default();
        // Replacement: the old body under this key is gone either way.
        if let Some(old) = self.map.remove(&key) {
            self.lru.remove(&old.seq);
            self.used -= Self::cost(&key, &old.resp);
        }
        if !self.enabled() {
            return out;
        }
        let cost = Self::cost(&key, &resp);
        if cost > self.cfg.capacity_bytes {
            self.stats.rejected_oversize += 1;
            return out;
        }
        while self.used + cost > self.cfg.capacity_bytes {
            // Lowest seq = least recently used; BTreeMap ordering makes
            // the victim sequence deterministic.
            let (&victim_seq, _) = self.lru.iter().next().expect("used > 0 implies entries");
            let victim_key = self.lru.remove(&victim_seq).expect("victim indexed");
            let victim = self.map.remove(&victim_key).expect("index and map agree");
            self.used -= Self::cost(&victim_key, &victim.resp);
            self.stats.evicted += 1;
            out.evicted.push(victim_key);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.lru.insert(seq, key.clone());
        self.used += cost;
        self.map.insert(key, Entry { resp, expires_at: now + ttl, seq });
        self.stats.insertions += 1;
        out.inserted = true;
        out
    }

    /// Refreshes a stale entry after the origin confirmed it with a 304:
    /// extends the lifetime to `now + ttl` (and adopts a new etag if the
    /// 304 carried one). Returns the refreshed body for replay, or `None`
    /// if the entry was evicted while the revalidation was in flight.
    pub fn revalidate(
        &mut self,
        key: &CacheKey,
        ttl: SimDuration,
        now: SimTime,
        new_etag: Option<&str>,
    ) -> Option<&StoredResponse> {
        let entry = self.map.get_mut(key)?;
        entry.expires_at = now + ttl;
        if let Some(etag) = new_etag {
            if !etag.is_empty() {
                entry.resp.etag = etag.to_string();
            }
        }
        self.stats.revalidated += 1;
        Some(&entry.resp)
    }

    /// Explicitly drops `key`, counting it as an eviction. Returns true
    /// if an entry was present.
    pub fn remove(&mut self, key: &CacheKey) -> bool {
        match self.map.remove(key) {
            Some(entry) => {
                self.lru.remove(&entry.seq);
                self.used -= Self::cost(key, &entry.resp);
                self.stats.evicted += 1;
                true
            }
            None => false,
        }
    }

    /// Records a request served directly from a fresh entry.
    pub fn note_hit(&mut self, body_len: usize) {
        self.stats.hits += 1;
        self.stats.bytes_saved += body_len as u64;
    }

    /// Records a request attached as a waiter to an in-flight fetch.
    pub fn note_coalesced(&mut self) {
        self.stats.coalesced += 1;
    }

    /// Records body bytes a coalesced waiter received without an
    /// upstream transfer of its own.
    pub fn note_bytes_saved(&mut self, body_len: usize) {
        self.stats.bytes_saved += body_len as u64;
    }

    /// Records a request that became the leader of a full upstream fetch.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Records an upstream fetch started at `now` for `key` (leader
    /// fetches only — coalesced waiters by construction start none).
    pub fn note_upstream_fetch(&mut self, key: &CacheKey, now: SimTime) {
        self.stats
            .upstream_fetches
            .push((now.as_micros(), format!("{} {}", key.0, key.1)));
    }

    /// Records a miss forwarded to the owning peer shard instead of
    /// going upstream (requester side of the peering hop).
    pub fn note_peer_fetch(&mut self) {
        self.stats.peer_fetches += 1;
    }

    /// Records a peer-forwarded request answered by this shard as the
    /// key's owner (owner side of the peering hop).
    pub fn note_peer_serve(&mut self) {
        self.stats.peer_serves += 1;
    }
}

/// Shared ownership of one [`ContentCache`] between the domestic proxy
/// and the scenario/report layer, mirroring `SchemeHandle`: the sim is
/// single-threaded, so `Rc<RefCell<_>>` suffices.
#[derive(Clone)]
pub struct CacheHandle(Rc<RefCell<ContentCache>>);

impl CacheHandle {
    /// Creates a handle around a fresh cache with the given policy.
    pub fn new(cfg: CacheConfig) -> Self {
        CacheHandle(Rc::new(RefCell::new(ContentCache::new(cfg))))
    }

    /// Immutably borrows the cache (panics if already mutably borrowed,
    /// which would be a reentrancy bug).
    pub fn borrow(&self) -> Ref<'_, ContentCache> {
        self.0.borrow()
    }

    /// Mutably borrows the cache.
    pub fn borrow_mut(&self) -> RefMut<'_, ContentCache> {
        self.0.borrow_mut()
    }

    /// Snapshot of the stats counters.
    pub fn stats(&self) -> CacheStats {
        self.0.borrow().stats.clone()
    }
}

impl core::fmt::Debug for CacheHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let c = self.0.borrow();
        f.debug_struct("CacheHandle")
            .field("used_bytes", &c.used_bytes())
            .field("capacity_bytes", &c.capacity_bytes())
            .field("entries", &c.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(len: usize, etag: &str) -> CachedResponse {
        CachedResponse {
            status: 200,
            content_type: "text/html".into(),
            etag: etag.into(),
            max_age: Some(60),
            body: vec![b'x'; len],
        }
    }

    fn key(host: &str, path: &str) -> CacheKey {
        (host.to_string(), path.to_string())
    }

    fn cache(capacity: usize) -> ContentCache {
        ContentCache::new(CacheConfig {
            capacity_bytes: capacity,
            default_ttl: SimDuration::from_secs(60),
            host_ttl: vec![("pinned.example".into(), SimDuration::from_secs(5))],
        })
    }

    #[test]
    fn fresh_then_stale_then_revalidated() {
        let mut c = cache(4096);
        let k = key("scholar.google.com", "/");
        let t0 = SimTime::from_secs(0);
        c.insert(k.clone(), resp(100, "\"e1\""), SimDuration::from_secs(10), t0);
        assert!(matches!(c.lookup(&k, SimTime::from_secs(5)), Lookup::Fresh(_)));
        assert!(matches!(c.lookup(&k, SimTime::from_secs(10)), Lookup::Stale(_)));
        let body = c
            .revalidate(&k, SimDuration::from_secs(10), SimTime::from_secs(10), None)
            .expect("entry still present")
            .body
            .clone();
        assert_eq!(body.len(), 100);
        assert!(matches!(c.lookup(&k, SimTime::from_secs(19)), Lookup::Fresh(_)));
        assert_eq!(c.stats.revalidated, 1);
    }

    #[test]
    fn a_body_is_stored_and_read_without_being_copied() {
        let mut c = cache(1 << 20);
        let (t, ttl) = (SimTime::ZERO, SimDuration::from_secs(60));
        // A `Vec<u8>` body is adopted where it lies, and a hit's clone of
        // the body is that allocation again.
        let owned = resp(9000, "\"e\"");
        let lies_at = owned.body.as_ptr();
        c.insert(key("h", "/vec"), owned, ttl, t);
        let Lookup::Fresh(hit) = c.lookup(&key("h", "/vec"), t) else { panic!("fresh") };
        assert_eq!(hit.body.as_ptr(), lies_at);
        assert_eq!(hit.body.clone().as_ptr(), lies_at);
        // A `Bytes` body is shared with whoever inserted it.
        let shared = Bytes::from(vec![b'y'; 9000]);
        let CachedResponse { status, content_type, etag, max_age, .. } = resp(0, "\"e\"");
        let entry = CachedResponse { status, content_type, etag, max_age, body: shared.clone() };
        assert!(c.insert(key("h", "/bytes"), entry, ttl, t).inserted);
        assert_eq!(c.used_bytes(), 2 * (9000 + ENTRY_OVERHEAD) + "h/vec".len() + "h/bytes".len());
        let renewed = c.revalidate(&key("h", "/bytes"), ttl, t, None).expect("stored");
        assert_eq!(renewed.body.as_ptr(), shared.as_ptr());
    }

    #[test]
    fn ttl_resolution_precedence() {
        let c = cache(4096);
        // Operator override beats the origin's max-age.
        assert_eq!(c.ttl_for("pinned.example", Some(600)), SimDuration::from_secs(5));
        // Origin max-age beats the default.
        assert_eq!(c.ttl_for("scholar.google.com", Some(30)), SimDuration::from_secs(30));
        // Default when neither applies.
        assert_eq!(c.ttl_for("scholar.google.com", None), SimDuration::from_secs(60));
    }

    #[test]
    fn lru_eviction_order_is_least_recently_used() {
        // Three entries of cost 100+overhead each under a budget that
        // fits only three; touching `a` makes `b` the victim.
        let overhead = ENTRY_OVERHEAD + 3; // host "h" (1) + paths "/x" (2)
        let mut c = cache(3 * (100 + overhead));
        let t = SimTime::ZERO;
        let ttl = SimDuration::from_secs(60);
        for p in ["/a", "/b", "/c"] {
            c.insert(key("h", p), resp(100, "\"e\""), ttl, t);
        }
        let _ = c.lookup(&key("h", "/a"), t);
        let out = c.insert(key("h", "/d"), resp(100, "\"e\""), ttl, t);
        assert!(out.inserted);
        assert_eq!(out.evicted, vec![key("h", "/b")]);
        assert!(matches!(c.lookup(&key("h", "/b"), t), Lookup::Miss));
        assert!(matches!(c.lookup(&key("h", "/a"), t), Lookup::Fresh(_)));
    }

    #[test]
    fn oversized_body_is_rejected_and_replacement_drops_old_entry() {
        let mut c = cache(300);
        let k = key("h", "/big");
        let t = SimTime::ZERO;
        let ttl = SimDuration::from_secs(60);
        assert!(c.insert(k.clone(), resp(100, "\"v1\""), ttl, t).inserted);
        // The replacement is too big for the whole budget: rejected, and
        // the old entry must not survive to serve stale data.
        let out = c.insert(k.clone(), resp(4096, "\"v2\""), ttl, t);
        assert!(!out.inserted);
        assert!(matches!(c.lookup(&k, t), Lookup::Miss));
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.stats.rejected_oversize, 1);
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let mut c = cache(0);
        let k = key("h", "/");
        assert!(!c.enabled());
        assert!(!c.insert(k.clone(), resp(10, "\"e\""), SimDuration::from_secs(60), SimTime::ZERO).inserted);
        assert!(matches!(c.lookup(&k, SimTime::ZERO), Lookup::Miss));
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = cache(4096);
        c.note_miss();
        c.note_hit(100);
        c.note_hit(100);
        c.note_coalesced();
        assert_eq!(c.stats.served_from_cache(), 3);
        assert!((c.stats.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(c.stats.bytes_saved, 200);
    }

    #[test]
    fn fetch_log_filters_by_key_and_time() {
        let mut c = cache(4096);
        let k = key("scholar.google.com", "/");
        c.note_upstream_fetch(&k, SimTime::from_secs(1));
        c.note_upstream_fetch(&k, SimTime::from_secs(30));
        c.note_upstream_fetch(&key("scholar.google.com", "/css"), SimTime::from_secs(1));
        assert_eq!(c.stats.fetches_before("scholar.google.com", "/", 20_000_000), 1);
        assert_eq!(c.stats.fetches_before("scholar.google.com", "/", u64::MAX), 2);
    }
}
