//! The shared cache's HTTP decisions: whether a request is answered from
//! a fresh entry, waits on a fetch already in flight or leads one; which
//! validator a leader's fetch sends; and, once the fetch lands, what the
//! store keeps and how each requester is answered.
//!
//! Like the store under it, [`CachePolicy`] is pure: no I/O, no trace, no
//! HTTP types, time passed in. It also writes every [`CacheStats`]
//! counter the store does not. The proxy's gateway parses requests,
//! routes the fetches this type starts, and turns its answers into HTTP
//! and its outcomes into trace events.

use std::hash::Hash;

use sc_simnet::bytes::Bytes;
use sc_simnet::hash::FixedMap;
use sc_simnet::time::SimTime;

use crate::singleflight::{Role, Singleflight};
use crate::store::{CacheKey, CacheStats, ContentCache, Lookup, StoredResponse};

/// What [`CachePolicy::request`] decided for one request. `H` is how a
/// hit is answered: an [`Answer`] borrowed from the store, or whatever
/// [`Plan::map_hit`] turns that into.
#[derive(Debug)]
pub enum Plan<H> {
    /// A fresh entry answers the requester now.
    Hit(H),
    /// A fetch for the key is in flight: the requester waits for it.
    Wait {
        /// The store holds an expired entry with a validator.
        stale: bool,
    },
    /// The requester leads the key's fetch.
    Lead(Lead),
}

impl<H> Plan<H> {
    /// The lookup's verdict as the trace records it: `hit`, `stale` (an
    /// expired entry with a validator) or `miss`.
    pub fn verdict(&self) -> &'static str {
        match self {
            Plan::Hit(_) => "hit",
            Plan::Wait { stale: true } | Plan::Lead(Lead { validator: Some(_), .. }) => "stale",
            _ => "miss",
        }
    }

    /// The same plan with a hit's answer passed through `f`.
    pub fn map_hit<T>(self, f: impl FnOnce(H) -> T) -> Plan<T> {
        match self {
            Plan::Hit(hit) => Plan::Hit(f(hit)),
            Plan::Wait { stale } => Plan::Wait { stale },
            Plan::Lead(lead) => Plan::Lead(lead),
        }
    }
}

/// A requester's answer from a cache entry.
#[derive(Debug, Clone, Copy)]
pub struct Answer<'a> {
    /// The entry, body shared with the store.
    pub entry: &'a StoredResponse,
    /// The validator the requester sent matches the entry's: a bodyless
    /// `304`, not the entry.
    pub not_modified: bool,
}

/// A fetch the policy started: where it goes and what it asks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lead {
    /// The etag of the entry the fetch revalidates, to send as
    /// `If-None-Match`: a `304` renews the entry.
    pub validator: Option<String>,
    /// The peer shard to fetch from; `None` goes upstream.
    pub owner: Option<usize>,
    /// An upstream fetch with nothing to revalidate: a miss.
    pub missed: bool,
}

/// The response a flight's fetch came back with, as the policy reads it.
#[derive(Debug, Clone, Copy)]
pub struct Upstream<'a> {
    /// Its status.
    pub status: u16,
    /// Its `ETag`.
    pub etag: Option<&'a str>,
    /// Its `max-age`.
    pub max_age: Option<u64>,
    /// Its `Content-Type`.
    pub content_type: Option<&'a str>,
    /// Its body, shared with whatever the policy stores.
    pub body: &'a Bytes,
}

/// What [`CachePolicy::settle`] did, and whom to answer how.
#[derive(Debug)]
pub struct Settled<W> {
    /// The entry a `200` stored or a `304` renewed, which answers every
    /// requester; `None`: every requester gets the upstream response as
    /// it came.
    pub entry: Option<StoredResponse>,
    /// A `304` renewed the stored entry.
    pub renewed: bool,
    /// A revalidation fetched from upstream came back a changed
    /// representation: it counted a miss after all.
    pub missed: bool,
    /// Keys the store evicted to make room, least recently used first.
    pub evicted: Vec<CacheKey>,
    /// The leader, then each waiter in arrival order, with whether its
    /// answer is a `304` ([`Answer::not_modified`]).
    pub answers: Vec<(W, bool)>,
}

/// The cache's decisions for requesters identified by `W` (the proxy's
/// browser connection handles): the coalescing table, the validator
/// each leading or waiting requester sent, and the stale entry each
/// revalidating flight renews.
#[derive(Debug)]
pub struct CachePolicy<W> {
    flights: Singleflight<W>,
    validators: FixedMap<W, String>,
    /// Shares its body with the store: no copy.
    stale: FixedMap<CacheKey, StoredResponse>,
}

impl<W: Copy + Eq + Hash> Default for CachePolicy<W> {
    fn default() -> Self {
        CachePolicy { flights: Singleflight::new(), validators: FixedMap::default(), stale: FixedMap::default() }
    }
}

impl<W: Copy + Eq + Hash> CachePolicy<W> {
    /// Fetches in flight.
    pub fn in_flight(&self) -> usize {
        self.flights.len()
    }

    /// One request for `key` from `requester`, which sent `validator`
    /// (its `If-None-Match`). `owner` is `None` for a request a peer
    /// shard forwarded (it is served here, and its fetch goes upstream);
    /// otherwise it is asked, only if the requester leads, for the peer
    /// shard to fetch from instead of upstream.
    pub fn request<'c>(
        &mut self,
        cache: &'c mut ContentCache,
        key: &CacheKey,
        requester: W,
        validator: Option<&str>,
        owner: Option<impl FnOnce() -> Option<usize>>,
        now: SimTime,
    ) -> Plan<Answer<'c>> {
        let (found, stats) = cache.find(key, now);
        stats.peer_serves += u64::from(owner.is_none());
        let stale = match found {
            Lookup::Fresh(entry) => {
                stats.hits += 1;
                stats.bytes_saved += entry.body.len() as u64;
                return Plan::Hit(Answer { entry, not_modified: matches(entry, validator) });
            }
            Lookup::Stale(entry) if !entry.etag.is_empty() => Some(entry),
            _ => None,
        };
        if let Some(validator) = validator {
            self.validators.insert(requester, validator.to_string());
        }
        if self.flights.begin(key, requester) == Role::Waiter {
            stats.coalesced += 1;
            return Plan::Wait { stale: stale.is_some() };
        }
        let validator = stale.map(|entry| {
            self.stale.insert(key.clone(), entry.clone());
            entry.etag.clone()
        });
        let owner = owner.and_then(|owner_of| owner_of());
        stats.peer_fetches += u64::from(owner.is_some());
        let missed = owner.is_none() && fetch_upstream(stats, key, now, validator.is_none());
        Plan::Lead(Lead { validator, owner, missed })
    }

    /// The fetch `key`'s flight sent to a peer shard failed: it goes
    /// upstream instead, revalidating with whatever validator the store
    /// holds for the key now.
    pub fn fall_back(&mut self, cache: &mut ContentCache, key: &CacheKey, now: SimTime) -> Lead {
        let revalidating = self.stale.contains_key(key);
        let validator = cache.etag_of(key).filter(|etag| revalidating && !etag.is_empty()).map(str::to_string);
        let missed = fetch_upstream(&mut cache.stats, key, now, !revalidating);
        Lead { validator, owner: None, missed }
    }

    /// `leader`'s fetch for `key` came back `upstream` (from a peer
    /// shard's cache when `via_peer`, so a changed representation is no
    /// local miss). A fetch that leads no flight — one the policy never
    /// saw — is answered with the upstream response as it came.
    pub fn settle(
        &mut self,
        cache: &mut ContentCache,
        key: &CacheKey,
        leader: W,
        upstream: Upstream<'_>,
        via_peer: bool,
        now: SimTime,
    ) -> Settled<W> {
        let Some((key, flight)) = self.flights.take(key, leader) else {
            let answers = vec![(leader, false)];
            return Settled { entry: None, renewed: false, missed: false, evicted: Vec::new(), answers };
        };
        let kept = self.stale.remove(&key);
        let ttl = cache.ttl_for(&key.0, upstream.max_age);
        let (mut renewed, mut missed, mut evicted) = (false, false, Vec::new());
        let entry = match upstream.status {
            304 if kept.is_some() => {
                let entry = cache.revalidate(&key, ttl, now, upstream.etag).cloned();
                renewed = entry.is_some();
                // The store evicted the entry while its revalidation was in
                // flight: the 304 confirmed the copy the flight kept.
                entry.or(kept)
            }
            200 => {
                let entry = StoredResponse {
                    status: 200,
                    content_type: upstream.content_type.unwrap_or("application/octet-stream").to_string(),
                    etag: upstream.etag.unwrap_or_default().to_string(),
                    max_age: upstream.max_age,
                    body: upstream.body.clone(),
                };
                missed = kept.is_some() && !via_peer;
                cache.stats.misses += u64::from(missed);
                evicted = cache.insert(key, entry.clone(), ttl, now).evicted;
                Some(entry)
            }
            _ => None,
        };
        if let Some(entry) = &entry {
            let answered = flight.waiters.len() + usize::from(upstream.status == 304);
            cache.stats.bytes_saved += (answered * entry.body.len()) as u64;
        }
        let answers = std::iter::once(flight.leader).chain(flight.waiters).map(|w| {
            let validator = self.validators.remove(&w);
            (w, entry.as_ref().is_some_and(|entry| matches(entry, validator.as_deref())))
        });
        Settled { answers: answers.collect(), entry, renewed, missed, evicted }
    }

    /// `leader`'s fetch for `key` failed: its flight ends, and its
    /// waiters, in arrival order, get the same failure.
    pub fn fail(&mut self, key: &CacheKey, leader: W) -> Vec<W> {
        let Some((key, flight)) = self.flights.take(key, leader) else { return Vec::new() };
        self.stale.remove(&key);
        for w in std::iter::once(&flight.leader).chain(&flight.waiters) {
            self.validators.remove(w);
        }
        flight.waiters
    }

    /// `requester` went away. A waiter just leaves; a leader hands its
    /// flight to the first waiter, returned so the caller can replay the
    /// fetch upstream under it; a leader alone ends the flight.
    pub fn leave(&mut self, cache: &mut ContentCache, key: &CacheKey, requester: W, now: SimTime) -> Option<W> {
        self.validators.remove(&requester);
        let promoted = self.flights.forget(key, requester);
        match promoted {
            Some(_) => _ = fetch_upstream(&mut cache.stats, key, now, false),
            None if self.flights.leader(key).is_none() => _ = self.stale.remove(key),
            None => {}
        }
        promoted
    }
}

/// A requester's `validator` matches `entry`'s etag.
fn matches(entry: &StoredResponse, validator: Option<&str>) -> bool {
    !entry.etag.is_empty() && validator == Some(entry.etag.as_str())
}

/// Logs an upstream fetch of `key` at `now`, and counts it a miss if it
/// is one. Returns `miss`.
fn fetch_upstream(stats: &mut CacheStats, key: &CacheKey, now: SimTime, miss: bool) -> bool {
    stats.upstream_fetches.push((now.as_micros(), format!("{} {}", key.0, key.1)));
    stats.misses += u64::from(miss);
    miss
}
