//! # sc-cache — shared HTTP content cache for the domestic proxy
//!
//! The paper's headline metric (§4.2, Fig. 5) splits page load time into
//! *first-time* vs *subsequent* loads, but that warm-path win lives in each
//! browser's private cache: the domestic proxy still pays one full blinded
//! tunnel round trip to the origin per client. This crate turns the
//! per-user speedup into a fleet-wide capacity multiplier — upstream bytes
//! through the scarce cross-border hop are the cost driver of the paper's
//! 2-VM deployment, so every shared hit is capacity reclaimed.
//!
//! Three pieces, all deterministic (every decision is a pure function of
//! the seeded simulation's clock — no wall time, no hash-order dependence):
//!
//! * [`ContentCache`] — an HTTP-semantics store keyed by `(host, path)`
//!   with per-entry TTL, ETag validators, and LRU eviction under a hard
//!   byte budget (the budget is never exceeded; pinned by proptests).
//! * [`Singleflight`] — request coalescing: concurrent misses for the same
//!   key collapse into one upstream fetch whose result fans out to every
//!   waiter, so a flash crowd on a hot Scholar page costs one tunnel
//!   stream instead of N.
//! * [`CacheHandle`] — the `Rc<RefCell<_>>` wrapper shared between the
//!   proxy (which owns the decisions) and the scenario/report layer (which
//!   reads [`CacheStats`]).

#![warn(missing_docs)]

pub mod shard;
pub mod singleflight;
pub mod store;

pub use shard::ShardMap;
pub use singleflight::{Flight, Role, Singleflight};
pub use store::{
    CacheConfig, CacheHandle, CacheKey, CacheStats, CachedResponse, ContentCache, InsertOutcome,
    Lookup, StoredResponse,
};
