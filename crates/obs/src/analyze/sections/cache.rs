//! The shared content cache: how the domestic proxy answered
//! plain-HTTP gateway requests, in total and per fleet shard.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::analyze::gate::{Bound, Gate, Unit};
use crate::analyze::json::{object, Row, TraceEvent};
use crate::analyze::{Section, Source, TraceAnalysis};

/// Aggregate of the domestic proxy's `scholarcloud/cache` events: how
/// the shared content cache answered plain-HTTP gateway requests.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Requests served directly from a fresh entry.
    pub hits: u64,
    /// Requests that triggered a full upstream fetch.
    pub misses: u64,
    /// Requests attached as waiters to an in-flight fetch.
    pub coalesced: u64,
    /// Stale entries refreshed by a 304 from the origin.
    pub revalidated: u64,
    /// Entries evicted under byte-budget pressure.
    pub evicted: u64,
    /// Shard index → that shard's share of the counters above. Fleet
    /// members tag their cache decisions with their shard index;
    /// single-proxy traces carry no such field and leave this empty
    /// (as it is inside every entry). The fleet section prints it.
    pub by_shard: BTreeMap<u64, CacheStats>,
}

impl CacheStats {
    /// Requests the cache answered without a full upstream body fetch.
    pub fn served(&self) -> u64 {
        self.hits + self.coalesced + self.revalidated
    }

    /// Fraction of cache-path requests answered without a full upstream
    /// fetch (`0.0` when the trace carries no cache decisions).
    pub fn hit_rate(&self) -> f64 {
        let total = self.served() + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.served() as f64 / total as f64
    }

    /// Whether any cache event appeared in the trace.
    pub fn any(&self) -> bool {
        self.served() + self.misses + self.evicted > 0
    }

    fn count(&mut self, event: &str) {
        match event {
            "hit" => self.hits += 1,
            "miss" => self.misses += 1,
            "coalesced" => self.coalesced += 1,
            "revalidated" => self.revalidated += 1,
            _ => self.evicted += 1,
        }
    }
}

const GATES: &[Gate] = &[
    // Share of the domestic proxy's cache-path requests answered
    // without a full upstream fetch (the shared-cache gate).
    Gate {
        flag: "--min-cache-hit-rate",
        threshold: Some((Unit::Fraction, Bound::AtLeast)),
        what: "cache hit rate",
        metric: |a| a.cache.any().then(|| a.cache.hit_rate()),
        undefined: "no scholarcloud cache events in trace",
        hint: "",
    },
];

impl Section for CacheStats {
    fn vocabulary(&self) -> &'static [Source] {
        &[("scholarcloud", "cache", &["hit", "miss", "coalesced", "revalidated", "evicted"])]
    }

    fn ingest(&mut self, ev: &TraceEvent<'_>) {
        self.count(&ev.name);
        if let Some(shard) = ev.get_u64("shard") {
            self.by_shard.entry(shard).or_default().count(&ev.name);
        }
    }

    fn report(&self, _: &TraceAnalysis, out: &mut String) {
        if !self.any() {
            return;
        }
        out.push_str("\nshared cache (scholarcloud gateway):\n");
        let _ = writeln!(out, "  hits:         {}", self.hits);
        let _ = writeln!(out, "  misses:       {}", self.misses);
        let _ = writeln!(out, "  coalesced:    {}", self.coalesced);
        let _ = writeln!(out, "  revalidated:  {}", self.revalidated);
        let _ = writeln!(out, "  evicted:      {}", self.evicted);
        let _ = writeln!(out, "  hit rate:     {:.1}%", self.hit_rate() * 100.0);
    }

    fn json(&self, _: &TraceAnalysis) -> Vec<Row> {
        vec![
            ("cache_hit_rate", self.hit_rate().into()),
            ("cache", object(counters!(self, hits, misses, coalesced, revalidated, evicted))),
        ]
    }

    fn gates(&self) -> &'static [Gate] {
        GATES
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::tests::{analyzed, reparsed};
    use crate::analyze::render_report;
    use crate::event::{Event, Level};

    #[test]
    fn cache_events_aggregate_into_stats() {
        let mk = |t, name: &'static str| {
            reparsed(
                &Event::new(t, Level::Debug, "scholarcloud", "cache", name)
                    .field("host", "scholar.google.com")
                    .field("path", "/"),
            )
        };
        let evs = vec![
            mk(100, "miss"),
            mk(200, "coalesced"),
            mk(300, "coalesced"),
            mk(400, "hit"),
            mk(500, "revalidated"),
            mk(600, "evicted"),
            // Same names under a different target must not count.
            reparsed(&Event::new(700, Level::Debug, "web", "cache", "hit")),
        ];
        let a = analyzed(&evs, 1_000_000);
        assert_eq!(a.cache.hits, 1);
        assert_eq!(a.cache.misses, 1);
        assert_eq!(a.cache.coalesced, 2);
        assert_eq!(a.cache.revalidated, 1);
        assert_eq!(a.cache.evicted, 1);
        assert_eq!(a.cache.served(), 4);
        assert!((a.cache.hit_rate() - 0.8).abs() < 1e-9);
        assert!(a.cache.any());
        let report = render_report(&a);
        assert!(report.contains("shared cache (scholarcloud gateway)"));
        assert!(report.contains("hit rate:     80.0%"));
        // A trace with no cache events renders no cache section.
        let empty = analyzed(&[], 1_000_000);
        assert!(!empty.cache.any());
        assert!(!render_report(&empty).contains("shared cache"));
    }
}
