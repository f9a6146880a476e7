//! The domestic-proxy fleet: browser-side PAC failover, proxy-side
//! cache peering and fleet-wide shedding, and the per-shard table that
//! joins peering with the cache section's per-shard decisions.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use super::cache::CacheStats;
use crate::analyze::gate::{Bound, Gate, Unit};
use crate::analyze::json::{object, Json, Row, TraceEvent};
use crate::analyze::{Section, Source, TraceAnalysis};

/// Aggregate of the domestic-proxy *fleet* events: browser-side PAC
/// failover (`web/fleet`) and proxy-side cache peering + fleet-wide
/// shedding (`scholarcloud/fleet`).
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Browser connects to a fleet member that succeeded.
    pub connect_ok: u64,
    /// Browser connects that failed (timeout / refusal / reset).
    pub connect_fail: u64,
    /// Members dead-marked by a browser (with re-probe backoff).
    pub dead_marks: u64,
    /// Dead-marked members that rejoined via a successful re-probe.
    pub recoveries: u64,
    /// Page loads replayed down the PAC fallback list.
    pub failovers: u64,
    /// Non-owner misses forwarded to the owning shard (requester side).
    pub peer_fetches: u64,
    /// Peer-forwarded requests answered as the key's owner.
    pub peer_serves: u64,
    /// Peers dead-marked by a proxy after a failed peering hop.
    pub peer_deaths: u64,
    /// Requests shed by fleet-wide admission pressure (sickest shard).
    pub fleet_sheds: u64,
    /// Shard index → `(peer fetches sent, peer requests served)`.
    pub shard_peering: BTreeMap<u64, (u64, u64)>,
}

impl FleetStats {
    /// Fraction of browser→member connects that succeeded (`None` when
    /// the trace carries no fleet connect events).
    pub fn availability(&self) -> Option<f64> {
        let total = self.connect_ok + self.connect_fail;
        if total == 0 {
            return None;
        }
        Some(self.connect_ok as f64 / total as f64)
    }

    /// Whether any fleet event appeared in the trace.
    pub fn any(&self) -> bool {
        self.connect_ok
            + self.connect_fail
            + self.dead_marks
            + self.failovers
            + self.peer_fetches
            + self.peer_serves
            + self.fleet_sheds
            > 0
    }

    /// The peering counters of the shard that emitted `ev`, if it says.
    fn peering(&mut self, ev: &TraceEvent<'_>) -> Option<&mut (u64, u64)> {
        Some(self.shard_peering.entry(ev.get_u64("shard")?).or_default())
    }

    /// One row per shard that made a cache decision or a peering hop:
    /// `(shard, its cache decisions, (peer fetches, peer serves))`.
    fn shards(&self, cache: &CacheStats) -> Vec<(u64, CacheStats, (u64, u64))> {
        let keys: BTreeSet<u64> =
            cache.by_shard.keys().chain(self.shard_peering.keys()).copied().collect();
        keys.into_iter()
            .map(|shard| {
                let decisions = cache.by_shard.get(&shard).cloned().unwrap_or_default();
                (shard, decisions, self.shard_peering.get(&shard).copied().unwrap_or((0, 0)))
            })
            .collect()
    }
}

const GATES: &[Gate] = &[
    // Share of browser connects to domestic-fleet members that
    // succeeded (the fleet-chaos gate: a crashed member may cost the
    // connects that discover it, not sustained availability).
    Gate {
        flag: "--min-fleet-availability",
        threshold: Some((Unit::Fraction, Bound::AtLeast)),
        what: "fleet availability",
        metric: |a| a.fleet.availability(),
        undefined: "no fleet connect events in trace, fleet availability undefined",
        hint: "",
    },
];

impl Section for FleetStats {
    fn vocabulary(&self) -> &'static [Source] {
        // Browser-side: PAC failover and member liveness, as observed
        // through connect outcomes. Proxy-side: the cache-peering hop,
        // peer liveness, and fleet-wide admission shedding.
        const WEB: &[&str] =
            &["connect_ok", "connect_fail", "proxy_dead", "proxy_recovered", "failover"];
        const PROXY: &[&str] = &["peer_fetch", "peer_serve", "peer_dead", "fleet_shed"];
        &[("web", "fleet", WEB), ("scholarcloud", "fleet", PROXY)]
    }

    fn ingest(&mut self, ev: &TraceEvent<'_>) {
        match &*ev.name {
            "connect_ok" => self.connect_ok += 1,
            "connect_fail" => self.connect_fail += 1,
            "proxy_dead" => self.dead_marks += 1,
            "proxy_recovered" => self.recoveries += 1,
            "failover" => self.failovers += 1,
            "peer_fetch" => {
                if let Some(shard) = self.peering(ev) {
                    shard.0 += 1;
                }
                self.peer_fetches += 1;
            }
            "peer_serve" => {
                if let Some(shard) = self.peering(ev) {
                    shard.1 += 1;
                }
                self.peer_serves += 1;
            }
            "peer_dead" => self.peer_deaths += 1,
            _ => self.fleet_sheds += 1,
        }
    }

    fn report(&self, a: &TraceAnalysis, out: &mut String) {
        if !self.any() && a.cache.by_shard.is_empty() {
            return;
        }
        out.push_str("\ndomestic fleet (PAC failover + cache peering):\n");
        let up = self.availability().map(|av| format!("  (availability {:.1}%)", av * 100.0));
        let _ = writeln!(
            out,
            "  connects:     {} ok / {} failed{}",
            self.connect_ok,
            self.connect_fail,
            up.unwrap_or_default(),
        );
        let _ = writeln!(
            out,
            "  members:      {} dead-marks, {} failovers, {} recoveries",
            self.dead_marks, self.failovers, self.recoveries
        );
        let _ = writeln!(
            out,
            "  peering:      {} fetches, {} serves, {} peer deaths",
            self.peer_fetches, self.peer_serves, self.peer_deaths
        );
        let _ = writeln!(out, "  fleet sheds:  {}", self.fleet_sheds);
        let shards = self.shards(&a.cache);
        if !shards.is_empty() {
            let _ = writeln!(
                out,
                "  {:<7} {:>7} {:>8} {:>10} {:>10} {:>10}",
                "shard", "hits", "misses", "hit rate", "peer out", "peer in"
            );
        }
        for (shard, cs, (fetches, serves)) in shards {
            let _ = writeln!(
                out,
                "  {shard:<7} {:>7} {:>8} {:>9.1}% {fetches:>10} {serves:>10}",
                cs.hits,
                cs.misses,
                cs.hit_rate() * 100.0,
            );
        }
    }

    fn json(&self, a: &TraceAnalysis) -> Vec<Row> {
        let shards = self.shards(&a.cache).into_iter().map(|(shard, cs, (fetches, serves))| {
            object([
                ("shard", shard.into()),
                ("hits", cs.hits.into()),
                ("misses", cs.misses.into()),
                ("coalesced", cs.coalesced.into()),
                ("revalidated", cs.revalidated.into()),
                ("hit_rate", cs.hit_rate().into()),
                ("peer_fetches", fetches.into()),
                ("peer_serves", serves.into()),
            ])
        });
        let counters = counters!(
            self, connect_ok, connect_fail, dead_marks, failovers, recoveries, peer_fetches,
            peer_serves, peer_deaths, fleet_sheds
        );
        let shards = [("shards", Json::Arr(shards.collect()))];
        vec![
            ("fleet_availability", self.availability().into()),
            ("fleet", object(counters.into_iter().chain(shards))),
        ]
    }

    fn gates(&self) -> &'static [Gate] {
        GATES
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::json::{parse_json, Json};
    use crate::analyze::tests::{analyzed, reparsed};
    use crate::analyze::{render_json, render_report};
    use crate::event::{Event, Level};

    /// Fleet traces: `web/fleet` + `scholarcloud/fleet` events and
    /// shard-tagged cache decisions aggregate into `FleetStats`, the
    /// report grows a fleet section, and the JSON carries the v3 block.
    #[test]
    fn fleet_events_aggregate_per_shard() {
        let web = |t, name: &'static str| {
            reparsed(
                &Event::new(t, Level::Debug, "web", "fleet", name)
                    .field("proxy", "10.1.0.2:8080"),
            )
        };
        let sc = |t, name: &'static str, shard: u64| {
            reparsed(
                &Event::new(t, Level::Debug, "scholarcloud", "fleet", name)
                    .field("shard", shard),
            )
        };
        let cache = |t, name: &'static str, shard: u64| {
            reparsed(
                &Event::new(t, Level::Debug, "scholarcloud", "cache", name)
                    .field("shard", shard),
            )
        };
        let evs = vec![
            web(100, "connect_ok"),
            web(200, "connect_ok"),
            web(300, "connect_fail"),
            web(310, "proxy_dead"),
            web(320, "failover"),
            web(900, "proxy_recovered"),
            sc(400, "peer_fetch", 1),
            sc(410, "peer_serve", 0),
            sc(500, "peer_dead", 1),
            sc(600, "fleet_shed", 2),
            cache(700, "hit", 0),
            cache(710, "hit", 0),
            cache(720, "miss", 1),
        ];
        let a = analyzed(&evs, 1_000_000);
        assert_eq!(a.fleet.connect_ok, 2);
        assert_eq!(a.fleet.connect_fail, 1);
        assert_eq!(a.fleet.dead_marks, 1);
        assert_eq!(a.fleet.failovers, 1);
        assert_eq!(a.fleet.recoveries, 1);
        assert_eq!(a.fleet.peer_fetches, 1);
        assert_eq!(a.fleet.peer_serves, 1);
        assert_eq!(a.fleet.peer_deaths, 1);
        assert_eq!(a.fleet.fleet_sheds, 1);
        assert!((a.fleet.availability().unwrap() - 2.0 / 3.0).abs() < 1e-9);
        // Shard-tagged cache events split per shard AND still count in
        // the fleet-wide cache totals.
        assert_eq!(a.cache.hits, 2);
        assert_eq!(a.cache.misses, 1);
        assert_eq!(a.cache.by_shard.get(&0).map(|s| s.hits), Some(2));
        assert_eq!(a.cache.by_shard.get(&1).map(|s| s.misses), Some(1));
        assert_eq!(a.fleet.shard_peering.get(&1), Some(&(1, 0)));
        assert_eq!(a.fleet.shard_peering.get(&0), Some(&(0, 1)));
        let report = render_report(&a);
        assert!(report.contains("domestic fleet (PAC failover + cache peering)"));
        assert!(report.contains("availability 66.7%"));
        let v = parse_json(&render_json(&a)).unwrap();
        let fleet = v.get("fleet").expect("fleet object");
        assert_eq!(fleet.get("connect_ok").and_then(Json::as_u64), Some(2));
        // Shards 0 and 1 carried cache/peering traffic; the shard that
        // only shed (2) has no per-shard row.
        assert_eq!(fleet.get("shards").and_then(Json::as_arr).map(<[_]>::len), Some(2));
        // A single-proxy trace renders no fleet section.
        let empty = analyzed(&[], 1_000_000);
        assert!(!empty.fleet.any());
        assert!(!render_report(&empty).contains("domestic fleet"));
    }
}
