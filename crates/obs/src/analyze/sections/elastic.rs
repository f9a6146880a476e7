//! The elastic remote tier: instance lifecycle, cold starts, blacklist
//! churn and the metered cost of the serverless pool.

use std::fmt::Write as _;

use crate::analyze::gate::{Bound, Gate, Unit};
use crate::analyze::json::{object, Row, TraceEvent};
use crate::analyze::{quantile_sorted, Section, Source, TraceAnalysis};

/// Aggregate of the elastic remote tier (`scholarcloud/elastic`
/// events): instance lifecycle transitions, cold-start latency
/// samples, blacklist churn, and the cumulative cost meters. The proxy
/// publishes the cost meters as running totals every autoscaler tick,
/// so the last `cost` event in the trace wins.
#[derive(Debug, Clone, Default)]
pub struct ElasticStats {
    /// Instances the autoscaler started provisioning.
    pub provisions: u64,
    /// Provisioned instances that finished their cold start.
    pub warms: u64,
    /// Instances drained because demand fell (idle timeout).
    pub drains_idle: u64,
    /// Instances drained because the GFW blacklisted their IP.
    pub drains_blacklist: u64,
    /// Drained instances fully retired (no in-flight streams left).
    pub retires: u64,
    /// Blacklist churns (breaker opened → retire + replace at a
    /// fresh address).
    pub churns: u64,
    /// Cold-start latencies observed (µs), in warm order.
    pub cold_starts_us: Vec<u64>,
    /// Peak live (warm + provisioning) instance count seen.
    pub peak_live: u64,
    /// Final cumulative per-invocation cost (micro-dollars).
    pub invocation_micro: u64,
    /// Final cumulative egress cost (micro-dollars).
    pub egress_micro: u64,
    /// Final cumulative warm-idle cost (micro-dollars).
    pub warm_micro: u64,
    /// Final cumulative total cost (micro-dollars).
    pub total_micro: u64,
    /// Instance state transitions in trace order:
    /// `(t_us, instance address, transition)` where transition is one
    /// of `provision`, `warm`, `drain`, `retire`, `churn`.
    pub timeline: Vec<(u64, String, String)>,
}

impl ElasticStats {
    /// Whether any elastic event appeared in the trace.
    pub fn any(&self) -> bool {
        self.provisions + self.warms + self.retires + self.churns + self.total_micro > 0
            || !self.timeline.is_empty()
    }

    /// p95 cold-start latency (µs); `None` without warm events.
    pub fn cold_start_p95_us(&self) -> Option<u64> {
        if self.cold_starts_us.is_empty() {
            return None;
        }
        let mut v = self.cold_starts_us.clone();
        v.sort_unstable();
        Some(quantile_sorted(&v, 0.95))
    }
}

impl TraceAnalysis {
    /// Elastic-tier cost per successful page load (micro-dollars);
    /// `None` when the trace carries no cost data or no load succeeded.
    pub fn cost_per_ok_load_micro(&self) -> Option<f64> {
        let ok = self.page_loads.iter().filter(|l| l.span.ok == Some(true)).count();
        if self.elastic.total_micro == 0 || ok == 0 {
            return None;
        }
        Some(self.elastic.total_micro as f64 / ok as f64)
    }
}

const GATES: &[Gate] = &[
    // The elastic remote tier's metered cost per *successful* page load
    // (the elastic-lab gate).
    Gate {
        flag: "--max-cost-per-load",
        threshold: Some((Unit::Dollars, Bound::AtMost)),
        what: "cost per successful load",
        metric: |a| a.cost_per_ok_load_micro().map(|micro| micro / 1_000_000.0),
        undefined: "no elastic cost data (or no successful loads), cost per load undefined",
        hint: "",
    },
];

impl Section for ElasticStats {
    fn vocabulary(&self) -> &'static [Source] {
        const EVENTS: &[&str] = &["provision", "warm", "drain", "retire", "churn", "cost"];
        &[("scholarcloud", "elastic", EVENTS)]
    }

    /// Instance lifecycle transitions plus the per-tick cost meters
    /// (running totals — last wins).
    fn ingest(&mut self, ev: &TraceEvent<'_>) {
        match &*ev.name {
            "provision" => self.provisions += 1,
            "warm" => {
                self.warms += 1;
                let us = ev
                    .get_u64("cold_start_us")
                    .or_else(|| ev.get_str("cold_start_us")?.parse().ok());
                self.cold_starts_us.extend(us);
            }
            "drain" => match ev.get_str("reason") {
                Some("blacklist") => self.drains_blacklist += 1,
                _ => self.drains_idle += 1,
            },
            "retire" => self.retires += 1,
            "churn" => self.churns += 1,
            _ => {
                let meter = |key| ev.get_u64(key).unwrap_or(0);
                self.peak_live = self.peak_live.max(meter("live"));
                self.invocation_micro = meter("invocation_micro");
                self.egress_micro = meter("egress_micro");
                self.warm_micro = meter("warm_micro");
                self.total_micro = meter("total_micro");
                return;
            }
        }
        if let Some(instance) = ev.get_str("instance") {
            self.timeline.push((ev.t_us, instance.to_string(), ev.name.to_string()));
        }
    }

    fn report(&self, a: &TraceAnalysis, out: &mut String) {
        if !self.any() {
            return;
        }
        out.push_str("\nelastic remote tier (serverless autoscaler):\n");
        let _ = writeln!(
            out,
            "  instances:    {} provisioned, {} warmed, {} retired  (peak live {})",
            self.provisions, self.warms, self.retires, self.peak_live
        );
        let _ = writeln!(
            out,
            "  drains:       {} idle, {} blacklist  ({} churns)",
            self.drains_idle, self.drains_blacklist, self.churns
        );
        let _ = writeln!(
            out,
            "  cold start:   p95 {}",
            self.cold_start_p95_us().map_or("n/a".to_string(), |us| format!("{us} µs")),
        );
        let _ = writeln!(
            out,
            "  cost:         {} µ$ total ({} invocation + {} egress + {} warm-idle)",
            self.total_micro, self.invocation_micro, self.egress_micro, self.warm_micro,
        );
        let _ = writeln!(
            out,
            "  per ok load:  {}",
            a.cost_per_ok_load_micro().map_or("n/a".to_string(), |c| format!("{c:.1} µ$")),
        );
        if !self.timeline.is_empty() {
            out.push_str("  timeline (first 12 transitions):\n");
            for (t, inst, what) in self.timeline.iter().take(12) {
                let _ = writeln!(out, "    {:>10} µs  {inst:<15} {what}", t);
            }
            if self.timeline.len() > 12 {
                let _ = writeln!(out, "    … {} more transitions", self.timeline.len() - 12);
            }
        }
    }

    fn json(&self, a: &TraceAnalysis) -> Vec<Row> {
        let lifecycle = counters!(
            self, provisions, warms, drains_idle, drains_blacklist, retires, churns, peak_live
        );
        let cold_start = [("cold_start_p95_us", self.cold_start_p95_us().into())];
        let meters = counters!(self, invocation_micro, egress_micro, warm_micro, total_micro);
        vec![
            ("cost_per_ok_load_micro", a.cost_per_ok_load_micro().into()),
            ("elastic", object(lifecycle.into_iter().chain(cold_start).chain(meters))),
        ]
    }

    fn gates(&self) -> &'static [Gate] {
        GATES
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::json::{parse_json, Json};
    use crate::analyze::tests::{analyzed, reparsed, span_pair};
    use crate::analyze::{render_json, render_report};
    use crate::event::{Event, Level};

    /// Elastic traces: lifecycle transitions + per-tick cost events
    /// aggregate into `ElasticStats`, the last cost event's running
    /// totals win, the report grows an elastic section, and the JSON
    /// carries the v4 block.
    #[test]
    fn elastic_events_aggregate_and_last_cost_wins() {
        let el = |t, name: &'static str, extra: &[(&'static str, &str)]| {
            let mut ev = Event::new(t, Level::Info, "scholarcloud", "elastic", name)
                .field("instance", "99.0.1.2");
            for (k, v) in extra {
                ev = ev.field(k, *v);
            }
            reparsed(&ev)
        };
        let cost = |t, live: u64, inv: u64, eg: u64, warm: u64| {
            reparsed(
                &Event::new(t, Level::Info, "scholarcloud", "elastic", "cost")
                    .field("warm", live)
                    .field("live", live)
                    .field("invocation_micro", inv)
                    .field("egress_micro", eg)
                    .field("warm_micro", warm)
                    .field("total_micro", inv + eg + warm),
            )
        };
        let mut evs = span_pair(1, "web", "page_load", 0, 1_000_000);
        evs.push(el(100, "provision", &[("cold_start_us", "400000")]));
        evs.push(el(400_100, "warm", &[("cold_start_us", "400000")]));
        evs.push(el(600_000, "churn", &[]));
        evs.push(el(700_000, "drain", &[("reason", "blacklist")]));
        evs.push(el(800_000, "drain", &[("reason", "idle")]));
        evs.push(el(900_000, "retire", &[]));
        evs.push(cost(500_000, 2, 100, 0, 10));
        evs.push(cost(1_000_000, 3, 250, 90, 40));
        let a = analyzed(&evs, 1_000_000);
        assert!(a.elastic.any());
        assert_eq!(a.elastic.provisions, 1);
        assert_eq!(a.elastic.warms, 1);
        assert_eq!(a.elastic.churns, 1);
        assert_eq!(a.elastic.drains_blacklist, 1);
        assert_eq!(a.elastic.drains_idle, 1);
        assert_eq!(a.elastic.retires, 1);
        assert_eq!(a.elastic.cold_start_p95_us(), Some(400_000));
        assert_eq!(a.elastic.peak_live, 3);
        // The cost meters are running totals: the later event wins.
        assert_eq!(a.elastic.total_micro, 380);
        assert_eq!(a.elastic.egress_micro, 90);
        // One successful page load → cost per ok load is the total.
        assert_eq!(a.cost_per_ok_load_micro(), Some(380.0));
        // Every lifecycle transition lands on the timeline; cost
        // events do not.
        assert_eq!(a.elastic.timeline.len(), 6);
        assert_eq!(a.elastic.timeline[0].2, "provision");
        let report = render_report(&a);
        assert!(report.contains("elastic remote tier"), "{report}");
        assert!(report.contains("per ok load:  380.0"), "{report}");
        let v = parse_json(&render_json(&a)).unwrap();
        let ej = v.get("elastic").expect("elastic object");
        assert_eq!(ej.get("total_micro").and_then(Json::as_u64), Some(380));
        assert_eq!(ej.get("cold_start_p95_us").and_then(Json::as_u64), Some(400_000));
        assert!(
            (v.get("cost_per_ok_load_micro").and_then(Json::as_f64).unwrap() - 380.0)
                .abs()
                < 1e-9
        );
        // A trace without elastic events renders no elastic section.
        let empty = analyzed(&[], 1_000_000);
        assert!(!empty.elastic.any());
        assert!(!render_report(&empty).contains("elastic remote tier"));
    }
}
