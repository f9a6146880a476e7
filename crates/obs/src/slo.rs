//! Declarative SLOs evaluated over closed time-series windows, with
//! burn-rate alerting.
//!
//! The paper's ScholarCloud is an *operated service* (§3 deployment,
//! §4.5 scalability): its operators care about objectives like "page
//! loads complete under 6 s at the 95th percentile" and "whitelisted
//! domains stay ≥ 99% available", not raw counters. An [`SloSpec`]
//! states such an objective declaratively; the [`SloEngine`] evaluates
//! every spec each time a simulation-time window closes (driven by the
//! dispatcher's tick, see [`crate::tick`]) and converts violations into
//! **burn rate** — how fast the error budget is being consumed, where
//! 1.0 means "exactly on budget". Crossing [`SloSpec::fire_burn`]
//! raises an alert *event* through the normal sink path (component
//! `slo`, target `alert`, names `fire`/`resolve`), so alerts land in
//! the same JSONL trace as everything else and are byte-deterministic
//! for a seeded run. Hysteresis ([`SloSpec::resolve_burn`]) keeps a
//! flapping series from spamming fire/resolve pairs.

use std::fmt;
use std::fmt::Write as _;

use crate::event::Level;
use crate::sink::Fields;
use crate::timeseries::TimeSeries;

/// What an SLO asserts about a series.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Quantile `q` of a **sample** series must stay at/below `max_us`
    /// in each window. A window violating it is a "bad window"; burn is
    /// the bad-window fraction over the evaluation range divided by the
    /// budgeted fraction ([`SloSpec::budget`]).
    QuantileBelowUs {
        /// Sample series name (e.g. `web.plt_us`).
        series: String,
        /// Quantile in `[0, 1]`.
        q: f64,
        /// Ceiling in microseconds.
        max_us: u64,
    },
    /// `ok / (ok + err)` over the evaluation range must stay at/above
    /// `target` (both **rate** series). Burn is the observed error rate
    /// divided by the error budget `1 - target`.
    AvailabilityAtLeast {
        /// Rate series counting successes (e.g. `web.loads_ok`).
        ok_series: String,
        /// Rate series counting failures (e.g. `web.loads_failed`).
        err_series: String,
        /// Availability target in `(0, 1)`.
        target: f64,
    },
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::QuantileBelowUs { series, q, max_us } => {
                write!(f, "{series} p{:.0} ≤ {:.1} s", q * 100.0, *max_us as f64 / 1e6)
            }
            Objective::AvailabilityAtLeast { ok_series, err_series, target } => {
                write!(
                    f,
                    "{ok_series}/({ok_series}+{err_series}) ≥ {:.2}%",
                    target * 100.0
                )
            }
        }
    }
}

/// One declarative service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Short name carried on alert events (e.g. `plt-p95`).
    pub name: String,
    /// The objective.
    pub objective: Objective,
    /// Closed windows per sliding evaluation.
    pub eval_windows: usize,
    /// Budgeted bad-window fraction for quantile objectives (the
    /// availability objective derives its budget from `target`).
    pub budget: f64,
    /// Burn rate at/above which the alert fires.
    pub fire_burn: f64,
    /// Burn rate at/below which a firing alert resolves.
    pub resolve_burn: f64,
}

impl SloSpec {
    /// A quantile SLO with operational defaults: evaluated over the
    /// last 6 closed windows, 25% of windows budgeted bad, firing at
    /// burn ≥ 1 and resolving at burn ≤ 0.5.
    pub fn quantile(name: &str, series: &str, q: f64, max_us: u64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            objective: Objective::QuantileBelowUs { series: series.to_string(), q, max_us },
            eval_windows: 6,
            budget: 0.25,
            fire_burn: 1.0,
            resolve_burn: 0.5,
        }
    }

    /// An availability SLO with the same defaults.
    pub fn availability(name: &str, ok_series: &str, err_series: &str, target: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            objective: Objective::AvailabilityAtLeast {
                ok_series: ok_series.to_string(),
                err_series: err_series.to_string(),
                target,
            },
            eval_windows: 6,
            budget: 1.0 - target,
            fire_burn: 1.0,
            resolve_burn: 0.5,
        }
    }
}

/// Mutable alerting state of one SLO.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloStatus {
    /// Whether the alert is currently firing.
    pub firing: bool,
    /// `fire` transitions so far.
    pub fired: u64,
    /// `resolve` transitions so far.
    pub resolved: u64,
    /// Burn rate at the most recent evaluation.
    pub last_burn: f64,
    /// Worst burn rate seen.
    pub worst_burn: f64,
    /// Windows evaluated.
    pub evaluations: u64,
    /// Exemplar trace ids attached to the most recent `fire`: the worst
    /// requests inside that alert's burn window, worst first (bounded
    /// by [`crate::timeseries::EXEMPLARS_PER_WINDOW`]).
    pub last_exemplars: Vec<u64>,
}

/// One `fire` or `resolve` transition, handed to
/// [`SloEngine::evaluate`]'s caller to write.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert<'a> {
    /// The SLO's name.
    pub slo: &'a str,
    /// The closing edge of the window whose evaluation transitioned.
    pub t_us: u64,
    /// That window's index.
    pub window: u64,
    /// The burn rate over the evaluation range ending at that window.
    pub burn: f64,
    /// `fire` (true) or `resolve`.
    pub fire: bool,
    /// A `fire`'s exemplar trace ids, worst first; empty on a resolve.
    pub exemplars: &'a [u64],
}

impl Alert<'_> {
    /// `Warn` for a fire, `Info` for a resolve.
    pub fn level(&self) -> Level {
        if self.fire {
            Level::Warn
        } else {
            Level::Info
        }
    }

    /// The event name: `fire` or `resolve`.
    pub fn name(&self) -> &'static str {
        if self.fire {
            "fire"
        } else {
            "resolve"
        }
    }

    /// The alert's fields: `slo`, `burn`, `window`, and a fire's
    /// `exemplars` as comma-separated 16-digit hex trace ids.
    pub fn write_fields(&self, f: &mut Fields<'_>) {
        f.field("slo", self.slo).field("burn", self.burn).field("window", self.window);
        if !self.exemplars.is_empty() {
            let joined = self.exemplars.iter().map(|t| format!("{t:016x}")).collect::<Vec<_>>().join(",");
            f.field("exemplars", joined);
        }
    }
}

/// Evaluates a set of [`SloSpec`]s over a [`TimeSeries`] as windows
/// close, producing alerts.
#[derive(Debug, Clone, Default)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    status: Vec<SloStatus>,
    /// First window index not yet evaluated.
    next_window: u64,
}

impl SloEngine {
    /// Creates an engine over `specs`.
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        let status = specs.iter().map(|_| SloStatus::default()).collect();
        SloEngine { specs, status, next_window: 0 }
    }

    /// Adds one spec.
    pub fn push(&mut self, spec: SloSpec) {
        self.specs.push(spec);
        self.status.push(SloStatus::default());
    }

    /// Whether no SLOs are configured.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The configured specs.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Current per-spec status, parallel to [`SloEngine::specs`].
    pub fn statuses(&self) -> &[SloStatus] {
        &self.status
    }

    /// Whether any alert fired at least once.
    pub fn any_fired(&self) -> bool {
        self.status.iter().any(|s| s.fired > 0)
    }

    /// Total `fire` transitions across all SLOs.
    pub fn total_fired(&self) -> u64 {
        self.status.iter().map(|s| s.fired).sum()
    }

    /// Evaluates every window that has closed since the last call,
    /// handing each alert (timestamped at its window's closing edge) to
    /// `on_alert` in order.
    pub fn evaluate(&mut self, ts: &TimeSeries, mut on_alert: impl FnMut(&Alert<'_>)) {
        let closed = ts.closed_through();
        if self.specs.is_empty() {
            self.next_window = closed;
            return;
        }
        let width = ts.spec().width_us;
        while self.next_window < closed {
            let w = self.next_window;
            self.next_window += 1;
            let t_edge = (w + 1) * width;
            for (spec, st) in self.specs.iter().zip(&mut self.status) {
                let burn = burn_at(spec, ts, w);
                st.last_burn = burn;
                st.worst_burn = st.worst_burn.max(burn);
                st.evaluations += 1;
                let fire = if !st.firing && burn >= spec.fire_burn {
                    st.fired += 1;
                    // Link the alert to evidence: the worst exemplar
                    // trace ids inside this evaluation's burn window.
                    st.last_exemplars = exemplars_at(spec, ts, w);
                    true
                } else if st.firing && burn <= spec.resolve_burn {
                    st.resolved += 1;
                    false
                } else {
                    continue;
                };
                st.firing = fire;
                let exemplars: &[u64] = if fire { &st.last_exemplars } else { &[] };
                on_alert(&Alert { slo: &spec.name, t_us: t_edge, window: w, burn, fire, exemplars });
            }
        }
    }

    /// Renders the per-SLO verdict table: objective, final state, worst
    /// burn, and alert counts. Deterministic for a given engine state.
    pub fn verdict_table(&self) -> String {
        let mut out = String::new();
        out.push_str("SLO verdicts:\n");
        if self.specs.is_empty() {
            out.push_str("  (none configured)\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  {:<14} {:<40} {:<9} {:>10} {:>6} {:>9}",
            "slo", "objective", "state", "worst burn", "fired", "resolved"
        );
        for (spec, st) in self.specs.iter().zip(&self.status) {
            let state = if st.firing {
                "FIRING"
            } else if st.fired > 0 {
                "recovered"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {:<14} {:<40} {:<9} {:>10.2} {:>6} {:>9}",
                spec.name,
                spec.objective.to_string(),
                state,
                st.worst_burn,
                st.fired,
                st.resolved,
            );
        }
        out
    }
}

/// Burn rate of `spec` for the evaluation range ending at (and
/// including) closed window `w`.
fn burn_at(spec: &SloSpec, ts: &TimeSeries, w: u64) -> f64 {
    let lo = (w + 1).saturating_sub(spec.eval_windows as u64);
    match &spec.objective {
        Objective::QuantileBelowUs { series, q, max_us } => {
            let mut considered = 0u64;
            let mut bad = 0u64;
            for win in ts.windows(series) {
                if win.index < lo || win.index > w || win.count() == 0 {
                    continue;
                }
                considered += 1;
                if win.quantile(*q) > *max_us {
                    bad += 1;
                }
            }
            if considered == 0 {
                return 0.0;
            }
            let bad_frac = bad as f64 / considered as f64;
            round3(bad_frac / spec.budget.max(f64::EPSILON))
        }
        Objective::AvailabilityAtLeast { ok_series, err_series, target } => {
            let sum = |name: &str| -> u64 {
                ts.windows(name)
                    .filter(|win| win.index >= lo && win.index <= w)
                    .map(|win| win.total())
                    .sum()
            };
            let ok = sum(ok_series);
            let err = sum(err_series);
            if ok + err == 0 {
                return 0.0;
            }
            let err_rate = err as f64 / (ok + err) as f64;
            round3(err_rate / (1.0 - target).max(f64::EPSILON))
        }
    }
}

/// Rounds to 3 decimals so the burn value serializes compactly and
/// deterministically in JSONL traces.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// The worst exemplar trace ids inside `spec`'s evaluation range ending
/// at window `w`: quantile objectives draw from their sample series,
/// availability objectives from the failure series. Bounded by
/// [`EXEMPLARS_PER_WINDOW`](crate::timeseries::EXEMPLARS_PER_WINDOW),
/// worst value first, deduplicated, deterministic (stable sort over
/// window-ordered candidates).
fn exemplars_at(spec: &SloSpec, ts: &TimeSeries, w: u64) -> Vec<u64> {
    let lo = (w + 1).saturating_sub(spec.eval_windows as u64);
    let series = match &spec.objective {
        Objective::QuantileBelowUs { series, .. } => series,
        Objective::AvailabilityAtLeast { err_series, .. } => err_series,
    };
    let mut candidates: Vec<(u64, u64)> = ts
        .windows(series)
        .filter(|win| win.index >= lo && win.index <= w)
        .flat_map(|win| win.exemplars().iter().copied())
        .collect();
    candidates.sort_by(|a, b| b.0.cmp(&a.0));
    let mut out = Vec::new();
    for (_, trace) in candidates {
        if !out.contains(&trace) {
            out.push(trace);
        }
        if out.len() >= crate::timeseries::EXEMPLARS_PER_WINDOW {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{parse_line, TraceEvent};
    use crate::event::SpanId;
    use crate::timeseries::WindowSpec;

    fn ts_1s() -> TimeSeries {
        TimeSeries::new(WindowSpec::new(1_000_000, 64))
    }

    /// The alerts `eng` raises over `ts`, as the lines a dispatcher
    /// writes for them, read back.
    fn evaluated(eng: &mut SloEngine, ts: &TimeSeries) -> Vec<TraceEvent<'static>> {
        let mut lines = Vec::new();
        eng.evaluate(ts, |alert| {
            let mut line = String::new();
            let (t_us, level, name) = (alert.t_us, alert.level(), alert.name());
            crate::sink::write_line(&mut line, t_us, level, "slo", "alert", name, SpanId::NONE, |f| {
                alert.write_fields(f)
            });
            lines.push(parse_line(&line).expect("an alert line parses").into_owned());
        });
        lines
    }

    #[test]
    fn quantile_slo_fires_and_resolves_with_hysteresis() {
        let mut ts = ts_1s();
        let mut spec = SloSpec::quantile("plt", "plt_us", 0.95, 1_000);
        spec.eval_windows = 2;
        spec.budget = 0.5; // one bad window of two → burn 1.0 → fire
        let mut eng = SloEngine::new(vec![spec]);

        // Window 0 healthy, windows 1–2 bad, 3–4 healthy again.
        ts.record("plt_us", 100, 500);
        ts.record("plt_us", 1_100_000, 50_000);
        ts.record("plt_us", 2_100_000, 50_000);
        ts.record("plt_us", 3_100_000, 500);
        ts.record("plt_us", 4_100_000, 500);
        ts.advance(5_000_000);

        let alerts = evaluated(&mut eng, &ts);
        let names: Vec<&str> = alerts.iter().map(|e| &*e.name).collect();
        assert_eq!(names, ["fire", "resolve"], "{alerts:?}");
        assert_eq!(alerts[0].get_str("slo"), Some("plt"));
        assert_eq!(alerts[0].level, "warn");
        // Fired when window 1 closed (edge at 2 s).
        assert_eq!(alerts[0].t_us, 2_000_000);
        // Resolved when window 4 closed (both eval windows healthy).
        assert_eq!(alerts[1].t_us, 5_000_000);
        assert!(!eng.statuses()[0].firing);
        assert_eq!(eng.statuses()[0].fired, 1);
        assert!(eng.any_fired());
    }

    #[test]
    fn availability_slo_burn_is_error_rate_over_budget() {
        let mut ts = ts_1s();
        let mut spec = SloSpec::availability("avail", "ok", "err", 0.99);
        spec.eval_windows = 1;
        let mut eng = SloEngine::new(vec![spec]);
        // 95% availability against a 99% target: burn = 5% / 1% = 5.
        ts.bump("ok", 100, 95);
        ts.bump("err", 100, 5);
        ts.advance(1_000_000);
        let alerts = evaluated(&mut eng, &ts);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].name, "fire");
        assert_eq!(eng.statuses()[0].last_burn, 5.0);
    }

    #[test]
    fn empty_windows_do_not_alert() {
        let ts = {
            let mut t = ts_1s();
            t.advance(10_000_000);
            t
        };
        let mut eng = SloEngine::new(vec![SloSpec::quantile("q", "s", 0.95, 1)]);
        assert!(evaluated(&mut eng, &ts).is_empty());
        assert_eq!(eng.statuses()[0].last_burn, 0.0);
        assert_eq!(eng.statuses()[0].evaluations, 10);
    }

    #[test]
    fn evaluation_is_incremental_across_calls() {
        let mut ts = ts_1s();
        let mut spec = SloSpec::quantile("q", "s", 0.5, 10);
        spec.eval_windows = 1;
        spec.budget = 0.5;
        let mut eng = SloEngine::new(vec![spec]);
        ts.record("s", 100, 100);
        ts.advance(1_000_000);
        let first = evaluated(&mut eng, &ts);
        assert_eq!(first.len(), 1);
        // Re-evaluating with no new closed windows emits nothing.
        assert!(evaluated(&mut eng, &ts).is_empty());
        ts.advance(2_000_000);
        // The bad window leaves the 1-window range: resolve.
        let second = evaluated(&mut eng, &ts);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].name, "resolve");
    }

    #[test]
    fn fired_alerts_carry_worst_exemplars_from_the_burn_window() {
        let mut ts = ts_1s();
        let mut spec = SloSpec::quantile("plt", "plt_us", 0.95, 1_000);
        spec.eval_windows = 2;
        spec.budget = 0.5;
        let mut eng = SloEngine::new(vec![spec]);
        ts.record_ex("plt_us", 100, 500, 0xaaa); // window 0, healthy
        ts.record_ex("plt_us", 1_100_000, 90_000, 0xbbb); // window 1, bad → fire
        ts.record("plt_us", 1_200_000, 80_000); // untraced: never exemplar
        ts.advance(2_000_000);
        let alerts = evaluated(&mut eng, &ts);
        let fire = alerts.iter().find(|e| e.name == "fire").expect("fired");
        let ex = fire.get_str("exemplars").expect("exemplars field");
        // Worst first across the burn window: 0xbbb (90 ms) then 0xaaa.
        assert_eq!(ex, format!("{:016x},{:016x}", 0xbbbu64, 0xaaau64));
        assert_eq!(eng.statuses()[0].last_exemplars, vec![0xbbb, 0xaaa]);
        // Resolves carry no exemplars.
        ts.record("plt_us", 2_100_000, 10);
        ts.record("plt_us", 3_100_000, 10);
        ts.advance(4_000_000);
        let alerts = evaluated(&mut eng, &ts);
        let resolve = alerts.iter().find(|e| e.name == "resolve").expect("resolved");
        assert!(resolve.get("exemplars").is_none());
    }

    #[test]
    fn verdict_table_reflects_state() {
        let mut eng = SloEngine::new(Vec::new());
        assert!(eng.verdict_table().contains("none configured"));
        eng.push(SloSpec::quantile("plt-p95", "web.plt_us", 0.95, 6_000_000));
        let table = eng.verdict_table();
        assert!(table.contains("plt-p95"));
        assert!(table.contains("web.plt_us p95"));
        assert!(table.contains("ok"));
    }
}
