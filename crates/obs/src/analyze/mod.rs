//! Offline trace analytics: parse `SC_TRACE` JSONL files and explain
//! where runs spent their time and when the censor interfered.
//!
//! The JSONL trace a run leaves behind (see [`crate::JsonlSink`]) is
//! the raw material; this module turns it into the views an operator of
//! the paper's service would start from:
//!
//! 1. **Critical-path decomposition** of `page_load` spans — how much
//!    of each page load went to DNS, TCP connect, tunnel/TLS setup, and
//!    fetching, and how much of the load's wall-clock the instrumented
//!    phases actually cover (the rest is think/queue time);
//! 2. **Per-rule interference timeline** — which GFW rules fired, in
//!    which simulation-time window (motivated by arXiv:1709.08718's
//!    observation that interference *clusters* in time);
//! 3. **Per-component event rates** and windowed `page_load`
//!    percentiles (PTPerf, arXiv:2309.14856, shows transport
//!    comparisons hinge on time-resolved percentiles, not run-wide
//!    aggregates);
//! 4. **One block per layer** of the deployment — admission, cache,
//!    fleet, elastic tier, adaptive censor.
//!
//! The module is a spine and a list. The spine (this file, [`json`],
//! [`trace`], [`spans`], [`gate`]) knows traces, spans, page loads and
//! what no single layer owns. Everything the analyzer knows about a
//! layer — the events it reads, its aggregate, its report block, its
//! `--json` keys, its gates — is one [`Section`] in one file under
//! `sections/`, and [`TraceAnalysis::sections`] is the list of them that
//! [`Trace`], [`render_report`], [`render_json`] and [`gate::gates`]
//! walk. Adding a layer is one such file and its row here (DESIGN.md
//! §6b).

/// Object rows for counters whose schema key is the field's own name.
macro_rules! counters {
    ($stats:expr, $($field:ident),*) => {
        [$((stringify!($field), $stats.$field.into())),*]
    };
}

pub mod gate;
pub mod json;
pub mod spans;
pub mod trace;
/// One file per layer, each a [`Section`].
pub mod sections {
    pub mod adaptive;
    pub mod admission;
    pub mod cache;
    pub mod elastic;
    pub mod fleet;
}

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use gate::{gates, Bound, Gate, Unit};
pub use json::{parse_json, parse_line, Json, JsonValue, Row, TraceEvent, MAX_DEPTH};
pub use sections::adaptive::AdaptiveStats;
pub use sections::admission::AdmissionStats;
pub use sections::cache::CacheStats;
pub use sections::elastic::ElasticStats;
pub use sections::fleet::FleetStats;
pub use spans::{render_waterfall, ClosedSpan, PageLoad, PhaseAgg, TraceSpan, TraceTree, PHASES};
pub use trace::{analyze, parse_trace, read_trace, ReadError, Trace};

/// Where some of a section's events come from: `(component, target,
/// event names)`.
pub type Source = (&'static str, &'static str, &'static [&'static str]);

/// One layer of the deployment as the analyzer sees it. The aggregate
/// that implements this is a field of [`TraceAnalysis`]; the methods
/// are everything else the analyzer knows about the layer.
pub trait Section {
    /// The events this layer reads. No event is in two sections'
    /// vocabularies: the [`Trace`] fold hands each event to at most one.
    fn vocabulary(&self) -> &'static [Source];
    /// Counts one event; only ever called with one from the vocabulary.
    fn ingest(&mut self, ev: &TraceEvent<'_>);
    /// Appends the layer's block of the text report — nothing when the
    /// trace carried none of its events. `a` is the analysis this
    /// section is part of, for what the block reads beyond its own
    /// counters (page loads, a neighbouring layer).
    fn report(&self, a: &TraceAnalysis, out: &mut String);
    /// The layer's top-level `--json` members, in schema order; always
    /// all of them, `null` or zero when the trace lacks the events.
    fn json(&self, a: &TraceAnalysis) -> Vec<Row>;
    /// The gate flags that read this layer.
    fn gates(&self) -> &'static [Gate];
}

/// Everything the analyzer extracts from one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    /// Events parsed.
    pub events: usize,
    /// Last event timestamp (µs).
    pub t_end_us: u64,
    /// Events per component.
    pub component_counts: BTreeMap<String, u64>,
    /// Spans closed by a matching `span_end`.
    pub spans_closed: usize,
    /// `span_start`s never matched by a `span_end`.
    pub unclosed_spans: usize,
    /// Reconstructed page loads, in start order.
    pub page_loads: Vec<PageLoad>,
    /// Durations (µs) of the page loads that did not fail, ascending:
    /// what every run-wide PLT figure is read from.
    pub plts_us: Vec<u64>,
    /// Phase aggregates across all page loads, by [`PHASES`] name.
    pub phase_totals: BTreeMap<&'static str, PhaseAgg>,
    /// rule → window index → interference event count.
    pub rule_timeline: BTreeMap<String, BTreeMap<u64, u64>>,
    /// SLO alerts found in the trace: `(t_us, fire|resolve, slo, burn)`.
    pub slo_alerts: Vec<(u64, String, String, f64)>,
    /// Exemplar trace ids carried on fired alerts:
    /// `(t_us, slo, trace ids)` — the worst requests of the burn window.
    pub alert_exemplars: Vec<(u64, String, Vec<u64>)>,
    /// Stitched per-request trace trees, in trace-id order.
    pub trees: Vec<TraceTree>,
    /// Exclusive time blamed on each tier, summed over completed
    /// requests' trees.
    pub tier_totals: BTreeMap<&'static str, u64>,
    /// Injected faults, in time order: `(t_us, "component/name")` —
    /// `simnet/link_down`, `gfw/blacklist_ip`, ….
    pub faults: Vec<(u64, String)>,
    /// Timestamps of ScholarCloud failover decisions (a retry moved to a
    /// different remote).
    pub failover_times: Vec<u64>,
    /// Circuit-breaker transitions: `(t_us, remote, from, to)`.
    pub breaker_transitions: Vec<(u64, String, String, String)>,
    /// ScholarCloud connect retries scheduled (each after a backoff).
    pub retries: u64,
    /// Plaintext bytes the domestic proxy relayed back from its remotes:
    /// the `bytes_down` its relay spans close with. A stream still open
    /// when the trace ends, or garbled, closes with none.
    pub bytes_down: u64,
    /// Overload-control decisions.
    pub admission: AdmissionStats,
    /// Shared-cache decisions, in total and per fleet shard.
    pub cache: CacheStats,
    /// Domestic-fleet activity.
    pub fleet: FleetStats,
    /// Elastic remote-tier activity.
    pub elastic: ElasticStats,
    /// Reactive-censor arms-race activity.
    pub adaptive: AdaptiveStats,
    /// Window width used for timelines (µs).
    pub window_us: u64,
}

/// The layers in report order: one row makes both the shared and the
/// mutable view of the list.
macro_rules! section_list {
    ($($layer:ident),*) => {
        const LAYERS: usize = [$(stringify!($layer)),*].len();

        /// The layers, in report order.
        pub fn sections(&self) -> [&dyn Section; Self::LAYERS] {
            [$(&self.$layer),*]
        }

        fn sections_mut(&mut self) -> [&mut dyn Section; Self::LAYERS] {
            [$(&mut self.$layer),*]
        }
    };
}

impl TraceAnalysis {
    section_list!(admission, cache, fleet, elastic, adaptive);

    /// Fraction of finished page loads that succeeded, if any finished.
    pub fn availability(&self) -> Option<f64> {
        self.availability_since(0)
    }

    /// [`Self::availability`] over the page loads that finished at or
    /// after `start_us`.
    fn availability_since(&self, start_us: u64) -> Option<f64> {
        let finished =
            || self.page_loads.iter().filter(|l| l.span.ok.is_some() && l.span.end_us >= start_us);
        let total = finished().count();
        if total == 0 {
            return None;
        }
        Some(finished().filter(|l| l.span.ok == Some(true)).count() as f64 / total as f64)
    }

    /// Looks up a stitched tree by trace id.
    pub fn tree(&self, trace_id: u64) -> Option<&TraceTree> {
        let i = self.trees.binary_search_by_key(&trace_id, |t| t.trace_id).ok()?;
        Some(&self.trees[i])
    }

    /// Fraction of completed requests whose trace stitched across
    /// tiers (`None` when the trace has no completed requests).
    pub fn attribution_coverage(&self) -> Option<f64> {
        let completed = self.trees.iter().filter(|t| t.completed()).count();
        if completed == 0 {
            return None;
        }
        let stitched =
            self.trees.iter().filter(|t| t.completed() && t.stitched()).count();
        Some(stitched as f64 / completed as f64)
    }

    /// Completed trees, slowest first (ties broken by trace id) —
    /// the "worst requests" view the report and exemplars reference.
    pub fn slowest(&self, k: usize) -> Vec<&TraceTree> {
        let mut completed: Vec<&TraceTree> =
            self.trees.iter().filter(|t| t.completed()).collect();
        completed.sort_by_key(|t| (std::cmp::Reverse(t.plt_us), t.trace_id));
        completed.truncate(k);
        completed
    }
}

/// Exact quantile of a sorted slice (nearest-rank).
fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The mean of `values` over `n` items; the sum cannot overflow.
fn mean(values: impl Iterator<Item = u64>, n: f64) -> f64 {
    values.map(u128::from).sum::<u128>() as f64 / n
}

/// Widest interference lane, in windows. A trace that runs longer is
/// clipped there (and the clip marked): a lane is one character per
/// window from 0 to the last timestamp, and a timestamp is any `u64`.
const LANE_WINDOWS: u64 = 1024;

/// Renders the full analysis report: header, per-component rates,
/// critical-path table, windowed page-load percentiles, interference
/// timeline, faults, one block per layer that has events, cross-tier
/// attribution and SLO alerts. Deterministic for a given trace.
pub fn render_report(a: &TraceAnalysis) -> String {
    let mut out = String::new();
    let sim_s = a.t_end_us as f64 / 1e6;
    let wsec = a.window_us as f64 / 1e6;
    let _ = writeln!(out, "scholar-obs — trace analysis");
    let _ = writeln!(
        out,
        "  events: {}   sim span: {:.1} s   spans: {} closed, {} unclosed",
        a.events,
        sim_s,
        a.spans_closed,
        a.unclosed_spans
    );

    out.push_str("\nper-component event rates:\n");
    for (comp, n) in &a.component_counts {
        let rate = if sim_s > 0.0 { *n as f64 / sim_s } else { 0.0 };
        let _ = writeln!(out, "  {comp:<14} {n:>8} events {rate:>10.2}/sim-s");
    }

    // Critical path, over the loads that did not fail.
    let loaded = || a.page_loads.iter().filter(|l| l.span.ok != Some(false));
    let _ = writeln!(
        out,
        "\npage_load critical path ({} loads, {} failed):",
        a.page_loads.len(),
        a.page_loads.len() - a.plts_us.len(),
    );
    if a.plts_us.is_empty() {
        out.push_str("  (no completed page_load spans)\n");
    } else {
        let n = a.plts_us.len() as f64;
        let mean_plt = mean(a.plts_us.iter().copied(), n);
        let _ = writeln!(
            out,
            "  {:<10} {:>7} {:>16} {:>14}",
            "phase", "spans", "mean/load (ms)", "share of PLT"
        );
        for phase in PHASES {
            let agg = a.phase_totals.get(phase).copied().unwrap_or_default();
            let attr = mean(loaded().filter_map(|l| l.phase_us.get(phase).copied()), n);
            let share = if mean_plt > 0.0 { attr / mean_plt * 100.0 } else { 0.0 };
            let _ = writeln!(
                out,
                "  {phase:<10} {:>7} {:>16.1} {share:>13.1}%",
                agg.spans,
                attr / 1000.0,
            );
        }
        let covered = mean(loaded().map(|l| l.covered_us), n);
        let _ = writeln!(
            out,
            "  mean PLT {:.1} ms; instrumented phases cover {:.1}% of it \
             (phases on parallel connections may overlap)",
            mean_plt / 1000.0,
            if mean_plt > 0.0 { covered / mean_plt * 100.0 } else { 0.0 },
        );
    }

    // Windowed percentiles of page_load durations.
    let _ = writeln!(out, "\npage_load windowed percentiles (window {wsec:.0} s, µs):");
    let mut by_window: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for l in loaded() {
        by_window
            .entry(l.span.end_us / a.window_us)
            .or_default()
            .push(l.span.dur_us());
    }
    if by_window.is_empty() {
        out.push_str("  (no completed loads)\n");
    }
    for (w, durs) in &mut by_window {
        durs.sort_unstable();
        let lo = w * a.window_us / 1_000_000;
        // The last window of a hostile trace may end past `u64::MAX`.
        let hi = (w + 1).saturating_mul(a.window_us) / 1_000_000;
        let _ = writeln!(
            out,
            "  [{lo:>5}–{hi:<5}s) n={:<4} p50={:<9} p95={:<9} p99={}",
            durs.len(),
            quantile_sorted(durs, 0.50),
            quantile_sorted(durs, 0.95),
            quantile_sorted(durs, 0.99),
        );
    }

    // Interference timeline.
    let _ = writeln!(out, "\nGFW interference timeline (window {wsec:.0} s):");
    if a.rule_timeline.is_empty() {
        out.push_str("  (no interference events)\n");
    }
    let last_w = a.t_end_us / a.window_us;
    let clip = if last_w >= LANE_WINDOWS { "…" } else { "" };
    for (rule, windows) in &a.rule_timeline {
        let total: u64 = windows.values().sum();
        let peak = windows.values().copied().max().unwrap_or(0);
        let mut lane = String::new();
        for w in 0..=last_w.min(LANE_WINDOWS - 1) {
            let n = windows.get(&w).copied().unwrap_or(0);
            lane.push(density_char(n, peak));
        }
        let _ = writeln!(out, "  {rule:<22} |{lane}{clip}| total {total}");
    }

    // Faults and resilience.
    if !a.faults.is_empty()
        || !a.failover_times.is_empty()
        || !a.breaker_transitions.is_empty()
    {
        out.push_str("\nfaults & resilience:\n");
        for (t, label) in &a.faults {
            let _ = writeln!(out, "  {:>8.1} s  fault     {label}", *t as f64 / 1e6);
        }
        for (t, remote, from, to) in &a.breaker_transitions {
            let _ = writeln!(
                out,
                "  {:>8.1} s  breaker   {remote} {from} → {to}",
                *t as f64 / 1e6
            );
        }
        let _ = writeln!(out, "  failovers: {}", a.failover_times.len());
        if let Some(av) = a.availability() {
            let _ = writeln!(out, "  availability: {:.1}% of finished loads", av * 100.0);
        }
    }

    for section in a.sections() {
        section.report(a, &mut out);
    }

    // Cross-tier attribution of stitched request trees.
    if !a.trees.is_empty() {
        let completed = a.trees.iter().filter(|t| t.completed()).count();
        out.push_str("\ncross-tier attribution (stitched request trees):\n");
        let _ = writeln!(
            out,
            "  traces: {}   completed: {completed}   coverage: {}",
            a.trees.len(),
            a.attribution_coverage().map_or("n/a".to_string(), |c| format!("{:.1}%", c * 100.0)),
        );
        let blamed = a.tier_totals.values().fold(0u64, |sum, us| sum.saturating_add(*us));
        if blamed > 0 {
            let _ = writeln!(out, "  {:<12} {:>14} {:>8}", "tier", "blamed (µs)", "share");
            for (tier, us) in &a.tier_totals {
                let _ = writeln!(
                    out,
                    "  {tier:<12} {us:>14} {:>7.1}%",
                    *us as f64 / blamed as f64 * 100.0
                );
            }
        }
        let slowest = a.slowest(5);
        if !slowest.is_empty() {
            out.push_str("  slowest requests (drill in with --trace <id>):\n");
            for tree in slowest {
                let (tier, share) = tree.dominant_tier().unwrap_or(("?", 0.0));
                let _ = writeln!(
                    out,
                    "    trace {:016x}  plt {:>9.1} ms  dominated by {tier} ({:.0}%)",
                    tree.trace_id,
                    tree.plt_us as f64 / 1000.0,
                    share * 100.0,
                );
            }
        }
    }

    // SLO alerts.
    out.push_str("\nSLO alerts in trace:\n");
    if a.slo_alerts.is_empty() {
        out.push_str("  (none)\n");
    }
    for (t, kind, slo, burn) in &a.slo_alerts {
        let _ = writeln!(
            out,
            "  {:>8.1} s  {kind:<8} {slo:<16} burn={burn:.3}",
            *t as f64 / 1e6
        );
    }
    for (t, slo, ids) in &a.alert_exemplars {
        let joined: Vec<String> = ids.iter().map(|id| format!("{id:016x}")).collect();
        let _ = writeln!(
            out,
            "  {:>8.1} s  exemplars {slo:<15} {}",
            *t as f64 / 1e6,
            joined.join(" "),
        );
    }
    out
}

/// Renders the machine-readable summary behind `scholar-obs --json`:
/// one JSON object, schema `"scholar-obs/v5"`, with the headline
/// numbers CI gates consume. DESIGN.md §6b tabulates every top-level
/// key with its type and the section that owns it, and a test holds the
/// table to what this prints. Keys are emitted in a fixed order and the
/// output is deterministic for a given trace.
pub fn render_json(a: &TraceAnalysis) -> String {
    json::write_summary(&summary(a))
}

/// The top-level members of the `--json` object, in schema order.
fn summary(a: &TraceAnalysis) -> Vec<Row> {
    let hex = |id: &u64| Json::from(format!("{id:016x}"));
    let mut rows: Vec<Row> = vec![
        ("schema", "scholar-obs/v5".into()),
        ("events", a.events.into()),
        ("sim_end_us", a.t_end_us.into()),
        ("spans_closed", a.spans_closed.into()),
        ("spans_unclosed", a.unclosed_spans.into()),
        ("page_loads", a.page_loads.len().into()),
        ("failed_loads", (a.page_loads.len() - a.plts_us.len()).into()),
        ("availability", a.availability().into()),
        (
            "plt_us",
            json::object([
                ("p50", quantile_sorted(&a.plts_us, 0.50).into()),
                ("p95", quantile_sorted(&a.plts_us, 0.95).into()),
                ("p99", quantile_sorted(&a.plts_us, 0.99).into()),
            ]),
        ),
    ];
    // The one trace the schema keeps of having grown a version at a
    // time: the two layers v1 knew print ahead of the attribution keys
    // v2 added, the later ones after them. ROADMAP item 4d's v6 puts
    // every section after the spine and deletes this split.
    let sections = a.sections();
    let (v1, later) = sections.split_at(2);
    rows.extend(v1.iter().flat_map(|section| section.json(a)));
    let slowest = a.slowest(5).into_iter().map(|tree| {
        json::object([
            ("trace", hex(&tree.trace_id)),
            ("plt_us", tree.plt_us.into()),
            ("dominant_tier", tree.dominant_tier().map_or("?", |(tier, _)| tier).into()),
        ])
    });
    let exemplars = a.alert_exemplars.iter().map(|(t_us, slo, ids)| {
        json::object([
            ("t_us", (*t_us).into()),
            ("slo", slo.clone().into()),
            ("traces", Json::Arr(ids.iter().map(hex).collect())),
        ])
    });
    rows.extend([
        ("failovers", a.failover_times.len().into()),
        ("faults", a.faults.len().into()),
        ("slo_alerts", a.slo_alerts.len().into()),
        ("stitched_traces", a.trees.len().into()),
        ("attribution_coverage", a.attribution_coverage().into()),
        ("tier_us", json::object(a.tier_totals.iter().map(|(tier, us)| (*tier, (*us).into())))),
        ("slowest", Json::Arr(slowest.collect())),
        ("alert_exemplars", Json::Arr(exemplars.collect())),
    ]);
    rows.extend(later.iter().flat_map(|section| section.json(a)));
    rows
}

/// A density character for the interference lanes.
fn density_char(n: u64, peak: u64) -> char {
    if n == 0 || peak == 0 {
        return '.';
    }
    const RAMP: [char; 5] = [':', '-', '=', '#', '@'];
    let idx = ((n as f64 / peak as f64) * RAMP.len() as f64).ceil() as usize;
    RAMP[idx.clamp(1, RAMP.len()) - 1]
}

#[cfg(test)]
pub(crate) mod tests;
