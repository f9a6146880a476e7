//! Spans: pairing `span_start`/`span_end` records, attributing the
//! browser's phase spans to the `page_load` that contains them, and
//! stitching each request's spans into one cross-tier tree whose
//! exclusive times partition the page load.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

use super::json::{JsonValue, TraceEvent};
use super::TraceAnalysis;

/// A closed span reconstructed from its `span_start`/`span_end` pair.
/// `component` and `name` are shared: one copy of each distinct string
/// per analysis, whichever spans and trees carry it.
#[derive(Debug, Clone)]
pub struct ClosedSpan {
    /// Span id.
    pub id: u64,
    /// Emitting component.
    pub component: Arc<str>,
    /// Span name (`page_load`, `connect`, …).
    pub name: Arc<str>,
    /// Start time (µs).
    pub start_us: u64,
    /// End time (µs), never before the start.
    pub end_us: u64,
    /// `ok` field on the end event, if present.
    pub ok: Option<bool>,
}

impl ClosedSpan {
    /// Span duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Per-phase aggregate over all attributed phase spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseAgg {
    /// Phase spans attributed.
    pub spans: u64,
}

/// One reconstructed `page_load` with its attributed phases.
#[derive(Debug, Clone)]
pub struct PageLoad {
    /// The load span.
    pub span: ClosedSpan,
    /// Summed attributed phase time by phase name (one of [`PHASES`]).
    pub phase_us: BTreeMap<&'static str, u64>,
    /// Length of the union of attributed phase intervals (µs): the part
    /// of the load that instrumented phases account for.
    pub covered_us: u64,
}

/// One span inside a stitched per-request trace tree. Unlike
/// [`ClosedSpan`] this keeps the causal links (`parent`) and survives
/// truncation: a span whose `span_end` never made it into the trace is
/// kept with `closed = false` and `end_us` pinned to the end of the
/// trace, so a crash mid-flight still yields an analyzable tree.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Span id.
    pub id: u64,
    /// Emitting component.
    pub component: Arc<str>,
    /// Span name (`page_load`, `admission`, `relay`, …).
    pub name: Arc<str>,
    /// Start time (µs).
    pub start_us: u64,
    /// End time (µs), never before the start; the trace end for
    /// unclosed spans.
    pub end_us: u64,
    /// Whether a matching `span_end` was seen.
    pub closed: bool,
    /// `ok` field on the end event, if present.
    pub ok: Option<bool>,
    /// Parent span id carried on the start event, if any.
    pub parent: Option<u64>,
    /// Distance from the tree root (root = 0; orphans re-attach at 1).
    pub depth: u32,
    /// Exclusive time (µs): instants of the root's window where this
    /// span is the deepest covering span. Sums to the root's duration
    /// across the whole tree.
    pub excl_us: u64,
}

impl TraceSpan {
    /// The service tier this span's exclusive time is blamed on.
    pub fn tier(&self) -> &'static str {
        let browser = &*self.component == "web";
        match &*self.name {
            "page_load" | "dns" | "connect" | "tunnel" | "fetch" if browser => "web",
            "admission" => "admission",
            "establish" | "attempt" | "backoff" | "park" => "resilience",
            "tunnel_stream" | "upstream_fetch" | "relay" => "tunnel",
            "cache_lookup" | "coalesce_wait" => "cache",
            "origin" => "origin",
            _ => "other",
        }
    }
}

/// One request's stitched cross-tier span tree, keyed by trace id.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The request's trace id (as minted by the browser).
    pub trace_id: u64,
    /// All spans carrying this trace id, in `(start_us, id)` order.
    pub spans: Vec<TraceSpan>,
    /// Index of the root `page_load` span, if the trace has one.
    pub root: Option<usize>,
    /// Spans whose parent id is absent from the tree (they re-attach
    /// under the root for attribution instead of being dropped).
    pub orphans: usize,
    /// Exclusive time blamed on each tier over the root's window; the
    /// values sum to exactly `plt_us`.
    pub tier_us: BTreeMap<&'static str, u64>,
    /// The root span's duration (µs); 0 without a root.
    pub plt_us: u64,
}

impl TraceTree {
    /// Whether the request ran to completion: a root that closed with
    /// `ok = true`.
    pub fn completed(&self) -> bool {
        self.root.is_some_and(|i| self.spans[i].closed && self.spans[i].ok == Some(true))
    }

    /// Whether cross-tier stitching worked: at least one span outside
    /// the browser's own (`web`) tier joined the tree.
    pub fn stitched(&self) -> bool {
        self.spans.iter().any(|s| s.tier() != "web")
    }

    /// The tier blamed for the most exclusive time, with its share of
    /// the PLT (`None` without a root).
    pub fn dominant_tier(&self) -> Option<(&'static str, f64)> {
        if self.plt_us == 0 {
            return None;
        }
        self.tier_us
            .iter()
            .max_by_key(|(tier, us)| (**us, **tier))
            .map(|(tier, us)| (*tier, *us as f64 / self.plt_us as f64))
    }
}

/// The page-load phases the browser instruments, in pipeline order.
pub const PHASES: [&str; 4] = ["dns", "connect", "tunnel", "fetch"];

/// A `span_start` waiting for its `span_end`, its strings interned.
#[derive(Debug)]
struct OpenSpan {
    start_us: u64,
    component: Arc<str>,
    name: Arc<str>,
    trace: u64,
    parent: Option<u64>,
}

/// Span pairing in progress over one trace. It keeps what a reader of
/// spans reads: the spans still open, the closed `web` spans phase
/// attribution needs, and each request's spans for its tree. No string
/// is copied per span: names are interned, one copy per distinct value.
#[derive(Debug, Default)]
pub(super) struct Pairing {
    names: BTreeSet<Arc<str>>,
    open: BTreeMap<u64, OpenSpan>,
    closed: usize,
    web: Vec<ClosedSpan>,
    // trace id → that request's spans, in close order (resorted later).
    by_trace: BTreeMap<u64, Vec<TraceSpan>>,
}

impl Pairing {
    /// Takes a `span_start` event.
    pub fn start(&mut self, ev: &TraceEvent<'_>) {
        if let (Some(id), Some(name)) = (ev.span, ev.get_str("span_name")) {
            let (trace, parent) = (ev.get_u64("trace_id").unwrap_or(0), ev.get_u64("parent"));
            let (component, name) = (self.intern(&ev.component), self.intern(name));
            self.open.insert(id, OpenSpan { start_us: ev.t_us, component, name, trace, parent });
        }
    }

    /// Takes a `span_end` event; one without a matching start is
    /// ignored.
    pub fn end(&mut self, ev: &TraceEvent<'_>) {
        let Some((id, open)) = ev.span.and_then(|id| Some((id, self.open.remove(&id)?))) else {
            return;
        };
        let ok = match ev.get("ok") {
            Some(JsonValue::Bool(b)) => Some(*b),
            _ => None,
        };
        // A trace may be unordered or damaged: an end stamped before
        // its start closes the span where it began, so every duration
        // downstream is `end - start` without underflow.
        let end_us = ev.t_us.max(open.start_us);
        self.closed += 1;
        if &*open.component == "web" {
            let (component, name) = (open.component.clone(), open.name.clone());
            self.web.push(ClosedSpan { id, component, name, start_us: open.start_us, end_us, ok });
        }
        self.join_tree(id, open, end_us, true, ok);
    }

    /// The shared copy of `s`, made the first time `s` is seen.
    fn intern(&mut self, s: &str) -> Arc<str> {
        if let Some(shared) = self.names.get(s) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = Arc::from(s);
        self.names.insert(Arc::clone(&shared));
        shared
    }

    /// Files a span that carries a trace id under its request, closed
    /// by an end event (whose `ok` it carried, if any) or not.
    fn join_tree(&mut self, id: u64, open: OpenSpan, end_us: u64, closed: bool, ok: Option<bool>) {
        if open.trace != 0 {
            self.by_trace.entry(open.trace).or_default().push(TraceSpan {
                id,
                component: open.component,
                name: open.name,
                start_us: open.start_us,
                end_us,
                closed,
                ok,
                parent: open.parent,
                depth: 0,
                excl_us: 0,
            });
        }
    }

    /// Closes the books at the end of the trace: fills `a`'s span
    /// counts, page loads with their phases, and stitched trees.
    pub fn finish(mut self, a: &mut TraceAnalysis) {
        (a.page_loads, a.phase_totals) = attribute_phases(&self.web);
        let unfailed = a.page_loads.iter().filter(|l| l.span.ok != Some(false));
        a.plts_us = unfailed.map(|l| l.span.dur_us()).collect();
        a.plts_us.sort_unstable();
        // A span whose end never made it into the trace (crash,
        // truncation, still in flight at shutdown) joins its tree
        // unclosed, pinned to the trace end, so partial trees still
        // attribute.
        (a.spans_closed, a.unclosed_spans) = (self.closed, self.open.len());
        for (id, open) in std::mem::take(&mut self.open) {
            let end_us = a.t_end_us.max(open.start_us);
            self.join_tree(id, open, end_us, false, None);
        }
        a.trees = self.by_trace.into_iter().map(|(id, spans)| stitch_tree(id, spans)).collect();
        for tree in a.trees.iter().filter(|t| t.completed()) {
            for (tier, us) in &tree.tier_us {
                let total = a.tier_totals.entry(tier).or_insert(0);
                *total = total.saturating_add(*us);
            }
        }
    }
}

/// Attributes phase spans to page loads by time containment: a phase
/// belongs to the latest-starting page_load whose interval contains the
/// phase's start. (Concurrent clients share one trace without a client
/// id, so this is a heuristic; aggregates stay exact.)
fn attribute_phases(
    spans: &[ClosedSpan],
) -> (Vec<PageLoad>, BTreeMap<&'static str, PhaseAgg>) {
    let mut loads: Vec<PageLoad> = spans
        .iter()
        .filter(|s| &*s.component == "web" && &*s.name == "page_load")
        .map(|s| PageLoad { span: s.clone(), phase_us: BTreeMap::new(), covered_us: 0 })
        .collect();
    loads.sort_by_key(|l| (l.span.start_us, l.span.id));
    let mut phase_totals: BTreeMap<&'static str, PhaseAgg> = BTreeMap::new();
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); loads.len()];
    for s in spans.iter().filter(|s| &*s.component == "web") {
        let Some(&phase) = PHASES.iter().find(|p| **p == &*s.name) else {
            continue;
        };
        let agg = phase_totals.entry(phase).or_default();
        agg.spans += 1;
        // Latest-starting load containing the phase start: `loads` is
        // sorted by start, so walk back from the last one that starts
        // at or before it.
        let started = loads.partition_point(|l| l.span.start_us <= s.start_us);
        let owner = loads[..started].iter().rposition(|l| s.start_us <= l.span.end_us);
        if let Some(i) = owner {
            let clipped_end = s.end_us.min(loads[i].span.end_us);
            let attributed = loads[i].phase_us.entry(phase).or_insert(0);
            *attributed = attributed.saturating_add(clipped_end - s.start_us);
            intervals[i].push((s.start_us, clipped_end));
        }
    }
    for (load, ivs) in loads.iter_mut().zip(intervals.iter_mut()) {
        load.covered_us = union_len(ivs);
    }
    (loads, phase_totals)
}

/// Builds one request's tree from its spans: computes depths from the
/// in-band parent links (orphans re-attach under the root) and runs the
/// exclusive-time sweep over the root's window. Every instant of the
/// root's duration is blamed on exactly one span — the deepest covering
/// span, latest start then highest id as the tie-break — so per-tier
/// exclusive times always sum to the root's wall clock.
fn stitch_tree(trace_id: u64, mut spans: Vec<TraceSpan>) -> TraceTree {
    spans.sort_by_key(|s| (s.start_us, s.id));
    let root = spans
        .iter()
        .position(|s| &*s.component == "web" && &*s.name == "page_load");
    let idx_of: BTreeMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();

    // A non-root span whose parent link leads nowhere in this tree is
    // an orphan; it re-attaches under the root for attribution instead
    // of being dropped.
    let orphans = spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| {
            Some(i) != root
                && s.parent.map_or(true, |pid| !idx_of.contains_key(&pid))
        })
        .count();

    // Depths, walking parent links with a step cap so a malformed trace
    // (cycles, self-parents) cannot hang the analyzer.
    let mut depths = vec![0u32; spans.len()];
    for i in 0..spans.len() {
        if Some(i) == root {
            continue;
        }
        let mut depth = 1u32;
        let mut cur = i;
        let mut steps = 0usize;
        while steps < spans.len() {
            match spans[cur].parent.and_then(|pid| idx_of.get(&pid)) {
                Some(&pi) if pi != cur => {
                    if Some(pi) == root {
                        break;
                    }
                    depth += 1;
                    cur = pi;
                    steps += 1;
                }
                // Dead end: an orphan chain top, re-attached under the
                // root at the depth walked so far.
                _ => break,
            }
        }
        depths[i] = depth;
    }
    for (s, d) in spans.iter_mut().zip(depths) {
        s.depth = d;
    }

    let mut tier_us: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut plt_us = 0;
    if let Some(r) = root {
        let (rs, re) = (spans[r].start_us, spans[r].end_us);
        plt_us = re - rs;
        // Elementary intervals over every clipped span boundary.
        let mut bounds: Vec<u64> = vec![rs, re];
        for s in &spans {
            bounds.push(s.start_us.clamp(rs, re));
            bounds.push(s.end_us.clamp(rs, re));
        }
        bounds.sort_unstable();
        bounds.dedup();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a >= b {
                continue;
            }
            let winner = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.start_us.clamp(rs, re) <= a && b <= s.end_us.clamp(rs, re))
                .max_by_key(|(_, s)| (s.depth, s.start_us, s.id))
                .map(|(i, _)| i)
                .unwrap_or(r);
            spans[winner].excl_us += b - a;
        }
        for s in &spans {
            if s.excl_us > 0 {
                *tier_us.entry(s.tier()).or_insert(0) += s.excl_us;
            }
        }
    }

    TraceTree { trace_id, spans, root, orphans, tier_us, plt_us }
}

/// Total length of the union of `[start, end)` intervals (sorts in
/// place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    // `reach`: everything before it is already counted.
    let (mut total, mut reach) = (0, 0);
    for &(start, end) in intervals.iter() {
        total += end.saturating_sub(start.max(reach));
        reach = reach.max(end);
    }
    total
}

/// Renders one request's cross-tier waterfall: every span of the
/// stitched tree in start order, indented by causal depth, with a
/// timeline bar over the root's window and the exclusive time blamed on
/// each span. Deterministic for a given trace.
pub fn render_waterfall(tree: &TraceTree) -> String {
    const BAR: usize = 48;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {:016x} — {} spans, {} orphan{}, plt {:.1} ms",
        tree.trace_id,
        tree.spans.len(),
        tree.orphans,
        if tree.orphans == 1 { "" } else { "s" },
        tree.plt_us as f64 / 1000.0,
    );
    let Some(r) = tree.root else {
        out.push_str("  (no page_load root — partial trace)\n");
        for s in &tree.spans {
            let _ = writeln!(
                out,
                "  {:<24} {:<10} start {:>10} µs  dur {:>10} µs{}",
                s.name,
                s.tier(),
                s.start_us,
                s.end_us - s.start_us,
                if s.closed { "" } else { "  (unclosed)" },
            );
        }
        return out;
    };
    let (rs, re) = (tree.spans[r].start_us, tree.spans[r].end_us);
    let span_us = (re - rs).max(1);
    let _ = writeln!(
        out,
        "  {:<26} {:<10} {:>10}  {:>10}  {}",
        "span", "tier", "dur (µs)", "excl (µs)", "waterfall"
    );
    for s in &tree.spans {
        let (cs, ce) = (s.start_us.clamp(rs, re), s.end_us.clamp(rs, re));
        let lo = (((cs - rs) as u128 * BAR as u128 / span_us as u128) as usize).min(BAR - 1);
        let hi = ((ce - rs) as u128 * BAR as u128 / span_us as u128) as usize;
        let hi = hi.clamp(lo + 1, BAR); // ≥ 1 cell, even for instants
        let mut bar = String::with_capacity(BAR);
        for c in 0..BAR {
            bar.push(if c >= lo && c < hi { '=' } else { '.' });
        }
        let label = format!("{:indent$}{}", "", s.name, indent = (s.depth as usize) * 2);
        let _ = writeln!(
            out,
            "  {label:<26} {:<10} {:>10}  {:>10}  |{bar}|{}",
            s.tier(),
            s.end_us - s.start_us,
            s.excl_us,
            if s.closed { "" } else { " (unclosed)" },
        );
    }
    out.push_str("  tier blame:");
    for (tier, us) in &tree.tier_us {
        let _ = write!(
            out,
            "  {tier} {:.1}%",
            *us as f64 / tree.plt_us.max(1) as f64 * 100.0
        );
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::tests::{analyzed, reparsed, span_pair, traced_pair};
    use crate::analyze::render_report;
    use crate::event::{Event, Level, SpanId};

    #[test]
    fn critical_path_attributes_phases_to_containing_load() {
        let mut evs = Vec::new();
        evs.extend(span_pair(1, "web", "page_load", 0, 1_000_000));
        evs.extend(span_pair(2, "web", "connect", 0, 200_000));
        evs.extend(span_pair(3, "web", "fetch", 200_000, 900_000));
        // A second, later load with one phase.
        evs.extend(span_pair(4, "web", "page_load", 2_000_000, 2_500_000));
        evs.extend(span_pair(5, "web", "fetch", 2_100_000, 2_400_000));
        // An orphan phase outside any load: counted in totals only.
        evs.extend(span_pair(6, "web", "connect", 5_000_000, 5_100_000));
        let a = analyzed(&evs, 1_000_000);
        assert_eq!(a.page_loads.len(), 2);
        let l0 = &a.page_loads[0];
        assert_eq!(l0.phase_us.get("connect"), Some(&200_000));
        assert_eq!(l0.phase_us.get("fetch"), Some(&700_000));
        assert_eq!(l0.covered_us, 900_000); // contiguous union
        assert_eq!(a.page_loads[1].phase_us.get("fetch"), Some(&300_000));
        assert_eq!(a.phase_totals.get("connect").unwrap().spans, 2);
        let report = render_report(&a);
        assert!(report.contains("page_load critical path (2 loads"));
        assert!(report.contains("share of PLT"));

        // The last load to start before a phase may be over by then;
        // the phase belongs to the earlier load still running.
        let mut evs = Vec::new();
        evs.extend(span_pair(1, "web", "page_load", 0, 10_000_000));
        evs.extend(span_pair(2, "web", "page_load", 1_000_000, 2_000_000));
        evs.extend(span_pair(3, "web", "fetch", 5_000_000, 6_000_000));
        let a = analyzed(&evs, 1_000_000);
        assert_eq!(a.page_loads[0].phase_us.get("fetch"), Some(&1_000_000));
        assert!(a.page_loads[1].phase_us.is_empty());
    }

    #[test]
    fn union_len_merges_overlaps() {
        let mut ivs = vec![(0, 10), (5, 15), (20, 30)];
        assert_eq!(union_len(&mut ivs), 25);
        assert_eq!(union_len(&mut []), 0);
    }

    /// A `span_end` stamped before its `span_start` (an unordered or
    /// damaged trace) closes the span where it began: no duration
    /// underflows, in the load table, the tree or the waterfall.
    #[test]
    fn a_span_that_ends_before_it_starts_has_no_duration() {
        let mut evs = traced_pair(1, "web", "page_load", 500, 100, 7, None, true);
        evs.extend(traced_pair(2, "web", "fetch", 400, 300, 7, Some(1), true));
        let a = analyzed(&evs, 1_000_000);
        let load = &a.page_loads[0].span;
        assert_eq!((load.start_us, load.end_us, load.dur_us()), (500, 500, 0));
        assert_eq!(a.plts_us, [0]);
        let tree = a.tree(7).expect("the load's tree");
        assert_eq!((tree.plt_us, tree.spans.len()), (0, 2));
        assert!(render_waterfall(tree).contains("plt 0.0 ms"));
        assert!(render_report(&a).contains("1 loads, 0 failed"));
    }

    /// The canonical happy path: browser → admission → establish →
    /// attempt → relay, all stitched into one tree whose per-tier
    /// exclusive times sum to exactly the root's PLT.
    #[test]
    fn stitches_cross_tier_trees_and_attributes_exclusively() {
        const T: u64 = 0xfeed;
        let mut evs = Vec::new();
        evs.extend(traced_pair(1, "web", "page_load", 0, 1_000_000, T, None, true));
        evs.extend(traced_pair(2, "web", "tunnel", 10_000, 900_000, T, Some(1), true));
        evs.extend(traced_pair(3, "scholarcloud", "admission", 20_000, 20_000, T, Some(2), true));
        evs.extend(traced_pair(4, "scholarcloud", "establish", 20_000, 400_000, T, Some(2), true));
        evs.extend(traced_pair(5, "scholarcloud", "attempt", 30_000, 400_000, T, Some(4), true));
        evs.extend(traced_pair(6, "scholarcloud", "relay", 250_000, 380_000, T, Some(5), true));
        let a = analyzed(&evs, 1_000_000);
        assert_eq!(a.trees.len(), 1);
        let tree = a.tree(T).expect("tree by id");
        assert!(tree.completed() && tree.stitched());
        assert_eq!(tree.orphans, 0);
        assert_eq!(tree.plt_us, 1_000_000);
        // Depths follow the causal chain.
        let depth_of = |id: u64| tree.spans.iter().find(|s| s.id == id).unwrap().depth;
        assert_eq!(depth_of(1), 0);
        assert_eq!(depth_of(2), 1);
        assert_eq!(depth_of(4), 2);
        assert_eq!(depth_of(5), 3);
        assert_eq!(depth_of(6), 4);
        // Exclusive attribution is a partition of the root's window.
        let excl_sum: u64 = tree.spans.iter().map(|s| s.excl_us).sum();
        assert_eq!(excl_sum, tree.plt_us);
        assert_eq!(tree.tier_us.values().sum::<u64>(), tree.plt_us);
        // The deepest covering span wins each instant: the relay's
        // window belongs to the tunnel tier, not resilience or web.
        assert_eq!(tree.tier_us.get("tunnel"), Some(&130_000));
        assert_eq!(tree.tier_us.get("resilience"), Some(&(370_000 + 10_000 - 130_000)));
        // web = root outside tunnel span + tunnel span instants no one
        // deeper claims.
        assert_eq!(
            tree.tier_us.get("web"),
            Some(&(1_000_000 - 380_000)),
        );
        assert_eq!(a.attribution_coverage(), Some(1.0));
        let wf = render_waterfall(tree);
        assert!(wf.contains("page_load"), "{wf}");
        assert!(wf.contains("relay"), "{wf}");
        assert!(wf.contains("tier blame:"), "{wf}");
        let report = render_report(&a);
        assert!(report.contains("cross-tier attribution"), "{report}");
        assert!(report.contains(&format!("{T:016x}")), "{report}");
    }

    /// Degenerate trees must neither panic nor mis-attribute: orphaned
    /// children re-attach under the root, spans shed before any child
    /// opened still count as stitched, rootless traces attribute
    /// nothing, and spans truncated mid-flight close at trace end.
    #[test]
    fn degenerate_trees_are_handled() {
        // Orphan: parent id 99 never appears.
        let mut evs = Vec::new();
        evs.extend(traced_pair(1, "web", "page_load", 0, 100_000, 7, None, true));
        evs.extend(traced_pair(2, "web", "origin", 10_000, 90_000, 7, Some(99), true));
        let a = analyzed(&evs, 1_000_000);
        let tree = a.tree(7).unwrap();
        assert_eq!(tree.orphans, 1);
        assert_eq!(tree.tier_us.get("origin"), Some(&80_000));
        assert_eq!(tree.tier_us.values().sum::<u64>(), tree.plt_us);

        // Shed at admission: root failed, admission span is the only
        // child. The tree stitches but does not count as completed.
        let mut evs = Vec::new();
        evs.extend(traced_pair(1, "web", "page_load", 0, 50_000, 8, None, false));
        evs.extend(traced_pair(2, "scholarcloud", "admission", 10_000, 12_000, 8, Some(1), true));
        let a = analyzed(&evs, 1_000_000);
        let tree = a.tree(8).unwrap();
        assert!(tree.stitched() && !tree.completed());
        assert_eq!(a.attribution_coverage(), None, "no completed loads");

        // Rootless: child spans only (the page_load never made it into
        // the trace). No attribution, but a renderable waterfall.
        let mut evs = Vec::new();
        evs.extend(traced_pair(5, "scholarcloud", "attempt", 0, 30_000, 9, Some(77), true));
        let a = analyzed(&evs, 1_000_000);
        let tree = a.tree(9).unwrap();
        assert!(tree.root.is_none());
        assert_eq!(tree.plt_us, 0);
        assert!(tree.tier_us.is_empty());
        assert!(render_waterfall(tree).contains("no page_load root"));

        // Truncated mid-flight: a started-but-never-ended child joins
        // unclosed, pinned to trace end, and still attributes.
        let mut evs = Vec::new();
        evs.extend(traced_pair(1, "web", "page_load", 0, 200_000, 11, None, true));
        let s = Event::new(50_000, Level::Debug, "scholarcloud", "t", "span_start")
            .field("span_name", "tunnel_stream")
            .field("trace_id", 11u64)
            .field("parent", 1u64)
            .in_span(SpanId(2));
        evs.push(reparsed(&s));
        let a = analyzed(&evs, 1_000_000);
        let tree = a.tree(11).unwrap();
        let cut = tree.spans.iter().find(|s| s.id == 2).unwrap();
        assert!(!cut.closed);
        assert_eq!(cut.end_us, 200_000, "clipped to trace end");
        assert_eq!(tree.tier_us.get("tunnel"), Some(&150_000));
        assert_eq!(tree.tier_us.values().sum::<u64>(), tree.plt_us);
        assert!(render_waterfall(tree).contains("(unclosed)"));

        // A self-parent / cycle must not hang or panic.
        let mut evs = Vec::new();
        evs.extend(traced_pair(1, "web", "page_load", 0, 10_000, 13, None, true));
        evs.extend(traced_pair(2, "x", "a", 1_000, 2_000, 13, Some(3), true));
        evs.extend(traced_pair(3, "x", "b", 1_000, 2_000, 13, Some(2), true));
        let a = analyzed(&evs, 1_000_000);
        assert_eq!(a.tree(13).unwrap().tier_us.values().sum::<u64>(), 10_000);
    }
}
