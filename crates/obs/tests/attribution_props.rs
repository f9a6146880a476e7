//! Property tests for cross-tier trace stitching and exclusive-time
//! attribution: whatever span forest the simulator produces — arbitrary
//! interleavings, orphaned parents, unclosed spans, children that outlive
//! their root — the analyzer must (a) partition each rooted tree's wall
//! clock exactly (per-span exclusive times and per-tier blame both sum to
//! the root's PLT, never more), (b) blame nothing on a rootless tree, and
//! (c) be a pure function of the event stream — the same trace analyzed
//! twice yields byte-identical attribution, the property the
//! byte-identical-trace guarantee leans on.

use proptest::prelude::*;
use sc_obs::analyze::{analyze, parse_trace, render_json, TraceAnalysis};
use sc_obs::{write_line, Level, SpanId};

/// One generated child span: which earlier span it claims as parent
/// (`parent_sel` indexes into the spans emitted so far, unless
/// `orphan_pct < 15` makes the parent id dangle — the analyzer must
/// re-attach those under the root), where it sits on the clock, which
/// tier its (component, name) maps to, and whether its `span_end` ever
/// made it into the trace (`closed_pct < 85`).
type GenSpan = (u64, u8, u64, u64, u8, u8, bool);

/// One generated trace tree: `(rooted_pct, window, children)`. When
/// `rooted_pct >= 85` the `page_load` root is withheld, leaving a
/// partial trace the analyzer must handle without attributing time.
type GenTree = (u8, u64, Vec<GenSpan>);

fn gen_span() -> impl Strategy<Value = GenSpan> {
    (
        any::<u64>(),      // parent_sel
        0u8..100,          // orphan_pct
        0u64..2_000_000,   // start
        0u64..2_000_000,   // dur
        0u8..8,            // kind
        0u8..100,          // closed_pct
        any::<bool>(),     // ok
    )
}

fn gen_tree() -> impl Strategy<Value = GenTree> {
    (0u8..100, 1u64..1_500_000, prop::collection::vec(gen_span(), 0..12))
}

/// (component, span_name) for each generated kind, chosen to cover every
/// tier `TraceSpan::tier` distinguishes.
fn kind_names(kind: u8) -> (&'static str, &'static str) {
    match kind {
        0 => ("web", "tunnel"),
        1 => ("scholarcloud", "admission"),
        2 => ("scholarcloud", "establish"),
        3 => ("scholarcloud", "attempt"),
        4 => ("scholarcloud", "relay"),
        5 => ("scholarcloud", "cache_lookup"),
        6 => ("web", "fetch"),
        _ => ("origin", "origin"),
    }
}

#[allow(clippy::too_many_arguments)]
fn push_pair(
    out: &mut Vec<(u64, String)>,
    id: u64,
    component: &'static str,
    name: &'static str,
    start: u64,
    end: Option<u64>,
    trace: u64,
    parent: Option<u64>,
    ok: bool,
) {
    let mut line = String::new();
    write_line(&mut line, start, Level::Debug, component, "prop", "span_start", SpanId(id), |f| {
        f.field("span_name", name).field("trace_id", trace);
        if let Some(p) = parent {
            f.field("parent", p);
        }
    });
    out.push((start, line));
    if let Some(end) = end {
        let mut line = String::new();
        write_line(&mut line, end, Level::Info, component, "prop", "span_end", SpanId(id), |f| {
            f.field("span_name", name).field("ok", ok);
        });
        out.push((end, line));
    }
}

/// Lower a generated forest to a time-ordered JSONL trace, the way a
/// real `SC_TRACE` capture would interleave concurrent requests.
fn forest_to_trace(forest: &[GenTree]) -> String {
    let mut lines: Vec<(u64, String)> = Vec::new();
    let mut next_id = 1u64;
    for (t_idx, (rooted_pct, window, children)) in forest.iter().enumerate() {
        let trace = 0x1000 + t_idx as u64;
        let rooted = *rooted_pct < 85;
        let mut ids = Vec::new();
        if rooted {
            push_pair(
                &mut lines,
                next_id,
                "web",
                "page_load",
                0,
                Some(*window),
                trace,
                None,
                true,
            );
            ids.push(next_id);
            next_id += 1;
        }
        for &(parent_sel, orphan_pct, start, dur, kind, closed_pct, ok) in children {
            let parent = if orphan_pct < 15 {
                Some(0xdead_0000 + next_id) // dangling: never a real span id
            } else if ids.is_empty() {
                None
            } else {
                Some(ids[(parent_sel % ids.len() as u64) as usize])
            };
            let (component, name) = kind_names(kind);
            let end = (closed_pct < 85).then_some(start.saturating_add(dur));
            push_pair(&mut lines, next_id, component, name, start, end, trace, parent, ok);
            ids.push(next_id);
            next_id += 1;
        }
    }
    lines.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    lines.iter().map(|(_, l)| format!("{l}\n")).collect()
}

/// The forest's trace, read as the analyzer reads a file.
fn forest_analyzed(forest: &[GenTree]) -> TraceAnalysis {
    let trace = parse_trace(&forest_to_trace(forest)).expect("self-emitted lines parse");
    analyze(&trace, 1_000_000)
}

proptest! {
    /// Exclusive attribution is a partition: for every rooted tree the
    /// per-span exclusive times and the per-tier blame each sum to
    /// exactly the root's PLT — time is never double-counted and never
    /// exceeds the wall clock. Rootless trees blame nothing.
    #[test]
    fn exclusive_attribution_partitions_the_root_window(
        forest in prop::collection::vec(gen_tree(), 1..4)
    ) {
        let analysis = forest_analyzed(&forest);
        // A rootless tree with no children emits no event at all, so
        // the trace cannot hold a tree for it.
        let emitting = forest
            .iter()
            .filter(|(rooted_pct, _, children)| *rooted_pct < 85 || !children.is_empty())
            .count();
        prop_assert_eq!(analysis.trees.len(), emitting);
        for tree in &analysis.trees {
            let excl_sum: u64 = tree.spans.iter().map(|s| s.excl_us).sum();
            let tier_sum: u64 = tree.tier_us.values().sum();
            if tree.root.is_some() {
                prop_assert_eq!(excl_sum, tree.plt_us);
                prop_assert_eq!(tier_sum, tree.plt_us);
            } else {
                prop_assert_eq!(tree.plt_us, 0);
                prop_assert_eq!(excl_sum, 0);
            }
            let root_id = tree.root.map(|i| tree.spans[i].id);
            for span in &tree.spans {
                if Some(span.id) == root_id {
                    prop_assert_eq!(span.depth, 0);
                } else {
                    prop_assert!(span.depth >= 1);
                }
                prop_assert!(span.excl_us <= tree.plt_us);
            }
            prop_assert!(tree.orphans <= tree.spans.len());
        }
    }

    /// The analyzer is deterministic: the same event stream analyzed
    /// twice produces identical trees, identical per-span attribution,
    /// and a byte-identical machine summary.
    #[test]
    fn attribution_is_deterministic(
        forest in prop::collection::vec(gen_tree(), 1..4)
    ) {
        let (a, b) = (forest_analyzed(&forest), forest_analyzed(&forest));
        prop_assert_eq!(render_json(&a), render_json(&b));
        prop_assert_eq!(a.trees.len(), b.trees.len());
        for (ta, tb) in a.trees.iter().zip(&b.trees) {
            prop_assert_eq!(ta.trace_id, tb.trace_id);
            prop_assert_eq!(ta.plt_us, tb.plt_us);
            prop_assert_eq!(ta.orphans, tb.orphans);
            let ka: Vec<_> = ta.spans.iter().map(|s| (s.id, s.depth, s.excl_us)).collect();
            let kb: Vec<_> = tb.spans.iter().map(|s| (s.id, s.depth, s.excl_us)).collect();
            prop_assert_eq!(ka, kb);
        }
    }
}
