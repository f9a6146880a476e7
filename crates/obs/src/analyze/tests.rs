//! What the analyzer's unit tests share — events written by the real
//! writer and read back by the real parser — and the tests of what no
//! one file owns: the report and `--json` spine, the schema, the
//! section list.

use super::*;
use crate::event::{Event, Level, SpanId};

pub(in crate::analyze) fn line(ev: &Event<'_>) -> String {
    ev.line()
}

/// `ev` as the analyzer reads it back, detached from its line.
pub(crate) fn reparsed(ev: &Event<'_>) -> TraceEvent<'static> {
    parse_line(&line(ev)).unwrap().into_owned()
}

/// `evs` folded as [`parse_trace`] folds the lines they were read from,
/// and analyzed with `window_us`-wide windows.
pub(crate) fn analyzed(evs: &[TraceEvent<'_>], window_us: u64) -> TraceAnalysis {
    let mut trace = Trace::default();
    for ev in evs {
        trace.push(ev);
    }
    analyze(&trace.finish(), window_us)
}

pub(in crate::analyze) fn span_pair(
    id: u64,
    component: &'static str,
    name: &'static str,
    start: u64,
    end: u64,
) -> Vec<TraceEvent<'static>> {
    let s = Event::new(start, Level::Info, component, "load", "span_start")
        .field("span_name", name)
        .in_span(SpanId(id));
    let e = Event::new(end, Level::Info, component, "load", "span_end")
        .field("span_name", name)
        .field("dur_us", end - start)
        .field("ok", true)
        .in_span(SpanId(id));
    vec![reparsed(&s), reparsed(&e)]
}

/// A traced `span_start`/`span_end` pair, the offline twin of
/// `span_start_ctx`: `trace` and `parent` ride as ordinary fields.
#[allow(clippy::too_many_arguments)]
pub(in crate::analyze) fn traced_pair(
    id: u64,
    component: &'static str,
    name: &'static str,
    start: u64,
    end: u64,
    trace: u64,
    parent: Option<u64>,
    ok: bool,
) -> Vec<TraceEvent<'static>> {
    let mut s = Event::new(start, Level::Debug, component, "t", "span_start")
        .field("span_name", name)
        .field("trace_id", trace)
        .in_span(SpanId(id));
    if let Some(p) = parent {
        s = s.field("parent", p);
    }
    let e = Event::new(end, Level::Info, component, "t", "span_end")
        .field("span_name", name)
        .field("ok", ok)
        .in_span(SpanId(id));
    vec![reparsed(&s), reparsed(&e)]
}

#[test]
fn interference_and_slo_events_build_timelines() {
    let mk = |t, rule: &'static str| {
        reparsed(
            &Event::new(t, Level::Info, "gfw", "verdict", "drop").field("rule", rule),
        )
    };
    let mut evs = vec![mk(100, "gfw-dns"), mk(200, "gfw-dns"), mk(2_500_000, "gfw-sni")];
    evs.push(
        reparsed(
            &Event::new(3_000_000, Level::Warn, "slo", "alert", "fire")
                .field("slo", "plt-p95")
                .field("burn", 2.5),
        ),
    );
    let a = analyzed(&evs, 1_000_000);
    assert_eq!(a.rule_timeline["gfw-dns"][&0], 2);
    assert_eq!(a.rule_timeline["gfw-sni"][&2], 1);
    assert_eq!(a.slo_alerts.len(), 1);
    assert_eq!(a.slo_alerts[0].2, "plt-p95");
    let report = render_report(&a);
    assert!(report.contains("gfw-dns"));
    assert!(report.contains("fire"));
    assert!(report.contains("burn=2.500"));
}

/// The `--json` schema contract: every key CI consumes must be
/// present with the right shape, and the output must parse with our
/// own parser.
#[test]
fn render_json_schema_is_stable() {
    let mut evs = Vec::new();
    evs.extend(span_pair(1, "web", "page_load", 0, 1_000_000));
    evs.extend(span_pair(2, "web", "page_load", 0, 3_000_000));
    let mk = |t, name: &'static str| {
        reparsed(&Event::new(t, Level::Debug, "scholarcloud", "cache", name))
    };
    evs.push(mk(100, "miss"));
    evs.push(mk(200, "hit"));
    let a = analyzed(&evs, 1_000_000);
    let text = render_json(&a);
    let v = parse_json(&text).expect("render_json must emit valid JSON");
    assert_eq!(v.get("schema").and_then(Json::as_str), Some("scholar-obs/v5"));
    // Every v1 key survives with its v1 shape.
    for key in [
        "events",
        "sim_end_us",
        "spans_closed",
        "spans_unclosed",
        "page_loads",
        "failed_loads",
        "failovers",
        "faults",
        "slo_alerts",
        "stitched_traces",
    ] {
        assert!(v.get(key).and_then(Json::as_u64).is_some(), "missing u64 key {key}");
    }
    for key in ["availability", "shed_rate", "cache_hit_rate"] {
        assert!(v.get(key).and_then(Json::as_f64).is_some(), "missing f64 key {key}");
    }
    let plt = v.get("plt_us").expect("plt_us object");
    assert_eq!(plt.get("p50").and_then(Json::as_u64), Some(1_000_000));
    assert_eq!(plt.get("p95").and_then(Json::as_u64), Some(3_000_000));
    assert_eq!(v.get("page_loads").and_then(Json::as_u64), Some(2));
    assert!((v.get("availability").and_then(Json::as_f64).unwrap() - 1.0).abs() < 1e-9);
    assert!((v.get("cache_hit_rate").and_then(Json::as_f64).unwrap() - 0.5).abs() < 1e-9);
    // v2 keys: untraced spans make no trees, so coverage is null and
    // the attribution arrays are empty but present.
    assert_eq!(v.get("attribution_coverage"), Some(&Json::Null));
    assert!(matches!(v.get("tier_us"), Some(Json::Obj(_))));
    assert_eq!(v.get("slowest").and_then(Json::as_arr).map(<[_]>::len), Some(0));
    assert_eq!(
        v.get("alert_exemplars").and_then(Json::as_arr).map(<[_]>::len),
        Some(0)
    );
    // v3 keys: no fleet events → availability null, counters zero,
    // shard array empty but present.
    assert_eq!(v.get("fleet_availability"), Some(&Json::Null));
    let fleet = v.get("fleet").expect("fleet object");
    for key in [
        "connect_ok",
        "connect_fail",
        "dead_marks",
        "failovers",
        "recoveries",
        "peer_fetches",
        "peer_serves",
        "peer_deaths",
        "fleet_sheds",
    ] {
        assert_eq!(fleet.get(key).and_then(Json::as_u64), Some(0), "fleet key {key}");
    }
    assert_eq!(fleet.get("shards").and_then(Json::as_arr).map(<[_]>::len), Some(0));
    // v4 keys: no elastic events → cost per load null, counters
    // zero, cold-start p95 null.
    assert_eq!(v.get("cost_per_ok_load_micro"), Some(&Json::Null));
    let elastic = v.get("elastic").expect("elastic object");
    for key in [
        "provisions",
        "warms",
        "drains_idle",
        "drains_blacklist",
        "retires",
        "churns",
        "peak_live",
        "invocation_micro",
        "egress_micro",
        "warm_micro",
        "total_micro",
    ] {
        assert_eq!(
            elastic.get(key).and_then(Json::as_u64),
            Some(0),
            "elastic key {key}"
        );
    }
    assert_eq!(elastic.get("cold_start_p95_us"), Some(&Json::Null));
    // v5 keys: no adaptive events → detection rate and
    // availability-under-campaign null, counters zero.
    assert_eq!(v.get("detection_rate"), Some(&Json::Null));
    assert_eq!(v.get("availability_under_campaign"), Some(&Json::Null));
    let adaptive = v.get("adaptive").expect("adaptive object");
    for key in [
        "signatures_learned",
        "signatures_expired",
        "campaigns",
        "probe_waves",
        "probes_launched",
        "probes_replayed",
        "probes_confirmed",
        "probes_innocent",
        "probes_deflected",
        "blacklisted",
        "region_rolls",
        "rotations",
        "domestic_decoys",
    ] {
        assert_eq!(
            adaptive.get(key).and_then(Json::as_u64),
            Some(0),
            "adaptive key {key}"
        );
    }
    assert_eq!(adaptive.get("time_to_detection_us"), Some(&Json::Null));
    // No finished loads → availability is null, still valid JSON.
    let empty = analyzed(&[], 1_000_000);
    let v = parse_json(&render_json(&empty)).unwrap();
    assert_eq!(v.get("availability"), Some(&Json::Null));
}

/// Fired alerts carry their exemplar trace ids through the analyzer
/// and into both renderers.
#[test]
fn alert_exemplars_are_parsed_and_rendered() {
    let mut evs = Vec::new();
    evs.extend(span_pair(1, "web", "page_load", 0, 1_000_000));
    evs.push(
        reparsed(
            &Event::new(2_000_000, Level::Warn, "slo", "alert", "fire")
                .field("slo", "plt-p95")
                .field("burn", 2.0)
                .field("exemplars", "00000000000000ff,0000000000000abc"),
        ),
    );
    let a = analyzed(&evs, 1_000_000);
    assert_eq!(a.alert_exemplars.len(), 1);
    assert_eq!(a.alert_exemplars[0].1, "plt-p95");
    assert_eq!(a.alert_exemplars[0].2, vec![0xff, 0xabc]);
    let report = render_report(&a);
    assert!(report.contains("exemplars plt-p95"), "{report}");
    assert!(report.contains("00000000000000ff"), "{report}");
    let v = parse_json(&render_json(&a)).unwrap();
    let ex = v.get("alert_exemplars").and_then(Json::as_arr).unwrap();
    assert_eq!(ex.len(), 1);
    assert_eq!(ex[0].get("slo").and_then(Json::as_str), Some("plt-p95"));
    let traces = ex[0].get("traces").and_then(Json::as_arr).unwrap();
    assert_eq!(traces[0].as_str(), Some("00000000000000ff"));
}

/// A well-formed trace may carry any `u64` as a timestamp. A page load
/// that ends in the last window before `u64::MAX` has a window whose
/// upper edge does not fit; the report prints it saturated.
#[test]
fn a_page_load_ending_near_u64_max_renders() {
    let evs = span_pair(1, "web", "page_load", u64::MAX - 10, u64::MAX - 1);
    let a = analyzed(&evs, 2_000_000);
    let report = render_report(&a);
    assert!(report.contains("n=1"), "{report}");
    assert!(parse_json(&render_json(&a)).is_ok());
}

/// The interference lane is one character per window from 0 to the
/// last timestamp: a trace that spans 4·10¹³ µs must not print twenty
/// million of them (and one that spans `u64::MAX` must finish at all).
/// Lanes that fit are printed whole, unmarked.
#[test]
fn interference_lane_is_clipped_at_a_fixed_width() {
    let drop = |t| {
        reparsed(&Event::new(t, Level::Info, "gfw", "verdict", "drop").field("rule", "gfw-dns"))
    };
    for end in [40_000_000_000_000, u64::MAX] {
        let report = render_report(&analyzed(&[drop(1), drop(end)], 2_000_000));
        assert!(report.len() < 4096, "a {}-byte report", report.len());
        let lane = report.lines().find(|l| l.contains("gfw-dns")).expect("the rule's lane");
        assert!(lane.ends_with("…| total 2"), "{lane}");
        assert_eq!(lane.chars().filter(|c| *c == '.').count() as u64, LANE_WINDOWS - 1, "{lane}");
    }
    let whole = (LANE_WINDOWS - 1) * 2_000_000;
    let report = render_report(&analyzed(&[drop(1), drop(whole)], 2_000_000));
    let lane = report.lines().find(|l| l.contains("gfw-dns")).expect("the rule's lane");
    assert!(lane.ends_with("@| total 2") && !lane.contains('…'), "{lane}");
}

/// `analyze` hands an event to the one section whose vocabulary lists
/// it, so no `(component, target, event)` may be listed twice — and
/// none may be one the spine takes first.
#[test]
fn no_event_is_in_two_vocabularies() {
    let blank = TraceAnalysis::default();
    let mut seen = std::collections::BTreeSet::new();
    for section in blank.sections() {
        for (component, target, names) in section.vocabulary() {
            for name in *names {
                assert!(seen.insert((component, target, name)), "{component}/{target}/{name}");
                let spine = matches!(*name, "span_start" | "span_end" | "breaker")
                    || *target == "fault"
                    || (*component == "scholarcloud" && *name == "failover");
                assert!(!spine, "{component}/{target}/{name} never reaches a section");
            }
        }
    }
    assert!(seen.len() > 30, "the five layers read {} events", seen.len());
}

/// Every section sees exactly the events its vocabulary lists: each one
/// moves that section's aggregate (checked through what it prints) and
/// nobody else's.
#[test]
fn each_listed_event_reaches_its_own_section_only() {
    let blank = analyzed(&[], 1);
    let printed = |a: &TraceAnalysis| -> Vec<String> {
        a.sections().iter().map(|s| format!("{:?}", s.json(a))).collect()
    };
    for (i, section) in blank.sections().iter().enumerate() {
        for (component, target, names) in section.vocabulary() {
            for name in *names {
                // The fields the few events that need one to count read.
                let ev = Event::new(7, Level::Info, component, target, name)
                    .field("verdict", "confirmed")
                    .field("total_micro", 5u64);
                let a = analyzed(&[reparsed(&ev)], 1);
                for (j, (after, before)) in printed(&a).iter().zip(printed(&blank)).enumerate() {
                    assert_eq!(*after != before, i == j, "{component}/{target}/{name} → {j}");
                }
            }
        }
    }
}

/// DESIGN.md §6b tabulates every top-level `--json` key: name, type,
/// whether a trace can leave it `null`, and the section that owns it.
/// The table is the schema's documentation, so it is held to what
/// `render_json` prints, row for row and in order: a key a section
/// gains, loses, moves or retypes fails here until the table says so.
#[test]
fn design_md_tabulates_every_json_key() {
    // A trace on which every nullable key has a value, so its type
    // shows: a completed, stitched load that ends after a campaign, a
    // fleet connect, a cost meter, a probe.
    let mut evs = traced_pair(1, "web", "page_load", 0, 2_000_000, 1, None, true);
    evs.extend(traced_pair(2, "scholarcloud", "relay", 10, 20, 1, Some(1), true));
    for (component, target, name) in [
        ("web", "fleet", "connect_ok"),
        ("gfw", "adaptive", "campaign"),
        ("gfw", "probe", "launched"),
    ] {
        evs.push(reparsed(&Event::new(100, Level::Info, component, target, name)));
    }
    let cost = Event::new(100, Level::Info, "scholarcloud", "elastic", "cost");
    evs.push(reparsed(&cost.field("total_micro", 1000u64)));
    let (rich, empty) = (analyzed(&evs, 1_000_000), analyzed(&[], 1_000_000));

    let owners = ["admission", "cache", "fleet", "elastic", "adaptive"];
    let owner_of = |key: &str| {
        let owned = |s: &&dyn Section| s.json(&rich).iter().any(|(k, _)| *k == key);
        rich.sections().iter().position(owned).map_or("spine", |i| owners[i])
    };
    let printed: Vec<String> = summary(&rich)
        .iter()
        .zip(summary(&empty))
        .map(|((key, value), (_, blank))| {
            let kind = match value {
                Json::U64(_) | Json::I64(_) => "integer",
                Json::F64(_) => "number",
                Json::Str(_) => "string",
                Json::Obj(_) => "object",
                Json::Arr(_) => "array",
                Json::Null | Json::Bool(_) => panic!("{key} has no type on the rich trace"),
            };
            let nullable = if blank == Json::Null { "yes" } else { "no" };
            format!("| `{key}` | {kind} | {nullable} | {} |", owner_of(key))
        })
        .collect();

    let design = include_str!("../../../../DESIGN.md");
    let header = "| key | type | nullable | section |";
    let table: Vec<&str> = design
        .lines()
        .skip_while(|line| *line != header)
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .collect();
    assert_eq!(table, printed, "DESIGN.md §6b's schema table:\n{}", printed.join("\n"));
}
