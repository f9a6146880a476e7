//! Observability-overhead benchmark: how much does instrumenting the
//! simulation cost, per sink configuration?
//!
//! The same small ScholarCloud scenario is run with:
//! * no dispatcher installed (the free functions' thread-local-read
//!   fast path),
//! * a dispatcher installed but **no sink attached** (metrics/registry
//!   still collect; `enabled()` early-outs before any event is built,
//!   so emission must cost nothing — ROADMAP item 1's zero-cost claim),
//! * a `JsonlSink` writing to `io::sink()` at `Debug` (serialization
//!   without disk),
//! * windows + SLO evaluation on top of that sink (the full operator
//!   configuration driven by the simnet tick hook).
//!
//! Two trace-stitching micro-benchmarks ride along:
//! * `trace_ctx_mint_and_roundtrip` — the per-request cost of causal
//!   propagation itself: mint a `TraceId`, render the `Sc-Trace` header,
//!   parse it back, derive a child context. This is the *only* work
//!   traced requests pay when no sink is attached (the scenario-level
//!   propagation cost is already inside `scenario_no_dispatcher`, since
//!   ids travel in-band unconditionally).
//! * `stitch_and_attribute_200_trees` — offline analyzer throughput:
//!   read a trace of 200 six-span requests, reconstruct their trees and
//!   run the exclusive-time sweep over each (what `scholar-obs` does
//!   per captured trace).
//!
//! The `analyze` group is the read side on its own, over a 2 000-tree
//! synthetic trace: `parse_trace` — which folds each line as it reads
//! it and builds the trees at the end — in MiB/s of JSONL, and
//! `analyze`, the window-dependent rest, in events/s.
//!
//! Numbers are recorded in EXPERIMENTS.md.

use criterion::{Criterion, Throughput, criterion_group, criterion_main};
use sc_metrics::scenario::default_slos;
use sc_metrics::{Method, ScenarioConfig, run_scenario};
use sc_obs::analyze::{analyze, parse_trace};
use sc_obs::{Dispatcher, JsonlSink, Level, TraceCtx, TraceId, WindowSpec};
use sc_simnet::time::SimDuration;

fn small_cfg(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
    cfg.loads = 3;
    cfg.interval = SimDuration::from_secs(5);
    cfg.timeout = SimDuration::from_secs(15);
    cfg
}

fn obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);

    g.bench_function("scenario_no_dispatcher", |b| {
        b.iter(|| run_scenario(&small_cfg(7)))
    });

    g.bench_function("scenario_dispatcher_no_sink", |b| {
        b.iter(|| {
            let guard = Dispatcher::new().with_level(Level::Debug).install();
            let out = run_scenario(&small_cfg(7));
            drop(guard);
            out
        })
    });

    g.bench_function("scenario_jsonl_sink_debug", |b| {
        b.iter(|| {
            let guard = Dispatcher::new()
                .with_level(Level::Debug)
                .with_sink(Box::new(JsonlSink::new(Box::new(std::io::sink()))))
                .install();
            let out = run_scenario(&small_cfg(7));
            drop(guard);
            out
        })
    });

    g.bench_function("scenario_windows_slos_jsonl", |b| {
        b.iter(|| {
            let guard = Dispatcher::new()
                .with_level(Level::Debug)
                .with_sink(Box::new(JsonlSink::new(Box::new(std::io::sink()))))
                .with_windows(WindowSpec::seconds(10))
                .with_slos(default_slos())
                .install();
            let out = run_scenario(&small_cfg(7));
            drop(guard);
            out
        })
    });

    g.finish();
}

/// Builds the JSONL trace of `trees` six-span request trees — the
/// canonical browser → admission → establish → attempt → relay chain —
/// spaced 1 ms apart, mimicking a captured ops trace.
fn synthetic_forest(trees: u64) -> String {
    let mut text = String::new();
    for i in 0..trees {
        let t0 = i * 1_000;
        let trace = TraceId::mint(i, 0x5eed).0;
        let spans: &[(&str, &str, u64, u64, u64)] = &[
            ("web", "page_load", t0, t0 + 900, 0),
            ("web", "tunnel", t0 + 10, t0 + 800, 1),
            ("scholarcloud", "admission", t0 + 20, t0 + 20, 2),
            ("scholarcloud", "establish", t0 + 20, t0 + 400, 2),
            ("scholarcloud", "attempt", t0 + 30, t0 + 400, 4),
            ("scholarcloud", "relay", t0 + 250, t0 + 380, 5),
        ];
        for (j, (component, name, start, end, parent_off)) in spans.iter().enumerate() {
            let id = i * 6 + j as u64 + 1;
            let parent = if j == 0 {
                String::new()
            } else {
                format!(",\"parent\":{}", i * 6 + parent_off + 1)
            };
            text.push_str(&format!(
                "{{\"t_us\":{start},\"level\":\"debug\",\"component\":\"{component}\",\
                 \"target\":\"t\",\"event\":\"span_start\",\"span\":{id},\"fields\":{{\
                 \"span_name\":\"{name}\",\"trace_id\":{trace}{parent}}}}}\n"
            ));
            text.push_str(&format!(
                "{{\"t_us\":{end},\"level\":\"info\",\"component\":\"{component}\",\
                 \"target\":\"t\",\"event\":\"span_end\",\"span\":{id},\"fields\":{{\
                 \"span_name\":\"{name}\",\"ok\":true}}}}\n"
            ));
        }
    }
    text
}

fn trace_stitching(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_stitching");

    // Per-request propagation cost: everything a traced request adds on
    // the hot path when no sink is attached.
    g.bench_function("trace_ctx_mint_and_roundtrip", |b| {
        let mut entropy = 0u64;
        b.iter(|| {
            entropy = entropy.wrapping_add(1);
            let ctx =
                TraceCtx { trace: TraceId::mint(entropy, 0xc0ffee), parent: sc_obs::SpanId(0) };
            let header = ctx.header_value();
            let parsed = TraceCtx::parse(&header).expect("roundtrip");
            criterion::black_box(parsed.with_parent(sc_obs::SpanId(entropy)))
        })
    });

    // Offline analyzer throughput: trees stitched + attributed per pass.
    let text = synthetic_forest(200);
    g.bench_function("stitch_and_attribute_200_trees", |b| {
        b.iter(|| {
            let trace = parse_trace(&text).expect("synthetic trace parses");
            let analysis = analyze(&trace, 1_000_000);
            assert_eq!(analysis.trees.len(), 200);
            criterion::black_box(analysis.tier_totals.len())
        })
    });

    g.finish();
}

/// The analyzer's two input stages over one synthetic trace.
fn analyzer_read_side(c: &mut Criterion) {
    let text = synthetic_forest(2_000);
    let trace = parse_trace(&text).expect("synthetic trace parses");
    let mut g = c.benchmark_group("analyze");

    g.throughput(Throughput::Bytes(text.len() as u64));
    g.bench_function("parse_trace", |b| {
        b.iter(|| parse_trace(criterion::black_box(&text)).expect("synthetic trace parses"))
    });

    g.throughput(Throughput::Elements(analyze(&trace, 1_000_000).events as u64));
    g.bench_function("analyze", |b| {
        b.iter(|| analyze(criterion::black_box(&trace), 1_000_000))
    });

    g.finish();
}

criterion_group!(benches, obs_overhead, trace_stitching, analyzer_read_side);
criterion_main!(benches);
