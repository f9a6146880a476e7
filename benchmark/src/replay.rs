//! `obs_trace_replay`: the read side of `sc-obs`.
//!
//! Set-up captures two Debug-level JSONL traces in memory — one
//! repetition of `sc_ops_incident` and one of `sc_gateway_fleet` — and
//! every repetition runs one pass of `parse_trace` → `analyze` →
//! `render_report` → `render_json` over both. The simulator does no
//! work in a repetition.

use std::time::Instant;

use sc_obs::analyze::{self, TraceAnalysis, TraceTree};

use crate::facts::{PartFacts, ReplayFacts};
use crate::spans;
use crate::stats;
use crate::workloads::{self, Observe, PartSpec};

/// Timeline window the analyzer is run with.
pub const WINDOW_US: u64 = 10_000_000;

/// One captured trace plus what its capture run measured, which the
/// analyzer's reconstruction must reproduce.
#[derive(Debug)]
pub struct Capture {
    /// The JSONL text.
    pub text: String,
    /// The capture run's own counts.
    pub facts: PartFacts,
    /// The capture run's load deadline.
    pub timeout_us: u64,
}

/// The two capture scenarios: one repetition of `sc_ops_incident` and
/// one of `sc_gateway_fleet`.
pub fn capture_specs(seed: u64) -> [PartSpec; 2] {
    [
        workloads::ops_incident_part(seed),
        workloads::gateway_fleet_part(seed),
    ]
}

/// Runs one capture scenario under a Debug dispatcher with an in-memory
/// JSONL sink. Also returns the wall seconds of each lap of the run.
pub fn capture(spec: &PartSpec) -> (Capture, Vec<f64>) {
    let run = workloads::run_part(spec, Observe::Capture);
    let lap_s = run.lap_s.clone();
    let facts = PartFacts::of(&run, workloads::expected_loads(&spec.cfg));
    let text = run
        .telemetry
        .expect("capture runs under a dispatcher")
        .trace;
    let capture = Capture {
        text,
        facts,
        timeout_us: run.timeout_us,
    };
    (capture, lap_s)
}

/// Whether `tree` explains its load: it has a root `page_load` span and
/// the per-tier exclusive times sum to exactly the root's PLT.
pub fn explained(tree: &TraceTree) -> bool {
    tree.root.is_some() && tree.tier_us.values().sum::<u64>() == tree.plt_us
}

/// The reconstructed PLT of a tree's load: its root's duration when the
/// load completed, otherwise `None` (it enters the sample at the
/// timeout, as in the capture run).
fn reconstructed_plt(tree: &TraceTree) -> Option<u64> {
    tree.completed().then_some(tree.plt_us)
}

/// Wall seconds of the four analyzer stages of one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `parse_trace`.
    pub parse_s: f64,
    /// `analyze`.
    pub analyze_s: f64,
    /// `render_report`.
    pub report_s: f64,
    /// `render_json`.
    pub json_s: f64,
}

impl StageTimes {
    /// The four stages as the laps of a pass, in call order.
    pub fn laps(&self) -> [f64; 4] {
        [self.parse_s, self.analyze_s, self.report_s, self.json_s]
    }
}

/// What one analyzer pass over one trace found.
#[derive(Debug)]
pub struct PassOutput {
    /// The analysis (kept for the per-layer rows).
    pub analysis: TraceAnalysis,
    /// Bytes of report text plus JSON rendered.
    pub rendered_bytes: u64,
    /// How long each stage took.
    pub stages: StageTimes,
}

/// One pass over one trace, each analyzer entry point in its own
/// harness span.
pub fn pass(trace: &str) -> PassOutput {
    fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = spans::within(name, f);
        (out, t0.elapsed().as_secs_f64())
    }
    let (events, parse_s) = timed("obs.parse_trace", || analyze::parse_trace(trace));
    let events = events.expect("a trace the sink wrote parses");
    let (analysis, analyze_s) = timed("obs.analyze", || analyze::analyze(&events, WINDOW_US));
    let (report, report_s) = timed("obs.render_report", || analyze::render_report(&analysis));
    let (json, json_s) = timed("obs.render_json", || analyze::render_json(&analysis));
    let rendered_bytes = (report.len() + json.len()) as u64;
    std::hint::black_box((&report, &json));
    PassOutput {
        analysis,
        rendered_bytes,
        stages: StageTimes {
            parse_s,
            analyze_s,
            report_s,
            json_s,
        },
    }
}

/// One repetition: one pass over every capture. Only the four analyzer
/// calls run here, so the caller's timer measures the analyzer and not
/// the harness.
pub fn repetition(captures: &[Capture]) -> Vec<PassOutput> {
    captures.iter().map(|c| pass(&c.text)).collect()
}

/// Reduces a repetition to its exact counts.
pub fn facts(captures: &[Capture], rep: &[PassOutput]) -> ReplayFacts {
    let mut facts = ReplayFacts::default();
    for (capture, out) in captures.iter().zip(rep) {
        let loads = || out.analysis.trees.iter().filter(|t| t.root.is_some());
        facts.loads_per_pass += loads().count() as u64;
        facts.ok_per_pass += loads().filter(|t| explained(t)).count() as u64;
        facts.plt_us.extend(stats::plt_sample(
            loads().map(reconstructed_plt),
            capture.timeout_us,
        ));
        facts.events_per_pass += out.analysis.events as u64;
        facts.bytes_per_pass += capture.text.len() as u64;
        facts.rendered_bytes_per_pass += out.rendered_bytes;
        facts.slo_alerts_per_pass += out.analysis.slo_alerts.len() as u64;
    }
    facts.plt_us.sort_unstable();
    facts
}

/// The pooled PLT sample of the capture runs themselves.
pub fn capture_plt_us(captures: &[Capture]) -> Vec<u64> {
    let mut all: Vec<u64> = captures
        .iter()
        .flat_map(|c| c.facts.plt_us.iter().copied())
        .collect();
    all.sort_unstable();
    all
}
