//! The measurement engine: set-up passes, timed repetitions, the traced
//! repetitions, and the reduction of all of it to metric rows.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sc_obs::analyze::{self, TraceAnalysis};
use sc_obs::prof::{self, ProfReport, Subsystem};

use crate::calibrate::{self, Kernel};
use crate::check::{self, IncidentFacts, MatrixFacts, ReplayCheck};
use crate::facts::{PartFacts, RepFacts};
use crate::layers::{self, LAYER_METRICS};
use crate::micro;
use crate::replay::{self, Capture, StageTimes};
use crate::spans;
use crate::stats;
use crate::workloads::{self, Observe, PartSpec, Telemetry, Workload};

/// Timed repetitions never fall below this, whatever `--seconds` says.
pub const MIN_REPS: usize = 10;
/// Set-up passes per run; `setup_s` is their median.
pub const SETUP_PASSES: usize = 5;
/// Untraced/traced repetition pairs a `--trace 1` run never falls below.
const MIN_TRACE_PAIRS: usize = 3;
/// Analyzer rounds timed for the `obs.*` stage rows (fastest wins).
const ANALYZE_ROUNDS: usize = 3;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed section should fill.
    pub seconds: f64,
    /// `--smoke`: one repetition, one set-up pass, nothing warmed up.
    pub smoke: bool,
}

impl Options {
    fn min_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            MIN_REPS
        }
    }
}

/// A named value with its unit and an optional note printed after it.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Extra columns (`q=… n=…` for the tail percentile).
    pub note: String,
}

/// The outcome of measuring one workload in one mode.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric rows, in table order.
    pub rows: Vec<Row>,
    /// Loads attempted over the measured repetitions.
    pub attempted: u64,
    /// Loads that never reached a terminal result.
    pub failed: u64,
    /// Correctness violations (empty when the run is correct).
    pub violations: Vec<String>,
    /// Informational lines (self-time table, rep walls).
    pub info: Vec<String>,
}

/// Everything a workload needs before a repetition can run: its
/// generated inputs.
struct Prepared {
    workload: Workload,
    parts: Vec<PartSpec>,
    captures: Vec<Capture>,
}

/// What ran between two calls of the calibration kernel: its laps, and
/// what the kernel call right before and the one right after took. Laps
/// are wall seconds of pieces of work that are the same in every
/// repetition (see `workloads::lap_plan`).
#[derive(Debug, Clone, Default)]
struct Unit {
    lap_s: Vec<f64>,
    kernel_s: (f64, f64),
}

/// Generates the workload's inputs from the seed. For `obs_trace_replay`
/// this runs the two capture scenarios, one unit each when paced. Also
/// returns those units and the wall seconds of whatever else it did.
fn prepare(
    workload: Workload,
    opts: &Options,
    mut pace: Option<&mut Pace>,
) -> (Prepared, Vec<Unit>, f64) {
    let t0 = Instant::now();
    let parts = workloads::parts(workload, opts.seed);
    let specs = match workload {
        Workload::ObsTraceReplay => replay::capture_specs(opts.seed).to_vec(),
        _ => Vec::new(),
    };
    let inputs_s = t0.elapsed().as_secs_f64();
    let mut units = Vec::new();
    let captures = specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            let (capture, mut lap_s) = replay::capture(spec);
            let capture_s = t0.elapsed().as_secs_f64();
            // What the capture costs outside `finish`: the build and
            // reading the trace back.
            lap_s.push(capture_s - lap_s.iter().sum::<f64>());
            if let Some(pace) = pace.as_deref_mut() {
                units.push(Unit {
                    lap_s,
                    kernel_s: pace.around(),
                });
            }
            capture
        })
        .collect();
    let prepared = Prepared {
        workload,
        parts,
        captures,
    };
    (prepared, units, inputs_s)
}

/// The calibration kernel and the time its latest call took.
struct Pace {
    kernel: Kernel,
    last_s: f64,
    /// Every call so far, for the record.
    calls_s: Vec<f64>,
}

impl Pace {
    fn start() -> Pace {
        let mut kernel = Kernel::new();
        let last_s = kernel.call();
        Pace {
            kernel,
            last_s,
            calls_s: vec![last_s],
        }
    }

    /// Times one more kernel call; returns the previous call's time and
    /// this one's, which lie right before and right after whatever ran
    /// in between.
    fn around(&mut self) -> (f64, f64) {
        let before = self.last_s;
        self.last_s = self.kernel.call();
        self.calls_s.push(self.last_s);
        (before, self.last_s)
    }
}

/// One repetition, measured from outside.
struct Rep {
    facts: RepFacts,
    /// Wall time inside the stack: `finish` per part, or the analyzer
    /// pass.
    run_s: f64,
    /// Per-part `finish` wall, in part order (for replay: the pass).
    part_run_s: Vec<f64>,
    /// One unit per part when the repetition ran paced: the laps of the
    /// part's `finish` (for replay: the four analyzer stages over each
    /// trace).
    units: Vec<Unit>,
    /// Wall time of `build_scenario` over all parts.
    build_s: f64,
    alloc_bytes: u64,
    allocs: u64,
    /// Peak in-use heap above the level the repetition started from.
    peak_live: u64,
    /// Telemetry of each part that ran under a dispatcher.
    telemetry: Vec<Option<Telemetry>>,
}

/// Allocation counters around a piece of work: `(bytes, calls, peak
/// above the starting level)`.
fn counting_allocs<R>(f: impl FnOnce() -> R) -> (R, u64, u64, u64) {
    let before = prof::alloc_stats();
    prof::reset_alloc_peak();
    let out = f();
    let after = prof::alloc_stats();
    (
        out,
        after.allocated_bytes - before.allocated_bytes,
        after.allocations - before.allocations,
        after.peak_bytes.saturating_sub(before.in_use_bytes),
    )
}

/// One repetition: every part once. With `pace`, a calibration-kernel
/// call follows every part, outside what is timed.
fn rep(p: &Prepared, observe: Observe, mut pace: Option<&mut Pace>) -> Rep {
    let mut out = Rep {
        facts: RepFacts::default(),
        run_s: 0.0,
        part_run_s: Vec::new(),
        units: Vec::new(),
        build_s: 0.0,
        alloc_bytes: 0,
        allocs: 0,
        peak_live: 0,
        telemetry: Vec::new(),
    };
    if p.workload == Workload::ObsTraceReplay {
        let t0 = Instant::now();
        let (rep_out, bytes, calls, peak) = counting_allocs(|| replay::repetition(&p.captures));
        out.run_s = t0.elapsed().as_secs_f64();
        out.part_run_s.push(out.run_s);
        if let Some(pace) = pace {
            out.units.push(Unit {
                lap_s: rep_out.iter().flat_map(|o| o.stages.laps()).collect(),
                kernel_s: pace.around(),
            });
        }
        (out.alloc_bytes, out.allocs, out.peak_live) = (bytes, calls, peak);
        out.facts.replay = Some(replay::facts(&p.captures, &rep_out));
        return out;
    }
    for spec in &p.parts {
        let (run, bytes, calls, peak) = counting_allocs(|| workloads::run_part(spec, observe));
        out.alloc_bytes += bytes;
        out.allocs += calls;
        out.peak_live = out.peak_live.max(peak);
        out.run_s += run.run.as_secs_f64();
        out.part_run_s.push(run.run.as_secs_f64());
        if let Some(pace) = pace.as_deref_mut() {
            out.units.push(Unit {
                lap_s: run.lap_s.clone(),
                kernel_s: pace.around(),
            });
        }
        out.build_s += run.build.as_secs_f64();
        out.facts
            .parts
            .push(PartFacts::of(&run, workloads::expected_loads(&spec.cfg)));
        out.telemetry.push(run.telemetry);
    }
    out
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

fn per_k(n: u64, loads: u64) -> f64 {
    per(n * 1000, loads)
}

/// Stitching and alert facts of the incident, from one repetition's
/// telemetry.
fn incident_facts(t: &Telemetry) -> IncidentFacts {
    let events = analyze::parse_trace(&t.trace).expect("a trace the sink wrote parses");
    let analysis = analyze::analyze(&events, replay::WINDOW_US);
    let completed = analysis.trees.iter().filter(|t| t.completed());
    IncidentFacts {
        failovers: t.registry.counter("scholarcloud.failovers"),
        slo_fired: t.slo_fired,
        slo_firing_at_end: t.slo_firing_at_end,
        completed: completed.clone().count() as u64,
        stitched: completed.filter(|t| t.stitched()).count() as u64,
    }
}

fn matrix_facts(facts: &RepFacts) -> Option<MatrixFacts> {
    let vpn = facts.part("native_vpn")?;
    let ss = facts.part("shadowsocks")?;
    let tor = facts.part("tor")?;
    Some(MatrixFacts {
        vpn_p50_us: stats::p50(&vpn.plt_us)?,
        ss_p50_us: stats::p50(&ss.plt_us)?,
        tor_first_p50_us: stats::p50(&tor.first_plt_us)?,
        tor_p50_us: stats::p50(&tor.plt_us)?,
        vpn_plr: vpn.plr(),
        ss_plr: ss.plr(),
    })
}

/// Workload-specific correctness checks on one repetition.
fn workload_checks(p: &Prepared, r: &Rep, opts: &Options) -> Vec<String> {
    let mut out = check::loads_complete(&r.facts, p.workload.is_steady(), opts.seed);
    match p.workload {
        Workload::TransportMatrix => match matrix_facts(&r.facts) {
            Some(m) => out.extend(check::matrix_orderings(&m)),
            None => out.push("a transport_matrix part produced no PLT sample".to_string()),
        },
        Workload::ScOpsIncident => match r.telemetry.first().and_then(Option::as_ref) {
            Some(t) => out.extend(check::incident_exercised(&incident_facts(t))),
            None => out.push("the incident ran without its dispatcher".to_string()),
        },
        Workload::ObsTraceReplay => {
            let replayed = r
                .facts
                .replay
                .as_ref()
                .expect("replay repetitions carry replay facts");
            let capture_plt = replay::capture_plt_us(&p.captures);
            out.extend(check::replay_matches_capture(&ReplayCheck {
                capture_loads: p.captures.iter().map(|c| c.facts.logged).sum(),
                replay_loads: replayed.loads_per_pass,
                capture_p50_us: stats::p50(&capture_plt).unwrap_or(0),
                replay_p50_us: stats::p50(&replayed.plt_us).unwrap_or(0),
            }));
        }
        Workload::ScTunnelSteady | Workload::ScGatewayFleet => {}
    }
    out
}

/// Seconds one run through `runs`' work takes at reference speed. Every
/// run is the same sequence of units of the same laps. Each lap is
/// scaled by the faster of the two kernel calls around its unit — the
/// machine changes speed every few seconds, so only a call next to the
/// lap says how fast it was then, and a call that took long may have
/// been stalled — and counted at the lower quartile of that over the
/// runs: identical work means that whatever a lap takes above its usual
/// time is a stall of the machine, and a lap is short enough to escape
/// them in a quarter of the runs of even a bad minute.
fn at_reference_speed(runs: &[&[Unit]]) -> f64 {
    let Some(first) = runs.first() else {
        return 0.0;
    };
    let mut total = 0.0;
    for (u, unit) in first.iter().enumerate() {
        for lap in 0..unit.lap_s.len() {
            let scaled: Vec<f64> = runs
                .iter()
                .map(|run| {
                    let (before, after) = run[u].kernel_s;
                    calibrate::at_reference_speed(run[u].lap_s[lap], before.min(after))
                })
                .collect();
            total += stats::lower_quartile(&scaled).expect("at least one run");
        }
    }
    total
}

/// `--trace 0`: set-up passes, then timed repetitions of identical
/// work with the profiler off and no spans; the eight end-to-end rows.
pub fn end_to_end(workload: Workload, opts: &Options, process_start: Instant) -> Measured {
    // One call of the calibration kernel runs before and after every
    // unit of work: a capture, or a part of a repetition.
    let pace_start = Instant::now();
    let mut pace = Pace::start();
    // Only the first pass starts a process.
    let startup_s = (pace_start - process_start).as_secs_f64();

    // Set-up, several times over: generate the inputs (for replay:
    // capture both traces), build, and run one discarded warm-up
    // repetition.
    let passes = if opts.smoke { 1 } else { SETUP_PASSES };
    let mut setup: Vec<Vec<Unit>> = Vec::with_capacity(passes);
    let mut warm_facts = Vec::new();
    let mut prepared = None;
    for _ in 0..passes {
        let (p, mut units, inputs_s) = prepare(workload, opts, Some(&mut pace));
        let mut unpaced_s = inputs_s;
        // A smoke run times nothing, so it has nothing to warm up.
        if !opts.smoke {
            let warm = rep(&p, Observe::AsSpecified, Some(&mut pace));
            unpaced_s += warm.build_s;
            units.extend(warm.units);
            warm_facts.push(warm.facts);
        }
        // Input generation and the builds are a millisecond between
        // them: one more lap of the pass's first unit.
        match units.first_mut() {
            Some(unit) => unit.lap_s.push(unpaced_s),
            None => units.push(Unit {
                lap_s: vec![unpaced_s],
                kernel_s: (calibrate::REFERENCE_S, calibrate::REFERENCE_S),
            }),
        }
        setup.push(units);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up pass ran");
    let setup_calls = pace.calls_s.len();

    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let timed = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < opts.min_reps() || timed.elapsed() < budget {
        // Only the latest trace text is kept (the incident check reads
        // it once, after timing).
        if let Some(prev) = reps.last_mut() {
            prev.telemetry.clear();
        }
        reps.push(rep(&p, Observe::AsSpecified, Some(&mut pace)));
    }

    let rep_units: Vec<&[Unit]> = reps.iter().map(|r| r.units.as_slice()).collect();
    let rep_s = at_reference_speed(&rep_units);
    let setup_units: Vec<&[Unit]> = setup.iter().map(Vec::as_slice).collect();
    let setup_s = startup_s + at_reference_speed(&setup_units);
    let last = reps.last().expect("at least one repetition ran");
    let facts = &last.facts;

    let mut violations = check::reps_identical(reps.iter().map(|r| &r.facts).chain(&warm_facts));
    violations.extend(workload_checks(&p, last, opts));

    let loads = facts.attempted();
    let plt = facts.plt_us();
    let p50 = stats::p50(&plt).unwrap_or(0);
    let (tail_value, tail_note) = match stats::tail(&plt) {
        Some(t) => (t.value, format!("q={:.5} n={}", t.q, t.n)),
        None => (
            plt.last().copied().unwrap_or(0),
            format!("q=1 n={} (fewer than 11 samples: maximum)", plt.len()),
        ),
    };
    let row = |name, value, note: String| {
        let m = check::END_TO_END
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        let sep = if note.is_empty() { "" } else { "; " };
        Row {
            name,
            value,
            unit: m.unit,
            note: format!("{}{sep}{note}", m.kind.as_str()),
        }
    };
    let n = format!("n={}", plt.len());
    let rows = vec![
        row(
            "loads_per_s",
            loads as f64 / rep_s,
            format!("lower quartile of {} reps at reference speed", reps.len()),
        ),
        row(
            "setup_s",
            setup_s,
            format!("lower quartile of {passes} passes at reference speed"),
        ),
        row(
            "alloc_bytes_per_load",
            per(last.alloc_bytes, loads),
            String::new(),
        ),
        row("allocs_per_load", per(last.allocs, loads), String::new()),
        row(
            "peak_live_mib",
            last.peak_live as f64 / (1024.0 * 1024.0),
            String::new(),
        ),
        row(
            "ok_share",
            facts.ok_share(),
            format!("{} of {loads}", facts.ok()),
        ),
        row("sim_plt_p50_ms", ms(p50), n),
        row("sim_plt_tail_ms", ms(tail_value), tail_note),
    ];
    let millis = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let walls: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let setup_walls: Vec<f64> = setup
        .iter()
        .map(|pass| pass.iter().flat_map(|u| &u.lap_s).sum())
        .collect();
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let (setup_kernel_s, kernel_s) = pace.calls_s.split_at(setup_calls);
    let mut info = vec![
        format!("set-up passes ms, as timed: {}", millis(&setup_walls)),
        format!("kernel ms during set-up: {}", millis(setup_kernel_s)),
        format!("rep walls ms, as timed: {}", millis(&walls)),
        format!("kernel ms after each part: {}", millis(kernel_s)),
        format!(
            "as timed: loads_per_s {} from the median rep, {} from the fastest, setup_s {}",
            loads as f64 / stats::median(&walls).unwrap_or(f64::NAN),
            loads as f64 / fastest,
            startup_s + stats::median(&setup_walls).unwrap_or(0.0)
        ),
    ];
    if std::env::var_os("SC_BENCH_LAPS").is_some() {
        info.extend(reps.iter().map(|r| {
            let laps: Vec<f64> = r.units.iter().flat_map(|u| u.lap_s.clone()).collect();
            format!("laps ms: {}", millis(&laps))
        }));
    }
    let measured_reps = reps.len() as u64;
    Measured {
        rows,
        attempted: loads * measured_reps,
        failed: (loads - facts.logged().min(loads)) * measured_reps,
        violations,
        info,
    }
}

/// Fastest wall time of each analyzer stage over `traces`, and the
/// analyses of the last round.
struct AnalyzerTimes {
    stages: StageTimes,
    bytes: u64,
    events: u64,
    analyses: Vec<TraceAnalysis>,
}

fn time_analyzer(traces: &[&str], rounds: usize) -> AnalyzerTimes {
    let inf = f64::INFINITY;
    let mut t = AnalyzerTimes {
        stages: StageTimes {
            parse_s: inf,
            analyze_s: inf,
            report_s: inf,
            json_s: inf,
        },
        bytes: traces.iter().map(|s| s.len() as u64).sum(),
        events: 0,
        analyses: Vec::new(),
    };
    for _ in 0..rounds.max(1) {
        let mut round = StageTimes::default();
        t.analyses.clear();
        for text in traces {
            let out = replay::pass(text);
            round.parse_s += out.stages.parse_s;
            round.analyze_s += out.stages.analyze_s;
            round.report_s += out.stages.report_s;
            round.json_s += out.stages.json_s;
            t.analyses.push(out.analysis);
        }
        t.stages.parse_s = t.stages.parse_s.min(round.parse_s);
        t.stages.analyze_s = t.stages.analyze_s.min(round.analyze_s);
        t.stages.report_s = t.stages.report_s.min(round.report_s);
        t.stages.json_s = t.stages.json_s.min(round.json_s);
    }
    t.events = t.analyses.iter().map(|a| a.events as u64).sum();
    t
}

/// `simnet/packet/drop` events with the given reason in a JSONL trace.
/// Drop reasons are visible nowhere else from outside the simulator; the
/// sink writes keys in a fixed order, so a substring match is exact.
fn drops_with_reason(trace: &str, reason: &str) -> u64 {
    let event = "\"component\":\"simnet\",\"target\":\"packet\",\"event\":\"drop\"";
    let reason = format!("\"reason\":\"{reason}\"");
    trace
        .lines()
        .filter(|l| l.contains(event) && l.contains(&reason))
        .count() as u64
}

/// `--trace 1`: a capture repetition, the micro rows, then alternating
/// untraced and traced repetitions; every per-layer row.
pub fn per_layer(workload: Workload, opts: &Options) -> Measured {
    let label = workload.name();
    let started = Instant::now();
    // Per-layer host rows are reported as timed; one call of the
    // calibration kernel per round says how fast the machine was.
    let mut kernel = Kernel::new();
    let mut kernel_s = Vec::new();
    let (p, _, _) = prepare(workload, opts, None);
    // Facts of repetitions that are dropped before the comparison.
    let mut other_facts = Vec::new();

    // Capture repetition: every part under a Debug dispatcher, for the
    // registry counts and a trace to analyze. It doubles as the warm-up
    // and its wall time is never reported. Replay's traces were captured
    // by `prepare`, so it runs one warm-up repetition here instead.
    let is_replay = workload == Workload::ObsTraceReplay;
    let captured = spans::recorded(label, "capture", || rep(&p, Observe::Capture, None));
    other_facts.push(captured.facts.clone());
    let traces: Vec<&str> = if is_replay {
        p.captures.iter().map(|c| c.text.as_str()).collect()
    } else {
        captured
            .telemetry
            .iter()
            .flatten()
            .map(|t| t.trace.as_str())
            .collect()
    };
    let rounds = if opts.smoke { 1 } else { ANALYZE_ROUNDS };
    let analyzer = spans::recorded(label, "analyze", || time_analyzer(&traces, rounds));
    let micro_rows = spans::recorded(label, "micro", || micro::run_all(opts.smoke));

    // Alternate untraced and traced repetitions (plus, where the
    // workload runs under a dispatcher, a repetition without it) until
    // the budget, counted from the start of this run, is spent.
    let has_dispatcher = p.parts.iter().any(|s| s.incident);
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let min_pairs = if opts.smoke { 1 } else { MIN_TRACE_PAIRS };
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, ProfReport)> = Vec::new();
    let mut dark_s: Vec<f64> = Vec::new();
    while untraced.len() < min_pairs || started.elapsed() < budget {
        let i = untraced.len();
        let mut r = rep(&p, Observe::AsSpecified, None);
        r.telemetry.clear();
        untraced.push(r);

        prof::reset();
        prof::set_enabled(true);
        let mut r = spans::recorded(label, format!("traced-{i}"), || {
            rep(&p, Observe::AsSpecified, None)
        });
        prof::set_enabled(false);
        r.telemetry.clear();
        traced.push((r, prof::report()));

        if has_dispatcher {
            let r = rep(&p, Observe::Dark, None);
            dark_s.push(r.run_s);
            // Emission must not change what is simulated.
            other_facts.push(r.facts);
        }
        kernel_s.push(kernel.call());
    }

    let mut violations = check::reps_identical(
        untraced
            .iter()
            .chain(traced.iter().map(|(r, _)| r))
            .map(|r| &r.facts)
            .chain(&other_facts),
    );
    violations.extend(workload_checks(&p, &captured, opts));

    let untraced_s: Vec<f64> = untraced.iter().map(|r| r.run_s).collect();
    let best = &untraced[stats::best_of(&untraced_s).expect("at least one pair ran")];
    let traced_s: Vec<f64> = traced.iter().map(|(r, _)| r.run_s).collect();
    let (best_traced, prof_report) =
        &traced[stats::best_of(&traced_s).expect("at least one pair ran")];
    let facts = &best.facts;
    let loads = facts.attempted();
    let events = facts.events();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut set = |name: &'static str, v: f64| {
        // `+ 0.0` turns a negative zero into zero.
        values.insert(name, if v.is_finite() { v + 0.0 } else { 0.0 });
    };

    // --- counts from the untraced repetition's facts ---
    let sum = |f: fn(&PartFacts) -> u64| facts.parts.iter().map(f).sum::<u64>();
    set("simnet.events_per_load", per(events, loads));
    set("simnet.timers_per_load", per(sum(|p| p.timers), loads));
    set(
        "simnet.queue_depth_hwm",
        facts.parts.iter().map(|p| p.queue_hwm).max().unwrap_or(0) as f64,
    );
    set(
        "simnet.alloc_bytes_per_event",
        per(best.alloc_bytes, events),
    );
    set(
        "simnet.drops_censor_per_kload",
        per_k(sum(|p| p.censor_drops), loads),
    );
    let weighted_plr: f64 = facts
        .parts
        .iter()
        .map(|p| p.plr() * p.expected as f64)
        .sum();
    set(
        "simnet.plr_pct",
        if loads == 0 {
            0.0
        } else {
            100.0 * weighted_plr / loads as f64
        },
    );
    set("simnet.events_per_s", events as f64 / best.run_s);
    set(
        "gfw.interference_per_kload",
        per_k(sum(|p| p.gfw_interference), loads),
    );
    set(
        "scholarcloud.status_503_per_kload",
        per_k(sum(|p| p.status_503), loads),
    );
    // At most one part of a workload has a cache (the ScholarCloud one).
    let cache = facts.parts.iter().find_map(|p| p.cache).unwrap_or_default();
    let lookups = cache.lookups();
    set("cache.hit_share", per(cache.hits, lookups));
    set("cache.coalesced_share", per(cache.coalesced, lookups));
    set("cache.evictions_per_kload", per_k(cache.evicted, loads));
    set(
        "cache.revalidations_per_kload",
        per_k(cache.revalidated, loads),
    );
    set("cache.peer_fetch_share", per(cache.peer_fetches, lookups));
    set(
        "cache.upstream_fetches_per_kload",
        per_k(cache.upstream_fetches, loads),
    );
    let first_plt: Vec<u64> = {
        let mut v: Vec<u64> = facts
            .parts
            .iter()
            .flat_map(|p| p.first_plt_us.iter().copied())
            .collect();
        v.sort_unstable();
        v
    };
    set(
        "web.sim_plt_first_p50_ms",
        ms(stats::p50(&first_plt).unwrap_or(0)),
    );
    set(
        "web.client_wire_kib_per_load",
        per(sum(|p| p.client_wire_bytes), sum(|p| p.client_loads)) / 1024.0,
    );
    set("web.conns_per_load", per(sum(|p| p.conns), loads));
    set(
        "web.throttled_per_kload",
        per_k(sum(|p| p.throttled), loads),
    );
    set(
        "metrics.peak_live_kib_per_load",
        per(best.peak_live, loads) / 1024.0,
    );
    let build_s = untraced
        .iter()
        .chain(traced.iter().map(|(r, _)| r))
        .map(|r| r.build_s);
    set(
        "metrics.build_scenario_ms",
        build_s.fold(f64::INFINITY, f64::min) * 1e3,
    );

    // --- per-method rows (transport_matrix only) ---
    if workload == Workload::TransportMatrix {
        for (i, part) in facts.parts.iter().enumerate() {
            let fastest = untraced
                .iter()
                .map(|r| r.part_run_s[i])
                .fold(f64::INFINITY, f64::min);
            set(
                layers::tunnel_row("loads_per_s", part.label),
                part.expected as f64 / fastest,
            );
            set(
                layers::tunnel_row("events_per_load", part.label),
                per(part.events, part.expected),
            );
            set(
                layers::tunnel_row("sim_plt_p50_ms", part.label),
                ms(stats::p50(&part.plt_us).unwrap_or(0)),
            );
        }
        if let Some(tor) = facts.part("tor") {
            set(
                "tunnels.sim_plt_first_p50_ms.tor",
                ms(stats::p50(&tor.first_plt_us).unwrap_or(0)),
            );
        }
    }

    // --- registry and trace of the capture repetition ---
    let counter = |name: &str| -> u64 {
        captured
            .telemetry
            .iter()
            .flatten()
            .map(|t| t.registry.counter(name))
            .sum()
    };
    set(
        "simnet.packets_per_load",
        per(counter("simnet.packets_sent"), loads),
    );
    set(
        "scholarcloud.failovers_per_kload",
        per_k(counter("scholarcloud.failovers"), loads),
    );
    set(
        "web.proxy_failovers_per_kload",
        per_k(counter("web.failovers"), loads),
    );
    if is_replay {
        // Here the trace is the input, not a by-product: size it per
        // explained load.
        let r = facts
            .replay
            .as_ref()
            .expect("replay repetitions carry replay facts");
        set(
            "obs.trace_kib_per_load",
            per(r.bytes_per_pass, r.loads_per_pass) / 1024.0,
        );
        set(
            "obs.trace_events_per_load",
            per(r.events_per_pass, r.loads_per_pass),
        );
        set("obs.slo_alerts_fired", r.slo_alerts_per_pass as f64);
    } else {
        let slo_fired: u64 = captured
            .telemetry
            .iter()
            .flatten()
            .map(|t| t.slo_fired)
            .sum();
        set(
            "obs.trace_kib_per_load",
            per(analyzer.bytes, loads) / 1024.0,
        );
        set("obs.trace_events_per_load", per(analyzer.events, loads));
        set("obs.slo_alerts_fired", slo_fired as f64);
    }
    set(
        "obs.parse_mib_per_s",
        analyzer.bytes as f64 / (1024.0 * 1024.0) / analyzer.stages.parse_s,
    );
    set(
        "obs.analyze_kevents_per_s",
        analyzer.events as f64 / 1000.0 / analyzer.stages.analyze_s,
    );
    set("obs.render_report_ms", analyzer.stages.report_s * 1e3);
    set("obs.render_json_ms", analyzer.stages.json_s * 1e3);
    let trees = || analyzer.analyses.iter().flat_map(|a| a.trees.iter());
    let rooted = trees().filter(|t| t.root.is_some()).count() as u64;
    let stitched = trees().filter(|t| t.root.is_some() && t.stitched()).count() as u64;
    let completed = trees().filter(|t| t.completed()).count() as u64;
    let completed_stitched = trees().filter(|t| t.completed() && t.stitched()).count() as u64;
    set("obs.stitched_share", per(stitched, rooted));
    set(
        "obs.attribution_coverage",
        per(completed_stitched, completed),
    );
    if !is_replay {
        // (Replay's traces are its input: their sheds and drops are not
        // its work, and its rows stay 0.)
        let admission = || analyzer.analyses.iter().map(|a| &a.admission);
        let shed: u64 = admission().map(|a| a.shed + a.throttled).sum();
        let decisions: u64 = admission().map(|a| a.decisions()).sum();
        let drops = |reason| {
            traces
                .iter()
                .map(|t| drops_with_reason(t, reason))
                .sum::<u64>()
        };
        set("scholarcloud.shed_share", per(shed, decisions));
        set(
            "simnet.drops_loss_per_kload",
            per_k(drops("link_loss"), loads),
        );
        set(
            "simnet.drops_queue_per_kload",
            per_k(drops("queue_overflow"), loads),
        );
    }

    // --- the profiler's split of the traced repetition ---
    let self_ns = |s: Subsystem| prof_report.self_ns(s) as f64;
    let scopes = |s: Subsystem| prof_report.scopes(s) as f64;
    let ratio = |n: f64, d: f64| if d == 0.0 { 0.0 } else { n / d };
    set(
        "simnet.event_loop_self_ns_per_event",
        ratio(self_ns(Subsystem::EventLoop), events as f64),
    );
    set(
        "simnet.tcp_self_ns_per_event",
        ratio(self_ns(Subsystem::Tcp), events as f64),
    );
    set(
        "gfw.classify_self_ns_per_packet",
        ratio(
            self_ns(Subsystem::GfwClassify),
            scopes(Subsystem::GfwClassify),
        ),
    );
    set(
        "scholarcloud.proxy_self_ns_per_load",
        ratio(self_ns(Subsystem::Proxy), loads as f64),
    );
    set(
        "cache.self_ns_per_lookup",
        ratio(self_ns(Subsystem::Cache), lookups as f64),
    );
    set(
        "obs.prof_overhead_pct",
        100.0 * (best_traced.run_s / best.run_s - 1.0),
    );
    let dark_best = dark_s.iter().copied().fold(f64::INFINITY, f64::min);
    set(
        "obs.emit_overhead_pct",
        if dark_s.is_empty() {
            0.0
        } else {
            100.0 * (best.run_s / dark_best - 1.0)
        },
    );

    // --- micro rows and the harness self-check ---
    for r in &micro_rows {
        set(r.name, r.value);
    }
    let rates: Vec<f64> = untraced_s.iter().map(|s| loads as f64 / s).collect();
    set(
        "bench.kernel_ms",
        1e3 * kernel_s.iter().sum::<f64>() / kernel_s.len() as f64,
    );
    set(
        "bench.rep_wall_iqr_pct",
        100.0 * stats::quartile_spread(&untraced_s).unwrap_or(0.0),
    );
    set(
        "bench.loads_per_s_median",
        stats::median(&rates).unwrap_or(0.0),
    );

    let rows = LAYER_METRICS
        .iter()
        .map(|m| Row {
            name: m.name,
            value: values.get(m.name).copied().unwrap_or(0.0),
            unit: m.unit,
            note: String::new(),
        })
        .collect();

    // --- where the traced repetition's wall time went ---
    let mut info = Vec::new();
    let total_ns = (best_traced.run_s * 1e9).max(1.0);
    if is_replay {
        info.push(format!(
            "traced rep {:.3} s, 0 simulator events",
            best_traced.run_s
        ));
    } else {
        let shares: Vec<String> = Subsystem::ALL
            .iter()
            .map(|&s| format!("{} {:.1}%", s.name(), 100.0 * self_ns(s) / total_ns))
            .collect();
        info.push(format!(
            "simnet.run {:.3} s split by prof: {}",
            best_traced.run_s,
            shares.join(", ")
        ));
    }
    let all_spans = spans::snapshot();
    let own = spans::self_times(&all_spans);
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own_ns) in all_spans.iter().zip(&own) {
        if s.workload == label {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own_ns;
        }
    }
    for (name, (count, own_ns)) in by_name {
        info.push(format!(
            "span {name}: {count} calls, self {:.3} ms",
            own_ns as f64 / 1e6
        ));
    }

    let measured = (untraced.len() + traced.len()) as u64;
    Measured {
        rows,
        attempted: loads * measured,
        failed: (loads - facts.logged().min(loads)) * measured,
        violations,
        info,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(lap_ms: &[f64], kernel_ms: (f64, f64)) -> Unit {
        Unit {
            lap_s: lap_ms.iter().map(|ms| ms / 1e3).collect(),
            kernel_s: (kernel_ms.0 / 1e3, kernel_ms.1 / 1e3),
        }
    }

    #[test]
    fn stalls_and_slow_spells_leave_the_reference_time_alone() {
        let k = calibrate::REFERENCE_S * 1e3;
        let quiet = [unit(&[10.0, 20.0], (k, k)), unit(&[5.0], (k, k))];
        // A stall in one lap; a stall in one of the kernel calls.
        let stalled = [unit(&[10.0, 95.0], (k, k)), unit(&[5.0], (k, 4.0 * k))];
        // The whole repetition at 1.6x, kernel and all.
        let slow = [
            unit(&[16.0, 32.0], (1.6 * k, 1.6 * k)),
            unit(&[8.0], (1.6 * k, 1.6 * k)),
        ];
        let runs: [&[Unit]; 5] = [&quiet, &stalled, &slow, &quiet, &slow];
        assert!((at_reference_speed(&runs) - 0.035).abs() < 1e-12);
        assert!((at_reference_speed(&[&slow]) - 0.035).abs() < 1e-12);
        assert_eq!(at_reference_speed(&[]), 0.0);
    }
}
