//! `scholar-bench`: the fixed-suite performance harness behind the
//! committed `BENCH_*.json` trajectory.
//!
//! ```text
//! scholar-bench [--label NAME] [--iterations N] [--out FILE]
//!               [--baseline FILE] [--max-regress PCT] [--quiet]
//! ```
//!
//! Runs a fixed suite of seeded scenarios — `quickstart`, `chaos`,
//! `flash_crowd`, `cache_crowd`, `fleet_crash`, `elastic_churn`,
//! `arms_race`, and a
//! scaled-up `stress_24c` client ramp — with the `sc_obs::prof`
//! wall-clock
//! profiler and the counting
//! global allocator enabled, and records per scenario: wall time,
//! events/sec, sim-seconds per wall-second, timer and queue-depth
//! counters, allocation totals, and per-subsystem wall-time
//! attribution. Each scenario runs `--iterations` times (default 5) and
//! the best (lowest wall time) iteration is recorded, which rejects
//! scheduler noise without averaging away real slowdowns.
//!
//! Modes:
//! * measure (default): run the suite, print the performance table,
//!   write `BENCH_<label>.json` when `--out` is given.
//! * compare (`--baseline old.json`): additionally parse the baseline
//!   and fail when `events_per_sec` or `sim_per_wall` regressed more
//!   than `--max-regress` percent (default 15) on any scenario — the
//!   "no slower than seed" CI gate.
//!
//! Exit codes (disjoint from `scholar-obs`'s trace-gate codes on
//! purpose, so `scripts/check.sh` failures are attributable at a
//! glance):
//! * `0` — suite measured (and, in compare mode, no regression);
//! * `1` — usage / IO error;
//! * `2` — baseline unreadable, unparseable, or wrong schema — or the
//!   fresh measurement failed its own sanity bounds;
//! * `5` — regression beyond `--max-regress` detected.

use std::process::ExitCode;
use std::time::Instant;

use sc_bench::trajectory::{compare, BenchReport, ScenarioBench};
use sc_metrics::{build_scenario, run_scenario, Method, ScenarioConfig};
use sc_obs::prof;
use sc_simnet::faults::{Fault, FaultPlan};
use sc_simnet::time::{SimDuration, SimTime};

/// Every run of the harness counts allocations; this is the opt-in
/// `sc_obs::prof` documents (ordinary builds stay on `System`).
#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

/// A scenario outcome reduced to what the harness needs.
struct RunCounters {
    sim_s: f64,
    events: u64,
    timers_fired: u64,
    queue_depth_hwm: u64,
}

fn counters(o: sc_metrics::ScenarioOutcome) -> RunCounters {
    RunCounters {
        sim_s: o.sim_end.as_secs_f64(),
        events: o.events_processed,
        timers_fired: o.timers_fired,
        queue_depth_hwm: o.queue_depth_hwm,
    }
}

// The suite. Shapes and seeds deliberately mirror the determinism
// tests (`tests/obs_trace_determinism.rs`) and the example labs, so the
// numbers measure the code paths CI already pins for correctness.

fn quickstart() -> RunCounters {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 33);
    cfg.loads = 2;
    counters(run_scenario(&cfg))
}

fn chaos() -> RunCounters {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 57);
    cfg.clients = 2;
    cfg.loads = 4;
    cfg.interval = SimDuration::from_secs(10);
    cfg.timeout = SimDuration::from_secs(8);
    cfg.sc_remotes = 3;
    let mut built = build_scenario(&cfg);
    let gfw = built.gfw.clone().expect("paper config attaches the GFW");
    let remotes = built.sc_remote_addrs.clone();
    let plan = FaultPlan::new()
        .at(SimTime::from_secs(12), sc_gfw::blacklist_ip(&gfw, remotes[0]))
        .at(SimTime::from_secs(22), sc_gfw::blacklist_ip(&gfw, remotes[1]))
        .at(SimTime::from_secs(40), sc_gfw::unblacklist_ip(&gfw, remotes[0]));
    built.sim.install_fault_plan(plan);
    counters(built.finish())
}

fn flash_crowd() -> RunCounters {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 77);
    cfg.clients = 2;
    cfg.loads = 4;
    cfg.interval = SimDuration::from_secs(10);
    cfg.timeout = SimDuration::from_secs(8);
    cfg.sc_max_tunnels = Some(2);
    cfg.sc_queue_len = Some(2);
    cfg.flash_clients = 10;
    cfg.flash_loads = 2;
    cfg.flash_start = SimDuration::from_secs(20);
    cfg.flash_ramp = SimDuration::from_secs(4);
    cfg.extra_runtime = SimDuration::from_secs(20);
    let mut built = build_scenario(&cfg);
    let gate = built.flash_gate.clone().expect("flash clients configured");
    let plan = FaultPlan::new().at(
        SimTime::from_secs(20),
        Fault::FlashCrowd {
            clients: 10,
            ramp: SimDuration::from_secs(4),
            trigger: Box::new(move |_t| gate.set(true)),
        },
    );
    built.sim.install_fault_plan(plan);
    counters(built.finish())
}

fn cache_crowd() -> RunCounters {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 4242);
    cfg.clients = 4;
    cfg.loads = 2;
    cfg.interval = SimDuration::from_secs(30);
    cfg.timeout = SimDuration::from_secs(25);
    cfg.sc_http_page = true;
    cfg.origin_max_age = Some(20);
    cfg.sc_cache_bytes = Some(256 * 1024);
    counters(run_scenario(&cfg))
}

/// The fleet-chaos shape from `tests/obs_trace_determinism.rs`: a
/// 3-member domestic fleet with rotated PAC lists and a rendezvous-
/// sharded cache, member 1 crashed and restarted mid-run — measures
/// the failover + cache-peering code paths under fault churn.
fn fleet_crash() -> RunCounters {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 9393);
    cfg.clients = 4;
    cfg.loads = 3;
    cfg.interval = SimDuration::from_secs(15);
    cfg.timeout = SimDuration::from_secs(10);
    cfg.sc_fleet = 3;
    cfg.sc_http_page = true;
    cfg.origin_max_age = Some(10);
    cfg.sc_cache_bytes = Some(256 * 1024);
    cfg.extra_runtime = SimDuration::from_secs(30);
    let mut built = build_scenario(&cfg);
    let victim = built.sc_domestic_nodes[1];
    let plan = FaultPlan::new()
        .at(SimTime::from_secs(12), Fault::NodeCrash(victim))
        .at(SimTime::from_secs(20), Fault::NodeRestart(victim));
    built.sim.install_fault_plan(plan);
    counters(built.finish())
}

/// The elastic-churn shape from `tests/elastic_props.rs`: a serverless
/// remote tier under a mid-run GFW blacklisting wave resolved at fire
/// time against the live warm set — measures the autoscaler tick,
/// cold-start provisioning, churn-drain, and cost-metering code paths.
fn elastic_churn() -> RunCounters {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 7171);
    cfg.clients = 2;
    cfg.loads = 4;
    cfg.interval = SimDuration::from_secs(10);
    cfg.timeout = SimDuration::from_secs(8);
    cfg.sc_elastic_pool = 8;
    cfg.sc_elastic_min = 1;
    cfg.sc_elastic_max = 4;
    cfg.sc_elastic_idle = SimDuration::from_secs(25);
    cfg.extra_runtime = SimDuration::from_secs(15);
    let mut built = build_scenario(&cfg);
    let gfw = built.gfw.clone().expect("paper config attaches the GFW");
    let elastic = built.sc_elastic.clone().expect("elastic tier requested");
    let plan = FaultPlan::new().at(
        SimTime::from_secs(15),
        Fault::Callback {
            label: "gfw_blacklist_warm",
            apply: Box::new(move |_now| {
                let Some(addr) = elastic.warm_addrs().first().copied() else { return };
                let mut st = gfw.borrow_mut();
                if !st.config().ip_blacklist.contains(&(addr, 32)) {
                    st.config_mut().ip_blacklist.push((addr, 32));
                }
            }),
        },
    );
    built.sim.install_fault_plan(plan);
    counters(built.finish())
}

/// The adaptive-censor arms race: a reactive GFW (flow classifier,
/// learned signatures, active-probing campaigns) against
/// detection-driven scheme rotation with stream resume — the
/// per-packet classifier hook and the rotation/replay machinery are
/// the code paths this scenario prices.
fn arms_race() -> RunCounters {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 4242);
    cfg.clients = 2;
    cfg.loads = 5;
    cfg.interval = SimDuration::from_secs(10);
    cfg.timeout = SimDuration::from_secs(8);
    cfg.extra_runtime = SimDuration::from_secs(20);
    cfg.sc_adaptive = true;
    cfg.sc_adaptive_learn_flows = 4;
    cfg.sc_adaptive_rotation = true;
    cfg.sc_adaptive_rotation_threshold = 1;
    cfg.sc_adaptive_rotation_cooldown = SimDuration::from_secs(5);
    counters(run_scenario(&cfg))
}

/// The scaled-up stress point: 24 staggered clients — an order of
/// magnitude above the labs — on short intervals, the shape ROADMAP
/// item 1's speedups must win on.
fn stress_24c() -> RunCounters {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 2024);
    cfg.clients = 24;
    cfg.loads = 3;
    cfg.interval = SimDuration::from_secs(10);
    cfg.timeout = SimDuration::from_secs(8);
    cfg.ramp_stagger = SimDuration::from_secs(1);
    counters(run_scenario(&cfg))
}

const SUITE: [(&str, fn() -> RunCounters); 8] = [
    ("quickstart", quickstart),
    ("chaos", chaos),
    ("flash_crowd", flash_crowd),
    ("cache_crowd", cache_crowd),
    ("fleet_crash", fleet_crash),
    ("elastic_churn", elastic_churn),
    ("arms_race", arms_race),
    ("stress_24c", stress_24c),
];

/// Measures one scenario: best-of-`iterations` wall time, with the
/// profiler and allocation counters rebased per iteration.
fn measure(name: &str, run: fn() -> RunCounters, iterations: u32) -> ScenarioBench {
    let mut best: Option<ScenarioBench> = None;
    for _ in 0..iterations {
        prof::reset();
        prof::set_enabled(true);
        prof::reset_alloc_peak();
        let alloc_before = prof::alloc_stats();
        let start = Instant::now();
        let c = run();
        let wall = start.elapsed();
        prof::set_enabled(false);
        let report = prof::report();
        let alloc_after = prof::alloc_stats();

        let wall_s = wall.as_secs_f64().max(1e-9);
        let cand = ScenarioBench {
            name: name.to_string(),
            wall_ms: wall_s * 1e3,
            sim_s: c.sim_s,
            sim_per_wall: c.sim_s / wall_s,
            events: c.events,
            events_per_sec: c.events as f64 / wall_s,
            timers_fired: c.timers_fired,
            queue_depth_hwm: c.queue_depth_hwm,
            alloc_bytes: alloc_after.allocated_bytes - alloc_before.allocated_bytes,
            peak_alloc_bytes: alloc_after.peak_bytes,
            subsystems: report.rows().map(|(s, ns, _)| (s.name().to_string(), ns)).collect(),
        };
        if best.as_ref().is_none_or(|b| cand.wall_ms < b.wall_ms) {
            best = Some(cand);
        }
    }
    best.expect("iterations >= 1")
}

fn main() -> ExitCode {
    const USAGE: &str = "usage: scholar-bench [--label NAME] [--iterations N] [--out FILE] \
                         [--baseline FILE] [--max-regress PCT] [--quiet]";
    let mut args = std::env::args().skip(1);
    let mut label = "local".to_string();
    let mut iterations: u32 = 5;
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut max_regress: f64 = 15.0;
    let mut quiet = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => match args.next() {
                Some(v) => label = v,
                None => {
                    eprintln!("scholar-bench: --label expects a name");
                    return ExitCode::from(1);
                }
            },
            "--iterations" => {
                let Some(v) = args.next().and_then(|v| v.parse::<u32>().ok()).filter(|v| *v > 0)
                else {
                    eprintln!("scholar-bench: --iterations expects a positive integer");
                    return ExitCode::from(1);
                };
                iterations = v;
            }
            "--out" => match args.next() {
                Some(v) => out_path = Some(v),
                None => {
                    eprintln!("scholar-bench: --out expects a path");
                    return ExitCode::from(1);
                }
            },
            "--baseline" => match args.next() {
                Some(v) => baseline_path = Some(v),
                None => {
                    eprintln!("scholar-bench: --baseline expects a path");
                    return ExitCode::from(1);
                }
            },
            "--max-regress" => {
                let Some(v) =
                    args.next().and_then(|v| v.parse::<f64>().ok()).filter(|v| *v >= 0.0)
                else {
                    eprintln!("scholar-bench: --max-regress expects a non-negative percentage");
                    return ExitCode::from(1);
                };
                max_regress = v;
            }
            "--quiet" => quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => {
                eprintln!("scholar-bench: unexpected argument {arg:?}\n{USAGE}");
                return ExitCode::from(1);
            }
        }
    }

    // Parse the baseline *before* spending minutes measuring.
    let baseline = match &baseline_path {
        None => None,
        Some(p) => {
            let text = match std::fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("scholar-bench: cannot read baseline {p}: {e}");
                    return ExitCode::from(1);
                }
            };
            match BenchReport::parse(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("scholar-bench: bad baseline {p}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let mut report = BenchReport { label, iterations, scenarios: Vec::new() };
    for (name, run) in SUITE {
        if !quiet {
            eprintln!("scholar-bench: {name} ({iterations} iterations)…");
        }
        report.scenarios.push(measure(name, run, iterations));
    }

    // The measurement must be sound regardless of mode — this is the
    // deterministic part of the CI smoke gate (no timing assertions).
    let violations = report.sanity_violations();
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("scholar-bench: sanity violation — {v}");
        }
        return ExitCode::from(2);
    }

    if !quiet {
        let rows: Vec<sc_metrics::report::PerfRow> = report
            .scenarios
            .iter()
            .map(|s| sc_metrics::report::PerfRow {
                name: s.name.clone(),
                wall_ms: s.wall_ms,
                events: s.events,
                events_per_sec: s.events_per_sec,
                sim_per_wall: s.sim_per_wall,
                queue_depth_hwm: s.queue_depth_hwm,
                peak_alloc_bytes: s.peak_alloc_bytes,
                subsystems: s.subsystems.clone(),
            })
            .collect();
        print!("{}", sc_metrics::report::render_perf(&rows));
    }

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("scholar-bench: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        if !quiet {
            eprintln!("scholar-bench: wrote {path}");
        }
    }

    if let Some(base) = baseline {
        let regressions = compare(&base, &report, max_regress);
        if regressions.is_empty() {
            if !quiet {
                eprintln!(
                    "scholar-bench: no regression beyond {max_regress}% vs baseline \"{}\"",
                    base.label
                );
            }
        } else {
            for r in &regressions {
                eprintln!("scholar-bench: REGRESSION — {r}");
            }
            return ExitCode::from(5);
        }
    }
    ExitCode::SUCCESS
}
