//! Elastic lab: the GFW runs a multi-wave blacklisting campaign
//! against ScholarCloud's remote tier, and an elastic serverless pool
//! (autoscaler + churn-on-blacklist) beats a static 4-VM pool on
//! **both** cost per successful load and availability.
//!
//! The paper's deployment keeps its remote proxies on always-on VMs
//! (§5: 2 VMs ≈ 2.2 USD/day) and survives blacklisting by manually
//! rotating IPs. This scenario puts the censor on a schedule: every
//! wave it blacklists the remote IPs it sees serving. Two arms run
//! the identical workload and campaign:
//!
//! * **static** — the paper's answer scaled up: 4 always-on remote
//!   VMs at fixed addresses. Each wave permanently darkens one; after
//!   the last wave the whole pool is dark and whitelisted requests
//!   die as fail-fast 503s. The bill runs 4 VM-hours per hour
//!   regardless of demand.
//! * **elastic** — [`ElasticConfig`] serverless tier behind the same
//!   domestic proxy: a seeded-warm minimum, demand-driven scale-out
//!   with deterministic cold starts, idle scale-in, and — the part
//!   the censor cannot starve — *churn*: a blacklisted instance's
//!   breaker opens, the autoscaler drains it and provisions a
//!   replacement at a fresh address from a /24 it has barely used.
//!   Each wave blacklists the longest-serving warm instance, resolved
//!   **at fire time** from [`ElasticHandle::warm_addrs`] (a
//!   [`Fault::Callback`]), so the censor always hits an IP that is
//!   actually serving, and the bill meters invocations + egress +
//!   warm-idle only.
//!
//! Assertions: the elastic arm strictly beats the static arm on
//! availability AND on metered cost per successful load (both arms
//! priced under the same arithmetic — egress billed identically,
//! static VM-hours vs elastic invocation/egress/warm meters), churn
//! actually happened (every wave retired + replaced an instance), and
//! the whole thing replays byte-for-byte deterministically.
//!
//! With `SC_TRACE=/tmp/elastic.jsonl` the **last** run's trace (the
//! elastic arm — each run overwrites the file) feeds `scholar-obs
//! --min-availability --max-cost-per-load`, the CI smoke gate in
//! `scripts/check.sh`.
//!
//! Run with: `cargo run --example elastic_lab`
//!
//! `cargo run --example elastic_lab -- --sweep` sweeps static pool
//! size × elastic on/off under the same campaign and prints the
//! cost-vs-availability table recorded in `EXPERIMENTS.md`.

use sc_core::ElasticConfig;
use sc_gfw::GfwHandle;
use sc_metrics::scenario::default_slos;
use sc_metrics::{Method, ScenarioConfig, build_scenario, report};
use sc_obs::WindowSpec;
use sc_simnet::addr::Addr;
use sc_simnet::faults::{Fault, FaultPlan};
use sc_simnet::time::{SimDuration, SimTime};

const SEED: u64 = 7171;
const CLIENTS: usize = 6;
const LOADS: usize = 10;
const INTERVAL_S: u64 = 12;
const TIMEOUT_S: u64 = 8;
/// The control arm: the paper's deployment scaled to four VMs.
const STATIC_POOL: usize = 4;
/// Fresh addresses the elastic tier may burn through while churning.
const ELASTIC_ADDRS: usize = 12;
const ELASTIC_MIN: usize = 1;
const ELASTIC_MAX: usize = 6;
/// Wave schedule, shared by both arms: one blacklist verdict per
/// wave. Four waves exactly cover the static pool — after the last
/// one the control arm is fully dark.
const WAVES: &[u64] = &[30, 55, 80, 105];

/// Everything one arm yields for the table and the assertions.
struct RunStats {
    ok: usize,
    failed: usize,
    /// Total metered (elastic) or priced (static) cost, micro-dollars.
    cost_micro: u64,
    /// Elastic lifecycle counters (zero for the static arm).
    provisions: u64,
    retires: u64,
    churns: u64,
    invocations: u64,
    failovers: usize,
    breaker_transitions: usize,
}

impl RunStats {
    fn availability(&self) -> f64 {
        if self.ok + self.failed == 0 {
            return 0.0;
        }
        self.ok as f64 / (self.ok + self.failed) as f64
    }

    /// Micro-dollars per successful page load (infinite when nothing
    /// succeeded — an unavailable service is infinitely expensive).
    fn cost_per_ok_micro(&self) -> f64 {
        if self.ok == 0 {
            return f64::INFINITY;
        }
        self.cost_micro as f64 / self.ok as f64
    }
}

/// A fault that blacklists the longest-serving warm elastic instance
/// at fire time — the censor targets the IP it has watched serve the
/// most traffic, not an address fixed when the plan was written.
fn blacklist_oldest_warm(gfw: &GfwHandle, elastic: &sc_core::ElasticHandle) -> Fault {
    let gfw = gfw.clone();
    let elastic = elastic.clone();
    Fault::Callback {
        label: "gfw_blacklist_warm",
        apply: Box::new(move |now| {
            let Some(addr) = elastic.warm_addrs().first().copied() else {
                return;
            };
            blacklist_now(&gfw, addr, now);
        }),
    }
}

/// The shared blacklist mutation both arms use: add `addr/32` and
/// leave the same `gfw/fault/blacklist_ip` trace event the canned
/// [`sc_gfw::blacklist_ip`] fault leaves.
fn blacklist_now(gfw: &GfwHandle, addr: Addr, now: SimTime) {
    let mut st = gfw.borrow_mut();
    if !st.config().ip_blacklist.contains(&(addr, 32)) {
        st.config_mut().ip_blacklist.push((addr, 32));
    }
    sc_obs::event(now.as_micros(), sc_obs::Level::Info, "gfw", "fault", "blacklist_ip", |f| {
        f.field("addr", addr);
    });
}

fn run_once(static_pool: usize, elastic: bool, verbose: bool) -> RunStats {
    let obs = sc_metrics::trace::ops_obs(WindowSpec::seconds(10), default_slos());

    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, SEED);
    cfg.clients = CLIENTS;
    cfg.loads = LOADS;
    cfg.interval = SimDuration::from_secs(INTERVAL_S);
    cfg.timeout = SimDuration::from_secs(TIMEOUT_S);
    cfg.extra_runtime = SimDuration::from_secs(20);
    if elastic {
        cfg.sc_elastic_pool = ELASTIC_ADDRS;
        cfg.sc_elastic.min_instances = ELASTIC_MIN;
        cfg.sc_elastic.max_instances = ELASTIC_MAX;
        // Longer than the breaker's detection time, so a blacklisted
        // instance is caught (and churned at a fresh IP) rather than
        // quietly idle-drained before anything notices.
        cfg.sc_elastic.idle_timeout = SimDuration::from_secs(30);
    } else {
        cfg.sc_remotes = static_pool;
    }

    let mut built = build_scenario(&cfg);
    let gfw = built.gfw.clone().expect("elastic lab needs the GFW attached");
    let runtime = built.runtime();
    if verbose {
        println!(
            "arm={}: clients={CLIENTS}, loads={LOADS}, waves at {WAVES:?} s, runtime={}s",
            if elastic { "elastic" } else { "static" },
            runtime.as_secs_f64(),
        );
    }

    // The campaign: one blacklist verdict per wave. The static arm's
    // targets are knowable in advance (fixed IPs); the elastic arm's
    // are resolved at fire time from the live warm set.
    let mut plan = FaultPlan::new();
    if elastic {
        let handle = built.sc_elastic.clone().expect("elastic tier requested");
        for &t in WAVES {
            plan = plan.at(SimTime::from_secs(t), blacklist_oldest_warm(&gfw, &handle));
        }
    } else {
        for (i, &t) in WAVES.iter().enumerate() {
            let addr = built.sc_remote_addrs[i % static_pool];
            let gfw = gfw.clone();
            plan = plan.at(
                SimTime::from_secs(t),
                Fault::Callback {
                    label: "gfw_blacklist_static",
                    apply: Box::new(move |now| blacklist_now(&gfw, addr, now)),
                },
            );
        }
    }
    built.sim.install_fault_plan(plan);

    let elastic_handle = built.sc_elastic.clone();
    let outcome = built.finish();
    if verbose {
        print!("{}", report::render_scenario(Method::ScholarCloud, &outcome));
    }

    let trace = obs.finish();
    // The static arm relays the same pages; bill its egress from the
    // relay spans' byte counts so both arms price egress identically.
    let cost_micro = match &elastic_handle {
        Some(h) => h.total_cost_micro(),
        None => ElasticConfig::static_cost_micro(static_pool, runtime, trace.bytes_down),
    };

    let mut ok = 0usize;
    let mut failed = 0usize;
    for r in outcome.loads.iter().flatten() {
        if r.failed {
            failed += 1;
        } else {
            ok += 1;
        }
    }

    RunStats {
        ok,
        failed,
        cost_micro,
        provisions: trace.elastic.provisions,
        retires: trace.elastic.retires,
        churns: trace.elastic.churns,
        invocations: elastic_handle.map_or(0, |h| h.with(|p| p.invocations())),
        failovers: trace.failover_times.len(),
        breaker_transitions: trace.breaker_transitions.len(),
    }
}

/// Sweeps static pool size and the elastic tier under the same
/// campaign: the cost-vs-availability table for EXPERIMENTS.md.
fn sweep() {
    println!("--- elastic sweep: cost vs availability under 4 blacklist waves ---");
    println!(
        "{:>9} {:>5} {:>7} {:>13} {:>13} {:>15}",
        "arm", "ok", "failed", "availability", "cost (µ$)", "µ$/ok load"
    );
    for pool in [2usize, 4, 6] {
        let s = run_once(pool, false, false);
        println!(
            "{:>9} {:>5} {:>7} {:>12.1}% {:>13} {:>15.1}",
            format!("static-{pool}"),
            s.ok,
            s.failed,
            s.availability() * 100.0,
            s.cost_micro,
            s.cost_per_ok_micro(),
        );
    }
    let e = run_once(STATIC_POOL, true, false);
    println!(
        "{:>9} {:>5} {:>7} {:>12.1}% {:>13} {:>15.1}",
        "elastic",
        e.ok,
        e.failed,
        e.availability() * 100.0,
        e.cost_micro,
        e.cost_per_ok_micro(),
    );
}

fn main() {
    if std::env::args().any(|a| a == "--sweep") {
        sweep();
        return;
    }

    println!("--- elastic lab: serverless churn vs a static pool under blacklist waves ---");
    // Static control first, elastic treatment LAST: each run rewrites
    // SC_TRACE, and the check.sh gate must analyze the elastic arm.
    let control = run_once(STATIC_POOL, false, true);
    let e = run_once(STATIC_POOL, true, true);

    println!(
        "static-{STATIC_POOL}: {} ok / {} failed — availability {:.1}%, {} µ$ ({:.1} µ$/ok load)",
        control.ok,
        control.failed,
        control.availability() * 100.0,
        control.cost_micro,
        control.cost_per_ok_micro(),
    );
    println!(
        "elastic:  {} ok / {} failed — availability {:.1}%, {} µ$ ({:.1} µ$/ok load)",
        e.ok,
        e.failed,
        e.availability() * 100.0,
        e.cost_micro,
        e.cost_per_ok_micro(),
    );
    println!(
        "elastic lifecycle: {} provisions, {} retires, {} churns, {} invocations; \
         {} failovers, {} breaker transitions",
        e.provisions, e.retires, e.churns, e.invocations, e.failovers, e.breaker_transitions,
    );

    // 1. The campaign actually bites the static arm: with every VM
    //    dark after the last wave, loads fail.
    assert!(
        control.failed > 0,
        "static arm rode out the campaign unscathed — waves must darken the pool"
    );
    // 2. The censor's waves actually hit the elastic tier too (churn:
    //    breaker opened on a blacklisted instance, autoscaler retired
    //    and replaced it). Every wave found a warm target.
    assert!(
        e.churns >= WAVES.len() as u64,
        "expected ≥{} churns (one per wave), saw {}",
        WAVES.len(),
        e.churns
    );
    assert!(e.provisions > 0 && e.retires > 0, "churn must retire + re-provision");
    // 3. Elastic STRICTLY beats static on availability: replacements
    //    at fresh IPs keep serving while the static pool shrinks to
    //    nothing.
    assert!(
        e.availability() > control.availability(),
        "elastic availability {:.1}% must strictly beat static {:.1}%",
        e.availability() * 100.0,
        control.availability() * 100.0
    );
    // 4. …AND on cost per successful load: scale-to-demand plus churn
    //    beats paying for four always-on VMs that end up dark.
    assert!(
        e.cost_per_ok_micro() < control.cost_per_ok_micro(),
        "elastic {:.1} µ$/ok load must strictly beat static {:.1} µ$/ok load",
        e.cost_per_ok_micro(),
        control.cost_per_ok_micro()
    );
    // 5. The meters are real: the elastic bill itemizes invocations
    //    (one per relayed stream).
    assert!(e.invocations > 0, "elastic invocations must be metered");
    // 6. Determinism: the same seed replays the same churn, the same
    //    bill, the same outcome (the byte-identical trace pin lives in
    //    tests/elastic_props.rs).
    let replay = run_once(STATIC_POOL, true, false);
    assert_eq!(
        (e.ok, e.failed, e.cost_micro, e.churns, e.provisions, e.invocations),
        (
            replay.ok,
            replay.failed,
            replay.cost_micro,
            replay.churns,
            replay.provisions,
            replay.invocations
        ),
        "elastic arm must replay exactly"
    );

    println!("elastic lab: all cost + availability assertions passed");
}
