//! Chaos lab: the GFW hunts ScholarCloud's remote VMs one by one, and
//! the domestic proxy's resilience layer (failover pool, retries,
//! circuit breakers, health probes) keeps the service alive.
//!
//! The scenario runs the paper's testbed with **three** remote proxy
//! VMs and a timed fault plan:
//!
//! 1. `t=45s` — the primary remote is IP-blacklisted. Connects to it
//!    start timing out; the proxy retries, fails over to whichever
//!    surviving remote the pool favors (lowest probe RTT), and the
//!    breaker fences the dark VM.
//! 2. `t=75s` — a second remote is blacklisted.
//! 3. `t=105s` — the last remote goes dark. Graceful degradation:
//!    whitelisted requests are parked briefly, then answered `503`
//!    (fail-fast) instead of hanging browsers until their timeout.
//! 4. `t=125s` — the operator rotates IPs (modelled as the blacklist
//!    entries dropping). Health probes notice within seconds, breakers
//!    close, parked requests drain, and page loads succeed again.
//!
//! Everything is deterministic for the fixed seed — rerunning produces
//! a byte-identical trace (see `tests/obs_trace_determinism.rs`). With
//! `SC_TRACE=/tmp/chaos.jsonl` the run can be replayed through
//! `scholar-obs`, whose `--require-failover` / `--min-availability`
//! gates turn this scenario into the CI chaos check in
//! `scripts/check.sh`.
//!
//! Run with: `cargo run --example chaos_lab`

use sc_gfw::{blacklist_ip, unblacklist_ip};
use sc_metrics::scenario::default_slos;
use sc_metrics::{Method, ScenarioConfig, build_scenario, report};
use sc_obs::WindowSpec;
use sc_simnet::faults::FaultPlan;
use sc_simnet::time::{SimDuration, SimTime};

fn main() {
    let obs = sc_metrics::trace::ops_obs(WindowSpec::seconds(10), default_slos());

    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 4242);
    cfg.clients = 4;
    cfg.loads = 16;
    cfg.interval = SimDuration::from_secs(10);
    cfg.timeout = SimDuration::from_secs(8);
    cfg.sc_remotes = 3;

    let built = build_scenario(&cfg);
    let gfw = built.gfw.clone().expect("chaos lab needs the GFW attached");
    let remotes = built.sc_remote_addrs.clone();
    println!("--- chaos lab: GFW vs the ScholarCloud failover pool ---");
    println!(
        "remotes: {} ({}), clients={}, loads={}, runtime={}s",
        remotes.len(),
        remotes.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", "),
        cfg.clients,
        cfg.loads,
        built.runtime().as_secs_f64(),
    );

    // The fault plan: blacklist the remotes one by one, then heal.
    let mut plan = FaultPlan::new()
        .at(SimTime::from_secs(45), blacklist_ip(&gfw, remotes[0]))
        .at(SimTime::from_secs(75), blacklist_ip(&gfw, remotes[1]))
        .at(SimTime::from_secs(105), blacklist_ip(&gfw, remotes[2]));
    for &r in &remotes {
        plan = plan.at(SimTime::from_secs(125), unblacklist_ip(&gfw, r));
    }
    let mut built = built;
    built.sim.install_fault_plan(plan);

    let outcome = built.finish();
    print!("{}", report::render_scenario(Method::ScholarCloud, &outcome));
    print!(
        "{}",
        report::render_ops_dashboard(&[
            "web.plt_us",
            "web.loads_ok",
            "web.loads_failed",
            "web.proxy_errors",
            "scholarcloud.failovers",
            "scholarcloud.breaker_opens",
            "scholarcloud.breaker_closes",
            "scholarcloud.tunnel_failures",
        ])
    );

    let trace = obs.finish();
    let failovers = trace.failover_times.len();
    let breaker_transitions = trace.breaker_transitions.len();

    // --- outcome accounting ---
    let heal = SimTime::from_secs(125);
    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut saw_503 = false;
    let mut ok_after_heal = 0usize;
    for r in outcome.loads.iter().flatten() {
        if r.failed {
            failed += 1;
        } else {
            ok += 1;
            if r.started >= heal {
                ok_after_heal += 1;
            }
        }
        if r.proxy_status == Some(503) {
            saw_503 = true;
        }
    }
    let availability = ok as f64 / (ok + failed) as f64;
    println!(
        "loads: {ok} ok / {failed} failed — availability {:.1}%",
        availability * 100.0
    );
    println!("failovers={failovers} breaker_transitions={breaker_transitions}");
    println!("successful loads after the blacklist healed: {ok_after_heal}");

    // The resilience layer must have actually earned its keep:
    assert!(failovers >= 2, "expected ≥2 failovers, saw {failovers}");
    assert!(
        breaker_transitions >= 2,
        "expected breakers to open on dark remotes, saw {breaker_transitions} transitions"
    );
    assert!(saw_503, "the all-remotes-dark window must surface 503s to browsers");
    assert!(
        ok_after_heal >= cfg.clients,
        "service must recover after the blacklist heals (saw {ok_after_heal} post-heal successes)"
    );
    assert!(
        availability >= 0.70,
        "availability {availability:.3} fell below the chaos floor of 0.70"
    );
    println!("chaos lab: all resilience assertions passed");
}
