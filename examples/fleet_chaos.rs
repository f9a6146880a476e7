//! Fleet chaos: a domestic-proxy fleet member crashes mid flash-crowd,
//! and PAC-driven client failover plus consistent-hash cache peering
//! keep the legal avenue open.
//!
//! The paper's artifact is ONE domestic VM — a single point of failure
//! for every user behind the wall. This scenario deploys a fleet of
//! three members, gives every browser a *rotated* PAC fallback list
//! (`PROXY a; PROXY b; PROXY c`, round-tripped through the PAC
//! JavaScript parser), shards the content cache across members by
//! rendezvous hashing with a one-hop peering fetch on non-owner misses,
//! then kills member 1 with a [`Fault::NodeCrash`] right as a 12-client
//! flash crowd lands. The fleet must:
//!
//! 1. **fail over** — browsers detect the crashed member via connect
//!    timeout (a crashed node drops SYNs silently), dead-mark it with
//!    exponential re-probe backoff, and retry down their PAC list, so
//!    the only browser-visible failures are loads already in flight
//!    inside the crash blast window;
//! 2. **keep the cache warm** — the survivors re-shard the dead
//!    member's keyspace between themselves (rendezvous hashing moves
//!    only the dead member's keys), so the fleet-wide warm-hit rate
//!    stays within 10% of the no-crash control;
//! 3. **keep latency bounded** — p95 PLT of successful loads stays
//!    inside the 8 s budget through the crash + crowd;
//! 4. **rejoin** — after the [`Fault::NodeRestart`] the browsers'
//!    backoff expires, a re-probe connect succeeds, and the member
//!    takes traffic again;
//! 5. **stay deterministic** — rerunning the same seed reproduces every
//!    per-shard cache decision and failover count exactly (the
//!    byte-identical trace pin lives in `tests/obs_trace_determinism.rs`).
//!
//! With `SC_TRACE=/tmp/fleet.jsonl` the run leaves a trace (the last
//! run captured — the crash replay) that `scholar-obs
//! --min-fleet-availability 0.8` gates on in `scripts/check.sh`: the
//! crash's discovery and re-probe timeouts are in the quotient, so a
//! crash run sits near 86%, well above the 80% floor but far below a
//! healthy fleet's 100%.
//!
//! Run with: `cargo run --example fleet_chaos`
//!
//! `cargo run --example fleet_chaos -- --sweep` instead sweeps fleet
//! size × crash on/off and prints the survival table recorded in
//! `EXPERIMENTS.md` (no assertions in sweep mode).

use sc_core::CacheStats;
use sc_metrics::scenario::default_slos;
use sc_metrics::{Method, ScenarioConfig, build_scenario, report};
use sc_obs::WindowSpec;
use sc_obs::analyze::FleetStats;
use sc_simnet::faults::{Fault, FaultPlan};
use sc_simnet::time::{SimDuration, SimTime};

const SEED: u64 = 9393;
const FLEET: usize = 3;
const NOMINAL_CLIENTS: usize = 6;
const LOADS: usize = 5;
const INTERVAL_S: u64 = 15;
const TIMEOUT_S: u64 = 10;
/// Origin `max-age`: shorter than the interval so every round re-walks
/// the proxy tier (the browser's private cache revalidates through it).
const ORIGIN_MAX_AGE_S: u64 = 10;
const FLASH_CLIENTS: usize = 12;
const FLASH_START_S: u64 = 30;
const FLASH_RAMP_S: u64 = 5;
/// Member 1 crashes right as the crowd lands…
const CRASH_S: u64 = 32;
/// …and comes back while nominal clients are still loading.
const RESTART_S: u64 = 55;
/// Loads that began inside `(CRASH − timeout, CRASH + window)` may fail
/// (they were in flight on the dying member, or raced its first
/// dead-mark). Anything outside is a browser-visible outage.
const BLAST_WINDOW_S: u64 = TIMEOUT_S + 2;

/// Everything one run yields for the report and the assertions.
struct RunStats {
    ok: usize,
    failed: usize,
    /// Failed loads that started OUTSIDE the crash blast window.
    failed_outside_blast: usize,
    p95_plt_s: f64,
    /// Per-shard cache stats, member order (one entry when fleet=1).
    shards: Vec<CacheStats>,
    /// Browser-side failover and proxy-side peering counts.
    fleet: FleetStats,
}

impl RunStats {
    /// Fleet-wide warm-hit rate: requests answered from cache state
    /// (fresh hits, coalesced waiters, 304 refreshes) over all
    /// cacheable lookups, summed across shards.
    fn fleet_hit_rate(&self) -> f64 {
        let served: u64 = self.shards.iter().map(|s| s.served_from_cache()).sum();
        let misses: u64 = self.shards.iter().map(|s| s.misses).sum();
        if served + misses == 0 { 0.0 } else { served as f64 / (served + misses) as f64 }
    }
}

fn run_once(fleet: usize, crash: bool, verbose: bool) -> RunStats {
    let obs = sc_metrics::trace::ops_obs(WindowSpec::seconds(10), default_slos());

    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, SEED);
    cfg.clients = NOMINAL_CLIENTS;
    cfg.loads = LOADS;
    cfg.interval = SimDuration::from_secs(INTERVAL_S);
    cfg.timeout = SimDuration::from_secs(TIMEOUT_S);
    cfg.sc_fleet = fleet;
    // Gateway mode: the proxies terminate HTTP themselves, so the
    // sharded cache (and its peering hop) is on the request path.
    cfg.sc_http_page = true;
    cfg.origin_max_age = Some(ORIGIN_MAX_AGE_S);
    cfg.sc_cache_bytes = Some(256 * 1024);
    cfg.flash_clients = FLASH_CLIENTS;
    cfg.flash_loads = 2;
    cfg.flash_start = SimDuration::from_secs(FLASH_START_S);
    cfg.flash_ramp = SimDuration::from_secs(FLASH_RAMP_S);
    cfg.extra_runtime = SimDuration::from_secs(40);

    let mut built = build_scenario(&cfg);
    let shard_handles = if fleet > 1 {
        built.sc_fleet_caches.clone()
    } else {
        vec![built.sc_cache.clone().expect("ScholarCloud scenario has a cache")]
    };
    if verbose {
        println!("--- fleet chaos: crash one of {fleet} members mid flash-crowd ---");
        println!(
            "clients={NOMINAL_CLIENTS}+{FLASH_CLIENTS} flash at t={FLASH_START_S}s, \
             crash={} at t={CRASH_S}s, restart t={RESTART_S}s, runtime={}s",
            crash,
            built.runtime().as_secs_f64(),
        );
    }

    let gate = built.flash_gate.clone().expect("flash clients configured");
    let mut plan = FaultPlan::new().at(
        SimTime::from_secs(FLASH_START_S),
        Fault::FlashCrowd {
            clients: FLASH_CLIENTS as u32,
            ramp: SimDuration::from_secs(FLASH_RAMP_S),
            trigger: Box::new(move |_t| gate.set(true)),
        },
    );
    if crash {
        // Member 1 when the fleet has one, else the only member.
        let victim = built.sc_domestic_nodes[1.min(fleet - 1)];
        plan = plan
            .at(SimTime::from_secs(CRASH_S), Fault::NodeCrash(victim))
            .at(SimTime::from_secs(RESTART_S), Fault::NodeRestart(victim));
    }
    built.sim.install_fault_plan(plan);

    let outcome = built.finish();
    if verbose {
        print!("{}", report::render_scenario(Method::ScholarCloud, &outcome));
    }

    let fleet_stats = obs.finish().fleet;

    let blast_start = SimTime::from_secs(CRASH_S.saturating_sub(TIMEOUT_S));
    let blast_end = SimTime::from_secs(CRASH_S + BLAST_WINDOW_S);
    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut failed_outside_blast = 0usize;
    let mut ok_plts_s: Vec<f64> = Vec::new();
    for r in outcome.loads.iter().flatten() {
        if r.failed {
            failed += 1;
            if r.started < blast_start || r.started >= blast_end {
                failed_outside_blast += 1;
            }
        } else {
            ok += 1;
            if let Some(plt) = r.plt {
                ok_plts_s.push(plt.as_secs_f64());
            }
        }
    }
    ok_plts_s.sort_by(|a, b| a.total_cmp(b));
    let p95_plt_s = if ok_plts_s.is_empty() {
        f64::NAN
    } else {
        let rank = ((0.95 * ok_plts_s.len() as f64).ceil() as usize).clamp(1, ok_plts_s.len());
        ok_plts_s[rank - 1]
    };

    RunStats {
        ok,
        failed,
        failed_outside_blast,
        p95_plt_s,
        shards: shard_handles.iter().map(|h| h.stats()).collect(),
        fleet: fleet_stats,
    }
}

/// Sweeps fleet size × crash on/off and prints the survival table
/// (ok/failed, warm-hit rate, p95 PLT, failovers, peering traffic)
/// for EXPERIMENTS.md.
fn sweep() {
    println!("--- fleet sweep: crash survival vs fleet size ---");
    println!(
        "{:>6} {:>6} {:>5} {:>7} {:>9} {:>9} {:>10} {:>11} {:>9}",
        "fleet", "crash", "ok", "failed", "hit rate", "p95 PLT", "failovers", "peer fetch", "sheds"
    );
    for fleet in [1usize, 2, 4] {
        for crash in [false, true] {
            let s = run_once(fleet, crash, false);
            println!(
                "{fleet:>6} {:>6} {:>5} {:>7} {:>8.1}% {:>7.2} s {:>10} {:>11} {:>9}",
                if crash { "yes" } else { "no" },
                s.ok,
                s.failed,
                s.fleet_hit_rate() * 100.0,
                s.p95_plt_s,
                s.fleet.failovers,
                s.fleet.peer_fetches,
                s.fleet.fleet_sheds,
            );
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--sweep") {
        sweep();
        return;
    }

    // Control first: same fleet, same crowd, nobody crashes.
    let control = run_once(FLEET, false, false);
    let s = run_once(FLEET, true, true);

    println!(
        "loads: {} ok / {} failed (control: {} ok / {} failed)",
        s.ok, s.failed, control.ok, control.failed
    );
    println!(
        "fleet: {} dead-marks, {} failovers, {} recoveries at the browsers",
        s.fleet.dead_marks, s.fleet.failovers, s.fleet.recoveries
    );
    println!(
        "peering: {} fetches, {} serves, {} fleet sheds",
        s.fleet.peer_fetches, s.fleet.peer_serves, s.fleet.fleet_sheds
    );
    println!(
        "warm-hit rate: {:.1}% with crash vs {:.1}% control; p95 PLT {:.2} s",
        s.fleet_hit_rate() * 100.0,
        control.fleet_hit_rate() * 100.0,
        s.p95_plt_s
    );

    // 1. The control fleet rides the crowd with zero failures, and its
    //    sharded cache actually peers (both sides of the hop observed).
    assert_eq!(control.failed, 0, "no-crash control had failed loads");
    assert!(
        control.fleet.peer_fetches > 0 && control.fleet.peer_serves > 0,
        "sharded fleet must exercise the peering hop (fetches={} serves={})",
        control.fleet.peer_fetches,
        control.fleet.peer_serves
    );
    // 2. The crash is detected the only way it can be (connect
    //    timeouts → dead-marks) and browsers fail over down their PAC
    //    lists.
    assert!(s.fleet.dead_marks > 0, "crash must be dead-marked by browsers");
    assert!(s.fleet.failovers > 0, "browsers must fail over to surviving members");
    // 3. No browser-visible outage outside the blast window: every
    //    failure was a load in flight on (or racing the first
    //    detection of) the dying member.
    assert_eq!(
        s.failed_outside_blast, 0,
        "loads outside the crash blast window must all succeed ({} did not)",
        s.failed_outside_blast
    );
    // 4. Survivors keep the fleet cache warm: hit rate within 10% of
    //    the no-crash control (rendezvous hashing moves only the dead
    //    member's keyspace).
    assert!(
        control.fleet_hit_rate() > 0.3,
        "control warm-hit rate {:.2} too low to make the comparison meaningful",
        control.fleet_hit_rate()
    );
    assert!(
        s.fleet_hit_rate() >= control.fleet_hit_rate() * 0.9,
        "crash run warm-hit rate {:.1}% fell more than 10% below control {:.1}%",
        s.fleet_hit_rate() * 100.0,
        control.fleet_hit_rate() * 100.0
    );
    // 5. Bounded latency for everything that succeeded.
    assert!(
        s.p95_plt_s <= 8.0,
        "p95 PLT {:.2}s exceeds the 8s budget under crash + crowd",
        s.p95_plt_s
    );
    // 6. The restarted member rejoins: some browser's re-probe backoff
    //    expired, its connect succeeded, and the dead-mark cleared.
    assert!(
        s.fleet.recoveries > 0,
        "restarted member must rejoin via a successful re-probe connect"
    );
    // 7. Determinism: the same seed replays every per-shard cache
    //    decision and fleet counter exactly.
    let replay = run_once(FLEET, true, false);
    assert_eq!(s.shards, replay.shards, "per-shard cache decisions must replay exactly");
    assert_eq!(
        (s.fleet.failovers, s.fleet.dead_marks, s.fleet.peer_fetches),
        (replay.fleet.failovers, replay.fleet.dead_marks, replay.fleet.peer_fetches),
        "fleet counters must replay exactly"
    );

    println!("fleet chaos: all fleet-survival assertions passed");
}
