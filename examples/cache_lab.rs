//! Cache lab: the domestic proxy's shared content cache under a
//! same-page crowd.
//!
//! Eight clients behind the same campus proxy load the scholar page over
//! plain HTTP (the gateway path — the one mode where the proxy sees HTTP
//! semantics), three rounds each, all starting together. The shared
//! cache (`sc-cache`) must:
//!
//! 1. **coalesce the cold surge** — when all eight browsers request the
//!    same resource at once and the cache is cold, exactly one upstream
//!    fetch per resource crosses the border; the other seven requests
//!    ride the in-flight fetch as waiters;
//! 2. **absorb repeat traffic** — across the run, upstream bytes drop by
//!    more than half compared to the cache-off control (same seed, zero
//!    byte budget);
//! 3. **revalidate cheaply** — the origin's `max-age` expires between
//!    rounds, so later rounds go upstream as conditional requests that
//!    come back `304 Not Modified` instead of refetching bodies;
//! 4. **stay flat** — clients that never triggered an upstream fetch
//!    load the page as fast as warm repeat visitors (shared-hit PLT sits
//!    in the warm band);
//! 5. **stay deterministic** — rerunning the same seed reproduces the
//!    cache's decision sequence exactly, down to the microsecond
//!    timestamps of its upstream fetches (the byte-identical trace pin
//!    lives in `tests/obs_trace_determinism.rs`).
//!
//! With `SC_TRACE=/tmp/cache.jsonl` the run leaves a trace that
//! `scholar-obs --min-cache-hit-rate 0.5` gates on in `scripts/check.sh`.
//!
//! Run with: `cargo run --example cache_lab`
//!
//! `cargo run --example cache_lab -- --sweep` instead sweeps the cache
//! byte budget and prints the hit-rate / eviction / upstream-bytes table
//! recorded in `EXPERIMENTS.md` (no assertions in sweep mode).

use sc_core::CacheStats;
use sc_metrics::scenario::default_slos;
use sc_metrics::{Method, ScenarioConfig, build_scenario, report};
use sc_obs::WindowSpec;
use sc_simnet::time::SimDuration;

const CLIENTS: usize = 8;
const LOADS: usize = 3;
const INTERVAL_S: u64 = 30;
/// Origin `max-age`: shorter than the load interval, so every round
/// after the first finds the shared cache stale and must revalidate.
const ORIGIN_MAX_AGE_S: u64 = 20;
const CACHE_BYTES: usize = 256 * 1024;

/// Everything one run yields for the report and the assertions.
struct RunStats {
    ok: usize,
    failed: usize,
    /// Mean PLT of the non-leader clients' first loads (served from the
    /// shared cache or coalesced onto the leader's fetch), seconds.
    follower_first_mean_s: f64,
    /// Mean PLT of all subsequent (warm) loads, seconds.
    warm_mean_s: f64,
    /// p95 PLT over all successful loads, seconds.
    p95_plt_s: f64,
    /// Plain bytes the domestic proxy pulled from upstream remotes.
    upstream_bytes: u64,
    cache: CacheStats,
}

fn run_once(cache_bytes: usize, verbose: bool) -> RunStats {
    let obs = sc_metrics::trace::ops_obs(WindowSpec::seconds(10), default_slos());

    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 4242);
    cfg.clients = CLIENTS;
    cfg.loads = LOADS;
    cfg.interval = SimDuration::from_secs(INTERVAL_S);
    cfg.timeout = SimDuration::from_secs(25);
    // Serve the page over plain HTTP so the proxy terminates the
    // requests itself (gateway mode) instead of piping an opaque tunnel.
    cfg.sc_http_page = true;
    cfg.origin_max_age = Some(ORIGIN_MAX_AGE_S);
    cfg.sc_cache_bytes = Some(cache_bytes);

    let built = build_scenario(&cfg);
    let cache = built.sc_cache.clone().expect("ScholarCloud scenario has a cache handle");
    if verbose {
        println!("--- cache lab: {CLIENTS} clients, {LOADS} rounds, shared working set ---");
        println!(
            "cache budget={} KiB, origin max-age={}s, interval={}s, runtime={}s",
            cache_bytes / 1024,
            ORIGIN_MAX_AGE_S,
            INTERVAL_S,
            built.runtime().as_secs_f64(),
        );
    }

    let outcome = built.finish();
    if verbose {
        print!("{}", report::render_scenario(Method::ScholarCloud, &outcome));
        print!("{}", report::render_cache(&cache.stats()));
    }

    let upstream_bytes = obs.finish().bytes_down;

    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut follower_first = Vec::new();
    let mut warm = Vec::new();
    let mut all_plts = Vec::new();
    for (client, loads) in outcome.loads.iter().enumerate() {
        for r in loads {
            if r.failed {
                failed += 1;
                continue;
            }
            ok += 1;
            let Some(plt) = r.plt else { continue };
            let plt_s = plt.as_secs_f64();
            all_plts.push(plt_s);
            if r.first_time && client > 0 {
                follower_first.push(plt_s);
            } else if !r.first_time {
                warm.push(plt_s);
            }
        }
    }
    all_plts.sort_by(|a, b| a.total_cmp(b));
    let mean = |v: &[f64]| {
        if v.is_empty() { f64::NAN } else { v.iter().sum::<f64>() / v.len() as f64 }
    };
    let p95_plt_s = if all_plts.is_empty() {
        f64::NAN
    } else {
        let rank = ((0.95 * all_plts.len() as f64).ceil() as usize).clamp(1, all_plts.len());
        all_plts[rank - 1]
    };

    RunStats {
        ok,
        failed,
        follower_first_mean_s: mean(&follower_first),
        warm_mean_s: mean(&warm),
        p95_plt_s,
        upstream_bytes,
        cache: cache.stats(),
    }
}

/// Sweeps the byte budget and prints the cache-effectiveness table
/// (hit rate, evictions, upstream bytes vs budget) for EXPERIMENTS.md.
fn sweep() {
    println!("--- cache sweep: effectiveness vs byte budget ---");
    println!(
        "{:>10} {:>8} {:>10} {:>8} {:>10} {:>14} {:>10}",
        "budget", "hits", "coalesced", "reval", "evicted", "upstream (KB)", "p95 PLT"
    );
    for budget in [0usize, 8 * 1024, 16 * 1024, 32 * 1024, 256 * 1024] {
        let s = run_once(budget, false);
        let label = if budget == 0 { "off".to_string() } else { format!("{}K", budget / 1024) };
        println!(
            "{label:>10} {:>8} {:>10} {:>8} {:>10} {:>14.1} {:>8.2} s",
            s.cache.hits,
            s.cache.coalesced,
            s.cache.revalidated,
            s.cache.evicted,
            s.upstream_bytes as f64 / 1024.0,
            s.p95_plt_s,
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--sweep") {
        sweep();
        return;
    }

    // Control first: the same crowd with the cache disabled (zero byte
    // budget keeps the gateway path, so the only variable is the cache).
    let control = run_once(0, false);
    let s = run_once(CACHE_BYTES, true);

    println!(
        "loads: {} ok / {} failed (control: {} ok / {} failed)",
        s.ok, s.failed, control.ok, control.failed
    );
    println!(
        "upstream bytes: {:.1} KB with cache vs {:.1} KB control ({:.0}% saved)",
        s.upstream_bytes as f64 / 1024.0,
        control.upstream_bytes as f64 / 1024.0,
        (1.0 - s.upstream_bytes as f64 / control.upstream_bytes as f64) * 100.0,
    );
    println!(
        "PLT: follower first loads {:.2} s mean, warm loads {:.2} s mean, p95 {:.2} s",
        s.follower_first_mean_s, s.warm_mean_s, s.p95_plt_s
    );

    // 1. Nothing fails, with or without the cache.
    assert_eq!(s.failed, 0, "cache run had failed loads");
    assert_eq!(control.failed, 0, "control run had failed loads");

    // 2. The cold surge coalesces: exactly one upstream fetch for the
    //    hottest page in the first round's window, with the other seven
    //    clients riding it as waiters.
    let front_page_fetches =
        s.cache.fetches_before("scholar.google.com", "/", (INTERVAL_S / 2) * 1_000_000);
    assert_eq!(
        front_page_fetches, 1,
        "the surge on / must collapse to one upstream fetch (saw {front_page_fetches})"
    );
    assert!(
        s.cache.coalesced > 0,
        "concurrent identical requests must attach as waiters"
    );

    // 3. Upstream traffic halves (the paper's scarce resource is the
    //    censored trans-Pacific link, not the campus LAN).
    assert!(
        s.upstream_bytes * 2 <= control.upstream_bytes,
        "cache must cut upstream bytes by ≥50% ({} vs control {})",
        s.upstream_bytes,
        control.upstream_bytes
    );

    // 4. Later rounds revalidate instead of refetching: the origin's
    //    max-age expired between rounds, so the refresh is a cheap 304.
    assert!(
        s.cache.revalidated > 0,
        "stale rounds must refresh via 304 revalidation"
    );

    // 5. Shared hits sit in the warm band: a client whose first visit
    //    was served out of the shared cache loads the page about as fast
    //    as a warm repeat visitor (within 2× + transpacific slack).
    assert!(
        s.follower_first_mean_s <= s.warm_mean_s * 2.0 + 0.5,
        "shared-hit first loads ({:.2} s) fell out of the warm band ({:.2} s)",
        s.follower_first_mean_s,
        s.warm_mean_s
    );

    // 6. Determinism: the same seed replays the exact decision sequence,
    //    including the microsecond timestamps of every upstream fetch.
    let replay = run_once(CACHE_BYTES, false);
    assert_eq!(
        s.cache, replay.cache,
        "cache decisions must be byte-for-byte reproducible"
    );

    println!("cache lab: all shared-cache assertions passed");
}
