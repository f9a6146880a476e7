//! Allocations a page load may cost, held in tier-1: the repository
//! benchmark's `allocs_per_load` and `alloc_bytes_per_load` are counts
//! that repeat exactly, so the two ScholarCloud shapes it measures can be
//! run here, small, under the same counting allocator, against a stated
//! budget. A change that brings back a `String` per header or a copy of
//! the page per tier fails this before anyone runs the benchmark.
//!
//! The budgets are what the shapes cost when this file was last touched
//! plus about a tenth; a change that lowers the cost lowers them with it.

use sc_metrics::{build_scenario, Method, ScenarioConfig};
use sc_obs::prof::{alloc_stats, CountingAlloc};
use sc_simnet::time::SimDuration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The benchmark's ScholarCloud base shape (think time, load deadline,
/// client stagger), at `clients` × `loads`.
fn shape(seed: u64, clients: usize, loads: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
    cfg.clients = clients;
    cfg.loads = loads;
    cfg.interval = SimDuration::from_secs(10);
    cfg.timeout = SimDuration::from_secs(8);
    cfg.ramp_stagger = SimDuration::from_millis(250);
    cfg
}

/// `(allocations, bytes)` per load of building and running `cfg`; every
/// load must succeed, or the division means nothing.
fn cost_per_load(cfg: &ScenarioConfig) -> (f64, f64) {
    let before = alloc_stats();
    let outcome = build_scenario(cfg).finish();
    let after = alloc_stats();
    let loads = (cfg.clients * cfg.loads) as f64;
    let completed = outcome.loads.iter().flatten().filter(|l| l.plt.is_some()).count();
    assert_eq!(completed as f64, loads, "every load completes");
    (
        (after.allocations - before.allocations) as f64 / loads,
        (after.allocated_bytes - before.allocated_bytes) as f64 / loads,
    )
}

/// One test, so that nothing else allocates while a shape is counted.
#[test]
fn a_page_load_stays_inside_its_allocation_budget() {
    // `sc_tunnel_steady`'s shape: CONNECT, blinded tunnel, TLS to the
    // origin. What it allocates is TLS records, the relay hops' one copy
    // each way, and two small buffers per HTTP message.
    let tunnel = shape(2017, 4, 12);
    // `sc_gateway_fleet`'s shape: plain HTTP through three gateways whose
    // 12 KiB shards churn. Bodies are shared from the origin's rendered
    // page to the browser's cache; a body is assembled once per fetch.
    let mut fleet = shape(2117, 8, 12);
    fleet.sc_http_page = true;
    fleet.sc_fleet = 3;
    fleet.sc_cache_bytes = Some(12 * 1024);
    fleet.origin_max_age = Some(20);

    for (name, cfg, max_allocs, max_bytes) in
        [("tunnel", tunnel, TUNNEL_ALLOCS, TUNNEL_BYTES), ("gateway fleet", fleet, FLEET_ALLOCS, FLEET_BYTES)]
    {
        let (allocs, bytes) = cost_per_load(&cfg);
        println!("{name}: {allocs:.1} allocations, {bytes:.0} B a load (budget {max_allocs}, {max_bytes})");
        assert!(allocs <= max_allocs, "{name}: {allocs:.1} allocations a load, budget {max_allocs}");
        assert!(bytes <= max_bytes, "{name}: {bytes:.0} B allocated a load, budget {max_bytes}");
        // A budget nobody is near holds no line.
        assert!(allocs >= 0.8 * max_allocs, "{name}: {allocs:.1} allocations a load: lower the budget to it");
    }
}

// Measured 199.3 / 65 618 B (tunnel) and 206.7 / 54 382 B (gateway
// fleet), the same in debug and release builds; before HTTP messages
// stopped allocating per header and copying per tier the two shapes cost
// 363.7 / 119 258 B and 433.2 / 138 177 B.
const TUNNEL_ALLOCS: f64 = 220.0;
const TUNNEL_BYTES: f64 = 72_000.0;
const FLEET_ALLOCS: f64 = 228.0;
const FLEET_BYTES: f64 = 60_000.0;
