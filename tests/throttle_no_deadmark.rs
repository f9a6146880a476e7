//! Regression test: gateway-mode back-pressure (`429`/`503` +
//! `Retry-After`) must be honored as a throttle — retried within the
//! browser's throttle budget — and must NOT dead-mark the fleet
//! member that sent it.
//!
//! The bug: a browser in HTTP-page (gateway) mode that received a
//! `503` with `Retry-After` during a fleet member's overload or
//! cold-start window treated it like proxy death, dead-marking the
//! member and steering the whole crowd away from it just as capacity
//! was coming good. The fix routes `429`/`503 + Retry-After` through
//! the same `throttle_backoff` path the CONNECT flow uses: the hint
//! counts against the per-load throttle-retry budget, the load backs
//! off and refetches, and no fleet `proxy_dead` event is traced.

use sc_metrics::trace::TraceBuf;
use sc_metrics::{Method, ScenarioConfig, build_scenario};
use sc_obs::analyze::{analyze, parse_trace};
use sc_obs::{Dispatcher, Level};
use sc_simnet::time::SimDuration;

/// An overloaded two-member gateway fleet: six clients slam proxies
/// sized for one tunnel each, so admission sheds the overflow with
/// `Retry-After` hints. Every shed must surface as a throttle (and
/// mostly recover), never as a dead-mark.
#[test]
fn gateway_throttle_counts_against_budget_but_never_dead_marks() {
    // Dead-marks are read from the run's trace.
    let trace = TraceBuf::default();
    let guard = Dispatcher::new().with_level(Level::Info).with_sink(trace.sink()).install();

    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 4242);
    cfg.clients = 6;
    cfg.loads = 3;
    cfg.interval = SimDuration::from_secs(20);
    cfg.timeout = SimDuration::from_secs(15);
    cfg.sc_http_page = true;
    cfg.sc_fleet = 2;
    cfg.sc_max_tunnels = Some(1);
    cfg.sc_queue_len = Some(1);
    // Stagger arrivals so the backed-off retries do not re-collide in
    // lockstep forever — some throttled loads must be able to land.
    cfg.ramp_stagger = SimDuration::from_millis(700);
    cfg.extra_runtime = SimDuration::from_secs(30);

    let built = build_scenario(&cfg);
    let outcome = built.finish();
    drop(guard);
    let text = String::from_utf8(trace.take()).expect("UTF-8 trace");
    let fleet = analyze(&parse_trace(&text).expect("the trace parses"), 1_000_000).fleet;

    // The overload actually happened and the browsers honored the
    // Retry-After hints through the throttle path.
    let throttled = outcome.loads.iter().flatten().filter(|r| r.throttled).count();
    assert!(
        throttled > 0,
        "undersized admission must shed with Retry-After and browsers must \
         register throttles ({throttled} throttled loads)"
    );

    // ... and back-pressure was never mistaken for proxy death.
    let dead_marks = fleet.dead_marks;
    assert_eq!(
        dead_marks, 0,
        "429/503 + Retry-After must not dead-mark a fleet member"
    );

    // At least one load was throttled and still completed: the hint
    // was retried within budget, not failed outright.
    let throttled_then_ok = outcome
        .loads
        .iter()
        .flatten()
        .filter(|r| r.throttled && !r.failed)
        .count();
    assert!(
        throttled_then_ok > 0,
        "a throttled load must be able to recover within its retry budget"
    );

    // The throttle budget is real: a load record that carries a proxy
    // status from a shed kept its status even when it recovered.
    assert!(
        outcome
            .loads
            .iter()
            .flatten()
            .any(|r| r.throttled && matches!(r.proxy_status, Some(429) | Some(503))),
        "throttled loads must record the shed status they overcame"
    );
}
