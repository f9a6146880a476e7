//! Property tests for the elastic remote tier's autoscaler, plus the
//! byte-identical trace pin for elastic scenarios.
//!
//! The [`ElasticPool`] is a pure state machine — time, demand, and
//! randomness all arrive as arguments — so its invariants can be
//! pinned against arbitrary interleavings of ticks, stream dispatch,
//! and blacklist churn:
//!
//! 1. **bounds** — after every tick the live (warm + provisioning)
//!    instance count stays inside `[min_instances, max_instances]`,
//!    no matter how demand and churn thrash it;
//! 2. **never strand** — a `Retire` action is only ever emitted for an
//!    instance with zero in-flight streams: scale-in and churn drain,
//!    they do not cut loads off mid-flight;
//! 3. **determinism** — a full elastic scenario (autoscaler ticks,
//!    cold starts from the seeded RNG, a mid-run blacklisting wave
//!    resolved at fire time, churn, cost metering) produces
//!    byte-identical JSONL traces across same-seed runs;
//! 4. **obs is write-only** — the same scenario ends the same with no
//!    dispatcher, a sinkless one, or one evaluating SLOs, fired or not.

mod common;

use std::collections::BTreeMap;

use common::{elastic_run, elastic_scenario};
use proptest::prelude::*;
use sc_core::{ElasticAction, ElasticConfig, ElasticPool};
use sc_simnet::addr::Addr;
use sc_obs::{Dispatcher, Level, SloSpec, WindowSpec};
use sc_simnet::time::{SimDuration, SimTime};

/// Fresh addresses for the pool, far more than any op sequence can
/// burn through (so address starvation never masks a bounds check).
fn addr_pool() -> Vec<Addr> {
    (0..64).map(|i| Addr::new(99, 0, 1, 1 + i as u8)).collect()
}

/// A deterministic `[0, 1)` source standing in for the sim's seeded
/// RNG (an LCG stepped once per provision, like the real driver).
fn draw_fn(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One scripted perturbation of the pool.
#[derive(Debug, Clone)]
enum Op {
    /// Advance time and run a controller tick with this queue depth.
    Tick { dt_ms: u64, queue_depth: usize },
    /// Dispatch a stream to the k-th warm instance (mod warm count).
    StreamStart { k: usize },
    /// Finish the oldest open stream.
    StreamEnd,
    /// Blacklist the k-th warm instance (breaker opened on it).
    Churn { k: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0usize..8, 1u64..3_000, 0usize..16).prop_map(
        |(kind, k, dt_ms, queue_depth)| match kind {
            0 => Op::Tick { dt_ms, queue_depth },
            1 => Op::StreamStart { k },
            2 => Op::StreamEnd,
            _ => Op::Churn { k },
        },
    )
}

proptest! {
    /// Invariants 1 + 2 under arbitrary op interleavings: live count
    /// stays in `[min, max]` after every tick, and `Retire` never
    /// fires while the instance still carries in-flight streams.
    #[test]
    fn autoscaler_stays_in_bounds_and_never_strands(
        ops in prop::collection::vec(op_strategy(), 1..60),
        min in 1usize..3,
        extra in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let max = min + 1 + extra;
        let cfg = ElasticConfig {
            min_instances: min,
            max_instances: max,
            idle_timeout: SimDuration::from_secs(5),
            ..ElasticConfig::default()
        };
        let mut pool = ElasticPool::new(cfg, addr_pool());
        pool.seed_warm(min);
        let mut draw = draw_fn(seed);

        // The driver's view of what is in flight where; the pool must
        // never retire an address this map still counts.
        let mut inflight: BTreeMap<Addr, usize> = BTreeMap::new();
        let mut open: Vec<Addr> = Vec::new();
        let mut now = SimTime::ZERO;

        for op in &ops {
            match op {
                Op::Tick { dt_ms, queue_depth } => {
                    now = now + SimDuration::from_millis(*dt_ms);
                    for act in pool.tick(now, *queue_depth, &mut draw) {
                        if let ElasticAction::Retire { addr } = act {
                            prop_assert_eq!(
                                inflight.get(&addr).copied().unwrap_or(0),
                                0,
                                "retired {} with streams still in flight",
                                addr
                            );
                        }
                    }
                    let live = pool.live_count();
                    prop_assert!(
                        live >= min && live <= max,
                        "live {} outside [{}, {}] after tick",
                        live,
                        min,
                        max
                    );
                    prop_assert_eq!(
                        pool.starved_provisions, 0,
                        "address pool must be ample for this test"
                    );
                }
                Op::StreamStart { k } => {
                    let warm = pool.warm_addrs();
                    if warm.is_empty() {
                        continue;
                    }
                    let addr = warm[k % warm.len()];
                    prop_assert!(pool.note_stream_start(addr));
                    *inflight.entry(addr).or_insert(0) += 1;
                    open.push(addr);
                }
                Op::StreamEnd => {
                    if let Some(addr) = open.first().copied() {
                        open.remove(0);
                        pool.note_stream_end(addr, now);
                        if let Some(n) = inflight.get_mut(&addr) {
                            *n = n.saturating_sub(1);
                        }
                    }
                }
                Op::Churn { k } => {
                    let warm = pool.warm_addrs();
                    if warm.is_empty() {
                        continue;
                    }
                    pool.churn(warm[k % warm.len()]);
                }
            }
        }

        // Drain everything: with all streams closed and demand gone,
        // repeated ticks settle the pool back to exactly `min` live
        // instances (idle scale-in converges, nothing leaks).
        for addr in open.drain(..) {
            pool.note_stream_end(addr, now);
        }
        for _ in 0..4 {
            now = now + SimDuration::from_secs(10);
            pool.tick(now, 0, &mut draw);
        }
        prop_assert_eq!(pool.live_count(), min, "idle pool must settle at min");
    }

    /// The cost meters never run backwards and the total is always the
    /// sum of its parts, whatever the op sequence.
    #[test]
    fn cost_meters_are_monotone_and_additive(
        ops in prop::collection::vec(op_strategy(), 1..40),
        seed in 0u64..1_000,
    ) {
        let cfg = ElasticConfig {
            min_instances: 1,
            max_instances: 4,
            ..ElasticConfig::default()
        };
        let mut pool = ElasticPool::new(cfg, addr_pool());
        pool.seed_warm(1);
        let mut draw = draw_fn(seed);
        let mut now = SimTime::ZERO;
        let mut open: Vec<Addr> = Vec::new();
        let mut last_total = 0u64;

        for op in &ops {
            match op {
                Op::Tick { dt_ms, queue_depth } => {
                    now = now + SimDuration::from_millis(*dt_ms);
                    pool.tick(now, *queue_depth, &mut draw);
                }
                Op::StreamStart { k } => {
                    let warm = pool.warm_addrs();
                    if let Some(&addr) = warm.get(k % warm.len().max(1)) {
                        pool.note_stream_start(addr);
                        pool.note_egress(addr, 10_000);
                        open.push(addr);
                    }
                }
                Op::StreamEnd => {
                    if let Some(addr) = open.first().copied() {
                        open.remove(0);
                        pool.note_stream_end(addr, now);
                    }
                }
                Op::Churn { k } => {
                    let warm = pool.warm_addrs();
                    if !warm.is_empty() {
                        pool.churn(warm[k % warm.len()]);
                    }
                }
            }
            let total = pool.total_cost_micro();
            prop_assert!(total >= last_total, "cost meter ran backwards");
            prop_assert_eq!(
                total,
                pool.cost_invocation_micro()
                    + pool.cost_egress_micro()
                    + pool.cost_warm_micro()
            );
            last_total = total;
        }
    }
}

#[test]
fn elastic_traces_are_byte_identical() {
    let a = elastic_run(7171);
    let b = elastic_run(7171);
    assert!(!a.is_empty(), "trace must not be empty");
    // The elastic machinery must actually have engaged: the wave's
    // churn retired the blacklisted instance and a replacement
    // cold-started at a fresh IP, with the cost meters publishing.
    let text = String::from_utf8(a.clone()).unwrap();
    for needed in [
        "\"event\":\"churn\"",
        "\"event\":\"provision\"",
        "\"event\":\"warm\"",
        "\"event\":\"retire\"",
        "\"event\":\"cost\"",
    ] {
        assert!(
            text.lines().any(|l| l.contains("\"target\":\"elastic\"") && l.contains(needed)),
            "trace must record an elastic {needed} event"
        );
    }
    assert_eq!(a, b, "same-seed elastic traces must be byte-identical");

    // And a different seed must actually shift the run.
    let c = elastic_run(7172);
    assert_ne!(a, c, "different seeds must produce different elastic traces");
}

/// The elastic scenario's outcome at seed 7171 under `dispatcher` (none:
/// no dispatcher at all), and whether an SLO alert fired.
fn outcome_under(dispatcher: Option<Dispatcher>) -> (String, bool) {
    let guard = dispatcher.map(Dispatcher::install);
    let outcome = format!("{:?}", elastic_scenario(7171));
    let fired = sc_obs::with_slo_engine(|e| e.any_fired()).unwrap_or(false);
    drop(guard);
    (outcome, fired)
}

#[test]
fn the_elastic_tier_runs_the_same_whatever_obs_collects() {
    let slo_dispatcher =
        |slos| Dispatcher::new().with_level(Level::Debug).with_windows(WindowSpec::seconds(10)).with_slos(slos);
    let (bare, _) = outcome_under(None);
    let (sinkless, _) = outcome_under(Some(Dispatcher::new()));
    assert_eq!(sinkless, bare, "a sinkless dispatcher moved the outcome");
    let (slos, _) = outcome_under(Some(slo_dispatcher(sc_metrics::default_slos())));
    assert_eq!(slos, bare, "the default SLOs moved the outcome");
    // An objective no page load meets fires in the first window.
    let strict = SloSpec::quantile("plt-p95", "web.plt_us", 0.95, 1);
    let (burning, fired) = outcome_under(Some(slo_dispatcher(vec![strict])));
    assert!(fired, "the strict objective never fired");
    assert_eq!(burning, bare, "a fired SLO alert moved the outcome");
}
