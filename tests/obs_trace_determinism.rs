//! Two runs of the same seeded scenario must produce byte-identical
//! JSONL traces: events are keyed to simulation time (never wall clock)
//! and span ids are assigned sequentially, so the trace is a pure
//! function of the seed.

mod common;

use common::{captured, check_golden, digest_line, elastic_run};
use sc_metrics::trace::TraceBuf;
use sc_metrics::{BuiltScenario, Method, ScenarioConfig, build_scenario, run_scenario};
use sc_obs::analyze::{analyze, parse_trace};
use sc_obs::{Dispatcher, Level, SloSpec, WindowSpec};
use sc_simnet::faults::FaultPlan;
use sc_simnet::time::{SimDuration, SimTime};

fn traced_run(method: Method, seed: u64) -> Vec<u8> {
    captured(|| {
        let mut cfg = ScenarioConfig::paper(method, seed);
        cfg.loads = 2;
        run_scenario(&cfg);
    })
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = traced_run(Method::ScholarCloud, 33);
    let b = traced_run(Method::ScholarCloud, 33);
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same-seed traces must be byte-identical");
}

/// Determinism *across commits*: the SHA-256 of each access method's
/// seeded trace is pinned in `tests/golden/transport_digests.txt`. A
/// change that claims to be bit-identical (a faster cipher, a leaner
/// packet path) must leave the digests alone; one that means to move
/// the trace re-blesses them with
/// `SC_BLESS=1 cargo test --test obs_trace_determinism golden` and says so.
#[test]
fn transport_trace_digests_match_golden() {
    let mut actual = String::new();
    for method in Method::all_measured() {
        actual.push_str(&digest_line(&format!("{method:?}"), &traced_run(method, 33)));
    }
    check_golden("transport_digests.txt", &actual);
}

/// A plaintext keyword reset and a raw-IP dial to Google on a small
/// border topology (client, GFW border, server, google). The server
/// streams small chunks from accept; the client's request carrying the
/// keyword arrives while those are in flight, so the border resets the
/// request *and* every server packet that crosses afterwards — the "a
/// flow that hit a rule keeps being reset" path. A second app dials
/// Google's address directly and has its SYNs black-holed. Returns the
/// trace and the GFW's counters.
fn border_lab_run() -> (Vec<u8>, sc_gfw::GfwCounters) {
    use sc_gfw::{GfwConfig, GfwMiddlebox, new_gfw};
    use sc_simnet::prelude::*;

    const SERVER: Addr = Addr::new(99, 0, 0, 1);
    const GOOGLE: Addr = Addr::new(99, 2, 0, 1);

    struct Dialer;
    impl App for Dialer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.tcp_connect(SocketAddr::new(GOOGLE, 443));
        }
        fn on_event(&mut self, _ev: AppEvent, _ctx: &mut Ctx<'_>) {}
    }

    struct Streamer {
        conn: Option<TcpHandle>,
        chunks_left: u32,
    }
    impl App for Streamer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.tcp_listen(80);
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            match ev {
                AppEvent::Tcp(h, TcpEvent::Accepted { .. }) => {
                    self.conn = Some(h);
                    ctx.set_timer(SimDuration::from_millis(5), 1);
                }
                AppEvent::Tcp(_, TcpEvent::Reset) => self.conn = None,
                AppEvent::TimerFired(1) => {
                    if let (Some(h), true) = (self.conn, self.chunks_left > 0) {
                        self.chunks_left -= 1;
                        ctx.tcp_send(h, &[b'.'; 200]);
                        ctx.set_timer(SimDuration::from_millis(5), 1);
                    }
                }
                _ => {}
            }
        }
    }

    struct Asker {
        conn: Option<TcpHandle>,
    }
    impl App for Asker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.conn = Some(ctx.tcp_connect(SocketAddr::new(SERVER, 80)));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            match ev {
                AppEvent::Tcp(_, TcpEvent::Connected) => {
                    ctx.set_timer(SimDuration::from_millis(150), 1);
                }
                AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                    let _ = ctx.tcp_recv_all(h);
                }
                AppEvent::TimerFired(1) => {
                    let h = self.conn.expect("connected");
                    ctx.tcp_send(h, b"GET /search?q=falun HTTP/1.1\r\nHost: s\r\n\r\n");
                }
                _ => {}
            }
        }
    }

    let mut counters = sc_gfw::GfwCounters::default();
    let trace = captured(|| {
        let mut sim = Sim::new(77);
        let client = sim.add_node("client", Addr::new(10, 0, 0, 1));
        let border = sim.add_node("border", Addr::new(172, 16, 0, 1));
        let server = sim.add_node("server", SERVER);
        let google = sim.add_node("google", GOOGLE);
        sim.add_link(client, border, LinkConfig::with_delay(SimDuration::from_millis(10)));
        sim.add_link(border, server, LinkConfig::with_delay(SimDuration::from_millis(60)));
        sim.add_link(border, google, LinkConfig::with_delay(SimDuration::from_millis(60)));
        sim.compute_routes();
        let gfw = new_gfw(GfwConfig::china_2017((Addr::new(99, 2, 0, 0), 16)));
        sim.set_middlebox(border, Box::new(GfwMiddlebox::new(gfw.clone())));
        sim.install_app(server, Box::new(Streamer { conn: None, chunks_left: 100 }));
        sim.install_app(client, Box::new(Asker { conn: None }));
        sim.install_app(client, Box::new(Dialer));
        sim.run_for(SimDuration::from_secs(5));
        counters = gfw.borrow().counters;
    });
    (trace, counters)
}

/// One arms-race seed: the censor learns the cover signature, the
/// defense rotates away from it, and the starved rule expires.
fn arms_race_run() -> Vec<u8> {
    captured(|| {
        let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 9191);
        cfg.clients = 2;
        cfg.loads = 5;
        cfg.interval = SimDuration::from_secs(10);
        cfg.timeout = SimDuration::from_secs(8);
        cfg.extra_runtime = SimDuration::from_secs(20);
        cfg.sc_adaptive = Some(sc_gfw::AdaptiveConfig {
            learn_after_flows: 4,
            signature_ttl: SimDuration::from_secs(15),
            ..Default::default()
        });
        cfg.sc_rotation = Some(sc_core::RotationPolicy {
            threshold: 2,
            cooldown: SimDuration::from_secs(5),
        });
        build_scenario(&cfg).finish();
    })
}

/// The interference paths, pinned across commits like the transports
/// above: every GFW technique that acts on a flow's captured payload
/// (or blocks before it) must keep producing the same trace — same
/// verdicts, same injected RSTs, same RNG draws — whatever the engine
/// does to avoid re-inspecting bytes it has already seen.
#[test]
fn interference_trace_digests_match_golden() {
    let has = |trace: &[u8], needle: &str| {
        String::from_utf8_lossy(trace).lines().any(|l| l.contains(needle))
    };
    let mut actual = String::new();

    // Direct access to Google, the paper's shape: the name is poisoned.
    let direct = captured(|| {
        let mut cfg = ScenarioConfig::paper(Method::Direct, 33);
        cfg.loads = 2;
        cfg.timeout = SimDuration::from_secs(20);
        run_scenario(&cfg);
    });
    assert!(has(&direct, "\"rule\":\"gfw-dns-poison\""), "direct run must be DNS-poisoned");
    actual.push_str(&digest_line("DirectGoogle", &direct));

    // Blinding off: the tunnelled ClientHello is reset by the
    // embedded-SNI scan on every packet of the flow.
    let unblinded = captured(|| {
        let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 33);
        cfg.loads = 2;
        cfg.sc_scheme = sc_crypto::BlindingScheme::Identity;
        run_scenario(&cfg);
    });
    assert!(has(&unblinded, "\"rule\":\"gfw-embedded-sni\""), "blinding-off run must be reset");
    actual.push_str(&digest_line("BlindingOff", &unblinded));

    let (lab, counters) = border_lab_run();
    assert!(
        counters.keyword_resets > 1,
        "packets after the first keyword hit must keep being reset: {counters:?}"
    );
    assert!(counters.ip_blocked > 0, "the raw-IP dial must be black-holed: {counters:?}");
    actual.push_str(&digest_line("KeywordResetAndIpBlock", &lab));

    let arms_race = arms_race_run();
    for needed in ["signature_learned", "signature_expired", "\"rule\":\"gfw-rst\""] {
        assert!(has(&arms_race, needed), "arms-race trace must record {needed}");
    }
    actual.push_str(&digest_line("ArmsRace", &arms_race));

    check_golden("interference_digests.txt", &actual);
}

/// The `sc_obs::prof` wall-clock profiler must be write-only from the
/// simulator's perspective: running the same seeded scenario with the
/// profiler collecting must leave the SC_TRACE bytes untouched. This is
/// the guarantee that lets the benchmark's `--trace 1` runs profile the
/// exact code CI verifies.
#[test]
fn profiler_on_and_off_traces_are_byte_identical() {
    use sc_obs::prof::{self, Subsystem};

    let off = traced_run(Method::ScholarCloud, 33);

    prof::reset();
    prof::set_enabled(true);
    let on = traced_run(Method::ScholarCloud, 33);
    prof::set_enabled(false);
    let report = prof::report();

    // The profiler must actually have been collecting during the run…
    assert!(
        report.scopes(Subsystem::EventLoop) > 0,
        "profiler saw no event-loop scopes — hooks not wired?"
    );
    assert!(report.scopes(Subsystem::Tcp) > 0, "profiler saw no TCP scopes");
    assert!(report.scopes(Subsystem::Proxy) > 0, "profiler saw no proxy scopes");
    assert!(report.total_ns() > 0, "profiler banked no wall time");
    // …and the trace must not know.
    assert_eq!(on, off, "profiler-on trace must be byte-identical to profiler-off");
    prof::reset();
}

#[test]
fn different_seed_traces_differ() {
    // Sanity check that the trace actually reflects the run: a different
    // seed shifts timings, so the bytes must differ.
    let a = traced_run(Method::ScholarCloud, 33);
    let b = traced_run(Method::ScholarCloud, 34);
    assert_ne!(a, b);
}

/// A fault-injected run: three remotes, the GFW blacklists all of them
/// mid-run (so any load after the fault must fail its first attempt and
/// fail over, whatever the health-scored pick chose) and heals one
/// later. Same seed + same plan must still be a pure function of the
/// inputs — byte-identical traces.
fn faulted_scenario(seed: u64) -> BuiltScenario {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
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
        .at(SimTime::from_secs(13), sc_gfw::blacklist_ip(&gfw, remotes[1]))
        .at(SimTime::from_secs(14), sc_gfw::blacklist_ip(&gfw, remotes[2]))
        .at(SimTime::from_secs(24), sc_gfw::unblacklist_ip(&gfw, remotes[2]))
        .at(SimTime::from_secs(40), sc_gfw::unblacklist_ip(&gfw, remotes[0]));
    built.sim.install_fault_plan(plan);
    built
}

fn faulted_run(seed: u64) -> Vec<u8> {
    captured(|| {
        faulted_scenario(seed).finish();
    })
}

#[test]
fn fault_injected_traces_are_byte_identical() {
    let a = faulted_run(57);
    let b = faulted_run(57);
    assert!(!a.is_empty(), "trace must not be empty");
    // The fault plane must actually have perturbed the run: blacklist
    // faults in the trace, and the resilience layer reacting to them.
    let text = String::from_utf8(a.clone()).unwrap();
    assert!(
        text.contains("\"event\":\"blacklist_ip\""),
        "trace must record the injected blacklist faults"
    );
    assert!(
        text.contains("\"event\":\"failover\""),
        "trace must record at least one failover reaction"
    );
    assert_eq!(a, b, "same seed + same fault plan must be byte-identical");
}

/// A flash-crowd run: an undersized domestic proxy (2 tunnels, 2-deep
/// queue) hit by a gated client surge released via `Fault::FlashCrowd`.
/// Admission decisions (sheds, queue drains, Retry-After backoffs) are
/// pure functions of the seeded sim, so the trace must stay
/// byte-identical with the overload-control layer fully engaged.
fn flash_crowd_scenario(seed: u64) -> BuiltScenario {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
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
        sc_simnet::faults::Fault::FlashCrowd {
            clients: 10,
            ramp: SimDuration::from_secs(4),
            trigger: Box::new(move |_t| gate.set(true)),
        },
    );
    built.sim.install_fault_plan(plan);
    built
}

fn flash_crowd_run(seed: u64) -> Vec<u8> {
    captured(|| {
        flash_crowd_scenario(seed).finish();
    })
}

#[test]
fn flash_crowd_traces_are_byte_identical() {
    let a = flash_crowd_run(77);
    let b = flash_crowd_run(77);
    assert!(!a.is_empty(), "trace must not be empty");
    // The overload-control layer must actually have engaged: the crowd
    // released, requests shed with explicit refusals, and at least one
    // browser honoring Retry-After.
    let text = String::from_utf8(a.clone()).unwrap();
    assert!(
        text.contains("\"event\":\"flash_crowd\""),
        "trace must record the flash-crowd fault"
    );
    assert!(
        text.contains("\"event\":\"shed\"") || text.contains("\"event\":\"throttle\""),
        "trace must record admission shedding under the surge"
    );
    assert!(
        text.contains("\"event\":\"throttled\""),
        "trace must record a browser Retry-After backoff"
    );
    assert_eq!(a, b, "same seed + same flash crowd must be byte-identical");
}

/// A fleet-chaos run: the `fleet_chaos` example shrunk — a 3-member
/// domestic fleet with rotated PAC fallback lists and a rendezvous-
/// sharded cache, member 1 crashed mid-run (SYNs dropped silently, so
/// browsers discover it only by connect timeout) and restarted later.
/// Dead-marks, failover retries, re-probe backoff, and the cache-
/// peering hop are all keyed to simulation time, so same seed + same
/// crash must be byte-identical.
fn fleet_chaos_scenario(seed: u64) -> BuiltScenario {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
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
        .at(SimTime::from_secs(12), sc_simnet::faults::Fault::NodeCrash(victim))
        .at(SimTime::from_secs(20), sc_simnet::faults::Fault::NodeRestart(victim));
    built.sim.install_fault_plan(plan);
    built
}

fn fleet_chaos_run(seed: u64) -> Vec<u8> {
    captured(|| {
        fleet_chaos_scenario(seed).finish();
    })
}

#[test]
fn fleet_chaos_traces_are_byte_identical() {
    let a = fleet_chaos_run(9393);
    let b = fleet_chaos_run(9393);
    assert!(!a.is_empty(), "trace must not be empty");
    // The fleet machinery must actually have engaged: the crash
    // dead-marked via connect timeout, a browser failed over down its
    // PAC list, the sharded cache peered, and the restarted member was
    // re-probed back in.
    let text = String::from_utf8(a.clone()).unwrap();
    for needed in [
        "\"event\":\"proxy_dead\"",
        "\"event\":\"failover\"",
        "\"event\":\"peer_fetch\"",
        "\"event\":\"proxy_recovered\"",
    ] {
        assert!(
            text.lines().any(|l| l.contains("\"target\":\"fleet\"") && l.contains(needed)),
            "trace must record a fleet {needed} event"
        );
    }
    assert_eq!(a, b, "same seed + same node crash must be byte-identical");
}

/// `web.failovers`, which the benchmark reads from the registry, counts
/// what the trace's fleet `failover` events count: the trace can stand
/// in for the counter.
#[test]
fn the_web_failovers_counter_has_a_trace_twin() {
    let buf = TraceBuf::default();
    let guard = Dispatcher::new().with_level(Level::Debug).with_sink(buf.sink()).install();
    fleet_chaos_scenario(9393).finish();
    let counted = guard.uninstall().registry().counter("web.failovers");
    let text = String::from_utf8(buf.take()).expect("UTF-8 trace");
    let fleet = analyze(&parse_trace(&text).expect("the trace parses"), 1_000_000).fleet;
    assert!(counted > 0, "the crash forced browser failovers");
    assert_eq!(counted, fleet.failovers, "counter and trace disagree");
}

/// A shared-cache run: the cache_lab shape shrunk — clients loading the
/// same plain-HTTP page through the domestic proxy's gateway path, with
/// the origin's max-age expiring between rounds so the cache exercises
/// cold misses, singleflight coalescing, and 304 revalidation. Every
/// cache decision is keyed to simulation time, so the trace must be
/// byte-identical across same-seed runs.
fn cache_lab_run(seed: u64) -> Vec<u8> {
    captured(|| {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
    cfg.clients = 4;
    cfg.loads = 2;
    cfg.interval = SimDuration::from_secs(30);
    cfg.timeout = SimDuration::from_secs(25);
    cfg.sc_http_page = true;
    cfg.origin_max_age = Some(20);
    cfg.sc_cache_bytes = Some(256 * 1024);
    run_scenario(&cfg);
    })
}

#[test]
fn cache_lab_traces_are_byte_identical() {
    let a = cache_lab_run(4242);
    let b = cache_lab_run(4242);
    assert!(!a.is_empty(), "trace must not be empty");
    // The cache must actually have engaged: a cold miss, concurrent
    // requests coalescing onto the in-flight fetch, and a stale round
    // refreshing via 304.
    let text = String::from_utf8(a.clone()).unwrap();
    for needed in ["\"event\":\"miss\"", "\"event\":\"coalesced\"", "\"event\":\"revalidated\""] {
        assert!(
            text.lines().any(|l| l.contains("\"target\":\"cache\"") && l.contains(needed)),
            "trace must record a scholarcloud/cache {needed} event"
        );
    }
    assert_eq!(a, b, "same-seed shared-cache traces must be byte-identical");
}

/// A windows+SLO run: an undersized ScholarCloud VM under a small ramp,
/// tight enough that the PLT SLO fires. Returns the raw trace bytes and
/// the rendered timeline + verdict table.
fn ops_run(seed: u64) -> (Vec<u8>, String) {
    let buf = TraceBuf::default();
    // 2-second windows, a deliberately unachievable PLT target so
    // alerts fire even in this tiny run.
    let guard = Dispatcher::new()
        .with_level(Level::Debug)
        .with_sink(buf.sink())
        .with_windows(WindowSpec::new(2_000_000, 512))
        .with_slos(vec![SloSpec::quantile("plt-p95", "web.plt_us", 0.95, 1_000_000)])
        .install();
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
    cfg.clients = 6;
    cfg.loads = 4;
    cfg.interval = sc_simnet::time::SimDuration::from_secs(2);
    cfg.ramp_stagger = sc_simnet::time::SimDuration::from_secs(2);
    cfg.timeout = sc_simnet::time::SimDuration::from_secs(15);
    cfg.server_bandwidth_override = Some(200_000);
    run_scenario(&cfg);
    let rendered = format!(
        "{}{}",
        sc_obs::with_timeseries(|ts| ts.render_timeline("web.plt_us")).unwrap(),
        sc_obs::with_slo_engine(|e| e.verdict_table()).unwrap(),
    );
    drop(guard);
    (buf.take(), rendered)
}

#[test]
fn windows_and_slo_alerts_are_deterministic() {
    let (trace_a, render_a) = ops_run(91);
    let (trace_b, render_b) = ops_run(91);
    assert_eq!(trace_a, trace_b, "same-seed windowed traces must be byte-identical");
    assert_eq!(render_a, render_b, "rendered timeline/verdicts must be identical");

    // The run must actually have exercised the alert path: at least one
    // fire event in the trace, produced mid-run by the simnet tick hook.
    let text = String::from_utf8(trace_a).unwrap();
    let fires: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"component\":\"slo\"") && l.contains("\"event\":\"fire\""))
        .collect();
    assert!(!fires.is_empty(), "expected at least one SLO fire event in the trace");
    assert!(render_a.contains("plt-p95"), "verdict table must list the SLO:\n{render_a}");
    assert!(
        render_a.contains("FIRING") || render_a.contains("recovered"),
        "verdict table must show the alert state:\n{render_a}"
    );

    // And the offline analyzer must agree with the live engine.
    let events = sc_obs::analyze::parse_trace(&text).unwrap();
    let analysis = sc_obs::analyze::analyze(&events, 2_000_000);
    assert_eq!(
        analysis.slo_alerts.iter().filter(|(_, kind, _, _)| kind == "fire").count(),
        fires.len(),
    );
}

/// End-to-end check of the causal-tracing tentpole: every page load the
/// ops scenario completes must stitch into a cross-tier tree whose
/// exclusive per-tier attribution partitions the PLT exactly, the fired
/// SLO alert must carry exemplar trace ids that resolve to stitched
/// trees, and the per-request waterfall must render for the slowest
/// request.
#[test]
fn completed_loads_stitch_into_attributed_trees_with_exemplars() {
    let (trace, _render) = ops_run(91);
    let text = String::from_utf8(trace).unwrap();
    let events = sc_obs::analyze::parse_trace(&text).unwrap();
    let analysis = sc_obs::analyze::analyze(&events, 2_000_000);

    // Coverage: ≥95% of completed loads must have stitched across tiers
    // (in practice: all of them — propagation is in-band, not sampled).
    let coverage = analysis
        .attribution_coverage()
        .expect("ops run must complete at least one page load");
    assert!(coverage >= 0.95, "attribution coverage {coverage:.3} below 0.95");

    // Attribution: exclusive per-span and per-tier times partition each
    // completed root window exactly (not merely within 1%).
    for tree in analysis.trees.iter().filter(|t| t.completed()) {
        let excl: u64 = tree.spans.iter().map(|s| s.excl_us).sum();
        let tiers: u64 = tree.tier_us.values().sum();
        assert_eq!(excl, tree.plt_us, "trace {:016x}: exclusive != PLT", tree.trace_id);
        assert_eq!(tiers, tree.plt_us, "trace {:016x}: tier blame != PLT", tree.trace_id);
        assert!(
            tree.tier_us.keys().any(|t| *t != "web"),
            "trace {:016x} never left the web tier",
            tree.trace_id
        );
    }

    // Exemplars: the fired plt-p95 alert must name at least one trace id
    // that resolves to a stitched tree (the drill-down path the alert
    // exists for).
    assert!(!analysis.alert_exemplars.is_empty(), "fired alert carries no exemplars");
    for (_, slo, ids) in &analysis.alert_exemplars {
        assert_eq!(slo, "plt-p95");
        assert!(!ids.is_empty(), "exemplar list must not be empty");
        for id in ids {
            let tree = analysis.tree(*id).expect("exemplar id must resolve to a tree");
            assert!(tree.stitched(), "exemplar {id:016x} did not stitch across tiers");
        }
    }

    // Waterfall: the slowest completed request renders a drill-down.
    let slowest = analysis.slowest(1);
    let worst = slowest.first().expect("at least one completed load");
    let waterfall = sc_obs::analyze::render_waterfall(worst);
    assert!(waterfall.contains("page_load"), "waterfall missing root:\n{waterfall}");
    assert!(waterfall.contains("tier blame:"), "waterfall missing blame:\n{waterfall}");
}

/// What the analyzer prints for `trace`: the text report, the `--json`
/// summary and the slowest completed request's waterfall, hashed.
fn analyzer_digest_line(label: &str, trace: &[u8]) -> String {
    use sc_obs::analyze::{analyze, parse_trace, render_json, render_report, render_waterfall};
    let text = std::str::from_utf8(trace).expect("traces are UTF-8");
    let events = parse_trace(text).expect("a trace the sink wrote parses");
    let analysis = analyze(&events, 2_000_000);
    let mut printed = render_report(&analysis);
    printed.push_str(&render_json(&analysis));
    if let Some(worst) = analysis.slowest(1).first() {
        printed.push_str(&render_waterfall(worst));
    }
    digest_line(label, printed.as_bytes())
}

/// The read side, pinned across commits like the traces above: whatever
/// the analyzer does to parse and aggregate faster, every byte it prints
/// for the scenarios this file builds stays the same.
#[test]
fn analyzer_output_digests_match_golden() {
    let mut actual = String::new();
    for method in Method::all_measured() {
        actual.push_str(&analyzer_digest_line(&format!("{method:?}"), &traced_run(method, 33)));
    }
    for (label, trace) in [
        ("FaultInjected", faulted_run(57)),
        ("FlashCrowd", flash_crowd_run(77)),
        ("FleetChaos", fleet_chaos_run(9393)),
        ("CacheLab", cache_lab_run(4242)),
        ("Ops", ops_run(91).0),
        ("ArmsRace", arms_race_run()),
        ("Elastic", elastic_run(7171)),
    ] {
        actual.push_str(&analyzer_digest_line(label, &trace));
    }
    check_golden("analyzer_digests.txt", &actual);
}

/// A baseline transport under faults: `method`'s paper scenario with
/// two clients, whose server-side node at `victim` (the Shadowsocks VM,
/// or a Tor relay every circuit crosses) first loses packets on its one
/// access link for a few seconds, then crashes mid-load and comes back.
/// Loads time out and fail, the local proxy queues browsers behind a
/// shared re-authentication, and relays drop their links: the paths
/// where a table is walked and what it holds goes out on the wire.
fn faulted_transport_run(mut cfg: ScenarioConfig, victim: sc_simnet::addr::Addr) -> Vec<u8> {
    use sc_simnet::faults::Fault;
    captured(|| {
        cfg.clients = 2;
        cfg.loads = 4;
        cfg.interval = SimDuration::from_secs(15);
        cfg.timeout = SimDuration::from_secs(12);
        cfg.extra_runtime = SimDuration::from_secs(15);
        let mut built = build_scenario(&cfg);
        let node = built.sim.node_by_addr(victim).expect("the victim is in the topology");
        let access = built.sim.node(node).links[0];
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(16), Fault::LinkLoss(access, 0.3))
            .at(SimTime::from_secs(20), Fault::LinkLoss(access, 0.0))
            .at(SimTime::from_secs(32), Fault::NodeCrash(node))
            .at(SimTime::from_secs(40), Fault::NodeRestart(node));
        built.sim.install_fault_plan(plan);
        built.finish();
    })
}

fn tor_faulted_run(seed: u64) -> Vec<u8> {
    faulted_transport_run(ScenarioConfig::paper(Method::Tor, seed), sc_metrics::scenario::addrs::MIDDLE)
}

/// Shadowsocks with one authentication shared by every data connection
/// opened within the keep-alive window, so the browsers of a load queue
/// behind it.
fn shadowsocks_faulted_run(seed: u64) -> Vec<u8> {
    let mut cfg = ScenarioConfig::paper(Method::Shadowsocks, seed);
    cfg.ss_auth_per_connection = false;
    faulted_transport_run(cfg, sc_metrics::scenario::addrs::SS)
}

#[test]
fn faulted_transport_traces_are_byte_identical() {
    for (label, run) in [("tor", tor_faulted_run as fn(u64) -> Vec<u8>), ("shadowsocks", shadowsocks_faulted_run)] {
        let a = run(61);
        let text = String::from_utf8(a.clone()).unwrap();
        for needed in ["\"event\":\"link_loss\"", "\"event\":\"node_crash\"", "\"event\":\"node_restart\""] {
            assert!(text.contains(needed), "{label}: trace must record {needed}");
        }
        assert_eq!(a, run(61), "{label}: same seed + same faults must be byte-identical");
    }
}

/// The proxy-heavy scenarios, pinned byte for byte: the analyzer digests
/// above only see what `analyze` reads, so a reordered field or a
/// renamed key in an event it ignores would slip past them. These hash
/// the raw traces.
#[test]
fn scenario_trace_digests_match_golden() {
    let mut actual = String::new();
    for (label, trace) in [
        ("FaultInjected", faulted_run(57)),
        ("FlashCrowd", flash_crowd_run(77)),
        ("FleetChaos", fleet_chaos_run(9393)),
        ("CacheLab", cache_lab_run(4242)),
        ("Ops", ops_run(91).0),
        ("Elastic", elastic_run(7171)),
        ("TorFaulted", tor_faulted_run(61)),
        ("ShadowsocksFaulted", shadowsocks_faulted_run(61)),
    ] {
        actual.push_str(&digest_line(label, &trace));
    }
    check_golden("scenario_digests.txt", &actual);
}

/// Conservation: once a run has finished, the domestic proxy holds
/// nothing — no browser connection, pending request, stream, peering
/// hop, gateway fetch or waiter, and no admission slot. A table that
/// only grows (every accepted connection used to leave an entry behind)
/// or a slot that is never handed back shows up here as a non-zero row.
#[test]
fn a_finished_run_leaves_the_proxy_empty() {
    for (label, mut built) in
        [("flash crowd", flash_crowd_scenario(77)), ("fault injected", faulted_scenario(57))]
    {
        built.sim.run_for(built.runtime());
        let node = built.sim.node(built.sc_domestic_nodes[0]);
        let proxy = node
            .apps
            .iter()
            .flatten()
            .find_map(|app| (&**app as &dyn std::any::Any).downcast_ref::<sc_core::DomesticProxy>())
            .expect("the domestic node runs the proxy");
        let held: Vec<_> = proxy.occupancy().into_iter().filter(|(_, n)| *n > 0).collect();
        assert!(held.is_empty(), "{label}: the proxy still holds {held:?}");
    }
}

/// Spans a run opened and never closed, as `component/target/name`
/// with how many.
fn spans_left_open(trace: &[u8]) -> std::collections::BTreeMap<String, usize> {
    let text = std::str::from_utf8(trace).expect("traces are UTF-8");
    let mut open = std::collections::BTreeMap::new();
    for line in text.lines() {
        let ev = sc_obs::analyze::parse_line(line).expect("a line the sink wrote parses");
        let Some(span) = ev.span else { continue };
        match &*ev.name {
            "span_start" => {
                let site = format!("{}/{}/{}", ev.component, ev.target, ev.get_str("span_name").unwrap_or("?"));
                open.insert(span, site);
            }
            "span_end" => {
                open.remove(&span);
            }
            _ => {}
        }
    }
    let mut by_site = std::collections::BTreeMap::new();
    for site in open.into_values() {
        *by_site.entry(site).or_insert(0) += 1;
    }
    by_site
}

/// Every span a faulted run opens is closed by the time the run ends: a
/// load that fails, fails over or is throttled, and a connection the
/// peer closes, end the phase spans of the connections they drop.
#[test]
fn a_faulted_run_leaves_no_span_open() {
    for (label, trace) in [
        ("fault injected", faulted_run(57)),
        ("flash crowd", flash_crowd_run(77)),
        ("fleet chaos", fleet_chaos_run(9393)),
        ("elastic", elastic_run(7171)),
        ("cache lab", cache_lab_run(4242)),
        ("ops", ops_run(91).0),
        ("arms race", arms_race_run()),
        ("border lab", border_lab_run().0),
    ] {
        let open = spans_left_open(&trace);
        assert!(open.is_empty(), "{label}: spans left open: {open:?}");
    }
}
