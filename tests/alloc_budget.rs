//! Allocations a page load may cost, held in tier-1: the repository
//! benchmark's `allocs_per_load` and `alloc_bytes_per_load` are counts
//! that repeat exactly, so the three ScholarCloud shapes it measures and
//! the four baselines of its transport matrix can be run here, small,
//! under the same counting allocator, against a stated budget. A change
//! that brings back a `String` per header, a copy of the page per tier, a
//! name lookup per metric write or a second buffer per sealed packet or
//! cell fails this before anyone runs the benchmark. The analyzer is held the same way:
//! its pass over the traced shape's trace has a budget per line, and
//! its peak memory over a trace of lines it keeps nothing of is one
//! bound however long the trace — a pass that holds every event again
//! fails here.
//!
//! The budgets are what the shapes cost when this file was last touched
//! plus about a tenth; a change that lowers the cost lowers them with it.

mod common;

use sc_metrics::trace::TraceBuf;
use sc_metrics::{build_scenario, Method, ScenarioConfig};
use sc_obs::analyze::{analyze, parse_trace};
use sc_obs::prof::{alloc_stats, reset_alloc_peak, CountingAlloc};
use sc_obs::{write_line, Dispatcher, Level, SpanId, WindowSpec};
use sc_simnet::faults::{Fault, FaultPlan};
use sc_simnet::time::{SimDuration, SimTime};

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

/// A `transport_matrix` part, small: `method` as the paper deploys it,
/// with the benchmark's think time and load deadline.
fn matrix(method: Method, seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(method, seed);
    cfg.clients = 3;
    cfg.loads = 10;
    cfg.interval = SimDuration::from_secs(20);
    cfg.timeout = SimDuration::from_secs(18);
    cfg
}

/// `(allocations, bytes)` per attempted load of `f`, which runs `loads`.
fn cost_per_load(loads: usize, f: impl FnOnce()) -> (f64, f64) {
    let before = alloc_stats();
    f();
    let after = alloc_stats();
    let loads = loads as f64;
    (
        (after.allocations - before.allocations) as f64 / loads,
        (after.allocated_bytes - before.allocated_bytes) as f64 / loads,
    )
}

/// Builds and runs `cfg`; every load must succeed, or the division means
/// nothing.
fn steady(cfg: &ScenarioConfig) -> (f64, f64) {
    cost_per_load(cfg.clients * cfg.loads, || {
        let outcome = build_scenario(cfg).finish();
        let completed = outcome.loads.iter().flatten().filter(|l| l.plt.is_some()).count();
        assert_eq!(completed, cfg.clients * cfg.loads, "every load completes");
    })
}

/// `sc_ops_incident`'s shape, small: a flash crowd, a rolling GFW
/// blacklist over three remotes (two dark at once for part of each
/// cycle), run under the dispatcher the benchmark installs — Debug
/// level, an in-memory JSONL sink, 10 s windows and the default SLOs.
/// Returns its cost per load and the trace it wrote, which the
/// analyzer's budget reads back as the benchmark reads it.
fn traced_incident(seed: u64) -> ((f64, f64), String) {
    let mut cfg = shape(seed, 6, 10);
    cfg.sc_remotes = 3;
    cfg.sc_max_tunnels = Some(4);
    cfg.sc_queue_len = Some(4);
    cfg.flash_clients = 12;
    cfg.flash_loads = 2;
    cfg.flash_start = SimDuration::from_secs(20);
    cfg.flash_ramp = SimDuration::from_secs(4);
    let loads = cfg.clients * cfg.loads + cfg.flash_clients * cfg.flash_loads;
    let mut trace = String::new();
    let mut failovers = 0;
    let cost = cost_per_load(loads, || {
        let buf = TraceBuf::default();
        let guard = Dispatcher::new()
            .with_level(Level::Debug)
            .with_sink(buf.sink())
            .with_windows(WindowSpec::seconds(10))
            .with_slos(sc_metrics::default_slos())
            .install();
        let mut built = build_scenario(&cfg);
        let gfw = built.gfw.clone().expect("paper config attaches the GFW");
        let remotes = built.sc_remote_addrs.clone();
        let gate = built.flash_gate.clone().expect("flash clients configured");
        let at = SimTime::from_secs;
        let mut plan = FaultPlan::new().at(
            SimTime::ZERO + cfg.flash_start,
            Fault::FlashCrowd {
                clients: cfg.flash_clients as u32,
                ramp: cfg.flash_ramp,
                trigger: Box::new(move |_t| gate.set(true)),
            },
        );
        for (cycle, t0) in [30, 75].into_iter().enumerate() {
            let (first, second) = (remotes[cycle % 3], remotes[(cycle + 1) % 3]);
            plan = plan
                .at(at(t0), sc_gfw::blacklist_ip(&gfw, first))
                .at(at(t0 + 10), sc_gfw::blacklist_ip(&gfw, second))
                .at(at(t0 + 25), sc_gfw::unblacklist_ip(&gfw, second))
                .at(at(t0 + 30), sc_gfw::unblacklist_ip(&gfw, first));
        }
        built.sim.install_fault_plan(plan);
        let outcome = built.finish();
        failovers = guard.uninstall().registry().counter("scholarcloud.failovers");
        trace = String::from_utf8(buf.take()).expect("UTF-8");
        assert!(failovers > 0, "the blacklist forced failovers");
        assert!(trace.lines().count() > loads, "the run was traced");
        assert_eq!(outcome.loads.iter().flatten().count(), loads, "every load ends");
    });
    // The counter the benchmark's failover check reads has a twin in the
    // trace, which is where everything else reads failovers from.
    let analysis = analyze(&parse_trace(&trace).expect("the trace parses"), 10_000_000);
    assert_eq!(failovers, analysis.failover_times.len() as u64, "counter and trace disagree");
    (cost, trace)
}

/// `(allocations, peak live bytes above the start)` of the analyzer's
/// pass over `text` as the benchmark runs it: `parse_trace`, then
/// `analyze` at 10 s windows.
fn analyzer_pass(text: &str) -> (u64, u64) {
    reset_alloc_peak();
    let before = alloc_stats();
    let analysis = analyze(&parse_trace(text).expect("the trace parses"), 10_000_000);
    let after = alloc_stats();
    assert!(analysis.events > 0);
    (after.allocations - before.allocations, after.peak_bytes - before.in_use_bytes)
}

/// `lines` records of a packet delivery inside a span: an event the
/// analyzer counts per component and keeps nothing else of.
fn unread_lines(lines: u64) -> String {
    let mut text = String::new();
    for t in 0..lines {
        write_line(&mut text, t, Level::Debug, "simnet", "packet", "deliver", SpanId(7), |f| {
            f.field("bytes", 1500u64).field("src", "10.0.0.1:443");
        });
        text.push('\n');
    }
    text
}

/// One test, so that nothing else allocates while a shape is counted.
#[test]
fn a_page_load_stays_inside_its_allocation_budget() {
    // `sc_tunnel_steady`'s shape: CONNECT, blinded tunnel, TLS to the
    // origin. What it allocates is TLS records, the relay hops' one copy
    // each way, and one small buffer per HTTP message.
    let tunnel = shape(2017, 4, 12);
    // `sc_gateway_fleet`'s shape: plain HTTP through three gateways whose
    // 12 KiB shards churn. Bodies are shared from the origin's rendered
    // page to the browser's cache; a body is assembled once per fetch.
    let mut fleet = shape(2117, 8, 12);
    fleet.sc_http_page = true;
    fleet.sc_fleet = 3;
    fleet.sc_cache_bytes = Some(12 * 1024);
    fleet.origin_max_age = Some(20);

    let (incident, trace) = traced_incident(2317);
    for (name, (allocs, bytes), max_allocs, max_bytes) in [
        ("tunnel", steady(&tunnel), TUNNEL_ALLOCS, TUNNEL_BYTES),
        ("gateway fleet", steady(&fleet), FLEET_ALLOCS, FLEET_BYTES),
        // What the write side of obs adds: a registry write is an indexed
        // add, a trace line is written into one reused buffer.
        ("traced incident", incident, INCIDENT_ALLOCS, INCIDENT_BYTES),
        // The baselines: a VPN packet is sealed into one buffer and opened
        // into one, a Tor cell is one buffer per hop, a Shadowsocks hop
        // makes one copy each way. Tor's bootstrap is shared by few loads
        // here, so its loads cost more than the benchmark's.
        ("native VPN", steady(&matrix(Method::NativeVpn, 2217)), NATIVE_VPN_ALLOCS, NATIVE_VPN_BYTES),
        ("OpenVPN", steady(&matrix(Method::OpenVpn, 2218)), OPENVPN_ALLOCS, OPENVPN_BYTES),
        ("Shadowsocks", steady(&matrix(Method::Shadowsocks, 2219)), SHADOWSOCKS_ALLOCS, SHADOWSOCKS_BYTES),
        ("Tor", steady(&matrix(Method::Tor, 2220)), TOR_ALLOCS, TOR_BYTES),
    ] {
        println!("{name}: {allocs:.1} allocations, {bytes:.0} B a load (budget {max_allocs}, {max_bytes})");
        assert!(allocs <= max_allocs, "{name}: {allocs:.1} allocations a load, budget {max_allocs}");
        assert!(bytes <= max_bytes, "{name}: {bytes:.0} B allocated a load, budget {max_bytes}");
        // A budget nobody is near holds no line.
        assert!(allocs >= 0.8 * max_allocs, "{name}: {allocs:.1} allocations a load: lower the budget to it");
    }

    // The read side: each line is parsed into one reused event and
    // folded in, so what a line costs is what the analysis keeps of it.
    let (allocs, _) = analyzer_pass(&trace);
    let per_line = allocs as f64 / trace.lines().count() as f64;
    println!("analyzer pass: {per_line:.3} allocations a line (budget {ANALYZER_ALLOCS_PER_LINE})");
    assert!(per_line <= ANALYZER_ALLOCS_PER_LINE, "analyzer: {per_line:.3} allocations a line");
    assert!(per_line >= 0.8 * ANALYZER_ALLOCS_PER_LINE, "analyzer: {per_line:.3} a line: lower the budget to it");
    // Memory follows the spans a trace leaves open, not its length.
    for lines in [10_000, 100_000] {
        let (_, peak) = analyzer_pass(&unread_lines(lines));
        println!("analyzer over {lines} unread lines: peak {peak} B (bound {ANALYZER_PEAK_BYTES})");
        assert!(peak <= ANALYZER_PEAK_BYTES, "analyzer over {lines} lines: peak {peak} B");
        assert!(peak as f64 >= 0.8 * ANALYZER_PEAK_BYTES as f64, "{peak} B: lower the bound to it");
    }
}

// Measured 96.4 / 49 845 B (tunnel), 101.9 / 42 988 B (gateway fleet)
// and 123.9 / 85 971 B (traced incident) in a debug build; before an
// HTTP head was one buffer indexing its lines inline, the manifest was
// read in place, a blinder was one allocation and the establish path
// wrote its preamble, stream header and early bytes into one buffer,
// they cost 131.9 / 54 249 B, 167.8 / 51 164 B and 167.7 / 90 973 B;
// before the whitelist check stopped copying the host and formatting each entry,
// and trace fields were written straight into the sink's line instead
// of a field vector of owned strings, they cost 135.7 / 54 313 B,
// 174.5 / 51 281 B and 235.4 / 92 888 B; before TLS
// records were opened in the buffer they arrive in, relay hops built
// their copy once, `BytesMut` froze without a second allocation and TCP
// chunk slots were lent instead of kept, they cost 199.3 / 65 618 B,
// 206.7 / 54 382 B and 311.2 / 105 432 B; before HTTP messages stopped
// allocating per header and copying per tier the first two cost
// 363.7 / 119 258 B and 433.2 / 138 177 B, and before obs wrote by slot
// and into one recycled field vector the third cost 352.3 / 113 346 B.
const TUNNEL_ALLOCS: f64 = 106.0;
const TUNNEL_BYTES: f64 = 55_000.0;
const FLEET_ALLOCS: f64 = 112.0;
const FLEET_BYTES: f64 = 47_500.0;
const INCIDENT_ALLOCS: f64 = 136.0;
const INCIDENT_BYTES: f64 = 95_000.0;

// The baselines measured 128.4 / 47 621 B (native VPN), 129.0 / 48 021 B
// (OpenVPN), 138.0 / 56 559 B (Shadowsocks) and 339.3 / 356 395 B (Tor)
// in a debug build, once a VPN packet was sealed into one buffer and
// opened into one, a Tor cell was its wire buffer from hop to hop, a
// Shadowsocks hop built its copy as a `BytesMut` and a send no longer
// adopted a `Vec`; before, they cost 247.3 / 67 834 B, 247.9 / 77 332 B,
// 183.5 / 57 564 B and 645.6 / 407 386 B.
const NATIVE_VPN_ALLOCS: f64 = 141.0;
const NATIVE_VPN_BYTES: f64 = 52_500.0;
const OPENVPN_ALLOCS: f64 = 142.0;
const OPENVPN_BYTES: f64 = 53_000.0;
const SHADOWSOCKS_ALLOCS: f64 = 152.0;
const SHADOWSOCKS_BYTES: f64 = 62_000.0;
const TOR_ALLOCS: f64 = 373.0;
const TOR_BYTES: f64 = 392_000.0;

// The analyzer's pass over the traced incident's trace measured 0.610
// allocations a line, and its peak over 10 000 and over 100 000 lines
// nothing reads 972 B each, once each line was folded into the trace
// as it was read; while `parse_trace` returned every event they were
// 1.550 a line, 4 599 670 B and 41 274 742 B.
const ANALYZER_ALLOCS_PER_LINE: f64 = 0.67;
const ANALYZER_PEAK_BYTES: u64 = 1_070;
