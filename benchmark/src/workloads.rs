//! The five workloads: what each one builds, runs and counts.
//!
//! Every workload is a list of *parts*; a part is one scenario built
//! with `sc_metrics::build_scenario` and run with `BuiltScenario::finish`
//! (four of the five workloads have one part, `transport_matrix` has
//! four). `obs_trace_replay` has no simulator part at all: its work is
//! the offline analyzer, see [`crate::replay`].
//!
//! All inputs derive from the `--seed` argument: each part's scenario
//! seed is `seed + a fixed per-part offset`, so the same `--seed` gives
//! bit-identical work and different seeds give different loss patterns.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::{Duration, Instant};

use sc_metrics::{build_scenario, BuiltScenario, Method, ScenarioConfig, ScenarioOutcome};
use sc_obs::{Dispatcher, JsonlSink, Level, ObsGuard, WindowSpec};
use sc_simnet::faults::{Fault, FaultPlan};
use sc_simnet::time::{SimDuration, SimTime};

use crate::spans;

/// The benchmark's workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ScholarCloud paper shape over the blinded CONNECT tunnel.
    ScTunnelSteady,
    /// Plain-HTTP gateway fleet with an undersized sharded cache.
    ScGatewayFleet,
    /// The four baseline transports back to back.
    TransportMatrix,
    /// ScholarCloud on the failure path with operator telemetry on.
    ScOpsIncident,
    /// The offline trace analyzer over two captured traces.
    ObsTraceReplay,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::ScTunnelSteady,
        Workload::ScGatewayFleet,
        Workload::TransportMatrix,
        Workload::ScOpsIncident,
        Workload::ObsTraceReplay,
    ];

    /// The name used on the command line and in every output row.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScTunnelSteady => "sc_tunnel_steady",
            Workload::ScGatewayFleet => "sc_gateway_fleet",
            Workload::TransportMatrix => "transport_matrix",
            Workload::ScOpsIncident => "sc_ops_incident",
            Workload::ObsTraceReplay => "obs_trace_replay",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workloads whose loads must all succeed at the default seed.
    pub fn is_steady(self) -> bool {
        matches!(
            self,
            Workload::ScTunnelSteady | Workload::ScGatewayFleet | Workload::TransportMatrix
        )
    }
}

/// One simulator part of a workload: a scenario shape plus the obs and
/// fault configuration it runs under.
#[derive(Debug, Clone)]
pub struct PartSpec {
    /// Short label (`sc`, `native_vpn`, …) used in per-method rows.
    pub label: &'static str,
    /// The scenario to build.
    pub cfg: ScenarioConfig,
    /// The incident: install the rolling-blacklist + flash-crowd fault
    /// plan and run under the operator dispatcher (Debug level,
    /// in-memory JSONL sink, 10 s windows, default SLOs).
    pub incident: bool,
}

/// Think time, load deadline and client stagger shared by the three
/// ScholarCloud shapes.
fn sc_base(seed: u64, clients: usize, loads: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
    cfg.clients = clients;
    cfg.loads = loads;
    cfg.interval = SimDuration::from_secs(10);
    cfg.timeout = SimDuration::from_secs(8);
    cfg.ramp_stagger = SimDuration::from_millis(250);
    cfg
}

/// The `sc_tunnel_steady` part: 16 clients × 15 loads.
fn tunnel_steady_part(seed: u64) -> PartSpec {
    PartSpec {
        label: "sc",
        cfg: sc_base(seed, 16, 15),
        incident: false,
    }
}

/// The `sc_gateway_fleet` part: 32 clients × 20 loads over a 3-member
/// fleet whose 12 KiB shards cannot hold the 17.9 KB page.
pub fn gateway_fleet_part(seed: u64) -> PartSpec {
    let mut cfg = sc_base(seed.wrapping_add(100), 32, 20);
    cfg.sc_http_page = true;
    cfg.sc_fleet = 3;
    cfg.sc_cache_bytes = Some(12 * 1024);
    cfg.origin_max_age = Some(20);
    PartSpec {
        label: "sc",
        cfg,
        incident: false,
    }
}

/// The `sc_ops_incident` part: 12 clients × 30 loads plus a 24-client
/// flash crowd of 3 loads each released at t = 40 s, three remotes,
/// undersized admission.
pub fn ops_incident_part(seed: u64) -> PartSpec {
    let mut cfg = sc_base(seed.wrapping_add(300), 12, 30);
    cfg.sc_remotes = 3;
    cfg.sc_max_tunnels = Some(8);
    cfg.sc_queue_len = Some(8);
    cfg.flash_clients = 24;
    cfg.flash_loads = 3;
    cfg.flash_start = SimDuration::from_secs(40);
    cfg.flash_ramp = SimDuration::from_secs(4);
    PartSpec {
        label: "sc",
        cfg,
        incident: true,
    }
}

/// The four `transport_matrix` methods with their row labels.
pub const MATRIX_METHODS: [(&str, Method); 4] = [
    ("native_vpn", Method::NativeVpn),
    ("openvpn", Method::OpenVpn),
    ("shadowsocks", Method::Shadowsocks),
    ("tor", Method::Tor),
];

/// One `transport_matrix` part: 8 clients × 10 loads over `method`.
fn matrix_part(label: &'static str, method: Method, seed: u64) -> PartSpec {
    let mut cfg = ScenarioConfig::paper(method, seed);
    cfg.clients = 8;
    cfg.loads = 10;
    cfg.interval = SimDuration::from_secs(20);
    cfg.timeout = SimDuration::from_secs(18);
    PartSpec {
        label,
        cfg,
        incident: false,
    }
}

/// Loads a scenario is configured to attempt.
pub fn expected_loads(cfg: &ScenarioConfig) -> u64 {
    (cfg.clients * cfg.loads + cfg.flash_clients * cfg.flash_loads) as u64
}

/// The simulator parts of `workload` for `seed`.
pub fn parts(workload: Workload, seed: u64) -> Vec<PartSpec> {
    match workload {
        Workload::ScTunnelSteady => vec![tunnel_steady_part(seed)],
        Workload::ScGatewayFleet => vec![gateway_fleet_part(seed)],
        Workload::TransportMatrix => MATRIX_METHODS
            .iter()
            .enumerate()
            .map(|(i, &(label, method))| {
                matrix_part(label, method, seed.wrapping_add(200 + i as u64))
            })
            .collect(),
        Workload::ScOpsIncident => vec![ops_incident_part(seed)],
        Workload::ObsTraceReplay => Vec::new(),
    }
}

/// Adds the incident's faults to `plan`: the flash-crowd release, and a
/// rolling GFW blacklist — every 90 s from t = 60 s remote `k` goes dark for 60 s
/// and remote `k+1` from +20 s to +50 s, so for 30 s of every cycle two
/// of the three remotes are dark at once.
fn incident_plan(mut plan: FaultPlan, built: &BuiltScenario, cfg: &ScenarioConfig) -> FaultPlan {
    let gfw = built.gfw.clone().expect("paper config attaches the GFW");
    let remotes = &built.sc_remote_addrs;
    if let Some(gate) = built.flash_gate.clone() {
        plan = plan.at(
            SimTime::ZERO + cfg.flash_start,
            Fault::FlashCrowd {
                clients: cfg.flash_clients as u32,
                ramp: cfg.flash_ramp,
                trigger: Box::new(move |_t| gate.set(true)),
            },
        );
    }
    let end = built.runtime().as_micros() / 1_000_000;
    let at = SimTime::from_secs;
    for (cycle, t0) in (60..end).step_by(90).enumerate() {
        let first = remotes[cycle % remotes.len()];
        let second = remotes[(cycle + 1) % remotes.len()];
        plan = plan
            .at(at(t0), sc_gfw::blacklist_ip(&gfw, first))
            .at(at(t0 + 20), sc_gfw::blacklist_ip(&gfw, second))
            .at(at(t0 + 50), sc_gfw::unblacklist_ip(&gfw, second))
            .at(at(t0 + 60), sc_gfw::unblacklist_ip(&gfw, first));
    }
    plan
}

/// Simulated seconds between two lap marks.
const LAP_SIM_S: u64 = 10;

/// Host instants at which a running scenario passed its lap marks.
type Laps = Rc<RefCell<Vec<Instant>>>;

/// A fault plan that does nothing to the scenario but note the host time
/// every [`LAP_SIM_S`] simulated seconds. It cuts the wall time of one
/// `finish` into laps of 5–30 ms, each the same work in every
/// repetition, so that a stall of the machine spoils a lap and not the
/// repetition (see `run::at_reference_speed`). The marks are part of
/// every run of a part, traced or not: they are simulator events too.
fn lap_plan(built: &BuiltScenario, laps: &Laps) -> FaultPlan {
    let end = built.runtime().as_micros() / 1_000_000;
    (LAP_SIM_S..end)
        .step_by(LAP_SIM_S as usize)
        .fold(FaultPlan::new(), |plan, t| {
            let laps = laps.clone();
            plan.at(
                SimTime::from_secs(t),
                Fault::Callback {
                    label: "bench_lap",
                    apply: Box::new(move |_t| laps.borrow_mut().push(Instant::now())),
                },
            )
        })
}

/// A `Write` handle onto a shared in-memory buffer (the JSONL sink owns
/// its writer, the harness keeps the other handle).
#[derive(Clone, Default)]
pub struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl SharedBuf {
    /// Takes the bytes written so far.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// How a part run is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// As the workload defines it: no dispatcher, or the operator
    /// dispatcher for `sc_ops_incident`.
    AsSpecified,
    /// A Debug-level dispatcher with an in-memory JSONL sink on every
    /// part (the capture rep: registry counts + a trace to analyze).
    Capture,
    /// No dispatcher even where the workload specifies one (the
    /// emission-overhead control).
    Dark,
}

/// `sc_cache::CacheStats` counters summed over every shard of the fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Requests served from a fresh entry.
    pub hits: u64,
    /// Requests that led a full upstream fetch.
    pub misses: u64,
    /// Requests attached to an in-flight fetch.
    pub coalesced: u64,
    /// Entries evicted under byte-budget pressure.
    pub evicted: u64,
    /// Stale entries refreshed by a 304.
    pub revalidated: u64,
    /// Bodies stored.
    pub insertions: u64,
    /// Misses forwarded to the owning fleet peer.
    pub peer_fetches: u64,
    /// Upstream fetches started by the cache path.
    pub upstream_fetches: u64,
}

impl CacheCounts {
    /// Every request the cache path decided on.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.coalesced + self.revalidated
    }
}

/// Telemetry read back from the dispatcher a part ran under.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// The JSONL trace text.
    pub trace: String,
    /// Final registry counters.
    pub registry: sc_obs::Registry,
    /// SLO alerts fired during the run.
    pub slo_fired: u64,
    /// SLOs still firing when the run ended.
    pub slo_firing_at_end: u64,
}

/// Everything one part run produced.
#[derive(Debug)]
pub struct PartRun {
    /// Row label.
    pub label: &'static str,
    /// Load deadline of the scenario (failed loads enter PLT samples
    /// at this value).
    pub timeout_us: u64,
    /// Wall time of `build_scenario` (plus fault-plan construction).
    pub build: Duration,
    /// Wall time of `finish`.
    pub run: Duration,
    /// Wall seconds of each lap of `finish`, in order; they add up to
    /// `run`.
    pub lap_s: Vec<f64>,
    /// What the scenario measured.
    pub outcome: ScenarioOutcome,
    /// Cache statistics summed over all shards (ScholarCloud only).
    pub cache: Option<CacheCounts>,
    /// Present when the part ran under a dispatcher.
    pub telemetry: Option<Telemetry>,
}

fn install_dispatcher(ops: bool) -> (ObsGuard, SharedBuf) {
    let buf = SharedBuf::default();
    let mut d = Dispatcher::new()
        .with_level(Level::Debug)
        .with_sink(Box::new(JsonlSink::new(Box::new(buf.clone()))));
    if ops {
        d = d
            .with_windows(WindowSpec::seconds(10))
            .with_slos(sc_metrics::default_slos());
    }
    (d.install(), buf)
}

/// Builds and runs one part. The two calls into the stack are wrapped
/// in harness spans (`metrics.build_scenario`, `simnet.run`).
pub fn run_part(spec: &PartSpec, observe: Observe) -> PartRun {
    let obs = match observe {
        Observe::AsSpecified => spec.incident.then(|| install_dispatcher(true)),
        Observe::Capture => Some(install_dispatcher(spec.incident)),
        Observe::Dark => None,
    };

    let span = spans::enter("metrics.build_scenario");
    let t0 = Instant::now();
    let mut built = build_scenario(&spec.cfg);
    let laps = Laps::default();
    let mut plan = lap_plan(&built, &laps);
    if spec.incident {
        plan = incident_plan(plan, &built, &spec.cfg);
    }
    built.sim.install_fault_plan(plan);
    let build = t0.elapsed();
    spans::exit(span);

    let shards = cache_shards(&built);
    let span = spans::enter("simnet.run");
    let t0 = Instant::now();
    let outcome = built.finish();
    let end = Instant::now();
    spans::exit(span);
    let marks = laps.take();
    let lap_s = std::iter::once(&t0)
        .chain(&marks)
        .zip(marks.iter().chain([&end]))
        .map(|(from, to)| to.duration_since(*from).as_secs_f64())
        .collect();
    let run = end.duration_since(t0);

    let telemetry = obs.map(|(guard, buf)| {
        let d = guard.uninstall();
        let statuses = d.slo_engine().statuses();
        Telemetry {
            slo_fired: d.slo_engine().total_fired(),
            slo_firing_at_end: statuses.iter().filter(|s| s.firing).count() as u64,
            registry: d.registry().clone(),
            trace: String::from_utf8(buf.take()).expect("JSONL traces are UTF-8"),
        }
    });
    PartRun {
        label: spec.label,
        timeout_us: spec.cfg.timeout.as_micros(),
        build,
        run,
        lap_s,
        outcome,
        cache: cache_counts(&shards),
        telemetry,
    }
}

/// The cache shard handles of a built scenario (one per fleet member,
/// or the single proxy's), cloned out before `finish` consumes it.
fn cache_shards(built: &BuiltScenario) -> Vec<sc_core::CacheHandle> {
    if built.sc_fleet_caches.is_empty() {
        built.sc_cache.iter().cloned().collect()
    } else {
        built.sc_fleet_caches.clone()
    }
}

fn cache_counts(shards: &[sc_core::CacheHandle]) -> Option<CacheCounts> {
    if shards.is_empty() {
        return None;
    }
    let mut total = CacheCounts::default();
    for shard in shards {
        let s = &shard.borrow().stats;
        total.hits += s.hits;
        total.misses += s.misses;
        total.coalesced += s.coalesced;
        total.evicted += s.evicted;
        total.revalidated += s.revalidated;
        total.insertions += s.insertions;
        total.peer_fetches += s.peer_fetches;
        total.upstream_fetches += s.upstream_fetches.len() as u64;
    }
    Some(total)
}
