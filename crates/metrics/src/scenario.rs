//! The scenario builder: wires the paper's measurement testbed — client(s)
//! in CERNET, the GFW at the border, the VM servers in the US, Google
//! Scholar — for any access method, runs it, and collects the metrics.
//!
//! All latency/loss/bandwidth constants live in [`calibration`], each
//! annotated with the paper-derived target it reproduces.

use sc_crypto::blinding::BlindingScheme;
use sc_dns::{AuthoritativeServer, RecursiveResolver, Zone};
use sc_gfw::{ActiveProber, GfwConfig, GfwCounters, GfwHandle, GfwMiddlebox, new_gfw};
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::link::LinkConfig;
use sc_simnet::sim::Sim;
use sc_simnet::time::{SimDuration, SimTime};
use sc_tunnels::names::NameMap;
use sc_tunnels::shadowsocks::{SS_LOCAL_PORT, SsConfig, SsLocal, SsRemote};
use sc_tunnels::status::TunnelStatus;
use sc_tunnels::tor::{
    DIR_PORT, DirectoryServer, MEEK_PORT, MeekGateway, OR_PORT, OrRelay, TOR_SOCKS_PORT, TorClient,
    TorConfig,
};
use sc_tunnels::vpn::{VpnClient, VpnServer, VpnVariant};
use sc_web::{
    Browser, BrowserConfig, LoadLog, OriginServer, PageSpec, ProxyPolicy, ReadyProbe, new_load_log,
};

/// The access methods compared in the paper's Figures 5–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// No circumvention (blocked; baseline for overhead only).
    Direct,
    /// Native VPN (PPTP).
    NativeVpn,
    /// OpenVPN.
    OpenVpn,
    /// Tor with the meek transport.
    Tor,
    /// Shadowsocks.
    Shadowsocks,
    /// ScholarCloud.
    ScholarCloud,
}

impl Method {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Method::Direct => "Direct",
            Method::NativeVpn => "Native VPN",
            Method::OpenVpn => "OpenVPN",
            Method::Tor => "Tor",
            Method::Shadowsocks => "Shadowsocks",
            Method::ScholarCloud => "ScholarCloud",
        }
    }

    /// The five methods of Figure 5 (Direct excluded — it is blocked).
    pub fn all_measured() -> [Method; 5] {
        [
            Method::NativeVpn,
            Method::OpenVpn,
            Method::Tor,
            Method::Shadowsocks,
            Method::ScholarCloud,
        ]
    }
}

/// Calibration constants with their paper-derived targets.
pub mod calibration {
    use super::*;

    /// Campus LAN hop (client↔CERNET).
    pub const LAN_DELAY: SimDuration = SimDuration::from_millis(2);
    /// CERNET↔border.
    pub const CERNET_DELAY: SimDuration = SimDuration::from_millis(5);
    /// Border↔US (trans-Pacific): sets the ~200 ms Beijing↔San-Mateo RTT
    /// band of Figure 5b.
    pub const PACIFIC_DELAY: SimDuration = SimDuration::from_millis(90);
    /// Base loss on the border link: with GFW interference disabled this
    /// yields the ~0.2% PLR the paper measures for VPNs and non-blocked
    /// US sites (Figure 5c's floor).
    pub const BORDER_LOSS: f64 = 0.0006;
    /// Size of the consensus the Tor directory serves: the bootstrap
    /// transfer behind Tor's slow first load (Figure 5a, first ≫
    /// subsequent).
    pub const TOR_CONSENSUS_LEN: usize = 400 * 1024;
    /// Per-method server access bandwidth, modelling single-core crypto
    /// throughput of the 1-core VM (Figure 7): Shadowsocks saturates
    /// first (knee past 60 clients), native VPN next, OpenVPN and
    /// ScholarCloud degrade most gently.
    pub fn server_bandwidth_bps(method: Method) -> u64 {
        match method {
            Method::Shadowsocks => 2_500_000,
            Method::NativeVpn => 6_000_000,
            Method::OpenVpn => 20_000_000,
            Method::ScholarCloud => 20_000_000,
            Method::Tor | Method::Direct => 100_000_000,
        }
    }
}

/// Addresses used by the standard topology.
pub mod addrs {
    use super::Addr;

    /// First client (more clients increment the last octet).
    pub const CLIENT_BASE: Addr = Addr::new(10, 0, 1, 1);
    /// CERNET campus router.
    pub const CERNET: Addr = Addr::new(10, 0, 0, 254);
    /// Domestic ISP resolver (queries cross the GFW).
    pub const RESOLVER_CN: Addr = Addr::new(10, 0, 0, 53);
    /// ScholarCloud domestic proxy VM.
    pub const SC_DOMESTIC: Addr = Addr::new(10, 1, 0, 1);
    /// Border router hosting the GFW.
    pub const BORDER: Addr = Addr::new(172, 16, 0, 1);
    /// US-side router.
    pub const US: Addr = Addr::new(99, 0, 0, 254);
    /// Foreign recursive resolver (used by VPN clients).
    pub const RESOLVER_US: Addr = Addr::new(99, 0, 0, 52);
    /// Authoritative DNS.
    pub const AUTH_DNS: Addr = Addr::new(99, 0, 0, 53);
    /// VPN server VM.
    pub const VPN: Addr = Addr::new(99, 0, 0, 10);
    /// Shadowsocks remote VM.
    pub const SS: Addr = Addr::new(99, 0, 0, 11);
    /// Tor bridge (meek front).
    pub const BRIDGE: Addr = Addr::new(99, 0, 0, 20);
    /// Tor middle relay.
    pub const MIDDLE: Addr = Addr::new(99, 0, 0, 21);
    /// Tor exit relay.
    pub const EXIT: Addr = Addr::new(99, 0, 0, 22);
    /// Tor directory.
    pub const DIRECTORY: Addr = Addr::new(99, 0, 0, 30);
    /// ScholarCloud remote proxy VM.
    pub const SC_REMOTE: Addr = Addr::new(99, 0, 0, 40);
    /// First elastic serverless remote instance (the fresh-IP pool
    /// occupies consecutive addresses in 99.0.1.0/24).
    pub const SC_ELASTIC_BASE: Addr = Addr::new(99, 0, 1, 1);
    /// Google Scholar origin (inside the blacklisted prefix).
    pub const SCHOLAR: Addr = Addr::new(99, 2, 0, 1);
    /// accounts.google.com origin (same prefix).
    pub const ACCOUNTS: Addr = Addr::new(99, 2, 0, 2);
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Access method under test.
    pub method: Method,
    /// RNG seed.
    pub seed: u64,
    /// Page loads per client.
    pub loads: usize,
    /// Gap between loads (the paper used 60 s).
    pub interval: SimDuration,
    /// Concurrent clients (Figure 7 sweeps this).
    pub clients: usize,
    /// Whether the GFW middlebox is attached (ablations disable it).
    pub gfw: bool,
    /// Shadowsocks keep-alive window (ablation sweeps it).
    pub ss_keepalive: SimDuration,
    /// Whether Shadowsocks authenticates per data connection (Figure 4
    /// shows TCP-1 in every HTTP session; the keep-alive ablation turns
    /// this off to isolate the timeout effect).
    pub ss_auth_per_connection: bool,
    /// ScholarCloud blinding scheme (Identity = blinding off ablation).
    pub sc_scheme: BlindingScheme,
    /// Per-load timeout.
    pub timeout: SimDuration,
    /// Extra signatures pushed to the GFW (agility ablation).
    pub gfw_learned_signatures: Vec<Vec<u8>>,
    /// Stagger between consecutive clients' start times (load-ramp
    /// scenarios: client `i` comes online at `i × ramp_stagger`).
    /// `ZERO` starts everyone together, the paper's shape.
    pub ramp_stagger: SimDuration,
    /// Overrides the method's calibrated server access bandwidth
    /// (bits/s) — the operator "capacity incident" knob used by the
    /// ops dashboard demo to drive the server into saturation.
    pub server_bandwidth_override: Option<u64>,
    /// Number of ScholarCloud remote proxy VMs (≥ 1). Extra remotes sit
    /// at consecutive addresses after [`addrs::SC_REMOTE`] and feed the
    /// domestic proxy's failover pool — the chaos scenarios blacklist
    /// them one by one.
    pub sc_remotes: usize,
    /// Overrides the domestic proxy's concurrent-tunnel cap (overload
    /// scenarios undersize this to force shedding).
    pub sc_max_tunnels: Option<usize>,
    /// Overrides the domestic proxy's pending-queue length.
    pub sc_queue_len: Option<usize>,
    /// Extra flash-crowd clients (ScholarCloud only). They sit at
    /// consecutive addresses after the nominal clients and stay idle
    /// behind a shared gate until a
    /// [`Fault::FlashCrowd`](sc_simnet::faults::Fault) opens it; their
    /// arrivals are spread over [`flash_ramp`](Self::flash_ramp)
    /// starting at [`flash_start`](Self::flash_start). Their load logs
    /// are appended after the nominal clients' in
    /// [`ScenarioOutcome::loads`].
    pub flash_clients: usize,
    /// Page loads per flash-crowd client.
    pub flash_loads: usize,
    /// When (from t=0) the flash crowd begins arriving. Schedule the
    /// `Fault::FlashCrowd` trigger at this time; the gate doubles as a
    /// safety — with no fault installed the crowd never starts.
    pub flash_start: SimDuration,
    /// Window over which flash arrivals are spread (uniform ramp).
    pub flash_ramp: SimDuration,
    /// Extra simulated time appended to the runtime budget (overload
    /// scenarios need post-spike recovery room).
    pub extra_runtime: SimDuration,
    /// Byte budget for the domestic proxy's shared content cache
    /// (ScholarCloud only; plain-HTTP gateway traffic). `Some(0)` keeps
    /// the gateway path but disables the cache — the cache-off control.
    /// `None` leaves the proxy's default cache configuration in place.
    pub sc_cache_bytes: Option<usize>,
    /// Serves the scholar page over plain HTTP (port 80) so browsers use
    /// the proxy's absolute-form gateway path instead of CONNECT — the
    /// only mode in which the proxy sees HTTP semantics and the shared
    /// cache can act. The paper's HTTPS shape (`false`) is unaffected.
    pub sc_http_page: bool,
    /// Overrides the origins' `Cache-Control: max-age` (seconds). Small
    /// values force revalidation between load rounds.
    pub origin_max_age: Option<u64>,
    /// Number of domestic-proxy fleet members (≥ 1, ScholarCloud only).
    /// With more than one, members sit at consecutive addresses from
    /// [`addrs::SC_DOMESTIC`], browsers get per-client *rotated* PAC
    /// fallback lists (`PROXY a; PROXY b; …`) so nominal load spreads
    /// across the fleet, and the shared content cache shards across
    /// members by rendezvous hashing with one intra-fleet peering hop
    /// on non-owner misses. `1` is the paper's single-VM shape and
    /// leaves every code path byte-identical to the pre-fleet build.
    pub sc_fleet: usize,
    /// Size of the elastic serverless remote tier's fresh-IP address
    /// pool (ScholarCloud only; `0` = elastic off, the static
    /// [`sc_remotes`](Self::sc_remotes) pool serves as in the paper).
    /// When > 0 the domestic proxy's remote pool is seeded with
    /// [`sc_elastic`](Self::sc_elastic)`.min_instances` pre-warmed
    /// instances from [`addrs::SC_ELASTIC_BASE`] and autoscales over the
    /// rest: scale-out on admission pressure (with sampled cold starts),
    /// scale-in on idle, churn-and-replace on GFW blacklisting.
    /// Requires `sc_fleet == 1`.
    pub sc_elastic_pool: usize,
    /// The elastic tier's own tunables (autoscaler bounds, idle window,
    /// cold-start band, cost meters), read only when
    /// [`sc_elastic_pool`](Self::sc_elastic_pool) > 0. The bounds are
    /// clamped to `1 ≤ min ≤ max` when the pool is built.
    pub sc_elastic: sc_core::ElasticConfig,
    /// The reactive censor. `None` — the default — keeps the GFW the
    /// static rule set every pre-adaptive trace was pinned against: no
    /// suspicion scoring, no fingerprint learning, no probing campaigns,
    /// no regional drift, zero extra RNG draws. `Some` hands the GFW
    /// these tunables (`learn_after_flows` and `regions` clamped to ≥ 1)
    /// and makes it reset, not merely throttle, what it learns.
    pub sc_adaptive: Option<sc_gfw::AdaptiveConfig>,
    /// The defense: detection-driven scheme rotation in the domestic
    /// proxy (`threshold` clamped to ≥ 1), with mid-stream tunnel resume
    /// so rotation preserves in-flight streams. `None` keeps the scheme
    /// fixed for the whole run (the control arm; also the pre-adaptive
    /// behavior).
    pub sc_rotation: Option<sc_core::RotationPolicy>,
}

impl ScenarioConfig {
    /// The paper's single-client measurement shape for `method`.
    pub fn paper(method: Method, seed: u64) -> Self {
        ScenarioConfig {
            method,
            seed,
            loads: 10,
            interval: SimDuration::from_secs(60),
            clients: 1,
            gfw: true,
            ss_keepalive: SimDuration::from_secs(10),
            ss_auth_per_connection: true,
            sc_scheme: BlindingScheme::ByteMap,
            timeout: SimDuration::from_secs(55),
            gfw_learned_signatures: Vec::new(),
            ramp_stagger: SimDuration::ZERO,
            server_bandwidth_override: None,
            sc_remotes: 1,
            sc_max_tunnels: None,
            sc_queue_len: None,
            flash_clients: 0,
            flash_loads: 1,
            flash_start: SimDuration::ZERO,
            flash_ramp: SimDuration::ZERO,
            extra_runtime: SimDuration::ZERO,
            sc_cache_bytes: None,
            sc_http_page: false,
            origin_max_age: None,
            sc_fleet: 1,
            sc_elastic_pool: 0,
            sc_elastic: sc_core::ElasticConfig::default(),
            sc_adaptive: None,
            sc_rotation: None,
        }
    }

    /// The addresses the ScholarCloud remote VMs occupy under this
    /// config (`sc_remotes` consecutive addresses from
    /// [`addrs::SC_REMOTE`]).
    pub fn sc_remote_addrs(&self) -> Vec<Addr> {
        let base = addrs::SC_REMOTE.as_u32();
        (0..self.sc_remotes.max(1))
            .map(|i| Addr::from_u32(base + i as u32))
            .collect()
    }

    /// The addresses the domestic-proxy fleet members occupy under this
    /// config (`sc_fleet` consecutive addresses from
    /// [`addrs::SC_DOMESTIC`]).
    pub fn sc_domestic_addrs(&self) -> Vec<Addr> {
        let base = addrs::SC_DOMESTIC.as_u32();
        (0..self.sc_fleet.max(1))
            .map(|i| Addr::from_u32(base + i as u32))
            .collect()
    }

    /// The fresh-IP pool the elastic tier draws from under this config
    /// (`sc_elastic_pool` consecutive addresses from
    /// [`addrs::SC_ELASTIC_BASE`]; empty when elastic is off).
    pub fn sc_elastic_addrs(&self) -> Vec<Addr> {
        let base = addrs::SC_ELASTIC_BASE.as_u32();
        (0..self.sc_elastic_pool)
            .map(|i| Addr::from_u32(base + i as u32))
            .collect()
    }
}

/// The SLOs an operator of the paper's deployment would watch, in the
/// workspace's time-series vocabulary (see `sc_obs::slo`):
///
/// * **plt-p95** — 95th-percentile page-load time under 6 s (the paper's
///   Figure 5a puts well-behaved subsequent loads around 3–4 s; 6 s is
///   the "users start complaining" line);
/// * **availability** — at least 99% of finished loads succeed.
pub fn default_slos() -> Vec<sc_obs::SloSpec> {
    vec![
        sc_obs::SloSpec::quantile("plt-p95", "web.plt_us", 0.95, 6_000_000),
        sc_obs::SloSpec::availability("availability", "web.loads_ok", "web.loads_failed", 0.99),
    ]
}

/// Everything a scenario run produces.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Per-client page-load results.
    pub loads: Vec<Vec<sc_web::PageLoadResult>>,
    /// Mean end-to-end packet loss rate across clients.
    pub plr: f64,
    /// GFW activity counters.
    pub gfw: GfwCounters,
    /// Wire bytes originated by the first client.
    pub client_sent_bytes: u64,
    /// Wire bytes delivered to the first client.
    pub client_recv_bytes: u64,
    /// Censor drops broken out by GFW rule label, sorted by label.
    pub censor_by_rule: Vec<(&'static str, u64)>,
    /// Simulated duration.
    pub sim_end: SimTime,
    /// Events the simulator's loop dispatched.
    pub events_processed: u64,
    /// Timer events (TCP + app) fired during the run.
    pub timers_fired: u64,
    /// High-water mark of the event-queue depth.
    pub queue_depth_hwm: u64,
}

impl ScenarioOutcome {
    /// All successful PLTs (seconds), split (first_time, subsequent).
    pub fn plts(&self) -> (Vec<f64>, Vec<f64>) {
        let mut first = Vec::new();
        let mut subs = Vec::new();
        for client in &self.loads {
            for r in client {
                if let Some(plt) = r.plt {
                    if r.failed {
                        continue;
                    }
                    if r.first_time {
                        first.push(plt.as_secs_f64());
                    } else {
                        subs.push(plt.as_secs_f64());
                    }
                }
            }
        }
        (first, subs)
    }

    /// All RTT samples in milliseconds.
    pub fn rtts_ms(&self) -> Vec<f64> {
        self.loads
            .iter()
            .flatten()
            .filter_map(|r| r.rtt.map(|d| d.as_micros() as f64 / 1000.0))
            .collect()
    }

    /// Fraction of loads that failed.
    pub fn failure_rate(&self) -> f64 {
        let total: usize = self.loads.iter().map(Vec::len).sum();
        if total == 0 {
            return 1.0;
        }
        let failed: usize = self
            .loads
            .iter()
            .flatten()
            .filter(|r| r.failed)
            .count();
        failed as f64 / total as f64
    }
}

/// A fully wired scenario that has not run yet: the seam for fault
/// injection. Install a [`FaultPlan`](sc_simnet::faults::FaultPlan) on
/// [`sim`](Self::sim) (or mutate [`gfw`](Self::gfw) via
/// `sc_gfw::blacklist_ip` faults), then call
/// [`finish`](Self::finish) to run to completion and collect metrics.
pub struct BuiltScenario {
    /// The simulator, with every node, link, and app installed but no
    /// event processed yet.
    pub sim: Sim,
    /// Live handle to the GFW state when the middlebox is attached.
    pub gfw: Option<GfwHandle>,
    /// ScholarCloud remote VM addresses, in pool order.
    pub sc_remote_addrs: Vec<Addr>,
    /// The gate holding back the flash crowd (present when
    /// [`ScenarioConfig::flash_clients`] > 0). Open it from a
    /// [`Fault::FlashCrowd`](sc_simnet::faults::Fault) trigger at
    /// [`ScenarioConfig::flash_start`] to release the crowd.
    pub flash_gate: Option<std::rc::Rc<std::cell::Cell<bool>>>,
    /// Live handle to the domestic proxy's shared content cache
    /// (ScholarCloud only). Read [`stats`](sc_core::CacheHandle::stats)
    /// after [`finish`](Self::finish) for hit/miss/coalescing counts.
    /// Under a fleet this is member 0's shard.
    pub sc_cache: Option<sc_core::CacheHandle>,
    /// Domestic-proxy node ids in fleet-member order (always at least
    /// the single `sc-domestic` node). Crash scenarios pass these to
    /// [`Fault::NodeCrash`](sc_simnet::faults::Fault).
    pub sc_domestic_nodes: Vec<sc_simnet::link::NodeId>,
    /// Shared fleet roster when a fleet is deployed
    /// ([`ScenarioConfig::sc_fleet`] > 1).
    pub sc_fleet: Option<sc_core::FleetHandle>,
    /// Per-member cache shard handles when a fleet is deployed, in
    /// member order (empty otherwise — use
    /// [`sc_cache`](Self::sc_cache)).
    pub sc_fleet_caches: Vec<sc_core::CacheHandle>,
    /// Live handle to the elastic remote tier when
    /// [`ScenarioConfig::sc_elastic_pool`] > 0. Blacklisting campaigns
    /// read [`warm_addrs`](sc_core::ElasticHandle::warm_addrs) from a
    /// `Fault::Callback` to target whatever is serving at that moment;
    /// read the cost meters after [`finish`](Self::finish).
    pub sc_elastic: Option<sc_core::ElasticHandle>,
    cfg: ScenarioConfig,
    clients: Vec<sc_simnet::link::NodeId>,
    logs: Vec<LoadLog>,
    span: sc_obs::SpanId,
    runtime: SimDuration,
}

impl BuiltScenario {
    /// The simulated duration [`finish`](Self::finish) will run for.
    pub fn runtime(&self) -> SimDuration {
        self.runtime
    }
}

/// Builds and runs a scenario to completion, returning the metrics.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioOutcome {
    build_scenario(cfg).finish()
}

/// The PAC policy client `client_idx` is provisioned with under a
/// fleet: the full gateway list rotated by client index, so nominal
/// load spreads across members while every client keeps the whole
/// fleet as ordered fallbacks. The policy is round-tripped through
/// [`PacFile::parse`] on its own [`to_javascript`](PacFile::to_javascript)
/// rendering — clients receive PAC files as JavaScript, so the wire
/// format is what gets exercised, not just the in-memory struct.
fn fleet_pac(
    whitelist: &[String],
    gateways: &[sc_simnet::addr::SocketAddr],
    client_idx: usize,
) -> sc_netproto::pac::PacFile {
    let n = gateways.len();
    let rotated: Vec<_> = (0..n).map(|j| gateways[(client_idx + j) % n]).collect();
    let pac = sc_netproto::pac::PacFile::with_fallbacks(whitelist.iter().cloned(), rotated);
    sc_netproto::pac::PacFile::parse(&pac.to_javascript()).expect("generated PAC parses")
}

/// The browser every client runs: the paper's page fetched through
/// `policy`, paced by the scenario's load count, interval and timeout.
/// `idx` seeds the client's entropy and sets its slot on the start ramp.
fn browser_config(
    cfg: &ScenarioConfig,
    resolver: Addr,
    policy: ProxyPolicy,
    idx: usize,
) -> BrowserConfig {
    let mut bcfg = BrowserConfig::scholar(resolver, policy);
    bcfg.loads = cfg.loads;
    bcfg.interval = cfg.interval;
    bcfg.timeout = cfg.timeout;
    bcfg.entropy = cfg.seed ^ (idx as u64);
    bcfg.start_delay = cfg.ramp_stagger.saturating_mul(idx as u64);
    bcfg
}

/// Builds a scenario without running it (see [`BuiltScenario`]).
pub fn build_scenario(cfg: &ScenarioConfig) -> BuiltScenario {
    use addrs::*;
    use calibration::*;

    let mut sim = Sim::new(cfg.seed);
    let span = sc_obs::span_start(
        0,
        sc_obs::Level::Info,
        "metrics",
        "scenario",
        "run",
        |f| {
            f.field("method", cfg.method.name())
                .field("seed", cfg.seed)
                .field("clients", cfg.clients)
                .field("loads", cfg.loads);
        },
    );

    // --- nodes ---
    let clients: Vec<_> = (0..cfg.clients)
        .map(|i| {
            let base = CLIENT_BASE.as_u32();
            sim.add_node(format!("client-{i}"), Addr::from_u32(base + i as u32))
        })
        .collect();
    // Flash-crowd clients at consecutive addresses after the nominal
    // ones; their browsers are only installed for ScholarCloud.
    let flash_clients: Vec<_> = (0..cfg.flash_clients)
        .map(|i| {
            let base = CLIENT_BASE.as_u32() + cfg.clients as u32;
            sim.add_node(format!("flash-{i}"), Addr::from_u32(base + i as u32))
        })
        .collect();
    let cernet = sim.add_node("cernet", CERNET);
    let resolver_cn = sim.add_node("resolver-cn", RESOLVER_CN);
    let sc_domestic = sim.add_node("sc-domestic", SC_DOMESTIC);
    // Extra fleet members at consecutive addresses; with `sc_fleet: 1`
    // no extra node exists and the topology is byte-identical to the
    // pre-fleet build.
    let sc_domestic_nodes: Vec<_> = std::iter::once(sc_domestic)
        .chain((1..cfg.sc_fleet.max(1)).map(|i| {
            sim.add_node(
                format!("sc-domestic-{i}"),
                Addr::from_u32(SC_DOMESTIC.as_u32() + i as u32),
            )
        }))
        .collect();
    let border = sim.add_node("border", BORDER);
    let us = sim.add_node("us", US);
    let resolver_us = sim.add_node("resolver-us", RESOLVER_US);
    let auth_dns = sim.add_node("auth-dns", AUTH_DNS);
    let vpn = sim.add_node("vpn", VPN);
    let ss = sim.add_node("ss", SS);
    let bridge = sim.add_node("bridge", BRIDGE);
    let middle = sim.add_node("middle", MIDDLE);
    let exit = sim.add_node("exit", EXIT);
    let directory = sim.add_node("directory", DIRECTORY);
    let sc_remote_addrs = cfg.sc_remote_addrs();
    let sc_remotes: Vec<_> = sc_remote_addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let name =
                if i == 0 { "sc-remote".to_string() } else { format!("sc-remote-{i}") };
            sim.add_node(name, a)
        })
        .collect();
    // Elastic serverless instances (only when the knob is on, so every
    // existing scenario's topology — and trace — is untouched).
    let sc_elastic_addrs = if cfg.method == Method::ScholarCloud {
        cfg.sc_elastic_addrs()
    } else {
        Vec::new()
    };
    let sc_elastic_nodes: Vec<_> = sc_elastic_addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| sim.add_node(format!("sc-elastic-{i}"), a))
        .collect();
    let scholar = sim.add_node("scholar", SCHOLAR);
    let accounts = sim.add_node("accounts", ACCOUNTS);

    // --- links ---
    let lan = LinkConfig::with_delay(LAN_DELAY);
    for &c in &clients {
        sim.add_link(c, cernet, lan);
    }
    for &c in &flash_clients {
        sim.add_link(c, cernet, lan);
    }
    sim.add_link(resolver_cn, cernet, lan);
    for &n in &sc_domestic_nodes {
        sim.add_link(n, cernet, lan);
    }
    sim.add_link(cernet, border, LinkConfig::with_delay(CERNET_DELAY));
    sim.add_link(
        border,
        us,
        LinkConfig::with_delay(PACIFIC_DELAY).loss(BORDER_LOSS),
    );
    sim.add_link(us, resolver_us, lan);
    sim.add_link(us, auth_dns, lan);
    // Per-method server access links model single-core VM throughput.
    // The override (when set) replaces the calibrated figure for the
    // method under test only — other methods' servers are idle anyway.
    let server_bw = |m: Method| {
        if cfg.method == m {
            cfg.server_bandwidth_override.unwrap_or_else(|| server_bandwidth_bps(m))
        } else {
            server_bandwidth_bps(m)
        }
    };
    sim.add_link(
        us,
        vpn,
        lan.bandwidth_bps(server_bw(Method::NativeVpn).max(server_bw(Method::OpenVpn))),
    );
    sim.add_link(us, ss, lan.bandwidth_bps(server_bw(Method::Shadowsocks)));
    sim.add_link(us, bridge, lan);
    sim.add_link(us, middle, lan);
    sim.add_link(us, exit, lan);
    sim.add_link(us, directory, lan);
    for &n in sc_remotes.iter().chain(&sc_elastic_nodes) {
        sim.add_link(us, n, lan.bandwidth_bps(server_bw(Method::ScholarCloud)));
    }
    sim.add_link(us, scholar, lan);
    sim.add_link(us, accounts, lan);
    sim.compute_routes();

    // --- GFW ---
    let gfw: Option<GfwHandle> = if cfg.gfw {
        let mut gfw_cfg = GfwConfig::china_2017((Addr::new(99, 2, 0, 0), 16));
        gfw_cfg
            .learned_signatures
            .extend(cfg.gfw_learned_signatures.iter().cloned());
        if let Some(adaptive) = &cfg.sc_adaptive {
            gfw_cfg.adaptive = Some(sc_gfw::AdaptiveConfig {
                learn_after_flows: adaptive.learn_after_flows.max(1),
                regions: adaptive.regions.max(1),
                ..adaptive.clone()
            });
            // A reactive censor resets what it learns instead of merely
            // throttling it — learned-signature tunnels die, breakers
            // open, and the defense's rotation policy has something real
            // to detect.
            gfw_cfg.policies.learned_signature = sc_gfw::Policy::RESET;
        }
        let handle = new_gfw(gfw_cfg);
        sim.set_middlebox(border, Box::new(GfwMiddlebox::new(handle.clone())));
        sim.install_app(border, Box::new(ActiveProber::new(handle.clone())));
        Some(handle)
    } else {
        None
    };

    // --- DNS ---
    let mut zone = Zone::new();
    zone.insert("scholar.google.com", SCHOLAR, 300);
    zone.insert("accounts.google.com", ACCOUNTS, 300);
    sim.install_app(auth_dns, Box::new(AuthoritativeServer::new(zone)));
    sim.install_app(resolver_cn, Box::new(RecursiveResolver::new(AUTH_DNS)));
    sim.install_app(resolver_us, Box::new(RecursiveResolver::new(AUTH_DNS)));

    // --- origins ---
    let mut scholar_origin =
        OriginServer::new("scholar.google.com", PageSpec::google_scholar(), 1001);
    if cfg.sc_http_page {
        scholar_origin = scholar_origin.with_http_serving();
    }
    if let Some(secs) = cfg.origin_max_age {
        scholar_origin = scholar_origin.with_max_age(secs);
    }
    sim.install_app(scholar, Box::new(scholar_origin));
    let mut accounts_origin = OriginServer::new(
        "accounts.google.com",
        PageSpec::endpoints("accounts.google.com", &[("/recordlogin", 400)]),
        1002,
    );
    if let Some(secs) = cfg.origin_max_age {
        accounts_origin = accounts_origin.with_max_age(secs);
    }
    sim.install_app(accounts, Box::new(accounts_origin));

    let names = NameMap::new([
        ("scholar.google.com", SCHOLAR),
        ("accounts.google.com", ACCOUNTS),
    ]);

    // --- per-method infrastructure + browser policy ---
    let mut logs: Vec<LoadLog> = Vec::with_capacity(cfg.clients + cfg.flash_clients);
    let mut flash_gate: Option<std::rc::Rc<std::cell::Cell<bool>>> = None;
    let mut sc_cache: Option<sc_core::CacheHandle> = None;
    let mut sc_fleet: Option<sc_core::FleetHandle> = None;
    let mut sc_fleet_caches: Vec<sc_core::CacheHandle> = Vec::new();
    let mut sc_elastic: Option<sc_core::ElasticHandle> = None;
    match cfg.method {
        Method::Direct => {
            for (i, &c) in clients.iter().enumerate() {
                let log = new_load_log();
                let bcfg = browser_config(cfg, RESOLVER_CN, ProxyPolicy::Direct, i);
                sim.install_app(c, Box::new(Browser::new(bcfg, None, log.clone())));
                logs.push(log);
            }
        }
        Method::NativeVpn | Method::OpenVpn => {
            let variant = if cfg.method == Method::NativeVpn {
                VpnVariant::Pptp
            } else {
                VpnVariant::OpenVpn
            };
            sim.install_app(vpn, Box::new(VpnServer::new(variant, 2000)));
            for (i, &c) in clients.iter().enumerate() {
                let status = TunnelStatus::new();
                sim.install_app(
                    c,
                    Box::new(VpnClient::new(variant, VPN, 3000 + i as u64, status.clone())),
                );
                let log = new_load_log();
                let bcfg = browser_config(cfg, RESOLVER_US, ProxyPolicy::Direct, i);
                let gate = {
                    let status = status.clone();
                    ReadyProbe::new(move || status.is_up())
                };
                sim.install_app(c, Box::new(Browser::new(bcfg, Some(gate), log.clone())));
                logs.push(log);
            }
        }
        Method::Shadowsocks => {
            let mut ss_cfg = SsConfig::new(SocketAddr::new(SS, sc_tunnels::SS_PORT));
            ss_cfg.keepalive = cfg.ss_keepalive;
            ss_cfg.auth_per_connection = cfg.ss_auth_per_connection;
            sim.install_app(ss, Box::new(SsRemote::new(&ss_cfg, names.clone())));
            for (i, &c) in clients.iter().enumerate() {
                sim.install_app(c, Box::new(SsLocal::new(ss_cfg.clone())));
                let log = new_load_log();
                let socks = SocketAddr::new(sim.addr_of(c), SS_LOCAL_PORT);
                let bcfg = browser_config(cfg, RESOLVER_CN, ProxyPolicy::Socks(socks), i);
                sim.install_app(c, Box::new(Browser::new(bcfg, None, log.clone())));
                logs.push(log);
            }
        }
        Method::Tor => {
            sim.install_app(bridge, Box::new(OrRelay::new(OR_PORT, 4001, NameMap::default())));
            sim.install_app(bridge, Box::new(MeekGateway::new(4002)));
            sim.install_app(middle, Box::new(OrRelay::new(OR_PORT, 4003, NameMap::default())));
            sim.install_app(exit, Box::new(OrRelay::new(OR_PORT, 4004, names.clone())));
            sim.install_app(
                directory,
                Box::new(DirectoryServer::with_consensus_len(TOR_CONSENSUS_LEN)),
            );
            for (i, &c) in clients.iter().enumerate() {
                let status = TunnelStatus::new();
                let tor_cfg = TorConfig {
                    directory: SocketAddr::new(DIRECTORY, DIR_PORT),
                    bridge: SocketAddr::new(BRIDGE, MEEK_PORT),
                    front_domain: "ajax.cdn-front.example".into(),
                    middle: SocketAddr::new(MIDDLE, OR_PORT),
                    exit: SocketAddr::new(EXIT, OR_PORT),
                    socks_port: TOR_SOCKS_PORT,
                };
                sim.install_app(
                    c,
                    Box::new(TorClient::new(tor_cfg, 5000 + i as u64, status.clone())),
                );
                let log = new_load_log();
                let socks = SocketAddr::new(sim.addr_of(c), TOR_SOCKS_PORT);
                let bcfg = browser_config(cfg, RESOLVER_CN, ProxyPolicy::Socks(socks), i);
                let gate = {
                    let status = status.clone();
                    ReadyProbe::new(move || status.is_up())
                };
                sim.install_app(c, Box::new(Browser::new(bcfg, Some(gate), log.clone())));
                logs.push(log);
            }
        }
        Method::ScholarCloud => {
            let mut sc_cfg = sc_core::ScConfig::new(SC_DOMESTIC, SC_REMOTE)
                .with_remotes(&sc_remote_addrs);
            sc_cfg.whitelist = vec!["scholar.google.com".into(), "accounts.google.com".into()];
            sc_cfg.scheme.set(cfg.sc_scheme);
            if let Some(rotation) = cfg.sc_rotation {
                sc_cfg.rotation = Some(sc_core::RotationPolicy {
                    threshold: rotation.threshold.max(1),
                    ..rotation
                });
            }
            if let Some(m) = cfg.sc_max_tunnels {
                sc_cfg.admission.max_tunnels = m;
            }
            if let Some(q) = cfg.sc_queue_len {
                sc_cfg.admission.queue_len = q;
            }
            // One cache configuration for every store: the gateway's
            // and, under a fleet, each further member's own shard.
            let mut cache_cfg = sc_core::CacheConfig::default();
            if let Some(b) = cfg.sc_cache_bytes {
                cache_cfg.capacity_bytes = b;
                sc_cfg = sc_cfg.with_cache(cache_cfg.clone());
            }
            sc_cache = Some(sc_cfg.cache.clone());
            let fleet_n = cfg.sc_fleet.max(1);
            let gateways: Vec<SocketAddr> = cfg
                .sc_domestic_addrs()
                .into_iter()
                .map(|a| SocketAddr::new(a, sc_core::DOMESTIC_PORT))
                .collect();
            if cfg.sc_elastic_pool > 0 {
                // Elastic tier: the domestic proxy's remote pool starts
                // as the pre-warmed seed instances and autoscales over
                // the fresh-IP pool; the static sc-remote VMs are not
                // in the pool (they are the control arm's tier).
                assert_eq!(
                    fleet_n, 1,
                    "the elastic remote tier drives a single domestic proxy (sc_fleet must be 1)"
                );
                let min_instances = cfg.sc_elastic.min_instances.max(1);
                let e_cfg = sc_core::ElasticConfig {
                    min_instances,
                    max_instances: cfg.sc_elastic.max_instances.max(min_instances),
                    ..cfg.sc_elastic.clone()
                };
                let mut pool = sc_core::ElasticPool::new(e_cfg, sc_elastic_addrs.clone());
                let warmed = pool.seed_warm(min_instances);
                assert!(
                    !warmed.is_empty(),
                    "sc_elastic_pool must cover at least sc_elastic.min_instances addresses"
                );
                sc_cfg = sc_cfg.with_remotes(&warmed);
                sc_elastic = Some(sc_core::ElasticHandle::new(pool));
            }
            if fleet_n == 1 {
                let mut proxy = sc_core::DomesticProxy::new(sc_cfg.clone());
                if let Some(handle) = &sc_elastic {
                    proxy = proxy.with_elastic(handle.clone());
                }
                sim.install_app(sc_domestic, Box::new(proxy));
            } else {
                // Fleet: each member gets its own shard of the content
                // cache (separate store, same configuration) plus the
                // shared roster for peering, liveness, and the
                // fleet-wide admission sickness board. Member 0 keeps
                // the base config's cache handle so `sc_cache` still
                // points at a live shard.
                let fleet = sc_core::FleetHandle::new(gateways.clone());
                for (i, &node) in sc_domestic_nodes.iter().enumerate() {
                    let mut mcfg = sc_cfg.clone();
                    mcfg.domestic = gateways[i];
                    if i > 0 {
                        mcfg = mcfg.with_cache(cache_cfg.clone());
                    }
                    sc_fleet_caches.push(mcfg.cache.clone());
                    sim.install_app(
                        node,
                        Box::new(
                            sc_core::DomesticProxy::new(mcfg)
                                .with_fleet(sc_core::FleetMember::new(i, fleet.clone())),
                        ),
                    );
                }
                sc_fleet = Some(fleet);
            }
            for &n in &sc_remotes {
                sim.install_app(
                    n,
                    Box::new(sc_core::RemoteProxy::new(sc_cfg.clone(), names.clone())),
                );
            }
            // Every elastic instance runs a remote proxy. Standby
            // instances power down right after their app starts
            // listening (the lifecycle event is scheduled at the same
            // instant but a later sequence number than the app start,
            // so listen state survives the power-down); the autoscaler
            // powers them back up when it provisions them.
            if let Some(handle) = &sc_elastic {
                let warmed = handle.warm_addrs();
                for (i, &node) in sc_elastic_nodes.iter().enumerate() {
                    sim.install_app(
                        node,
                        Box::new(sc_core::RemoteProxy::new(sc_cfg.clone(), names.clone())),
                    );
                    if !warmed.contains(&sc_elastic_addrs[i]) {
                        sim.schedule_lifecycle(node, false, SimDuration::ZERO);
                    }
                }
            }
            for (i, &c) in clients.iter().enumerate() {
                let log = new_load_log();
                let pac = if fleet_n > 1 {
                    fleet_pac(&sc_cfg.whitelist, &gateways, i)
                } else {
                    sc_cfg.pac_file()
                };
                let mut bcfg = browser_config(cfg, RESOLVER_CN, ProxyPolicy::Pac(pac), i);
                if cfg.sc_http_page {
                    bcfg.page_port = 80;
                }
                sim.install_app(c, Box::new(Browser::new(bcfg, None, log.clone())));
                logs.push(log);
            }
            if cfg.flash_clients > 0 {
                // The crowd waits behind a shared gate that only a
                // `Fault::FlashCrowd` trigger opens; each client also
                // sleeps until its slot on the arrival ramp, so the
                // surge shape is an experiment parameter, not noise.
                let gate_flag = std::rc::Rc::new(std::cell::Cell::new(false));
                let offsets =
                    sc_simnet::ramp::uniform_offsets(cfg.flash_clients, cfg.flash_ramp);
                for (i, &c) in flash_clients.iter().enumerate() {
                    let log = new_load_log();
                    let pac = if fleet_n > 1 {
                        fleet_pac(&sc_cfg.whitelist, &gateways, cfg.clients + i)
                    } else {
                        sc_cfg.pac_file()
                    };
                    // Entropy lane 0x1000+ keeps the crowd's draws apart
                    // from the nominal clients'; the crowd has its own
                    // load count and its own arrival ramp.
                    let mut bcfg =
                        browser_config(cfg, RESOLVER_CN, ProxyPolicy::Pac(pac), 0x1000 + i);
                    bcfg.loads = cfg.flash_loads;
                    bcfg.start_delay = cfg.flash_start + offsets[i];
                    if cfg.sc_http_page {
                        bcfg.page_port = 80;
                    }
                    let gate = {
                        let flag = gate_flag.clone();
                        ReadyProbe::new(move || flag.get())
                    };
                    sim.install_app(c, Box::new(Browser::new(bcfg, Some(gate), log.clone())));
                    logs.push(log);
                }
                flash_gate = Some(gate_flag);
            }
        }
    }

    // Budget: tunnel/bootstrap time + loads * interval + slack.
    let bootstrap = SimDuration::from_secs(30);
    let runtime = bootstrap
        + cfg.interval.saturating_mul(cfg.loads as u64)
        + cfg.ramp_stagger.saturating_mul(cfg.clients.saturating_sub(1) as u64)
        + cfg.timeout
        + cfg.extra_runtime;

    BuiltScenario {
        sim,
        gfw,
        sc_remote_addrs,
        flash_gate,
        sc_cache,
        sc_domestic_nodes,
        sc_fleet,
        sc_fleet_caches,
        sc_elastic,
        cfg: cfg.clone(),
        clients,
        logs,
        span,
        runtime,
    }
}

impl BuiltScenario {
    /// Runs the scenario to completion and collects the metrics.
    pub fn finish(self) -> ScenarioOutcome {
        let BuiltScenario { mut sim, gfw, cfg, clients, logs, span, runtime, .. } = self;
        sim.run_for(runtime);

        // For ScholarCloud the censored path is the domestic↔remote leg
        // (the client only talks to the domestic proxy over the campus
        // LAN), so PLR is measured at the domestic proxy — the vantage
        // the paper's deployment measures from.
        let plr_addr_override =
            (cfg.method == Method::ScholarCloud).then_some(addrs::SC_DOMESTIC);
        let first_client_addr = sim.addr_of(clients[0]);
        let counters = sim.stats.by_addr(first_client_addr);
        let mut plr_sum = 0.0;
        match plr_addr_override {
            Some(addr) => plr_sum = sim.stats.loss_rate_for(addr) * cfg.clients as f64,
            None => {
                for &c in &clients {
                    plr_sum += sim.stats.loss_rate_for(sim.addr_of(c));
                }
            }
        }
        let outcome = ScenarioOutcome {
            loads: logs.iter().map(|l| l.borrow().clone()).collect(),
            plr: plr_sum / cfg.clients as f64,
            gfw: gfw.map(|g| g.borrow().counters).unwrap_or_default(),
            client_sent_bytes: counters.sent_bytes,
            client_recv_bytes: counters.delivered_bytes,
            censor_by_rule: sim.stats.censor_by_rule(),
            sim_end: sim.now(),
            events_processed: sim.stats.events_processed,
            timers_fired: sim.stats.timers_fired,
            queue_depth_hwm: sim.stats.queue_depth_hwm,
        };
        sc_obs::span_end(
            sim.now().as_micros(),
            span,
            |f| {
                f.field("censor_drops", sim.stats.censor_drops())
                    .field("packets_sent", sim.stats.packets_sent);
            },
        );
        outcome
    }
}
