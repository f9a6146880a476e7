//! Flash crowd: a 10× client surge hits an undersized domestic proxy,
//! and the overload-control layer (bounded admission, deadline-aware
//! shedding, per-client fairness, retry budget) keeps the service in a
//! brownout instead of a blackout.
//!
//! The scenario runs the paper's ScholarCloud testbed with the domestic
//! proxy deliberately undersized (4 concurrent tunnels, 4-deep pending
//! queue) and a timed [`Fault::FlashCrowd`]: at `t=40s` twenty-four extra
//! clients start arriving, spread over a 5-second ramp, each hammering
//! out page loads. The proxy must:
//!
//! 1. **shed fast** — excess requests get an immediate `503`/`429` with
//!    `Retry-After` instead of hanging until the browser timeout;
//! 2. **protect goodput** — admitted work still completes within its
//!    deadline budget (p95 PLT bounded), so the tunnel slots are never
//!    wasted on requests that will miss their deadline anyway;
//! 3. **bound retry amplification** — the global retry budget keeps
//!    brownout retries ≤ ~10% of admitted work, so retries cannot
//!    multiply the overload;
//! 4. **recover** — once the crowd passes, the nominal clients' loads
//!    succeed again with no residual queue.
//!
//! Everything is deterministic for the fixed seed — rerunning produces
//! a byte-identical trace (see `tests/obs_trace_determinism.rs`). With
//! `SC_TRACE=/tmp/flash.jsonl` the run replays through `scholar-obs`,
//! whose `--max-shed-rate` gate turns this scenario into the CI
//! overload check in `scripts/check.sh`.
//!
//! Run with: `cargo run --example flash_crowd`
//!
//! `cargo run --example flash_crowd -- --sweep` instead sweeps the
//! crowd size and prints the goodput / shed-rate / p95-PLT table
//! recorded in `EXPERIMENTS.md` (no assertions in sweep mode).

use sc_metrics::scenario::default_slos;
use sc_metrics::{Method, ScenarioConfig, build_scenario, report};
use sc_obs::WindowSpec;
use sc_obs::analyze::AdmissionStats;
use sc_simnet::faults::{Fault, FaultPlan};
use sc_simnet::time::{SimDuration, SimTime};

const FLASH_START_S: u64 = 40;
const FLASH_RAMP_S: u64 = 5;
const FLASH_CLIENTS: usize = 24;
const NOMINAL_CLIENTS: usize = 2;

/// Everything one run of the scenario yields for the report and the
/// assertions.
struct RunStats {
    admitted: u64,
    queued: u64,
    shed: u64,
    throttled: u64,
    retries: u64,
    retry_denied: u64,
    ok: usize,
    failed: usize,
    /// Failed loads that carried an explicit 503/429 (fail-fast, not a
    /// browser timeout).
    fast_refusals: usize,
    ok_after_spike: usize,
    /// Successful loads that started inside the spike window.
    spike_ok: usize,
    p95_plt_s: f64,
}

impl RunStats {
    fn shed_rate(&self) -> f64 {
        let decisions = self.admitted + self.shed + self.throttled;
        if decisions == 0 {
            return 0.0;
        }
        (self.shed + self.throttled) as f64 / decisions as f64
    }
}

fn run_once(flash_clients: usize, verbose: bool) -> RunStats {
    let obs = sc_metrics::trace::ops_obs(WindowSpec::seconds(10), default_slos());

    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 7171);
    cfg.clients = NOMINAL_CLIENTS;
    cfg.loads = 10;
    cfg.interval = SimDuration::from_secs(10);
    cfg.timeout = SimDuration::from_secs(8);
    // Undersize the proxy so the surge actually overloads it.
    cfg.sc_max_tunnels = Some(4);
    cfg.sc_queue_len = Some(4);
    // The crowd: 10×+ the nominal client count, three loads each.
    cfg.flash_clients = flash_clients;
    cfg.flash_loads = 3;
    cfg.flash_start = SimDuration::from_secs(FLASH_START_S);
    cfg.flash_ramp = SimDuration::from_secs(FLASH_RAMP_S);
    cfg.extra_runtime = SimDuration::from_secs(40);

    let built = build_scenario(&cfg);
    if verbose {
        println!("--- flash crowd: 10× surge vs the undersized domestic proxy ---");
        println!(
            "nominal clients={}, crowd={} over {}s at t={}s, tunnels={}, queue={}, runtime={}s",
            cfg.clients,
            flash_clients,
            FLASH_RAMP_S,
            FLASH_START_S,
            cfg.sc_max_tunnels.unwrap(),
            cfg.sc_queue_len.unwrap(),
            built.runtime().as_secs_f64(),
        );
    }

    let mut built = built;
    if flash_clients > 0 {
        let gate = built.flash_gate.clone().expect("flash clients configured");
        let plan = FaultPlan::new().at(
            SimTime::from_secs(FLASH_START_S),
            Fault::FlashCrowd {
                clients: flash_clients as u32,
                ramp: SimDuration::from_secs(FLASH_RAMP_S),
                trigger: Box::new(move |_t| gate.set(true)),
            },
        );
        built.sim.install_fault_plan(plan);
    }

    let outcome = built.finish();
    if verbose {
        print!("{}", report::render_scenario(Method::ScholarCloud, &outcome));
        print!(
            "{}",
            report::render_ops_dashboard(&[
                "web.plt_us",
                "web.loads_ok",
                "web.loads_failed",
                "web.throttled",
                "scholarcloud.admitted",
                "scholarcloud.shed",
                "scholarcloud.throttled",
                "scholarcloud.queue_depth",
            ])
        );
    }

    let trace = obs.finish();
    let AdmissionStats { admitted, queued, shed, throttled, retry_denied } = trace.admission;
    let retries = trace.retries;

    let spike_start = SimTime::from_secs(FLASH_START_S);
    let spike_end = SimTime::from_secs(FLASH_START_S + FLASH_RAMP_S + 20);
    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut fast_refusals = 0usize;
    let mut ok_after_spike = 0usize;
    let mut spike_ok = 0usize;
    let mut ok_plts_s: Vec<f64> = Vec::new();
    for r in outcome.loads.iter().flatten() {
        if r.failed {
            failed += 1;
            if matches!(r.proxy_status, Some(429 | 503)) {
                fast_refusals += 1;
            }
        } else {
            ok += 1;
            if let Some(plt) = r.plt {
                ok_plts_s.push(plt.as_secs_f64());
            }
            if r.started >= spike_start && r.started < spike_end {
                spike_ok += 1;
            }
            if r.started >= spike_end {
                ok_after_spike += 1;
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
        admitted,
        queued,
        shed,
        throttled,
        retries,
        retry_denied,
        ok,
        failed,
        fast_refusals,
        ok_after_spike,
        spike_ok,
        p95_plt_s,
    }
}

/// Sweeps the crowd size and prints the overload-response table
/// (goodput, shed rate, p95 PLT vs load multiplier) for EXPERIMENTS.md.
fn sweep() {
    println!("--- flash crowd sweep: overload response vs load multiplier ---");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "crowd", "load mult", "admitted", "shed", "shed rate", "spike ok/s", "p95 PLT"
    );
    let spike_s = (FLASH_RAMP_S + 20) as f64;
    for flash in [0usize, 6, 12, 24, 48] {
        let s = run_once(flash, false);
        let mult = (NOMINAL_CLIENTS + flash) as f64 / NOMINAL_CLIENTS as f64;
        println!(
            "{flash:>6} {mult:>9.1}× {:>10} {:>10} {:>9.1}% {:>12.2} {:>8.2} s",
            s.admitted,
            s.shed + s.throttled,
            s.shed_rate() * 100.0,
            s.spike_ok as f64 / spike_s,
            s.p95_plt_s,
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--sweep") {
        sweep();
        return;
    }
    let s = run_once(FLASH_CLIENTS, true);

    let decisions = s.admitted + s.shed + s.throttled;
    println!(
        "admission: admitted={} queued={} shed={} throttled={} ({decisions} decisions, \
         shed rate {:.1}%)",
        s.admitted,
        s.queued,
        s.shed,
        s.throttled,
        s.shed_rate() * 100.0
    );
    println!(
        "retries: {} granted, {} denied by the retry budget",
        s.retries, s.retry_denied
    );
    println!(
        "loads: {} ok / {} failed ({} failed with a fast 503/429)",
        s.ok, s.failed, s.fast_refusals
    );
    println!("p95 PLT of successful loads: {:.2} s (budget 8 s)", s.p95_plt_s);
    println!("goodput during the spike window: {} successful loads", s.spike_ok);
    println!("successful loads after the crowd passed: {}", s.ok_after_spike);

    // 1. The surge must actually overload the proxy, and the overload
    //    must surface as fast explicit refusals, not browser timeouts.
    assert!(
        s.shed + s.throttled > 0,
        "the 10× surge must trigger shedding (shed={} throttled={})",
        s.shed,
        s.throttled
    );
    assert!(
        s.fast_refusals > 0,
        "shed requests must fail fast with 503/429 at the browser, not time out"
    );
    // 2. Admitted work completes within the load's deadline budget: the
    //    proxy never spends tunnel slots on requests that blow through
    //    their deadline.
    assert!(
        s.p95_plt_s <= 8.0,
        "admitted p95 PLT {:.2}s exceeds the 8s budget",
        s.p95_plt_s
    );
    // 3. Retry amplification is bounded by the global retry budget:
    //    ≤ 10% of admitted requests plus the initial burst allowance.
    let retry_cap = s.admitted / 10 + 8;
    assert!(
        s.retries <= retry_cap,
        "retries {} exceed the budget cap {retry_cap} (admitted={})",
        s.retries,
        s.admitted
    );
    // 4. Goodput holds: admitted loads keep completing through the
    //    spike — shedding protects the work in flight. The floor is 90%
    //    of what the 4-tunnel proxy sustains at saturation in this
    //    window (50 loads measured; see EXPERIMENTS.md).
    assert!(
        s.spike_ok >= 45,
        "goodput fell >10% below saturation capacity (only {} successful spike loads)",
        s.spike_ok
    );
    // 5. Full recovery: the nominal clients' post-spike loads succeed.
    assert!(
        s.ok_after_spike >= NOMINAL_CLIENTS,
        "service must recover after the crowd passes (saw {} post-spike successes)",
        s.ok_after_spike
    );
    println!("flash crowd: all overload-control assertions passed");
}
