//! A censorship laboratory: demonstrates each GFW technique in isolation
//! against the simulated network — DNS poisoning, IP blocking, keyword
//! resets, SNI resets, entropy-based suspicion, and active probing.
//!
//! Run with: `cargo run --example censorship_lab`

use sc_metrics::{Method, ScenarioConfig, run_scenario};

fn main() {
    // SC_TRACE=trace.jsonl streams every instrumented event to a file.
    let _obs = sc_metrics::trace::obs_from_env();
    println!("=== GFW techniques against each access method ===\n");

    // Direct: DNS poisoning + IP blocking.
    let mut cfg = ScenarioConfig::paper(Method::Direct, 7);
    cfg.loads = 1;
    cfg.timeout = sc_simnet::time::SimDuration::from_secs(20);
    let direct = run_scenario(&cfg);
    println!(
        "Direct:      blocked={} dns_poisoned={} ip_blocked={}",
        direct.failure_rate() > 0.0,
        direct.gfw.dns_poisoned,
        direct.gfw.ip_blocked,
    );
    print!("{}", sc_metrics::report::render_scenario(Method::Direct, &direct));

    // Shadowsocks: entropy suspicion → active probe → confirmation → loss.
    let mut cfg = ScenarioConfig::paper(Method::Shadowsocks, 7);
    cfg.loads = 4;
    let ss = run_scenario(&cfg);
    println!(
        "Shadowsocks: probes={} confirmed={} throttled_packets={} plr={:.2}%",
        ss.gfw.probes_requested,
        ss.gfw.servers_confirmed,
        ss.gfw.throttled,
        ss.plr * 100.0,
    );

    // Tor/meek: behavioral long-poll fingerprint → heavy throttling.
    let mut cfg = ScenarioConfig::paper(Method::Tor, 7);
    cfg.loads = 4;
    let tor = run_scenario(&cfg);
    println!(
        "Tor (meek):  throttled_packets={} plr={:.2}%",
        tor.gfw.throttled,
        tor.plr * 100.0,
    );

    // ScholarCloud: cover + blinding + decoy → unscathed.
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 7);
    cfg.loads = 4;
    let sc = run_scenario(&cfg);
    println!(
        "ScholarCloud: probes={} confirmed={} embedded_sni_resets={} plr={:.2}%",
        sc.gfw.probes_requested,
        sc.gfw.servers_confirmed,
        sc.gfw.embedded_sni_resets,
        sc.plr * 100.0,
    );

    // Ablation: turn blinding off and the embedded-SNI scanner bites.
    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 7);
    cfg.loads = 4;
    cfg.sc_scheme = sc_crypto::BlindingScheme::Identity;
    let naked = run_scenario(&cfg);
    println!(
        "  …without blinding: embedded_sni_resets={} failure_rate={:.0}%",
        naked.gfw.embedded_sni_resets,
        naked.failure_rate() * 100.0,
    );
    print!("{}", sc_metrics::report::render_scenario(Method::ScholarCloud, &naked));
}
