//! Observability smoke test: a small seeded ScholarCloud scenario run
//! under a JSONL collector, read back line by line with the analyzer's
//! parser, must produce the key events from every instrumented layer,
//! and the GFW's embedded-SNI scanner must find nothing (blinding is
//! on).

mod common;

use common::captured;
use sc_metrics::{Method, ScenarioConfig, run_scenario};
use sc_obs::analyze::{TraceEvent, parse_line};

/// Every record of a trace, each parsed from its line.
fn parsed(text: &str) -> Vec<TraceEvent<'_>> {
    text.lines().map(|line| parse_line(line).expect("each line parses")).collect()
}

/// The components that wrote at least one event, in first-seen order.
fn components<'a>(events: &'a [TraceEvent<'_>]) -> Vec<&'a str> {
    let mut seen: Vec<&str> = Vec::new();
    for e in events {
        if !seen.contains(&&*e.component) {
            seen.push(&e.component);
        }
    }
    seen
}

/// Events from `component` named `name`.
fn count(events: &[TraceEvent<'_>], component: &str, name: &str) -> usize {
    events.iter().filter(|e| e.component == component && e.name == name).count()
}

#[test]
fn scholarcloud_run_emits_key_events() {
    let trace = captured(|| {
        let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 21);
        cfg.loads = 3;
        let out = run_scenario(&cfg);
        assert_eq!(out.failure_rate(), 0.0, "{:?}", out.loads);
        assert_eq!(out.gfw.embedded_sni_resets, 0, "blinding must defeat the scanner");

        // The registry collected the matching counters.
        sc_obs::with_registry(|registry| {
            assert!(registry.counter("scholarcloud.remote_tunnels") >= 1);
            assert!(registry.counter("scholarcloud.domestic_accepts") >= 1);
            assert!(registry.counter("web.loads_ok") >= 3);
            assert!(registry.counter("simnet.packets_delivered") > 0);
            let plt = registry.histogram("web.plt_us").expect("plt histogram");
            assert_eq!(plt.count(), 3);
        })
        .expect("a dispatcher is installed");
    });
    let text = String::from_utf8(trace).expect("UTF-8 trace");
    let events = parsed(&text);

    // The remote proxy authenticated at least one preamble (the tunnel
    // worked), and the scanner never reset a tunnel.
    assert!(count(&events, "scholarcloud", "auth_ok") >= 1, "no preamble auth events");
    assert!(!events.iter().any(|e| {
        e.component == "gfw" && e.name == "drop" && e.get_str("rule") == Some("gfw-embedded-sni")
    }));

    // The browser decomposed loads into spans: page_load plus the
    // connect/tunnel/fetch phases (no dns phase here: the PAC route
    // hands resolution to the domestic proxy, the paper's design).
    for phase in ["page_load", "connect", "tunnel", "fetch"] {
        assert!(
            events.iter().any(|e| {
                e.component == "web" && e.name == "span_start" && e.get_str("span_name") == Some(phase)
            }),
            "missing {phase} span"
        );
    }

    // A clean run (no drops, no GFW verdicts) still traces the
    // measurement, browser, and proxy layers.
    let components = components(&events);
    for c in ["metrics", "web", "scholarcloud"] {
        assert!(components.contains(&c), "missing {c} events: {components:?}");
    }
}

#[test]
fn active_probe_against_remote_proxy_gets_a_decoy() {
    // Shadowsocks draws entropy suspicion and an active probe; the GFW
    // probe events must appear in the trace.
    let trace = captured(|| {
        let mut cfg = ScenarioConfig::paper(Method::Shadowsocks, 7);
        cfg.loads = 4;
        let out = run_scenario(&cfg);
        assert!(out.gfw.probes_requested >= 1);
    });
    let text = String::from_utf8(trace).expect("UTF-8 trace");
    let events = parsed(&text);
    assert!(count(&events, "gfw", "requested") >= 1, "no probe request events");
    assert!(count(&events, "gfw", "launched") >= 1, "no probe launch events");
    assert!(count(&events, "gfw", "verdict") >= 1, "no probe verdict events");
}

#[test]
fn blocked_direct_run_emits_events_from_four_crates() {
    // Direct access is censored, so the GFW verdicts and the simnet
    // censor drops join the browser and scenario events: four crates in
    // one trace, the acceptance shape for the JSONL sink.
    let trace = captured(|| {
        let mut cfg = ScenarioConfig::paper(Method::Direct, 7);
        cfg.loads = 1;
        cfg.timeout = sc_simnet::time::SimDuration::from_secs(20);
        let out = run_scenario(&cfg);
        assert!(out.failure_rate() > 0.99);
        assert!(!out.censor_by_rule.is_empty(), "censor drops must be attributed");
    });
    let text = String::from_utf8(trace).expect("UTF-8 trace");
    let events = parsed(&text);

    let components = components(&events);
    for c in ["metrics", "web", "gfw", "simnet"] {
        assert!(components.contains(&c), "missing {c} events: {components:?}");
    }
    assert!(events.iter().any(|e| {
        e.component == "gfw" && e.name == "drop" && e.get_str("rule").is_some()
    }));
}
