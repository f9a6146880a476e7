//! Text renderers: print each figure's data the way the paper reports it,
//! plus the per-scenario interference report and the observability
//! metrics summary.

use crate::experiments::{Fig3Row, Fig5Row, Fig6Row, Fig7Point};
use crate::scenario::{Method, ScenarioOutcome};

/// Renders one scenario run's censorship-interference breakdown: what the
/// GFW did, and which rule each censor-dropped packet died to.
pub fn render_scenario(method: Method, o: &ScenarioOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!("Scenario — {}
", method.name()));
    out.push_str(&format!("  sim time:               {:.1} s
", o.sim_end.as_secs_f64()));
    out.push_str(&format!("  packet loss rate:       {:.3}%
", o.plr * 100.0));
    out.push_str(&format!("  load failure rate:      {:.1}%
", o.failure_rate() * 100.0));
    out.push_str(&format!("  dns poisoned:           {}
", o.gfw.dns_poisoned));
    out.push_str(&format!("  keyword resets:         {}
", o.gfw.keyword_resets));
    out.push_str(&format!("  sni resets:             {}
", o.gfw.sni_resets));
    out.push_str(&format!("  embedded-sni resets:    {}
", o.gfw.embedded_sni_resets));
    out.push_str(&format!("  probes requested:       {}
", o.gfw.probes_requested));
    out.push_str(&format!("  servers confirmed:      {}
", o.gfw.servers_confirmed));
    if o.censor_by_rule.is_empty() {
        out.push_str("  censor drops:           none
");
    } else {
        out.push_str("  censor drops by rule:
");
        for (rule, n) in &o.censor_by_rule {
            out.push_str(&format!("    {rule:<22}{n}
"));
        }
    }
    // Failed loads broken out by the proxy status that killed them —
    // separates policy refusals (403) from overload shedding (429/503)
    // and upstream darkness (502).
    let mut by_status: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
    let mut throttled_ok = 0u64;
    for r in o.loads.iter().flatten() {
        if r.failed {
            if let Some(s) = r.proxy_status {
                *by_status.entry(s).or_default() += 1;
            }
        } else if r.throttled {
            throttled_ok += 1;
        }
    }
    if !by_status.is_empty() {
        out.push_str("  failed loads by proxy status:
");
        for (status, n) in &by_status {
            let label = match status {
                403 => "403 (policy)",
                429 => "429 (throttled)",
                502 => "502 (upstream)",
                503 => "503 (shed)",
                _ => "other",
            };
            out.push_str(&format!("    {label:<22}{n}
"));
        }
    }
    if throttled_ok > 0 {
        out.push_str(&format!("  throttled-then-ok loads: {throttled_ok}
"));
    }
    out
}

/// Renders the domestic proxy's shared-cache counters the way an
/// operator would read them after a run: how much of the gateway
/// traffic the cache absorbed, and by which mechanism (fresh hit,
/// coalesced flight, cheap revalidation).
pub fn render_cache(stats: &sc_core::CacheStats) -> String {
    let mut out = String::from("Shared cache — domestic proxy\n");
    out.push_str(&format!("  hits:                   {}\n", stats.hits));
    out.push_str(&format!("  misses:                 {}\n", stats.misses));
    out.push_str(&format!("  coalesced waiters:      {}\n", stats.coalesced));
    out.push_str(&format!("  revalidations (304):    {}\n", stats.revalidated));
    out.push_str(&format!("  insertions:             {}\n", stats.insertions));
    out.push_str(&format!("  evictions:              {}\n", stats.evicted));
    out.push_str(&format!("  oversize rejects:       {}\n", stats.rejected_oversize));
    out.push_str(&format!("  upstream fetches:       {}\n", stats.upstream_fetches.len()));
    out.push_str(&format!(
        "  upstream bytes saved:   {:.1} KB\n",
        stats.bytes_saved as f64 / 1024.0
    ));
    out.push_str(&format!(
        "  hit rate:               {:.1}%\n",
        stats.hit_rate() * 100.0
    ));
    out
}

/// Renders the installed observability registry (counters,
/// histogram percentiles), or a placeholder when no collector is
/// installed. Plugs the `sc-obs` metrics into the report output.
pub fn render_obs_summary() -> String {
    sc_obs::with_registry(|r| r.render_summary())
        .unwrap_or_else(|| "observability: no collector installed
".to_string())
}

/// Renders the installed time-series store's per-window timeline for
/// one series (rates for counter series, p50/p95/p99 for sample
/// series), or a placeholder when no window-enabled collector is
/// installed.
pub fn render_timeline(series: &str) -> String {
    sc_obs::with_timeseries(|ts| ts.render_timeline(series))
        .unwrap_or_else(|| format!("timeline — {series}: no window-enabled collector installed\n"))
}

/// Renders the SLO engine's verdict table (one row per SLO: state,
/// worst burn rate, fire/resolve counts), or a placeholder when no SLO
/// engine is installed.
pub fn render_slo_verdicts() -> String {
    sc_obs::with_slo_engine(|e| e.verdict_table())
        .unwrap_or_else(|| "SLOs: no SLO-enabled collector installed\n".to_string())
}

/// Renders the full operator dashboard: one timeline per requested
/// series followed by the SLO verdict table. The shape an operator of
/// the paper's deployment would glance at first.
pub fn render_ops_dashboard(series: &[&str]) -> String {
    let mut out = String::from("=== operator dashboard ===\n");
    for s in series {
        out.push_str(&render_timeline(s));
        out.push('\n');
    }
    out.push_str(&render_slo_verdicts());
    out
}

/// Renders Figure 3 as text.
pub fn render_fig3(row: &Fig3Row) -> String {
    let mut out = String::new();
    out.push_str("Figure 3 — methods for accessing Google Scholar (survey)\n");
    out.push_str(&format!("  respondents:            {}\n", row.respondents));
    out.push_str(&format!("  bypass the GFW:         {:.1}%   (paper: 26%)\n", row.bypass_share * 100.0));
    out.push_str(&format!("  VPN (of bypassers):     {:.1}%   (paper: 43%)\n", row.vpn * 100.0));
    out.push_str(&format!("    native VPN within VPN:{:.1}%   (paper: 93%)\n", row.native_within_vpn * 100.0));
    out.push_str(&format!("  Tor:                    {:.1}%   (paper: 2%)\n", row.tor * 100.0));
    out.push_str(&format!("  Shadowsocks:            {:.1}%   (paper: 21%)\n", row.shadowsocks * 100.0));
    out.push_str(&format!("  other methods:          {:.1}%   (paper: 34%)\n", row.other * 100.0));
    out
}

/// Renders Figures 5a–5c as a table.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 5 — performance and robustness\n");
    out.push_str(&format!(
        "{:<14} {:>16} {:>16} {:>12} {:>9} {:>9}\n",
        "method", "PLT first (s)", "PLT subs (s)", "RTT (ms)", "PLR (%)", "fail (%)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>16} {:>16} {:>12} {:>9.3} {:>9.1}\n",
            r.method.name(),
            format_summary(&r.plt_first),
            format_summary(&r.plt_subsequent),
            format_summary(&r.rtt_ms),
            r.plr * 100.0,
            r.failure_rate * 100.0,
        ));
    }
    out
}

fn format_summary(s: &crate::stats::Summary) -> String {
    if s.n == 0 {
        "—".to_string()
    } else {
        format!("{:.2} [{:.2},{:.2}]", s.mean, s.min, s.max)
    }
}

/// Renders Figures 6a–6c as a table.
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut out = String::new();
    out.push_str("Figure 6 — client-side overhead\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>12} {:>11} {:>11} {:>12} {:>12}\n",
        "method", "sent (KB)", "recv (KB)", "CPU brw %", "CPU cli %", "mem before", "mem after"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:>12.1} {:>12.1} {:>11.2} {:>11.2} {:>10.0}MB {:>10.0}MB\n",
            r.method.name(),
            r.traffic.sent as f64 / 1024.0,
            r.traffic.received as f64 / 1024.0,
            r.cpu_browser,
            r.cpu_extra,
            r.mem_before_mb,
            r.mem_after_mb,
        ));
    }
    out
}

/// Renders Figure 7 curves.
pub fn render_fig7(curves: &[(Method, Vec<Fig7Point>)]) -> String {
    let mut out = String::new();
    out.push_str("Figure 7 — scalability (mean PLT in s vs concurrent clients)\n");
    out.push_str(&format!("{:<14}", "clients"));
    if let Some((_, first)) = curves.first() {
        for p in first {
            out.push_str(&format!("{:>8}", p.clients));
        }
    }
    out.push('\n');
    for (method, points) in curves {
        out.push_str(&format!("{:<14}", method.name()));
        for p in points {
            out.push_str(&format!("{:>8.2}", p.plt_mean));
        }
        out.push('\n');
    }
    out
}

/// Renders the three ablations (blinding, scheme agility, Shadowsocks
/// keep-alive sweep) from what their runners return.
pub fn render_ablations(
    blinding: &(Fig5Row, Fig5Row, u64),
    agility: (f64, f64),
    keepalive: &[(u64, f64)],
) -> String {
    let (on, off, resets) = blinding;
    let mut out = String::new();
    out.push_str("Ablation — message blinding:\n");
    out.push_str(&format!(
        "  blinding ON : fail rate {:.1}%  PLR {:.3}%\n",
        on.failure_rate * 100.0,
        on.plr * 100.0
    ));
    out.push_str(&format!(
        "  blinding OFF: fail rate {:.1}%  PLR {:.3}%  (embedded-SNI resets: {resets})\n",
        off.failure_rate * 100.0,
        off.plr * 100.0
    ));
    out.push_str("Ablation — scheme agility after a GFW rule update:\n");
    out.push_str(&format!("  before rotation: degradation index {:.2}\n", agility.0));
    out.push_str(&format!("  after  rotation: degradation index {:.2}\n", agility.1));
    out.push_str("Ablation — Shadowsocks keep-alive window vs mean PLT:\n");
    for (w, plt) in keepalive {
        out.push_str(&format!("  keepalive {w:>4} s → subsequent PLT {plt:.2} s\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn rendering_is_stable() {
        let row = Fig5Row {
            method: Method::ScholarCloud,
            plt_first: Summary { n: 1, mean: 2.1, min: 2.0, max: 2.2 },
            plt_subsequent: Summary { n: 9, mean: 1.3, min: 1.2, max: 1.5 },
            rtt_ms: Summary { n: 9, mean: 150.0, min: 140.0, max: 160.0 },
            plr: 0.0022,
            failure_rate: 0.0,
        };
        let text = render_fig5(&[row]);
        assert!(text.contains("ScholarCloud"));
        assert!(text.contains("1.30"));
    }
}
