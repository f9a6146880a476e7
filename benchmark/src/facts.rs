//! What one repetition counted and simulated, reduced to exact values.
//!
//! Everything in [`RepFacts`] is a **count** (work the simulator did)
//! or a **sim** value (what the modelled system did). Neither may
//! depend on how fast the host ran, so the harness requires all of it
//! to be equal across the repetitions of one run.

use sc_metrics::ScenarioOutcome;

use crate::stats;
use crate::workloads::{CacheCounts, PartRun};

/// Exact counts of one simulator part.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartFacts {
    /// Row label (`sc`, `native_vpn`, …).
    pub label: &'static str,
    /// Loads the scenario was configured to attempt.
    pub expected: u64,
    /// Loads that reached a terminal result in the browser logs.
    pub logged: u64,
    /// Loads that completed correctly.
    pub ok: u64,
    /// Ascending PLT sample (µs) over every logged load; failed loads
    /// sit at the load timeout.
    pub plt_us: Vec<u64>,
    /// Ascending PLT sample of first-visit loads only.
    pub first_plt_us: Vec<u64>,
    /// Events the simulator dispatched.
    pub events: u64,
    /// Timer events fired.
    pub timers: u64,
    /// Event-queue depth high-water mark.
    pub queue_hwm: u64,
    /// `ScenarioOutcome::plr`, as raw bits so equality is exact.
    pub plr_bits: u64,
    /// Packets the censor dropped (all rules).
    pub censor_drops: u64,
    /// GFW actions against flows (resets, throttles, IP blocks, DNS
    /// poisonings).
    pub gfw_interference: u64,
    /// TCP connections browsers opened.
    pub conns: u64,
    /// Loads the proxy throttled at least once.
    pub throttled: u64,
    /// Loads whose proxy status was 503.
    pub status_503: u64,
    /// Wire bytes sent plus received by the first client.
    pub client_wire_bytes: u64,
    /// Loads the first client logged.
    pub client_loads: u64,
    /// Cache counters summed over shards.
    pub cache: Option<CacheCounts>,
}

impl PartFacts {
    /// Reduces a part run to its exact counts.
    pub fn of(run: &PartRun, expected: u64) -> PartFacts {
        let o: &ScenarioOutcome = &run.outcome;
        let loads = || o.loads.iter().flatten();
        let plt = |l: &sc_web::PageLoadResult| {
            if l.failed {
                None
            } else {
                l.plt.map(|d| d.as_micros())
            }
        };
        let g = &o.gfw;
        PartFacts {
            label: run.label,
            expected,
            logged: loads().count() as u64,
            ok: loads().filter(|l| plt(l).is_some()).count() as u64,
            plt_us: stats::plt_sample(loads().map(plt), run.timeout_us),
            first_plt_us: stats::plt_sample(
                loads().filter(|l| l.first_time).map(plt),
                run.timeout_us,
            ),
            events: o.events_processed,
            timers: o.timers_fired,
            queue_hwm: o.queue_depth_hwm,
            plr_bits: o.plr.to_bits(),
            censor_drops: o.censor_by_rule.iter().map(|(_, n)| n).sum(),
            gfw_interference: g.embedded_sni_resets
                + g.ip_blocked
                + g.dns_poisoned
                + g.keyword_resets
                + g.sni_resets
                + g.throttled,
            conns: loads().map(|l| l.connections as u64).sum(),
            throttled: loads().filter(|l| l.throttled).count() as u64,
            status_503: loads().filter(|l| l.proxy_status == Some(503)).count() as u64,
            client_wire_bytes: o.client_sent_bytes + o.client_recv_bytes,
            client_loads: o.loads.first().map_or(0, Vec::len) as u64,
            cache: run.cache,
        }
    }

    /// The simulated packet-loss rate.
    pub fn plr(&self) -> f64 {
        f64::from_bits(self.plr_bits)
    }
}

/// Exact counts of one `obs_trace_replay` repetition: one analyzer pass
/// over both traces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayFacts {
    /// Page loads explained per pass (both traces).
    pub loads_per_pass: u64,
    /// Of those, loads stitched into a tree whose per-tier exclusive
    /// times sum to exactly its PLT.
    pub ok_per_pass: u64,
    /// Ascending reconstructed PLT sample of one pass; loads that did
    /// not complete sit at the capture run's load timeout.
    pub plt_us: Vec<u64>,
    /// Trace events parsed per pass.
    pub events_per_pass: u64,
    /// Trace bytes parsed per pass.
    pub bytes_per_pass: u64,
    /// Bytes of report text plus JSON rendered per pass.
    pub rendered_bytes_per_pass: u64,
    /// SLO alert events found per pass.
    pub slo_alerts_per_pass: u64,
}

/// Exact counts of one repetition of any workload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepFacts {
    /// Simulator parts (empty for `obs_trace_replay`).
    pub parts: Vec<PartFacts>,
    /// Analyzer work (`obs_trace_replay` only).
    pub replay: Option<ReplayFacts>,
}

impl RepFacts {
    /// Loads attempted.
    pub fn attempted(&self) -> u64 {
        let sim: u64 = self.parts.iter().map(|p| p.expected).sum();
        sim + self.replay.as_ref().map_or(0, |r| r.loads_per_pass)
    }

    /// Loads that reached a terminal result (every explained load of a
    /// replay pass is terminal by construction).
    pub fn logged(&self) -> u64 {
        let sim: u64 = self.parts.iter().map(|p| p.logged).sum();
        sim + self.replay.as_ref().map_or(0, |r| r.loads_per_pass)
    }

    /// Loads completed correctly.
    pub fn ok(&self) -> u64 {
        let sim: u64 = self.parts.iter().map(|p| p.ok).sum();
        sim + self.replay.as_ref().map_or(0, |r| r.ok_per_pass)
    }

    /// Loads completed correctly ÷ loads attempted.
    pub fn ok_share(&self) -> f64 {
        self.ok() as f64 / self.attempted().max(1) as f64
    }

    /// Simulator events dispatched.
    pub fn events(&self) -> u64 {
        self.parts.iter().map(|p| p.events).sum()
    }

    /// The pooled ascending PLT sample of one repetition.
    pub fn plt_us(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .parts
            .iter()
            .flat_map(|p| p.plt_us.iter().copied())
            .collect();
        if let Some(r) = &self.replay {
            all.extend_from_slice(&r.plt_us);
        }
        all.sort_unstable();
        all
    }

    /// The part labelled `label`.
    pub fn part(&self, label: &str) -> Option<&PartFacts> {
        self.parts.iter().find(|p| p.label == label)
    }
}
