//! Correctness checks and the regression-bounds table.
//!
//! Every check is a pure function from plain values to a list of
//! violations, so each can be tripped by a synthetic bad value in a unit
//! test. The harness exits non-zero when any list is non-empty.

use crate::facts::RepFacts;

/// The seed at which the steady workloads must complete every load.
pub const DEFAULT_SEED: u64 = 2017;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// What a number describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What the simulator costs on this host (noisy).
    Host,
    /// Exact work counts (repeat exactly at one seed).
    Count,
    /// What the modelled system did (repeat exactly at one seed).
    Sim,
}

impl Kind {
    /// The label printed in tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Count => "count",
            Kind::Sim => "sim",
        }
    }
}

/// One end-to-end metric and the share of the baseline by which it may
/// worsen between two runs **at the same seed** before `--compare`
/// reports a regression. Count and sim values repeat exactly at one
/// seed, so their bounds are tight; the host bounds are what this
/// sandbox's noise leaves of a single run (`NOISE.md`).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// host / count / sim.
    pub kind: Kind,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Same-seed regression bound (share of the baseline).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    kind: Kind,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        kind,
        unit,
        better,
        bound,
    }
}

/// The eight end-to-end metrics, same names on every workload.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("loads_per_s", Kind::Host, "1/s", Better::Higher, 0.25),
    e2e("setup_s", Kind::Host, "s", Better::Lower, 0.25),
    e2e(
        "alloc_bytes_per_load",
        Kind::Count,
        "B",
        Better::Lower,
        0.01,
    ),
    e2e("allocs_per_load", Kind::Count, "1", Better::Lower, 0.01),
    e2e("peak_live_mib", Kind::Count, "MiB", Better::Lower, 0.02),
    e2e("ok_share", Kind::Sim, "share", Better::Higher, 0.0),
    e2e("sim_plt_p50_ms", Kind::Sim, "sim_ms", Better::Lower, 0.005),
    e2e("sim_plt_tail_ms", Kind::Sim, "sim_ms", Better::Lower, 0.005),
];

/// By what share of `base` the value `new` is worse (negative when it
/// is better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Higher => base - new,
        Better::Lower => new - base,
    };
    if base == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

/// Applies the bounds table to two sets of end-to-end values of one
/// workload. `lookup` maps a metric name to `(baseline, candidate)`;
/// a metric missing on either side is itself a violation.
pub fn compare_end_to_end(
    workload: &str,
    lookup: impl Fn(&str) -> Option<(f64, f64)>,
) -> Vec<String> {
    let mut out = Vec::new();
    for m in END_TO_END {
        match lookup(m.name) {
            None => out.push(format!(
                "{workload} {}: missing from one of the results",
                m.name
            )),
            Some((base, new)) => {
                let worse = worsening(m.better, base, new);
                if worse > m.bound {
                    out.push(format!(
                        "{workload} {}: {base} -> {new} is {:.3}% worse, bound {:.3}%",
                        m.name,
                        worse * 100.0,
                        m.bound * 100.0
                    ));
                }
            }
        }
    }
    out
}

/// Count and sim values must not differ between repetitions.
pub fn reps_identical<'a>(reps: impl IntoIterator<Item = &'a RepFacts>) -> Vec<String> {
    let mut reps = reps.into_iter();
    let Some(first) = reps.next() else {
        return vec!["no repetition ran".to_string()];
    };
    reps.enumerate()
        .filter(|(_, r)| *r != first)
        .map(|(i, _)| {
            format!(
                "count/sim values of repetition {} differ from repetition 0",
                i + 1
            )
        })
        .collect()
}

/// Every attempted load must reach a terminal result, and on the
/// steady workloads at the default seed every load must succeed.
pub fn loads_complete(facts: &RepFacts, steady: bool, seed: u64) -> Vec<String> {
    let mut out = Vec::new();
    if facts.attempted() == 0 {
        out.push("no load was attempted".to_string());
    }
    if facts.logged() != facts.attempted() {
        out.push(format!(
            "{} of {} attempted loads never reached a terminal result",
            facts.attempted() - facts.logged().min(facts.attempted()),
            facts.attempted()
        ));
    }
    if steady && seed == DEFAULT_SEED && facts.ok() != facts.attempted() {
        out.push(format!(
            "ok_share {} != 1 on a steady workload at the default seed",
            facts.ok_share()
        ));
    }
    out
}

/// What `transport_matrix` must show regardless of ScholarCloud.
#[derive(Debug, Clone, Copy)]
pub struct MatrixFacts {
    /// Native VPN median PLT (µs).
    pub vpn_p50_us: u64,
    /// Shadowsocks median PLT (µs).
    pub ss_p50_us: u64,
    /// Tor median first-visit PLT (µs).
    pub tor_first_p50_us: u64,
    /// Tor median PLT over all loads (µs).
    pub tor_p50_us: u64,
    /// Native VPN packet-loss rate.
    pub vpn_plr: f64,
    /// Shadowsocks packet-loss rate.
    pub ss_plr: f64,
}

/// The paper-shape orderings that do not involve ScholarCloud.
pub fn matrix_orderings(m: &MatrixFacts) -> Vec<String> {
    let mut out = Vec::new();
    if m.vpn_p50_us >= m.ss_p50_us {
        out.push(format!(
            "VPN PLT {} us is not below Shadowsocks PLT {} us",
            m.vpn_p50_us, m.ss_p50_us
        ));
    }
    if (m.tor_first_p50_us as f64) <= 1.8 * m.tor_p50_us as f64 {
        out.push(format!(
            "Tor first-visit PLT {} us is not 1.8x its overall median {} us",
            m.tor_first_p50_us, m.tor_p50_us
        ));
    }
    if m.ss_plr <= m.vpn_plr {
        out.push(format!(
            "Shadowsocks PLR {} is not above VPN PLR {}",
            m.ss_plr, m.vpn_plr
        ));
    }
    out
}

/// What `sc_ops_incident` must show for the failure path to have run.
#[derive(Debug, Clone, Copy)]
pub struct IncidentFacts {
    /// Failover decisions the domestic proxy made.
    pub failovers: u64,
    /// SLO alerts fired.
    pub slo_fired: u64,
    /// SLOs still firing when the run ended.
    pub slo_firing_at_end: u64,
    /// Completed loads.
    pub completed: u64,
    /// Completed loads whose trace stitched across tiers.
    pub stitched: u64,
}

/// The incident must exercise failover, fire and resolve an alert, and
/// stitch every completed load.
pub fn incident_exercised(f: &IncidentFacts) -> Vec<String> {
    let mut out = Vec::new();
    if f.failovers == 0 {
        out.push("the incident produced no failover".to_string());
    }
    if f.slo_fired == 0 {
        out.push("the incident fired no SLO alert".to_string());
    } else if f.slo_firing_at_end > 0 {
        out.push(format!(
            "{} SLO alert(s) never resolved",
            f.slo_firing_at_end
        ));
    }
    if f.completed == 0 || f.stitched != f.completed {
        out.push(format!(
            "{} of {} completed loads stitched",
            f.stitched, f.completed
        ));
    }
    out
}

/// What `obs_trace_replay` must reproduce from its capture runs.
#[derive(Debug, Clone, Copy)]
pub struct ReplayCheck {
    /// Loads the capture runs logged.
    pub capture_loads: u64,
    /// Loads the analyzer reconstructed per pass.
    pub replay_loads: u64,
    /// Median PLT of the capture runs (µs).
    pub capture_p50_us: u64,
    /// Median PLT the analyzer reconstructed (µs).
    pub replay_p50_us: u64,
}

/// The analyzer's reconstruction must equal what the capture measured.
pub fn replay_matches_capture(r: &ReplayCheck) -> Vec<String> {
    let mut out = Vec::new();
    if r.replay_loads != r.capture_loads {
        out.push(format!(
            "the analyzer reconstructed {} loads, the capture runs logged {}",
            r.replay_loads, r.capture_loads
        ));
    }
    if r.replay_p50_us != r.capture_p50_us {
        out.push(format!(
            "reconstructed PLT p50 {} us differs from the capture runs' {} us",
            r.replay_p50_us, r.capture_p50_us
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::{PartFacts, ReplayFacts};

    fn part(ok: u64, logged: u64) -> PartFacts {
        PartFacts {
            label: "sc",
            expected: 100,
            logged,
            ok,
            plt_us: vec![1_000; logged as usize],
            first_plt_us: Vec::new(),
            events: 5_000,
            timers: 40,
            queue_hwm: 9,
            plr_bits: 0.001f64.to_bits(),
            censor_drops: 0,
            gfw_interference: 0,
            conns: 300,
            throttled: 0,
            status_503: 0,
            client_wire_bytes: 1 << 20,
            client_loads: 10,
            cache: None,
        }
    }

    fn rep(ok: u64, logged: u64) -> RepFacts {
        RepFacts {
            parts: vec![part(ok, logged)],
            replay: None,
        }
    }

    #[test]
    fn differing_reps_are_caught() {
        assert!(reps_identical(&[rep(100, 100), rep(100, 100)]).is_empty());
        let mut off = rep(100, 100);
        off.parts[0].events += 1;
        assert_eq!(reps_identical(&[rep(100, 100), off]).len(), 1);
        assert_eq!(reps_identical(&[] as &[RepFacts]).len(), 1);
    }

    #[test]
    fn steady_failure_only_counts_at_the_default_seed() {
        assert!(loads_complete(&rep(100, 100), true, DEFAULT_SEED).is_empty());
        assert_eq!(loads_complete(&rep(99, 100), true, DEFAULT_SEED).len(), 1);
        assert!(loads_complete(&rep(99, 100), true, DEFAULT_SEED + 1).is_empty());
        assert!(loads_complete(&rep(99, 100), false, DEFAULT_SEED).is_empty());
        // A load that never terminated fails at any seed.
        assert_eq!(loads_complete(&rep(99, 99), false, 7).len(), 1);
    }

    #[test]
    fn failed_loads_count_against_ok_share() {
        let facts = rep(90, 100);
        assert_eq!(facts.ok_share(), 0.9);
        let replay = RepFacts {
            parts: Vec::new(),
            replay: Some(ReplayFacts {
                loads_per_pass: 50,
                ok_per_pass: 49,
                ..ReplayFacts::default()
            }),
        };
        assert_eq!(replay.attempted(), 50);
        assert_eq!(replay.ok_share(), 0.98);
    }

    const GOOD_MATRIX: MatrixFacts = MatrixFacts {
        vpn_p50_us: 1_046_449,
        ss_p50_us: 1_744_565,
        tor_first_p50_us: 13_000_000,
        tor_p50_us: 1_343_360,
        vpn_plr: 0.0003,
        ss_plr: 0.0084,
    };

    #[test]
    fn each_matrix_ordering_trips() {
        assert!(matrix_orderings(&GOOD_MATRIX).is_empty());
        let slow_vpn = MatrixFacts {
            vpn_p50_us: 2_000_000,
            ..GOOD_MATRIX
        };
        assert_eq!(matrix_orderings(&slow_vpn).len(), 1);
        let warm_tor = MatrixFacts {
            tor_first_p50_us: 2_000_000,
            ..GOOD_MATRIX
        };
        assert_eq!(matrix_orderings(&warm_tor).len(), 1);
        let clean_ss = MatrixFacts {
            ss_plr: 0.0002,
            ..GOOD_MATRIX
        };
        assert_eq!(matrix_orderings(&clean_ss).len(), 1);
    }

    const GOOD_INCIDENT: IncidentFacts = IncidentFacts {
        failovers: 117,
        slo_fired: 1,
        slo_firing_at_end: 0,
        completed: 2146,
        stitched: 2146,
    };

    #[test]
    fn each_incident_check_trips() {
        assert!(incident_exercised(&GOOD_INCIDENT).is_empty());
        assert_eq!(
            incident_exercised(&IncidentFacts {
                failovers: 0,
                ..GOOD_INCIDENT
            })
            .len(),
            1
        );
        assert_eq!(
            incident_exercised(&IncidentFacts {
                slo_fired: 0,
                ..GOOD_INCIDENT
            })
            .len(),
            1
        );
        let stuck = IncidentFacts {
            slo_firing_at_end: 1,
            ..GOOD_INCIDENT
        };
        assert_eq!(incident_exercised(&stuck).len(), 1);
        let unstitched = IncidentFacts {
            stitched: 2145,
            ..GOOD_INCIDENT
        };
        assert_eq!(incident_exercised(&unstitched).len(), 1);
    }

    #[test]
    fn each_replay_check_trips() {
        let good = ReplayCheck {
            capture_loads: 2320,
            replay_loads: 2320,
            capture_p50_us: 437_565,
            replay_p50_us: 437_565,
        };
        assert!(replay_matches_capture(&good).is_empty());
        assert_eq!(
            replay_matches_capture(&ReplayCheck {
                replay_loads: 2319,
                ..good
            })
            .len(),
            1
        );
        assert_eq!(
            replay_matches_capture(&ReplayCheck {
                replay_p50_us: 437_566,
                ..good
            })
            .len(),
            1
        );
    }

    #[test]
    fn bounds_compare_by_direction() {
        assert!((worsening(Better::Higher, 1000.0, 900.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 2.0, 2.1) - 0.05).abs() < 1e-12);
        assert!(worsening(Better::Higher, 1000.0, 1100.0) < 0.0);

        let base = |name: &str| match name {
            "loads_per_s" => 1400.0,
            "setup_s" => 2.0,
            "alloc_bytes_per_load" => 386_000.0,
            "allocs_per_load" => 935.0,
            "peak_live_mib" => 88.0,
            "ok_share" => 1.0,
            "sim_plt_p50_ms" => 1075.718,
            "sim_plt_tail_ms" => 1933.956,
            _ => unreachable!("not an end-to-end metric"),
        };
        let same = |name: &str| Some((base(name), base(name)));
        assert!(compare_end_to_end("w", same).is_empty());

        // 24% slower passes, 26% slower does not.
        let slower = |by: f64| {
            move |name: &str| {
                let b = base(name);
                Some((
                    b,
                    if name == "loads_per_s" {
                        b * (1.0 - by)
                    } else {
                        b
                    },
                ))
            }
        };
        assert!(compare_end_to_end("w", slower(0.24)).is_empty());
        assert_eq!(compare_end_to_end("w", slower(0.26)).len(), 1);

        // ok_share has zero tolerance: one failed load in 2400 fails.
        let one_failed = |name: &str| {
            let b = base(name);
            Some((
                b,
                if name == "ok_share" {
                    2399.0 / 2400.0
                } else {
                    b
                },
            ))
        };
        assert_eq!(compare_end_to_end("w", one_failed).len(), 1);

        // A missing metric is a violation, not a pass.
        let missing = |name: &str| (name != "setup_s").then(|| (base(name), base(name)));
        assert_eq!(compare_end_to_end("w", missing).len(), 1);
    }
}
