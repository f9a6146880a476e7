//! The arms race: a reactive censor's fingerprint learning and probing
//! campaigns against the deployment's decoys and detection-driven
//! scheme rotations.

use std::fmt::Write as _;

use crate::analyze::gate::{Bound, Gate, Unit};
use crate::analyze::json::{object, Row, TraceEvent};
use crate::analyze::{Section, Source, TraceAnalysis};

/// Aggregate of the arms race between a reactive censor and the
/// deployment's defenses: the censor's fingerprint learning and probing
/// campaigns (`gfw/adaptive` + `gfw/probe` events) against the
/// defense's decoy deflections and detection-driven scheme rotations
/// (`scholarcloud/remote` auth failures, `scholarcloud/adaptive`
/// rotations).
#[derive(Debug, Clone, Default)]
pub struct AdaptiveStats {
    /// Cover fingerprints the censor promoted to blockable signatures.
    pub signatures_learned: u64,
    /// Learned signatures that expired unrefreshed (the rotation
    /// defense starving the censor's rule set).
    pub signatures_expired: u64,
    /// Probing campaigns launched against suspect servers.
    pub campaigns: u64,
    /// Probe waves queued by campaigns.
    pub probe_waves: u64,
    /// Probes the censor actually launched (campaign and suspect-driven
    /// alike).
    pub probes_launched: u64,
    /// Launched probes that replayed a captured preamble.
    pub probes_replayed: u64,
    /// Probe verdicts that confirmed a server as a proxy.
    pub probes_confirmed: u64,
    /// Probe verdicts that cleared a server as innocent.
    pub probes_innocent: u64,
    /// Hostile connections the deployment answered with a decoy
    /// (remote-side auth failures: garbage, bad MACs, replays).
    pub probes_deflected: u64,
    /// Servers the adaptive censor escalated to the IP blacklist.
    pub blacklisted: u64,
    /// Per-region enforcement drift re-rolls observed.
    pub region_rolls: u64,
    /// Detection-driven scheme rotations the domestic proxy performed.
    pub rotations: u64,
    /// Non-HTTP garbage the domestic proxy decoyed instead of aborting.
    pub domestic_decoys: u64,
    /// When the censor first learned a signature (µs from t = 0), if
    /// ever — the time-to-detection headline number.
    pub first_detection_us: Option<u64>,
    /// When the first probing campaign started (µs), if any.
    pub first_campaign_us: Option<u64>,
}

impl AdaptiveStats {
    /// Whether any adaptive-censor (or rotation-defense) event appeared
    /// in the trace. Plain suspect probing does not count: pre-adaptive
    /// traces keep rendering exactly as before.
    pub fn any(&self) -> bool {
        self.signatures_learned
            + self.signatures_expired
            + self.campaigns
            + self.probe_waves
            + self.blacklisted
            + self.region_rolls
            + self.rotations
            > 0
    }

    /// Fraction of launched probes that came back `confirmed` — the
    /// censor's hit rate against the deployment. `None` when the trace
    /// carries no probe launches.
    pub fn detection_rate(&self) -> Option<f64> {
        if self.probes_launched == 0 {
            return None;
        }
        Some(self.probes_confirmed as f64 / self.probes_launched as f64)
    }
}

impl TraceAnalysis {
    /// Availability restricted to page loads that finished at or after
    /// the censor's first probing campaign — what users experienced
    /// while under active attack. `None` when the trace carries no
    /// campaign or no load finished after it started.
    pub fn availability_under_campaign(&self) -> Option<f64> {
        self.availability_since(self.adaptive.first_campaign_us?)
    }
}

const GATES: &[Gate] = &[
    // Share of the censor's active probes that confirmed a proxy (the
    // arms-race gate: a probe-resistant remote must classify as an
    // innocent web server).
    Gate {
        flag: "--max-detection-rate",
        threshold: Some((Unit::Fraction, Bound::AtMost)),
        what: "probe detection rate",
        metric: |a| a.adaptive.detection_rate(),
        undefined: "no active probes in trace, detection rate undefined",
        hint: " (active probes are confirming the proxy)",
    },
    // Share of page loads finishing after the censor's first probing
    // campaign that still succeeded.
    Gate {
        flag: "--min-availability-under-campaign",
        threshold: Some((Unit::Fraction, Bound::AtLeast)),
        what: "availability under campaign",
        metric: |a| a.availability_under_campaign(),
        undefined: "no probing campaign in trace (or no load finished after it), \
                    availability under campaign undefined",
        hint: "",
    },
];

impl Section for AdaptiveStats {
    fn vocabulary(&self) -> &'static [Source] {
        // The reactive censor: fingerprint learning, probing campaigns,
        // regional drift, and blacklist escalation.
        const CENSOR: &[&str] = &[
            "signature_learned",
            "signature_expired",
            "campaign",
            "probe_wave",
            "region_drift",
            "blacklisted",
        ];
        &[
            ("gfw", "adaptive", CENSOR),
            // Active-probe traffic (both the pre-adaptive suspect probes
            // and adaptive campaign waves land here).
            ("gfw", "probe", &["launched", "verdict"]),
            // Defense side: remote decoy deflections, the domestic
            // proxy's detection-driven rotations (an ops-driven
            // `scheme/rotate` is not one), and its own decoys.
            ("scholarcloud", "remote", &["auth_fail"]),
            ("scholarcloud", "adaptive", &["rotate"]),
            ("scholarcloud", "domestic", &["decoy"]),
        ]
    }

    fn ingest(&mut self, ev: &TraceEvent<'_>) {
        match &*ev.name {
            "signature_learned" => {
                self.signatures_learned += 1;
                self.first_detection_us.get_or_insert(ev.t_us);
            }
            "signature_expired" => self.signatures_expired += 1,
            "campaign" => {
                self.campaigns += 1;
                self.first_campaign_us.get_or_insert(ev.t_us);
            }
            "probe_wave" => self.probe_waves += 1,
            "region_drift" => self.region_rolls += 1,
            "blacklisted" => self.blacklisted += 1,
            "launched" => {
                self.probes_launched += 1;
                if ev.get_u64("replay").is_some() {
                    self.probes_replayed += 1;
                }
            }
            "verdict" => match ev.get_str("verdict") {
                Some("confirmed") => self.probes_confirmed += 1,
                Some("innocent") => self.probes_innocent += 1,
                _ => {}
            },
            "auth_fail" => self.probes_deflected += 1,
            "rotate" => self.rotations += 1,
            _ => self.domestic_decoys += 1,
        }
    }

    fn report(&self, a: &TraceAnalysis, out: &mut String) {
        if !self.any() {
            return;
        }
        out.push_str("\nadaptive censor (reactive GFW):\n");
        let _ = writeln!(
            out,
            "  detection:    {}",
            match self.first_detection_us {
                Some(us) => format!(
                    "first signature at {:.1} s ({} learned, {} expired)",
                    us as f64 / 1e6,
                    self.signatures_learned,
                    self.signatures_expired
                ),
                None => "never fingerprinted".to_string(),
            },
        );
        let _ = writeln!(
            out,
            "  campaigns:    {} launched, {} probe waves, {} region drift rolls",
            self.campaigns, self.probe_waves, self.region_rolls
        );
        let _ = writeln!(
            out,
            "  probes:       {} launched ({} replayed), {} confirmed / {} innocent, {} deflected by decoys",
            self.probes_launched,
            self.probes_replayed,
            self.probes_confirmed,
            self.probes_innocent,
            self.probes_deflected,
        );
        let _ = writeln!(
            out,
            "  detect rate:  {}",
            self.detection_rate().map_or("n/a (no probes launched)".to_string(), |r| {
                format!("{:.1}% of probes confirmed a proxy", r * 100.0)
            }),
        );
        let _ = writeln!(
            out,
            "  defense:      {} scheme rotations, {} domestic decoys, {} endpoints blacklisted",
            self.rotations, self.domestic_decoys, self.blacklisted
        );
        let _ = writeln!(
            out,
            "  availability: {}",
            a.availability_under_campaign().map_or("n/a (no campaign in trace)".to_string(), |av| {
                format!("{:.1}% of loads finishing after first campaign succeeded", av * 100.0)
            }),
        );
    }

    fn json(&self, a: &TraceAnalysis) -> Vec<Row> {
        let counters = counters!(
            self, signatures_learned, signatures_expired, campaigns, probe_waves, probes_launched,
            probes_replayed, probes_confirmed, probes_innocent, probes_deflected, blacklisted,
            region_rolls, rotations, domestic_decoys
        );
        let detection = [("time_to_detection_us", self.first_detection_us.into())];
        vec![
            ("detection_rate", self.detection_rate().into()),
            ("availability_under_campaign", a.availability_under_campaign().into()),
            ("adaptive", object(counters.into_iter().chain(detection))),
        ]
    }

    fn gates(&self) -> &'static [Gate] {
        GATES
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze::json::{parse_json, Json};
    use crate::analyze::tests::{analyzed, reparsed, traced_pair};
    use crate::analyze::{render_json, render_report};
    use crate::event::{Event, Level};

    /// Adaptive traces: fingerprint/campaign/probe events on the censor
    /// side plus rotation/decoy events on the defense side aggregate
    /// into `AdaptiveStats`, availability-under-campaign counts only
    /// loads finishing after the first campaign, the report grows an
    /// adaptive section, and the JSON carries the v5 block.
    #[test]
    fn adaptive_events_aggregate_and_availability_tracks_campaign() {
        let gfw = |t, target: &'static str, name: &'static str, extra: &[(&'static str, &str)]| {
            let mut ev = Event::new(t, Level::Info, "gfw", target, name);
            for (k, v) in extra {
                ev = ev.field(k, *v);
            }
            reparsed(&ev)
        };
        let sc = |t, target: &'static str, name: &'static str, extra: &[(&'static str, &str)]| {
            let mut ev = Event::new(t, Level::Info, "scholarcloud", target, name);
            for (k, v) in extra {
                ev = ev.field(k, *v);
            }
            reparsed(&ev)
        };
        let mut evs = Vec::new();
        // Two loads finish before the campaign (one fails — ignored by
        // the campaign metric), then one ok + one failed finish after.
        evs.extend(traced_pair(1, "web", "page_load", 0, 900_000, 1, None, true));
        evs.extend(traced_pair(2, "web", "page_load", 0, 950_000, 2, None, false));
        evs.extend(traced_pair(3, "web", "page_load", 1_000_000, 2_100_000, 3, None, true));
        evs.extend(traced_pair(4, "web", "page_load", 1_000_000, 2_200_000, 4, None, false));
        evs.push(gfw(500_000, "adaptive", "signature_learned", &[("signature", "47455420"), ("flows", "6")]));
        evs.push(gfw(600_000, "adaptive", "campaign", &[("server", "99.0.0.40:9443"), ("score", "7")]));
        evs.push(gfw(600_000, "adaptive", "probe_wave", &[("wave", "0")]));
        evs.push(
            reparsed(
                &Event::new(610_000, Level::Info, "gfw", "probe", "launched")
                    .field("server", "99.0.0.40:9443")
                    .field("replay", 1u64),
            ),
        );
        evs.push(gfw(620_000, "probe", "verdict", &[("verdict", "innocent")]));
        evs.push(gfw(700_000, "probe", "launched", &[("server", "99.0.0.40:9443")]));
        evs.push(gfw(710_000, "probe", "verdict", &[("verdict", "confirmed")]));
        evs.push(gfw(720_000, "adaptive", "blacklisted", &[("server", "99.0.0.40:9443")]));
        evs.push(gfw(800_000, "adaptive", "region_drift", &[("region", "1"), ("enforcing", "0")]));
        evs.push(gfw(900_000, "adaptive", "signature_expired", &[("signature", "47455420")]));
        evs.push(sc(615_000, "remote", "auth_fail", &[("reason", "replayed_preamble")]));
        evs.push(sc(650_000, "adaptive", "rotate", &[("from", "bytemap"), ("to", "xor_rolling"), ("evidence", "3")]));
        evs.push(sc(660_000, "domestic", "decoy", &[("reason", "not_http")]));
        // A plain scheme rotation (ops-driven, not adaptive) must NOT
        // count toward the adaptive rotation total.
        evs.push(sc(670_000, "scheme", "rotate", &[("from", "bytemap"), ("to", "xor_rolling")]));
        let a = analyzed(&evs, 1_000_000);
        assert!(a.adaptive.any());
        assert_eq!(a.adaptive.signatures_learned, 1);
        assert_eq!(a.adaptive.signatures_expired, 1);
        assert_eq!(a.adaptive.campaigns, 1);
        assert_eq!(a.adaptive.probe_waves, 1);
        assert_eq!(a.adaptive.probes_launched, 2);
        assert_eq!(a.adaptive.probes_replayed, 1);
        assert_eq!(a.adaptive.probes_confirmed, 1);
        assert_eq!(a.adaptive.probes_innocent, 1);
        assert_eq!(a.adaptive.probes_deflected, 1);
        assert_eq!(a.adaptive.blacklisted, 1);
        assert_eq!(a.adaptive.region_rolls, 1);
        assert_eq!(a.adaptive.rotations, 1, "ops scheme rotate must not count");
        assert_eq!(a.adaptive.domestic_decoys, 1);
        assert_eq!(a.adaptive.first_detection_us, Some(500_000));
        assert_eq!(a.adaptive.detection_rate(), Some(0.5));
        // Only the two loads that finished at/after t=600000 count:
        // one ok, one failed → 50%.
        let av = a.availability_under_campaign().unwrap();
        assert!((av - 0.5).abs() < 1e-9, "{av}");
        let report = render_report(&a);
        assert!(report.contains("adaptive censor (reactive GFW)"), "{report}");
        assert!(report.contains("first signature at 0.5 s"), "{report}");
        let v = parse_json(&render_json(&a)).unwrap();
        let aj = v.get("adaptive").expect("adaptive object");
        assert_eq!(aj.get("probes_launched").and_then(Json::as_u64), Some(2));
        assert_eq!(aj.get("rotations").and_then(Json::as_u64), Some(1));
        assert_eq!(aj.get("time_to_detection_us").and_then(Json::as_u64), Some(500_000));
        assert!((v.get("detection_rate").and_then(Json::as_f64).unwrap() - 0.5).abs() < 1e-9);
        assert!(
            (v.get("availability_under_campaign").and_then(Json::as_f64).unwrap() - 0.5)
                .abs()
                < 1e-9
        );
        // A trace without adaptive events renders no adaptive section.
        let empty = analyzed(&[], 1_000_000);
        assert!(!empty.adaptive.any());
        assert!(!render_report(&empty).contains("adaptive censor"));
    }
}
