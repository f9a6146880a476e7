//! GFW configuration: blocklists and per-class interference policies.

use sc_simnet::addr::Addr;

use crate::classify::TrafficClass;

/// How the GFW interferes with a classified flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// Probability that each packet of the flow is silently dropped
    /// (throttling — what the paper measures as elevated PLR).
    pub drop_prob: f64,
    /// Inject a spoofed RST at the moment of classification (connection
    /// reset, the classic keyword-filtering response).
    pub rst: bool,
    /// Drop every packet (hard IP-style block).
    pub block: bool,
}

impl Policy {
    /// No interference.
    pub const ALLOW: Policy = Policy { drop_prob: 0.0, rst: false, block: false };

    /// Reset on detection.
    pub const RESET: Policy = Policy { drop_prob: 0.0, rst: true, block: false };

    /// Throttle with the given per-packet drop probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn throttle(p: f64) -> Policy {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Policy { drop_prob: p, rst: false, block: false }
    }

    /// Whether this policy does anything at all.
    pub fn interferes(&self) -> bool {
        self.block || self.rst || self.drop_prob > 0.0
    }
}

/// Per-class interference policies, calibrated to the paper's Figure 5c:
/// Tor/meek 4.4% PLR, Shadowsocks 0.77%, VPNs ≈ baseline (0.2%), blinded
/// ScholarCloud ≈ baseline (0.22%).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassPolicies {
    /// Confirmed meek/Tor flows.
    pub meek: Policy,
    /// Confirmed Shadowsocks(-like) proxy flows.
    pub shadowsocks: Policy,
    /// PPTP / L2TP flows (registered VPNs are legal as of 2015, §1 fn. 2).
    pub vpn: Policy,
    /// OpenVPN flows.
    pub openvpn: Policy,
    /// Flows matching a learned byte signature (rule updates).
    pub learned_signature: Policy,
    /// High-entropy flows suspected but not yet confirmed by probing.
    pub suspect: Policy,
}

impl Default for ClassPolicies {
    fn default() -> Self {
        ClassPolicies {
            // Calibration targets (paper Fig. 5c): these GFW-added drop
            // probabilities stack on ~0.2% baseline border loss.
            meek: Policy::throttle(0.085),
            shadowsocks: Policy::throttle(0.011),
            vpn: Policy::ALLOW,
            openvpn: Policy::ALLOW,
            learned_signature: Policy::throttle(0.03),
            suspect: Policy::ALLOW, // interference only after confirmation
        }
    }
}

/// Full GFW configuration.
#[derive(Debug, Clone)]
pub struct GfwConfig {
    /// Blocked destination prefixes (e.g. Google's ranges).
    pub ip_blacklist: Vec<(Addr, u8)>,
    /// Domain suffixes whose DNS queries are poisoned.
    pub dns_blocklist: Vec<String>,
    /// TLS SNI suffixes that trigger connection reset.
    pub sni_blocklist: Vec<String>,
    /// Keywords in plaintext HTTP that trigger connection reset.
    pub http_keywords: Vec<String>,
    /// Per-class interference.
    pub policies: ClassPolicies,
    /// Whether the active prober confirms suspects (can be disabled for
    /// ablations).
    pub active_probing: bool,
    /// Byte signatures learned from rule updates; flows whose early bytes
    /// contain one are treated as proxies.
    pub learned_signatures: Vec<Vec<u8>>,
    /// The reactive censor (suspicion scoring, fingerprint learning,
    /// probing campaigns, regional drift). `None` — the default, and
    /// what [`china_2017`](Self::china_2017) ships — keeps the GFW the
    /// static rule set every pre-adaptive trace was pinned against.
    pub adaptive: Option<crate::adaptive::AdaptiveConfig>,
}

impl Default for GfwConfig {
    fn default() -> Self {
        GfwConfig {
            ip_blacklist: Vec::new(),
            dns_blocklist: Vec::new(),
            sni_blocklist: Vec::new(),
            http_keywords: Vec::new(),
            policies: ClassPolicies::default(),
            active_probing: true,
            learned_signatures: Vec::new(),
            adaptive: None,
        }
    }
}

impl GfwConfig {
    /// The deployment modeled in the paper: google.com blocked at the IP,
    /// DNS, and SNI layers; Falun-style keyword filtering on plaintext
    /// HTTP; probing enabled.
    pub fn china_2017(google_prefix: (Addr, u8)) -> Self {
        GfwConfig {
            ip_blacklist: vec![google_prefix],
            dns_blocklist: vec!["google.com".into()],
            sni_blocklist: vec!["google.com".into()],
            http_keywords: vec!["falun".into(), "tiananmen-1989".into()],
            ..Default::default()
        }
    }

    /// Whether `addr` is inside a blacklisted prefix.
    pub fn ip_blocked(&self, addr: Addr) -> bool {
        self.ip_blacklist
            .iter()
            .any(|(prefix, len)| addr.in_prefix(*prefix, *len))
    }

    /// Whether a domain matches a suffix list (ASCII case-insensitively,
    /// on label boundaries).
    pub fn domain_matches(list: &[String], name: &str) -> bool {
        let name = name.as_bytes();
        list.iter().any(|d| {
            let Some(rest) = name.len().checked_sub(d.len()) else { return false };
            name[rest..].eq_ignore_ascii_case(d.as_bytes())
                && (rest == 0 || name[rest - 1] == b'.')
        })
    }

    /// The policy applied to a traffic class.
    pub fn policy_for(&self, class: TrafficClass) -> Policy {
        match class {
            TrafficClass::Meek => self.policies.meek,
            TrafficClass::ShadowsocksConfirmed => self.policies.shadowsocks,
            TrafficClass::Pptp | TrafficClass::L2tp => self.policies.vpn,
            TrafficClass::OpenVpn => self.policies.openvpn,
            TrafficClass::LearnedSignature => self.policies.learned_signature,
            TrafficClass::Suspect => self.policies.suspect,
            TrafficClass::Unknown | TrafficClass::Http | TrafficClass::Tls => Policy::ALLOW,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_blacklist_prefix_match() {
        let cfg = GfwConfig::china_2017((Addr::new(99, 2, 0, 0), 16));
        assert!(cfg.ip_blocked(Addr::new(99, 2, 7, 7)));
        assert!(!cfg.ip_blocked(Addr::new(99, 3, 0, 1)));
    }

    #[test]
    fn domain_suffix_match() {
        let list = vec!["google.com".to_string()];
        assert!(GfwConfig::domain_matches(&list, "google.com"));
        assert!(GfwConfig::domain_matches(&list, "Scholar.Google.com"));
        assert!(!GfwConfig::domain_matches(&list, "notgoogle.com"));
        assert!(!GfwConfig::domain_matches(&list, "google.com.cn.fake.example"));
        assert!(!GfwConfig::domain_matches(&list, "com"));
        // A list entry's own case does not matter either.
        assert!(GfwConfig::domain_matches(&["Google.COM".to_string()], "scholar.google.com"));
    }

    #[test]
    fn default_policies_match_calibration() {
        let p = ClassPolicies::default();
        assert!(p.meek.drop_prob > p.shadowsocks.drop_prob);
        assert!(!p.vpn.interferes());
        assert!(!p.openvpn.interferes());
        assert!(!p.suspect.interferes());
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn bad_throttle_panics() {
        let _ = Policy::throttle(1.0);
    }
}
