//! Proxy auto-config (PAC) files: generation and evaluation.
//!
//! ScholarCloud's entire client-side footprint is one browser setting
//! pointing at a PAC file (§3). The PAC diverts only a *whitelist* of
//! legal-but-blocked domains to the domestic proxy tier; everything else
//! goes DIRECT. With a fleet of domestic proxies the PAC returns an
//! *ordered fallback list* — `PROXY a; PROXY b; DIRECT` — exactly as a
//! real browser would consume it: the browser tries each entry in order
//! and marks dead ones. We generate real JavaScript PAC text and
//! evaluate the restricted dialect we generate.

use sc_simnet::addr::SocketAddr;

/// A routing decision for one URL/host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyDecision {
    /// Connect directly.
    Direct,
    /// Connect through the given HTTP proxy.
    Proxy(SocketAddr),
}

/// A PAC policy: whitelisted domain suffixes routed to an ordered list
/// of fallback proxies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacFile {
    /// Domain suffixes diverted to the proxies (lowercase, no leading dot).
    pub whitelist: Vec<String>,
    /// Ordered fallback list: the browser tries these in order, then
    /// DIRECT. Never empty.
    pub proxies: Vec<SocketAddr>,
}

impl PacFile {
    /// Creates a single-proxy policy.
    pub fn new(whitelist: impl IntoIterator<Item = impl Into<String>>, proxy: SocketAddr) -> Self {
        Self::with_fallbacks(whitelist, vec![proxy])
    }

    /// Creates a policy with an ordered proxy fallback list.
    ///
    /// # Panics
    ///
    /// Panics if `proxies` is empty — an all-DIRECT policy is expressed
    /// with an empty whitelist, not an empty proxy list.
    pub fn with_fallbacks(
        whitelist: impl IntoIterator<Item = impl Into<String>>,
        proxies: Vec<SocketAddr>,
    ) -> Self {
        assert!(!proxies.is_empty(), "PAC proxy list must not be empty");
        let whitelist = whitelist
            .into_iter()
            .map(|d| d.into().to_ascii_lowercase())
            .collect();
        PacFile { whitelist, proxies }
    }

    /// Decides how `host` should be reached (primary proxy only).
    ///
    /// # Examples
    ///
    /// ```
    /// use sc_netproto::pac::{PacFile, ProxyDecision};
    /// use sc_simnet::addr::{Addr, SocketAddr};
    ///
    /// let proxy = SocketAddr::new(Addr::new(10, 1, 0, 1), 8080);
    /// let pac = PacFile::new(["scholar.google.com"], proxy);
    /// assert_eq!(pac.decide("scholar.google.com"), ProxyDecision::Proxy(proxy));
    /// assert_eq!(pac.decide("baidu.com"), ProxyDecision::Direct);
    /// ```
    pub fn decide(&self, host: &str) -> ProxyDecision {
        if whitelisted(&self.whitelist, host) {
            ProxyDecision::Proxy(self.proxies[0])
        } else {
            ProxyDecision::Direct
        }
    }

    /// The full ordered fallback list for `host`: every proxy in order,
    /// or empty for a DIRECT host. Mirrors how a browser walks a
    /// `PROXY a; PROXY b; DIRECT` return value.
    pub fn candidates(&self, host: &str) -> &[SocketAddr] {
        if whitelisted(&self.whitelist, host) {
            &self.proxies
        } else {
            &[]
        }
    }

    /// Renders the policy as JavaScript PAC text.
    pub fn to_javascript(&self) -> String {
        let list = self
            .proxies
            .iter()
            .map(|p| format!("PROXY {}:{}", p.addr, p.port))
            .collect::<Vec<_>>()
            .join("; ");
        let mut out = String::from("function FindProxyForURL(url, host) {\n");
        for domain in &self.whitelist {
            out.push_str(&format!(
                "    if (dnsDomainIs(host, \"{domain}\")) return \"{list}; DIRECT\";\n",
            ));
        }
        out.push_str("    return \"DIRECT\";\n}\n");
        out
    }

    /// Parses PAC text in the dialect produced by [`PacFile::to_javascript`].
    ///
    /// The return-value list is parsed the way a browser would: entries
    /// split on `;`, blank entries (trailing semicolons) skipped,
    /// duplicate proxies deduplicated keeping the first occurrence, and
    /// a terminal `DIRECT` allowed. A rule whose list contains no proxy
    /// at all (empty or `DIRECT`-only) yields [`PacParseError::NoRules`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive error for files outside the supported dialect.
    pub fn parse(text: &str) -> Result<Self, PacParseError> {
        let mut whitelist = Vec::new();
        let mut proxies: Option<Vec<SocketAddr>> = None;
        for line in text.lines() {
            let line = line.trim();
            let Some(rest) = line.strip_prefix("if (dnsDomainIs(host, \"") else { continue };
            let Some((domain, rest)) = rest.split_once("\")) return \"") else {
                return Err(PacParseError::BadRule(line.to_string()));
            };
            let Some(list) = rest.strip_suffix("\";") else {
                return Err(PacParseError::BadRule(line.to_string()));
            };
            let mut rule_proxies: Vec<SocketAddr> = Vec::new();
            for entry in list.split(';') {
                let entry = entry.trim();
                if entry.is_empty() || entry == "DIRECT" {
                    // Trailing semicolons and the DIRECT terminal.
                    continue;
                }
                let Some(endpoint) = entry.strip_prefix("PROXY ") else {
                    return Err(PacParseError::BadRule(line.to_string()));
                };
                let p = parse_endpoint(endpoint)?;
                if !rule_proxies.contains(&p) {
                    rule_proxies.push(p);
                }
            }
            if rule_proxies.is_empty() {
                // An empty or DIRECT-only list names no proxy: the rule
                // is a no-op and the file carries no routing policy.
                return Err(PacParseError::NoRules);
            }
            match &proxies {
                None => proxies = Some(rule_proxies),
                Some(existing) if *existing == rule_proxies => {}
                Some(_) => return Err(PacParseError::MultipleProxies),
            }
            whitelist.push(domain.to_ascii_lowercase());
        }
        let proxies = proxies.ok_or(PacParseError::NoRules)?;
        Ok(PacFile { whitelist, proxies })
    }
}

fn parse_endpoint(endpoint: &str) -> Result<SocketAddr, PacParseError> {
    let Some((addr_str, port_str)) = endpoint.rsplit_once(':') else {
        return Err(PacParseError::BadEndpoint(endpoint.to_string()));
    };
    let octets: Vec<u8> = addr_str
        .split('.')
        .map(|o| o.parse::<u8>())
        .collect::<Result<_, _>>()
        .map_err(|_| PacParseError::BadEndpoint(endpoint.to_string()))?;
    if octets.len() != 4 {
        return Err(PacParseError::BadEndpoint(endpoint.to_string()));
    }
    let port: u16 = port_str
        .parse()
        .map_err(|_| PacParseError::BadEndpoint(endpoint.to_string()))?;
    Ok(SocketAddr::new(
        sc_simnet::addr::Addr::new(octets[0], octets[1], octets[2], octets[3]),
        port,
    ))
}

/// Errors parsing PAC text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacParseError {
    /// A rule line did not match the supported dialect.
    BadRule(String),
    /// A proxy endpoint was malformed.
    BadEndpoint(String),
    /// Rules pointed at more than one proxy list.
    MultipleProxies,
    /// No proxy rules were found.
    NoRules,
}

impl core::fmt::Display for PacParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PacParseError::BadRule(l) => write!(f, "unsupported PAC rule: {l:?}"),
            PacParseError::BadEndpoint(e) => write!(f, "bad proxy endpoint: {e:?}"),
            PacParseError::MultipleProxies => write!(f, "multiple proxy lists not supported"),
            PacParseError::NoRules => write!(f, "no proxy rules found"),
        }
    }
}

impl std::error::Error for PacParseError {}

/// Whether `host` is on `whitelist`: equal to an entry or a subdomain of
/// one (`dnsDomainIs`), with `host` compared in ASCII lower case. Only
/// the host is lowercased, so an entry holding an upper-case letter
/// never matches (the PAC file lowercases its entries when it is made).
/// Compares bytes in place: nothing is allocated per host or per entry.
pub fn whitelisted(whitelist: &[String], host: &str) -> bool {
    let host = host.as_bytes();
    let lower_eq = |h: &[u8], d: &[u8]| {
        h.len() == d.len() && h.iter().zip(d).all(|(h, d)| h.to_ascii_lowercase() == *d)
    };
    whitelist.iter().map(|d| d.as_bytes()).any(|d| match host.len().checked_sub(d.len()) {
        Some(0) => lower_eq(host, d),
        Some(dot) => host[dot - 1] == b'.' && lower_eq(&host[dot..], d),
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_simnet::addr::Addr;

    fn proxy() -> SocketAddr {
        SocketAddr::new(Addr::new(10, 1, 0, 1), 8080)
    }

    fn proxy2() -> SocketAddr {
        SocketAddr::new(Addr::new(10, 1, 0, 2), 8080)
    }

    #[test]
    fn whitelist_matching_includes_subdomains() {
        let pac = PacFile::new(["google.com"], proxy());
        assert_eq!(pac.decide("google.com"), ProxyDecision::Proxy(proxy()));
        assert_eq!(pac.decide("scholar.GOOGLE.com"), ProxyDecision::Proxy(proxy()));
        // Suffix must be on a label boundary.
        assert_eq!(pac.decide("notgoogle.com"), ProxyDecision::Direct);
        assert_eq!(pac.decide("baidu.com"), ProxyDecision::Direct);
    }

    #[test]
    fn generate_then_parse_roundtrip() {
        let pac = PacFile::new(["scholar.google.com", "www.google.com"], proxy());
        let js = pac.to_javascript();
        assert!(js.contains("FindProxyForURL"));
        assert!(js.contains("PROXY 10.1.0.1:8080"));
        assert!(js.contains("return \"DIRECT\""));
        let parsed = PacFile::parse(&js).unwrap();
        assert_eq!(parsed, pac);
    }

    #[test]
    fn fallback_list_roundtrips_in_order() {
        let pac = PacFile::with_fallbacks(["scholar.google.com"], vec![proxy(), proxy2()]);
        let js = pac.to_javascript();
        assert!(js.contains("PROXY 10.1.0.1:8080; PROXY 10.1.0.2:8080; DIRECT"));
        let parsed = PacFile::parse(&js).unwrap();
        assert_eq!(parsed, pac);
        assert_eq!(parsed.candidates("scholar.google.com"), &[proxy(), proxy2()]);
        assert_eq!(parsed.candidates("baidu.com"), &[] as &[SocketAddr]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(PacFile::parse("function f() {}").unwrap_err(), PacParseError::NoRules);
        let bad = "if (dnsDomainIs(host, \"a.com\")) return \"PROXY nonsense\";";
        assert!(matches!(
            PacFile::parse(bad).unwrap_err(),
            PacParseError::BadEndpoint(_)
        ));
    }

    #[test]
    fn parse_rejects_multiple_proxies() {
        let text = concat!(
            "if (dnsDomainIs(host, \"a.com\")) return \"PROXY 10.0.0.1:80\";\n",
            "if (dnsDomainIs(host, \"b.com\")) return \"PROXY 10.0.0.2:80\";\n",
        );
        assert_eq!(PacFile::parse(text).unwrap_err(), PacParseError::MultipleProxies);
    }

    #[test]
    fn parse_rejects_reordered_fallback_lists() {
        // Same proxies, different order: a browser would fail over
        // differently per rule, which our single-policy model rejects.
        let text = concat!(
            "if (dnsDomainIs(host, \"a.com\")) ",
            "return \"PROXY 10.0.0.1:80; PROXY 10.0.0.2:80\";\n",
            "if (dnsDomainIs(host, \"b.com\")) ",
            "return \"PROXY 10.0.0.2:80; PROXY 10.0.0.1:80\";\n",
        );
        assert_eq!(PacFile::parse(text).unwrap_err(), PacParseError::MultipleProxies);
    }

    #[test]
    fn parse_rejects_empty_return_list() {
        let text = "if (dnsDomainIs(host, \"a.com\")) return \"\";";
        assert_eq!(PacFile::parse(text).unwrap_err(), PacParseError::NoRules);
    }

    #[test]
    fn parse_rejects_direct_only_rule() {
        let text = "if (dnsDomainIs(host, \"a.com\")) return \"DIRECT\";";
        assert_eq!(PacFile::parse(text).unwrap_err(), PacParseError::NoRules);
    }

    #[test]
    fn parse_dedups_duplicate_proxies_keeping_order() {
        let text = concat!(
            "if (dnsDomainIs(host, \"a.com\")) ",
            "return \"PROXY 10.0.0.1:80; PROXY 10.0.0.2:80; PROXY 10.0.0.1:80; DIRECT\";",
        );
        let pac = PacFile::parse(text).unwrap();
        assert_eq!(
            pac.proxies,
            vec![
                SocketAddr::new(Addr::new(10, 0, 0, 1), 80),
                SocketAddr::new(Addr::new(10, 0, 0, 2), 80),
            ]
        );
    }

    #[test]
    fn parse_tolerates_trailing_semicolons() {
        let text = "if (dnsDomainIs(host, \"a.com\")) return \"PROXY 10.0.0.1:80;;\";";
        let pac = PacFile::parse(text).unwrap();
        assert_eq!(pac.proxies, vec![SocketAddr::new(Addr::new(10, 0, 0, 1), 80)]);
    }

    #[test]
    fn empty_whitelist_is_all_direct() {
        let pac = PacFile::new(Vec::<String>::new(), proxy());
        assert_eq!(pac.decide("anything.example"), ProxyDecision::Direct);
        assert_eq!(pac.candidates("anything.example"), &[] as &[SocketAddr]);
    }

    mod props {
        use proptest::prelude::*;

        use super::*;

        /// The formula `whitelisted` replaced: a lowercase copy of the
        /// host and one `format!` per entry.
        fn allocating(whitelist: &[String], host: &str) -> bool {
            let host = host.to_ascii_lowercase();
            whitelist.iter().any(|d| host == *d || host.ends_with(&format!(".{d}")))
        }

        /// Labels from a few letters in both cases, dots (empty labels
        /// too) and multi-byte characters.
        fn gen_name() -> impl Strategy<Value = String> {
            const CHARS: [char; 8] = ['a', 'b', 'A', 'B', '.', '.', 'é', 'É'];
            prop::collection::vec(0usize..CHARS.len(), 0..9)
                .prop_map(|picks| picks.into_iter().map(|i| CHARS[i]).collect())
        }

        proptest! {
            #[test]
            fn whitelisted_decides_as_the_allocating_formula(
                whitelist in prop::collection::vec(gen_name(), 0..4),
                host in gen_name(),
                suffix_of in any::<usize>(),
                upper in any::<bool>(),
            ) {
                prop_assert_eq!(whitelisted(&whitelist, &host), allocating(&whitelist, &host));
                // A host built on an entry, so that matches are common.
                if !whitelist.is_empty() {
                    let entry = &whitelist[suffix_of % whitelist.len()];
                    let sub = format!("{host}.{entry}");
                    let sub = if upper { sub.to_ascii_uppercase() } else { sub };
                    prop_assert_eq!(whitelisted(&whitelist, &sub), allocating(&whitelist, &sub));
                    prop_assert_eq!(whitelisted(&whitelist, entry), allocating(&whitelist, entry));
                }
            }
        }
    }
}
