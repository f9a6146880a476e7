//! ScholarCloud deployment configuration and the operator's live
//! blinding-scheme control.

use std::cell::RefCell;
use std::rc::Rc;

use sc_cache::{CacheConfig, CacheHandle};
use sc_crypto::blinding::BlindingScheme;
use sc_netproto::pac::PacFile;
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::time::SimDuration;

use crate::admission::AdmissionConfig;

/// The remote proxy's listening port.
pub const REMOTE_PORT: u16 = 8443;
/// The domestic proxy's listening port (what the PAC file points at).
pub const DOMESTIC_PORT: u16 = 8080;
/// Host header fronted in the cover preamble.
pub const FRONT_HOST: &str = "cdn.thucloud.example";

/// A live handle to the blinding scheme in force. Because the operator
/// controls both proxies, the scheme can be rotated at any time without
/// touching clients — the paper's agility argument against a censor that
/// learns one scheme's signature.
#[derive(Debug, Clone)]
pub struct SchemeHandle(Rc<RefCell<(BlindingScheme, u32)>>);

impl SchemeHandle {
    /// Starts with the given scheme at cover generation 0.
    pub fn new(scheme: BlindingScheme) -> Self {
        SchemeHandle(Rc::new(RefCell::new((scheme, 0))))
    }

    /// The scheme currently in force.
    pub fn get(&self) -> BlindingScheme {
        self.0.borrow().0
    }

    /// The cover-path generation currently in force (see
    /// `frame::CoverPath`). Stays 0 — the fixed pre-adaptive cover
    /// endpoints — until a detection-driven rotation bumps it.
    pub fn generation(&self) -> u32 {
        self.0.borrow().1
    }

    /// Sets the scheme (generation untouched).
    pub fn set(&self, scheme: BlindingScheme) {
        self.0.borrow_mut().0 = scheme;
    }

    /// Rotates to the next scheme in the rotation order.
    ///
    /// Out-of-band operator rotation with no sim clock in scope; the
    /// emitted event is stamped t_us = 0 by convention. In-sim policy
    /// rotations should use [`rotate_at`](Self::rotate_at).
    pub fn rotate(&self) -> BlindingScheme {
        self.rotate_at(0)
    }

    /// Rotates to the next scheme, stamping the event with `t_us` (the
    /// sim clock of the policy decision that triggered it). The cover
    /// generation is kept: this is the pre-adaptive operator rotation
    /// every pinned trace was recorded against.
    pub fn rotate_at(&self, t_us: u64) -> BlindingScheme {
        self.rotate_inner(t_us, false)
    }

    /// Rotates to the next scheme AND advances the cover-path
    /// generation, so the new deployment fronts an endpoint the censor
    /// has never fingerprinted. This is the detection-driven defense's
    /// rotation: a codec change alone re-uses one of finitely many
    /// covers, and an adaptive censor eventually holds a live signature
    /// for all of them.
    pub fn rotate_fresh_at(&self, t_us: u64) -> BlindingScheme {
        self.rotate_inner(t_us, true)
    }

    fn rotate_inner(&self, t_us: u64, fresh_cover: bool) -> BlindingScheme {
        let rotation = BlindingScheme::rotation();
        let cur = self.get();
        let idx = rotation.iter().position(|s| *s == cur).unwrap_or(0);
        let next = rotation[(idx + 1) % rotation.len()];
        let generation = {
            let mut inner = self.0.borrow_mut();
            inner.0 = next;
            if fresh_cover {
                inner.1 += 1;
            }
            inner.1
        };
        sc_obs::counter_add("scholarcloud.scheme_rotations", 1);
        sc_obs::event(t_us, sc_obs::Level::Info, "scholarcloud", "scheme", "rotate", |f| {
            f.field("from", format!("{cur:?}")).field("to", format!("{next:?}"));
            if fresh_cover {
                f.field("generation", u64::from(generation));
            }
        });
        next
    }
}

/// Shared interference telemetry between the proxies. The operator runs
/// both ends, so the remote's view of hostile probing is available to the
/// domestic side's rotation policy without an in-band channel — the same
/// control-plane sharing as [`SchemeHandle`].
#[derive(Debug, Clone, Default)]
pub struct InterferencePad(Rc<RefCell<InterferenceCounters>>);

/// What the pad accumulates.
#[derive(Debug, Default)]
pub struct InterferenceCounters {
    /// Connections the remote side decoyed because they replayed a
    /// previously seen preamble — the signature of an adaptive censor's
    /// probing campaign, not of a misconfigured client.
    pub probe_sightings: u64,
}

impl InterferencePad {
    /// A fresh pad with zeroed counters.
    pub fn new() -> Self {
        InterferencePad::default()
    }

    /// Records one probe sighting (remote side).
    pub fn note_probe(&self) {
        self.0.borrow_mut().probe_sightings += 1;
    }

    /// Total probe sightings so far (domestic side reads this).
    pub fn probe_sightings(&self) -> u64 {
        self.0.borrow().probe_sightings
    }
}

/// The domestic proxy's detection-driven scheme-rotation policy: rotate
/// the blinding scheme when observed interference (breaker openings plus
/// remote-side probe sightings) crosses `threshold` new units since the
/// last rotation, but never twice within `cooldown`. Rotation is driven
/// by evidence of detection, not a timer — an undetected scheme is left
/// alone indefinitely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotationPolicy {
    /// New interference units (breaker openings + probe sightings) that
    /// trigger a rotation.
    pub threshold: u64,
    /// Minimum spacing between rotations.
    pub cooldown: SimDuration,
}

impl Default for RotationPolicy {
    fn default() -> Self {
        RotationPolicy { threshold: 3, cooldown: SimDuration::from_secs(10) }
    }
}

impl Default for SchemeHandle {
    fn default() -> Self {
        SchemeHandle::new(BlindingScheme::ByteMap)
    }
}

/// Full ScholarCloud deployment parameters, shared by both proxies.
#[derive(Debug, Clone)]
pub struct ScConfig {
    /// The domestic proxy's address (inside the wall).
    pub domestic: SocketAddr,
    /// Every remote proxy the domestic side may tunnel through, in
    /// preference order (the paper's §4.2 answer to IP blacklisting:
    /// cheap cloud VMs are expendable; spin up siblings and fail over).
    pub remotes: Vec<SocketAddr>,
    /// Overload-control tunables for the domestic side (admission,
    /// fairness, retry budget).
    pub admission: AdmissionConfig,
    /// Operator shared secret (authenticates the inter-proxy channel).
    pub secret: Vec<u8>,
    /// The reviewable whitelist of legal-but-blocked domains (§3:
    /// government agencies can inspect and amend it).
    pub whitelist: Vec<String>,
    /// Live blinding-scheme control.
    pub scheme: SchemeHandle,
    /// The domestic proxy's shared content cache (plain-HTTP gateway
    /// traffic only; CONNECT tunnels are opaque). A zero-byte budget
    /// disables caching while keeping the gateway path — the cache-off
    /// control in experiments. The handle is shared so the harness can
    /// read hit/miss statistics after a run.
    pub cache: CacheHandle,
    /// Shared interference telemetry (remote writes, domestic reads).
    pub interference: InterferencePad,
    /// Detection-driven scheme rotation. `None` (the default) keeps the
    /// scheme fixed for the whole deployment — the pre-adaptive behavior
    /// every pinned trace was recorded against.
    pub rotation: Option<RotationPolicy>,
}

impl ScConfig {
    /// The deployment shape from the paper: a domestic VM at Tsinghua and
    /// a remote VM in San Mateo, whitelisting Google Scholar.
    pub fn new(domestic_addr: Addr, remote_addr: Addr) -> Self {
        ScConfig {
            domestic: SocketAddr::new(domestic_addr, DOMESTIC_PORT),
            remotes: vec![SocketAddr::new(remote_addr, REMOTE_PORT)],
            admission: AdmissionConfig::default(),
            secret: b"scholarcloud-operator-secret-2016".to_vec(),
            whitelist: vec!["scholar.google.com".into(), "www.google.com".into()],
            scheme: SchemeHandle::default(),
            cache: CacheHandle::new(CacheConfig::default()),
            interference: InterferencePad::new(),
            rotation: None,
        }
    }

    /// Replaces the shared content cache's configuration (byte budget,
    /// default TTL, per-host TTL overrides), resetting its contents.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = CacheHandle::new(cache);
        self
    }

    /// Replaces the remote pool with `addrs` (each listening on
    /// [`REMOTE_PORT`]).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn with_remotes(mut self, addrs: &[Addr]) -> Self {
        assert!(!addrs.is_empty(), "need at least one remote");
        self.remotes = addrs.iter().map(|&a| SocketAddr::new(a, REMOTE_PORT)).collect();
        self
    }

    /// The PAC file users point their browsers at: whitelisted domains go
    /// to the domestic proxy, everything else DIRECT.
    pub fn pac_file(&self) -> PacFile {
        PacFile::new(self.whitelist.iter().cloned(), self.domestic)
    }

    /// Whether `host` is on the whitelist ([`sc_netproto::pac::whitelisted`]).
    pub fn whitelisted(&self, host: &str) -> bool {
        sc_netproto::pac::whitelisted(&self.whitelist, host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_netproto::pac::ProxyDecision;

    fn config() -> ScConfig {
        ScConfig::new(Addr::new(10, 1, 0, 1), Addr::new(99, 0, 0, 40))
    }

    #[test]
    fn pac_routes_only_whitelist_to_proxy() {
        let cfg = config();
        let pac = cfg.pac_file();
        assert_eq!(
            pac.decide("scholar.google.com"),
            ProxyDecision::Proxy(cfg.domestic)
        );
        assert_eq!(pac.decide("baidu.com"), ProxyDecision::Direct);
        // The generated JavaScript parses back to the same policy.
        let parsed = sc_netproto::pac::PacFile::parse(&pac.to_javascript()).unwrap();
        assert_eq!(parsed, pac);
    }

    #[test]
    fn scheme_rotation_cycles() {
        let h = SchemeHandle::default();
        let start = h.get();
        let mut seen = vec![start];
        for _ in 0..BlindingScheme::rotation().len() - 1 {
            seen.push(h.rotate());
        }
        assert_eq!(h.rotate(), start, "rotation should cycle");
        seen.sort_by_key(|s| s.wire_id());
        seen.dedup();
        assert_eq!(seen.len(), BlindingScheme::rotation().len());
    }

    #[test]
    fn whitelist_matches_subdomains() {
        let cfg = config();
        assert!(cfg.whitelisted("scholar.google.com"));
        assert!(cfg.whitelisted("cache.Scholar.google.com"));
        assert!(!cfg.whitelisted("notscholar.example"));
    }
}
