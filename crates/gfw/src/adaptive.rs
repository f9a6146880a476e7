//! The reactive censor: suspicion scoring, fingerprint learning, probing
//! campaigns, and spatiotemporal enforcement inconsistency.
//!
//! The static GFW of [`crate::engine`] applies a fixed rule set. Real
//! censors *react*: they accumulate per-destination evidence from DPI
//! observations, learn a circumvention scheme's wire fingerprint after
//! enough sightings and push it as a blockable signature, fire
//! active-probing campaigns at suspicious endpoints (replaying captured
//! preambles, not just garbage), and enforce inconsistently across
//! regions and time — some paths censor while others drift open.
//!
//! Everything here is driven from the classify path in
//! [`GfwMiddlebox::process`](crate::engine::GfwMiddlebox) and is a
//! strict no-op unless [`GfwConfig::adaptive`](crate::config::GfwConfig)
//! is set: with the knob off there are zero extra RNG draws, zero
//! events, and zero behavioural changes, so pre-adaptive traces stay
//! byte-identical (pinned by `tests/adaptive_props.rs`).
//!
//! Randomness (probe-wave jitter, region drift rolls) arrives as a
//! `draw()` closure fed from the sim's seeded RNG, exactly like
//! `sc-core`'s elastic autoscaler — the module itself is a pure state
//! machine, which is what makes the proptests possible.

use std::collections::{HashMap, HashSet, VecDeque};

use sc_netproto::scan;
use sc_simnet::addr::SocketAddr;
use sc_simnet::time::{SimDuration, SimTime};

use crate::classify::FlowRecord;
use crate::engine::GfwCounters;

/// Maximum bytes of a promoted signature.
pub const SIGNATURE_LEN: usize = 24;
/// Window for the connection-cadence detector.
pub const CADENCE_WINDOW: SimDuration = SimDuration::from_secs(30);
/// Bytes of a suspect flow's captured preamble replayed by campaign
/// probes.
pub const REPLAY_CAPTURE: usize = 256;

/// Tuning for the reactive censor. All thresholds are integers so the
/// suspicion score is exactly reproducible and monotone in evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Flows bearing the same cover fingerprint that must be observed
    /// before the fingerprint is promoted to a blockable signature
    /// (the classifier *never* fires below this).
    pub learn_after_flows: u32,
    /// Rule churn: a learned signature expires this long after it was
    /// last re-confirmed by a matching flow. A defense that rotates
    /// schemes starves the refresh and eventually un-learns the rule; a
    /// defense that keeps using a learned cover refreshes it forever.
    pub signature_ttl: SimDuration,
    /// Suspicion score at which a probing campaign is launched against
    /// a server.
    pub suspicion_threshold: u32,
    /// Score points per distinct client seen connecting to the same
    /// server (destination fan-in).
    pub fanin_weight: u32,
    /// Score points per machine-like reconnect (a new flow to the same
    /// server within [`CADENCE_WINDOW`]).
    pub cadence_weight: u32,
    /// Score points per flow whose preamble looks odd (printable
    /// HTTP-shaped head fronting a binary body, or a headerless
    /// high-entropy stream).
    pub preamble_weight: u32,
    /// Probe waves per campaign (hard bound on probes per server).
    pub campaign_waves: u32,
    /// Base gap between campaign waves.
    pub wave_gap: SimDuration,
    /// Seeded jitter added to each wave gap (uniform in `[0, jitter)`).
    pub wave_jitter: SimDuration,
    /// Number of enforcement regions (paths through the border). Flows
    /// hash to a region by client address.
    pub regions: u32,
    /// Probability that a region drifts *open* (stops enforcing
    /// adaptive verdicts) when its drift period rolls over.
    pub leniency: f64,
    /// How often each region re-rolls its enforcement state.
    pub drift_period: SimDuration,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            learn_after_flows: 6,
            signature_ttl: SimDuration::from_secs(45),
            suspicion_threshold: 6,
            fanin_weight: 2,
            cadence_weight: 1,
            preamble_weight: 2,
            campaign_waves: 3,
            wave_gap: SimDuration::from_secs(5),
            wave_jitter: SimDuration::from_secs(2),
            regions: 1,
            leniency: 0.0,
            drift_period: SimDuration::from_secs(60),
        }
    }
}

/// Evidence accumulated about one destination server.
#[derive(Debug, Default)]
pub struct ServerEvidence {
    /// Distinct client endpoints seen connecting here.
    pub clients: HashSet<SocketAddr>,
    /// Machine-like reconnects (new flow within the cadence window).
    pub cadence_hits: u32,
    /// Flows whose preamble looked odd.
    pub odd_flows: u32,
    /// When the most recent flow was first noted.
    pub last_flow: Option<SimTime>,
    campaign: Option<Campaign>,
}

#[derive(Debug)]
struct Campaign {
    waves_left: u32,
    next_wave: SimTime,
}

#[derive(Debug)]
struct LearnedSig {
    sig: Vec<u8>,
    expires: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct RegionState {
    enforcing: bool,
    until: SimTime,
}

/// What [`AdaptiveState::note_fingerprint`] concluded about one flow's
/// cover fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FingerprintOutcome {
    /// Nothing fingerprintable about this flow (or below threshold).
    None,
    /// The fingerprint crossed `learn_after_flows`: promote this byte
    /// signature to the blockable set.
    Learned(Vec<u8>),
    /// The fingerprint matches an already-learned signature; its TTL
    /// was refreshed.
    Refreshed,
}

/// The reactive censor's state, owned by
/// [`GfwState`](crate::engine::GfwState) and fed from the classify
/// path. Pure state machine: all methods take time and randomness as
/// arguments.
#[derive(Debug, Default)]
pub struct AdaptiveState {
    servers: HashMap<SocketAddr, ServerEvidence>,
    fingerprints: HashMap<Vec<u8>, u32>,
    learned: Vec<LearnedSig>,
    regions: Vec<RegionState>,
    next_expiry: Option<SimTime>,
    /// Campaigns launched (first wave enqueued).
    pub campaigns_launched: u64,
    /// Signatures promoted to the blockable set.
    pub signatures_learned: u64,
    /// Signatures expired out of the blockable set (rule churn).
    pub signatures_expired: u64,
    /// When the censor first learned a signature (the arms-race
    /// time-to-detection metric; `None` until it happens).
    pub first_detection: Option<SimTime>,
}

/// The cover fingerprint of a flow's early bytes: the request line up
/// to the protocol version (`"POST /api/sync"`), the stable prefix a
/// rule writer would extract. `None` for non-HTTP-shaped flows.
pub fn cover_fingerprint(early: &[u8]) -> Option<Vec<u8>> {
    if !(early.starts_with(b"POST ") || early.starts_with(b"GET ") || early.starts_with(b"PUT ")) {
        return None;
    }
    let line_end = scan::find_byte(early, b'\r')?;
    let line = &early[..line_end];
    let path_end = scan::find(line, b" HTTP/")?;
    let sig = &line[..path_end];
    if sig.len() < 6 {
        return None;
    }
    Some(sig[..sig.len().min(SIGNATURE_LEN)].to_vec())
}

/// Whether a flow's captured preamble looks odd to a censor analyst: an
/// HTTP-shaped printable head fronting a binary (high-entropy) body, or
/// a headerless high-entropy stream. Innocent page fetches (printable
/// throughout) and real uploads of text both pass.
pub fn odd_preamble(early: &[u8]) -> bool {
    if early.len() < 64 {
        return false;
    }
    let Some(head_end) = scan::find(early, b"\r\n\r\n") else {
        // Headerless: the entropy heuristic in classify already covers
        // pure-random streams; treat anything non-HTTP-shaped as odd
        // only when it is high-entropy.
        let stats = sc_crypto::entropy::PayloadStats::analyze(early);
        return stats.looks_like_random();
    };
    let body = &early[head_end + 4..];
    if body.len() < 48 {
        return false;
    }
    let head = &early[..head_end];
    let head_printable = head
        .iter()
        .filter(|&&b| (0x20..0x7f).contains(&b) || b == b'\r' || b == b'\n')
        .count() as f64
        / head.len() as f64;
    let stats = sc_crypto::entropy::PayloadStats::analyze(body);
    head_printable > 0.95 && stats.printable < 0.6
}

/// Whether a flow's captured early bytes are settled enough for
/// [`odd_preamble`] to have an opinion: a complete HTTP head with
/// enough body to judge, a headerless stream long enough for the
/// entropy check, or a full capture window. Evidence accrual waits for
/// this so a cover flow is judged on head *and* body, not just the
/// HTTP-shaped head its first packet carries.
pub fn evidence_ready(early: &[u8]) -> bool {
    if early.len() >= crate::classify::CAPTURE_LIMIT {
        return true;
    }
    match scan::find(early, b"\r\n\r\n") {
        Some(head_end) => early.len() - head_end - 4 >= 48,
        None => early.len() >= 64,
    }
}

impl AdaptiveState {
    /// The current suspicion score for a server (0 if never seen).
    /// Monotone in evidence: every call to [`note_flow`](Self::note_flow)
    /// can only raise it.
    pub fn score(&self, cfg: &AdaptiveConfig, server: &SocketAddr) -> u32 {
        let Some(ev) = self.servers.get(server) else { return 0 };
        cfg.fanin_weight.saturating_mul(ev.clients.len() as u32)
            .saturating_add(cfg.cadence_weight.saturating_mul(ev.cadence_hits))
            .saturating_add(cfg.preamble_weight.saturating_mul(ev.odd_flows))
    }

    /// Accrues one flow's evidence against its server and returns the
    /// updated suspicion score. `odd` is the preamble-oddity verdict
    /// (see [`odd_preamble`]).
    pub fn note_flow(
        &mut self,
        cfg: &AdaptiveConfig,
        server: SocketAddr,
        client: SocketAddr,
        odd: bool,
        now: SimTime,
    ) -> u32 {
        let ev = self.servers.entry(server).or_default();
        ev.clients.insert(client);
        if let Some(last) = ev.last_flow {
            if now - last <= CADENCE_WINDOW {
                ev.cadence_hits = ev.cadence_hits.saturating_add(1);
            }
        }
        ev.last_flow = Some(now);
        if odd {
            ev.odd_flows = ev.odd_flows.saturating_add(1);
        }
        self.score(cfg, &server)
    }

    /// Counts one flow against its cover fingerprint. Promotion fires
    /// exactly when the count reaches `learn_after_flows` — never below
    /// (the proptest invariant) — and matching an already-learned
    /// signature refreshes its TTL instead.
    pub fn note_fingerprint(
        &mut self,
        cfg: &AdaptiveConfig,
        early: &[u8],
        now: SimTime,
    ) -> FingerprintOutcome {
        let Some(sig) = cover_fingerprint(early) else {
            return FingerprintOutcome::None;
        };
        if let Some(l) = self.learned.iter_mut().find(|l| l.sig == sig) {
            l.expires = now + cfg.signature_ttl;
            let expires = l.expires;
            self.bump_expiry(expires);
            return FingerprintOutcome::Refreshed;
        }
        let count = self.fingerprints.entry(sig.clone()).or_insert(0);
        *count += 1;
        if *count < cfg.learn_after_flows.max(1) {
            return FingerprintOutcome::None;
        }
        let expires = now + cfg.signature_ttl;
        self.learned.push(LearnedSig { sig: sig.clone(), expires });
        self.bump_expiry(expires);
        self.signatures_learned += 1;
        if self.first_detection.is_none() {
            self.first_detection = Some(now);
        }
        FingerprintOutcome::Learned(sig)
    }

    fn bump_expiry(&mut self, candidate: SimTime) {
        match self.next_expiry {
            Some(t) if t <= candidate => {}
            _ => self.next_expiry = Some(candidate),
        }
    }

    /// Sweeps expired signatures (rule churn) and returns the expired
    /// byte signatures so the caller can retract them from the
    /// blockable set. Cheap unless an expiry is actually due.
    pub fn expire_signatures(&mut self, now: SimTime) -> Vec<Vec<u8>> {
        match self.next_expiry {
            Some(t) if now >= t => {}
            _ => return Vec::new(),
        }
        let mut expired = Vec::new();
        self.learned.retain(|l| {
            if l.expires <= now {
                expired.push(l.sig.clone());
                false
            } else {
                true
            }
        });
        // A re-learn must take another N flows from scratch.
        for sig in &expired {
            self.fingerprints.remove(sig);
        }
        self.signatures_expired += expired.len() as u64;
        self.next_expiry = self.learned.iter().map(|l| l.expires).min();
        expired
    }

    /// Starts a probing campaign against a server if none has run yet.
    /// Returns whether a new campaign began.
    pub fn start_campaign(&mut self, cfg: &AdaptiveConfig, server: SocketAddr, now: SimTime) -> bool {
        let ev = self.servers.entry(server).or_default();
        if ev.campaign.is_some() || cfg.campaign_waves == 0 {
            return false;
        }
        ev.campaign = Some(Campaign { waves_left: cfg.campaign_waves, next_wave: now });
        self.campaigns_launched += 1;
        true
    }

    /// Steps a server's campaign: if a wave is due, consumes it and
    /// returns the 1-based wave number (the caller enqueues the probe).
    /// Total waves per server are hard-bounded by
    /// [`campaign_waves`](AdaptiveConfig::campaign_waves) — the
    /// proptest invariant. `draw` feeds the seeded wave jitter.
    pub fn step_campaign(
        &mut self,
        cfg: &AdaptiveConfig,
        server: &SocketAddr,
        now: SimTime,
        draw: &mut dyn FnMut() -> f64,
    ) -> Option<u32> {
        let ev = self.servers.get_mut(server)?;
        let c = ev.campaign.as_mut()?;
        if c.waves_left == 0 || now < c.next_wave {
            return None;
        }
        c.waves_left -= 1;
        let wave = cfg.campaign_waves - c.waves_left;
        let jitter = (cfg.wave_jitter.as_micros() as f64 * draw()) as u64;
        c.next_wave = now + cfg.wave_gap + SimDuration::from_micros(jitter);
        Some(wave)
    }

    /// Whether this server's campaign has exhausted all its waves.
    pub fn campaign_exhausted(&self, server: &SocketAddr) -> bool {
        self.servers
            .get(server)
            .and_then(|ev| ev.campaign.as_ref())
            .is_some_and(|c| c.waves_left == 0)
    }

    /// Whether enforcement is currently active on the region this
    /// client's path hashes to. Regions re-roll their state every
    /// [`drift_period`](AdaptiveConfig::drift_period): with probability
    /// [`leniency`](AdaptiveConfig::leniency) a region drifts open and
    /// adaptive verdicts on its paths are skipped until the next roll.
    /// Returns `(enforcing, rolled)` — `rolled` is `Some(region)` when
    /// this call re-rolled the region (the caller emits the event).
    pub fn region_enforcing(
        &mut self,
        cfg: &AdaptiveConfig,
        client: SocketAddr,
        now: SimTime,
        draw: &mut dyn FnMut() -> f64,
    ) -> (bool, Option<u32>) {
        let n = cfg.regions.max(1) as usize;
        if self.regions.len() != n {
            self.regions =
                vec![RegionState { enforcing: true, until: SimTime::ZERO }; n];
        }
        let region = (client.addr.as_u32() as usize) % n;
        let st = &mut self.regions[region];
        let mut rolled = None;
        if now >= st.until {
            st.enforcing = cfg.leniency <= 0.0 || draw() >= cfg.leniency;
            st.until = now + cfg.drift_period;
            rolled = Some(region as u32);
        }
        (st.enforcing, rolled)
    }

    /// Evidence snapshot for a server (tests and diagnostics).
    pub fn evidence(&self, server: &SocketAddr) -> Option<&ServerEvidence> {
        self.servers.get(server)
    }

    /// Currently learned (unexpired) signatures.
    pub fn learned_signatures(&self) -> Vec<&[u8]> {
        self.learned.iter().map(|l| l.sig.as_slice()).collect()
    }
}

fn emit_adaptive(now: SimTime, name: &'static str, f: impl FnOnce(&mut sc_obs::Fields<'_>)) {
    sc_obs::event(now.as_micros(), sc_obs::Level::Info, "gfw", "adaptive", name, f);
}

/// The engine's per-packet hook: accrues evidence on the first data
/// observation of each flow, learns/refreshes/expires signatures,
/// and schedules campaign probe waves. Called only when
/// `GfwConfig::adaptive` is set; the split borrows mirror
/// [`GfwState`](crate::engine::GfwState)'s fields. `evidence_changed`
/// says whether this packet changed the flow's capture or the rules
/// (the readiness check reads nothing else, so it is skipped otherwise).
/// Returns whether `learned_signatures` changed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_flow(
    adaptive: &mut AdaptiveState,
    cfg: &AdaptiveConfig,
    learned_signatures: &mut Vec<Vec<u8>>,
    probe_queue: &mut VecDeque<SocketAddr>,
    replay_preambles: &mut HashMap<SocketAddr, Vec<u8>>,
    counters: &mut GfwCounters,
    rec: &mut FlowRecord,
    evidence_changed: bool,
    now: SimTime,
    draw: &mut dyn FnMut() -> f64,
) -> bool {
    let mut rules_changed = false;
    // Rule churn first so a dead signature stops matching before new
    // evidence lands.
    for sig in adaptive.expire_signatures(now) {
        learned_signatures.retain(|s| *s != sig);
        rules_changed = true;
        sc_obs::counter_add("gfw.adaptive_signatures_expired", 1);
        emit_adaptive(now, "signature_expired", |f| {
            f.field("signature", &*String::from_utf8_lossy(&sig));
        });
    }

    // Evidence accrues once per flow, as soon as the capture is settled
    // enough for the preamble heuristic to have an opinion (a tunnel's
    // first packet often carries the HTTP head with only a sliver of
    // body; judging it then would let every cover flow pass as plain
    // HTTP forever).
    if !rec.adaptive_noted && evidence_changed && evidence_ready(&rec.early_bytes) {
        rec.adaptive_noted = true;
        let odd = odd_preamble(&rec.early_bytes);
        let score = adaptive.note_flow(cfg, rec.server, rec.client, odd, now);
        if odd {
            match adaptive.note_fingerprint(cfg, &rec.early_bytes, now) {
                FingerprintOutcome::Learned(sig) => {
                    if !learned_signatures.contains(&sig) {
                        learned_signatures.push(sig.clone());
                        rules_changed = true;
                    }
                    counters.signatures_learned += 1;
                    sc_obs::counter_add("gfw.adaptive_signatures_learned", 1);
                    emit_adaptive(now, "signature_learned", |f| {
                        f.field("signature", &*String::from_utf8_lossy(&sig))
                            .field("flows", cfg.learn_after_flows as u64)
                            .field("server", rec.server);
                    });
                }
                FingerprintOutcome::Refreshed | FingerprintOutcome::None => {}
            }
        }
        if odd && score >= cfg.suspicion_threshold {
            if adaptive.start_campaign(cfg, rec.server, now) {
                counters.campaigns_launched += 1;
                sc_obs::counter_add("gfw.adaptive_campaigns", 1);
                let take = rec.early_bytes.len().min(REPLAY_CAPTURE);
                replay_preambles.insert(rec.server, rec.early_bytes[..take].to_vec());
                emit_adaptive(now, "campaign", |f| {
                    f.field("server", rec.server).field("score", score as u64);
                });
            }
        }
    }

    // Campaign waves are time-driven; every packet of a flow to the
    // server gives the scheduler a chance to fire the next one.
    if let Some(wave) = adaptive.step_campaign(cfg, &rec.server, now, draw) {
        probe_queue.push_back(rec.server);
        sc_obs::counter_add("gfw.adaptive_probe_waves", 1);
        emit_adaptive(now, "probe_wave", |f| {
            f.field("server", rec.server).field("wave", wave as u64);
        });
    }
    rules_changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_simnet::addr::Addr;

    fn sa(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(Addr::new(10, 0, 0, last), port)
    }

    fn preamble(path: &str) -> Vec<u8> {
        let mut p = format!(
            "POST {path} HTTP/1.1\r\nHost: cdn.example\r\nContent-Type: application/octet-stream\r\n\r\n"
        )
        .into_bytes();
        p.extend((0..120u32).map(|i| (i.wrapping_mul(167) ^ 0xa5) as u8));
        p
    }

    #[test]
    fn fingerprint_is_request_line_prefix() {
        let p = preamble("/api/sync");
        assert_eq!(cover_fingerprint(&p).unwrap(), b"POST /api/sync".to_vec());
        assert_eq!(cover_fingerprint(b"\x16\x03\x03junk"), None);
    }

    #[test]
    fn odd_preamble_flags_binary_body_behind_printable_head() {
        assert!(odd_preamble(&preamble("/api/sync")));
        let mut plain = b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n".to_vec();
        plain.extend_from_slice(&[b'a'; 200]);
        assert!(!odd_preamble(&plain));
    }

    #[test]
    fn score_accumulates_all_evidence_kinds() {
        let cfg = AdaptiveConfig::default();
        let mut st = AdaptiveState::default();
        let server = sa(99, 8443);
        let s1 = st.note_flow(&cfg, server, sa(1, 5000), true, SimTime::ZERO);
        assert_eq!(s1, cfg.fanin_weight + cfg.preamble_weight);
        // Second client within the cadence window: fan-in + cadence.
        let s2 = st.note_flow(
            &cfg,
            server,
            sa(2, 5000),
            false,
            SimTime::from_micros(1_000_000),
        );
        assert_eq!(s2, 2 * cfg.fanin_weight + cfg.cadence_weight + cfg.preamble_weight);
        assert!(s2 > s1);
    }

    #[test]
    fn signature_learns_exactly_at_n_and_expires() {
        let cfg = AdaptiveConfig { learn_after_flows: 3, ..AdaptiveConfig::default() };
        let mut st = AdaptiveState::default();
        let p = preamble("/api/sync");
        let t = SimTime::ZERO;
        assert_eq!(st.note_fingerprint(&cfg, &p, t), FingerprintOutcome::None);
        assert_eq!(st.note_fingerprint(&cfg, &p, t), FingerprintOutcome::None);
        let FingerprintOutcome::Learned(sig) = st.note_fingerprint(&cfg, &p, t) else {
            panic!("third flow must learn");
        };
        assert_eq!(sig, b"POST /api/sync".to_vec());
        assert_eq!(st.first_detection, Some(t));
        // Matching again refreshes rather than re-learns.
        assert_eq!(st.note_fingerprint(&cfg, &p, t), FingerprintOutcome::Refreshed);
        // Past the TTL with no refresh the signature churns out…
        let later = t + cfg.signature_ttl + SimDuration::from_secs(1);
        assert_eq!(st.expire_signatures(later), vec![sig]);
        // …and re-learning takes another N flows from scratch.
        assert_eq!(st.note_fingerprint(&cfg, &p, later), FingerprintOutcome::None);
    }

    #[test]
    fn campaign_waves_are_bounded() {
        let cfg = AdaptiveConfig { campaign_waves: 2, ..AdaptiveConfig::default() };
        let mut st = AdaptiveState::default();
        let server = sa(99, 8443);
        assert!(st.start_campaign(&cfg, server, SimTime::ZERO));
        assert!(!st.start_campaign(&cfg, server, SimTime::ZERO), "one campaign per server");
        let mut draw = || 0.5;
        let mut waves = 0;
        for i in 0..1_000u64 {
            if st.step_campaign(&cfg, &server, SimTime::from_micros(i * 10_000_000), &mut draw).is_some()
            {
                waves += 1;
            }
        }
        assert_eq!(waves, 2);
        assert!(st.campaign_exhausted(&server));
    }

    #[test]
    fn regions_drift_open_with_leniency() {
        let cfg = AdaptiveConfig {
            regions: 4,
            leniency: 1.0,
            drift_period: SimDuration::from_secs(10),
            ..AdaptiveConfig::default()
        };
        let mut st = AdaptiveState::default();
        let mut draw = || 0.0; // always below leniency: drift open
        let (enforcing, rolled) = st.region_enforcing(&cfg, sa(1, 5000), SimTime::ZERO, &mut draw);
        assert!(!enforcing);
        assert!(rolled.is_some());
        // Within the period the state is sticky and no re-roll happens.
        let (e2, r2) =
            st.region_enforcing(&cfg, sa(1, 5000), SimTime::from_micros(1), &mut draw);
        assert!(!e2);
        assert!(r2.is_none());
        // leniency 0 always enforces without drawing.
        let cfg0 = AdaptiveConfig { leniency: 0.0, ..cfg };
        let mut st0 = AdaptiveState::default();
        let mut boom = || -> f64 { panic!("leniency 0 must not draw") };
        let (e0, _) = st0.region_enforcing(&cfg0, sa(1, 5000), SimTime::ZERO, &mut boom);
        assert!(e0);
    }
}
