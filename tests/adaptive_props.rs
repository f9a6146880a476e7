//! Property tests for the adaptive censor's pure state machine, plus
//! the byte-identical trace pins for adaptive scenarios.
//!
//! [`AdaptiveState`] takes time and randomness as arguments, so its
//! invariants can be pinned against arbitrary interleavings:
//!
//! 1. **monotone suspicion** — `note_flow` can only raise a server's
//!    suspicion score, and the score it returns is always the score
//!    `score()` reports;
//! 2. **no early promotion** — `note_fingerprint` never promotes a
//!    cover fingerprint to a learned signature before
//!    `learn_after_flows` matching flows, promotes exactly at the
//!    threshold, and refreshes (never re-learns) afterwards;
//! 3. **bounded campaigns** — a probing campaign emits at most
//!    `campaign_waves` waves, numbered `1..=waves` in order, a second
//!    `start_campaign` against the same server is a no-op, and the
//!    campaign is eventually exhausted;
//! 4. **determinism** — a full adaptive scenario (classifier, probing
//!    campaigns, detection-driven rotation, stream resume) produces
//!    byte-identical JSONL traces across same-seed runs, and with all
//!    adaptive knobs off the trace carries no adaptive machinery at
//!    all (the pre-adaptive byte-identity pin).

mod common;

use common::captured;
use proptest::prelude::*;
use sc_gfw::adaptive::{AdaptiveConfig, AdaptiveState, FingerprintOutcome};
use sc_metrics::{Method, ScenarioConfig, build_scenario};
use sc_simnet::addr::{Addr, SocketAddr};
use sc_simnet::time::{SimDuration, SimTime};

/// A deterministic `[0, 1)` source standing in for the sim's seeded
/// RNG (an LCG stepped once per draw, like the real driver).
fn draw_fn(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn server() -> SocketAddr {
    SocketAddr::new(Addr::new(10, 7, 0, 1), 443)
}

proptest! {
    /// Invariant 1: whatever mix of clients, cadence, and preamble
    /// oddity arrives, a server's suspicion score never decreases, and
    /// `note_flow`'s return value always equals the queryable score.
    #[test]
    fn suspicion_score_is_monotone(
        flows in prop::collection::vec(
            (0u8..6, any::<bool>(), 0u64..40_000_000),
            1..80,
        ),
        fanin_w in 0u32..4,
        cadence_w in 0u32..4,
        preamble_w in 0u32..4,
    ) {
        let cfg = AdaptiveConfig {
            fanin_weight: fanin_w,
            cadence_weight: cadence_w,
            preamble_weight: preamble_w,
            ..AdaptiveConfig::default()
        };
        let mut st = AdaptiveState::default();
        let srv = server();
        let mut now = SimTime::ZERO;
        let mut last = st.score(&cfg, &srv);
        prop_assert_eq!(last, 0, "an unseen server must score 0");
        for (client, odd, dt_us) in flows {
            now = now + SimDuration::from_micros(dt_us);
            let c = SocketAddr::new(Addr::new(192, 168, 0, 1 + client), 40_000);
            let s = st.note_flow(&cfg, srv, c, odd, now);
            prop_assert!(
                s >= last,
                "suspicion dropped from {} to {} on new evidence",
                last,
                s
            );
            prop_assert_eq!(s, st.score(&cfg, &srv), "note_flow must return the live score");
            last = s;
        }
    }

    /// Invariant 2: the classifier never fires below the learning
    /// threshold. Promotion happens exactly on the
    /// `learn_after_flows`-th matching flow, and every later matching
    /// flow refreshes the learned signature instead of re-learning it.
    #[test]
    fn classifier_never_promotes_early(
        learn_flows in 1u32..10,
        extra in 0u32..12,
        path_tag in 0u8..16,
        dt_ms in 1u64..2_000,
    ) {
        let cfg = AdaptiveConfig {
            learn_after_flows: learn_flows,
            // Keep every flow inside the TTL so refresh (not re-learn)
            // is the only legal post-promotion outcome.
            signature_ttl: SimDuration::from_secs(3_600),
            ..AdaptiveConfig::default()
        };
        let mut st = AdaptiveState::default();
        let early = format!(
            "POST /api/sync-{path_tag:02x} HTTP/1.1\r\nHost: cdn.example\r\n\r\n"
        );
        let mut now = SimTime::ZERO;
        let mut promoted_at = None;
        for i in 1..=(learn_flows + extra) {
            now = now + SimDuration::from_millis(dt_ms);
            match st.note_fingerprint(&cfg, early.as_bytes(), now) {
                FingerprintOutcome::None => prop_assert!(
                    i < learn_flows,
                    "flow {} of threshold {} must have promoted already",
                    i,
                    learn_flows
                ),
                FingerprintOutcome::Learned(sig) => {
                    prop_assert!(promoted_at.is_none(), "signature learned twice");
                    prop_assert_eq!(
                        i, learn_flows,
                        "promotion fired at flow {} instead of threshold {}",
                        i, learn_flows
                    );
                    prop_assert!(
                        early.as_bytes().starts_with(&sig),
                        "learned signature must be a prefix of the cover preamble"
                    );
                    promoted_at = Some(i);
                }
                FingerprintOutcome::Refreshed => prop_assert!(
                    promoted_at.is_some_and(|p| i > p),
                    "refresh before promotion at flow {}",
                    i
                ),
            }
        }
        prop_assert_eq!(promoted_at, Some(learn_flows));
        prop_assert_eq!(st.signatures_learned, 1);
        prop_assert_eq!(st.learned_signatures().len(), 1);
        // Non-HTTP-shaped flows never contribute a fingerprint at all.
        prop_assert_eq!(
            st.note_fingerprint(&cfg, b"\x16\x03\x03\x01binary-hello", now),
            FingerprintOutcome::None
        );
    }

    /// Invariant 3: probes per server are hard-bounded by
    /// `campaign_waves`, waves come out numbered `1..=waves` in order,
    /// restarting a campaign is a no-op, and once the waves are spent
    /// the campaign reports exhausted forever.
    #[test]
    fn campaign_waves_are_bounded(
        waves in 1u32..6,
        steps in prop::collection::vec(0u64..20_000_000, 1..80),
        seed in 0u64..1_000,
    ) {
        let cfg = AdaptiveConfig {
            campaign_waves: waves,
            wave_gap: SimDuration::from_secs(2),
            wave_jitter: SimDuration::from_secs(1),
            ..AdaptiveConfig::default()
        };
        let mut st = AdaptiveState::default();
        let srv = server();
        let mut draw = draw_fn(seed);
        let mut now = SimTime::ZERO;

        prop_assert!(st.start_campaign(&cfg, srv, now), "first start must launch");
        prop_assert!(!st.start_campaign(&cfg, srv, now), "restart must be a no-op");
        prop_assert_eq!(st.campaigns_launched, 1);

        let mut fired = Vec::new();
        for dt_us in steps {
            now = now + SimDuration::from_micros(dt_us);
            if let Some(wave) = st.step_campaign(&cfg, &srv, now, &mut draw) {
                fired.push(wave);
            }
        }
        // However time advanced, never more than the configured waves,
        // and the waves that did fire are numbered in order from 1.
        prop_assert!(
            fired.len() as u32 <= waves,
            "{} waves fired, bound is {}",
            fired.len(),
            waves
        );
        let expect: Vec<u32> = (1..=fired.len() as u32).collect();
        prop_assert_eq!(&fired, &expect, "waves must fire as 1..=n in order");

        // Grind far past every possible gap+jitter: the campaign must
        // exhaust, and an exhausted campaign steps no further.
        for _ in 0..(waves + 2) {
            now = now + SimDuration::from_secs(10);
            if let Some(wave) = st.step_campaign(&cfg, &srv, now, &mut draw) {
                fired.push(wave);
            }
        }
        prop_assert_eq!(fired.len() as u32, waves, "campaign must spend exactly its waves");
        let long_after = now + SimDuration::from_secs(100_000);
        prop_assert_eq!(st.step_campaign(&cfg, &srv, long_after, &mut draw), None, "the campaign is spent");
        prop_assert_eq!(st.step_campaign(&cfg, &srv, now, &mut draw), None);
    }
}

/// An arms-race scenario run (the arms_race_lab shape, shrunk): a
/// reactive censor learning signatures and probing, against
/// detection-driven scheme rotation with stream resume. Classifier
/// state, campaign jitter, rotation, and resume retries are all keyed
/// to the seeded sim, so the trace must be a pure function of the
/// seed — and with `adaptive` off, of the pre-adaptive code path only.
fn adaptive_run(seed: u64, adaptive: bool) -> Vec<u8> {
    captured(|| {
        let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, seed);
        cfg.clients = 2;
        cfg.loads = 5;
        cfg.interval = SimDuration::from_secs(10);
        cfg.timeout = SimDuration::from_secs(8);
        cfg.extra_runtime = SimDuration::from_secs(20);
        if adaptive {
            cfg.sc_adaptive = Some(AdaptiveConfig {
                learn_after_flows: 4,
                ..AdaptiveConfig::default()
            });
            cfg.sc_rotation = Some(sc_core::RotationPolicy {
                threshold: 1,
                cooldown: SimDuration::from_secs(5),
            });
        }
        build_scenario(&cfg).finish();
    })
}

#[test]
fn adaptive_traces_are_byte_identical() {
    let a = adaptive_run(9191, true);
    let b = adaptive_run(9191, true);
    assert!(!a.is_empty(), "trace must not be empty");
    // The adaptive machinery must actually have engaged: the censor
    // learned a signature and probed, and the defense rotated.
    let text = String::from_utf8(a.clone()).unwrap();
    for needed in [
        "\"event\":\"signature_learned\"",
        "\"event\":\"campaign\"",
        "\"event\":\"probe_wave\"",
        "\"event\":\"rotate\"",
    ] {
        assert!(
            text.lines().any(|l| l.contains(needed)),
            "adaptive trace must record a {needed} event"
        );
    }
    assert_eq!(a, b, "same-seed adaptive traces must be byte-identical");

    // And a different seed must actually shift the race.
    let c = adaptive_run(9192, true);
    assert_ne!(a, c, "different seeds must produce different adaptive traces");
}

/// The pre-adaptive pin: with every adaptive knob at its default-off
/// value the scenario replays byte-identically AND its trace carries
/// no adaptive machinery — no classifier events, no campaigns, no
/// detection-driven rotations, no stream resumes. The subsystem is
/// provably inert when disabled.
#[test]
fn knobs_off_traces_carry_no_adaptive_machinery() {
    let a = adaptive_run(9191, false);
    let b = adaptive_run(9191, false);
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(a, b, "same-seed knobs-off traces must be byte-identical");
    let text = String::from_utf8(a).unwrap();
    for banned in ["adaptive", "stream_resume", "probe_wave", "signature_learned"] {
        assert!(
            !text.contains(banned),
            "knobs-off trace must not mention {banned:?}"
        );
    }
}
