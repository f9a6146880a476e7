//! Arms-race lab: a *reactive* GFW — traffic classifier, learned
//! signatures, active-probing campaigns — against ScholarCloud's
//! detection-driven defenses (probe-resistant remote + scheme
//! rotation keyed to what the censor is actually doing).
//!
//! The paper's threat model (§6) is a censor that can learn a blinding
//! scheme's traffic signature and actively probe suspected proxies;
//! its answer is that the operator controls both ends and can rotate
//! the scheme faster than the censor can re-learn it. This lab puts a
//! number on that claim. The adaptive censor (`sc_gfw::adaptive`):
//!
//! * scores every flow crossing the border (fan-in, cadence, repeated
//!   preamble) and fingerprints the cover preamble; after enough
//!   matching flows the prefix is promoted to a **learned signature**
//!   enforced as a connection RESET;
//! * launches **probing campaigns** against suspicious servers,
//!   replaying captured preambles — a remote without replay protection
//!   would authenticate the probe and unmask itself;
//! * drifts per-region enforcement, so blocking is inconsistent the
//!   way the real GFW is.
//!
//! Two arms run the identical workload under the identical censor:
//!
//! * **rotation-off** — the paper's deployment frozen: one blinding
//!   scheme forever. The censor learns its cover preamble once; every
//!   later tunnel matches the signature, gets RESET, and the matching
//!   traffic keeps the signature's TTL refreshed. Availability
//!   collapses.
//! * **rotation-on** — the domestic proxy watches its own evidence
//!   stream (breaker-opens + probe sightings shared by the remote) and
//!   rotates the blinding scheme when it accumulates; the new scheme's
//!   cover preamble no longer matches the learned signature, the old
//!   signature starves and expires, and the race repeats from zero.
//!
//! In both arms the remote's replay cache deflects every replayed
//! probe to the nginx-style decoy, so the censor's **detection rate
//! stays 0%** — probing never confirms the proxy; only the passive
//! signature ever bites.
//!
//! Assertions: the censor actually learns and campaigns in both arms,
//! no probe is ever confirmed, rotation-off availability collapses
//! below 60%, rotation-on holds at or above 90%, and the whole thing
//! replays exactly per seed.
//!
//! With `SC_TRACE=/tmp/arms_race.jsonl` the **last** run's trace (the
//! rotation-on arm — each run overwrites the file) feeds `scholar-obs
//! --min-availability-under-campaign --max-detection-rate`, the CI
//! smoke gate in `scripts/check.sh`.
//!
//! Run with: `cargo run --example arms_race_lab`
//!
//! `cargo run --example arms_race_lab -- --sweep` sweeps the
//! classifier's learning threshold × rotation on/off and prints the
//! detection-pressure-vs-availability table recorded in
//! `EXPERIMENTS.md`.

use sc_metrics::scenario::default_slos;
use sc_metrics::{Method, ScenarioConfig, build_scenario, report};
use sc_obs::WindowSpec;
use sc_simnet::time::SimDuration;

const SEED: u64 = 4242;
const CLIENTS: usize = 4;
const LOADS: usize = 12;
const INTERVAL_S: u64 = 10;
const TIMEOUT_S: u64 = 8;
/// Flows matching a fingerprint before the censor promotes it to a
/// blockable signature (the lab default; `--sweep` varies it).
const LEARN_FLOWS: u32 = 6;
/// Fresh evidence (breaker-opens + probe sightings) before the
/// domestic proxy rotates: 1 = rotate at the first breaker trip.
const ROTATION_THRESHOLD: u64 = 1;
const ROTATION_COOLDOWN_S: u64 = 5;

/// Everything one arm yields for the table and the assertions.
struct RunStats {
    ok: usize,
    failed: usize,
    signatures: u64,
    campaigns: u64,
    probes_launched: u64,
    probes_confirmed: u64,
    probes_deflected: u64,
    rotations: u64,
    blacklisted: u64,
}

impl RunStats {
    fn availability(&self) -> f64 {
        if self.ok + self.failed == 0 {
            return 0.0;
        }
        self.ok as f64 / (self.ok + self.failed) as f64
    }
}

fn run_once(learn_flows: u32, rotation: bool, verbose: bool) -> RunStats {
    let obs = sc_metrics::trace::ops_obs(WindowSpec::seconds(10), default_slos());

    let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, SEED);
    cfg.clients = CLIENTS;
    cfg.loads = LOADS;
    cfg.interval = SimDuration::from_secs(INTERVAL_S);
    cfg.timeout = SimDuration::from_secs(TIMEOUT_S);
    cfg.extra_runtime = SimDuration::from_secs(20);
    cfg.sc_adaptive = Some(sc_gfw::AdaptiveConfig {
        learn_after_flows: learn_flows,
        ..Default::default()
    });
    if rotation {
        cfg.sc_rotation = Some(sc_core::RotationPolicy {
            threshold: ROTATION_THRESHOLD,
            cooldown: SimDuration::from_secs(ROTATION_COOLDOWN_S),
        });
    }

    let built = build_scenario(&cfg);
    if verbose {
        println!(
            "arm={}: clients={CLIENTS}, loads={LOADS}, learn_flows={learn_flows}, runtime={}s",
            if rotation { "rotation-on" } else { "rotation-off" },
            built.runtime().as_secs_f64(),
        );
    }
    let outcome = built.finish();
    if verbose {
        print!("{}", report::render_scenario(Method::ScholarCloud, &outcome));
    }

    let adaptive = obs.finish().adaptive;
    let stats = RunStats {
        ok: 0,
        failed: 0,
        signatures: adaptive.signatures_learned,
        campaigns: adaptive.campaigns,
        probes_launched: adaptive.probes_launched,
        probes_confirmed: adaptive.probes_confirmed,
        probes_deflected: adaptive.probes_deflected,
        rotations: adaptive.rotations,
        blacklisted: adaptive.blacklisted,
    };

    let mut ok = 0usize;
    let mut failed = 0usize;
    for r in outcome.loads.iter().flatten() {
        if r.failed {
            failed += 1;
        } else {
            ok += 1;
        }
    }
    RunStats { ok, failed, ..stats }
}

/// Sweeps the classifier's learning threshold × rotation on/off: the
/// detection-pressure-vs-availability table for EXPERIMENTS.md.
fn sweep() {
    println!("--- arms-race sweep: detection pressure vs availability ---");
    println!(
        "{:>12} {:>13} {:>4} {:>7} {:>13} {:>11} {:>10} {:>10}",
        "learn_flows", "arm", "ok", "failed", "availability", "signatures", "campaigns", "rotations"
    );
    for learn_flows in [3u32, 6, 12] {
        for rotation in [false, true] {
            let s = run_once(learn_flows, rotation, false);
            println!(
                "{:>12} {:>13} {:>4} {:>7} {:>12.1}% {:>11} {:>10} {:>10}",
                learn_flows,
                if rotation { "rotation-on" } else { "rotation-off" },
                s.ok,
                s.failed,
                s.availability() * 100.0,
                s.signatures,
                s.campaigns,
                s.rotations,
            );
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--sweep") {
        sweep();
        return;
    }

    println!("--- arms-race lab: reactive GFW vs detection-driven scheme rotation ---");
    // Rotation-off control first, rotation-on treatment LAST: each run
    // rewrites SC_TRACE, and the check.sh gate must analyze the
    // defended arm.
    let control = run_once(LEARN_FLOWS, false, true);
    let defended = run_once(LEARN_FLOWS, true, true);

    for (name, s) in [("rotation-off", &control), ("rotation-on", &defended)] {
        println!(
            "{name}: {} ok / {} failed — availability {:.1}%; censor learned {} signatures, \
             ran {} campaigns, launched {} probes ({} confirmed, {} deflected), \
             blacklisted {}; defense rotated {}×",
            s.ok,
            s.failed,
            s.availability() * 100.0,
            s.signatures,
            s.campaigns,
            s.probes_launched,
            s.probes_confirmed,
            s.probes_deflected,
            s.blacklisted,
            s.rotations,
        );
    }

    // 1. The censor is actually reactive in both arms: it fingerprints
    //    the cover preamble and promotes it to a learned signature.
    assert!(control.signatures >= 1, "censor must learn the frozen scheme's signature");
    assert!(defended.signatures >= 1, "censor must learn at least the first scheme");
    // 2. Suspicion escalates to an active-probing campaign.
    assert!(control.campaigns >= 1, "suspicion must escalate to a probing campaign");
    assert!(control.probes_launched >= 1, "campaigns must launch probes");
    // 3. Probe resistance holds in BOTH arms: the replay cache serves
    //    the decoy, so no probe ever confirms the proxy and the
    //    adaptive blacklist never fires.
    for (name, s) in [("rotation-off", &control), ("rotation-on", &defended)] {
        assert_eq!(
            s.probes_confirmed, 0,
            "{name}: active probes must never confirm the remote"
        );
        assert_eq!(s.blacklisted, 0, "{name}: the adaptive blacklist must never fire");
        assert!(
            s.probes_launched == 0 || s.probes_deflected >= 1,
            "{name}: probed remotes must answer with the decoy"
        );
    }
    // 4. Frozen scheme: the learned signature RESETs every later
    //    tunnel and availability collapses.
    assert!(
        control.availability() < 0.60,
        "rotation-off availability {:.1}% should collapse below 60%",
        control.availability() * 100.0
    );
    assert_eq!(control.rotations, 0, "control arm must not rotate");
    // 5. Detection-driven rotation: evidence (breaker opens + probe
    //    sightings) triggers a scheme change, the signature starves,
    //    and availability holds.
    assert!(defended.rotations >= 1, "defended arm must rotate at least once");
    assert!(
        defended.availability() >= 0.90,
        "rotation-on availability {:.1}% should hold at or above 90%",
        defended.availability() * 100.0
    );
    // 6. Determinism: the same seed replays the same race.
    let replay = run_once(LEARN_FLOWS, true, false);
    assert_eq!(
        (defended.ok, defended.failed, defended.signatures, defended.rotations),
        (replay.ok, replay.failed, replay.signatures, replay.rotations),
        "defended arm must replay exactly"
    );

    println!("arms-race lab: all detection + availability assertions passed");
}
