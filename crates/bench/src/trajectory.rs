//! The `BENCH_*.json` trajectory: schema, writer, parser, and the
//! regression comparator behind `scholar-bench --baseline`.
//!
//! The ROADMAP's simnet speed overhaul needs a *trajectory* — a
//! sequence of committed performance snapshots — so every hot-path PR
//! can prove "no slower than seed" mechanically. This module owns the
//! file format. The schema string is versioned
//! ([`SCHEMA`] = `"scholar-bench/v1"`); any future field change bumps
//! it, and [`BenchReport::parse`] rejects files whose schema it does
//! not understand, so a stale baseline fails loudly (exit code 2 in the
//! binary) instead of gating on garbage.
//!
//! JSON is written by hand with a fixed key order (the repo is
//! std-only; see `sc_obs::write_event_json` for the precedent) and read
//! back with [`sc_obs::analyze::parse_json`]. Floats use Rust's
//! shortest-round-trip `Display`, so serialize → parse is lossless —
//! `tests` pins the round trip.

use std::fmt::Write as _;

use sc_obs::analyze::{parse_json, Json};

/// Current schema identifier, first line of every BENCH file.
pub const SCHEMA: &str = "scholar-bench/v1";

/// One scenario's measured numbers (the best — lowest wall time — of
/// the harness's iterations).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBench {
    /// Scenario name (`quickstart`, `chaos`, …).
    pub name: String,
    /// Wall-clock time of the run (milliseconds).
    pub wall_ms: f64,
    /// Simulated seconds the scenario covered.
    pub sim_s: f64,
    /// Simulated seconds per wall second (higher is faster).
    pub sim_per_wall: f64,
    /// Events the simulator loop dispatched.
    pub events: u64,
    /// Events per wall second (higher is faster).
    pub events_per_sec: f64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Event-queue depth high-water mark.
    pub queue_depth_hwm: u64,
    /// Bytes allocated during the run (0 unless the harness installed
    /// [`sc_obs::prof::CountingAlloc`]).
    pub alloc_bytes: u64,
    /// Live-bytes high-water mark during the run (same caveat).
    pub peak_alloc_bytes: u64,
    /// Per-subsystem exclusive wall nanoseconds, in
    /// [`sc_obs::prof::Subsystem`] report order.
    pub subsystems: Vec<(String, u64)>,
}

/// A full BENCH_*.json file: a labelled suite of scenario measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Trajectory label (`seed`, a PR name, …).
    pub label: String,
    /// Iterations each scenario ran (best-of is recorded).
    pub iterations: u32,
    /// Per-scenario measurements, suite order.
    pub scenarios: Vec<ScenarioBench>,
}

/// Formats an `f64` as a JSON number (shortest round-trip; non-finite
/// values, which never arise from timings, map to `0`).
fn jf(v: f64) -> String {
    if v.is_finite() { format!("{v}") } else { "0".to_string() }
}

/// Minimal JSON string escaping for labels/names (our names are ASCII
/// identifiers, but garbage in must not produce an unparseable file).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl BenchReport {
    /// Serializes to the canonical pretty-printed JSON (fixed key
    /// order, deterministic for a given report).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"label\": {},", jstr(&self.label));
        let _ = writeln!(out, "  \"iterations\": {},", self.iterations);
        out.push_str("  \"scenarios\": [");
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let _ = writeln!(out, "      \"name\": {},", jstr(&s.name));
            let _ = writeln!(out, "      \"wall_ms\": {},", jf(s.wall_ms));
            let _ = writeln!(out, "      \"sim_s\": {},", jf(s.sim_s));
            let _ = writeln!(out, "      \"sim_per_wall\": {},", jf(s.sim_per_wall));
            let _ = writeln!(out, "      \"events\": {},", s.events);
            let _ = writeln!(out, "      \"events_per_sec\": {},", jf(s.events_per_sec));
            let _ = writeln!(out, "      \"timers_fired\": {},", s.timers_fired);
            let _ = writeln!(out, "      \"queue_depth_hwm\": {},", s.queue_depth_hwm);
            let _ = writeln!(out, "      \"alloc_bytes\": {},", s.alloc_bytes);
            let _ = writeln!(out, "      \"peak_alloc_bytes\": {},", s.peak_alloc_bytes);
            out.push_str("      \"subsystems\": {");
            for (j, (name, ns)) in s.subsystems.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {}", jstr(name), ns);
            }
            out.push_str("}\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a BENCH_*.json file, rejecting unknown schemas and shape
    /// violations with a descriptive error.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let v = parse_json(text)?;
        let schema = v.get("schema").and_then(Json::as_str).ok_or("missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (expected {SCHEMA:?})"));
        }
        let label = v.get("label").and_then(Json::as_str).ok_or("missing \"label\"")?.to_string();
        let iterations =
            v.get("iterations").and_then(Json::as_u64).ok_or("missing \"iterations\"")? as u32;
        let raw = v.get("scenarios").and_then(Json::as_arr).ok_or("missing \"scenarios\"")?;
        let mut scenarios = Vec::with_capacity(raw.len());
        for (i, s) in raw.iter().enumerate() {
            let ctx = |key: &str| format!("scenario {i}: missing or mistyped {key:?}");
            let f = |key: &str| s.get(key).and_then(Json::as_f64).ok_or_else(|| ctx(key));
            let u = |key: &str| s.get(key).and_then(Json::as_u64).ok_or_else(|| ctx(key));
            let subsystems = match s.get("subsystems") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .map(|(k, v)| {
                        v.as_u64()
                            .map(|ns| (k.to_string(), ns))
                            .ok_or_else(|| format!("scenario {i}: subsystem {k:?} not a u64"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                _ => return Err(ctx("subsystems")),
            };
            scenarios.push(ScenarioBench {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ctx("name"))?
                    .to_string(),
                wall_ms: f("wall_ms")?,
                sim_s: f("sim_s")?,
                sim_per_wall: f("sim_per_wall")?,
                events: u("events")?,
                events_per_sec: f("events_per_sec")?,
                timers_fired: u("timers_fired")?,
                queue_depth_hwm: u("queue_depth_hwm")?,
                alloc_bytes: u("alloc_bytes")?,
                peak_alloc_bytes: u("peak_alloc_bytes")?,
                subsystems,
            });
        }
        Ok(BenchReport { label, iterations, scenarios })
    }

    /// Basic sanity bounds a freshly measured report must satisfy (the
    /// CI smoke gate: schema and shape, **no timing assertions**).
    /// Returns the violations, empty when sound.
    pub fn sanity_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.scenarios.is_empty() {
            out.push("no scenarios measured".to_string());
        }
        for s in &self.scenarios {
            let mut complain = |what: &str| out.push(format!("{}: {what}", s.name));
            if s.events == 0 {
                complain("zero events processed");
            }
            if !(s.wall_ms.is_finite() && s.wall_ms > 0.0) {
                complain("non-positive wall time");
            }
            if !(s.sim_s.is_finite() && s.sim_s > 0.0) {
                complain("non-positive simulated time");
            }
            if !(s.events_per_sec.is_finite() && s.events_per_sec > 0.0) {
                complain("non-positive events/sec");
            }
            if !(s.sim_per_wall.is_finite() && s.sim_per_wall > 0.0) {
                complain("non-positive sim/wall ratio");
            }
            if s.queue_depth_hwm == 0 {
                complain("zero queue-depth high-water mark");
            }
            if s.subsystems.iter().all(|(_, ns)| *ns == 0) {
                complain("no subsystem attribution recorded");
            }
        }
        out
    }
}

/// One detected regression from [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Scenario name.
    pub scenario: String,
    /// The regressed metric (`events_per_sec`, `sim_per_wall`, or
    /// `missing` when the scenario vanished from the current suite).
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Percent regression relative to baseline (positive = slower).
    pub regress_pct: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.metric == "missing" {
            write!(f, "{}: scenario missing from current run", self.scenario)
        } else {
            write!(
                f,
                "{}: {} {:.0} → {:.0} ({:+.1}%)",
                self.scenario, self.metric, self.baseline, self.current, -self.regress_pct
            )
        }
    }
}

/// Compares `current` against `baseline` and returns every throughput
/// metric that regressed by more than `max_regress_pct` percent.
///
/// Gated metrics are `events_per_sec` and `sim_per_wall` (higher is
/// better); allocation numbers are informational only — they vary with
/// allocator versions and are gated by eye, not CI. A scenario present
/// in the baseline but absent from `current` is itself a regression
/// (coverage must never silently shrink). Extra scenarios in `current`
/// are fine — that is how the suite grows.
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    max_regress_pct: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for b in &baseline.scenarios {
        let Some(c) = current.scenarios.iter().find(|c| c.name == b.name) else {
            out.push(Regression {
                scenario: b.name.clone(),
                metric: "missing",
                baseline: 0.0,
                current: 0.0,
                regress_pct: 100.0,
            });
            continue;
        };
        for (metric, base, cur) in [
            ("events_per_sec", b.events_per_sec, c.events_per_sec),
            ("sim_per_wall", b.sim_per_wall, c.sim_per_wall),
        ] {
            if base <= 0.0 {
                continue;
            }
            let regress_pct = (base - cur) / base * 100.0;
            if regress_pct > max_regress_pct {
                out.push(Regression {
                    scenario: b.name.clone(),
                    metric,
                    baseline: base,
                    current: cur,
                    regress_pct,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            label: "seed".to_string(),
            iterations: 3,
            scenarios: vec![
                ScenarioBench {
                    name: "quickstart".to_string(),
                    wall_ms: 12.75,
                    sim_s: 120.0,
                    sim_per_wall: 9411.76,
                    events: 43210,
                    events_per_sec: 3389019.6,
                    timers_fired: 512,
                    queue_depth_hwm: 33,
                    alloc_bytes: 9_000_000,
                    peak_alloc_bytes: 1_500_000,
                    subsystems: vec![
                        ("event_loop".to_string(), 7_000_000),
                        ("tcp".to_string(), 3_000_000),
                        ("gfw_classify".to_string(), 500_000),
                        ("proxy".to_string(), 1_200_000),
                        ("cache".to_string(), 0),
                    ],
                },
                ScenarioBench {
                    name: "chaos".to_string(),
                    wall_ms: 40.5,
                    sim_s: 260.0,
                    sim_per_wall: 6419.75,
                    events: 98765,
                    events_per_sec: 2438641.9,
                    timers_fired: 2048,
                    queue_depth_hwm: 57,
                    alloc_bytes: 22_000_000,
                    peak_alloc_bytes: 2_100_000,
                    subsystems: vec![("event_loop".to_string(), 30_000_000)],
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample();
        let text = report.to_json();
        let parsed = BenchReport::parse(&text).expect("own output must parse");
        assert_eq!(parsed, report);
        // And the canonical serialization is a fixed point.
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn parse_rejects_wrong_schema_and_shapes() {
        assert!(BenchReport::parse("not json at all").is_err());
        assert!(BenchReport::parse("{\"schema\": \"scholar-bench/v999\"}")
            .unwrap_err()
            .contains("unsupported schema"));
        // A scenario missing a required key names the key.
        let text = sample().to_json().replace("\"events_per_sec\": 3389019.6,\n", "");
        assert!(BenchReport::parse(&text).unwrap_err().contains("events_per_sec"));
        // Hostile label round-trips through escaping.
        let mut r = sample();
        r.label = "we\"ird\\label\n".to_string();
        assert_eq!(BenchReport::parse(&r.to_json()).unwrap().label, r.label);
    }

    #[test]
    fn sanity_violations_catch_empty_and_zeroed_runs() {
        let ok = sample();
        assert!(ok.sanity_violations().is_empty());
        let empty = BenchReport { label: "x".into(), iterations: 1, scenarios: vec![] };
        assert_eq!(empty.sanity_violations(), vec!["no scenarios measured".to_string()]);
        let mut broken = sample();
        broken.scenarios[0].events = 0;
        broken.scenarios[0].subsystems.iter_mut().for_each(|(_, ns)| *ns = 0);
        let v = broken.sanity_violations();
        assert!(v.iter().any(|m| m.contains("zero events")));
        assert!(v.iter().any(|m| m.contains("no subsystem attribution")));
    }

    #[test]
    fn compare_flags_synthetic_regression_and_missing_scenarios() {
        let base = sample();
        // Unchanged tree: identical numbers pass any threshold.
        assert!(compare(&base, &base, 0.0).is_empty());

        // Synthetic 30% slowdown on one scenario.
        let mut slow = base.clone();
        slow.scenarios[0].events_per_sec *= 0.70;
        slow.scenarios[0].sim_per_wall *= 0.70;
        let regs = compare(&base, &slow, 15.0);
        assert_eq!(regs.len(), 2, "{regs:?}");
        assert!(regs.iter().all(|r| r.scenario == "quickstart"));
        assert!(regs.iter().any(|r| r.metric == "events_per_sec"));
        assert!((regs[0].regress_pct - 30.0).abs() < 1e-6);
        // A generous threshold tolerates it.
        assert!(compare(&base, &slow, 35.0).is_empty());

        // Small jitter below the threshold passes.
        let mut jitter = base.clone();
        jitter.scenarios[1].events_per_sec *= 0.95;
        assert!(compare(&base, &jitter, 15.0).is_empty());

        // A speedup is never a regression.
        let mut fast = base.clone();
        fast.scenarios[0].events_per_sec *= 2.0;
        assert!(compare(&base, &fast, 15.0).is_empty());

        // Dropping a baseline scenario is a regression; adding one is not.
        let mut shrunk = base.clone();
        shrunk.scenarios.remove(1);
        let regs = compare(&base, &shrunk, 15.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "missing");
        assert_eq!(regs[0].scenario, "chaos");
        let mut grown = base.clone();
        grown.scenarios.push(ScenarioBench { name: "new".into(), ..base.scenarios[0].clone() });
        assert!(compare(&base, &grown, 15.0).is_empty());
    }
}
