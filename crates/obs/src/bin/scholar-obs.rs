//! `scholar-obs`: offline analyzer for `SC_TRACE` JSONL traces.
//!
//! ```text
//! scholar-obs <trace.jsonl> [--window SECS] [--json] [--trace ID] [GATE...]
//! ```
//!
//! Prints the critical-path decomposition of `page_load` spans, the
//! per-GFW-rule interference timeline, per-component event rates,
//! windowed page-load percentiles, injected faults with the resilience
//! reaction (failovers, breaker transitions, availability), the
//! overload-control decision summary, the cross-tier attribution of
//! stitched per-request trace trees, and any SLO alerts (with their
//! exemplar trace ids) recorded in the trace (see `sc_obs::analyze`).
//!
//! `--trace <id>` (16-hex-digit trace id, as printed in the slowest-
//! requests table and on alert exemplars) replaces the report with that
//! one request's cross-tier waterfall: every span of the stitched tree,
//! indented by causal depth, with the exclusive time blamed on each.
//!
//! `--json` replaces the human-readable report with the machine
//! summary from [`sc_obs::analyze::render_json`] (schema
//! `scholar-obs/v5`: availability, shed rate, cache hit rate, PLT
//! percentiles, per-tier attribution, alert exemplars, fleet, elastic
//! and arms-race sections) so CI can consume the numbers directly;
//! gates still apply and still decide the exit code.
//!
//! The gate flags turn the analyzer into a scenario assertion; [`GATES`]
//! is the whole list — what each one reads, which way it bounds it, and
//! what it says when the trace lacks the events it needs (which fails
//! the gate: a metric that cannot be computed did not pass).
//!
//! Exit codes (used by `scripts/check.sh` as a smoke gate):
//! * `0` — analysis printed (and any requested gates passed);
//! * `1` — usage / IO error;
//! * `2` — trace unparseable or empty;
//! * `3` — trace parsed but carries no closed spans and no events worth
//!   analyzing (empty analysis), or `--trace` names an unknown id;
//! * `4` — a requested gate failed.

use std::process::ExitCode;

use sc_obs::analyze::TraceAnalysis;

/// What a gate's threshold is measured in.
#[derive(Clone, Copy)]
enum Unit {
    /// A share in `[0, 1]`, printed as a percentage.
    Fraction,
    /// A percentage in `[0, 100]`.
    Percent,
    /// A non-negative dollar amount.
    Dollars,
}

impl Unit {
    fn value_name(self) -> &'static str {
        match self {
            Unit::Fraction => "FRAC",
            Unit::Percent => "PCT",
            Unit::Dollars => "DOLLARS",
        }
    }

    fn expects(self) -> &'static str {
        match self {
            Unit::Fraction => "a fraction in [0, 1]",
            Unit::Percent => "a percentage in [0, 100]",
            Unit::Dollars => "a non-negative dollar amount",
        }
    }

    fn accepts(self, v: f64) -> bool {
        match self {
            Unit::Fraction => (0.0..=1.0).contains(&v),
            Unit::Percent => (0.0..=100.0).contains(&v),
            Unit::Dollars => v.is_finite() && v >= 0.0,
        }
    }

    fn show(self, v: f64) -> String {
        match self {
            Unit::Fraction => format!("{:.1}%", v * 100.0),
            Unit::Percent => format!("{v:.1}%"),
            Unit::Dollars => format!("{v:.6} USD"),
        }
    }
}

/// Which side of its threshold a metric must stay on.
#[derive(Clone, Copy)]
enum Bound {
    /// Gate passes when `metric >= threshold`.
    AtLeast,
    /// Gate passes when `metric <= threshold`.
    AtMost,
}

/// One gate flag: drives argument parsing, the check, and the usage
/// line.
struct Gate {
    flag: &'static str,
    /// The threshold the flag takes; `None` for a bare `--require-…`
    /// flag, which only demands that `metric` is defined.
    threshold: Option<(Unit, Bound)>,
    /// Name of the metric in failure messages.
    what: &'static str,
    /// The metric in the threshold's unit; `None` when the trace lacks
    /// the events it is computed from.
    metric: fn(&TraceAnalysis) -> Option<f64>,
    /// Why the metric is undefined, when it is.
    undefined: &'static str,
    /// Appended to the "threshold missed" message.
    hint: &'static str,
}

const GATES: [Gate; 10] = [
    // The chaos gate: the resilience layer reacted at least once.
    Gate {
        flag: "--require-failover",
        threshold: None,
        what: "failover",
        metric: |a| (!a.failover_times.is_empty()).then_some(1.0),
        undefined: "no scholarcloud failover events in trace",
        hint: "",
    },
    // Share of finished page loads that succeeded.
    Gate {
        flag: "--min-availability",
        threshold: Some((Unit::Fraction, Bound::AtLeast)),
        what: "availability",
        metric: |a| a.availability(),
        undefined: "no finished page loads, availability undefined",
        hint: "",
    },
    // Share of admission decisions that shed or throttled the request
    // (the flash-crowd gate: overload may brown the service out, not
    // black it out). Zero, not undefined, without admission events.
    Gate {
        flag: "--max-shed-rate",
        threshold: Some((Unit::Fraction, Bound::AtMost)),
        what: "shed rate",
        metric: |a| Some(a.admission.shed_rate()),
        undefined: "",
        hint: "",
    },
    // Share of the domestic proxy's cache-path requests answered
    // without a full upstream fetch (the shared-cache gate).
    Gate {
        flag: "--min-cache-hit-rate",
        threshold: Some((Unit::Fraction, Bound::AtLeast)),
        what: "cache hit rate",
        metric: |a| a.cache.any().then(|| a.cache.hit_rate()),
        undefined: "no scholarcloud cache events in trace",
        hint: "",
    },
    // Share of browser connects to domestic-fleet members that
    // succeeded (the fleet-chaos gate: a crashed member may cost the
    // connects that discover it, not sustained availability).
    Gate {
        flag: "--min-fleet-availability",
        threshold: Some((Unit::Fraction, Bound::AtLeast)),
        what: "fleet availability",
        metric: |a| a.fleet.availability(),
        undefined: "no fleet connect events in trace, fleet availability undefined",
        hint: "",
    },
    // Share of completed page loads that stitched into cross-tier
    // trees.
    Gate {
        flag: "--min-attribution-coverage",
        threshold: Some((Unit::Percent, Bound::AtLeast)),
        what: "attribution coverage",
        metric: |a| a.attribution_coverage().map(|c| c * 100.0),
        undefined: "no completed page loads, attribution coverage undefined",
        hint: " (completed loads not stitching across tiers)",
    },
    // At least one fired SLO alert carried exemplar trace ids.
    Gate {
        flag: "--require-exemplars",
        threshold: None,
        what: "exemplars",
        metric: |a| (!a.alert_exemplars.is_empty()).then_some(1.0),
        undefined: "no fired SLO alert carries exemplar trace ids",
        hint: "",
    },
    // The elastic remote tier's metered cost per *successful* page load
    // (the elastic-lab gate).
    Gate {
        flag: "--max-cost-per-load",
        threshold: Some((Unit::Dollars, Bound::AtMost)),
        what: "cost per successful load",
        metric: |a| a.cost_per_ok_load_micro().map(|micro| micro / 1_000_000.0),
        undefined: "no elastic cost data (or no successful loads), cost per load undefined",
        hint: "",
    },
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

impl Gate {
    /// Checks the gate against `analysis`; `Err` is the failure message.
    fn check(&self, wanted: f64, analysis: &TraceAnalysis) -> Result<(), String> {
        let Some(got) = (self.metric)(analysis) else { return Err(self.undefined.to_string()) };
        let Some((unit, bound)) = self.threshold else { return Ok(()) };
        let (ok, missed) = match bound {
            Bound::AtLeast => (got >= wanted, "below required"),
            Bound::AtMost => (got <= wanted, "above allowed"),
        };
        if ok {
            return Ok(());
        }
        Err(format!("{} {} {missed} {}{}", self.what, unit.show(got), unit.show(wanted), self.hint))
    }
}

fn usage() -> String {
    let mut usage =
        String::from("usage: scholar-obs <trace.jsonl> [--window SECS] [--json] [--trace ID]");
    for gate in &GATES {
        match gate.threshold {
            Some((unit, _)) => usage.push_str(&format!(" [{} {}]", gate.flag, unit.value_name())),
            None => usage.push_str(&format!(" [{}]", gate.flag)),
        }
    }
    usage
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut window_s: u64 = 10;
    // Threshold per requested gate, by position in `GATES`.
    let mut wanted: [Option<f64>; GATES.len()] = [None; GATES.len()];
    let mut waterfall: Option<u64> = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        if let Some(i) = GATES.iter().position(|g| g.flag == arg) {
            wanted[i] = Some(match GATES[i].threshold {
                None => 0.0,
                Some((unit, _)) => {
                    let value = args.next().and_then(|v| v.parse::<f64>().ok());
                    let Some(v) = value.filter(|v| unit.accepts(*v)) else {
                        eprintln!("scholar-obs: {arg} expects {}", unit.expects());
                        return ExitCode::from(1);
                    };
                    v
                }
            });
            continue;
        }
        match arg.as_str() {
            "--json" => json = true,
            "--trace" => {
                let Some(id) =
                    args.next().and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
                else {
                    eprintln!("scholar-obs: --trace expects a hex trace id");
                    return ExitCode::from(1);
                };
                waterfall = Some(id);
            }
            "--window" => {
                let Some(v) = args.next().and_then(|v| v.parse::<u64>().ok()).filter(|v| *v > 0)
                else {
                    eprintln!("scholar-obs: --window expects a positive integer (seconds)");
                    return ExitCode::from(1);
                };
                window_s = v;
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            _ if path.is_none() && !arg.starts_with('-') => path = Some(arg),
            _ => {
                eprintln!("scholar-obs: unexpected argument {arg:?}");
                return ExitCode::from(1);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{}", usage());
        return ExitCode::from(1);
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("scholar-obs: cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let events = match sc_obs::analyze::parse_trace(&text) {
        Ok(evs) => evs,
        Err(e) => {
            eprintln!("scholar-obs: parse error in {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if events.is_empty() {
        eprintln!("scholar-obs: {path} contains no events");
        return ExitCode::from(2);
    }

    let analysis = sc_obs::analyze::analyze(&events, window_s * 1_000_000);
    if analysis.spans.is_empty() && analysis.rule_timeline.is_empty() {
        eprintln!(
            "scholar-obs: {path} parsed ({} events) but contains no spans or interference \
             events — was the trace captured at Debug level?",
            analysis.events
        );
        return ExitCode::from(3);
    }
    if let Some(id) = waterfall {
        match analysis.tree(id) {
            Some(tree) => print!("{}", sc_obs::analyze::render_waterfall(tree)),
            None => {
                eprintln!("scholar-obs: no spans carry trace id {id:016x}");
                return ExitCode::from(3);
            }
        }
    } else if json {
        print!("{}", sc_obs::analyze::render_json(&analysis));
    } else {
        print!("{}", sc_obs::analyze::render_report(&analysis));
    }

    let mut gate_failed = false;
    for (gate, wanted) in GATES.iter().zip(wanted) {
        if let Some(Err(why)) = wanted.map(|w| gate.check(w, &analysis)) {
            eprintln!("scholar-obs: gate failed — {why}");
            gate_failed = true;
        }
    }
    if gate_failed {
        return ExitCode::from(4);
    }
    ExitCode::SUCCESS
}
