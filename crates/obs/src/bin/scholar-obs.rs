//! `scholar-obs`: offline analyzer for `SC_TRACE` JSONL traces.
//!
//! ```text
//! scholar-obs <trace.jsonl> [--window SECS] [--json] [--trace ID] [GATE...]
//! ```
//!
//! Prints the critical-path decomposition of `page_load` spans, the
//! per-GFW-rule interference timeline, per-component event rates,
//! windowed page-load percentiles, injected faults with the resilience
//! reaction (failovers, breaker transitions, availability), one block
//! per layer of the deployment that left events in the trace, the
//! cross-tier attribution of stitched per-request trace trees, and any
//! SLO alerts (with their exemplar trace ids) recorded in the trace
//! (see `sc_obs::analyze`).
//!
//! `--trace <id>` (16-hex-digit trace id, as printed in the slowest-
//! requests table and on alert exemplars) replaces the report with that
//! one request's cross-tier waterfall: every span of the stitched tree,
//! indented by causal depth, with the exclusive time blamed on each.
//!
//! `--json` replaces the human-readable report with the machine
//! summary from [`sc_obs::analyze::render_json`] (schema
//! `scholar-obs/v5`; DESIGN.md §6b tabulates its keys) so CI can
//! consume the numbers directly; gates still apply and still decide the
//! exit code.
//!
//! The gate flags turn the analyzer into a scenario assertion;
//! [`sc_obs::analyze::gates`] is the whole list — what each one reads,
//! which way it bounds it, and what it says when the trace lacks the
//! events it needs (which fails the gate: a metric that cannot be
//! computed did not pass).
//!
//! Exit codes (used by `scripts/check.sh` as a smoke gate):
//! * `0` — analysis printed (and any requested gates passed);
//! * `1` — usage / IO error (a file that is not UTF-8 among them);
//! * `2` — trace unparseable or empty;
//! * `3` — trace parsed but carries no closed spans and no events worth
//!   analyzing (empty analysis), or `--trace` names an unknown id;
//! * `4` — a requested gate failed.

use std::process::ExitCode;

use sc_obs::analyze::{gates, read_trace, Gate, ReadError};

fn usage(gates: &[&Gate]) -> String {
    let mut usage =
        String::from("usage: scholar-obs <trace.jsonl> [--window SECS] [--json] [--trace ID]");
    gates.iter().for_each(|gate| usage.push_str(&gate.usage()));
    usage
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut window_s: u64 = 10;
    let gates = gates();
    // Threshold per requested gate, by position in `gates`.
    let mut wanted: Vec<Option<f64>> = vec![None; gates.len()];
    let mut waterfall: Option<u64> = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        if let Some(i) = gates.iter().position(|g| g.flag == arg) {
            match gates[i].threshold_from(&mut args) {
                Ok(threshold) => wanted[i] = Some(threshold),
                Err(why) => {
                    eprintln!("scholar-obs: {why}");
                    return ExitCode::from(1);
                }
            }
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
                println!("{}", usage(&gates));
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
        eprintln!("{}", usage(&gates));
        return ExitCode::from(1);
    };

    // Read a line at a time: memory follows the spans a line leaves
    // open and the requests' trees, not the size of the file.
    let read = std::fs::File::open(&path)
        .map_err(ReadError::Io)
        .and_then(|file| read_trace(std::io::BufReader::new(file)));
    let trace = match read {
        Ok(trace) => trace,
        Err(ReadError::Io(e)) => {
            eprintln!("scholar-obs: cannot read {path}: {e}");
            return ExitCode::from(1);
        }
        Err(ReadError::Parse(e)) => {
            eprintln!("scholar-obs: parse error in {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = sc_obs::analyze::analyze(&trace, window_s.saturating_mul(1_000_000));
    if analysis.events == 0 {
        eprintln!("scholar-obs: {path} contains no events");
        return ExitCode::from(2);
    }
    if analysis.spans_closed == 0 && analysis.rule_timeline.is_empty() {
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
    for (gate, wanted) in gates.iter().zip(wanted) {
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
