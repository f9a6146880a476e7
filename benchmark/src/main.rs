//! `sc-benchmark`: the repository benchmark.
//!
//! ```text
//! sc-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, one mode
//! sc-benchmark [--seed N] [--seconds S] [--smoke]                 every workload, both modes
//! sc-benchmark --compare BASE.json[,…] NEW.json[,…]              apply the bounds table
//! ```
//!
//! Every metric is printed as `workload name value unit`; the last line
//! of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). With `--trace 0` the metrics are the eight
//! end-to-end ones, measured with the profiler off and no spans; with
//! `--trace 1` they are the per-layer ones, from separate traced
//! repetitions. Without `--workload` both modes run for all five
//! workloads and the result is also written to
//! `benchmark/out/result.json`. The harness's spans go to
//! `benchmark/out/trace.jsonl` whenever a traced repetition ran.
//!
//! Exit codes: `0` measured and correct; `1` usage or I/O error; `3` a
//! correctness check failed; `5` `--compare` found a regression.
//!
//! The benchmark drives the stack through its public API only, in one
//! process on one thread, with `sc_obs::prof::CountingAlloc` as the
//! global allocator. See `benchmark/README.md`.

mod calibrate;
mod check;
mod facts;
mod layers;
mod micro;
mod replay;
mod run;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use sc_obs::analyze::{parse_json, Json};

use run::{Measured, Options};
use workloads::Workload;

/// Every allocation the stack makes is counted; this is the opt-in
/// `sc_obs::prof` documents.
#[global_allocator]
static ALLOC: sc_obs::prof::CountingAlloc = sc_obs::prof::CountingAlloc;

const USAGE: &str = "usage: sc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] | --compare BASE.json[,...] NEW.json[,...]";
/// Where results and spans are written, relative to the checkout root.
const OUT_DIR: &str = "benchmark/out";
/// Seconds a timed section fills when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: check::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} expects {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must lie in 0..=3600".to_string());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                });
            }
            "--smoke" => args.smoke = true,
            "--compare" => {
                args.compare = Some((value("two result files")?, value("two result files")?));
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

/// Prints the `workload name value unit` rows and returns them as the
/// body of a JSON `metrics` object.
fn print_rows(workload: Workload, m: &Measured) -> String {
    let mut json = String::new();
    for (i, r) in m.rows.iter().enumerate() {
        println!(
            "{} {} {} {} {}",
            workload.name(),
            r.name,
            r.value,
            r.unit,
            r.note
        );
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            r.name,
            r.value,
            r.unit
        );
    }
    for line in &m.info {
        println!("# {} {line}", workload.name());
    }
    for v in &m.violations {
        eprintln!("sc-benchmark: INCORRECT {}: {v}", workload.name());
    }
    json
}

fn result_object(m: &Measured, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        m.violations.is_empty(),
        m.attempted.max(1),
        m.failed
    )
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn write_spans() -> Result<(), String> {
    write_out("trace.jsonl", &spans::to_jsonl(&spans::snapshot()))
}

/// One workload in one mode: the driver's contract.
fn run_one(
    workload: Workload,
    trace: bool,
    opts: &Options,
    start: Instant,
) -> Result<bool, String> {
    let m = if trace {
        run::per_layer(workload, opts)
    } else {
        run::end_to_end(workload, opts, start)
    };
    let metrics = print_rows(workload, &m);
    if trace {
        write_spans()?;
    }
    println!("{}", result_object(&m, &metrics));
    Ok(m.violations.is_empty())
}

/// Every workload in both modes; also writes `result.json`.
fn run_all(opts: &Options, start: Instant) -> Result<bool, String> {
    let mut correct = true;
    let mut body = String::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        // Only the first workload's set-up can include process start.
        let since = if i == 0 { start } else { Instant::now() };
        let e2e = run::end_to_end(workload, opts, since);
        let e2e_json = print_rows(workload, &e2e);
        let layer = run::per_layer(workload, opts);
        let layer_json = print_rows(workload, &layer);
        let ok = e2e.violations.is_empty() && layer.violations.is_empty();
        correct &= ok;
        attempted += e2e.attempted;
        failed += e2e.failed;
        let _ = write!(
            body,
            "{}\n    \"{}\": {{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \
             \"end_to_end\": {{{e2e_json}}}, \"per_layer\": {{{layer_json}}}}}",
            if i == 0 { "" } else { "," },
            workload.name(),
            e2e.attempted,
            e2e.failed
        );
    }
    let text = format!(
        "{{\n  \"schema\": \"sc-benchmark/v1\",\n  \"seed\": {},\n  \"smoke\": {},\n  \
         \"workloads\": {{{body}\n  }}\n}}\n",
        opts.seed, opts.smoke
    );
    write_out("result.json", &text)?;
    write_spans()?;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
        attempted.max(1)
    );
    Ok(correct)
}

fn load_result(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if json.get("schema").and_then(Json::as_str) != Some("sc-benchmark/v1") {
        return Err(format!("{path}: not an sc-benchmark/v1 result"));
    }
    Ok(json)
}

/// Applies the same-seed bounds table to two sets of `result.json`
/// files (each a comma-separated list; a set's value is its median, so
/// that one noisy run does not decide a host metric).
fn compare(base_paths: &str, new_paths: &str) -> Result<Vec<String>, String> {
    let load_set = |paths: &str| {
        paths
            .split(',')
            .map(load_result)
            .collect::<Result<Vec<_>, _>>()
    };
    let (base, new) = (load_set(base_paths)?, load_set(new_paths)?);
    let mut seeds = base
        .iter()
        .chain(&new)
        .map(|j| j.get("seed").and_then(Json::as_u64));
    let seed = seeds.next().flatten();
    if seed.is_none() || seeds.any(|s| s != seed) {
        return Err("seeds differ: count and sim bounds only hold at one seed".to_string());
    }
    let mut violations = Vec::new();
    for workload in Workload::ALL {
        let median = |set: &[Json], metric: &str| {
            let values: Option<Vec<f64>> = set
                .iter()
                .map(|j| {
                    j.get("workloads")?
                        .get(workload.name())?
                        .get("end_to_end")?
                        .get(metric)?
                        .get("value")?
                        .as_f64()
                })
                .collect();
            stats::median(&values?)
        };
        let found = check::compare_end_to_end(workload.name(), |metric| {
            let pair = (median(&base, metric)?, median(&new, metric)?);
            println!("{} {metric} {} -> {}", workload.name(), pair.0, pair.1);
            Some(pair)
        });
        violations.extend(found);
    }
    Ok(violations)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("sc-benchmark: {e}\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    if let Some((base, new)) = &args.compare {
        return match compare(base, new) {
            Ok(v) if v.is_empty() => {
                println!("no end-to-end metric is worse than its bound allows");
                ExitCode::SUCCESS
            }
            Ok(v) => {
                for line in v {
                    eprintln!("sc-benchmark: REGRESSION {line}");
                }
                ExitCode::from(5)
            }
            Err(e) => {
                eprintln!("sc-benchmark: {e}");
                ExitCode::from(1)
            }
        };
    }
    // A smoke run is one repetition per mode, whatever --seconds says.
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let opts = Options {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
    };
    let outcome = match (args.workload, args.trace) {
        (Some(w), trace) => run_one(w, trace.unwrap_or(false), &opts, start),
        (None, None) => run_all(&opts, start),
        (None, Some(_)) => Err("--trace needs --workload".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("sc-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
