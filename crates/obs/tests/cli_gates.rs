//! `scholar-obs` gate flags, end to end through the binary: each
//! numeric gate passing (exit 0), failing (4) and given a malformed
//! value (1), with the report on stdout the same whatever the gates
//! decide; and, over the library's own gate list, every flag in the
//! usage line once and undefined (4) on a trace that lacks its events.

use std::path::PathBuf;
use std::process::{Command, Output};

use sc_obs::analyze::{analyze, gates, parse_trace};
use sc_obs::{write_line, Fields, Level, SpanId};

/// One trace record: its time, and the line the writer made of it.
#[derive(Clone)]
struct Event {
    t_us: u64,
    line: String,
}

fn event(
    t_us: u64,
    level: Level,
    (component, target, name): (&str, &str, &str),
    span: SpanId,
    fields: impl FnOnce(&mut Fields<'_>),
) -> Event {
    let mut line = String::new();
    write_line(&mut line, t_us, level, component, target, name, span, fields);
    Event { t_us, line }
}

fn write_trace(name: &str, events: &[Event]) -> PathBuf {
    let mut text = String::new();
    for ev in events {
        text.push_str(&ev.line);
        text.push('\n');
    }
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write trace");
    path
}

fn span(
    id: u64,
    component: &'static str,
    name: &'static str,
    (start, end): (u64, u64),
    trace: u64,
    parent: Option<u64>,
    ok: bool,
) -> [Event; 2] {
    let s = event(start, Level::Debug, (component, "t", "span_start"), SpanId(id), |f| {
        f.field("span_name", name).field("trace_id", trace);
        if let Some(p) = parent {
            f.field("parent", p);
        }
    });
    let e = event(end, Level::Info, (component, "t", "span_end"), SpanId(id), |f| {
        f.field("span_name", name).field("ok", ok);
    });
    [s, e]
}

fn repeat(n: usize, ev: Event) -> Vec<Event> {
    vec![ev; n]
}

/// A trace on which every gated metric is defined:
/// availability 50% (2 of 4 loads), 50% under the campaign that starts
/// at 2 s (1 of the 2 loads ending after it), attribution coverage 50%
/// (1 of the 2 completed loads stitched), shed rate 25%, cache hit
/// rate 50%, fleet availability 75%, 0.0005 USD per successful load,
/// probe detection rate 25%. Tests run in parallel, so each writes
/// its own copy.
fn rich_trace(test: &str) -> PathBuf {
    const S: u64 = 1_000_000;
    let mut evs = Vec::new();
    evs.extend(span(1, "web", "page_load", (0, S), 1, None, true));
    evs.extend(span(2, "scholarcloud", "establish", (10, 20), 1, Some(1), true));
    evs.extend(span(3, "web", "page_load", (0, S), 2, None, false));
    evs.extend(span(4, "web", "page_load", (2 * S, 3 * S), 3, None, true));
    evs.extend(span(5, "web", "page_load", (2 * S, 3 * S), 4, None, false));
    let bare = |t_us, level, labels| event(t_us, level, labels, SpanId::NONE, |_| {});
    let sc = |target, name| bare(100, Level::Debug, ("scholarcloud", target, name));
    evs.extend(repeat(3, sc("admission", "admit")));
    evs.push(sc("admission", "shed"));
    evs.push(sc("cache", "hit"));
    evs.push(sc("cache", "miss"));
    evs.extend(repeat(3, bare(100, Level::Info, ("web", "fleet", "connect_ok"))));
    evs.push(bare(100, Level::Info, ("web", "fleet", "connect_fail")));
    evs.push(event(100, Level::Debug, ("scholarcloud", "elastic", "cost"), SpanId::NONE, |f| {
        f.field("live", 1u64).field("total_micro", 1000u64);
    }));
    evs.push(bare(2 * S, Level::Info, ("gfw", "adaptive", "campaign")));
    evs.extend(repeat(4, bare(2 * S, Level::Info, ("gfw", "probe", "launched"))));
    evs.push(event(2 * S, Level::Info, ("gfw", "probe", "verdict"), SpanId::NONE, |f| {
        f.field("verdict", "confirmed");
    }));
    evs.sort_by_key(|e| e.t_us);
    write_trace(&format!("cli_gates_{test}_rich.jsonl"), &evs)
}

/// A trace that analyzes (one closed span) but carries none of the
/// events any gate reads.
fn bare_trace() -> PathBuf {
    write_trace("cli_gates_bare.jsonl", &span(1, "web", "dns", (0, 10), 0, None, true))
}

fn run(trace: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scholar-obs"))
        .arg(trace)
        .args(args)
        .output()
        .expect("run scholar-obs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

/// `(flag, passing value, failing value, out-of-range value)` on the
/// rich trace.
const GATES: [(&str, &str, &str, &str); 8] = [
    ("--min-availability", "0.5", "0.51", "1.5"),
    ("--max-shed-rate", "0.25", "0.24", "-0.1"),
    ("--min-cache-hit-rate", "0.5", "0.51", "2"),
    ("--min-fleet-availability", "0.75", "0.76", "1.01"),
    ("--min-attribution-coverage", "50", "50.5", "101"),
    ("--max-cost-per-load", "0.0005", "0.00049", "-1"),
    ("--max-detection-rate", "0.25", "0.24", "1.5"),
    ("--min-availability-under-campaign", "0.5", "0.51", "7"),
];

#[test]
fn each_numeric_gate_passes_and_fails_without_touching_the_report() {
    let rich = rich_trace("numeric");
    let report = run(&rich, &[]);
    assert_eq!(code(&report), 0);
    assert!(!report.stdout.is_empty());
    for (flag, pass, fail, _) in GATES {
        let out = run(&rich, &[flag, pass]);
        assert_eq!(code(&out), 0, "{flag} {pass}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.stdout, report.stdout, "{flag} must not change the report");

        let out = run(&rich, &[flag, fail]);
        assert_eq!(code(&out), 4, "{flag} {fail} must fail the gate");
        assert_eq!(out.stdout, report.stdout, "a failed gate still prints the report");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("gate failed"), "{flag}: {err}");
    }
}

/// The gate list the library assembles from its sections is what the
/// binary parses and prints: every flag is in the usage line exactly
/// once (so no two gates share one), every flag is exercised by the
/// table above, and on a trace that carries none of a gate's events the
/// gate fails with its own `undefined` message — except where the
/// metric is defined without them (a shed rate of 0).
#[test]
fn every_gate_is_listed_once_and_undefined_without_its_events() {
    let help = Command::new(env!("CARGO_BIN_EXE_scholar-obs")).arg("--help").output().unwrap();
    assert_eq!(code(&help), 0);
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    let bare = bare_trace();
    let text = std::fs::read_to_string(&bare).unwrap();
    let analysis = analyze(&parse_trace(&text).unwrap(), 10_000_000);
    let gates = gates();
    assert!(gates.len() >= 10, "{} gates", gates.len());
    for gate in gates {
        let listed = usage.split_whitespace().filter(|w| w.trim_matches(['[', ']']) == gate.flag);
        assert_eq!(listed.count(), 1, "{} in: {usage}", gate.flag);
        let numeric = gate.threshold.is_some();
        assert_eq!(numeric, GATES.iter().any(|(flag, ..)| *flag == gate.flag), "{}", gate.flag);
        // 0 is a threshold every unit accepts.
        let args: &[&str] = if numeric { &[gate.flag, "0"] } else { &[gate.flag] };
        let out = run(&bare, args);
        match gate.check(0.0, &analysis) {
            Ok(()) => assert_eq!(code(&out), 0, "{}", gate.flag),
            Err(why) => {
                assert_eq!(code(&out), 4, "{} on a trace without its events", gate.flag);
                assert_eq!(why, gate.undefined, "{}", gate.flag);
                let err = String::from_utf8_lossy(&out.stderr);
                assert!(err.contains(gate.undefined), "{}: {err}", gate.flag);
            }
        }
    }
}

#[test]
fn malformed_gate_values_are_usage_errors() {
    let rich = rich_trace("malformed");
    for (flag, _, _, out_of_range) in GATES {
        for bad in ["abc", "nan", out_of_range] {
            let out = run(&rich, &[flag, bad]);
            assert_eq!(code(&out), 1, "{flag} {bad}");
            assert!(out.stdout.is_empty(), "{flag} {bad}: nothing is analyzed");
            assert!(String::from_utf8_lossy(&out.stderr).contains(flag), "{flag} {bad}");
        }
        // The value is missing altogether.
        assert_eq!(code(&run(&rich, &[flag])), 1, "{flag} without a value");
    }
}

#[test]
fn boolean_gates_and_json_keep_their_exit_codes() {
    let rich = rich_trace("boolean");
    assert_eq!(code(&run(&rich, &["--require-failover"])), 4);
    assert_eq!(code(&run(&rich, &["--require-exemplars"])), 4);
    let json = run(&rich, &["--json", "--min-availability", "0.9"]);
    assert_eq!(code(&json), 4, "gates still decide the exit code under --json");
    assert!(String::from_utf8_lossy(&json.stdout).contains("\"schema\": \"scholar-obs/v5\""));
    assert_eq!(code(&run(&rich, &["--bogus"])), 1);
}

/// The binary reads the file a line at a time, and what it cannot read
/// keeps its exit code: a damaged line is a parse error (2) that names
/// the line, counting blank ones; bytes that are not UTF-8 are an I/O
/// error (1); a file with no events is 2. `\r\n` endings read as `\n`.
#[test]
fn the_file_is_read_a_line_at_a_time_with_the_old_exit_codes() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let file = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write trace");
        path
    };
    let [start, end] = span(1, "web", "dns", (0, 10), 0, None, true);
    let stderr = |out: &Output| String::from_utf8_lossy(&out.stderr).into_owned();

    let damaged = format!("{}\n\n{}\n", start.line, &end.line[..end.line.len() - 1]);
    let out = run(&file("cli_gates_damaged.jsonl", damaged.as_bytes()), &[]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains(": line 3: "), "{}", stderr(&out));
    assert!(out.stdout.is_empty());

    let mut latin1 = format!("{}\n", start.line).into_bytes();
    latin1.extend_from_slice(b"{\"t_us\":1,\"level\":\"info\",\"component\":\"caf\xe9\"");
    let out = run(&file("cli_gates_latin1.jsonl", &latin1), &[]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));

    let out = run(&file("cli_gates_empty.jsonl", b""), &[]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(stderr(&out).contains("contains no events"), "{}", stderr(&out));

    let rich = rich_trace("crlf");
    let crlf = std::fs::read_to_string(&rich).unwrap().replace('\n', "\r\n");
    let out = run(&file("cli_gates_crlf.jsonl", crlf.as_bytes()), &[]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert_eq!(out.stdout, run(&rich, &[]).stdout);
}
