//! Property tests for the analyzer's JSON parser, the one place where
//! `sc-obs` reads bytes it did not just write: (a) whatever [`Record`]
//! the writer can serialize parses back field for field, borrowing from
//! the line exactly when nothing had to be unescaped; (b) a string
//! parses to the same text whether it arrives plain (borrowed path) or
//! `\u`-escaped (owned path); (c) arbitrary bytes, and arbitrary damage
//! to a valid line, are an `Err` with an in-range offset or an `Ok` —
//! never a panic, and never a stack overflow however deep they nest;
//! (d) whatever sequence of well-formed events a trace holds — the
//! analyzer's own vocabulary in any order, with any timestamps, span
//! ids and field types — parses, analyzes and renders without a panic,
//! to JSON that parses back, the same bytes every time; (e) read from a
//! reader a few bytes at a time, with `\r\n` endings and blank lines
//! among the records, a trace gives what the text gives: the same
//! report and `--json`, or the same `line N: …` error when damaged.

use std::borrow::Cow;
use std::io::{BufReader, Read};

use proptest::prelude::*;
use sc_obs::analyze::{
    analyze, parse_json, parse_line, parse_trace, read_trace, render_json, render_report,
    render_waterfall, JsonValue, ReadError, TraceAnalysis, MAX_DEPTH,
};
use sc_obs::{write_line, FieldValue, Level, SpanId};

/// A field value as a call site hands it to `Fields::field`.
#[derive(Debug, Clone)]
enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'static str),
    /// A runtime string.
    Text(String),
    Bool(bool),
}

impl FieldValue for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => v.write_json(out),
            Value::I64(v) => v.write_json(out),
            Value::F64(v) => v.write_json(out),
            Value::Str(v) => v.write_json(out),
            Value::Text(v) => v.write_json(out),
            Value::Bool(v) => v.write_json(out),
        }
    }
}

/// One record as the writer is given it.
#[derive(Debug, Clone)]
struct Record {
    t_us: u64,
    level: Level,
    component: &'static str,
    target: &'static str,
    name: &'static str,
    span: SpanId,
    fields: Vec<(&'static str, Value)>,
}

/// Characters the writer escapes (quote, backslash, C0 controls), ones
/// it must not (DEL, `/`), JSON punctuation, and 2-, 3- and 4-byte
/// UTF-8.
const ALPHABET: [char; 26] = [
    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\0', '\u{1}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', '{', '}', '[', ':', ',', 'u', 'é', '例', '\u{ffff}', '😀',
];

/// Static names for the `&'static str` slots of a [`Record`]: plain,
/// hostile, empty, and ones that collide with the record's own keys.
const NAMES: [&str; 9] =
    ["web", "span_start", "with\"quote", "back\\slash", "ctl\u{1}\n\t", "例子.测试", "", "t_us", "fields"];

fn needs_escape(s: &str) -> bool {
    s.chars().any(|c| c == '"' || c == '\\' || (c as u32) < 0x20)
}

fn gen_text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..ALPHABET.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn gen_name() -> impl Strategy<Value = &'static str> {
    (0usize..NAMES.len()).prop_map(|i| NAMES[i])
}

/// Every [`Value`] kind; floats come from raw bits so NaN, infinities,
/// subnormals and integers-as-floats all turn up.
fn gen_value() -> impl Strategy<Value = Value> {
    (0u8..6, any::<u64>(), gen_text(), gen_name()).prop_map(|(kind, bits, text, name)| match kind {
        0 => Value::U64(bits),
        1 => Value::I64(bits as i64),
        2 => Value::F64(f64::from_bits(bits)),
        3 => Value::Str(name),
        4 => Value::Text(text),
        _ => Value::Bool(bits & 1 == 1),
    })
}

fn gen_event() -> impl Strategy<Value = Record> {
    (
        any::<u64>(),
        0usize..5,
        (gen_name(), gen_name(), gen_name()),
        // Every fourth event is outside any span.
        any::<u64>().prop_map(|id| if id % 4 == 0 { 0 } else { id }),
        prop::collection::vec((gen_name(), gen_value()), 0..7),
    )
        .prop_map(|(t_us, level, (component, target, name), span, fields)| {
            let level = [Level::Trace, Level::Debug, Level::Info, Level::Warn, Level::Error][level];
            Record { t_us, level, component, target, name, span: SpanId(span), fields }
        })
}

fn line_of(r: &Record) -> String {
    let mut line = String::new();
    write_line(&mut line, r.t_us, r.level, r.component, r.target, r.name, r.span, |f| {
        for (key, value) in &r.fields {
            f.field(key, value);
        }
    });
    line
}

/// A parsed string equals what was written, and was copied only if the
/// writer had to escape it.
#[allow(clippy::ptr_arg)] // the variant is what is under test
fn assert_string(parsed: &Cow<'_, str>, written: &str) {
    assert_eq!(parsed, written);
    assert_eq!(matches!(parsed, Cow::Owned(_)), needs_escape(written), "{written:?}");
}

/// A parse error that names a byte offset names one inside the text.
fn assert_offset_in_range(err: &str, len: usize) {
    if let Some(at) = err.rfind(" at byte ") {
        if let Ok(offset) = err[at + " at byte ".len()..].parse::<usize>() {
            assert!(offset <= len, "offset {offset} past {len}: {err}");
        }
    }
}

/// Neither parser panics on `text`, and their errors point into it.
fn assert_parsers_survive(text: &str) {
    for result in [parse_line(text).map(drop), parse_json(text).map(drop)] {
        if let Err(e) = result {
            assert_offset_in_range(&e, text.len());
        }
    }
}

proptest! {
    #[test]
    fn written_events_parse_back_field_for_field(ev in gen_event()) {
        let line = line_of(&ev);
        let parsed = parse_line(&line).expect("what the writer emits parses");
        prop_assert_eq!(parsed.t_us, ev.t_us);
        prop_assert_eq!(&*parsed.level, ev.level.as_str());
        assert_string(&parsed.component, ev.component);
        assert_string(&parsed.target, ev.target);
        assert_string(&parsed.name, ev.name);
        prop_assert_eq!(parsed.span, (!ev.span.is_none()).then_some(ev.span.0));
        prop_assert_eq!(parsed.fields.len(), ev.fields.len());
        for ((key, value), (written_key, written)) in parsed.fields.iter().zip(&ev.fields) {
            assert_string(key, written_key);
            match (written, value) {
                (Value::U64(w), v) => prop_assert_eq!(v.as_u64(), Some(*w)),
                (Value::I64(w), v) if *w >= 0 => prop_assert_eq!(v.as_u64(), Some(*w as u64)),
                (Value::I64(w), v) => prop_assert_eq!(v, &JsonValue::I64(*w)),
                (Value::F64(w), v) if w.is_finite() => prop_assert_eq!(v.as_f64(), Some(*w)),
                (Value::F64(_), v) => prop_assert_eq!(v, &JsonValue::Null),
                (Value::Bool(w), v) => prop_assert_eq!(v, &JsonValue::Bool(*w)),
                (Value::Str(w), JsonValue::Str(s)) => assert_string(s, w),
                (Value::Text(w), JsonValue::Str(s)) => assert_string(s, w),
                (w, v) => panic!("{w:?} parsed as {v:?}"),
            }
        }
        // Detaching the event from its line changes nothing but who
        // owns the strings.
        let owned = parsed.clone().into_owned();
        prop_assert_eq!(&owned.fields, &parsed.fields);
        prop_assert_eq!(
            (&owned.level, &owned.component, &owned.target, &owned.name),
            (&parsed.level, &parsed.component, &parsed.target, &parsed.name)
        );
    }

    #[test]
    fn escaped_and_plain_strings_parse_alike(text in gen_text()) {
        // `\uXXXX` reaches the Basic Multilingual Plane only; the parser
        // does not join surrogate pairs.
        let text: String = text.chars().filter(|c| (*c as u32) <= 0xffff).collect();
        let escaped: String = text.chars().map(|c| format!("\\u{:04x}", c as u32)).collect();
        let via_escapes = parse_json(&format!("\"{escaped}\"")).expect("\\u escapes parse");
        prop_assert_eq!(via_escapes.as_str(), Some(text.as_str()));
        if !needs_escape(&text) {
            let plain = parse_json(&format!("\"{text}\"")).expect("a plain string parses");
            prop_assert_eq!(plain, via_escapes);
        }
    }

    #[test]
    fn parsers_survive_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        picks in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        assert_parsers_survive(&String::from_utf8_lossy(&bytes));
        // The same again from JSON's own alphabet, which gets past the
        // first byte far more often.
        const JSONISH: &[u8] = b"{}[]\",:\\u0123456789abcdefE+-. \ttruefalsn\xc3\xa9";
        let jsonish: Vec<u8> = picks.iter().map(|p| JSONISH[*p as usize % JSONISH.len()]).collect();
        assert_parsers_survive(&String::from_utf8_lossy(&jsonish));
    }

    #[test]
    fn parsers_survive_mutated_lines(
        ev in gen_event(),
        edits in prop::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 1..6),
    ) {
        let mut bytes = line_of(&ev).into_bytes();
        for (kind, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 => bytes.insert(at, byte),
                1 if at < bytes.len() => bytes[at] = byte,
                2 if at < bytes.len() => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
        }
        assert_parsers_survive(&String::from_utf8_lossy(&bytes));
    }
}

/// Every `(component, target, event)` the read side gives a meaning to:
/// the spine's own and each section's vocabulary.
fn read_side_vocabulary() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut all = vec![
        ("web", "load", "span_start"),
        ("web", "load", "span_end"),
        ("scholarcloud", "t", "span_start"),
        ("scholarcloud", "t", "span_end"),
        ("gfw", "verdict", "drop"),
        ("simnet", "link", "censor_drop"),
        ("slo", "alert", "fire"),
        ("slo", "alert", "resolve"),
        ("simnet", "fault", "link_down"),
        ("scholarcloud", "resilience", "failover"),
        ("scholarcloud", "resilience", "breaker"),
    ];
    for section in TraceAnalysis::default().sections() {
        for (component, target, names) in section.vocabulary() {
            all.extend(names.iter().map(|name| (*component, *target, *name)));
        }
    }
    all
}

/// The field keys the read side looks up, and one it does not.
const FIELD_KEYS: [&str; 24] = [
    "span_name", "trace_id", "parent", "ok", "rule", "slo", "burn", "exemplars", "shard",
    "cold_start_us", "reason", "instance", "live", "invocation_micro", "egress_micro",
    "warm_micro", "total_micro", "replay", "verdict", "remote", "from", "to", "dur_us", "other",
];

/// Text those fields hold in real traces.
const FIELD_TEXT: [&str; 14] = [
    "page_load", "dns", "connect", "fetch", "relay", "admission", "blacklist", "confirmed",
    "innocent", "gfw-dns", "plt-\"p95\"", "00000000000000ff,2a,zz", "99.0.1.2", "400000",
];

/// An event the read side has a reader for — half of them one side of
/// a span, the browser's `page_load` and its phases among them — or,
/// one time in eight, an arbitrary one. Timestamps come from both ends
/// of `u64` and in no order, span and trace ids from ranges small
/// enough to collide and to go unmatched, and a field the analyzer
/// looks up holds the type it expects or any other.
fn gen_read_side_event() -> impl Strategy<Value = Record> {
    const SPAN_NAMES: [&str; 6] = ["page_load", "page_load", "fetch", "dns", "relay", "admission"];
    let field = (0usize..FIELD_KEYS.len(), 0u8..5, any::<u64>(), 0usize..FIELD_TEXT.len());
    (
        gen_event(),
        (0u8..8, any::<usize>(), 0u8..4, any::<u64>(), 0u64..6),
        (0usize..SPAN_NAMES.len(), 0u64..3, 0u64..6, any::<u8>()),
        prop::collection::vec(field, 0..6),
    )
        .prop_map(|(arbitrary, (which, pick, clock, t, span), (span_name, trace, parent, flags), fields)| {
            if which == 0 {
                return arbitrary;
            }
            let t_us = match clock {
                0 => t % 100,
                1 => t % 10_000_000,
                2 => u64::MAX - t % 1000,
                _ => t,
            };
            let mut fields: Vec<(&'static str, Value)> = fields
                .into_iter()
                .map(|(key, kind, bits, text)| {
                    let value = match kind {
                        0 => Value::U64(bits % 8),
                        1 => Value::U64(bits),
                        2 => Value::Str(FIELD_TEXT[text]),
                        3 => Value::Bool(bits & 1 == 1),
                        _ => Value::F64(f64::from_bits(bits)),
                    };
                    (FIELD_KEYS[key], value)
                })
                .collect();
            let (component, target, name) = if which < 5 {
                // A lookup finds the first field of a name: one time in
                // four the well-typed ones go last, behind whatever the
                // arbitrary ones hold under the same keys.
                let at = if flags & 3 == 0 { fields.len() } else { 0 };
                let well_typed = [
                    ("span_name", Value::Str(SPAN_NAMES[span_name])),
                    ("trace_id", Value::U64(trace)),
                    ("parent", Value::U64(parent)),
                    ("ok", Value::Bool(flags & 4 == 0)),
                ];
                fields.splice(at..at, well_typed);
                let component = if flags & 8 == 0 { "web" } else { "scholarcloud" };
                (component, "t", if flags & 16 == 0 { "span_start" } else { "span_end" })
            } else {
                let vocabulary = read_side_vocabulary();
                vocabulary[pick % vocabulary.len()]
            };
            Record { t_us, level: Level::Debug, component, target, name, span: SpanId(span), fields }
        })
}

proptest! {
    #[test]
    fn parsed_event_sequences_survive_the_whole_read_side(
        events in prop::collection::vec(gen_read_side_event(), 0..40),
        window in (0u8..3, any::<u64>()),
    ) {
        let text: String = events.iter().map(|ev| line_of(ev) + "\n").collect();
        let window_us = match window {
            (0, _) => 2_000_000,
            (1, us) => us % 1000,
            (_, us) => us,
        };
        let read = || {
            let events = parse_trace(&text).expect("what the writer emits parses");
            let analysis = analyze(&events, window_us);
            let json = render_json(&analysis);
            parse_json(&json).unwrap_or_else(|e| panic!("--json does not parse back ({e}):\n{json}"));
            let mut printed = render_report(&analysis) + &json;
            for tree in &analysis.trees {
                printed.push_str(&render_waterfall(tree));
            }
            printed
        };
        prop_assert_eq!(read(), read());
    }
}

/// A reader that hands out its bytes 1–7 at a time, in the order
/// `sizes` cycles through, as a pipe may.
struct Trickle<'a> {
    bytes: &'a [u8],
    sizes: Vec<usize>,
    reads: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.sizes[self.reads % self.sizes.len()];
        let n = want.min(buf.len()).min(self.bytes.len());
        self.reads += 1;
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// What each entry point prints for a trace: its report and `--json`,
/// or the error that stopped it.
fn printed(read: Result<sc_obs::analyze::Trace, String>) -> Result<String, String> {
    let analysis = analyze(&read?, 2_000_000);
    Ok(render_report(&analysis) + &render_json(&analysis))
}

proptest! {
    #[test]
    fn parse_from_a_reader_gives_what_parse_from_the_text_gives(
        events in prop::collection::vec((gen_read_side_event(), 0u8..8), 0..40),
        sizes in prop::collection::vec(1usize..8, 1..6),
        damage in (0u8..4, any::<usize>(), 0usize..6),
    ) {
        // Each record ends in `\n` or `\r\n`, after a blank line one time
        // in four; the last may end at the end of the file.
        const BLANK: [&str; 4] = ["\n", "\r\n", "  \t\n", "\r\n"];
        let mut text = String::new();
        for (ev, ending) in &events {
            if ending & 3 == 0 {
                text.push_str(BLANK[usize::from(ending >> 2) % BLANK.len()]);
            }
            text.push_str(&line_of(ev));
            text.push_str(if ending & 4 == 0 { "\n" } else { "\r\n" });
        }
        if damage.0 == 1 {
            text.truncate(text.trim_end().len());
        }
        // Damage: a byte that breaks JSON, or a line break, put anywhere
        // on a character boundary.
        if damage.0 >= 2 && !text.is_empty() {
            let mut at = damage.1 % text.len();
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text.insert(at, ['{', '"', '\n', '\r', 'x', ','][damage.2]);
        }
        let from_text = printed(parse_trace(&text));
        let reader = BufReader::new(Trickle { bytes: text.as_bytes(), sizes, reads: 0 });
        let from_reader = printed(read_trace(reader).map_err(|e| match e {
            ReadError::Parse(e) => e,
            ReadError::Io(e) => panic!("a UTF-8 text is read without an I/O error: {e}"),
        }));
        if let Err(e) = &from_text {
            prop_assert!(e.starts_with("line "), "{}", e);
        }
        prop_assert_eq!(from_reader, from_text);
    }
}

/// Nesting is followed [`MAX_DEPTH`] levels down and no further, for
/// both entry points, however long the input.
#[test]
fn parse_rejects_nesting_past_the_cap() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
    for text in [nested(MAX_DEPTH + 1), "[".repeat(1 << 20), "{\"k\":".repeat(1 << 18)] {
        let err = parse_json(&text).expect_err("too deep");
        assert!(err.contains("nesting deeper than"), "{err}");
        assert_offset_in_range(&err, text.len());
    }
    // A trace line spends two levels on the record and its `fields`.
    let line = |value: &str| {
        format!(
            "{{\"t_us\":1,\"level\":\"info\",\"component\":\"c\",\"target\":\"t\",\
             \"event\":\"e\",\"fields\":{{\"k\":{value}}}}}"
        )
    };
    assert!(parse_line(&line(&nested(MAX_DEPTH - 2))).is_ok());
    for value in [nested(MAX_DEPTH - 1), "[".repeat(1 << 20)] {
        let err = parse_line(&line(&value)).expect_err("too deep");
        assert!(err.contains("nesting deeper than"), "{err}");
    }
    let err = parse_line(&format!("{{\"x\":{}", "[".repeat(1 << 20))).expect_err("too deep");
    assert!(err.contains("nesting deeper than"), "{err}");
}
