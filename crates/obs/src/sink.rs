//! The trace sink: where dispatched events go.
//!
//! [`JsonlSink`] writes one JSON object per line, hand-serialized with a
//! fixed field order so traces of the same seeded run are
//! **byte-identical**. It is the only sink: the golden digests,
//! `scholar-obs`, the benchmark and the tests all read a run's events
//! back from that text with [`crate::analyze::parse_trace`].

use std::io::{self, Write};

use crate::event::{Event, Value};

/// Writes one JSON object per event, newline-delimited, with a fixed
/// key order (`t_us`, `level`, `component`, `target`, `event`, `span`,
/// `fields`) so same-seed traces compare byte-for-byte.
pub struct JsonlSink {
    out: Box<dyn Write>,
    line: String,
}

impl JsonlSink {
    /// Wraps any writer.
    pub fn new(out: Box<dyn Write>) -> JsonlSink {
        JsonlSink { out, line: String::with_capacity(256) }
    }

    /// Creates (truncating) a trace file at `path`, buffered.
    pub fn create(path: &str) -> io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(io::BufWriter::new(file))))
    }

    /// Writes `ev` as one line.
    pub(crate) fn record(&mut self, ev: &Event) {
        self.line.clear();
        write_event_json(&mut self.line, ev);
        self.line.push('\n');
        // A full disk mid-trace is not worth aborting a simulation for;
        // drop the line rather than panic.
        let _ = self.out.write_all(self.line.as_bytes());
    }

    /// Flushes buffered output (the dispatcher calls this when it
    /// uninstalls).
    pub(crate) fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Serializes `ev` as a single JSON object into `out`: the fixed text
/// goes in with `push_str`, numbers through [`push_u64`], strings
/// through [`push_escaped`]. Only a float with a fraction takes
/// `core::fmt` (see `push_f64`).
pub fn write_event_json(out: &mut String, ev: &Event) {
    out.push_str("{\"t_us\":");
    push_u64(out, ev.t_us);
    out.push_str(",\"level\":\"");
    out.push_str(ev.level.as_str());
    out.push_str("\",\"component\":");
    push_quoted(out, ev.component);
    out.push_str(",\"target\":");
    push_quoted(out, ev.target);
    out.push_str(",\"event\":");
    push_quoted(out, ev.name);
    if !ev.span.is_none() {
        out.push_str(",\"span\":");
        push_u64(out, ev.span.0);
    }
    if !ev.fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (key, value)) in ev.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_quoted(out, key);
            out.push(':');
            write_value_json(out, value);
        }
        out.push('}');
    }
    out.push('}');
}

fn write_value_json(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => push_u64(out, *n),
        Value::I64(n) => {
            if *n < 0 {
                out.push('-');
            }
            push_u64(out, n.unsigned_abs());
        }
        Value::F64(x) => push_f64(out, *x),
        Value::Str(s) => push_quoted(out, s),
        Value::String(s) => push_quoted(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Appends the decimal digits of `n`.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `x` as `core`'s `Display` prints it (the shortest decimal that
/// reads back as `x`, never an exponent); JSON has no NaN/Inf, so those
/// are `null`. A whole number below 2^53 is its own shortest form and
/// goes through [`push_u64`]; any other float (an SLO alert's burn rate,
/// a few per run) is formatted by `core`.
fn push_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 9_007_199_254_740_992.0 {
        if x.is_sign_negative() {
            out.push('-');
        }
        push_u64(out, x.abs() as u64);
    } else {
        let _ = std::fmt::Write::write_fmt(out, format_args!("{x}"));
    }
}

/// Appends `s` as a JSON string, quotes included.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends `s` with JSON string escaping: `"`, `\` and the C0 controls
/// are escaped (`\n`, `\r`, `\t` by name, the rest as `\u00xx`), and
/// each run of bytes between them is copied whole. DEL and non-ASCII
/// pass through.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut clean = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `i` indexes an ASCII byte, so both cuts are char boundaries.
        out.push_str(&s[clean..i]);
        if named.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(named);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

#[cfg(test)]
pub(crate) mod reference {
    //! The `fmt`-based writer `write_event_json` replaced, kept as the
    //! oracle its output is compared with byte for byte.
    use std::fmt::Write as _;

    use crate::event::{Event, Value};

    pub(crate) fn write_event_json(out: &mut String, ev: &Event) {
        let _ = write!(
            out,
            "{{\"t_us\":{},\"level\":\"{}\",\"component\":\"{}\",\"target\":\"{}\",\"event\":\"{}\"",
            ev.t_us,
            ev.level.as_str(),
            Escaped(ev.component),
            Escaped(ev.target),
            Escaped(ev.name),
        );
        if !ev.span.is_none() {
            let _ = write!(out, ",\"span\":{}", ev.span.0);
        }
        if !ev.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (key, value)) in ev.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":", Escaped(key));
                write_value_json(out, value);
            }
            out.push('}');
        }
        out.push('}');
    }

    fn write_value_json(out: &mut String, v: &Value) {
        let _ = match v {
            Value::U64(n) => write!(out, "{n}"),
            Value::I64(n) => write!(out, "{n}"),
            Value::F64(x) if x.is_finite() => write!(out, "{x}"),
            Value::F64(_) => write!(out, "null"),
            Value::Str(s) => write!(out, "\"{}\"", Escaped(s)),
            Value::String(s) => write!(out, "\"{}\"", Escaped(s)),
            Value::Bool(b) => write!(out, "{b}"),
        };
    }

    /// Display adaptor applying JSON string escaping.
    struct Escaped<'a>(&'a str);

    impl std::fmt::Display for Escaped<'_> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            for c in self.0.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\r' => f.write_str("\\r")?,
                    '\t' => f.write_str("\\t")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => std::fmt::Write::write_char(f, c)?,
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
pub(crate) mod capture {
    //! A trace written to memory and read back the way every reader
    //! reads one: as JSONL, through `parse_trace`.
    use std::cell::RefCell;
    use std::io::{self, Write};
    use std::rc::Rc;

    use super::JsonlSink;
    use crate::analyze::{parse_trace, TraceEvent};

    /// The bytes a [`JsonlSink`] wrote, readable after the sink has
    /// moved into a dispatcher.
    #[derive(Clone, Default)]
    pub(crate) struct Captured(Rc<RefCell<Vec<u8>>>);

    impl Captured {
        /// A sink writing here.
        pub(crate) fn sink(&self) -> Box<JsonlSink> {
            Box::new(JsonlSink::new(Box::new(self.clone())))
        }

        /// What was written so far.
        pub(crate) fn text(&self) -> String {
            String::from_utf8(self.0.borrow().clone()).expect("the writer writes UTF-8")
        }

        /// What was written so far, parsed.
        pub(crate) fn events(&self) -> Vec<TraceEvent<'static>> {
            let text = self.text();
            let events = parse_trace(&text).expect("the writer's lines parse");
            events.into_iter().map(TraceEvent::into_owned).collect()
        }
    }

    impl Write for Captured {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Level, SpanId};

    fn ev(t: u64, name: &'static str) -> Event {
        Event::new(t, Level::Info, "simnet", "packet", name)
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let e = Event::new(17, Level::Warn, "gfw", "verdict", "drop")
            .field("rule", "gfw-\"sni\"")
            .field("bytes", 1500u64)
            .field("ratio", 0.5f64)
            .field("ok", false)
            .in_span(SpanId(3));
        let mut s = String::new();
        write_event_json(&mut s, &e);
        assert_eq!(
            s,
            "{\"t_us\":17,\"level\":\"warn\",\"component\":\"gfw\",\"target\":\"verdict\",\
             \"event\":\"drop\",\"span\":3,\"fields\":{\"rule\":\"gfw-\\\"sni\\\"\",\
             \"bytes\":1500,\"ratio\":0.5,\"ok\":false}}"
        );
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let out = capture::Captured::default();
        let mut sink = out.sink();
        sink.record(&ev(1, "send"));
        sink.record(&ev(2, "deliver"));
        sink.flush();
        let text = out.text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn control_chars_escape_to_unicode() {
        let mut s = String::new();
        write_value_json(&mut s, &Value::String("a\u{1}b\nc".to_string()));
        assert_eq!(s, "\"a\\u0001b\\nc\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut s = String::new();
        write_value_json(&mut s, &Value::F64(f64::NAN));
        assert_eq!(s, "null");
    }

    #[test]
    fn hostile_labels_stay_valid_json() {
        // Hostnames from the wire can carry anything: quotes, the full
        // C0 control range, backslashes, non-ASCII (IDNs). Every one of
        // these must come out as RFC 8259-valid JSON on a single line.
        let mut hostile = String::from("\"\\\u{7f}");
        for c in 0u32..0x20 {
            hostile.push(char::from_u32(c).unwrap());
        }
        hostile.push_str("例子.测试 – ∅");
        let e = Event::new(1, Level::Info, "web", "load", "start")
            .field("host", hostile.clone())
            .field("note", "tab\there");
        let mut s = String::new();
        write_event_json(&mut s, &e);
        // One physical line: every raw control char was escaped.
        assert_eq!(s.lines().count(), 1);
        assert!(!s.bytes().any(|b| b < 0x20), "raw control byte leaked: {s:?}");
        // The analyzer's strict parser accepts it and round-trips the
        // value exactly — which also proves quotes and backslashes were
        // escaped (an unescaped one would break the object structure).
        let parsed = crate::analyze::parse_line(&s).unwrap();
        assert_eq!(parsed.get_str("host"), Some(hostile.as_str()));
        assert_eq!(parsed.get_str("note"), Some("tab\there"));
    }

    #[test]
    fn named_escapes_and_del_byte_round_trip() {
        let mut s = String::new();
        write_value_json(&mut s, &Value::String("\n\r\t\u{8}\u{c}\u{7f}".to_string()));
        // \b and \f have no named escape in our writer; they are C0
        // controls so they take the \uXXXX path. DEL (0x7f) is legal
        // raw in JSON strings and passes through.
        assert_eq!(s, "\"\\n\\r\\t\\u0008\\u000c\u{7f}\"");
    }

    /// The writer's line for `ev` equals the `fmt`-based oracle's.
    fn assert_writes_as_reference(ev: &Event) {
        let (mut line, mut oracle) = (String::new(), String::new());
        write_event_json(&mut line, ev);
        reference::write_event_json(&mut oracle, ev);
        assert_eq!(line, oracle, "{ev:?}");
    }

    /// Floats whose printing has an edge: signed zeros, the non-finite
    /// ones, the subnormal range, the 2^53 boundary of the whole-number
    /// path, and values `Display` prints with many digits.
    const FLOATS: [f64; 24] = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        2.225_073_858_507_201e-308,
        f64::MIN_POSITIVE,
        1e-7,
        0.1,
        0.5,
        1.0,
        -1.0,
        1.667,
        9_007_199_254_740_991.0,
        9_007_199_254_740_992.0,
        -9_007_199_254_740_994.0,
        1e21,
        123_456_789.125,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
    ];

    #[test]
    fn every_edge_value_writes_as_the_reference_writes() {
        let mut text = String::from("\"\\/\u{7f}é例😀");
        text.extend((0u8..0x20).map(char::from));
        let mut ev = Event::new(u64::MAX, Level::Error, "ctl\u{1}\n", "\"q\"", "back\\slash")
            .in_span(SpanId(u64::MAX));
        ev.fields.extend([
            ("u64_max", Value::U64(u64::MAX)),
            ("zero", Value::U64(0)),
            ("i64_min", Value::I64(i64::MIN)),
            ("i64_max", Value::I64(i64::MAX)),
            ("minus_one", Value::I64(-1)),
            ("text", Value::String(text)),
            ("empty", Value::Str("")),
            ("k\u{1f}\"", Value::Bool(true)),
        ]);
        ev.fields.extend(FLOATS.iter().map(|&x| ("f", Value::F64(x))));
        assert_writes_as_reference(&ev);
        assert_writes_as_reference(&Event::new(0, Level::Trace, "", "", ""));
    }

    mod props {
        use proptest::prelude::*;

        use super::*;

        /// Every C0 control, the quote and backslash, DEL, `/`, plain
        /// ASCII and 2-, 3- and 4-byte UTF-8.
        fn alphabet() -> Vec<char> {
            let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
            chars.extend(['"', '\\', '\u{7f}', '/', 'a', 'Z', '7', ' ', 'é', '例', '\u{ffff}', '😀']);
            chars
        }

        /// The `&'static str` slots: plain, hostile and empty.
        const NAMES: [&str; 6] = ["web", "with\"quote", "back\\slash", "ctl\u{1}\n\t\u{1f}", "例子.测试", ""];

        fn gen_text() -> impl Strategy<Value = String> {
            let chars = alphabet();
            prop::collection::vec(0usize..chars.len(), 0..24)
                .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
        }

        fn gen_name() -> impl Strategy<Value = &'static str> {
            (0usize..NAMES.len()).prop_map(|i| NAMES[i])
        }

        /// Every value kind; integers and floats from raw bits (NaN,
        /// infinities and subnormals among them) or from the edge lists.
        fn gen_value() -> impl Strategy<Value = Value> {
            (0u8..9, any::<u64>(), gen_text(), gen_name()).prop_map(|(kind, bits, text, name)| match kind {
                0 => Value::U64(bits),
                1 => Value::I64(bits as i64),
                2 => Value::U64([0, 9, 10, u64::MAX][bits as usize % 4]),
                3 => Value::I64([i64::MIN, i64::MAX, -1, 0][bits as usize % 4]),
                4 => Value::F64(f64::from_bits(bits)),
                5 => Value::F64(FLOATS[bits as usize % FLOATS.len()]),
                6 => Value::Str(name),
                7 => Value::String(text),
                _ => Value::Bool(bits & 1 == 1),
            })
        }

        fn gen_event() -> impl Strategy<Value = Event> {
            (
                any::<u64>(),
                0usize..5,
                (gen_name(), gen_name(), gen_name()),
                any::<u64>().prop_map(|id| if id % 4 == 0 { 0 } else { id }),
                prop::collection::vec((gen_name(), gen_value()), 0..8),
            )
                .prop_map(|(t_us, level, (component, target, name), span, fields)| {
                    let level = [Level::Trace, Level::Debug, Level::Info, Level::Warn, Level::Error][level];
                    let mut ev = Event::new(t_us, level, component, target, name).in_span(SpanId(span));
                    ev.fields = fields;
                    ev
                })
        }

        proptest! {
            #[test]
            fn arbitrary_events_write_as_the_reference_writes(ev in gen_event()) {
                assert_writes_as_reference(&ev);
            }
        }
    }
}
