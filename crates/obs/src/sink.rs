//! The trace sink: where dispatched events go, and the writer that puts
//! them into it.
//!
//! [`JsonlSink`] writes one JSON object per line, hand-serialized with a
//! fixed field order so traces of the same seeded run are
//! **byte-identical**. It is the only sink: the golden digests,
//! `scholar-obs`, the benchmark and the tests all read a run's events
//! back from that text, a line at a time: [`crate::analyze::parse_trace`]
//! folds a trace, [`crate::analyze::parse_line`] reads one record.
//!
//! A line is written in place: the dispatcher takes the sink's line
//! buffer, writes the record's head into it, and hands the caller's
//! closure a [`Fields`] that appends each `"key":value` straight after
//! it. [`write_line`] is the same writer for a record held outside a
//! dispatcher (tests, tools).

use std::io::{self, Write};

use crate::event::{Level, SpanId};

/// Writes one JSON object per event, newline-delimited, with a fixed
/// key order (`t_us`, `level`, `component`, `target`, `event`, `span`,
/// `fields`) so same-seed traces compare byte-for-byte.
pub struct JsonlSink {
    out: Box<dyn Write>,
    /// The buffer the next line is written in, lent out while it is.
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

    /// The line buffer, emptied, to write the next record in; hand it
    /// back with [`JsonlSink::write`]. A record begun while another is
    /// lent out gets an empty buffer of its own.
    pub(crate) fn take_line(&mut self) -> String {
        let mut line = std::mem::take(&mut self.line);
        line.clear();
        line
    }

    /// Writes `line`, one finished record, and keeps its buffer for the
    /// next line (the larger one, when two were lent out).
    pub(crate) fn write(&mut self, mut line: String) {
        line.push('\n');
        // A full disk mid-trace is not worth aborting a simulation for;
        // drop the line rather than panic.
        let _ = self.out.write_all(line.as_bytes());
        if line.capacity() >= self.line.capacity() {
            self.line = line;
        }
    }

    /// Flushes buffered output (the dispatcher calls this when it
    /// uninstalls).
    pub(crate) fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Writes one record as a single JSON object into `out` (no newline):
/// the head, then `span` unless it is [`SpanId::NONE`], then whatever
/// `fields` appends. The dispatcher writes the same bytes, with each
/// site's labels escaped once instead of on every line.
#[allow(clippy::too_many_arguments)]
pub fn write_line(
    out: &mut String,
    t_us: u64,
    level: Level,
    component: &str,
    target: &str,
    name: &str,
    span: SpanId,
    fields: impl FnOnce(&mut Fields<'_>),
) {
    push_head(out, t_us, level);
    push_labels(out, component, target, name);
    if !span.is_none() {
        out.push_str(",\"span\":");
        push_u64(out, span.0);
    }
    let mut f = Fields::new(out, false);
    fields(&mut f);
    f.close();
}

/// `{"t_us":T,"level":"L"`: the part of a record's head that changes
/// from line to line.
pub(crate) fn push_head(out: &mut String, t_us: u64, level: Level) {
    out.push_str("{\"t_us\":");
    push_u64(out, t_us);
    out.push_str(",\"level\":\"");
    out.push_str(level.as_str());
    out.push('"');
}

/// `,"component":C,"target":T,"event":N`, escaped: the part of a
/// record's head that a call site repeats on every line.
pub(crate) fn push_labels(out: &mut String, component: &str, target: &str, name: &str) {
    out.push_str(",\"component\":");
    push_quoted(out, component);
    out.push_str(",\"target\":");
    push_quoted(out, target);
    out.push_str(",\"event\":");
    push_quoted(out, name);
}

/// A record's fields, appended to its line as they are given: the
/// first opens `"fields":{`, and a record given none has no `fields`
/// key at all.
pub struct Fields<'a> {
    line: &'a mut String,
    open: bool,
}

impl<'a> Fields<'a> {
    /// Fields appended to `line`; `open` says whether its `"fields":{`
    /// is already written.
    pub(crate) fn new(line: &'a mut String, open: bool) -> Fields<'a> {
        Fields { line, open }
    }

    /// Appends `"key":value`.
    pub fn field(&mut self, key: &str, value: impl FieldValue) -> &mut Self {
        self.line.push_str(if self.open { ",\"" } else { ",\"fields\":{\"" });
        self.open = true;
        push_escaped(self.line, key);
        self.line.push_str("\":");
        value.write_json(self.line);
        self
    }

    /// Closes the field object, if one was opened, and the record.
    pub(crate) fn close(self) {
        if self.open {
            self.line.push('}');
        }
        self.line.push('}');
    }
}

/// A value a [`Fields`] can write: it appends exactly one JSON value.
/// Numbers go through [`push_u64`], text through the escaper, so
/// nothing on a line's path is formatted by `core::fmt` but a float
/// with a fraction.
pub trait FieldValue {
    /// Appends `self` as one JSON value.
    fn write_json(&self, out: &mut String);
}

macro_rules! unsigned_field_value {
    ($($t:ty),*) => {$(
        impl FieldValue for $t {
            fn write_json(&self, out: &mut String) {
                push_u64(out, *self as u64);
            }
        }
    )*};
}
unsigned_field_value!(u8, u16, u32, u64, usize);

macro_rules! signed_field_value {
    ($($t:ty),*) => {$(
        impl FieldValue for $t {
            fn write_json(&self, out: &mut String) {
                if *self < 0 {
                    out.push('-');
                }
                push_u64(out, self.unsigned_abs() as u64);
            }
        }
    )*};
}
signed_field_value!(i32, i64);

impl FieldValue for f64 {
    fn write_json(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl FieldValue for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FieldValue for str {
    fn write_json(&self, out: &mut String) {
        push_quoted(out, self);
    }
}

impl FieldValue for String {
    fn write_json(&self, out: &mut String) {
        push_quoted(out, self);
    }
}

impl<T: FieldValue + ?Sized> FieldValue for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// A number written as a JSON string (`"3"`), for the fields whose
/// readers have always seen it that way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quoted(pub u64);

impl FieldValue for Quoted {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        push_u64(out, self.0);
        out.push('"');
    }
}

/// `00` to `99`, for writing numbers two digits at a time.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends the decimal digits of `n`, two at a time from a table of
/// `&str` pairs, so no digit is validated as UTF-8 or formatted: the
/// number is cut into 8-digit `u32` chunks, the leading one written
/// without its zeros.
pub fn push_u64(out: &mut String, n: u64) {
    const CHUNK: u64 = 100_000_000;
    if n < CHUNK {
        push_u32(out, n as u32);
    } else if n < CHUNK * CHUNK {
        push_u32(out, (n / CHUNK) as u32);
        push_8_digits(out, (n % CHUNK) as u32);
    } else {
        push_u32(out, (n / (CHUNK * CHUNK)) as u32);
        push_8_digits(out, (n / CHUNK % CHUNK) as u32);
        push_8_digits(out, (n % CHUNK) as u32);
    }
}

/// Appends the digits of `n`, without leading zeros.
fn push_u32(out: &mut String, n: u32) {
    if n >= 100 {
        push_u32(out, n / 100);
        push_pair(out, n % 100);
    } else if n >= 10 {
        push_pair(out, n);
    } else {
        out.push(char::from(b'0' + n as u8));
    }
}

/// Appends `n` (below 10^8) as exactly eight digits.
fn push_8_digits(out: &mut String, n: u32) {
    let (high, low) = (n / 10_000, n % 10_000);
    for pair in [high / 100, high % 100, low / 100, low % 100] {
        push_pair(out, pair);
    }
}

/// Appends `n` (below 100) as two digits.
fn push_pair(out: &mut String, n: u32) {
    let at = 2 * n as usize;
    out.push_str(&DIGIT_PAIRS[at..at + 2]);
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
pub(crate) fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends `s` with JSON string escaping: `"`, `\` and the C0 controls
/// are escaped (`\n`, `\r`, `\t` by name, the rest as `\u00xx`), and
/// each run of bytes between them is copied whole. DEL and non-ASCII
/// pass through.
pub fn push_escaped(out: &mut String, s: &str) {
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
    //! The `fmt`-based writer the in-place one replaced, kept as the
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
            Value::Bool(b) => write!(out, "{b}"),
            Value::Quoted(n) => write!(out, "\"{n}\""),
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
    //! A trace written to memory and read back as JSONL, a line at a
    //! time through `parse_line`.
    use std::cell::RefCell;
    use std::io::{self, Write};
    use std::rc::Rc;

    use super::JsonlSink;
    use crate::analyze::{parse_line, TraceEvent};

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

        /// What was written so far, each line parsed.
        pub(crate) fn events(&self) -> Vec<TraceEvent<'static>> {
            let text = self.text();
            let parsed = |line| parse_line(line).expect("the writer's lines parse").into_owned();
            text.lines().map(parsed).collect()
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
    use crate::event::{Event, Value};

    #[test]
    fn json_is_stable_and_escaped() {
        let e = Event::new(17, Level::Warn, "gfw", "verdict", "drop")
            .field("rule", "gfw-\"sni\"")
            .field("bytes", 1500u64)
            .field("ratio", 0.5f64)
            .field("ok", false)
            .in_span(SpanId(3));
        assert_eq!(
            e.line(),
            "{\"t_us\":17,\"level\":\"warn\",\"component\":\"gfw\",\"target\":\"verdict\",\
             \"event\":\"drop\",\"span\":3,\"fields\":{\"rule\":\"gfw-\\\"sni\\\"\",\
             \"bytes\":1500,\"ratio\":0.5,\"ok\":false}}"
        );
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let out = capture::Captured::default();
        let mut sink = out.sink();
        for (t, name) in [(1, "send"), (2, "deliver")] {
            let mut line = sink.take_line();
            line.push_str(&Event::new(t, Level::Info, "simnet", "packet", name).line());
            sink.write(line);
        }
        sink.flush();
        let text = out.text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    /// `value` as a [`Fields`] writes it.
    fn written(value: impl FieldValue) -> String {
        let mut s = String::new();
        value.write_json(&mut s);
        s
    }

    #[test]
    fn control_chars_escape_to_unicode() {
        assert_eq!(written("a\u{1}b\nc"), "\"a\\u0001b\\nc\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(written(f64::NAN), "null");
    }

    /// Where a number gains a digit or a chunk of [`push_u64`], and the
    /// ends of `u64`.
    const DIGIT_EDGES: [u64; 12] = [
        0,
        9,
        10,
        99,
        100,
        99_999_999,
        100_000_000,
        100_000_001,
        9_999_999_999_999_999,
        10_000_000_000_000_000,
        10_000_000_000_000_001,
        u64::MAX,
    ];

    #[test]
    fn every_power_of_ten_and_its_neighbours_write_as_display_does() {
        let mut p = 1u64;
        loop {
            for n in [p - 1, p, p + 1, p.saturating_mul(7) / 3] {
                assert_eq!(written(n), n.to_string());
            }
            match p.checked_mul(10) {
                Some(next) => p = next,
                None => break,
            }
        }
        for n in DIGIT_EDGES {
            assert_eq!(written(n), n.to_string());
        }
    }

    #[test]
    fn quoted_numbers_and_signed_ones_write_as_before() {
        assert_eq!(written(Quoted(3)), "\"3\"");
        assert_eq!(written(Quoted(u64::MAX)), "\"18446744073709551615\"");
        assert_eq!(written(i32::MIN), "-2147483648");
    }

    #[test]
    fn a_record_given_no_fields_has_no_fields_key() {
        let mut s = String::new();
        write_line(&mut s, 1, Level::Info, "a", "b", "c", SpanId::NONE, |_| {});
        assert_eq!(s, "{\"t_us\":1,\"level\":\"info\",\"component\":\"a\",\"target\":\"b\",\"event\":\"c\"}");
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
        let s = Event::new(1, Level::Info, "web", "load", "start")
            .field("host", hostile.as_str())
            .field("note", "tab\there")
            .line();
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
        // \b and \f have no named escape in our writer; they are C0
        // controls so they take the \uXXXX path. DEL (0x7f) is legal
        // raw in JSON strings and passes through.
        assert_eq!(written("\n\r\t\u{8}\u{c}\u{7f}"), "\"\\n\\r\\t\\u0008\\u000c\u{7f}\"");
    }

    /// The writer's line for `ev` equals the `fmt`-based oracle's.
    fn assert_writes_as_reference(ev: &Event<'_>) {
        let mut oracle = String::new();
        reference::write_event_json(&mut oracle, ev);
        assert_eq!(ev.line(), oracle, "{ev:?}");
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
            ("text", Value::Str(&text)),
            ("empty", Value::Str("")),
            ("quoted", Value::Quoted(u64::MAX)),
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

        /// One field as a call site passes it: a value of one
        /// [`FieldValue`] kind.
        #[derive(Debug, Clone)]
        enum Pick {
            U8(u8),
            U16(u16),
            U32(u32),
            U64(u64),
            Usize(usize),
            I32(i32),
            I64(i64),
            F64(f64),
            Bool(bool),
            Static(&'static str),
            /// A runtime `&str`.
            Text(String),
            /// A `String` passed by value.
            Owned(String),
            Quoted(u64),
        }

        impl Pick {
            fn write(&self, f: &mut Fields<'_>, key: &str) {
                match self {
                    Pick::U8(v) => f.field(key, *v),
                    Pick::U16(v) => f.field(key, *v),
                    Pick::U32(v) => f.field(key, *v),
                    Pick::U64(v) => f.field(key, *v),
                    Pick::Usize(v) => f.field(key, *v),
                    Pick::I32(v) => f.field(key, *v),
                    Pick::I64(v) => f.field(key, *v),
                    Pick::F64(v) => f.field(key, *v),
                    Pick::Bool(v) => f.field(key, *v),
                    Pick::Static(s) => f.field(key, *s),
                    Pick::Text(s) => f.field(key, s.as_str()),
                    Pick::Owned(s) => f.field(key, s.clone()),
                    Pick::Quoted(n) => f.field(key, Quoted(*n)),
                };
            }

            /// What the oracle is given for this field.
            fn oracle(&self) -> Value<'_> {
                match self {
                    Pick::U8(v) => Value::U64(u64::from(*v)),
                    Pick::U16(v) => Value::U64(u64::from(*v)),
                    Pick::U32(v) => Value::U64(u64::from(*v)),
                    Pick::U64(v) => Value::U64(*v),
                    Pick::Usize(v) => Value::U64(*v as u64),
                    Pick::I32(v) => Value::I64(i64::from(*v)),
                    Pick::I64(v) => Value::I64(*v),
                    Pick::F64(v) => Value::F64(*v),
                    Pick::Bool(v) => Value::Bool(*v),
                    Pick::Static(s) => Value::Str(s),
                    Pick::Text(s) | Pick::Owned(s) => Value::Str(s),
                    Pick::Quoted(n) => Value::Quoted(*n),
                }
            }
        }

        /// Every value kind; integers and floats from raw bits (NaN,
        /// infinities and subnormals among them) or from the edge lists.
        fn gen_pick() -> impl Strategy<Value = Pick> {
            (0u8..16, any::<u64>(), gen_text(), gen_name()).prop_map(|(kind, bits, text, name)| match kind {
                0 => Pick::U8(bits as u8),
                1 => Pick::U16(bits as u16),
                2 => Pick::U32(bits as u32),
                3 => Pick::U64(bits),
                4 => Pick::U64(DIGIT_EDGES[bits as usize % DIGIT_EDGES.len()]),
                5 => Pick::Usize(bits as usize),
                6 => Pick::I32(bits as i32),
                7 => Pick::I64(bits as i64),
                8 => Pick::I64([i64::MIN, i64::MAX, -1, 0][bits as usize % 4]),
                9 => Pick::F64(f64::from_bits(bits)),
                10 => Pick::F64(FLOATS[bits as usize % FLOATS.len()]),
                11 => Pick::Static(name),
                12 => Pick::Text(text),
                13 => Pick::Owned(text),
                14 => Pick::Quoted(if bits & 1 == 0 { bits % 100 } else { bits }),
                _ => Pick::Bool(bits & 1 == 1),
            })
        }

        /// A record: head, span (0 — none — a quarter of the time) and
        /// fields.
        type Record = (u64, Level, [&'static str; 3], u64, Vec<(&'static str, Pick)>);

        fn gen_record() -> impl Strategy<Value = Record> {
            (
                any::<u64>(),
                0usize..5,
                (gen_name(), gen_name(), gen_name()),
                any::<u64>().prop_map(|id| if id % 4 == 0 { 0 } else { id }),
                prop::collection::vec((gen_name(), gen_pick()), 0..8),
            )
                .prop_map(|(t_us, level, (component, target, name), span, fields)| {
                    let level = [Level::Trace, Level::Debug, Level::Info, Level::Warn, Level::Error][level];
                    (t_us, level, [component, target, name], span, fields)
                })
        }

        proptest! {
            #[test]
            fn arbitrary_events_write_as_the_reference_writes(record in gen_record()) {
                let (t_us, level, [component, target, name], span, fields) = &record;
                let mut line = String::new();
                write_line(&mut line, *t_us, *level, component, target, name, SpanId(*span), |f| {
                    for (key, pick) in fields {
                        pick.write(f, key);
                    }
                });
                let mut ev = Event::new(*t_us, *level, component, target, name).in_span(SpanId(*span));
                ev.fields = fields.iter().map(|(key, pick)| (*key, pick.oracle())).collect();
                let mut oracle = String::new();
                reference::write_event_json(&mut oracle, &ev);
                prop_assert_eq!(line, oracle);
            }
        }
    }
}
