//! The analyzer's JSON: one hand-rolled tokenizer (std-only, like
//! everything in `sc-obs`) over JSON's whole value grammar, nesting
//! capped at [`MAX_DEPTH`], behind two entry points — [`parse_line`]
//! reads the records [`crate::write_line`] emits, the seven
//! top-level keys it writes and no others, straight into a
//! [`TraceEvent`] whose strings are slices of the line (a string is
//! copied only when it holds an escape); [`parse_json`] reads any
//! document into an owned [`Json`] — and one writer, [`write_summary`],
//! which prints the ordered [`Json`] rows the sections and the spine
//! build for `--json`.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::sink::push_escaped;

/// A parsed JSON value. Strings and object keys are slices of the text
/// they were parsed from, copied only where an escape had to be
/// decoded; [`Json`] is the form that owns all of them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue<'a> {
    /// `null` (e.g. a non-finite float).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String (unescaped).
    Str(Cow<'a, str>),
    /// Array.
    Arr(Vec<JsonValue<'a>>),
    /// Nested object, order preserved.
    Obj(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

/// A JSON value that outlives the text it was parsed from.
pub type Json = JsonValue<'static>;

fn own(s: Cow<'_, str>) -> Cow<'static, str> {
    Cow::Owned(s.into_owned())
}

impl<'a> JsonValue<'a> {
    /// The value as `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::U64(v) => Some(*v as f64),
            JsonValue::I64(v) => Some(*v as f64),
            JsonValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue<'a>]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key when the value is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Copies every borrowed string, so the value no longer depends on
    /// the text it was parsed from.
    pub fn into_owned(self) -> Json {
        match self {
            JsonValue::Null => Json::Null,
            JsonValue::Bool(b) => Json::Bool(b),
            JsonValue::U64(v) => Json::U64(v),
            JsonValue::I64(v) => Json::I64(v),
            JsonValue::F64(v) => Json::F64(v),
            JsonValue::Str(s) => Json::Str(own(s)),
            JsonValue::Arr(items) => {
                Json::Arr(items.into_iter().map(JsonValue::into_owned).collect())
            }
            JsonValue::Obj(pairs) => Json::Obj(own_pairs(pairs)),
        }
    }
}

fn own_pairs(pairs: Vec<(Cow<'_, str>, JsonValue<'_>)>) -> Vec<(Cow<'static, str>, Json)> {
    pairs.into_iter().map(|(k, v)| (own(k), v.into_owned())).collect()
}

/// One trace record, the offline twin of [`crate::Event`]. Its strings
/// are slices of the line it was parsed from (see [`JsonValue`]).
#[derive(Debug, Clone)]
pub struct TraceEvent<'a> {
    /// Simulation time in microseconds.
    pub t_us: u64,
    /// Severity string (`"info"`, …).
    pub level: Cow<'a, str>,
    /// Emitting component.
    pub component: Cow<'a, str>,
    /// Subsystem within the component.
    pub target: Cow<'a, str>,
    /// Event name.
    pub name: Cow<'a, str>,
    /// Enclosing span id, if any.
    pub span: Option<u64>,
    /// Ordered payload.
    pub fields: Vec<(Cow<'a, str>, JsonValue<'a>)>,
}

impl<'a> TraceEvent<'a> {
    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field as `u64`.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// Field as string slice.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Copies every borrowed string, so the event outlives its line.
    pub fn into_owned(self) -> TraceEvent<'static> {
        TraceEvent {
            t_us: self.t_us,
            level: own(self.level),
            component: own(self.component),
            target: own(self.target),
            name: own(self.name),
            span: self.span,
            fields: own_pairs(self.fields),
        }
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Deepest array/object nesting the parser follows. Traces nest 2 deep
/// and BENCH files 4; the cap is what keeps a hostile `[[[[…` from
/// recursing the stack away.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a str,
    i: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser { s, i: 0, depth: 0 }
    }

    #[cold]
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    #[inline]
    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Nothing but whitespace may follow the document.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.i != self.s.len() {
            return Err(self.err("trailing data"));
        }
        Ok(())
    }

    /// `open item , item … close`, one nesting level down; `item`
    /// parses one element (for an object, key and value).
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.eat(open)?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.i += 1;
        } else {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(c) if c == close => {
                        self.i += 1;
                        break;
                    }
                    _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// An object; `member` gets each key with the parser standing at
    /// its value, which it must parse.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.sequence(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            p.skip_ws();
            member(p, key)
        })
    }

    /// An object, its members appended to `out`.
    fn object(&mut self, out: &mut Vec<(Cow<'a, str>, JsonValue<'a>)>) -> Result<(), String> {
        self.members(|p, key| {
            out.push((key, p.value()?));
            Ok(())
        })
    }

    fn array(&mut self) -> Result<Vec<JsonValue<'a>>, String> {
        let mut out = Vec::new();
        self.sequence(b'[', b']', |p| {
            out.push(p.value()?);
            Ok(())
        })?;
        Ok(out)
    }

    fn value(&mut self) -> Result<JsonValue<'a>, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(&mut members)?;
                Ok(JsonValue::Obj(members))
            }
            Some(b'[') => Ok(JsonValue::Arr(self.array()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue<'a>) -> Result<JsonValue<'a>, String> {
        if self.s.as_bytes()[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue<'a>, String> {
        let start = self.i;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.i += 1;
        }
        // Plain digits accumulate as they are scanned; `None` once the
        // magnitude has overflowed a `u64`.
        let digits = self.i;
        let mut magnitude = Some(0u64);
        while let Some(c @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10)?.checked_add(u64::from(c - b'0')));
            self.i += 1;
        }
        let integer = self.i > digits
            && !matches!(self.peek(), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        let exact = magnitude.filter(|_| integer).and_then(|m| match negative {
            false => Some(JsonValue::U64(m)),
            true => 0i64.checked_sub_unsigned(m).map(JsonValue::I64),
        });
        if let Some(v) = exact {
            return Ok(v);
        }
        // A fraction, an exponent, or an integer too wide for 64 bits.
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.i += 1;
        }
        self.s[start..self.i]
            .parse::<f64>()
            .map(JsonValue::F64)
            .map_err(|_| self.err("bad number"))
    }

    /// A string: a slice of the text when it holds no escape, a decoded
    /// copy otherwise. Every cut falls beside an ASCII byte this loop
    /// has looked at, so the slices are on `char` boundaries.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let mut decoded: Option<String> = None;
        let mut run = self.i;
        loop {
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.i += 1;
            }
            let text = self.s;
            let plain = &text[run..self.i];
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(match decoded {
                        None => Cow::Borrowed(plain),
                        Some(mut out) => {
                            out.push_str(plain);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(_) => {
                    self.i += 1;
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(plain);
                    out.push(self.escape()?);
                    run = self.i;
                }
            }
        }
    }

    /// The character an escape stands for; the parser is just past the
    /// backslash.
    fn escape(&mut self) -> Result<char, String> {
        let Some(esc) = self.peek() else {
            return Err(self.err("truncated escape"));
        };
        self.i += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = self.s.as_bytes().get(self.i..self.i + 4);
                let hex = hex.ok_or_else(|| self.err("truncated \\u escape"))?;
                let mut code = 0;
                for &h in hex {
                    let digit = char::from(h).to_digit(16);
                    code = code << 4 | digit.ok_or_else(|| self.err("bad \\u escape"))?;
                }
                self.i += 4;
                // Surrogate pairs never appear in our traces (the
                // writer only \u-escapes control chars); map lone
                // surrogates to the replacement char.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("unknown escape")),
        })
    }
}

/// Parses a standalone JSON document (object/array nesting up to
/// [`MAX_DEPTH`]) into a [`Json`] value that owns its strings. This is
/// the generic entry point other tools (e.g. the benchmark's
/// `--compare` reader) reuse, as opposed to [`parse_line`]'s
/// trace-shaped records.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value()?;
    p.end()?;
    Ok(v.into_owned())
}

/// Parses one JSONL trace line into a [`TraceEvent`] that borrows from
/// it. A key [`crate::write_line`] does not write, or one of its
/// keys holding the wrong kind of value, is an error.
pub fn parse_line(line: &str) -> Result<TraceEvent<'_>, String> {
    parse_record(line, Vec::new())
}

/// [`parse_line`], with the event's field list built in `fields`, an
/// empty list whose allocation the event takes over.
pub(super) fn parse_record<'a>(
    line: &'a str,
    mut fields: Vec<(Cow<'a, str>, JsonValue<'a>)>,
) -> Result<TraceEvent<'a>, String> {
    let mut p = Parser::new(line);
    let (mut t_us, mut span) = (None, None);
    let (mut level, mut component, mut target, mut name) = (None, None, None, None);
    let mut unexpected = None;
    p.members(|p, key| {
        match (&*key, p.peek()) {
            ("t_us", _) => t_us = p.value()?.as_u64(),
            ("span", _) => span = p.value()?.as_u64(),
            ("level", Some(b'"')) => level = Some(p.string()?),
            ("component", Some(b'"')) => component = Some(p.string()?),
            ("target", Some(b'"')) => target = Some(p.string()?),
            ("event", Some(b'"')) => name = Some(p.string()?),
            ("fields", Some(b'{')) => {
                fields.clear();
                p.object(&mut fields)?;
            }
            // Reported once the line has proved well-formed.
            _ => {
                p.value()?;
                unexpected.get_or_insert(key);
            }
        }
        Ok(())
    })?;
    p.end()?;
    if let Some(key) = unexpected {
        return Err(format!("unexpected key {key:?}"));
    }
    Ok(TraceEvent {
        t_us: t_us.ok_or("missing t_us")?,
        level: level.ok_or("missing level")?,
        component: component.ok_or("missing component")?,
        target: target.ok_or("missing target")?,
        name: name.ok_or("missing event")?,
        span,
        fields,
    })
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// One member of an object being written: a key of the schema and its
/// value.
pub type Row = (&'static str, Json);

macro_rules! json_from {
    ($($from:ty => $variant:ident),*) => {
        $(impl From<$from> for JsonValue<'_> {
            fn from(v: $from) -> Self {
                JsonValue::$variant(v.into())
            }
        })*
    };
}
json_from!(u64 => U64, f64 => F64, &'static str => Str, String => Str);

impl From<usize> for JsonValue<'_> {
    fn from(v: usize) -> Self {
        JsonValue::U64(v as u64)
    }
}

/// A metric the trace leaves undefined is `null`.
impl<'a, T: Into<JsonValue<'a>>> From<Option<T>> for JsonValue<'a> {
    fn from(v: Option<T>) -> Self {
        v.map_or(JsonValue::Null, Into::into)
    }
}

/// An object value holding `rows` in the order given.
pub fn object(rows: impl IntoIterator<Item = Row>) -> Json {
    Json::Obj(rows.into_iter().map(|(key, value)| (Cow::Borrowed(key), value)).collect())
}

impl JsonValue<'_> {
    /// Appends the value on one line: `{"k": v, "k": v}`, `[a, b]`,
    /// strings escaped the way the trace writer escapes them.
    fn write(&self, out: &mut String) {
        let _ = match self {
            JsonValue::Null => write!(out, "null"),
            JsonValue::Bool(b) => write!(out, "{b}"),
            JsonValue::U64(v) => write!(out, "{v}"),
            JsonValue::I64(v) => write!(out, "{v}"),
            // Rust's shortest-round-trip `Display`; JSON has no NaN/Inf,
            // which print as `0`.
            JsonValue::F64(v) if v.is_finite() => write!(out, "{v}"),
            JsonValue::F64(_) => write!(out, "0"),
            JsonValue::Str(s) => {
                out.push('"');
                push_escaped(out, s);
                out.push('"');
                Ok(())
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.write(out);
                }
                write!(out, "]")
            }
            JsonValue::Obj(rows) => {
                out.push('{');
                for (i, (key, value)) in rows.iter().enumerate() {
                    out.push_str(if i > 0 { ", \"" } else { "\"" });
                    push_escaped(out, key);
                    out.push_str("\": ");
                    value.write(out);
                }
                write!(out, "}}")
            }
        };
    }
}

/// Prints the `--json` summary: one object, a top-level member per line
/// in the order given, everything nested inline.
pub fn write_summary(rows: &[Row]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in rows.iter().enumerate() {
        let _ = write!(out, "{}\n  \"{key}\": ", if i > 0 { "," } else { "" });
        value.write(&mut out);
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::parse_trace;
    use crate::analyze::tests::{line, reparsed};
    use crate::event::{Event, Level, SpanId};

    #[test]
    fn parses_what_the_writer_emits_including_hostile_strings() {
        let ev = Event::new(17, Level::Warn, "gfw", "verdict", "drop")
            .field("rule", "gfw-\"sni\"")
            .field("host", "例子.测试\n\u{1}")
            .field("bytes", 1500u64)
            .field("delta", -3i64)
            .field("ratio", 0.5f64)
            .field("nan", f64::NAN)
            .field("ok", false)
            .in_span(SpanId(3));
        let parsed = reparsed(&ev);
        assert_eq!(parsed.t_us, 17);
        assert_eq!(parsed.level, "warn");
        assert_eq!(parsed.component, "gfw");
        assert_eq!(parsed.name, "drop");
        assert_eq!(parsed.span, Some(3));
        assert_eq!(parsed.get_str("rule"), Some("gfw-\"sni\""));
        assert_eq!(parsed.get_str("host"), Some("例子.测试\n\u{1}"));
        assert_eq!(parsed.get_u64("bytes"), Some(1500));
        assert_eq!(parsed.get("delta"), Some(&Json::I64(-3)));
        assert_eq!(parsed.get("ratio"), Some(&Json::F64(0.5)));
        assert_eq!(parsed.get("nan"), Some(&Json::Null));
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn malformed_lines_are_errors_with_line_numbers() {
        assert!(parse_line("{").is_err());
        assert!(parse_line("{\"t_us\":1}").is_err()); // missing keys
        assert!(parse_line("not json").is_err());
        let text = format!(
            "{}\n\n{}\n{{broken",
            line(&Event::new(1, Level::Info, "a", "b", "c")),
            line(&Event::new(2, Level::Info, "a", "b", "c")),
        );
        let err = parse_trace(&text).unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");

        // A record is the writer's keys and nothing else, each holding
        // the kind of value the writer puts there.
        let members = [
            ("t_us", "1"),
            ("level", "\"info\""),
            ("component", "\"a\""),
            ("target", "\"b\""),
            ("event", "\"c\""),
        ];
        let record = |members: &[(&str, &str)]| {
            let body: Vec<String> = members.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("{{{}}}", body.join(","))
        };
        assert!(parse_line(&record(&members)).is_ok());
        for (i, (key, _)) in members.iter().enumerate() {
            let mut rest = members.to_vec();
            rest.remove(i);
            assert_eq!(parse_line(&record(&rest)).unwrap_err(), format!("missing {key}"));
        }
        let with = |key, value| record(&[&members[..], &[(key, value)]].concat());
        assert_eq!(parse_line(&with("when", "2")).unwrap_err(), "unexpected key \"when\"");
        assert_eq!(parse_line(&with("level", "5")).unwrap_err(), "unexpected key \"level\"");
        assert_eq!(parse_line(&with("fields", "[]")).unwrap_err(), "unexpected key \"fields\"");
        assert_eq!(parse_line(&with("t_us", "\"1\"")).unwrap_err(), "missing t_us");
        // A malformed line is reported as malformed, whatever its keys.
        let err = parse_line(with("when", "2").trim_end_matches('}')).unwrap_err();
        assert!(err.starts_with("expected ',' or '}' at byte"), "{err}");
        let err = parse_line(&format!("{} x", record(&members))).unwrap_err();
        assert!(err.starts_with("trailing data at byte"), "{err}");
        for (escape, complaint) in [
            ("\\q", "unknown escape"),
            ("\\u12g4", "bad \\u escape"),
            ("\\u12", "truncated \\u escape"),
            ("\\", "truncated escape"),
        ] {
            let err = parse_json(&format!("\"{escape}")).unwrap_err();
            assert!(err.starts_with(complaint), "{escape}: {err}");
        }
    }

    #[test]
    fn parse_json_handles_nesting_arrays_and_whitespace() {
        let v = parse_json(
            "{\n  \"a\": [1, 2.5, \"x\", {\"b\": true}, []],\n  \"c\": null\n}\n",
        )
        .unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 5);
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(arr[3].get("b"), Some(&Json::Bool(true)));
        assert_eq!(arr[4].as_arr(), Some(&[][..]));
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
    }
}
