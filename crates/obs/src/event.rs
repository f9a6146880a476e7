//! Structured events: the unit of tracing.
//!
//! An event is keyed to **simulation time** (microseconds since sim
//! start, as produced by `sc-simnet`'s clock) — never wall clock — so a
//! trace of a seeded run is fully deterministic and replayable. Events
//! are addressed by a three-level taxonomy:
//!
//! * **component** — the emitting crate (`"simnet"`, `"gfw"`,
//!   `"scholarcloud"`, `"tunnels"`, `"web"`, `"metrics"`),
//! * **target** — the subsystem inside it (`"packet"`, `"verdict"`,
//!   `"tunnel"`, `"load"`, …),
//! * **name** — what happened (`"drop"`, `"rst_injected"`,
//!   `"auth_fail"`, …).
//!
//! An event is never held as data outside tests:
//! [`crate::dispatch::event`] writes its fields straight into the sink's line.

use std::fmt;

/// Event severity, ordered from most to least verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Per-packet / per-byte chatter.
    Trace,
    /// Per-flow decisions worth seeing when digging in.
    Debug,
    /// Milestones: tunnels opening, loads finishing, rules firing.
    Info,
    /// Unexpected but survivable conditions.
    Warn,
    /// Failures.
    Error,
}

impl Level {
    /// Lower-case name used in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Identifier of a span within one dispatcher's lifetime.
///
/// Span ids are allocated sequentially by the dispatcher, so traces of
/// the same seeded run are byte-identical. Id `0` is reserved for "no
/// dispatcher installed" and is silently ignored by
/// [`span_end`](crate::span_end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span, used when tracing is disabled.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the null span.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One trace record held as data: the input of the writer's tests and
/// of the `fmt`-based oracle ([`crate::sink`]'s `reference` module)
/// the writer is compared with. Nothing outside tests builds one: an
/// emitting site writes its fields straight into the sink's line
/// through [`crate::Fields`].
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Event<'a> {
    pub t_us: u64,
    pub level: Level,
    pub component: &'a str,
    pub target: &'a str,
    pub name: &'a str,
    pub span: SpanId,
    pub fields: Vec<(&'a str, Value<'a>)>,
}

/// A field value of a test [`Event`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Value<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'a str),
    Bool(bool),
    /// A number written as a JSON string ([`crate::Quoted`]).
    Quoted(u64),
}

#[cfg(test)]
macro_rules! value_from {
    ($($t:ty => $variant:ident as $as:ty),*) => {$(
        impl From<$t> for Value<'_> {
            fn from(v: $t) -> Self {
                Value::$variant(v as $as)
            }
        }
    )*};
}
#[cfg(test)]
value_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64, i64 => I64 as i64, f64 => F64 as f64);

#[cfg(test)]
impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
impl crate::sink::FieldValue for Value<'_> {
    fn write_json(&self, out: &mut String) {
        match *self {
            Value::U64(n) => n.write_json(out),
            Value::I64(n) => n.write_json(out),
            Value::F64(x) => x.write_json(out),
            Value::Str(s) => s.write_json(out),
            Value::Bool(b) => b.write_json(out),
            Value::Quoted(n) => crate::sink::Quoted(n).write_json(out),
        }
    }
}

#[cfg(test)]
impl<'a> Event<'a> {
    /// Starts building an event at simulation time `t_us`.
    pub fn new(t_us: u64, level: Level, component: &'a str, target: &'a str, name: &'a str) -> Event<'a> {
        Event { t_us, level, component, target, name, span: SpanId::NONE, fields: Vec::new() }
    }

    /// Attaches a field (builder style; order is preserved).
    pub fn field(mut self, key: &'a str, value: impl Into<Value<'a>>) -> Event<'a> {
        self.fields.push((key, value.into()));
        self
    }

    /// Associates the event with a span.
    pub fn in_span(mut self, span: SpanId) -> Event<'a> {
        self.span = span;
        self
    }

    /// The line the writer makes of this event, through [`crate::Fields`].
    pub fn line(&self) -> String {
        let mut out = String::new();
        crate::sink::write_line(
            &mut out,
            self.t_us,
            self.level,
            self.component,
            self.target,
            self.name,
            self.span,
            |f| {
                for (key, value) in &self.fields {
                    f.field(key, value);
                }
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
    }

    #[test]
    fn builder_preserves_field_order_and_lookup() {
        let ev = Event::new(42, Level::Info, "gfw", "verdict", "drop")
            .field("rule", "gfw-sni")
            .field("bytes", 1500u64);
        assert_eq!(ev.fields, [("rule", Value::Str("gfw-sni")), ("bytes", Value::U64(1500))]);
        // A reader looks fields up in the line the sink writes.
        let parsed = crate::analyze::tests::reparsed(&ev);
        assert_eq!(parsed.get_str("rule"), Some("gfw-sni"));
        assert_eq!(parsed.get_u64("bytes"), Some(1500));
        assert_eq!(parsed.get("missing"), None);
    }
}
