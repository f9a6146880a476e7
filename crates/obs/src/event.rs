//! Structured events: the unit of tracing.
//!
//! An [`Event`] is keyed to **simulation time** (microseconds since sim
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

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Borrowed static string (labels, rule names).
    Str(&'static str),
    /// Owned string (addresses, hostnames).
    String(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}

impl From<u16> for Value {
    fn from(v: u16) -> Value {
        Value::U64(v as u64)
    }
}

impl From<u8> for Value {
    fn from(v: u8) -> Value {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::I64(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::Str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
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

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation time in microseconds since sim start.
    pub t_us: u64,
    /// Severity.
    pub level: Level,
    /// Emitting crate (`"simnet"`, `"gfw"`, …).
    pub component: &'static str,
    /// Subsystem within the component (`"packet"`, `"verdict"`, …).
    pub target: &'static str,
    /// What happened (`"drop"`, `"rst_injected"`, …).
    pub name: &'static str,
    /// Enclosing span, if any.
    pub span: SpanId,
    /// Ordered key/value payload; order is preserved in exports.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Starts building an event at simulation time `t_us`.
    pub fn new(
        t_us: u64,
        level: Level,
        component: &'static str,
        target: &'static str,
        name: &'static str,
    ) -> Event {
        Event { t_us, level, component, target, name, span: SpanId::NONE, fields: Vec::new() }
    }

    /// Attaches a field (builder style; order is preserved).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Event {
        self.fields.push((key, value.into()));
        self
    }

    /// Associates the event with a span.
    pub fn in_span(mut self, span: SpanId) -> Event {
        self.span = span;
        self
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
