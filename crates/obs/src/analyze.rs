//! Offline trace analytics: parse `SC_TRACE` JSONL files and explain
//! where runs spent their time and when the censor interfered.
//!
//! The JSONL trace a run leaves behind (see [`crate::JsonlSink`]) is
//! the raw material; this module turns it into the three views an
//! operator of the paper's service would start from:
//!
//! 1. **Critical-path decomposition** of `page_load` spans — how much
//!    of each page load went to DNS, TCP connect, tunnel/TLS setup, and
//!    fetching, and how much of the load's wall-clock the instrumented
//!    phases actually cover (the rest is think/queue time);
//! 2. **Per-rule interference timeline** — which GFW rules fired, in
//!    which simulation-time window (motivated by arXiv:1709.08718's
//!    observation that interference *clusters* in time);
//! 3. **Per-component event rates** and windowed `page_load`
//!    percentiles (PTPerf, arXiv:2309.14856, shows transport
//!    comparisons hinge on time-resolved percentiles, not run-wide
//!    aggregates).
//!
//! The parser is hand-rolled (std-only, like everything in `sc-obs`):
//! one tokenizer over JSON's whole value grammar, nesting capped at
//! [`MAX_DEPTH`], behind two entry points. [`parse_line`] reads the
//! records [`crate::write_event_json`] emits — the seven top-level keys
//! it writes and no others — straight into a [`TraceEvent`] whose
//! strings are slices of the line; a string is copied only when it
//! holds an escape. [`parse_json`] reads any document into an owned
//! [`Json`]. The `scholar-obs` binary wraps this module as a CLI.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

use crate::metrics::with_named;

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

    fn object(&mut self) -> Result<Vec<(Cow<'a, str>, JsonValue<'a>)>, String> {
        let mut out = Vec::new();
        self.members(|p, key| {
            out.push((key, p.value()?));
            Ok(())
        })?;
        Ok(out)
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
            Some(b'{') => Ok(JsonValue::Obj(self.object()?)),
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
/// the generic entry point other tools (e.g. `scholar-bench`'s
/// BENCH_*.json reader) reuse, as opposed to [`parse_line`]'s
/// trace-shaped records.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value()?;
    p.end()?;
    Ok(v.into_owned())
}

/// Parses one JSONL trace line into a [`TraceEvent`] that borrows from
/// it. A key [`crate::write_event_json`] does not write, or one of its
/// keys holding the wrong kind of value, is an error.
pub fn parse_line(line: &str) -> Result<TraceEvent<'_>, String> {
    let mut p = Parser::new(line);
    let (mut t_us, mut span) = (None, None);
    let (mut level, mut component, mut target, mut name) = (None, None, None, None);
    let mut fields = Vec::new();
    let mut unexpected = None;
    p.members(|p, key| {
        match (&*key, p.peek()) {
            ("t_us", _) => t_us = p.value()?.as_u64(),
            ("span", _) => span = p.value()?.as_u64(),
            ("level", Some(b'"')) => level = Some(p.string()?),
            ("component", Some(b'"')) => component = Some(p.string()?),
            ("target", Some(b'"')) => target = Some(p.string()?),
            ("event", Some(b'"')) => name = Some(p.string()?),
            ("fields", Some(b'{')) => fields = p.object()?,
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

/// Parses a whole JSONL trace into events that borrow from `text`;
/// blank lines are skipped, any malformed line is an error carrying its
/// 1-based line number.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent<'_>>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

/// A closed span reconstructed from its `span_start`/`span_end` pair.
/// `component` and `name` are shared: one copy of each distinct string
/// per analysis, whichever spans and trees carry it.
#[derive(Debug, Clone)]
pub struct ClosedSpan {
    /// Span id.
    pub id: u64,
    /// Emitting component.
    pub component: Arc<str>,
    /// Span name (`page_load`, `connect`, …).
    pub name: Arc<str>,
    /// Start time (µs).
    pub start_us: u64,
    /// End time (µs).
    pub end_us: u64,
    /// `ok` field on the end event, if present.
    pub ok: Option<bool>,
}

impl ClosedSpan {
    /// Span duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Per-phase aggregate over all attributed phase spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseAgg {
    /// Phase spans attributed.
    pub spans: u64,
    /// Total phase time (µs), summed (phases on parallel connections
    /// may overlap).
    pub total_us: u64,
}

/// One reconstructed `page_load` with its attributed phases.
#[derive(Debug, Clone)]
pub struct PageLoad {
    /// The load span.
    pub span: ClosedSpan,
    /// Summed attributed phase time by phase name (one of [`PHASES`]).
    pub phase_us: BTreeMap<&'static str, u64>,
    /// Length of the union of attributed phase intervals (µs): the part
    /// of the load that instrumented phases account for.
    pub covered_us: u64,
}

/// One span inside a stitched per-request trace tree. Unlike
/// [`ClosedSpan`] this keeps the causal links (`parent`) and survives
/// truncation: a span whose `span_end` never made it into the trace is
/// kept with `closed = false` and `end_us` pinned to the end of the
/// trace, so a crash mid-flight still yields an analyzable tree.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Span id.
    pub id: u64,
    /// Emitting component.
    pub component: Arc<str>,
    /// Span name (`page_load`, `admission`, `relay`, …).
    pub name: Arc<str>,
    /// Start time (µs).
    pub start_us: u64,
    /// End time (µs); the trace end for unclosed spans.
    pub end_us: u64,
    /// Whether a matching `span_end` was seen.
    pub closed: bool,
    /// `ok` field on the end event, if present.
    pub ok: Option<bool>,
    /// Parent span id carried on the start event, if any.
    pub parent: Option<u64>,
    /// Distance from the tree root (root = 0; orphans re-attach at 1).
    pub depth: u32,
    /// Exclusive time (µs): instants of the root's window where this
    /// span is the deepest covering span. Sums to the root's duration
    /// across the whole tree.
    pub excl_us: u64,
}

impl TraceSpan {
    /// The service tier this span's time is blamed on.
    pub fn tier(&self) -> &'static str {
        span_tier(&self.component, &self.name)
    }
}

/// Maps a span to the service tier its exclusive time is blamed on.
pub fn span_tier(component: &str, name: &str) -> &'static str {
    match name {
        "page_load" | "dns" | "connect" | "tunnel" | "fetch" if component == "web" => "web",
        "admission" => "admission",
        "establish" | "attempt" | "backoff" | "park" => "resilience",
        "tunnel_stream" | "upstream_fetch" | "relay" => "tunnel",
        "cache_lookup" | "coalesce_wait" => "cache",
        "origin" => "origin",
        _ => "other",
    }
}

/// One request's stitched cross-tier span tree, keyed by trace id.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The request's trace id (as minted by the browser).
    pub trace_id: u64,
    /// All spans carrying this trace id, in `(start_us, id)` order.
    pub spans: Vec<TraceSpan>,
    /// Index of the root `page_load` span, if the trace has one.
    pub root: Option<usize>,
    /// Spans whose parent id is absent from the tree (they re-attach
    /// under the root for attribution instead of being dropped).
    pub orphans: usize,
    /// Exclusive time blamed on each tier over the root's window; the
    /// values sum to exactly `plt_us`.
    pub tier_us: BTreeMap<&'static str, u64>,
    /// The root span's duration (µs); 0 without a root.
    pub plt_us: u64,
}

impl TraceTree {
    /// Whether the request ran to completion: a root that closed with
    /// `ok = true`.
    pub fn completed(&self) -> bool {
        self.root
            .map(|i| self.spans[i].closed && self.spans[i].ok == Some(true))
            .unwrap_or(false)
    }

    /// Whether cross-tier stitching worked: at least one span outside
    /// the browser's own (`web`) tier joined the tree.
    pub fn stitched(&self) -> bool {
        self.spans.iter().any(|s| s.tier() != "web")
    }

    /// The tier blamed for the most exclusive time, with its share of
    /// the PLT (`None` without a root).
    pub fn dominant_tier(&self) -> Option<(&'static str, f64)> {
        if self.plt_us == 0 {
            return None;
        }
        self.tier_us
            .iter()
            .max_by_key(|(tier, us)| (**us, **tier))
            .map(|(tier, us)| (*tier, *us as f64 / self.plt_us as f64))
    }
}

/// Aggregate of the domestic proxy's `scholarcloud/admission` events:
/// what the overload-control layer did with incoming tunnel requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionStats {
    /// Requests admitted (directly or after queueing).
    pub admitted: u64,
    /// Requests that went through the pending queue.
    pub queued: u64,
    /// Requests shed with `503` (queue full / deadline hopeless).
    pub shed: u64,
    /// Requests throttled with `429` (per-client fairness).
    pub throttled: u64,
    /// Retries denied by the global retry budget.
    pub retry_denied: u64,
}

impl AdmissionStats {
    /// Requests that reached a terminal admission decision.
    pub fn decisions(&self) -> u64 {
        self.admitted + self.shed + self.throttled
    }

    /// Fraction of decided requests that were shed or throttled
    /// (`0.0` when the trace carries no admission decisions).
    pub fn shed_rate(&self) -> f64 {
        let total = self.decisions();
        if total == 0 {
            return 0.0;
        }
        (self.shed + self.throttled) as f64 / total as f64
    }

    /// Whether any admission event appeared in the trace.
    pub fn any(&self) -> bool {
        self.decisions() + self.queued + self.retry_denied > 0
    }
}

/// Aggregate of the domestic proxy's `scholarcloud/cache` events: how
/// the shared content cache answered plain-HTTP gateway requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Requests served directly from a fresh entry.
    pub hits: u64,
    /// Requests that triggered a full upstream fetch.
    pub misses: u64,
    /// Requests attached as waiters to an in-flight fetch.
    pub coalesced: u64,
    /// Stale entries refreshed by a 304 from the origin.
    pub revalidated: u64,
    /// Entries evicted under byte-budget pressure.
    pub evicted: u64,
}

impl CacheStats {
    /// Requests the cache answered without a full upstream body fetch.
    pub fn served(&self) -> u64 {
        self.hits + self.coalesced + self.revalidated
    }

    /// Fraction of cache-path requests answered without a full upstream
    /// fetch (`0.0` when the trace carries no cache decisions).
    pub fn hit_rate(&self) -> f64 {
        let total = self.served() + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.served() as f64 / total as f64
    }

    /// Whether any cache event appeared in the trace.
    pub fn any(&self) -> bool {
        self.served() + self.misses + self.evicted > 0
    }
}

/// Aggregate of the domestic-proxy *fleet* events: browser-side PAC
/// failover (`web/fleet`) and proxy-side cache peering + fleet-wide
/// shedding (`scholarcloud/fleet`), plus the per-shard breakdown of
/// shard-tagged cache events.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Browser connects to a fleet member that succeeded.
    pub connect_ok: u64,
    /// Browser connects that failed (timeout / refusal / reset).
    pub connect_fail: u64,
    /// Members dead-marked by a browser (with re-probe backoff).
    pub dead_marks: u64,
    /// Dead-marked members that rejoined via a successful re-probe.
    pub recoveries: u64,
    /// Page loads replayed down the PAC fallback list.
    pub failovers: u64,
    /// Non-owner misses forwarded to the owning shard (requester side).
    pub peer_fetches: u64,
    /// Peer-forwarded requests answered as the key's owner.
    pub peer_serves: u64,
    /// Peers dead-marked by a proxy after a failed peering hop.
    pub peer_deaths: u64,
    /// Requests shed by fleet-wide admission pressure (sickest shard).
    pub fleet_sheds: u64,
    /// Shard index → that shard's cache decisions (from shard-tagged
    /// `scholarcloud/cache` events; empty for single-proxy traces).
    pub shard_cache: BTreeMap<u64, CacheStats>,
    /// Shard index → `(peer fetches sent, peer requests served)`.
    pub shard_peering: BTreeMap<u64, (u64, u64)>,
}

impl FleetStats {
    /// Fraction of browser→member connects that succeeded (`None` when
    /// the trace carries no fleet connect events).
    pub fn availability(&self) -> Option<f64> {
        let total = self.connect_ok + self.connect_fail;
        if total == 0 {
            return None;
        }
        Some(self.connect_ok as f64 / total as f64)
    }

    /// Whether any fleet event appeared in the trace.
    pub fn any(&self) -> bool {
        self.connect_ok
            + self.connect_fail
            + self.dead_marks
            + self.failovers
            + self.peer_fetches
            + self.peer_serves
            + self.fleet_sheds
            > 0
            || !self.shard_cache.is_empty()
    }
}

/// Aggregate of the elastic remote tier (`scholarcloud/elastic`
/// events): instance lifecycle transitions, cold-start latency
/// samples, blacklist churn, and the cumulative cost meters. The proxy
/// publishes the cost meters as running totals every autoscaler tick,
/// so the last `cost` event in the trace wins.
#[derive(Debug, Clone, Default)]
pub struct ElasticStats {
    /// Instances the autoscaler started provisioning.
    pub provisions: u64,
    /// Provisioned instances that finished their cold start.
    pub warms: u64,
    /// Instances drained because demand fell (idle timeout).
    pub drains_idle: u64,
    /// Instances drained because the GFW blacklisted their IP.
    pub drains_blacklist: u64,
    /// Drained instances fully retired (no in-flight streams left).
    pub retires: u64,
    /// Blacklist churns (breaker opened → retire + replace at a
    /// fresh address).
    pub churns: u64,
    /// Cold-start latencies observed (µs), in warm order.
    pub cold_starts_us: Vec<u64>,
    /// Peak live (warm + provisioning) instance count seen.
    pub peak_live: u64,
    /// Final cumulative per-invocation cost (micro-dollars).
    pub invocation_micro: u64,
    /// Final cumulative egress cost (micro-dollars).
    pub egress_micro: u64,
    /// Final cumulative warm-idle cost (micro-dollars).
    pub warm_micro: u64,
    /// Final cumulative total cost (micro-dollars).
    pub total_micro: u64,
    /// Instance state transitions in trace order:
    /// `(t_us, instance address, transition)` where transition is one
    /// of `provision`, `warm`, `drain`, `retire`, `churn`.
    pub timeline: Vec<(u64, String, String)>,
}

impl ElasticStats {
    /// Whether any elastic event appeared in the trace.
    pub fn any(&self) -> bool {
        self.provisions + self.warms + self.retires + self.churns + self.total_micro > 0
            || !self.timeline.is_empty()
    }

    /// p95 cold-start latency (µs); `None` without warm events.
    pub fn cold_start_p95_us(&self) -> Option<u64> {
        if self.cold_starts_us.is_empty() {
            return None;
        }
        let mut v = self.cold_starts_us.clone();
        v.sort_unstable();
        Some(quantile_sorted(&v, 0.95))
    }

    /// Cost per successful page load in micro-dollars; `None` when the
    /// trace carries no cost data or no load succeeded.
    pub fn cost_per_ok_load_micro(&self, ok_loads: u64) -> Option<f64> {
        if self.total_micro == 0 || ok_loads == 0 {
            return None;
        }
        Some(self.total_micro as f64 / ok_loads as f64)
    }
}

/// Aggregate of the arms race between a reactive censor and the
/// deployment's defenses: the censor's fingerprint learning and probing
/// campaigns (`gfw/adaptive` + `gfw/probe` events) against the
/// defense's decoy deflections and detection-driven scheme rotations
/// (`scholarcloud/remote` auth failures, `scholarcloud/adaptive`
/// rotations).
#[derive(Debug, Clone, Default)]
pub struct AdaptiveStats {
    /// Cover fingerprints the censor promoted to blockable signatures.
    pub signatures_learned: u64,
    /// Learned signatures that expired unrefreshed (the rotation
    /// defense starving the censor's rule set).
    pub signatures_expired: u64,
    /// Probing campaigns launched against suspect servers.
    pub campaigns: u64,
    /// Probe waves queued by campaigns.
    pub probe_waves: u64,
    /// Probes the censor actually launched (campaign and suspect-driven
    /// alike).
    pub probes_launched: u64,
    /// Launched probes that replayed a captured preamble.
    pub probes_replayed: u64,
    /// Probe verdicts that confirmed a server as a proxy.
    pub probes_confirmed: u64,
    /// Probe verdicts that cleared a server as innocent.
    pub probes_innocent: u64,
    /// Hostile connections the deployment answered with a decoy
    /// (remote-side auth failures: garbage, bad MACs, replays).
    pub probes_deflected: u64,
    /// Servers the adaptive censor escalated to the IP blacklist.
    pub blacklisted: u64,
    /// Per-region enforcement drift re-rolls observed.
    pub region_rolls: u64,
    /// Detection-driven scheme rotations the domestic proxy performed.
    pub rotations: u64,
    /// Non-HTTP garbage the domestic proxy decoyed instead of aborting.
    pub domestic_decoys: u64,
    /// When the censor first learned a signature (µs), if ever — the
    /// time-to-detection headline number.
    pub first_detection_us: Option<u64>,
    /// When the first probing campaign started (µs), if any.
    pub first_campaign_us: Option<u64>,
}

impl AdaptiveStats {
    /// Whether any adaptive-censor (or rotation-defense) event appeared
    /// in the trace. Plain suspect probing does not count: pre-adaptive
    /// traces keep rendering exactly as before.
    pub fn any(&self) -> bool {
        self.signatures_learned
            + self.signatures_expired
            + self.campaigns
            + self.probe_waves
            + self.blacklisted
            + self.region_rolls
            + self.rotations
            > 0
    }

    /// Fraction of launched probes that came back `confirmed` — the
    /// censor's hit rate against the deployment. `None` when the trace
    /// carries no probe launches.
    pub fn detection_rate(&self) -> Option<f64> {
        if self.probes_launched == 0 {
            return None;
        }
        Some(self.probes_confirmed as f64 / self.probes_launched as f64)
    }

    /// Microseconds from t = 0 to the censor's first learned signature;
    /// `None` if the censor never learned one.
    pub fn time_to_detection_us(&self) -> Option<u64> {
        self.first_detection_us
    }
}

/// Everything the analyzer extracts from one trace.
#[derive(Debug)]
pub struct TraceAnalysis {
    /// Events parsed.
    pub events: usize,
    /// Last event timestamp (µs).
    pub t_end_us: u64,
    /// Events per component.
    pub component_counts: BTreeMap<String, u64>,
    /// Closed spans, in end order.
    pub spans: Vec<ClosedSpan>,
    /// `span_start`s never matched by a `span_end`.
    pub unclosed_spans: usize,
    /// Reconstructed page loads, in end order.
    pub page_loads: Vec<PageLoad>,
    /// Phase aggregates across all page loads, by [`PHASES`] name.
    pub phase_totals: BTreeMap<&'static str, PhaseAgg>,
    /// rule → window index → interference event count.
    pub rule_timeline: BTreeMap<String, BTreeMap<u64, u64>>,
    /// SLO alerts found in the trace: `(t_us, fire|resolve, slo, burn)`.
    pub slo_alerts: Vec<(u64, String, String, f64)>,
    /// Exemplar trace ids carried on fired alerts:
    /// `(t_us, slo, trace ids)` — the worst requests of the burn window.
    pub alert_exemplars: Vec<(u64, String, Vec<u64>)>,
    /// Stitched per-request trace trees, in trace-id order.
    pub trees: Vec<TraceTree>,
    /// Exclusive time blamed on each tier, summed over completed
    /// requests' trees.
    pub tier_totals: BTreeMap<&'static str, u64>,
    /// Injected faults, in time order: `(t_us, "component/name")` —
    /// `simnet/link_down`, `gfw/blacklist_ip`, ….
    pub faults: Vec<(u64, String)>,
    /// Timestamps of ScholarCloud failover decisions (a retry moved to a
    /// different remote).
    pub failover_times: Vec<u64>,
    /// Circuit-breaker transitions: `(t_us, remote, from, to)`.
    pub breaker_transitions: Vec<(u64, String, String, String)>,
    /// Overload-control decisions (`scholarcloud/admission` events).
    pub admission: AdmissionStats,
    /// Shared-cache decisions (`scholarcloud/cache` events).
    pub cache: CacheStats,
    /// Domestic-fleet activity (`web/fleet` + `scholarcloud/fleet`
    /// events and shard-tagged cache decisions).
    pub fleet: FleetStats,
    /// Elastic remote-tier activity (`scholarcloud/elastic` events).
    pub elastic: ElasticStats,
    /// Reactive-censor arms-race activity (`gfw/adaptive`, `gfw/probe`,
    /// `scholarcloud/adaptive` events).
    pub adaptive: AdaptiveStats,
    /// Window width used for timelines (µs).
    pub window_us: u64,
}

impl TraceAnalysis {
    /// Fraction of finished page loads that succeeded, if any finished.
    pub fn availability(&self) -> Option<f64> {
        let finished =
            self.page_loads.iter().filter(|l| l.span.ok.is_some()).count();
        if finished == 0 {
            return None;
        }
        let ok = self.page_loads.iter().filter(|l| l.span.ok == Some(true)).count();
        Some(ok as f64 / finished as f64)
    }

    /// Elastic-tier cost per successful page load (micro-dollars);
    /// `None` when the trace carries no cost data or no load succeeded.
    pub fn cost_per_ok_load_micro(&self) -> Option<f64> {
        let ok =
            self.page_loads.iter().filter(|l| l.span.ok == Some(true)).count() as u64;
        self.elastic.cost_per_ok_load_micro(ok)
    }

    /// Looks up a stitched tree by trace id.
    pub fn tree(&self, trace_id: u64) -> Option<&TraceTree> {
        let i = self.trees.binary_search_by_key(&trace_id, |t| t.trace_id).ok()?;
        Some(&self.trees[i])
    }

    /// Fraction of completed requests whose trace stitched across
    /// tiers (`None` when the trace has no completed requests).
    pub fn attribution_coverage(&self) -> Option<f64> {
        let completed = self.trees.iter().filter(|t| t.completed()).count();
        if completed == 0 {
            return None;
        }
        let stitched =
            self.trees.iter().filter(|t| t.completed() && t.stitched()).count();
        Some(stitched as f64 / completed as f64)
    }

    /// Availability restricted to page loads that finished at or after
    /// the censor's first probing campaign — what users experienced
    /// while under active attack. `None` when the trace carries no
    /// campaign or no load finished after it started.
    pub fn availability_under_campaign(&self) -> Option<f64> {
        let start = self.adaptive.first_campaign_us?;
        let finished = self
            .page_loads
            .iter()
            .filter(|l| l.span.ok.is_some() && l.span.end_us >= start)
            .count();
        if finished == 0 {
            return None;
        }
        let ok = self
            .page_loads
            .iter()
            .filter(|l| l.span.ok == Some(true) && l.span.end_us >= start)
            .count();
        Some(ok as f64 / finished as f64)
    }

    /// Completed trees, slowest first (ties broken by trace id) —
    /// the "worst requests" view the report and exemplars reference.
    pub fn slowest(&self, k: usize) -> Vec<&TraceTree> {
        let mut completed: Vec<&TraceTree> =
            self.trees.iter().filter(|t| t.completed()).collect();
        completed.sort_by_key(|t| (std::cmp::Reverse(t.plt_us), t.trace_id));
        completed.truncate(k);
        completed
    }
}

/// The page-load phases the browser instruments, in pipeline order.
pub const PHASES: [&str; 4] = ["dns", "connect", "tunnel", "fetch"];

/// The shared copy of `s`, made the first time `s` is seen.
fn intern(seen: &mut BTreeSet<Arc<str>>, s: &str) -> Arc<str> {
    if let Some(shared) = seen.get(s) {
        return Arc::clone(shared);
    }
    let shared: Arc<str> = Arc::from(s);
    seen.insert(Arc::clone(&shared));
    shared
}

/// Analyzes a parsed trace with `window_us`-wide timeline windows.
/// No string is copied per event: text leaves `events` only for what
/// the analysis keeps, once per distinct value for what repeats
/// (components, span names, rules).
pub fn analyze(events: &[TraceEvent<'_>], window_us: u64) -> TraceAnalysis {
    let window_us = window_us.max(1);
    let mut component_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut names: BTreeSet<Arc<str>> = BTreeSet::new();
    // id → (start, component, name, trace_id, parent)
    let mut open: BTreeMap<u64, (u64, &str, &str, u64, Option<u64>)> = BTreeMap::new();
    let mut spans: Vec<ClosedSpan> = Vec::new();
    // trace id → that request's spans, in close order (resorted later).
    let mut by_trace: BTreeMap<u64, Vec<TraceSpan>> = BTreeMap::new();
    let mut rule_timeline: BTreeMap<String, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut slo_alerts = Vec::new();
    let mut alert_exemplars: Vec<(u64, String, Vec<u64>)> = Vec::new();
    let mut faults = Vec::new();
    let mut failover_times = Vec::new();
    let mut breaker_transitions = Vec::new();
    let mut admission = AdmissionStats::default();
    let mut cache = CacheStats::default();
    let mut fleet = FleetStats::default();
    let mut elastic = ElasticStats::default();
    let mut adaptive = AdaptiveStats::default();
    let mut t_end_us = 0;

    for ev in events {
        t_end_us = t_end_us.max(ev.t_us);
        with_named(&mut component_counts, &ev.component, || 0, |n| *n += 1);
        match &*ev.name {
            "span_start" => {
                if let (Some(id), Some(name)) = (ev.span, ev.get_str("span_name")) {
                    let trace = ev.get_u64("trace_id").unwrap_or(0);
                    let parent = ev.get_u64("parent");
                    open.insert(id, (ev.t_us, &*ev.component, name, trace, parent));
                }
            }
            "span_end" => {
                if let Some(id) = ev.span {
                    if let Some((start_us, component, name, trace, parent)) = open.remove(&id)
                    {
                        let ok = match ev.get("ok") {
                            Some(JsonValue::Bool(b)) => Some(*b),
                            _ => None,
                        };
                        let component = intern(&mut names, component);
                        let name = intern(&mut names, name);
                        if trace != 0 {
                            by_trace.entry(trace).or_default().push(TraceSpan {
                                id,
                                component: component.clone(),
                                name: name.clone(),
                                start_us,
                                end_us: ev.t_us,
                                closed: true,
                                ok,
                                parent,
                                depth: 0,
                                excl_us: 0,
                            });
                        }
                        spans.push(ClosedSpan {
                            id,
                            component,
                            name,
                            start_us,
                            end_us: ev.t_us,
                            ok,
                        });
                    }
                }
            }
            // Interference: GFW verdicts and the simnet drops they cause
            // both carry the rule label.
            "drop" | "censor_drop" if matches!(&*ev.component, "gfw" | "simnet") => {
                if let Some(rule) = ev.get_str("rule") {
                    let window = ev.t_us / window_us;
                    with_named(&mut rule_timeline, rule, BTreeMap::new, |w| {
                        *w.entry(window).or_insert(0) += 1
                    });
                }
            }
            "fire" | "resolve" if ev.component == "slo" => {
                slo_alerts.push((
                    ev.t_us,
                    ev.name.to_string(),
                    ev.get_str("slo").unwrap_or("?").to_string(),
                    ev.get("burn").and_then(JsonValue::as_f64).unwrap_or(0.0),
                ));
                if ev.name == "fire" {
                    if let Some(list) = ev.get_str("exemplars") {
                        let ids: Vec<u64> = list
                            .split(',')
                            .filter_map(|t| u64::from_str_radix(t.trim(), 16).ok())
                            .filter(|&t| t != 0)
                            .collect();
                        if !ids.is_empty() {
                            alert_exemplars.push((
                                ev.t_us,
                                ev.get_str("slo").unwrap_or("?").to_string(),
                                ids,
                            ));
                        }
                    }
                }
            }
            // Injected faults: `simnet/fault/<kind>` and `gfw/fault/…`.
            _ if ev.target == "fault" => {
                faults.push((ev.t_us, format!("{}/{}", ev.component, ev.name)));
            }
            "failover" if ev.component == "scholarcloud" => {
                failover_times.push(ev.t_us);
            }
            "admit" | "enqueue" | "dequeue" | "shed" | "throttle" | "retry_denied"
                if ev.component == "scholarcloud" && ev.target == "admission" =>
            {
                match &*ev.name {
                    // A dequeued request was admitted after waiting; its
                    // earlier "enqueue" is counted under `queued`, so
                    // admitted + shed + throttled counts each request once.
                    "admit" | "dequeue" => admission.admitted += 1,
                    "enqueue" => admission.queued += 1,
                    "shed" => admission.shed += 1,
                    "throttle" => admission.throttled += 1,
                    _ => admission.retry_denied += 1,
                }
            }
            "hit" | "miss" | "coalesced" | "revalidated" | "evicted"
                if ev.component == "scholarcloud" && ev.target == "cache" =>
            {
                match &*ev.name {
                    "hit" => cache.hits += 1,
                    "miss" => cache.misses += 1,
                    "coalesced" => cache.coalesced += 1,
                    "revalidated" => cache.revalidated += 1,
                    _ => cache.evicted += 1,
                }
                // Fleet members tag their cache decisions with their
                // shard index; single-proxy traces carry no such field.
                if let Some(shard) = ev.get_u64("shard") {
                    let sc = fleet.shard_cache.entry(shard).or_default();
                    match &*ev.name {
                        "hit" => sc.hits += 1,
                        "miss" => sc.misses += 1,
                        "coalesced" => sc.coalesced += 1,
                        "revalidated" => sc.revalidated += 1,
                        _ => sc.evicted += 1,
                    }
                }
            }
            // Browser-side fleet activity: PAC failover and member
            // liveness, as observed through connect outcomes.
            "connect_ok" | "connect_fail" | "proxy_dead" | "proxy_recovered" | "failover"
                if ev.component == "web" && ev.target == "fleet" =>
            {
                match &*ev.name {
                    "connect_ok" => fleet.connect_ok += 1,
                    "connect_fail" => fleet.connect_fail += 1,
                    "proxy_dead" => fleet.dead_marks += 1,
                    "proxy_recovered" => fleet.recoveries += 1,
                    _ => fleet.failovers += 1,
                }
            }
            // Proxy-side fleet activity: the cache-peering hop, peer
            // liveness, and fleet-wide admission shedding.
            "peer_fetch" | "peer_serve" | "peer_dead" | "fleet_shed"
                if ev.component == "scholarcloud" && ev.target == "fleet" =>
            {
                let shard = ev.get_u64("shard");
                match &*ev.name {
                    "peer_fetch" => {
                        fleet.peer_fetches += 1;
                        if let Some(s) = shard {
                            fleet.shard_peering.entry(s).or_default().0 += 1;
                        }
                    }
                    "peer_serve" => {
                        fleet.peer_serves += 1;
                        if let Some(s) = shard {
                            fleet.shard_peering.entry(s).or_default().1 += 1;
                        }
                    }
                    "peer_dead" => fleet.peer_deaths += 1,
                    _ => fleet.fleet_sheds += 1,
                }
            }
            // Elastic remote tier: instance lifecycle transitions plus
            // the per-tick cost meters (running totals — last wins).
            "provision" | "warm" | "drain" | "retire" | "churn" | "cost"
                if ev.component == "scholarcloud" && ev.target == "elastic" =>
            {
                match &*ev.name {
                    "provision" => elastic.provisions += 1,
                    "warm" => {
                        elastic.warms += 1;
                        let us = ev
                            .get_u64("cold_start_us")
                            .or_else(|| ev.get_str("cold_start_us")?.parse().ok());
                        if let Some(us) = us {
                            elastic.cold_starts_us.push(us);
                        }
                    }
                    "drain" => match ev.get_str("reason") {
                        Some("blacklist") => elastic.drains_blacklist += 1,
                        _ => elastic.drains_idle += 1,
                    },
                    "retire" => elastic.retires += 1,
                    "churn" => elastic.churns += 1,
                    _ => {
                        elastic.peak_live =
                            elastic.peak_live.max(ev.get_u64("live").unwrap_or(0));
                        elastic.invocation_micro =
                            ev.get_u64("invocation_micro").unwrap_or(0);
                        elastic.egress_micro = ev.get_u64("egress_micro").unwrap_or(0);
                        elastic.warm_micro = ev.get_u64("warm_micro").unwrap_or(0);
                        elastic.total_micro = ev.get_u64("total_micro").unwrap_or(0);
                    }
                }
                if ev.name != "cost" {
                    if let Some(inst) = ev.get_str("instance") {
                        elastic.timeline.push((
                            ev.t_us,
                            inst.to_string(),
                            ev.name.to_string(),
                        ));
                    }
                }
            }
            // Reactive censor: fingerprint learning, probing campaigns,
            // regional drift, and blacklist escalation.
            "signature_learned" | "signature_expired" | "campaign" | "probe_wave"
            | "region_drift" | "blacklisted"
                if ev.component == "gfw" && ev.target == "adaptive" =>
            {
                match &*ev.name {
                    "signature_learned" => {
                        adaptive.signatures_learned += 1;
                        adaptive.first_detection_us.get_or_insert(ev.t_us);
                    }
                    "signature_expired" => adaptive.signatures_expired += 1,
                    "campaign" => {
                        adaptive.campaigns += 1;
                        adaptive.first_campaign_us.get_or_insert(ev.t_us);
                    }
                    "probe_wave" => adaptive.probe_waves += 1,
                    "region_drift" => adaptive.region_rolls += 1,
                    _ => adaptive.blacklisted += 1,
                }
            }
            // Active-probe traffic (both the pre-adaptive suspect probes
            // and adaptive campaign waves land here).
            "launched" | "verdict" if ev.component == "gfw" && ev.target == "probe" => {
                match &*ev.name {
                    "launched" => {
                        adaptive.probes_launched += 1;
                        if ev.get_u64("replay").is_some() {
                            adaptive.probes_replayed += 1;
                        }
                    }
                    _ => match ev.get_str("verdict") {
                        Some("confirmed") => adaptive.probes_confirmed += 1,
                        Some("innocent") => adaptive.probes_innocent += 1,
                        _ => {}
                    },
                }
            }
            // Defense side: remote decoy deflections and the domestic
            // proxy's detection-driven rotations.
            "auth_fail" if ev.component == "scholarcloud" && ev.target == "remote" => {
                adaptive.probes_deflected += 1;
            }
            "rotate" if ev.component == "scholarcloud" && ev.target == "adaptive" => {
                adaptive.rotations += 1;
            }
            "decoy" if ev.component == "scholarcloud" && ev.target == "domestic" => {
                adaptive.domestic_decoys += 1;
            }
            "breaker" if ev.component == "scholarcloud" => {
                breaker_transitions.push((
                    ev.t_us,
                    ev.get_str("remote").unwrap_or("?").to_string(),
                    ev.get_str("from").unwrap_or("?").to_string(),
                    ev.get_str("to").unwrap_or("?").to_string(),
                ));
            }
            _ => {}
        }
    }

    // Attribute phase spans to page loads by time containment: a phase
    // belongs to the latest-starting page_load whose interval contains
    // the phase's start. (Concurrent clients share one trace without a
    // client id, so this is a heuristic; aggregates stay exact.)
    let mut loads: Vec<PageLoad> = spans
        .iter()
        .filter(|s| &*s.component == "web" && &*s.name == "page_load")
        .map(|s| PageLoad {
            span: s.clone(),
            phase_us: BTreeMap::new(),
            covered_us: 0,
        })
        .collect();
    loads.sort_by_key(|l| (l.span.start_us, l.span.id));
    let mut phase_totals: BTreeMap<&'static str, PhaseAgg> = BTreeMap::new();
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); loads.len()];
    for s in spans.iter().filter(|s| &*s.component == "web") {
        let Some(&phase) = PHASES.iter().find(|p| **p == &*s.name) else {
            continue;
        };
        let agg = phase_totals.entry(phase).or_default();
        agg.spans += 1;
        agg.total_us += s.dur_us();
        // Latest-starting load containing the phase start: `loads` is
        // sorted by start, so walk back from the last one that starts
        // at or before it.
        let started = loads.partition_point(|l| l.span.start_us <= s.start_us);
        let owner = loads[..started].iter().rposition(|l| s.start_us <= l.span.end_us);
        if let Some(i) = owner {
            let clipped_end = s.end_us.min(loads[i].span.end_us);
            *loads[i].phase_us.entry(phase).or_insert(0) +=
                clipped_end.saturating_sub(s.start_us);
            intervals[i].push((s.start_us, clipped_end));
        }
    }
    for (load, ivs) in loads.iter_mut().zip(intervals.iter_mut()) {
        load.covered_us = union_len(ivs);
    }

    // A span whose end never made it into the trace (crash, truncation,
    // still in flight at shutdown) joins its tree unclosed, pinned to
    // the trace end, so partial trees still attribute.
    for (&id, (start_us, component, name, trace, parent)) in &open {
        if *trace != 0 {
            by_trace.entry(*trace).or_default().push(TraceSpan {
                id,
                component: intern(&mut names, component),
                name: intern(&mut names, name),
                start_us: *start_us,
                end_us: t_end_us.max(*start_us),
                closed: false,
                ok: None,
                parent: *parent,
                depth: 0,
                excl_us: 0,
            });
        }
    }
    let trees: Vec<TraceTree> =
        by_trace.into_iter().map(|(id, spans)| stitch_tree(id, spans)).collect();
    let mut tier_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for tree in trees.iter().filter(|t| t.completed()) {
        for (tier, us) in &tree.tier_us {
            *tier_totals.entry(tier).or_insert(0) += us;
        }
    }

    TraceAnalysis {
        events: events.len(),
        t_end_us,
        component_counts,
        unclosed_spans: open.len(),
        spans,
        page_loads: loads,
        phase_totals,
        rule_timeline,
        slo_alerts,
        alert_exemplars,
        trees,
        tier_totals,
        faults,
        failover_times,
        breaker_transitions,
        admission,
        cache,
        fleet,
        elastic,
        adaptive,
        window_us,
    }
}

/// Builds one request's tree from its spans: computes depths from the
/// in-band parent links (orphans re-attach under the root) and runs the
/// exclusive-time sweep over the root's window. Every instant of the
/// root's duration is blamed on exactly one span — the deepest covering
/// span, latest start then highest id as the tie-break — so per-tier
/// exclusive times always sum to the root's wall clock.
fn stitch_tree(trace_id: u64, mut spans: Vec<TraceSpan>) -> TraceTree {
    spans.sort_by_key(|s| (s.start_us, s.id));
    let root = spans
        .iter()
        .position(|s| &*s.component == "web" && &*s.name == "page_load");
    let idx_of: BTreeMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();

    // A non-root span whose parent link leads nowhere in this tree is
    // an orphan; it re-attaches under the root for attribution instead
    // of being dropped.
    let orphans = spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| {
            Some(i) != root
                && s.parent.map_or(true, |pid| !idx_of.contains_key(&pid))
        })
        .count();

    // Depths, walking parent links with a step cap so a malformed trace
    // (cycles, self-parents) cannot hang the analyzer.
    let mut depths = vec![0u32; spans.len()];
    for i in 0..spans.len() {
        if Some(i) == root {
            continue;
        }
        let mut depth = 1u32;
        let mut cur = i;
        let mut steps = 0usize;
        while steps < spans.len() {
            match spans[cur].parent.and_then(|pid| idx_of.get(&pid)) {
                Some(&pi) if pi != cur => {
                    if Some(pi) == root {
                        break;
                    }
                    depth += 1;
                    cur = pi;
                    steps += 1;
                }
                // Dead end: an orphan chain top, re-attached under the
                // root at the depth walked so far.
                _ => break,
            }
        }
        depths[i] = depth;
    }
    for (s, d) in spans.iter_mut().zip(depths) {
        s.depth = d;
    }

    let mut tier_us: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut plt_us = 0;
    if let Some(r) = root {
        let (rs, re) = (spans[r].start_us, spans[r].end_us);
        plt_us = re - rs;
        // Elementary intervals over every clipped span boundary.
        let mut bounds: Vec<u64> = vec![rs, re];
        for s in &spans {
            bounds.push(s.start_us.clamp(rs, re));
            bounds.push(s.end_us.clamp(rs, re));
        }
        bounds.sort_unstable();
        bounds.dedup();
        for w in bounds.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a >= b {
                continue;
            }
            let winner = spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.start_us.clamp(rs, re) <= a && b <= s.end_us.clamp(rs, re))
                .max_by_key(|(_, s)| (s.depth, s.start_us, s.id))
                .map(|(i, _)| i)
                .unwrap_or(r);
            spans[winner].excl_us += b - a;
        }
        for s in &spans {
            if s.excl_us > 0 {
                *tier_us.entry(s.tier()).or_insert(0) += s.excl_us;
            }
        }
    }

    TraceTree { trace_id, spans, root, orphans, tier_us, plt_us }
}

/// Total length of the union of `[start, end)` intervals (sorts in
/// place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                let _ = cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Exact quantile of a sorted slice (nearest-rank).
fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Renders the full analysis report: header, per-component rates,
/// critical-path table, windowed page-load percentiles, interference
/// timeline, and SLO alerts. Deterministic for a given trace.
pub fn render_report(a: &TraceAnalysis) -> String {
    let mut out = String::new();
    let sim_s = a.t_end_us as f64 / 1e6;
    let wsec = a.window_us as f64 / 1e6;
    let _ = writeln!(out, "scholar-obs — trace analysis");
    let _ = writeln!(
        out,
        "  events: {}   sim span: {:.1} s   spans: {} closed, {} unclosed",
        a.events,
        sim_s,
        a.spans.len(),
        a.unclosed_spans
    );

    out.push_str("\nper-component event rates:\n");
    for (comp, n) in &a.component_counts {
        let rate = if sim_s > 0.0 { *n as f64 / sim_s } else { 0.0 };
        let _ = writeln!(out, "  {comp:<14} {n:>8} events {rate:>10.2}/sim-s");
    }

    // Critical path.
    let ok_loads: Vec<&PageLoad> =
        a.page_loads.iter().filter(|l| l.span.ok != Some(false)).collect();
    let _ = writeln!(
        out,
        "\npage_load critical path ({} loads, {} failed):",
        a.page_loads.len(),
        a.page_loads.iter().filter(|l| l.span.ok == Some(false)).count(),
    );
    if ok_loads.is_empty() {
        out.push_str("  (no completed page_load spans)\n");
    } else {
        let n = ok_loads.len() as f64;
        let mean_plt = ok_loads.iter().map(|l| l.span.dur_us()).sum::<u64>() as f64 / n;
        let _ = writeln!(
            out,
            "  {:<10} {:>7} {:>16} {:>14}",
            "phase", "spans", "mean/load (ms)", "share of PLT"
        );
        for phase in PHASES {
            let agg = a.phase_totals.get(phase).copied().unwrap_or_default();
            let attr: u64 = ok_loads
                .iter()
                .filter_map(|l| l.phase_us.get(phase))
                .sum();
            let mean_ms = attr as f64 / n / 1000.0;
            let share = if mean_plt > 0.0 { attr as f64 / n / mean_plt * 100.0 } else { 0.0 };
            let _ = writeln!(
                out,
                "  {phase:<10} {:>7} {mean_ms:>16.1} {share:>13.1}%",
                agg.spans
            );
        }
        let covered = ok_loads.iter().map(|l| l.covered_us).sum::<u64>() as f64 / n;
        let _ = writeln!(
            out,
            "  mean PLT {:.1} ms; instrumented phases cover {:.1}% of it \
             (phases on parallel connections may overlap)",
            mean_plt / 1000.0,
            if mean_plt > 0.0 { covered / mean_plt * 100.0 } else { 0.0 },
        );
    }

    // Windowed percentiles of page_load durations.
    let _ = writeln!(out, "\npage_load windowed percentiles (window {wsec:.0} s, µs):");
    let mut by_window: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for l in &ok_loads {
        by_window
            .entry(l.span.end_us / a.window_us)
            .or_default()
            .push(l.span.dur_us());
    }
    if by_window.is_empty() {
        out.push_str("  (no completed loads)\n");
    } else {
        for (w, durs) in &mut by_window {
            durs.sort_unstable();
            let lo = w * a.window_us / 1_000_000;
            let hi = (w + 1) * a.window_us / 1_000_000;
            let _ = writeln!(
                out,
                "  [{lo:>5}–{hi:<5}s) n={:<4} p50={:<9} p95={:<9} p99={}",
                durs.len(),
                quantile_sorted(durs, 0.50),
                quantile_sorted(durs, 0.95),
                quantile_sorted(durs, 0.99),
            );
        }
    }

    // Interference timeline.
    let _ = writeln!(out, "\nGFW interference timeline (window {wsec:.0} s):");
    if a.rule_timeline.is_empty() {
        out.push_str("  (no interference events)\n");
    } else {
        let last_w = a.t_end_us / a.window_us;
        for (rule, windows) in &a.rule_timeline {
            let total: u64 = windows.values().sum();
            let peak = windows.values().copied().max().unwrap_or(0);
            let mut lane = String::new();
            for w in 0..=last_w {
                let n = windows.get(&w).copied().unwrap_or(0);
                lane.push(density_char(n, peak));
            }
            let _ = writeln!(out, "  {rule:<22} |{lane}| total {total}");
        }
    }

    // Faults and resilience.
    if !a.faults.is_empty()
        || !a.failover_times.is_empty()
        || !a.breaker_transitions.is_empty()
    {
        out.push_str("\nfaults & resilience:\n");
        for (t, label) in &a.faults {
            let _ = writeln!(out, "  {:>8.1} s  fault     {label}", *t as f64 / 1e6);
        }
        for (t, remote, from, to) in &a.breaker_transitions {
            let _ = writeln!(
                out,
                "  {:>8.1} s  breaker   {remote} {from} → {to}",
                *t as f64 / 1e6
            );
        }
        let _ = writeln!(out, "  failovers: {}", a.failover_times.len());
        if let Some(av) = a.availability() {
            let _ = writeln!(out, "  availability: {:.1}% of finished loads", av * 100.0);
        }
    }

    // Overload control.
    if a.admission.any() {
        out.push_str("\noverload control (scholarcloud admission):\n");
        let _ = writeln!(out, "  admitted:     {}", a.admission.admitted);
        let _ = writeln!(out, "  queued:       {}", a.admission.queued);
        let _ = writeln!(out, "  shed (503):   {}", a.admission.shed);
        let _ = writeln!(out, "  throttled:    {}", a.admission.throttled);
        let _ = writeln!(out, "  retry denied: {}", a.admission.retry_denied);
        let _ = writeln!(out, "  shed rate:    {:.1}%", a.admission.shed_rate() * 100.0);
    }

    // Shared cache.
    if a.cache.any() {
        out.push_str("\nshared cache (scholarcloud gateway):\n");
        let _ = writeln!(out, "  hits:         {}", a.cache.hits);
        let _ = writeln!(out, "  misses:       {}", a.cache.misses);
        let _ = writeln!(out, "  coalesced:    {}", a.cache.coalesced);
        let _ = writeln!(out, "  revalidated:  {}", a.cache.revalidated);
        let _ = writeln!(out, "  evicted:      {}", a.cache.evicted);
        let _ = writeln!(out, "  hit rate:     {:.1}%", a.cache.hit_rate() * 100.0);
    }

    // Domestic fleet.
    if a.fleet.any() {
        out.push_str("\ndomestic fleet (PAC failover + cache peering):\n");
        let _ = writeln!(
            out,
            "  connects:     {} ok / {} failed{}",
            a.fleet.connect_ok,
            a.fleet.connect_fail,
            match a.fleet.availability() {
                Some(av) => format!("  (availability {:.1}%)", av * 100.0),
                None => String::new(),
            },
        );
        let _ = writeln!(
            out,
            "  members:      {} dead-marks, {} failovers, {} recoveries",
            a.fleet.dead_marks, a.fleet.failovers, a.fleet.recoveries
        );
        let _ = writeln!(
            out,
            "  peering:      {} fetches, {} serves, {} peer deaths",
            a.fleet.peer_fetches, a.fleet.peer_serves, a.fleet.peer_deaths
        );
        let _ = writeln!(out, "  fleet sheds:  {}", a.fleet.fleet_sheds);
        let shards: std::collections::BTreeSet<u64> = a
            .fleet
            .shard_cache
            .keys()
            .chain(a.fleet.shard_peering.keys())
            .copied()
            .collect();
        if !shards.is_empty() {
            let _ = writeln!(
                out,
                "  {:<7} {:>7} {:>8} {:>10} {:>10} {:>10}",
                "shard", "hits", "misses", "hit rate", "peer out", "peer in"
            );
            for shard in shards {
                let cs = a.fleet.shard_cache.get(&shard).copied().unwrap_or_default();
                let (pf, ps) =
                    a.fleet.shard_peering.get(&shard).copied().unwrap_or((0, 0));
                let _ = writeln!(
                    out,
                    "  {shard:<7} {:>7} {:>8} {:>9.1}% {:>10} {:>10}",
                    cs.hits,
                    cs.misses,
                    cs.hit_rate() * 100.0,
                    pf,
                    ps,
                );
            }
        }
    }

    // Elastic remote tier.
    if a.elastic.any() {
        out.push_str("\nelastic remote tier (serverless autoscaler):\n");
        let _ = writeln!(
            out,
            "  instances:    {} provisioned, {} warmed, {} retired  (peak live {})",
            a.elastic.provisions, a.elastic.warms, a.elastic.retires, a.elastic.peak_live
        );
        let _ = writeln!(
            out,
            "  drains:       {} idle, {} blacklist  ({} churns)",
            a.elastic.drains_idle, a.elastic.drains_blacklist, a.elastic.churns
        );
        let _ = writeln!(
            out,
            "  cold start:   p95 {}",
            match a.elastic.cold_start_p95_us() {
                Some(us) => format!("{us} µs"),
                None => "n/a".to_string(),
            },
        );
        let _ = writeln!(
            out,
            "  cost:         {} µ$ total ({} invocation + {} egress + {} warm-idle)",
            a.elastic.total_micro,
            a.elastic.invocation_micro,
            a.elastic.egress_micro,
            a.elastic.warm_micro,
        );
        let _ = writeln!(
            out,
            "  per ok load:  {}",
            match a.cost_per_ok_load_micro() {
                Some(c) => format!("{c:.1} µ$"),
                None => "n/a".to_string(),
            },
        );
        if !a.elastic.timeline.is_empty() {
            out.push_str("  timeline (first 12 transitions):\n");
            for (t, inst, what) in a.elastic.timeline.iter().take(12) {
                let _ = writeln!(out, "    {:>10} µs  {inst:<15} {what}", t);
            }
            if a.elastic.timeline.len() > 12 {
                let _ = writeln!(
                    out,
                    "    … {} more transitions",
                    a.elastic.timeline.len() - 12
                );
            }
        }
    }

    // Adaptive censor vs. detection-driven defense.
    if a.adaptive.any() {
        out.push_str("\nadaptive censor (reactive GFW):\n");
        let _ = writeln!(
            out,
            "  detection:    {}",
            match a.adaptive.time_to_detection_us() {
                Some(us) => format!(
                    "first signature at {:.1} s ({} learned, {} expired)",
                    us as f64 / 1e6,
                    a.adaptive.signatures_learned,
                    a.adaptive.signatures_expired
                ),
                None => "never fingerprinted".to_string(),
            },
        );
        let _ = writeln!(
            out,
            "  campaigns:    {} launched, {} probe waves, {} region drift rolls",
            a.adaptive.campaigns, a.adaptive.probe_waves, a.adaptive.region_rolls
        );
        let _ = writeln!(
            out,
            "  probes:       {} launched ({} replayed), {} confirmed / {} innocent, {} deflected by decoys",
            a.adaptive.probes_launched,
            a.adaptive.probes_replayed,
            a.adaptive.probes_confirmed,
            a.adaptive.probes_innocent,
            a.adaptive.probes_deflected,
        );
        let _ = writeln!(
            out,
            "  detect rate:  {}",
            match a.adaptive.detection_rate() {
                Some(r) => format!("{:.1}% of probes confirmed a proxy", r * 100.0),
                None => "n/a (no probes launched)".to_string(),
            },
        );
        let _ = writeln!(
            out,
            "  defense:      {} scheme rotations, {} domestic decoys, {} endpoints blacklisted",
            a.adaptive.rotations, a.adaptive.domestic_decoys, a.adaptive.blacklisted
        );
        let _ = writeln!(
            out,
            "  availability: {}",
            match a.availability_under_campaign() {
                Some(av) => format!("{:.1}% of loads finishing after first campaign succeeded", av * 100.0),
                None => "n/a (no campaign in trace)".to_string(),
            },
        );
    }

    // Cross-tier attribution of stitched request trees.
    if !a.trees.is_empty() {
        let completed = a.trees.iter().filter(|t| t.completed()).count();
        out.push_str("\ncross-tier attribution (stitched request trees):\n");
        let _ = writeln!(
            out,
            "  traces: {}   completed: {completed}   coverage: {}",
            a.trees.len(),
            match a.attribution_coverage() {
                Some(c) => format!("{:.1}%", c * 100.0),
                None => "n/a".to_string(),
            },
        );
        let blamed: u64 = a.tier_totals.values().sum();
        if blamed > 0 {
            let _ = writeln!(out, "  {:<12} {:>14} {:>8}", "tier", "blamed (µs)", "share");
            for (tier, us) in &a.tier_totals {
                let _ = writeln!(
                    out,
                    "  {tier:<12} {us:>14} {:>7.1}%",
                    *us as f64 / blamed as f64 * 100.0
                );
            }
        }
        let slowest = a.slowest(5);
        if !slowest.is_empty() {
            out.push_str("  slowest requests (drill in with --trace <id>):\n");
            for tree in slowest {
                let (tier, share) = tree.dominant_tier().unwrap_or(("?", 0.0));
                let _ = writeln!(
                    out,
                    "    trace {:016x}  plt {:>9.1} ms  dominated by {tier} ({:.0}%)",
                    tree.trace_id,
                    tree.plt_us as f64 / 1000.0,
                    share * 100.0,
                );
            }
        }
    }

    // SLO alerts.
    out.push_str("\nSLO alerts in trace:\n");
    if a.slo_alerts.is_empty() {
        out.push_str("  (none)\n");
    } else {
        for (t, kind, slo, burn) in &a.slo_alerts {
            let _ = writeln!(
                out,
                "  {:>8.1} s  {kind:<8} {slo:<16} burn={burn:.3}",
                *t as f64 / 1e6
            );
        }
        for (t, slo, ids) in &a.alert_exemplars {
            let joined: Vec<String> = ids.iter().map(|id| format!("{id:016x}")).collect();
            let _ = writeln!(
                out,
                "  {:>8.1} s  exemplars {slo:<15} {}",
                *t as f64 / 1e6,
                joined.join(" "),
            );
        }
    }
    out
}

/// Renders one request's cross-tier waterfall: every span of the
/// stitched tree in start order, indented by causal depth, with a
/// timeline bar over the root's window and the exclusive time blamed on
/// each span. Deterministic for a given trace.
pub fn render_waterfall(tree: &TraceTree) -> String {
    const BAR: usize = 48;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {:016x} — {} spans, {} orphan{}, plt {:.1} ms",
        tree.trace_id,
        tree.spans.len(),
        tree.orphans,
        if tree.orphans == 1 { "" } else { "s" },
        tree.plt_us as f64 / 1000.0,
    );
    let Some(r) = tree.root else {
        out.push_str("  (no page_load root — partial trace)\n");
        for s in &tree.spans {
            let _ = writeln!(
                out,
                "  {:<24} {:<10} start {:>10} µs  dur {:>10} µs{}",
                s.name,
                s.tier(),
                s.start_us,
                s.end_us - s.start_us,
                if s.closed { "" } else { "  (unclosed)" },
            );
        }
        return out;
    };
    let (rs, re) = (tree.spans[r].start_us, tree.spans[r].end_us);
    let span_us = (re - rs).max(1);
    let _ = writeln!(
        out,
        "  {:<26} {:<10} {:>10}  {:>10}  {}",
        "span", "tier", "dur (µs)", "excl (µs)", "waterfall"
    );
    for s in &tree.spans {
        let (cs, ce) = (s.start_us.clamp(rs, re), s.end_us.clamp(rs, re));
        let lo = (((cs - rs) as u128 * BAR as u128 / span_us as u128) as usize).min(BAR - 1);
        let hi = ((ce - rs) as u128 * BAR as u128 / span_us as u128) as usize;
        let hi = hi.clamp(lo + 1, BAR); // ≥ 1 cell, even for instants
        let mut bar = String::with_capacity(BAR);
        for c in 0..BAR {
            bar.push(if c >= lo && c < hi { '=' } else { '.' });
        }
        let label = format!("{:indent$}{}", "", s.name, indent = (s.depth as usize) * 2);
        let _ = writeln!(
            out,
            "  {label:<26} {:<10} {:>10}  {:>10}  |{bar}|{}",
            s.tier(),
            s.end_us - s.start_us,
            s.excl_us,
            if s.closed { "" } else { " (unclosed)" },
        );
    }
    out.push_str("  tier blame:");
    for (tier, us) in &tree.tier_us {
        let _ = write!(
            out,
            "  {tier} {:.1}%",
            *us as f64 / tree.plt_us.max(1) as f64 * 100.0
        );
    }
    out.push('\n');
    out
}

/// Renders the machine-readable summary behind `scholar-obs --json`:
/// one JSON object, schema `"scholar-obs/v5"`, with the headline
/// numbers CI gates consume (availability, shed rate, cache hit rate,
/// PLT percentiles). Every `v1` key is kept with its shape unchanged;
/// `v2` appends the cross-tier attribution block (`stitched_traces`,
/// `attribution_coverage`, `tier_us`, `slowest`) and the SLO alert
/// exemplars; `v3` appends the domestic-fleet block
/// (`fleet_availability` and `fleet` with its per-shard breakdown);
/// `v4` appends the elastic-tier block (`cost_per_ok_load_micro` and
/// `elastic` with lifecycle counters, cold-start p95, and the cost
/// meters); `v5` appends the adaptive-censor block (`detection_rate`,
/// `availability_under_campaign`, and `adaptive` with fingerprint,
/// probe-campaign, and defense-rotation counters). Keys are emitted
/// in a fixed order and the output is deterministic for a given
/// trace.
pub fn render_json(a: &TraceAnalysis) -> String {
    let mut plts: Vec<u64> = a
        .page_loads
        .iter()
        .filter(|l| l.span.ok != Some(false))
        .map(|l| l.span.dur_us())
        .collect();
    plts.sort_unstable();
    let failed = a.page_loads.iter().filter(|l| l.span.ok == Some(false)).count();
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"scholar-obs/v5\",");
    let _ = writeln!(out, "  \"events\": {},", a.events);
    let _ = writeln!(out, "  \"sim_end_us\": {},", a.t_end_us);
    let _ = writeln!(out, "  \"spans_closed\": {},", a.spans.len());
    let _ = writeln!(out, "  \"spans_unclosed\": {},", a.unclosed_spans);
    let _ = writeln!(out, "  \"page_loads\": {},", a.page_loads.len());
    let _ = writeln!(out, "  \"failed_loads\": {failed},");
    match a.availability() {
        Some(av) => {
            let _ = writeln!(out, "  \"availability\": {},", json_f64(av));
        }
        None => {
            let _ = writeln!(out, "  \"availability\": null,");
        }
    }
    let _ = writeln!(
        out,
        "  \"plt_us\": {{\"p50\": {}, \"p95\": {}, \"p99\": {}}},",
        quantile_sorted(&plts, 0.50),
        quantile_sorted(&plts, 0.95),
        quantile_sorted(&plts, 0.99),
    );
    let _ = writeln!(out, "  \"shed_rate\": {},", json_f64(a.admission.shed_rate()));
    let _ = writeln!(
        out,
        "  \"admission\": {{\"admitted\": {}, \"queued\": {}, \"shed\": {}, \
         \"throttled\": {}, \"retry_denied\": {}}},",
        a.admission.admitted,
        a.admission.queued,
        a.admission.shed,
        a.admission.throttled,
        a.admission.retry_denied,
    );
    let _ = writeln!(out, "  \"cache_hit_rate\": {},", json_f64(a.cache.hit_rate()));
    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"coalesced\": {}, \
         \"revalidated\": {}, \"evicted\": {}}},",
        a.cache.hits,
        a.cache.misses,
        a.cache.coalesced,
        a.cache.revalidated,
        a.cache.evicted,
    );
    let _ = writeln!(out, "  \"failovers\": {},", a.failover_times.len());
    let _ = writeln!(out, "  \"faults\": {},", a.faults.len());
    let _ = writeln!(out, "  \"slo_alerts\": {},", a.slo_alerts.len());
    // v2: cross-tier attribution and alert exemplars.
    let _ = writeln!(out, "  \"stitched_traces\": {},", a.trees.len());
    match a.attribution_coverage() {
        Some(c) => {
            let _ = writeln!(out, "  \"attribution_coverage\": {},", json_f64(c));
        }
        None => {
            let _ = writeln!(out, "  \"attribution_coverage\": null,");
        }
    }
    let tiers: Vec<String> =
        a.tier_totals.iter().map(|(t, us)| format!("\"{t}\": {us}")).collect();
    let _ = writeln!(out, "  \"tier_us\": {{{}}},", tiers.join(", "));
    let slowest: Vec<String> = a
        .slowest(5)
        .iter()
        .map(|t| {
            format!(
                "{{\"trace\": \"{:016x}\", \"plt_us\": {}, \"dominant_tier\": \"{}\"}}",
                t.trace_id,
                t.plt_us,
                t.dominant_tier().map(|(tier, _)| tier).unwrap_or("?"),
            )
        })
        .collect();
    let _ = writeln!(out, "  \"slowest\": [{}],", slowest.join(", "));
    let exemplars: Vec<String> = a
        .alert_exemplars
        .iter()
        .map(|(t, slo, ids)| {
            let traces: Vec<String> =
                ids.iter().map(|id| format!("\"{id:016x}\"")).collect();
            format!(
                "{{\"t_us\": {t}, \"slo\": \"{slo}\", \"traces\": [{}]}}",
                traces.join(", ")
            )
        })
        .collect();
    let _ = writeln!(out, "  \"alert_exemplars\": [{}],", exemplars.join(", "));
    // v3: the domestic-fleet block.
    match a.fleet.availability() {
        Some(av) => {
            let _ = writeln!(out, "  \"fleet_availability\": {},", json_f64(av));
        }
        None => {
            let _ = writeln!(out, "  \"fleet_availability\": null,");
        }
    }
    let shard_keys: std::collections::BTreeSet<u64> = a
        .fleet
        .shard_cache
        .keys()
        .chain(a.fleet.shard_peering.keys())
        .copied()
        .collect();
    let shards: Vec<String> = shard_keys
        .into_iter()
        .map(|shard| {
            let cs = a.fleet.shard_cache.get(&shard).copied().unwrap_or_default();
            let (pf, ps) = a.fleet.shard_peering.get(&shard).copied().unwrap_or((0, 0));
            format!(
                "{{\"shard\": {shard}, \"hits\": {}, \"misses\": {}, \"coalesced\": {}, \
                 \"revalidated\": {}, \"hit_rate\": {}, \"peer_fetches\": {pf}, \
                 \"peer_serves\": {ps}}}",
                cs.hits,
                cs.misses,
                cs.coalesced,
                cs.revalidated,
                json_f64(cs.hit_rate()),
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "  \"fleet\": {{\"connect_ok\": {}, \"connect_fail\": {}, \"dead_marks\": {}, \
         \"failovers\": {}, \"recoveries\": {}, \"peer_fetches\": {}, \"peer_serves\": {}, \
         \"peer_deaths\": {}, \"fleet_sheds\": {}, \"shards\": [{}]}},",
        a.fleet.connect_ok,
        a.fleet.connect_fail,
        a.fleet.dead_marks,
        a.fleet.failovers,
        a.fleet.recoveries,
        a.fleet.peer_fetches,
        a.fleet.peer_serves,
        a.fleet.peer_deaths,
        a.fleet.fleet_sheds,
        shards.join(", "),
    );
    // v4: the elastic-tier block.
    match a.cost_per_ok_load_micro() {
        Some(c) => {
            let _ = writeln!(out, "  \"cost_per_ok_load_micro\": {},", json_f64(c));
        }
        None => {
            let _ = writeln!(out, "  \"cost_per_ok_load_micro\": null,");
        }
    }
    let _ = writeln!(
        out,
        "  \"elastic\": {{\"provisions\": {}, \"warms\": {}, \"drains_idle\": {}, \
         \"drains_blacklist\": {}, \"retires\": {}, \"churns\": {}, \"peak_live\": {}, \
         \"cold_start_p95_us\": {}, \"invocation_micro\": {}, \"egress_micro\": {}, \
         \"warm_micro\": {}, \"total_micro\": {}}},",
        a.elastic.provisions,
        a.elastic.warms,
        a.elastic.drains_idle,
        a.elastic.drains_blacklist,
        a.elastic.retires,
        a.elastic.churns,
        a.elastic.peak_live,
        match a.elastic.cold_start_p95_us() {
            Some(us) => us.to_string(),
            None => "null".to_string(),
        },
        a.elastic.invocation_micro,
        a.elastic.egress_micro,
        a.elastic.warm_micro,
        a.elastic.total_micro,
    );
    // v5: the adaptive-censor block.
    match a.adaptive.detection_rate() {
        Some(r) => {
            let _ = writeln!(out, "  \"detection_rate\": {},", json_f64(r));
        }
        None => {
            let _ = writeln!(out, "  \"detection_rate\": null,");
        }
    }
    match a.availability_under_campaign() {
        Some(av) => {
            let _ = writeln!(out, "  \"availability_under_campaign\": {},", json_f64(av));
        }
        None => {
            let _ = writeln!(out, "  \"availability_under_campaign\": null,");
        }
    }
    let _ = writeln!(
        out,
        "  \"adaptive\": {{\"signatures_learned\": {}, \"signatures_expired\": {}, \
         \"campaigns\": {}, \"probe_waves\": {}, \"probes_launched\": {}, \
         \"probes_replayed\": {}, \"probes_confirmed\": {}, \"probes_innocent\": {}, \
         \"probes_deflected\": {}, \"blacklisted\": {}, \"region_rolls\": {}, \
         \"rotations\": {}, \"domestic_decoys\": {}, \"time_to_detection_us\": {}}}",
        a.adaptive.signatures_learned,
        a.adaptive.signatures_expired,
        a.adaptive.campaigns,
        a.adaptive.probe_waves,
        a.adaptive.probes_launched,
        a.adaptive.probes_replayed,
        a.adaptive.probes_confirmed,
        a.adaptive.probes_innocent,
        a.adaptive.probes_deflected,
        a.adaptive.blacklisted,
        a.adaptive.region_rolls,
        a.adaptive.rotations,
        a.adaptive.domestic_decoys,
        match a.adaptive.time_to_detection_us() {
            Some(us) => us.to_string(),
            None => "null".to_string(),
        },
    );
    out.push_str("}\n");
    out
}

/// Formats an `f64` as a JSON number: Rust's shortest-round-trip
/// `Display`, with non-finite values mapped to `0` (JSON has no
/// NaN/Inf).
fn json_f64(v: f64) -> String {
    if v.is_finite() { format!("{v}") } else { "0".to_string() }
}

/// A density character for the interference lanes.
fn density_char(n: u64, peak: u64) -> char {
    if n == 0 || peak == 0 {
        return '.';
    }
    const RAMP: [char; 5] = [':', '-', '=', '#', '@'];
    let idx = ((n as f64 / peak as f64) * RAMP.len() as f64).ceil() as usize;
    RAMP[idx.clamp(1, RAMP.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Level, SpanId};
    use crate::sink::write_event_json;

    fn line(ev: &Event) -> String {
        let mut s = String::new();
        write_event_json(&mut s, ev);
        s
    }

    /// `ev` as the analyzer reads it back, detached from its line.
    fn reparsed(ev: &Event) -> TraceEvent<'static> {
        parse_line(&line(ev)).unwrap().into_owned()
    }

    #[test]
    fn parses_what_the_writer_emits_including_hostile_strings() {
        let ev = Event::new(17, Level::Warn, "gfw", "verdict", "drop")
            .field("rule", "gfw-\"sni\"")
            .field("host", "例子.测试\n\u{1}".to_string())
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

    fn span_pair(
        id: u64,
        component: &'static str,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> Vec<TraceEvent<'static>> {
        let s = Event::new(start, Level::Info, component, "load", "span_start")
            .field("span_name", name)
            .in_span(SpanId(id));
        let e = Event::new(end, Level::Info, component, "load", "span_end")
            .field("span_name", name)
            .field("dur_us", end - start)
            .field("ok", true)
            .in_span(SpanId(id));
        vec![reparsed(&s), reparsed(&e)]
    }

    #[test]
    fn critical_path_attributes_phases_to_containing_load() {
        let mut evs = Vec::new();
        evs.extend(span_pair(1, "web", "page_load", 0, 1_000_000));
        evs.extend(span_pair(2, "web", "connect", 0, 200_000));
        evs.extend(span_pair(3, "web", "fetch", 200_000, 900_000));
        // A second, later load with one phase.
        evs.extend(span_pair(4, "web", "page_load", 2_000_000, 2_500_000));
        evs.extend(span_pair(5, "web", "fetch", 2_100_000, 2_400_000));
        // An orphan phase outside any load: counted in totals only.
        evs.extend(span_pair(6, "web", "connect", 5_000_000, 5_100_000));
        let a = analyze(&evs, 1_000_000);
        assert_eq!(a.page_loads.len(), 2);
        let l0 = &a.page_loads[0];
        assert_eq!(l0.phase_us.get("connect"), Some(&200_000));
        assert_eq!(l0.phase_us.get("fetch"), Some(&700_000));
        assert_eq!(l0.covered_us, 900_000); // contiguous union
        assert_eq!(a.page_loads[1].phase_us.get("fetch"), Some(&300_000));
        assert_eq!(a.phase_totals.get("connect").unwrap().spans, 2);
        let report = render_report(&a);
        assert!(report.contains("page_load critical path (2 loads"));
        assert!(report.contains("share of PLT"));

        // The last load to start before a phase may be over by then;
        // the phase belongs to the earlier load still running.
        let mut evs = Vec::new();
        evs.extend(span_pair(1, "web", "page_load", 0, 10_000_000));
        evs.extend(span_pair(2, "web", "page_load", 1_000_000, 2_000_000));
        evs.extend(span_pair(3, "web", "fetch", 5_000_000, 6_000_000));
        let a = analyze(&evs, 1_000_000);
        assert_eq!(a.page_loads[0].phase_us.get("fetch"), Some(&1_000_000));
        assert!(a.page_loads[1].phase_us.is_empty());
    }

    #[test]
    fn interference_and_slo_events_build_timelines() {
        let mk = |t, rule: &'static str| {
            reparsed(
                &Event::new(t, Level::Info, "gfw", "verdict", "drop").field("rule", rule),
            )
        };
        let mut evs = vec![mk(100, "gfw-dns"), mk(200, "gfw-dns"), mk(2_500_000, "gfw-sni")];
        evs.push(
            reparsed(
                &Event::new(3_000_000, Level::Warn, "slo", "alert", "fire")
                    .field("slo", "plt-p95".to_string())
                    .field("burn", 2.5),
            ),
        );
        let a = analyze(&evs, 1_000_000);
        assert_eq!(a.rule_timeline["gfw-dns"][&0], 2);
        assert_eq!(a.rule_timeline["gfw-sni"][&2], 1);
        assert_eq!(a.slo_alerts.len(), 1);
        assert_eq!(a.slo_alerts[0].2, "plt-p95");
        let report = render_report(&a);
        assert!(report.contains("gfw-dns"));
        assert!(report.contains("fire"));
        assert!(report.contains("burn=2.500"));
    }

    #[test]
    fn cache_events_aggregate_into_stats() {
        let mk = |t, name: &'static str| {
            reparsed(
                &Event::new(t, Level::Debug, "scholarcloud", "cache", name)
                    .field("host", "scholar.google.com")
                    .field("path", "/"),
            )
        };
        let evs = vec![
            mk(100, "miss"),
            mk(200, "coalesced"),
            mk(300, "coalesced"),
            mk(400, "hit"),
            mk(500, "revalidated"),
            mk(600, "evicted"),
            // Same names under a different target must not count.
            reparsed(&Event::new(700, Level::Debug, "web", "cache", "hit")),
        ];
        let a = analyze(&evs, 1_000_000);
        assert_eq!(a.cache.hits, 1);
        assert_eq!(a.cache.misses, 1);
        assert_eq!(a.cache.coalesced, 2);
        assert_eq!(a.cache.revalidated, 1);
        assert_eq!(a.cache.evicted, 1);
        assert_eq!(a.cache.served(), 4);
        assert!((a.cache.hit_rate() - 0.8).abs() < 1e-9);
        assert!(a.cache.any());
        let report = render_report(&a);
        assert!(report.contains("shared cache (scholarcloud gateway)"));
        assert!(report.contains("hit rate:     80.0%"));
        // A trace with no cache events renders no cache section.
        let empty = analyze(&[], 1_000_000);
        assert!(!empty.cache.any());
        assert!(!render_report(&empty).contains("shared cache"));
    }

    #[test]
    fn union_len_merges_overlaps() {
        let mut ivs = vec![(0, 10), (5, 15), (20, 30)];
        assert_eq!(union_len(&mut ivs), 25);
        assert_eq!(union_len(&mut []), 0);
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

    /// The `--json` schema contract: every key CI consumes must be
    /// present with the right shape, and the output must parse with our
    /// own parser.
    #[test]
    fn render_json_schema_is_stable() {
        let mut evs = Vec::new();
        evs.extend(span_pair(1, "web", "page_load", 0, 1_000_000));
        evs.extend(span_pair(2, "web", "page_load", 0, 3_000_000));
        let mk = |t, name: &'static str| {
            reparsed(&Event::new(t, Level::Debug, "scholarcloud", "cache", name))
        };
        evs.push(mk(100, "miss"));
        evs.push(mk(200, "hit"));
        let a = analyze(&evs, 1_000_000);
        let text = render_json(&a);
        let v = parse_json(&text).expect("render_json must emit valid JSON");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("scholar-obs/v5"));
        // Every v1 key survives with its v1 shape.
        for key in [
            "events",
            "sim_end_us",
            "spans_closed",
            "spans_unclosed",
            "page_loads",
            "failed_loads",
            "failovers",
            "faults",
            "slo_alerts",
            "stitched_traces",
        ] {
            assert!(v.get(key).and_then(Json::as_u64).is_some(), "missing u64 key {key}");
        }
        for key in ["availability", "shed_rate", "cache_hit_rate"] {
            assert!(v.get(key).and_then(Json::as_f64).is_some(), "missing f64 key {key}");
        }
        let plt = v.get("plt_us").expect("plt_us object");
        assert_eq!(plt.get("p50").and_then(Json::as_u64), Some(1_000_000));
        assert_eq!(plt.get("p95").and_then(Json::as_u64), Some(3_000_000));
        assert_eq!(v.get("page_loads").and_then(Json::as_u64), Some(2));
        assert!((v.get("availability").and_then(Json::as_f64).unwrap() - 1.0).abs() < 1e-9);
        assert!((v.get("cache_hit_rate").and_then(Json::as_f64).unwrap() - 0.5).abs() < 1e-9);
        // v2 keys: untraced spans make no trees, so coverage is null and
        // the attribution arrays are empty but present.
        assert_eq!(v.get("attribution_coverage"), Some(&Json::Null));
        assert!(matches!(v.get("tier_us"), Some(Json::Obj(_))));
        assert_eq!(v.get("slowest").and_then(Json::as_arr).map(<[_]>::len), Some(0));
        assert_eq!(
            v.get("alert_exemplars").and_then(Json::as_arr).map(<[_]>::len),
            Some(0)
        );
        // v3 keys: no fleet events → availability null, counters zero,
        // shard array empty but present.
        assert_eq!(v.get("fleet_availability"), Some(&Json::Null));
        let fleet = v.get("fleet").expect("fleet object");
        for key in [
            "connect_ok",
            "connect_fail",
            "dead_marks",
            "failovers",
            "recoveries",
            "peer_fetches",
            "peer_serves",
            "peer_deaths",
            "fleet_sheds",
        ] {
            assert_eq!(fleet.get(key).and_then(Json::as_u64), Some(0), "fleet key {key}");
        }
        assert_eq!(fleet.get("shards").and_then(Json::as_arr).map(<[_]>::len), Some(0));
        // v4 keys: no elastic events → cost per load null, counters
        // zero, cold-start p95 null.
        assert_eq!(v.get("cost_per_ok_load_micro"), Some(&Json::Null));
        let elastic = v.get("elastic").expect("elastic object");
        for key in [
            "provisions",
            "warms",
            "drains_idle",
            "drains_blacklist",
            "retires",
            "churns",
            "peak_live",
            "invocation_micro",
            "egress_micro",
            "warm_micro",
            "total_micro",
        ] {
            assert_eq!(
                elastic.get(key).and_then(Json::as_u64),
                Some(0),
                "elastic key {key}"
            );
        }
        assert_eq!(elastic.get("cold_start_p95_us"), Some(&Json::Null));
        // v5 keys: no adaptive events → detection rate and
        // availability-under-campaign null, counters zero.
        assert_eq!(v.get("detection_rate"), Some(&Json::Null));
        assert_eq!(v.get("availability_under_campaign"), Some(&Json::Null));
        let adaptive = v.get("adaptive").expect("adaptive object");
        for key in [
            "signatures_learned",
            "signatures_expired",
            "campaigns",
            "probe_waves",
            "probes_launched",
            "probes_replayed",
            "probes_confirmed",
            "probes_innocent",
            "probes_deflected",
            "blacklisted",
            "region_rolls",
            "rotations",
            "domestic_decoys",
        ] {
            assert_eq!(
                adaptive.get(key).and_then(Json::as_u64),
                Some(0),
                "adaptive key {key}"
            );
        }
        assert_eq!(adaptive.get("time_to_detection_us"), Some(&Json::Null));
        // No finished loads → availability is null, still valid JSON.
        let empty = analyze(&[], 1_000_000);
        let v = parse_json(&render_json(&empty)).unwrap();
        assert_eq!(v.get("availability"), Some(&Json::Null));
    }

    /// Fleet traces: `web/fleet` + `scholarcloud/fleet` events and
    /// shard-tagged cache decisions aggregate into `FleetStats`, the
    /// report grows a fleet section, and the JSON carries the v3 block.
    #[test]
    fn fleet_events_aggregate_per_shard() {
        let web = |t, name: &'static str| {
            reparsed(
                &Event::new(t, Level::Debug, "web", "fleet", name)
                    .field("proxy", "10.1.0.2:8080"),
            )
        };
        let sc = |t, name: &'static str, shard: u64| {
            reparsed(
                &Event::new(t, Level::Debug, "scholarcloud", "fleet", name)
                    .field("shard", shard),
            )
        };
        let cache = |t, name: &'static str, shard: u64| {
            reparsed(
                &Event::new(t, Level::Debug, "scholarcloud", "cache", name)
                    .field("shard", shard),
            )
        };
        let evs = vec![
            web(100, "connect_ok"),
            web(200, "connect_ok"),
            web(300, "connect_fail"),
            web(310, "proxy_dead"),
            web(320, "failover"),
            web(900, "proxy_recovered"),
            sc(400, "peer_fetch", 1),
            sc(410, "peer_serve", 0),
            sc(500, "peer_dead", 1),
            sc(600, "fleet_shed", 2),
            cache(700, "hit", 0),
            cache(710, "hit", 0),
            cache(720, "miss", 1),
        ];
        let a = analyze(&evs, 1_000_000);
        assert_eq!(a.fleet.connect_ok, 2);
        assert_eq!(a.fleet.connect_fail, 1);
        assert_eq!(a.fleet.dead_marks, 1);
        assert_eq!(a.fleet.failovers, 1);
        assert_eq!(a.fleet.recoveries, 1);
        assert_eq!(a.fleet.peer_fetches, 1);
        assert_eq!(a.fleet.peer_serves, 1);
        assert_eq!(a.fleet.peer_deaths, 1);
        assert_eq!(a.fleet.fleet_sheds, 1);
        assert!((a.fleet.availability().unwrap() - 2.0 / 3.0).abs() < 1e-9);
        // Shard-tagged cache events split per shard AND still count in
        // the fleet-wide cache totals.
        assert_eq!(a.cache.hits, 2);
        assert_eq!(a.cache.misses, 1);
        assert_eq!(a.fleet.shard_cache.get(&0).map(|s| s.hits), Some(2));
        assert_eq!(a.fleet.shard_cache.get(&1).map(|s| s.misses), Some(1));
        assert_eq!(a.fleet.shard_peering.get(&1), Some(&(1, 0)));
        assert_eq!(a.fleet.shard_peering.get(&0), Some(&(0, 1)));
        let report = render_report(&a);
        assert!(report.contains("domestic fleet (PAC failover + cache peering)"));
        assert!(report.contains("availability 66.7%"));
        let v = parse_json(&render_json(&a)).unwrap();
        let fleet = v.get("fleet").expect("fleet object");
        assert_eq!(fleet.get("connect_ok").and_then(Json::as_u64), Some(2));
        // Shards 0 and 1 carried cache/peering traffic; the shard that
        // only shed (2) has no per-shard row.
        assert_eq!(fleet.get("shards").and_then(Json::as_arr).map(<[_]>::len), Some(2));
        // A single-proxy trace renders no fleet section.
        let empty = analyze(&[], 1_000_000);
        assert!(!empty.fleet.any());
        assert!(!render_report(&empty).contains("domestic fleet"));
    }

    /// Elastic traces: lifecycle transitions + per-tick cost events
    /// aggregate into `ElasticStats`, the last cost event's running
    /// totals win, the report grows an elastic section, and the JSON
    /// carries the v4 block.
    #[test]
    fn elastic_events_aggregate_and_last_cost_wins() {
        let el = |t, name: &'static str, extra: &[(&'static str, &str)]| {
            let mut ev = Event::new(t, Level::Info, "scholarcloud", "elastic", name)
                .field("instance", "99.0.1.2");
            for (k, v) in extra {
                ev = ev.field(*k, v.to_string());
            }
            reparsed(&ev)
        };
        let cost = |t, live: u64, inv: u64, eg: u64, warm: u64| {
            reparsed(
                &Event::new(t, Level::Info, "scholarcloud", "elastic", "cost")
                    .field("warm", live)
                    .field("live", live)
                    .field("invocation_micro", inv)
                    .field("egress_micro", eg)
                    .field("warm_micro", warm)
                    .field("total_micro", inv + eg + warm),
            )
        };
        let mut evs = span_pair(1, "web", "page_load", 0, 1_000_000);
        evs.push(el(100, "provision", &[("cold_start_us", "400000")]));
        evs.push(el(400_100, "warm", &[("cold_start_us", "400000")]));
        evs.push(el(600_000, "churn", &[]));
        evs.push(el(700_000, "drain", &[("reason", "blacklist")]));
        evs.push(el(800_000, "drain", &[("reason", "idle")]));
        evs.push(el(900_000, "retire", &[]));
        evs.push(cost(500_000, 2, 100, 0, 10));
        evs.push(cost(1_000_000, 3, 250, 90, 40));
        let a = analyze(&evs, 1_000_000);
        assert!(a.elastic.any());
        assert_eq!(a.elastic.provisions, 1);
        assert_eq!(a.elastic.warms, 1);
        assert_eq!(a.elastic.churns, 1);
        assert_eq!(a.elastic.drains_blacklist, 1);
        assert_eq!(a.elastic.drains_idle, 1);
        assert_eq!(a.elastic.retires, 1);
        assert_eq!(a.elastic.cold_start_p95_us(), Some(400_000));
        assert_eq!(a.elastic.peak_live, 3);
        // The cost meters are running totals: the later event wins.
        assert_eq!(a.elastic.total_micro, 380);
        assert_eq!(a.elastic.egress_micro, 90);
        // One successful page load → cost per ok load is the total.
        assert_eq!(a.cost_per_ok_load_micro(), Some(380.0));
        // Every lifecycle transition lands on the timeline; cost
        // events do not.
        assert_eq!(a.elastic.timeline.len(), 6);
        assert_eq!(a.elastic.timeline[0].2, "provision");
        let report = render_report(&a);
        assert!(report.contains("elastic remote tier"), "{report}");
        assert!(report.contains("per ok load:  380.0"), "{report}");
        let v = parse_json(&render_json(&a)).unwrap();
        let ej = v.get("elastic").expect("elastic object");
        assert_eq!(ej.get("total_micro").and_then(Json::as_u64), Some(380));
        assert_eq!(ej.get("cold_start_p95_us").and_then(Json::as_u64), Some(400_000));
        assert!(
            (v.get("cost_per_ok_load_micro").and_then(Json::as_f64).unwrap() - 380.0)
                .abs()
                < 1e-9
        );
        // A trace without elastic events renders no elastic section.
        let empty = analyze(&[], 1_000_000);
        assert!(!empty.elastic.any());
        assert!(!render_report(&empty).contains("elastic remote tier"));
    }

    /// Adaptive traces: fingerprint/campaign/probe events on the censor
    /// side plus rotation/decoy events on the defense side aggregate
    /// into `AdaptiveStats`, availability-under-campaign counts only
    /// loads finishing after the first campaign, the report grows an
    /// adaptive section, and the JSON carries the v5 block.
    #[test]
    fn adaptive_events_aggregate_and_availability_tracks_campaign() {
        let gfw = |t, target: &'static str, name: &'static str, extra: &[(&'static str, &str)]| {
            let mut ev = Event::new(t, Level::Info, "gfw", target, name);
            for (k, v) in extra {
                ev = ev.field(*k, v.to_string());
            }
            reparsed(&ev)
        };
        let sc = |t, target: &'static str, name: &'static str, extra: &[(&'static str, &str)]| {
            let mut ev = Event::new(t, Level::Info, "scholarcloud", target, name);
            for (k, v) in extra {
                ev = ev.field(*k, v.to_string());
            }
            reparsed(&ev)
        };
        let mut evs = Vec::new();
        // Two loads finish before the campaign (one fails — ignored by
        // the campaign metric), then one ok + one failed finish after.
        evs.extend(traced_pair(1, "web", "page_load", 0, 900_000, 1, None, true));
        evs.extend(traced_pair(2, "web", "page_load", 0, 950_000, 2, None, false));
        evs.extend(traced_pair(3, "web", "page_load", 1_000_000, 2_100_000, 3, None, true));
        evs.extend(traced_pair(4, "web", "page_load", 1_000_000, 2_200_000, 4, None, false));
        evs.push(gfw(500_000, "adaptive", "signature_learned", &[("signature", "47455420"), ("flows", "6")]));
        evs.push(gfw(600_000, "adaptive", "campaign", &[("server", "99.0.0.40:9443"), ("score", "7")]));
        evs.push(gfw(600_000, "adaptive", "probe_wave", &[("wave", "0")]));
        evs.push(
            reparsed(
                &Event::new(610_000, Level::Info, "gfw", "probe", "launched")
                    .field("server", "99.0.0.40:9443")
                    .field("replay", 1u64),
            ),
        );
        evs.push(gfw(620_000, "probe", "verdict", &[("verdict", "innocent")]));
        evs.push(gfw(700_000, "probe", "launched", &[("server", "99.0.0.40:9443")]));
        evs.push(gfw(710_000, "probe", "verdict", &[("verdict", "confirmed")]));
        evs.push(gfw(720_000, "adaptive", "blacklisted", &[("server", "99.0.0.40:9443")]));
        evs.push(gfw(800_000, "adaptive", "region_drift", &[("region", "1"), ("enforcing", "0")]));
        evs.push(gfw(900_000, "adaptive", "signature_expired", &[("signature", "47455420")]));
        evs.push(sc(615_000, "remote", "auth_fail", &[("reason", "replayed_preamble")]));
        evs.push(sc(650_000, "adaptive", "rotate", &[("from", "bytemap"), ("to", "xor_rolling"), ("evidence", "3")]));
        evs.push(sc(660_000, "domestic", "decoy", &[("reason", "not_http")]));
        // A plain scheme rotation (ops-driven, not adaptive) must NOT
        // count toward the adaptive rotation total.
        evs.push(sc(670_000, "scheme", "rotate", &[("from", "bytemap"), ("to", "xor_rolling")]));
        let a = analyze(&evs, 1_000_000);
        assert!(a.adaptive.any());
        assert_eq!(a.adaptive.signatures_learned, 1);
        assert_eq!(a.adaptive.signatures_expired, 1);
        assert_eq!(a.adaptive.campaigns, 1);
        assert_eq!(a.adaptive.probe_waves, 1);
        assert_eq!(a.adaptive.probes_launched, 2);
        assert_eq!(a.adaptive.probes_replayed, 1);
        assert_eq!(a.adaptive.probes_confirmed, 1);
        assert_eq!(a.adaptive.probes_innocent, 1);
        assert_eq!(a.adaptive.probes_deflected, 1);
        assert_eq!(a.adaptive.blacklisted, 1);
        assert_eq!(a.adaptive.region_rolls, 1);
        assert_eq!(a.adaptive.rotations, 1, "ops scheme rotate must not count");
        assert_eq!(a.adaptive.domestic_decoys, 1);
        assert_eq!(a.adaptive.time_to_detection_us(), Some(500_000));
        assert_eq!(a.adaptive.detection_rate(), Some(0.5));
        // Only the two loads that finished at/after t=600000 count:
        // one ok, one failed → 50%.
        let av = a.availability_under_campaign().unwrap();
        assert!((av - 0.5).abs() < 1e-9, "{av}");
        let report = render_report(&a);
        assert!(report.contains("adaptive censor (reactive GFW)"), "{report}");
        assert!(report.contains("first signature at 0.5 s"), "{report}");
        let v = parse_json(&render_json(&a)).unwrap();
        let aj = v.get("adaptive").expect("adaptive object");
        assert_eq!(aj.get("probes_launched").and_then(Json::as_u64), Some(2));
        assert_eq!(aj.get("rotations").and_then(Json::as_u64), Some(1));
        assert_eq!(aj.get("time_to_detection_us").and_then(Json::as_u64), Some(500_000));
        assert!((v.get("detection_rate").and_then(Json::as_f64).unwrap() - 0.5).abs() < 1e-9);
        assert!(
            (v.get("availability_under_campaign").and_then(Json::as_f64).unwrap() - 0.5)
                .abs()
                < 1e-9
        );
        // A trace without adaptive events renders no adaptive section.
        let empty = analyze(&[], 1_000_000);
        assert!(!empty.adaptive.any());
        assert!(!render_report(&empty).contains("adaptive censor"));
    }

    /// A traced `span_start`/`span_end` pair, the offline twin of
    /// `span_start_ctx`: `trace` and `parent` ride as ordinary fields.
    fn traced_pair(
        id: u64,
        component: &'static str,
        name: &'static str,
        start: u64,
        end: u64,
        trace: u64,
        parent: Option<u64>,
        ok: bool,
    ) -> Vec<TraceEvent<'static>> {
        let mut s = Event::new(start, Level::Debug, component, "t", "span_start")
            .field("span_name", name)
            .field("trace_id", trace)
            .in_span(SpanId(id));
        if let Some(p) = parent {
            s = s.field("parent", p);
        }
        let e = Event::new(end, Level::Info, component, "t", "span_end")
            .field("span_name", name)
            .field("ok", ok)
            .in_span(SpanId(id));
        vec![reparsed(&s), reparsed(&e)]
    }

    /// The canonical happy path: browser → admission → establish →
    /// attempt → relay, all stitched into one tree whose per-tier
    /// exclusive times sum to exactly the root's PLT.
    #[test]
    fn stitches_cross_tier_trees_and_attributes_exclusively() {
        const T: u64 = 0xfeed;
        let mut evs = Vec::new();
        evs.extend(traced_pair(1, "web", "page_load", 0, 1_000_000, T, None, true));
        evs.extend(traced_pair(2, "web", "tunnel", 10_000, 900_000, T, Some(1), true));
        evs.extend(traced_pair(3, "scholarcloud", "admission", 20_000, 20_000, T, Some(2), true));
        evs.extend(traced_pair(4, "scholarcloud", "establish", 20_000, 400_000, T, Some(2), true));
        evs.extend(traced_pair(5, "scholarcloud", "attempt", 30_000, 400_000, T, Some(4), true));
        evs.extend(traced_pair(6, "scholarcloud", "relay", 250_000, 380_000, T, Some(5), true));
        let a = analyze(&evs, 1_000_000);
        assert_eq!(a.trees.len(), 1);
        let tree = a.tree(T).expect("tree by id");
        assert!(tree.completed() && tree.stitched());
        assert_eq!(tree.orphans, 0);
        assert_eq!(tree.plt_us, 1_000_000);
        // Depths follow the causal chain.
        let depth_of = |id: u64| tree.spans.iter().find(|s| s.id == id).unwrap().depth;
        assert_eq!(depth_of(1), 0);
        assert_eq!(depth_of(2), 1);
        assert_eq!(depth_of(4), 2);
        assert_eq!(depth_of(5), 3);
        assert_eq!(depth_of(6), 4);
        // Exclusive attribution is a partition of the root's window.
        let excl_sum: u64 = tree.spans.iter().map(|s| s.excl_us).sum();
        assert_eq!(excl_sum, tree.plt_us);
        assert_eq!(tree.tier_us.values().sum::<u64>(), tree.plt_us);
        // The deepest covering span wins each instant: the relay's
        // window belongs to the tunnel tier, not resilience or web.
        assert_eq!(tree.tier_us.get("tunnel"), Some(&130_000));
        assert_eq!(tree.tier_us.get("resilience"), Some(&(370_000 + 10_000 - 130_000)));
        // web = root outside tunnel span + tunnel span instants no one
        // deeper claims.
        assert_eq!(
            tree.tier_us.get("web"),
            Some(&(1_000_000 - 380_000)),
        );
        assert_eq!(a.attribution_coverage(), Some(1.0));
        let wf = render_waterfall(tree);
        assert!(wf.contains("page_load"), "{wf}");
        assert!(wf.contains("relay"), "{wf}");
        assert!(wf.contains("tier blame:"), "{wf}");
        let report = render_report(&a);
        assert!(report.contains("cross-tier attribution"), "{report}");
        assert!(report.contains(&format!("{T:016x}")), "{report}");
    }

    /// Degenerate trees must neither panic nor mis-attribute: orphaned
    /// children re-attach under the root, spans shed before any child
    /// opened still count as stitched, rootless traces attribute
    /// nothing, and spans truncated mid-flight close at trace end.
    #[test]
    fn degenerate_trees_are_handled() {
        // Orphan: parent id 99 never appears.
        let mut evs = Vec::new();
        evs.extend(traced_pair(1, "web", "page_load", 0, 100_000, 7, None, true));
        evs.extend(traced_pair(2, "web", "origin", 10_000, 90_000, 7, Some(99), true));
        let a = analyze(&evs, 1_000_000);
        let tree = a.tree(7).unwrap();
        assert_eq!(tree.orphans, 1);
        assert_eq!(tree.tier_us.get("origin"), Some(&80_000));
        assert_eq!(tree.tier_us.values().sum::<u64>(), tree.plt_us);

        // Shed at admission: root failed, admission span is the only
        // child. The tree stitches but does not count as completed.
        let mut evs = Vec::new();
        evs.extend(traced_pair(1, "web", "page_load", 0, 50_000, 8, None, false));
        evs.extend(traced_pair(2, "scholarcloud", "admission", 10_000, 12_000, 8, Some(1), true));
        let a = analyze(&evs, 1_000_000);
        let tree = a.tree(8).unwrap();
        assert!(tree.stitched() && !tree.completed());
        assert_eq!(a.attribution_coverage(), None, "no completed loads");

        // Rootless: child spans only (the page_load never made it into
        // the trace). No attribution, but a renderable waterfall.
        let mut evs = Vec::new();
        evs.extend(traced_pair(5, "scholarcloud", "attempt", 0, 30_000, 9, Some(77), true));
        let a = analyze(&evs, 1_000_000);
        let tree = a.tree(9).unwrap();
        assert!(tree.root.is_none());
        assert_eq!(tree.plt_us, 0);
        assert!(tree.tier_us.is_empty());
        assert!(render_waterfall(tree).contains("no page_load root"));

        // Truncated mid-flight: a started-but-never-ended child joins
        // unclosed, pinned to trace end, and still attributes.
        let mut evs = Vec::new();
        evs.extend(traced_pair(1, "web", "page_load", 0, 200_000, 11, None, true));
        let s = Event::new(50_000, Level::Debug, "scholarcloud", "t", "span_start")
            .field("span_name", "tunnel_stream")
            .field("trace_id", 11u64)
            .field("parent", 1u64)
            .in_span(SpanId(2));
        evs.push(reparsed(&s));
        let a = analyze(&evs, 1_000_000);
        let tree = a.tree(11).unwrap();
        let cut = tree.spans.iter().find(|s| s.id == 2).unwrap();
        assert!(!cut.closed);
        assert_eq!(cut.end_us, 200_000, "clipped to trace end");
        assert_eq!(tree.tier_us.get("tunnel"), Some(&150_000));
        assert_eq!(tree.tier_us.values().sum::<u64>(), tree.plt_us);
        assert!(render_waterfall(tree).contains("(unclosed)"));

        // A self-parent / cycle must not hang or panic.
        let mut evs = Vec::new();
        evs.extend(traced_pair(1, "web", "page_load", 0, 10_000, 13, None, true));
        evs.extend(traced_pair(2, "x", "a", 1_000, 2_000, 13, Some(3), true));
        evs.extend(traced_pair(3, "x", "b", 1_000, 2_000, 13, Some(2), true));
        let a = analyze(&evs, 1_000_000);
        assert_eq!(a.tree(13).unwrap().tier_us.values().sum::<u64>(), 10_000);
    }

    /// Fired alerts carry their exemplar trace ids through the analyzer
    /// and into both renderers.
    #[test]
    fn alert_exemplars_are_parsed_and_rendered() {
        let mut evs = Vec::new();
        evs.extend(span_pair(1, "web", "page_load", 0, 1_000_000));
        evs.push(
            reparsed(
                &Event::new(2_000_000, Level::Warn, "slo", "alert", "fire")
                    .field("slo", "plt-p95".to_string())
                    .field("burn", 2.0)
                    .field("exemplars", "00000000000000ff,0000000000000abc".to_string()),
            ),
        );
        let a = analyze(&evs, 1_000_000);
        assert_eq!(a.alert_exemplars.len(), 1);
        assert_eq!(a.alert_exemplars[0].1, "plt-p95");
        assert_eq!(a.alert_exemplars[0].2, vec![0xff, 0xabc]);
        let report = render_report(&a);
        assert!(report.contains("exemplars plt-p95"), "{report}");
        assert!(report.contains("00000000000000ff"), "{report}");
        let v = parse_json(&render_json(&a)).unwrap();
        let ex = v.get("alert_exemplars").and_then(Json::as_arr).unwrap();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].get("slo").and_then(Json::as_str), Some("plt-p95"));
        let traces = ex[0].get("traces").and_then(Json::as_arr).unwrap();
        assert_eq!(traces[0].as_str(), Some("00000000000000ff"));
    }
}
