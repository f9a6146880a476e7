//! Causal trace context: deterministic trace identifiers and their
//! in-band wire encoding.
//!
//! A [`TraceId`] is minted once per browser page load and carried
//! through every hop of the request path — the `Sc-Trace` header on
//! plain-HTTP/gateway/CONNECT requests, and two fixed fields on the
//! tunnel [`StreamHeader`](../../sc_core/frame) — so that every
//! subsystem can emit spans *parented* into the originating request's
//! tree. Stitching happens offline in [`analyze`](crate::analyze).
//!
//! # Determinism
//!
//! Ids are **not** random: they are an FNV-1a hash of the minting
//! browser's seeded entropy and the load index. The same seeded
//! scenario therefore mints the same ids in the same order, keeping
//! traced runs byte-identical, while distinct (client, load) pairs get
//! distinct, well-mixed 64-bit ids.
//!
//! # Zero-cost propagation
//!
//! The wire encoding is **fixed width** (`<16 hex>-<16 hex>`, 33
//! bytes): when no sink is attached every span id is
//! [`SpanId::NONE`](crate::SpanId::NONE) and the header still encodes —
//! as `…-0000000000000000` — so packet sizes, and with them the entire
//! simulated packet schedule, are identical whether tracing is enabled
//! or not. Minting is a 16-byte hash; no allocation happens until the
//! header string is built, which request construction does anyway.

use std::fmt::Write;

use crate::event::SpanId;

/// The header that carries trace context on simulated HTTP requests
/// (browser → domestic proxy → origin).
pub const TRACE_HEADER: &str = "Sc-Trace";

/// Identifier of one end-to-end traced request (a browser page load).
///
/// `0` is reserved for "no trace" and never minted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null trace id.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this is the null trace.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Mints the deterministic trace id for load number `load` of the
    /// browser seeded with `entropy`: FNV-1a over both values. Never
    /// returns [`TraceId::NONE`].
    pub fn mint(entropy: u64, load: u64) -> TraceId {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: [u8; 8]| {
            for b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(entropy.to_le_bytes());
        eat(load.to_le_bytes());
        TraceId(h.max(1))
    }
}

/// A propagated trace context: which request this work belongs to
/// ([`TraceId`]) and which span caused it (`parent`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The end-to-end request id.
    pub trace: TraceId,
    /// The causing span on the upstream tier ([`SpanId::NONE`] for
    /// roots or when tracing is disabled).
    pub parent: SpanId,
}

impl TraceCtx {
    /// The empty context (no trace, no parent).
    pub const NONE: TraceCtx = TraceCtx { trace: TraceId::NONE, parent: SpanId::NONE };

    /// Builds a context.
    pub fn new(trace: TraceId, parent: SpanId) -> TraceCtx {
        TraceCtx { trace, parent }
    }

    /// Whether the context carries no trace at all.
    pub fn is_none(self) -> bool {
        self.trace.is_none()
    }

    /// This context re-parented on `parent` (same trace).
    pub fn with_parent(self, parent: SpanId) -> TraceCtx {
        TraceCtx { trace: self.trace, parent }
    }

    /// The fixed-width wire form: `<16-hex trace>-<16-hex parent>`,
    /// always exactly 33 bytes so traced and untraced runs put the same
    /// number of bytes on the wire.
    pub fn header_value(self) -> String {
        let mut s = String::with_capacity(33);
        write!(s, "{self}").expect("writing to a String is infallible");
        s
    }

    /// Parses the wire form produced by [`header_value`]
    /// (`Self::header_value`). Returns `None` on any malformation —
    /// degenerate inputs must never panic a relay.
    pub fn parse(s: &str) -> Option<TraceCtx> {
        let s = s.trim();
        if s.len() != 33 || s.as_bytes()[16] != b'-' {
            return None;
        }
        let trace = u64::from_str_radix(&s[..16], 16).ok()?;
        let parent = u64::from_str_radix(&s[17..], 16).ok()?;
        Some(TraceCtx { trace: TraceId(trace), parent: SpanId(parent) })
    }
}

/// The wire form of [`TraceCtx::header_value`], for a caller that writes
/// it where it goes (a request head) instead of into a `String` first.
impl core::fmt::Display for TraceCtx {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}-{:016x}", self.trace.0, self.parent.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minting_is_deterministic_and_distinct() {
        let a = TraceId::mint(7, 0);
        assert_eq!(a, TraceId::mint(7, 0));
        assert_ne!(a, TraceId::mint(7, 1));
        assert_ne!(a, TraceId::mint(8, 0));
        assert!(!a.is_none());
    }

    #[test]
    fn header_roundtrip_is_fixed_width() {
        let ctx = TraceCtx::new(TraceId(0xdead_beef), SpanId(42));
        let v = ctx.header_value();
        assert_eq!((v.as_str(), v.capacity()), ("00000000deadbeef-000000000000002a", 33));
        assert_eq!(TraceCtx::parse(&v), Some(ctx));
        // Disabled tracing still encodes at the same width.
        let off = TraceCtx::new(TraceId::mint(1, 2), SpanId::NONE);
        assert_eq!(off.header_value().len(), 33);
    }

    #[test]
    fn parse_rejects_malformed_values() {
        assert_eq!(TraceCtx::parse(""), None);
        assert_eq!(TraceCtx::parse("abc"), None);
        assert_eq!(TraceCtx::parse(&"0".repeat(33)), None);
        assert_eq!(TraceCtx::parse(&format!("{}-{}", "z".repeat(16), "0".repeat(16))), None);
        assert_eq!(TraceCtx::parse(&format!("{}+{}", "0".repeat(16), "0".repeat(16))), None);
    }
}
