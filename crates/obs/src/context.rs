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
    /// (`Self::header_value`): exactly 16 lower-case hex digits, `-`, 16
    /// more. Returns `None` for anything else — no sign, no whitespace,
    /// no upper case — and never panics a relay.
    pub fn parse(s: &str) -> Option<TraceCtx> {
        let (trace, parent) = s.split_once('-')?;
        Some(TraceCtx { trace: TraceId(hex16(trace)?), parent: SpanId(hex16(parent)?) })
    }
}

/// The value of exactly 16 lower-case hex digits.
fn hex16(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    s.bytes().try_fold(0u64, |v, b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(v << 4 | u64::from(digit))
    })
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
        // What `u64::from_str_radix` would have taken: a sign, upper
        // case, surrounding whitespace.
        for odd in [
            "+00000000000000a-000000000000002a",
            "00000000deadbeef-+00000000000002a",
            "00000000DEADBEEF-000000000000002a",
            " 00000000deadbeef-000000000000002a",
            "00000000deadbeef-000000000000002a\n",
            "00000000deadbeef-000000000000002a-",
        ] {
            assert_eq!(TraceCtx::parse(odd), None, "{odd:?}");
        }
    }

    mod props {
        use proptest::prelude::*;

        use super::*;

        /// Hex digits of both cases, the separator, a sign, a space and
        /// a multi-byte char: the neighbourhood of the canonical form.
        const ALPHABET: [char; 26] = [
            '0', '1', '2', '7', '9', 'a', 'b', 'c', 'd', 'e', 'f', 'A', 'F', 'g', 'x', '-', '+', ' ',
            '\t', '\n', '.', '_', '\0', 'é', '例', '0',
        ];

        fn canonical(s: &str) -> bool {
            let b = s.as_bytes();
            let hex = |c: &u8| c.is_ascii_digit() || (b'a'..=b'f').contains(c);
            b.len() == 33 && b[16] == b'-' && b[..16].iter().all(hex) && b[17..].iter().all(hex)
        }

        fn check(s: &str) {
            match TraceCtx::parse(s) {
                Some(ctx) => assert_eq!(ctx.header_value(), s, "accepted a non-canonical {s:?}"),
                None => assert!(!canonical(s), "refused the canonical {s:?}"),
            }
        }

        proptest! {
            #[test]
            fn arbitrary_text_parses_only_in_canonical_form(
                picks in prop::collection::vec(0usize..ALPHABET.len(), 0..40),
            ) {
                check(&picks.into_iter().map(|i| ALPHABET[i]).collect::<String>());
            }

            #[test]
            fn a_canonical_value_with_one_byte_changed_parses_only_if_still_canonical(
                trace in any::<u64>(),
                parent in any::<u64>(),
                at in 0usize..33,
                with in 0usize..ALPHABET.len(),
            ) {
                let ctx = TraceCtx::new(TraceId(trace), SpanId(parent));
                let wire = ctx.header_value();
                prop_assert_eq!(TraceCtx::parse(&wire), Some(ctx));
                let mut chars: Vec<char> = wire.chars().collect();
                chars[at] = ALPHABET[with];
                check(&chars.into_iter().collect::<String>());
            }
        }
    }
}
