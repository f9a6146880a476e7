//! The proxy's one way into `sc-obs`: every event, span and timeline
//! series the stages record is component `scholarcloud` at simulation
//! time, and all of them cost nothing to *build* unless a sink will
//! record them.

use sc_netproto::socks::TargetAddr;
use sc_obs::{FieldValue, Fields, Level, SpanId, TraceCtx};
use sc_simnet::time::SimTime;

use crate::frame::StreamHeader;

const COMPONENT: &str = "scholarcloud";

/// Emits one event; `fields` writes the fields and runs only if the
/// event passes the level filter.
pub(super) fn event(
    now: SimTime,
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: impl FnOnce(&mut Fields<'_>),
) {
    sc_obs::event(now.as_micros(), level, COMPONENT, target, name, fields);
}

/// Tags a fleet member's event with its shard index. Single-proxy
/// traces carry no such field, so they stay byte-identical with
/// pre-fleet builds.
pub(super) fn sharded<'f, 'a>(f: &'f mut Fields<'a>, shard: Option<usize>) -> &'f mut Fields<'a> {
    match shard {
        Some(idx) => f.field("shard", idx),
        None => f,
    }
}

/// Opens a Debug-level span under `tctx`; `fields` runs only if the span
/// will be recorded.
pub(super) fn span(
    now: SimTime,
    target: &'static str,
    name: &'static str,
    tctx: TraceCtx,
    fields: impl FnOnce(&mut Fields<'_>),
) -> SpanId {
    sc_obs::span_start_ctx(now.as_micros(), Level::Debug, COMPONENT, target, name, tctx, fields)
}

/// Closes `span` and clears it, so a second close is a no-op; `fields`
/// runs only if the span was recorded in the first place.
pub(super) fn end(now: SimTime, span: &mut SpanId, fields: impl FnOnce(&mut Fields<'_>)) {
    sc_obs::span_end(now.as_micros(), std::mem::replace(span, SpanId::NONE), fields);
}

/// Adds `n` to a timeline series at `now`.
pub(super) fn bump(now: SimTime, name: &'static str, n: u64) {
    sc_obs::ts_bump(now.as_micros(), name, n);
}

/// `host:port` of the request a stream header carries, as a trace
/// field value.
pub(super) fn target_label(header: &StreamHeader) -> TargetLabel<'_> {
    TargetLabel(header)
}

/// See [`target_label`].
pub(super) struct TargetLabel<'a>(&'a StreamHeader);

impl FieldValue for TargetLabel<'_> {
    fn write_json(&self, out: &mut String) {
        match &self.0.target {
            TargetAddr::Domain(host, port) => {
                out.push('"');
                sc_obs::sink::push_escaped(out, host);
                out.push(':');
                sc_obs::sink::push_u64(out, u64::from(*port));
                out.push('"');
            }
            // A literal address: not what a browser sends a proxy.
            other => format!("{other:?}").write_json(out),
        }
    }
}
