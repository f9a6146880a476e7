//! The proxy's one way into `sc-obs`: every event, span and counter the
//! stages record is component `scholarcloud` at simulation time, and all
//! of them cost nothing to *build* unless a sink will record them.

use sc_netproto::socks::TargetAddr;
use sc_obs::{Event, Level, SpanFields, SpanId, TraceCtx};
use sc_simnet::time::SimTime;

use crate::frame::StreamHeader;

const COMPONENT: &str = "scholarcloud";

/// Emits one event; `build` attaches the fields and runs only if the
/// event passes the level filter.
pub(super) fn event(
    now: SimTime,
    level: Level,
    target: &'static str,
    name: &'static str,
    build: impl FnOnce(Event) -> Event,
) {
    sc_obs::event(now.as_micros(), level, COMPONENT, target, name, build);
}

/// Tags a fleet member's event with its shard index. Single-proxy
/// traces carry no such field, so they stay byte-identical with
/// pre-fleet builds.
pub(super) fn sharded(ev: Event, shard: Option<usize>) -> Event {
    match shard {
        Some(idx) => ev.field("shard", idx as u64),
        None => ev,
    }
}

/// Opens a Debug-level span under `tctx`; `fields` runs only if the span
/// will be recorded.
pub(super) fn span(
    now: SimTime,
    target: &'static str,
    name: &'static str,
    tctx: TraceCtx,
    fields: impl FnOnce() -> SpanFields,
) -> SpanId {
    sc_obs::span_start_ctx(now.as_micros(), Level::Debug, COMPONENT, target, name, tctx, fields)
}

/// Closes `span` and clears it, so a second close is a no-op; `fields`
/// runs only if the span was recorded in the first place.
pub(super) fn end(now: SimTime, span: &mut SpanId, fields: impl FnOnce() -> SpanFields) {
    sc_obs::span_end(now.as_micros(), std::mem::replace(span, SpanId::NONE), fields);
}

/// Bumps a counter and its timeline series together.
pub(super) fn count(now: SimTime, name: &'static str, n: u64) {
    sc_obs::counter_add(name, n);
    sc_obs::ts_bump(now.as_micros(), name, n);
}

/// `host:port` of the request a stream header carries.
pub(super) fn target_label(header: &StreamHeader) -> String {
    match &header.target {
        TargetAddr::Domain(host, port) => format!("{host}:{port}"),
        other => format!("{other:?}"),
    }
}
