//! `sc-obs`: zero-dependency observability for the ScholarCloud
//! reproduction.
//!
//! The paper's contribution is *measurement* — packet-loss rates,
//! page-load times, per-method overhead — so the reproduction needs to
//! explain not just *what* a scenario measured but *why*: which GFW
//! rule killed a flow, where a page load spent its time, how deep a
//! bottleneck queue ran. This crate provides that layer, std-only (the
//! build environment is fully offline), with three pieces:
//!
//! 1. **Structured tracing** ([`event`], [`span_start`]/[`span_end`])
//!    keyed to **simulation time**: every record carries `t_us`,
//!    microseconds of `sc-simnet` clock, never wall clock. Events are
//!    addressed `component → target → name`, filtered by one
//!    [`Level`], and written in place: a site's closure appends its
//!    fields to the sink's line through [`Fields`].
//! 2. **One sink**: [`JsonlSink`] writes the trace that everything
//!    reading a run — tests, examples, [`analyze`], the benchmark —
//!    parses back. A fact about a run is read from its trace.
//! 3. **Windows and SLOs** ([`TimeSeries`], [`SloEngine`]): per-window
//!    rates and quantiles, and the burn-rate alerts evaluated on them,
//!    which reach the trace as events. Beside them a [`Registry`] holds
//!    the three counters the repository benchmark reads
//!    (`simnet.packets_sent`, `scholarcloud.failovers`, `web.failovers`)
//!    until that benchmark reads the trace too (ROADMAP item 8j).
//!
//! A fourth piece stands apart: [`prof`] is a **wall-clock**
//! self-profiler (per-subsystem scoped timers plus allocation
//! accounting) for the repository benchmark (`benchmark/`). It is off
//! by default and guaranteed never to perturb sim-time traces.
//!
//! # Usage
//!
//! A run installs a [`Dispatcher`] into a thread-local slot and keeps
//! the RAII guard alive for the duration; instrumented code anywhere
//! below calls the free functions, which no-op when nothing is
//! installed (the un-instrumented fast path is a thread-local read):
//!
//! ```
//! use sc_obs::{Dispatcher, JsonlSink, Level};
//!
//! let path = std::env::temp_dir().join(format!("sc_obs_doc_{}.jsonl", std::process::id()));
//! let path = path.to_str().unwrap();
//! let guard = Dispatcher::new()
//!     .with_level(Level::Debug)
//!     .with_sink(Box::new(JsonlSink::create(path).unwrap()))
//!     .install();
//!
//! // ... deep inside instrumented code, with no handle in scope:
//! sc_obs::event(1_500, Level::Info, "gfw", "verdict", "drop", |f| {
//!     f.field("rule", "gfw-sni");
//! });
//!
//! drop(guard); // flushes the sink
//! let text = std::fs::read_to_string(path).unwrap();
//! let line = text.lines().next().unwrap();
//! let ev = sc_obs::analyze::parse_line(line).unwrap();
//! assert_eq!((&*ev.name, ev.get_str("rule")), ("drop", Some("gfw-sni")));
//! # std::fs::remove_file(path).unwrap();
//! ```
//!
//! # Determinism
//!
//! Traces of the same seeded scenario are **byte-identical**: sim-time
//! timestamps, sequential span ids, insertion-ordered fields,
//! `BTreeMap`-ordered series, and a hand-rolled JSON writer with a
//! fixed key order leave no room for wall-clock or hash-order noise.
//! `tests/obs_trace_determinism.rs` in the workspace root enforces this.

#![warn(missing_docs)]

pub mod analyze;
pub mod context;
pub mod dispatch;
pub mod event;
pub mod metrics;
pub mod prof;
pub mod sink;
pub mod slo;
pub mod timeseries;

pub use context::{TraceCtx, TraceId, TRACE_HEADER};
pub use dispatch::{
    counter_add, event, is_active, span_end, span_start, span_start_ctx, tick, ts_bump, ts_bump_ex,
    ts_record, ts_record_ex, with_slo_engine, with_timeseries, Dispatcher, ObsGuard,
};
pub use event::{Level, SpanId};
pub use metrics::Registry;
pub use sink::{write_line, FieldValue, Fields, JsonlSink, Quoted};
pub use slo::{Alert, Objective, SloEngine, SloSpec, SloStatus};
pub use timeseries::{SeriesKind, TimeSeries, Window, WindowSpec};
