//! The dispatcher: routes events to sinks and hosts the shared
//! [`Registry`].
//!
//! Instrumented code never threads an observability handle through its
//! call graph — deep layers like `sc-simnet`'s TCP engine have no
//! context parameter to hang one on. Instead a [`Dispatcher`] is
//! **installed into a thread-local slot** for the duration of a run
//! (RAII [`ObsGuard`]), and instrumentation calls the free functions
//! ([`emit`], [`counter_add`], [`span_start`], …), which are no-ops
//! when nothing is installed. The simulator is single-threaded and
//! tests run one scenario per thread, so thread-locality also keeps
//! parallel test binaries from interleaving traces — a prerequisite for
//! the byte-identical determinism guarantee.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use crate::event::{Event, Level, SpanId};
use crate::metrics::Registry;
use crate::sink::Sink;
use crate::slo::{SloEngine, SloSpec};
use crate::timeseries::{TimeSeries, WindowSpec};

thread_local! {
    static CURRENT: RefCell<Option<Dispatcher>> = const { RefCell::new(None) };
    /// Mirror of `CURRENT.is_some()`, readable without touching the
    /// `RefCell`: the early-out every free function takes first, so
    /// un-instrumented runs pay one `Cell` read and a branch.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Routes events to sinks, applying per-component level filters, and
/// owns the run's metrics [`Registry`].
pub struct Dispatcher {
    sinks: Vec<Box<dyn Sink>>,
    default_level: Level,
    component_levels: BTreeMap<&'static str, Level>,
    registry: Registry,
    timeseries: TimeSeries,
    slos: SloEngine,
    next_span: u64,
    open_spans: BTreeMap<u64, SpanStart>,
}

struct SpanStart {
    t_us: u64,
    component: &'static str,
    target: &'static str,
    name: &'static str,
}

impl Default for Dispatcher {
    fn default() -> Dispatcher {
        Dispatcher::new()
    }
}

impl Dispatcher {
    /// Creates a dispatcher accepting `Info` and above with no sinks.
    pub fn new() -> Dispatcher {
        Dispatcher {
            sinks: Vec::new(),
            default_level: Level::Info,
            component_levels: BTreeMap::new(),
            registry: Registry::new(),
            timeseries: TimeSeries::default(),
            slos: SloEngine::default(),
            next_span: 0,
            open_spans: BTreeMap::new(),
        }
    }

    /// Sets the minimum level accepted for components without an
    /// explicit override.
    pub fn with_level(mut self, level: Level) -> Dispatcher {
        self.default_level = level;
        self
    }

    /// Overrides the minimum level for one component (e.g. keep
    /// `simnet` at `Info` while tracing `gfw` at `Trace`).
    pub fn with_component_level(mut self, component: &'static str, level: Level) -> Dispatcher {
        self.component_levels.insert(component, level);
        self
    }

    /// Adds a sink; every accepted event is offered to all sinks in
    /// registration order.
    pub fn with_sink(mut self, sink: Box<dyn Sink>) -> Dispatcher {
        self.sinks.push(sink);
        self
    }

    /// Replaces the windowed time-series store with one of the given
    /// geometry (the default is 1-second windows, 512 kept per series).
    pub fn with_windows(mut self, spec: WindowSpec) -> Dispatcher {
        self.timeseries = TimeSeries::new(spec);
        self
    }

    /// Adds one SLO; alerts are evaluated as windows close (see
    /// [`tick`]) and dispatched through the sinks like any other event.
    pub fn with_slo(mut self, spec: SloSpec) -> Dispatcher {
        self.slos.push(spec);
        self
    }

    /// Adds several SLOs.
    pub fn with_slos(mut self, specs: Vec<SloSpec>) -> Dispatcher {
        for spec in specs {
            self.slos.push(spec);
        }
        self
    }

    /// Installs this dispatcher into the thread-local slot, returning a
    /// guard that uninstalls (and flushes sinks into) it on drop. The
    /// previously installed dispatcher, if any, is restored afterwards,
    /// so scopes nest.
    pub fn install(self) -> ObsGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(self));
        ACTIVE.with(|a| a.set(true));
        ObsGuard { prev }
    }

    /// The metrics registry accumulated so far.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The windowed time-series accumulated so far.
    pub fn timeseries(&self) -> &TimeSeries {
        &self.timeseries
    }

    /// The SLO engine with its current alerting state.
    pub fn slo_engine(&self) -> &SloEngine {
        &self.slos
    }

    /// Consumes the dispatcher, yielding its final registry (typically
    /// after [`ObsGuard::uninstall`]).
    pub fn into_registry(self) -> Registry {
        self.registry
    }

    /// Whether an event at `level` from `component` would reach a sink.
    /// With no sink attached nothing can observe an event, so emission
    /// is disabled outright — the zero-cost guard hot paths rely on to
    /// skip label formatting and field-vector allocation entirely.
    fn enabled(&self, level: Level, component: &str) -> bool {
        if self.sinks.is_empty() {
            return false;
        }
        let min = self
            .component_levels
            .get(component)
            .copied()
            .unwrap_or(self.default_level);
        level >= min
    }

    fn dispatch(&mut self, ev: &Event) {
        for sink in &mut self.sinks {
            sink.record(ev);
        }
    }

    /// Allocates the next span id, remembers the start and dispatches
    /// the `span_start` event (the caller has checked the level).
    fn open_span(
        &mut self,
        start: SpanStart,
        level: Level,
        ctx: crate::context::TraceCtx,
        fields: SpanFields,
    ) -> SpanId {
        self.next_span += 1;
        let id = self.next_span;
        let mut ev = Event::new(start.t_us, level, start.component, start.target, "span_start")
            .in_span(SpanId(id));
        ev.fields.push(("span_name", crate::event::Value::Str(start.name)));
        self.open_spans.insert(id, start);
        if !ctx.trace.is_none() {
            ev.fields.push(("trace_id", crate::event::Value::U64(ctx.trace.0)));
        }
        if !ctx.parent.is_none() {
            ev.fields.push(("parent", crate::event::Value::U64(ctx.parent.0)));
        }
        ev.fields.extend(fields);
        self.dispatch(&ev);
        SpanId(id)
    }
}

/// RAII guard from [`Dispatcher::install`]; dropping it flushes sinks
/// and restores the previously installed dispatcher.
pub struct ObsGuard {
    prev: Option<Dispatcher>,
}

impl ObsGuard {
    /// Uninstalls explicitly and hands back the dispatcher (flushed),
    /// giving access to its final [`Registry`].
    pub fn uninstall(mut self) -> Dispatcher {
        let prev = self.prev.take();
        ACTIVE.with(|a| a.set(prev.is_some()));
        let mut d = CURRENT
            .with(|c| std::mem::replace(&mut *c.borrow_mut(), prev))
            .expect("dispatcher slot emptied while guard alive");
        // The restore is done: skip Drop, which would otherwise evict
        // the just-reinstalled previous dispatcher.
        std::mem::forget(self);
        for sink in &mut d.sinks {
            sink.flush();
        }
        d
    }

    /// Snapshot of the installed dispatcher's registry.
    pub fn registry(&self) -> Registry {
        CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .map(|d| d.registry.clone())
                .unwrap_or_default()
        })
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let restored = self.prev.take();
        ACTIVE.with(|a| a.set(restored.is_some()));
        CURRENT.with(|c| {
            let mut slot = c.borrow_mut();
            if let Some(mut d) = std::mem::replace(&mut *slot, restored) {
                for sink in &mut d.sinks {
                    sink.flush();
                }
            }
        });
    }
}

fn with_installed<R>(f: impl FnOnce(&mut Dispatcher) -> R) -> Option<R> {
    if !ACTIVE.with(|a| a.get()) {
        return None;
    }
    CURRENT.with(|c| c.borrow_mut().as_mut().map(f))
}

/// Whether an event at `level` from `component` would be accepted.
/// Hot paths use this to skip building field vectors entirely. Always
/// `false` when no dispatcher is installed **or the installed one has
/// no sinks** — emission is pure cost if nothing can record it.
pub fn is_enabled(level: Level, component: &str) -> bool {
    with_installed(|d| d.enabled(level, component)).unwrap_or(false)
}

/// Whether any dispatcher is installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Sends an event through the installed dispatcher (no-op without one,
/// when no sink is attached, or when filtered out by level).
pub fn emit(ev: Event) {
    with_installed(|d| {
        if d.enabled(ev.level, ev.component) {
            d.dispatch(&ev);
        }
    });
}

/// Emits one event, building it only if it will be recorded: `build`
/// receives the bare event and attaches the fields, and runs only after
/// the level filter has accepted `level` for `component` — a filtered
/// event costs neither its `String`s nor its field vector, and each
/// site names its level and component once.
pub fn event(
    t_us: u64,
    level: Level,
    component: &'static str,
    target: &'static str,
    name: &'static str,
    build: impl FnOnce(Event) -> Event,
) {
    if !is_enabled(level, component) {
        return;
    }
    // Built outside the dispatcher borrow, so `build` may itself read
    // the registry or emit.
    let ev = build(Event::new(t_us, level, component, target, name));
    with_installed(|d| d.dispatch(&ev));
}

/// Field list of a span's start or end event.
pub type SpanFields = Vec<(&'static str, crate::event::Value)>;

/// Opens a span: emits a `span_start` event and returns the id to close
/// it with. Returns [`SpanId::NONE`] (which [`span_end`] ignores) when
/// no dispatcher is installed or the span's level is filtered out;
/// `fields` runs only for a span that will be recorded.
pub fn span_start(
    t_us: u64,
    level: Level,
    component: &'static str,
    target: &'static str,
    name: &'static str,
    fields: impl FnOnce() -> SpanFields,
) -> SpanId {
    span_start_ctx(t_us, level, component, target, name, crate::context::TraceCtx::NONE, fields)
}

/// Opens a span *inside a propagated trace*: like [`span_start`], but
/// the emitted `span_start` event additionally carries the trace id and
/// the causing parent span, which is what
/// [`analyze`](crate::analyze) stitches cross-tier request trees from.
///
/// `trace_id`/`parent` ride as ordinary fields (after `span_name`,
/// before the caller's fields) so the JSONL schema is unchanged; a
/// [`TraceCtx::NONE`](crate::TraceCtx::NONE) context degrades to a
/// plain unparented span.
pub fn span_start_ctx(
    t_us: u64,
    level: Level,
    component: &'static str,
    target: &'static str,
    name: &'static str,
    ctx: crate::context::TraceCtx,
    fields: impl FnOnce() -> SpanFields,
) -> SpanId {
    if !is_enabled(level, component) {
        return SpanId::NONE;
    }
    let fields = fields();
    with_installed(|d| d.open_span(SpanStart { t_us, component, target, name }, level, ctx, fields))
        .unwrap_or(SpanId::NONE)
}

/// Closes a span opened by [`span_start`], emitting a `span_end` event
/// carrying the span's simulated duration in `dur_us`; `fields` runs
/// only if the span was recorded in the first place.
pub fn span_end(t_us: u64, span: SpanId, fields: impl FnOnce() -> SpanFields) {
    if span.is_none() {
        return;
    }
    let Some(start) = with_installed(|d| d.open_spans.remove(&span.0)).flatten() else {
        return;
    };
    let fields = fields();
    with_installed(|d| {
        let mut ev = Event::new(
            t_us,
            Level::Info,
            start.component,
            start.target,
            "span_end",
        )
        .in_span(span);
        ev.fields.push(("span_name", crate::event::Value::Str(start.name)));
        ev.fields
            .push(("dur_us", crate::event::Value::U64(t_us.saturating_sub(start.t_us))));
        ev.fields.extend(fields);
        d.dispatch(&ev);
    });
}

/// Adds to a named counter in the installed registry (no-op without a
/// dispatcher).
pub fn counter_add(name: &str, by: u64) {
    with_installed(|d| d.registry.counter_add(name, by));
}

/// Records a histogram sample in the installed registry.
pub fn observe(name: &str, v: u64) {
    with_installed(|d| d.registry.observe(name, v));
}

/// Records a sample into the named windowed time-series at simulation
/// time `t_us` (no-op without a dispatcher). Pairs with [`observe`]:
/// `observe` feeds the run-wide histogram, `ts_record` the per-window
/// one.
pub fn ts_record(t_us: u64, name: &str, v: u64) {
    with_installed(|d| d.timeseries.record(name, t_us, v));
}

/// Like [`ts_record`], but additionally tags the sample with the trace
/// id of the request it came from, so the window keeps it as an
/// **exemplar** candidate (bounded worst-K per window) that fired SLO
/// alerts can link to as evidence.
pub fn ts_record_ex(t_us: u64, name: &str, v: u64, trace: crate::context::TraceId) {
    with_installed(|d| d.timeseries.record_ex(name, t_us, v, trace.0));
}

/// Adds a counter-style increment to the named windowed time-series at
/// simulation time `t_us` (no-op without a dispatcher).
pub fn ts_bump(t_us: u64, name: &str, by: u64) {
    with_installed(|d| d.timeseries.bump(name, t_us, by));
}

/// Like [`ts_bump`], but tags the increment with the trace id of the
/// contributing request (exemplar candidate for rate-based SLOs, e.g.
/// availability alerts linking to the failed loads that burned budget).
pub fn ts_bump_ex(t_us: u64, name: &str, by: u64, trace: crate::context::TraceId) {
    with_installed(|d| d.timeseries.bump_ex(name, t_us, by, trace.0));
}

/// Advances the observability clock to simulation time `t_us`. The
/// simulator calls this as its clock moves; every time-series window
/// that closes is evaluated against the configured SLOs, and resulting
/// burn-rate alerts are dispatched through the sinks like any other
/// event (component `slo`, target `alert`, names `fire`/`resolve`).
/// No-op without a dispatcher; cheap when no window closed.
pub fn tick(t_us: u64) {
    with_installed(|d| {
        d.timeseries.advance(t_us);
        if d.slos.is_empty() {
            return;
        }
        let alerts = d.slos.evaluate(&d.timeseries);
        for ev in alerts {
            match ev.name {
                "fire" => d.registry.counter_add("slo.alerts_fired", 1),
                _ => d.registry.counter_add("slo.alerts_resolved", 1),
            }
            if d.enabled(ev.level, ev.component) {
                d.dispatch(&ev);
            }
        }
    });
}

/// Runs `f` against the installed registry, returning `None` without a
/// dispatcher. Used by report renderers to snapshot metrics.
pub fn with_registry<R>(f: impl FnOnce(&Registry) -> R) -> Option<R> {
    with_installed(|d| f(&d.registry))
}

/// Runs `f` against the installed windowed time-series, returning
/// `None` without a dispatcher. Used by timeline renderers.
pub fn with_timeseries<R>(f: impl FnOnce(&TimeSeries) -> R) -> Option<R> {
    with_installed(|d| f(&d.timeseries))
}

/// Runs `f` against the installed SLO engine, returning `None` without
/// a dispatcher. Used by verdict-table renderers.
pub fn with_slo_engine<R>(f: impl FnOnce(&SloEngine) -> R) -> Option<R> {
    with_installed(|d| f(&d.slos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;

    fn info(t: u64, component: &'static str) -> Event {
        Event::new(t, Level::Info, component, "t", "e")
    }

    #[test]
    fn event_builds_its_fields_only_when_it_will_be_recorded() {
        let built = Cell::new(0);
        let build = |ev: Event| {
            built.set(built.get() + 1);
            ev.field("k", 1u64)
        };
        event(1, Level::Error, "gfw", "t", "e", build); // no dispatcher
        let ring = RingSink::with_capacity(8);
        let handle = ring.handle();
        let guard = Dispatcher::new().with_level(Level::Info).with_sink(Box::new(ring)).install();
        event(2, Level::Debug, "gfw", "t", "e", build); // filtered by level
        assert_eq!(built.get(), 0, "a filtered event must not be built");
        event(3, Level::Info, "gfw", "t", "e", build);
        assert_eq!(built.get(), 1);
        let fields = || {
            built.set(built.get() + 1);
            Vec::new()
        };
        assert_eq!(span_start_ctx(4, Level::Debug, "gfw", "t", "s", crate::TraceCtx::NONE, fields), SpanId::NONE);
        span_end(5, SpanId::NONE, fields);
        span_end(5, SpanId(77), fields);
        assert_eq!(built.get(), 1, "a span that is not recorded must not build its fields");
        drop(guard);
        assert_eq!(handle.count_named("gfw", "e"), 1);
        assert_eq!(handle.events()[0].get_u64("k"), Some(1));
    }

    #[test]
    fn no_dispatcher_means_noop() {
        assert!(!is_active());
        assert!(!is_enabled(Level::Error, "simnet"));
        emit(info(1, "simnet")); // must not panic
        counter_add("x", 1);
        let id = span_start(0, Level::Info, "simnet", "t", "s", Vec::new);
        assert!(id.is_none());
        span_end(5, id, Vec::new);
    }

    #[test]
    fn level_filtering_per_component() {
        let ring = RingSink::with_capacity(64);
        let h = ring.handle();
        let guard = Dispatcher::new()
            .with_level(Level::Info)
            .with_component_level("gfw", Level::Trace)
            .with_sink(Box::new(ring))
            .install();
        emit(Event::new(1, Level::Trace, "simnet", "t", "a")); // filtered
        emit(Event::new(2, Level::Trace, "gfw", "t", "b")); // kept (override)
        emit(Event::new(3, Level::Info, "simnet", "t", "c")); // kept
        assert!(is_enabled(Level::Trace, "gfw"));
        assert!(!is_enabled(Level::Trace, "simnet"));
        drop(guard);
        assert_eq!(h.len(), 2);
        assert_eq!(h.events()[0].name, "b");
        assert_eq!(h.events()[1].name, "c");
    }

    #[test]
    fn spans_carry_duration_and_sequential_ids() {
        let ring = RingSink::with_capacity(64);
        let h = ring.handle();
        let guard = Dispatcher::new().with_sink(Box::new(ring)).install();
        let a = span_start(100, Level::Info, "web", "load", "page", Vec::new);
        let b = span_start(150, Level::Info, "web", "load", "dns", Vec::new);
        span_end(250, b, Vec::new);
        span_end(400, a, || vec![("ok", crate::event::Value::Bool(true))]);
        drop(guard);
        let evs = h.events();
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
        let end_b = &evs[2];
        assert_eq!(end_b.name, "span_end");
        assert_eq!(end_b.get_u64("dur_us"), Some(100));
        let end_a = &evs[3];
        assert_eq!(end_a.get_u64("dur_us"), Some(300));
        assert_eq!(end_a.get("ok"), Some(&crate::event::Value::Bool(true)));
        assert_eq!(end_a.get_str("span_name"), Some("page"));
    }

    #[test]
    fn guards_nest_and_restore() {
        let outer_ring = RingSink::with_capacity(8);
        let oh = outer_ring.handle();
        let outer = Dispatcher::new().with_sink(Box::new(outer_ring)).install();
        emit(info(1, "a"));
        {
            let inner_ring = RingSink::with_capacity(8);
            let ih = inner_ring.handle();
            let inner = Dispatcher::new().with_sink(Box::new(inner_ring)).install();
            emit(info(2, "b"));
            drop(inner);
            assert_eq!(ih.len(), 1);
        }
        emit(info(3, "c"));
        drop(outer);
        assert_eq!(oh.len(), 2);
        assert!(!is_active());
    }

    #[test]
    fn tick_drives_windows_and_slo_alerts_through_sinks() {
        use crate::slo::SloSpec;
        use crate::timeseries::WindowSpec;

        let ring = RingSink::with_capacity(64);
        let h = ring.handle();
        let mut spec = SloSpec::quantile("plt", "web.plt_us", 0.95, 1_000);
        spec.eval_windows = 1;
        spec.budget = 0.5;
        let guard = Dispatcher::new()
            .with_windows(WindowSpec::new(1_000_000, 32))
            .with_slo(spec)
            .with_sink(Box::new(ring))
            .install();

        ts_record(100, "web.plt_us", 50_000); // bad window 0
        tick(500_000); // window still open: nothing closes
        assert_eq!(h.len(), 0);
        tick(1_200_000); // window 0 closes → burn 2.0 → fire
        tick(2_200_000); // window 1 empty → burn 0 → resolve

        let d = guard.uninstall();
        let evs = h.events();
        let names: Vec<&str> = evs.iter().map(|e| e.name).collect();
        assert_eq!(names, ["fire", "resolve"], "{evs:?}");
        assert_eq!(evs[0].component, "slo");
        assert_eq!(evs[0].get_str("slo"), Some("plt"));
        assert_eq!(d.registry().counter("slo.alerts_fired"), 1);
        assert_eq!(d.registry().counter("slo.alerts_resolved"), 1);
        assert_eq!(d.timeseries().window("web.plt_us", 0).unwrap().count(), 1);
        assert!(d.slo_engine().any_fired());
    }

    #[test]
    fn no_sink_disables_emission_but_not_metrics() {
        let guard = Dispatcher::new().with_level(Level::Trace).install();
        assert!(is_active());
        // Emission is pure cost with nothing attached to record it: the
        // enablement guard reports false so call sites skip label
        // formatting, and spans short-circuit to NONE.
        assert!(!is_enabled(Level::Error, "simnet"));
        emit(info(1, "simnet"));
        let id = span_start(0, Level::Info, "web", "load", "page", Vec::new);
        assert!(id.is_none());
        span_end(10, id, Vec::new);
        // The registry and time-series still accumulate: they are
        // readable without a sink.
        counter_add("pkts", 3);
        ts_bump(100, "pkts", 1);
        let d = guard.uninstall();
        assert_eq!(d.registry().counter("pkts"), 3);
    }

    #[test]
    fn uninstall_restores_previous_dispatcher() {
        let outer_ring = RingSink::with_capacity(8);
        let oh = outer_ring.handle();
        let outer = Dispatcher::new().with_sink(Box::new(outer_ring)).install();
        let inner = Dispatcher::new().with_sink(Box::new(RingSink::with_capacity(8))).install();
        counter_add("inner", 1);
        let d = inner.uninstall();
        assert_eq!(d.registry().counter("inner"), 1);
        // The outer dispatcher must be back in the slot and functional.
        assert!(is_active());
        emit(info(5, "a"));
        drop(outer);
        assert_eq!(oh.len(), 1);
        assert!(!is_active());
    }

    #[test]
    fn ts_free_functions_are_noops_without_dispatcher() {
        assert!(!is_active());
        ts_record(0, "x", 1);
        ts_bump(0, "y", 1);
        tick(1_000_000); // must not panic
        assert!(with_timeseries(|_| ()).is_none());
        assert!(with_slo_engine(|_| ()).is_none());
    }

    #[test]
    fn registry_is_reachable_through_free_functions() {
        let guard = Dispatcher::new().install();
        counter_add("pkts", 2);
        counter_add("pkts", 3);
        observe("lat", 100);
        let reg = guard.registry();
        assert_eq!(reg.counter("pkts"), 5);
        assert_eq!(reg.histogram("lat").unwrap().count(), 1);
        let final_reg = guard.uninstall().into_registry();
        assert_eq!(final_reg.counter("pkts"), 5);
    }
}
