//! The dispatcher: writes events to its sink and hosts the shared
//! [`Registry`].
//!
//! Instrumented code never threads an observability handle through its
//! call graph — deep layers like `sc-simnet`'s TCP engine have no
//! context parameter to hang one on. Instead a [`Dispatcher`] is
//! **installed into a thread-local slot** for the duration of a run
//! (RAII [`ObsGuard`]), and instrumentation calls the free functions
//! ([`event`], [`counter_add`], [`span_start`], …), which are no-ops
//! when nothing is installed. The simulator is single-threaded and
//! tests run one scenario per thread, so thread-locality also keeps
//! parallel test binaries from interleaving traces — a prerequisite for
//! the byte-identical determinism guarantee.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use crate::event::{Event, Level, SpanId, Value};
use crate::metrics::Registry;
use crate::sink::JsonlSink;
use crate::slo::{SloEngine, SloSpec};
use crate::timeseries::{SeriesKind, TimeSeries, WindowSpec};

thread_local! {
    static CURRENT: RefCell<Option<Dispatcher>> = const { RefCell::new(None) };
    /// Mirror of `CURRENT.is_some()`, readable without touching the
    /// `RefCell`: the early-out every free function takes first, so
    /// un-instrumented runs pay one `Cell` read and a branch.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Writes the events at or above one level to its sink, and owns the
/// run's metrics [`Registry`].
pub struct Dispatcher {
    sink: Option<JsonlSink>,
    level: Level,
    registry: Registry,
    timeseries: TimeSeries,
    slos: SloEngine,
    /// The slots of the names call sites have passed.
    names: NameTable,
    /// Every `(component, target, name)` a span was opened with, so an
    /// open span remembers an index rather than three strings.
    span_sites: Vec<SpanSite>,
    /// The field vector every event, span start and span end is built
    /// in, handed back empty after the sink has written it.
    fields: Vec<(&'static str, Value)>,
    next_span: u64,
    open_spans: OpenSpans,
}

/// Which of a name's slots a [`NameTable`] entry holds.
#[derive(Clone, Copy)]
enum SlotKind {
    Counter,
    Histogram,
    Series,
}

/// The dispatcher's name → slot cache for the `&'static str` names
/// call sites pass, keyed by the string's address and length: open
/// addressing with linear probing, grown at three quarters full, and no
/// allocation until the first name. A literal the linker duplicated has
/// two addresses; both resolve through the name and get the same slot.
#[derive(Default)]
struct NameTable {
    entries: Vec<NameEntry>,
    used: usize,
}

#[derive(Clone, Copy)]
struct NameEntry {
    /// Address of the name; 0 marks a free entry (a `&str` is never null).
    ptr: usize,
    len: u16,
    /// Slot per [`SlotKind`], [`NO_SLOT`] until that kind is resolved.
    slots: [u16; 3],
}

const NO_SLOT: u16 = u16::MAX;
const FREE: NameEntry = NameEntry { ptr: 0, len: 0, slots: [NO_SLOT; 3] };

impl NameTable {
    /// The `kind` slot of `name`, asking `resolve` for it the first time.
    fn slot(&mut self, name: &'static str, kind: SlotKind, resolve: impl FnOnce() -> usize) -> usize {
        let len = u16::try_from(name.len()).expect("a metric name is shorter than 64 KiB");
        let ptr = name.as_ptr() as usize;
        let mut i = self.find(ptr, len);
        if self.entries.get(i).is_none_or(|e| e.ptr == 0) {
            if 4 * (self.used + 1) > 3 * self.entries.len() {
                self.grow();
                i = self.find(ptr, len);
            }
            self.entries[i] = NameEntry { ptr, len, ..FREE };
            self.used += 1;
        }
        let slot = &mut self.entries[i].slots[kind as usize];
        if *slot == NO_SLOT {
            *slot = u16::try_from(resolve())
                .ok()
                .filter(|&s| s != NO_SLOT)
                .expect("fewer than 65 535 names of a kind");
        }
        usize::from(*slot)
    }

    /// The entry holding `(ptr, len)`, or the free one where it goes
    /// (0 for the empty table).
    fn find(&self, ptr: usize, len: u16) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        let mask = self.entries.len() - 1;
        let hash = ((ptr as u64) ^ u64::from(len)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut i = (hash >> 32) as usize & mask;
        loop {
            let e = &self.entries[i];
            if e.ptr == 0 || (e.ptr == ptr && e.len == len) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = (2 * self.entries.len()).max(16);
        let old = std::mem::replace(&mut self.entries, vec![FREE; cap]);
        for e in old.into_iter().filter(|e| e.ptr != 0) {
            let i = self.find(e.ptr, e.len);
            self.entries[i] = e;
        }
    }
}

/// Open spans beyond which the oldest is dropped (and counted in
/// `obs.spans_evicted`): a span that is never closed must not cost
/// memory for the rest of the run.
const MAX_OPEN_SPANS: usize = 1 << 16;

/// Where a span was opened: what its `span_end` event repeats.
#[derive(Clone, Copy, PartialEq)]
struct SpanSite {
    component: &'static str,
    target: &'static str,
    name: &'static str,
}

/// An open span: when it started, and where ([`Dispatcher::span_sites`]).
#[derive(Clone, Copy)]
struct SpanStart {
    t_us: u64,
    site: u32,
}

impl SpanStart {
    /// A window slot whose span has closed.
    const CLOSED: SpanStart = SpanStart { t_us: 0, site: u32::MAX };

    fn is_open(self) -> bool {
        self.site != u32::MAX
    }
}

/// The open spans, by id. Ids are handed out in order, so recent spans
/// sit in a window of slots indexed by `id - base`; a span still open
/// when the window has become mostly closed slots moves to `pinned`
/// (ascending ids), so one long-lived span does not hold every later
/// slot. Memory follows the number of open spans, not the run's length.
struct OpenSpans {
    base: u64,
    window: VecDeque<SpanStart>,
    /// Open spans in `window`.
    in_window: usize,
    pinned: Vec<(u64, SpanStart)>,
    cap: usize,
}

impl Default for OpenSpans {
    fn default() -> OpenSpans {
        OpenSpans { base: 0, window: VecDeque::new(), in_window: 0, pinned: Vec::new(), cap: MAX_OPEN_SPANS }
    }
}

impl OpenSpans {
    /// Remembers span `id`, the newest yet; returns how many of the
    /// oldest open spans the cap dropped to make room.
    fn insert(&mut self, id: u64, start: SpanStart) -> u64 {
        if self.window.is_empty() {
            self.base = id;
        }
        debug_assert_eq!(id, self.base + self.window.len() as u64, "span ids are handed out in order");
        self.window.push_back(start);
        self.in_window += 1;
        self.compact();
        let mut evicted = 0;
        while self.in_window + self.pinned.len() > self.cap {
            if self.pinned.is_empty() {
                // `compact` leaves an open span at the front.
                self.window[0] = SpanStart::CLOSED;
                self.in_window -= 1;
                self.compact();
            } else {
                self.pinned.remove(0);
            }
            evicted += 1;
        }
        evicted
    }

    /// Forgets span `id`, returning its start if it was open.
    fn remove(&mut self, id: u64) -> Option<SpanStart> {
        if id < self.base {
            let i = self.pinned.binary_search_by_key(&id, |&(pinned, _)| pinned).ok()?;
            return Some(self.pinned.remove(i).1);
        }
        let slot = self.window.get_mut((id - self.base) as usize)?;
        let start = std::mem::replace(slot, SpanStart::CLOSED);
        if !start.is_open() {
            return None;
        }
        self.in_window -= 1;
        self.compact();
        Some(start)
    }

    /// Drops closed slots off the window's front, pinning an open span
    /// there while the window holds more than twice as many slots as
    /// open spans (plus slack).
    fn compact(&mut self) {
        while let Some(&front) = self.window.front() {
            if front.is_open() {
                if self.window.len() <= 2 * self.in_window + 16 {
                    return;
                }
                self.pinned.push((self.base, front));
                self.in_window -= 1;
            }
            self.window.pop_front();
            self.base += 1;
        }
    }
}

impl Default for Dispatcher {
    fn default() -> Dispatcher {
        Dispatcher::new()
    }
}

impl Dispatcher {
    /// Creates a dispatcher accepting `Info` and above with no sink.
    pub fn new() -> Dispatcher {
        Dispatcher {
            sink: None,
            level: Level::Info,
            registry: Registry::new(),
            timeseries: TimeSeries::default(),
            slos: SloEngine::default(),
            names: NameTable::default(),
            span_sites: Vec::new(),
            fields: Vec::new(),
            next_span: 0,
            open_spans: OpenSpans::default(),
        }
    }

    /// Sets the minimum level an event needs to be written.
    pub fn with_level(mut self, level: Level) -> Dispatcher {
        self.level = level;
        self
    }

    /// Attaches the sink every accepted event is written to; a second
    /// call replaces the first sink.
    // Boxed because `benchmark/`, a workspace of its own that must
    // build against this crate unchanged, passes `Box::new(JsonlSink::new(..))`.
    #[allow(clippy::boxed_local)]
    pub fn with_sink(mut self, sink: Box<JsonlSink>) -> Dispatcher {
        self.sink = Some(*sink);
        self
    }

    /// Replaces the windowed time-series store with one of the given
    /// geometry (the default is 1-second windows, 512 kept per series).
    pub fn with_windows(mut self, spec: WindowSpec) -> Dispatcher {
        self.timeseries = TimeSeries::new(spec);
        self
    }

    /// Adds SLOs; their alerts are evaluated as windows close (see
    /// [`tick`]) and written to the sink like any other event.
    pub fn with_slos(mut self, specs: Vec<SloSpec>) -> Dispatcher {
        for spec in specs {
            self.slos.push(spec);
        }
        self
    }

    /// Installs this dispatcher into the thread-local slot, returning a
    /// guard that uninstalls it (and flushes its sink) on drop. The
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

    /// Whether an event at `level` would reach the sink. With no sink
    /// attached nothing can observe an event, so emission is disabled
    /// outright — the zero-cost guard hot paths rely on to skip label
    /// formatting and field-vector allocation entirely.
    fn enabled(&self, level: Level) -> bool {
        self.sink.is_some() && level >= self.level
    }

    fn dispatch(&mut self, ev: &Event) {
        if let Some(sink) = &mut self.sink {
            sink.record(ev);
        }
    }

    fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }

    /// An event to build, in the recycled field vector.
    fn start_event(
        &mut self,
        t_us: u64,
        level: Level,
        component: &'static str,
        target: &'static str,
        name: &'static str,
    ) -> Event {
        let mut ev = Event::new(t_us, level, component, target, name);
        ev.fields = std::mem::take(&mut self.fields);
        ev
    }

    /// Dispatches `ev` and keeps its field vector for the next event
    /// (the larger one, when a builder emitted while holding this one).
    fn finish_event(&mut self, ev: Event) {
        self.dispatch(&ev);
        let mut fields = ev.fields;
        if fields.capacity() >= self.fields.capacity() {
            fields.clear();
            self.fields = fields;
        }
    }

    fn counter_add(&mut self, name: &'static str, by: u64) {
        let slot = self.names.slot(name, SlotKind::Counter, || self.registry.counter_slot(name));
        self.registry.counter_add_at(slot, by);
    }

    fn observe(&mut self, name: &'static str, v: u64) {
        let slot = self.names.slot(name, SlotKind::Histogram, || self.registry.histogram_slot(name));
        self.registry.observe_at(slot, v);
    }

    fn series_slot(&mut self, name: &'static str, kind: SeriesKind) -> usize {
        self.names.slot(name, SlotKind::Series, || self.timeseries.series_slot(name, kind))
    }

    /// The index of `site` in `span_sites`, added when new: a scan of
    /// the dozen or so places spans are opened from.
    fn span_site(&mut self, site: SpanSite) -> u32 {
        let sites = &mut self.span_sites;
        let index = sites.iter().position(|s| *s == site).unwrap_or_else(|| {
            sites.push(site);
            sites.len() - 1
        });
        index as u32
    }

    /// Allocates the next span id, remembers the start and dispatches
    /// the `span_start` event (the caller has checked the level).
    fn open_span(
        &mut self,
        t_us: u64,
        site: SpanSite,
        level: Level,
        ctx: crate::context::TraceCtx,
        fields: SpanFields,
    ) -> SpanId {
        self.next_span += 1;
        let id = self.next_span;
        let mut ev = self
            .start_event(t_us, level, site.component, site.target, "span_start")
            .in_span(SpanId(id));
        ev.fields.push(("span_name", Value::Str(site.name)));
        let start = SpanStart { t_us, site: self.span_site(site) };
        let evicted = self.open_spans.insert(id, start);
        if evicted > 0 {
            self.counter_add("obs.spans_evicted", evicted);
        }
        if !ctx.trace.is_none() {
            ev.fields.push(("trace_id", Value::U64(ctx.trace.0)));
        }
        if !ctx.parent.is_none() {
            ev.fields.push(("parent", Value::U64(ctx.parent.0)));
        }
        ev.fields.extend(fields);
        self.finish_event(ev);
        SpanId(id)
    }
}

/// RAII guard from [`Dispatcher::install`]; dropping it flushes the
/// sink and restores the previously installed dispatcher.
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
        d.flush();
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
                d.flush();
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

/// Whether an event at `level` would be written. Always `false` when no
/// dispatcher is installed **or the installed one has no sink** —
/// emission is pure cost if nothing can record it.
fn is_enabled(level: Level) -> bool {
    with_installed(|d| d.enabled(level)).unwrap_or(false)
}

/// Whether any dispatcher is installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Emits one event, building it only if it will be recorded: `build`
/// receives the bare event and attaches the fields, and runs only after
/// the level filter has accepted `level` — a filtered event costs
/// neither its `String`s nor its field vector, and each site names its
/// level and component once.
pub fn event(
    t_us: u64,
    level: Level,
    component: &'static str,
    target: &'static str,
    name: &'static str,
    build: impl FnOnce(Event) -> Event,
) {
    let Some(ev) = with_installed(|d| {
        d.enabled(level).then(|| d.start_event(t_us, level, component, target, name))
    })
    .flatten() else {
        return;
    };
    // Built outside the dispatcher borrow, so `build` may itself read
    // the registry or emit.
    let ev = build(ev);
    with_installed(|d| d.finish_event(ev));
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
    if !is_enabled(level) {
        return SpanId::NONE;
    }
    let fields = fields();
    with_installed(|d| d.open_span(t_us, SpanSite { component, target, name }, level, ctx, fields))
        .unwrap_or(SpanId::NONE)
}

/// Closes a span opened by [`span_start`], emitting a `span_end` event
/// carrying the span's simulated duration in `dur_us`; `fields` runs
/// only if the span was recorded in the first place.
pub fn span_end(t_us: u64, span: SpanId, fields: impl FnOnce() -> SpanFields) {
    if span.is_none() {
        return;
    }
    let Some(start) = with_installed(|d| d.open_spans.remove(span.0)).flatten() else {
        return;
    };
    let fields = fields();
    with_installed(|d| {
        let site = d.span_sites[start.site as usize];
        let mut ev = d
            .start_event(t_us, Level::Info, site.component, site.target, "span_end")
            .in_span(span);
        ev.fields.push(("span_name", Value::Str(site.name)));
        ev.fields.push(("dur_us", Value::U64(t_us.saturating_sub(start.t_us))));
        ev.fields.extend(fields);
        d.finish_event(ev);
    });
}

// The metric writers take the name as a `&'static str`: the installed
// dispatcher resolves it to a slot once, by its address, and every
// later call is an indexed write.

/// Adds to a named counter in the installed registry (no-op without a
/// dispatcher).
pub fn counter_add(name: &'static str, by: u64) {
    with_installed(|d| d.counter_add(name, by));
}

/// Records a histogram sample in the installed registry.
pub fn observe(name: &'static str, v: u64) {
    with_installed(|d| d.observe(name, v));
}

/// Records a sample into the named windowed time-series at simulation
/// time `t_us` (no-op without a dispatcher). Pairs with [`observe`]:
/// `observe` feeds the run-wide histogram, `ts_record` the per-window
/// one.
pub fn ts_record(t_us: u64, name: &'static str, v: u64) {
    ts_record_ex(t_us, name, v, crate::context::TraceId::NONE);
}

/// Like [`ts_record`], but additionally tags the sample with the trace
/// id of the request it came from, so the window keeps it as an
/// **exemplar** candidate (bounded worst-K per window) that fired SLO
/// alerts can link to as evidence.
pub fn ts_record_ex(t_us: u64, name: &'static str, v: u64, trace: crate::context::TraceId) {
    with_installed(|d| {
        let slot = d.series_slot(name, SeriesKind::Sample);
        d.timeseries.record_at(slot, t_us, v, trace.0);
    });
}

/// Adds a counter-style increment to the named windowed time-series at
/// simulation time `t_us` (no-op without a dispatcher).
pub fn ts_bump(t_us: u64, name: &'static str, by: u64) {
    ts_bump_ex(t_us, name, by, crate::context::TraceId::NONE);
}

/// Like [`ts_bump`], but tags the increment with the trace id of the
/// contributing request (exemplar candidate for rate-based SLOs, e.g.
/// availability alerts linking to the failed loads that burned budget).
pub fn ts_bump_ex(t_us: u64, name: &'static str, by: u64, trace: crate::context::TraceId) {
    with_installed(|d| {
        let slot = d.series_slot(name, SeriesKind::Rate);
        d.timeseries.bump_at(slot, t_us, by, trace.0);
    });
}

/// Advances the observability clock to simulation time `t_us`. The
/// simulator calls this as its clock moves; every time-series window
/// that closes is evaluated against the configured SLOs, and resulting
/// burn-rate alerts are written to the sink like any other event
/// (component `slo`, target `alert`, names `fire`/`resolve`).
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
                "fire" => d.counter_add("slo.alerts_fired", 1),
                _ => d.counter_add("slo.alerts_resolved", 1),
            }
            if d.enabled(ev.level) {
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
    use std::collections::BTreeMap;

    use super::*;
    use crate::analyze::{Json, TraceEvent};
    use crate::sink::capture::Captured;

    /// An event with no fields.
    fn bare(t: u64, level: Level, name: &'static str) {
        event(t, level, "web", "t", name, |ev| ev);
    }

    fn names(events: &[TraceEvent<'_>]) -> Vec<String> {
        events.iter().map(|e| e.name.to_string()).collect()
    }

    #[test]
    fn event_builds_its_fields_only_when_it_will_be_recorded() {
        let built = Cell::new(0);
        let build = |ev: Event| {
            built.set(built.get() + 1);
            ev.field("k", 1u64)
        };
        event(1, Level::Error, "gfw", "t", "e", build); // no dispatcher
        let out = Captured::default();
        let guard = Dispatcher::new().with_level(Level::Info).with_sink(out.sink()).install();
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
        let evs = out.events();
        assert_eq!(evs.len(), 1);
        assert_eq!((&*evs[0].component, &*evs[0].name, evs[0].get_u64("k")), ("gfw", "e", Some(1)));
    }

    #[test]
    fn no_dispatcher_means_noop() {
        assert!(!is_active());
        assert!(!is_enabled(Level::Error));
        bare(1, Level::Error, "e"); // must not panic
        counter_add("x", 1);
        let id = span_start(0, Level::Info, "simnet", "t", "s", Vec::new);
        assert!(id.is_none());
        span_end(5, id, Vec::new);
    }

    #[test]
    fn events_below_the_level_are_filtered() {
        let out = Captured::default();
        let guard = Dispatcher::new().with_level(Level::Info).with_sink(out.sink()).install();
        bare(1, Level::Debug, "a"); // filtered
        bare(2, Level::Info, "b"); // kept
        bare(3, Level::Warn, "c"); // kept
        assert!(is_enabled(Level::Info));
        assert!(!is_enabled(Level::Trace));
        drop(guard);
        assert_eq!(names(&out.events()), ["b", "c"]);
    }

    #[test]
    fn spans_carry_duration_and_sequential_ids() {
        let out = Captured::default();
        let guard = Dispatcher::new().with_sink(out.sink()).install();
        let a = span_start(100, Level::Info, "web", "load", "page", Vec::new);
        let b = span_start(150, Level::Info, "web", "load", "dns", Vec::new);
        span_end(250, b, Vec::new);
        span_end(400, a, || vec![("ok", Value::Bool(true))]);
        drop(guard);
        let evs = out.events();
        assert_eq!(a, SpanId(1));
        assert_eq!(b, SpanId(2));
        let end_b = &evs[2];
        assert_eq!(end_b.name, "span_end");
        assert_eq!(end_b.get_u64("dur_us"), Some(100));
        let end_a = &evs[3];
        assert_eq!(end_a.get_u64("dur_us"), Some(300));
        assert_eq!(end_a.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(end_a.get_str("span_name"), Some("page"));
    }

    #[test]
    fn guards_nest_and_restore() {
        let (outer_out, inner_out) = (Captured::default(), Captured::default());
        let outer = Dispatcher::new().with_sink(outer_out.sink()).install();
        bare(1, Level::Info, "a");
        {
            let inner = Dispatcher::new().with_sink(inner_out.sink()).install();
            bare(2, Level::Info, "b");
            drop(inner);
            assert_eq!(names(&inner_out.events()), ["b"]);
        }
        bare(3, Level::Info, "c");
        drop(outer);
        assert_eq!(names(&outer_out.events()), ["a", "c"]);
        assert!(!is_active());
    }

    #[test]
    fn tick_drives_windows_and_slo_alerts_through_sinks() {
        use crate::slo::SloSpec;
        use crate::timeseries::WindowSpec;

        let out = Captured::default();
        let mut spec = SloSpec::quantile("plt", "web.plt_us", 0.95, 1_000);
        spec.eval_windows = 1;
        spec.budget = 0.5;
        let guard = Dispatcher::new()
            .with_windows(WindowSpec::new(1_000_000, 32))
            .with_slos(vec![spec])
            .with_sink(out.sink())
            .install();

        ts_record(100, "web.plt_us", 50_000); // bad window 0
        tick(500_000); // window still open: nothing closes
        assert!(out.events().is_empty());
        tick(1_200_000); // window 0 closes → burn 2.0 → fire
        tick(2_200_000); // window 1 empty → burn 0 → resolve

        let d = guard.uninstall();
        let evs = out.events();
        assert_eq!(names(&evs), ["fire", "resolve"], "{evs:?}");
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
        assert!(!is_enabled(Level::Error));
        bare(1, Level::Error, "e");
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
        let outer_out = Captured::default();
        let outer = Dispatcher::new().with_sink(outer_out.sink()).install();
        let inner = Dispatcher::new().with_sink(Captured::default().sink()).install();
        counter_add("inner", 1);
        let d = inner.uninstall();
        assert_eq!(d.registry().counter("inner"), 1);
        // The outer dispatcher must be back in the slot and functional.
        assert!(is_active());
        bare(5, Level::Info, "a");
        drop(outer);
        assert_eq!(names(&outer_out.events()), ["a"]);
        assert!(!is_active());
    }

    #[test]
    fn a_trace_file_holds_every_line_after_drop_and_after_uninstall() {
        let path = std::env::temp_dir().join(format!("sc_obs_flush_{}.jsonl", std::process::id()));
        let path = path.to_str().expect("a UTF-8 temp path");
        let lines_in_file = || {
            let text = std::fs::read_to_string(path).expect("the trace file");
            crate::analyze::parse_trace(&text).expect("the trace parses").len()
        };
        // Enough lines that the file's buffer has a partial block left
        // when the run ends.
        for uninstall in [false, true] {
            let sink = JsonlSink::create(path).expect("a trace file");
            let guard = Dispatcher::new().with_sink(Box::new(sink)).install();
            for t in 0..1_000u64 {
                event(t, Level::Info, "web", "t", "e", |ev| ev.field("t", t));
            }
            if uninstall {
                let d = guard.uninstall();
                assert_eq!(lines_in_file(), 1_000, "uninstall flushes while the dispatcher lives");
                drop(d);
            } else {
                drop(guard);
                assert_eq!(lines_in_file(), 1_000, "dropping the guard flushes");
            }
        }
        std::fs::remove_file(path).expect("remove the trace file");
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
    fn a_builder_that_emits_yields_both_lines_in_order() {
        let out = Captured::default();
        let guard = Dispatcher::new().with_sink(out.sink()).install();
        event(1, Level::Info, "web", "t", "outer", |ev| {
            event(2, Level::Info, "web", "t", "inner", |ev| ev.field("depth", 2u64));
            ev.field("depth", 1u64).field("note", "built around an emit")
        });
        event(3, Level::Info, "web", "t", "next", |ev| ev);
        drop(guard);
        let evs = out.events();
        assert_eq!(names(&evs), ["inner", "outer", "next"]);
        assert_eq!(evs[0].fields.len(), 1);
        assert_eq!(evs[1].get_u64("depth"), Some(1));
        assert_eq!(evs[1].fields.len(), 2);
        assert!(evs[2].fields.is_empty(), "a recycled vector comes back empty");
    }

    #[test]
    fn a_name_at_two_addresses_is_one_metric() {
        let copy: &'static str = Box::leak(String::from("web.loads_ok").into_boxed_str());
        assert_ne!(copy.as_ptr(), "web.loads_ok".as_ptr());
        let guard = Dispatcher::new().with_windows(WindowSpec::new(1_000, 8)).install();
        counter_add("web.loads_ok", 1);
        counter_add(copy, 2);
        ts_bump(10, "web.loads_ok", 1);
        ts_bump(20, copy, 4);
        ts_record(30, copy, 7); // a rate series: the sample is dropped
        observe("web.plt_us", 5);
        observe(&copy[..4], 6);
        let d = guard.uninstall();
        let mut reg = d.registry().clone();
        reg.counter_add(&["web", "loads_ok"].join("."), 4);
        assert_eq!(reg.counter("web.loads_ok"), 7);
        assert_eq!(reg.counters().count(), 1);
        let hist: Vec<(&str, u64)> = reg.histograms().map(|(n, h)| (n, h.count())).collect();
        assert_eq!(hist, [("web.", 1), ("web.plt_us", 1)]);
        let ts = d.timeseries();
        assert_eq!(ts.names().collect::<Vec<_>>(), ["web.loads_ok"]);
        assert_eq!(ts.window("web.loads_ok", 0).map(|w| (w.count(), w.total())), Some((2, 5)));
    }

    #[test]
    fn the_name_table_grows_and_keeps_every_slot() {
        let mut table = NameTable::default();
        assert_eq!(table.entries.capacity(), 0, "nothing is allocated before the first name");
        let names: Vec<&'static str> =
            (0..200).map(|i| &*Box::leak(format!("n{i}").into_boxed_str())).collect();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(table.slot(name, SlotKind::Counter, || i), i);
        }
        assert_eq!(table.entries.len(), 512);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(table.slot(name, SlotKind::Counter, || unreachable!()), i);
            assert_eq!(table.slot(name, SlotKind::Series, || 1000 + i), 1000 + i);
        }
    }


    #[test]
    fn a_long_lived_span_survives_the_window_and_sites_are_told_apart() {
        let out = Captured::default();
        let guard = Dispatcher::new().with_sink(out.sink()).install();
        let root = span_start(0, Level::Info, "metrics", "run", "scenario", Vec::new);
        let mut open = Vec::new();
        for t in 1..=1000u64 {
            // The same name from two components: the end must name the
            // component the span was opened in.
            let component = if t % 2 == 0 { "web" } else { "scholarcloud" };
            open.push(span_start(t, Level::Info, component, "load", "fetch", Vec::new));
            if open.len() > 3 {
                let id = open.remove(t as usize % 3);
                span_end(t, id, Vec::new);
            }
        }
        span_end(2000, root, || vec![("ok", Value::Bool(true))]);
        for id in open {
            span_end(2001, id, Vec::new);
        }
        let d = guard.uninstall();
        assert_eq!(d.open_spans.in_window + d.open_spans.pinned.len(), 0);
        assert!(d.open_spans.window.capacity() < 64, "the window stayed short");
        let evs = out.events();
        let starts: BTreeMap<Option<u64>, &TraceEvent<'_>> =
            evs.iter().filter(|e| e.name == "span_start").map(|e| (e.span, e)).collect();
        let ends: Vec<&TraceEvent<'_>> = evs.iter().filter(|e| e.name == "span_end").collect();
        assert_eq!(ends.len(), starts.len());
        for end in ends {
            let start = starts[&end.span];
            assert_eq!((&end.component, &end.target), (&start.component, &start.target));
            assert_eq!(end.get_str("span_name"), start.get_str("span_name"));
            assert_eq!(end.get_u64("dur_us"), Some(end.t_us - start.t_us));
        }
        let root_end = evs.iter().find(|e| e.name == "span_end" && e.span == Some(root.0)).unwrap();
        assert_eq!((&*root_end.component, root_end.get_u64("dur_us")), ("metrics", Some(2000)));
        assert_eq!(d.registry().counter("obs.spans_evicted"), 0);
        assert_eq!(d.registry().counters().count(), 0, "no eviction, no counter");
    }

    #[test]
    fn the_open_span_cap_drops_the_oldest_and_counts_it() {
        let out = Captured::default();
        let guard = Dispatcher::new().with_sink(out.sink()).install();
        CURRENT.with(|c| c.borrow_mut().as_mut().unwrap().open_spans.cap = 3);
        let ids: Vec<SpanId> =
            (0..5).map(|t| span_start(t, Level::Info, "web", "load", "leak", Vec::new)).collect();
        for (t, &id) in ids.iter().enumerate() {
            span_end(10 + t as u64, id, Vec::new);
        }
        let d = guard.uninstall();
        assert_eq!(d.registry().counter("obs.spans_evicted"), 2);
        let ended: Vec<Option<u64>> =
            out.events().iter().filter(|e| e.name == "span_end").map(|e| e.span).collect();
        assert_eq!(ended, [Some(3), Some(4), Some(5)], "the two oldest were dropped; their ends are ignored");
        assert_eq!(d.open_spans.in_window + d.open_spans.pinned.len(), 0);
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
