//! The dispatcher: writes events to its sink and hosts the run's
//! counter [`Registry`], windowed time-series and SLO engine.
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

use crate::event::{Level, SpanId};
use crate::metrics::Registry;
use crate::sink::{push_head, push_labels, push_quoted, push_u64, Fields, JsonlSink};
use crate::slo::{Alert, SloEngine, SloSpec};
use crate::timeseries::{SeriesKind, TimeSeries, WindowSpec};

thread_local! {
    static CURRENT: RefCell<Option<Dispatcher>> = const { RefCell::new(None) };
    /// Mirror of `CURRENT.is_some()`, readable without touching the
    /// `RefCell`: the early-out every free function takes first, so
    /// un-instrumented runs pay one `Cell` read and a branch.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// The simulation time at which the installed dispatcher's current
    /// time-series window closes: [`tick`] below it returns without
    /// touching `CURRENT`. 0 makes the next tick compute it (a
    /// dispatcher was just installed or restored); `u64::MAX` with
    /// nothing installed.
    static NEXT_EDGE: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Writes the events at or above one level to its sink, and owns the
/// run's counter [`Registry`].
pub struct Dispatcher {
    lines: Lines,
    registry: Registry,
    timeseries: TimeSeries,
    slos: SloEngine,
    /// The slots of the names call sites have passed.
    names: NameTable,
    next_span: u64,
    open_spans: OpenSpans,
}

/// Which of a name's slots a [`NameTable`] entry holds.
#[derive(Clone, Copy)]
enum SlotKind {
    Counter,
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
    slots: [u16; 2],
}

const NO_SLOT: u16 = u16::MAX;
const FREE: NameEntry = NameEntry { ptr: 0, len: 0, slots: [NO_SLOT; 2] };

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

/// A call site's `[component, target, name]`.
type Labels = [&'static str; 3];

/// Per-call-site data keyed by the addresses of a site's three
/// `&'static str` labels, with open addressing like [`NameTable`]. A
/// literal the linker duplicated is two sites with the same data.
struct Sites<T> {
    /// Index into `entries` + 1; 0 marks a free slot.
    slots: Vec<u32>,
    entries: Vec<(Labels, T)>,
}

impl<T> Default for Sites<T> {
    fn default() -> Sites<T> {
        Sites { slots: Vec::new(), entries: Vec::new() }
    }
}

impl<T> Sites<T> {
    /// The index of `labels`' entry, made by `make` the first time.
    fn index(&mut self, labels: Labels, make: impl FnOnce(Labels) -> T) -> usize {
        let mut i = self.find(labels);
        if self.slots.get(i).is_none_or(|&s| s == 0) {
            if 4 * (self.entries.len() + 1) > 3 * self.slots.len() {
                self.grow();
                i = self.find(labels);
            }
            self.entries.push((labels, make(labels)));
            self.slots[i] = self.entries.len() as u32;
        }
        self.slots[i] as usize - 1
    }

    /// The data of the entry at `index`.
    fn get(&self, index: usize) -> &T {
        &self.entries[index].1
    }

    /// The slot holding `labels`, or the free one where they go (0 for
    /// the empty table).
    fn find(&self, labels: Labels) -> usize {
        if self.slots.is_empty() {
            return 0;
        }
        let mask = self.slots.len() - 1;
        let mut hash = 0u64;
        for label in labels {
            hash = (hash ^ label.as_ptr() as u64 ^ label.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        let mut i = (hash >> 32) as usize & mask;
        loop {
            match self.slots[i] {
                0 => return i,
                s if same_site(self.entries[s as usize - 1].0, labels) => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(16);
        self.slots = vec![0; cap];
        for e in 0..self.entries.len() {
            let i = self.find(self.entries[e].0);
            self.slots[i] = e as u32 + 1;
        }
    }
}

/// Whether two label triples are the same strings at the same addresses.
fn same_site(a: Labels, b: Labels) -> bool {
    a.iter().zip(b).all(|(x, y)| x.as_ptr() == y.as_ptr() && x.len() == y.len())
}

/// What every line of one span site repeats, escaped once: the labels
/// of its `span_start` and of its `span_end`, each up to the span id,
/// then the `span_name` field both open their fields with.
struct SpanHeads {
    text: String,
    end_at: usize,
    name_at: usize,
}

impl SpanHeads {
    fn new([component, target, name]: Labels) -> SpanHeads {
        let mut text = String::new();
        push_labels(&mut text, component, target, "span_start");
        text.push_str(",\"span\":");
        let end_at = text.len();
        push_labels(&mut text, component, target, "span_end");
        text.push_str(",\"span\":");
        let name_at = text.len();
        text.push_str(",\"fields\":{\"span_name\":");
        push_quoted(&mut text, name);
        SpanHeads { text, end_at, name_at }
    }

    fn start(&self) -> &str {
        &self.text[..self.end_at]
    }

    fn end(&self) -> &str {
        &self.text[self.end_at..self.name_at]
    }

    fn name_field(&self) -> &str {
        &self.text[self.name_at..]
    }
}

/// The dispatcher's write side: the sink, the one level, and every
/// site's labels escaped once.
struct Lines {
    sink: Option<JsonlSink>,
    level: Level,
    /// `,"component":…,"target":…,"event":…` per event site.
    events: Sites<Box<str>>,
    /// Per span site; an open span remembers the index.
    spans: Sites<SpanHeads>,
}

impl Lines {
    /// Whether a line at `level` would reach the sink. With no sink
    /// attached nothing can observe an event, so emission is disabled
    /// outright — the guard hot paths rely on to skip building fields.
    fn enabled(&self, level: Level) -> bool {
        self.sink.is_some() && level >= self.level
    }

    /// The sink's line buffer with `{"t_us":…,"level":…` written, for a
    /// line that will be recorded.
    fn take(&mut self, t_us: u64, level: Level) -> Option<String> {
        let mut line = self.sink.as_mut()?.take_line();
        push_head(&mut line, t_us, level);
        Some(line)
    }

    /// An event's line up to its fields, if `level` passes.
    fn begin_event(&mut self, t_us: u64, level: Level, labels: Labels) -> Option<String> {
        if !self.enabled(level) {
            return None;
        }
        let mut line = self.take(t_us, level)?;
        let site = self.events.index(labels, |[component, target, name]| {
            let mut head = String::new();
            push_labels(&mut head, component, target, name);
            head.into_boxed_str()
        });
        line.push_str(self.events.get(site));
        Some(line)
    }

    /// Writes a finished line.
    fn finish(&mut self, line: String) {
        if let Some(sink) = &mut self.sink {
            sink.write(line);
        }
    }

    /// Writes an SLO alert as component `slo`, target `alert`.
    fn alert(&mut self, alert: &Alert<'_>) {
        let labels = ["slo", "alert", alert.name()];
        if let Some(mut line) = self.begin_event(alert.t_us, alert.level(), labels) {
            let mut fields = Fields::new(&mut line, false);
            alert.write_fields(&mut fields);
            fields.close();
            self.finish(line);
        }
    }
}

/// An open span: when it started, and where ([`Lines::spans`]).
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
            lines: Lines {
                sink: None,
                level: Level::Info,
                events: Sites::default(),
                spans: Sites::default(),
            },
            registry: Registry::new(),
            timeseries: TimeSeries::default(),
            slos: SloEngine::default(),
            names: NameTable::default(),
            next_span: 0,
            open_spans: OpenSpans::default(),
        }
    }

    /// Sets the minimum level an event needs to be written.
    pub fn with_level(mut self, level: Level) -> Dispatcher {
        self.lines.level = level;
        self
    }

    /// Attaches the sink every accepted event is written to; a second
    /// call replaces the first sink.
    // Boxed because `benchmark/`, a workspace of its own that must
    // build against this crate unchanged, passes `Box::new(JsonlSink::new(..))`.
    #[allow(clippy::boxed_local)]
    pub fn with_sink(mut self, sink: Box<JsonlSink>) -> Dispatcher {
        self.lines.sink = Some(*sink);
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
        NEXT_EDGE.with(|e| e.set(0));
        ObsGuard { prev }
    }

    /// The counters accumulated so far.
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

    fn flush(&mut self) {
        if let Some(sink) = &mut self.lines.sink {
            sink.flush();
        }
    }

    fn counter_add(&mut self, name: &'static str, by: u64) {
        let slot = self.names.slot(name, SlotKind::Counter, || self.registry.counter_slot(name));
        self.registry.counter_add_at(slot, by);
    }

    fn series_slot(&mut self, name: &'static str, kind: SeriesKind) -> usize {
        self.names.slot(name, SlotKind::Series, || self.timeseries.series_slot(name, kind))
    }

    /// Allocates the next span id, remembers the start and writes the
    /// `span_start` line up to the caller's fields, if `level` passes.
    fn open_span(
        &mut self,
        t_us: u64,
        level: Level,
        labels: Labels,
        ctx: crate::context::TraceCtx,
    ) -> Option<(SpanId, String)> {
        if !self.lines.enabled(level) {
            return None;
        }
        self.next_span += 1;
        let id = self.next_span;
        let site = self.lines.spans.index(labels, SpanHeads::new);
        let evicted = self.open_spans.insert(id, SpanStart { t_us, site: site as u32 });
        if evicted > 0 {
            self.counter_add("obs.spans_evicted", evicted);
        }
        let mut line = self.lines.take(t_us, level)?;
        let heads = self.lines.spans.get(site);
        line.push_str(heads.start());
        push_u64(&mut line, id);
        line.push_str(heads.name_field());
        if !ctx.trace.is_none() {
            line.push_str(",\"trace_id\":");
            push_u64(&mut line, ctx.trace.0);
        }
        if !ctx.parent.is_none() {
            line.push_str(",\"parent\":");
            push_u64(&mut line, ctx.parent.0);
        }
        Some((SpanId(id), line))
    }

    /// Forgets span `id` and writes its `span_end` line up to the
    /// caller's fields, if it was open.
    fn close_span(&mut self, t_us: u64, span: SpanId) -> Option<String> {
        let start = self.open_spans.remove(span.0)?;
        let mut line = self.lines.take(t_us, Level::Info)?;
        let heads = self.lines.spans.get(start.site as usize);
        line.push_str(heads.end());
        push_u64(&mut line, span.0);
        line.push_str(heads.name_field());
        line.push_str(",\"dur_us\":");
        push_u64(&mut line, t_us.saturating_sub(start.t_us));
        Some(line)
    }

    /// Advances the windows to `t_us`, writes the alerts of every window
    /// that closed, and returns the time the current window closes.
    fn tick(&mut self, t_us: u64) -> u64 {
        self.timeseries.advance(t_us);
        let lines = &mut self.lines;
        self.slos.evaluate(&self.timeseries, |alert| lines.alert(alert));
        (self.timeseries.closed_through() + 1).saturating_mul(self.timeseries.spec().width_us)
    }
}

/// RAII guard from [`Dispatcher::install`]; dropping it flushes the
/// sink and restores the previously installed dispatcher.
pub struct ObsGuard {
    prev: Option<Dispatcher>,
}

impl ObsGuard {
    /// Uninstalls explicitly and hands back the dispatcher (flushed),
    /// giving access to its final counters, time-series and SLO state.
    pub fn uninstall(mut self) -> Dispatcher {
        let prev = self.prev.take();
        restored(prev.is_some());
        let mut d = CURRENT
            .with(|c| std::mem::replace(&mut *c.borrow_mut(), prev))
            .expect("dispatcher slot emptied while guard alive");
        // The restore is done: skip Drop, which would otherwise evict
        // the just-reinstalled previous dispatcher.
        std::mem::forget(self);
        d.flush();
        d
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        restored(prev.is_some());
        CURRENT.with(|c| {
            let mut slot = c.borrow_mut();
            if let Some(mut d) = std::mem::replace(&mut *slot, prev) {
                d.flush();
            }
        });
    }
}

/// Marks the slot as holding a restored dispatcher or none: a restored
/// one computes its next window edge on its next tick.
fn restored(some: bool) {
    ACTIVE.with(|a| a.set(some));
    NEXT_EDGE.with(|e| e.set(if some { 0 } else { u64::MAX }));
}

fn with_installed<R>(f: impl FnOnce(&mut Dispatcher) -> R) -> Option<R> {
    if !ACTIVE.with(|a| a.get()) {
        return None;
    }
    CURRENT.with(|c| c.borrow_mut().as_mut().map(f))
}

/// Whether any dispatcher is installed on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Emits one event, writing its fields only if it will be recorded:
/// `fields` runs only after the level filter has accepted `level`, and
/// appends each field straight to the sink's line — a filtered event
/// costs nothing to build, and each site names its level and labels
/// once.
pub fn event(
    t_us: u64,
    level: Level,
    component: &'static str,
    target: &'static str,
    name: &'static str,
    fields: impl FnOnce(&mut Fields<'_>),
) {
    let labels = [component, target, name];
    let Some(line) = with_installed(|d| d.lines.begin_event(t_us, level, labels)).flatten() else {
        return;
    };
    write_fields(line, false, fields);
}

/// Runs a line's `fields` outside the dispatcher borrow, so it may
/// itself read the time-series or emit (that line is written first),
/// then writes the line.
fn write_fields(mut line: String, open: bool, fields: impl FnOnce(&mut Fields<'_>)) {
    let mut f = Fields::new(&mut line, open);
    fields(&mut f);
    f.close();
    with_installed(|d| d.lines.finish(line));
}

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
    fields: impl FnOnce(&mut Fields<'_>),
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
    fields: impl FnOnce(&mut Fields<'_>),
) -> SpanId {
    let labels = [component, target, name];
    let Some((id, line)) = with_installed(|d| d.open_span(t_us, level, labels, ctx)).flatten() else {
        return SpanId::NONE;
    };
    write_fields(line, true, fields);
    id
}

/// Closes a span opened by [`span_start`], emitting a `span_end` event
/// carrying the span's simulated duration in `dur_us`; `fields` runs
/// only if the span was recorded in the first place.
pub fn span_end(t_us: u64, span: SpanId, fields: impl FnOnce(&mut Fields<'_>)) {
    if span.is_none() {
        return;
    }
    if let Some(line) = with_installed(|d| d.close_span(t_us, span)).flatten() {
        write_fields(line, true, fields);
    }
}

// The metric writers take the name as a `&'static str`: the installed
// dispatcher resolves it to a slot once, by its address, and every
// later call is an indexed write.

/// Adds to a named counter in the installed registry (no-op without a
/// dispatcher). The registry holds the counters the repository
/// benchmark reads; every other fact is read from the trace.
pub fn counter_add(name: &'static str, by: u64) {
    with_installed(|d| d.counter_add(name, by));
}

/// Records a sample into the named windowed time-series at simulation
/// time `t_us` (no-op without a dispatcher).
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
/// A window closes, and an alert can fire, only when `t_us` reaches
/// the next window edge, so below the cached edge this is one
/// thread-local compare, inlined into the caller; with no dispatcher
/// the edge is `u64::MAX`.
#[inline]
pub fn tick(t_us: u64) {
    if t_us < NEXT_EDGE.with(Cell::get) {
        return;
    }
    tick_at_edge(t_us);
}

/// [`tick`] at or past the cached edge.
#[inline(never)]
fn tick_at_edge(t_us: u64) {
    if let Some(edge) = with_installed(|d| d.tick(t_us)) {
        NEXT_EDGE.with(|e| e.set(edge));
    }
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
        event(t, level, "web", "t", name, |_| {});
    }

    /// Whether an event at `level` would be written.
    fn is_enabled(level: Level) -> bool {
        with_installed(|d| d.lines.enabled(level)).unwrap_or(false)
    }

    /// The window edge `tick` compares with.
    fn next_edge() -> u64 {
        NEXT_EDGE.with(Cell::get)
    }

    fn names(events: &[TraceEvent<'_>]) -> Vec<String> {
        events.iter().map(|e| e.name.to_string()).collect()
    }

    #[test]
    fn event_builds_its_fields_only_when_it_will_be_recorded() {
        let built = Cell::new(0);
        let build = |f: &mut Fields<'_>| {
            built.set(built.get() + 1);
            f.field("k", 1u64);
        };
        event(1, Level::Error, "gfw", "t", "e", build); // no dispatcher
        let out = Captured::default();
        let guard = Dispatcher::new().with_level(Level::Info).with_sink(out.sink()).install();
        event(2, Level::Debug, "gfw", "t", "e", build); // filtered by level
        assert_eq!(built.get(), 0, "a filtered event must not be built");
        event(3, Level::Info, "gfw", "t", "e", build);
        assert_eq!(built.get(), 1);
        let fields = |_: &mut Fields<'_>| built.set(built.get() + 1);
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
        let id = span_start(0, Level::Info, "simnet", "t", "s", |_| {});
        assert!(id.is_none());
        span_end(5, id, |_| {});
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
        let a = span_start(100, Level::Info, "web", "load", "page", |_| {});
        let b = span_start(150, Level::Info, "web", "load", "dns", |_| {});
        span_end(250, b, |_| {});
        span_end(400, a, |f| {
            f.field("ok", true);
        });
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
        assert_eq!(d.slo_engine().total_fired(), 1);
        assert_eq!(d.slo_engine().statuses()[0].resolved, 1);
        assert_eq!(d.timeseries().window("web.plt_us", 0).unwrap().count(), 1);
        assert!(d.slo_engine().any_fired());
    }

    /// The alert lines and final statuses of one run of the same
    /// samples, ticked at every simulated millisecond or only at the
    /// times samples arrive (the times `Sim::run_until` ticks) and at
    /// the deadline.
    fn alerts_ticked(every_ms: bool) -> (String, Vec<crate::slo::SloStatus>) {
        let mut plt = SloSpec::quantile("plt", "web.plt_us", 0.95, 1_000);
        plt.eval_windows = 2;
        plt.budget = 0.5;
        let mut avail = SloSpec::availability("avail", "web.ok", "web.err", 0.9);
        avail.eval_windows = 2;
        let out = Captured::default();
        let guard = Dispatcher::new()
            .with_windows(WindowSpec::new(1_000_000, 64))
            .with_slos(vec![plt, avail])
            .with_sink(out.sink())
            .install();
        let (mut rng, mut next_sample) = (0x2017u64, 0u64);
        for ms in 0..=30_000u64 {
            let sample = ms == next_sample;
            if every_ms || sample {
                tick(ms * 1_000);
            }
            if sample {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                let trace = crate::context::TraceId(rng >> 16 | 1);
                let bad = matches!(ms / 1_000, 3..=6 | 15..=16);
                ts_record_ex(ms * 1_000, "web.plt_us", if bad { 50_000 } else { 500 }, trace);
                let outcome = if bad && rng >> 60 < 8 { "web.err" } else { "web.ok" };
                ts_bump_ex(ms * 1_000, outcome, 1, trace);
                next_sample = ms + 1 + (rng >> 33) % 700;
            }
        }
        tick(31_000_000); // the deadline
        let d = guard.uninstall();
        (out.text(), d.slo_engine().statuses().to_vec())
    }

    #[test]
    fn ticking_every_millisecond_or_at_event_times_raises_the_same_alerts() {
        let (every_ms, at_events) = (alerts_ticked(true), alerts_ticked(false));
        assert_eq!(every_ms, at_events);
        let (text, statuses) = every_ms;
        assert!(statuses.iter().all(|s| s.fired >= 1 && s.resolved >= 1), "{statuses:?}\n{text}");
        assert_eq!(statuses[0].evaluations, 31);
    }

    #[test]
    fn an_inner_dispatcher_mid_window_leaves_the_outer_closing_on_the_right_tick() {
        let out = Captured::default();
        let mut spec = SloSpec::quantile("plt", "web.plt_us", 0.95, 1_000);
        spec.eval_windows = 1;
        spec.budget = 0.5;
        let outer = Dispatcher::new()
            .with_windows(WindowSpec::new(1_000_000, 32))
            .with_slos(vec![spec])
            .with_sink(out.sink())
            .install();
        ts_record(100, "web.plt_us", 50_000); // bad window 0
        tick(400_000);
        assert_eq!(next_edge(), 1_000_000);
        let inner = Dispatcher::new().with_windows(WindowSpec::new(10_000_000, 8)).install();
        assert_eq!(next_edge(), 0, "an installed dispatcher computes its own edge");
        tick(600_000);
        assert_eq!(next_edge(), 10_000_000);
        drop(inner);
        assert_eq!(next_edge(), 0, "the restored dispatcher recomputes its edge");
        tick(999_999);
        assert!(out.events().is_empty(), "window 0 is still open");
        assert_eq!(next_edge(), 1_000_000);
        tick(1_000_000); // window 0 closes on this tick, not on the inner's edge
        let evs = out.events();
        assert_eq!(names(&evs), ["fire"]);
        assert_eq!(evs[0].t_us, 1_000_000);
        assert_eq!(next_edge(), 2_000_000);
        drop(outer);
        assert_eq!(next_edge(), u64::MAX);
    }

    #[test]
    fn with_nothing_installed_tick_stops_at_the_edge_compare() {
        assert!(!is_active());
        // Every tick below `u64::MAX` returns before `with_installed`.
        assert_eq!(next_edge(), u64::MAX);
        tick(0);
        tick(u64::MAX - 1);
        assert_eq!(next_edge(), u64::MAX);
        let guard = Dispatcher::new().install();
        tick(1_500_000); // the default 1-second windows
        assert_eq!(next_edge(), 2_000_000);
        drop(guard);
        assert_eq!(next_edge(), u64::MAX);
    }

    /// Labels a site escapes once: controls, a quote, a backslash and
    /// non-ASCII.
    const HOSTILE: Labels = ["ctl\u{1}\n", "\"q\"", "back\\slash 例"];

    #[test]
    fn a_span_sites_cached_heads_are_the_escapers_output() {
        let [component, target, name] = HOSTILE;
        let heads = SpanHeads::new(HOSTILE);
        let labels = |event| {
            let mut s = String::new();
            push_labels(&mut s, component, target, event);
            s + ",\"span\":"
        };
        assert_eq!(heads.start(), labels("span_start"));
        assert_eq!(heads.end(), labels("span_end"));
        let mut name_field = String::from(",\"fields\":{\"span_name\":");
        push_quoted(&mut name_field, name);
        assert_eq!(heads.name_field(), name_field);
        assert_eq!(heads.name_field(), ",\"fields\":{\"span_name\":\"back\\\\slash 例\"");
    }

    #[test]
    fn a_dispatchers_lines_are_the_reference_writers_lines() {
        use crate::event::Event;
        let [component, target, name] = HOSTILE;
        let out = Captured::default();
        let guard = Dispatcher::new().with_sink(out.sink()).install();
        event(5, Level::Warn, component, target, name, |f| {
            f.field("k\"", "v\u{2}").field("n", 3u64);
        });
        let ctx = crate::TraceCtx::new(crate::TraceId(9), SpanId(4));
        let id = span_start_ctx(6, Level::Info, component, target, name, ctx, |f| {
            f.field("host", "h\"");
        });
        span_end(10, id, |f| {
            f.field("ok", true);
        });
        event(11, Level::Info, component, target, name, |_| {}); // the site again, from its cache
        drop(guard);
        let expected = [
            Event::new(5, Level::Warn, component, target, name).field("k\"", "v\u{2}").field("n", 3u64),
            Event::new(6, Level::Info, component, target, "span_start")
                .in_span(id)
                .field("span_name", name)
                .field("trace_id", 9u64)
                .field("parent", 4u64)
                .field("host", "h\""),
            Event::new(10, Level::Info, component, target, "span_end")
                .in_span(id)
                .field("span_name", name)
                .field("dur_us", 4u64)
                .field("ok", true),
            Event::new(11, Level::Info, component, target, name),
        ];
        let mut text = String::new();
        for ev in &expected {
            crate::sink::reference::write_event_json(&mut text, ev);
            text.push('\n');
        }
        assert_eq!(out.text(), text);
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
        let id = span_start(0, Level::Info, "web", "load", "page", |_| {});
        assert!(id.is_none());
        span_end(10, id, |_| {});
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
            let lines = text.lines().map(|l| crate::analyze::parse_line(l).expect("each line parses"));
            lines.count()
        };
        // Enough lines that the file's buffer has a partial block left
        // when the run ends.
        for uninstall in [false, true] {
            let sink = JsonlSink::create(path).expect("a trace file");
            let guard = Dispatcher::new().with_sink(Box::new(sink)).install();
            for t in 0..1_000u64 {
                event(t, Level::Info, "web", "t", "e", |f| {
                    f.field("t", t);
                });
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
        event(1, Level::Info, "web", "t", "outer", |f| {
            event(2, Level::Info, "web", "t", "inner", |f| {
                f.field("depth", 2u64);
            });
            f.field("depth", 1u64).field("note", "built around an emit");
        });
        event(3, Level::Info, "web", "t", "next", |_| {});
        drop(guard);
        let evs = out.events();
        assert_eq!(names(&evs), ["inner", "outer", "next"]);
        assert_eq!(evs[0].fields.len(), 1);
        assert_eq!(evs[1].get_u64("depth"), Some(1));
        assert_eq!(evs[1].fields.len(), 2);
        assert!(evs[2].fields.is_empty(), "a recycled line comes back empty");
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
        counter_add(&copy[..4], 6);
        let d = guard.uninstall();
        let mut reg = d.registry().clone();
        reg.counter_add(&["web", "loads_ok"].join("."), 4);
        assert_eq!(reg.counter("web.loads_ok"), 7);
        assert_eq!(
            format!("{reg:?}"),
            r#"Registry { counters: {"web.": Counter(6), "web.loads_ok": Counter(7)} }"#
        );
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
        let root = span_start(0, Level::Info, "metrics", "run", "scenario", |_| {});
        let mut open = Vec::new();
        for t in 1..=1000u64 {
            // The same name from two components: the end must name the
            // component the span was opened in.
            let component = if t % 2 == 0 { "web" } else { "scholarcloud" };
            open.push(span_start(t, Level::Info, component, "load", "fetch", |_| {}));
            if open.len() > 3 {
                let id = open.remove(t as usize % 3);
                span_end(t, id, |_| {});
            }
        }
        span_end(2000, root, |f| {
            f.field("ok", true);
        });
        for id in open {
            span_end(2001, id, |_| {});
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
        assert_eq!(format!("{:?}", d.registry()), "Registry { counters: {} }", "no eviction, no counter");
    }

    #[test]
    fn the_open_span_cap_drops_the_oldest_and_counts_it() {
        let out = Captured::default();
        let guard = Dispatcher::new().with_sink(out.sink()).install();
        CURRENT.with(|c| c.borrow_mut().as_mut().unwrap().open_spans.cap = 3);
        let ids: Vec<SpanId> =
            (0..5).map(|t| span_start(t, Level::Info, "web", "load", "leak", |_| {})).collect();
        for (t, &id) in ids.iter().enumerate() {
            span_end(10 + t as u64, id, |_| {});
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
        assert_eq!(guard.uninstall().registry().counter("pkts"), 5);
    }
}
