//! Windowed time-series: bounded-memory aggregation of observations
//! into fixed simulation-time windows.
//!
//! A flat end-of-run counter dump answers *what* a scenario measured; an
//! operator of the paper's deployed service (§3, §4.5) needs *when* —
//! when page-load latency crossed its SLO, when censor interference
//! clustered, when the load ramp saturated the VM. [`TimeSeries`]
//! aggregates two kinds of series into windows of fixed width
//! ([`WindowSpec`]):
//!
//! * **sample series** ([`TimeSeries::record`]) — latency-style
//!   observations; each window keeps count/sum/min/max plus a *sparse*
//!   log-bucketed histogram (the [`metrics`](crate::metrics) buckets,
//!   ≈3% relative quantile error), so per-window p50/p95/p99 come out
//!   without storing samples;
//! * **rate series** ([`TimeSeries::bump`]) — counter-style increments;
//!   each window keeps the increment total, rendered as a per-second
//!   rate.
//!
//! Memory is bounded two ways: windows are materialized only when
//! something lands in them (gaps cost nothing), and each series keeps at
//! most [`WindowSpec::max_windows`] windows — the oldest are evicted and
//! counted in [`TimeSeries::evicted`]. Everything is keyed to
//! simulation time, iterated in `BTreeMap` order, and rendered with
//! fixed formatting, so timelines of a seeded run are deterministic.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use crate::metrics::{bucket_lo, bucket_of, bucket_width, Slots};

/// Window geometry and the memory bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window width in simulation microseconds.
    pub width_us: u64,
    /// Maximum materialized windows kept per series (oldest evicted).
    pub max_windows: usize,
}

impl WindowSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `width_us` or `max_windows` is zero.
    pub fn new(width_us: u64, max_windows: usize) -> WindowSpec {
        assert!(width_us > 0, "window width must be positive");
        assert!(max_windows > 0, "max_windows must be positive");
        WindowSpec { width_us, max_windows }
    }

    /// A spec with `secs`-second windows and the default memory bound.
    pub fn seconds(secs: u64) -> WindowSpec {
        WindowSpec::new(secs.max(1) * 1_000_000, 512)
    }
}

impl Default for WindowSpec {
    /// One-second windows, 512 kept per series.
    fn default() -> WindowSpec {
        WindowSpec::new(1_000_000, 512)
    }
}

/// What a series aggregates, fixed by the first call that touches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Latency-style samples with per-window quantiles.
    Sample,
    /// Counter-style increments with per-window rates.
    Rate,
}

/// Worst-K exemplars kept per window: enough to link an alert to
/// evidence without unbounded growth in hot windows.
pub const EXEMPLARS_PER_WINDOW: usize = 4;

/// One window's aggregate state.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window index: `t_us / width_us`.
    pub index: u64,
    count: u64,
    total: u64,
    min: u64,
    max: u64,
    /// Sparse log-bucketed histogram (sample series only).
    buckets: BTreeMap<u32, u64>,
    /// Worst-valued `(value, trace_id)` exemplars landed in this window
    /// (bounded by [`EXEMPLARS_PER_WINDOW`], sorted worst-first; ties
    /// keep the earlier arrival so insertion order stays deterministic).
    exemplars: Vec<(u64, u64)>,
}

impl Window {
    pub(crate) fn new(index: u64) -> Window {
        Window {
            index,
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
            buckets: BTreeMap::new(),
            exemplars: Vec::new(),
        }
    }

    pub(crate) fn observe(&mut self, v: u64) {
        self.count += 1;
        self.total = self.total.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        *self.buckets.entry(bucket_of(v) as u32).or_insert(0) += 1;
    }

    fn bump(&mut self, by: u64) {
        self.count += 1;
        self.total = self.total.saturating_add(by);
    }

    fn note_exemplar(&mut self, v: u64, trace_id: u64) {
        if trace_id == 0 {
            return;
        }
        // Insert sorted descending by value; equal values keep arrival
        // order (strict `>` finds the slot *after* existing equals).
        let pos = self
            .exemplars
            .iter()
            .position(|&(ev, _)| v > ev)
            .unwrap_or(self.exemplars.len());
        if pos >= EXEMPLARS_PER_WINDOW {
            return;
        }
        self.exemplars.insert(pos, (v, trace_id));
        self.exemplars.truncate(EXEMPLARS_PER_WINDOW);
    }

    /// The window's worst `(value, trace_id)` exemplars, worst first.
    pub fn exemplars(&self) -> &[(u64, u64)] {
        &self.exemplars
    }

    /// Samples (sample series) or increment calls (rate series).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples or increments.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Increment total per second of window (rate series).
    pub fn rate_per_sec(&self, width_us: u64) -> f64 {
        self.total as f64 / (width_us as f64 / 1_000_000.0)
    }

    /// Quantile estimate from the sparse buckets, clamped into
    /// `[min, max]`; 0 when the window holds no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                let idx = idx as usize;
                let mid = bucket_lo(idx) + (bucket_width(idx) - 1) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[derive(Debug, Clone)]
struct Series {
    kind: SeriesKind,
    windows: VecDeque<Window>,
    evicted: u64,
    late: u64,
}

impl Series {
    fn new(kind: SeriesKind) -> Series {
        Series { kind, windows: VecDeque::new(), evicted: 0, late: 0 }
    }

    /// The window for `index`, materializing it (and evicting the
    /// oldest beyond the cap) as needed. `None` for writes into windows
    /// older than the earliest retained one.
    fn window_mut(&mut self, index: u64, cap: usize) -> Option<&mut Window> {
        match self.windows.back() {
            None => self.windows.push_back(Window::new(index)),
            Some(last) if index > last.index => self.windows.push_back(Window::new(index)),
            _ => {
                // Same or older window: find it (almost always the back).
                match self.windows.iter().rposition(|w| w.index <= index) {
                    Some(pos) if self.windows[pos].index == index => {
                        return self.windows.get_mut(pos);
                    }
                    Some(pos) => {
                        // A gap window older than the newest: materialize
                        // in place (cap is checked below the match for
                        // appends; inserts stay ≤ cap because a gap
                        // implies the deque was not full of consecutive
                        // indices — still enforce it defensively).
                        if self.windows.len() >= cap {
                            return None;
                        }
                        self.windows.insert(pos + 1, Window::new(index));
                        return self.windows.get_mut(pos + 1);
                    }
                    None => {
                        // Older than every retained window. If eviction
                        // has happened this is genuinely late; otherwise
                        // the window is still within retention — grow at
                        // the front.
                        if self.evicted > 0 || self.windows.len() >= cap {
                            return None;
                        }
                        self.windows.push_front(Window::new(index));
                        return self.windows.front_mut();
                    }
                }
            }
        }
        while self.windows.len() > cap {
            self.windows.pop_front();
            self.evicted += 1;
        }
        self.windows.back_mut()
    }
}

/// Bounded store of windowed series, keyed by dotted metric name.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    spec: WindowSpec,
    series: Slots<Series>,
    /// High-water simulation time, advanced by [`TimeSeries::advance`].
    clock_us: u64,
}

impl Default for TimeSeries {
    fn default() -> TimeSeries {
        TimeSeries::new(WindowSpec::default())
    }
}

impl TimeSeries {
    /// Creates an empty store with the given window geometry.
    pub fn new(spec: WindowSpec) -> TimeSeries {
        TimeSeries { spec, series: Slots::default(), clock_us: 0 }
    }

    /// The window geometry.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// The slot of the named series, creating it as `kind` on first use.
    pub(crate) fn series_slot(&mut self, name: &str, kind: SeriesKind) -> usize {
        self.series.slot(name, || Series::new(kind))
    }

    /// Applies `op` to the window of the series in `slot` that holds
    /// `t_us`. A series of the other kind is left alone; a window
    /// outside retention counts as late.
    fn write_at(&mut self, slot: usize, kind: SeriesKind, t_us: u64, op: impl FnOnce(&mut Window)) {
        let idx = t_us / self.spec.width_us;
        let cap = self.spec.max_windows;
        let s = self.series.at(slot);
        if s.kind != kind {
            return;
        }
        match s.window_mut(idx, cap) {
            Some(w) => op(w),
            None => s.late += 1,
        }
    }

    /// Records a sample into the series in `slot`, offering it as an
    /// exemplar when `trace_id` is not 0.
    pub(crate) fn record_at(&mut self, slot: usize, t_us: u64, v: u64, trace_id: u64) {
        self.write_at(slot, SeriesKind::Sample, t_us, |w| {
            w.observe(v);
            w.note_exemplar(v, trace_id);
        });
    }

    /// Adds an increment to the series in `slot`, offering it as an
    /// exemplar when `trace_id` is not 0.
    pub(crate) fn bump_at(&mut self, slot: usize, t_us: u64, by: u64, trace_id: u64) {
        self.write_at(slot, SeriesKind::Rate, t_us, |w| {
            w.bump(by);
            w.note_exemplar(by, trace_id);
        });
    }

    /// Records a latency-style sample at simulation time `t_us`.
    /// Ignored if the name is already a rate series.
    pub fn record(&mut self, name: &str, t_us: u64, v: u64) {
        self.record_ex(name, t_us, v, 0);
    }

    /// Like [`record`](Self::record), but also offers `(v, trace_id)`
    /// as an exemplar to the window (kept if among its worst K).
    pub fn record_ex(&mut self, name: &str, t_us: u64, v: u64, trace_id: u64) {
        let slot = self.series_slot(name, SeriesKind::Sample);
        self.record_at(slot, t_us, v, trace_id);
    }

    /// Adds a counter-style increment at simulation time `t_us`.
    /// Ignored if the name is already a sample series.
    pub fn bump(&mut self, name: &str, t_us: u64, by: u64) {
        self.bump_ex(name, t_us, by, 0);
    }

    /// Like [`bump`](Self::bump), but tags the increment with the
    /// contributing request's trace id (exemplar for rate-based SLOs).
    pub fn bump_ex(&mut self, name: &str, t_us: u64, by: u64, trace_id: u64) {
        let slot = self.series_slot(name, SeriesKind::Rate);
        self.bump_at(slot, t_us, by, trace_id);
    }

    /// Advances the high-water clock (never backwards); windows with
    /// `index < closed_through()` are complete after this.
    pub fn advance(&mut self, t_us: u64) {
        self.clock_us = self.clock_us.max(t_us);
    }

    /// First window index that is *not* yet fully closed.
    pub fn closed_through(&self) -> u64 {
        self.clock_us / self.spec.width_us
    }

    /// Series names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.series.iter().map(|(name, _)| name)
    }

    /// The kind of a series, if it exists.
    pub fn kind(&self, name: &str) -> Option<SeriesKind> {
        self.series.get(name).map(|s| s.kind)
    }

    /// Materialized windows of a series, oldest first (empty iterator
    /// for unknown names).
    pub fn windows(&self, name: &str) -> impl Iterator<Item = &Window> {
        self.series.get(name).into_iter().flat_map(|s| s.windows.iter())
    }

    /// One window of a series by index.
    pub fn window(&self, name: &str, index: u64) -> Option<&Window> {
        self.series
            .get(name)?
            .windows
            .iter()
            .find(|w| w.index == index)
    }

    /// Windows evicted from a series by the memory cap.
    pub fn evicted(&self, name: &str) -> u64 {
        self.series.get(name).map_or(0, |s| s.evicted)
    }

    /// Writes dropped because they were older than every retained
    /// window (should stay 0 in a forward-running simulation).
    pub fn late(&self, name: &str) -> u64 {
        self.series.get(name).map_or(0, |s| s.late)
    }

    /// Whether any series holds data.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders one series as a per-window ASCII timeline; sample series
    /// show p50/p95/p99 per window, rate series show totals and
    /// per-second rates. Deterministic for a given store state.
    pub fn render_timeline(&self, name: &str) -> String {
        let mut out = String::new();
        let Some(s) = self.series.get(name) else {
            let _ = writeln!(out, "timeline — {name}: no data");
            return out;
        };
        let width = self.spec.width_us;
        let wsec = width as f64 / 1_000_000.0;
        match s.kind {
            SeriesKind::Sample => {
                let _ = writeln!(out, "timeline — {name} (window {wsec:.0} s, µs)");
                let peak = s.windows.iter().map(|w| w.quantile(0.95)).max().unwrap_or(0);
                let mut prev: Option<u64> = None;
                for w in &s.windows {
                    if prev.is_some_and(|p| w.index > p + 1) {
                        out.push_str("  ⋮ (empty windows)\n");
                    }
                    prev = Some(w.index);
                    let lo = w.index * width / 1_000_000;
                    let hi = (w.index + 1) * width / 1_000_000;
                    let _ = writeln!(
                        out,
                        "  [{lo:>5}–{hi:<5}s) n={:<5} p50={:<9} p95={:<9} p99={:<9} {}",
                        w.count(),
                        w.quantile(0.50),
                        w.quantile(0.95),
                        w.quantile(0.99),
                        bar(w.quantile(0.95), peak),
                    );
                }
            }
            SeriesKind::Rate => {
                let _ = writeln!(out, "timeline — {name} (window {wsec:.0} s, rate)");
                let peak = s.windows.iter().map(Window::total).max().unwrap_or(0);
                let mut prev: Option<u64> = None;
                for w in &s.windows {
                    if prev.is_some_and(|p| w.index > p + 1) {
                        out.push_str("  ⋮ (empty windows)\n");
                    }
                    prev = Some(w.index);
                    let lo = w.index * width / 1_000_000;
                    let hi = (w.index + 1) * width / 1_000_000;
                    let _ = writeln!(
                        out,
                        "  [{lo:>5}–{hi:<5}s) total={:<8} rate={:<10.2}/s {}",
                        w.total(),
                        w.rate_per_sec(width),
                        bar(w.total(), peak),
                    );
                }
            }
        }
        if s.evicted > 0 {
            let _ = writeln!(out, "  ({} oldest windows evicted by the memory cap)", s.evicted);
        }
        out
    }
}

/// A 12-cell ASCII magnitude bar, linear in `v / peak`.
fn bar(v: u64, peak: u64) -> String {
    const CELLS: usize = 12;
    if peak == 0 {
        return String::new();
    }
    let filled = ((v as f64 / peak as f64) * CELLS as f64).round() as usize;
    let filled = filled.min(CELLS);
    let mut s = String::with_capacity(CELLS + 2);
    s.push('|');
    for _ in 0..filled {
        s.push('#');
    }
    for _ in filled..CELLS {
        s.push('.');
    }
    s.push('|');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_their_windows() {
        let mut ts = TimeSeries::new(WindowSpec::new(1_000_000, 16));
        ts.record("plt", 100, 500);
        ts.record("plt", 999_999, 700);
        ts.record("plt", 1_000_000, 900);
        ts.record("plt", 3_500_000, 100);
        let w: Vec<u64> = ts.windows("plt").map(|w| w.index).collect();
        assert_eq!(w, [0, 1, 3]);
        assert_eq!(ts.window("plt", 0).unwrap().count(), 2);
        assert_eq!(ts.window("plt", 1).unwrap().count(), 1);
        assert_eq!(ts.window("plt", 0).unwrap().min(), 500);
        assert_eq!(ts.window("plt", 0).unwrap().max(), 700);
    }

    #[test]
    fn window_quantiles_are_exact_for_small_values() {
        let mut ts = TimeSeries::default();
        for v in 0..=40u64 {
            ts.record("s", 10, v);
        }
        let w = ts.window("s", 0).unwrap();
        assert_eq!(w.quantile(0.5), 20);
        assert_eq!(w.quantile(0.0), 0);
        assert_eq!(w.quantile(1.0), 40);
    }

    #[test]
    fn rate_series_track_totals_and_rates() {
        let mut ts = TimeSeries::new(WindowSpec::new(2_000_000, 16));
        ts.bump("drops", 0, 3);
        ts.bump("drops", 1_999_999, 2);
        ts.bump("drops", 2_000_000, 1);
        let w0 = ts.window("drops", 0).unwrap();
        assert_eq!(w0.total(), 5);
        assert_eq!(w0.count(), 2);
        assert!((w0.rate_per_sec(2_000_000) - 2.5).abs() < 1e-9);
        assert_eq!(ts.window("drops", 1).unwrap().total(), 1);
    }

    #[test]
    fn kind_conflicts_are_ignored_not_corrupted() {
        let mut ts = TimeSeries::default();
        ts.record("x", 0, 10);
        ts.bump("x", 0, 99); // wrong kind: dropped
        assert_eq!(ts.kind("x"), Some(SeriesKind::Sample));
        assert_eq!(ts.window("x", 0).unwrap().count(), 1);
    }

    #[test]
    fn memory_is_bounded_by_eviction() {
        let mut ts = TimeSeries::new(WindowSpec::new(1_000, 4));
        for i in 0..10u64 {
            ts.record("s", i * 1_000, i);
        }
        assert_eq!(ts.windows("s").count(), 4);
        assert_eq!(ts.evicted("s"), 6);
        // Oldest retained window is index 6.
        assert_eq!(ts.windows("s").next().unwrap().index, 6);
        // A write into an evicted window is counted, not resurrected.
        ts.record("s", 0, 1);
        assert_eq!(ts.late("s"), 1);
        assert_eq!(ts.windows("s").count(), 4);
    }

    #[test]
    fn out_of_order_writes_within_retention_land_correctly() {
        let mut ts = TimeSeries::new(WindowSpec::new(1_000_000, 16));
        ts.record("s", 5_000_000, 50); // window 5
        ts.record("s", 2_000_000, 20); // gap window 2, materialized late
        let idx: Vec<u64> = ts.windows("s").map(|w| w.index).collect();
        assert_eq!(idx, [2, 5]);
        assert_eq!(ts.window("s", 2).unwrap().count(), 1);
        ts.record("s", 2_500_000, 21); // existing window 2
        assert_eq!(ts.window("s", 2).unwrap().count(), 2);
    }

    #[test]
    fn clock_advances_monotonically_and_closes_windows() {
        let mut ts = TimeSeries::new(WindowSpec::new(1_000_000, 16));
        assert_eq!(ts.closed_through(), 0);
        ts.advance(2_500_000);
        assert_eq!(ts.closed_through(), 2);
        ts.advance(1_000_000); // backwards: ignored
        assert_eq!(ts.closed_through(), 2);
        ts.advance(2_999_999); // forwards, inside window 2
        assert_eq!(ts.closed_through(), 2);
        ts.advance(3_000_000); // window 2's closing edge
        assert_eq!(ts.closed_through(), 3);
    }

    #[test]
    fn exemplars_keep_bounded_worst_k() {
        let mut ts = TimeSeries::new(WindowSpec::new(1_000_000, 16));
        for (i, v) in [50u64, 900, 10, 700, 800, 30, 950].iter().enumerate() {
            ts.record_ex("plt", 100 + i as u64, *v, 1000 + i as u64);
        }
        let ex = ts.window("plt", 0).unwrap().exemplars();
        assert_eq!(ex.len(), EXEMPLARS_PER_WINDOW);
        let values: Vec<u64> = ex.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, [950, 900, 800, 700]);
        assert_eq!(ex[0].1, 1006); // trace of the worst sample
        // Untraced samples are aggregated but never become exemplars.
        ts.record_ex("plt", 200, 10_000, 0);
        assert_eq!(ts.window("plt", 0).unwrap().exemplars()[0].0, 950);
        assert_eq!(ts.window("plt", 0).unwrap().count(), 8);
        // Rate-kind exemplars tag contributing traces too.
        ts.bump_ex("errs", 100, 1, 42);
        assert_eq!(ts.window("errs", 0).unwrap().exemplars(), &[(1, 42)]);
    }

    #[test]
    fn timeline_rendering_is_deterministic() {
        let mut ts = TimeSeries::new(WindowSpec::new(1_000_000, 16));
        ts.record("plt", 100, 1500);
        ts.record("plt", 200, 2500);
        ts.bump("errs", 100, 2);
        let a = ts.render_timeline("plt");
        let b = ts.render_timeline("plt");
        assert_eq!(a, b);
        assert!(a.contains("p95"));
        assert!(ts.render_timeline("errs").contains("rate"));
        assert!(ts.render_timeline("missing").contains("no data"));
    }
}
