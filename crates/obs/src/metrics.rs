//! Metrics: counters and log-bucketed histograms.
//!
//! A [`Registry`] owns every metric, keyed by a dotted name
//! (`"simnet.packets_sent"`). Iteration order is the `BTreeMap` key
//! order, so rendered summaries and exports are deterministic.
//!
//! [`Histogram`] uses HDR-style logarithmic bucketing: values below
//! 2^[`SUB_BITS`] are recorded exactly; above that, each power-of-two
//! octave is split into 2^[`SUB_BITS`] sub-buckets, bounding relative
//! quantile error at `1 / 2^SUB_BITS` (≈ 3% with the default of 5 bits)
//! while keeping the bucket array a few hundred entries.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 5;

const SUB: usize = 1 << SUB_BITS;

/// A monotonically increasing count. Saturates at `u64::MAX` instead of
/// wrapping or panicking, so a runaway counter can never corrupt a
/// report or abort a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds `by`, saturating at `u64::MAX`.
    pub fn add(&mut self, by: u64) {
        self.0 = self.0.saturating_add(by);
    }

    /// Adds one, saturating.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Index of the bucket covering `v` (shared with the windowed
/// time-series' sparse per-window histograms).
pub(crate) fn bucket_of(v: u64) -> usize {
    let top = 64 - v.leading_zeros() as usize;
    if top <= SUB_BITS as usize + 1 {
        // v < 2 * SUB: exact buckets.
        return v as usize;
    }
    let shift = top - 1 - SUB_BITS as usize;
    let mantissa = (v >> shift) as usize; // in [SUB, 2*SUB)
    shift * SUB + mantissa
}

/// Lowest value falling in bucket `idx` (inverse of [`bucket_of`]).
pub(crate) fn bucket_lo(idx: usize) -> u64 {
    if idx < 2 * SUB {
        return idx as u64;
    }
    let shift = idx / SUB - 1;
    let mantissa = SUB + idx % SUB;
    (mantissa as u64) << shift
}

/// Width of bucket `idx` in value space.
pub(crate) fn bucket_width(idx: usize) -> u64 {
    if idx < 2 * SUB {
        1
    } else {
        1u64 << (idx / SUB - 1)
    }
}

const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// Log-bucketed histogram of `u64` samples (latencies in µs, sizes in
/// bytes).
#[derive(Clone)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`, estimated from buckets.
    ///
    /// The estimate is the midpoint of the bucket containing the target
    /// rank, clamped into the observed `[min, max]` range; relative
    /// error is bounded by the sub-bucket resolution. Returns 0 when
    /// empty.
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
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let mid = bucket_lo(idx) + (bucket_width(idx) - 1) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// p50 shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// p95 shorthand.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// p99 shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

/// Named values of one kind: the values in a dense `Vec`, indexed by
/// slot, and the name → slot map the ordered reads walk. A writer that
/// has resolved a name once ([`Slots::slot`]) writes by slot after.
#[derive(Clone)]
pub(crate) struct Slots<V> {
    names: BTreeMap<String, usize>,
    values: Vec<V>,
}

impl<V> Default for Slots<V> {
    fn default() -> Slots<V> {
        Slots { names: BTreeMap::new(), values: Vec::new() }
    }
}

impl<V> Slots<V> {
    /// The slot of `name`; a name not seen before is copied once and
    /// gets a value made by `new`.
    pub(crate) fn slot(&mut self, name: &str, new: impl FnOnce() -> V) -> usize {
        if let Some(&slot) = self.names.get(name) {
            return slot;
        }
        self.names.insert(name.to_string(), self.values.len());
        self.values.push(new());
        self.values.len() - 1
    }

    /// The value in `slot`, which [`Slots::slot`] handed out.
    pub(crate) fn at(&mut self, slot: usize) -> &mut V {
        &mut self.values[slot]
    }

    pub(crate) fn get(&self, name: &str) -> Option<&V> {
        self.names.get(name).map(|&slot| &self.values[slot])
    }

    /// Names and values in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.names.iter().map(|(name, &slot)| (name.as_str(), &self.values[slot]))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Reads as the name → value map it stands for.
impl<V: std::fmt::Debug> std::fmt::Debug for Slots<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Central store of named metrics with deterministic iteration order.
///
/// Writes by name look the name up; the installed dispatcher resolves
/// each name its call sites pass once ([`Registry::counter_slot`],
/// [`Registry::histogram_slot`]) and writes by slot after.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Slots<Counter>,
    histograms: Slots<Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `by` to the named counter, creating it on first use.
    pub fn counter_add(&mut self, name: &str, by: u64) {
        let slot = self.counter_slot(name);
        self.counter_add_at(slot, by);
    }

    /// The slot of the named counter, creating it on first use.
    pub(crate) fn counter_slot(&mut self, name: &str) -> usize {
        self.counters.slot(name, Counter::default)
    }

    /// Adds `by` to the counter in `slot`.
    pub(crate) fn counter_add_at(&mut self, slot: usize, by: u64) {
        self.counters.at(slot).add(by);
    }

    /// Reads a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, Counter::get)
    }

    /// Records a sample into the named histogram, creating it on first
    /// use.
    pub fn observe(&mut self, name: &str, v: u64) {
        let slot = self.histogram_slot(name);
        self.observe_at(slot, v);
    }

    /// The slot of the named histogram, creating it on first use.
    pub(crate) fn histogram_slot(&mut self, name: &str) -> usize {
        self.histograms.slot(name, Histogram::default)
    }

    /// Records a sample into the histogram in `slot`.
    pub(crate) fn observe_at(&mut self, slot: usize, v: u64) {
        self.histograms.at(slot).observe(v);
    }

    /// Reads a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k, v.get()))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders a human-readable summary, deterministic for a given
    /// registry state. This is the text block `sc-metrics::report`
    /// embeds in scenario reports.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in self.counters() {
                let _ = writeln!(out, "  {name:<42} {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (µs or bytes):\n");
            for (name, h) in self.histograms() {
                let _ = writeln!(
                    out,
                    "  {name:<42} n={} min={} p50={} p95={} p99={} max={} mean={:.1}",
                    h.count(),
                    h.min(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max(),
                    h.mean(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut c = Counter::default();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc(); // would wrap to 0 with wrapping arithmetic
        assert_eq!(c.get(), u64::MAX);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn buckets_are_contiguous_and_invertible() {
        // Every value maps into a bucket whose [lo, lo+width) contains it,
        // and bucket indices are monotonically non-decreasing in v.
        let mut prev_idx = 0;
        for v in (0..4096u64).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_of(v);
            assert!(idx >= prev_idx || v < 4096, "non-monotonic at {v}");
            prev_idx = idx.max(prev_idx);
            let lo = bucket_lo(idx);
            let w = bucket_width(idx);
            assert!(
                v >= lo && v - lo < w,
                "v={v} idx={idx} lo={lo} width={w}"
            );
            assert!(idx < BUCKETS, "idx {idx} out of range for v={v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..=40u64 {
            h.observe(v);
        }
        // Values below 2*SUB (64) are bucketed exactly: the median of
        // 0..=40 is 20 precisely.
        assert_eq!(h.quantile(0.5), 20);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 40);
        assert_eq!(h.count(), 41);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.observe(v);
        }
        for (q, exact) in [(0.50, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let est = h.quantile(q) as f64;
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.04, "q={q}: est={est} exact={exact} rel={rel}");
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0) , h.max());
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = Histogram::new();
        h.observe(0);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(0.9) > u64::MAX / 2);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile is 0, including the boundaries.
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);

        // Single sample: every quantile is that sample.
        let mut h = Histogram::new();
        h.observe(1234);
        for q in [0.0, 0.001, 0.5, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 1234, "q={q}");
        }

        // Out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(-3.0), 1234);
        assert_eq!(h.quantile(7.5), 1234);
        assert_eq!(h.quantile(f64::NAN), 1234); // NaN degrades to rank 1

        // q=0.0 targets rank 1 (the minimum's bucket), q=1.0 the max.
        let mut h = Histogram::new();
        h.observe(10);
        h.observe(1_000_000);
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn quantile_at_bucket_boundaries() {
        // Values exactly on power-of-two bucket edges: the estimate must
        // stay within the clamped [min, max] range and within one
        // sub-bucket of the true value.
        for v in [1u64, 31, 32, 33, 63, 64, 1 << 20, (1 << 20) + 1] {
            let mut h = Histogram::new();
            for _ in 0..100 {
                h.observe(v);
            }
            let est = h.quantile(0.5);
            assert_eq!(est, v, "all-equal samples must report exactly v={v}");
        }
        // Two adjacent boundary values: p50 lands on the lower one.
        let mut h = Histogram::new();
        h.observe(64);
        h.observe(65);
        let p50 = h.quantile(0.5);
        assert!((64..=65).contains(&p50), "p50={p50}");
        assert_eq!(h.quantile(1.0), 65);
    }

    #[test]
    fn registry_orders_names_and_renders() {
        let mut r = Registry::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 2);
        r.observe("latency_us", 100);
        r.observe("latency_us", 200);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        let text = r.render_summary();
        assert!(text.contains("a.first"));
        assert!(text.contains("latency_us"));
        assert!(text.contains("n=2"));
    }

    #[test]
    fn a_name_built_at_run_time_reaches_the_literal_names_slot() {
        let mut r = Registry::new();
        let slot = r.counter_slot("web.loads_ok");
        r.counter_add_at(slot, 2);
        let built = ["web", "loads_ok"].join(".");
        r.counter_add(&built, 3);
        assert_eq!(r.counter_slot(&built), slot);
        assert_eq!(r.counter("web.loads_ok"), 5);
        assert_eq!(r.counters().count(), 1);
        let h = r.histogram_slot("web.plt_us");
        r.observe_at(h, 10);
        r.observe(&String::from("web.plt_us"), 30);
        assert_eq!(r.histogram("web.plt_us").map(Histogram::count), Some(2));
        assert_eq!(r.histograms().count(), 1);
    }

    #[test]
    fn reads_are_in_name_order_whatever_order_slots_were_made_in() {
        let mut r = Registry::new();
        for (name, by) in [("z.last", 1), ("m.mid", 2), ("a.first", 3), ("m.mid", 4)] {
            let slot = r.counter_slot(name);
            r.counter_add_at(slot, by);
        }
        for (name, v) in [("lat_us", 100), ("bytes", 1500), ("lat_us", 300)] {
            let slot = r.histogram_slot(name);
            r.observe_at(slot, v);
        }
        let copy = r.clone();
        r.counter_add("a.first", 1);
        let counters: Vec<(&str, u64)> = copy.counters().collect();
        assert_eq!(counters, [("a.first", 3), ("m.mid", 6), ("z.last", 1)]);
        assert_eq!(r.counter("a.first"), 4, "a clone does not share slots with its original");
        let names: Vec<&str> = copy.histograms().map(|(n, _)| n).collect();
        assert_eq!(names, ["bytes", "lat_us"]);
        assert_eq!(
            copy.render_summary(),
            format!(
                "counters:\n  {:<42} 3\n  {:<42} 6\n  {:<42} 1\nhistograms (µs or bytes):\n  \
                 {:<42} n=1 min=1500 p50=1500 p95=1500 p99=1500 max=1500 mean=1500.0\n  \
                 {:<42} n=2 min=100 p50=100 p95=299 p99=299 max=300 mean=200.0\n",
                "a.first", "m.mid", "z.last", "bytes", "lat_us"
            )
        );
        assert_eq!(
            format!("{copy:?}").split_once(", histograms").map(|(c, _)| c),
            Some(r#"Registry { counters: {"a.first": Counter(3), "m.mid": Counter(6), "z.last": Counter(1)}"#)
        );
    }
}
