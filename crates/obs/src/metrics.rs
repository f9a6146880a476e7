//! The counter registry and the log-bucket arithmetic.
//!
//! A [`Registry`] holds named counters (`"simnet.packets_sent"`),
//! iterated in `BTreeMap` key order, so its `Debug` reads the same from
//! run to run. It keeps the counters the repository benchmark reads; a
//! fact anything else reads is read from the trace.
//!
//! The bucketing is HDR-style and logarithmic: values below
//! 2^[`SUB_BITS`] are bucketed exactly; above that, each power-of-two
//! octave is split into 2^[`SUB_BITS`] sub-buckets, bounding relative
//! quantile error at `1 / 2^SUB_BITS` (≈ 3% with the default of 5 bits).
//! A time-series window keeps its samples in these buckets.

use std::collections::BTreeMap;

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

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Index of the bucket covering `v`.
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

/// Named counters with deterministic iteration order.
///
/// Writes by name look the name up; the installed dispatcher resolves
/// each name its call sites pass once ([`Registry::counter_slot`]) and
/// writes by slot after.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Slots<Counter>,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::Window;

    /// A time-series window holding `samples`: where the buckets'
    /// quantile estimate is made.
    fn window(samples: impl IntoIterator<Item = u64>) -> Window {
        let mut w = Window::new(0);
        for v in samples {
            w.observe(v);
        }
        w
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(1);
        assert_eq!(c.get(), u64::MAX);
        c.add(1); // would wrap to 0 with wrapping arithmetic
        assert_eq!(c.get(), u64::MAX);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn buckets_are_contiguous_and_invertible() {
        // Every value maps into a bucket whose [lo, lo+width) contains it,
        // and bucket indices are monotonically non-decreasing in v.
        let buckets = (64 - SUB_BITS as usize) * SUB + SUB;
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
            assert!(idx < buckets, "idx {idx} out of range for v={v}");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let w = window(0..=40u64);
        // Values below 2*SUB (64) are bucketed exactly: the median of
        // 0..=40 is 20 precisely.
        assert_eq!(w.quantile(0.5), 20);
        assert_eq!(w.min(), 0);
        assert_eq!(w.max(), 40);
        assert_eq!(w.count(), 41);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let w = window(1..=100_000u64);
        for (q, exact) in [(0.50, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let est = w.quantile(q) as f64;
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.04, "q={q}: est={est} exact={exact} rel={rel}");
        }
        assert_eq!(w.quantile(0.0), 1);
        assert_eq!(w.quantile(1.0), w.max());
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let w = window([]);
        assert_eq!(w.count(), 0);
        assert_eq!(w.min(), 0);
        assert_eq!(w.max(), 0);
        assert_eq!(w.quantile(0.5), 0);
        assert_eq!(w.total(), 0);
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let w = window([0, u64::MAX, u64::MAX]);
        assert_eq!(w.count(), 3);
        assert_eq!(w.max(), u64::MAX);
        assert!(w.quantile(0.9) > u64::MAX / 2);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile is 0, including the boundaries.
        let w = window([]);
        assert_eq!(w.quantile(0.0), 0);
        assert_eq!(w.quantile(0.5), 0);
        assert_eq!(w.quantile(1.0), 0);

        // Single sample: every quantile is that sample.
        let w = window([1234]);
        for q in [0.0, 0.001, 0.5, 0.999, 1.0] {
            assert_eq!(w.quantile(q), 1234, "q={q}");
        }

        // Out-of-range q clamps rather than panicking.
        assert_eq!(w.quantile(-3.0), 1234);
        assert_eq!(w.quantile(7.5), 1234);
        assert_eq!(w.quantile(f64::NAN), 1234); // NaN degrades to rank 1

        // q=0.0 targets rank 1 (the minimum's bucket), q=1.0 the max.
        let w = window([10, 1_000_000]);
        assert_eq!(w.quantile(0.0), 10);
        assert_eq!(w.quantile(1.0), 1_000_000);
    }

    #[test]
    fn quantile_at_bucket_boundaries() {
        // Values exactly on power-of-two bucket edges: the estimate must
        // stay within the clamped [min, max] range and within one
        // sub-bucket of the true value.
        for v in [1u64, 31, 32, 33, 63, 64, 1 << 20, (1 << 20) + 1] {
            let est = window([v; 100]).quantile(0.5);
            assert_eq!(est, v, "all-equal samples must report exactly v={v}");
        }
        // Two adjacent boundary values: p50 lands on the lower one.
        let w = window([64, 65]);
        let p50 = w.quantile(0.5);
        assert!((64..=65).contains(&p50), "p50={p50}");
        assert_eq!(w.quantile(1.0), 65);
    }

    #[test]
    fn registry_orders_names_and_renders() {
        let mut r = Registry::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 2);
        assert_eq!(
            format!("{r:?}"),
            r#"Registry { counters: {"a.first": Counter(2), "z.last": Counter(1)} }"#
        );
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
        assert_eq!(r.counters.iter().count(), 1);
    }

    #[test]
    fn reads_are_in_name_order_whatever_order_slots_were_made_in() {
        let mut r = Registry::new();
        for (name, by) in [("z.last", 1), ("m.mid", 2), ("a.first", 3), ("m.mid", 4)] {
            let slot = r.counter_slot(name);
            r.counter_add_at(slot, by);
        }
        let copy = r.clone();
        r.counter_add("a.first", 1);
        let counters: Vec<(&str, u64)> = copy.counters.iter().map(|(n, c)| (n, c.get())).collect();
        assert_eq!(counters, [("a.first", 3), ("m.mid", 6), ("z.last", 1)]);
        assert_eq!(r.counter("a.first"), 4, "a clone does not share slots with its original");
        assert_eq!(
            format!("{copy:?}"),
            r#"Registry { counters: {"a.first": Counter(3), "m.mid": Counter(6), "z.last": Counter(1)} }"#
        );
    }
}
