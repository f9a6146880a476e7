//! Wall-clock self-profiler: where does the *simulator itself* spend
//! its cycles?
//!
//! Everything else in `sc-obs` is keyed to **simulation time** and
//! feeds the scientific record of a run. This module is the opposite:
//! it measures **wall-clock** cost per subsystem (event loop, TCP
//! engine, GFW classification, proxy/admission, shared cache, ciphers
//! and MACs, the browser/origin apps, the remote proxy) so the
//! repository benchmark (`benchmark/`, `--trace 1`) can attribute a
//! run's real-world cost to the layer that spent it.
//!
//! # Design constraints
//!
//! 1. **Strictly off by default.** The disabled path of [`scope`] is a
//!    thread-local flag read and a branch — no clock read, no
//!    allocation, nothing observable. Production scenarios and the
//!    determinism tests run with the profiler off and must pay nothing.
//! 2. **Never perturbs the simulation.** The profiler reads the wall
//!    clock but is *write-only* from the simulator's perspective: no
//!    simulator decision, RNG draw, or obs event depends on it, so
//!    `SC_TRACE` output is byte-identical with the profiler on or off
//!    (`tests/obs_trace_determinism.rs` pins this).
//! 3. **Exclusive (self) time.** Nested scopes pause their parent:
//!    entering [`Subsystem::Tcp`] inside [`Subsystem::EventLoop`]
//!    charges the TCP segment to TCP only. The per-subsystem numbers
//!    therefore sum to ≤ total wall time and never double count.
//!
//! 4. **Cheap while on.** A scope costs two clock reads, and on a run of
//!    a hundred thousand scopes the clock *is* the overhead. So the
//!    scope boundaries read raw ticks (the TSC on x86_64, about half the
//!    price of `Instant::now()`), [`report`] turns ticks into nanoseconds
//!    at a rate measured once per process against `Instant`, and the
//!    simulator opens its `EventLoop` scope once per run, not per event.
//!
//! Scope guards tolerate misuse: dropping a parent guard before a
//! still-live child closes the child's frame too (attributing its time
//! correctly), and the orphaned child guard's later drop is a no-op.
//!
//! # Allocation accounting
//!
//! [`CountingAlloc`] is a `GlobalAlloc` wrapper around the system
//! allocator that counts bytes allocated and tracks the in-use
//! high-water mark. It is **not** installed by this crate — the
//! benchmark binary (`benchmark/src/main.rs`) opts in with
//! `#[global_allocator]`, keeping ordinary builds on the untouched
//! system allocator.
//!
//! ```
//! use sc_obs::prof::{self, Subsystem};
//!
//! prof::reset();
//! prof::set_enabled(true);
//! {
//!     let _outer = prof::scope(Subsystem::EventLoop);
//!     {
//!         let _app = prof::scope(Subsystem::Web); // pauses EventLoop
//!         let _record = prof::scope(Subsystem::Crypto); // pauses Web
//!     }
//! }
//! prof::set_enabled(false);
//! let report = prof::report();
//! assert_eq!(report.scopes(Subsystem::EventLoop), 1);
//! assert_eq!(report.scopes(Subsystem::Web), 1);
//! assert_eq!(report.scopes(Subsystem::Crypto), 1);
//! assert_eq!(report.rows().count(), Subsystem::COUNT);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The instrumented subsystems, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// `sc-simnet`'s event loop, one scope per `run_until`: dequeue,
    /// routing, dispatch, and the callbacks of apps without a scope of
    /// their own (the tunnel stacks) — everything not claimed by a
    /// nested scope.
    EventLoop,
    /// The TCP engine (segment processing and retransmit timers).
    Tcp,
    /// GFW middlebox classification of transit packets.
    GfwClassify,
    /// The domestic proxy: tunnel handling, admission, resilience.
    Proxy,
    /// The shared content cache on the proxy's gateway path.
    Cache,
    /// Ciphers, MACs and key derivation on the data path: a TLS endpoint
    /// sealing or opening records (handshake included), the ScholarCloud
    /// stream codec, a tunnel sealing or opening a packet or cell. One
    /// scope per record or per call into the endpoint, never per block.
    Crypto,
    /// The browser and origin-server apps' callbacks (HTTP, page-load
    /// bookkeeping), less the crypto they call.
    Web,
    /// The remote proxy's callbacks, less the crypto they call.
    Remote,
}

impl Subsystem {
    /// Number of subsystems (array sizing).
    pub const COUNT: usize = 8;

    /// All subsystems, in report order.
    pub const ALL: [Subsystem; Subsystem::COUNT] = [
        Subsystem::EventLoop,
        Subsystem::Tcp,
        Subsystem::GfwClassify,
        Subsystem::Proxy,
        Subsystem::Cache,
        Subsystem::Crypto,
        Subsystem::Web,
        Subsystem::Remote,
    ];

    /// Stable snake_case name, as the benchmark's `--trace 1` split prints it.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::EventLoop => "event_loop",
            Subsystem::Tcp => "tcp",
            Subsystem::GfwClassify => "gfw_classify",
            Subsystem::Proxy => "proxy",
            Subsystem::Cache => "cache",
            Subsystem::Crypto => "crypto",
            Subsystem::Web => "web",
            Subsystem::Remote => "remote",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// The clock the scope boundaries read, in ticks of its own.
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` reads a counter and has no preconditions.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Without a cycle counter to read, a tick is a nanosecond.
#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick, measured once per process: both clocks read
/// around a 2 ms spin. A stall inside the window stretches both alike.
fn ns_per_tick() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        let (t0, c0) = (Instant::now(), ticks());
        while t0.elapsed() < Duration::from_millis(2) {
            std::hint::spin_loop();
        }
        let (dt, dc) = (t0.elapsed(), ticks().saturating_sub(c0));
        dt.as_nanos() as f64 / dc.max(1) as f64
    })
}

#[derive(Default)]
struct ProfState {
    /// Exclusive wall ticks per subsystem.
    self_ticks: [u64; Subsystem::COUNT],
    /// Scopes entered per subsystem.
    scopes: [u64; Subsystem::COUNT],
    /// Open frames: `(subsystem, current segment start)`. The top
    /// frame's segment is live; deeper frames are paused.
    stack: Vec<(usize, u64)>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<ProfState> = RefCell::new(ProfState::default());
}

/// Turns the profiler on or off for this thread. Off is the default;
/// [`scope`] is a flag-read-and-branch while off.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Clears all accumulated numbers and any open frames (call between
/// benchmark scenarios).
pub fn reset() {
    STATE.with(|s| *s.borrow_mut() = ProfState::default());
}

/// Opens a scoped timer attributing exclusive wall time to `sub` until
/// the returned guard drops. Cheap no-op while the profiler is off.
#[inline]
pub fn scope(sub: Subsystem) -> ScopeGuard {
    if !ENABLED.with(|e| e.get()) {
        return ScopeGuard { depth: usize::MAX };
    }
    let now = ticks();
    let depth = STATE.with(|s| {
        let mut st = s.borrow_mut();
        st.scopes[sub.idx()] += 1;
        // Pause the parent: bank its live segment up to now.
        if let Some((parent, seg_start)) = st.stack.last_mut() {
            let parent = *parent;
            let elapsed = now.saturating_sub(*seg_start);
            *seg_start = now;
            st.self_ticks[parent] += elapsed;
        }
        st.stack.push((sub.idx(), now));
        st.stack.len()
    });
    ScopeGuard { depth }
}

/// RAII guard from [`scope`]; dropping it banks the subsystem's live
/// segment and resumes the parent frame.
#[must_use = "dropping the guard immediately measures nothing"]
pub struct ScopeGuard {
    /// Stack depth of this frame (1-based); `usize::MAX` marks the
    /// inert guard handed out while the profiler is off.
    depth: usize,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.depth == usize::MAX {
            return;
        }
        let now = ticks();
        STATE.with(|s| {
            let mut st = s.borrow_mut();
            // Misuse tolerance: if an out-of-order parent drop already
            // closed this frame, the stack is shorter than our depth —
            // nothing left to do. Otherwise close every frame above us
            // (orphaned children) and then our own, attributing each
            // banked segment to its own subsystem.
            while st.stack.len() >= self.depth {
                let (sub, seg_start) = st.stack.pop().expect("len checked");
                st.self_ticks[sub] += now.saturating_sub(seg_start);
            }
            // Resume the parent frame's segment from now.
            if let Some((_, seg_start)) = st.stack.last_mut() {
                *seg_start = now;
            }
        });
    }
}

/// Immutable snapshot of the profiler's accumulated numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfReport {
    self_ns: [u64; Subsystem::COUNT],
    scopes: [u64; Subsystem::COUNT],
}

impl ProfReport {
    /// Exclusive wall nanoseconds attributed to `sub`.
    pub fn self_ns(&self, sub: Subsystem) -> u64 {
        self.self_ns[sub.idx()]
    }

    /// Scopes entered for `sub`.
    pub fn scopes(&self, sub: Subsystem) -> u64 {
        self.scopes[sub.idx()]
    }

    /// Sum of exclusive time across all subsystems (ns). Because
    /// attribution is exclusive, this never exceeds real wall time.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// `(subsystem, self_ns, scopes)` rows in report order.
    pub fn rows(&self) -> impl Iterator<Item = (Subsystem, u64, u64)> + '_ {
        Subsystem::ALL
            .iter()
            .map(|&s| (s, self.self_ns[s.idx()], self.scopes[s.idx()]))
    }

    /// Whether any scope was recorded at all.
    pub fn any(&self) -> bool {
        self.scopes.iter().any(|&n| n > 0)
    }
}

/// Snapshot of the numbers accumulated since the last [`reset`]. Open
/// frames contribute their banked segments only (the live segment up to
/// the last pause), so calling this mid-scope undercounts the open
/// frame rather than double counting.
pub fn report() -> ProfReport {
    let rate = ns_per_tick();
    STATE.with(|s| {
        let st = s.borrow();
        ProfReport {
            self_ns: st.self_ticks.map(|t| (t as f64 * rate) as u64),
            scopes: st.scopes,
        }
    })
}

// ---------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static IN_USE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator. Install it from a
/// harness binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sc_obs::prof::CountingAlloc = sc_obs::prof::CountingAlloc;
/// ```
///
/// Counters use relaxed atomics: totals are exact, and the peak is
/// exact for single-threaded harnesses (the simulator is
/// single-threaded by design).
pub struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the bookkeeping performs no
// allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        IN_USE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            IN_USE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            record_alloc(new_size as u64);
        }
        p
    }
}

fn record_alloc(size: u64) {
    ALLOCATED.fetch_add(size, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let in_use = IN_USE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(in_use, Ordering::Relaxed);
}

/// Snapshot of the [`CountingAlloc`] counters. All zeros unless a
/// harness installed the allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Total bytes ever allocated (monotonic).
    pub allocated_bytes: u64,
    /// Total allocation calls (monotonic; reallocs count once).
    pub allocations: u64,
    /// Bytes currently live.
    pub in_use_bytes: u64,
    /// High-water mark of live bytes since the last
    /// [`reset_alloc_peak`].
    pub peak_bytes: u64,
}

/// Reads the allocation counters.
pub fn alloc_stats() -> AllocStats {
    AllocStats {
        allocated_bytes: ALLOCATED.load(Ordering::Relaxed),
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        in_use_bytes: IN_USE.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
    }
}

/// Rebases the peak to the current in-use level, so per-scenario peaks
/// measure the scenario rather than harness startup.
pub fn reset_alloc_peak() {
    PEAK.store(IN_USE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes prof tests within this binary: state is thread-local
    /// but the test harness may reuse threads.
    fn fresh() {
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_by_default_and_inert() {
        fresh();
        {
            let _g = scope(Subsystem::Tcp);
            let _h = scope(Subsystem::Cache);
        }
        let r = report();
        assert!(!r.any());
        assert_eq!(r.total_ns(), 0);
    }

    #[test]
    fn nested_scopes_attribute_exclusive_time() {
        fresh();
        set_enabled(true);
        {
            let _outer = scope(Subsystem::EventLoop);
            spin(200);
            {
                let _inner = scope(Subsystem::Tcp);
                spin(200);
            }
            spin(200);
        }
        set_enabled(false);
        let r = report();
        assert_eq!(r.scopes(Subsystem::EventLoop), 1);
        assert_eq!(r.scopes(Subsystem::Tcp), 1);
        assert!(r.self_ns(Subsystem::EventLoop) > 0);
        assert!(r.self_ns(Subsystem::Tcp) > 0);
        // Exclusive attribution: both banked something, and the total is
        // the sum of disjoint segments.
        assert_eq!(
            r.total_ns(),
            r.self_ns(Subsystem::EventLoop) + r.self_ns(Subsystem::Tcp)
        );
    }

    #[test]
    fn reentrant_same_subsystem_counts_each_scope() {
        fresh();
        set_enabled(true);
        {
            let _a = scope(Subsystem::Proxy);
            let _b = scope(Subsystem::Proxy);
        }
        set_enabled(false);
        assert_eq!(report().scopes(Subsystem::Proxy), 2);
    }

    #[test]
    fn out_of_order_drop_is_tolerated() {
        fresh();
        set_enabled(true);
        let outer = scope(Subsystem::EventLoop);
        let inner = scope(Subsystem::Cache);
        spin(200);
        // Parent dropped first: closes the child frame too.
        drop(outer);
        let mid = report();
        assert_eq!(mid.scopes(Subsystem::Cache), 1);
        assert!(mid.self_ns(Subsystem::Cache) > 0);
        let banked = mid.total_ns();
        // The orphaned child guard's drop must be a no-op.
        drop(inner);
        set_enabled(false);
        assert_eq!(report().total_ns(), banked);
    }

    #[test]
    fn enabling_mid_run_only_counts_from_then_on() {
        fresh();
        let pre = scope(Subsystem::Tcp); // off: inert guard
        set_enabled(true);
        {
            let _g = scope(Subsystem::Cache);
        }
        drop(pre); // inert guard drop must not touch live state
        set_enabled(false);
        let r = report();
        assert_eq!(r.scopes(Subsystem::Tcp), 0);
        assert_eq!(r.scopes(Subsystem::Cache), 1);
    }

    #[test]
    fn reset_clears_everything() {
        fresh();
        set_enabled(true);
        {
            let _g = scope(Subsystem::GfwClassify);
        }
        reset();
        set_enabled(false);
        assert!(!report().any());
    }

    #[test]
    fn subsystem_names_are_stable() {
        let names: Vec<&str> = Subsystem::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["event_loop", "tcp", "gfw_classify", "proxy", "cache", "crypto", "web", "remote"]
        );
        // `idx()` is the discriminant: `ALL` must list the variants in
        // declaration order.
        for (i, s) in Subsystem::ALL.iter().enumerate() {
            assert_eq!(s.idx(), i);
        }
    }

    /// Burns a little wall time without sleeping (keeps tests fast and
    /// monotonic-clock friendly).
    fn spin(iters: u64) {
        let mut x = 0u64;
        for i in 0..iters {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
    }
}
