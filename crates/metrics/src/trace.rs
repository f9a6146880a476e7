//! Environment-driven trace collection for the examples and harnesses.
//!
//! Setting `SC_TRACE=/path/to/trace.jsonl` before running any example
//! installs a [`sc_obs`] dispatcher with a JSONL sink at `Debug` level,
//! so every instrumented component (simnet, gfw, scholarcloud, tunnels,
//! web, metrics) streams its events to that file. Traces are keyed to
//! simulation time and are byte-identical across runs of the same seeded
//! scenario.

use sc_obs::{Dispatcher, JsonlSink, Level, ObsGuard, SloSpec, WindowSpec};

/// The environment variable naming the JSONL trace destination.
pub const SC_TRACE_ENV: &str = "SC_TRACE";

/// Installs a JSONL trace collector if `SC_TRACE` is set, returning the
/// guard that keeps it active (drop it to flush and uninstall). Returns
/// `None` — and collects nothing — when the variable is unset or the
/// file cannot be created.
///
/// ```no_run
/// let _obs = sc_metrics::trace::obs_from_env();
/// // ... run scenarios; drop the guard (end of scope) to flush.
/// ```
pub fn obs_from_env() -> Option<ObsGuard> {
    let sink = env_sink()?;
    Some(Dispatcher::new().with_level(Level::Debug).with_sink(Box::new(sink)).install())
}

/// The JSONL sink `SC_TRACE` names, or `None` — with a warning on
/// stderr when the file cannot be created — if the variable is unset,
/// empty or not creatable.
fn env_sink() -> Option<JsonlSink> {
    let path = std::env::var(SC_TRACE_ENV).ok().filter(|p| !p.is_empty())?;
    match JsonlSink::create(&path) {
        Ok(sink) => {
            eprintln!("[sc-obs] tracing to {path} (SC_TRACE)");
            Some(sink)
        }
        Err(e) => {
            eprintln!("[sc-obs] SC_TRACE={path}: cannot create trace file: {e}");
            None
        }
    }
}

/// Installs an operator-grade collector: windowed time-series with the
/// given geometry, the given SLOs evaluated as simulation time advances
/// (alerts flow through the normal sink path), and — if `SC_TRACE` is
/// set — a JSONL sink capturing everything including the alerts.
///
/// ```no_run
/// let guard = sc_metrics::trace::ops_obs(
///     sc_obs::WindowSpec::seconds(10),
///     sc_metrics::scenario::default_slos(),
/// );
/// // ... run the scenario, render dashboards, then:
/// let fired = sc_obs::with_slo_engine(|e| e.total_fired()).unwrap_or(0);
/// drop(guard);
/// # let _ = fired;
/// ```
pub fn ops_obs(windows: WindowSpec, slos: Vec<SloSpec>) -> ObsGuard {
    let mut d = Dispatcher::new()
        .with_level(Level::Debug)
        .with_windows(windows)
        .with_slos(slos);
    if let Some(sink) = env_sink() {
        d = d.with_sink(Box::new(sink));
    }
    d.install()
}
