//! Environment-driven trace collection for the examples and harnesses.
//!
//! Setting `SC_TRACE=/path/to/trace.jsonl` before running any example
//! installs a [`sc_obs`] dispatcher with a JSONL sink at `Debug` level,
//! so every instrumented component (simnet, gfw, scholarcloud, tunnels,
//! web, metrics) streams its events to that file. Traces are keyed to
//! simulation time and are byte-identical across runs of the same seeded
//! scenario.
//!
//! A run that reads back what happened reads the trace: [`ops_obs`]
//! keeps its Debug trace in a [`TraceBuf`] (and writes the same bytes to
//! `SC_TRACE`'s file when that is set), and [`OpsObs::finish`] hands
//! back [`sc_obs::analyze`]'s reading of it.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::rc::Rc;

use sc_obs::analyze::{analyze, parse_trace, TraceAnalysis};
use sc_obs::{Dispatcher, JsonlSink, Level, ObsGuard, SloSpec, WindowSpec};

/// The environment variable naming the JSONL trace destination.
pub const SC_TRACE_ENV: &str = "SC_TRACE";

/// A JSONL trace kept in memory: what a [`TraceBuf::sink`] writes stays
/// readable here after the sink has moved into a dispatcher.
#[derive(Clone, Default)]
pub struct TraceBuf(Rc<RefCell<Vec<u8>>>);

impl TraceBuf {
    /// A sink writing here.
    pub fn sink(&self) -> Box<JsonlSink> {
        Box::new(JsonlSink::new(Box::new(self.clone())))
    }

    /// What was written so far, leaving the buffer empty.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.borrow_mut())
    }
}

impl Write for TraceBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The same bytes to a [`TraceBuf`] and to `SC_TRACE`'s file.
struct Tee(TraceBuf, BufWriter<File>);

impl Write for Tee {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.1.write_all(data)?;
        self.0.write(data)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.1.flush()
    }
}

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
    let file = BufWriter::new(env_file()?);
    let sink = Box::new(JsonlSink::new(Box::new(file)));
    Some(Dispatcher::new().with_level(Level::Debug).with_sink(sink).install())
}

/// The file `SC_TRACE` names, created, or `None` — with a warning on
/// stderr when the file cannot be created — if the variable is unset,
/// empty or not creatable.
fn env_file() -> Option<File> {
    let path = std::env::var(SC_TRACE_ENV).ok().filter(|p| !p.is_empty())?;
    match File::create(&path) {
        Ok(file) => {
            eprintln!("[sc-obs] tracing to {path} (SC_TRACE)");
            Some(file)
        }
        Err(e) => {
            eprintln!("[sc-obs] SC_TRACE={path}: cannot create trace file: {e}");
            None
        }
    }
}

/// An installed operator-grade collector and the trace it keeps; see
/// [`ops_obs`].
pub struct OpsObs {
    guard: ObsGuard,
    trace: TraceBuf,
    window_us: u64,
}

impl OpsObs {
    /// Uninstalls the collector (flushing `SC_TRACE`'s file) and returns
    /// the analysis of the run's trace, at the collector's window width.
    pub fn finish(self) -> TraceAnalysis {
        drop(self.guard);
        let text = String::from_utf8(self.trace.take()).expect("JSONL traces are UTF-8");
        analyze(&parse_trace(&text).expect("the dispatcher's lines parse"), self.window_us)
    }
}

/// Installs an operator-grade collector: windowed time-series with the
/// given geometry, the given SLOs evaluated as simulation time advances
/// (alerts flow through the normal sink path), and a Debug-level JSONL
/// sink capturing everything including the alerts — in memory, and in
/// `SC_TRACE`'s file as well when that is set.
///
/// ```no_run
/// let obs = sc_metrics::trace::ops_obs(
///     sc_obs::WindowSpec::seconds(10),
///     sc_metrics::scenario::default_slos(),
/// );
/// // ... run the scenario, render dashboards, then:
/// let fired = sc_obs::with_slo_engine(|e| e.total_fired()).unwrap_or(0);
/// let failovers = obs.finish().failover_times.len();
/// # let _ = (fired, failovers);
/// ```
pub fn ops_obs(windows: WindowSpec, slos: Vec<SloSpec>) -> OpsObs {
    let trace = TraceBuf::default();
    let sink = match env_file() {
        Some(file) => Box::new(JsonlSink::new(Box::new(Tee(trace.clone(), BufWriter::new(file))))),
        None => trace.sink(),
    };
    let guard = Dispatcher::new()
        .with_level(Level::Debug)
        .with_windows(windows)
        .with_slos(slos)
        .with_sink(sink)
        .install();
    OpsObs { guard, trace, window_us: windows.width_us }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{default_slos, run_scenario, Method, ScenarioConfig};

    #[test]
    fn ops_obs_hands_back_the_analysis_of_the_run_it_traced() {
        let obs = super::ops_obs(sc_obs::WindowSpec::seconds(10), default_slos());
        let mut cfg = ScenarioConfig::paper(Method::ScholarCloud, 21);
        cfg.loads = 3;
        let out = run_scenario(&cfg);
        let analysis = obs.finish();
        assert!(!sc_obs::is_active(), "finish uninstalls the collector");
        assert_eq!(out.failure_rate(), 0.0);
        assert_eq!(analysis.plts_us.len(), 3, "one PLT per load");
        assert!(analysis.bytes_down > 0, "the relay spans closed with their bytes");
        assert_eq!(analysis.window_us, 10_000_000);
    }
}
