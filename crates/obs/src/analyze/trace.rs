//! The trace as the analyzer holds it: each line is parsed into one
//! reused event and folded into a [`Trace`] before the next is read, so
//! no pass holds every event. [`parse_trace`] folds a text and
//! [`read_trace`] a reader, one line at a time; [`analyze`] then does
//! the one part that depends on the window width (DESIGN.md §6l).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::BufRead;

use super::json::{parse_record, JsonValue, TraceEvent};
use super::spans::Pairing;
use super::{Section, TraceAnalysis};

/// A trace reduced to what [`analyze`] reads: every count, list and
/// section aggregate no window width changes, the interference
/// timestamps per rule, and — while it is being read — the spans still
/// open. It borrows nothing from the text it was read from.
#[derive(Debug, Default)]
pub struct Trace {
    /// The analysis with every window-independent part filled in;
    /// complete once the last line is in.
    reduced: TraceAnalysis,
    /// rule → when its interference events were stamped, in trace
    /// order.
    interference: BTreeMap<String, Vec<u64>>,
    /// Spans being paired; drained into `reduced` at the end.
    pairing: Pairing,
    /// The reused event's field list: empty between lines, holding its
    /// allocation from one to the next.
    fields: Vec<(Cow<'static, str>, JsonValue<'static>)>,
}

/// An empty field list's allocation, retyped to borrow from another
/// line. Collecting a `vec::IntoIter` through a `map` reuses its buffer
/// when the element layout is the same, as it is here.
fn recycle<'b>(
    mut fields: Vec<(Cow<'_, str>, JsonValue<'_>)>,
) -> Vec<(Cow<'b, str>, JsonValue<'b>)> {
    fields.clear();
    fields.into_iter().map(|_| unreachable!("the list was cleared")).collect()
}

impl Trace {
    /// Parses line `n` (1-based) into the reused event and folds it in;
    /// a blank line is skipped.
    fn push_line(&mut self, n: usize, line: &str) -> Result<(), String> {
        if line.trim().is_empty() {
            return Ok(());
        }
        let fields = recycle(std::mem::take(&mut self.fields));
        let ev = parse_record(line, fields).map_err(|e| format!("line {n}: {e}"))?;
        self.push(&ev);
        self.fields = recycle(ev.fields);
        Ok(())
    }

    /// Folds one event in. Each event goes to one reader. The spine's
    /// are tried first, in this order: span pairing (which also sums the
    /// relay spans' `bytes_down`), interference, SLO
    /// alerts, injected faults (anything under a `fault` target),
    /// failovers, retries, breakers. What they leave goes to the one section
    /// whose vocabulary lists it, if any. Text leaves the event only
    /// for what the trace keeps, once per distinct value for what
    /// repeats (components, span names, rules).
    pub(super) fn push(&mut self, ev: &TraceEvent<'_>) {
        let a = &mut self.reduced;
        a.events += 1;
        a.t_end_us = a.t_end_us.max(ev.t_us);
        // Looked up by the borrowed name; copied the first time only.
        match a.component_counts.get_mut(&*ev.component) {
            Some(n) => *n += 1,
            None => {
                a.component_counts.insert(ev.component.to_string(), 1);
            }
        }
        match &*ev.name {
            "span_start" => self.pairing.start(ev),
            "span_end" => {
                if ev.component == "scholarcloud" {
                    a.bytes_down += ev.get_u64("bytes_down").unwrap_or(0);
                }
                self.pairing.end(ev);
            }
            // Interference: GFW verdicts and the simnet drops they cause
            // both carry the rule label.
            "drop" | "censor_drop" if matches!(&*ev.component, "gfw" | "simnet") => {
                if let Some(rule) = ev.get_str("rule") {
                    match self.interference.get_mut(rule) {
                        Some(times) => times.push(ev.t_us),
                        None => {
                            self.interference.insert(rule.to_string(), vec![ev.t_us]);
                        }
                    }
                }
            }
            "fire" | "resolve" if ev.component == "slo" => {
                let slo = ev.get_str("slo").unwrap_or("?");
                let burn = ev.get("burn").and_then(JsonValue::as_f64).unwrap_or(0.0);
                a.slo_alerts.push((ev.t_us, ev.name.to_string(), slo.to_string(), burn));
                let exemplars = ev.get_str("exemplars").filter(|_| ev.name == "fire");
                let ids: Vec<u64> = exemplars
                    .into_iter()
                    .flat_map(|list| list.split(','))
                    .filter_map(|t| u64::from_str_radix(t.trim(), 16).ok())
                    .filter(|&t| t != 0)
                    .collect();
                if !ids.is_empty() {
                    a.alert_exemplars.push((ev.t_us, slo.to_string(), ids));
                }
            }
            // Injected faults: `simnet/fault/<kind>` and `gfw/fault/…`.
            _ if ev.target == "fault" => {
                a.faults.push((ev.t_us, format!("{}/{}", ev.component, ev.name)));
            }
            "failover" if ev.component == "scholarcloud" => a.failover_times.push(ev.t_us),
            "retry" if ev.component == "scholarcloud" => a.retries += 1,
            "breaker" if ev.component == "scholarcloud" => {
                let field = |key| ev.get_str(key).unwrap_or("?").to_string();
                a.breaker_transitions.push((ev.t_us, field("remote"), field("from"), field("to")));
            }
            _ => {
                let listed = |section: &&mut dyn Section| {
                    section.vocabulary().iter().any(|(component, target, names)| {
                        ev.component == *component
                            && ev.target == *target
                            && names.iter().any(|name| ev.name == *name)
                    })
                };
                if let Some(section) = a.sections_mut().into_iter().find(listed) {
                    section.ingest(ev);
                }
            }
        }
    }

    /// Closes the books after the last line: spans still open join
    /// their trees pinned to the trace end, and page loads, phases and
    /// trees are built.
    pub(super) fn finish(mut self) -> Trace {
        std::mem::take(&mut self.pairing).finish(&mut self.reduced);
        self
    }
}

/// Parses a whole JSONL trace, one line at a time, into a [`Trace`];
/// blank lines are skipped, any malformed line is an error carrying its
/// 1-based line number.
pub fn parse_trace(text: &str) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (i, line) in text.lines().enumerate() {
        trace.push_line(i + 1, line)?;
    }
    Ok(trace.finish())
}

/// Why [`read_trace`] stopped.
#[derive(Debug)]
pub enum ReadError {
    /// The reader failed, or what it returned is not UTF-8.
    Io(std::io::Error),
    /// A line is not a trace record: the error [`parse_trace`] gives
    /// for the same text, `line N: …`.
    Parse(String),
}

/// [`parse_trace`] over a reader: one line in memory at a time. Lines
/// end as [`str::lines`] ends them, at `\n` or `\r\n`.
pub fn read_trace(mut reader: impl BufRead) -> Result<Trace, ReadError> {
    let (mut trace, mut buf) = (Trace::default(), String::new());
    for n in 1.. {
        buf.clear();
        if reader.read_line(&mut buf).map_err(ReadError::Io)? == 0 {
            break;
        }
        let line = buf.strip_suffix('\n').map_or(&*buf, |l| l.strip_suffix('\r').unwrap_or(l));
        trace.push_line(n, line).map_err(ReadError::Parse)?;
    }
    Ok(trace.finish())
}

/// Analyzes a trace with `window_us`-wide timeline windows: the
/// window-independent analysis the trace holds, with each rule's
/// interference binned into windows.
pub fn analyze(trace: &Trace, window_us: u64) -> TraceAnalysis {
    let window_us = window_us.max(1);
    let rule_timeline = trace
        .interference
        .iter()
        .map(|(rule, times)| {
            let mut windows = BTreeMap::new();
            for t in times {
                *windows.entry(t / window_us).or_insert(0) += 1;
            }
            (rule.clone(), windows)
        })
        .collect();
    TraceAnalysis { window_us, rule_timeline, ..trace.reduced.clone() }
}
