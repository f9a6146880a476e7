//! Overload control: what the domestic proxy's admission layer did with
//! incoming tunnel requests.

use std::fmt::Write as _;

use crate::analyze::gate::{Bound, Gate, Unit};
use crate::analyze::json::{object, Row, TraceEvent};
use crate::analyze::{Section, Source, TraceAnalysis};

/// Aggregate of the domestic proxy's `scholarcloud/admission` events:
/// what the overload-control layer did with incoming tunnel requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionStats {
    /// Requests admitted (directly or after queueing).
    pub admitted: u64,
    /// Requests that went through the pending queue.
    pub queued: u64,
    /// Requests shed with `503` (queue full / deadline hopeless).
    pub shed: u64,
    /// Requests throttled with `429` (per-client fairness).
    pub throttled: u64,
    /// Retries denied by the global retry budget.
    pub retry_denied: u64,
}

impl AdmissionStats {
    /// Requests that reached a terminal admission decision.
    pub fn decisions(&self) -> u64 {
        self.admitted + self.shed + self.throttled
    }

    /// Fraction of decided requests that were shed or throttled
    /// (`0.0` when the trace carries no admission decisions).
    pub fn shed_rate(&self) -> f64 {
        let total = self.decisions();
        if total == 0 {
            return 0.0;
        }
        (self.shed + self.throttled) as f64 / total as f64
    }

    /// Whether any admission event appeared in the trace.
    pub fn any(&self) -> bool {
        self.decisions() + self.queued + self.retry_denied > 0
    }
}

const GATES: &[Gate] = &[
    // Share of admission decisions that shed or throttled the request
    // (the flash-crowd gate: overload may brown the service out, not
    // black it out). Zero, not undefined, without admission events.
    Gate {
        flag: "--max-shed-rate",
        threshold: Some((Unit::Fraction, Bound::AtMost)),
        what: "shed rate",
        metric: |a| Some(a.admission.shed_rate()),
        undefined: "",
        hint: "",
    },
];

impl Section for AdmissionStats {
    fn vocabulary(&self) -> &'static [Source] {
        const NAMES: &[&str] = &["admit", "enqueue", "dequeue", "shed", "throttle", "retry_denied"];
        &[("scholarcloud", "admission", NAMES)]
    }

    fn ingest(&mut self, ev: &TraceEvent<'_>) {
        match &*ev.name {
            // A dequeued request was admitted after waiting; its
            // earlier "enqueue" is counted under `queued`, so
            // admitted + shed + throttled counts each request once.
            "admit" | "dequeue" => self.admitted += 1,
            "enqueue" => self.queued += 1,
            "shed" => self.shed += 1,
            "throttle" => self.throttled += 1,
            _ => self.retry_denied += 1,
        }
    }

    fn report(&self, _: &TraceAnalysis, out: &mut String) {
        if !self.any() {
            return;
        }
        out.push_str("\noverload control (scholarcloud admission):\n");
        let _ = writeln!(out, "  admitted:     {}", self.admitted);
        let _ = writeln!(out, "  queued:       {}", self.queued);
        let _ = writeln!(out, "  shed (503):   {}", self.shed);
        let _ = writeln!(out, "  throttled:    {}", self.throttled);
        let _ = writeln!(out, "  retry denied: {}", self.retry_denied);
        let _ = writeln!(out, "  shed rate:    {:.1}%", self.shed_rate() * 100.0);
    }

    fn json(&self, _: &TraceAnalysis) -> Vec<Row> {
        vec![
            ("shed_rate", self.shed_rate().into()),
            ("admission", object(counters!(self, admitted, queued, shed, throttled, retry_denied))),
        ]
    }

    fn gates(&self) -> &'static [Gate] {
        GATES
    }
}
