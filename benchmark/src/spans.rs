//! The harness's own spans, recorded around every call into a layer
//! during the traced rep and written out when the benchmark ends.
//!
//! Recording is off outside the traced rep, so end-to-end metrics are
//! never measured with it on.

use std::cell::RefCell;
use std::time::Instant;

/// One closed or open harness span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`simnet.run`, `obs.parse_trace`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was switched on.
    pub start_ns: u64,
    /// End, same clock; equal to `start_ns` while still open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: &'static str,
    /// Repetition label (`traced-0`, `micro`, …).
    pub rep: String,
}

#[derive(Default)]
struct Recorder {
    origin: Option<Instant>,
    workload: &'static str,
    rep: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// A token from [`enter`]; pass it to [`exit`].
#[derive(Debug, Clone, Copy)]
pub struct Token(Option<usize>);

/// Runs `f` with recording on, inside a root `bench.rep` span tagged
/// `workload`/`rep`; the root's self time is what the harness itself
/// spent between its calls into the layers. Recording is off again
/// afterwards, and [`enter`] a no-op.
pub fn recorded<R>(workload: &'static str, rep: impl Into<String>, f: impl FnOnce() -> R) -> R {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.origin.get_or_insert_with(Instant::now);
        r.workload = workload;
        r.rep = rep.into();
    });
    let out = within("bench.rep", f);
    REC.with(|r| r.borrow_mut().workload = "");
    out
}

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> Token {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.workload.is_empty() {
            return Token(None);
        }
        let now = r
            .origin
            .expect("recording implies an origin")
            .elapsed()
            .as_nanos() as u64;
        let span = Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: r.open.last().copied(),
            workload: r.workload,
            rep: r.rep.clone(),
        };
        let idx = r.spans.len();
        r.spans.push(span);
        r.open.push(idx);
        Token(Some(idx))
    })
}

/// Closes the span `token` names (and any span left open inside it).
pub fn exit(token: Token) {
    let Token(Some(idx)) = token else { return };
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let now = r
            .origin
            .expect("span implies an origin")
            .elapsed()
            .as_nanos() as u64;
        while let Some(top) = r.open.pop() {
            r.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    });
}

/// Runs `f` inside a span.
pub fn within<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let t = enter(name);
    let out = f();
    exit(t);
    out
}

/// All spans recorded so far.
pub fn snapshot() -> Vec<Span> {
    REC.with(|r| r.borrow().spans.clone())
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Renders spans as JSON lines (`name,start_ns,end_ns,parent,workload,rep`).
pub fn to_jsonl(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"workload\":\"{}\",\"rep\":\"{}\"}}",
            s.name, s.start_ns, s.end_ns, s.workload, s.rep
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            workload: "w",
            rep: "traced-0".to_string(),
        };
        let spans = [
            span("rep", 0, 100, None),
            span("metrics.build_scenario", 5, 15, Some(0)),
            span("simnet.run", 20, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 70]);
    }

    #[test]
    fn only_recorded_sections_leave_spans() {
        exit(enter("simnet.run"));
        assert!(snapshot().is_empty());
        recorded("w", "traced-0", || within("simnet.run", || ()));
        exit(enter("simnet.run"));
        let spans = snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("bench.rep", None));
        assert_eq!((spans[1].name, spans[1].parent), ("simnet.run", Some(0)));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(to_jsonl(&spans).lines().all(|l| l.starts_with("{\"id\":")));
    }
}
