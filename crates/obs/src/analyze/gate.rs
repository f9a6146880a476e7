//! Gates: the `scholar-obs` flags that turn an analysis into a scenario
//! assertion. A [`Gate`] row says what a flag reads, which way it
//! bounds it, and what it says when the trace lacks the events it needs
//! (which fails the gate: a metric that cannot be computed did not
//! pass). The spine's rows are here; each layer's are in its section,
//! and [`gates`] is the whole table.

use super::TraceAnalysis;

/// What a gate's threshold is measured in.
#[derive(Clone, Copy)]
pub enum Unit {
    /// A share in `[0, 1]`, printed as a percentage.
    Fraction,
    /// A percentage in `[0, 100]`.
    Percent,
    /// A non-negative dollar amount.
    Dollars,
}

impl Unit {
    /// `(placeholder in the usage line, what a value must be, the
    /// largest one)`; the smallest is 0.
    fn spec(self) -> (&'static str, &'static str, f64) {
        match self {
            Unit::Fraction => ("FRAC", "a fraction in [0, 1]", 1.0),
            Unit::Percent => ("PCT", "a percentage in [0, 100]", 100.0),
            Unit::Dollars => ("DOLLARS", "a non-negative dollar amount", f64::MAX),
        }
    }

    fn show(self, v: f64) -> String {
        match self {
            Unit::Fraction => format!("{:.1}%", v * 100.0),
            Unit::Percent => format!("{v:.1}%"),
            Unit::Dollars => format!("{v:.6} USD"),
        }
    }
}

/// Which side of its threshold a metric must stay on.
#[derive(Clone, Copy)]
pub enum Bound {
    /// Gate passes when `metric >= threshold`.
    AtLeast,
    /// Gate passes when `metric <= threshold`.
    AtMost,
}

/// One gate flag: drives argument parsing, the check, and the usage
/// line.
pub struct Gate {
    /// The flag, dashes included.
    pub flag: &'static str,
    /// The threshold the flag takes; `None` for a bare `--require-…`
    /// flag, which only demands that `metric` is defined.
    pub threshold: Option<(Unit, Bound)>,
    /// Name of the metric in failure messages.
    pub what: &'static str,
    /// The metric in the threshold's unit; `None` when the trace lacks
    /// the events it is computed from.
    pub metric: fn(&TraceAnalysis) -> Option<f64>,
    /// Why the metric is undefined, when it is.
    pub undefined: &'static str,
    /// Appended to the "threshold missed" message.
    pub hint: &'static str,
}

impl Gate {
    /// The flag as the usage line shows it.
    pub fn usage(&self) -> String {
        let Some((unit, _)) = self.threshold else { return format!(" [{}]", self.flag) };
        let (placeholder, ..) = unit.spec();
        format!(" [{} {placeholder}]", self.flag)
    }

    /// Reads the flag's threshold off the arguments that follow it (a
    /// bare flag takes none); `Err` is the usage error.
    pub fn threshold_from(&self, args: &mut impl Iterator<Item = String>) -> Result<f64, String> {
        let Some((unit, _)) = self.threshold else { return Ok(0.0) };
        let (_, expects, largest) = unit.spec();
        let value = args.next().and_then(|v| v.parse::<f64>().ok());
        value
            .filter(|v| (0.0..=largest).contains(v))
            .ok_or_else(|| format!("{} expects {expects}", self.flag))
    }

    /// Checks the gate against `analysis`; `Err` is the failure message.
    pub fn check(&self, wanted: f64, analysis: &TraceAnalysis) -> Result<(), String> {
        let Some(got) = (self.metric)(analysis) else { return Err(self.undefined.to_string()) };
        let Some((unit, bound)) = self.threshold else { return Ok(()) };
        let (ok, missed) = match bound {
            Bound::AtLeast => (got >= wanted, "below required"),
            Bound::AtMost => (got <= wanted, "above allowed"),
        };
        if ok {
            return Ok(());
        }
        Err(format!("{} {} {missed} {}{}", self.what, unit.show(got), unit.show(wanted), self.hint))
    }
}

/// The gates that read what no single layer owns: page loads, the
/// resilience reaction, stitched trees, SLO alerts.
const SPINE: &[Gate] = &[
    // The chaos gate: the resilience layer reacted at least once.
    Gate {
        flag: "--require-failover",
        threshold: None,
        what: "failover",
        metric: |a| (!a.failover_times.is_empty()).then_some(1.0),
        undefined: "no scholarcloud failover events in trace",
        hint: "",
    },
    // Share of finished page loads that succeeded.
    Gate {
        flag: "--min-availability",
        threshold: Some((Unit::Fraction, Bound::AtLeast)),
        what: "availability",
        metric: |a| a.availability(),
        undefined: "no finished page loads, availability undefined",
        hint: "",
    },
    // Share of completed page loads that stitched into cross-tier
    // trees.
    Gate {
        flag: "--min-attribution-coverage",
        threshold: Some((Unit::Percent, Bound::AtLeast)),
        what: "attribution coverage",
        metric: |a| a.attribution_coverage().map(|c| c * 100.0),
        undefined: "no completed page loads, attribution coverage undefined",
        hint: " (completed loads not stitching across tiers)",
    },
    // At least one fired SLO alert carried exemplar trace ids.
    Gate {
        flag: "--require-exemplars",
        threshold: None,
        what: "exemplars",
        metric: |a| (!a.alert_exemplars.is_empty()).then_some(1.0),
        undefined: "no fired SLO alert carries exemplar trace ids",
        hint: "",
    },
];

/// Every gate flag `scholar-obs` takes: the spine's, then each
/// section's in report order.
pub fn gates() -> Vec<&'static Gate> {
    let blank = TraceAnalysis::default();
    let layers = blank.sections().into_iter().flat_map(|section| section.gates());
    SPINE.iter().chain(layers).collect()
}
