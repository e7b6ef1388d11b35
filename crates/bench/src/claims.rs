//! The paper's claims, as data.
//!
//! `results/` pins every number byte for byte (tests/results_contract.rs);
//! the [`CLAIMS`] table says which of them the paper's argument rests on.
//! Each [`Claim`] is an id (`E17.scale-out`: its experiment, a dot, a
//! name), the paper claim or §6 question it answers, the sentence it
//! states, and a function that reads the experiment's `metrics` into
//! [`Check`]s: labelled values, each held to a [`Bound`]. [`evaluate`]
//! makes a [`Verdict`] of a claim: whether every check holds, the values
//! read, and the margin from flipping. [`crate::ExperimentReport::new`]
//! evaluates its experiment's claims, so `results/<slug>.json` carries them
//! as `claims` and `results/<slug>.txt` ends with a `Claims:` block. A
//! change that overturns a conclusion fails [`assert_hold`] even when the
//! files are regenerated, naming the claim and the values it read.

use crate::report::{round4, Json};
use crate::ExperimentReport;

mod table;

pub use table::CLAIMS;

/// The bound a check's value keeps: a comparison with a number, or an
/// order over a sequence of values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    AtLeast(f64),
    Above(f64),
    AtMost(f64),
    Below(f64),
    /// No value above the one before it.
    NonIncreasing,
    /// No value below the one before it.
    NonDecreasing,
}

/// One labelled reading of a claim's metrics and the bound it keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub label: String,
    /// One value, or the sequence an order reads.
    pub values: Vec<f64>,
    pub bound: Bound,
}

fn check(label: impl Into<String>, values: Vec<f64>, bound: Bound) -> Check {
    Check {
        label: label.into(),
        values,
        bound,
    }
}

/// `value >= bound`.
pub fn at_least(label: impl Into<String>, value: f64, bound: f64) -> Check {
    check(label, vec![value], Bound::AtLeast(bound))
}

/// `value > bound`.
pub fn above(label: impl Into<String>, value: f64, bound: f64) -> Check {
    check(label, vec![value], Bound::Above(bound))
}

/// `value <= bound`.
pub fn at_most(label: impl Into<String>, value: f64, bound: f64) -> Check {
    check(label, vec![value], Bound::AtMost(bound))
}

/// `value < bound`.
pub fn below(label: impl Into<String>, value: f64, bound: f64) -> Check {
    check(label, vec![value], Bound::Below(bound))
}

/// Each of two or more values at most the one before it.
pub fn non_increasing(label: impl Into<String>, values: Vec<f64>) -> Check {
    assert!(values.len() > 1, "an order needs two values");
    check(label, values, Bound::NonIncreasing)
}

/// Each of two or more values at least the one before it.
pub fn non_decreasing(label: impl Into<String>, values: Vec<f64>) -> Check {
    assert!(values.len() > 1, "an order needs two values");
    check(label, values, Bound::NonDecreasing)
}

impl Check {
    /// Each comparison the check makes, as (slack on the side that holds,
    /// the bound, whether it is strict): one, or one per step of an order.
    fn slacks(&self) -> Vec<(f64, f64, bool)> {
        let (v, steps) = (self.values[0], self.values.windows(2));
        match self.bound {
            Bound::AtLeast(b) => vec![(v - b, b, false)],
            Bound::Above(b) => vec![(v - b, b, true)],
            Bound::AtMost(b) => vec![(b - v, b, false)],
            Bound::Below(b) => vec![(b - v, b, true)],
            Bound::NonIncreasing => steps.map(|w| (w[0] - w[1], w[0], false)).collect(),
            Bound::NonDecreasing => steps.map(|w| (w[1] - w[0], w[0], false)).collect(),
        }
    }

    /// Whether every comparison holds.
    pub fn holds(&self) -> bool {
        self.slacks()
            .into_iter()
            .all(|(slack, _, strict)| slack > 0.0 || (slack == 0.0 && !strict))
    }

    /// How far the tightest comparison sits from its bound, positive on the
    /// side that holds: the slack as a share of the bound, or as is for
    /// bounds within ±1 (a retention, a count of zero). 0 is an exact hold
    /// for `at_least`, `at_most` and the orders, a failure for the others.
    pub fn margin(&self) -> f64 {
        self.slacks()
            .into_iter()
            .map(|(slack, b, _)| slack / b.abs().max(1.0))
            .fold(f64::INFINITY, f64::min)
    }

    /// The bound's JSON name, its symbol, and its number (none for orders).
    fn parts(&self) -> (&'static str, &'static str, Option<f64>) {
        match self.bound {
            Bound::AtLeast(b) => ("at_least", ">=", Some(b)),
            Bound::Above(b) => ("above", ">", Some(b)),
            Bound::AtMost(b) => ("at_most", "<=", Some(b)),
            Bound::Below(b) => ("below", "<", Some(b)),
            Bound::NonIncreasing => ("non-increasing", "", None),
            Bound::NonDecreasing => ("non-decreasing", "", None),
        }
    }

    /// `label 0.9385 >= 0.8`, or `label [4.75, 3.4] non-increasing`.
    fn render(&self) -> String {
        match self.parts() {
            (_, op, Some(b)) => format!("{} {} {op} {}", self.label, num(self.values[0]), num(b)),
            (order, _, None) => {
                let values: Vec<String> = self.values.iter().map(|&v| num(v)).collect();
                format!("{} [{}] {order}", self.label, values.join(", "))
            }
        }
    }

    fn to_json(&self) -> Json {
        let j = Json::obj().set("label", self.label.as_str());
        match self.parts() {
            (name, _, Some(b)) => j.set("value", round4(self.values[0])).set(name, round4(b)),
            (order, _, None) => {
                let values: Vec<f64> = self.values.iter().map(|&v| round4(v)).collect();
                j.set("values", values).set("order", order)
            }
        }
    }
}

/// A number as a claim line shows it: at most four decimals, no `.0`.
fn num(x: f64) -> String {
    round4(x).to_string()
}

/// One claim of the evaluation.
#[derive(Debug)]
pub struct Claim {
    /// `E<n>.<name>`, unique across the table.
    pub id: &'static str,
    /// The paper claim or §6 question the claim answers.
    pub answers: &'static str,
    /// What the claim says, in one sentence.
    pub statement: &'static str,
    /// Reads the experiment's full-run `metrics` into checks.
    pub checks: fn(&Json) -> Vec<Check>,
}

impl Claim {
    /// The id of the experiment whose metrics the claim reads (`E17`).
    pub fn experiment(&self) -> &'static str {
        self.id.split('.').next().unwrap_or(self.id)
    }
}

/// A claim evaluated on one run's metrics.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub claim: &'static Claim,
    /// Every check holds.
    pub holds: bool,
    /// The smallest [`Check::margin`] of the claim's checks.
    pub margin: f64,
    /// The checks, with the values they read.
    pub checks: Vec<Check>,
}

impl Verdict {
    fn word(&self) -> &'static str {
        if self.holds {
            "holds"
        } else {
            "FAILS"
        }
    }

    /// The claim's line in its report's `Claims:` block.
    pub fn line(&self) -> String {
        let checks: Vec<String> = self.checks.iter().map(Check::render).collect();
        format!(
            "{} {} (margin {}): {} [{}]",
            self.claim.id,
            self.word(),
            num(self.margin),
            self.claim.statement,
            checks.join("; ")
        )
    }

    /// The claim's object in its report's `claims` array.
    pub fn to_json(&self) -> Json {
        let checks = self.checks.iter().map(Check::to_json).collect();
        Json::obj()
            .set("id", self.claim.id)
            .set("answers", self.claim.answers)
            .set("claim", self.claim.statement)
            .set("verdict", self.word())
            .set("margin", round4(self.margin))
            .set("checks", Json::Arr(checks))
    }
}

/// Evaluates one claim on its experiment's metrics. Panics, naming the key,
/// when the metrics lack a value the claim reads.
pub fn evaluate(claim: &'static Claim, metrics: &Json) -> Verdict {
    let checks = (claim.checks)(metrics);
    Verdict {
        claim,
        holds: checks.iter().all(Check::holds),
        margin: checks
            .iter()
            .map(Check::margin)
            .fold(f64::INFINITY, f64::min),
        checks,
    }
}

/// Every claim of `experiment`, evaluated on its metrics, in table order.
pub fn evaluate_all(experiment: &str, metrics: &Json) -> Vec<Verdict> {
    let claims = CLAIMS.iter().filter(|c| c.experiment() == experiment);
    claims.map(|c| evaluate(c, metrics)).collect()
}

/// The `Claims:` block a report's text ends with: one line per claim.
pub fn block(verdicts: &[Verdict]) -> String {
    let lines: String = verdicts
        .iter()
        .map(|v| format!("- {}\n", v.line()))
        .collect();
    format!("Claims:\n{lines}")
}

/// Fails, listing each claim that fails with the values it read, unless
/// every claim of every report holds.
pub fn assert_hold<'a>(reports: impl IntoIterator<Item = &'a ExperimentReport>) {
    let broken: Vec<String> = reports
        .into_iter()
        .flat_map(|r| &r.claims)
        .filter(|v| !v.holds)
        .map(Verdict::line)
        .collect();
    assert!(
        broken.is_empty(),
        "{} claim(s) fail on the full run:\n{}",
        broken.len(),
        broken.join("\n")
    );
}

#[cfg(test)]
mod tests;
