//! The registry: every table, figure and ablation of the paper as one
//! [`Experiment`] — what to run, and the paper's claim about the result
//! as a predicate over the [`Report`], written next to the sentence it
//! encodes.
//!
//! A predicate is the paper's ordering with a stated margin, never fitted
//! to our numbers: one pooled standard deviation between `mean±std`
//! cells, [`POINT`] between seed means printed without a `±`, exact
//! between analytic values (see [`Cell`]). Where the full-scale record
//! fails its predicate the row says `reproduced: false`, and
//! `tests/paper_claims.rs` pins every verdict in both directions, the
//! failing clauses included.

mod analytic;
mod training;

use crate::report::{results_dir, Cell, Clause, RecordError, Rel, Report};
use crate::suite::Scale;
use std::path::Path;

/// What a claim comes to on a report: whether it holds, or the
/// [`RecordError`] of a report that lacks a row or column the claim reads.
pub type Claim = Result<Clause, RecordError>;

/// One table, figure or ablation of the paper.
pub struct Experiment {
    /// Registry name; its record is `results/<name>.txt`.
    pub name: &'static str,
    /// Where the paper shows it.
    pub paper: &'static str,
    /// True when it trains networks (minutes, seeded), false when it is
    /// closed-form analysis (seconds, exact).
    pub trains: bool,
    /// Produces the report at the given scale.
    pub run: fn(Scale) -> Report,
    /// The one sentence `claim` encodes.
    pub sentence: &'static str,
    /// The paper's claim about the report.
    pub claim: fn(&Report) -> Claim,
    /// Whether the committed full-scale record satisfies `claim`.
    pub reproduced: bool,
    /// For `reproduced: false`: the seeds behind the numbers that `claim`
    /// names in the clauses it fails.
    pub seeds: &'static str,
}

impl Experiment {
    const fn new(
        trains: bool,
        (name, paper): (&'static str, &'static str),
        run: fn(Scale) -> Report,
        sentence: &'static str,
        claim: fn(&Report) -> Claim,
    ) -> Self {
        let (reproduced, seeds) = (true, "");
        Experiment {
            name,
            paper,
            trains,
            run,
            sentence,
            claim,
            reproduced,
            seeds,
        }
    }

    const fn not_reproduced(mut self, seeds: &'static str) -> Self {
        (self.reproduced, self.seeds) = (false, seeds);
        self
    }

    /// Runs the experiment; the report's record is `results/<name>.txt`.
    pub fn report(&self, scale: Scale) -> Report {
        let mut report = (self.run)(scale);
        report.path = results_dir().join(format!("{}.txt", self.name));
        report
    }

    /// The claim's verdict on `report`, in words, held against
    /// `reproduced`: `Err` when the two differ — or when the record lacks
    /// what the claim reads, which no registered verdict excuses.
    pub fn check(&self, report: &Report) -> Result<String, String> {
        let clauses = |failing: String| failing.replace('\n', "\n  ");
        match ((self.claim)(report), self.reproduced) {
            (Err(unreadable), _) => Err(unreadable.to_string()),
            (Ok(Ok(())), true) => Ok("holds".to_string()),
            (Ok(Err(failing)), false) => Ok(format!(
                "fails, as registered ({}):\n  {}",
                self.seeds,
                clauses(failing)
            )),
            (Ok(Ok(())), false) => Err("holds, but is registered as not reproduced".to_string()),
            (Ok(Err(failing)), true) => Err(format!("FAILS:\n  {}", clauses(failing))),
        }
    }

    /// [`Experiment::check`] on the record `<dir>/<name>.txt`.
    pub fn check_record(&self, dir: &Path) -> Result<String, String> {
        let record = Report::load(dir, self.name).map_err(|e| e.to_string())?;
        self.check(&record)
    }
}

/// The margin between seed means printed without a `±`: one accuracy
/// point, three of the 300 validation samples.
const POINT: f64 = 1.0;

fn ensure(holds: bool, message: impl FnOnce() -> String) -> Clause {
    match holds {
        true => Ok(()),
        false => Err(message()),
    }
}

/// Every clause must hold; the error lists all that do not.
fn all(clauses: impl IntoIterator<Item = Clause>) -> Clause {
    let failed: Vec<String> = clauses.into_iter().filter_map(Result::err).collect();
    ensure(failed.is_empty(), || failed.join("\n"))
}

/// `a[i] rel b[i]` on every row.
fn rows(a: &[Cell], rel: Rel, b: &[Cell]) -> Vec<Clause> {
    a.iter().zip(b).map(|(a, b)| a.is(rel, b)).collect()
}

/// Each cell at or above the one before it.
fn rising(cells: &[Cell]) -> Vec<Clause> {
    cells
        .windows(2)
        .map(|w| w[1].is(Rel::NotBelow, &w[0]))
        .collect()
}

/// Index of the first smallest (`sign = 1`) or largest (`sign = -1`) cell
/// of a column ([`Report::nth`] hands out no table without rows).
fn arg_best(cells: &[Cell], sign: f64) -> usize {
    let key = |i: &usize| sign * cells[*i].mean;
    let best = (0..cells.len()).min_by(|a, b| key(a).total_cmp(&key(b)));
    best.expect("a column has one cell or more")
}

use analytic::*;
use training::*;

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    FIG2, FIG4, FIG5, FIG6, FIG7, FIG8, FIG9, FIG10, FIG12, FIG13, FIG14, FIG16, FIG17, TABLE1,
    TABLE2, TABLE3, TABLE4, TABLE6, APPA, APPD, BASELINES, WARMUP, WS_CONV, ADAM_DELAY, ASGD,
];
