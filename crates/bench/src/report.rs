//! Experiment output as data. A [`Report`] is the text an experiment
//! prints — free lines and aligned [`Table`]s — and reads back the text it
//! renders, so a claim predicate sees a fresh run and a committed
//! `results/<name>.txt` record through the same accessors. Every read of
//! a record is fallible with a typed [`RecordError`] naming the file, row
//! and column; nothing here panics on a record's content.

use std::fmt;
use std::path::{Path, PathBuf};

/// The committed records, `results/` at the repository root.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// A left-aligned text table. Cells are non-empty and hold no run of two
/// spaces (two spaces separate columns); the first column labels the row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// A table line: the label cell, then the others.
fn line<S: ToString>(label: impl ToString, rest: impl IntoIterator<Item = S>) -> Vec<String> {
    let rest = rest.into_iter().map(|cell| cell.to_string());
    [label.to_string()].into_iter().chain(rest).collect()
}

impl Table {
    /// Creates a table: the header of the label column, then the others.
    pub fn new<S: ToString>(label: impl ToString, headers: impl IntoIterator<Item = S>) -> Self {
        let (headers, rows) = (line(label, headers), Vec::new());
        Table { headers, rows }
    }

    /// Appends a row: its label, then its other cells.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header count.
    pub fn row<S: ToString>(&mut self, label: impl ToString, cells: impl IntoIterator<Item = S>) {
        let row = line(label, cells);
        assert_eq!(row.len(), self.headers.len(), "row length mismatch");
        self.rows.push(row);
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The rows, cell by cell; cell 0 is the label.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Header, rule, rows and a closing blank line. Widths count bytes
    /// while padding counts chars, so a column holding `±` or `κ` is a
    /// space wider than it needs to be — kept, because the committed
    /// records are compared byte for byte.
    fn render_into(&self, out: &mut String) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
        for cells in [&self.headers, &vec![rule]].into_iter().chain(&self.rows) {
            let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}"));
            out.push_str(&padded.collect::<Vec<_>>().join("  "));
            out.push('\n');
        }
        out.push('\n');
    }
}

fn split_cells(line: &str) -> Vec<String> {
    let cells = line.split("  ").map(str::trim).filter(|c| !c.is_empty());
    cells.map(str::to_string).collect()
}

#[derive(Debug, Clone, PartialEq)]
enum Block {
    Line(String),
    Table(Table),
}

/// Why a record could not be read, or lacks what a predicate asked of it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordError {
    /// The record file.
    pub file: String,
    /// The label of the row concerned, if one is.
    pub row: Option<String>,
    /// The header of the column concerned, if one is.
    pub column: Option<String>,
    /// What is wrong there.
    pub problem: String,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.file)?;
        for (axis, name) in [("row", &self.row), ("column", &self.column)] {
            if let Some(name) = name {
                write!(f, " {axis} '{name}'")?;
            }
        }
        write!(f, " {}", self.problem)
    }
}

fn error(file: &Path, row: Option<&str>, column: Option<&str>, problem: String) -> RecordError {
    let (row, column) = (row.map(str::to_string), column.map(str::to_string));
    let file = file.display().to_string();
    RecordError {
        file,
        row,
        column,
        problem,
    }
}

/// One experiment's output: free lines and tables in print order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// The record this report was read from, or is to be recorded at.
    pub path: PathBuf,
    blocks: Vec<Block>,
}

impl Report {
    /// The usual report: a title, a blank line, a table.
    pub fn titled(title: impl AsRef<str>, table: Table) -> Self {
        let mut report = Report::default();
        report.line(title).line("").table(table);
        report
    }

    /// Appends free text, one block per line.
    pub fn line(&mut self, text: impl AsRef<str>) -> &mut Self {
        let lines = text.as_ref().split('\n').map(|l| Block::Line(l.into()));
        self.blocks.extend(lines);
        self
    }

    /// Appends a table (rendered with a closing blank line).
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.blocks.push(Block::Table(table));
        self
    }

    /// The text this report prints and is recorded as.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            match block {
                Block::Line(line) => out.extend([line, "\n"]),
                Block::Table(table) => table.render_into(&mut out),
            }
        }
        out
    }

    /// Reads back [`Report::render`]'s text: a line followed by a rule of
    /// dashes heads a table that runs to the next blank line.
    pub fn parse(path: impl Into<PathBuf>, text: &str) -> Result<Report, RecordError> {
        let (path, mut blocks) = (path.into(), Vec::new());
        let lines: Vec<&str> = text.lines().collect();
        let is_rule = |line: &&str| !line.is_empty() && line.bytes().all(|b| b == b'-');
        let mut i = 0;
        while i < lines.len() {
            if !lines.get(i + 1).is_some_and(is_rule) {
                blocks.push(Block::Line(lines[i].to_string()));
                i += 1;
                continue;
            }
            let (headers, rows) = (split_cells(lines[i]), Vec::new());
            let mut table = Table { headers, rows };
            i += 2;
            while i < lines.len() && !lines[i].is_empty() {
                let cells = split_cells(lines[i]);
                if cells.len() != table.headers.len() {
                    let problem = format!("line {} does not have one cell per header", i + 1);
                    return Err(error(&path, None, None, problem));
                }
                table.rows.push(cells);
                i += 1;
            }
            i += 1; // the closing blank line
            blocks.push(Block::Table(table));
        }
        Ok(Report { path, blocks })
    }

    /// Reads the record `<dir>/<name>.txt`.
    pub fn load(dir: &Path, name: &str) -> Result<Report, RecordError> {
        let path = dir.join(format!("{name}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(text) => Report::parse(path, &text),
            Err(e) => Err(error(&path, None, None, e.to_string())),
        }
    }

    /// The record `name` beside this one (Fig. 9's claim reads Fig. 8's).
    pub fn sibling(&self, name: &str) -> Result<Report, RecordError> {
        Report::load(self.path.parent().unwrap_or(Path::new(".")), name)
    }

    /// The tables, in print order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.blocks.iter().filter_map(|b| match b {
            Block::Table(t) => Some(t),
            Block::Line(_) => None,
        })
    }

    /// The `index`-th table, which has one row or more, for reading. Cells
    /// that print no `±` carry `noise` as their standard deviation: 0 for
    /// exact values, a stated margin for seed means.
    pub fn nth(&self, index: usize, noise: f64) -> Result<View<'_>, RecordError> {
        let file = &self.path;
        let table = self.tables().nth(index).filter(|t| !t.rows.is_empty());
        let missing = || error(file, None, None, format!("has no table #{index} with rows"));
        table
            .map(|table| View { file, table, noise })
            .ok_or_else(missing)
    }
}

/// A table of a report, read by row label and column header.
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    file: &'a Path,
    table: &'a Table,
    noise: f64,
}

impl<'a> View<'a> {
    /// The row labels, in order.
    pub fn labels(&self) -> Vec<&'a str> {
        self.table.rows.iter().map(|r| r[0].as_str()).collect()
    }

    fn row(&self, row: &str) -> Result<&'a [String], RecordError> {
        let found = self.table.rows.iter().find(|r| r[0] == row);
        let missing = || error(self.file, Some(row), None, "is not in the table".into());
        found.map(Vec::as_slice).ok_or_else(missing)
    }

    fn column_index(&self, column: &str) -> Result<usize, RecordError> {
        let found = self.table.headers.iter().position(|h| h == column);
        found.ok_or_else(|| error(self.file, None, Some(column), "is not in the table".into()))
    }

    fn cell(&self, row: &[String], col: usize, column: &str) -> Result<Cell, RecordError> {
        let text = row[col].as_str();
        let body = text.strip_suffix('%').unwrap_or(text);
        let (mean, std) = match body.split_once('±') {
            Some((mean, std)) => (mean.parse(), std.parse()),
            None => (body.parse(), Ok(self.noise)),
        };
        let shown = format!("row '{}', column '{column}' = {text}", row[0]);
        match (mean, std) {
            (Ok(mean), Ok(std)) => Ok(Cell { shown, mean, std }),
            _ => {
                let problem = format!("holds '{text}', which is not numeric");
                Err(error(self.file, Some(&row[0]), Some(column), problem))
            }
        }
    }

    /// The cell, as printed, at the first row labelled `row`.
    pub fn text(&self, row: &str, column: &str) -> Result<&'a str, RecordError> {
        Ok(self.row(row)?[self.column_index(column)?].as_str())
    }

    /// The numeric cell at the first row labelled `row`.
    pub fn at(&self, row: &str, column: &str) -> Result<Cell, RecordError> {
        self.cell(self.row(row)?, self.column_index(column)?, column)
    }

    /// Every numeric cell of `column`, in row order: one or more.
    pub fn column(&self, column: &str) -> Result<Vec<Cell>, RecordError> {
        let (col, rows) = (self.column_index(column)?, &self.table.rows);
        rows.iter().map(|row| self.cell(row, col, column)).collect()
    }

    /// [`Cell::is`] between the cells at two `(row, column)` positions.
    pub fn is(&self, a: (&str, &str), rel: Rel, b: (&str, &str)) -> Result<Clause, RecordError> {
        Ok(self.at(a.0, a.1)?.is(rel, &self.at(b.0, b.1)?))
    }
}

/// Whether a claim, or one clause of it, holds on a record that has what
/// it reads: `Err` says what fails, naming rows, columns and numbers. A
/// record that lacks a row or column is a [`RecordError`] instead.
pub type Clause = Result<(), String>;

/// How two cells compare, given their margin (see [`Cell`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `a − b` exceeds the margin.
    Above,
    /// `b` is not above `a`: `a ≥ b − margin`.
    NotBelow,
    /// `|a − b|` is within the margin.
    Matches,
}

/// A numeric cell: `78.50±10.61` reads as (78.50, 10.61), `+4.3%` as 4.3.
/// Two cells compare with a stated margin — one pooled standard deviation,
/// `√((s₁² + s₂²)/2)`, which is zero, hence exact, between cells that
/// print no `±` in a table read without noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    shown: String,
    /// The value, or the mean of a `mean±std` cell.
    pub mean: f64,
    /// The standard deviation of a `mean±std` cell, else the view's noise.
    pub std: f64,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.shown)
    }
}

impl Cell {
    /// Checks `self rel other`; the error names both cells and the margin.
    pub fn is(&self, rel: Rel, other: &Cell) -> Clause {
        let margin = ((self.std * self.std + other.std * other.std) / 2.0).sqrt();
        let gap = self.mean - other.mean;
        let (holds, relation) = match rel {
            Rel::Above => (gap > margin, "above"),
            Rel::NotBelow => (gap >= -margin, "at or above"),
            Rel::Matches => (gap.abs() <= margin, "within the margin of"),
        };
        match holds {
            true => Ok(()),
            false => Err(format!(
                "{self} is not {relation} {other} (margin {margin:.2})"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Rel::*;
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> Report {
        let mut t = Table::new("network", ["PB", "PB+LWPvD+SCD", "|Δ|"]);
        t.row("RN20", ["78.50±10.61", "98.50±1.65", "+4.3%"]);
        t.row("RN 56", ["34.67±13.67", "81.33±8.01", "-23.3%"]);
        let mut report = Report::titled("== title ==", t);
        report.path = results_dir().join("sample.txt");
        report
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn table_rejects_bad_row() {
        Table::new("a", ["b"]).row("x", ["1", "2"]);
    }

    #[test]
    fn numeric_access_reads_mean_std_and_signed_percentages() {
        let r = sample();
        let t = r.nth(0, 0.0).unwrap();
        let cell = t.at("RN20", "PB").unwrap();
        assert_eq!((cell.mean, cell.std), (78.50, 10.61));
        let delta = t.at("RN20", "|Δ|").unwrap();
        assert_eq!((delta.mean, delta.std), (4.3, 0.0));
        assert_eq!(t.column("|Δ|").unwrap()[1].mean, -23.3);
        assert_eq!(t.text("RN 56", "network"), Ok("RN 56"));
        assert_eq!(t.labels(), ["RN20", "RN 56"]);
    }

    #[test]
    fn comparisons_use_the_pooled_std_and_name_both_cells() {
        let r = sample();
        let is = |noise, a, rel, b| r.nth(0, noise).unwrap().is(a, rel, b).unwrap();
        let (pb, fix) = (("RN20", "PB"), ("RN20", "PB+LWPvD+SCD"));
        // pooled std = √((10.61² + 1.65²)/2) ≈ 7.59 < 20.0
        assert!(is(0.0, fix, Above, pb).is_ok() && is(0.0, pb, NotBelow, fix).is_err());
        let err = is(0.0, pb, Matches, fix).unwrap_err();
        assert!(
            err.contains("row 'RN20', column 'PB' = 78.50±10.61"),
            "{err}"
        );
        assert!(err.contains("column 'PB+LWPvD+SCD'") && err.contains("7.59"));
        // Without a ± the comparison is exact unless the view states a noise.
        let (up, down) = (("RN20", "|Δ|"), ("RN 56", "|Δ|"));
        assert!(is(0.0, up, Above, down).is_ok() && is(0.0, up, Matches, up).is_ok());
        assert!(is(0.0, up, Matches, down).is_err() && is(30.0, up, Matches, down).is_ok());
    }

    #[test]
    fn missing_or_malformed_content_is_a_typed_error_never_a_panic() {
        let r = sample();
        let t = r.nth(0, 0.0).unwrap();
        let named = |e: RecordError| {
            assert!(e.file.ends_with("results/sample.txt"), "{e}");
            (e.row, e.column)
        };
        let some = |name: &str| Some(name.to_string());
        assert_eq!(
            named(t.at("RN110", "PB").unwrap_err()),
            (some("RN110"), None)
        );
        assert_eq!(named(t.column("SGDM").unwrap_err()), (None, some("SGDM")));
        let text = t.at("RN20", "network").unwrap_err();
        assert!(text.to_string().ends_with(
            "sample.txt: row 'RN20' column 'network' holds 'RN20', which is not numeric"
        ));
        assert_eq!(named(text), (some("RN20"), some("network")));
        assert_eq!(named(r.nth(1, 0.0).unwrap_err()), (None, None));
        let missing = t.is(("RN110", "PB"), Above, ("RN20", "PB")).unwrap_err();
        assert_eq!(named(missing), (some("RN110"), None));
        // A row one cell short of its header does not parse.
        let short = Report::parse("x.txt", "a  b\n----\n1  2\n3\n").unwrap_err();
        assert_eq!(
            short.to_string(),
            "x.txt: line 4 does not have one cell per header"
        );
        let absent = Report::load(Path::new("/nonexistent"), "fig0").unwrap_err();
        assert_eq!(absent.file, "/nonexistent/fig0.txt");
    }

    /// Cells as the experiments print them: words joined by single
    /// spaces, `±`, `%`, signs, and the non-ASCII headers in use.
    fn cell(rng: &mut StdRng) -> String {
        const WORDS: &str = "α κ |Δ| ηλ − ± % 78.50±10.61 +4.3% -23.3% m=1−1e-3 (T = αD) \
                             batch 1 0.0 a-b PB+LWPvD+SCD fill&drain";
        let words: Vec<&str> = WORDS.split(' ').collect();
        let picked = (0..rng.gen_range(1..4)).map(|_| words[rng.gen_range(0..words.len())]);
        picked.collect::<Vec<_>>().join(" ")
    }

    fn block(rng: &mut StdRng) -> Block {
        match rng.gen_range(0..4) {
            0 => Block::Line(String::new()),
            1 => Block::Line(cell(rng)),
            2 => Block::Line(format!("   ({}  x", cell(rng))),
            _ => {
                let (cols, rows) = (rng.gen_range(1..5), rng.gen_range(0..4));
                let mut row = || (0..cols).map(|_| cell(rng)).collect::<Vec<_>>();
                let (headers, rows) = (row(), (0..rows).map(|_| row()).collect());
                Block::Table(Table { headers, rows })
            }
        }
    }

    proptest! {
        #[test]
        fn a_report_reads_back_the_text_it_renders(seed in 0u64..1 << 40) {
            let mut rng = StdRng::seed_from_u64(seed);
            let blocks = (0..rng.gen_range(0..8)).map(|_| block(&mut rng)).collect();
            let report = Report { path: "results/x.txt".into(), blocks };
            let parsed = Report::parse("results/x.txt", &report.render());
            prop_assert_eq!(parsed, Ok(report));
        }
    }
}
