//! `pbp-ledger compare <a.json> <b.json>`: the noise-aware gate.
//!
//! One row per (end-to-end metric, workload): each side's reported value
//! and extremes, the metric's bound, and a verdict. A difference is only
//! called `better` or `worse` when it exceeds both the bound and the noise
//! of the values compared; a metric whose noise is wider than its bound — or
//! unknown, because it was measured once, and the change is beyond the
//! bound — is `unresolved`, never `same` or `worse`.

use crate::spec::{all_workloads, Better, END_TO_END};
use crate::stats::Summary;
use pbp_trace::json::Json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How `b` stands against `a` for a metric that improves in direction
/// `better` and may worsen by the share `bound`.
pub fn verdict(better: Better, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    if a.value == 0.0 {
        return if b.value == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let change = (b.value - a.value) / a.value.abs();
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let (Some(noise_a), Some(noise_b)) = (a.noise(), b.noise()) else {
        // Measured once on a side: a change beyond the bound cannot be told
        // from an excursion of the machine, in either direction.
        return if change.abs() > bound {
            Verdict::Unresolved
        } else {
            Verdict::Same
        };
    };
    let noise = noise_a.max(noise_b);
    let threshold = bound.max(noise);
    if worse_by > threshold {
        Verdict::Worse
    } else if noise > bound {
        Verdict::Unresolved
    } else if -worse_by > threshold {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summary(record: &Json, workload: &str, metric: &str) -> Option<Summary> {
    let m = record
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?;
    let f = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Summary {
        value: f("value")?,
        median: f("median")?,
        min: f("min")?,
        max: f("max")?,
        spread: f("spread")?,
        count: f("count")? as usize,
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub type Row = (&'static str, &'static str, Summary, Summary, f64, Verdict);

/// The rows of the comparison, in table order: every gated pairing of
/// metric and workload. A record that lacks one is refused — a gate that
/// skipped what it could not find would pass a record with a workload cut
/// out.
pub fn rows(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for m in END_TO_END {
        for w in all_workloads() {
            let side = |record: &Json, which: &str| {
                summary(record, w.name, m.name)
                    .ok_or_else(|| format!("record {which} lacks {} on {}", m.name, w.name))
            };
            let (sa, sb) = (side(a, "a")?, side(b, "b")?);
            let v = verdict(m.better, m.bound, &sa, &sb);
            out.push((m.name, w.name, sa, sb, m.bound, v));
        }
    }
    Ok(out)
}

/// Prints the table; the exit code is 1 when any row is `worse`.
pub fn run(a: &Path, b: &Path) -> Result<i32, String> {
    let (ja, jb) = (load(a)?, load(b)?);
    let rows = rows(&ja, &jb)?;
    println!("a = {}\nb = {}", a.display(), b.display());
    println!(
        "{:<18} {:<14} {:>12} {:>25} {:>12} {:>25} {:>7} {:>6}  verdict",
        "metric",
        "workload",
        "a value",
        "a [min, max]",
        "b value",
        "b [min, max]",
        "change",
        "bound"
    );
    let mut counts = [0usize; 4];
    for (metric, workload, sa, sb, bound, v) in &rows {
        println!(
            "{metric:<18} {workload:<14} {:>12.5} {:>25} {:>12.5} {:>25} {:>+6.1}% {:>5.1}%  {}",
            sa.value,
            format!("[{:.5}, {:.5}]", sa.min, sa.max),
            sb.value,
            format!("[{:.5}, {:.5}]", sb.min, sb.max),
            if sa.value == 0.0 {
                0.0
            } else {
                (sb.value - sa.value) / sa.value * 100.0
            },
            bound * 100.0,
            v.as_str()
        );
        counts[*v as usize] += 1;
    }
    println!(
        "{} rows: {} better, {} same, {} worse, {} unresolved",
        rows.len(),
        counts[Verdict::Better as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(i32::from(counts[Verdict::Worse as usize] > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    /// A value from four repeats that carries the given noise.
    fn s(median: f64, noise: f64) -> Summary {
        let summary = Summary {
            spread: noise * 1.349 / 1.253,
            count: 4,
            ..Summary::single(median)
        };
        assert!((summary.noise().unwrap() - noise).abs() < 1e-12);
        summary
    }

    #[test]
    fn verdict_table() {
        use Better::{Higher, Lower};
        use Verdict::{Better as B, Same, Unresolved, Worse};
        let once = Summary::single;
        // (direction, bound, a, b, expected)
        let table = [
            // Within the bound, quiet: same — in both directions.
            (Higher, 0.05, s(100.0, 0.01), s(97.0, 0.01), Same),
            (Higher, 0.05, s(100.0, 0.01), s(103.0, 0.01), Same),
            (Lower, 0.10, s(10.0, 0.0), s(10.9, 0.0), Same),
            // Beyond the bound, quiet: the direction decides.
            (Higher, 0.05, s(100.0, 0.01), s(90.0, 0.01), Worse),
            (Higher, 0.05, s(100.0, 0.01), s(110.0, 0.01), B),
            (Lower, 0.10, s(10.0, 0.0), s(11.5, 0.0), Worse),
            (Lower, 0.10, s(10.0, 0.0), s(8.0, 0.0), B),
            // Noise wider than the bound: never `same`...
            (Higher, 0.05, s(100.0, 0.08), s(99.0, 0.02), Unresolved),
            (Lower, 0.05, s(10.0, 0.01), s(10.1, 0.09), Unresolved),
            // ...and a difference inside the noise is not called either way.
            (Higher, 0.05, s(100.0, 0.08), s(93.0, 0.02), Unresolved),
            (Higher, 0.05, s(100.0, 0.08), s(107.0, 0.02), Unresolved),
            // A difference beyond both bound and noise still resolves.
            (Higher, 0.05, s(100.0, 0.08), s(80.0, 0.02), Worse),
            // Measured once (peak memory): within the bound it is the same,
            // beyond it nothing can be said — on either side, either way.
            (Lower, 0.10, once(24.0), once(25.0), Same),
            (Lower, 0.10, once(24.0), once(32.5), Unresolved),
            (Lower, 0.10, once(32.5), once(24.0), Unresolved),
            (Lower, 0.10, s(24.0, 0.0), once(32.5), Unresolved),
            // Bit-identical deterministic metric.
            (Lower, 0.005, once(0.9618), once(0.9618), Same),
        ];
        for (i, (dir, bound, a, b, want)) in table.into_iter().enumerate() {
            assert_eq!(verdict(dir, bound, &a, &b), want, "row {i}");
        }
        assert_eq!(verdict(Lower, 0.1, &s(0.0, 0.0), &s(0.0, 0.0)), Same);
        assert_eq!(verdict(Lower, 0.1, &s(0.0, 0.0), &s(1.0, 0.0)), Unresolved);
    }

    /// A record holding every gated pair, `samples_per_s` at `sps`.
    fn record(sps: f64, without: Option<&str>) -> Json {
        let workloads: Vec<String> = all_workloads()
            .filter(|w| Some(w.name) != without)
            .map(|w| {
                let metrics: Vec<String> = END_TO_END
                    .iter()
                    .map(|m| {
                        let v = if m.name == spec::SAMPLES_PER_S { sps } else { 1.0 };
                        format!(
                            "\"{}\":{{\"value\":{v},\"median\":{v},\"min\":{v},\"max\":{v},\"spread\":0.01,\"count\":5}}",
                            m.name
                        )
                    })
                    .collect();
                format!(
                    "\"{}\":{{\"end_to_end\":{{\"metrics\":{{{}}}}}}}",
                    w.name,
                    metrics.join(",")
                )
            })
            .collect();
        Json::parse(&format!("{{\"workloads\":{{{}}}}}", workloads.join(","))).unwrap()
    }

    #[test]
    fn rows_cover_every_gated_pair_and_refuse_a_record_that_lacks_one() {
        let got = rows(&record(900.0, None), &record(600.0, None)).unwrap();
        let gated = END_TO_END
            .iter()
            .flat_map(|m| all_workloads().map(move |w| (m.name, w.name)))
            .count();
        assert_eq!(got.len(), gated);
        for (metric, workload, _, _, _, v) in &got {
            let want = if *metric == spec::SAMPLES_PER_S {
                Verdict::Worse
            } else {
                Verdict::Same
            };
            assert_eq!(*v, want, "{metric} on {workload}");
        }
        let err = rows(&record(900.0, None), &record(900.0, Some("fine.dist2"))).unwrap_err();
        assert!(
            err.contains("record b lacks") && err.contains("fine.dist2"),
            "{err}"
        );
    }
}
