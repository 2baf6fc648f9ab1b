//! What a run prints: a table for people, a `detail` line the `--all`
//! pass collects, and the one-line JSON result the driver reads.

use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::{Outcome, RunOpts};
use std::fmt::Write as _;

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with all its digits; a value that is not finite has no JSON
/// form and is written as 0 (the run that produced it fails a check).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The outcome's metrics as (name, unit, summary) in table order, every
/// name a run with this `trace` setting must report present: a layer metric
/// the workload does not exercise reads 0.
pub fn complete_metrics(
    outcome: &Outcome,
    trace: bool,
) -> Vec<(&'static str, &'static str, Summary)> {
    let expected: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    expected
        .into_iter()
        .map(|(name, unit)| {
            let summary = outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(Summary::single(0.0), |(_, s)| *s);
            (name, unit, summary)
        })
        .collect()
}

/// The driver's result line.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = complete_metrics(outcome, trace)
        .into_iter()
        .map(|(name, unit, s)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(s.value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// Everything the `--all` pass keeps of a run, as one JSON object.
pub fn detail_json(workload: &str, opts: &RunOpts, outcome: &Outcome) -> String {
    let metrics: Vec<String> = complete_metrics(outcome, opts.trace)
        .into_iter()
        .map(|(name, unit, s)| {
            format!(
                "{}:{{\"value\":{},\"median\":{},\"min\":{},\"max\":{},\"spread\":{},\"count\":{},\"unit\":{}}}",
                json_str(name),
                json_num(s.value),
                json_num(s.median),
                json_num(s.min),
                json_num(s.max),
                json_num(s.spread),
                s.count,
                json_str(unit)
            )
        })
        .collect();
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let failures: Vec<String> = outcome.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{{{}}},\"notes\":{{{}}}}}",
        json_str(workload),
        opts.seed,
        u8::from(opts.trace),
        outcome.attempted,
        outcome.failed,
        failures.join(","),
        metrics.join(","),
        notes.join(",")
    )
}

/// Prefix of the line that carries [`detail_json`] on standard output.
pub const DETAIL_PREFIX: &str = "detail ";

/// Prints the table, the detail line and — last — the result line.
pub fn print_outcome(workload: &str, opts: &RunOpts, outcome: &Outcome) {
    println!(
        "== {workload}  seed {}  trace {}{} ==",
        opts.seed,
        u8::from(opts.trace),
        if opts.scale > 1 { "  (smoke size)" } else { "" }
    );
    if let Some(w) = spec::workload(workload) {
        println!("  why: {}", w.why);
    }
    for (name, unit, s) in complete_metrics(outcome, opts.trace) {
        // What gates the metric (end to end), or what it should move (a layer).
        let role = match END_TO_END.iter().find(|m| m.name == name) {
            Some(m) => format!(
                "  {} is better, bound {:.0}%",
                m.better.as_str(),
                m.bound * 100.0
            ),
            None => PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map_or(String::new(), |m| {
                    format!("  {} is better; moves {}", m.better.as_str(), m.moves)
                }),
        };
        if s.count > 1 {
            println!(
                "  {name:<34} {:>14.4} {unit:<8} median {:.4} min {:.4} max {:.4} n={} spread {:.1}%{role}",
                s.value,
                s.median,
                s.min,
                s.max,
                s.count,
                s.spread * 100.0
            );
        } else {
            println!("  {name:<34} {:>14.4} {unit:<8}{role}", s.value);
        }
    }
    for (k, v) in &outcome.notes {
        println!("  note {k} = {v}");
    }
    for f in &outcome.failures {
        println!("  FAILED {f}");
    }
    println!(
        "  ops attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    println!("{DETAIL_PREFIX}{}", detail_json(workload, opts, outcome));
    println!("{}", result_line(outcome, opts.trace));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_trace::json::Json;

    fn outcome() -> Outcome {
        let mut o = Outcome {
            attempted: 5,
            metrics: vec![
                (spec::SETUP_S, Summary::of(&[0.5, 0.25, 1.0])),
                (spec::SAMPLES_PER_S, Summary::single(1234.5678901234)),
            ],
            ..Outcome::default()
        };
        o.note("quote\"d", "line\nbreak\ttab\\");
        o
    }

    #[test]
    fn result_line_parses_back_with_exactly_the_contract_keys() {
        let opts_trace = false;
        let doc = Json::parse(&result_line(&outcome(), opts_trace)).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(5.0));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        let sps = doc
            .get("metrics")
            .unwrap()
            .get(spec::SAMPLES_PER_S)
            .unwrap();
        assert_eq!(
            sps.get("value").and_then(Json::as_f64),
            Some(1234.5678901234)
        );
        assert_eq!(sps.get("unit").and_then(Json::as_str), Some("1/s"));
        let setup = doc.get("metrics").unwrap().get(spec::SETUP_S).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.5));
    }

    #[test]
    fn traced_result_lists_every_layer_metric_and_zero_for_unexercised_ones() {
        let o = Outcome {
            metrics: vec![("tensor.peak_gflops", Summary::single(61.5))],
            ..Outcome::default()
        };
        let doc = Json::parse(&result_line(&o, true)).unwrap();
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), spec::PER_LAYER.len());
        let value = |n: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(n))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("tensor.peak_gflops"), Some(61.5));
        assert_eq!(value("serve.idle_rtt_us"), Some(0.0));
        // `attempted` is at least 1 even when a pass only probes.
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn failures_flip_correct_and_non_finite_values_stay_valid_json() {
        let mut o = outcome();
        o.fail("weights differ".into());
        o.metrics.push((spec::LOSS_MEAN, Summary::single(f64::NAN)));
        let doc = Json::parse(&result_line(&o, false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn detail_line_round_trips_escapes_through_the_repo_parser() {
        let opts = RunOpts {
            seed: 7,
            seconds: 1.0,
            trace: false,
            scale: 1,
        };
        let doc = Json::parse(&detail_json("cnn.seq", &opts, &outcome())).expect("valid JSON");
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("cnn.seq"));
        assert_eq!(doc.get("seed").and_then(Json::as_f64), Some(7.0));
        let note = doc
            .get("notes")
            .unwrap()
            .get("quote\"d")
            .and_then(Json::as_str);
        assert_eq!(note, Some("line\nbreak\ttab\\"));
        let setup = doc.get("metrics").unwrap().get(spec::SETUP_S).unwrap();
        assert_eq!(setup.get("min").and_then(Json::as_f64), Some(0.25));
        assert_eq!(setup.get("count").and_then(Json::as_f64), Some(3.0));
    }
}
