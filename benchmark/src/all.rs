//! The `--all` pass: every workload in a process of its own, one record
//! with provenance, one line appended to the kept history.

use crate::report::{json_num, json_str, DETAIL_PREFIX};
use crate::spec::{all_workloads, END_TO_END, SAMPLES_PER_S};
use crate::sys::Provenance;
use pbp_trace::json::Json;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Substrate ratios people ask for; printed and recorded, never gated.
const RATIOS: [(&str, &str); 4] = [
    ("cnn.threaded", "cnn.seq"),
    ("cnn.dist2", "cnn.seq"),
    ("fine.threaded", "fine.seq"),
    ("fine.dist2", "fine.seq"),
];

/// Runs one workload in a child process; echoes its table and returns its
/// detail object and whether it exited cleanly.
fn run_child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(String, bool), String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    let lines: Vec<&str> = stdout.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        match line.strip_prefix(DETAIL_PREFIX) {
            Some(json) => detail = Some(json.to_string()),
            // The last line is the driver's result; the table is for people.
            None if i + 1 < lines.len() => println!("{line}"),
            None => {}
        }
    }
    std::io::stderr()
        .write_all(&out.stderr)
        .map_err(|e| e.to_string())?;
    let detail =
        detail.ok_or_else(|| format!("{workload}: no result (exit {:?})", out.status.code()))?;
    Ok((detail, out.status.success()))
}

fn provenance_json(p: &Provenance, seed: u64, seconds: f64, smoke: bool) -> String {
    let env: Vec<String> = p
        .pbp_env
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"commit\":{},\"dirty\":{},\"rustc\":{},\"cpu\":{},\"nproc\":{},\"pool_threads\":{},\"simd\":{},\"pbp_env\":{{{}}},\"seed\":{seed},\"seconds\":{},\"smoke\":{smoke},\"date\":{}}}",
        json_str(&p.commit),
        p.dirty,
        json_str(&p.rustc),
        json_str(&p.cpu),
        p.nproc,
        p.pool_threads,
        json_str(p.simd),
        env.join(","),
        json_num(seconds),
        json_str(&p.date)
    )
}

/// The value a run reported `metric` at.
fn value_of(detail: &Json, metric: &str) -> Option<f64> {
    detail.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Runs every workload, prints every metric, writes the record, appends to
/// the history. The exit code is 1 when any output check failed.
pub fn run(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let provenance = Provenance::collect(Path::new(".."));
    let started = std::time::Instant::now();
    let mut sections = Vec::new();
    let mut end_to_end: Vec<(&str, Json)> = Vec::new();
    let (mut attempted, mut failed, mut clean) = (0.0, 0.0, true);
    for w in all_workloads() {
        let (detail, ok) = run_child(&exe, w.name, seed, seconds, false, smoke)?;
        clean &= ok;
        let mut section = format!("{}:{{\"end_to_end\":{detail}", json_str(w.name));
        let parsed = Json::parse(&detail).map_err(|e| format!("{}: {e}", w.name))?;
        if trace {
            let (layers, ok) = run_child(&exe, w.name, seed, seconds, true, smoke)?;
            clean &= ok;
            let _ = write!(section, ",\"per_layer\":{layers}");
            let layers = Json::parse(&layers).map_err(|e| format!("{}: {e}", w.name))?;
            attempted += layers
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += layers.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        }
        section.push('}');
        sections.push(section);
        attempted += parsed
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        failed += parsed.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        end_to_end.push((w.name, parsed));
    }

    println!("== summary: reported values, seed {seed} ==");
    print!("{:<14}", "workload");
    for m in END_TO_END {
        print!(" {:>18}", format!("{} [{}]", m.name, m.unit));
    }
    println!();
    for (name, detail) in &end_to_end {
        print!("{name:<14}");
        for m in END_TO_END {
            print!(" {:>18.4}", value_of(detail, m.name).unwrap_or(0.0));
        }
        println!();
    }
    let sps = |name: &str| {
        end_to_end
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, d)| value_of(d, SAMPLES_PER_S))
    };
    let mut derived = Vec::new();
    for (top, base) in RATIOS {
        if let (Some(t), Some(b)) = (sps(top), sps(base)) {
            println!(
                "  {top} / {base} samples_per_s = {:.3} (base {b:.1} 1/s)",
                t / b
            );
            derived.push(format!(
                "{}:{}",
                json_str(&format!("{top}/{base}")),
                json_num(t / b)
            ));
        }
    }

    let record = format!(
        "{{\"schema\":\"pbp-ledger/1\",\"provenance\":{},\"workloads\":{{{}}},\"derived\":{{{}}},\"attempted\":{attempted},\"failed\":{failed},\"claim\":null}}\n",
        provenance_json(&provenance, seed, seconds, smoke),
        sections.join(","),
        derived.join(",")
    );
    let stamp = provenance.date.replace([':', '-'], "");
    let path = format!("out/ledger-seed{seed}-{stamp}.json");
    std::fs::write(&path, &record).map_err(|e| format!("{path}: {e}"))?;
    if !smoke {
        // One line per pass, append-only: the kept trajectory.
        let values: Vec<String> = end_to_end
            .iter()
            .map(|(name, detail)| {
                let ms: Vec<String> = END_TO_END
                    .iter()
                    .map(|m| {
                        format!(
                            "{}:{}",
                            json_str(m.name),
                            json_num(value_of(detail, m.name).unwrap_or(0.0))
                        )
                    })
                    .collect();
                format!("{}:{{{}}}", json_str(name), ms.join(","))
            })
            .collect();
        let line = format!(
            "{{\"provenance\":{},\"failed\":{failed},\"values\":{{{}}}}}\n",
            provenance_json(&provenance, seed, seconds, smoke),
            values.join(",")
        );
        std::fs::create_dir_all("results").map_err(|e| e.to_string())?;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open("results/history.jsonl")
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("results/history.jsonl: {e}"))?;
    }
    println!(
        "{{\"record\":{},\"workloads\":{},\"seconds\":{:.1},\"attempted\":{attempted},\"failed\":{failed},\"claim\":null}}",
        json_str(&format!("benchmark/{path}")),
        all_workloads().count(),
        started.elapsed().as_secs_f64()
    );
    Ok(i32::from(failed > 0.0 || !clean))
}
