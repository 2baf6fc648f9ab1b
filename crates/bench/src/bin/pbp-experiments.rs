//! The one runner of the paper's experiments (see `pbp_bench`).

use pbp_bench::{results_dir, Experiment, Scale, EXPERIMENTS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pbp-experiments list
       pbp-experiments [--record] <name>… | --all
       pbp-experiments --check [<dir>]
  list      the registry: name, paper reference, registered verdict
  <name>…   run experiments (--all: every one) at PBP_SCALE (default 1), print their
            tables, claim and verdict; --record rewrites results/<name>.txt (scale 1 only)
  --check   evaluate every claim on the records in <dir> (default results/) against
            its registered verdict; trains nothing";

fn usage(message: &str) -> ExitCode {
    eprintln!("pbp-experiments: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let is_flag = |arg: &&str| arg.starts_with("--");
    let (flags, names): (Vec<&str>, Vec<&str>) = args.iter().map(String::as_str).partition(is_flag);
    let known = ["--all", "--record", "--check"];
    if let Some(unknown) = flags.iter().find(|flag| !known.contains(flag)) {
        return usage(&format!("unknown option '{unknown}'"));
    }
    let (all, record) = (flags.contains(&"--all"), flags.contains(&"--record"));
    if flags.contains(&"--check") {
        let dir = names.first().map_or_else(results_dir, PathBuf::from);
        let mut failed = false;
        for e in EXPERIMENTS {
            let verdict = e.check_record(&dir);
            failed |= verdict.is_err();
            match verdict {
                Ok(verdict) => println!("ok    {}: {verdict}", e.name),
                Err(mismatch) => println!("FAIL  {}: {mismatch}", e.name),
            }
        }
        return ExitCode::from(u8::from(failed));
    }
    if names == ["list"] {
        for e in EXPERIMENTS {
            let verdict = if e.reproduced { "" } else { "NOT " };
            println!("{:<34}{:<26}{verdict}reproduced", e.name, e.paper);
        }
        return ExitCode::SUCCESS;
    }
    let scale = match std::env::var("PBP_SCALE").map(|value| Scale::parse(&value)) {
        Ok(Ok(scale)) => scale,
        Ok(Err(message)) => return usage(&message),
        Err(_) => Scale::FULL,
    };
    if record && scale != Scale::FULL {
        return usage("--record needs PBP_SCALE unset or 1: records are made at full scale");
    }
    let mut selected: Vec<&Experiment> = EXPERIMENTS.iter().filter(|_| all).collect();
    for name in names {
        let Some(e) = EXPERIMENTS.iter().find(|e| e.name == name) else {
            return usage(&format!(
                "no experiment '{name}' (see `pbp-experiments list`)"
            ));
        };
        selected.push(e);
    }
    if selected.is_empty() {
        return usage("nothing to run");
    }
    let mut failed = false;
    for e in selected {
        eprint!("{} ", e.name);
        let report = e.report(scale);
        eprintln!();
        let (text, verdict) = (report.render(), e.check(&report));
        // Away from full scale a claim may fail for lack of training.
        failed |= scale == Scale::FULL && verdict.is_err();
        let verdict = verdict.unwrap_or_else(|mismatch| mismatch);
        let (paper, sentence) = (e.paper, e.sentence);
        print!("{text}Claim ({paper}):\n{sentence}\nVerdict: {verdict}\n");
        if let Some(Err(err)) = record.then(|| std::fs::write(&report.path, &text)) {
            eprintln!("pbp-experiments: {}: {err}", report.path.display());
            failed = true;
        }
    }
    ExitCode::from(u8::from(failed))
}
