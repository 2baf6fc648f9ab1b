//! Command line: parsing into a typed command, the refusals, dispatch.

use crate::sys::ForbiddenEnv;
use crate::{all, compare, report, serve, spec, train, train_trace, Outcome, RunOpts};
use std::fmt;
use std::path::PathBuf;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures unless
/// `--seconds` says otherwise.
pub const DEFAULT_SECONDS: f64 = 28.0;
/// Size divisor of `--smoke`.
pub const SMOKE_SCALE: usize = 16;

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    One {
        workload: String,
        opts: RunOpts,
    },
    All {
        seed: u64,
        seconds: f64,
        trace: bool,
        smoke: bool,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    Usage(String),
    UnknownWorkload(String),
    Env(ForbiddenEnv),
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(why) => write!(
                f,
                "{why}\nusage: pbp-ledger [--all] [--workload <name>] [--seed <n>] \
                 [--seconds <s>] [--trace [0|1]] [--smoke] | compare <a.json> <b.json>"
            ),
            CliError::UnknownWorkload(name) => {
                let names: Vec<&str> = spec::all_workloads().map(|w| w.name).collect();
                write!(f, "unknown workload {name:?}; known: {}", names.join(", "))
            }
            CliError::Env(e) => write!(f, "{e}"),
            CliError::Run(why) => write!(f, "run failed: {why}"),
        }
    }
}

fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, CliError> {
    let raw = raw.ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
    raw.parse()
        .map_err(|_| CliError::Usage(format!("{flag}: cannot read {raw:?}")))
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Command::Compare {
                a: a.into(),
                b: b.into(),
            }),
            _ => Err(CliError::Usage("compare takes two record files".into())),
        };
    }
    let (mut workload, mut seed, mut seconds) = (None, 1u64, None);
    let (mut trace, mut smoke) = (false, false);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            // Every workload is what runs when none is named; the flag is
            // the issue's spelling of that.
            "--all" => {}
            "--smoke" => smoke = true,
            "--workload" => {
                i += 1;
                workload = Some(value::<String>(flag, args.get(i))?);
            }
            "--seed" => {
                i += 1;
                seed = value(flag, args.get(i))?;
            }
            "--seconds" => {
                i += 1;
                let s: f64 = value(flag, args.get(i))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(CliError::Usage(format!("--seconds {s} is out of range")));
                }
                seconds = Some(s);
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    trace = false;
                    i += 1;
                }
                Some("1") => {
                    trace = true;
                    i += 1;
                }
                _ => trace = true,
            },
            other => return Err(CliError::Usage(format!("unknown argument {other:?}"))),
        }
        i += 1;
    }
    let seconds = seconds.unwrap_or(if smoke { 0.5 } else { DEFAULT_SECONDS });
    match workload {
        Some(name) => {
            if spec::workload(&name).is_none() {
                return Err(CliError::UnknownWorkload(name));
            }
            Ok(Command::One {
                workload: name,
                opts: RunOpts {
                    seed,
                    seconds,
                    trace,
                    scale: if smoke { SMOKE_SCALE } else { 1 },
                },
            })
        }
        None => Ok(Command::All {
            seed,
            seconds,
            trace,
            smoke,
        }),
    }
}

/// Runs one workload in this process.
pub fn run_one(workload: &str, opts: &RunOpts) -> Result<Outcome, CliError> {
    let result = match train::CASES.iter().find(|c| c.name == workload) {
        Some(case) if opts.trace => train_trace::run_traced(case, opts),
        Some(case) => train::run_end_to_end(case, opts),
        None if workload == serve::NAME && opts.trace => serve::run_traced(opts),
        None if workload == serve::NAME => serve::run_end_to_end(opts),
        None => return Err(CliError::UnknownWorkload(workload.to_string())),
    };
    result.map_err(CliError::Run)
}

/// Parses and executes; returns the process exit code.
pub fn dispatch(args: Vec<String>) -> Result<i32, CliError> {
    let command = parse(&args)?;
    // Record files are named relative to where the user stands; everything
    // the ledger itself reads or writes is relative to its own directory.
    let command = match command {
        Command::Compare { a, b } => Command::Compare {
            a: std::path::absolute(&a).unwrap_or(a),
            b: std::path::absolute(&b).unwrap_or(b),
        },
        other => other,
    };
    std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))
        .map_err(|e| CliError::Run(format!("benchmark directory is gone: {e}")))?;
    match command {
        Command::Compare { a, b } => compare::run(&a, &b).map_err(CliError::Run),
        Command::One { workload, opts } => {
            crate::sys::check_env(std::env::vars()).map_err(CliError::Env)?;
            std::fs::create_dir_all("out").map_err(|e| CliError::Run(e.to_string()))?;
            let outcome = run_one(&workload, &opts)?;
            report::print_outcome(&workload, &opts, &outcome);
            Ok(i32::from(outcome.failed > 0))
        }
        Command::All {
            seed,
            seconds,
            trace,
            smoke,
        } => {
            crate::sys::check_env(std::env::vars()).map_err(CliError::Env)?;
            std::fs::create_dir_all("out").map_err(|e| CliError::Run(e.to_string()))?;
            // A smoke pass exists to exercise every check, the traced ones too.
            all::run(seed, seconds, trace || smoke, smoke).map_err(CliError::Run)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_invocation_parses_into_one_workload() {
        let got = parse(&args(
            "--workload fine.dist2 --seed 42 --seconds 6 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            got,
            Command::One {
                workload: "fine.dist2".into(),
                opts: RunOpts {
                    seed: 42,
                    seconds: 6.0,
                    trace: true,
                    scale: 1
                }
            }
        );
        let untraced = parse(&args("--workload cnn.seq --seed 3 --seconds 8 --trace 0")).unwrap();
        assert!(matches!(untraced, Command::One { opts, .. } if !opts.trace && opts.seed == 3));
    }

    #[test]
    fn bare_invocation_runs_everything_with_defaults() {
        assert_eq!(
            parse(&[]).unwrap(),
            Command::All {
                seed: 1,
                seconds: DEFAULT_SECONDS,
                trace: false,
                smoke: false
            }
        );
        assert_eq!(
            parse(&args("--all --seed 9 --trace --smoke")).unwrap(),
            Command::All {
                seed: 9,
                seconds: 0.5,
                trace: true,
                smoke: true
            }
        );
    }

    #[test]
    fn bad_input_is_a_typed_error() {
        assert!(matches!(
            parse(&args("--workload nope")),
            Err(CliError::UnknownWorkload(n)) if n == "nope"
        ));
        assert!(matches!(parse(&args("--seed x")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&args("--seed")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&args("--seconds 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("--frobnicate")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("compare a.json")),
            Err(CliError::Usage(_))
        ));
        assert_eq!(
            parse(&args("compare a.json b.json")).unwrap(),
            Command::Compare {
                a: "a.json".into(),
                b: "b.json".into()
            }
        );
    }
}
