//! `pbp-ledger` — the repo's performance ledger.
//!
//! ```text
//! pbp-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one process
//! pbp-ledger [--all] [--seed <n>] [--trace] [--smoke]                   every workload, a process each
//! pbp-ledger compare <a.json> <b.json>                                   noise-aware gate
//! ```
//!
//! A single-workload run prints every metric by name with its unit, then —
//! as the last line of standard output — one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod all;
mod cli;
mod compare;
mod ledger;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod sys;
mod train;
mod train_trace;
mod wire;

use stats::Summary;

/// What one single-workload run was asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOpts {
    pub seed: u64,
    /// How long the timed region of the end-to-end pass lasts.
    pub seconds: f64,
    pub trace: bool,
    /// Size divisor: 1 for a real run, 16 for `--smoke`.
    pub scale: usize,
}

impl RunOpts {
    /// A smoke run needs every check live, not steady medians.
    pub fn min_repeats(&self, full: usize) -> usize {
        if self.scale > 1 {
            2
        } else {
            full
        }
    }
}

/// What a single-workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks (a repeat's check, or a request's) attempted...
    pub attempted: u64,
    /// ...and failed.
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, Summary)>,
    /// Context for the human reader and the `--all` record.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// Full set-ups per run; `setup_s` is the quiet decile of their times.
const SETUPS: usize = 9;

/// The set-ups of a run. The first is made before the measured region; the
/// others are spread evenly through it, so that they see the machine in the
/// states the repeats see it in (eight in a row after the region shared
/// whatever state it ended in: ten runs' values sat at 0.17 or 0.22 s on
/// `cnn.seq`, and two sets' medians 30 % apart); any still missing when
/// the region ends are made after it.
///
/// Peak memory is noted before the second set-up, when it is what one set-up
/// and the measured region up to there need: `serve.vgg` reports that,
/// because servers started and shut down in a row left its high-water mark
/// anywhere between 19 and 32 MB, by how the allocator reused the memory of
/// the dead ones.
pub struct SetUps {
    seconds: Vec<f64>,
    peak_rss_mb: Option<f64>,
}

impl SetUps {
    pub fn new(first: std::time::Duration) -> SetUps {
        SetUps {
            seconds: vec![first.as_secs_f64()],
            peak_rss_mb: None,
        }
    }

    /// Makes, with `again`, the set-ups due once `share` of the measured
    /// region has passed; `1.0` makes all that are left.
    pub fn catch_up(
        &mut self,
        share: f64,
        mut again: impl FnMut() -> Result<std::time::Duration, String>,
    ) -> Result<(), String> {
        while self.seconds.len() < SETUPS && self.seconds.len() as f64 <= share * SETUPS as f64 {
            self.peak_rss_mb.get_or_insert_with(sys::peak_rss_mb);
            self.seconds.push(again()?.as_secs_f64());
        }
        Ok(())
    }

    /// Peak resident memory before the second set-up, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb.unwrap_or_else(sys::peak_rss_mb)
    }

    /// `setup_s`: like every timing, at the quiet decile.
    pub fn summary(&self) -> Summary {
        Summary::quiet(&self.seconds, spec::Better::Lower)
    }

    /// The set-up made before the measured region, which pays the one-time
    /// lazy initialisation.
    pub fn first(&self) -> f64 {
        self.seconds[0]
    }
}

/// Microseconds of a duration, as the metrics report them.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    std::process::exit(match cli::dispatch(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pbp-ledger: {e}");
            2
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn set_ups_are_spread_through_the_region_and_topped_up_after_it() {
        let mut setups = SetUps::new(Duration::from_millis(300));
        let mut made = 0;
        let mut again = || {
            made += 1;
            Ok(Duration::from_millis(100 + made))
        };
        // None at the start of the region, one for every ninth of it.
        setups.catch_up(0.0, &mut again).unwrap();
        assert_eq!(setups.seconds.len(), 1);
        for slice in 1..9 {
            setups.catch_up(slice as f64 / 9.0, &mut again).unwrap();
            assert_eq!(setups.seconds.len(), 1 + slice);
        }
        assert_eq!(setups.seconds.len(), SETUPS);
        // A region too short to ask for them all gets the rest after it.
        let mut short = SetUps::new(Duration::from_millis(300));
        short.catch_up(0.5, &mut again).unwrap();
        assert_eq!(short.seconds.len(), 5);
        short.catch_up(1.0, &mut again).unwrap();
        short.catch_up(1.0, &mut again).unwrap();
        assert_eq!(short.seconds.len(), SETUPS);
        // Reported at the quiet decile, not at the first set-up's lazy start.
        assert_eq!(short.first(), 0.3);
        assert!(short.summary().value < 0.12);
        assert!(short.peak_rss_mb() > 0.0);
        // A failed set-up fails the run.
        let mut broken = SetUps::new(Duration::ZERO);
        assert!(broken.catch_up(1.0, || Err("no".into())).is_err());
    }
}
