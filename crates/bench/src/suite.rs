//! The shared experiment machinery: the size [`Scale`], per-experiment
//! [`Budget`]s, the one seeded train-and-evaluate loop ([`sweep`]) and the
//! `SGDM` / `PB` method rows every network experiment starts from.

use pbp_data::Dataset;
use pbp_nn::Network;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    run_training, DelayedConfig, EngineSpec, RunConfig, ScheduledConfig, TrainReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How much of its full size an experiment runs at. Parsed once, from
/// `PBP_SCALE`, by the `pbp-experiments` binary and passed down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(f64);

impl Scale {
    /// The size the committed records are made at.
    pub const FULL: Scale = Scale(1.0);
    /// Every size at its floor — 16 train / 16 validation samples, one
    /// epoch, one seed: the size `tests/paper_claims.rs` executes every
    /// training experiment at.
    pub const SMOKE: Scale = Scale(0.0);

    /// Parses a `PBP_SCALE` value: a finite number above zero.
    pub fn parse(value: &str) -> Result<Scale, String> {
        match value.trim().parse::<f64>() {
            Ok(s) if s.is_finite() && s > 0.0 => Ok(Scale(s)),
            _ => Err(format!(
                "PBP_SCALE must be a number above zero, got '{value}'"
            )),
        }
    }

    /// `n` scaled, rounded, and no smaller than `floor`.
    pub fn apply(self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.0).round() as usize).max(floor)
    }
}

/// Experiment budget at a given [`Scale`].
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Training-set size.
    pub train_samples: usize,
    /// Validation-set size.
    pub val_samples: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Number of independent seeds (the paper reports 5-run means).
    pub seeds: usize,
}

impl Budget {
    /// The budget `[train, val, epochs, seeds]` scaled: sample counts floor
    /// at 16, epochs and seeds at 1, and a scale above one adds no seeds.
    pub fn new([train, val, epochs, seeds]: [usize; 4], scale: Scale) -> Self {
        Budget {
            train_samples: scale.apply(train, 16),
            val_samples: scale.apply(val, 16),
            epochs: scale.apply(epochs, 1),
            seeds: scale.apply(seeds, 1).min(seeds.max(1)),
        }
    }
}

/// Sample mean and standard deviation (zero for fewer than two samples).
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0).max(1.0);
    (mean, var.sqrt())
}

/// Mean of `f` over the reports (one per seed).
pub fn mean_of(reports: &[TrainReport], f: impl Fn(&TrainReport) -> f64) -> f64 {
    mean_std(&reports.iter().map(f).collect::<Vec<_>>()).0
}

/// `mean±std` of `f` over the reports, in percent with `decimals` places.
pub fn pct_pm(reports: &[TrainReport], decimals: usize, f: impl Fn(&TrainReport) -> f64) -> String {
    let (m, s) = mean_std(&reports.iter().map(f).collect::<Vec<_>>());
    format!("{:.decimals$}±{:.decimals$}", 100.0 * m, 100.0 * s)
}

/// The one train-and-evaluate loop: trains `spec` on `data = (train, val)`
/// once per seed. Seed `i` initialises its network from `StdRng(init + i)`
/// and runs under `run` — epochs and validation cadence — with its epochs
/// ordered by `run.seed + i`.
pub fn sweep(
    spec: &EngineSpec,
    build: &dyn Fn(&mut StdRng) -> Network,
    data: &(Dataset, Dataset),
    seeds: usize,
    init: u64,
    run: RunConfig,
) -> Vec<TrainReport> {
    (0..seeds as u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(init + i);
            let mut engine = spec.build(build(&mut rng));
            let seed = run.seed + i;
            let config = RunConfig { seed, ..run };
            eprint!(".");
            run_training(engine.as_mut(), &data.0, &data.1, &config)
        })
        .collect()
}

/// He et al.'s (η, m) = (0.1, 0.9) at batch 128, scaled to `batch` by
/// Eq. 9 — the reference every network experiment starts from.
pub fn reference_hp(batch: usize) -> Hyperparams {
    scale_hyperparams(Hyperparams::new(0.1, 0.9), 128, batch)
}

/// The `SGDM` rows: mini-batch SGDM at `batch`.
pub fn sgdm(batch: usize) -> EngineSpec {
    let schedule = LrSchedule::constant(reference_hp(batch));
    EngineSpec::Delayed(DelayedConfig::sgdm(batch, schedule))
}

/// The `PB…` rows: pipelined backpropagation at update size one.
pub fn pb(mitigation: Mitigation) -> ScheduledConfig {
    ScheduledConfig::pb(LrSchedule::constant(reference_hp(1))).with_mitigation(mitigation)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parser_rejects_everything_but_a_finite_positive_number() {
        for bad in ["", "abc", "0", "-1", "nan", "inf", "-0.0"] {
            let err = Scale::parse(bad).unwrap_err();
            assert!(err.contains(&format!("'{bad}'")), "{err}");
        }
        assert_eq!(Scale::parse("0.25"), Ok(Scale(0.25)));
        assert_eq!(Scale::parse("2"), Ok(Scale(2.0)));
        assert_eq!(Scale::parse(" 1 "), Ok(Scale::FULL));
    }

    #[test]
    fn budgets_scale_with_floors_and_never_gain_seeds() {
        let b = |scale| {
            let b = Budget::new([1500, 300, 6, 3], scale);
            (b.train_samples, b.val_samples, b.epochs, b.seeds)
        };
        assert_eq!(b(Scale::FULL), (1500, 300, 6, 3));
        assert_eq!(b(Scale(0.25)), (375, 75, 2, 1));
        assert_eq!(b(Scale(2.0)), (3000, 600, 12, 3));
        assert_eq!(b(Scale::SMOKE), (16, 16, 1, 1));
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]).1, 0.0);
    }

    #[test]
    fn sweep_trains_a_tiny_mlp_once_per_seed() {
        let build = |rng: &mut StdRng| pbp_nn::models::mlp(&[2, 16, 3], rng);
        let data = pbp_data::blobs(3, 30, 0.4, 0).split(0.3);
        let spec = EngineSpec::Scheduled(pb(Mitigation::scd()));
        let reports = sweep(&spec, &build, &data, 2, 1000, RunConfig::new(8, 0));
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.records.len() == 8));
        let acc = mean_of(&reports, TrainReport::final_val_acc);
        assert!(acc > 0.6, "accuracy {acc}");
    }
}
