//! Shared experiment runner: budgets, method specifications and the
//! train-and-evaluate loop used by the table/figure binaries.

use pbp_data::Dataset;
use pbp_nn::Network;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{run_training, DelayedConfig, EngineSpec, NoHooks, RunConfig, ScheduledConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Experiment budget, scalable via the `PBP_SCALE` environment variable.
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
    /// Creates a budget, then applies `PBP_SCALE` (if set) to the sample
    /// counts and epochs.
    pub fn new(train_samples: usize, val_samples: usize, epochs: usize, seeds: usize) -> Self {
        let scale: f64 = std::env::var("PBP_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        Budget {
            train_samples: ((train_samples as f64 * scale) as usize).max(16),
            val_samples: ((val_samples as f64 * scale) as usize).max(16),
            epochs: ((epochs as f64 * scale).round() as usize).max(1),
            seeds: seeds.max(1),
        }
    }
}

/// One method column in a comparison (a row group in the paper's tables).
#[derive(Debug, Clone, Copy)]
pub enum MethodSpec {
    /// Mini-batch SGDM at the reference batch size (the `SGDM` rows).
    Sgdm {
        /// Batch size.
        batch: usize,
    },
    /// Pipelined backpropagation at update size one with optional
    /// mitigation and weight stashing.
    Pb {
        /// Delay mitigation.
        mitigation: Mitigation,
        /// Weight stashing on/off.
        stashing: bool,
    },
}

impl MethodSpec {
    /// Plain PB.
    pub fn pb(mitigation: Mitigation) -> Self {
        MethodSpec::Pb {
            mitigation,
            stashing: false,
        }
    }

    /// Display label matching the paper.
    pub fn label(&self) -> String {
        match self {
            MethodSpec::Sgdm { .. } => "SGDM".to_string(),
            MethodSpec::Pb {
                mitigation,
                stashing,
            } => {
                let mut l = mitigation.label();
                if *stashing {
                    l.push_str("+WS");
                }
                l
            }
        }
    }

    /// Lowers this method to an [`EngineSpec`], scaling the reference
    /// hyperparameters per Eq. 9 for the method's effective batch size.
    pub fn engine_spec(&self, reference: Hyperparams, reference_batch: usize) -> EngineSpec {
        match *self {
            MethodSpec::Sgdm { batch } => {
                let hp = if batch == reference_batch {
                    reference
                } else {
                    scale_hyperparams(reference, reference_batch, batch)
                };
                EngineSpec::Delayed(DelayedConfig::sgdm(batch, LrSchedule::constant(hp)))
            }
            MethodSpec::Pb {
                mitigation,
                stashing,
            } => {
                let hp = scale_hyperparams(reference, reference_batch, 1);
                let mut cfg =
                    ScheduledConfig::pb(LrSchedule::constant(hp)).with_mitigation(mitigation);
                if stashing {
                    cfg = cfg.with_weight_stashing();
                }
                EngineSpec::Scheduled(cfg)
            }
        }
    }
}

/// Result of one method over several seeds.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Method label.
    pub label: String,
    /// Final validation accuracy per seed.
    pub accuracies: Vec<f64>,
}

impl RunOutcome {
    /// Mean final accuracy.
    pub fn mean(&self) -> f64 {
        mean_std(&self.accuracies).0
    }

    /// Standard deviation of final accuracy.
    pub fn std(&self) -> f64 {
        mean_std(&self.accuracies).1
    }

    /// Formats as `mean±std` percentages, like the paper's tables.
    pub fn formatted(&self) -> String {
        if self.accuracies.len() > 1 {
            format!("{:.2}±{:.2}", 100.0 * self.mean(), 100.0 * self.std())
        } else {
            format!("{:.2}", 100.0 * self.mean())
        }
    }
}

/// Sample mean and standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() == 1 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Trains `method` on `(train, val)` for every seed in the budget with the
/// given reference hyperparameters (scaled per Eq. 9 for PB), returning the
/// final accuracies. `build` constructs a freshly initialized network from
/// an RNG.
pub fn run_method(
    build: &dyn Fn(&mut StdRng) -> Network,
    train: &Dataset,
    val: &Dataset,
    method: MethodSpec,
    reference: Hyperparams,
    reference_batch: usize,
    budget: Budget,
) -> RunOutcome {
    let spec = method.engine_spec(reference, reference_batch);
    let mut accuracies = Vec::with_capacity(budget.seeds);
    for seed in 0..budget.seeds as u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let mut engine = spec.build(build(&mut rng));
        let config = RunConfig::new(budget.epochs, seed).eval_last_only();
        let report = run_training(engine.as_mut(), train, val, &config, &mut NoHooks);
        accuracies.push(report.final_val_acc());
    }
    RunOutcome {
        label: method.label(),
        accuracies,
    }
}

/// Runs a full family × method comparison (the shape of Tables 1-6) and
/// prints a table with stage counts and `mean±std` final accuracies.
pub fn run_family_table(
    families: &[crate::families::Family],
    methods: &[MethodSpec],
    reference: Hyperparams,
    reference_batch: usize,
    budget: Budget,
) {
    let mut headers = vec!["network".to_string(), "stages".to_string()];
    headers.extend(methods.iter().map(MethodSpec::label));
    let mut table = crate::fmt::Table::new(headers);
    for family in families {
        let (train, val) =
            crate::families::family_data(*family, budget.train_samples, budget.val_samples);
        let build = |rng: &mut StdRng| family.build(train.num_classes(), rng);
        let mut row = vec![family.name(), family.stage_count().to_string()];
        for &method in methods {
            let out = run_method(
                &build,
                &train,
                &val,
                method,
                reference,
                reference_batch,
                budget,
            );
            row.push(out.formatted());
            eprint!(".");
        }
        table.row(row);
        eprintln!(" {}", family.name());
    }
    table.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]).1, 0.0);
    }

    #[test]
    fn labels_include_stashing() {
        let m = MethodSpec::Pb {
            mitigation: Mitigation::None,
            stashing: true,
        };
        assert_eq!(m.label(), "PB+WS");
        assert_eq!(MethodSpec::Sgdm { batch: 32 }.label(), "SGDM");
    }

    #[test]
    fn run_method_trains_a_tiny_mlp() {
        let build = |rng: &mut StdRng| pbp_nn::models::mlp(&[2, 16, 3], rng);
        let data = pbp_data::blobs(3, 30, 0.4, 0);
        let (train, val) = data.split(0.3);
        let budget = Budget {
            train_samples: 0,
            val_samples: 0,
            epochs: 8,
            seeds: 2,
        };
        let out = run_method(
            &build,
            &train,
            &val,
            MethodSpec::pb(Mitigation::scd()),
            Hyperparams::new(0.1, 0.9),
            8,
            budget,
        );
        assert_eq!(out.accuracies.len(), 2);
        assert!(out.mean() > 0.6, "accuracy {}", out.mean());
    }
}
