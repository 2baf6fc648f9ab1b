//! The unified training-engine interface.
//!
//! The three engines in this crate — [`DelayedTrainer`] (the
//! whole-network Appendix G.2 simulator: SGDM, fixed and sampled delays,
//! Adam), [`ScheduledTrainer`] and [`ThreadedPipeline`] (the stage
//! executor, as one rank or as a thread per stage group) — implement
//! [`TrainEngine`], and the single shared [`run_training`] loop owns epoch
//! ordering, evaluation cadence and record collection for all of them.
//! Observers plug in through [`TrainHooks`](crate::metrics::TrainHooks);
//! engine construction from a declarative description goes through
//! [`EngineSpec`].

use crate::delayed::{DelayedConfig, DelayedTrainer};
use crate::fault::RunError;
use crate::metrics::{EngineMetrics, NoHooks, TrainHooks};
use crate::resume::{drive, Outcome, RunnerState};
use crate::scheduled::{ScheduledConfig, ScheduledTrainer};
use crate::threaded::{ThreadedConfig, ThreadedPipeline};
use crate::trainer::TrainReport;
use pbp_data::Dataset;
use pbp_nn::Network;
use pbp_tensor::Tensor;

/// A training engine the shared [`run_training`] loop can drive.
///
/// Engines train destructively on an owned [`Network`]; `network_mut`
/// exposes it for evaluation and `into_network` recovers it when the
/// engine is done.
pub trait TrainEngine {
    /// Display label for reports (matches the paper's table rows).
    fn label(&self) -> String;

    /// Trains on one explicit batch (`x` has a leading batch dimension);
    /// returns the mean loss. Per-sample engines process the batch one
    /// sample at a time under their own update semantics.
    fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32;

    /// Trains one epoch over `data` in the deterministic order derived
    /// from `(seed, epoch)`; returns the mean training loss. The default
    /// covers the epoch order with one [`TrainEngine::train_range`] call.
    fn train_epoch(&mut self, data: &Dataset, seed: u64, epoch: usize) -> f64 {
        let order = data.epoch_order(seed, epoch);
        let (total, units) = self.train_range(data, &order);
        if units == 0 {
            0.0
        } else {
            total / units as f64
        }
    }

    /// Trains on a contiguous slice of an epoch's sample order; returns
    /// the accumulated loss sum and the number of loss units it covers
    /// (samples or batches, whichever the engine's `train_epoch` averages
    /// over). Covering one epoch order with consecutive aligned slices
    /// leaves the weight trajectory bit-identical to `train_epoch`; only
    /// the reported loss mean can differ in its last bits, because the
    /// partial sums associate differently. This is the sub-epoch
    /// primitive the snapshot runner slices training with.
    fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize);

    /// Full run with validation after each epoch: [`run_training`] under
    /// [`RunConfig::new`] with no hooks.
    fn run(&mut self, train: &Dataset, val: &Dataset, epochs: usize, seed: u64) -> TrainReport
    where
        Self: Sized,
    {
        let config = RunConfig::new(epochs, seed);
        run_training(self, train, val, &config, &mut NoHooks)
    }

    /// Samples consumed per optimizer update, for converting an
    /// every-N-updates snapshot cadence into a sample count.
    fn samples_per_update(&self) -> usize {
        1
    }

    /// Rounds a proposed slice stop (an in-epoch sample offset, with
    /// `pos` the current offset) up to the engine's next state-equivalent
    /// boundary, capped at `epoch_len`. The default accepts any offset.
    fn align_stop(&self, pos: usize, proposed: usize, epoch_len: usize) -> usize {
        let _ = pos;
        proposed.min(epoch_len)
    }

    /// True when the engine is at a snapshot-safe point (no partially
    /// accumulated update in flight). The runner skips snapshot points
    /// where this is false.
    fn snapshot_ready(&self) -> bool {
        true
    }

    /// Serializes the engine's complete training state — network
    /// parameters and layer state, per-stage optimizer state, in-flight
    /// pipeline buffers, counters, metrics — into snapshot sections.
    fn write_state(&self, snap: &mut pbp_snapshot::SnapshotBuilder);

    /// Restores the state written by [`TrainEngine::write_state`] into a
    /// freshly-built engine of the same spec.
    fn read_state(
        &mut self,
        archive: &pbp_snapshot::SnapshotArchive,
    ) -> Result<(), pbp_snapshot::SnapshotError>;

    /// Takes the pending [`PipelineFault`](crate::fault::PipelineFault),
    /// if the engine hit one during its last training call. Engines that
    /// cannot fault (everything but the threaded runtime) return `None`.
    /// Runners must check this after every training call before trusting
    /// the returned losses; a faulted engine is poisoned and must be
    /// rebuilt.
    fn take_fault(&mut self) -> Option<crate::fault::PipelineFault> {
        None
    }

    /// Installs a [`Tracer`](pbp_trace::Tracer): subsequent training calls
    /// record per-stage begin/end spans into it. Engines without span
    /// instrumentation ignore the tracer (the default).
    fn set_tracer(&mut self, tracer: pbp_trace::Tracer) {
        let _ = tracer;
    }

    /// Borrows the network (e.g. for evaluation).
    fn network_mut(&mut self) -> &mut Network;

    /// Training samples consumed so far.
    fn samples_seen(&self) -> usize;

    /// Snapshot of the engine's observability counters.
    fn metrics(&self) -> EngineMetrics;

    /// Consumes the engine, returning the trained network.
    fn into_network(self: Box<Self>) -> Network;
}

/// Configuration of a [`run_training`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Number of training epochs.
    pub epochs: usize,
    /// Seed for the per-epoch data order.
    pub seed: u64,
    /// Evaluation batch size. Purely a throughput knob: `evaluate` is
    /// batch-size-invariant (per-sample metric accumulation over
    /// bit-identical forward kernels), so any value reports the same
    /// metrics — larger batches just tile into faster GEMMs.
    pub eval_batch: usize,
    /// Evaluate every `eval_every` epochs (the final epoch is always
    /// evaluated). 1 = every epoch, matching the engines' old `run()`.
    pub eval_every: usize,
}

impl RunConfig {
    /// Per-epoch evaluation at batch 64. The historical engines evaluated
    /// at batch 16; since `evaluate` became batch-size-invariant the
    /// reported metrics are identical, and 64 amortizes per-batch
    /// overhead into larger, better-tiling GEMM calls.
    pub fn new(epochs: usize, seed: u64) -> Self {
        RunConfig {
            epochs,
            seed,
            eval_batch: 64,
            eval_every: 1,
        }
    }

    /// Only evaluate after the final epoch (cheap sweeps).
    pub fn eval_last_only(mut self) -> Self {
        self.eval_every = self.epochs.max(1);
        self
    }
}

/// The shared training loop: trains `engine` for `config.epochs` epochs,
/// evaluating on `val` at the configured cadence, invoking `hooks` at
/// epoch and run boundaries, and returning the labelled curve.
///
/// # Panics
///
/// Panics if `config.eval_batch == 0` or `config.eval_every == 0`, or if
/// the engine reports a [`PipelineFault`](crate::fault::PipelineFault)
/// mid-run — this plain loop has no recovery story; use
/// [`run_supervised`](crate::supervisor::run_supervised) for runs that
/// should survive faults.
pub fn run_training(
    engine: &mut dyn TrainEngine,
    train: &Dataset,
    val: &Dataset,
    config: &RunConfig,
    hooks: &mut dyn TrainHooks,
) -> TrainReport {
    // The snapshot runner's loop with no policy and no kill point: one
    // `train_range` slice per epoch, exactly what `train_epoch` runs.
    let mut state = RunnerState::fresh(config.seed, 0);
    match drive(engine, train, val, config, None, None, &mut state, hooks) {
        Ok(Outcome::Finished(report)) => report,
        Ok(Outcome::Killed) => unreachable!("no kill point configured"),
        Err(RunError::Fault(fault)) => panic!(
            "engine faulted in epoch {}: {fault} (use run_supervised to recover)",
            state.cursor.epoch
        ),
        Err(RunError::Snapshot(e)) => unreachable!("no snapshot policy configured: {e}"),
    }
}

/// Declarative engine description: which engine to run and how, minus the
/// network. `build` instantiates the engine for a freshly initialized
/// network, so sweeps can construct identical engines across seeds.
#[derive(Debug, Clone)]
pub enum EngineSpec {
    /// The whole-network delayed-gradient simulator ([`DelayedTrainer`]):
    /// SGDM, fixed-delay, ASGD and Adam rows.
    Delayed(DelayedConfig),
    /// The threaded runtime ([`ThreadedPipeline`]): as many workers as
    /// the thread budget holds, at most one per stage.
    Threaded(ThreadedConfig),
    /// The sequential scheduled engine ([`ScheduledTrainer`]) — any
    /// [`MicrobatchSchedule`](crate::schedule::MicrobatchSchedule): PB,
    /// fill&drain, 1F1B, 2BP.
    Scheduled(ScheduledConfig),
}

impl EngineSpec {
    /// Instantiates the engine for `net`.
    pub fn build(&self, net: Network) -> Box<dyn TrainEngine> {
        match self {
            EngineSpec::Delayed(config) => Box::new(DelayedTrainer::new(net, config.clone())),
            EngineSpec::Threaded(config) => Box::new(ThreadedPipeline::new(net, config.clone())),
            EngineSpec::Scheduled(config) => Box::new(ScheduledTrainer::new(net, config.clone())),
        }
    }

    /// The label the built engine will report (without building it).
    pub fn label(&self) -> String {
        match self {
            EngineSpec::Delayed(config) => config.label(),
            EngineSpec::Threaded(config) => config.label(),
            EngineSpec::Scheduled(config) => config.label(),
        }
    }
}

/// `x` with a leading batch dimension of one — how the per-sample
/// engines hand a sample to the batched layer kernels.
pub(crate) fn batch_of_one(x: &Tensor) -> Tensor {
    let mut shape = vec![1usize];
    shape.extend_from_slice(x.shape());
    x.reshape(&shape).expect("same volume")
}

/// Splits a batched tensor (leading dimension `n`) into its `n` rows
/// without the batch dimension — used by the per-sample engines to
/// satisfy [`TrainEngine::train_batch`].
pub(crate) fn batch_rows(x: &Tensor, n: usize) -> Vec<Tensor> {
    assert!(n > 0, "batch must be non-empty");
    assert_eq!(
        x.shape().first().copied(),
        Some(n),
        "leading dimension must match label count"
    );
    let volume = x.len() / n;
    let row_shape: Vec<usize> = x.shape()[1..].to_vec();
    (0..n)
        .map(|i| {
            Tensor::from_vec(
                x.as_slice()[i * volume..(i + 1) * volume].to_vec(),
                &row_shape,
            )
            .expect("row volume matches shape")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delayed::DelayDistribution;
    use crate::metrics::NoHooks;
    use crate::trainer::EpochRecord;
    use pbp_nn::models::mlp;
    use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule() -> LrSchedule {
        LrSchedule::constant(Hyperparams::new(0.05, 0.9))
    }

    #[test]
    fn spec_labels_match_engine_labels() {
        let specs = [
            EngineSpec::Delayed(DelayedConfig::sgdm(4, schedule())),
            EngineSpec::Scheduled(ScheduledConfig::fill_drain(8, schedule())),
            EngineSpec::Scheduled(
                ScheduledConfig::pb(schedule()).with_mitigation(Mitigation::scd()),
            ),
            EngineSpec::Delayed(DelayedConfig::inconsistent(3, 4, schedule())),
            EngineSpec::Delayed(DelayedConfig::asgd(
                DelayDistribution::Constant(2),
                4,
                schedule(),
                0,
            )),
            EngineSpec::Delayed(DelayedConfig::adam(4, 4, 1e-3)),
            EngineSpec::Threaded(ThreadedConfig::fill_drain(schedule())),
            EngineSpec::Threaded(
                ThreadedConfig::pb(schedule())
                    .with_mitigation(Mitigation::scd())
                    .with_weight_stashing(),
            ),
            EngineSpec::Scheduled(ScheduledConfig::one_f_one_b(4, schedule())),
            EngineSpec::Scheduled(
                ScheduledConfig::two_bp(4, schedule()).with_mitigation(Mitigation::scd()),
            ),
        ];
        for spec in specs {
            let mut rng = StdRng::seed_from_u64(0);
            let engine = spec.build(mlp(&[2, 6, 3], &mut rng));
            assert_eq!(engine.label(), spec.label(), "{spec:?}");
        }
    }

    #[test]
    fn run_training_matches_historical_run_loop() {
        let data = pbp_data::blobs(3, 24, 0.4, 1);
        let (train, val) = data.split(0.25);
        let mut rng = StdRng::seed_from_u64(3);
        let net_a = mlp(&[2, 8, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let net_b = mlp(&[2, 8, 3], &mut rng);

        let mut via_runner = ScheduledTrainer::new(net_a, ScheduledConfig::pb(schedule()));
        let report_a = run_training(
            &mut via_runner,
            &train,
            &val,
            &RunConfig::new(3, 5),
            &mut NoHooks,
        );
        let mut via_run = ScheduledTrainer::new(net_b, ScheduledConfig::pb(schedule()));
        let report_b = via_run.run(&train, &val, 3, 5);
        assert_eq!(report_a.label, report_b.label);
        assert_eq!(report_a.records.len(), report_b.records.len());
        for (a, b) in report_a.records.iter().zip(&report_b.records) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn eval_cadence_always_includes_final_epoch() {
        let data = pbp_data::blobs(3, 18, 0.4, 2);
        let (train, val) = data.split(0.34);
        let mut rng = StdRng::seed_from_u64(0);
        let mut engine = DelayedTrainer::new(
            mlp(&[2, 6, 3], &mut rng),
            DelayedConfig::sgdm(4, schedule()),
        );
        let config = RunConfig::new(5, 1).eval_last_only();
        let report = run_training(&mut engine, &train, &val, &config, &mut NoHooks);
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.records[0].epoch, 4);
        assert_eq!(engine.samples_seen(), 5 * train.len());
    }

    #[test]
    fn hooks_see_every_epoch() {
        #[derive(Default)]
        struct Counting {
            starts: usize,
            ends: usize,
            runs: usize,
            final_updates: u64,
        }
        impl TrainHooks for Counting {
            fn on_epoch_start(&mut self, _epoch: usize) {
                self.starts += 1;
            }
            fn on_epoch_end(&mut self, _record: &EpochRecord) {
                self.ends += 1;
            }
            fn on_run_end(&mut self, _report: &TrainReport, metrics: &EngineMetrics) {
                self.runs += 1;
                self.final_updates = metrics.total_updates();
            }
        }
        let data = pbp_data::blobs(3, 18, 0.4, 4);
        let (train, val) = data.split(0.34);
        let mut rng = StdRng::seed_from_u64(1);
        let mut engine = DelayedTrainer::new(
            mlp(&[2, 6, 3], &mut rng),
            DelayedConfig::sgdm(4, schedule()),
        );
        let mut hooks = Counting::default();
        run_training(&mut engine, &train, &val, &RunConfig::new(4, 2), &mut hooks);
        assert_eq!(hooks.starts, 4);
        assert_eq!(hooks.ends, 4);
        assert_eq!(hooks.runs, 1);
        assert!(hooks.final_updates > 0);
    }

    #[test]
    fn batch_rows_roundtrips() {
        let x = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 2, 2]).unwrap();
        let rows = batch_rows(&x, 3);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].shape(), &[2, 2]);
        assert_eq!(rows[1].as_slice(), &[4.0, 5.0, 6.0, 7.0]);
    }
}
