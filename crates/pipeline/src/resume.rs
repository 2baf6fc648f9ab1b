//! Fault-tolerant training runs: periodic full-state snapshots and
//! bit-identical resume.
//!
//! [`run_training_with_snapshots`] runs the same loop as the shared
//! [`run_training`](crate::engine::run_training), but slices each epoch with
//! [`TrainEngine::train_range`] so that every `every_updates` optimizer
//! updates it can persist a complete [`pbp_snapshot`] container: the
//! engine's full state (network parameters and layer state, per-stage
//! optimizer state, in-flight pipeline buffers, metrics) plus a `"run"`
//! section holding the runner's own progress — data-stream cursor,
//! partially accumulated epoch loss, snapshot cadence position and the
//! records collected so far.
//!
//! [`resume_training`] restores everything from such a container and
//! continues the run; because snapshots are only taken at
//! update-boundary-aligned points (see [`TrainEngine::align_stop`] and
//! [`TrainEngine::snapshot_ready`]) the resumed run retraces the exact
//! slice boundaries of an uninterrupted snapshotting run and finishes
//! with bit-identical weights and records.
//!
//! [`run_to_crash`] is the crash-injection half of the harness: it runs
//! with a snapshot policy but aborts the run once a configured update
//! index is reached — deliberately *not* aligned to the snapshot cadence
//! — discarding all work since the last snapshot, exactly like a process
//! kill would.
//!
//! Every runner here is one loop underneath, which records each snapshot
//! write as a `snapshot` span on a trace lane: under
//! [`run_supervised`](crate::supervisor::run_supervised) the `supervisor`
//! lane, for the public runners a lane that records nothing.

use crate::engine::{RunConfig, TrainEngine};
use crate::fault::RunError;
use crate::trainer::{evaluate, EpochRecord, TrainReport};
use pbp_data::{Dataset, StreamCursor};
use pbp_snapshot::{
    SnapshotArchive, SnapshotBuilder, SnapshotError, SnapshotFamily, Snapshottable, StateReader,
    StateWriter,
};
use pbp_trace::{Lane, TracePhase, Tracer, PID_WALL};
use std::path::{Path, PathBuf};

/// Section holding the runner's progress (stream cursor, partial epoch
/// loss, snapshot cadence position, collected records).
pub const SECTION_RUN: &str = "run";

/// When and where to write training snapshots — for an engine here and
/// for a `pbp-dist` rank alike.
#[derive(Debug, Clone)]
pub struct SnapshotPolicy {
    /// Directory holding the host's [`SnapshotFamily`] (created on first
    /// save).
    pub dir: PathBuf,
    /// Snapshot every this many optimizer updates: an engine converts them
    /// to samples through [`TrainEngine::samples_per_update`], a rank to
    /// microbatches through its plan's microbatches per update.
    pub every_updates: usize,
    /// Number of the family's newest snapshots to retain; older ones are
    /// pruned after each save.
    pub keep: usize,
}

impl SnapshotPolicy {
    /// Snapshots into `dir` every `every_updates` updates, keeping 3.
    ///
    /// # Panics
    ///
    /// Panics if `every_updates == 0`.
    pub fn new(dir: impl Into<PathBuf>, every_updates: usize) -> Self {
        assert!(every_updates > 0, "snapshot cadence must be positive");
        SnapshotPolicy {
            dir: dir.into(),
            every_updates,
            keep: 3,
        }
    }

    /// Sets the retention count.
    ///
    /// # Panics
    ///
    /// Panics if `keep == 0`.
    pub fn with_keep(mut self, keep: usize) -> Self {
        assert!(keep > 0, "must keep at least one snapshot");
        self.keep = keep;
        self
    }
}

/// The runner's own progress, serialized alongside the engine state.
pub(crate) struct RunnerState {
    pub(crate) cursor: StreamCursor,
    epoch_sum: f64,
    epoch_units: usize,
    /// Absolute `samples_seen` value at which the next snapshot is due.
    next_snap: usize,
    records: Vec<EpochRecord>,
}

impl RunnerState {
    pub(crate) fn fresh(seed: u64, next_snap: usize) -> Self {
        RunnerState {
            cursor: StreamCursor::start(seed),
            epoch_sum: 0.0,
            epoch_units: 0,
            next_snap,
            records: Vec::new(),
        }
    }
}

fn write_runner_state(w: &mut StateWriter, state: &RunnerState, label: &str) {
    w.put_str(label);
    state.cursor.write_state(w);
    w.put_f64(state.epoch_sum);
    w.put_usize(state.epoch_units);
    w.put_usize(state.next_snap);
    w.put_u32(state.records.len() as u32);
    for r in &state.records {
        w.put_usize(r.epoch);
        w.put_f64(r.train_loss);
        w.put_f64(r.val_loss);
        w.put_f64(r.val_acc);
    }
}

fn read_runner_state(
    archive: &SnapshotArchive,
    expect_label: &str,
    expect_seed: u64,
) -> Result<RunnerState, SnapshotError> {
    let mut r = StateReader::new(archive.section(SECTION_RUN)?);
    let label = r.take_str()?;
    if label != expect_label {
        return Err(SnapshotError::Mismatch(format!(
            "snapshot of a {label:?} run, engine is {expect_label:?}"
        )));
    }
    let mut cursor = StreamCursor::start(0);
    cursor.read_state(&mut r)?;
    if cursor.seed != expect_seed {
        return Err(SnapshotError::Mismatch(format!(
            "snapshot used data seed {}, run config says {expect_seed}",
            cursor.seed
        )));
    }
    let epoch_sum = r.take_f64()?;
    let epoch_units = r.take_usize()?;
    let next_snap = r.take_usize()?;
    let n = r.take_u32()? as usize;
    let mut records = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        records.push(EpochRecord {
            epoch: r.take_usize()?,
            train_loss: r.take_f64()?,
            val_loss: r.take_f64()?,
            val_acc: r.take_f64()?,
        });
    }
    r.finish()?;
    Ok(RunnerState {
        cursor,
        epoch_sum,
        epoch_units,
        next_snap,
        records,
    })
}

/// The lane of a run nobody supervises: it records nothing.
pub(crate) fn unwatched() -> Lane {
    Tracer::disabled().lane(PID_WALL, "", 0)
}

/// Writes one snapshot, recorded on `lane` as a span tagged with the
/// sample cursor it covers.
fn save_snapshot(
    engine: &dyn TrainEngine,
    policy: &SnapshotPolicy,
    state: &RunnerState,
    samples: usize,
    lane: &mut Lane,
) -> Result<(), SnapshotError> {
    lane.begin(TracePhase::Snapshot, Some(samples as u64), None);
    let mut snap = SnapshotBuilder::new();
    engine.write_state(&mut snap);
    let mut w = StateWriter::new();
    write_runner_state(&mut w, state, &engine.label());
    snap.add_section(SECTION_RUN, w.into_bytes());
    let saved = SnapshotFamily::engine(&policy.dir).save(&snap, samples, policy.keep);
    lane.end();
    saved
}

pub(crate) enum Outcome {
    Finished(TrainReport),
    Killed,
}

/// Evaluation batch size. Purely a throughput knob: `evaluate` is
/// batch-size-invariant (per-sample metric accumulation over bit-identical
/// forward kernels), so any value reports the same metrics, and 64
/// amortizes per-batch overhead into larger, better-tiling GEMM calls.
const EVAL_BATCH: usize = 64;

/// The one training loop: epoch ordering, evaluation cadence and record
/// collection for [`run_training`](crate::engine::run_training) and the
/// three entry points here. Epochs advance in aligned sub-epoch slices
/// between which snapshots (and the injected crash) can happen; with no
/// policy and no kill point a slice is the whole epoch. `state` is left
/// where the loop stopped.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    engine: &mut dyn TrainEngine,
    train: &Dataset,
    val: &Dataset,
    config: &RunConfig,
    policy: Option<&SnapshotPolicy>,
    kill_at_samples: Option<usize>,
    state: &mut RunnerState,
    lane: &mut Lane,
) -> Result<Outcome, RunError> {
    assert!(config.eval_every > 0, "eval cadence must be positive");
    let spu = engine.samples_per_update().max(1);
    while state.cursor.epoch < config.epochs {
        let epoch = state.cursor.epoch;
        let order = state.cursor.order(train);
        while state.cursor.pos < order.len() {
            let here = engine.samples_seen();
            if let Some(kill) = kill_at_samples {
                if here >= kill {
                    return Ok(Outcome::Killed);
                }
            }
            if let Some(policy) = policy {
                if here >= state.next_snap && engine.snapshot_ready() {
                    // Bump the cadence position first so the stored state
                    // points at the *next* snapshot, letting a resumed run
                    // fall into the same rhythm.
                    state.next_snap = here + policy.every_updates * spu;
                    save_snapshot(engine, policy, state, here, lane)?;
                }
            }
            let pos = state.cursor.pos;
            let mut proposed = order.len();
            if policy.is_some() {
                proposed = proposed.min(pos + state.next_snap.saturating_sub(here));
            }
            if let Some(kill) = kill_at_samples {
                proposed = proposed.min(pos + kill.saturating_sub(here));
            }
            let stop = engine.align_stop(pos, proposed.max(pos + 1), order.len());
            assert!(stop > pos, "align_stop must make progress");
            let (sum, units) = engine.train_range(train, &order[pos..stop]);
            if let Some(fault) = engine.take_fault() {
                // The engine is poisoned; surface the typed fault so a
                // supervisor can rebuild and resume from the last
                // snapshot (everything up to it is already on disk).
                return Err(RunError::Fault(fault));
            }
            state.epoch_sum += sum;
            state.epoch_units += units;
            state.cursor.pos = stop;
        }
        let train_loss = if state.epoch_units == 0 {
            0.0
        } else {
            state.epoch_sum / state.epoch_units as f64
        };
        let is_last = epoch + 1 == config.epochs;
        if (epoch + 1).is_multiple_of(config.eval_every) || is_last {
            let (val_loss, val_acc) = evaluate(engine.network_mut(), val, EVAL_BATCH);
            state.records.push(EpochRecord {
                epoch,
                train_loss,
                val_loss,
                val_acc,
            });
        }
        state.cursor.epoch += 1;
        state.cursor.pos = 0;
        state.epoch_sum = 0.0;
        state.epoch_units = 0;
    }
    // A final snapshot captures the completed run, so the latest file in
    // the directory always reflects all training done.
    if let Some(policy) = policy {
        if engine.snapshot_ready() {
            let here = engine.samples_seen();
            state.next_snap = here + policy.every_updates * spu;
            save_snapshot(engine, policy, state, here, lane)?;
        }
    }
    let mut report = TrainReport::new(engine.label());
    report.records = std::mem::take(&mut state.records);
    Ok(Outcome::Finished(report))
}

/// [`run_training`](crate::engine::run_training) plus periodic snapshots
/// under `policy`. The returned report matches a plain run of the same
/// engine bit-for-bit in weights and validation metrics (the reported
/// training loss can differ in the last bits because slice sums are
/// accumulated in a different association order).
pub fn run_training_with_snapshots(
    engine: &mut dyn TrainEngine,
    train: &Dataset,
    val: &Dataset,
    config: &RunConfig,
    policy: &SnapshotPolicy,
) -> Result<TrainReport, RunError> {
    let (policy, lane) = (Some(policy), &mut unwatched());
    run_snapshotted(engine, train, val, config, policy, None, lane)
}

/// Crash injection: trains like [`run_training_with_snapshots`] but
/// abandons the run at the first snapshot-or-slice boundary on or after
/// `kill_after_updates` optimizer updates, returning `None` — all
/// progress since the last snapshot is lost, as in a real crash. Returns
/// `Some(report)` when the run finishes before the kill point.
pub fn run_to_crash(
    engine: &mut dyn TrainEngine,
    train: &Dataset,
    val: &Dataset,
    config: &RunConfig,
    policy: &SnapshotPolicy,
    kill_after_updates: usize,
) -> Result<Option<TrainReport>, RunError> {
    let spu = engine.samples_per_update().max(1);
    let start = engine.samples_seen();
    let mut state = RunnerState::fresh(config.seed, start + policy.every_updates * spu);
    let kill = start + kill_after_updates * spu;
    let lane = &mut unwatched();
    match drive(
        engine,
        train,
        val,
        config,
        Some(policy),
        Some(kill),
        &mut state,
        lane,
    )? {
        Outcome::Finished(report) => Ok(Some(report)),
        Outcome::Killed => Ok(None),
    }
}

/// Restores a full training run from `snapshot` into a freshly-built
/// `engine` of the same spec and continues it to completion. With a
/// `policy`, snapshotting continues on the cadence recorded in the
/// snapshot. The engine must be newly constructed from the same spec and
/// the same initial network as the snapshotted run.
pub fn resume_training(
    engine: &mut dyn TrainEngine,
    train: &Dataset,
    val: &Dataset,
    config: &RunConfig,
    policy: Option<&SnapshotPolicy>,
    snapshot: &Path,
) -> Result<TrainReport, RunError> {
    let from = Some((snapshot.to_path_buf(), engine.label()));
    run_snapshotted(engine, train, val, config, policy, from, &mut unwatched())
}

/// The runner behind [`run_training_with_snapshots`], [`resume_training`]
/// and the supervisor: resumes `from` — a snapshot and the label of the
/// engine whose run it holds — or starts afresh, recording every snapshot
/// write on `lane`. The label may differ from `engine`'s own, as long as
/// the engine-state section is one `engine` reads: the supervisor's
/// degradation path resumes a threaded engine's snapshot into the
/// sequential engine of the same configuration, which shares its state
/// layout but not its label.
pub(crate) fn run_snapshotted(
    engine: &mut dyn TrainEngine,
    train: &Dataset,
    val: &Dataset,
    config: &RunConfig,
    policy: Option<&SnapshotPolicy>,
    from: Option<(PathBuf, String)>,
    lane: &mut Lane,
) -> Result<TrainReport, RunError> {
    let mut state = match from {
        Some((snapshot, written_by)) => {
            let archive = SnapshotArchive::load(&snapshot)?;
            engine.read_state(&archive)?;
            read_runner_state(&archive, &written_by, config.seed)?
        }
        None => {
            let every = policy.map_or(0, |p| p.every_updates);
            let next = engine.samples_seen() + every * engine.samples_per_update().max(1);
            RunnerState::fresh(config.seed, next)
        }
    };
    match drive(engine, train, val, config, policy, None, &mut state, lane)? {
        Outcome::Finished(report) => Ok(report),
        Outcome::Killed => unreachable!("no kill point configured"),
    }
}
