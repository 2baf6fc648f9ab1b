//! # pbp-pipeline
//!
//! Pipelined Backpropagation engines — the system contribution of
//! *"Pipelined Backpropagation at Scale"* (Kosson et al., MLSYS 2021),
//! built from scratch:
//!
//! * [`StageGroup`] — the one executor of per-stage schedule semantics: a
//!   contiguous range of [`StageCell`]s (optimizer, weight-version FIFO,
//!   stash) plus their trace lanes and counters, interpreting a
//!   [`MicrobatchSchedule`]'s action stream. Every substrate below drives
//!   the same four operations, so they are bit-identical to each other.
//! * [`RankLoop`] — the one rank loop above the executor: forward while
//!   the group allows, otherwise retire a backward, between two [`Link`]s
//!   that move an `Activation` downstream and a `Gradient` (with the
//!   loss) upstream. The threaded workers step it between channel links,
//!   the `pbp-dist` ranks between sockets — each through one [`RankHost`]
//!   — the sequential engine with no link at all; rank 0 of every host
//!   feeds itself through [`Upstream::Feed`]; [`partition_bounds`] is the
//!   one rule that cuts the stages into their contiguous groups — by [`stage_cost`]
//!   for the threaded workers, by count ([`contiguous_bounds`], its
//!   uniform case) for the `pbp-dist` ranks.
//! * [`ScheduledTrainer`] — the sequential substrate, the world of one:
//!   a [`RankLoop`] over all stages, stepped a microbatch at a time. Under
//!   [`ScheduledConfig::pb`] it is the deterministic, cycle-accurate
//!   emulation of fine-grained pipelined backpropagation at update size
//!   one — each stage sees forward weights delayed by `D_s = 2(S−1−s)`
//!   updates (Eq. 5), with optional weight stashing (Harlap et al., 2018)
//!   and the paper's mitigations (Spike Compensation, Linear Weight
//!   Prediction, their combination, SpecTrain) applied per stage, the
//!   emulation the paper itself used (Appendix G.2). Under
//!   [`ScheduledConfig::fill_drain`] it is pipeline-parallel mini-batch
//!   SGDM that fills and drains the pipeline for every update —
//!   mathematically identical to sequential SGDM (validated bit-for-bit
//!   in tests) but paying the utilization bound `N/(N+2S)` of Eq. 1. 1F1B
//!   and 2BP run through the same engine.
//! * [`ThreadedPipeline`] — the threaded substrate (`min(S, thread
//!   budget)` OS threads, each a [`RankLoop`] over a contiguous run of
//!   the `S` stages — one thread per stage where the cores allow —
//!   crossbeam channel links between them), demonstrating that PB keeps
//!   all workers busy while fill-and-drain idles them. The third
//!   substrate, process per stage group over sockets, lives in `pbp-dist`.
//! * [`DelayedTrainer`] — the Appendix G.2 simulator, whole-network at
//!   arbitrary batch size: per batch it draws a gradient delay `D`, runs
//!   forward under the weights of `D` updates ago and backward under the
//!   same (or, for weight inconsistency, the master) weights, and updates
//!   the master copy. [`DelayedConfig`] names its rows: `sgdm` (`D = 0`,
//!   the paper's SGDM baseline and the reference the stage executor is
//!   compared against), `consistent` / `inconsistent` (Figure 10, with
//!   mitigations Figures 13 and 14), `asgd` (`D` a random variable) and
//!   `adam` (the Discussion's delay-tolerance ablation).
//! * [`VirtualHost`] — W [`RankHost`]s on one thread, and the Figure 2
//!   diagram: their loops joined by in-memory queue links,
//!   stepped earliest-first on a virtual clock that charges each action
//!   its [`action_cost`], drawn one span per action into the trace's
//!   virtual process with the run's bubble fraction. It is also the
//!   harness that steps the loops in arbitrary ready orders in tests.
//! * [`schedule`] — the [`MicrobatchSchedule`] plans the engines execute
//!   (Section 2, Figure 2), their Eq. 5 stage delays and Eq. 1's
//!   fill&drain utilization bound; Figure 2 itself is drawn by
//!   [`VirtualHost`] from what the executor runs.
//!
//! All three engines ([`DelayedTrainer`], [`ScheduledTrainer`],
//! [`ThreadedPipeline`]) implement the [`TrainEngine`] trait and share one
//! training loop, [`run_training`], which owns epoch ordering,
//! evaluation cadence and record collection. A run reports through its
//! [`TrainReport`], the engine's per-stage [`EngineMetrics`] (updates
//! applied, busy time, effective-delay histograms, pipeline occupancy;
//! [`EngineMetrics::to_json`] renders them) and one
//! [`Tracer`](pbp_trace::Tracer): stage spans from
//! [`TrainEngine::set_tracer`], and under [`run_supervised`] the
//! `supervisor` lane of faults, backoffs, restarts and snapshot
//! writes. [`EngineSpec`] is a declarative builder used by the benchmark
//! suite to construct engines uniformly.

pub mod cell;
pub mod delayed;
pub mod engine;
pub mod fault;
pub mod group;
pub mod host;
pub mod memory;
pub mod metrics;
pub mod rank;
pub mod resume;
pub mod schedule;
pub mod scheduled;
pub mod state;
pub mod supervisor;
pub mod threaded;
pub mod timeline;
pub mod trainer;

pub use cell::StageCell;
pub use delayed::{DelayDistribution, DelayedConfig, DelayedTrainer};
pub use engine::{run_training, EngineSpec, RunConfig, TrainEngine};
pub use fault::{
    FaultInjector, FaultPlan, FaultSpec, LinkDir, LinkFault, PipelineFault, RankFault, RunError,
};
pub use group::{action_cost, contiguous_bounds, partition_bounds, stage_cost, StageGroup};
pub use host::RankHost;
pub use memory::MemoryModel;
pub use metrics::{EngineMetrics, StageCounters};
pub use rank::{Link, Message, RankError, RankLoop, Step, Upstream};
pub use resume::{
    resume_training, run_to_crash, run_training_with_snapshots, SnapshotPolicy, SECTION_RUN,
};
pub use schedule::{fill_drain_utilization, stage_delay, Action, MicrobatchSchedule};
pub use scheduled::{ScheduledConfig, ScheduledTrainer};
pub use state::SECTION_ENGINE;
pub use supervisor::{
    backoff_delay, run_supervised, supervise_retries, Attempt, RecoveryPolicy, SupervisedOutcome,
    SupervisionEvent, Watchdog,
};
pub use threaded::{ThreadedConfig, ThreadedPipeline};
pub use timeline::{schedule_diagram, VirtualHost};
pub use trainer::{evaluate, EpochRecord, TrainReport};
