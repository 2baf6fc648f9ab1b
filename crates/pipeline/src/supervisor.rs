//! Supervision of the threaded pipeline runtime: stall watchdog, panic
//! containment, and recover-or-degrade orchestration.
//!
//! Two layers (detection and containment below, retry arithmetic above):
//!
//! * **Stream supervision** ([`Watchdog`], [`StreamSupervisor`]): while a
//!   threaded run is streaming, the calling thread is its supervisor and
//!   nothing else (worker 0 feeds itself). Workers emit rate-limited
//!   heartbeats and a final completion report over an events channel;
//!   the supervisor tracks the oldest heartbeat, and on a panic report or
//!   a silent worker flips a shared abort flag, drains what it can within
//!   a shutdown grace period, joins the workers that reported in,
//!   detaches the rest, and surfaces a typed [`PipelineFault`] instead of
//!   hanging.
//! * **Run supervision** ([`supervise_retries`]): the one restart loop —
//!   attempt, and on a fault check the budget, back off, go again —
//!   generic over the fault type and over how an attempt is made, logging
//!   typed [`SupervisionEvent`]s. [`run_supervised`] passes it the attempt
//!   that rebuilds the engine and resumes from the latest *valid*
//!   snapshot, and when the budget is spent degrades to the sequential
//!   engine of the same configuration ([`degraded_spec`]), finishing
//!   training there from the same snapshot; `pbp_dist::launch` passes it
//!   the attempt that respawns rank processes.

use crate::engine::{EngineSpec, RunConfig};
use crate::fault::{PipelineFault, RunError};
use crate::metrics::TrainHooks;
use crate::rank::RankLoop;
use crate::resume::{resume_from, resume_training, run_training_with_snapshots, SnapshotPolicy};
use crate::trainer::TrainReport;
use pbp_nn::{Network, Stage};
use pbp_snapshot::latest_valid_snapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Liveness policy of a supervised streaming run.
#[derive(Debug, Clone)]
pub struct Watchdog {
    /// A live worker silent for longer than this (while work is
    /// outstanding) is declared stalled, at its last-heard stage.
    pub stall_timeout: Duration,
    /// Bounded-wait tick: how long the supervisor, or a worker waiting on
    /// a link, blocks before liveness is re-checked.
    pub poll: Duration,
    /// After a fault is flagged, how long the supervisor waits for
    /// workers to acknowledge the abort before detaching them.
    pub shutdown_grace: Duration,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            stall_timeout: Duration::from_secs(10),
            poll: Duration::from_millis(2),
            shutdown_grace: Duration::from_secs(2),
        }
    }
}

impl Watchdog {
    /// A tight configuration for tests and smoke runs: 200 ms stall
    /// timeout, 1 ms poll, 500 ms shutdown grace.
    pub fn fast() -> Self {
        Watchdog {
            stall_timeout: Duration::from_millis(200),
            poll: Duration::from_millis(1),
            shutdown_grace: Duration::from_millis(500),
        }
    }

    /// Sets the stall timeout.
    pub fn with_stall_timeout(mut self, stall_timeout: Duration) -> Self {
        self.stall_timeout = stall_timeout;
        self
    }
}

/// A worker's final report: its stages and their rank (cells, counters,
/// trace lanes, step time) travel back to the supervisor by value, so a
/// clean run reassembles the engine state without joining on thread
/// results.
pub(crate) struct StageDone {
    /// The stage the report speaks for: the one an injected fault struck,
    /// otherwise the worker's first.
    pub stage_idx: usize,
    pub stages: Vec<Stage>,
    pub rank: RankLoop,
    /// The loss of each microbatch the worker retired, in order; worker 0
    /// records them, the others leave this empty.
    pub losses: Vec<f32>,
    /// The message of the panic that ended the worker's loop, if one did
    /// (caught by `catch_unwind`).
    pub panic: Option<String>,
}

/// Worker → supervisor control-plane traffic.
pub(crate) enum StageEvent {
    /// Liveness signal from the worker hosting `stage`.
    Beat { stage: usize },
    /// Final report; boxed because it carries the worker's stages.
    Done(Box<StageDone>),
}

/// The control-plane state machine the calling thread runs while workers
/// stream. Tracks heartbeats and collects final reports per worker,
/// decides when the run has failed and owns the abort/grace protocol.
pub(crate) struct StreamSupervisor {
    watchdog: Watchdog,
    /// Worker `w` hosts stages `bounds[w]..bounds[w + 1]`.
    bounds: Vec<usize>,
    /// Per worker: when it was last heard from, and from which stage.
    last_beat: Vec<(Instant, usize)>,
    done: Vec<Option<StageDone>>,
    fault: Option<PipelineFault>,
    abort: Arc<AtomicBool>,
    grace_deadline: Option<Instant>,
}

impl StreamSupervisor {
    pub(crate) fn new(bounds: Vec<usize>, watchdog: Watchdog) -> Self {
        StreamSupervisor {
            watchdog,
            last_beat: bounds
                .windows(2)
                .map(|run| (Instant::now(), run[0]))
                .collect(),
            done: bounds.windows(2).map(|_| None).collect(),
            bounds,
            fault: None,
            abort: Arc::new(AtomicBool::new(false)),
            grace_deadline: None,
        }
    }

    /// The abort flag shared with every worker.
    pub(crate) fn abort_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.abort)
    }

    pub(crate) fn on_event(&mut self, event: StageEvent) {
        let host = |stage: usize| self.bounds.partition_point(|&b| b <= stage) - 1;
        match event {
            StageEvent::Beat { stage } => self.last_beat[host(stage)] = (Instant::now(), stage),
            StageEvent::Done(done) => {
                let w = host(done.stage_idx);
                if let Some(message) = &done.panic {
                    self.flag(PipelineFault::StagePanicked {
                        stage: done.stage_idx,
                        message: message.clone(),
                    });
                }
                self.done[w] = Some(*done);
            }
        }
    }

    /// True once every worker has reported in.
    pub(crate) fn all_done(&self) -> bool {
        self.done.iter().all(Option::is_some)
    }

    /// Whether worker `w` has reported in (and can be joined without
    /// blocking).
    pub(crate) fn is_done(&self, w: usize) -> bool {
        self.done[w].is_some()
    }

    /// Records `fault` and starts the abort protocol. The root cause beats
    /// its symptom: a stage panic reported *after* a stall replaces it (the
    /// watchdog can hear a failing worker's silence before its report).
    /// Otherwise the first fault wins.
    pub(crate) fn flag(&mut self, fault: PipelineFault) {
        let panicked = |f: &PipelineFault| matches!(f, PipelineFault::StagePanicked { .. });
        if self
            .fault
            .as_ref()
            .is_none_or(|old| panicked(&fault) && !panicked(old))
        {
            self.fault = Some(fault);
        }
        self.abort.store(true, Ordering::Relaxed);
        if self.grace_deadline.is_none() {
            self.grace_deadline = Some(Instant::now() + self.watchdog.shutdown_grace);
        }
    }

    pub(crate) fn grace_expired(&self) -> bool {
        self.grace_deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Stall detection: flags the live worker with the oldest heartbeat,
    /// at the stage it came from, once it exceeds the stall timeout.
    /// Returns `true` if a fault was (or already had been) flagged.
    pub(crate) fn check_watchdog(&mut self) -> bool {
        if self.fault.is_some() {
            return true;
        }
        let oldest = (0..self.done.len())
            .filter(|&w| self.done[w].is_none())
            .map(|w| self.last_beat[w])
            .min();
        if let Some((heard, stage)) = oldest {
            let silent = heard.elapsed();
            if silent > self.watchdog.stall_timeout {
                self.flag(PipelineFault::StageStalled {
                    stage,
                    stalled_for: silent,
                });
                return true;
            }
        }
        false
    }

    /// Consumes the supervisor: the fault if one was flagged, otherwise
    /// the per-worker reports in stage order.
    pub(crate) fn into_result(self) -> Result<Vec<StageDone>, PipelineFault> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        let done = self.done.into_iter();
        Ok(done
            .map(|d| d.expect("no fault implies every worker reported"))
            .collect())
    }
}

/// Retry-and-degrade policy of [`run_supervised`].
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Restart (resume-from-snapshot) attempts after the initial run.
    pub max_restarts: usize,
    /// Backoff before the first restart; doubles per restart
    /// ([`backoff_delay`]).
    pub backoff: Duration,
    /// After retries are exhausted, fall back to the sequential engine
    /// ([`degraded_spec`]) instead of failing.
    pub degrade: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(50),
            degrade: true,
        }
    }
}

impl RecoveryPolicy {
    /// No-wait retries for tests.
    pub fn immediate(max_restarts: usize) -> Self {
        RecoveryPolicy {
            max_restarts,
            backoff: Duration::ZERO,
            degrade: true,
        }
    }

    /// Disables the degradation fallback: exhausted retries fail the run.
    pub fn no_degrade(mut self) -> Self {
        self.degrade = false;
        self
    }
}

/// One entry in the supervision log of a run whose attempts end in
/// faults of type `F`: a [`PipelineFault`] under [`run_supervised`], the
/// launcher's rank-exit error under `pbp_dist::launch`.
#[derive(Debug, Clone)]
pub enum SupervisionEvent<F = PipelineFault> {
    /// An attempt ended in a fault.
    Fault {
        /// 0 = the initial run, n = the n-th restart.
        attempt: usize,
        /// The typed fault.
        fault: F,
    },
    /// A restart is beginning.
    Restart {
        /// Restart number (1-based).
        attempt: usize,
        /// Where the restart resumes from — a snapshot file, or the
        /// launcher's common counter — if anywhere.
        from_snapshot: Option<String>,
    },
    /// The supervisor is sleeping (exponential backoff) before a restart.
    Backoff {
        /// The restart attempt (1-based) the sleep precedes.
        attempt: usize,
        /// Length of the sleep.
        delay: Duration,
    },
    /// Retries exhausted; the run switched to the sequential engine.
    Degraded {
        /// Label of the engine taking over.
        to: String,
    },
}

impl<F: std::fmt::Display> std::fmt::Display for SupervisionEvent<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisionEvent::Fault { attempt, fault } => {
                write!(f, "attempt {attempt} faulted: {fault}")
            }
            SupervisionEvent::Restart {
                attempt,
                from_snapshot,
            } => match from_snapshot {
                Some(snap) => write!(f, "restart {attempt} from {snap}"),
                None => write!(f, "restart {attempt} from scratch"),
            },
            SupervisionEvent::Backoff { attempt, delay } => {
                write!(f, "backoff before restart {attempt}: {delay:?}")
            }
            SupervisionEvent::Degraded { to } => write!(f, "degraded to {to}"),
        }
    }
}

/// The one backoff rule: `base` before the first restart, doubling per
/// restart, capped at 64×.
pub fn backoff_delay(base: Duration, restart: usize) -> Duration {
    base * (1u32 << restart.saturating_sub(1).min(6))
}

/// What one attempt of a supervised run came to: done, or a fault plus
/// where a restart would resume from (the `Restart` event's label).
pub type Attempt<T, F> = Result<T, (F, Option<String>)>;

/// The one supervised-retry loop: attempt, and on a fault check the
/// budget, back off, go again. It owns the restart budget, the backoff
/// rule and the typed log; *how* an attempt is made — rebuild an engine
/// and resume its newest valid snapshot, respawn a group of rank
/// processes at their common counter — is the `attempt` closure, called
/// with the restart number (0 = the initial run). Every event goes to
/// `log` as it happens. `state` is lent to both closures in turn (the
/// hooks observing a training run also observe its supervision; the
/// launcher's process group outlives each attempt).
///
/// Returns `Ok(Ok(done))`, `Ok(Err(fault))` once `max_restarts` restarts
/// are spent (the last fault, already logged), or `Err` as soon as an
/// attempt fails with something that is not a fault.
pub fn supervise_retries<S: ?Sized, T, F: Clone, E>(
    state: &mut S,
    max_restarts: usize,
    backoff: Duration,
    mut log: impl FnMut(&mut S, SupervisionEvent<F>),
    mut attempt: impl FnMut(&mut S, usize) -> Result<Attempt<T, F>, E>,
) -> Result<Result<T, F>, E> {
    let mut restart = 0usize;
    loop {
        let (fault, from_snapshot) = match attempt(state, restart)? {
            Ok(done) => return Ok(Ok(done)),
            Err(faulted) => faulted,
        };
        let event = SupervisionEvent::Fault {
            attempt: restart,
            fault: fault.clone(),
        };
        log(state, event);
        if restart >= max_restarts {
            return Ok(Err(fault));
        }
        restart += 1;
        let delay = backoff_delay(backoff, restart);
        if !delay.is_zero() {
            let event = SupervisionEvent::Backoff {
                attempt: restart,
                delay,
            };
            log(state, event);
            std::thread::sleep(delay);
        }
        let event = SupervisionEvent::Restart {
            attempt: restart,
            from_snapshot,
        };
        log(state, event);
    }
}

/// The result of a supervised run that completed (possibly degraded).
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// The finished training report.
    pub report: TrainReport,
    /// Everything the supervisor did, in order.
    pub events: Vec<SupervisionEvent>,
    /// Restarts performed before completion (or degradation).
    pub restarts: usize,
    /// Whether the run finished on the degraded engine.
    pub degraded: bool,
}

/// The sequential equivalent of a threaded spec — where a supervised run
/// lands when the threaded runtime keeps faulting: the
/// [`ScheduledTrainer`](crate::ScheduledTrainer) of the same
/// [`ScheduledConfig`](crate::ScheduledConfig), which executes the same
/// stage groups on one thread and reads the threaded engine's snapshots.
/// Non-threaded specs have no degraded form.
pub fn degraded_spec(spec: &EngineSpec) -> Option<EngineSpec> {
    match spec {
        EngineSpec::Threaded(cfg) => Some(EngineSpec::Scheduled(cfg.run.clone())),
        _ => None,
    }
}

/// Runs `spec` to completion under snapshot-backed fault recovery.
///
/// The initial attempt (or, when `policy.dir` already holds a valid
/// snapshot, a resume of it) trains with periodic snapshots. On a
/// [`RunError::Fault`] the engine is rebuilt from `make_net` and resumed
/// from the latest valid snapshot, up to `recovery.max_restarts` times
/// with doubling backoff ([`supervise_retries`]). If the fault keeps
/// recurring and `recovery.degrade` is set, the run switches to
/// [`degraded_spec`] — the sequential engine of the same configuration —
/// restores the full engine state (weights, optimizers, weight-version
/// FIFOs, counters) and run progress from the last valid snapshot, and
/// finishes there, snapshotting into `policy.dir/degraded`. Every fault,
/// restart and degradation is reported through `hooks` and returned in
/// the outcome's event log.
///
/// A faulted-and-resumed run — degraded or not — is bit-identical to an
/// uninterrupted one (DESIGN.md §9): the same guarantee
/// [`resume_training`] provides, now applied automatically.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised(
    spec: &EngineSpec,
    make_net: &mut dyn FnMut() -> Network,
    train: &pbp_data::Dataset,
    val: &pbp_data::Dataset,
    config: &RunConfig,
    policy: &SnapshotPolicy,
    recovery: &RecoveryPolicy,
    hooks: &mut dyn TrainHooks,
) -> Result<SupervisedOutcome, RunError> {
    let mut events: Vec<SupervisionEvent> = Vec::new();
    let mut restarts = 0usize;
    let outcome = supervise_retries(
        hooks,
        recovery.max_restarts,
        recovery.backoff,
        |hooks, event| {
            hooks.on_supervision_event(&event);
            events.push(event);
        },
        |hooks, restart| {
            restarts = restart;
            let mut engine = spec.build(make_net());
            let engine = engine.as_mut();
            let result = match latest_valid_snapshot(&policy.dir)? {
                Some(path) => {
                    resume_training(engine, train, val, config, Some(policy), &path, hooks)
                }
                None => run_training_with_snapshots(engine, train, val, config, policy, hooks),
            };
            match result {
                Ok(report) => Ok(Ok(report)),
                Err(RunError::Fault(fault)) => {
                    let from_snapshot = latest_valid_snapshot(&policy.dir)?
                        .map(|p| p.file_name().unwrap_or_default().to_string_lossy().into());
                    Ok(Err((fault, from_snapshot)))
                }
                Err(other) => Err(other),
            }
        },
    )?;
    match outcome {
        Ok(report) => Ok(SupervisedOutcome {
            report,
            events,
            restarts,
            degraded: false,
        }),
        Err(fault) if !recovery.degrade => Err(RunError::Fault(fault)),
        Err(fault) => run_degraded(
            spec, make_net, train, val, config, policy, hooks, events, restarts, fault,
        ),
    }
}

/// The degradation tail of [`run_supervised`]: switch the run to the
/// sequential engine and finish it there.
#[allow(clippy::too_many_arguments)]
fn run_degraded(
    spec: &EngineSpec,
    make_net: &mut dyn FnMut() -> Network,
    train: &pbp_data::Dataset,
    val: &pbp_data::Dataset,
    config: &RunConfig,
    policy: &SnapshotPolicy,
    hooks: &mut dyn TrainHooks,
    mut events: Vec<SupervisionEvent>,
    restarts: usize,
    last_fault: PipelineFault,
) -> Result<SupervisedOutcome, RunError> {
    let Some(fallback) = degraded_spec(spec) else {
        // Nothing deterministic to fall back to — surface the fault.
        return Err(RunError::Fault(last_fault));
    };
    let event = SupervisionEvent::Degraded {
        to: fallback.label(),
    };
    hooks.on_supervision_event(&event);
    events.push(event);
    // Degraded snapshots go to a subdirectory: they carry the fallback
    // engine's label, and a later supervised run of the threaded spec
    // must keep finding its own snapshots in `policy.dir`.
    let degraded_policy = SnapshotPolicy {
        dir: policy.dir.join("degraded"),
        every_updates: policy.every_updates,
        keep: policy.keep,
    };
    let mut engine = fallback.build(make_net());
    let report = if let Some(own) = latest_valid_snapshot(&degraded_policy.dir)? {
        // An earlier degraded attempt got this far — continue it.
        resume_training(
            engine.as_mut(),
            train,
            val,
            config,
            Some(&degraded_policy),
            &own,
            hooks,
        )?
    } else if let Some(snapshot) = latest_valid_snapshot(&policy.dir)? {
        // Both engines write the same engine-state section; only the run
        // section's label names the threaded engine.
        resume_from(
            engine.as_mut(),
            train,
            val,
            config,
            Some(&degraded_policy),
            &snapshot,
            &spec.label(),
            hooks,
        )?
    } else {
        run_training_with_snapshots(engine.as_mut(), train, val, config, &degraded_policy, hooks)?
    };
    Ok(SupervisedOutcome {
        report,
        events,
        restarts,
        degraded: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduled::ScheduledConfig;
    use crate::threaded::ThreadedConfig;
    use pbp_optim::{Hyperparams, LrSchedule, Mitigation};

    fn schedule() -> LrSchedule {
        LrSchedule::constant(Hyperparams::new(0.05, 0.9))
    }

    #[test]
    fn degraded_specs_map_to_the_sequential_engine() {
        let fd = degraded_spec(&EngineSpec::Threaded(
            ThreadedConfig::fill_drain(schedule()),
        ))
        .expect("threaded specs degrade");
        assert_eq!(fd.label(), "Fill&Drain SGDM (N=1)");
        let pb = degraded_spec(&EngineSpec::Threaded(
            ThreadedConfig::pb(schedule())
                .with_mitigation(Mitigation::scd())
                .with_weight_stashing(),
        ));
        match pb {
            Some(EngineSpec::Scheduled(cfg)) => {
                assert!(cfg.weight_stashing);
                assert_eq!(cfg.label(), "PB+SCD+WS");
            }
            other => panic!("expected a scheduled spec, got {other:?}"),
        }
        let sequential = EngineSpec::Scheduled(ScheduledConfig::pb(schedule()));
        assert!(degraded_spec(&sequential).is_none());
    }

    /// The retry loop against a scripted attempt (fault, fault, ok) and a
    /// zero base, so nothing sleeps: the exact log, the budget, and the
    /// one doubling rule.
    #[test]
    fn retry_loop_logs_fault_restart_pairs_and_spends_its_budget() {
        let run = |max_restarts: usize| {
            let mut seen = Vec::new();
            let mut events = Vec::new();
            let outcome = supervise_retries(
                &mut seen,
                max_restarts,
                Duration::ZERO,
                |seen: &mut Vec<String>, event| {
                    seen.push(event.to_string());
                    events.push(event);
                },
                |seen, restart| {
                    seen.push(format!("attempt {restart}"));
                    Ok::<_, ()>(match restart {
                        0 => Err(("flaky", None)),
                        1 => Err(("flaky again", Some("snap-4".to_string()))),
                        n => Ok(n),
                    })
                },
            );
            (outcome, seen, events)
        };
        let (outcome, seen, events) = run(2);
        assert_eq!(outcome, Ok(Ok(2)));
        let want = [
            "attempt 0",
            "attempt 0 faulted: flaky",
            "restart 1 from scratch",
            "attempt 1",
            "attempt 1 faulted: flaky again",
            "restart 2 from snap-4",
            "attempt 2",
        ];
        assert_eq!(seen, want, "each event is logged as it happens");
        assert_eq!(events.len(), 4);

        // One restart allowed: the second fault is logged, then returned.
        let (outcome, _, events) = run(1);
        assert_eq!((outcome, events.len()), (Ok(Err("flaky again")), 3));

        // An attempt that fails with something other than a fault ends
        // the loop at once, unlogged.
        let fatal = supervise_retries(
            &mut (),
            5,
            Duration::ZERO,
            |_, event: SupervisionEvent<&str>| panic!("logged {event}"),
            |_, _| Err::<Attempt<(), &str>, _>("disk full"),
        );
        assert_eq!(fatal, Err("disk full"));

        let base = Duration::from_millis(50);
        let delays: Vec<u32> = (1..=9)
            .map(|restart| (backoff_delay(base, restart).as_millis() / 50) as u32)
            .collect();
        assert_eq!(delays, [1, 2, 4, 8, 16, 32, 64, 64, 64]);
    }

    /// Liveness is per worker, attribution per stage: of three workers
    /// over five stages, the silent one is flagged at the stage it was
    /// last heard from.
    #[test]
    fn watchdog_flags_oldest_silent_worker_at_its_last_stage() {
        let mut sup = StreamSupervisor::new(
            vec![0, 2, 4, 5],
            Watchdog {
                stall_timeout: Duration::from_millis(10),
                poll: Duration::from_millis(1),
                shutdown_grace: Duration::from_millis(10),
            },
        );
        assert!(!sup.check_watchdog());
        sup.on_event(StageEvent::Beat { stage: 1 });
        std::thread::sleep(Duration::from_millis(15));
        sup.on_event(StageEvent::Beat { stage: 3 });
        sup.on_event(StageEvent::Beat { stage: 4 });
        assert!(sup.check_watchdog());
        match &sup.fault {
            Some(PipelineFault::StageStalled { stage: 1, .. }) => {}
            other => panic!("expected a stall at stage 1, got {other:?}"),
        }
        assert!(sup.grace_deadline.is_some());
        assert!(sup.abort_flag().load(Ordering::Relaxed));
    }

    #[test]
    fn root_cause_faults_beat_symptoms() {
        let mut sup = StreamSupervisor::new(vec![0, 1], Watchdog::fast());
        let stalled = PipelineFault::StageStalled {
            stage: 0,
            stalled_for: Duration::from_millis(300),
        };
        sup.flag(stalled.clone());
        // A later stall cannot displace it...
        sup.flag(PipelineFault::StageStalled {
            stage: 1,
            stalled_for: Duration::from_millis(400),
        });
        assert_eq!(sup.fault, Some(stalled));
        // ...but the late-arriving root cause (a worker's panic report)
        // upgrades the recorded fault.
        sup.flag(PipelineFault::StagePanicked {
            stage: 2,
            message: "boom".into(),
        });
        assert!(matches!(
            sup.fault,
            Some(PipelineFault::StagePanicked { stage: 2, .. })
        ));
        // Equal priority: first wins.
        sup.flag(PipelineFault::StagePanicked {
            stage: 0,
            message: "late".into(),
        });
        assert!(matches!(
            sup.fault,
            Some(PipelineFault::StagePanicked { stage: 2, .. })
        ));
    }
}
