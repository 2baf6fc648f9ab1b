//! Supervision of the threaded pipeline runtime: stall watchdog, panic
//! containment, and resume-from-snapshot recovery.
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
//!   attempt, and on a fault check the [`RecoveryPolicy`] budget, back
//!   off, go again — generic over the fault type and over how an attempt
//!   is made, logging typed [`SupervisionEvent`]s. [`run_supervised`]
//!   passes it the attempt that rebuilds the engine and resumes from the
//!   newest *valid* snapshot; `pbp_dist::launch` passes it the attempt
//!   that respawns the rank processes from their newest common snapshot.
//!   Either way a spent budget returns the last typed fault.
//!
//! A supervised run is watched through one [`Tracer`]: [`run_supervised`]
//! installs it on every engine it builds and records its own events and
//! snapshot writes on the `supervisor` lane.

use crate::engine::{EngineSpec, RunConfig};
use crate::fault::{PipelineFault, RunError};
use crate::rank::RankLoop;
use crate::resume::{run_snapshotted, SnapshotPolicy};
use crate::trainer::TrainReport;
use pbp_nn::{Network, Stage};
use pbp_snapshot::SnapshotFamily;
use pbp_trace::{Lane, TracePhase, Tracer, PID_WALL};
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

/// The restart budget and backoff of a supervised run — a threaded
/// engine under [`run_supervised`], a rank group under
/// `pbp_dist::launch`.
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Restart (resume-from-snapshot) attempts after the initial run.
    pub max_restarts: usize,
    /// Backoff before the first restart; doubles per restart
    /// ([`backoff_delay`]).
    pub backoff: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

impl RecoveryPolicy {
    /// No-wait retries for tests.
    pub fn immediate(max_restarts: usize) -> Self {
        RecoveryPolicy {
            max_restarts,
            backoff: Duration::ZERO,
        }
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
/// `log` as it happens. `state` is lent to both closures in turn (a
/// training run's supervisor lane records its events and its snapshot
/// writes; the launcher's process group outlives each attempt).
///
/// Returns `Ok(Ok(done))`, `Ok(Err(fault))` once `policy.max_restarts`
/// restarts are spent (the last fault, already logged), or `Err` as soon
/// as an attempt fails with something that is not a fault.
pub fn supervise_retries<S: ?Sized, T, F: Clone, E>(
    state: &mut S,
    policy: &RecoveryPolicy,
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
        if restart >= policy.max_restarts {
            return Ok(Err(fault));
        }
        restart += 1;
        let delay = backoff_delay(policy.backoff, restart);
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

/// The result of a supervised run that completed.
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// The finished training report.
    pub report: TrainReport,
    /// Everything the supervisor did, in order.
    pub events: Vec<SupervisionEvent>,
    /// Restarts performed before completion.
    pub restarts: usize,
}

/// Runs `spec` to completion under snapshot-backed fault recovery.
///
/// The initial attempt (or, when `policy.dir` already holds a valid
/// snapshot, a resume of it) trains with periodic snapshots. On a
/// [`RunError::Fault`] the engine is rebuilt from `make_net` and resumed
/// from the newest valid snapshot, up to `recovery.max_restarts` times
/// with doubling backoff ([`supervise_retries`]); once the budget is
/// spent the last fault is returned as [`RunError::Fault`].
///
/// Every engine it builds records its stage spans into `tracer`. Every
/// fault, backoff and restart is an instant on the `supervisor` lane
/// (sorted above the stage lanes), every snapshot write a span there,
/// and each is returned in the outcome's event log.
///
/// A faulted-and-resumed run is bit-identical to an uninterrupted one
/// (DESIGN.md §9): the same guarantee
/// [`resume_training`](crate::resume::resume_training) provides, now
/// applied automatically.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised(
    spec: &EngineSpec,
    make_net: &mut dyn FnMut() -> Network,
    train: &pbp_data::Dataset,
    val: &pbp_data::Dataset,
    config: &RunConfig,
    policy: &SnapshotPolicy,
    recovery: &RecoveryPolicy,
    tracer: &Tracer,
) -> Result<SupervisedOutcome, RunError> {
    let mut lane = tracer.lane(PID_WALL, "supervisor", -1);
    let mut events: Vec<SupervisionEvent> = Vec::new();
    let mut restarts = 0usize;
    let family = SnapshotFamily::engine(&policy.dir);
    let outcome = supervise_retries(
        &mut lane,
        recovery,
        |lane, event| log(lane, &mut events, event),
        |lane, restart| {
            restarts = restart;
            let from = family.latest_valid()?;
            let mut engine = spec.build(make_net());
            engine.set_tracer(tracer.clone());
            let engine = engine.as_mut();
            match run_snapshotted(engine, train, val, config, Some(policy), from, lane) {
                Ok(report) => Ok(Ok(report)),
                Err(RunError::Fault(fault)) => {
                    let from_snapshot = family
                        .latest_valid()?
                        .map(|p| p.file_name().unwrap_or_default().to_string_lossy().into());
                    Ok(Err((fault, from_snapshot)))
                }
                Err(other) => Err(other),
            }
        },
    )?;
    let report = outcome.map_err(RunError::Fault)?;
    Ok(SupervisedOutcome {
        report,
        events,
        restarts,
    })
}

/// Appends `event` to the run's log and records it on the supervisor lane
/// as an instant of its phase, detailed by its `Display`.
fn log(lane: &mut Lane, events: &mut Vec<SupervisionEvent>, event: SupervisionEvent) {
    let phase = match event {
        SupervisionEvent::Fault { .. } => TracePhase::Fault,
        SupervisionEvent::Restart { .. } => TracePhase::Restart,
        SupervisionEvent::Backoff { .. } => TracePhase::Backoff,
    };
    lane.instant(phase, Some(event.to_string()));
    events.push(event);
}

#[cfg(test)]
mod tests {
    use super::*;

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
                &RecoveryPolicy::immediate(max_restarts),
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
            &RecoveryPolicy::immediate(5),
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
