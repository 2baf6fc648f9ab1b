//! Chaos-trace satellite: a `FaultPlan` run under the supervisor must
//! leave a coherent trace — the stage panic, supervisor backoff and
//! restart all appear as instant events in causal order, the post-restart
//! stage lanes resume at exactly the sample cursor named by the restart's
//! snapshot, and a run whose restart budget is spent ends at its last
//! fault. The tracer reaches the run through `run_supervised` alone, which
//! installs it on every engine it builds.

use pbp_data::blobs;
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule};
use pbp_pipeline::{
    run_supervised, EngineSpec, FaultPlan, FaultSpec, PipelineFault, RankFault, RecoveryPolicy,
    RunConfig, RunError, SnapshotPolicy, ThreadedConfig, Watchdog,
};
use pbp_trace::{TraceLane, TracePhase, Tracer, PID_WALL};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Duration;

fn schedule() -> LrSchedule {
    let hp = scale_hyperparams(Hyperparams::new(0.1, 0.9), 8, 1);
    LrSchedule::constant(hp)
}

fn fresh_net(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    mlp(&[2, 8, 8, 3], &mut rng)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbp_trace_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Index of the first instant with `phase` in `lane`, if any.
fn first_instant(lane: &TraceLane, phase: TracePhase) -> Option<usize> {
    lane.instants.iter().position(|i| i.phase == phase)
}

/// Extracts the sample cursor from a restart detail like
/// `"restart 1 from snap-000000000012.pbps"`.
fn snapshot_cursor(detail: &str) -> u64 {
    let start = detail.find("snap-").expect("restart names its snapshot") + "snap-".len();
    detail[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("snapshot name carries the sample cursor")
}

/// A transient stage panic under supervision: the supervisor lane orders
/// fault → backoff → restart, and the stage lanes resume with microbatch
/// tags picking up at the restart snapshot's sample cursor.
#[test]
fn trace_orders_fault_backoff_restart_and_resumes_at_cursor() {
    let data = blobs(3, 10, 0.4, 9);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 17);
    let dir = tmpdir("recover");
    let tracer = Tracer::new();
    let spec = EngineSpec::Threaded(
        ThreadedConfig::fill_drain(schedule())
            .with_fault_plan(FaultPlan::new(0).at_rank(1, FaultSpec::new(12, RankFault::Crash)))
            .with_watchdog(Watchdog::fast()),
    );
    let outcome = run_supervised(
        &spec,
        &mut || fresh_net(7),
        &train,
        &val,
        &config,
        &SnapshotPolicy::new(&dir, 4),
        &RecoveryPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(1),
        },
        &tracer,
    )
    .expect("supervised run recovers");
    assert!(outcome.restarts >= 1, "the fault must actually have fired");
    let trace = tracer.finish();

    let sup = trace
        .lane(PID_WALL, "supervisor")
        .expect("supervisor lane recorded");
    let fault = first_instant(sup, TracePhase::Fault).expect("fault instant");
    let backoff = first_instant(sup, TracePhase::Backoff).expect("backoff instant");
    let restart = first_instant(sup, TracePhase::Restart).expect("restart instant");
    assert!(
        fault < backoff && backoff < restart,
        "supervision instants out of order: fault@{fault} backoff@{backoff} restart@{restart}"
    );
    for pair in sup.instants.windows(2) {
        assert!(pair[1].t_ns >= pair[0].t_ns, "instants not monotonic");
    }
    // The stage that panicked recorded the fault on its own lane too.
    let stage1 = trace.lane(PID_WALL, "stage-1").expect("stage-1 lane");
    assert!(
        first_instant(stage1, TracePhase::Fault).is_some(),
        "panicking worker must leave a fault instant on its lane"
    );
    // Snapshot writes appear as retroactive spans on the supervisor lane.
    assert!(
        sup.spans.iter().any(|s| s.phase == TracePhase::Snapshot),
        "snapshot spans recorded"
    );

    // Post-restart work resumes at the snapshot's sample cursor: lanes
    // merge across engine rebuilds, so split stage-0's forwards at the
    // restart instant and check where the microbatch tags pick up.
    let restart_at = sup.instants[restart].t_ns;
    let cursor = snapshot_cursor(
        sup.instants[restart]
            .detail
            .as_deref()
            .expect("restart instant names its snapshot"),
    );
    let stage0 = trace.lane(PID_WALL, "stage-0").expect("stage-0 lane");
    let forwards = |after: bool| {
        stage0
            .spans
            .iter()
            .filter(|s| s.phase == TracePhase::Forward)
            .filter(|s| (s.start_ns >= restart_at) == after)
            .filter_map(|s| s.microbatch)
            .collect::<Vec<u64>>()
    };
    let before = forwards(false);
    let after = forwards(true);
    assert!(!before.is_empty(), "first attempt recorded forwards");
    assert!(!after.is_empty(), "resumed attempt recorded forwards");
    assert_eq!(
        after.iter().min().copied(),
        Some(cursor),
        "resumed trace must pick up at the snapshot's cursor"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A run that crashes on both of its attempts spends its one restart:
/// the supervisor lane records exactly fault → backoff → restart → fault
/// and nothing after it, and the last fault is the run's error.
#[test]
fn spent_budget_trace_ends_at_the_last_fault() {
    let data = blobs(3, 8, 0.4, 11);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 23);
    let dir = tmpdir("spent");
    let tracer = Tracer::new();
    let crash = |at| FaultSpec::new(at, RankFault::Crash);
    let spec = EngineSpec::Threaded(
        ThreadedConfig::fill_drain(schedule())
            .with_fault_plan(FaultPlan::new(0).at_rank(1, crash(5)).at_rank(1, crash(6)))
            .with_watchdog(Watchdog::fast()),
    );
    let err = run_supervised(
        &spec,
        &mut || fresh_net(13),
        &train,
        &val,
        &config,
        &SnapshotPolicy::new(&dir, 2),
        &RecoveryPolicy {
            max_restarts: 1,
            backoff: Duration::from_millis(1),
        },
        &tracer,
    )
    .expect_err("a crash on every attempt spends a one-restart budget");
    assert!(
        matches!(
            err,
            RunError::Fault(PipelineFault::StagePanicked { stage: 1, .. })
        ),
        "{err}"
    );
    let trace = tracer.finish();

    let sup = trace
        .lane(PID_WALL, "supervisor")
        .expect("supervisor lane recorded");
    let phases: Vec<TracePhase> = sup.instants.iter().map(|i| i.phase).collect();
    assert_eq!(
        phases,
        vec![
            TracePhase::Fault,
            TracePhase::Backoff,
            TracePhase::Restart,
            TracePhase::Fault,
        ],
        "supervision instants: {:?}",
        sup.instants
    );
    // Nothing runs after the last fault: no stage span starts past it.
    let last_fault = sup.instants.last().unwrap().t_ns;
    let stage0 = trace.lane(PID_WALL, "stage-0").expect("stage-0 lane");
    assert!(
        stage0.spans.iter().all(|s| s.start_ns <= last_fault),
        "a stage ran after the budget was spent"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
