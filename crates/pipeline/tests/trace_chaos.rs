//! Chaos-trace satellite: a `FaultPlan` run under the supervisor must
//! leave a coherent trace — the stage panic, supervisor backoff, restart
//! and degradation switchover all appear as instant events in causal
//! order, the post-restart stage lanes resume at exactly the sample
//! cursor named by the restart's snapshot, and a degraded run's tail stays
//! on the timeline. The tracer reaches the run through `run_supervised`
//! alone, which installs it on every engine it builds.

use pbp_data::blobs;
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule};
use pbp_pipeline::{
    run_supervised, EngineSpec, FaultPlan, FaultSpec, RankFault, RecoveryPolicy, RunConfig,
    SnapshotPolicy, ThreadedConfig, Watchdog,
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
            degrade: true,
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

/// A recurring fault exhausts the single retry and degrades: the
/// supervisor lane records exactly fault → backoff → restart → fault →
/// degraded, in that order, and the fallback engine keeps recording into
/// the stage lanes to the run's last sample.
#[test]
fn recurring_fault_trace_ends_in_degradation_switchover() {
    let data = blobs(3, 8, 0.4, 11);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 23);
    let dir = tmpdir("degrade");
    let tracer = Tracer::new();
    let spec = EngineSpec::Threaded(
        ThreadedConfig::fill_drain(schedule())
            .with_fault_plan(
                FaultPlan::new(0).at_rank(1, FaultSpec::new(5, RankFault::Crash).recurring()),
            )
            .with_watchdog(Watchdog::fast()),
    );
    let outcome = run_supervised(
        &spec,
        &mut || fresh_net(13),
        &train,
        &val,
        &config,
        &SnapshotPolicy::new(&dir, 2),
        &RecoveryPolicy {
            max_restarts: 1,
            backoff: Duration::from_millis(1),
            degrade: true,
        },
        &tracer,
    )
    .expect("degraded run completes");
    assert!(outcome.degraded, "run must have degraded");
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
            TracePhase::Degraded,
        ],
        "supervision instants: {:?}",
        sup.instants
    );
    let degraded = sup.instants.last().unwrap();
    assert!(
        degraded
            .detail
            .as_deref()
            .is_some_and(|d| d.contains("Fill&Drain SGDM")),
        "switchover names the fallback engine: {:?}",
        degraded.detail
    );

    // The sequential fallback traces too: stage-0 forwards continue past
    // the switchover, up to the last sample of the last epoch.
    let stage0 = trace.lane(PID_WALL, "stage-0").expect("stage-0 lane");
    let tail = stage0
        .spans
        .iter()
        .filter(|s| s.phase == TracePhase::Forward && s.start_ns >= degraded.t_ns)
        .max_by_key(|s| s.start_ns)
        .expect("the degraded engine records forward spans");
    let last_sample = (config.epochs * train.len() - 1) as u64;
    assert_eq!(tail.microbatch, Some(last_sample), "{tail:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
