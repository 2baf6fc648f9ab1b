//! Chaos suite for the supervised threaded pipeline (ISSUE 5 acceptance):
//!
//! * (a) injected stage panics and stalls surface as typed
//!   [`PipelineFault`]s within the watchdog timeout — never a deadlock,
//!   across a proptest sweep of random fault plans;
//! * (b) a kill-at-update-N plus supervisor auto-resume of the
//!   deterministic threaded fill/drain engine is bit-identical to the
//!   uninterrupted run;
//! * (c) a repeatedly-failing stage degrades the run to the sequential
//!   engine, which completes training bit-identically to an unfaulted
//!   run, with the switchover recorded in the supervision log.

use pbp_data::{blobs, Dataset};
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule};
use pbp_pipeline::{
    run_supervised, run_training_with_snapshots, EngineSpec, FaultPlan, FaultSpec, PipelineFault,
    RankFault, RecoveryPolicy, RunConfig, RunError, SnapshotPolicy, SupervisionEvent,
    ThreadedConfig, ThreadedPipeline, Watchdog,
};
use pbp_snapshot::{SnapshotArchive, SnapshotFamily};
use pbp_trace::Tracer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn schedule() -> LrSchedule {
    let hp = scale_hyperparams(Hyperparams::new(0.1, 0.9), 8, 1);
    LrSchedule::constant(hp)
}

fn fresh_net(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    mlp(&[2, 8, 8, 3], &mut rng)
}

/// Streams `n` samples cycling through `data` into a fresh engine.
fn stream(
    net: Network,
    cfg: ThreadedConfig,
    data: &Dataset,
    n: usize,
) -> Result<Vec<f32>, PipelineFault> {
    let order: Vec<usize> = (0..n).map(|i| i % data.len()).collect();
    ThreadedPipeline::new(net, cfg).stream(data, &order)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbp_chaos_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Satellite regression: a forced stage panic used to drop a channel
/// sender and block the neighbours' `recv()` forever. Under supervision
/// it must surface as a typed fault, fast.
#[test]
fn forced_stage_panic_returns_typed_error_not_deadlock() {
    let data = blobs(3, 10, 0.4, 1);
    let cfg = ThreadedConfig::pb(schedule())
        .with_fault_plan(FaultPlan::new(0).at_rank(1, FaultSpec::new(5, RankFault::Crash)))
        .with_watchdog(Watchdog::fast());
    let start = Instant::now();
    let err = stream(fresh_net(1), cfg, &data, 30).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, PipelineFault::StagePanicked { stage: 1, .. }),
        "{err}"
    );
    assert!(
        err.to_string().contains("injected fault"),
        "panic payload should be preserved: {err}"
    );
    // Fast watchdog: detection + shutdown grace is well under a second;
    // anything near this bound would mean we hung until some timeout.
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}

/// (a) An injected stall longer than the stall timeout is detected by the
/// watchdog and attributed to the right stage.
#[test]
fn injected_stall_is_flagged_by_watchdog_within_timeout() {
    let data = blobs(3, 10, 0.4, 2);
    let cfg = ThreadedConfig::fill_drain(schedule())
        .with_fault_plan(FaultPlan::new(0).at_rank(
            1,
            FaultSpec::new(3, RankFault::Stall(Duration::from_millis(800))),
        ))
        .with_watchdog(Watchdog::fast().with_stall_timeout(Duration::from_millis(100)));
    let start = Instant::now();
    let err = stream(fresh_net(2), cfg, &data, 30).unwrap_err();
    let elapsed = start.elapsed();
    match err {
        PipelineFault::StageStalled { stage, stalled_for } => {
            assert_eq!(stage, 1, "stall attributed to the sleeping stage");
            assert!(stalled_for >= Duration::from_millis(100));
        }
        other => panic!("expected a stall fault, got {other}"),
    }
    // Detection must not wait out the full 800 ms sleep plus margin—the
    // watchdog fires at ~100 ms and the grace period is 500 ms.
    assert!(elapsed < Duration::from_secs(3), "took {elapsed:?}");
}

// (a) Zero deadlocks across random fault plans: whatever combination of
// crashes, stalls, severed links and jitter a seed produces, on either
// threaded mode, the run terminates promptly with success or a typed
// fault.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_fault_plans_always_terminate(seed in 0u64..10_000) {
        let net = fresh_net(seed);
        let stages = net.num_stages();
        let plan = FaultPlan::random(seed, stages, 0, 40);
        let base = if seed % 2 == 0 {
            ThreadedConfig::pb(schedule())
        } else {
            ThreadedConfig::fill_drain(schedule())
        };
        let cfg = base
            .with_fault_plan(plan)
            .with_watchdog(Watchdog::fast());
        let data = blobs(3, 10, 0.4, 3);
        let start = Instant::now();
        let result = stream(net, cfg, &data, 40);
        let elapsed = start.elapsed();
        prop_assert!(
            elapsed < Duration::from_secs(20),
            "seed {seed}: near-hang, took {elapsed:?}"
        );
        match result {
            Ok(losses) => prop_assert_eq!(losses.len(), 40),
            Err(fault) => {
                // Any typed fault is an acceptable terminal state; its
                // Display must not panic either.
                let _ = fault.to_string();
            }
        }
    }
}

/// Final weights are byte-identical: compares the `net` sections of the
/// final snapshots two runs wrote on completion.
fn assert_final_snapshots_match(clean_dir: &std::path::Path, chaos_dir: &std::path::Path) {
    let latest = |dir| SnapshotFamily::engine(dir).latest_valid().unwrap().unwrap();
    let (clean_snap, chaos_snap) = (latest(clean_dir), latest(chaos_dir));
    assert_eq!(
        clean_snap.file_name(),
        chaos_snap.file_name(),
        "both runs end at the same sample count"
    );
    let clean_net = SnapshotArchive::load(&clean_snap).unwrap();
    let chaos_net = SnapshotArchive::load(&chaos_snap).unwrap();
    assert_eq!(
        clean_net.section("net").unwrap(),
        chaos_net.section("net").unwrap(),
        "final network weights must be bit-identical"
    );
}

/// (b) Kill at update N and stall at update M, then supervisor
/// auto-resume: the recovered run must be bit-identical to an
/// uninterrupted one — same epoch records, same final weights.
#[test]
fn supervised_recovery_is_bit_identical() {
    let data = blobs(3, 10, 0.4, 9);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 17);

    // Uninterrupted reference run with the same snapshot cadence.
    let clean_dir = tmpdir("clean");
    let clean_spec = EngineSpec::Threaded(ThreadedConfig::fill_drain(schedule()));
    let mut clean_engine = clean_spec.build(fresh_net(7));
    let clean_report = run_training_with_snapshots(
        clean_engine.as_mut(),
        &train,
        &val,
        &config,
        &SnapshotPolicy::new(&clean_dir, 4),
    )
    .expect("clean run");

    // Same engine, same data, but stage 1 panics once at update 12 and
    // stage 0 stalls once at update 30, well past the watchdog's 200 ms —
    // two transient faults of different kinds in one run, each of which
    // the supervisor must absorb via snapshot resume.
    let chaos_dir = tmpdir("recover");
    let faulty_spec = EngineSpec::Threaded(
        ThreadedConfig::fill_drain(schedule())
            .with_fault_plan(
                FaultPlan::new(0)
                    .at_rank(1, FaultSpec::new(12, RankFault::Crash))
                    .at_rank(
                        0,
                        FaultSpec::new(30, RankFault::Stall(Duration::from_millis(600))),
                    ),
            )
            .with_watchdog(Watchdog::fast()),
    );
    let outcome = run_supervised(
        &faulty_spec,
        &mut || fresh_net(7),
        &train,
        &val,
        &config,
        &SnapshotPolicy::new(&chaos_dir, 4),
        &RecoveryPolicy::immediate(4),
        &Tracer::disabled(),
    )
    .expect("supervised run recovers");

    assert!(
        outcome.restarts >= 2,
        "both faults must actually have fired (restarts = {})",
        outcome.restarts
    );
    assert!(!outcome.degraded);
    let faults: Vec<&PipelineFault> = outcome
        .events
        .iter()
        .filter_map(|e| match e {
            SupervisionEvent::Fault { fault, .. } => Some(fault),
            _ => None,
        })
        .collect();
    for want in [
        |f: &PipelineFault| matches!(f, PipelineFault::StagePanicked { stage: 1, .. }),
        |f: &PipelineFault| matches!(f, PipelineFault::StageStalled { stage: 0, .. }),
    ] {
        assert!(faults.iter().any(|f| want(f)), "{faults:?}");
    }

    // Records (train loss, val loss, val acc) are f64-exact.
    assert_eq!(clean_report.records.len(), outcome.report.records.len());
    for (a, b) in clean_report.records.iter().zip(&outcome.report.records) {
        assert_eq!(a, b, "records diverged after recovery");
    }

    assert_final_snapshots_match(&clean_dir, &chaos_dir);

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

/// (c) A hard (recurring) fault exhausts retries and degrades to the
/// sequential engine, which restores the threaded engine's full state —
/// optimizers and weight-version FIFOs included — and completes the run
/// bit-identically to an unfaulted one; the switchover is visible in the
/// outcome's event log. PB with LWP+SC makes the carried-over state
/// matter: momentum, the prediction buffers and six in-flight weight
/// versions at stage 0 all cross the engine switch.
#[test]
fn repeated_fault_degrades_to_emulator_and_completes() {
    let data = blobs(3, 8, 0.4, 11);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 23);
    let threaded = || {
        ThreadedConfig::pb(schedule())
            .with_mitigation(pbp_optim::Mitigation::lwpv_scd())
            .with_watchdog(Watchdog::fast())
    };

    // Unfaulted reference run with the same snapshot cadence.
    let clean_dir = tmpdir("degrade_clean");
    let mut clean_engine = EngineSpec::Threaded(threaded()).build(fresh_net(13));
    let clean_report = run_training_with_snapshots(
        clean_engine.as_mut(),
        &train,
        &val,
        &config,
        &SnapshotPolicy::new(&clean_dir, 2),
    )
    .expect("clean run");

    let dir = tmpdir("degrade");
    let spec = EngineSpec::Threaded(threaded().with_fault_plan(
        FaultPlan::new(0).at_rank(1, FaultSpec::new(5, RankFault::Crash).recurring()),
    ));
    let outcome = run_supervised(
        &spec,
        &mut || fresh_net(13),
        &train,
        &val,
        &config,
        &SnapshotPolicy::new(&dir, 2),
        &RecoveryPolicy::immediate(1),
        &Tracer::disabled(),
    )
    .expect("degraded run completes");

    assert!(outcome.degraded, "run must have degraded");
    assert_eq!(outcome.restarts, 1);
    let degraded_to = outcome.events.iter().find_map(|e| match e {
        SupervisionEvent::Degraded { to } => Some(to.clone()),
        _ => None,
    });
    assert_eq!(degraded_to.as_deref(), Some("PB+LWPvD+SCD"));
    // The degraded run is indistinguishable from the unfaulted one:
    // f64-exact epoch records, byte-identical final weights.
    assert_eq!(clean_report.records, outcome.report.records);
    assert_final_snapshots_match(&clean_dir, &dir.join("degraded"));

    // The switchover shows up in the outcome's printed log.
    let log: Vec<String> = outcome.events.iter().map(|e| e.to_string()).collect();
    assert!(log.iter().any(|e| e.contains("panicked")), "{log:?}");
    assert!(
        log.iter().any(|e| e == "degraded to PB+LWPvD+SCD"),
        "{log:?}"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With degradation disabled, exhausted retries surface the last typed
/// fault instead.
#[test]
fn no_degrade_policy_surfaces_fault_after_retries() {
    let data = blobs(3, 8, 0.4, 12);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(1, 29);
    let dir = tmpdir("nodegrade");
    let spec = EngineSpec::Threaded(
        ThreadedConfig::fill_drain(schedule())
            .with_fault_plan(
                FaultPlan::new(0).at_rank(0, FaultSpec::new(2, RankFault::Crash).recurring()),
            )
            .with_watchdog(Watchdog::fast()),
    );
    let err = run_supervised(
        &spec,
        &mut || fresh_net(21),
        &train,
        &val,
        &config,
        &SnapshotPolicy::new(&dir, 2),
        &RecoveryPolicy::immediate(1).no_degrade(),
        &Tracer::disabled(),
    )
    .expect_err("must fail without a degradation path");
    match err {
        RunError::Fault(PipelineFault::StagePanicked { stage: 0, .. }) => {}
        other => panic!("expected the recurring stage-0 panic, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
