//! Crash-injection matrix: for every engine, a run that is killed at an
//! arbitrary update index and restarted from its latest snapshot must
//! finish with weights bit-identical to an uninterrupted snapshotting
//! run — and the snapshotting runner itself must not perturb training
//! relative to the plain [`run_training`] loop.

use pbp_data::blobs;
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    resume_training, run_to_crash, run_training, run_training_with_snapshots, DelayDistribution,
    DelayedConfig, EngineSpec, RunConfig, ScheduledConfig, SnapshotPolicy, ThreadedConfig,
};
use pbp_snapshot::SnapshotFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn schedule() -> LrSchedule {
    LrSchedule::constant(Hyperparams::new(0.05, 0.9))
}

fn fresh_net(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    mlp(&[2, 10, 3], &mut rng)
}

/// Every engine (all have deterministic weight trajectories).
fn deterministic_specs() -> Vec<EngineSpec> {
    vec![
        EngineSpec::Delayed(DelayedConfig::sgdm(4, schedule())),
        EngineSpec::Scheduled(ScheduledConfig::fill_drain(4, schedule())),
        EngineSpec::Scheduled(
            ScheduledConfig::pb(schedule()).with_mitigation(Mitigation::lwpv_scd()),
        ),
        EngineSpec::Scheduled(ScheduledConfig::pb(schedule()).with_weight_stashing()),
        EngineSpec::Delayed(DelayedConfig::inconsistent(2, 4, schedule())),
        EngineSpec::Delayed(DelayedConfig::asgd(
            DelayDistribution::Uniform { max: 3 },
            4,
            schedule(),
            7,
        )),
        EngineSpec::Delayed(DelayedConfig::adam(3, 4, 0.01)),
        EngineSpec::Threaded(ThreadedConfig::fill_drain(schedule())),
        EngineSpec::Threaded(
            ThreadedConfig::pb(schedule()).with_mitigation(Mitigation::lwpv_scd()),
        ),
        EngineSpec::Scheduled(ScheduledConfig::one_f_one_b(4, schedule())),
        EngineSpec::Scheduled(ScheduledConfig::two_bp(4, schedule())),
    ]
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pbp_snapshot_resume_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_networks_equal(a: &Network, b: &Network, context: &str) {
    for s in 0..a.num_stages() {
        for (p, q) in a.stage(s).params().iter().zip(b.stage(s).params()) {
            assert_eq!(p.as_slice(), q.as_slice(), "{context}: stage {s}");
        }
    }
}

/// Kill at update 7 with snapshots every 3 updates on a 54-sample,
/// 3-epoch run: the kill lands between snapshots and snapshot points
/// land mid-epoch, exercising partial-epoch restore.
#[test]
fn every_engine_resumes_bit_identically_after_a_crash() {
    let data = blobs(3, 24, 0.4, 40);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(3, 17);

    for (i, spec) in deterministic_specs().into_iter().enumerate() {
        let label = spec.label();

        // Uninterrupted snapshotting run — the reference.
        let dir_a = tmpdir(&format!("ref{i}"));
        let policy_a = SnapshotPolicy::new(&dir_a, 3);
        let mut reference = spec.build(fresh_net(90));
        let report_a =
            run_training_with_snapshots(reference.as_mut(), &train, &val, &config, &policy_a)
                .expect("reference run");

        // Crashed run: killed at update 7, snapshots every 3 updates.
        let dir_b = tmpdir(&format!("crash{i}"));
        let policy_b = SnapshotPolicy::new(&dir_b, 3);
        let mut victim = spec.build(fresh_net(90));
        let outcome =
            run_to_crash(victim.as_mut(), &train, &val, &config, &policy_b, 7).expect("crash run");
        assert!(outcome.is_none(), "{label}: kill point inside the run");

        // Restart: fresh engine of the same spec, state from the latest
        // surviving snapshot.
        let snap = SnapshotFamily::engine(&dir_b)
            .latest_valid()
            .expect("list snapshots")
            .expect("at least one snapshot written before the kill");
        let mut resumed = spec.build(fresh_net(90));
        let report_c = resume_training(
            resumed.as_mut(),
            &train,
            &val,
            &config,
            Some(&policy_b),
            &snap,
        )
        .expect("resume run");

        assert_networks_equal(&reference.into_network(), &resumed.into_network(), &label);
        assert_eq!(report_a.records.len(), report_c.records.len(), "{label}");
        for (a, c) in report_a.records.iter().zip(&report_c.records) {
            assert_eq!(a, c, "{label}: records must match bit-for-bit");
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

/// Taking snapshots must not change what is trained: weights and
/// validation metrics match the plain loop bit-for-bit (the training
/// loss mean may associate differently, so it gets a tolerance).
#[test]
fn snapshotting_does_not_perturb_training() {
    let data = blobs(3, 24, 0.4, 41);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 19);

    for (i, spec) in deterministic_specs().into_iter().enumerate() {
        let label = spec.label();
        let mut plain = spec.build(fresh_net(91));
        let report_plain = run_training(plain.as_mut(), &train, &val, &config);

        let dir = tmpdir(&format!("noperturb{i}"));
        let policy = SnapshotPolicy::new(&dir, 2);
        let mut snapped = spec.build(fresh_net(91));
        let report_snap =
            run_training_with_snapshots(snapped.as_mut(), &train, &val, &config, &policy)
                .expect("snapshotting run");

        assert_eq!(report_plain.records.len(), report_snap.records.len());
        for (a, b) in report_plain.records.iter().zip(&report_snap.records) {
            assert_eq!(a.val_loss, b.val_loss, "{label}");
            assert_eq!(a.val_acc, b.val_acc, "{label}");
            assert!(
                (a.train_loss - b.train_loss).abs() < 1e-9,
                "{label}: {} vs {}",
                a.train_loss,
                b.train_loss
            );
        }
        assert_networks_equal(&plain.into_network(), &snapped.into_network(), &label);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn retention_prunes_old_snapshots() {
    let data = blobs(3, 24, 0.4, 42);
    let (train, val) = data.split(0.25);
    let dir = tmpdir("retention");
    let policy = SnapshotPolicy::new(&dir, 2).with_keep(2);
    let spec = EngineSpec::Delayed(DelayedConfig::sgdm(4, schedule()));
    let mut engine = spec.build(fresh_net(92));
    run_training_with_snapshots(
        engine.as_mut(),
        &train,
        &val,
        &RunConfig::new(3, 23),
        &policy,
    )
    .expect("snapshotting run");
    let snaps = SnapshotFamily::engine(&dir).valid_counters();
    assert_eq!(snaps.len(), 2, "keep=2 must prune older snapshots");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention counts and deletes the family's own files only: with a stray
/// `snap-notes.pbps`, a rank's snapshot and a foreign file in the
/// directory, snapshots at 2, 4 and 6 samples with `keep = 2` leave
/// exactly the two newest and every other file untouched.
#[test]
fn retention_keeps_the_two_newest_snapshots_and_touches_nothing_else() {
    let data = blobs(3, 2, 0.4, 46); // 6 samples: snapshots at 2, 4 and 6
    let dir = tmpdir("membership");
    std::fs::create_dir_all(&dir).expect("snapshot dir");
    let others = [
        "snap-notes.pbps",
        "rank000-snap-000000000001.pbps",
        "notes.txt",
    ];
    for name in others {
        std::fs::write(dir.join(name), b"not this engine's").expect("stray file");
    }
    let policy = SnapshotPolicy::new(&dir, 2).with_keep(2);
    let spec = EngineSpec::Scheduled(ScheduledConfig::pb(schedule()));
    let mut engine = spec.build(fresh_net(96));
    let config = RunConfig::new(1, 37);
    run_training_with_snapshots(engine.as_mut(), &data, &data, &config, &policy)
        .expect("snapshotting run");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("snapshot dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut want = vec!["snap-000000000004.pbps", "snap-000000000006.pbps"];
    want.extend(others);
    want.sort();
    assert_eq!(files, want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_mismatched_engines() {
    let data = blobs(3, 24, 0.4, 43);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 29);
    let dir = tmpdir("mismatch");
    let policy = SnapshotPolicy::new(&dir, 2);
    let mut sgdm = EngineSpec::Delayed(DelayedConfig::sgdm(4, schedule())).build(fresh_net(93));
    run_training_with_snapshots(sgdm.as_mut(), &train, &val, &config, &policy)
        .expect("snapshotting run");
    let snap = SnapshotFamily::engine(&dir)
        .latest_valid()
        .expect("list")
        .expect("snapshot");

    let mut other =
        EngineSpec::Scheduled(ScheduledConfig::fill_drain(4, schedule())).build(fresh_net(93));
    let err = resume_training(other.as_mut(), &train, &val, &config, None, &snap)
        .expect_err("resuming an SGDM snapshot into fill&drain must fail");
    assert!(
        matches!(
            err,
            pbp_pipeline::RunError::Snapshot(pbp_snapshot::SnapshotError::Mismatch(_))
        ),
        "typed mismatch, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The simulator's rows share one engine tag, so its own state section
/// says which row wrote it: restoring into a row with another `D_max`,
/// update rule or consistency is a typed mismatch, never a panic or a
/// silent load.
#[test]
fn delayed_state_is_not_restored_across_configs() {
    let data = blobs(3, 24, 0.4, 45);
    let rows = || {
        [
            DelayedConfig::sgdm(4, schedule()),
            DelayedConfig::consistent(2, 4, schedule()),
            DelayedConfig::consistent(3, 4, schedule()),
            DelayedConfig::inconsistent(2, 4, schedule()),
            DelayedConfig::consistent(2, 4, schedule()).with_mitigation(Mitigation::lwpv_scd()),
            DelayedConfig::consistent(2, 2, schedule()),
            DelayedConfig::asgd(DelayDistribution::Constant(2), 4, schedule(), 7),
            DelayedConfig::adam(2, 4, 0.01),
        ]
    };
    for (i, written) in rows().into_iter().enumerate() {
        let mut writer = EngineSpec::Delayed(written).build(fresh_net(95));
        writer.train_epoch(&data, 1, 0);
        let mut snap = pbp_snapshot::SnapshotBuilder::new();
        writer.write_state(&mut snap);
        let archive = pbp_snapshot::SnapshotArchive::from_bytes(&snap.to_bytes()).expect("archive");
        for (j, read) in rows().into_iter().enumerate() {
            let mut reader = EngineSpec::Delayed(read).build(fresh_net(95));
            let context = format!("{} into {}", writer.label(), reader.label());
            match reader.read_state(&archive) {
                Ok(()) => assert_eq!(i, j, "{context}: silently loaded"),
                Err(pbp_snapshot::SnapshotError::Mismatch(_)) => assert_ne!(i, j, "{context}"),
                Err(other) => panic!("{context}: typed mismatch, got {other:?}"),
            }
        }
    }
}

/// A completed snapshotting run leaves a final snapshot; resuming from
/// it is a no-op that still reproduces the full report.
#[test]
fn resuming_a_finished_run_reproduces_its_report() {
    let data = blobs(3, 24, 0.4, 44);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 31);
    let dir = tmpdir("finished");
    let policy = SnapshotPolicy::new(&dir, 4);
    let spec = EngineSpec::Scheduled(ScheduledConfig::fill_drain(4, schedule()));
    let mut engine = spec.build(fresh_net(94));
    let report = run_training_with_snapshots(engine.as_mut(), &train, &val, &config, &policy)
        .expect("snapshotting run");

    let snap = SnapshotFamily::engine(&dir)
        .latest_valid()
        .expect("list")
        .expect("snapshot");
    let mut redux = spec.build(fresh_net(94));
    let report_redux = resume_training(redux.as_mut(), &train, &val, &config, None, &snap)
        .expect("resume of finished run");
    assert_eq!(report.records, report_redux.records);
    assert_networks_equal(
        &engine.into_network(),
        &redux.into_network(),
        "finished-run resume",
    );
    let _ = std::fs::remove_dir_all(&dir);
}
