//! An injected crash is a panic on every host. Two ranks on threads show
//! in-process what a launched group's processes do: the crashing rank's
//! thread panics with the injected message as it turns to its scripted
//! backward, and its neighbour returns a typed link fault within the stall
//! window instead of hanging. A rank process that panics this way exits
//! nonzero, which is what `pbp_dist::launch` restarts the group for.

use pbp_data::{spirals, Dataset};
use pbp_dist::{
    loopback_pair, run_rank, DistError, LinkEndpoint, RankOutcome, RankRecovery, RankSpec,
    Topology, Transport,
};
use pbp_nn::models::mlp;
use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::MicrobatchSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const LAYERS: [usize; 4] = [2, 16, 12, 3];
const STALL: Duration = Duration::from_secs(5);
/// Rank 1 crashes as it turns to this backward.
const CRASH_AT: usize = 20;

fn dataset() -> Dataset {
    spirals(3, 16, 0.05, 2) // 48 samples
}

fn spec(rank: usize, topology: &Topology) -> RankSpec {
    RankSpec {
        rank,
        topology: topology.clone(),
        plan: MicrobatchSchedule::PipelinedBackprop,
        mitigation: Mitigation::None,
        weight_stashing: false,
        schedule: LrSchedule::constant(Hyperparams::new(0.05, 0.9)),
        seed: 5,
        total_microbatches: 2 * dataset().len(),
        stall: STALL,
        snapshots: None,
        resume_at: 0,
        abort_after: (rank == 1).then_some(CRASH_AT),
        // Reconnect off: a link fault is terminal for the rank.
        recovery: RankRecovery::default(),
    }
}

/// Runs rank 0 and the crashing rank 1 on two threads over `(down, up)`:
/// rank 0's result, rank 1's panic message, and how long both took.
fn crash_run(
    topology: &Topology,
    down: LinkEndpoint,
    up: LinkEndpoint,
) -> (Result<RankOutcome, DistError>, String, Duration) {
    let data = dataset();
    let (spec0, spec1) = (spec(0, topology), spec(1, topology));
    let net = || mlp(&LAYERS, &mut StdRng::seed_from_u64(11));
    let started = Instant::now();
    let (rank0, rank1) = std::thread::scope(|s| {
        let rank0 = s.spawn(|| run_rank(net(), &data, &spec0, None, Some(down), None));
        let rank1 = s.spawn(|| run_rank(net(), &data, &spec1, Some(up), None, None));
        (rank0.join(), rank1.join())
    });
    let elapsed = started.elapsed();
    let Err(payload) = rank1 else {
        panic!("rank 1 returned instead of crashing");
    };
    let message = match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => format!("{:?}", payload.downcast_ref::<&str>()),
    };
    (rank0.expect("rank 0 returns"), message, elapsed)
}

#[test]
fn a_crashed_rank_panics_and_its_neighbour_fails_typed_within_the_stall_window() {
    let topology = Topology::contiguous(LAYERS.len() - 1, 2).unwrap();
    let first = topology.range(1).start;
    let dir = std::env::temp_dir().join(format!("pbp_dist_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let transport = Transport::Unix { dir: dir.clone() };
    let (a, b) = loopback_pair();
    let flavors = [
        (
            "loopback",
            LinkEndpoint::Conn(Box::new(a)),
            LinkEndpoint::Conn(Box::new(b)),
        ),
        (
            "unix",
            LinkEndpoint::Listen(transport.listen(0).unwrap()),
            LinkEndpoint::Dial { transport, link: 0 },
        ),
    ];
    for (flavor, down, up) in flavors {
        let (rank0, message, elapsed) = crash_run(&topology, down, up);
        assert_eq!(
            message,
            format!("injected fault: stage {first} panics at update {CRASH_AT}"),
            "{flavor}: rank 1's panic"
        );
        match rank0 {
            Err(DistError::PeerClosed | DistError::PeerStalled(_)) => {}
            Err(other) => panic!("{flavor}: rank 0 failed untyped: {other}"),
            Ok(_) => panic!("{flavor}: rank 0 finished without its neighbour"),
        }
        assert!(elapsed < STALL, "{flavor}: rank 0 took {elapsed:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
