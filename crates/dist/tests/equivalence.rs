//! Cross-process bit-identity: a distributed run over real links must
//! reproduce the single-process [`ScheduledTrainer`] exactly — final
//! weights bit-for-bit, loss sums as identical f64 accumulations, and
//! Eq. 5 delay histograms counter-for-counter (DESIGN §12).
//!
//! Ranks run as threads here (same code path as the process launcher,
//! minus `fork`), over all three link flavors: in-process loopback
//! (which still round-trips every frame through the wire codec), Unix
//! sockets, and TCP.

use pbp_data::{spirals, Dataset};
use pbp_dist::{
    loopback_pair, run_rank, splice_owned_stages, LinkEndpoint, RankOutcome, RankRecovery,
    RankSpec, Topology, Transport,
};
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    MicrobatchSchedule, ScheduledConfig, ScheduledTrainer, SnapshotPolicy, StageCounters,
    TrainEngine,
};
use pbp_snapshot::SnapshotFamily;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Duration;

const NET_SEED: u64 = 11;
const ORDER_SEED: u64 = 5;
const STALL: Duration = Duration::from_secs(10);

fn dataset() -> Dataset {
    spirals(3, 16, 0.05, 2) // 48 samples
}

fn schedule() -> LrSchedule {
    LrSchedule::constant(Hyperparams::new(0.05, 0.9))
}

fn fresh_net(layers: &[usize]) -> Network {
    let mut rng = StdRng::seed_from_u64(NET_SEED);
    mlp(layers, &mut rng)
}

/// The single-process ground truth: same plan, same data order, loss
/// accumulated microbatch-by-microbatch in the same f64 order the
/// distributed loss relay uses.
fn baseline(
    layers: &[usize],
    plan: MicrobatchSchedule,
    weight_stashing: bool,
    epochs: usize,
) -> (Network, f64, pbp_pipeline::EngineMetrics) {
    let mut config = ScheduledConfig::new(plan, schedule());
    config.weight_stashing = weight_stashing;
    let mut trainer = ScheduledTrainer::new(fresh_net(layers), config);
    let data = dataset();
    let mut loss_sum = 0.0f64;
    for epoch in 0..epochs {
        for &i in &data.epoch_order(ORDER_SEED, epoch) {
            let (x, label) = data.sample(i);
            loss_sum += trainer.train_sample(x, label) as f64;
        }
    }
    let metrics = trainer.metrics();
    (trainer.into_network(), loss_sum, metrics)
}

/// How the rank threads reach each other.
enum Links {
    /// In-process channel pairs, created up front.
    Loopback,
    /// Real sockets: every rank binds/connects exactly like a
    /// `pbp-launch` child process.
    Sockets(Transport),
}

struct DistRun {
    layers: Vec<usize>,
    world: usize,
    plan: MicrobatchSchedule,
    weight_stashing: bool,
    epochs: usize,
    snapshots: Option<SnapshotPolicy>,
    resume_at: usize,
}

impl DistRun {
    fn pb(layers: &[usize], world: usize, epochs: usize) -> Self {
        DistRun {
            layers: layers.to_vec(),
            world,
            plan: MicrobatchSchedule::PipelinedBackprop,
            weight_stashing: false,
            epochs,
            snapshots: None,
            resume_at: 0,
        }
    }

    fn spec(&self, rank: usize, topology: &Topology, total: usize) -> RankSpec {
        RankSpec {
            rank,
            topology: topology.clone(),
            plan: self.plan,
            mitigation: Mitigation::None,
            weight_stashing: self.weight_stashing,
            schedule: schedule(),
            seed: ORDER_SEED,
            total_microbatches: total,
            stall: STALL,
            snapshots: self.snapshots.clone(),
            resume_at: self.resume_at,
            abort_after: None,
            recovery: RankRecovery::default(),
        }
    }

    /// Runs all ranks to completion (threads), returning outcomes in
    /// rank order.
    fn run(&self, links: Links) -> Vec<RankOutcome> {
        let topology = Topology::contiguous(self.layers.len() - 1, self.world).unwrap();
        let total = self.epochs * dataset().len();
        // Pre-build loopback link ends; sockets are set up per-thread.
        let mut ups: Vec<Option<LinkEndpoint>> = (0..self.world).map(|_| None).collect();
        let mut downs: Vec<Option<LinkEndpoint>> = (0..self.world).map(|_| None).collect();
        if let Links::Loopback = links {
            for link in 0..self.world - 1 {
                let (down_end, up_end) = loopback_pair();
                downs[link] = Some(LinkEndpoint::Conn(Box::new(down_end)));
                ups[link + 1] = Some(LinkEndpoint::Conn(Box::new(up_end)));
            }
        }
        let transport = match &links {
            Links::Sockets(t) => Some(t.clone()),
            Links::Loopback => None,
        };
        let mut handles = Vec::new();
        for rank in 0..self.world {
            let spec = self.spec(rank, &topology, total);
            let layers = self.layers.clone();
            let up = ups[rank].take();
            let down = downs[rank].take();
            let transport = transport.clone();
            handles.push(std::thread::spawn(move || {
                let net = {
                    let mut rng = StdRng::seed_from_u64(NET_SEED);
                    mlp(&layers, &mut rng)
                };
                let data = dataset();
                let world = spec.topology.world();
                let (up, down) = match transport {
                    None => (up, down),
                    Some(t) => {
                        // Same order as a launch child: bind the
                        // downstream listener before dialing upstream.
                        let down = (rank + 1 < world)
                            .then(|| LinkEndpoint::Listen(t.listen(rank).unwrap()));
                        let up = (rank > 0).then(|| LinkEndpoint::Dial {
                            transport: t.clone(),
                            link: rank - 1,
                        });
                        (up, down)
                    }
                };
                run_rank(net, &data, &spec, up, down, None)
                    .unwrap_or_else(|e| panic!("rank {rank} failed: {e}"))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    }
}

/// Reassembles the full network from the per-rank outcomes (consumes
/// them: `Network` is deliberately not `Clone`).
fn assemble(layers: &[usize], world: usize, outcomes: Vec<RankOutcome>) -> Network {
    let topology = Topology::contiguous(layers.len() - 1, world).unwrap();
    let mut target = fresh_net(layers);
    let nets: Vec<Network> = outcomes.into_iter().map(|o| o.net).collect();
    splice_owned_stages(&mut target, &topology, &nets);
    target
}

fn assert_bit_identical(a: &Network, b: &Network, context: &str) {
    assert_eq!(a.num_stages(), b.num_stages(), "{context}");
    for s in 0..a.num_stages() {
        for (p, q) in a.stage(s).params().iter().zip(b.stage(s).params()) {
            assert_eq!(p.shape(), q.shape(), "{context}: stage {s}");
            for (i, (x, y)) in p.as_slice().iter().zip(q.as_slice()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{context}: stage {s} param element {i}: {x} vs {y}"
                );
            }
        }
    }
}

/// The merged per-stage counters of a distributed run: stage `s`'s
/// counters come from the rank that owns `s`.
fn merged_counters(outcomes: &[RankOutcome], topology: &Topology) -> Vec<StageCounters> {
    (0..topology.layer_stages())
        .map(|s| {
            let owner = topology.rank_of_stage(s);
            outcomes[owner].metrics.stages[s].clone()
        })
        .collect()
}

fn assert_same_delay_histograms(dist: &[StageCounters], base: &[StageCounters], context: &str) {
    assert_eq!(dist.len(), base.len(), "{context}");
    for (s, (d, b)) in dist.iter().zip(base).enumerate() {
        assert_eq!(d.updates, b.updates, "{context}: stage {s} update count");
        assert_eq!(
            d.delay_hist, b.delay_hist,
            "{context}: stage {s} delay histogram"
        );
    }
}

fn check_against_baseline(run: &DistRun, outcomes: Vec<RankOutcome>, context: &str) {
    let (base_net, base_loss, base_metrics) =
        baseline(&run.layers, run.plan, run.weight_stashing, run.epochs);
    for (rank, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.loss_sum.to_bits(),
            base_loss.to_bits(),
            "{context}: rank {rank} loss sum {} vs sequential {}",
            outcome.loss_sum,
            base_loss
        );
        // Both substrates fill `train_ns` from the rank loop's step time.
        assert!(
            outcome.metrics.samples_per_sec() > 0.0,
            "{context}: rank {rank} reports no throughput"
        );
    }
    let topology = Topology::contiguous(run.layers.len() - 1, run.world).unwrap();
    assert_same_delay_histograms(
        &merged_counters(&outcomes, &topology),
        &base_metrics.stages,
        context,
    );
    let net = assemble(&run.layers, run.world, outcomes);
    assert_bit_identical(&net, &base_net, context);
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbp_dist_eq_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn world_of_one_matches_the_sequential_core() {
    let run = DistRun::pb(&[2, 16, 12, 3], 1, 2);
    let outcomes = run.run(Links::Loopback);
    check_against_baseline(&run, outcomes, "world=1 PB");
}

#[test]
fn four_rank_loopback_pb_is_bit_identical() {
    // Four stage groups, one layer stage each: the paper's fine-grained
    // regime where every stage runs in its own worker.
    let run = DistRun::pb(&[2, 16, 12, 8, 3], 4, 2);
    let outcomes = run.run(Links::Loopback);
    check_against_baseline(&run, outcomes, "4-rank loopback PB");
}

#[test]
fn four_rank_unix_socket_pb_is_bit_identical() {
    let run = DistRun::pb(&[2, 16, 12, 8, 3], 4, 2);
    let dir = scratch_dir("unix_pb");
    let outcomes = run.run(Links::Sockets(Transport::Unix { dir: dir.clone() }));
    check_against_baseline(&run, outcomes, "4-rank unix PB");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn four_rank_socket_one_f_one_b_is_bit_identical() {
    let mut run = DistRun::pb(&[2, 16, 12, 8, 3], 4, 2);
    run.plan = MicrobatchSchedule::OneFOneB {
        microbatches_per_update: 4,
    };
    let dir = scratch_dir("unix_1f1b");
    let outcomes = run.run(Links::Sockets(Transport::Unix { dir: dir.clone() }));
    check_against_baseline(&run, outcomes, "4-rank unix 1F1B(M=4)");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_rank_tcp_pb_is_bit_identical() {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let run = DistRun::pb(&[2, 16, 12, 3], 2, 1);
    let outcomes = run.run(Links::Sockets(Transport::Tcp {
        host: "127.0.0.1".into(),
        base_port: port,
    }));
    check_against_baseline(&run, outcomes, "2-rank tcp PB");
}

#[test]
fn weight_stashing_survives_the_wire() {
    let mut run = DistRun::pb(&[2, 16, 12, 3], 2, 2);
    run.weight_stashing = true;
    let outcomes = run.run(Links::Loopback);
    check_against_baseline(&run, outcomes, "2-rank PB+WS");
}

#[test]
fn snapshot_resume_reproduces_the_uninterrupted_run() {
    // Continuous run with mid-run snapshots, then a second run resumed
    // from the counter-48 snapshots: the resumed half must land on the
    // same bits as the run that never stopped.
    let dir = scratch_dir("resume");
    let mut run = DistRun::pb(&[2, 16, 12, 8, 3], 4, 2);
    run.snapshots = Some(SnapshotPolicy::new(&dir, 24));
    let full = run.run(Links::Loopback);

    let mut resumed_run = DistRun::pb(&[2, 16, 12, 8, 3], 4, 2);
    resumed_run.snapshots = Some(SnapshotPolicy::new(&dir, 24));
    resumed_run.resume_at = 48;
    let resumed = resumed_run.run(Links::Loopback);

    for (a, b) in full.iter().zip(&resumed) {
        assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits(), "loss sums");
        assert_eq!(a.samples_seen, b.samples_seen);
    }
    // The delay histograms also survive restore (metrics are part of the
    // rank snapshot).
    let topology = Topology::contiguous(4, 4).unwrap();
    let fc = merged_counters(&full, &topology);
    let rc = merged_counters(&resumed, &topology);
    for (s, (f, r)) in fc.iter().zip(&rc).enumerate() {
        assert_eq!(f.updates, r.updates, "stage {s} updates");
        assert_eq!(f.delay_hist, r.delay_hist, "stage {s} delay hist");
    }
    let net_full = assemble(&run.layers, run.world, full);
    let net_resumed = assemble(&run.layers, run.world, resumed);
    assert_bit_identical(&net_full, &net_resumed, "resume at 48");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rank's snapshot cadence counts optimizer updates, as an engine's
/// does: under 1F1B with four microbatches an update, every 3 updates is
/// every 12 microbatches, and a resume from one reproduces the run.
#[test]
fn snapshot_cadence_counts_updates() {
    let dir = scratch_dir("cadence");
    let mut run = DistRun::pb(&[2, 16, 12, 3], 2, 1);
    run.plan = MicrobatchSchedule::OneFOneB {
        microbatches_per_update: 4,
    };
    run.snapshots = Some(SnapshotPolicy::new(&dir, 3));
    let full = run.run(Links::Loopback);
    for rank in 0..2 {
        let counters = SnapshotFamily::rank(&dir, rank).valid_counters();
        assert_eq!(
            counters,
            vec![24, 36, 48],
            "rank {rank}: keep 3 of 12/24/36/48"
        );
    }
    run.resume_at = 24;
    let resumed = run.run(Links::Loopback);
    for (a, b) in full.iter().zip(&resumed) {
        assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits(), "loss sums");
    }
    let net_full = assemble(&run.layers, run.world, full);
    let net_resumed = assemble(&run.layers, run.world, resumed);
    assert_bit_identical(&net_full, &net_resumed, "1F1B resume at 24");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Retention is the family's, not the process's: a rank respawned at 16
/// with `keep = 2` prunes the files an earlier incarnation wrote below
/// its resume point as well as its own, leaving exactly the newest two.
#[test]
fn a_respawned_rank_prunes_what_its_predecessor_wrote() {
    let dir = scratch_dir("respawn");
    let mut run = DistRun::pb(&[2, 8, 3], 1, 1);
    let topology = Topology::contiguous(2, 1).unwrap();
    let data = dataset();
    let mut policy = SnapshotPolicy::new(&dir, 8);
    policy.keep = usize::MAX;
    run.snapshots = Some(policy.clone());
    run_rank(
        fresh_net(&run.layers),
        &data,
        &run.spec(0, &topology, 32),
        None,
        None,
        None,
    )
    .expect("first incarnation");
    let family = SnapshotFamily::rank(&dir, 0);
    assert_eq!(family.valid_counters(), vec![8, 16, 24, 32]);

    run.snapshots = Some(policy.with_keep(2));
    run.resume_at = 16;
    run_rank(
        fresh_net(&run.layers),
        &data,
        &run.spec(0, &topology, 32),
        None,
        None,
        None,
    )
    .expect("respawned incarnation");
    assert_eq!(family.valid_counters(), vec![24, 32]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn link_topology_is_validated() {
    let topology = Topology::contiguous(3, 2).unwrap();
    let spec = RankSpec {
        rank: 0,
        topology,
        plan: MicrobatchSchedule::PipelinedBackprop,
        mitigation: Mitigation::None,
        weight_stashing: false,
        schedule: schedule(),
        seed: ORDER_SEED,
        total_microbatches: 8,
        stall: STALL,
        snapshots: None,
        resume_at: 0,
        abort_after: None,
        recovery: RankRecovery::default(),
    };
    // Rank 0 of a 2-rank world must have a downstream link and no
    // upstream; both violations are typed spec errors.
    let data = dataset();
    let err = run_rank(fresh_net(&[2, 8, 6, 3]), &data, &spec, None, None, None);
    assert!(
        matches!(&err, Err(pbp_dist::DistError::Spec(_))),
        "{:?}",
        err.err()
    );
    let (a, _b) = loopback_pair();
    let err = run_rank(
        fresh_net(&[2, 8, 6, 3]),
        &data,
        &spec,
        Some(LinkEndpoint::Conn(Box::new(a))),
        None,
        None,
    );
    assert!(
        matches!(&err, Err(pbp_dist::DistError::Spec(_))),
        "{:?}",
        err.err()
    );
}
