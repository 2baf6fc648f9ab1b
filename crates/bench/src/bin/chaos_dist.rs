//! `chaos_dist`: network-chaos soak for the distributed runtime,
//! gating `scripts/check.sh` (set `PBP_BENCH_SMOKE=1` for the short
//! seeded variant).
//!
//! Three scenarios, every one asserting bit-identity with the
//! sequential [`ScheduledTrainer`] core — final weights bit-for-bit,
//! f64 loss sums, and Eq. 5 delay histograms:
//!
//! 1. **Randomized fault plans** — seeded [`FaultPlan::random`] wire
//!    schedules (drops, truncations, bit flips, duplicates, delays,
//!    partitions) over 4-rank PB and 1F1B runs on real Unix sockets,
//!    recovered by reconnect-with-replay alone.
//! 2. **Scripted partition** — an interior link goes dark mid-run in
//!    both directions; the session layer reconnects and replays the
//!    unacked window.
//! 3. **Single-rank kill** — this binary re-executes itself under the
//!    stage-group supervisor (`pbp_dist::launch`), crashes one rank
//!    mid-run (`rank:2:crash@30`), and verifies the restart of all four
//!    ranks from their newest common snapshot through the final rank
//!    snapshots.

use pbp_data::{spirals, Dataset};
use pbp_dist::{
    env_net_faults, launch, load_rank_snapshot, run_rank, splice_owned_stages, DistError,
    LaunchFault, LaunchSpec, LinkEndpoint, RankOutcome, RankRecovery, RankSpec, ReconnectPolicy,
    Topology, Transport,
};
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    EngineMetrics, FaultPlan, FaultSpec, LinkDir, LinkFault, MicrobatchSchedule, RecoveryPolicy,
    ScheduledConfig, ScheduledTrainer, SnapshotPolicy, StageCounters, SupervisionEvent,
    TrainEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::Duration;

const LAYERS: [usize; 5] = [2, 16, 12, 8, 3]; // 4 stages, one per rank
const WORLD: usize = 4;
const NET_SEED: u64 = 0xCA05;
const ORDER_SEED: u64 = 5;
const EPOCHS: usize = 2; // spirals(3,16,..) has 48 samples → 96 microbatches
const STALL: Duration = Duration::from_secs(10);

fn dataset() -> Dataset {
    spirals(3, 16, 0.05, 2)
}

fn schedule() -> LrSchedule {
    LrSchedule::constant(Hyperparams::new(0.05, 0.9))
}

fn fresh_net() -> Network {
    let mut rng = StdRng::seed_from_u64(NET_SEED);
    mlp(&LAYERS, &mut rng)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbp_chaos_dist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Baseline {
    net: Network,
    loss_sum: f64,
    metrics: EngineMetrics,
}

/// The single-process ground truth: same plan, same data order, loss
/// accumulated in the same per-microbatch f64 order the distributed
/// loss relay uses.
fn baseline(plan: MicrobatchSchedule) -> Baseline {
    let config = ScheduledConfig::new(plan, schedule());
    let mut trainer = ScheduledTrainer::new(fresh_net(), config);
    let data = dataset();
    let mut loss_sum = 0.0f64;
    for epoch in 0..EPOCHS {
        for &i in &data.epoch_order(ORDER_SEED, epoch) {
            let (x, label) = data.sample(i);
            loss_sum += trainer.train_sample(x, label) as f64;
        }
    }
    let metrics = trainer.metrics();
    Baseline {
        net: trainer.into_network(),
        loss_sum,
        metrics,
    }
}

/// Runs a 4-rank group as threads over real Unix sockets with the given
/// wire chaos, recovering through reconnect-with-replay only.
fn run_faulted(plan: MicrobatchSchedule, faults: &FaultPlan, tag: &str) -> Vec<RankOutcome> {
    let dir = scratch(tag);
    let transport = Transport::Unix { dir: dir.clone() };
    let topology = Topology::contiguous(LAYERS.len() - 1, WORLD).expect("valid partition");
    let total = EPOCHS * dataset().len();
    let mut handles = Vec::new();
    for rank in 0..WORLD {
        let spec = RankSpec {
            rank,
            topology: topology.clone(),
            plan,
            mitigation: Mitigation::None,
            weight_stashing: false,
            schedule: schedule(),
            seed: ORDER_SEED,
            total_microbatches: total,
            stall: STALL,
            snapshots: None,
            resume_at: 0,
            abort_after: None,
            recovery: RankRecovery {
                // One shared plan: each link end consumes its own
                // disjoint (link, direction) slice.
                net_faults: Some(faults.clone()),
                reconnect: Some(ReconnectPolicy {
                    deadline: Duration::from_secs(5),
                    backoff: Duration::from_millis(10),
                }),
            },
        };
        let transport = transport.clone();
        let data = dataset();
        handles.push(std::thread::spawn(move || {
            let down = (rank + 1 < WORLD)
                .then(|| LinkEndpoint::Listen(transport.listen(rank).expect("bind link")));
            let up = (rank > 0).then(|| LinkEndpoint::Dial {
                transport: transport.clone(),
                link: rank - 1,
            });
            run_rank(fresh_net(), &data, &spec, up, down, None).expect("rank run under chaos")
        }));
    }
    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    outcomes
}

/// Stage `s`'s counters, taken from the rank that owns `s`.
fn merged_counters(outcomes: &[RankOutcome], topology: &Topology) -> Vec<StageCounters> {
    (0..topology.layer_stages())
        .map(|s| outcomes[topology.rank_of_stage(s)].metrics.stages[s].clone())
        .collect()
}

fn assert_bit_identical_nets(got: &Network, want: &Network, context: &str) {
    for s in 0..got.num_stages() {
        for (p, q) in got.stage(s).params().iter().zip(want.stage(s).params()) {
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

/// Deterministic side of the counters only: update counts and Eq. 5
/// delay histograms. Busy-time nanoseconds are wall-clock and differ by
/// construction.
fn assert_same_delay_histograms(dist: &[StageCounters], base: &[StageCounters], context: &str) {
    assert_eq!(dist.len(), base.len(), "{context}: stage count");
    for (s, (d, b)) in dist.iter().zip(base).enumerate() {
        assert_eq!(d.updates, b.updates, "{context}: stage {s} update count");
        assert_eq!(
            d.delay_hist, b.delay_hist,
            "{context}: stage {s} delay histogram"
        );
    }
}

fn assert_matches_baseline(outcomes: Vec<RankOutcome>, base: &Baseline, context: &str) {
    for (rank, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.loss_sum.to_bits(),
            base.loss_sum.to_bits(),
            "{context}: rank {rank} loss sum {} != sequential {}",
            outcome.loss_sum,
            base.loss_sum
        );
    }
    let topology = Topology::contiguous(LAYERS.len() - 1, WORLD).expect("valid partition");
    let counters = merged_counters(&outcomes, &topology);
    assert_same_delay_histograms(&counters, &base.metrics.stages, context);
    let mut net = fresh_net();
    let nets: Vec<Network> = outcomes.into_iter().map(|o| o.net).collect();
    splice_owned_stages(&mut net, &topology, &nets);
    assert_bit_identical_nets(&net, &base.net, context);
}

/// Scenario 1+2 driver: one plan flavor under one fault schedule.
fn soak_one(plan: MicrobatchSchedule, base: &Baseline, faults: &FaultPlan, tag: &str) {
    eprintln!("  [{tag}] faults: {}", faults.spec_string());
    let outcomes = run_faulted(plan, faults, tag);
    assert_matches_baseline(outcomes, base, tag);
    eprintln!("  [{tag}] bit-identical: weights, loss sums, delay histograms");
}

/// The scripted mid-run partition of the acceptance criteria: the
/// interior link 1 goes dark in both directions.
fn partition_plan() -> FaultPlan {
    let dark = |at| FaultSpec::new(at, LinkFault::Partition(5));
    FaultPlan::new(0)
        .at_link(1, LinkDir::Down, dark(40))
        .at_link(1, LinkDir::Up, dark(43))
}

/// Scenario 3: re-execute this binary under the stage-group supervisor,
/// abort rank 2 mid-run, and verify the final snapshots.
fn kill_scenario(base: &Baseline) {
    let dir = scratch("kill");
    let program = std::env::current_exe().expect("own executable path");
    let spec = LaunchSpec {
        program,
        args: vec![
            "--chaos-child".into(),
            "--snap-dir".into(),
            dir.display().to_string(),
        ],
        world: WORLD,
        snapshot_dir: dir.clone(),
        recovery: RecoveryPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(100),
        },
        attempt_timeout: Some(Duration::from_secs(120)),
    };
    // The supervisor hands the respawn the plan minus the spent crash.
    std::env::set_var("PBP_NET_FAULTS", "rank:2:crash@30");
    let report = launch(&spec).expect("the group restart must recover");
    std::env::remove_var("PBP_NET_FAULTS");
    for event in &report.events {
        eprintln!("  [kill] supervisor: {event}");
    }
    let respawned_group = |e: &SupervisionEvent<LaunchFault>| {
        matches!(e, SupervisionEvent::Restart { from_snapshot: Some(from), .. }
            if from.ends_with("(all ranks)"))
    };
    assert!(
        report.events.iter().any(respawned_group),
        "the injected crash must have forced a group restart: {:?}",
        report.events
    );

    // Every rank's final snapshot, read back as the outcome it records.
    let total = EPOCHS * dataset().len();
    let outcomes: Vec<RankOutcome> = (0..WORLD)
        .map(|rank| {
            load_rank_snapshot(fresh_net(), &kill_spec(rank, &dir), total)
                .unwrap_or_else(|e| panic!("rank {rank}'s final snapshot: {e}"))
        })
        .collect();
    assert_matches_baseline(outcomes, base, "[kill] group restart");
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("  [kill] bit-identical: weights, loss sums, delay histograms");
}

/// Rank `rank` of the kill scenario's group, fresh and fault-free: what
/// every incarnation shares, and what the final snapshots are read with.
fn kill_spec(rank: usize, snap_dir: &Path) -> RankSpec {
    let stall = Duration::from_secs(5);
    RankSpec {
        rank,
        topology: Topology::contiguous(LAYERS.len() - 1, WORLD).expect("valid partition"),
        plan: MicrobatchSchedule::PipelinedBackprop,
        mitigation: Mitigation::None,
        weight_stashing: false,
        schedule: schedule(),
        seed: ORDER_SEED,
        total_microbatches: EPOCHS * dataset().len(),
        stall,
        snapshots: Some(SnapshotPolicy::new(snap_dir, 24)),
        resume_at: 0,
        abort_after: None,
        recovery: RankRecovery {
            net_faults: None,
            reconnect: Some(ReconnectPolicy {
                deadline: stall,
                backoff: Duration::from_millis(10),
            }),
        },
    }
}

/// Child mode for the kill scenario: one rank of the supervised group,
/// mirroring `pbp-launch`'s child configuration.
fn run_child(argv: &[String]) -> Result<(), DistError> {
    let mut rank = None;
    let mut resume_at = 0usize;
    let mut snap_dir = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| DistError::Spec(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--chaos-child" => {}
            "--rank" => rank = Some(parse_num(&value(flag)?)?),
            "--resume-at" => resume_at = parse_num(&value(flag)?)?,
            "--snap-dir" => snap_dir = Some(PathBuf::from(value(flag)?)),
            other => return Err(DistError::Spec(format!("unknown child flag {other}"))),
        }
    }
    let rank = rank.ok_or_else(|| DistError::Spec("child needs --rank".into()))?;
    let snap_dir = snap_dir.ok_or_else(|| DistError::Spec("child needs --snap-dir".into()))?;
    let mut spec = kill_spec(rank, &snap_dir);
    spec.resume_at = resume_at;
    // A plan this process cannot honour is refused by `run_rank`.
    spec.recovery.net_faults = env_net_faults();
    let faults = spec.recovery.net_faults.as_ref();
    spec.abort_after = faults.and_then(|p| p.process_crash(rank).ok()?);
    let transport = Transport::Unix {
        dir: snap_dir.join("links"),
    };
    let downstream = (rank + 1 < WORLD)
        .then(|| transport.listen(rank).map(LinkEndpoint::Listen))
        .transpose()?;
    let upstream = (rank > 0).then(|| LinkEndpoint::Dial {
        transport: transport.clone(),
        link: rank - 1,
    });
    let outcome = run_rank(fresh_net(), &dataset(), &spec, upstream, downstream, None)?;
    eprintln!(
        "  [kill] rank {rank}: done, {} microbatches, loss sum {:.6}",
        outcome.samples_seen, outcome.loss_sum
    );
    Ok(())
}

fn parse_num(raw: &str) -> Result<usize, DistError> {
    raw.parse::<usize>()
        .map_err(|_| DistError::Spec(format!("invalid number {raw:?}")))
}

fn parent() -> usize {
    let smoke = std::env::var_os("PBP_BENCH_SMOKE").is_some();
    // PBP_CHAOS_SEEDS narrows the soak to specific plan seeds — handy
    // for replaying a failure the randomized sweep found.
    let random_seeds: Vec<u64> = match std::env::var("PBP_CHAOS_SEEDS") {
        Ok(raw) => raw
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse().expect("PBP_CHAOS_SEEDS: seed list"))
            .collect(),
        Err(_) if smoke => vec![7],
        Err(_) => vec![7, 19, 23, 42],
    };
    eprintln!(
        "== chaos dist: {WORLD}-rank socket runs under injected network faults{} ==",
        if smoke { " (smoke)" } else { "" }
    );

    let pb = baseline(MicrobatchSchedule::PipelinedBackprop);
    let ofob = baseline(MicrobatchSchedule::OneFOneB {
        microbatches_per_update: 4,
    });
    let mut runs = 0usize;

    // PBP_NET_FAULTS replays one explicit schedule (the spec string a
    // failing soak logged) instead of the random sweep.
    if let Ok(raw) = std::env::var("PBP_NET_FAULTS") {
        let faults = FaultPlan::parse(&raw).expect("PBP_NET_FAULTS");
        soak_one(
            MicrobatchSchedule::PipelinedBackprop,
            &pb,
            &faults,
            "pb/env",
        );
        return 1;
    }

    // Scenario 1: randomized seeded fault plans, both plan flavors.
    for &seed in &random_seeds {
        let faults = FaultPlan::random(seed, 0, WORLD - 1, 64);
        soak_one(
            MicrobatchSchedule::PipelinedBackprop,
            &pb,
            &faults,
            &format!("pb/seed{seed}"),
        );
        runs += 1;
        let faults = FaultPlan::random(seed ^ 0x5A5A, 0, WORLD - 1, 64);
        soak_one(
            MicrobatchSchedule::OneFOneB {
                microbatches_per_update: 4,
            },
            &ofob,
            &faults,
            &format!("1f1b/seed{seed}"),
        );
        runs += 1;
    }

    // A seed-replay run stops here: scenarios 2 and 3 are fixed and
    // not part of what's being replayed.
    if std::env::var_os("PBP_CHAOS_SEEDS").is_some() {
        return runs;
    }

    // Scenario 2: the scripted mid-run partition.
    soak_one(
        MicrobatchSchedule::PipelinedBackprop,
        &pb,
        &partition_plan(),
        "pb/partition",
    );
    runs += 1;

    // Scenario 3: single-rank kill, recovered by a group restart.
    kill_scenario(&pb);
    runs += 1;
    runs
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--chaos-child") {
        if let Err(e) = run_child(&argv) {
            eprintln!("chaos_dist child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let runs = parent();
    eprintln!("chaos dist passed: {runs} faulted runs bit-identical to the sequential core.");
}
