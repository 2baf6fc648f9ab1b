//! Distributed-pipeline smoke test for the `scripts/check.sh` gate: a
//! 2-rank run over real Unix-domain sockets must land on final weights
//! and loss sums bit-identical to the single-process PB emulator.
//!
//! The ranks run as threads of this process but talk exclusively through
//! the socket transport — every activation and gradient crosses the
//! kernel as length-prefixed CRC-checked frames, exactly as under
//! `pbp-launch`.

use pbp_data::spirals;
use pbp_dist::{
    run_rank, splice_owned_stages, LinkEndpoint, RankRecovery, RankSpec, Topology, Transport,
};
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{MicrobatchSchedule, ScheduledConfig, ScheduledTrainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const LAYERS: [usize; 4] = [2, 16, 12, 3];
const NET_SEED: u64 = 0xD157;
const ORDER_SEED: u64 = 5;
const EPOCHS: usize = 2;
const WORLD: usize = 2;

fn fresh_net() -> Network {
    let mut rng = StdRng::seed_from_u64(NET_SEED);
    mlp(&LAYERS, &mut rng)
}

fn main() {
    let data = spirals(3, 16, 0.05, 2);
    let total = EPOCHS * data.len();
    let schedule = LrSchedule::constant(Hyperparams::new(0.05, 0.9));
    eprintln!("== dist smoke: {WORLD}-rank unix-socket PB run, {total} microbatches ==");

    // Ground truth: the sequential PB emulator, loss accumulated in the
    // same per-microbatch f64 order the distributed loss relay uses.
    let mut emulator = ScheduledTrainer::new(fresh_net(), ScheduledConfig::pb(schedule.clone()));
    let mut base_loss = 0.0f64;
    for epoch in 0..EPOCHS {
        for &i in &data.epoch_order(ORDER_SEED, epoch) {
            let (x, label) = data.sample(i);
            base_loss += emulator.train_sample(x, label) as f64;
        }
    }
    let base_net = emulator.into_network();

    // The distributed run: one thread per rank, linked by Unix sockets.
    let dir = std::env::temp_dir().join(format!("pbp_dist_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let transport = Transport::Unix { dir: dir.clone() };
    let topology = Topology::contiguous(LAYERS.len() - 1, WORLD).expect("valid partition");
    let stall = Duration::from_secs(10);
    let mut handles = Vec::new();
    for rank in 0..WORLD {
        let spec = RankSpec {
            rank,
            topology: topology.clone(),
            plan: MicrobatchSchedule::PipelinedBackprop,
            mitigation: Mitigation::None,
            weight_stashing: false,
            schedule: schedule.clone(),
            seed: ORDER_SEED,
            total_microbatches: total,
            stall,
            snapshots: None,
            resume_at: 0,
            abort_after: None,
            recovery: RankRecovery::default(),
        };
        let transport = transport.clone();
        let data = data.clone();
        handles.push(std::thread::spawn(move || {
            let down = (rank + 1 < WORLD)
                .then(|| LinkEndpoint::Listen(transport.listen(rank).expect("bind link")));
            let up = (rank > 0).then(|| LinkEndpoint::Dial {
                transport: transport.clone(),
                link: rank - 1,
            });
            run_rank(fresh_net(), &data, &spec, up, down, None).expect("rank run")
        }));
    }
    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect();

    for outcome in &outcomes {
        assert_eq!(
            outcome.loss_sum.to_bits(),
            base_loss.to_bits(),
            "distributed loss sum {} != emulator {}",
            outcome.loss_sum,
            base_loss
        );
    }
    let mut net = fresh_net();
    let nets: Vec<Network> = outcomes.into_iter().map(|o| o.net).collect();
    splice_owned_stages(&mut net, &topology, &nets);
    let mut elements = 0usize;
    for s in 0..net.num_stages() {
        for (p, q) in net.stage(s).params().iter().zip(base_net.stage(s).params()) {
            for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "stage {s} diverged from the emulator: {x} vs {y}"
                );
                elements += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "   {elements} parameters bit-identical to the sequential emulator, \
         loss sum {base_loss:.6} reproduced on every rank"
    );
    eprintln!("dist smoke passed.");
}
