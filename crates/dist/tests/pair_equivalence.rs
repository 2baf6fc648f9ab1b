//! Paired backwards are the one-at-a-time run, bit for bit.
//!
//! Where the loss-owning rank holds two forwarded microbatches that are
//! each their own update window (PB at update size one), it retires them
//! as one two-microbatch `Step::Backward`: every `Linear` of a pairing stage makes one
//! pass over its weight and velocity for both updates. Every substrate that
//! takes such steps — the sequential engine's `train_range` (whole, split
//! over several calls, resumed from a snapshot), the threaded runtime with
//! two workers and with one per stage, and two `run_rank` threads over a
//! loopback link — must leave the weights, the f64 loss sums and the Eq. 5
//! delay histograms that `train_sample`, one microbatch at a time, leaves.
//! The conv net mixes stages that pair (`fc0`, `fc1`) with ones that do not
//! (the convolutions), and the learning rate warms up, so the two updates
//! of a pair run under different hyperparameters. Three cases must lend
//! nothing at either count and still match: SpecTrain and weight stashing,
//! whose backward runs under other weights than the live ones, and the
//! first `Linear` of an all-`Linear` net, whose input gradient has no
//! reader.

use pbp_data::{Dataset, DatasetSpec, SyntheticImages};
use pbp_dist::{
    loopback_pair, run_rank, splice_owned_stages, LinkEndpoint, RankRecovery, RankSpec, Topology,
};
use pbp_nn::models::{mlp, vgg_cnn};
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule, LwpForm, Mitigation};
use pbp_pipeline::{
    Link, Message, MicrobatchSchedule, RankLoop, ScheduledConfig, ScheduledTrainer, StageGroup,
    Step, ThreadedConfig, ThreadedPipeline, TrainEngine, Upstream,
};
use pbp_snapshot::{SnapshotArchive, SnapshotBuilder};
use pbp_tensor::pool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

const IMAGE: usize = 8;
const ORDER_SEED: u64 = 3;

/// Serializes the runs that set the process-wide thread budget, which the
/// threaded runtime reads for its worker count.
static THREADS: Mutex<()> = Mutex::new(());

/// A net and its PB configuration.
#[derive(Debug, Clone, Copy)]
struct Case {
    /// The all-`Linear` net rather than the conv net.
    mlp: bool,
    mitigation: Mitigation,
    weight_stashing: bool,
}

impl Case {
    /// Two conv stages, then `fc0` (flatten, linear, relu) and `fc1`; or
    /// four `Linear` stages, the first reading the flattened image.
    fn net(self) -> Network {
        let rng = &mut StdRng::seed_from_u64(9);
        match self.mlp {
            true => mlp(&[3 * IMAGE * IMAGE, 32, 24, 16, 10], rng),
            false => vgg_cnn(3, 4, 2, IMAGE, 24, 10, rng),
        }
    }

    fn config(self) -> ScheduledConfig {
        let config = ScheduledConfig::pb(schedule()).with_mitigation(self.mitigation);
        match self.weight_stashing {
            true => config.with_weight_stashing(),
            false => config,
        }
    }
}

/// On the conv net, PB + LWPvD + SCD and PB + LWPwD, which pair, and
/// SpecTrain and PB + LWPvD + SCD with weight stashing, which lend nothing;
/// on the all-`Linear` net, PB + LWPvD + SCD.
fn cases() -> [Case; 5] {
    let lwpw = Mitigation::Lwp {
        form: LwpForm::WeightDiff,
        scale: 1.0,
    };
    let case = |mlp, mitigation, weight_stashing| Case {
        mlp,
        mitigation,
        weight_stashing,
    };
    [
        case(false, Mitigation::lwpv_scd(), false),
        case(false, lwpw, false),
        case(false, Mitigation::SpecTrain, false),
        case(false, Mitigation::lwpv_scd(), true),
        case(true, Mitigation::lwpv_scd(), false),
    ]
}

fn data() -> Dataset {
    SyntheticImages::new(DatasetSpec::cifar_sim(IMAGE), 1).generate(16, 0)
}

fn schedule() -> LrSchedule {
    LrSchedule::constant(Hyperparams::new(0.02, 0.9)).with_warmup(9)
}

/// The first `n` samples of epoch 0's order (every run here fits one
/// epoch).
fn order(n: usize) -> Vec<usize> {
    data().epoch_order(ORDER_SEED, 0)[..n].to_vec()
}

/// FNV-1a over the bits of every parameter of every stage.
fn fingerprint(net: &Network) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for stage in net.stages() {
        for p in stage.params() {
            for x in p.as_slice() {
                for byte in x.to_bits().to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}

/// Per stage: updates applied and the Eq. 5 delay histogram.
type Delays = Vec<(u64, BTreeMap<usize, u64>)>;

fn delays(engine: &dyn TrainEngine) -> Delays {
    let stages = engine.metrics().stages;
    stages
        .iter()
        .map(|s| (s.updates, s.delay_hist.clone()))
        .collect()
}

/// What a run leaves: the weights' fingerprint, each call's f64 loss sum,
/// and the delays.
#[derive(Debug, PartialEq)]
struct Outcome {
    weights: u64,
    loss_sums: Vec<u64>,
    delays: Delays,
}

/// The reference: `train_sample`, one microbatch in flight, the f64 sum
/// restarting at each of `calls`' boundaries.
fn one_at_a_time(case: Case, calls: &[usize]) -> Outcome {
    let (data, mut engine) = (data(), ScheduledTrainer::new(case.net(), case.config()));
    let order = order(calls.iter().sum());
    let mut loss_sums = Vec::new();
    let mut at = 0;
    for &len in calls {
        let mut sum = 0.0f64;
        for &i in &order[at..at + len] {
            let (x, label) = data.sample(i);
            sum += engine.train_sample(x, label) as f64;
        }
        loss_sums.push(sum.to_bits());
        at += len;
    }
    let delays = delays(&engine);
    let weights = fingerprint(&engine.into_network());
    Outcome {
        weights,
        loss_sums,
        delays,
    }
}

/// `engine.train_range` over `order(Σ calls)`, one call per entry of
/// `calls`; with `resume_after`, the engine is rebuilt from a snapshot
/// taken after that many calls.
fn ranges(
    mut engine: Box<dyn TrainEngine>,
    calls: &[usize],
    resume_after: Option<usize>,
    rebuild: impl Fn() -> Box<dyn TrainEngine>,
) -> Outcome {
    let (data, order) = (data(), order(calls.iter().sum()));
    let mut loss_sums = Vec::new();
    let mut at = 0;
    for (c, &len) in calls.iter().enumerate() {
        if resume_after == Some(c) {
            let mut builder = SnapshotBuilder::new();
            engine.write_state(&mut builder);
            let archive = SnapshotArchive::from_bytes(&builder.to_bytes()).expect("bytes");
            engine = rebuild();
            engine.read_state(&archive).expect("same engine spec");
        }
        let (sum, n) = engine.train_range(&data, &order[at..at + len]);
        assert_eq!(n, len);
        loss_sums.push(sum.to_bits());
        at += len;
    }
    assert!(engine.take_fault().is_none(), "clean run");
    let delays = delays(engine.as_ref());
    let weights = fingerprint(&engine.into_network());
    Outcome {
        weights,
        loss_sums,
        delays,
    }
}

fn sequential(case: Case) -> Box<dyn TrainEngine> {
    Box::new(ScheduledTrainer::new(case.net(), case.config()))
}

fn threaded(case: Case) -> Box<dyn TrainEngine> {
    let config = ThreadedConfig::new(case.config());
    Box::new(ThreadedPipeline::new(case.net(), config))
}

/// Odd and even lengths, one call and several, with and without a resume.
const STREAMS: [(&[usize], Option<usize>); 5] = [
    (&[12], None),
    (&[11], None),
    (&[5, 4, 3], None),
    (&[6, 7], Some(1)),
    (&[3, 1, 8], Some(2)),
];

#[test]
fn the_sequential_engine_pairs_bit_for_bit() {
    for case in cases() {
        for (calls, resume) in STREAMS {
            let want = one_at_a_time(case, calls);
            let got = ranges(sequential(case), calls, resume, || sequential(case));
            assert_eq!(got, want, "{case:?} calls {calls:?} resume {resume:?}");
        }
    }
}

#[test]
fn the_threaded_runtime_pairs_bit_for_bit_at_two_workers_and_one_per_stage() {
    let _threads = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    for workers in [2, cases()[0].net().num_stages()] {
        pool::set_max_threads(workers);
        for case in cases() {
            let engine = ThreadedPipeline::new(case.net(), ThreadedConfig::new(case.config()));
            assert_eq!(engine.worker_bounds().len() - 1, workers, "{case:?}");
            for (calls, resume) in STREAMS {
                let want = one_at_a_time(case, calls);
                let got = ranges(threaded(case), calls, resume, || threaded(case));
                let context = format!("W={workers} {case:?} calls {calls:?}");
                assert_eq!(got, want, "{context} resume {resume:?}");
            }
        }
    }
}

#[test]
fn two_ranks_pair_bit_for_bit() {
    for case in cases() {
        let stages = case.net().num_stages();
        for total in [11, 12] {
            let topology = Topology::contiguous(stages, 2).expect("two ranks");
            let (down_end, up_end) = loopback_pair();
            let mut ends = [
                (None, Some(LinkEndpoint::Conn(Box::new(down_end)))),
                (Some(LinkEndpoint::Conn(Box::new(up_end))), None),
            ];
            let handles: Vec<_> = (0..2)
                .map(|rank| {
                    let (up, down) = std::mem::take(&mut ends[rank]);
                    let spec = RankSpec {
                        rank,
                        topology: topology.clone(),
                        plan: MicrobatchSchedule::PipelinedBackprop,
                        mitigation: case.mitigation,
                        weight_stashing: case.weight_stashing,
                        schedule: schedule(),
                        seed: ORDER_SEED,
                        total_microbatches: total,
                        stall: Duration::from_secs(10),
                        snapshots: None,
                        resume_at: 0,
                        abort_after: None,
                        recovery: RankRecovery::default(),
                    };
                    std::thread::spawn(move || {
                        run_rank(case.net(), &data(), &spec, up, down, None).expect("rank runs")
                    })
                })
                .collect();
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let want = one_at_a_time(case, &[total]);
            let context = format!("{case:?} {total} microbatches");
            for outcome in &outcomes {
                assert_eq!(outcome.loss_sum.to_bits(), want.loss_sums[0], "{context}");
            }
            let delays: Delays = (0..stages)
                .map(|s| &outcomes[topology.rank_of_stage(s)].metrics.stages[s])
                .map(|counters| (counters.updates, counters.delay_hist.clone()))
                .collect();
            assert_eq!(delays, want.delays, "{context}");
            let mut whole = case.net();
            let nets: Vec<Network> = outcomes.into_iter().map(|o| o.net).collect();
            splice_owned_stages(&mut whole, &topology, &nets);
            assert_eq!(fingerprint(&whole), want.weights, "{context}");
        }
    }
}

/// A world of one has no link; the type only names what one would be.
struct NoLink;

impl Link for NoLink {
    type Error = ();

    fn send(&mut self, _: Message) -> Result<(), ()> {
        unreachable!("a world of one sends nothing")
    }

    fn recv(&mut self) -> Result<Message, ()> {
        unreachable!("a world of one receives nothing")
    }
}

/// The loss rank of a world of one, stepped as `train_range` steps it,
/// retires every two microbatches as one pair — an odd tail alone — and
/// each pair records two updates at every stage, at the stage's Eq. 5
/// delay.
#[test]
fn the_loss_rank_takes_pairs_and_records_both_updates() {
    for total in [11usize, 12] {
        let (data, order) = (data(), order(total));
        let (mut net, config) = (cases()[0].net(), cases()[0].config());
        let mut rank = RankLoop::new(StageGroup::new(&net, 0..net.num_stages(), &config));
        let mut feed = |mb: usize| {
            let (x, label) = data.sample(order[mb]);
            Message::sample(mb, x, label)
        };
        let mut steps = Vec::new();
        while rank.group.completed() < total {
            let limit = total.min(rank.group.completed() + 2);
            let up = Upstream::<NoLink>::Feed(&mut feed);
            let step = rank.step(net.stages_mut(), up, None, limit);
            steps.extend(step.ok().flatten().filter(|s| !s.retires().is_empty()));
        }
        let pair = |mb| Step::Backward { mb, n: 2 };
        let mut want: Vec<Step> = (0..total / 2).map(|p| pair(2 * p)).collect();
        if total % 2 == 1 {
            want.push(Step::Backward {
                mb: total - 1,
                n: 1,
            });
        }
        assert_eq!(steps, want, "{total} microbatches");
        let stages = net.pipeline_stage_count();
        for (s, counters) in rank.group.counters().iter().enumerate() {
            if net.stage(s).params().is_empty() {
                continue;
            }
            let delay = 2 * (stages - 1 - s);
            assert_eq!(counters.updates, total as u64, "stage {s}");
            let want = BTreeMap::from([(delay, total as u64)]);
            assert_eq!(counters.delay_hist, want, "stage {s}");
        }
    }
}
