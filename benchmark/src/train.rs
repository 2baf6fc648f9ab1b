//! The six training workloads: two models (compute-heavy `cnn`, fine-grained
//! `fine`) on three substrates (sequential emulation, thread per stage, two
//! socket ranks), all PB + LWPvD+SCD at batch size one.
//!
//! A repeat pushes a fixed number of samples through a fresh engine; the
//! data order is the only thing the seed changes. Every repeat's output is
//! checked against a sequential reference computed outside the timed
//! region.

use crate::ledger::Ledger;
use crate::spec::{self, Better};
use crate::stats::Summary;
use crate::sys::{self, Usage};
use crate::wire::{self, WireCounts};
use crate::{Outcome, RunOpts, SetUps};
use pbp_data::{spirals, Dataset, DatasetSpec, SyntheticImages};
use pbp_dist::{
    run_rank, splice_owned_stages, LinkEndpoint, RankRecovery, RankSpec, StreamConn, Topology,
    Transport,
};
use pbp_nn::models::{mlp, vgg_cnn};
use pbp_nn::Network;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    EngineMetrics, EngineSpec, MicrobatchSchedule, ScheduledConfig, StageCounters, ThreadedConfig,
};
use pbp_trace::{TracePhase, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model initialisation is fixed: only the data order follows `--seed`.
const NET_SEED: u64 = 0x5EED_0011;
const DATA_SEED: u64 = 0xDA7A_0011;
/// How far a threaded repeat's mean loss may sit from the sequential
/// reference: its delays are timing dependent, so its trajectory differs.
/// The largest gap over ten seeds and some 160 repeats of each threaded
/// workload was 2.4 %.
pub const THREADED_LOSS_BAND: f64 = 0.05;
/// Timed repeats per run: at least this many whatever `--seconds` says.
const MIN_REPEATS: usize = 3;
const WORLD: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `vgg_cnn(3,16,4,16,256,10)` on `cifar_sim(16)`: four conv stages
    /// and a 1024x256 fc head, milliseconds per sample.
    Cnn,
    /// `mlp([2, 64 x 8, 3])` on three-arm spirals: nine stages of
    /// microsecond kernels.
    Fine,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    Seq,
    Threaded,
    Dist2,
}

#[derive(Debug, Clone, Copy)]
pub struct TrainCase {
    pub name: &'static str,
    pub model: Model,
    pub substrate: Substrate,
}

pub const CASES: [TrainCase; 6] = [
    TrainCase {
        name: "cnn.seq",
        model: Model::Cnn,
        substrate: Substrate::Seq,
    },
    TrainCase {
        name: "cnn.threaded",
        model: Model::Cnn,
        substrate: Substrate::Threaded,
    },
    TrainCase {
        name: "cnn.dist2",
        model: Model::Cnn,
        substrate: Substrate::Dist2,
    },
    TrainCase {
        name: "fine.seq",
        model: Model::Fine,
        substrate: Substrate::Seq,
    },
    TrainCase {
        name: "fine.threaded",
        model: Model::Fine,
        substrate: Substrate::Threaded,
    },
    TrainCase {
        name: "fine.dist2",
        model: Model::Fine,
        substrate: Substrate::Dist2,
    },
];

pub const FINE_WIDTHS: [usize; 10] = [2, 64, 64, 64, 64, 64, 64, 64, 64, 3];
pub const CNN_IMAGE: usize = 16;
pub const CNN_WIDTH: usize = 16;
pub const CNN_HIDDEN: usize = 256;

impl Model {
    /// Samples per repeat at full size.
    pub fn samples(self) -> usize {
        match self {
            Model::Cnn => 1024,
            Model::Fine => 8192,
        }
    }

    pub fn build_net(self) -> Network {
        let mut rng = StdRng::seed_from_u64(NET_SEED);
        match self {
            Model::Cnn => vgg_cnn(3, CNN_WIDTH, 4, CNN_IMAGE, CNN_HIDDEN, 10, &mut rng),
            Model::Fine => mlp(&FINE_WIDTHS, &mut rng),
        }
    }

    pub fn build_data(self) -> Dataset {
        match self {
            Model::Cnn => {
                SyntheticImages::new(DatasetSpec::cifar_sim(CNN_IMAGE), DATA_SEED).generate(256, 0)
            }
            Model::Fine => spirals(3, 200, 0.05, DATA_SEED),
        }
    }

    /// The paper's batch-size-one rule (Eq. 9): reference SGDM
    /// hyperparameters (lr 0.1, momentum 0.9) scaled from a reference batch
    /// to update size one. The reference batch is 128 for `cnn`; for `fine`,
    /// whose ten-stage pipeline delays stage 0 by 18 updates, it is 256 — at
    /// 128 its mean loss moves 8 % with the sample order alone, at 256 1 %.
    pub fn schedule(self) -> LrSchedule {
        let reference_batch = match self {
            Model::Cnn => 128,
            Model::Fine => 256,
        };
        LrSchedule::constant(scale_hyperparams(
            Hyperparams::new(0.1, 0.9),
            reference_batch,
            1,
        ))
    }
}

pub const PLAN: MicrobatchSchedule = MicrobatchSchedule::PipelinedBackprop;

pub fn mitigation() -> Mitigation {
    Mitigation::lwpv_scd()
}

/// The sequential engine's configuration for `model`.
pub fn seq_config(model: Model) -> ScheduledConfig {
    ScheduledConfig::new(PLAN, model.schedule()).with_mitigation(mitigation())
}

/// The first `n` sample indices of the epoch orders derived from `seed` —
/// the same order `run_rank` feeds rank 0 from.
pub fn sample_order(data: &Dataset, seed: u64, n: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(n);
    let mut epoch = 0;
    while order.len() < n {
        let next = data.epoch_order(seed, epoch);
        let take = (n - order.len()).min(next.len());
        order.extend_from_slice(&next[..take]);
        epoch += 1;
    }
    order
}

/// What one pass of samples through a fresh engine produced and cost.
pub struct RunResult {
    pub wall: Duration,
    pub used: Usage,
    pub loss_sum: f64,
    pub samples: usize,
    pub net: Network,
    pub metrics: EngineMetrics,
    /// Threads the engine ran on, beside the kernel pool.
    pub engine_threads: u64,
}

impl RunResult {
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.wall.as_secs_f64()
    }
    pub fn loss_mean(&self) -> f64 {
        self.loss_sum / self.samples as f64
    }
    pub fn us_per_sample(&self) -> f64 {
        self.wall.as_secs_f64() * 1e6 / self.samples as f64
    }
}

/// Distinguishes the socket directories of successive socket runs.
static SOCKET_RUN: AtomicU64 = AtomicU64::new(0);

/// Builds a fresh network and engine and trains `order.len()` samples; the
/// engine call (and nothing else) is timed, inside a ledger span.
pub fn drive(
    case: &TrainCase,
    data: &Dataset,
    order: &[usize],
    seed: u64,
    ledger: &mut Ledger,
    repeat: u64,
) -> Result<RunResult, String> {
    let net = case.model.build_net();
    let schedule = case.model.schedule();
    let stages = net.num_stages() as u64;
    let (spec, engine_threads) = match case.substrate {
        Substrate::Seq => (EngineSpec::Scheduled(seq_config(case.model)), 1),
        Substrate::Threaded => (
            EngineSpec::Threaded(ThreadedConfig::pb(schedule).with_mitigation(mitigation())),
            stages + 1,
        ),
        Substrate::Dist2 => {
            return drive_dist(
                case,
                net,
                data,
                order.len(),
                seed,
                ledger,
                repeat,
                Links::Dialed,
            )
        }
    };
    let mut engine = spec.build(net);
    if ledger.tracer().enabled() {
        engine.set_tracer(ledger.tracer().clone());
    }
    let before = sys::usage();
    let ((loss_sum, samples), wall) =
        ledger.span("pipeline.train_range", TracePhase::Forward, repeat, || {
            engine.train_range(data, order)
        });
    let used = sys::usage().since(&before);
    if let Some(fault) = engine.take_fault() {
        return Err(format!("pipeline fault: {fault}"));
    }
    let metrics = engine.metrics();
    Ok(RunResult {
        wall,
        used,
        loss_sum,
        samples,
        net: engine.into_network(),
        metrics,
        engine_threads,
    })
}

/// How the two socket ranks reach each other.
enum Links {
    /// Rank 0 listens on a socket file, rank 1 dials it (with the polling
    /// accept and connect-retry of `Transport`): how a launch comes up.
    Dialed,
    /// An already connected socket pair whose traffic is counted.
    Connected(Arc<WireCounts>),
}

/// A socket run over an already connected, counted socket pair: what
/// crossed the wire, and — the link being up — no accept polling in the
/// measured time.
pub fn drive_connected(
    case: &TrainCase,
    data: &Dataset,
    order: &[usize],
    seed: u64,
    ledger: &mut Ledger,
    repeat: u64,
) -> Result<(RunResult, Arc<WireCounts>), String> {
    let counts = Arc::new(WireCounts::default());
    let net = case.model.build_net();
    let links = Links::Connected(Arc::clone(&counts));
    let run = drive_dist(case, net, data, order.len(), seed, ledger, repeat, links)?;
    Ok((run, counts))
}

#[allow(clippy::too_many_arguments)]
fn drive_dist(
    case: &TrainCase,
    net: Network,
    data: &Dataset,
    total: usize,
    seed: u64,
    ledger: &mut Ledger,
    repeat: u64,
    links: Links,
) -> Result<RunResult, String> {
    let stages = net.num_stages();
    let topology = Topology::contiguous(stages, WORLD).map_err(|e| e.to_string())?;
    // Relative to the benchmark directory (the process's working
    // directory), which keeps the socket path far below the 108-byte limit
    // wherever the checkout lives.
    let dir = std::path::PathBuf::from(format!(
        "out/sock-{}-{}",
        std::process::id(),
        SOCKET_RUN.fetch_add(1, Ordering::Relaxed)
    ));
    let dialed = matches!(links, Links::Dialed);
    let (down, up) = match links {
        Links::Dialed => {
            let transport = Transport::Unix { dir: dir.clone() };
            let listener = transport.listen(0).map_err(|e| e.to_string())?;
            (
                LinkEndpoint::Listen(listener),
                LinkEndpoint::Dial { transport, link: 0 },
            )
        }
        Links::Connected(counts) => {
            let (a, b) = wire::counting_pair(&counts).map_err(|e| e.to_string())?;
            (
                LinkEndpoint::Conn(Box::new(StreamConn::new(a))),
                LinkEndpoint::Conn(Box::new(StreamConn::new(b))),
            )
        }
    };
    let spec = |rank: usize| RankSpec {
        rank,
        topology: topology.clone(),
        plan: PLAN,
        mitigation: mitigation(),
        weight_stashing: false,
        schedule: case.model.schedule(),
        seed,
        total_microbatches: total,
        stall: Duration::from_secs(30),
        snapshots: None,
        resume_at: 0,
        abort_after: None,
        recovery: RankRecovery::default(),
    };
    let (spec0, spec1) = (spec(0), spec(1));
    let (net0, net1) = (net, case.model.build_net());
    let tracer = ledger.tracer().clone();
    let before = sys::usage();
    let (outcomes, wall) = ledger.span("dist.run_rank", TracePhase::Forward, repeat, || {
        std::thread::scope(|s| {
            let t = &tracer;
            let r0 = s.spawn(|| run_rank(net0, data, &spec0, None, Some(down), Some(t)));
            let r1 = s.spawn(|| run_rank(net1, data, &spec1, Some(up), None, Some(t)));
            [r0.join(), r1.join()]
        })
    });
    let used = sys::usage().since(&before);
    if dialed {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut ranks = Vec::with_capacity(WORLD);
    for (rank, joined) in outcomes.into_iter().enumerate() {
        let outcome = joined
            .map_err(|_| format!("rank {rank} panicked"))?
            .map_err(|e| format!("rank {rank}: {e}"))?;
        ranks.push(outcome);
    }
    if ranks[0].loss_sum.to_bits() != ranks[1].loss_sum.to_bits() {
        return Err("ranks disagree on the loss sum".into());
    }
    let stage_counters: Vec<StageCounters> = (0..stages)
        .map(|s| ranks[topology.rank_of_stage(s)].metrics.stages[s].clone())
        .collect();
    let metrics = EngineMetrics {
        stages: stage_counters,
        ..ranks[0].metrics.clone()
    };
    let (loss_sum, samples) = (ranks[0].loss_sum, ranks[0].samples_seen);
    let nets: Vec<Network> = ranks.into_iter().map(|r| r.net).collect();
    let mut full = case.model.build_net();
    splice_owned_stages(&mut full, &topology, &nets);
    Ok(RunResult {
        wall,
        used,
        loss_sum,
        samples,
        net: full,
        metrics,
        engine_threads: WORLD as u64,
    })
}

/// The sequential run every output is compared with.
pub struct Reference {
    pub loss_sum: f64,
    pub net: Network,
    pub metrics: EngineMetrics,
}

pub fn reference(case: &TrainCase, data: &Dataset, order: &[usize], seed: u64) -> Reference {
    let seq = TrainCase {
        substrate: Substrate::Seq,
        ..*case
    };
    let mut quiet = Ledger::new(case.name, Tracer::disabled());
    let run = drive(&seq, data, order, seed, &mut quiet, 0)
        .expect("the sequential engine has no failure path");
    Reference {
        loss_sum: run.loss_sum,
        net: run.net,
        metrics: run.metrics,
    }
}

fn weights_identical(a: &Network, b: &Network) -> bool {
    a.num_stages() == b.num_stages()
        && (0..a.num_stages()).all(|s| {
            let (pa, pb) = (a.stage(s).params(), b.stage(s).params());
            pa.len() == pb.len()
                && pa.iter().zip(&pb).all(|(x, y)| {
                    x.shape() == y.shape()
                        && x.as_slice()
                            .iter()
                            .zip(y.as_slice())
                            .all(|(p, q)| p.to_bits() == q.to_bits())
                })
        })
}

/// Share of all recorded updates whose delay equals Eq. 5 for their stage.
pub fn delay_eq5_match(metrics: &EngineMetrics) -> f64 {
    let pipeline_stages = metrics.stages.len() + 1;
    let (mut hit, mut all) = (0u64, 0u64);
    for (s, stage) in metrics.stages.iter().enumerate() {
        let expected = PLAN.stage_delay(s, pipeline_stages);
        hit += stage.delay_hist.get(&expected).copied().unwrap_or(0);
        all += stage.updates;
    }
    if all == 0 {
        0.0
    } else {
        hit as f64 / all as f64
    }
}

/// Checks one repeat's output; returns what is wrong with it (empty when
/// nothing is).
pub fn check(case: &TrainCase, run: &RunResult, reference: &Reference) -> Vec<String> {
    let mut wrong = Vec::new();
    let n = run.samples as u64;
    if run.samples != reference.metrics.samples {
        wrong.push(format!(
            "trained {} samples, reference {}",
            run.samples, reference.metrics.samples
        ));
    }
    for (s, stage) in run.metrics.stages.iter().enumerate() {
        if stage.updates != n {
            wrong.push(format!(
                "stage {s} applied {} updates, expected {n}",
                stage.updates
            ));
        }
    }
    if !run.loss_sum.is_finite() {
        wrong.push("loss is not finite".into());
    }
    match case.substrate {
        Substrate::Seq | Substrate::Dist2 => {
            if run.loss_sum.to_bits() != reference.loss_sum.to_bits() {
                wrong.push(format!(
                    "f64 loss sum {} differs from the sequential reference {}",
                    run.loss_sum, reference.loss_sum
                ));
            }
            if !weights_identical(&run.net, &reference.net) {
                wrong.push("weights are not bit-identical to the sequential reference".into());
            }
            let hists = |m: &EngineMetrics| -> Vec<_> {
                m.stages.iter().map(|s| s.delay_hist.clone()).collect()
            };
            if hists(&run.metrics) != hists(&reference.metrics) {
                wrong.push("Eq. 5 delay histograms differ from the sequential reference".into());
            }
            if delay_eq5_match(&run.metrics) != 1.0 {
                wrong.push("an update ran at a delay other than Eq. 5".into());
            }
        }
        Substrate::Threaded => {
            let (got, want) = (run.loss_mean(), reference.loss_sum / run.samples as f64);
            if (got - want).abs() > THREADED_LOSS_BAND * want.abs() {
                wrong.push(format!(
                    "mean loss {got} outside {THREADED_LOSS_BAND} of the reference {want}"
                ));
            }
        }
    }
    wrong
}

/// Counts one operation — `run`'s output check — into `outcome`.
pub fn check_into(
    case: &TrainCase,
    run: &RunResult,
    reference: &Reference,
    what: &str,
    outcome: &mut Outcome,
) {
    outcome.attempted += 1;
    let wrong = check(case, run, reference);
    if !wrong.is_empty() {
        outcome.fail(format!("{what}: {}", wrong.join("; ")));
    }
}

/// One full set-up: data, order, model, engine, warm-up pass.
pub struct Prepared {
    pub data: Dataset,
    pub order: Vec<usize>,
    pub took: Duration,
    pub generate: Duration,
}

pub fn set_up(case: &TrainCase, opts: &RunOpts, ledger: &mut Ledger) -> Result<Prepared, String> {
    let n = (case.model.samples() / opts.scale).max(8);
    let t0 = Instant::now();
    let (data, generate) = ledger.span("data.generate", TracePhase::Snapshot, 0, || {
        case.model.build_data()
    });
    let order = sample_order(&data, opts.seed, n);
    let warm = &order[..(n / 8).max(4)];
    drive(case, &data, warm, opts.seed, ledger, 0)?;
    Ok(Prepared {
        data,
        order,
        took: t0.elapsed(),
        generate,
    })
}

/// The end-to-end pass: tracing off, repeats until `--seconds` is spent,
/// the set-ups spread between them.
pub fn run_end_to_end(case: &TrainCase, opts: &RunOpts) -> Result<Outcome, String> {
    let mut ledger = Ledger::new(case.name, Tracer::disabled());
    let prepared = set_up(case, opts, &mut ledger)?;
    let reference = reference(case, &prepared.data, &prepared.order, opts.seed);

    let mut outcome = Outcome::default();
    let (mut sps, mut cpu, mut loss) = (vec![], vec![], vec![]);
    let (mut spent, mut last) = (0.0, 0.0);
    let mut setups = SetUps::new(prepared.took);
    while sps.len() < opts.min_repeats(MIN_REPEATS) || spent + last <= opts.seconds {
        setups.catch_up(spent / opts.seconds, || {
            set_up(case, opts, &mut ledger).map(|p| p.took)
        })?;
        let repeat = sps.len() as u64 + 1;
        let run = drive(
            case,
            &prepared.data,
            &prepared.order,
            opts.seed,
            &mut ledger,
            repeat,
        )?;
        check_into(
            case,
            &run,
            &reference,
            &format!("repeat {repeat}"),
            &mut outcome,
        );
        last = run.wall.as_secs_f64();
        spent += last;
        sps.push(run.samples_per_s());
        cpu.push(run.used.cpu_us as f64 / run.samples as f64);
        loss.push(run.loss_mean());
    }
    // A set-up is a short repeat over a second copy of the data: letting
    // the high-water mark see them all costs under a megabyte and lets it
    // see every repeat (read before the second set-up, as `serve.vgg` must,
    // it spread 7 % on the threaded and socket workloads, against 1-5 %).
    let peak_rss_mb = sys::peak_rss_mb();
    setups.catch_up(1.0, || set_up(case, opts, &mut ledger).map(|p| p.took))?;
    outcome.metrics = vec![
        (spec::SETUP_S, setups.summary()),
        (spec::SAMPLES_PER_S, Summary::quiet(&sps, Better::Higher)),
        (spec::CPU_US_PER_SAMPLE, Summary::quiet(&cpu, Better::Lower)),
        (spec::PEAK_RSS_MB, Summary::single(peak_rss_mb)),
        (spec::LOSS_MEAN, Summary::of(&loss)),
    ];
    outcome.note("samples_per_repeat", prepared.order.len());
    outcome.note("repeats", sps.len());
    outcome.note(
        "reference_loss_mean",
        reference.loss_sum / prepared.order.len() as f64,
    );
    outcome.note("setup_first_s", setups.first());
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_seeds_give_different_orders_of_the_same_length_and_shapes() {
        for model in [Model::Cnn, Model::Fine] {
            let data = model.build_data();
            let n = data.len() * 2 + 7;
            let a = sample_order(&data, 1, n);
            let b = sample_order(&data, 2, n);
            assert_eq!((a.len(), b.len()), (n, n));
            assert_ne!(a, b);
            assert_eq!(a, sample_order(&data, 1, n), "same seed, same order");
            assert!(a.iter().chain(&b).all(|&i| i < data.len()));
            // Every epoch-sized window is a permutation: counts are seed free.
            let mut first: Vec<usize> = a[..data.len()].to_vec();
            first.sort_unstable();
            assert_eq!(first, (0..data.len()).collect::<Vec<_>>());
            assert_eq!(data.sample(a[0]).0.shape(), data.sample(b[0]).0.shape());
        }
    }

    #[test]
    fn order_matches_the_epoch_orders_run_rank_uses() {
        let data = Model::Fine.build_data();
        let order = sample_order(&data, 9, data.len() + 3);
        assert_eq!(order[..data.len()], data.epoch_order(9, 0)[..]);
        assert_eq!(order[data.len()..], data.epoch_order(9, 1)[..3]);
    }

    #[test]
    fn model_init_does_not_depend_on_the_run() {
        assert!(weights_identical(
            &Model::Fine.build_net(),
            &Model::Fine.build_net()
        ));
        assert_eq!(Model::Fine.build_net().num_stages(), 9);
        assert_eq!(Model::Cnn.build_net().num_stages(), 6);
    }

    #[test]
    fn eq5_match_counts_only_the_contracted_delay() {
        let mut metrics = EngineMetrics {
            engine: "t".into(),
            samples: 4,
            train_ns: 1,
            occupancy: None,
            stages: vec![StageCounters::default(); 2],
        };
        // Two layer stages => three pipeline stages: Eq. 5 gives 4 and 2.
        for _ in 0..4 {
            metrics.stages[0].record_update(4, 0);
        }
        for d in [2, 2, 2, 3] {
            metrics.stages[1].record_update(d, 0);
        }
        assert_eq!(delay_eq5_match(&metrics), 7.0 / 8.0);
    }
}
