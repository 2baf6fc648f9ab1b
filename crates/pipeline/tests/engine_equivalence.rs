//! Drives every engine through the shared [`run_training`] loop and checks
//! the DESIGN.md §5 equivalences still hold under the unified interface:
//!
//! * fill-and-drain at N = 1 is bit-identical to sequential SGDM;
//! * a uniform delay of 0 at every stage is bit-identical to SGDM;
//! * the threaded runtime is bit-identical to the sequential engine for
//!   every plan at every worker count — weights, f64 loss sums, delay
//!   histograms;
//! * the PB plan's measured delay histogram is exactly Eq. 5.

use pbp_data::{blobs, DatasetSpec, SyntheticImages};
use pbp_nn::models::{mlp, simple_cnn};
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    run_training, stage_delay, DelayDistribution, DelayedConfig, EngineSpec, MicrobatchSchedule,
    RunConfig, ScheduledConfig, ThreadedConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schedule() -> LrSchedule {
    LrSchedule::constant(Hyperparams::new(0.05, 0.9))
}

fn fresh_net(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    mlp(&[2, 10, 3], &mut rng)
}

fn assert_networks_equal(a: &Network, b: &Network, context: &str) {
    for s in 0..a.num_stages() {
        for (p, q) in a.stage(s).params().iter().zip(b.stage(s).params()) {
            assert_eq!(p.as_slice(), q.as_slice(), "{context}: stage {s}");
        }
    }
}

/// Every engine spec, as the bench suite would construct them.
fn all_specs() -> Vec<EngineSpec> {
    vec![
        EngineSpec::Delayed(DelayedConfig::sgdm(4, schedule())),
        EngineSpec::Scheduled(ScheduledConfig::fill_drain(4, schedule())),
        EngineSpec::Scheduled(
            ScheduledConfig::pb(schedule()).with_mitigation(Mitigation::lwpv_scd()),
        ),
        EngineSpec::Delayed(DelayedConfig::consistent(2, 4, schedule())),
        EngineSpec::Delayed(DelayedConfig::asgd(
            DelayDistribution::Uniform { max: 3 },
            4,
            schedule(),
            7,
        )),
        EngineSpec::Delayed(DelayedConfig::adam(4, 4, 0.01)),
        EngineSpec::Threaded(ThreadedConfig::pb(schedule())),
        EngineSpec::Scheduled(ScheduledConfig::one_f_one_b(4, schedule())),
        EngineSpec::Scheduled(ScheduledConfig::two_bp(4, schedule())),
    ]
}

#[test]
fn every_engine_runs_through_the_shared_loop() {
    let data = blobs(3, 24, 0.4, 0);
    let (train, val) = data.split(0.25);
    let epochs = 2;
    for spec in all_specs() {
        let mut engine = spec.build(fresh_net(11));
        let config = RunConfig::new(epochs, 3);
        let report = run_training(engine.as_mut(), &train, &val, &config);
        assert_eq!(report.label, spec.label());
        assert_eq!(report.records.len(), epochs, "{}", spec.label());
        for r in &report.records {
            assert!(r.train_loss.is_finite(), "{}", spec.label());
            assert!((0.0..=1.0).contains(&r.val_acc), "{}", spec.label());
        }
        assert_eq!(
            engine.samples_seen(),
            epochs * train.len(),
            "{}",
            spec.label()
        );
        let metrics = engine.metrics();
        assert_eq!(metrics.engine, spec.label());
        assert_eq!(metrics.samples, epochs * train.len(), "{}", spec.label());
        assert!(metrics.total_updates() > 0, "{}", spec.label());
        assert!(metrics.train_ns > 0, "{}", spec.label());
    }
}

#[test]
fn fill_drain_n1_is_bit_identical_to_sgdm_batch_1() {
    let data = blobs(3, 24, 0.4, 1);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(3, 5);

    let sgdm_spec = EngineSpec::Delayed(DelayedConfig::sgdm(1, schedule()));
    let fd_spec = EngineSpec::Scheduled(ScheduledConfig::fill_drain(1, schedule()));
    let mut sgdm = sgdm_spec.build(fresh_net(21));
    let mut fd = fd_spec.build(fresh_net(21));
    let report_a = run_training(sgdm.as_mut(), &train, &val, &config);
    let report_b = run_training(fd.as_mut(), &train, &val, &config);
    for (a, b) in report_a.records.iter().zip(&report_b.records) {
        assert_eq!(a.val_acc, b.val_acc);
        assert_eq!(a.val_loss, b.val_loss);
    }
    assert_networks_equal(
        &sgdm.into_network(),
        &fd.into_network(),
        "fill&drain N=1 vs SGDM batch 1",
    );
}

#[test]
fn zero_uniform_delay_is_bit_identical_to_sgdm_batch_1() {
    let data = blobs(3, 24, 0.4, 2);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(3, 6);

    let zero_delay =
        ScheduledConfig::new(MicrobatchSchedule::UniformDelay { delay: 0 }, schedule());
    let mut pb = EngineSpec::Scheduled(zero_delay).build(fresh_net(22));
    let mut sgdm = EngineSpec::Delayed(DelayedConfig::sgdm(1, schedule())).build(fresh_net(22));
    run_training(pb.as_mut(), &train, &val, &config);
    run_training(sgdm.as_mut(), &train, &val, &config);

    // All effective delays must have been recorded as zero.
    let metrics = pb.metrics();
    for (s, stage) in metrics.stages.iter().enumerate() {
        if stage.updates > 0 {
            assert_eq!(stage.delay_hist.len(), 1, "stage {s}");
            assert_eq!(stage.delay_hist[&0], stage.updates, "stage {s}");
        }
    }
    assert_networks_equal(
        &pb.into_network(),
        &sgdm.into_network(),
        "UniformDelay(0) vs SGDM batch 1",
    );
}

#[test]
fn threaded_fill_drain_is_bit_identical_to_sgdm_batch_1() {
    let data = blobs(3, 30, 0.4, 3);
    let (train, val) = data.split(0.2);
    // Two epochs: the threaded engine's state persists across training
    // calls, so momentum carries over epoch boundaries exactly as in the
    // sequential engines.
    let config = RunConfig::new(2, 8);

    let mut threaded =
        EngineSpec::Threaded(ThreadedConfig::fill_drain(schedule())).build(fresh_net(23));
    let mut sgdm = EngineSpec::Delayed(DelayedConfig::sgdm(1, schedule())).build(fresh_net(23));
    run_training(threaded.as_mut(), &train, &val, &config);
    run_training(sgdm.as_mut(), &train, &val, &config);

    // A lag-0 group drains at every update: effective delay 0.
    let metrics = threaded.metrics();
    assert!(metrics.total_updates() > 0);
    for (s, stage) in metrics.stages.iter().enumerate() {
        for &delay in stage.delay_hist.keys() {
            assert_eq!(delay, 0, "stage {s}");
        }
    }
    assert_networks_equal(
        &threaded.into_network(),
        &sgdm.into_network(),
        "threaded fill&drain vs SGDM batch 1",
    );
}

/// What one of the four pre-fold trainers produced, recorded at the commit
/// before they became [`DelayedConfig`] rows: 2 epochs on
/// `blobs(3, 24, 0.4, 0)` (25 % held out) from `fresh_net(11)` through
/// `run_training` at data seed 3.
struct Golden {
    spec: EngineSpec,
    label: &'static str,
    /// `pbp_snapshot::Crc32` over the final weights' little-endian bits.
    weights_crc: u32,
    /// Per epoch: the bits of `train_loss`, `val_loss`, `val_acc`.
    records: [[u64; 3]; 2],
    /// The `(delay, count)` histogram every stage recorded.
    delay_hist: &'static [(usize, u64)],
}

#[test]
fn the_g2_simulator_reproduces_the_four_trainers_it_replaced() {
    let asgd = |d| EngineSpec::Delayed(DelayedConfig::asgd(d, 4, schedule(), 7));
    let goldens = [
        // The mini-batch SGDM trainer, batch 4.
        Golden {
            spec: EngineSpec::Delayed(DelayedConfig::sgdm(4, schedule())),
            label: "SGDM",
            weights_crc: 0x42736359,
            records: [
                [0x3fe03387825db6db, 0x3f5ad0d7305ddb1b, 0x3ff0000000000000],
                [0x3f44134e92edb6db, 0x3f2c028395a7c095, 0x3ff0000000000000],
            ],
            delay_hist: &[(0, 28)],
        },
        // The fixed-delay trainer, D = 2, batch 4.
        Golden {
            spec: EngineSpec::Delayed(DelayedConfig::consistent(2, 4, schedule())),
            label: "PB D=2 (consistent)",
            weights_crc: 0xac5c7c39,
            records: [
                [0x3ff0a3323a1e0000, 0x3f367fe908a79894, 0x3ff0000000000000],
                [0x3f268b8a36a92492, 0x3ef37ec5a54da890, 0x3ff0000000000000],
            ],
            delay_hist: &[(2, 28)],
        },
        Golden {
            spec: EngineSpec::Delayed(DelayedConfig::inconsistent(2, 4, schedule())),
            label: "PB D=2 (inconsistent)",
            weights_crc: 0x5ecb752f,
            records: [
                [0x3ff006a72ce14925, 0x3f25f825f0af5984, 0x3ff0000000000000],
                [0x3f10f5626b712492, 0x3ed30cce0078e6a1, 0x3ff0000000000000],
            ],
            delay_hist: &[(2, 28)],
        },
        Golden {
            spec: EngineSpec::Delayed(
                DelayedConfig::consistent(2, 4, schedule()).with_mitigation(Mitigation::lwpv_scd()),
            ),
            label: "PB+LWPvD+SCD D=2 (consistent)",
            weights_crc: 0x715150c4,
            records: [
                [0x3feee1023372db6e, 0x3f6e8a138310f094, 0x3ff0000000000000],
                [0x3f5d48f9d9e49249, 0x3f57d6c8662f998c, 0x3ff0000000000000],
            ],
            delay_hist: &[(2, 28)],
        },
        Golden {
            spec: EngineSpec::Delayed(
                DelayedConfig::inconsistent(2, 4, schedule())
                    .with_mitigation(Mitigation::lwpv_scd()),
            ),
            label: "PB+LWPvD+SCD D=2 (inconsistent)",
            weights_crc: 0x7d86c144,
            records: [
                [0x3fee651ec8de4925, 0x3f629db65cca0f67, 0x3ff0000000000000],
                [0x3f48432b77db6db7, 0x3f400e014e8de4d4, 0x3ff0000000000000],
            ],
            delay_hist: &[(2, 28)],
        },
        // The ASGD trainer, batch 4, delay seed 7.
        Golden {
            spec: asgd(DelayDistribution::Constant(2)),
            label: "ASGD Constant(2)",
            weights_crc: 0xac5c7c39,
            records: [
                [0x3ff0a3323a1e0000, 0x3f367fe908a79894, 0x3ff0000000000000],
                [0x3f268b8a36a92492, 0x3ef37ec5a54da890, 0x3ff0000000000000],
            ],
            delay_hist: &[(2, 28)],
        },
        Golden {
            spec: asgd(DelayDistribution::Uniform { max: 3 }),
            label: "ASGD Uniform { max: 3 }",
            weights_crc: 0xf231c7a0,
            records: [
                [0x3fe9398d8c06db6e, 0x3f58b4aeeb113717, 0x3ff0000000000000],
                [0x3f4d57186f612492, 0x3f2cbc55d59fd770, 0x3ff0000000000000],
            ],
            delay_hist: &[(0, 8), (1, 9), (2, 6), (3, 5)],
        },
        Golden {
            spec: asgd(DelayDistribution::Geometric { p: 0.5, max: 4 }),
            label: "ASGD Geometric { p: 0.5, max: 4 }",
            weights_crc: 0x330e9291,
            records: [
                [0x3fea3f17eb4adb6e, 0x3f5133bf18888141, 0x3ff0000000000000],
                [0x3f40273508676db7, 0x3f343121aff7f7dd, 0x3ff0000000000000],
            ],
            delay_hist: &[(0, 10), (1, 10), (2, 3), (3, 3), (4, 2)],
        },
        // The bench crate's delayed-Adam engine, D = 4, batch 4, lr 0.01.
        Golden {
            spec: EngineSpec::Delayed(DelayedConfig::adam(4, 4, 0.01)),
            label: "Adam D=4",
            weights_crc: 0x9360096f,
            records: [
                [0x3ffd0f8221249249, 0x3fe734796f027478, 0x3fe5555555555555],
                [0x3fe656c49c000000, 0x3fd18283172f9c58, 0x3fee38e38e38e38e],
            ],
            delay_hist: &[(4, 28)],
        },
    ];
    let data = blobs(3, 24, 0.4, 0);
    let (train, val) = data.split(0.25);
    for golden in goldens {
        let label = golden.label;
        let mut engine = golden.spec.build(fresh_net(11));
        let config = RunConfig::new(2, 3);
        let report = run_training(engine.as_mut(), &train, &val, &config);
        assert_eq!(report.label, label);
        let records: Vec<[u64; 3]> = (report.records.iter())
            .map(|r| [r.train_loss, r.val_loss, r.val_acc].map(f64::to_bits))
            .collect();
        assert_eq!(records, golden.records, "{label}: epoch records");
        for (s, stage) in engine.metrics().stages.iter().enumerate() {
            let hist: Vec<(usize, u64)> = stage.delay_hist.iter().map(|(&d, &n)| (d, n)).collect();
            assert_eq!(hist, golden.delay_hist, "{label}: stage {s} delays");
        }
        let net = engine.into_network();
        let mut crc = pbp_snapshot::Crc32::new();
        for s in 0..net.num_stages() {
            for v in net.stage(s).params().iter().flat_map(|p| p.as_slice()) {
                crc.update(&v.to_bits().to_le_bytes());
            }
        }
        assert_eq!(crc.finish(), golden.weights_crc, "{label}: final weights");
    }
}

#[test]
fn a_constant_sampled_delay_is_the_fixed_delay() {
    let data = blobs(3, 24, 0.4, 4);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 9);
    for d in [0, 1, 3] {
        let sampled = DelayedConfig::asgd(DelayDistribution::Constant(d), 4, schedule(), 5);
        let mut sampled = EngineSpec::Delayed(sampled).build(fresh_net(24));
        let fixed = DelayedConfig::consistent(d, 4, schedule());
        let mut fixed = EngineSpec::Delayed(fixed).build(fresh_net(24));
        let report_s = run_training(sampled.as_mut(), &train, &val, &config);
        let report_f = run_training(fixed.as_mut(), &train, &val, &config);
        assert_eq!(report_s.records, report_f.records, "D={d}: epoch records");
        assert_networks_equal(
            &sampled.into_network(),
            &fixed.into_network(),
            &format!("ASGD Constant({d}) vs consistent({d})"),
        );
    }
}

/// Runs `run` on one thread and on the threaded runtime from the same
/// initial network and asserts the two are indistinguishable: epoch
/// records (the f64 training-loss sums included), per-stage update counts
/// and delay histograms, final weights.
fn assert_threaded_matches_scheduled(
    run: ScheduledConfig,
    make_net: &dyn Fn() -> Network,
    train: &pbp_data::Dataset,
    val: &pbp_data::Dataset,
) {
    let label = run.label();
    let config = RunConfig::new(2, 14);
    let mut scheduled = EngineSpec::Scheduled(run.clone()).build(make_net());
    let mut threaded = EngineSpec::Threaded(ThreadedConfig::new(run)).build(make_net());
    let report_s = run_training(scheduled.as_mut(), train, val, &config);
    let report_t = run_training(threaded.as_mut(), train, val, &config);
    assert_eq!(report_s.records, report_t.records, "{label}: epoch records");
    let (metrics_s, metrics_t) = (scheduled.metrics(), threaded.metrics());
    // Occupancy is each engine's own measurement of its own workers' time.
    for metrics in [&metrics_s, &metrics_t] {
        let occupancy = metrics.occupancy.expect("a timed run");
        assert!(occupancy > 0.0 && occupancy <= 1.0, "{label}: {occupancy}");
    }
    for (s, (a, b)) in metrics_s.stages.iter().zip(&metrics_t.stages).enumerate() {
        assert_eq!(a.updates, b.updates, "{label}: stage {s} update counts");
        assert_eq!(a.delay_hist, b.delay_hist, "{label}: stage {s} delays");
    }
    assert_networks_equal(
        &scheduled.into_network(),
        &threaded.into_network(),
        &format!("Threaded({label}) vs Scheduled({label})"),
    );
}

/// The threaded runtime steps the same rank loop over the same stage
/// cells as the sequential engine, so for every plan — however many
/// workers the thread budget gives and however they interleave — it
/// lands on the same bits. 54 training samples per epoch leave the
/// M = 4 plans' update windows straddling the epoch boundary.
#[test]
fn threaded_is_bit_identical_to_scheduled_for_every_plan() {
    let data = blobs(3, 24, 0.4, 8);
    let (train, val) = data.split(0.25);
    let make_net = || {
        let mut rng = StdRng::seed_from_u64(28);
        mlp(&[2, 10, 10, 3], &mut rng)
    };
    // Batch-8 reference scaled to update size one (Eq. 9), so delayed PB
    // trains instead of diverging: NaN records would compare unequal.
    let schedule = || {
        LrSchedule::constant(pbp_optim::scale_hyperparams(
            Hyperparams::new(0.1, 0.9),
            8,
            1,
        ))
    };
    for run in [
        ScheduledConfig::pb(schedule()),
        ScheduledConfig::pb(schedule()).with_mitigation(Mitigation::lwpv_scd()),
        ScheduledConfig::pb(schedule()).with_weight_stashing(),
        ScheduledConfig::one_f_one_b(4, schedule()),
        ScheduledConfig::two_bp(4, schedule()),
        ScheduledConfig::fill_drain(4, schedule()),
    ] {
        assert_threaded_matches_scheduled(run, &make_net, &train, &val);
    }
}

/// The kernel worker pool must never change training results: threaded PB
/// with the pool disabled (`max_threads = 1`, every GEMM serial) and with
/// it enabled (8 threads) must both land on the sequential engine's bits.
///
/// The network is sized so its inner conv GEMMs (16 channels on 12×12
/// feature maps → m·k·n ≈ 330k elements) cross the parallel-dispatch
/// threshold — with `max_threads = 8` those products really do fan out
/// across pool workers *from inside the engine's stage threads*.
#[test]
fn threaded_is_bit_identical_to_scheduled_with_kernel_pool_on_and_off() {
    let gen = SyntheticImages::new(DatasetSpec::cifar_sim(12), 0xD15C);
    let train = gen.generate(12, 0);
    let val = gen.generate(6, 1);
    let make_net = || {
        let mut rng = StdRng::seed_from_u64(42);
        simple_cnn(3, 16, 2, train.num_classes(), &mut rng)
    };
    for threads in [1, 8] {
        pbp_tensor::pool::set_max_threads(threads);
        assert_threaded_matches_scheduled(
            ScheduledConfig::pb(LrSchedule::constant(Hyperparams::new(0.005, 0.9)))
                .with_mitigation(Mitigation::lwpv_scd()),
            &make_net,
            &train,
            &val,
        );
        pbp_tensor::pool::set_max_threads(1);
    }
}

#[test]
fn pb_delay_histogram_matches_eq5() {
    let data = blobs(3, 24, 0.4, 4);
    let (train, val) = data.split(0.25);
    let mut pb = EngineSpec::Scheduled(ScheduledConfig::pb(schedule())).build(fresh_net(24));
    let pipeline_stages = pb.network_mut().pipeline_stage_count();
    run_training(pb.as_mut(), &train, &val, &RunConfig::new(2, 9));
    let metrics = pb.metrics();
    assert_eq!(metrics.occupancy.map(|o| o > 0.0 && o <= 1.0), Some(true));
    for (s, stage) in metrics.stages.iter().enumerate() {
        if stage.updates == 0 {
            continue;
        }
        let expected = stage_delay(s, pipeline_stages);
        assert_eq!(
            stage.delay_hist.keys().copied().collect::<Vec<_>>(),
            vec![expected],
            "stage {s}: D_s = 2(S-1-s)"
        );
        assert!((stage.mean_delay() - expected as f64).abs() < 1e-12);
    }
}

#[test]
fn one_f_one_b_at_m1_is_bit_identical_to_pb() {
    // 1F1B degenerates to pure PB at M = 1: one update per microbatch,
    // version lag D_s everywhere. Weights and Eq. 5 delay histograms must
    // both reproduce the PB plan's exactly.
    let data = blobs(3, 24, 0.4, 6);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 10);

    let mut pb = EngineSpec::Scheduled(ScheduledConfig::pb(schedule())).build(fresh_net(25));
    let mut ofob =
        EngineSpec::Scheduled(ScheduledConfig::one_f_one_b(1, schedule())).build(fresh_net(25));
    let pipeline_stages = pb.network_mut().pipeline_stage_count();
    run_training(pb.as_mut(), &train, &val, &config);
    run_training(ofob.as_mut(), &train, &val, &config);

    let pb_metrics = pb.metrics();
    let ofob_metrics = ofob.metrics();
    for (s, (a, b)) in pb_metrics
        .stages
        .iter()
        .zip(&ofob_metrics.stages)
        .enumerate()
    {
        assert_eq!(a.updates, b.updates, "stage {s} update counts");
        assert_eq!(a.delay_hist, b.delay_hist, "stage {s} delay histograms");
        if a.updates > 0 {
            let expected = stage_delay(s, pipeline_stages);
            assert_eq!(
                b.delay_hist.keys().copied().collect::<Vec<_>>(),
                vec![expected],
                "stage {s}: D_s = 2(S-1-s)"
            );
        }
    }
    assert_networks_equal(&pb.into_network(), &ofob.into_network(), "PB vs 1F1B(M=1)");
}

#[test]
fn two_bp_split_backward_is_bit_identical_to_fused_on_a_conv_net() {
    // 2BP only reorders when the weight-gradient halves run; through conv
    // input stashes, group norm and the layers' deferred weight-gradient
    // units the final weights must still match fused 1F1B bit for bit.
    let gen = SyntheticImages::new(
        DatasetSpec {
            num_classes: 3,
            channels: 1,
            size: 8,
            noise: 0.2,
            max_shift: 1,
            contrast_jitter: 0.1,
        },
        77,
    );
    let train = gen.generate(24, 0);
    let val = gen.generate(6, 1);
    let config = RunConfig::new(2, 11);

    let build = |spec: EngineSpec| {
        let mut rng = StdRng::seed_from_u64(26);
        spec.build(simple_cnn(1, 4, 2, 3, &mut rng))
    };
    let mut fused = build(EngineSpec::Scheduled(ScheduledConfig::one_f_one_b(
        4,
        schedule(),
    )));
    let mut split = build(EngineSpec::Scheduled(ScheduledConfig::two_bp(
        4,
        schedule(),
    )));
    let report_a = run_training(fused.as_mut(), &train, &val, &config);
    let report_b = run_training(split.as_mut(), &train, &val, &config);
    for (a, b) in report_a.records.iter().zip(&report_b.records) {
        assert_eq!(a.train_loss, b.train_loss);
        assert_eq!(a.val_acc, b.val_acc);
    }
    assert_networks_equal(
        &fused.into_network(),
        &split.into_network(),
        "1F1B fused vs 2BP split backward",
    );
}

#[test]
fn accumulating_schedules_record_ceil_eq5_over_m_delays() {
    // With M microbatches per update, a version lag of D_s microbatches is
    // ⌈D_s/M⌉ updates of staleness — the histogram must sit entirely on
    // that key at every stage, for both 1F1B and its 2BP split.
    let data = blobs(3, 24, 0.4, 7);
    let (train, val) = data.split(0.25);
    for spec in [
        EngineSpec::Scheduled(ScheduledConfig::one_f_one_b(4, schedule())),
        EngineSpec::Scheduled(ScheduledConfig::two_bp(4, schedule())),
    ] {
        let mut engine = spec.build(fresh_net(27));
        let pipeline_stages = engine.network_mut().pipeline_stage_count();
        run_training(engine.as_mut(), &train, &val, &RunConfig::new(2, 12));
        let metrics = engine.metrics();
        assert_eq!(metrics.occupancy.map(|o| o > 0.0 && o <= 1.0), Some(true));
        for (s, stage) in metrics.stages.iter().enumerate() {
            if stage.updates == 0 {
                continue;
            }
            let expected = stage_delay(s, pipeline_stages).div_ceil(4);
            assert_eq!(
                stage.delay_hist.keys().copied().collect::<Vec<_>>(),
                vec![expected],
                "{}: stage {s}",
                spec.label()
            );
        }
    }
}

#[test]
fn metrics_json_names_every_engine() {
    let data = blobs(3, 18, 0.4, 5);
    let (train, val) = data.split(0.34);
    for spec in &all_specs() {
        let mut engine = spec.build(fresh_net(31));
        run_training(engine.as_mut(), &train, &val, &RunConfig::new(1, 2));
        let json = engine.metrics().to_json();
        assert!(
            json.contains(&format!("\"engine\":\"{}\"", spec.label())),
            "missing {}: {json}",
            spec.label()
        );
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes, "{json}");
    }
}
