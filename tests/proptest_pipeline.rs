//! Property-based cross-crate tests: pipeline-engine invariants that must
//! hold for arbitrary small networks, data and hyperparameters.

use pipelined_backprop::data::blobs;
use pipelined_backprop::nn::models::mlp;
use pipelined_backprop::optim::{Hyperparams, LrSchedule, Mitigation};
use pipelined_backprop::pipeline::{
    fill_drain_utilization, stage_delay, DelayedConfig, DelayedTrainer, MicrobatchSchedule,
    ScheduledConfig, ScheduledTrainer, TrainEngine,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // Training whole networks per case is expensive; keep the case count
    // low but the space broad.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pb_zero_delay_equals_sgdm_for_random_nets(
        hidden in 4usize..24,
        lr in 0.001f32..0.05,
        m in 0.0f32..0.99,
        net_seed in 0u64..1000,
        data_seed in 0u64..1000,
    ) {
        let schedule = LrSchedule::constant(Hyperparams::new(lr, m));
        let mut rng = StdRng::seed_from_u64(net_seed);
        let net_a = mlp(&[2, hidden, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(net_seed);
        let net_b = mlp(&[2, hidden, 3], &mut rng);
        let data = blobs(3, 10, 0.4, data_seed);
        let cfg = ScheduledConfig::new(MicrobatchSchedule::UniformDelay { delay: 0 }, schedule.clone());
        let mut pb = ScheduledTrainer::new(net_a, cfg);
        let mut sgd = DelayedTrainer::new(net_b, DelayedConfig::sgdm(1, schedule));
        pb.train_epoch(&data, 1, 0);
        sgd.train_epoch(&data, 1, 0);
        let na = pb.into_network();
        let nb = sgd.into_network();
        for s in 0..na.num_stages() {
            for (p, q) in na.stage(s).params().iter().zip(nb.stage(s).params()) {
                prop_assert_eq!(p.as_slice(), q.as_slice(), "stage {}", s);
            }
        }
    }

    #[test]
    fn all_mitigations_keep_weights_finite(
        mitigation_idx in 0usize..6,
        lr in 0.0005f32..0.01,
        m in 0.5f32..0.99,
        seed in 0u64..100,
    ) {
        let mitigation = [
            Mitigation::None,
            Mitigation::scd(),
            Mitigation::lwpd(),
            Mitigation::lwpv_scd(),
            Mitigation::lwpw_scd(),
            Mitigation::SpecTrain,
        ][mitigation_idx];
        let schedule = LrSchedule::constant(Hyperparams::new(lr, m));
        let mut rng = StdRng::seed_from_u64(seed);
        let net = mlp(&[2, 8, 8, 3], &mut rng);
        let data = blobs(3, 12, 0.4, seed);
        let cfg = ScheduledConfig::pb(schedule).with_mitigation(mitigation);
        let mut pb = ScheduledTrainer::new(net, cfg);
        for epoch in 0..2 {
            pb.train_epoch(&data, seed, epoch);
        }
        let net = pb.into_network();
        for s in 0..net.num_stages() {
            for p in net.stage(s).params() {
                prop_assert!(p.all_finite(), "non-finite weights in stage {}", s);
            }
        }
    }

    #[test]
    fn stage_delays_are_even_decreasing_and_bounded(s_total in 1usize..200) {
        let delays: Vec<usize> = (0..s_total).map(|s| stage_delay(s, s_total)).collect();
        prop_assert_eq!(delays[s_total - 1], 0);
        prop_assert_eq!(delays[0], 2 * (s_total - 1));
        for w in delays.windows(2) {
            prop_assert_eq!(w[0], w[1] + 2);
        }
    }

    #[test]
    fn utilization_bound_is_monotone(n in 1usize..512, s in 1usize..256) {
        let u = fill_drain_utilization(n, s);
        prop_assert!(u > 0.0 && u <= 1.0);
        // More samples per update: utilization can only improve.
        prop_assert!(fill_drain_utilization(n + 1, s) >= u);
        // More stages: utilization can only degrade.
        prop_assert!(fill_drain_utilization(n, s + 1) <= u);
    }
}
