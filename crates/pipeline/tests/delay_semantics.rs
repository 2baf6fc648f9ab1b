//! Verifies Eq. 5 directly: under every plan, the forward pass of sample
//! `i` at stage `s` must see the weights as they were after exactly
//! `max(0, ⌊(i − D_s)/M⌋)` updates, with `D_s = 2(S−1−s)` for PB, 1F1B and
//! 2BP, the uniform delay for `UniformDelay`, 0 for fill&drain, and `M`
//! microbatches per update.
//!
//! The probe network is built from custom layers whose single parameter
//! counts its own updates (gradient ≡ −1, lr = 1, m = 0 ⇒ the weight
//! increments by exactly 1 per update), and whose forward pass records the
//! weight value it computed with.

use pbp_data::Dataset;
use pbp_nn::layer::{LaneStack, Layer};
use pbp_nn::{Network, Stage};
use pbp_optim::{Hyperparams, LrSchedule};
use pbp_pipeline::{
    MicrobatchSchedule, ScheduledConfig, ScheduledTrainer, ThreadedConfig, ThreadedPipeline,
};
use pbp_tensor::{GradView, Tensor};
use std::sync::{Arc, Mutex};

/// A layer with one scalar parameter that logs the weight value used by
/// every forward call and always reports gradient −1.
struct ProbeLayer {
    weight: Tensor,
    grad: Tensor,
    seen: Arc<Mutex<Vec<f32>>>,
}

impl ProbeLayer {
    fn new(seen: Arc<Mutex<Vec<f32>>>) -> Self {
        ProbeLayer {
            weight: Tensor::zeros(&[1]),
            grad: Tensor::zeros(&[1]),
            seen,
        }
    }
}

impl Layer for ProbeLayer {
    fn name(&self) -> String {
        "probe".to_string()
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        self.seen.lock().unwrap().push(self.weight.as_slice()[0]);
        // Pass activations through unchanged.
        let x = stack.pop().expect("probe: input");
        stack.push(x);
    }

    fn backward_input(&mut self, _grad_stack: &mut LaneStack) {
        // Gradient −1 every time: with lr = 1, m = 0 the update is
        // w ← w − 1·(−1) = w + 1.
        self.grad.as_mut_slice()[0] = -1.0;
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight]
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, GradView<'_>)> {
        vec![(&mut self.weight, (&self.grad).into())]
    }

    fn zero_grads(&mut self) {
        self.grad.fill(0.0);
    }
}

/// A fixed 2-class head so the loss stage has something to chew on.
struct ConstHead;

impl Layer for ConstHead {
    fn name(&self) -> String {
        "const_head".to_string()
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        stack.pop();
        stack.push(Tensor::zeros(&[1, 2]));
    }

    fn backward_input(&mut self, grad_stack: &mut LaneStack) {
        grad_stack.pop();
        grad_stack.push(Tensor::zeros(&[1, 1]));
    }
}

/// Four probe stages and the head, each probe logging into its own record.
fn probe_net() -> (Network, Vec<Arc<Mutex<Vec<f32>>>>) {
    let mut stages = Vec::new();
    let mut logs = Vec::new();
    for _ in 0..PROBE_STAGES {
        let seen = Arc::new(Mutex::new(Vec::new()));
        logs.push(Arc::clone(&seen));
        stages.push(Stage::single(Box::new(ProbeLayer::new(seen))));
    }
    stages.push(Stage::single(Box::new(ConstHead)));
    (Network::new(stages), logs)
}

const PROBE_STAGES: usize = 4;

/// Stage `s`'s forward version lag in a pipeline of `S` stages.
type Lag = fn(usize, usize) -> usize;

/// Every plan the executor runs, with its update size `M` and stage `s`'s
/// forward weight-version lag `D_s` in microbatches, written out here
/// rather than asked of the plan, so a plan that lags a stage wrongly
/// fails instead of agreeing with itself.
fn plans() -> Vec<(MicrobatchSchedule, usize, Lag)> {
    let eq5: Lag = |s, stages| 2 * (stages - 1 - s);
    vec![
        (MicrobatchSchedule::PipelinedBackprop, 1, eq5),
        (MicrobatchSchedule::UniformDelay { delay: 3 }, 1, |_, _| 3),
        (
            MicrobatchSchedule::FillDrain { update_size: 4 },
            4,
            |_, _| 0,
        ),
        (
            MicrobatchSchedule::OneFOneB {
                microbatches_per_update: 4,
            },
            4,
            eq5,
        ),
        (
            MicrobatchSchedule::TwoBP {
                microbatches_per_update: 4,
            },
            4,
            eq5,
        ),
    ]
}

/// Eq. 5 and its accumulating forms, on the sequential engine and on the
/// threaded one at whatever worker count `PBP_THREADS` gives: forward `i`
/// at stage `s` sees the weights after exactly `max(0, ⌊(i − D_s)/M⌋)`
/// updates.
#[test]
fn forward_weight_versions_follow_eq5() {
    let n_samples = 40usize;
    let x = Tensor::zeros(&[1]);
    let data = Dataset::new(vec![x.clone(); n_samples], vec![0; n_samples], 2);
    let indices: Vec<usize> = (0..n_samples).collect();
    for (plan, m, lag) in plans() {
        for threaded in [false, true] {
            let (net, logs) = probe_net();
            // S includes probe stages + head + loss stage.
            let s_total = net.pipeline_stage_count();
            assert_eq!(s_total, PROBE_STAGES + 2);
            // lr = 1, m = 0: every update adds exactly +1 to each probe
            // weight, however many microbatches its window sums.
            let schedule = LrSchedule::constant(Hyperparams::new(1.0, 0.0));
            let config = ScheduledConfig::new(plan, schedule);
            if threaded {
                let mut engine = ThreadedPipeline::new(net, ThreadedConfig::new(config));
                engine.stream(&data, &indices).expect("a fault-free run");
            } else {
                let mut trainer = ScheduledTrainer::new(net, config);
                for _ in 0..n_samples {
                    trainer.train_sample(&x, 0);
                }
            }
            for (s, log) in logs.iter().enumerate() {
                let d = lag(s, s_total);
                let seen = log.lock().unwrap();
                assert_eq!(seen.len(), n_samples);
                for (i, &w) in seen.iter().enumerate() {
                    let expected = (i.saturating_sub(d) / m) as f32;
                    assert_eq!(
                        w, expected,
                        "{plan:?} threaded={threaded} stage {s} (D={d}): sample {i} saw weight \
                         version {w}, expected {expected}"
                    );
                }
            }
        }
    }
}

#[test]
fn weight_stashing_reuses_the_forward_version_on_backward() {
    // With stashing, the backward pass must run under the same (delayed)
    // weights as forward. The probe can't observe backward directly, but
    // the *update count* semantics stay identical: stashing changes which
    // weights compute gradients, never when updates land. Verify the
    // forward version schedule is unchanged by stashing.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let stages = vec![
        Stage::single(Box::new(ProbeLayer::new(Arc::clone(&seen)))),
        Stage::single(Box::new(ConstHead)),
    ];
    let net = Network::new(stages);
    let schedule = LrSchedule::constant(Hyperparams::new(1.0, 0.0));
    let mut trainer =
        ScheduledTrainer::new(net, ScheduledConfig::pb(schedule).with_weight_stashing());
    let x = Tensor::zeros(&[1]);
    for _ in 0..10 {
        trainer.train_sample(&x, 0);
    }
    let d = 4; // stage 0 of a 3-stage pipeline (probe, head, loss)
    let seen = seen.lock().unwrap();
    for (i, &w) in seen.iter().enumerate() {
        assert_eq!(w, i.saturating_sub(d) as f32, "sample {i}");
    }
}
