//! Verifies Eq. 5 directly: under the PB plan, the forward pass of sample
//! `i` at stage `s` must see the weights as they were after exactly
//! `max(0, i − D_s)` updates, with `D_s = 2(S−1−s)`.
//!
//! The probe network is built from custom layers whose single parameter
//! counts its own updates (gradient ≡ −1, lr = 1, m = 0 ⇒ the weight
//! increments by exactly 1 per update), and whose forward pass records the
//! weight value it computed with.

use pbp_nn::layer::{LaneStack, Layer};
use pbp_nn::{Network, Stage};
use pbp_optim::{Hyperparams, LrSchedule};
use pbp_pipeline::{ScheduledConfig, ScheduledTrainer};
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

    fn backward(&mut self, _grad_stack: &mut LaneStack) {
        // Gradient −1 every time: with lr = 1, m = 0 the update is
        // w ← w − 1·(−1) = w + 1.
        self.grad.as_mut_slice()[0] = -1.0;
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight]
    }

    fn grads(&self) -> Vec<GradView<'_>> {
        vec![(&self.grad).into()]
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

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        grad_stack.pop();
        grad_stack.push(Tensor::zeros(&[1, 1]));
    }
}

#[test]
fn forward_weight_versions_follow_eq5() {
    let num_probe_stages = 4;
    let mut stages = Vec::new();
    let mut logs = Vec::new();
    for _ in 0..num_probe_stages {
        let seen = Arc::new(Mutex::new(Vec::new()));
        logs.push(Arc::clone(&seen));
        stages.push(Stage::single(Box::new(ProbeLayer::new(seen))));
    }
    stages.push(Stage::single(Box::new(ConstHead)));
    let net = Network::new(stages);
    // S includes probe stages + head + loss stage.
    let s_total = net.pipeline_stage_count();
    assert_eq!(s_total, num_probe_stages + 2);

    // lr = 1, m = 0: every update adds exactly +1 to each probe weight.
    let schedule = LrSchedule::constant(Hyperparams::new(1.0, 0.0));
    let mut trainer = ScheduledTrainer::new(net, ScheduledConfig::pb(schedule));

    let n_samples = 40usize;
    let x = Tensor::zeros(&[1]);
    for _ in 0..n_samples {
        trainer.train_sample(&x, 0);
    }

    for (s, log) in logs.iter().enumerate() {
        let d = 2 * (s_total - 1 - s);
        let seen = log.lock().unwrap();
        assert_eq!(seen.len(), n_samples);
        for (i, &w) in seen.iter().enumerate() {
            let expected = i.saturating_sub(d) as f32;
            assert_eq!(
                w, expected,
                "stage {s} (D={d}): sample {i} saw weight version {w}, expected {expected}"
            );
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
