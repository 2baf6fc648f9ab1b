//! Stage-partitioned network container.

use crate::layer::{LaneStack, Layer, ParamStep};
use crate::layers::{GroupNorm, Relu};
use pbp_tensor::{GradView, Tensor};
use std::any::Any;

/// One pipeline stage: a named, ordered group of fused layers.
///
/// The paper fuses each convolution with its normalization and
/// non-linearity into one stage for ResNets, keeps every module its own
/// stage for VGG, and gives residual sum nodes their own stages. A `Stage`
/// is the unit the pipeline engines schedule, delay and version weights
/// for.
pub struct Stage {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stage({}, {} layers)", self.name, self.layers.len())
    }
}

impl Stage {
    /// Creates a stage from fused layers.
    pub fn new(name: impl Into<String>, layers: Vec<Box<dyn Layer>>) -> Self {
        Stage {
            name: name.into(),
            layers,
        }
    }

    /// Creates a stage holding a single layer, named after it.
    pub fn single(layer: Box<dyn Layer>) -> Self {
        let name = layer.name();
        Stage {
            name,
            layers: vec![layer],
        }
    }

    /// Stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the stage's forward transformation on the lane stack.
    ///
    /// In eval mode a [`GroupNorm`] directly followed by a [`Relu`] is one
    /// pass: the normalisation rectifies each value as it writes it, with
    /// the ReLU's own product, and the ReLU's separate pass over the
    /// activation is skipped. The output bits are the two layers' in turn;
    /// the layer list, and every training-mode forward, are unchanged.
    pub fn forward(&mut self, stack: &mut LaneStack) {
        let mut layers = self.layers.iter_mut().peekable();
        while let Some(layer) = layers.next() {
            let relu_next = layers
                .peek()
                .is_some_and(|next| (&***next as &dyn Any).is::<Relu>());
            let folded = relu_next
                && (&mut **layer as &mut dyn Any)
                    .downcast_mut::<GroupNorm>()
                    .is_some_and(|norm| norm.forward_relu(stack));
            if folded {
                layers.next();
            } else {
                layer.forward(stack);
            }
        }
    }

    /// Runs the stage's backward transformation on the gradient stack.
    pub fn backward(&mut self, grad_stack: &mut LaneStack) {
        for layer in self.layers.iter_mut().rev() {
            layer.backward(grad_stack);
        }
    }

    /// Input-gradient half of the backward pass (2BP split backward):
    /// propagates gradients through every layer in reverse order while each
    /// layer defers its parameter-gradient work. Pair with exactly one
    /// [`Stage::backward_weight`] per call, in FIFO order.
    ///
    /// Without `input_grad` — the network's first stage under a pipeline
    /// engine, whose input gradient nobody reads — the first layer runs
    /// [`Layer::backward_input_unread`] and the stack is left without the
    /// stage's input gradient.
    pub fn backward_input(&mut self, grad_stack: &mut LaneStack, input_grad: bool) {
        self.backward_input_with(grad_stack, None, input_grad);
    }

    /// [`Stage::backward_input`] for a microbatch that is its own update
    /// window, lending every layer `step` for the parameters it can update
    /// beside its input gradient ([`Layer::backward_input_stepping`]'s
    /// contract holds for every layer of the stage). A first layer whose
    /// input gradient is unread is lent nothing: its parameters are left
    /// to the update, which reads each once all the same.
    pub fn backward_input_stepping(
        &mut self,
        grad_stack: &mut LaneStack,
        step: &mut dyn ParamStep,
        input_grad: bool,
    ) {
        self.backward_input_with(grad_stack, Some(step), input_grad);
    }

    fn backward_input_with(
        &mut self,
        grad_stack: &mut LaneStack,
        mut step: Option<&mut dyn ParamStep>,
        input_grad: bool,
    ) {
        // Stage parameter index of each layer's first parameter: counted
        // down from the end only when there is a step to lend.
        let mut first = step.as_ref().map_or(0, |_| self.params().len());
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            match &mut step {
                _ if i == 0 && !input_grad => layer.backward_input_unread(grad_stack),
                Some(step) => {
                    first -= layer.params().len();
                    layer.backward_input_stepping(grad_stack, first, *step);
                }
                None => layer.backward_input(grad_stack),
            }
        }
    }

    /// Retires one deferred weight-gradient unit per layer (the oldest).
    /// Layer order is irrelevant for the result — parameter-gradient
    /// buffers are disjoint per layer — but reverse order mirrors
    /// [`Stage::backward_input`].
    pub fn backward_weight(&mut self) {
        for layer in self.layers.iter_mut().rev() {
            layer.backward_weight();
        }
    }

    /// Borrows all trainable parameters of the stage, in a stable order.
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutably borrows all trainable parameters of the stage.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Views of the accumulated gradients, aligned with [`Stage::params`].
    pub fn grads(&self) -> Vec<GradView<'_>> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    /// Simultaneously borrows the parameters mutably and their gradients,
    /// both in [`Stage::params`] order. This is what optimizers consume:
    /// it allows stepping a stage in place without cloning the gradients.
    pub fn params_and_grads(&mut self) -> (Vec<&mut Tensor>, Vec<GradView<'_>>) {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .unzip()
    }

    /// Zeroes the accumulated gradients of every layer in the stage.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Switches training/eval behaviour for every layer in the stage.
    pub fn set_training(&mut self, training: bool) {
        for layer in &mut self.layers {
            layer.set_training(training);
        }
    }

    /// Drops all stashed activations.
    pub fn clear_stash(&mut self) {
        for layer in &mut self.layers {
            layer.clear_stash();
        }
    }

    /// Number of scalar parameters in the stage.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Estimated forward-pass FLOPs for one sample (sum of the stage's
    /// layers — see [`Layer::flops_per_sample`]): the numerator of MFU
    /// accounting (`pbp_trace::mfu`), the benchmark ledger's
    /// `tensor.flops_per_sample`, and the arithmetic half of the cost the
    /// threaded pipeline partitions its stages by
    /// (`pbp_pipeline::stage_cost`).
    pub fn flops_per_sample(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_per_sample()).sum()
    }

    /// Borrows the stage's layers in order (for per-layer state capture).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutably borrows the stage's layers in order.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Copies the stage's parameters into owned snapshots.
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.params().into_iter().cloned().collect()
    }

    /// Restores parameters from a snapshot taken by [`Stage::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot layout disagrees with the stage.
    pub fn load(&mut self, snapshot: &[Tensor]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), snapshot.len(), "snapshot layout mismatch");
        for (p, s) in params.iter_mut().zip(snapshot) {
            assert_eq!(p.shape(), s.shape(), "snapshot shape mismatch");
            p.as_mut_slice().copy_from_slice(s.as_slice());
        }
    }
}

/// A network as an ordered list of pipeline [`Stage`]s.
///
/// `Network` supports two modes of use:
///
/// * **Sequential** — [`Network::forward`]/[`Network::backward`] run all
///   stages back-to-back, giving an exact mini-batch SGD reference.
/// * **Staged** — the pipeline engines drive individual stages via
///   [`Network::stage_mut`], interleaving samples and weight versions.
pub struct Network {
    stages: Vec<Stage>,
    /// Mirrors the last [`Network::set_training`] call (networks start in
    /// training mode). Layers keep their own behaviour switches; this flag
    /// exists so callers like `evaluate` can save and restore the mode.
    training: bool,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Network({} stages, {} params)",
            self.stages.len(),
            self.param_count()
        )
    }
}

impl Network {
    /// Creates a network from stages, in training mode.
    pub fn new(stages: Vec<Stage>) -> Self {
        Network {
            stages,
            training: true,
        }
    }

    /// Consumes the network, yielding its stages — used by the threaded
    /// pipeline runtime, which moves each stage into its own worker thread.
    pub fn into_stages(self) -> Vec<Stage> {
        self.stages
    }

    /// Number of layer stages (excluding the loss stage).
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of pipeline stages as counted in the paper's tables, which
    /// include the final softmax/loss computation as its own stage.
    pub fn pipeline_stage_count(&self) -> usize {
        self.stages.len() + 1
    }

    /// Borrows a stage.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn stage(&self, index: usize) -> &Stage {
        &self.stages[index]
    }

    /// Mutably borrows a stage.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn stage_mut(&mut self, index: usize) -> &mut Stage {
        &mut self.stages[index]
    }

    /// Iterates over stages.
    pub fn stages(&self) -> impl Iterator<Item = &Stage> {
        self.stages.iter()
    }

    /// Mutably borrows all stages as a slice (for executors that own a
    /// contiguous sub-range).
    pub fn stages_mut(&mut self) -> &mut [Stage] {
        &mut self.stages
    }

    /// Full forward pass: single input tensor to logits.
    ///
    /// # Panics
    ///
    /// Panics if the network does not reduce the lane stack back to a
    /// single tensor (a malformed residual topology).
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut stack: LaneStack = vec![input.clone()];
        for stage in &mut self.stages {
            stage.forward(&mut stack);
        }
        assert_eq!(stack.len(), 1, "network must end with a single lane");
        stack.pop().expect("non-empty stack")
    }

    /// Full backward pass from the loss gradient; parameter gradients
    /// accumulate inside the layers.
    ///
    /// # Panics
    ///
    /// Panics if backward does not reduce back to a single input gradient.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut stack: LaneStack = vec![grad_logits.clone()];
        for stage in self.stages.iter_mut().rev() {
            stage.backward(&mut stack);
        }
        assert_eq!(stack.len(), 1, "backward must end with a single lane");
        stack.pop().expect("non-empty stack")
    }

    /// Input-gradient half of the backward pass (2BP split): propagates
    /// the loss gradient through every stage via
    /// [`Stage::backward_input`], leaving each layer's weight-gradient
    /// work pending until [`Network::backward_weight`].
    ///
    /// # Panics
    ///
    /// Panics if backward does not reduce back to a single input gradient.
    pub fn backward_input(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut stack: LaneStack = vec![grad_logits.clone()];
        for stage in self.stages.iter_mut().rev() {
            stage.backward_input(&mut stack, true);
        }
        assert_eq!(stack.len(), 1, "backward must end with a single lane");
        stack.pop().expect("non-empty stack")
    }

    /// Weight-gradient half of the backward pass (2BP split): retires the
    /// oldest pending weight-gradient computation in every stage,
    /// accumulating parameter gradients inside the layers. Must be called
    /// once per preceding [`Network::backward_input`], in FIFO order.
    pub fn backward_weight(&mut self) {
        for stage in self.stages.iter_mut().rev() {
            stage.backward_weight();
        }
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for stage in &mut self.stages {
            stage.zero_grads();
        }
    }

    /// Switches training/eval behaviour.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
        for stage in &mut self.stages {
            stage.set_training(training);
        }
    }

    /// Whether the network is in training mode (the default) — i.e. the
    /// value of the last [`Network::set_training`] call.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Drops all stashed activations in every stage.
    pub fn clear_stash(&mut self) {
        for stage in &mut self.stages {
            stage.clear_stash();
        }
    }

    /// Total number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.stages.iter().map(|s| s.param_count()).sum()
    }

    /// Copies all parameters into per-stage snapshots.
    pub fn snapshot(&self) -> Vec<Vec<Tensor>> {
        self.stages.iter().map(Stage::snapshot).collect()
    }

    /// Restores all parameters from snapshots taken by
    /// [`Network::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics on layout mismatch.
    pub fn load(&mut self, snapshot: &[Vec<Tensor>]) {
        assert_eq!(snapshot.len(), self.stages.len(), "stage count mismatch");
        for (stage, snap) in self.stages.iter_mut().zip(snapshot) {
            stage.load(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{AddLanes, Dup, Linear, Relu};
    use crate::loss::softmax_cross_entropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            Stage::new(
                "fc1",
                vec![
                    Box::new(Linear::new(4, 8, true, &mut rng)),
                    Box::new(Relu::new()),
                ],
            ),
            Stage::single(Box::new(Linear::new(8, 3, true, &mut rng))),
        ])
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = tiny_net(0);
        let x = Tensor::ones(&[2, 4]);
        let logits = net.forward(&x);
        assert_eq!(logits.shape(), &[2, 3]);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 1]);
        let gx = net.backward(&grad);
        assert_eq!(gx.shape(), &[2, 4]);
    }

    #[test]
    fn snapshot_load_round_trip() {
        let mut net = tiny_net(1);
        let snap = net.snapshot();
        let x = Tensor::ones(&[1, 4]);
        let before = net.forward(&x);
        // Train a step-ish: perturb weights.
        for s in 0..net.num_stages() {
            for p in net.stage_mut(s).params_mut() {
                p.map_in_place(|v| v * 1.5 + 0.1);
            }
        }
        net.clear_stash();
        let perturbed = net.forward(&x);
        assert_ne!(before.as_slice(), perturbed.as_slice());
        net.load(&snap);
        net.clear_stash();
        let after = net.forward(&x);
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn residual_topology_reduces_to_single_lane() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new(vec![
            Stage::single(Box::new(Dup::new())),
            Stage::single(Box::new(Linear::new(4, 4, false, &mut rng))),
            Stage::single(Box::new(AddLanes::new())),
        ]);
        let x = Tensor::ones(&[1, 4]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[1, 4]);
        let gx = net.backward(&Tensor::ones(&[1, 4]));
        assert_eq!(gx.shape(), &[1, 4]);
    }

    #[test]
    fn pipeline_stage_count_includes_loss_stage() {
        let net = tiny_net(3);
        assert_eq!(net.pipeline_stage_count(), net.num_stages() + 1);
    }

    #[test]
    fn gradient_descent_reduces_loss_on_tiny_problem() {
        let mut net = tiny_net(4);
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5, 2.0], &[1, 4]).unwrap();
        let labels = [2usize];
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..50 {
            net.zero_grads();
            let logits = net.forward(&x);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            net.backward(&grad);
            for s in 0..net.num_stages() {
                let stage = net.stage_mut(s);
                let grads: Vec<Tensor> = stage
                    .grads()
                    .iter()
                    .map(|g| g.dense().into_owned())
                    .collect();
                for (p, g) in stage.params_mut().into_iter().zip(&grads) {
                    pbp_tensor::ops::axpy(-0.1, g, p);
                }
            }
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(last_loss < first_loss.unwrap() * 0.2, "loss did not drop");
    }
}
