//! The [`Layer`] trait: explicit, stack-based forward/backward passes.

use pbp_tensor::{GradView, Tensor};
use std::any::Any;
use std::collections::VecDeque;

/// The activation "stack" flowing between pipeline stages.
///
/// For plain feed-forward networks it holds a single tensor. Residual
/// networks push the skip connection onto an extra lane with
/// [`crate::layers::Dup`] and merge it back with [`crate::layers::AddLanes`].
pub type LaneStack = Vec<Tensor>;

/// An optimizer step lent to a stage's backward pass
/// ([`Layer::backward_input_stepping`]): the pipeline cell implements it
/// over the stage's optimizer, for an update window the backward completes
/// on its own.
pub trait ParamStep {
    /// Takes the window's update of stage parameter `index` (its
    /// [`crate::Stage::params`] position), the weight `w` of a layer whose
    /// whole window gradient is the factored `δ ⊗ x`, and in the same pass
    /// adds `δ·w` — `w` read before the update, as a `[δ.len(), x.len()]`
    /// matrix — into the zeroed `gx`.
    fn step_outer(
        &mut self,
        index: usize,
        w: &mut Tensor,
        delta: &[f32],
        x: &[f32],
        gx: &mut [f32],
    );
}

/// A network layer with an explicit backward pass.
///
/// ## Contract
///
/// * [`Layer::forward`] pops its inputs from the top of the stack, pushes
///   its outputs, and — in training mode, see [`Layer::set_training`] —
///   **stashes** whatever it needs for the corresponding backward pass in
///   an internal FIFO.
/// * [`Layer::backward`] pops the gradients for its forward *outputs* from
///   the gradient stack (same positions), pushes the gradients for its
///   forward *inputs*, pops the oldest stashed activation, and accumulates
///   parameter gradients internally.
/// * Calls must be FIFO-consistent: the `k`-th backward call consumes the
///   stash of the `k`-th outstanding forward call. This is exactly the
///   discipline pipelined backpropagation imposes — several samples may be
///   in flight through a stage at once, and gradients return in order.
///
/// Parameter access ([`Layer::params`]/[`Layer::params_mut`]) is positional
/// and stable, which the pipeline engines rely on to snapshot, predict and
/// restore weight versions. `Any` lets a [`crate::Stage`] recognise the
/// layer pairs it runs as one pass in eval mode ([`crate::Stage::forward`]).
pub trait Layer: Send + Any {
    /// Human-readable layer name (used in stage listings and diagnostics).
    fn name(&self) -> String;

    /// Runs the forward transformation in place on the lane stack.
    fn forward(&mut self, stack: &mut LaneStack);

    /// Runs the backward transformation in place on the gradient stack.
    fn backward(&mut self, grad_stack: &mut LaneStack);

    /// Input-gradient half of the backward pass, for schedules that split
    /// backward into grad-input and grad-weight (2BP): pops the output
    /// gradients, pushes the input gradients, and *defers* the parameter
    /// gradients — each call enqueues one unit of pending weight-gradient
    /// work that a later [`Layer::backward_weight`] call retires.
    ///
    /// The default runs the fused [`Layer::backward`] (parameter gradients
    /// accumulate immediately), leaving nothing deferred — correct for
    /// parameterless layers and for layers whose parameter gradients depend
    /// on intermediate values the fused pass computes anyway. Callers must
    /// pair every `backward_input` with exactly one `backward_weight`, in
    /// FIFO order, before the next [`Layer::zero_grads`].
    fn backward_input(&mut self, grad_stack: &mut LaneStack) {
        self.backward(grad_stack);
    }

    /// [`Layer::backward_input`] for a call whose deferred half is the
    /// whole of its update window's gradient: the caller zeroed the
    /// gradients before it, retires it with one [`Layer::backward_weight`]
    /// and then updates the parameters, with nothing in between. A layer
    /// whose input gradient reads a weight may then hand that weight's
    /// update to `step` (as stage parameter `first` plus its position in
    /// [`Layer::params`]) and take the input gradient from the same pass,
    /// reading the weight once; the input gradient, and everything the
    /// layer holds afterwards, are bit for bit what `backward_input` gives.
    /// Default: `backward_input`, stepping nothing.
    fn backward_input_stepping(
        &mut self,
        grad_stack: &mut LaneStack,
        _first: usize,
        _step: &mut dyn ParamStep,
    ) {
        self.backward_input(grad_stack);
    }

    /// [`Layer::backward_input`] for a layer whose input gradient has no
    /// reader — the network's first, under a pipeline engine: pops the
    /// output gradients and defers the parameter gradients exactly as
    /// `backward_input` does (one [`Layer::backward_weight`] retires them),
    /// but pushes nothing for its one input. Default: `backward_input`,
    /// then drop the gradient it pushed; a layer whose input gradient
    /// costs something overrides it and never computes that gradient.
    fn backward_input_unread(&mut self, grad_stack: &mut LaneStack) {
        self.backward_input(grad_stack);
        grad_stack.pop();
    }

    /// Retires the oldest pending weight-gradient unit deferred by
    /// [`Layer::backward_input`], accumulating into the parameter-gradient
    /// buffers. The gradients it produces depend only on values stashed at
    /// `backward_input` time (never on the current weights), which is what
    /// makes deferring them to the update boundary exact. Default: no-op
    /// (the fused default of `backward_input` left nothing pending).
    fn backward_weight(&mut self) {}

    /// Borrows the trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutably borrows the trainable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Views of the accumulated parameter gradients, aligned with
    /// [`Layer::params`]. A layer may hand out a factored
    /// [`GradView::Outer`] only while it stands, bit for bit, for the dense
    /// gradient the layer would otherwise have accumulated since
    /// [`Layer::zero_grads`]; with no contribution since then every view
    /// reads as zeros.
    fn grads(&self) -> Vec<GradView<'_>> {
        Vec::new()
    }

    /// Simultaneously borrows every parameter mutably together with its
    /// accumulated gradient, in [`Layer::params`] order.
    ///
    /// This is the optimizer-facing access path: it lets an engine step the
    /// weights of a stage directly against the freshly accumulated gradients
    /// without cloning them first. The split borrow across a layer's
    /// parameter and gradient fields is only expressible inside the layer,
    /// so every layer with parameters must override this.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, GradView<'_>)> {
        assert!(
            self.params().is_empty(),
            "layer {} has parameters but does not override params_and_grads",
            self.name()
        );
        Vec::new()
    }

    /// Resets the accumulated parameter gradients to zero.
    fn zero_grads(&mut self) {}

    /// Switches between training and evaluation behaviour (dropout and
    /// the stash). Default: no-op, for layers that stash nothing in either
    /// mode.
    ///
    /// After `set_training(false)` a forward owes its caller the output and
    /// nothing else: it may consume the tensor it popped (normalize or
    /// rectify it in place, move its buffer on) and stashes no activation,
    /// so an eval-mode forward leaves nothing behind for
    /// [`Layer::clear_stash`] to drop, and a [`Layer::backward`] after it
    /// meets the layer's "no stash" panic. The output is bit for bit the
    /// training-mode one wherever the two modes compute the same function.
    /// Layers get the stash half of this by keeping their operands in a
    /// `Stash`, which drops what it is handed in eval mode.
    fn set_training(&mut self, _training: bool) {}

    /// Drops all stashed activations: when a pipeline is flushed, or after
    /// a forward whose backward will not come (a panic part-way through a
    /// training-mode network; see [`Layer::set_training`] for what an
    /// eval-mode forward leaves).
    fn clear_stash(&mut self) {}

    /// Number of scalar parameters in this layer.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Estimated forward-pass multiply-add FLOPs for one sample: the
    /// numerator of MFU accounting and the arithmetic term of the cost the
    /// threaded pipeline cuts its workers by (`pbp_pipeline::stage_cost`).
    /// The default — two FLOPs per parameter — is exact for dense matmuls
    /// and a deliberate *underestimate* for convolutions (which reuse each
    /// weight across every output pixel); conv layers override this with
    /// their spatially-resolved cost once their builder
    /// (`Conv2d::with_input_size`: `vgg_cnn`, `vgg`) or a first forward
    /// pass has told them the input size. Builders that take any
    /// image size (`resnet_cifar`, `simple_cnn*`) leave it to the forward,
    /// so a fresh network of theirs and a warmed one report differently.
    fn flops_per_sample(&self) -> u64 {
        2 * self.param_count() as u64
    }

    /// Serialized non-parameter state: anything besides the parameters
    /// that influences future computation, such as `Dropout`'s RNG
    /// position. `None` (the default) marks the layer stateless; activation
    /// stashes are *not* state, because snapshots are only taken with empty
    /// pipelines.
    fn state_bytes(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state produced by [`Layer::state_bytes`].
    ///
    /// Stateless layers (the default) accept only an absent buffer; the
    /// caller passes each stored buffer to the layer at the same position.
    fn load_state_bytes(&mut self, _bytes: &[u8]) -> Result<(), pbp_snapshot::SnapshotError> {
        Err(pbp_snapshot::SnapshotError::Mismatch(format!(
            "layer {} is stateless but a state buffer was stored for it",
            self.name()
        )))
    }
}

/// A layer's FIFO of per-sample backward operands. It holds the stash half
/// of [`Layer::set_training`]'s rule for every layer that has one: in eval
/// mode `push_back` drops what it is given, so a later `pop_front` finds
/// nothing and the layer's "no stash" `expect` fires.
#[derive(Debug)]
pub(crate) struct Stash<T> {
    items: VecDeque<T>,
    training: bool,
}

impl<T> Default for Stash<T> {
    fn default() -> Self {
        Stash {
            items: VecDeque::new(),
            training: true,
        }
    }
}

impl<T> Stash<T> {
    pub(crate) fn push_back(&mut self, item: T) {
        if self.training {
            self.items.push_back(item);
        }
    }

    pub(crate) fn pop_front(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    pub(crate) fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// The mode in force, for layers whose forward differs by it.
    pub(crate) fn training(&self) -> bool {
        self.training
    }

    #[cfg(test)]
    pub(crate) fn back(&self) -> Option<&T> {
        self.items.back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn param_count_sums_tensors() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Linear::new(3, 2, true, &mut rng);
        assert_eq!(layer.param_count(), 3 * 2 + 2);
    }
}
