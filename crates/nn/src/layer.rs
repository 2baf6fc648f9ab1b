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

/// The optimizer steps lent to a stage's backward pass
/// ([`Layer::backward_input_stepping`]): the pipeline cell implements it
/// over the stage's optimizer, for consecutive microbatches that are each
/// an update window the backward completes on its own.
pub trait ParamStep {
    /// Takes the next `rows.len()` updates of stage parameter `index` (its
    /// [`crate::Stage::params`] position), the weight `w` of a layer whose
    /// window gradients are the factored `δ_u ⊗ x_u` (`rows[u] = (δ_u, x_u)`),
    /// in one pass over `w`, adding `δ_u·w` — `w` read before update `u`,
    /// as a `[δ_u.len(), x_u.len()]` matrix — into the zeroed `gx[u]`.
    fn step_outer(
        &mut self,
        index: usize,
        w: &mut Tensor,
        rows: &[(&[f32], &[f32])],
        gx: &mut [&mut [f32]],
    );
}

/// A network layer with an explicit backward pass in two halves.
///
/// ## Contract
///
/// * [`Layer::forward`] pops its inputs from the top of the stack, pushes
///   its outputs, and — in training mode, see [`Layer::set_training`] —
///   **stashes** whatever it needs for the corresponding backward pass in
///   an internal FIFO.
/// * The backward is two halves, 2BP's `∂L/∂z` and `∂L/∂w` passes.
///   [`Layer::backward_input`] pops the gradients for its forward
///   *outputs* from the gradient stack (same positions), pushes the
///   gradients for its forward *inputs* and pops the oldest stashed
///   activation. [`Layer::backward_weight`] then accumulates that
///   backward's parameter gradients inside the layer. A layer may do the
///   second half inside the first (its `backward_weight` is then the
///   default no-op); one that defers it must read no current weight in
///   it, so that deferring it to the update boundary changes no bit.
///   Every whole backward — [`crate::Stage::backward`],
///   [`crate::Network::backward`] — is `backward_input` immediately
///   followed by `backward_weight`.
/// * Calls must be FIFO-consistent: the `k`-th backward call consumes the
///   stash of the `k`-th outstanding forward call, and the `k`-th
///   `backward_weight` retires the `k`-th `backward_input`'s half. This is
///   exactly the discipline pipelined backpropagation imposes — several
///   samples may be in flight through a stage at once, and gradients
///   return in order.
///
/// Parameters are read through [`Layer::params`] and written, beside
/// their gradients, through [`Layer::params_and_grads`]; both are
/// positional and stable, which the pipeline engines rely on to snapshot,
/// predict and restore weight versions. `Any` lets a [`crate::Stage`]
/// recognise the layer pairs it runs as one pass in eval mode
/// ([`crate::Stage::forward`]).
pub trait Layer: Send + Any {
    /// Human-readable layer name (used in stage listings and diagnostics).
    fn name(&self) -> String;

    /// Runs the forward transformation in place on the lane stack.
    fn forward(&mut self, stack: &mut LaneStack);

    /// Input-gradient half of the backward pass: pops the output
    /// gradients, pushes the input gradients, and either accumulates the
    /// parameter gradients at once or *defers* them — enqueues one unit of
    /// pending weight-gradient work that a later [`Layer::backward_weight`]
    /// call retires. Callers pair every `backward_input` with exactly one
    /// `backward_weight`, in FIFO order, before the next
    /// [`Layer::zero_grads`].
    fn backward_input(&mut self, grad_stack: &mut LaneStack);

    /// [`Layer::backward_input`] for consecutive microbatches, each its own
    /// update window, whose output gradients are on `grads` in order: the
    /// caller zeroed the gradients before the first, and after each
    /// microbatch's input half retires it with one
    /// [`Layer::backward_weight`] and updates the parameters, zeroing them
    /// again before the next — so each call's deferred half is the whole of
    /// its window's gradient. A layer whose input gradient reads a weight
    /// may then hand that weight's updates to `step` (as stage parameter
    /// `first` plus its position in [`Layer::params`]) and take the input
    /// gradients from the same pass, reading the weight once for all of
    /// them; the input gradients, and everything the layer holds afterwards,
    /// are bit for bit what `backward_input` on each microbatch, with its
    /// update in between, gives. More than one stack is offered only to a
    /// layer that [pairs](Layer::pairs_backward). Default:
    /// `backward_input` on each stack in turn, stepping nothing.
    fn backward_input_stepping(
        &mut self,
        grads: &mut [LaneStack],
        _first: usize,
        _step: &mut dyn ParamStep,
    ) {
        for grad_stack in grads {
            self.backward_input(grad_stack);
        }
    }

    /// Whether [`Layer::backward_input_stepping`] can take two
    /// microbatches: true for a layer whose input gradient reads no
    /// parameter (the default: one without parameters), or one that takes
    /// both updates from its [`ParamStep`] in the same pass.
    fn pairs_backward(&self) -> bool {
        self.params().is_empty()
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
    /// makes deferring them to the update boundary exact. Default: no-op,
    /// for layers without parameters and for layers whose parameter
    /// gradients `backward_input` accumulates itself.
    fn backward_weight(&mut self) {}

    /// Borrows the trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Simultaneously borrows every parameter mutably together with a view
    /// of its accumulated gradient, in [`Layer::params`] order: the one
    /// write path to the parameters, and the one read path to the
    /// gradients.
    ///
    /// It lets an engine step the weights of a stage directly against the
    /// freshly accumulated gradients without cloning them first. The split
    /// borrow across a layer's parameter and gradient fields is only
    /// expressible inside the layer, so every layer with parameters must
    /// override this. A layer may hand out a factored [`GradView::Outer`]
    /// only while it stands, bit for bit, for the dense gradient the layer
    /// would otherwise have accumulated since [`Layer::zero_grads`]; with
    /// no contribution since then every view reads as zeros.
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
    /// [`Layer::clear_stash`] to drop, and a [`Layer::backward_input`]
    /// after it meets the layer's "no stash" panic. The output is bit for
    /// bit the training-mode one wherever the two modes compute the same
    /// function. Layers get the stash half of this by keeping their
    /// operands in a `Stash`, which drops what it is handed in eval mode.
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
pub(crate) mod tests {
    use super::*;
    use crate::layers::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A whole backward: the two halves back to back.
    pub(crate) fn full_backward(layer: &mut dyn Layer, grad_stack: &mut LaneStack) {
        layer.backward_input(grad_stack);
        layer.backward_weight();
    }

    /// The views of `layer`'s accumulated parameter gradients, in
    /// [`Layer::params`] order.
    pub(crate) fn grad_views(layer: &mut dyn Layer) -> Vec<GradView<'_>> {
        let pairs = layer.params_and_grads();
        pairs.into_iter().map(|(_, g)| g).collect()
    }

    #[test]
    fn param_count_sums_tensors() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Linear::new(3, 2, true, &mut rng);
        assert_eq!(layer.param_count(), 3 * 2 + 2);
    }
}
