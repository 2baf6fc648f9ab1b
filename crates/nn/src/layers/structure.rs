//! Structural layers for expressing residual topologies as linear stage
//! chains: lane duplication, lane summation and per-lane mapping.
//!
//! The paper's pipeline treats the sum nodes between residual blocks as
//! pipeline stages of their own; [`AddLanes`] is exactly that stage.

use crate::layer::{LaneStack, Layer, Stash};
use pbp_tensor::{GradView, Tensor};

/// Duplicates the top lane: `[.., x] → [.., x, x]`.
///
/// Used to fork a residual-block input onto the skip lane. Backward sums
/// the gradients of both copies.
#[derive(Debug, Default)]
pub struct Dup;

impl Dup {
    /// Creates a duplication op.
    pub fn new() -> Self {
        Dup
    }
}

impl Layer for Dup {
    fn name(&self) -> String {
        "dup".to_string()
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.last().expect("dup: empty stack").clone();
        stack.push(x);
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g_top = grad_stack.pop().expect("dup: empty grad stack");
        let g_below = grad_stack.last_mut().expect("dup: grad stack underflow");
        g_below
            .add_assign(&g_top)
            .expect("dup grads must be same shape");
    }
}

/// Sums the two top lanes: `[.., a, b] → [.., a + b]` — the residual
/// "sum node", which is its own pipeline stage in the paper.
///
/// Backward duplicates the incoming gradient onto both lanes.
#[derive(Debug, Default)]
pub struct AddLanes;

impl AddLanes {
    /// Creates a lane-summation op.
    pub fn new() -> Self {
        AddLanes
    }
}

impl Layer for AddLanes {
    fn name(&self) -> String {
        "add".to_string()
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let b = stack.pop().expect("add: empty stack");
        let a = stack.pop().expect("add: stack underflow");
        stack.push(a.add(&b).expect("add lanes must be same shape"));
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("add: empty grad stack");
        grad_stack.push(g.clone());
        grad_stack.push(g);
    }
}

/// Applies an inner layer to the lane `depth` positions below the top
/// (`depth == 0` is the top lane).
///
/// Used for projection shortcuts: the skip lane of a down-sampling residual
/// block passes through a 1×1 strided convolution.
pub struct MapLane {
    depth: usize,
    inner: Box<dyn Layer>,
}

impl MapLane {
    /// Wraps `inner` so it transforms the lane `depth` below the top.
    pub fn new(depth: usize, inner: Box<dyn Layer>) -> Self {
        MapLane { depth, inner }
    }
}

impl std::fmt::Debug for MapLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MapLane(depth={}, inner={})",
            self.depth,
            self.inner.name()
        )
    }
}

impl Layer for MapLane {
    fn name(&self) -> String {
        format!("lane[-{}]:{}", self.depth, self.inner.name())
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let idx = stack
            .len()
            .checked_sub(1 + self.depth)
            .expect("maplane: underflow");
        let x = stack.remove(idx);
        let mut sub = vec![x];
        self.inner.forward(&mut sub);
        stack.insert(idx, sub.pop().expect("inner layer must produce output"));
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let idx = grad_stack
            .len()
            .checked_sub(1 + self.depth)
            .expect("maplane: underflow");
        let g = grad_stack.remove(idx);
        let mut sub = vec![g];
        self.inner.backward(&mut sub);
        grad_stack.insert(idx, sub.pop().expect("inner layer must produce gradient"));
    }

    fn params(&self) -> Vec<&Tensor> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.inner.params_mut()
    }

    fn grads(&self) -> Vec<GradView<'_>> {
        self.inner.grads()
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, GradView<'_>)> {
        self.inner.params_and_grads()
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training);
    }

    fn clear_stash(&mut self) {
        self.inner.clear_stash();
    }
}

/// Flattens `[N, C, H, W] → [N, C*H*W]`; the buffer moves through in both
/// directions, only the shape changes.
#[derive(Debug, Default)]
pub struct Flatten {
    stash: Stash<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten op.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> String {
        "flatten".to_string()
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("flatten: empty stack");
        let n = x.shape()[0];
        let rest = x.len() / n;
        self.stash.push_back(x.shape().to_vec());
        stack.push(x.into_shape(&[n, rest]).expect("same volume"));
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("flatten: empty grad stack");
        let shape = self.stash.pop_front().expect("flatten: no stash");
        grad_stack.push(g.into_shape(&shape).expect("same volume"));
    }

    fn set_training(&mut self, training: bool) {
        self.stash.set_training(training);
    }

    fn clear_stash(&mut self) {
        self.stash.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Relu;

    #[test]
    fn dup_forwards_copy_and_sums_grads() {
        let mut dup = Dup::new();
        let mut s = vec![Tensor::from_slice(&[1.0, 2.0])];
        dup.forward(&mut s);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].as_slice(), s[1].as_slice());
        let mut g = vec![
            Tensor::from_slice(&[1.0, 1.0]),
            Tensor::from_slice(&[2.0, 3.0]),
        ];
        dup.backward(&mut g);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn add_lanes_sums_and_fans_out_grad() {
        let mut add = AddLanes::new();
        let mut s = vec![Tensor::from_slice(&[1.0]), Tensor::from_slice(&[2.0])];
        add.forward(&mut s);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].as_slice(), &[3.0]);
        let mut g = vec![Tensor::from_slice(&[5.0])];
        add.backward(&mut g);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].as_slice(), &[5.0]);
        assert_eq!(g[1].as_slice(), &[5.0]);
    }

    #[test]
    fn residual_identity_block_doubles_gradient() {
        // y = x + x through Dup/AddLanes: dy/dx = 2.
        let mut dup = Dup::new();
        let mut add = AddLanes::new();
        let mut s = vec![Tensor::from_slice(&[3.0])];
        dup.forward(&mut s);
        add.forward(&mut s);
        assert_eq!(s[0].as_slice(), &[6.0]);
        let mut g = vec![Tensor::from_slice(&[1.0])];
        add.backward(&mut g);
        dup.backward(&mut g);
        assert_eq!(g[0].as_slice(), &[2.0]);
    }

    #[test]
    fn maplane_transforms_lower_lane() {
        let mut map = MapLane::new(1, Box::new(Relu::new()));
        let mut s = vec![
            Tensor::from_slice(&[-1.0, 1.0]),
            Tensor::from_slice(&[9.0, 9.0]),
        ];
        map.forward(&mut s);
        // Lane below top got ReLU'd; top untouched.
        assert_eq!(s[0].as_slice(), &[0.0, 1.0]);
        assert_eq!(s[1].as_slice(), &[9.0, 9.0]);
        let mut g = vec![
            Tensor::from_slice(&[1.0, 1.0]),
            Tensor::from_slice(&[1.0, 1.0]),
        ];
        map.backward(&mut g);
        assert_eq!(g[0].as_slice(), &[0.0, 1.0]);
        assert_eq!(g[1].as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut f = Flatten::new();
        let mut s = vec![Tensor::ones(&[2, 3, 2, 2])];
        f.forward(&mut s);
        assert_eq!(s[0].shape(), &[2, 12]);
        let mut g = vec![Tensor::ones(&[2, 12])];
        f.backward(&mut g);
        assert_eq!(g[0].shape(), &[2, 3, 2, 2]);
    }
}
