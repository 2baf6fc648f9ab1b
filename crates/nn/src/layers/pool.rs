//! Pooling layers.

use crate::layer::{LaneStack, Layer, Stash};
use pbp_tensor::ops::{avg_pool2d, avg_pool2d_backward, max_pool2d, max_pool2d_backward, PoolSpec};
use pbp_tensor::Tensor;

/// Max pooling layer.
#[derive(Debug)]
pub struct MaxPool2d {
    spec: PoolSpec,
    stash: Stash<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with a square window.
    ///
    /// # Panics
    ///
    /// Panics on zero kernel or stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        MaxPool2d {
            spec: PoolSpec::new(kernel, stride).expect("valid pool geometry"),
            stash: Stash::default(),
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("maxpool({}x{})", self.spec.kernel, self.spec.kernel)
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("maxpool: empty stack");
        let (y, argmax) = max_pool2d(&x, &self.spec).expect("maxpool shapes");
        self.stash.push_back((argmax, x.shape().to_vec()));
        stack.push(y);
    }

    fn backward_input(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("maxpool: empty grad stack");
        let (argmax, shape) = self.stash.pop_front().expect("maxpool: no stash");
        grad_stack.push(max_pool2d_backward(&g, &argmax, &shape).expect("maxpool grad shapes"));
    }

    fn set_training(&mut self, training: bool) {
        self.stash.set_training(training);
    }

    fn clear_stash(&mut self) {
        self.stash.clear();
    }
}

/// Average pooling layer.
#[derive(Debug)]
pub struct AvgPool2d {
    spec: PoolSpec,
    stash: Stash<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with a square window.
    ///
    /// # Panics
    ///
    /// Panics on zero kernel or stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        AvgPool2d {
            spec: PoolSpec::new(kernel, stride).expect("valid pool geometry"),
            stash: Stash::default(),
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> String {
        format!("avgpool({}x{})", self.spec.kernel, self.spec.kernel)
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("avgpool: empty stack");
        let y = avg_pool2d(&x, &self.spec).expect("avgpool shapes");
        self.stash.push_back(x.shape().to_vec());
        stack.push(y);
    }

    fn backward_input(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("avgpool: empty grad stack");
        let shape = self.stash.pop_front().expect("avgpool: no stash");
        grad_stack.push(avg_pool2d_backward(&g, &self.spec, &shape).expect("avgpool grad shapes"));
    }

    fn set_training(&mut self, training: bool) {
        self.stash.set_training(training);
    }

    fn clear_stash(&mut self) {
        self.stash.clear();
    }
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool2d {
    stash: Stash<Vec<usize>>,
}

impl GlobalAvgPool2d {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool2d::default()
    }
}

impl Layer for GlobalAvgPool2d {
    fn name(&self) -> String {
        "global_avgpool".to_string()
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        let x = stack.pop().expect("gap: empty stack");
        let [n, c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]];
        let mut y = Tensor::zeros(&[n, c]);
        let xs = x.as_slice();
        let ys = y.as_mut_slice();
        let inv = 1.0 / (h * w) as f32;
        for ni in 0..n {
            for ch in 0..c {
                let base = (ni * c + ch) * h * w;
                ys[ni * c + ch] = xs[base..base + h * w].iter().sum::<f32>() * inv;
            }
        }
        self.stash.push_back(x.shape().to_vec());
        stack.push(y);
    }

    fn backward_input(&mut self, grad_stack: &mut LaneStack) {
        let g = grad_stack.pop().expect("gap: empty grad stack");
        let shape = self.stash.pop_front().expect("gap: no stash");
        let [n, c, h, w] = [shape[0], shape[1], shape[2], shape[3]];
        let mut gx = Tensor::zeros(&shape);
        let gs = g.as_slice();
        let gxs = gx.as_mut_slice();
        let inv = 1.0 / (h * w) as f32;
        for ni in 0..n {
            for ch in 0..c {
                let val = gs[ni * c + ch] * inv;
                let base = (ni * c + ch) * h * w;
                for p in 0..h * w {
                    gxs[base + p] = val;
                }
            }
        }
        grad_stack.push(gx);
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

    #[test]
    fn maxpool_layer_round_trip() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let mut s = vec![x];
        p.forward(&mut s);
        assert_eq!(s[0].as_slice(), &[4.0]);
        let mut g = vec![Tensor::from_vec(vec![2.0], &[1, 1, 1, 1]).unwrap()];
        p.backward_input(&mut g);
        assert_eq!(g[0].as_slice(), &[0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn global_avgpool_reduces_spatial_dims() {
        let mut p = GlobalAvgPool2d::new();
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let mut s = vec![x];
        p.forward(&mut s);
        assert_eq!(s[0].shape(), &[1, 2]);
        assert_eq!(s[0].as_slice(), &[2.5, 25.0]);
        let mut g = vec![Tensor::from_vec(vec![4.0, 8.0], &[1, 2]).unwrap()];
        p.backward_input(&mut g);
        assert_eq!(g[0].as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_layer_backward_shape() {
        let mut p = AvgPool2d::new(2, 2);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let mut s = vec![x];
        p.forward(&mut s);
        assert_eq!(s[0].shape(), &[1, 1, 2, 2]);
        let mut g = vec![Tensor::ones(&[1, 1, 2, 2])];
        p.backward_input(&mut g);
        assert_eq!(g[0].shape(), &[1, 1, 4, 4]);
    }
}
