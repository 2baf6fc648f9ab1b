//! VGG networks for CIFAR-scale inputs (Simonyan & Zisserman, 2014), using
//! the CIFAR-10 recipe of Fu (2019) that the paper adopts: plain
//! conv/ReLU features (Fu's baseline VGG has no normalization) and dropout
//! in the classifier.
//!
//! Stage partitioning: each convolution is two pipeline stages (conv, then
//! relu — optionally with a group norm fused into the relu stage via
//! [`vgg_gn`]), one stage per max-pool, and a seven-stage classifier. This
//! reproduces Table 1's counts exactly (VGG11 = 29, VGG13 = 33, VGG16 = 39
//! including the loss stage).

use crate::layer::Layer;
use crate::layers::{Conv2d, Dropout, Flatten, GroupNorm, Linear, MaxPool2d, Relu};
use crate::network::{Network, Stage};
use rand::Rng;

/// VGG depth variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VggVariant {
    /// 8 convolutions, 29 pipeline stages.
    Vgg11,
    /// 10 convolutions, 33 pipeline stages.
    Vgg13,
    /// 13 convolutions, 39 pipeline stages.
    Vgg16,
}

impl VggVariant {
    /// Feature-extractor plan: `Some(c)` is a conv to `c` channels,
    /// `None` is a 2×2 max-pool.
    fn plan(&self) -> Vec<Option<usize>> {
        use VggVariant::*;
        let spec: &[isize] = match self {
            Vgg11 => &[64, -1, 128, -1, 256, 256, -1, 512, 512, -1, 512, 512, -1],
            Vgg13 => &[
                64, 64, -1, 128, 128, -1, 256, 256, -1, 512, 512, -1, 512, 512, -1,
            ],
            Vgg16 => &[
                64, 64, -1, 128, 128, -1, 256, 256, 256, -1, 512, 512, 512, -1, 512, 512, 512, -1,
            ],
        };
        spec.iter()
            .map(|&v| if v < 0 { None } else { Some(v as usize) })
            .collect()
    }

    /// Number of convolution layers.
    pub fn conv_count(&self) -> usize {
        self.plan().iter().filter(|p| p.is_some()).count()
    }

    /// Pipeline stage count (incl. the loss stage) this variant produces:
    /// `2·convs (conv, gn+relu) + 5 pools + 7 classifier + 1 loss`,
    /// matching Table 1 (29 / 33 / 39).
    pub fn expected_stage_count(&self) -> usize {
        2 * self.conv_count() + 5 + 7 + 1
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            VggVariant::Vgg11 => "VGG11",
            VggVariant::Vgg13 => "VGG13",
            VggVariant::Vgg16 => "VGG16",
        }
    }
}

/// Builds a CIFAR-style VGG network.
///
/// `width_divisor` scales all channel counts down (1 = paper width, 8 =
/// one-eighth width for CPU budgets); the stage structure and counts are
/// unchanged. Input images must be 32×32 (five 2× pools reduce them to
/// 1×1).
///
/// Stage layout: each conv is followed by its own `relu` stage, each
/// max-pool is a stage, and the classifier is `dropout → fc → relu →
/// dropout → fc → relu → fc` (seven stages, flatten fused into the first
/// dropout stage).
///
/// # Panics
///
/// Panics if `width_divisor == 0` or it does not divide the base widths.
pub fn vgg(
    variant: VggVariant,
    width_divisor: usize,
    in_channels: usize,
    num_classes: usize,
    dropout_p: f32,
    rng: &mut impl Rng,
) -> Network {
    vgg_impl(
        variant,
        width_divisor,
        in_channels,
        num_classes,
        dropout_p,
        false,
        rng,
    )
}

/// [`vgg`] with a group normalization fused into each post-conv stage —
/// the batch-size-one-friendly variant. Same stage counts.
///
/// # Panics
///
/// Panics if `width_divisor == 0` or it does not divide the base widths.
pub fn vgg_gn(
    variant: VggVariant,
    width_divisor: usize,
    in_channels: usize,
    num_classes: usize,
    dropout_p: f32,
    rng: &mut impl Rng,
) -> Network {
    vgg_impl(
        variant,
        width_divisor,
        in_channels,
        num_classes,
        dropout_p,
        true,
        rng,
    )
}

fn vgg_impl(
    variant: VggVariant,
    width_divisor: usize,
    in_channels: usize,
    num_classes: usize,
    dropout_p: f32,
    group_norm: bool,
    rng: &mut impl Rng,
) -> Network {
    assert!(width_divisor > 0, "width divisor must be positive");
    let mut stages: Vec<Stage> = Vec::new();
    let mut c = in_channels;
    // The input is 32×32 by contract; each pool halves it.
    let mut side = 32usize;
    let mut conv_idx = 0usize;
    for step in variant.plan() {
        match step {
            Some(base_out) => {
                assert_eq!(
                    base_out % width_divisor,
                    0,
                    "width divisor {width_divisor} must divide {base_out}"
                );
                let out = base_out / width_divisor;
                let conv = Conv2d::new(c, out, 3, 1, 1, true, rng).with_input_size(side, side);
                stages.push(Stage::new(
                    format!("conv{conv_idx}"),
                    vec![Box::new(conv) as Box<dyn Layer>],
                ));
                if group_norm {
                    stages.push(Stage::new(
                        format!("gnrelu{conv_idx}"),
                        vec![
                            Box::new(GroupNorm::with_group_size_two(out)) as Box<dyn Layer>,
                            Box::new(Relu::new()),
                        ],
                    ));
                } else {
                    stages.push(Stage::new(
                        format!("relu{conv_idx}"),
                        vec![Box::new(Relu::new()) as Box<dyn Layer>],
                    ));
                }
                c = out;
                conv_idx += 1;
            }
            None => {
                stages.push(Stage::single(Box::new(MaxPool2d::new(2, 2))));
                side /= 2;
            }
        }
    }
    // Classifier: 512/div features after the last pool (1×1 spatial).
    let feat = c;
    let hidden = 512 / width_divisor;
    let seed = rng.gen::<u64>();
    stages.push(Stage::new(
        "cls.drop0",
        vec![
            Box::new(Flatten::new()) as Box<dyn Layer>,
            Box::new(Dropout::new(dropout_p, seed)),
        ],
    ));
    stages.push(Stage::new(
        "cls.fc0",
        vec![Box::new(Linear::new(feat, hidden, true, rng)) as Box<dyn Layer>],
    ));
    stages.push(Stage::new(
        "cls.relu0",
        vec![Box::new(Relu::new()) as Box<dyn Layer>],
    ));
    stages.push(Stage::new(
        "cls.drop1",
        vec![Box::new(Dropout::new(dropout_p, seed.wrapping_add(1))) as Box<dyn Layer>],
    ));
    stages.push(Stage::new(
        "cls.fc1",
        vec![Box::new(Linear::new(hidden, hidden, true, rng)) as Box<dyn Layer>],
    ));
    stages.push(Stage::new(
        "cls.relu1",
        vec![Box::new(Relu::new()) as Box<dyn Layer>],
    ));
    stages.push(Stage::new(
        "cls.fc2",
        vec![Box::new(Linear::new(hidden, num_classes, true, rng)) as Box<dyn Layer>],
    ));
    Network::new(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stage_counts_match_table1() {
        let mut rng = StdRng::seed_from_u64(0);
        for (variant, expected) in [
            (VggVariant::Vgg11, 29),
            (VggVariant::Vgg13, 33),
            (VggVariant::Vgg16, 39),
        ] {
            assert_eq!(
                variant.expected_stage_count(),
                expected,
                "{}",
                variant.name()
            );
            let net = vgg(variant, 16, 3, 10, 0.3, &mut rng);
            assert_eq!(net.pipeline_stage_count(), expected, "{}", variant.name());
        }
    }

    #[test]
    fn vgg11_forward_backward_works() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = vgg(VggVariant::Vgg11, 16, 3, 10, 0.3, &mut rng);
        let x = pbp_tensor::normal(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
        let logits = net.forward(&x);
        assert_eq!(logits.shape(), &[1, 10]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[7]);
        assert!(loss.is_finite());
        let gx = net.backward(&grad);
        assert_eq!(gx.shape(), x.shape());
        assert!(gx.all_finite());
    }

    #[test]
    fn eval_mode_disables_dropout_determinism() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = vgg(VggVariant::Vgg11, 16, 3, 10, 0.5, &mut rng);
        net.set_training(false);
        let x = pbp_tensor::normal(&[1, 3, 32, 32], 0.0, 1.0, &mut rng);
        let a = net.forward(&x);
        net.clear_stash();
        let b = net.forward(&x);
        assert_eq!(a.as_slice(), b.as_slice());
    }
}
