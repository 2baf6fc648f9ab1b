//! Per-layer probes: each times calls into one crate's public functions at
//! the shapes the workload uses, inside a ledger span per call.

use crate::ledger::Ledger;
use crate::stats::median;
use crate::train::{self, Model};
use crate::us;
use pbp_data::Dataset;
use pbp_dist::{
    codec::{decode_frame, encode_frame},
    loopback_pair, Connection, Frame, LinkEndpoint, LinkIdentity, LinkOptions, ReliableConn,
    Transport,
};
use pbp_nn::loss::softmax_cross_entropy;
use pbp_nn::Network;
use pbp_optim::StageOptimizer;
use pbp_pipeline::StageCell;
use pbp_tensor::ops::{
    conv2d, conv2d_backward, conv2d_batched, gemm_nn, matmul_tn_acc, Conv2dSpec,
};
use pbp_tensor::{normal, pool, Tensor};
use pbp_trace::TracePhase;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0x0912_0BE5)
}

/// Adds the batch dimension the stages expect.
pub fn batched(x: &Tensor) -> Tensor {
    let mut shape = vec![1usize];
    shape.extend_from_slice(x.shape());
    x.reshape(&shape).expect("same volume")
}

/// `tensor.peak_gflops`: the repo's own 256^3 GEMM peak probe.
pub fn peak_gflops(ledger: &mut Ledger) -> f64 {
    ledger
        .span(
            "tensor.peak_probe",
            TracePhase::Forward,
            0,
            pbp_trace::measure_peak_gflops,
        )
        .0
}

/// `tensor.pool_dispatch_us`: one `parallel_for` over an empty body, one
/// chunk per pool thread.
pub fn pool_dispatch_us(ledger: &mut Ledger, reps: usize) -> f64 {
    let chunks = pool::max_threads().max(2);
    let noop = |_: usize| {};
    pool::parallel_for(chunks, &noop);
    let ((), took) = ledger.span("tensor.pool_dispatch", TracePhase::Forward, 0, || {
        for _ in 0..reps {
            pool::parallel_for(black_box(chunks), &noop);
        }
    });
    us(took) / reps as f64
}

/// A conv stage of the cnn model: channels in, stride, input side.
#[derive(Debug, Clone, Copy)]
pub struct ConvShape {
    pub c_in: usize,
    pub stride: usize,
    pub side: usize,
}

/// The four conv stages of `vgg_cnn(3,16,4,16,..)`.
pub const CNN_CONVS: [ConvShape; 4] = [
    ConvShape {
        c_in: 3,
        stride: 1,
        side: 16,
    },
    ConvShape {
        c_in: 16,
        stride: 1,
        side: 16,
    },
    ConvShape {
        c_in: 16,
        stride: 2,
        side: 16,
    },
    ConvShape {
        c_in: 16,
        stride: 1,
        side: 8,
    },
];

/// The two conv stages of the served `vgg_cnn(3,16,2,16,..)`.
pub const SERVE_CONVS: [ConvShape; 2] = [CNN_CONVS[0], CNN_CONVS[1]];

pub struct ConvKernels {
    /// Summed over the shapes, per sample.
    pub fwd_us: f64,
    pub bwd_us: f64,
    /// The lowered GEMMs alone (`OC x C*9 x OH*OW`), FLOPs over time.
    pub gemm_gflops: f64,
}

/// `tensor.conv_*_cnn` and `tensor.gemm_gflops_cnn_b1`: im2col+GEMM forward
/// and GEMM+col2im backward at batch one, plus the bare GEMM.
pub fn conv_kernels(ledger: &mut Ledger, shapes: &[ConvShape], reps: usize) -> ConvKernels {
    let mut rng = rng();
    let (mut fwd_us, mut bwd_us, mut gemm_flops, mut gemm_s) = (0.0, 0.0, 0.0, 0.0);
    for shape in shapes {
        let spec = Conv2dSpec::new(shape.c_in, train::CNN_WIDTH, 3, shape.stride, 1)
            .expect("positive geometry");
        let input = normal(&[1, shape.c_in, shape.side, shape.side], 0.0, 1.0, &mut rng);
        let weight = normal(&spec.weight_shape(), 0.0, 0.1, &mut rng);
        let (out, cols) = conv2d(&input, &weight, &spec).expect("conformant shapes");
        let grad_out = normal(out.shape(), 0.0, 1.0, &mut rng);
        let ((), took) = ledger.span("tensor.conv2d", TracePhase::Forward, 0, || {
            for _ in 0..reps {
                black_box(conv2d(black_box(&input), &weight, &spec).expect("conv2d"));
            }
        });
        fwd_us += us(took) / reps as f64;
        let hw = (shape.side, shape.side);
        let ((), took) = ledger.span(
            "tensor.conv2d_backward",
            TracePhase::BackwardInput,
            0,
            || {
                for _ in 0..reps {
                    black_box(
                        conv2d_backward(black_box(&grad_out), &weight, &cols, hw, &spec)
                            .expect("conv2d_backward"),
                    );
                }
            },
        );
        bwd_us += us(took) / reps as f64;

        let (m, k) = (train::CNN_WIDTH, spec.fan_in());
        let n = spec.out_size(shape.side) * spec.out_size(shape.side);
        let (a, b) = (vec![0.5f32; m * k], vec![0.25f32; k * n]);
        let mut c = vec![0.0f32; m * n];
        let ((), took) = ledger.span("tensor.gemm_nn", TracePhase::Forward, 0, || {
            for _ in 0..reps {
                gemm_nn(black_box(&a), &b, &mut c, m, k, n, false);
            }
        });
        black_box(&c);
        gemm_flops += 2.0 * (m * k * n) as f64 * reps as f64;
        gemm_s += took.as_secs_f64();
    }
    ConvKernels {
        fwd_us,
        bwd_us,
        gemm_gflops: gemm_flops / gemm_s * 1e-9,
    }
}

/// `tensor.conv_batched_gflops_b64`: the eval-mode batched lowering at the
/// served model's conv shapes.
pub fn conv_batched_gflops(ledger: &mut Ledger, batch: usize, reps: usize) -> f64 {
    let mut rng = rng();
    let (mut flops, mut secs) = (0.0, 0.0);
    for shape in SERVE_CONVS {
        let spec = Conv2dSpec::new(shape.c_in, train::CNN_WIDTH, 3, shape.stride, 1)
            .expect("positive geometry");
        let input = normal(
            &[batch, shape.c_in, shape.side, shape.side],
            0.0,
            1.0,
            &mut rng,
        );
        let weight = normal(&spec.weight_shape(), 0.0, 0.1, &mut rng);
        black_box(conv2d_batched(&input, &weight, &spec).expect("conformant shapes"));
        let ((), took) = ledger.span("tensor.conv2d_batched", TracePhase::Forward, 0, || {
            for _ in 0..reps {
                black_box(conv2d_batched(black_box(&input), &weight, &spec).expect("conv"));
            }
        });
        let out = spec.out_size(shape.side);
        flops += 2.0 * (train::CNN_WIDTH * spec.fan_in() * out * out * batch * reps) as f64;
        secs += took.as_secs_f64();
    }
    flops / secs * 1e-9
}

pub struct LinearKernels {
    /// Forward product, summed over the layers, per call.
    pub fwd_us: f64,
    /// Input-gradient and weight-gradient products, summed.
    pub bwd_us: f64,
    /// Forward FLOPs over forward time.
    pub fwd_gflops: f64,
}

/// The matrix products behind `Linear` at `batch` rows, for layers of the
/// given `(in, out)` widths: `x.W^T` forward, `g.W` and `g^T.x` backward.
pub fn linear_kernels(
    ledger: &mut Ledger,
    layers: &[(usize, usize)],
    batch: usize,
    reps: usize,
) -> LinearKernels {
    let mut rng = rng();
    let (mut fwd_us, mut bwd_us, mut flops) = (0.0, 0.0, 0.0);
    for &(n_in, n_out) in layers {
        let x = normal(&[batch, n_in], 0.0, 1.0, &mut rng);
        let w = normal(&[n_out, n_in], 0.0, 0.1, &mut rng);
        let g = normal(&[batch, n_out], 0.0, 1.0, &mut rng);
        let mut gw = Tensor::zeros(&[n_out, n_in]);
        black_box(x.matmul_transpose_b(&w).expect("conformant"));
        let ((), took) = ledger.span("tensor.matmul_transpose_b", TracePhase::Forward, 0, || {
            for _ in 0..reps {
                black_box(black_box(&x).matmul_transpose_b(&w).expect("x.W^T"));
            }
        });
        fwd_us += us(took) / reps as f64;
        flops += 2.0 * (batch * n_in * n_out) as f64;
        let ((), took) = ledger.span(
            "tensor.matmul_backward",
            TracePhase::BackwardInput,
            0,
            || {
                for _ in 0..reps {
                    black_box(black_box(&g).matmul(&w).expect("g.W"));
                    matmul_tn_acc(&g, &x, &mut gw).expect("g^T.x");
                }
            },
        );
        black_box(&gw);
        bwd_us += us(took) / reps as f64;
    }
    LinearKernels {
        fwd_us,
        bwd_us,
        fwd_gflops: flops / (fwd_us * 1e-6) * 1e-9,
    }
}

/// Per-stage, per-sample costs of a model measured outside any engine.
pub struct ModelCosts {
    pub fwd_us: Vec<f64>,
    pub bwd_us: Vec<f64>,
    pub step_us: Vec<f64>,
    pub predict_us: Vec<f64>,
    pub loss_us: f64,
    pub fetch_us: f64,
}

impl ModelCosts {
    pub fn sum(v: &[f64]) -> f64 {
        v.iter().sum()
    }
    /// Everything one sample costs at stage `s`.
    pub fn stage_us(&self, s: usize) -> f64 {
        self.fwd_us[s] + self.bwd_us[s] + self.step_us[s] + self.predict_us[s]
    }
    pub fn stages(&self) -> usize {
        self.fwd_us.len()
    }
    /// Sum of every probe: what a sample costs if the engine adds nothing.
    pub fn total_us(&self) -> f64 {
        (0..self.stages()).map(|s| self.stage_us(s)).sum::<f64>() + self.loss_us + self.fetch_us
    }
}

/// `nn.*`, `optim.*`, the loss and the data fetch, in the order the
/// sequential engine calls them for one sample — `Stage::forward` up the
/// stages, the loss, then per stage from the top `zero_grads` +
/// `Stage::backward`, `StageOptimizer::step` and the LWP forward-weight
/// prediction — but without the engine: no `StageCell`, no version FIFO.
pub fn model_costs(
    ledger: &mut Ledger,
    model: Model,
    data: &Dataset,
    order: &[usize],
    warm: usize,
) -> ModelCosts {
    let mut net = model.build_net();
    let stages = net.num_stages();
    let pipeline_stages = net.pipeline_stage_count();
    let hp = model.schedule().at(0);
    let mut opts: Vec<StageOptimizer> = (0..stages)
        .map(|s| {
            let delay = train::PLAN.stage_delay(s, pipeline_stages);
            let config = train::mitigation().stage_config(delay, s);
            StageOptimizer::new(&net.stage(s).params(), config, hp)
        })
        .collect();
    let mut costs = ModelCosts {
        fwd_us: vec![0.0; stages],
        bwd_us: vec![0.0; stages],
        step_us: vec![0.0; stages],
        predict_us: vec![0.0; stages],
        loss_us: 0.0,
        fetch_us: 0.0,
    };
    let mut quiet = Ledger::new(ledger.workload(), pbp_trace::Tracer::disabled());
    for (i, &index) in order.iter().enumerate() {
        // The first `warm` samples fill caches and buffers unrecorded.
        let (ledger, record) = if i < warm {
            (&mut quiet, 0.0)
        } else {
            (&mut *ledger, 1.0)
        };
        let ((x, label), took) = ledger.span("data.sample", TracePhase::Forward, 1, || {
            let (x, label) = data.sample(index);
            (batched(&x.clone()), label)
        });
        costs.fetch_us += record * us(took);
        let mut stack = vec![x];
        for s in 0..stages {
            let ((), took) = ledger.span("nn.stage_forward", TracePhase::Forward, s as u64, || {
                net.stage_mut(s).forward(&mut stack);
            });
            costs.fwd_us[s] += record * us(took);
        }
        let logits = stack.pop().expect("single lane");
        let ((_, grad), took) = ledger.span("nn.loss", TracePhase::Forward, 1, || {
            softmax_cross_entropy(&logits, &[label])
        });
        costs.loss_us += record * us(took);
        let mut gstack = vec![grad];
        for s in (0..stages).rev() {
            let ((), took) = ledger.span(
                "nn.stage_backward",
                TracePhase::BackwardInput,
                s as u64,
                || {
                    let stage = net.stage_mut(s);
                    stage.zero_grads();
                    stage.backward(&mut gstack);
                },
            );
            costs.bwd_us[s] += record * us(took);
            let ((), took) = ledger.span("optim.step", TracePhase::Update, s as u64, || {
                let (mut params, grads) = net.stage_mut(s).params_and_grads();
                opts[s].step(&mut params, &grads);
            });
            costs.step_us[s] += record * us(took);
            let ((), took) = ledger.span("optim.predict", TracePhase::Update, s as u64, || {
                black_box(opts[s].forward_weights(&net.stage(s).params()));
            });
            costs.predict_us[s] += record * us(took);
        }
    }
    let n = (order.len() - warm).max(1) as f64;
    for v in [
        &mut costs.fwd_us,
        &mut costs.bwd_us,
        &mut costs.step_us,
        &mut costs.predict_us,
    ] {
        v.iter_mut().for_each(|x| *x /= n);
    }
    costs.loss_us /= n;
    costs.fetch_us /= n;
    costs
}

/// `pipeline.cell_us_per_sample` is this minus [`ModelCosts::total_us`]:
/// the same per-sample sequence of calls, but made through `StageCell` —
/// the forward under the queued weight version (snapshot, load, restore),
/// the update, and the push of the next predicted version into the FIFO.
/// Returns microseconds per sample for the whole loop.
pub fn cell_loop_us(
    ledger: &mut Ledger,
    model: Model,
    data: &Dataset,
    order: &[usize],
    warm: usize,
) -> f64 {
    let mut net = model.build_net();
    let stages = net.num_stages();
    let pipeline_stages = net.pipeline_stage_count();
    let hp = model.schedule().at(0);
    let mut cells: Vec<StageCell> = (0..stages)
        .map(|s| {
            let (plan, mitigation) = (train::PLAN, train::mitigation());
            StageCell::new(
                net.stage(s),
                s,
                pipeline_stages,
                &plan,
                mitigation,
                false,
                hp,
                None,
            )
        })
        .collect();
    let mut total = 0.0;
    for (i, &index) in order.iter().enumerate() {
        let ((), took) = ledger.span("pipeline.stage_cells", TracePhase::Forward, 1, || {
            let (x, label) = data.sample(index);
            let mut stack = vec![batched(&x.clone())];
            for (s, cell) in cells.iter_mut().enumerate() {
                cell.forward(net.stage_mut(s), &mut stack);
            }
            let logits = stack.pop().expect("single lane");
            let (_, grad) = softmax_cross_entropy(&logits, &[label]);
            let mut gstack = vec![grad];
            for (s, cell) in cells.iter_mut().enumerate().rev() {
                cell.backward_input(net.stage_mut(s), &mut gstack, true);
                if cell.will_update(net.stage(s)) {
                    cell.update(net.stage_mut(s), false);
                }
                cell.push_next_version(net.stage(s));
            }
        });
        if i >= warm {
            total += us(took);
        }
    }
    total / (order.len() - warm).max(1) as f64
}

/// Computed, not measured: forward FLOPs of one sample, bytes of the
/// parameters plus every activation one forward pass produces, and the
/// parameter count.
pub struct ModelSize {
    pub flops: u64,
    pub bytes: u64,
    pub params: u64,
    /// Forward FLOPs per stage.
    pub stage_flops: Vec<u64>,
}

pub fn model_size(net: &mut Network, sample: &Tensor) -> ModelSize {
    let params = net.param_count() as u64;
    let mut stack = vec![batched(sample)];
    let mut floats = stack[0].len() as u64;
    for s in 0..net.num_stages() {
        net.stage_mut(s).forward(&mut stack);
        floats += stack.iter().map(|t| t.len() as u64).sum::<u64>();
    }
    net.clear_stash();
    // After the forward: a conv layer only knows its output size, and so
    // its FLOPs, once it has seen an input.
    let stage_flops: Vec<u64> = net.stages().map(|s| s.flops_per_sample()).collect();
    ModelSize {
        flops: stage_flops.iter().sum(),
        bytes: 4 * (params + floats),
        params,
        stage_flops,
    }
}

/// The activation frame that crosses the two-rank cut of `model`.
pub fn cut_frame(model: Model, data: &Dataset) -> Frame {
    let mut net = model.build_net();
    let stages = net.num_stages();
    let cut = pbp_dist::Topology::contiguous(stages, 2)
        .expect("two ranks fit")
        .range(0)
        .end;
    let (x, label) = data.sample(0);
    let mut stack = vec![batched(x)];
    for s in 0..cut {
        net.stage_mut(s).forward(&mut stack);
    }
    Frame::Activation {
        seq: 1,
        microbatch: 0,
        weight_version: 0,
        label: label as u32,
        lanes: stack,
    }
}

pub struct Codec {
    pub encode_us: f64,
    pub decode_us: f64,
    pub wire_bytes: usize,
}

/// `dist.encode_us_*`/`dist.decode_us_*`: the wire codec on one frame.
pub fn codec(ledger: &mut Ledger, frame: &Frame, reps: usize) -> Codec {
    let wire = encode_frame(frame);
    let ((), enc) = ledger.span("dist.encode_frame", TracePhase::Forward, 0, || {
        for _ in 0..reps {
            black_box(encode_frame(black_box(frame)));
        }
    });
    let ((), dec) = ledger.span("dist.decode_frame", TracePhase::Forward, 0, || {
        for _ in 0..reps {
            black_box(decode_frame(black_box(&wire)).expect("own encoding decodes"));
        }
    });
    Codec {
        encode_us: us(enc) / reps as f64,
        decode_us: us(dec) / reps as f64,
        wire_bytes: wire.len(),
    }
}

/// A small data frame: 64 floats, the fine model's activation.
fn small_frames() -> (Frame, Frame) {
    let lanes = vec![Tensor::from_vec(vec![0.25; 64], &[1, 64]).expect("64 floats")];
    (
        Frame::Activation {
            seq: 0,
            microbatch: 0,
            weight_version: 0,
            label: 1,
            lanes: lanes.clone(),
        },
        Frame::Gradient {
            seq: 0,
            microbatch: 0,
            weight_version: 0,
            loss: 0.5,
            lanes,
        },
    )
}

const RTT_STALL: Duration = Duration::from_secs(10);
/// How long each end waits for the other's `Shutdown` before closing.
const BYE_WAIT: Duration = Duration::from_millis(200);

fn identity(my_rank: u32) -> LinkIdentity {
    LinkIdentity {
        my_rank,
        peer_rank: 1 - my_rank,
        world: 2,
        digest: 0x1ED6E2,
    }
}

fn link_options() -> LinkOptions {
    LinkOptions {
        stall: RTT_STALL,
        ..LinkOptions::default()
    }
}

/// Ping-pongs one small data frame `reps` times between two `ReliableConn`
/// ends and returns microseconds per round trip plus how long establishing
/// the pair took.
fn ping_pong(
    ledger: &mut Ledger,
    call: &'static str,
    near: LinkEndpoint,
    far: LinkEndpoint,
    reps: usize,
) -> Result<(f64, Duration), String> {
    let (ping, pong) = small_frames();
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> Result<(), pbp_dist::DistError> {
            let mut conn = ReliableConn::new(far, identity(1), link_options());
            conn.establish()?;
            for _ in 0..reps {
                conn.recv_data(RTT_STALL)?;
                conn.send(&pong)?;
            }
            let _ = conn.send(&Frame::Shutdown { rank: 1 });
            conn.drain_shutdown(BYE_WAIT);
            Ok(())
        });
        let mut conn = ReliableConn::new(near, identity(0), link_options());
        let (established, establish) =
            ledger.span("dist.establish", TracePhase::Snapshot, 0, || {
                conn.establish()
            });
        established.map_err(|e| format!("{call}: establish: {e}"))?;
        let (result, took) = ledger.span(call, TracePhase::Forward, 0, || {
            for _ in 0..reps {
                conn.send(&ping)?;
                conn.recv_data(RTT_STALL)?;
            }
            Ok::<(), pbp_dist::DistError>(())
        });
        result.map_err(|e| format!("{call}: {e}"))?;
        let _ = conn.send(&Frame::Shutdown { rank: 0 });
        conn.drain_shutdown(BYE_WAIT);
        echo.join()
            .map_err(|_| format!("{call}: echo thread panicked"))?
            .map_err(|e| format!("{call}: echo: {e}"))?;
        Ok((us(took) / reps as f64, establish))
    })
}

pub struct LinkCosts {
    pub rtt_loopback_us: f64,
    pub rtt_unix_us: f64,
    pub establish_ms: f64,
}

/// `dist.rtt_us_*` and `dist.establish_ms`: the per-frame overhead budget
/// of the session layer, in process and through a Unix socket.
pub fn link_costs(ledger: &mut Ledger, reps: usize) -> Result<LinkCosts, String> {
    let (a, b) = loopback_pair();
    let (rtt_loopback_us, _) = ping_pong(
        ledger,
        "dist.rtt_loopback",
        LinkEndpoint::Conn(Box::new(a)),
        LinkEndpoint::Conn(Box::new(b)),
        reps,
    )?;
    let dir = std::path::PathBuf::from(format!("out/rtt-{}", std::process::id()));
    let transport = Transport::Unix { dir: dir.clone() };
    let mut establish = Vec::new();
    let mut rtt_unix_us = 0.0;
    // Five fresh socket links: the median establish time, the last RTT.
    for round in 0..5 {
        let listener = transport.listen(0).map_err(|e| e.to_string())?;
        let dial = LinkEndpoint::Dial {
            transport: transport.clone(),
            link: 0,
        };
        let reps = if round == 4 { reps } else { 1 };
        let (rtt, took) = ping_pong(
            ledger,
            "dist.rtt_unix",
            LinkEndpoint::Listen(listener),
            dial,
            reps,
        )?;
        rtt_unix_us = rtt;
        establish.push(took.as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(LinkCosts {
        rtt_loopback_us,
        rtt_unix_us,
        establish_ms: median(&establish),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_trace::Tracer;

    fn quiet() -> Ledger {
        Ledger::new("test", Tracer::disabled())
    }

    #[test]
    fn probe_shapes_are_the_models_shapes() {
        // The conv probes restate the cnn model's geometry; the model's own
        // FLOP count is the check that they did not drift apart.
        let mut net = Model::Cnn.build_net();
        let data = Model::Cnn.build_data();
        let size = model_size(&mut net, data.sample(0).0);
        for (shape, &flops) in CNN_CONVS.iter().zip(&size.stage_flops) {
            let spec = Conv2dSpec::new(shape.c_in, train::CNN_WIDTH, 3, shape.stride, 1).unwrap();
            let out = spec.out_size(shape.side);
            let gemm = 2 * (train::CNN_WIDTH * spec.fan_in() * out * out) as u64;
            assert!(
                flops >= gemm && flops < gemm * 2,
                "{shape:?}: {flops} vs {gemm}"
            );
        }
        assert_eq!(size.stage_flops.len(), 6);
        assert_eq!(size.params as usize, net.param_count());
        assert!(size.bytes > 4 * size.params);
    }

    #[test]
    fn model_costs_cover_every_stage_and_skip_the_warm_samples() {
        let data = Model::Fine.build_data();
        let order = train::sample_order(&data, 1, 12);
        let costs = model_costs(&mut quiet(), Model::Fine, &data, &order, 4);
        assert_eq!(costs.stages(), 9);
        assert!((0..9).all(|s| costs.stage_us(s) > 0.0));
        assert!(costs.loss_us > 0.0 && costs.fetch_us > 0.0);
        assert!(costs.total_us() > ModelCosts::sum(&costs.fwd_us));
    }

    #[test]
    fn the_cell_loop_runs_the_same_samples_through_stage_cells() {
        let data = Model::Fine.build_data();
        let order = train::sample_order(&data, 1, 40);
        assert!(cell_loop_us(&mut quiet(), Model::Fine, &data, &order, 8) > 0.0);
    }

    #[test]
    fn the_cut_frame_carries_the_cut_activation_and_round_trips_the_codec() {
        let data = Model::Fine.build_data();
        let act = cut_frame(Model::Fine, &data);
        let Frame::Activation { lanes, .. } = &act else {
            panic!("activation expected")
        };
        assert_eq!(lanes[0].shape(), &[1, 64]);
        let c = codec(&mut quiet(), &act, 3);
        assert!(c.wire_bytes > 64 * 4 && c.encode_us > 0.0 && c.decode_us > 0.0);
        assert_eq!(decode_frame(&encode_frame(&act)).unwrap(), act);
    }

    #[test]
    fn reliable_links_ping_pong_in_process() {
        let (a, b) = loopback_pair();
        let (rtt, _) = ping_pong(
            &mut quiet(),
            "dist.rtt_loopback",
            LinkEndpoint::Conn(Box::new(a)),
            LinkEndpoint::Conn(Box::new(b)),
            20,
        )
        .expect("loopback ping-pong");
        assert!(rtt > 0.0);
    }
}
