//! A running `StageCell` allocates no weight-sized memory: the version
//! buffer a microbatch's forward consumed is the one its update writes the
//! next version into. Pointer identity (checked in `cell.rs`) cannot tell
//! a recycled buffer from a freed-and-reallocated one, so this suite
//! counts allocations instead, through a global allocator that forwards
//! to the system one. The same allocator records the largest single
//! request, which is how the conv row shows that a training conv stage
//! never holds a column matrix, and the bytes the thread holds, which is
//! how the eval row shows that an eval-mode forward keeps nothing. With
//! its threshold lowered, the count shows that a training conv stage
//! recycles the staged images it stashes.

use pbp_nn::loss::softmax_cross_entropy;
use pbp_nn::models::{mlp, vgg_cnn};
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    Action, DelayedConfig, DelayedTrainer, MicrobatchSchedule, ScheduledConfig, ScheduledTrainer,
    StageCell, TrainEngine,
};
use pbp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Layer widths: every weight matrix is 48 × 48 floats = 9 KiB, every
/// activation, gradient row and bias 192 B.
const WIDTH: usize = 48;
/// Anything at least this large is weight-sized.
const WEIGHT_SIZED: usize = 4096;

thread_local! {
    /// Allocations of at least `LARGE_FROM` bytes made by this thread
    /// (tests run one per thread, so counts do not mix).
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// What this thread counts as large: weight-sized unless a test says
    /// otherwise.
    static LARGE_FROM: Cell<usize> = const { Cell::new(WEIGHT_SIZED) };
    /// Largest single allocation this thread has made, in bytes.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has allocated minus bytes it has freed, in
    /// weight-sized or larger pieces: tensors live and die on the thread
    /// that runs the network, while the kernel pool's job boxes (a few
    /// hundred bytes) are freed by whichever worker ran them.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` without a destructor (as are the threshold, the largest-request
// and the live-bytes ones), so touching it neither allocates nor re-enters
// the allocator. `realloc` is the trait's default: an `alloc`, a copy and a
// `dealloc` through this impl, so it is counted as those.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE_FROM.with(Cell::get) {
            LARGE_ALLOCS.with(|n| n.set(n.get() + 1));
        }
        LARGEST_ALLOC.with(|n| n.set(n.get().max(layout.size())));
        if layout.size() >= WEIGHT_SIZED {
            LIVE_BYTES.with(|n| n.set(n.get() + layout.size() as isize));
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() >= WEIGHT_SIZED {
            LIVE_BYTES.with(|n| n.set(n.get() - layout.size() as isize));
        }
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn microbatch(net: &mut Network, cells: &mut [StageCell], i: usize) {
    let input = Tensor::from_fn(&[1, WIDTH], |j| ((i + j) as f32).sin());
    microbatch_of(net, cells, input, i % WIDTH);
}

fn microbatch_of(net: &mut Network, cells: &mut [StageCell], input: Tensor, label: usize) {
    microbatch_with(net, cells, input, label, None);
}

/// One microbatch, its backward through [`StageCell::backward_input_for`]
/// with `actions` and the hyperparameters `hp` when given (the path the
/// stage group takes), else through the split [`StageCell::backward_input`].
fn microbatch_with(
    net: &mut Network,
    cells: &mut [StageCell],
    input: Tensor,
    label: usize,
    lend: Option<(&[Action], Hyperparams)>,
) {
    let mut stack = vec![input];
    for (s, cell) in cells.iter_mut().enumerate() {
        cell.forward(net.stage_mut(s), &mut stack);
    }
    let (_, grad) = softmax_cross_entropy(&stack.pop().expect("logits"), &[label]);
    let mut gstack = vec![grad];
    for (s, cell) in cells.iter_mut().enumerate().rev() {
        match lend {
            Some((actions, hp)) => {
                let grads = std::slice::from_mut(&mut gstack);
                cell.backward_input_for(net.stage_mut(s), grads, true, actions, &[hp])
            }
            None => cell.backward_input(net.stage_mut(s), &mut gstack, true),
        }
        net.stage_mut(s).backward_weight();
        if cell.will_update(net.stage(s)) {
            cell.update(net.stage_mut(s), false);
        }
        cell.push_next_version(net.stage(s));
    }
}

/// PB under every mitigation that keeps weight-sized state: forward
/// predictions are written into recycled version buffers, and SpecTrain's
/// backward re-prediction into the one buffer the cell keeps for it.
#[test]
fn a_running_cell_allocates_nothing_weight_sized() {
    let plan = MicrobatchSchedule::PipelinedBackprop;
    let hp = Hyperparams::new(0.05, 0.9);
    for mitigation in [
        Mitigation::None,
        Mitigation::lwpv_scd(),
        Mitigation::lwpw_scd(),
        Mitigation::SpecTrain,
    ] {
        for weight_stashing in [false, true] {
            let mut net = mlp(&[WIDTH; 4], &mut StdRng::seed_from_u64(3));
            let stages = net.pipeline_stage_count();
            let mut cells: Vec<StageCell> = (0..net.num_stages())
                .map(|s| {
                    let stage = net.stage(s);
                    StageCell::new(
                        stage,
                        s,
                        stages,
                        &plan,
                        mitigation,
                        weight_stashing,
                        hp,
                        None,
                    )
                })
                .collect();
            // Warm-up: scratch buffers (the optimizer's gradient row, the
            // GEMM packing buffer) reach their final size.
            for i in 0..4 {
                microbatch(&mut net, &mut cells, i);
            }
            let before = LARGE_ALLOCS.with(Cell::get);
            for i in 4..40 {
                microbatch(&mut net, &mut cells, i);
            }
            let during = LARGE_ALLOCS.with(Cell::get) - before;
            assert_eq!(during, 0, "{mitigation:?} stashing={weight_stashing}");
        }
    }
}

/// The accumulating plans keep one forward version per update, not one per
/// microbatch: the microbatches of a window that close no update push
/// nothing, so 1F1B, 2BP and fill&drain at `M = 4` recycle their version
/// buffers as PB does, under weight prediction and weight stashing too —
/// stashing reads the queued version its forward read, it keeps no copy.
#[test]
fn accumulating_plans_allocate_nothing_weight_sized() {
    let schedule = || LrSchedule::constant(Hyperparams::new(0.05, 0.9));
    let plans = [
        MicrobatchSchedule::OneFOneB {
            microbatches_per_update: 4,
        },
        MicrobatchSchedule::TwoBP {
            microbatches_per_update: 4,
        },
        MicrobatchSchedule::FillDrain { update_size: 4 },
    ];
    for plan in plans {
        for mitigation in [Mitigation::None, Mitigation::lwpv_scd()] {
            for weight_stashing in [false, true] {
                let net = mlp(&[WIDTH; 4], &mut StdRng::seed_from_u64(3));
                let mut config = ScheduledConfig::new(plan, schedule()).with_mitigation(mitigation);
                config.weight_stashing = weight_stashing;
                let mut trainer = ScheduledTrainer::new(net, config);
                let mut sample = |i: usize| {
                    let x = Tensor::from_fn(&[WIDTH], |j| ((i + j) as f32).sin());
                    trainer.train_sample(&x, i % WIDTH);
                };
                // Warm-up: two windows, past the deepest stage's lag of six
                // microbatches.
                (0..8).for_each(&mut sample);
                let before = LARGE_ALLOCS.with(Cell::get);
                (8..40).for_each(&mut sample);
                let during = LARGE_ALLOCS.with(Cell::get) - before;
                assert_eq!(
                    during, 0,
                    "{plan:?} {mitigation:?} stashing={weight_stashing}"
                );
            }
        }
    }
}

/// The backward that takes each batch-1 `Linear`'s update beside its input
/// gradient — PB's microbatch is its own update window — writes the next
/// weight version into the one spent buffer the split path writes it into:
/// nothing weight-sized is allocated on that path either, under each
/// forward-version form.
#[test]
fn the_lent_step_allocates_nothing_weight_sized() {
    let plan = MicrobatchSchedule::PipelinedBackprop;
    let hp = Hyperparams::new(0.05, 0.9);
    for mitigation in [
        Mitigation::None,
        Mitigation::lwpv_scd(),
        Mitigation::lwpw_scd(),
    ] {
        let mut net = mlp(&[WIDTH; 4], &mut StdRng::seed_from_u64(3));
        let stages = net.pipeline_stage_count();
        let mut cells: Vec<StageCell> = (0..net.num_stages())
            .map(|s| StageCell::new(net.stage(s), s, stages, &plan, mitigation, false, hp, None))
            .collect();
        let mut run = |net: &mut Network, i: usize| {
            let input = Tensor::from_fn(&[1, WIDTH], |j| ((i + j) as f32).sin());
            let actions = plan.stage_actions(i);
            microbatch_with(net, &mut cells, input, i % WIDTH, Some((&actions, hp)));
        };
        for i in 0..4 {
            run(&mut net, i);
        }
        let before = LARGE_ALLOCS.with(Cell::get);
        for i in 4..40 {
            run(&mut net, i);
        }
        let during = LARGE_ALLOCS.with(Cell::get) - before;
        assert_eq!(during, 0, "{mitigation:?}");
    }
}

/// Paired backwards — `train_range` retires PB's microbatches two at a
/// time, each `Linear` taking both updates in one sweep — retire the two
/// oldest versions and write both updates' versions into them: nothing
/// weight-sized is allocated there either, under each forward-version
/// form, odd tails included.
#[test]
fn paired_backwards_allocate_nothing_weight_sized() {
    let data = pbp_data::spirals(3, 16, 0.05, 1);
    let order: Vec<usize> = (0..data.len()).collect();
    for mitigation in [
        Mitigation::None,
        Mitigation::lwpv_scd(),
        Mitigation::lwpw_scd(),
    ] {
        let net = mlp(&[2, WIDTH, WIDTH, WIDTH, 3], &mut StdRng::seed_from_u64(3));
        let schedule = LrSchedule::constant(Hyperparams::new(0.05, 0.9));
        let config = ScheduledConfig::pb(schedule).with_mitigation(mitigation);
        let mut trainer = ScheduledTrainer::new(net, config);
        // Warm-up: past the deepest stage's lag of six microbatches.
        TrainEngine::train_range(&mut trainer, &data, &order[..8]);
        let before = LARGE_ALLOCS.with(Cell::get);
        for chunk in order[8..].chunks(7) {
            TrainEngine::train_range(&mut trainer, &data, chunk);
        }
        let during = LARGE_ALLOCS.with(Cell::get) - before;
        assert_eq!(during, 0, "{mitigation:?}");
    }
}

/// The whole-network simulator at `D_max = 0` is the SGDM baseline: it
/// keeps no version ring and never copies the weights, so a batch costs
/// what forward, backward and the in-place sweep cost. Any delay brings
/// the ring back, which the same counter sees.
#[test]
fn the_zero_delay_simulator_allocates_nothing_weight_sized() {
    let schedule = || LrSchedule::constant(Hyperparams::new(0.05, 0.9));
    let large_allocs = |config: DelayedConfig| {
        let net = mlp(&[WIDTH; 4], &mut StdRng::seed_from_u64(3));
        let mut trainer = DelayedTrainer::new(net, config);
        let mut batch = |i: usize| {
            let x = Tensor::from_fn(&[4, WIDTH], |j| ((i + j) as f32).sin());
            trainer.train_batch(&x, &[i % WIDTH, 1, 2, 3]);
        };
        (0..4).for_each(&mut batch);
        let before = LARGE_ALLOCS.with(Cell::get);
        (4..40).for_each(&mut batch);
        LARGE_ALLOCS.with(Cell::get) - before
    };
    for config in [
        DelayedConfig::sgdm(4, schedule()),
        DelayedConfig::consistent(0, 4, schedule()).with_mitigation(Mitigation::lwpv_scd()),
        DelayedConfig::inconsistent(0, 4, schedule()),
    ] {
        let label = config.label();
        assert_eq!(large_allocs(config), 0, "{label}");
    }
    assert!(large_allocs(DelayedConfig::consistent(1, 4, schedule())) >= 36);
}

#[test]
fn a_training_conv_stage_never_allocates_a_column_matrix() {
    // Two conv stages on 12 × 12 images, then a small classifier head: the
    // second conv's im2col matrix (8·3·3 rows × 144 pixels) is the largest
    // buffer a lowered training step would touch — 41 KiB, nine times its
    // 4.5 KiB input — and larger than every weight, activation and scratch
    // buffer of this net. Counted from the first microbatch, warm-up
    // included: a conv layer stashes its input, never its columns.
    const SIDE: usize = 12;
    const CHANNELS: usize = 8;
    const COLUMN_MATRIX: usize = CHANNELS * 3 * 3 * SIDE * SIDE * 4;
    let mut net = vgg_cnn(3, CHANNELS, 2, SIDE, 4, 4, &mut StdRng::seed_from_u64(5));
    let stages = net.pipeline_stage_count();
    let mut cells: Vec<StageCell> = (0..net.num_stages())
        .map(|s| {
            StageCell::new(
                net.stage(s),
                s,
                stages,
                &MicrobatchSchedule::PipelinedBackprop,
                Mitigation::lwpv_scd(),
                false,
                Hyperparams::new(0.05, 0.9),
                None,
            )
        })
        .collect();
    LARGEST_ALLOC.with(|n| n.set(0));
    for i in 0..12 {
        let input = Tensor::from_fn(&[1, 3, SIDE, SIDE], |j| ((i * 7 + j) as f32).sin());
        microbatch_of(&mut net, &mut cells, input, i % 4);
    }
    let largest = LARGEST_ALLOC.with(Cell::get);
    // The counter saw the run: a conv activation is 8 · 144 floats.
    assert!(largest >= CHANNELS * SIDE * SIDE * 4, "largest {largest}");
    assert!(
        largest < COLUMN_MATRIX,
        "an allocation of {largest} B reaches the column matrix ({COLUMN_MATRIX} B)"
    );
}

#[test]
fn an_eval_forward_allocates_its_outputs_and_keeps_nothing() {
    // The serving net at the serving batch: every tensor that crosses a
    // layer boundary before `fc1` is at least 64 KiB (the input 192 KiB,
    // each conv activation 1 MiB, `fc0`'s output exactly 64 KiB), and
    // nothing else a forward touches is: the logits are 2.5 KiB, the
    // GroupNorm statistics 4 KiB. An eval-mode forward owes its caller the
    // output only, so it makes one such allocation per product — conv0,
    // conv1, fc0 — plus `Network::forward`'s copy of the caller's input;
    // GroupNorm and ReLU rewrite the tensor they popped, Flatten moves it,
    // and no layer keeps a thing once the logits are gone. The same holds
    // with the batch split over two threads: each chunk writes its slice
    // of the one output, no chunk allocates an output of its own, and no
    // chunk's result is copied into place.
    const ACTIVATION_SIZED: usize = 64 * 1024;
    const BATCH: usize = 64;
    let mut net = vgg_cnn(3, 16, 2, 16, 256, 10, &mut StdRng::seed_from_u64(7));
    net.set_training(false);
    let x = Tensor::from_fn(&[BATCH, 3, 16, 16], |j| (j as f32 * 0.37).sin());
    // Warm-up on this thread alone: its kernel scratch reaches its final
    // size, whichever chunks it runs later.
    let configured = pbp_tensor::pool::configured_threads();
    pbp_tensor::pool::set_max_threads(1);
    drop(net.forward(&x));
    LARGE_FROM.with(|n| n.set(ACTIVATION_SIZED));
    for threads in [1, 2] {
        pbp_tensor::pool::set_max_threads(threads);
        let (allocs_before, live_before) =
            (LARGE_ALLOCS.with(Cell::get), LIVE_BYTES.with(Cell::get));
        let logits = net.forward(&x);
        let allocs = LARGE_ALLOCS.with(Cell::get) - allocs_before;
        assert_eq!(logits.shape(), &[BATCH, 10]);
        assert_eq!(
            allocs, 4,
            "{threads} threads: input copy + conv0 + conv1 + fc0, nothing in groupnorm / relu \
             / flatten"
        );
        drop(logits);
        // No `clear_stash`: there is nothing for it to drop.
        let kept = LIVE_BYTES.with(Cell::get) - live_before;
        assert_eq!(
            kept, 0,
            "{threads} threads: bytes still held after the logits were dropped"
        );
    }
    pbp_tensor::pool::set_max_threads(configured);
}

/// Allocations a PB training step of the ledger's cnn trunk made, of any
/// size, when the weight half staged its image again (and allocated the
/// per-sample weight gradient it added): 5568 in 24 samples.
const ALLOCS_PER_CNN_SAMPLE: usize = 232;

/// Allocations of at least `from` bytes that `samples` PB training steps
/// of the ledger's cnn trunk make on this thread, once the pipeline is
/// full.
fn steady_conv_allocs(from: usize, samples: usize) -> usize {
    let net = vgg_cnn(3, 16, 4, 16, 32, 4, &mut StdRng::seed_from_u64(9));
    let schedule = LrSchedule::constant(Hyperparams::new(0.05, 0.9));
    let mut trainer = ScheduledTrainer::new(net, ScheduledConfig::pb(schedule));
    let mut sample = |i: usize| {
        let x = Tensor::from_fn(&[3, 16, 16], |j| ((i * 5 + j) as f32 * 0.1).sin());
        trainer.train_sample(&x, i % 4);
    };
    // Past the deepest stage's lag (twelve microbatches at stage 0): every
    // stage holds its full stash, and every staged image its stage stashes
    // has come back once.
    (0..32).for_each(&mut sample);
    LARGE_FROM.with(|n| n.set(from));
    let before = LARGE_ALLOCS.with(Cell::get);
    (32..32 + samples).for_each(&mut sample);
    let during = LARGE_ALLOCS.with(Cell::get) - before;
    LARGE_FROM.with(|n| n.set(WEIGHT_SIZED));
    during
}

#[test]
fn a_training_conv_stage_stashes_staged_images_without_allocating_them() {
    // The largest staged image of the trunk: a 16-channel 16 × 16 input
    // at stride 1 (padded 18 × 18) or 2 (four 9 × 9 phase planes), plus
    // one vector of overhang — larger than every activation and gradient
    // of the trunk (16 KiB each), smaller than the head's weights, which
    // are versioned in recycled buffers. Each conv layer stashes the
    // staged image its forward made, and its weight half hands the buffer
    // back to the thread for the next forward: in steady state no sample
    // allocates one, as when each image was staged in the thread's scratch
    // — once in the forward and once more in the weight half.
    const STAGED_IMAGE: usize = (16 * 18 * 18 + 16) * 4;
    const SAMPLES: usize = 24;
    let staged_sized = steady_conv_allocs(STAGED_IMAGE, SAMPLES);
    let all = steady_conv_allocs(1, SAMPLES);
    eprintln!("{staged_sized} staged-image-sized allocations, {all} in all, in {SAMPLES} samples");
    assert_eq!(
        staged_sized, 0,
        "{staged_sized} staged-image-sized allocations in {SAMPLES} samples \
         ({all} allocations of any size)"
    );
    // Both counts, per sample: none staged-image-sized, and no more
    // allocations of any size than when the weight half staged again.
    assert!(
        all <= SAMPLES * ALLOCS_PER_CNN_SAMPLE,
        "{all} allocations in {SAMPLES} samples, over {ALLOCS_PER_CNN_SAMPLE} a sample"
    );
}
