//! What the host is, in the two rates the pipeline's stages are bound by:
//! fused multiply-adds from registers and streams from memory, on one
//! thread alone and on two at once.
//!
//! Two threads that each keep their solo rate are two cores; two that
//! halve it are SMT siblings of one. README §Performance and DESIGN §15
//! read the ledger's Eq. 1 ratios against what this prints.
//!
//! ```sh
//! cargo run --release --example host_shape
//! ```

use pipelined_backprop::tensor::ops::gemm_nn;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Runs `work` on `threads` threads; each returns its own rate, timed from
/// the moment all of them have warmed up and passed the gate.
fn at_once(threads: usize, work: impl Fn(&Barrier) -> f64 + Sync) -> Vec<f64> {
    let gate = Barrier::new(threads);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(|| work(&gate))).collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .collect()
    })
}

/// The repository's own GEMM on a cache-resident `64×128 · 128×64` product
/// (below the size at which it would ask the kernel pool for help): the
/// fused multiply-add rate a compute-bound stage sees, in GFLOP/s.
fn fma(gate: &Barrier) -> f64 {
    let (m, k, n) = (64, 128, 64);
    const REPS: usize = 40_000;
    let (a, b, mut c) = (
        vec![0.5f32; m * k],
        vec![0.25f32; k * n],
        vec![0.0f32; m * n],
    );
    let mut run = |reps: usize| {
        for _ in 0..reps {
            gemm_nn(black_box(&a), &b, &mut c, m, k, n, false);
        }
    };
    run(REPS / 8);
    gate.wait();
    let start = Instant::now();
    run(REPS);
    (2 * m * k * n * REPS) as f64 / start.elapsed().as_secs_f64() / 1e9
}

/// STREAM triad `a = b + s·c` over three 16 MB arrays (two reads and one
/// write per element, as STREAM counts them): GB/s.
fn triad(gate: &Barrier) -> f64 {
    const N: usize = 4 << 20;
    const REPS: usize = 24;
    let (mut a, b, c) = (vec![0.0f32; N], vec![1.0f32; N], vec![2.0f32; N]);
    let mut run = |reps: usize| {
        for _ in 0..reps {
            for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
                *a = b + 0.5 * c;
            }
            black_box(&mut a);
        }
    };
    run(2);
    gate.wait();
    let start = Instant::now();
    run(REPS);
    (12 * N * REPS) as f64 / start.elapsed().as_secs_f64() / 1e9
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!("logical CPUs: {cpus}");
    type Load = fn(&Barrier) -> f64;
    let rows: [(&str, &str, Load); 2] = [("fma", "GFLOP/s", fma), ("triad", "GB/s", triad)];
    for (name, unit, work) in rows {
        let alone = at_once(1, work)[0];
        let both = at_once(2, work);
        println!(
            "{name:<6} alone {alone:6.1} {unit:<8} two at once {:6.1} + {:6.1}  ({:.2}x of alone in all)",
            both[0],
            both[1],
            (both[0] + both[1]) / alone
        );
    }
}
