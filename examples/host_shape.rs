//! What the host is, in the two rates the pipeline's stages are bound by:
//! fused multiply-adds and streams from memory, on one thread alone and on
//! two at once. The fused multiply-adds are timed twice: through the
//! repository's GEMM (`fma`, what `tensor.peak_gflops` — the MFU
//! denominator — measures too) and from registers alone (`peak`, the
//! core's own ceiling, which the GEMM's rate sits well below).
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

/// Independent accumulators of [`peak`].
const CHAINS: usize = 12;

/// Steps every chain of `acc` by `$step` `reps / 8` times to warm up, then
/// past the gate `reps` times, and returns the seconds the second run took.
/// A macro, not a function taking a closure: a closure does not inherit
/// its caller's `#[target_feature]`, and an intrinsic it calls would not
/// be inlined.
macro_rules! chains {
    ($gate:expr, $reps:expr, $acc:ident, |$c:ident| $step:expr) => {{
        let mut $acc = $acc;
        let mut secs = 0.0;
        for (round, reps) in [$reps / 8, $reps].into_iter().enumerate() {
            if round == 1 {
                $gate.wait();
            }
            let start = Instant::now();
            for _ in 0..reps {
                for $c in $acc.iter_mut() {
                    *$c = $step;
                }
            }
            black_box(&mut $acc);
            secs = start.elapsed().as_secs_f64();
        }
        secs
    }};
}

/// Fused multiply-adds from registers alone, in GFLOP/s: twelve
/// independent vector chains (enough to cover the FMA latency on two ports)
/// stepped with no load or store in the loop, at the widest vector the CPU
/// has — `__m512` or `__m256` (the build's `target-cpu=native` alone
/// leaves a portable loop at 256 bits), sixteen `f32` lanes elsewhere.
fn peak(gate: &Barrier) -> f64 {
    const REPS: usize = 4_000_000;
    let rate = |lanes: usize, secs: f64| (2 * lanes * CHAINS * REPS) as f64 / secs / 1e9;
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU has the feature the function enables.
            return rate(16, unsafe { x86::peak_avx512(gate, REPS) });
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: as above.
            return rate(8, unsafe { x86::peak_avx2(gate, REPS) });
        }
    }
    let (a, b) = (black_box([0.999f32; 16]), black_box([0.001f32; 16]));
    let acc = [[0.0f32; 16]; CHAINS];
    let secs = chains!(gate, REPS, acc, |c| std::array::from_fn(
        |l| a[l].mul_add(c[l], b[l])
    ));
    rate(16, secs)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;
    use std::hint::black_box;
    use std::sync::Barrier;
    use std::time::Instant;

    #[target_feature(enable = "avx512f")]
    pub unsafe fn peak_avx512(gate: &Barrier, reps: usize) -> f64 {
        let (a, b) = (
            black_box(_mm512_set1_ps(0.999)),
            black_box(_mm512_set1_ps(0.001)),
        );
        let acc = [_mm512_setzero_ps(); CHAINS];
        chains!(gate, reps, acc, |c| _mm512_fmadd_ps(a, *c, b))
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn peak_avx2(gate: &Barrier, reps: usize) -> f64 {
        let (a, b) = (
            black_box(_mm256_set1_ps(0.999)),
            black_box(_mm256_set1_ps(0.001)),
        );
        let acc = [_mm256_setzero_ps(); CHAINS];
        chains!(gate, reps, acc, |c| _mm256_fmadd_ps(a, *c, b))
    }
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
    let rows: [(&str, &str, Load); 3] = [
        ("fma", "GFLOP/s", fma),
        ("peak", "GFLOP/s", peak),
        ("triad", "GB/s", triad),
    ];
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
