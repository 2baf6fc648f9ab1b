//! Persistent worker pool for data-parallel kernels.
//!
//! Large GEMMs are partitioned into independent chunks (disjoint regions of
//! the output matrix) and executed on a process-wide pool of worker threads.
//! The pool size comes from the `PBP_THREADS` environment variable (invalid
//! or zero values are ignored with a one-time warning), falling back to the
//! machine's available parallelism; [`set_max_threads`] overrides it at
//! runtime (used by benchmarks and the kernel-equivalence tests to
//! sweep thread counts inside one process). Engines that run their own
//! worker threads park cores with [`reserve`] so kernels and stage workers
//! share the machine instead of oversubscribing it.
//!
//! # Determinism
//!
//! Partitioning is *deterministic*: chunk boundaries depend only on the
//! problem shape, never on the worker count, and every chunk runs exactly the
//! same serial code whether it executes inline (one thread) or on a worker.
//! Because chunks write disjoint outputs and floating-point accumulation
//! order inside a chunk is fixed, kernel results are bit-identical at any
//! thread count — `PBP_THREADS=1` and `PBP_THREADS=64` produce the same
//! bytes. `tests/proptest_kernels.rs` enforces this property.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// A unit of work shipped to a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Effective thread cap. Zero means "not yet resolved"; the first call to
/// [`max_threads`] resolves it from `PBP_THREADS` / available parallelism.
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Cores currently reserved away from the kernel pool by [`reserve`] (the
/// threaded pipeline engine parks one core per worker thread while a
/// stream is in flight).
static RESERVED: AtomicUsize = AtomicUsize::new(0);

struct PoolState {
    /// Shared MPMC job queue; every worker holds a clone of the receiver.
    tx: Sender<Job>,
    /// Template receiver cloned when new workers are spawned.
    rx: Receiver<Job>,
    /// Number of workers spawned so far (workers are added lazily and never
    /// exit — the pool is persistent for the process lifetime).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<PoolState> = OnceLock::new();

/// Parses a `PBP_THREADS` value. Rejects (returns `None` for) anything
/// that is not an integer ≥ 1 — including `0`, which would silently
/// disable all kernels if taken literally.
fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// One-time warning gate for invalid `PBP_THREADS` values: the resolver
/// can run on any thread, and repeating the warning per kernel call
/// would flood stderr.
static ENV_WARNING: std::sync::Once = std::sync::Once::new();

fn env_threads() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("PBP_THREADS") {
        Err(_) => fallback(),
        Ok(raw) => parse_threads(&raw).unwrap_or_else(|| {
            ENV_WARNING.call_once(|| {
                eprintln!(
                    "warning: ignoring invalid PBP_THREADS={raw:?} \
                     (expected an integer >= 1); using available parallelism"
                );
            });
            fallback()
        }),
    }
}

/// The configured thread cap, before any active [`reserve`] is subtracted.
/// Resolved once from `PBP_THREADS` or the machine's available parallelism;
/// override with [`set_max_threads`]. Engines use this for *planning* how
/// many cores exist to divide between stage workers and the kernel pool.
pub fn configured_threads() -> usize {
    match MAX_THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = env_threads();
            // A racing first call resolves to the same value; last store wins
            // harmlessly.
            MAX_THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// The number of threads kernels may use right now (including the calling
/// thread's share of the work): the configured cap minus any cores parked
/// by outstanding [`reserve`] guards, floored at 1 so kernels always make
/// progress. Because kernel results are bit-identical at any thread count,
/// reservations only change performance, never results.
pub fn max_threads() -> usize {
    let cap = configured_threads();
    cap.saturating_sub(RESERVED.load(Ordering::Relaxed)).max(1)
}

/// RAII guard for a core reservation taken with [`reserve`]. Dropping it
/// returns the cores to the kernel pool.
#[derive(Debug)]
pub struct CoreReservation {
    n: usize,
}

impl Drop for CoreReservation {
    fn drop(&mut self) {
        RESERVED.fetch_sub(self.n, Ordering::Relaxed);
    }
}

/// Parks `n` cores away from the kernel pool until the returned guard is
/// dropped. Used by the threaded pipeline engine to co-schedule: while its
/// stage worker threads are busy, the kernel pool is shrunk to the leftover
/// cores instead of oversubscribing the machine. Reservations stack
/// (guards from different engines add up), and [`max_threads`] never drops
/// below 1, so an over-reservation degrades to serial kernels rather than
/// deadlock.
pub fn reserve(n: usize) -> CoreReservation {
    RESERVED.fetch_add(n, Ordering::Relaxed);
    CoreReservation { n }
}

/// Overrides the kernel thread cap for the whole process (clamped to ≥ 1).
///
/// `1` disables the pool: every kernel runs serially on the calling thread.
/// Values above the spawned worker count grow the pool on the next parallel
/// dispatch. Because kernel results are bit-identical at any thread count,
/// flipping this at runtime only changes performance, never results.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n.max(1), Ordering::Relaxed);
}

fn pool() -> &'static PoolState {
    POOL.get_or_init(|| {
        let (tx, rx) = unbounded();
        PoolState {
            tx,
            rx,
            spawned: Mutex::new(0),
        }
    })
}

/// Spawns workers until at least `n` exist.
fn ensure_workers(n: usize) {
    let p = pool();
    let mut spawned = p.spawned.lock().expect("kernel pool lock");
    while *spawned < n {
        let rx = p.rx.clone();
        std::thread::Builder::new()
            .name(format!("pbp-kernel-{}", *spawned))
            .spawn(move || {
                // Jobs are panic-wrapped by `parallel_for`, so a worker only
                // exits when the process does (the queue never disconnects:
                // the sender lives in a static).
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .expect("spawn kernel pool worker");
        *spawned += 1;
    }
}

/// Runs `body(0)`, `body(1)`, …, `body(chunks - 1)`, using the worker pool
/// when more than one thread is configured and inline on the calling thread
/// otherwise. Blocks until every chunk has completed.
///
/// Chunks must write disjoint data; the caller is responsible for the
/// partitioning. The chunk *order of execution* is unspecified, so bodies
/// must not depend on each other.
///
/// # Panics
///
/// If any chunk panics, the panic is captured on the worker, all remaining
/// chunks are still drained (so no borrow outlives this call), and the
/// payload is re-raised on the calling thread.
pub fn parallel_for(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    let threads = max_threads();
    if chunks <= 1 || threads <= 1 {
        for i in 0..chunks {
            body(i);
        }
        return;
    }
    ensure_workers(threads.min(chunks));
    // SAFETY: the closure reference is only shared with pool workers through
    // jobs whose completion messages are all drained below before this
    // function returns (including the panic path), so the 'static lifetime
    // never outlives the actual borrow.
    let body_static: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
    let (done_tx, done_rx) = unbounded::<std::thread::Result<()>>();
    let p = pool();
    for i in 0..chunks {
        let done = done_tx.clone();
        p.tx.send(Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| body_static(i)));
            // Receiver outlives the loop below; a send can only fail if the
            // caller already panicked, in which case dropping is fine.
            let _ = done.send(result);
        }))
        .expect("kernel pool queue");
    }
    drop(done_tx);
    let mut panic_payload = None;
    for _ in 0..chunks {
        match done_rx.recv().expect("kernel pool completion") {
            Ok(()) => {}
            Err(payload) => panic_payload = Some(payload),
        }
    }
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Serializes tests that mutate the process-global thread cap, so the
    /// exact-value assertions below cannot race each other.
    static CAP_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn serial_when_single_threaded() {
        let _guard = CAP_LOCK.lock().unwrap();
        set_max_threads(1);
        let hits = AtomicU32::new(0);
        parallel_for(5, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn runs_every_chunk_exactly_once_on_workers() {
        let _guard = CAP_LOCK.lock().unwrap();
        set_max_threads(4);
        let flags: Vec<AtomicU32> = (0..37).map(|_| AtomicU32::new(0)).collect();
        parallel_for(flags.len(), &|i| {
            flags[i].fetch_add(1, Ordering::SeqCst);
        });
        set_max_threads(1);
        for (i, f) in flags.iter().enumerate() {
            assert_eq!(f.load(Ordering::SeqCst), 1, "chunk {i}");
        }
    }

    #[test]
    fn chunk_panic_propagates_to_caller() {
        let _guard = CAP_LOCK.lock().unwrap();
        set_max_threads(2);
        let result = std::panic::catch_unwind(|| {
            parallel_for(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        });
        set_max_threads(1);
        assert!(result.is_err(), "panic must surface on the caller");
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads("  16 \n"), Some(16));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("0"), None, "zero would disable kernels");
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("eight"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("4.5"), None);
    }

    #[test]
    fn reservations_shrink_and_restore_the_cap() {
        let _guard = CAP_LOCK.lock().unwrap();
        set_max_threads(8);
        assert_eq!(max_threads(), 8);
        {
            let _r = reserve(3);
            assert_eq!(max_threads(), 5);
            {
                let _r2 = reserve(10);
                // Over-reservation floors at 1 instead of deadlocking.
                assert_eq!(max_threads(), 1);
            }
            assert_eq!(max_threads(), 5);
        }
        assert_eq!(max_threads(), 8);
        assert_eq!(configured_threads(), 8, "reserve never touches the cap");
        set_max_threads(1);
    }

    #[test]
    fn threads_env_override_wins() {
        let _guard = CAP_LOCK.lock().unwrap();
        // Can't portably mutate the environment mid-process for OnceLock-free
        // statics, but the setter must round-trip and clamp.
        set_max_threads(0);
        assert_eq!(max_threads(), 1);
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        set_max_threads(1);
    }
}
