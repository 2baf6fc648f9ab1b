//! Persistent worker pool for data-parallel kernels.
//!
//! Large GEMMs are partitioned into independent chunks (disjoint regions of
//! the output matrix), and eval-mode batch kernels into chunks of whole
//! samples ([`for_each_sample_chunk`]); [`parallel_for`] runs the chunks on
//! the calling thread and a process-wide pool of helper threads together.
//! The pool size comes from the `PBP_THREADS` environment variable (invalid
//! or zero values are ignored with a one-time warning), falling back to the
//! machine's available parallelism; [`set_max_threads`] overrides it at
//! runtime (used by benchmarks and the kernel-equivalence tests to
//! sweep thread counts inside one process). Engines that run several
//! kernel-calling threads at once park cores with [`reserve`] so kernels
//! and those threads share the machine instead of oversubscribing it.
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
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A unit of work shipped to a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// What a panicking chunk unwound with.
type Payload = Box<dyn Any + Send + 'static>;

/// The work of one chunk of a [`parallel_for`], given its index.
type Body<'a> = dyn Fn(usize) + Sync + 'a;

thread_local! {
    /// Set while this thread runs chunks of a [`parallel_for`]: one issued
    /// from inside a chunk runs inline rather than queueing helper jobs
    /// behind the threads already busy with the outer one.
    static IN_CHUNK: Cell<bool> = const { Cell::new(false) };
}

/// Samples per chunk of [`for_each_sample_chunk`]: a fixed count, so the
/// partition of a batch depends on its size alone. Four keeps a batch of
/// 64 at 16 chunks for the threads to balance, each chunk long enough
/// (one `conv1` image of the serving net is ≈ 15 µs) that a claim is noise.
const SAMPLES_PER_CHUNK: usize = 4;

/// Effective thread cap. Zero means "not yet resolved"; the first call to
/// [`max_threads`] resolves it from `PBP_THREADS` / available parallelism.
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Cores currently reserved away from the kernel pool by [`reserve`].
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

/// The number of threads a kernel may use right now, the calling thread
/// included — [`parallel_for`] runs chunks on the caller and on up to
/// `max_threads() − 1` pool helpers: the configured cap minus any cores
/// parked by outstanding [`reserve`] guards, floored at 1 so kernels always
/// make progress. Because kernel results are bit-identical at any thread
/// count, reservations only change performance, never results.
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
/// dropped.
///
/// The rule: `n` is the number of *other* threads that call kernels
/// concurrently with this one. A caller works its own kernels' chunks
/// ([`parallel_for`]), so a lone kernel-calling thread reserves nothing and
/// gets every core; `k` of them at once reserve `k − 1` between them, one
/// core each for the threads beyond the first. `pbp_serve::Server` reserves
/// one fewer than its worker threads, the threaded pipeline one fewer than
/// its stage workers. Reservations stack (guards from different engines add
/// up), and [`max_threads`] never drops below 1, so an over-reservation
/// degrades to serial kernels rather than deadlock.
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

/// One [`parallel_for`] call as its participants share it. It lives in an
/// `Arc`, so a helper that starts after the call has returned touches this
/// and never the caller's stack.
struct Region {
    /// The next unclaimed chunk.
    next: AtomicUsize,
    chunks: usize,
    /// The caller's body with its lifetime erased: dereferenced only for a
    /// claimed chunk `< chunks`, and the caller does not return before every
    /// such chunk has finished (see [`Region::drain`]).
    body: *const Body<'static>,
    /// Chunks finished, and the first panic among them.
    finished: Mutex<(usize, Option<Payload>)>,
    /// Signalled when the last chunk finishes.
    all_finished: Condvar,
}

// SAFETY: `next`, `chunks`, `finished` and `all_finished` are `Send + Sync`
// themselves. `body` points to a `Sync` closure, so calling it from several
// threads at once is sound; it is dereferenced only for a chunk index a
// thread claimed below `chunks`, and `parallel_for` does not return (so
// the closure stays alive) until every such chunk has finished.
unsafe impl Send for Region {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Region {}

impl Region {
    /// Claims chunks until none is left, running each and counting it
    /// finished — a panic included, caught and kept if it is the first.
    fn drain(&self) {
        IN_CHUNK.set(true);
        loop {
            // Relaxed: the counter only hands out indices (every
            // `fetch_add` returns a distinct value whatever the ordering);
            // what the chunks wrote reaches the caller through `finished`.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                break;
            }
            // SAFETY: chunk `i < chunks` is this thread's alone, and the
            // caller is blocked until it is counted finished below, so the
            // closure behind `body` is alive (see `Region::body`).
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*self.body)(i) }));
            let mut finished = self.finished.lock().expect("chunk tally");
            finished.0 += 1;
            if let Err(payload) = result {
                finished.1.get_or_insert(payload);
            }
            if finished.0 == self.chunks {
                self.all_finished.notify_one();
            }
        }
        IN_CHUNK.set(false);
    }
}

/// Runs `body(0)`, `body(1)`, …, `body(chunks - 1)`, each exactly once, on
/// the calling thread and up to `max_threads() − 1` pool helpers together:
/// every participant claims the next unclaimed chunk from one shared
/// counter until none is left, so the caller works its share instead of
/// waiting. Returns once every chunk has finished — waiting only for chunks
/// a helper is still running, never for a helper that has yet to start
/// (it will find nothing left to claim). With one thread, one chunk, or
/// when called from inside a chunk of another `parallel_for` (nesting),
/// every chunk runs inline on the calling thread.
///
/// Chunks must write disjoint data; the caller is responsible for the
/// partitioning. The chunk *order of execution* is unspecified, so bodies
/// must not depend on each other.
///
/// # Panics
///
/// If any chunk panics — on a helper or on the caller — the payload is
/// captured, every remaining chunk still runs (so no borrow outlives this
/// call), and the first payload is re-raised on the calling thread.
pub fn parallel_for(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    let helpers = max_threads().min(chunks).saturating_sub(1);
    if helpers == 0 || IN_CHUNK.get() {
        (0..chunks).for_each(body);
        return;
    }
    ensure_workers(helpers);
    // SAFETY: erases the lifetime of a reference to a reference of the same
    // layout; `Region::body` says when it may be dereferenced.
    let body = unsafe { std::mem::transmute::<&Body<'_>, &'static Body<'static>>(body) };
    let region = Arc::new(Region {
        next: AtomicUsize::new(0),
        chunks,
        body,
        finished: Mutex::new((0, None)),
        all_finished: Condvar::new(),
    });
    let p = pool();
    for _ in 0..helpers {
        let region = Arc::clone(&region);
        p.tx.send(Box::new(move || region.drain()))
            .expect("kernel pool queue");
    }
    region.drain();
    // Every chunk is claimed; wait for the ones still running elsewhere.
    let mut finished = region.finished.lock().expect("chunk tally");
    while finished.0 < chunks {
        finished = region.all_finished.wait(finished).expect("chunk tally");
    }
    if let Some(payload) = finished.1.take() {
        drop(finished);
        std::panic::resume_unwind(payload);
    }
}

/// Runs `body(first, part)` over `data` cut into parts of
/// `SAMPLES_PER_CHUNK` consecutive samples of `sample_len` elements (the
/// last part may hold fewer), `first` being the index of the part's first
/// sample, the parts spread over the pool by [`parallel_for`]. Each part
/// is a disjoint `&mut` slice of `data`, handed to exactly one chunk: a
/// batch kernel shares its output with the pool through here and nowhere
/// else. A batch that fits one part — every batch-1 forward — calls
/// `body(0, data)` inline and allocates nothing.
///
/// For a batch kernel whose samples are independent, so that cutting the
/// batch changes no value: eval-mode convolution and group normalisation.
pub fn for_each_sample_chunk<T: Send>(
    data: &mut [T],
    sample_len: usize,
    body: &(dyn Fn(usize, &mut [T]) + Sync),
) {
    let part_len = (SAMPLES_PER_CHUNK * sample_len).max(1);
    if data.len() <= part_len {
        body(0, data);
        return;
    }
    let parts: Vec<Mutex<&mut [T]>> = data.chunks_mut(part_len).map(Mutex::new).collect();
    parallel_for(parts.len(), &|i| {
        // Taken once, by chunk `i` alone: never contended, never poisoned.
        let mut part = parts[i].lock().expect("each sample chunk runs once");
        body(i * SAMPLES_PER_CHUNK, &mut part);
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::{Barrier, MutexGuard, PoisonError};

    /// Serializes the crate's tests that mutate the process-global thread
    /// cap, so the exact-value assertions cannot race each other and a
    /// test that needs two threads is never run inline.
    static CAP_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn cap_lock() -> MutexGuard<'static, ()> {
        CAP_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn counters(n: usize) -> Vec<AtomicU32> {
        (0..n).map(|_| AtomicU32::new(0)).collect()
    }

    fn assert_each_ran_once(hits: &[AtomicU32], context: &str) {
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "{context}: chunk {i}");
        }
    }

    #[test]
    fn serial_when_single_threaded() {
        let _guard = cap_lock();
        set_max_threads(1);
        let hits = AtomicU32::new(0);
        parallel_for(5, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn runs_every_chunk_exactly_once_on_workers() {
        let _guard = cap_lock();
        for threads in [2, 64] {
            set_max_threads(threads);
            for chunks in [1, 2, 37] {
                let hits = counters(chunks);
                parallel_for(chunks, &|i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                });
                assert_each_ran_once(&hits, &format!("{threads} threads, {chunks} chunks"));
            }
        }
        set_max_threads(1);
    }

    /// Runs 37 chunks at two threads, the one of chunks 0 and 1 that lands
    /// on the caller (`on_caller`) or on the helper (otherwise) panicking,
    /// and asserts the panic reaches the caller after every chunk ran.
    fn panic_in_one_chunk(on_caller: bool) {
        let _guard = cap_lock();
        set_max_threads(2);
        let caller = std::thread::current().id();
        // Chunks 0 and 1 are claimed first and each waits for the other,
        // so whichever thread claims one cannot claim the other: one runs
        // on the caller and one on the helper.
        let both_claimed = Barrier::new(2);
        let hits = counters(37);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
                if i < 2 {
                    both_claimed.wait();
                    if (std::thread::current().id() == caller) == on_caller {
                        panic!("boom in chunk {i}");
                    }
                }
            });
        }));
        set_max_threads(1);
        let payload = result.expect_err("the panic must surface on the caller");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.starts_with("boom in chunk"), "{message}");
        assert_each_ran_once(&hits, if on_caller { "caller" } else { "helper" });
    }

    #[test]
    fn a_panic_in_the_callers_own_chunk_reaches_it_after_every_chunk_ran() {
        panic_in_one_chunk(true);
    }

    #[test]
    fn a_panic_in_a_helpers_chunk_reaches_the_caller_after_every_chunk_ran() {
        panic_in_one_chunk(false);
    }

    #[test]
    fn a_nested_parallel_for_runs_inline_in_its_chunk() {
        // Both threads busy with an outer chunk, each issuing an inner
        // `parallel_for`: queued inner jobs would wait for threads that
        // wait for them. Run inline, they finish on the outer chunk's
        // thread.
        let _guard = cap_lock();
        set_max_threads(2);
        let hits = counters(4 * 8);
        let strays = AtomicU32::new(0);
        parallel_for(4, &|outer| {
            let me = std::thread::current().id();
            parallel_for(8, &|inner| {
                if std::thread::current().id() != me {
                    strays.fetch_add(1, Ordering::SeqCst);
                }
                hits[outer * 8 + inner].fetch_add(1, Ordering::SeqCst);
            });
        });
        set_max_threads(1);
        assert_each_ran_once(&hits, "nested");
        assert_eq!(
            strays.load(Ordering::SeqCst),
            0,
            "inner chunks left their thread"
        );
    }

    #[test]
    fn sample_chunks_cover_the_batch_once_at_their_own_offsets() {
        let _guard = cap_lock();
        const SAMPLE: usize = 3;
        for threads in [1, 2, 64] {
            set_max_threads(threads);
            for samples in [0, 1, 3, 4, 5, 17, 64] {
                let mut data = vec![u32::MAX; samples * SAMPLE];
                let calls = AtomicU32::new(0);
                for_each_sample_chunk(&mut data, SAMPLE, &|first, part| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(part.len() % SAMPLE, 0, "a part holds whole samples");
                    for (j, v) in part.iter_mut().enumerate() {
                        *v = (first + j / SAMPLE) as u32;
                    }
                });
                let want: Vec<u32> = (0..data.len()).map(|k| (k / SAMPLE) as u32).collect();
                assert_eq!(data, want, "{threads} threads, {samples} samples");
                let parts = samples.div_ceil(SAMPLES_PER_CHUNK).max(1);
                assert_eq!(calls.load(Ordering::SeqCst) as usize, parts);
            }
        }
        set_max_threads(1);
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
        let _guard = cap_lock();
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
        let _guard = cap_lock();
        // Can't portably mutate the environment mid-process for OnceLock-free
        // statics, but the setter must round-trip and clamp.
        set_max_threads(0);
        assert_eq!(max_threads(), 1);
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        set_max_threads(1);
    }
}
