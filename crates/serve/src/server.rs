//! The server: ingress queue, dynamic batcher, and worker pool.
//!
//! # Batcher state machine
//!
//! The batcher thread cycles through three states (documented in DESIGN.md
//! §13):
//!
//! 1. **Idle** — blocked on `select2(control, ingress)`. A control message
//!    moves it to *Draining*; an ingress request opens a batch and moves it
//!    to *Coalescing*.
//! 2. **Coalescing** — holds an open batch and a deadline (`open time +
//!    config.deadline`). It keeps receiving with `recv_timeout` until the
//!    batch is full (`max_batch`), the deadline passes, or a request with a
//!    different sample shape arrives — which flushes the open batch and
//!    opens a new one (shape cohorts never mix inside a forward pass).
//!    Every exit from this state dispatches the open batch to the worker
//!    queue and returns to *Idle*.
//! 3. **Draining** — consumes whatever is still queued without waiting
//!    (`try_recv`), dispatches it in shape-uniform, budget-sized batches,
//!    drops the worker queue sender, and exits. Workers finish the
//!    remaining batches and exit when the queue disconnects.
//!
//! Shutdown visibility is a flag checked at submission, so a client racing
//! a shutdown can lose: its request may enter the ingress queue after the
//! drain finished. Nobody will ever reply — which is why dropping the
//! reply channel resolves the pending request with
//! [`ServeError::ShuttingDown`] instead of hanging.

use crate::{ServeConfig, ServeError};
use crossbeam::channel::{
    bounded, select2, unbounded, Receiver, RecvTimeoutError, Select2, Sender, TrySendError,
};
use pbp_nn::Network;
use pbp_tensor::{pool, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued inference request: a single sample (no batch dimension) and
/// the channel its logits go back on.
struct Request {
    x: Tensor,
    reply: Sender<Result<Tensor, ServeError>>,
}

/// Counters shared by clients, the batcher, and the workers.
#[derive(Default)]
struct StatsInner {
    /// Requests accepted into the ingress queue.
    submitted: AtomicU64,
    /// Requests rejected at submission (shutdown in progress).
    rejected: AtomicU64,
    /// Requests rejected at submission because the bounded ingress queue
    /// was full.
    overloaded: AtomicU64,
    /// Batches dispatched to the worker queue.
    batches: AtomicU64,
    /// Requests replied to (success or typed error).
    replied: AtomicU64,
    /// Largest batch dispatched so far.
    max_coalesced: AtomicUsize,
    /// Worker panics caught (each fails every request in its batch).
    worker_panics: AtomicU64,
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into the ingress queue.
    pub submitted: u64,
    /// Requests rejected at submission because shutdown had begun.
    pub rejected: u64,
    /// Requests rejected at submission because the queue was full.
    pub overloaded: u64,
    /// Batches dispatched to the worker queue.
    pub batches: u64,
    /// Requests replied to (success or typed error).
    pub replied: u64,
    /// Largest batch dispatched so far.
    pub max_coalesced: usize,
    /// Worker panics caught.
    pub worker_panics: u64,
}

impl StatsInner {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            replied: self.replied.load(Ordering::Relaxed),
            max_coalesced: self.max_coalesced.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
        }
    }
}

/// A reply that has not arrived yet. Dropping it abandons the request
/// (the worker's reply send fails harmlessly).
pub struct Pending {
    rx: Receiver<Result<Tensor, ServeError>>,
}

impl Pending {
    /// Blocks until the reply arrives. A disconnect (the server tore down
    /// the reply pipeline before answering) resolves to
    /// [`ServeError::ShuttingDown`].
    pub fn wait(self) -> Result<Tensor, ServeError> {
        match self.rx.recv() {
            Ok(reply) => reply,
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }
}

/// A cloneable handle for submitting requests. Clients may outlive the
/// [`Server`]; submissions after shutdown fail with
/// [`ServeError::ShuttingDown`].
#[derive(Clone)]
pub struct Client {
    ingress: Sender<Request>,
    shutting_down: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
}

impl Client {
    /// Enqueues one sample (shaped like a single network input, no batch
    /// dimension) and returns a [`Pending`] reply handle. A full ingress
    /// queue rejects immediately with [`ServeError::Overloaded`] — the
    /// backlog is bounded by [`ServeConfig::queue`], never by memory.
    pub fn submit(&self, x: Tensor) -> Result<Pending, ServeError> {
        if self.shutting_down.load(Ordering::Acquire) {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::ShuttingDown);
        }
        let (reply, rx) = bounded(1);
        match self.ingress.try_send(Request { x, reply }) {
            Ok(()) => {
                self.stats.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(Pending { rx })
            }
            Err(TrySendError::Full(_)) => {
                self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Submits one sample and blocks for its logits.
    pub fn infer(&self, x: Tensor) -> Result<Tensor, ServeError> {
        self.submit(x)?.wait()
    }
}

/// Control messages from [`Server`] to the batcher thread.
enum Control {
    /// Drain the ingress queue, dispatch everything, and exit.
    Drain,
}

/// An inference server: one batcher thread plus one worker thread per
/// network replica. See the module docs for the batcher state machine.
pub struct Server {
    ingress: Sender<Request>,
    control: Sender<Control>,
    shutting_down: Arc<AtomicBool>,
    stats: Arc<StatsInner>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<Network>>,
    /// Parks one kernel-pool core per worker for the server's lifetime.
    _cores: pool::CoreReservation,
}

impl Server {
    /// Starts a server with one worker thread per network in `nets`.
    /// Networks are switched to eval mode (running statistics, no
    /// stashes); their training flag is restored on
    /// [`Server::shutdown`].
    ///
    /// # Panics
    ///
    /// Panics if `nets` is empty.
    pub fn start(nets: Vec<Network>, config: ServeConfig) -> Server {
        assert!(!nets.is_empty(), "serve: need at least one network");
        let config = ServeConfig {
            max_batch: config.max_batch.max(1),
            queue: config.queue.max(1),
            ..config
        };
        let (ingress_tx, ingress_rx) = bounded::<Request>(config.queue);
        let (control_tx, control_rx) = unbounded::<Control>();
        let (work_tx, work_rx) = unbounded::<Vec<Request>>();
        let stats = Arc::new(StatsInner::default());

        let cores = pool::reserve(nets.len());
        let workers = nets
            .into_iter()
            .enumerate()
            .map(|(i, net)| {
                let rx = work_rx.clone();
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("pbp-serve-worker-{i}"))
                    .spawn(move || worker_loop(net, rx, stats))
                    .expect("spawn serve worker")
            })
            .collect();
        drop(work_rx);

        let batcher = {
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("pbp-serve-batcher".into())
                .spawn(move || batcher_loop(ingress_rx, control_rx, work_tx, config, stats))
                .expect("spawn serve batcher")
        };

        Server {
            ingress: ingress_tx,
            control: control_tx,
            shutting_down: Arc::new(AtomicBool::new(false)),
            stats,
            batcher: Some(batcher),
            workers,
            _cores: cores,
        }
    }

    /// A new client handle for this server.
    pub fn client(&self) -> Client {
        Client {
            ingress: self.ingress.clone(),
            shutting_down: Arc::clone(&self.shutting_down),
            stats: Arc::clone(&self.stats),
        }
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServeStats {
        self.stats.snapshot()
    }

    /// Graceful shutdown: rejects new submissions, drains and serves
    /// everything already queued, joins all threads, and returns the
    /// networks (back in training mode) with the final stats.
    pub fn shutdown(mut self) -> (Vec<Network>, ServeStats) {
        let nets = self.shutdown_inner();
        (nets, self.stats.snapshot())
    }

    fn shutdown_inner(&mut self) -> Vec<Network> {
        self.shutting_down.store(true, Ordering::Release);
        let _ = self.control.send(Control::Drain);
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        self.workers
            .drain(..)
            .map(|w| {
                w.join()
                    .expect("serve worker thread itself never panics (batches are panic-wrapped)")
            })
            .collect()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server dropped without an explicit `shutdown()` still drains
        // gracefully so no pending reply is silently lost.
        if self.batcher.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Dispatches a batch to the worker queue, updating batch counters.
fn dispatch(work_tx: &Sender<Vec<Request>>, batch: Vec<Request>, stats: &StatsInner) {
    if batch.is_empty() {
        return;
    }
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats
        .max_coalesced
        .fetch_max(batch.len(), Ordering::Relaxed);
    // Workers only disconnect after the batcher drops `work_tx`, so this
    // send cannot fail while the batcher runs.
    let _ = work_tx.send(batch);
}

fn batcher_loop(
    ingress: Receiver<Request>,
    control: Receiver<Control>,
    work_tx: Sender<Vec<Request>>,
    config: ServeConfig,
    stats: Arc<StatsInner>,
) {
    loop {
        // Idle: wait for a request or a drain order (control has priority).
        let first = match select2(&control, &ingress) {
            Select2::First(_) => break, // Drain, or Server dropped its control sender
            Select2::Second(Ok(req)) => req,
            Select2::Second(Err(_)) => break, // every ingress sender gone
        };

        // Coalescing: fill the open batch until budget, deadline, or a
        // shape change.
        let mut batch = vec![first];
        let mut deadline = Instant::now() + config.deadline;
        while batch.len() < config.max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match ingress.recv_timeout(deadline - now) {
                Ok(req) => {
                    if req.x.shape() != batch[0].x.shape() {
                        // Shape cohorts never share a forward pass: flush
                        // the open batch and open a new one around `req`.
                        dispatch(&work_tx, std::mem::replace(&mut batch, vec![req]), &stats);
                        deadline = Instant::now() + config.deadline;
                    } else {
                        batch.push(req);
                    }
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    dispatch(&work_tx, batch, &stats);
                    return; // work_tx drops; workers drain and exit
                }
            }
        }
        dispatch(&work_tx, batch, &stats);
    }

    // Draining: dispatch everything still queued, in shape-uniform,
    // budget-sized batches, without waiting for more.
    let mut batch: Vec<Request> = Vec::new();
    while let Ok(req) = ingress.try_recv() {
        if !batch.is_empty()
            && (batch.len() >= config.max_batch || req.x.shape() != batch[0].x.shape())
        {
            dispatch(&work_tx, std::mem::take(&mut batch), &stats);
        }
        batch.push(req);
    }
    dispatch(&work_tx, batch, &stats);
    // work_tx drops here: workers finish the queue and exit.
}

fn worker_loop(mut net: Network, work: Receiver<Vec<Request>>, stats: Arc<StatsInner>) -> Network {
    let was_training = net.is_training();
    net.set_training(false);
    net.clear_stash();
    while let Ok(batch) = work.recv() {
        let n = batch.len();
        let sample = &batch[0].x;
        let mut shape = Vec::with_capacity(1 + sample.rank());
        shape.push(n);
        shape.extend_from_slice(sample.shape());
        let mut data = Vec::with_capacity(n * sample.len());
        for req in &batch {
            data.extend_from_slice(req.x.as_slice());
        }
        let x = Tensor::from_vec(data, &shape).expect("batcher guarantees uniform sample shapes");
        let result = catch_unwind(AssertUnwindSafe(|| net.forward(&x)));
        // Eval-mode layers stash no activation (`Layer::set_training`), so
        // after a forward that returned this has nothing to drop bar
        // `Dropout`'s markers and `OnlineNorm`'s frozen-map stash. It stays
        // for the caught panic: whatever the unwound forward left behind,
        // the next batch starts from a clean network.
        net.clear_stash();
        match result {
            Ok(y) => {
                debug_assert_eq!(y.shape()[0], n, "forward preserves the batch dimension");
                let row = y.len() / n;
                let out_shape = &y.shape()[1..];
                let ys = y.as_slice();
                for (i, req) in batch.into_iter().enumerate() {
                    let logits = Tensor::from_vec(ys[i * row..(i + 1) * row].to_vec(), out_shape)
                        .expect("row slice matches per-sample shape");
                    stats.replied.fetch_add(1, Ordering::Relaxed);
                    // A dropped `Pending` makes this send fail; that is the
                    // client's choice, not an error.
                    let _ = req.reply.send(Ok(logits));
                }
            }
            Err(_) => {
                stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                for req in batch {
                    stats.replied.fetch_add(1, Ordering::Relaxed);
                    let _ = req.reply.send(Err(ServeError::WorkerPanicked));
                }
            }
        }
    }
    net.set_training(was_training);
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client wired to an undrained bounded(1) ingress queue: the first
    /// submit fills the only slot, the second must be rejected with the
    /// typed overload error — deterministically, with no batcher racing to
    /// empty the queue.
    #[test]
    fn full_ingress_queue_rejects_with_overloaded() {
        let (ingress, ingress_rx) = bounded::<Request>(1);
        let client = Client {
            ingress,
            shutting_down: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(StatsInner::default()),
        };
        let x = || Tensor::from_slice(&[1.0, 2.0]);

        let _first = client.submit(x()).expect("one slot is free");
        let second = client.submit(x());
        assert!(matches!(second, Err(ServeError::Overloaded)));
        let stats = client.stats.snapshot();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.overloaded, 1);
        assert_eq!(stats.rejected, 0);

        // Draining the slot re-opens admission.
        drop(ingress_rx.recv().expect("queued request"));
        client.submit(x()).expect("slot freed");

        // Receiver gone entirely: that is shutdown, not overload.
        drop(ingress_rx);
        assert!(matches!(client.submit(x()), Err(ServeError::ShuttingDown)));
        assert_eq!(client.stats.snapshot().rejected, 1);
    }
}
