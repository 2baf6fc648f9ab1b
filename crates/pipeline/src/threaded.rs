//! Real multi-threaded pipeline runtime: `W = min(S, thread budget)` OS
//! threads, each hosting a contiguous run of the `S` layer stages,
//! activations and gradients flowing over channels, under supervision.
//!
//! This is the systems half of the paper's claim: pipelined
//! backpropagation keeps all workers busy after the initial fill, while
//! fill-and-drain training idles them (Eq. 1). Each worker is a
//! [`RankLoop`] over its run of [`partition_bounds`] — cut by
//! [`stage_cost`], so the workers carry like loads — between two
//! in-process [`Link`]s — the rank loop a `pbp-dist` process steps
//! between two sockets (DESIGN §12) — so a threaded run of any
//! [`MicrobatchSchedule`](crate::MicrobatchSchedule) is bit-identical
//! (weights, f64 loss sum, Eq. 5 delay histograms) to the sequential run
//! of the same configuration at every `W`, a thread per stage or a single
//! worker, however the threads interleave. Between streaming calls the
//! engine's state *is* a [`ScheduledTrainer`]; a call splits its rank
//! into the workers' and joins it back. This file adds:
//!
//! * the channel link: [`Message`]s cross by move over unbounded
//!   channels (the in-flight bound is the weight-version FIFO); every
//!   wait is bounded by the watchdog's poll tick, emits a rate-limited
//!   heartbeat and honours the shared abort flag;
//! * worker 0's feed, as on every host: [`Upstream::Feed`] over the call's
//!   slice of the [`Dataset`] (a clone, which shares the samples), so each
//!   sample is materialized by the worker whose forward takes it, and
//!   worker 0 records the loss of each microbatch it retires;
//! * **supervision** (DESIGN.md §9): workers run under `catch_unwind` on
//!   owned (detachable) threads and the calling thread is the watchdog —
//!   it feeds nothing, only supervises and collects — so a panicking,
//!   stalling or link-severing stage surfaces as a typed [`PipelineFault`]
//!   within the watchdog timeout instead of hanging the run. A
//!   [`FaultPlan`]'s rank clauses script such faults for tests: stage `s`
//!   is rank `s` of the plan, whichever worker hosts it.

use crate::engine::TrainEngine;
use crate::fault::{FaultInjector, FaultPlan, PipelineFault, RankFault};
use crate::group::{partition_bounds, stage_cost, StageGroup};
use crate::metrics::EngineMetrics;
use crate::rank::{Link, Message, RankError, RankLoop, Step, Upstream};
use crate::scheduled::{ScheduledConfig, ScheduledTrainer};
use crate::supervisor::{StageDone, StageEvent, StreamSupervisor, Watchdog};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pbp_data::Dataset;
use pbp_nn::{Network, Stage};
use pbp_optim::{LrSchedule, Mitigation};
use pbp_tensor::pool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum interval between heartbeats from one worker, and the shortest
/// wait tick; keeps the events channel cheap while staying far below any
/// sane stall timeout.
const BEAT_INTERVAL: Duration = Duration::from_millis(1);

const POISONED: &str = "engine state lost to a pipeline fault; rebuild the engine (see take_fault)";

/// Configuration of the threaded pipeline.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// What the workers execute: schedule, mitigation, stashing and
    /// learning-rate schedule — the same value that configures a
    /// [`ScheduledTrainer`].
    pub run: ScheduledConfig,
    /// Scripted fault injection (tests and chaos runs); `None` in
    /// production.
    pub fault_plan: Option<FaultPlan>,
    /// Liveness policy: stall timeout, supervisor poll tick, shutdown
    /// grace.
    pub watchdog: Watchdog,
}

impl ThreadedConfig {
    /// Threaded execution of `run`.
    pub fn new(run: ScheduledConfig) -> Self {
        ThreadedConfig {
            run,
            fault_plan: None,
            watchdog: Watchdog::default(),
        }
    }

    /// Pipelined backpropagation with the given schedule.
    pub fn pb(schedule: LrSchedule) -> Self {
        ThreadedConfig::new(ScheduledConfig::pb(schedule))
    }

    /// Fill-and-drain SGD at update size one — the baseline whose
    /// throughput PB beats.
    pub fn fill_drain(schedule: LrSchedule) -> Self {
        ThreadedConfig::new(ScheduledConfig::fill_drain(1, schedule))
    }

    /// Sets the mitigation method.
    pub fn with_mitigation(mut self, mitigation: Mitigation) -> Self {
        self.run = self.run.with_mitigation(mitigation);
        self
    }

    /// Enables weight stashing.
    pub fn with_weight_stashing(mut self) -> Self {
        self.run = self.run.with_weight_stashing();
        self
    }

    /// Arms a fault-injection script.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the watchdog policy.
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// The label the built engine reports.
    pub(crate) fn label(&self) -> String {
        format!("Threaded {}", self.run.label())
    }
}

/// The threaded pipeline runtime (see module docs).
///
/// [`ThreadedPipeline::stream`] pushes a slice of a dataset through the
/// worker threads; the [`TrainEngine`] impl drives it through the shared
/// [`run_training`](crate::engine::run_training) loop. All training state
/// — weights, per-stage optimizers, weight-version FIFOs, counters — lives
/// in the engine between calls and is lent to each call's workers, so
/// momentum, in-flight weight versions and the learning-rate schedule
/// carry across calls exactly as in the sequential engine.
///
/// On a [`PipelineFault`] the engine is **poisoned**: its state was lost
/// with the failed workers. The fault is retrievable once via
/// [`TrainEngine::take_fault`]; recovery means rebuilding the engine and
/// resuming from a snapshot (see
/// [`run_supervised`](crate::supervisor::run_supervised)).
#[derive(Debug)]
pub struct ThreadedPipeline {
    /// `None` once a fault lost it.
    state: Option<ScheduledTrainer>,
    config: ThreadedConfig,
    fault: Option<PipelineFault>,
}

impl ThreadedPipeline {
    /// Creates an engine that streams each training call through its
    /// worker threads: one per stage where the thread budget
    /// ([`pool::configured_threads`]) allows, fewer and wider otherwise.
    pub fn new(net: Network, config: ThreadedConfig) -> Self {
        ThreadedPipeline {
            state: Some(ScheduledTrainer::new(net, config.run.clone())),
            config,
            fault: None,
        }
    }

    /// # Panics
    ///
    /// Panics if the engine was poisoned by a [`PipelineFault`].
    fn state(&self) -> &ScheduledTrainer {
        self.state.as_ref().expect(POISONED)
    }

    fn state_mut(&mut self) -> &mut ScheduledTrainer {
        self.state.as_mut().expect(POISONED)
    }

    /// The cut every [`ThreadedPipeline::stream`] call makes: worker `w`
    /// hosts stages `bounds[w]..bounds[w + 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the engine was poisoned by a [`PipelineFault`].
    pub fn worker_bounds(&self) -> Vec<usize> {
        worker_bounds(&self.state().net)
    }

    /// Consumes the engine, returning the network.
    ///
    /// # Panics
    ///
    /// Panics if the engine was poisoned by a [`PipelineFault`].
    pub fn into_network(self) -> Network {
        self.state.expect(POISONED).into_network()
    }

    /// Streams samples `indices` of `data` through the pipeline, training
    /// as it goes; returns the per-sample losses in input order. A
    /// detected stage panic, stall or severed channel returns a typed
    /// [`PipelineFault`] within the watchdog timeout instead of hanging or
    /// propagating the panic; the engine is then poisoned and the fault is
    /// also stored for [`TrainEngine::take_fault`].
    ///
    /// # Panics
    ///
    /// Panics if the engine was already poisoned.
    pub fn stream(&mut self, data: &Dataset, indices: &[usize]) -> Result<Vec<f32>, PipelineFault> {
        if indices.is_empty() {
            return Ok(Vec::new());
        }
        let state = self.state.take().expect(POISONED);
        match run_stream(state, data, indices, &self.config) {
            Ok((state, losses)) => {
                self.state = Some(state);
                Ok(losses)
            }
            Err(fault) => {
                self.fault = Some(fault.clone());
                Err(fault)
            }
        }
    }
}

/// One worker per layer stage where the thread budget
/// ([`pool::configured_threads`]) allows, fewer and wider otherwise, cut
/// so the costliest worker's [`stage_cost`] sum is the least possible.
/// Each call derives the cut afresh from its stages' costs, and a
/// convolution whose builder did not state its input size is costed by
/// its parameters until its first forward. Such a net is cut differently
/// by its first call than by later ones: `resnet_cifar` at depth 20 and
/// width 4 cuts `[0, 24, 33]` on two workers fresh, `[0, 20, 33]` after
/// one call on 8×8 images. Builders that state it — `vgg_cnn`, `vgg` —
/// are cut the same by every call and every host.
fn worker_bounds(net: &Network) -> Vec<usize> {
    let costs: Vec<u64> = net.stages().map(stage_cost).collect();
    partition_bounds(&costs, costs.len().min(pool::configured_threads()))
}

/// Core supervised runtime: splits `state` into one owned worker thread
/// per run of [`worker_bounds`] — worker 0 feeding itself `indices` — then
/// runs the control plane on the calling thread: draining heartbeats and
/// final reports, checking the watchdog, and on any fault aborting,
/// draining within the shutdown grace and detaching whatever will not die.
/// Payloads, worker 0's losses among them, travel back by value over the
/// events channel, so joins never block on an unresponsive worker.
fn run_stream(
    state: ScheduledTrainer,
    data: &Dataset,
    indices: &[usize],
    config: &ThreadedConfig,
) -> Result<(ScheduledTrainer, Vec<f32>), PipelineFault> {
    let ScheduledTrainer {
        net,
        mut rank,
        config: run,
    } = state;
    let base = rank.group.completed();
    let end = base + indices.len();
    let bounds = worker_bounds(&net);
    let workers = bounds.len() - 1;
    let mut stages = net.into_stages().into_iter();
    // The workers are real OS threads, each calling kernels: park one pool
    // core for each beyond the first while they run (`pool::reserve`'s
    // rule; kernels are bit-identical at any thread count, so this shifts
    // wall-clock only).
    let cores = pool::reserve(workers.saturating_sub(1));
    let poll = config.watchdog.poll.max(BEAT_INTERVAL);
    let mut sup = StreamSupervisor::new(bounds.clone(), config.watchdog.clone());
    let abort = sup.abort_flag();

    // Control plane: heartbeats and final worker reports.
    let (events_tx, events_rx) = unbounded::<StageEvent>();
    let link = |(tx, rx): LinkEnd, stage: usize| ChannelLink {
        tx: Some(tx),
        rx,
        stage,
        tick: poll,
        abort: Arc::clone(&abort),
        events: events_tx.clone(),
    };
    // Worker 0 feeds itself the call's samples, each materialized when a
    // forward takes it.
    let (data, order) = (data.clone(), indices.to_vec());
    let mut up = Source::Feed(Box::new(move |mb| {
        let (x, label) = data.sample(order[mb - base]);
        Message::sample(mb, x, label)
    }));

    let plan = config.fault_plan.as_ref();
    let mut handles = Vec::with_capacity(workers);
    for (w, mut group) in rank.group.split(&bounds).into_iter().enumerate() {
        let owned = group.range();
        // Which cut this call's spans were measured under.
        let cut = format!("worker {w} of bounds {bounds:?}");
        let lane = group.lane(owned.start);
        lane.instant(pbp_trace::TracePhase::Partition, Some(cut));
        let (upper, lower) = link_ends();
        let worker = StageWorker {
            stages: stages.by_ref().take(owned.len()).collect(),
            rank: RankLoop::new(group),
            end,
            up: std::mem::replace(&mut up, Source::Link(link(lower, owned.end))),
            // The last worker owns the loss: no link below it.
            down: (w + 1 < workers).then(|| link(upper, owned.start)),
            losses: Vec::new(),
            struck: owned.start,
            injectors: plan
                .map(|p| owned.map(|s| p.rank_injector(s)).collect())
                .unwrap_or_default(),
            abort: Arc::clone(&abort),
            events: events_tx.clone(),
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("pbp-worker-{w}"))
                .spawn(move || worker.run_supervised())
                .expect("spawn pipeline worker"),
        );
    }
    // Drop the link end past the last worker and this thread's event
    // sender, so nothing outlives the workers but their reports.
    drop((up, events_tx));

    // ---- Control plane (this thread): watchdog + collector.
    while !sup.all_done() && !sup.grace_expired() {
        if let Ok(event) = events_rx.recv_timeout(poll) {
            sup.on_event(event);
        }
        sup.check_watchdog();
    }

    // Join only workers that already reported in (non-blocking by
    // construction); the rest are detached and exit on their own once
    // their blocked operation observes the abort flag or a disconnect.
    for (w, handle) in handles.into_iter().enumerate() {
        if sup.is_done(w) {
            let _ = handle.join();
        }
    }
    drop(cores);

    let mut done = sup.into_result()?;
    // Worker 0 retires backwards in microbatch order, last of all the
    // workers: its losses are the call's, in input order, and a short
    // record means the call did not complete.
    let losses = std::mem::take(&mut done[0].losses);
    if losses.len() < indices.len() {
        return Err(PipelineFault::Incomplete {
            expected: indices.len(),
            completed: losses.len(),
        });
    }
    let (stages, ranks): (Vec<Vec<Stage>>, Vec<RankLoop>) =
        done.into_iter().map(|d| (d.stages, d.rank)).unzip();
    // Worker 0 steps from the first sample to the last backward: the
    // longest rank's step time is the call's wall time. Every rank summed
    // the same losses.
    rank.train_ns += ranks.iter().map(|part| part.train_ns).max().unwrap_or(0);
    rank.loss_sum += ranks[0].loss_sum;
    rank.last_loss = ranks[0].last_loss;
    rank.group = StageGroup::join(ranks.into_iter().map(|part| part.group).collect());
    let state = ScheduledTrainer {
        net: Network::new(stages.into_iter().flatten().collect()),
        rank,
        config: run,
    };
    Ok((state, losses))
}

impl TrainEngine for ThreadedPipeline {
    fn label(&self) -> String {
        self.config.label()
    }

    fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        match self.stream(data, indices) {
            Ok(losses) => (losses.iter().map(|&l| l as f64).sum::<f64>(), losses.len()),
            // Fault recorded for take_fault; the runner checks it before
            // trusting the (empty) result.
            Err(_) => (0.0, 0),
        }
    }

    fn samples_per_update(&self) -> usize {
        self.state().samples_per_update()
    }

    fn align_stop(&self, pos: usize, proposed: usize, epoch_len: usize) -> usize {
        self.state().align_stop(pos, proposed, epoch_len)
    }

    fn snapshot_ready(&self) -> bool {
        self.state().snapshot_ready()
    }

    fn take_fault(&mut self) -> Option<PipelineFault> {
        self.fault.take()
    }

    fn set_tracer(&mut self, tracer: pbp_trace::Tracer) {
        if let Some(state) = self.state.as_mut() {
            state.set_tracer(tracer);
        }
    }

    /// The same engine-state section a [`ScheduledTrainer`] of the same
    /// [`ScheduledConfig`] writes. A snapshot's run section names the
    /// engine that wrote it, so a run resumes only under its own engine.
    fn write_state(&self, snap: &mut pbp_snapshot::SnapshotBuilder) {
        self.state().write_state(snap);
    }

    fn read_state(
        &mut self,
        archive: &pbp_snapshot::SnapshotArchive,
    ) -> Result<(), pbp_snapshot::SnapshotError> {
        self.state_mut().read_state(archive)
    }

    fn network_mut(&mut self) -> &mut Network {
        self.state_mut().network_mut()
    }

    fn samples_seen(&self) -> usize {
        self.state().samples_seen()
    }

    fn metrics(&self) -> EngineMetrics {
        let workers = self.worker_bounds().len() - 1;
        EngineMetrics {
            engine: self.config.label(),
            ..self.state().metrics_over(workers)
        }
    }

    fn into_network(self: Box<Self>) -> Network {
        ThreadedPipeline::into_network(*self)
    }
}

/// Stringifies a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One end of an in-process link: the sender towards the peer and the
/// receiver from it.
type LinkEnd = (Sender<Message>, Receiver<Message>);

/// The two ends of an in-process link, `(upper, lower)`: activations
/// travel down one unbounded channel, gradients up another.
fn link_ends() -> (LinkEnd, LinkEnd) {
    let (act_tx, act_rx) = unbounded();
    let (grad_tx, grad_rx) = unbounded();
    ((act_tx, grad_rx), (grad_tx, act_rx))
}

/// The peer hung up, or the supervisor raised the abort flag.
#[derive(Debug)]
pub(crate) struct Hangup;

/// A worker's end of an in-process [`Link`]: messages cross by
/// move; every wait is bounded so the abort flag is observed promptly and
/// the supervisor hears a heartbeat, one per tick, while the worker is
/// merely idle.
pub(crate) struct ChannelLink {
    /// `None` once severed by fault injection.
    tx: Option<Sender<Message>>,
    rx: Receiver<Message>,
    /// The worker's first stage, which its heartbeats name.
    stage: usize,
    /// At least [`BEAT_INTERVAL`].
    tick: Duration,
    abort: Arc<AtomicBool>,
    events: Sender<StageEvent>,
}

impl Link for ChannelLink {
    type Error = Hangup;

    /// A severed link, or a peer that already exited, silently loses the
    /// message: the workers left waiting for it notice the hang-up.
    fn send(&mut self, msg: Message) -> Result<(), Hangup> {
        if let Some(tx) = &self.tx {
            let _ = tx.send(msg);
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Message, Hangup> {
        loop {
            if self.abort.load(Ordering::Relaxed) {
                return Err(Hangup);
            }
            match self.rx.recv_timeout(self.tick) {
                Ok(msg) => return Ok(msg),
                Err(RecvTimeoutError::Timeout) => {
                    let _ = self.events.send(StageEvent::Beat { stage: self.stage });
                }
                // The peer died: nothing more will arrive.
                Err(RecvTimeoutError::Disconnected) => return Err(Hangup),
            }
        }
    }
}

/// Where a worker's activations come from: the owned form of the
/// [`Upstream`] a step borrows.
enum Source {
    /// Worker 0: yields microbatch `mb`'s [`Message::sample`].
    Feed(Box<dyn FnMut(usize) -> Message + Send>),
    /// Every other worker: the link to the worker above.
    Link(ChannelLink),
}

/// Everything one worker thread owns — what a `pbp-dist` rank holds: a
/// [`RankLoop`] and its run of stages, between its feed or the link above
/// and the link below.
struct StageWorker {
    stages: Vec<Stage>,
    rank: RankLoop,
    /// Global index one past the last microbatch of this streaming call.
    end: usize,
    up: Source,
    /// `None` on the last worker.
    down: Option<ChannelLink>,
    /// The loss of each microbatch retired, in order (worker 0 only).
    losses: Vec<f32>,
    /// The stage a panic report names: the one an injected crash struck,
    /// otherwise the first owned.
    struck: usize,
    /// One per owned stage, none without a plan: plan rank `s` is stage `s`.
    injectors: Vec<FaultInjector<RankFault>>,
    abort: Arc<AtomicBool>,
    events: Sender<StageEvent>,
}

impl StageWorker {
    /// Runs the rank loop under `catch_unwind`, then ships the stages,
    /// their rank and the outcome back to the supervisor over the events
    /// channel. Links are dropped *before* the final report so neighbours
    /// unblock even if the body panicked mid-message.
    fn run_supervised(mut self) {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run()))
            .err()
            .map(|payload| panic_message(payload.as_ref()));
        let StageWorker {
            stages,
            mut rank,
            up,
            down,
            losses,
            struck,
            events,
            ..
        } = self;
        if panic.is_some() {
            let lane = rank.group.lane(struck);
            lane.instant(pbp_trace::TracePhase::Fault, panic.clone());
        }
        rank.group.flush_trace();
        drop((up, down));
        let _ = events.send(StageEvent::Done(Box::new(StageDone {
            stage_idx: struck,
            stages,
            rank,
            losses,
            panic,
        })));
    }

    /// Steps the rank until every microbatch of the call has completed, a
    /// neighbour hangs up, or the supervisor raises the abort flag. A
    /// stepping worker beats in its first stage's name, at its first step
    /// and then at most once per [`BEAT_INTERVAL`]: alive whether or not it
    /// has a link to wait on.
    fn run(&mut self) {
        let mut beat: Option<Instant> = None;
        while let Some(next) = self.rank.next_step(self.end) {
            if self.abort.load(Ordering::Relaxed) {
                return;
            }
            if beat.is_none_or(|at| at.elapsed() >= BEAT_INTERVAL) {
                let stage = self.rank.group.range().start;
                let _ = self.events.send(StageEvent::Beat { stage });
                beat = Some(Instant::now());
            }
            if let Step::Backward(update) = next {
                self.inject(update);
            }
            let up = match &mut self.up {
                Source::Feed(feed) => Upstream::Feed(feed.as_mut()),
                Source::Link(link) => Upstream::Link(link),
            };
            match self
                .rank
                .step(&mut self.stages, up, self.down.as_mut(), self.end)
            {
                Ok(Some(Step::Backward(_))) if matches!(self.up, Source::Feed(_)) => {
                    self.losses.push(self.rank.last_loss)
                }
                Ok(_) => {}
                Err(RankError::Link(Hangup)) => return,
                Err(desync) => panic!("stage {}: {desync:?}", self.struck),
            }
        }
    }

    /// Fault-injection point: an `@N` rank fault strikes as the worker
    /// hosting its stage — rank `stage` of the plan — turns to backward N,
    /// exactly where a real stage dies; the owned stages are consulted in
    /// backward order, last to first.
    fn inject(&mut self, update: usize) {
        for (stage, injector) in self.rank.group.range().zip(&self.injectors).rev() {
            match injector.on_backward(update as u64) {
                None => {}
                Some(RankFault::Crash) => {
                    self.struck = stage;
                    panic!("injected fault: stage {stage} panics at update {update}")
                }
                Some(RankFault::Stall(d) | RankFault::Jitter(d)) => {
                    // The silence that follows is this stage's.
                    let _ = self.events.send(StageEvent::Beat { stage });
                    let lane = self.rank.group.lane(stage);
                    lane.begin(pbp_trace::TracePhase::Stall, None, None);
                    std::thread::sleep(d);
                    lane.end();
                }
                Some(RankFault::Sever) => {
                    if let Source::Link(up) = &mut self.up {
                        up.tx = None;
                    }
                    if let Some(down) = &mut self.down {
                        down.tx = None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delayed::{DelayedConfig, DelayedTrainer};
    use crate::fault::FaultSpec;
    use crate::schedule::MicrobatchSchedule;
    use crate::trainer::evaluate;
    use pbp_data::{spirals, DatasetSpec, SyntheticImages};
    use pbp_nn::models::{mlp, vgg_cnn};
    use pbp_optim::Hyperparams;
    use pbp_tensor::Tensor;
    use pbp_trace::{TracePhase, Tracer, PID_WALL};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule() -> LrSchedule {
        // Batch-8 reference scaled to update size one (Eq. 9).
        let hp = pbp_optim::scale_hyperparams(Hyperparams::new(0.1, 0.9), 8, 1);
        LrSchedule::constant(hp)
    }

    /// `n` sample indices cycling through `data`.
    fn cyclic(data: &Dataset, n: usize) -> Vec<usize> {
        (0..n).map(|i| i % data.len()).collect()
    }

    #[test]
    fn fill_drain_threaded_matches_sequential_sgdm() {
        let mut rng = StdRng::seed_from_u64(0);
        let net_a = mlp(&[2, 12, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(0);
        let net_b = mlp(&[2, 12, 3], &mut rng);
        let data = spirals(3, 14, 0.05, 3);
        let order = cyclic(&data, 40);
        let mut threaded = ThreadedPipeline::new(net_a, ThreadedConfig::fill_drain(schedule()));
        let losses = threaded.stream(&data, &order).expect("clean run");
        let mut sgd = DelayedTrainer::new(net_b, DelayedConfig::sgdm(1, schedule()));
        let mut ref_losses = Vec::new();
        for &i in &order {
            let (x, labels) = data.batch(&[i]);
            ref_losses.push(sgd.train_batch(&x, &labels));
        }
        let na = threaded.into_network();
        let nb = sgd.into_network();
        assert_eq!(losses.len(), ref_losses.len());
        for (a, b) in losses.iter().zip(&ref_losses) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
        for s in 0..na.num_stages() {
            for (p, q) in na.stage(s).params().iter().zip(nb.stage(s).params()) {
                assert_eq!(p.as_slice(), q.as_slice(), "stage {s}");
            }
        }
    }

    #[test]
    fn pb_threaded_trains_and_stays_finite() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = mlp(&[2, 16, 16, 3], &mut rng);
        let data = pbp_data::blobs(3, 60, 0.4, 4);
        let order: Vec<usize> = (0..10).flat_map(|e| data.epoch_order(5, e)).collect();
        let cfg = ThreadedConfig::pb(schedule()).with_mitigation(Mitigation::lwpv_scd());
        let mut engine = ThreadedPipeline::new(net, cfg);
        let losses = engine.stream(&data, &order).expect("clean run");
        assert_eq!(losses.len(), order.len());
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(TrainEngine::metrics(&engine).samples_per_sec() > 0.0);
        // Loss should clearly drop over training.
        let head: f32 = losses[..100].iter().sum::<f32>() / 100.0;
        let tail: f32 = losses[losses.len() - 100..].iter().sum::<f32>() / 100.0;
        assert!(tail < head * 0.8, "head {head} tail {tail}");
        let (_, acc) = evaluate(engine.network_mut(), &data, 16);
        assert!(acc > 0.8, "threaded PB accuracy {acc}");
    }

    /// Eq. 1 made physical, read off span order instead of a clock, at
    /// whatever worker count the thread budget gives: under fill&drain at
    /// `N = 4` every stage streams its whole window — four forwards in
    /// flight, worker 0's first stage included — and never begins a
    /// window's forward while a microbatch of the previous one is still
    /// open (the pipeline drains at each update), while under PB no stage
    /// outruns its own weight-version FIFO (`version_lag + 1` forwards in
    /// flight) and each worker's first stage — fed as fast as the worker
    /// above allows — fills the shallowest FIFO of its worker's run, the
    /// run-ahead rule of the group. A lane is recorded by one thread, so
    /// its span order is execution order.
    #[test]
    fn fill_drain_streams_its_window_and_pb_fills_its_version_fifo() {
        // Per stage, the most forwards ever in flight, and whether a
        // forward began while a microbatch of an earlier update window was
        // open; and the cut the engine made, which each worker's first lane
        // also records.
        let max_in_flight = |config: ThreadedConfig| -> (Vec<(usize, bool)>, Vec<usize>) {
            let m = config.run.plan.microbatches_per_update();
            let mut rng = StdRng::seed_from_u64(2);
            let net = mlp(&[2, 12, 12, 12, 12, 3], &mut rng);
            let stages = net.num_stages();
            let data = spirals(3, 20, 0.05, 3);
            let tracer = Tracer::new();
            let mut engine = ThreadedPipeline::new(net, config);
            engine.set_tracer(tracer.clone());
            engine.stream(&data, &cyclic(&data, 60)).expect("clean run");
            let trace = tracer.finish();
            let bounds = engine.worker_bounds();
            for (w, run) in bounds.windows(2).enumerate() {
                let lane = trace.lane(PID_WALL, &format!("stage-{}", run[0]));
                let cut: Vec<_> = lane
                    .expect("stage lane")
                    .instants
                    .iter()
                    .filter(|i| i.phase == TracePhase::Partition)
                    .map(|i| i.detail.clone())
                    .collect();
                let want = format!("worker {w} of bounds {bounds:?}");
                assert_eq!(cut, [Some(want)], "one record of the cut per call");
            }
            let in_flight = (0..stages)
                .map(|s| {
                    let lane = trace
                        .lane(PID_WALL, &format!("stage-{s}"))
                        .expect("stage lane");
                    let (mut in_flight, mut max, mut crossed) = (0usize, 0usize, false);
                    for span in &lane.spans {
                        match span.phase {
                            TracePhase::Forward => {
                                // Forwards and backwards each run in
                                // microbatch order, so `in_flight` open
                                // forwards are exactly microbatches
                                // i-in_flight+1..=i.
                                let i = span.microbatch.expect("tagged") as usize;
                                in_flight += 1;
                                max = max.max(in_flight);
                                crossed |= (i + 1 - in_flight) / m != i / m;
                            }
                            TracePhase::BackwardInput => in_flight -= 1,
                            _ => {}
                        }
                    }
                    assert_eq!(in_flight, 0, "stage {s} ends drained");
                    (max, crossed)
                })
                .collect();
            (in_flight, bounds)
        };
        let (fill_drain, _) = max_in_flight(ThreadedConfig::new(ScheduledConfig::fill_drain(
            4,
            schedule(),
        )));
        assert!(
            fill_drain.iter().all(|&f| f == (4, false)),
            "fill&drain streams each window of four, one window at a time: {fill_drain:?}"
        );
        let (pb, bounds) = max_in_flight(ThreadedConfig::pb(schedule()));
        let pb: Vec<usize> = pb.into_iter().map(|(max, _)| max).collect();
        let lag = |s| MicrobatchSchedule::PipelinedBackprop.stage_version_lag(s, pb.len() + 1);
        for (s, &m) in pb.iter().enumerate() {
            assert!(m <= lag(s) + 1, "stage {s} outran its version FIFO: {pb:?}");
        }
        for run in bounds.windows(2) {
            let shallowest = (run[0]..run[1]).map(lag).min().expect("non-empty run");
            let first = run[0];
            assert_eq!(
                pb[first],
                shallowest + 1,
                "stage {first} fills its worker's version FIFO: {pb:?}"
            );
        }
    }

    /// Worker 0 feeds itself from the call's slice of the dataset and
    /// records each loss it retires: over two calls (the second starting
    /// mid-run, so its feed is offset by the first's microbatches), every
    /// plan's streamed losses are the sequential engine's f32s bit for bit.
    #[test]
    fn worker_0_feeds_itself_the_sequential_engines_samples() {
        let data = spirals(3, 9, 0.05, 3);
        let calls = [
            cyclic(&data, 13),
            (0..11).map(|i| (5 * i) % data.len()).collect(),
        ];
        for run in [
            ScheduledConfig::pb(schedule()).with_mitigation(Mitigation::lwpv_scd()),
            ScheduledConfig::one_f_one_b(4, schedule()),
            ScheduledConfig::two_bp(4, schedule()),
            ScheduledConfig::fill_drain(4, schedule()),
        ] {
            let net = || mlp(&[2, 8, 8, 8, 3], &mut StdRng::seed_from_u64(6));
            let mut threaded = ThreadedPipeline::new(net(), ThreadedConfig::new(run.clone()));
            let mut sequential = ScheduledTrainer::new(net(), run.clone());
            for order in &calls {
                let streamed = threaded.stream(&data, order).expect("clean run");
                let want: Vec<f32> = order
                    .iter()
                    .map(|&i| {
                        let (x, label) = data.sample(i);
                        sequential.train_sample(x, label)
                    })
                    .collect();
                let bits = |losses: &[f32]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&streamed), bits(&want), "{}", run.label());
            }
        }
    }

    /// A worker with no link — worker 0 of one, feeding itself — waits on
    /// nothing, so it beats as it steps; and a raised abort stops it
    /// before its next step: it takes no further sample, and a detached
    /// worker cannot train on alone.
    #[test]
    fn a_lone_worker_beats_as_it_steps_and_stops_at_an_abort() {
        let lone = |abort: bool| {
            let net = mlp(&[2, 8, 3], &mut StdRng::seed_from_u64(7));
            let config = ScheduledConfig::pb(schedule());
            let group = StageGroup::new(&net, 0..net.num_stages(), &config);
            let x = Tensor::from_vec(vec![0.5, -1.0], &[2]).expect("a sample");
            let (events, beats) = unbounded();
            let mut worker = StageWorker {
                stages: net.into_stages(),
                rank: RankLoop::new(group),
                end: 3,
                up: Source::Feed(Box::new(move |mb| Message::sample(mb, &x, 1))),
                down: None,
                losses: Vec::new(),
                struck: 0,
                injectors: Vec::new(),
                abort: Arc::new(AtomicBool::new(abort)),
                events,
            };
            worker.run();
            let events = std::iter::from_fn(|| beats.try_recv().ok());
            let beats = events.filter(|e| matches!(e, StageEvent::Beat { stage: 0 }));
            (
                worker.rank.group.completed(),
                worker.losses.len(),
                beats.count(),
            )
        };
        let (completed, losses, beats) = lone(false);
        assert_eq!((completed, losses), (3, 3));
        assert!(beats >= 1, "a lone worker is heard from");
        assert_eq!(lone(true), (0, 0, 0), "an aborted worker steps no more");
    }

    /// The ledger's cnn states its input size, so its costs, and with them
    /// its cut before `fc0`, are the same before a call as after it.
    #[test]
    fn a_net_that_states_its_input_size_cuts_the_same_before_and_after_a_call() {
        let net = vgg_cnn(3, 16, 4, 16, 256, 10, &mut StdRng::seed_from_u64(0));
        let cut = |net: &Network| {
            let costs: Vec<u64> = net.stages().map(stage_cost).collect();
            partition_bounds(&costs, 2)
        };
        assert_eq!(cut(&net), [0, 4, 6]);
        let mut engine = ThreadedPipeline::new(net, ThreadedConfig::pb(schedule()));
        let bounds = engine.worker_bounds();
        let data = SyntheticImages::new(DatasetSpec::cifar_sim(16), 1).generate(4, 0);
        engine.stream(&data, &[0, 1, 2, 3]).expect("clean run");
        assert_eq!(engine.worker_bounds(), bounds);
        assert_eq!(cut(&engine.into_network()), [0, 4, 6]);
    }

    #[test]
    fn injected_panic_poisons_the_engine_with_a_typed_fault() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = mlp(&[2, 8, 8, 3], &mut rng);
        let cfg = ThreadedConfig::fill_drain(schedule())
            .with_fault_plan(FaultPlan::new(0).at_rank(1, FaultSpec::new(3, RankFault::Crash)))
            .with_watchdog(Watchdog::fast());
        let mut engine = ThreadedPipeline::new(net, cfg);
        let data = spirals(3, 7, 0.05, 3);
        let err = engine.stream(&data, &cyclic(&data, 20)).unwrap_err();
        assert!(
            matches!(err, PipelineFault::StagePanicked { stage: 1, .. }),
            "{err}"
        );
        // The fault is stored for the runner, exactly once.
        assert_eq!(TrainEngine::take_fault(&mut engine), Some(err));
        assert_eq!(TrainEngine::take_fault(&mut engine), None);
    }
}
