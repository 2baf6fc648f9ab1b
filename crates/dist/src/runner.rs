//! The distributed stage runner: one process executes its stage group's
//! slice of a [`MicrobatchSchedule`] against socket neighbors.
//!
//! A rank is a [`RankLoop`] over `topology.range(rank)` between two
//! [`ReliableConn`]s — the rank loop a `pbp-pipeline` worker thread steps
//! between two channels, and so bit-identical to the sequential
//! [`ScheduledTrainer`](pbp_pipeline::ScheduledTrainer) however the ranks
//! interleave (DESIGN §12). This file adds rank 0's feed — the dataset in
//! the deterministic `(seed, epoch)` order — and what happens between
//! steps: reconnect trace instants, the injected abort, snapshots, the
//! rewind barrier.
//!
//! ## Drain barriers
//!
//! Layer activation stashes are not serialized (snapshots require an
//! empty pipeline, as everywhere in this codebase), so the runner caps
//! forwards at the next snapshot boundary until backwards catch up:
//! when the backward cursor reaches the boundary nothing is in flight
//! and the rank's full state snapshots cleanly into its rank-prefixed
//! file family. Heartbeats go to both neighbors right before the write
//! so the slow save never trips a peer's stall watchdog.

use crate::codec::Frame;
use crate::error::DistError;
use crate::launch::read_rewind_token;
use crate::reliable::{LinkEndpoint, LinkIdentity, LinkOptions, ReconnectPolicy, ReliableConn};
use crate::topology::{fold, Topology};
use crate::transport::Connection;
use pbp_data::Dataset;
use pbp_nn::Network;
use pbp_optim::{LrSchedule, Mitigation};
use pbp_pipeline::{
    FaultPlan, LinkDir, Message, MicrobatchSchedule, RankError, RankLoop, ScheduledConfig,
    StageCounters, StageGroup, Step, Upstream,
};
use pbp_snapshot::{
    rank_prefix, snapshot_file_name, SnapshotArchive, SnapshotBuilder, SnapshotError, StateReader,
    StateWriter,
};
use pbp_trace::{TracePhase, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Section of a rank snapshot holding the runner's distributed state:
/// identity (rank, world, run digest), then the [`RankLoop`]'s: the f64
/// loss sum, the [`StageGroup`] state (microbatches completed, the owned
/// stages' counters — update counts, busy time, Eq. 5 delay histograms —
/// and their cells) and the step time. Everything up to and including
/// the counters can be read without reconstructing stage cells.
pub const SECTION_DIST: &str = "dist";

/// How a rank behaves when the wire misbehaves. The default is the
/// classic contract: no injected faults, any link fault is terminal for
/// the process, and the launcher restarts the whole group.
#[derive(Debug, Clone, Default)]
pub struct RankRecovery {
    /// The fault script (`PBP_NET_FAULTS`): each link end applies its own
    /// slice of the link clauses. A rank process can only `crash` (via
    /// [`RankSpec::abort_after`]); any other kind for it is a bad spec.
    pub net_faults: Option<FaultPlan>,
    /// Reconnect-with-replay budget per link fault; `None` keeps wire
    /// faults terminal.
    pub reconnect: Option<ReconnectPolicy>,
    /// Surviving-rank mode: after an irrecoverable link fault, park at
    /// the rewind barrier for up to this long waiting for the
    /// launcher's rewind token, then roll back and rejoin. `None`
    /// (default) exits instead — the kill-group fallback.
    pub rewind: Option<Duration>,
    /// Rewind generation this process starts in (0 for a first launch;
    /// the launcher's `--generation` after a fine-grained respawn).
    pub generation: u64,
}

/// When and where a rank writes its snapshots.
#[derive(Debug, Clone)]
pub struct RankSnapshots {
    /// Directory shared by all ranks; files are rank-prefixed so
    /// concurrent writers never collide.
    pub dir: PathBuf,
    /// Snapshot every this many microbatches. Must be a multiple of the
    /// plan's microbatches-per-update so no accumulation window is open.
    pub every: usize,
    /// Most-recent snapshots retained per rank (older files this run
    /// wrote are pruned).
    pub keep: usize,
}

impl RankSnapshots {
    /// Snapshots into `dir` every `every` microbatches, keeping 3.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        RankSnapshots {
            dir: dir.into(),
            every,
            keep: 3,
        }
    }
}

/// The full specification of one rank's slice of a distributed run.
/// Every rank derives it from the same launch arguments, and the run
/// digest folds the parts that must agree, so mismatched processes are
/// rejected at handshake time instead of silently diverging.
#[derive(Debug, Clone)]
pub struct RankSpec {
    /// This process's rank.
    pub rank: usize,
    /// The stage partition shared by the whole launch.
    pub topology: Topology,
    /// The schedule every stage executes.
    pub plan: MicrobatchSchedule,
    /// Delay-mitigation method (Section 3).
    pub mitigation: Mitigation,
    /// Weight stashing: backward under the exact forward weights.
    pub weight_stashing: bool,
    /// Learning-rate/momentum schedule in microbatch units.
    pub schedule: LrSchedule,
    /// Seed for the deterministic epoch order (rank 0's data feed).
    pub seed: u64,
    /// Total microbatches to train (epochs × dataset length).
    pub total_microbatches: usize,
    /// Watchdog window: a neighbor silent past this is a typed fault.
    pub stall: Duration,
    /// Snapshot cadence; `None` disables snapshots (and resume).
    pub snapshots: Option<RankSnapshots>,
    /// Microbatch counter to resume from (0 = fresh start). Must name an
    /// existing snapshot of this rank's family.
    pub resume_at: usize,
    /// Fault injection: abort the process (as a crash would) right after
    /// this many microbatches have completed backward
    /// ([`FaultPlan::process_crash`]: the clause `rank:<r>:crash@<k>`).
    pub abort_after: Option<usize>,
    /// Chaos-hardening knobs: wire fault injection, reconnect budget,
    /// and the surviving-rank rewind barrier.
    pub recovery: RankRecovery,
}

impl RankSpec {
    /// The digest both handshakes carry: topology, seed, length and
    /// schedule must all agree between neighbors.
    pub fn digest(&self) -> u64 {
        let mut h = self.topology.digest();
        h = fold(h, self.seed);
        h = fold(h, self.total_microbatches as u64);
        h = fold(h, u64::from(self.weight_stashing));
        for b in self.plan.label().bytes() {
            h = fold(h, u64::from(b));
        }
        for b in self.mitigation.label().bytes() {
            h = fold(h, u64::from(b));
        }
        h
    }

    fn validate(&self, net: &Network) -> Result<(), DistError> {
        if self.rank >= self.topology.world() {
            return Err(DistError::Spec(format!(
                "rank {} out of range for world {}",
                self.rank,
                self.topology.world()
            )));
        }
        if self.topology.layer_stages() != net.num_stages() {
            return Err(DistError::Spec(format!(
                "topology partitions {} stages, network has {}",
                self.topology.layer_stages(),
                net.num_stages()
            )));
        }
        let m = self.plan.microbatches_per_update();
        if let Some(snaps) = &self.snapshots {
            if snaps.every == 0 || !snaps.every.is_multiple_of(m) {
                return Err(DistError::Spec(format!(
                    "snapshot cadence {} must be a positive multiple of the \
                     plan's {m} microbatches per update",
                    snaps.every
                )));
            }
            if snaps.keep == 0 {
                return Err(DistError::Spec("must keep at least one snapshot".into()));
            }
        }
        if let Some(plan) = &self.recovery.net_faults {
            plan.process_crash(self.rank).map_err(DistError::Spec)?;
        }
        if self.recovery.rewind.is_some() && self.snapshots.is_none() {
            return Err(DistError::Spec(
                "surviving-rank rewind requires snapshots".into(),
            ));
        }
        if self.resume_at > 0 {
            let snaps = self.snapshots.as_ref().ok_or_else(|| {
                DistError::Spec("resume requested but snapshots are disabled".into())
            })?;
            if !self.resume_at.is_multiple_of(snaps.every)
                && self.resume_at != self.total_microbatches
            {
                return Err(DistError::Spec(format!(
                    "resume point {} is not on the snapshot cadence {}",
                    self.resume_at, snaps.every
                )));
            }
        }
        Ok(())
    }
}

/// What a finished rank hands back: the network (owned stages trained,
/// the rest untouched), the loss sum over every microbatch, and the
/// metrics for the stages this rank owns.
pub struct RankOutcome {
    /// The rank's network; only the stages in the rank's topology range
    /// carry trained weights.
    pub net: Network,
    /// Microbatches fully processed (forward and backward).
    pub samples_seen: usize,
    /// Sum of per-microbatch losses, accumulated in microbatch order —
    /// bit-identical across ranks and to the sequential core.
    pub loss_sum: f64,
    /// Per-stage counters, indexed by *global* stage; only this rank's
    /// owned stages are populated.
    pub metrics: pbp_pipeline::EngineMetrics,
}

/// The path of rank `rank`'s snapshot at microbatch counter `counter`.
pub fn rank_snapshot_path(dir: &std::path::Path, rank: usize, counter: usize) -> PathBuf {
    dir.join(snapshot_file_name(&rank_prefix(rank), counter))
}

/// Runs one rank's slice of the distributed run to completion.
///
/// `upstream` must be `None` exactly for rank 0 and `downstream` `None`
/// exactly for the last rank. `tracer`, when enabled, records the same
/// per-stage spans the sequential core records, in lanes named
/// `rank{r}/stage-{s}` and tagged with microbatch index and weight
/// version.
pub fn run_rank(
    net: Network,
    data: &Dataset,
    spec: &RankSpec,
    upstream: Option<LinkEndpoint>,
    downstream: Option<LinkEndpoint>,
    tracer: Option<&Tracer>,
) -> Result<RankOutcome, DistError> {
    spec.validate(&net)?;
    let world = spec.topology.world();
    if upstream.is_none() != (spec.rank == 0) {
        return Err(DistError::Spec(
            "exactly rank 0 must run without an upstream link".into(),
        ));
    }
    if downstream.is_none() != (spec.rank == world - 1) {
        return Err(DistError::Spec(
            "exactly the last rank must run without a downstream link".into(),
        ));
    }
    let mut rank = Rank::new(net, spec, upstream, downstream, tracer);
    rank.establish_links()?;
    if spec.resume_at > 0 {
        rank.restore(spec.resume_at)?;
    }
    if spec.recovery.rewind.is_some() && !rank.written.contains(&spec.resume_at) {
        // Surviving-rank mode needs a snapshot at the current resume
        // point so a rewind back to it is always possible, even before
        // the first cadence boundary.
        rank.save_snapshot(spec.resume_at)?;
    }
    loop {
        match rank.run(data) {
            Ok(()) => break,
            Err(e) => rank.rewind_or_fail(e)?,
        }
    }
    Ok(rank.finish())
}

/// One rank's execution state.
struct Rank<'a> {
    spec: &'a RankSpec,
    net: Network,
    /// The owned stages' rank loop: executor, microbatch cursors, loss
    /// sum.
    rank: RankLoop,
    tracer: Tracer,
    upstream: Option<ReliableConn>,
    downstream: Option<ReliableConn>,
    /// Cached epoch order for rank 0's data feed.
    order: Vec<usize>,
    order_epoch: usize,
    /// Heartbeat counter (monotonic per link pair).
    beat: u64,
    /// Snapshot counters this process wrote, oldest first (for pruning).
    written: Vec<usize>,
    /// Rewind generation this rank is executing in.
    generation: u64,
    /// Link reconnects already surfaced as trace instants.
    seen_reconnects: u64,
}

impl<'a> Rank<'a> {
    fn new(
        net: Network,
        spec: &'a RankSpec,
        upstream: Option<LinkEndpoint>,
        downstream: Option<LinkEndpoint>,
        tracer: Option<&Tracer>,
    ) -> Self {
        let tracer = tracer.cloned().unwrap_or_default();
        let rank = fresh_rank(&net, spec, &tracer);
        let digest = spec.digest();
        // Link `i` joins rank `i` and rank `i+1`; each end applies the
        // faults scripted for frames *arriving* at it — activations
        // travel Down (toward higher ranks), gradients Up.
        let conn = |endpoint, peer: usize, link: usize, dir: LinkDir| {
            let identity = LinkIdentity {
                my_rank: spec.rank as u32,
                peer_rank: peer as u32,
                world: spec.topology.world() as u32,
                digest,
            };
            let faults = spec.recovery.net_faults.as_ref();
            let opts = LinkOptions {
                policy: spec.recovery.reconnect,
                injector: faults
                    .map(|p| p.link_injector(link, dir))
                    .unwrap_or_default(),
                stall: spec.stall,
                generation: spec.recovery.generation,
                ..LinkOptions::default()
            };
            ReliableConn::new(endpoint, identity, opts)
        };
        let upstream = upstream.map(|ep| conn(ep, spec.rank - 1, spec.rank - 1, LinkDir::Down));
        let downstream = downstream.map(|ep| conn(ep, spec.rank + 1, spec.rank, LinkDir::Up));
        Rank {
            spec,
            net,
            rank,
            tracer,
            upstream,
            downstream,
            order: Vec::new(),
            order_epoch: usize::MAX,
            beat: 0,
            written: Vec::new(),
            generation: spec.recovery.generation,
            seen_reconnects: 0,
        }
    }

    /// Connects and handshakes both links. Dialing upstream before
    /// accepting downstream lets the chain come up from rank 0 without
    /// deadlock.
    fn establish_links(&mut self) -> Result<(), DistError> {
        self.links().try_for_each(ReliableConn::establish)
    }

    /// The rank's links, upstream first.
    fn links(&mut self) -> impl Iterator<Item = &mut ReliableConn> {
        self.upstream.iter_mut().chain(self.downstream.iter_mut())
    }

    /// Records one of the rank's own events — "rank r {what}" — on its
    /// first trace lane; faults and restarts also go to stderr.
    fn instant(&mut self, phase: TracePhase, what: String) {
        let detail = format!("rank {} {what}", self.spec.rank);
        if matches!(phase, TracePhase::Fault | TracePhase::Restart) {
            eprintln!("{detail}");
        }
        let first = self.rank.group.range().start;
        self.rank.group.lane(first).instant(phase, Some(detail));
    }

    /// Where forwards stop for now: the end of the run, or the next
    /// snapshot boundary until backwards catch up (drain barrier).
    fn fwd_limit(&self) -> usize {
        let total = self.spec.total_microbatches;
        match &self.spec.snapshots {
            Some(snaps) => total.min((self.rank.group.completed() / snaps.every + 1) * snaps.every),
            None => total,
        }
    }

    fn run(&mut self, data: &Dataset) -> Result<(), DistError> {
        let total = self.spec.total_microbatches;
        let range = self.rank.group.range();
        loop {
            let limit = self.fwd_limit();
            let (seed, order, order_epoch) =
                (self.spec.seed, &mut self.order, &mut self.order_epoch);
            // Rank 0 feeds from the dataset in the deterministic
            // (seed, epoch) order the sequential core uses.
            let mut feed = |mb: usize| {
                let epoch = mb / data.len();
                if epoch != *order_epoch {
                    *order = data.epoch_order(seed, epoch);
                    *order_epoch = epoch;
                }
                let (x, label) = data.sample(order[mb % data.len()]);
                Message::sample(mb, x, label)
            };
            let up = match self.upstream.as_mut() {
                Some(link) => Upstream::Link(link),
                None => Upstream::Feed(&mut feed),
            };
            let stages = &mut self.net.stages_mut()[range.clone()];
            let step = self.rank.step(stages, up, self.downstream.as_mut(), limit);
            let Some(step) = step.map_err(|e| match e {
                RankError::Link(e) => e,
                desync => DistError::Corrupt(format!("link desynchronized: {desync:?}")),
            })?
            else {
                break;
            };
            self.note_reconnects();
            if let Step::Backward(mb) = step {
                self.after_backward(mb + 1)?;
            }
        }
        self.rank.group.flush_trace();
        // Final snapshot (unconditional): the launcher assembles the full
        // network from every rank's state at the end of the run.
        if self.spec.snapshots.is_some() && self.written.last() != Some(&total) {
            self.save_snapshot(total)?;
        }
        // Courteous shutdown; a peer that already exited is fine. Send
        // the bye on every link first, then drain each link until the
        // peer's bye arrives: closing a TCP socket with unread trailing
        // acks in its buffer would RST the link and can destroy data
        // the peer has not read yet (its last gradients).
        let bye = Frame::Shutdown {
            rank: self.spec.rank as u32,
        };
        for link in self.links() {
            let _ = link.send(&bye);
        }
        let stall = self.spec.stall;
        for link in self.links() {
            link.drain_shutdown(stall);
        }
        Ok(())
    }

    /// The hooks that follow a backward, `done` microbatches in: the
    /// injected abort, and a snapshot when `done` is a drain barrier.
    fn after_backward(&mut self, done: usize) -> Result<(), DistError> {
        if self.spec.abort_after == Some(done) {
            eprintln!(
                "rank {}: injected abort after {done} microbatches",
                self.spec.rank
            );
            std::process::abort();
        }
        if let Some(snaps) = &self.spec.snapshots {
            if done.is_multiple_of(snaps.every)
                && done > self.spec.resume_at
                && done < self.spec.total_microbatches
            {
                self.save_snapshot(done)?;
            }
        }
        Ok(())
    }

    /// Surfaces link reconnects as `Reconnect` trace instants on the
    /// rank's first lane, one per reconnect since the last check.
    fn note_reconnects(&mut self) {
        let total: u64 = self.links().map(|link| link.reconnects()).sum();
        while self.seen_reconnects < total {
            self.seen_reconnects += 1;
            let what = format!("link reconnect {}", self.seen_reconnects);
            self.instant(TracePhase::Reconnect, what);
        }
    }

    /// Sends a heartbeat on both links — called before slow local work
    /// (snapshot writes) so peers' stall watchdogs keep quiet.
    fn heartbeat(&mut self) {
        self.beat += 1;
        let frame = Frame::Heartbeat {
            rank: self.spec.rank as u32,
            beat: self.beat,
        };
        for link in self.links() {
            let _ = link.send(&frame);
        }
    }

    fn save_snapshot(&mut self, counter: usize) -> Result<(), DistError> {
        let snaps = self.spec.snapshots.as_ref().expect("caller checked");
        let dir = snaps.dir.clone();
        let keep = snaps.keep;
        self.heartbeat();
        std::fs::create_dir_all(&dir)?;
        let mut snap = SnapshotBuilder::new();
        pbp_nn::snapshot::write_network(&self.net, &mut snap);
        let mut w = StateWriter::new();
        w.put_u32(self.spec.rank as u32);
        w.put_u32(self.spec.topology.world() as u32);
        w.put_u64(self.spec.digest());
        w.put_f64(self.rank.loss_sum);
        self.rank.group.write_state(&mut w);
        w.put_u128(self.rank.train_ns);
        snap.add_section(SECTION_DIST, w.into_bytes());
        let path = rank_snapshot_path(&dir, self.spec.rank, counter);
        snap.save_atomic(&path)?;
        self.written.push(counter);
        while self.written.len() > keep {
            let old = self.written.remove(0);
            match std::fs::remove_file(rank_snapshot_path(&dir, self.spec.rank, old)) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn restore(&mut self, counter: usize) -> Result<(), DistError> {
        let snaps = self.spec.snapshots.as_ref().expect("validated");
        let path = rank_snapshot_path(&snaps.dir, self.spec.rank, counter);
        let archive = SnapshotArchive::load(&path)?;
        pbp_nn::snapshot::read_network(&mut self.net, &archive)?;
        let mut r = StateReader::new(archive.section(SECTION_DIST)?);
        let rank = r.take_u32()? as usize;
        let world = r.take_u32()? as usize;
        let digest = r.take_u64()?;
        if rank != self.spec.rank
            || world != self.spec.topology.world()
            || digest != self.spec.digest()
        {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot belongs to rank {rank}/{world} of run {digest:#x}, this process is \
                 rank {}/{} of run {:#x}",
                self.spec.rank,
                self.spec.topology.world(),
                self.spec.digest(),
            ))
            .into());
        }
        self.rank.loss_sum = r.take_f64()?;
        self.rank.group.read_state(&mut r, "dist")?;
        self.rank.train_ns = r.take_u128()?;
        r.finish()?;
        let samples = self.rank.group.completed();
        if samples != counter {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot {path:?} covers {samples} microbatches, file name says {counter}"
            ))
            .into());
        }
        if !self.written.contains(&counter) {
            self.written.push(counter);
        }
        Ok(())
    }

    /// The surviving-rank rewind barrier. Called when `run` surfaced an
    /// error: if this rank is configured to survive and the error is a
    /// link fault, park until the launcher posts a rewind token for a
    /// newer generation, then roll the whole rank state back to the
    /// token's resume point and rejoin the group. Anything else — or a
    /// barrier timeout — propagates the original error so the process
    /// exits and the launcher's kill-group fallback takes over.
    fn rewind_or_fail(&mut self, err: DistError) -> Result<(), DistError> {
        let Some(wait) = self.spec.recovery.rewind else {
            return Err(err);
        };
        let rewindable = matches!(
            err,
            DistError::Io(_)
                | DistError::Corrupt(_)
                | DistError::ChecksumMismatch
                | DistError::PeerClosed
                | DistError::PeerStalled(_)
                | DistError::StaleGeneration { .. }
        );
        if !rewindable {
            return Err(err);
        }
        let snaps = self.spec.snapshots.as_ref().expect("validated");
        let dir = snaps.dir.clone();
        self.instant(TracePhase::Fault, format!("parking for rewind: {err}"));
        // Drop both links so neighbors observe EOF immediately instead
        // of waiting out their stall windows, cascading the park down
        // the chain.
        self.links().for_each(ReliableConn::disconnect);
        let what = format!("awaiting rewind token past generation {}", self.generation);
        self.instant(TracePhase::Backoff, what);
        let deadline = Instant::now() + wait;
        let (generation, resume) = loop {
            if let Some((generation, resume)) = read_rewind_token(&dir) {
                if generation > self.generation {
                    break (generation, resume);
                }
            }
            if Instant::now() >= deadline {
                return Err(err);
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let what = format!("rewinding to microbatch {resume} at generation {generation}");
        self.instant(TracePhase::Restart, what);
        self.rewind_to(generation, resume)
    }

    /// Rolls the rank back to `resume` and rejoins the group in
    /// `generation`: a fresh rank loop (a faulted update window may have
    /// left deferred gradients behind), state restored from the
    /// rank's own snapshot, links re-established under the new epoch.
    fn rewind_to(&mut self, generation: u64, resume: usize) -> Result<(), DistError> {
        // Forwards that were in flight at the fault stashed activations
        // in the stages and never got their backward; a replayed
        // backward must not pop those stale entries.
        self.net.clear_stash();
        self.rank = fresh_rank(&self.net, self.spec, &self.tracer);
        self.generation = generation;
        self.restore(resume)?;
        for link in self.links() {
            link.begin_generation(generation);
        }
        self.establish_links()
    }

    fn finish(self) -> RankOutcome {
        let group = self.rank.group;
        let samples_seen = group.completed();
        let mut stages = vec![StageCounters::default(); self.net.num_stages()];
        stages[group.range()].clone_from_slice(group.counters());
        let metrics = pbp_pipeline::EngineMetrics {
            engine: format!(
                "dist rank {}/{} {}",
                self.spec.rank,
                self.spec.topology.world(),
                self.spec.plan.label()
            ),
            samples: samples_seen,
            train_ns: self.rank.train_ns,
            occupancy: None,
            stages,
        };
        RankOutcome {
            net: self.net,
            samples_seen,
            loss_sum: self.rank.loss_sum,
            metrics,
        }
    }
}

/// The rank's loop at microbatch zero: a [`StageGroup`] over the stages
/// `spec.topology` assigns to `spec.rank`, tracing into
/// `rank{r}/stage-{s}` lanes.
fn fresh_rank(net: &Network, spec: &RankSpec, tracer: &Tracer) -> RankLoop {
    let config = ScheduledConfig {
        plan: spec.plan,
        mitigation: spec.mitigation,
        weight_stashing: spec.weight_stashing,
        schedule: spec.schedule.clone(),
    };
    let mut group = StageGroup::new(net, spec.topology.range(spec.rank), &config);
    group.set_tracer(tracer, &format!("rank{}/", spec.rank));
    RankLoop::new(group)
}

/// Splices every rank's owned stages into `target`: stage `s`'s
/// parameters are copied from the outcome network of the rank owning
/// `s`. Layer running state (batch-norm statistics etc.) follows the
/// parameters via the per-stage snapshot/load path, which copies
/// parameters only — matching the MLP scope of the distributed smoke
/// runs; stateful layers additionally travel inside rank snapshots.
pub fn splice_owned_stages(target: &mut Network, topology: &Topology, rank_nets: &[Network]) {
    assert_eq!(rank_nets.len(), topology.world(), "one network per rank");
    for (rank, net) in rank_nets.iter().enumerate() {
        for s in topology.range(rank) {
            let snap = net.stage(s).snapshot();
            target.stage_mut(s).load(&snap);
        }
    }
}
