//! The distributed stage runner: one process executes its stage group's
//! slice of a [`MicrobatchSchedule`] against socket neighbors.
//!
//! A rank is the [`RankHost`] a `pbp-pipeline` worker thread steps between
//! two channels, here over `topology.range(rank)` between two
//! [`ReliableConn`]s, and so bit-identical to the sequential
//! [`ScheduledTrainer`](pbp_pipeline::ScheduledTrainer) however the ranks
//! interleave (DESIGN §12). The host owns rank 0's feed — the dataset in
//! the deterministic `(seed, epoch)` order — and the injected crash, a
//! panic on every host: the process exits nonzero and its launcher
//! restarts the group. This file adds what happens between steps: the
//! drain-barrier forward limit, reconnect trace instants, snapshots and
//! the shutdown drain.
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
use crate::reliable::{LinkEndpoint, LinkIdentity, LinkOptions, ReconnectPolicy, ReliableConn};
use crate::topology::{fold, Topology};
use crate::transport::Connection;
use pbp_data::Dataset;
use pbp_nn::Network;
use pbp_optim::{LrSchedule, Mitigation};
use pbp_pipeline::{
    FaultPlan, FaultSpec, LinkDir, Message, MicrobatchSchedule, RankError, RankFault, RankHost,
    RankLoop, ScheduledConfig, SnapshotPolicy, StageCounters, StageGroup,
};
use pbp_snapshot::{
    SnapshotArchive, SnapshotBuilder, SnapshotError, SnapshotFamily, StateReader, StateWriter,
};
use pbp_trace::{TracePhase, Tracer};
use std::time::Duration;

/// Section of a rank snapshot holding the runner's distributed state:
/// identity (rank, world, run digest), then the [`RankLoop`]'s: the f64
/// loss sum, the [`StageGroup`] state (microbatches completed, the owned
/// stages' counters — update counts, busy time, Eq. 5 delay histograms —
/// and their cells) and the step time. `Rank::save_snapshot` writes it and
/// `Rank::restore` reads it; nothing else spells its layout.
const SECTION_DIST: &str = "dist";

/// How a rank behaves when the wire misbehaves. The default: no injected
/// faults, and any link fault is terminal for the process. Whatever the
/// recovery, a rank that exits on a fault is restarted with its whole
/// group by the launcher, from the newest snapshot every rank holds.
#[derive(Debug, Clone, Default)]
pub struct RankRecovery {
    /// The fault script (`PBP_NET_FAULTS`): each link end applies its own
    /// slice of the link clauses. A rank process can only `crash` (via
    /// [`RankSpec::abort_after`]); any other kind for it is a bad spec.
    pub net_faults: Option<FaultPlan>,
    /// Reconnect-with-replay budget per link fault; `None` keeps wire
    /// faults terminal.
    pub reconnect: Option<ReconnectPolicy>,
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
    /// Snapshot cadence and retention, in updates as for an engine; the
    /// directory is shared by all ranks, each writing its own
    /// [`SnapshotFamily::rank`]. `None` disables snapshots (and resume).
    pub snapshots: Option<SnapshotPolicy>,
    /// Microbatch counter to resume from (0 = fresh start). Must name an
    /// existing snapshot of this rank's family.
    pub resume_at: usize,
    /// Fault injection: panic, as a crash would, as the rank turns to
    /// backward `k` — once `k` microbatches have completed backward
    /// ([`FaultPlan::process_crash`]: the clause `rank:<r>:crash@<k>`).
    pub abort_after: Option<usize>,
    /// Chaos-hardening knobs: wire fault injection and reconnect budget.
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

    /// The snapshot cadence in microbatches: the policy's updates, each
    /// the plan's microbatches per update, so no accumulation window is
    /// open at a snapshot.
    fn snap_every(&self) -> Option<usize> {
        let m = self.plan.microbatches_per_update();
        self.snapshots.as_ref().map(|p| p.every_updates * m)
    }

    /// This rank's snapshot family.
    fn family(&self) -> SnapshotFamily {
        let policy = self.snapshots.as_ref().expect("snapshots enabled");
        SnapshotFamily::rank(&policy.dir, self.rank)
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
        if let Some(policy) = &self.snapshots {
            if policy.every_updates == 0 || policy.keep == 0 {
                return Err(DistError::Spec(
                    "snapshot cadence and retention must be positive".into(),
                ));
            }
        }
        if let Some(plan) = &self.recovery.net_faults {
            plan.process_crash(self.rank).map_err(DistError::Spec)?;
        }
        if self.resume_at > 0 {
            let every = self.snap_every().ok_or_else(|| {
                DistError::Spec("resume requested but snapshots are disabled".into())
            })?;
            if !self.resume_at.is_multiple_of(every) && self.resume_at != self.total_microbatches {
                return Err(DistError::Spec(format!(
                    "resume point {} is not on the snapshot cadence of {every} microbatches",
                    self.resume_at
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
    let mut rank = Rank::new(net, spec, upstream, downstream, tracer, Some(data));
    // Dialing upstream before accepting downstream lets the chain come up
    // from rank 0 without deadlock.
    rank.host.links().try_for_each(ReliableConn::establish)?;
    if spec.resume_at > 0 {
        rank.restore(spec.resume_at)?;
    }
    rank.run()?;
    Ok(rank.finish())
}

/// Reads rank `spec.rank`'s snapshot at `counter` back into `net` and
/// returns it as the outcome it records: the rank's stages, microbatches
/// completed, loss sum and owned stages' counters. This is the reader a
/// resuming rank restores through.
pub fn load_rank_snapshot(
    net: Network,
    spec: &RankSpec,
    counter: usize,
) -> Result<RankOutcome, DistError> {
    spec.validate(&net)?;
    let mut rank = Rank::new(net, spec, None, None, None, None);
    rank.restore(counter)?;
    Ok(rank.finish())
}

/// One rank's execution state.
struct Rank<'a> {
    spec: &'a RankSpec,
    net: Network,
    /// The owned stages' host: rank loop, rank 0's feed, both links, the
    /// injected crash.
    host: RankHost<'a, ReliableConn>,
    /// Link reconnects already surfaced as trace instants.
    seen_reconnects: u64,
}

impl<'a> Rank<'a> {
    /// The rank `spec` names, fed from `data` if it is rank 0.
    fn new(
        net: Network,
        spec: &'a RankSpec,
        upstream: Option<LinkEndpoint>,
        downstream: Option<LinkEndpoint>,
        tracer: Option<&Tracer>,
        data: Option<&'a Dataset>,
    ) -> Self {
        // A StageGroup over the stages the topology assigns to this
        // rank, tracing into `rank{r}/stage-{s}` lanes.
        let config = ScheduledConfig {
            plan: spec.plan,
            mitigation: spec.mitigation,
            weight_stashing: spec.weight_stashing,
            schedule: spec.schedule.clone(),
        };
        let owned = spec.topology.range(spec.rank);
        let mut group = StageGroup::new(&net, owned.clone(), &config);
        group.set_tracer(
            &tracer.cloned().unwrap_or_default(),
            &format!("rank{}/", spec.rank),
        );
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
                ..LinkOptions::default()
            };
            ReliableConn::new(endpoint, identity, opts)
        };
        let upstream = upstream.map(|ep| conn(ep, spec.rank - 1, spec.rank - 1, LinkDir::Down));
        let downstream = downstream.map(|ep| conn(ep, spec.rank + 1, spec.rank, LinkDir::Up));
        let mut host = RankHost::new(RankLoop::new(group), upstream, downstream);
        if let Some(data) = data.filter(|_| spec.rank == 0) {
            // Rank 0 feeds from the dataset in the deterministic
            // (seed, epoch) order the sequential core uses.
            let mut order = (usize::MAX, Vec::new());
            host.set_feed(move |mb| {
                let epoch = mb / data.len();
                if order.0 != epoch {
                    order = (epoch, data.epoch_order(spec.seed, epoch));
                }
                let (x, label) = data.sample(order.1[mb % data.len()]);
                Message::sample(mb, x, label)
            });
        }
        if let Some(k) = spec.abort_after {
            // The crash strikes the rank's first stage.
            let crash = FaultSpec::new(k as u64, RankFault::Crash);
            let plan = FaultPlan::new(0).at_rank(owned.start, crash);
            host.set_faults(vec![plan.rank_injector(owned.start)], |_| {});
        }
        Rank {
            spec,
            net,
            host,
            seen_reconnects: 0,
        }
    }

    /// Where forwards stop for now: the end of the run, or the next
    /// snapshot boundary until backwards catch up (drain barrier).
    fn fwd_limit(&self) -> usize {
        let total = self.spec.total_microbatches;
        match self.spec.snap_every() {
            Some(every) => total.min((self.host.rank.group.completed() / every + 1) * every),
            None => total,
        }
    }

    fn run(&mut self) -> Result<(), DistError> {
        let (total, every) = (self.spec.total_microbatches, self.spec.snap_every());
        let range = self.host.rank.group.range();
        loop {
            let limit = self.fwd_limit();
            let stages = &mut self.net.stages_mut()[range.clone()];
            let Some(step) = self.host.step(stages, limit).map_err(|e| match e {
                RankError::Link(e) => e,
                desync => DistError::Corrupt(format!("link desynchronized: {desync:?}")),
            })?
            else {
                break;
            };
            self.note_reconnects();
            // A snapshot at every drain barrier passed.
            if let (Some(mb), Some(every)) = (step.retires().last(), every) {
                let done = mb + 1;
                if done.is_multiple_of(every) && done > self.spec.resume_at && done < total {
                    self.save_snapshot(done)?;
                }
            }
        }
        self.host.rank.group.flush_trace();
        // Final snapshot (unconditional): the launcher assembles the full
        // network from every rank's state at the end of the run.
        if self.spec.snapshots.is_some() {
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
        for link in self.host.links() {
            let _ = link.send(&bye);
        }
        let stall = self.spec.stall;
        for link in self.host.links() {
            link.drain_shutdown(stall);
        }
        Ok(())
    }

    /// Surfaces link reconnects as `Reconnect` trace instants on the
    /// rank's first lane, one per reconnect since the last check.
    fn note_reconnects(&mut self) {
        let total: u64 = self.host.links().map(|link| link.reconnects()).sum();
        let (rank, first) = (self.spec.rank, self.host.rank.group.range().start);
        while self.seen_reconnects < total {
            self.seen_reconnects += 1;
            let detail = format!("rank {rank} link reconnect {}", self.seen_reconnects);
            let lane = self.host.rank.group.lane(first);
            lane.instant(TracePhase::Reconnect, Some(detail));
        }
    }

    fn save_snapshot(&mut self, counter: usize) -> Result<(), DistError> {
        // A heartbeat on both links first, so the slow write never trips a
        // peer's stall watchdog.
        let rank = self.spec.rank as u32;
        let beat = Frame::Heartbeat {
            rank,
            beat: counter as u64,
        };
        for link in self.host.links() {
            let _ = link.send(&beat);
        }
        let mut snap = SnapshotBuilder::new();
        pbp_nn::snapshot::write_network(&self.net, &mut snap);
        let mut w = StateWriter::new();
        w.put_u32(rank);
        w.put_u32(self.spec.topology.world() as u32);
        w.put_u64(self.spec.digest());
        let rank = &self.host.rank;
        w.put_f64(rank.loss_sum);
        rank.group.write_state(&mut w);
        w.put_u128(rank.train_ns);
        snap.add_section(SECTION_DIST, w.into_bytes());
        let keep = self.spec.snapshots.as_ref().expect("caller checked").keep;
        self.spec.family().save(&snap, counter, keep)?;
        Ok(())
    }

    fn restore(&mut self, counter: usize) -> Result<(), DistError> {
        let path = self.spec.family().path(counter);
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
        let rank = &mut self.host.rank;
        rank.loss_sum = r.take_f64()?;
        rank.group.read_state(&mut r, "dist")?;
        rank.train_ns = r.take_u128()?;
        r.finish()?;
        let samples = rank.group.completed();
        if samples != counter {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot {path:?} covers {samples} microbatches, file name says {counter}"
            ))
            .into());
        }
        Ok(())
    }

    fn finish(self) -> RankOutcome {
        let RankLoop {
            group,
            loss_sum,
            train_ns,
            ..
        } = self.host.rank;
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
            train_ns,
            occupancy: None,
            stages,
        };
        RankOutcome {
            net: self.net,
            samples_seen,
            loss_sum,
            metrics,
        }
    }
}

/// Splices every rank's owned stages into `target`: stage `s`'s
/// parameters are copied from the outcome network of the rank owning
/// `s`. The per-stage snapshot/load path copies parameters only — matching
/// the MLP scope of the distributed smoke runs; non-parameter layer state
/// (a dropout RNG position) travels inside rank snapshots.
pub fn splice_owned_stages(target: &mut Network, topology: &Topology, rank_nets: &[Network]) {
    assert_eq!(rank_nets.len(), topology.world(), "one network per rank");
    for (rank, net) in rank_nets.iter().enumerate() {
        for s in topology.range(rank) {
            let snap = net.stage(s).snapshot();
            target.stage_mut(s).load(&snap);
        }
    }
}
