//! The one fault script, and the typed faults the runtimes observe.
//!
//! A [`FaultPlan`] is a seeded, reproducible script of injected
//! misbehaviour for every runtime in the workspace. A clause names a
//! *site*, an *index* and a *kind*, and the kind is tied to its site by
//! type:
//!
//! * **rank `r`** (under threads, *stage* `r`, whichever worker hosts
//!   it) at `@k`, the backward the rank is turning to — microbatch `k`
//!   of the `Step::Backward` its [`RankLoop`](crate::RankLoop) reports,
//!   which turns to both microbatches of a pair at once:
//!   [`RankFault`] `crash`
//!   (a panic on every host: a rank process then exits non-zero),
//!   `stall:<ms>`, `sever` (drop every outgoing link end) or
//!   `jitter:<ms>` (every backward from `k` on sleeps a seeded draw in
//!   `[0, ms]`);
//! * **link `l` `down|up`** at `@k`, the k-th data frame that end of the
//!   link receives: [`LinkFault`] `drop`, `trunc`, `flip`, `dup`,
//!   `delay:<ms>` or `partition:<n>` (frames `k..k+n` vanish).
//!
//! The grammar — one string, [`FaultPlan::parse`] ⇄
//! [`FaultPlan::spec_string`], the value of `PBP_NET_FAULTS`:
//!
//! ```text
//! plan   := clause ("," clause)*
//! clause := "rank:" r ":" rank-kind "@" k
//!         | l ":" ("down"|"up") ":" link-kind "@" k
//!         | "random:" seed [":" links [":" max-index]]
//!         | "seed:" seed
//! ```
//!
//! Every fault is **one-shot**: the fired flag is shared across clones of
//! the plan, so an engine rebuilt after the fault, or a link re-made after
//! a reconnect, does not see it again. A fault that strikes again on the
//! next attempt is a second clause at a later index.
//!
//! [`PipelineFault`] is the one fault type of both supervisors: what the
//! supervised threaded runtime returns instead of hanging or propagating a
//! worker panic, and what the process launcher observes of a rank's exit;
//! [`RunError`] is the combined error type of the snapshot-driven runners.

use std::process::ExitStatus;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which way frames flow on a link. Link `i` connects rank `i` to rank
/// `i + 1`; `Down` is toward the higher rank (activations), `Up` toward
/// the lower rank (gradients; acks ride both ways but faults index data
/// frames only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDir {
    /// Rank `i` → rank `i + 1` (forward activations).
    Down,
    /// Rank `i + 1` → rank `i` (backward gradients).
    Up,
}

/// What a fault does to the rank it strikes, as the rank turns to a
/// backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankFault {
    /// A panic, in a worker thread and a rank process alike.
    Crash,
    /// The rank sleeps this long first.
    Stall(Duration),
    /// The rank drops all of its outgoing link ends, stranding in-flight
    /// samples on its neighbours.
    Sever,
    /// Persistent slow-rank jitter. In a clause the duration bounds the
    /// per-backward sleep; what [`FaultInjector::on_backward`] hands back
    /// carries the draw for that backward.
    Jitter(Duration),
}

/// What a fault does to the data frame it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The frame silently vanishes (recovery is reconnect-with-replay).
    Drop,
    /// The frame's wire bytes are cut short — a typed decode error.
    Truncate,
    /// One byte of the frame body is flipped — a checksum mismatch.
    BitFlip,
    /// The frame arrives twice; sequence numbers discard the copy.
    Duplicate,
    /// The frame arrives late by this much.
    Delay(Duration),
    /// This frame and the following `n - 1` all vanish (`n >= 1`).
    Partition(u64),
}

/// One armed fault: a kind, the index it triggers at, and its charge.
/// The site is where the [`FaultPlan`] files it.
#[derive(Debug, Clone)]
pub struct FaultSpec<K> {
    /// Backward index (rank faults) or received-data-frame index (link
    /// faults) the fault triggers at.
    pub at: u64,
    /// What happens when it triggers.
    pub kind: K,
    /// Set once the fault has fired, shared by every clone of the plan.
    fired: Arc<AtomicBool>,
}

impl<K> FaultSpec<K> {
    /// `kind` armed at index `at`, one-shot.
    pub fn new(at: u64, kind: K) -> Self {
        FaultSpec {
            at,
            kind,
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Consumes the one-shot charge: `true` the first time across every
    /// clone of the spec.
    fn charge(&self) -> bool {
        !self.fired.swap(true, Ordering::Relaxed)
    }
}

/// Clause equality: what the clause says, not whether it has fired.
impl<K: PartialEq> PartialEq for FaultSpec<K> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, &self.kind) == (other.at, &other.kind)
    }
}

/// Upper bounds on what [`FaultPlan::random`] draws, so a chaos sweep
/// stays fast and cannot stall a run past its watchdogs.
const MAX_STALL_MS: u64 = 50;
const MAX_JITTER_MS: u64 = 5;
const MAX_DELAY_MS: u64 = 20;
const MAX_PARTITION: u64 = 6;

/// A seeded, reproducible script of faults: rank clauses filed by rank,
/// link clauses by link and direction, each list in script order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    ranks: Vec<(usize, FaultSpec<RankFault>)>,
    links: Vec<(usize, LinkDir, FaultSpec<LinkFault>)>,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan; the seed feeds the jitter draws.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Scripts a fault at rank (threaded: stage) `rank`.
    pub fn at_rank(mut self, rank: usize, spec: FaultSpec<RankFault>) -> Self {
        self.ranks.push((rank, spec));
        self
    }

    /// Scripts a fault on the frames link `link` carries in direction
    /// `dir`.
    pub fn at_link(mut self, link: usize, dir: LinkDir, spec: FaultSpec<LinkFault>) -> Self {
        self.links.push((link, dir, spec));
        self
    }

    /// The scripted link faults, `(link, dir, spec)` in script order.
    pub fn link_specs(&self) -> &[(usize, LinkDir, FaultSpec<LinkFault>)] {
        &self.links
    }

    /// Rearms every one-shot fault (tests that replay a plan from
    /// scratch).
    pub fn reset(&self) {
        let ranks = self.ranks.iter().map(|(_, spec)| &spec.fired);
        let links = self.links.iter().map(|(_, _, spec)| &spec.fired);
        for fired in ranks.chain(links) {
            fired.store(false, Ordering::Relaxed);
        }
    }

    /// Draws a random plan of 1–4 faults over `ranks` rank sites and
    /// `links` links (two directions each) at indices below `max_index`,
    /// fully determined by `seed`. A site class given as zero draws no
    /// faults: `random(seed, stages, 0, n)` is a thread-fault plan,
    /// `random(seed, 0, links, n)` a wire-fault plan.
    pub fn random(seed: u64, ranks: usize, links: usize, max_index: u64) -> Self {
        let mut plan = FaultPlan::new(seed);
        let sites = (ranks + links) as u64;
        if sites == 0 {
            return plan;
        }
        let mut rng = seed;
        let mut draw = |below: u64| splitmix64(&mut rng) % below;
        for _ in 0..1 + draw(4) {
            let site = draw(sites) as usize;
            let at = draw(max_index.max(1));
            if site < ranks {
                let kind = match draw(4) {
                    0 => RankFault::Crash,
                    1 => RankFault::Stall(Duration::from_millis(1 + draw(MAX_STALL_MS))),
                    2 => RankFault::Sever,
                    _ => RankFault::Jitter(Duration::from_millis(1 + draw(MAX_JITTER_MS))),
                };
                plan = plan.at_rank(site, FaultSpec::new(at, kind));
            } else {
                let dir = [LinkDir::Down, LinkDir::Up][draw(2) as usize];
                let kind = match draw(6) {
                    0 => LinkFault::Drop,
                    1 => LinkFault::Truncate,
                    2 => LinkFault::BitFlip,
                    3 => LinkFault::Duplicate,
                    4 => LinkFault::Delay(Duration::from_millis(1 + draw(MAX_DELAY_MS))),
                    _ => LinkFault::Partition(1 + draw(MAX_PARTITION)),
                };
                plan = plan.at_link(site - ranks, dir, FaultSpec::new(at, kind));
            }
        }
        plan
    }

    /// The injector for rank `rank`: its slice of the rank clauses.
    pub fn rank_injector(&self, rank: usize) -> FaultInjector<RankFault> {
        let of_rank = self.ranks.iter().filter(|(r, _)| *r == rank);
        FaultInjector {
            specs: of_rank.map(|(_, spec)| spec.clone()).collect(),
            salt: self
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(rank as u64 + 1)),
            seen: 0,
        }
    }

    /// The injector for one end of one link: the clauses for `link` in
    /// the direction that end *receives*.
    pub fn link_injector(&self, link: usize, dir: LinkDir) -> FaultInjector<LinkFault> {
        let of_end = self
            .links
            .iter()
            .filter(|(l, d, _)| (*l, *d) == (link, dir));
        FaultInjector {
            specs: of_end.map(|(_, _, spec)| spec.clone()).collect(),
            salt: 0,
            seen: 0,
        }
    }

    /// What the plan asks of rank *process* `rank`: the index of its
    /// crash clause, if it has one. A process has no seam for the other
    /// rank kinds, so a plan holding one for `rank` is refused.
    pub fn process_crash(&self, rank: usize) -> Result<Option<usize>, String> {
        let mut of_rank = self.ranks.iter().filter(|(r, _)| *r == rank);
        match of_rank
            .clone()
            .find(|(_, spec)| spec.kind != RankFault::Crash)
        {
            Some((_, FaultSpec { kind, .. })) => Err(format!(
                "rank {rank}: a rank process can only crash, not {kind:?}"
            )),
            None => Ok(of_rank.next().map(|(_, spec)| spec.at as usize)),
        }
    }

    /// The plan a process respawned after a fault runs under: its rank
    /// clauses count as fired (a crashed process cannot carry the fired
    /// flag over), its link clauses stay.
    pub fn for_respawn(&self) -> Self {
        FaultPlan {
            ranks: Vec::new(),
            ..self.clone()
        }
    }

    /// Whether the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty() && self.links.is_empty()
    }

    /// The spec string this plan round-trips through [`Self::parse`]:
    /// the seed (when nonzero), then every link clause, then every rank
    /// clause. Random plans serialize clause by clause, never as
    /// `random:seed`, so what fired is always spelled out in logs.
    pub fn spec_string(&self) -> String {
        let seed = (self.seed != 0).then(|| format!("seed:{}", self.seed));
        let links = self.links.iter().map(|(link, dir, spec)| {
            let kind = match spec.kind {
                LinkFault::Drop => "drop".to_string(),
                LinkFault::Truncate => "trunc".to_string(),
                LinkFault::BitFlip => "flip".to_string(),
                LinkFault::Duplicate => "dup".to_string(),
                LinkFault::Delay(d) => format!("delay:{}", d.as_millis()),
                LinkFault::Partition(n) => format!("partition:{n}"),
            };
            let dir = match dir {
                LinkDir::Down => "down",
                LinkDir::Up => "up",
            };
            format!("{link}:{dir}:{kind}@{}", spec.at)
        });
        let ranks = self.ranks.iter().map(|(rank, spec)| {
            let kind = match spec.kind {
                RankFault::Crash => "crash".to_string(),
                RankFault::Stall(d) => format!("stall:{}", d.as_millis()),
                RankFault::Sever => "sever".to_string(),
                RankFault::Jitter(d) => format!("jitter:{}", d.as_millis()),
            };
            format!("rank:{rank}:{kind}@{}", spec.at)
        });
        let clauses: Vec<String> = seed.into_iter().chain(links).chain(ranks).collect();
        clauses.join(",")
    }

    /// Parses a fault script (the `PBP_NET_FAULTS` value; grammar in the
    /// module docs). `random:<seed>[:<links>[:<max-index>]]` expands to
    /// the wire half of [`Self::random`] (4 links, indices below 64 by
    /// default). Scripted delays are capped at one second and a
    /// partition spans at least one frame.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new(0);
        for clause in raw.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let num = |raw: &str| {
                raw.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("invalid number {raw:?} in clause {clause:?}"))
            };
            let ms = |raw: &str| num(raw).map(Duration::from_millis);
            let unknown = |site: &str, kinds: &str| format!("{clause:?}: a {site} can {kinds}");
            match clause.split(':').collect::<Vec<_>>().as_slice() {
                ["seed", seed] => {
                    plan.seed = num(seed)?;
                    continue;
                }
                ["random", seed, sizes @ ..] if sizes.len() <= 2 => {
                    let links = sizes.first().map_or(Ok(4), |n| num(n))? as usize;
                    let max_index = sizes.get(1).map_or(Ok(64), |n| num(n))?;
                    plan.seed = num(seed)?;
                    let drawn = FaultPlan::random(plan.seed, 0, links, max_index);
                    plan.links.extend(drawn.links);
                    continue;
                }
                ["random", ..] => return Err(format!("trailing fields in {clause:?}")),
                _ => {}
            }
            let (head, index) = clause
                .rsplit_once('@')
                .ok_or_else(|| format!("clause {clause:?} needs @<index>"))?;
            let at = num(index)?;
            match head.split(':').collect::<Vec<_>>().as_slice() {
                ["rank", rank, kind @ ..] => {
                    let kind = match kind {
                        ["crash"] => RankFault::Crash,
                        ["sever"] => RankFault::Sever,
                        ["stall", d] => RankFault::Stall(ms(d)?),
                        ["jitter", d] => RankFault::Jitter(ms(d)?),
                        _ => {
                            return Err(unknown("rank", "crash, stall:<ms>, sever or jitter:<ms>"))
                        }
                    };
                    plan = plan.at_rank(num(rank)? as usize, FaultSpec::new(at, kind));
                }
                [link, dir, kind @ ..] => {
                    let dir = match *dir {
                        "down" => LinkDir::Down,
                        "up" => LinkDir::Up,
                        other => {
                            return Err(format!("direction {other:?} in {clause:?} (want down/up)"))
                        }
                    };
                    let kind = match kind {
                        ["drop"] => LinkFault::Drop,
                        ["trunc"] => LinkFault::Truncate,
                        ["flip"] => LinkFault::BitFlip,
                        ["dup"] => LinkFault::Duplicate,
                        ["delay", d] => LinkFault::Delay(ms(d)?.min(Duration::from_secs(1))),
                        ["partition", n] => LinkFault::Partition(num(n)?.max(1)),
                        _ => {
                            let kinds = "drop, trunc, flip, dup, delay:<ms> or partition:<count>";
                            return Err(unknown("link", kinds));
                        }
                    };
                    plan = plan.at_link(num(link)? as usize, dir, FaultSpec::new(at, kind));
                }
                _ => return Err(format!("clause {clause:?} names no site and kind")),
            }
        }
        if plan.is_empty() {
            return Err("empty fault spec".into());
        }
        Ok(plan)
    }
}

/// One site's slice of a [`FaultPlan`]. The unarmed form (the default,
/// and what a plan with no clause for the site yields) holds an empty
/// `Vec`: a call walks no spec, so it allocates nothing and touches no
/// atomic.
#[derive(Debug, Clone)]
pub struct FaultInjector<K> {
    specs: Vec<FaultSpec<K>>,
    /// Jitter stream of a rank injector: `(seed, rank)` folded.
    salt: u64,
    /// Data frames a link injector has seen (a rank's index comes from
    /// its loop).
    seen: u64,
}

impl<K> Default for FaultInjector<K> {
    fn default() -> Self {
        FaultInjector {
            specs: Vec::new(),
            salt: 0,
            seen: 0,
        }
    }
}

impl FaultInjector<RankFault> {
    /// Resolves the fault striking as the rank turns to backward `k`.
    /// Discrete faults take priority over jitter; among them the first
    /// scripted one wins. Jitter covers every backward from its index on,
    /// never consumes a charge, and comes back as [`RankFault::Jitter`]
    /// of the sleep drawn for `k` — in `[0, max]`, a pure function of
    /// `(seed, rank, k)`.
    pub fn on_backward(&self, k: u64) -> Option<RankFault> {
        let mut jitter = None;
        for spec in &self.specs {
            match spec.kind {
                RankFault::Jitter(max) if k >= spec.at => {
                    jitter.get_or_insert_with(|| {
                        let mut state = self.salt.wrapping_add(k);
                        let nanos = splitmix64(&mut state) % (max.as_nanos().max(1) as u64 + 1);
                        Duration::from_nanos(nanos)
                    });
                }
                RankFault::Jitter(_) => {}
                kind if k == spec.at && spec.charge() => return Some(kind),
                _ => {}
            }
        }
        jitter.filter(|d| !d.is_zero()).map(RankFault::Jitter)
    }
}

impl FaultInjector<LinkFault> {
    /// Resolves the fault landing on the next received data frame,
    /// advancing the frame index; the first triggering clause wins.
    /// Control frames (heartbeats, acks, hellos) are not counted, so
    /// liveness and recovery stay observable under data-plane chaos. A
    /// partition consumes its charge at its left edge and keeps matching
    /// inside `[at, at + n)`, so replayed frames never re-open it.
    pub fn on_frame(&mut self) -> Option<LinkFault> {
        let frame = self.seen;
        self.seen += 1;
        self.specs
            .iter()
            .find(|spec| match spec.kind {
                LinkFault::Partition(n) if frame != spec.at => {
                    frame > spec.at && frame - spec.at < n && spec.fired.load(Ordering::Relaxed)
                }
                _ => frame == spec.at && spec.charge(),
            })
            .map(|spec| spec.kind)
    }
}

/// SplitMix64 step: advances `state` and returns the next draw.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A detected failure of a pipeline's worker threads or rank processes:
/// a supervised run always terminates with either a result or one of
/// these — never a hang, never a propagated worker panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineFault {
    /// A worker panicked; the payload message is preserved.
    StagePanicked {
        /// The layer stage an injected crash struck, otherwise the first
        /// stage of the panicked worker.
        stage: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The watchdog saw no heartbeat from a live worker for longer than
    /// its stall timeout while work was still outstanding.
    StageStalled {
        /// The layer stage the silent worker was last heard from.
        stage: usize,
        /// How long the worker had been silent when flagged.
        stalled_for: Duration,
    },
    /// All workers exited cleanly but worker 0 retired fewer microbatches
    /// than the call held — in-flight work was stranded by a severed link.
    Incomplete {
        /// Samples in the call.
        expected: usize,
        /// Microbatches worker 0 retired.
        completed: usize,
    },
    /// Rank process `rank` exited unsuccessfully: a nonzero code (a panic,
    /// an injected crash among them, or a typed link fault), or a signal.
    Exited { rank: usize, status: ExitStatus },
    /// Rank process `rank`'s exit status could not be read.
    Unwaitable { rank: usize, detail: String },
    /// A launched group's attempt ran past its deadline.
    Deadline(Duration),
}

impl std::fmt::Display for PipelineFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineFault::StagePanicked { stage, message } => {
                write!(f, "stage {stage} panicked: {message}")
            }
            PipelineFault::StageStalled { stage, stalled_for } => {
                write!(f, "stage {stage} stalled for {stalled_for:?}")
            }
            PipelineFault::Incomplete {
                expected,
                completed,
            } => {
                write!(
                    f,
                    "pipeline completed {completed} of {expected} samples before all stages exited"
                )
            }
            PipelineFault::Exited { rank, status } => write!(f, "rank {rank} exited with {status}"),
            PipelineFault::Unwaitable { rank, detail } => {
                write!(f, "rank {rank} unwaitable: {detail}")
            }
            PipelineFault::Deadline(limit) => {
                write!(f, "attempt exceeded {} ms", limit.as_millis())
            }
        }
    }
}

impl std::error::Error for PipelineFault {}

/// Combined error of the snapshot-driven training runners: snapshot I/O
/// and integrity failures on one side, detected pipeline faults on the
/// other.
#[derive(Debug)]
pub enum RunError {
    /// Snapshot persistence or restore failed.
    Snapshot(pbp_snapshot::SnapshotError),
    /// The training engine hit a detected pipeline fault.
    Fault(PipelineFault),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            RunError::Fault(e) => write!(f, "pipeline fault: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Snapshot(e) => Some(e),
            RunError::Fault(e) => Some(e),
        }
    }
}

impl From<pbp_snapshot::SnapshotError> for RunError {
    fn from(e: pbp_snapshot::SnapshotError) -> Self {
        RunError::Snapshot(e)
    }
}

impl From<PipelineFault> for RunError {
    fn from(e: PipelineFault) -> Self {
        RunError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    fn crash(at: u64) -> FaultSpec<RankFault> {
        FaultSpec::new(at, RankFault::Crash)
    }

    /// The indices below `n` at which a link injector faults a frame.
    fn faulted(inj: &mut FaultInjector<LinkFault>, n: u64) -> Vec<u64> {
        (0..n).filter(|_| inj.on_frame().is_some()).collect()
    }

    /// Every action the plan takes at every site over the first `n`
    /// indices. Consumes one-shot charges: pair with [`FaultPlan::reset`].
    fn action_log(plan: &FaultPlan, ranks: usize, links: usize, n: u64) -> Vec<String> {
        let mut log = Vec::new();
        for rank in 0..ranks {
            let injector = plan.rank_injector(rank);
            log.extend((0..n).map(|k| format!("{:?}", injector.on_backward(k))));
        }
        for link in 0..links {
            for dir in [LinkDir::Down, LinkDir::Up] {
                let mut injector = plan.link_injector(link, dir);
                log.extend((0..n).map(|_| format!("{:?}", injector.on_frame())));
            }
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Same seed, same script — clause for clause and action for
        /// action — within its bounds, and the script survives its own
        /// spec string, so a logged plan replays verbatim through
        /// `PBP_NET_FAULTS`; `reset` re-arms exactly the first pass.
        #[test]
        fn random_plans_are_seed_determined_bounded_and_round_trip(
            seed in 0u64..u64::MAX,
            ranks in 0usize..5,
            links in 0usize..5,
            max_index in 1u64..96,
        ) {
            let plan = FaultPlan::random(seed, ranks, links, max_index);
            let twin = FaultPlan::random(seed, ranks, links, max_index);
            prop_assert_eq!(&plan, &twin);
            let clauses = plan.ranks.len() + plan.links.len();
            prop_assert!(clauses <= 4 && (clauses == 0) == (ranks + links == 0));
            let mut slots = Vec::new();
            for (rank, spec) in &plan.ranks {
                prop_assert!(*rank < ranks && spec.at < max_index);
                if let RankFault::Stall(d) | RankFault::Jitter(d) = spec.kind {
                    prop_assert!(d <= MS(MAX_STALL_MS));
                }
                slots.push(format!("rank {rank} @{}", spec.at));
            }
            for (link, dir, spec) in &plan.links {
                prop_assert!(*link < links && spec.at < max_index);
                match spec.kind {
                    LinkFault::Delay(d) => prop_assert!(d <= MS(MAX_DELAY_MS)),
                    LinkFault::Partition(n) => prop_assert!((1..=MAX_PARTITION).contains(&n)),
                    _ => {}
                }
                slots.push(format!("link {link} {dir:?} @{}", spec.at));
            }
            if clauses > 0 {
                let reparsed = FaultPlan::parse(&plan.spec_string()).map_err(TestCaseError::fail)?;
                prop_assert_eq!(&reparsed, &plan, "{}", plan.spec_string());
            }
            // Partitions span past their trigger: pad the window.
            let n = max_index + 8;
            let first = action_log(&plan, ranks, links, n);
            prop_assert_eq!(&first, &action_log(&twin, ranks, links, n));
            // Everything one-shot has fired: a second pass stays silent
            // except for jitter and inside a still-open partition span,
            // whose tail frames keep dropping by design. (Two clauses on
            // one slot fire on successive passes: the first one wins.)
            let spent = action_log(&plan, ranks, links, n);
            slots.sort();
            slots.dedup();
            prop_assert!(
                slots.len() < clauses || spent
                    .iter()
                    .all(|a| a == "None" || a.contains("Jitter") || a.contains("Partition")),
                "fired faults must not re-fire without reset: {spent:?}"
            );
            plan.reset();
            prop_assert_eq!(first, action_log(&plan, ranks, links, n));
        }

        /// Jitter never fires before its index, is bounded by its clause
        /// and is a pure function of `(seed, rank, k)`.
        #[test]
        fn jitter_is_bounded_and_a_pure_function(seed in 0u64..u64::MAX, rank in 0usize..4) {
            let max = MS(3);
            let plan = FaultPlan::new(seed).at_rank(rank, FaultSpec::new(2, RankFault::Jitter(max)));
            let (a, b) = (plan.rank_injector(rank), plan.clone().rank_injector(rank));
            prop_assert_eq!(a.on_backward(1), None);
            for k in (2..40).rev() {
                let drawn = a.on_backward(k);
                prop_assert_eq!(drawn, b.on_backward(k), "k = {}", k);
                prop_assert!(
                    drawn.is_none_or(|d| matches!(d, RankFault::Jitter(d) if d <= max)),
                    "jitter produced {:?}", drawn
                );
            }
        }
    }

    #[test]
    fn every_clause_form_round_trips() {
        let spec = "seed:9,0:down:drop@3,1:up:flip@10,0:down:partition:4@20,1:down:delay:5@2,\
                    0:up:dup@7,1:up:trunc@9,rank:0:crash@5,rank:1:stall:800@3,rank:2:sever@0,\
                    rank:1:jitter:4@6";
        let plan = FaultPlan::parse(&spec.replace(',', " , ")).unwrap();
        assert_eq!(plan.spec_string(), spec);
        assert_eq!((plan.seed, plan.links.len(), plan.ranks.len()), (9, 6, 4));
        assert_eq!(plan.ranks[1].1.kind, RankFault::Stall(MS(800)));
        // Outside input is clamped, not trusted.
        let clamped = FaultPlan::parse("0:up:delay:99999@1,0:up:partition:0@2").unwrap();
        assert_eq!(
            clamped.spec_string(),
            "0:up:delay:1000@1,0:up:partition:1@2"
        );
        // `random:` is the wire half of `random`, sized by its fields.
        assert_eq!(
            FaultPlan::parse("random:7").unwrap(),
            FaultPlan::random(7, 0, 4, 64)
        );
        let sized = FaultPlan::parse("random:7:2:16,rank:1:crash@3").unwrap();
        assert_eq!(sized.links, FaultPlan::random(7, 0, 2, 16).links);
        assert_eq!((sized.seed, &sized.ranks[..]), (7, &[(1, crash(3))][..]));
    }

    #[test]
    fn malformed_clauses_are_parse_errors() {
        for bad in [
            "",
            "0:down:drop", // no @index
            "0:sideways:drop@3",
            "0:down:explode@3",
            "x:down:drop@3",
            "0:down:delay:@3",
            "random:",
            "random:1:2:3:4",
            "0:down:crash@3", // a rank kind on a link
            "rank:1:drop@3",  // a link kind on a rank
            "rank:1@3",
            "rank:x:crash@3",
            "rank:1:stall:@3",
            "rank:1:crash:5@3",
            "0:down:drop:5@3",
            "rank:1:crash@3!", // every clause is one-shot
            "0:up:dup@7!",
            "seed:x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    /// The script that used to take two variables: the wire clauses
    /// `1:down:drop@7,0:up:partition:5@12` in this one, and "rank 2 dies
    /// after 30 microbatches" (`2:30`) in a crash-injection variable of
    /// its own.
    #[test]
    fn golden_row_yields_the_old_actions_and_abort_point() {
        let plan = FaultPlan::parse("1:down:drop@7,0:up:partition:5@12,rank:2:crash@30").unwrap();
        let mut inj = plan.link_injector(1, LinkDir::Down);
        let actions: Vec<_> = (0..8).map(|_| inj.on_frame()).collect();
        assert_eq!(actions[7], Some(LinkFault::Drop));
        assert!(actions[..7].iter().all(Option::is_none));
        let mut inj = plan.link_injector(0, LinkDir::Up);
        assert_eq!(faulted(&mut inj, 24), [12, 13, 14, 15, 16]);
        for (link, dir) in [(0, LinkDir::Down), (1, LinkDir::Up)] {
            assert_eq!(faulted(&mut plan.link_injector(link, dir), 24), []);
        }
        let abort_after: Vec<_> = (0..4).map(|r| plan.process_crash(r).unwrap()).collect();
        assert_eq!(abort_after, [None, None, Some(30), None]);
        // A respawn runs under the same wire script, minus the crash.
        let respawn = plan.for_respawn().spec_string();
        assert_eq!(respawn, "1:down:drop@7,0:up:partition:5@12");
    }

    #[test]
    fn one_shot_faults_fire_once_across_clones_until_reset() {
        let plan = FaultPlan::new(0)
            .at_rank(1, crash(5))
            .at_link(0, LinkDir::Down, FaultSpec::new(2, LinkFault::Drop))
            .at_link(0, LinkDir::Down, FaultSpec::new(4, LinkFault::Duplicate));
        let rank = plan.rank_injector(1);
        assert_eq!(rank.on_backward(4), None);
        assert_eq!(rank.on_backward(5), Some(RankFault::Crash));
        assert_eq!(
            faulted(&mut plan.link_injector(0, LinkDir::Down), 6),
            [2, 4]
        );
        // A clone — a rebuilt engine, a re-made link — shares the flags.
        let again = plan.clone();
        assert_eq!(again.rank_injector(1).on_backward(5), None);
        assert_eq!(faulted(&mut again.link_injector(0, LinkDir::Down), 6), []);
        plan.reset();
        assert_eq!(
            again.rank_injector(1).on_backward(5),
            Some(RankFault::Crash)
        );
        let mut link = plan.link_injector(0, LinkDir::Down);
        assert_eq!(
            (0..3).map(|_| link.on_frame()).last(),
            Some(Some(LinkFault::Drop))
        );
    }

    #[test]
    fn partition_spans_frames_and_stays_open_for_a_remade_injector() {
        let partition = FaultSpec::new(3, LinkFault::Partition(3));
        let plan = FaultPlan::new(0).at_link(1, LinkDir::Up, partition);
        let mut first = plan.link_injector(1, LinkDir::Up);
        assert_eq!(faulted(&mut first, 5), [3, 4]);
        // The link is re-made mid-partition and counts from zero again:
        // the spent left edge does not re-open, the tail still drops.
        assert_eq!(faulted(&mut plan.link_injector(1, LinkDir::Up), 8), [4, 5]);
        // The first injector carries on where it was.
        assert_eq!(first.on_frame(), Some(LinkFault::Partition(3)));
        assert_eq!(first.on_frame(), None);
    }

    #[test]
    fn an_injector_sees_only_its_site() {
        let plan = FaultPlan::new(0)
            .at_rank(0, FaultSpec::new(1, RankFault::Stall(MS(2))))
            .at_rank(2, crash(1))
            .at_link(0, LinkDir::Down, FaultSpec::new(1, LinkFault::Drop))
            .at_link(1, LinkDir::Up, FaultSpec::new(1, LinkFault::BitFlip));
        let at_rank: Vec<_> = (0..3)
            .map(|r| plan.rank_injector(r).on_backward(1))
            .collect();
        let stall = RankFault::Stall(MS(2));
        assert_eq!(at_rank, [Some(stall), None, Some(RankFault::Crash)]);
        let at_link = |link, dir| {
            let mut inj = plan.link_injector(link, dir);
            (inj.on_frame(), inj.on_frame()).1
        };
        assert_eq!(at_link(0, LinkDir::Down), Some(LinkFault::Drop));
        assert_eq!(at_link(0, LinkDir::Up), None);
        assert_eq!(at_link(1, LinkDir::Down), None);
        assert_eq!(at_link(1, LinkDir::Up), Some(LinkFault::BitFlip));
    }

    /// What the two ledger workloads pay per call: an unarmed injector
    /// owns no heap and reaches an atomic only through a spec it does
    /// not have.
    #[test]
    fn an_unarmed_injector_is_a_counter() {
        let scripted_elsewhere = FaultPlan::new(1).at_rank(3, crash(0));
        let mut link = scripted_elsewhere.link_injector(0, LinkDir::Down);
        let rank = scripted_elsewhere.rank_injector(0);
        assert_eq!((link.specs.capacity(), rank.specs.capacity()), (0, 0));
        assert!((0..100).all(|k| link.on_frame().is_none() && rank.on_backward(k).is_none()));
        assert_eq!(link.seen, 100);
        let unarmed = FaultInjector::<LinkFault>::default();
        assert_eq!((unarmed.specs.capacity(), unarmed.seen), (0, 0));
    }

    #[test]
    fn a_rank_process_can_only_crash() {
        let plan = FaultPlan::parse("rank:0:crash@9,rank:1:stall:5@2,rank:2:sever@1").unwrap();
        assert_eq!(plan.process_crash(0), Ok(Some(9)));
        assert_eq!(plan.process_crash(3), Ok(None));
        for rank in [1, 2] {
            let err = plan.process_crash(rank).unwrap_err();
            assert!(err.contains("can only crash"), "{err}");
        }
        // A respawn runs under none of the rank clauses, and keeps the
        // link clauses.
        let crashes = FaultPlan::parse("rank:0:crash@9,rank:1:crash@2,0:up:drop@4").unwrap();
        assert_eq!(crashes.for_respawn().spec_string(), "0:up:drop@4");
    }

    #[test]
    fn fault_display_is_informative() {
        let fault = PipelineFault::StagePanicked {
            stage: 2,
            message: "boom".into(),
        };
        assert_eq!(fault.to_string(), "stage 2 panicked: boom");
        let err: RunError = fault.into();
        assert!(err.to_string().contains("stage 2"));
    }

    /// Byte-level fuzz of the grammar, on a fixed seed and no clock: token
    /// soup over its alphabet and byte mutations of valid specs. Every
    /// input parses to a plan or a message, never a panic, and every plan
    /// survives its own spec string.
    #[test]
    fn fuzzed_specs_parse_or_refuse_and_every_plan_round_trips() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const TOKENS: &[&str] = &[
            "rank",
            "random",
            "seed",
            "crash",
            "stall",
            "sever",
            "jitter",
            "down",
            "up",
            "drop",
            "trunc",
            "flip",
            "dup",
            "delay",
            "partition",
            ":",
            ":",
            ":",
            "@",
            ",",
            " ",
            "0",
            "1",
            "2",
            "7",
            "9",
            "64",
            "1000",
            "18446744073709551615",
            "18446744073709551616",
        ];
        const VALID: &[&str] = &[
            "rank:1:crash@30",
            "seed:7,rank:0:jitter:5@3,rank:2:stall:50@1",
            "0:down:drop@7,1:up:partition:3@2,rank:1:sever@4",
            "2:up:delay:20@9,0:down:flip@0,1:down:trunc@5,1:up:dup@6",
            "random:42:3:16",
        ];
        let mut rng = StdRng::seed_from_u64(0xF422);
        let (mut plans, mut refusals) = (0, 0);
        for case in 0..20_000 {
            let input = if case % 2 == 0 {
                let tokens = rng.gen_range(0..24usize);
                (0..tokens)
                    .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
                    .collect::<String>()
            } else {
                let mut bytes = VALID[rng.gen_range(0..VALID.len())].as_bytes().to_vec();
                for _ in 0..rng.gen_range(1..=3usize) {
                    let at = rng.gen_range(0..=bytes.len());
                    let byte = if rng.gen_bool(0.5) {
                        b":@, 0123456789"[rng.gen_range(0..14usize)]
                    } else {
                        rng.gen::<u8>()
                    };
                    match rng.gen_range(0..3u32) {
                        0 if at < bytes.len() => bytes[at] = byte,
                        1 if at < bytes.len() => {
                            bytes.remove(at);
                        }
                        _ => bytes.insert(at, byte),
                    }
                }
                String::from_utf8_lossy(&bytes).into_owned()
            };
            let parsed = std::panic::catch_unwind(|| FaultPlan::parse(&input))
                .unwrap_or_else(|_| panic!("parse panicked on {input:?}"));
            match parsed {
                Ok(plan) => {
                    plans += 1;
                    let spec = plan.spec_string();
                    assert_eq!(FaultPlan::parse(&spec), Ok(plan), "{input:?} -> {spec:?}");
                }
                Err(message) => {
                    refusals += 1;
                    assert!(!message.is_empty(), "{input:?} refused without a word");
                }
            }
        }
        // Both outcomes are common, so neither half of the check is vacuous.
        assert!(
            plans > 500 && refusals > 500,
            "{plans} plans, {refusals} refusals"
        );
    }
}
