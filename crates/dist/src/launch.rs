//! The stage-group launcher: spawn one process per rank, supervise,
//! restart from the newest common snapshot.
//!
//! This is the thread supervisor lifted to processes, running the same
//! restart loop ([`supervise_retries`]). The parent spawns `world` children of
//! the same executable (each told its rank), then polls their exit
//! statuses. Inside a run, liveness is enforced *between* the children
//! themselves — every rank watches its socket neighbors with the
//! [`transport`](crate::transport) stall window, so a killed or hung peer
//! surfaces as a typed [`DistError`](crate::DistError) and a nonzero exit
//! in the rank that observed it. The parent's job is the recovery arc,
//! the loop's attempt closure: when any child fails, kill the whole stage
//! group (a pipeline chain cannot run with a hole in it), compute the
//! newest snapshot counter *every* rank holds a valid snapshot for, back
//! off, and respawn the group with `--resume-at` pointing there. Ranks
//! that had advanced further simply discard the work past the common
//! point — the price of not coordinating snapshot barriers across
//! failures — and the restart converges to bit-identical final weights
//! because resume is bit-identical per rank.
//!
//! ## Fine-grained mode
//!
//! With [`LaunchSpec::fine_grained`] the attempt keeps surviving ranks
//! alive across a single-rank death: it bumps the group's *rewind
//! generation*, writes a [`rewind token`](rewind_token_path) naming the
//! newest common snapshot counter, and respawns only the dead rank at
//! that counter and generation. Survivors notice their links failing,
//! park at the rewind barrier (polling the token), roll back to the
//! common counter from their own snapshots, and re-establish links at
//! the new generation — see `crate::runner`. The whole-group kill
//! remains the fallback: restart-budget exhaustion or an attempt
//! timeout still tears everything down. Whatever way `launch` returns,
//! every child it spawned has been killed and reaped: the group is owned
//! by a guard that does so on drop.
//!
//! Fault injection (`PBP_NET_FAULTS`) reaches the children through the
//! environment. A crashed process cannot carry a one-shot charge over, so
//! a respawn is handed the plan minus its one-shot rank clauses:
//! `rank:1:crash@30` kills rank 1 exactly once.

use crate::env::env_net_faults;
use crate::error::DistError;
use pbp_pipeline::{supervise_retries, SupervisionEvent};
use pbp_snapshot::{
    rank_prefix, valid_snapshot_counters, SnapshotArchive, SnapshotBuilder, StateReader,
    StateWriter,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How the parent launches and supervises one stage group.
#[derive(Debug, Clone)]
pub struct LaunchSpec {
    /// Executable to spawn (usually `std::env::current_exe()`).
    pub program: PathBuf,
    /// Arguments passed to every child verbatim; the launcher appends
    /// `--rank <r>` and `--resume-at <counter>` per child.
    pub args: Vec<String>,
    /// Number of rank processes.
    pub world: usize,
    /// Directory holding the rank-prefixed snapshot families.
    pub snapshot_dir: PathBuf,
    /// Restart budget: the group is respawned at most this many times.
    pub max_restarts: usize,
    /// Backoff before the first restart; doubles per restart, capped at
    /// 64× ([`pbp_pipeline::backoff_delay`]).
    pub backoff: Duration,
    /// Kill the whole attempt if it runs longer than this (fine-grained:
    /// the whole launch — one attempt spans every single-rank respawn).
    pub attempt_timeout: Option<Duration>,
    /// Surviving-rank recovery: respawn a dead rank alone and rewind
    /// the survivors in place instead of killing the whole group.
    pub fine_grained: bool,
}

/// What the supervision loop did.
#[derive(Debug)]
pub struct LaunchReport {
    /// Spawn rounds (1 = no restart was needed).
    pub attempts: usize,
    /// The fault/backoff/restart log, in order; a fault reads
    /// `rank 1 exited with signal: 6` or `attempt exceeded 120000 ms`.
    pub events: Vec<SupervisionEvent<String>>,
    /// The resume counter each attempt started from.
    pub resume_points: Vec<usize>,
}

/// The newest snapshot counter for which **all** `world` ranks hold a
/// valid snapshot — the only point the whole group can restart from.
/// Returns 0 (fresh start) when no common counter exists. Validity is
/// the snapshot crate's bar ([`valid_snapshot_counters`]): the file
/// fully loads with every CRC verified.
pub fn common_resume_point(dir: &Path, world: usize) -> usize {
    let mut common: Option<Vec<usize>> = None;
    for rank in 0..world {
        let counters = valid_snapshot_counters(dir, &rank_prefix(rank));
        common = Some(match common {
            None => counters,
            Some(prev) => prev.into_iter().filter(|c| counters.contains(c)).collect(),
        });
    }
    common.and_then(|c| c.into_iter().max()).unwrap_or(0)
}

/// Where the group's rewind token lives. The name is outside every
/// snapshot family's `{prefix}-{digits}.pbps` shape, so resume scans
/// never mistake it for a snapshot.
pub fn rewind_token_path(dir: &Path) -> PathBuf {
    dir.join("rewind.token")
}

/// Section name inside the rewind token file.
const SECTION_REWIND: &str = "rewind";

/// Atomically publishes the rewind barrier: surviving ranks that poll
/// the token roll back to snapshot counter `resume_at` and rejoin at
/// `generation`.
pub fn write_rewind_token(dir: &Path, generation: u64, resume_at: usize) -> Result<(), DistError> {
    std::fs::create_dir_all(dir)?;
    let mut w = StateWriter::new();
    w.put_u64(generation);
    w.put_usize(resume_at);
    let mut b = SnapshotBuilder::new();
    b.add_section(SECTION_REWIND, w.into_bytes());
    b.save_atomic(&rewind_token_path(dir))?;
    Ok(())
}

/// Reads the rewind token, if a valid one is present:
/// `(generation, resume_at)`. A missing, partial, or corrupt token
/// reads as `None` — pollers just keep waiting.
pub fn read_rewind_token(dir: &Path) -> Option<(u64, usize)> {
    let archive = SnapshotArchive::load(&rewind_token_path(dir)).ok()?;
    let mut r = StateReader::new(archive.section(SECTION_REWIND).ok()?);
    let generation = r.take_u64().ok()?;
    let resume_at = r.take_usize().ok()?;
    r.finish().ok()?;
    Some((generation, resume_at))
}

/// Spawns one rank process. `generation` is appended only in
/// fine-grained mode; a `respawn` runs under the fault plan minus its
/// spent rank clauses.
fn spawn_rank(
    spec: &LaunchSpec,
    rank: usize,
    resume: usize,
    generation: Option<u64>,
    respawn: bool,
) -> Result<std::process::Child, DistError> {
    let mut cmd = std::process::Command::new(&spec.program);
    cmd.args(&spec.args)
        .arg("--rank")
        .arg(rank.to_string())
        .arg("--resume-at")
        .arg(resume.to_string());
    if let Some(generation) = generation {
        cmd.arg("--generation").arg(generation.to_string());
    }
    if let Some(plan) = respawn.then(env_net_faults).flatten() {
        // One-shot fault injection: a child that crashed once must not
        // crash again after the supervised restart.
        let plan = plan.for_respawn();
        if plan.is_empty() {
            cmd.env_remove("PBP_NET_FAULTS");
        } else {
            cmd.env("PBP_NET_FAULTS", plan.spec_string());
        }
    }
    cmd.spawn().map_err(|e| DistError::Rank {
        rank,
        detail: format!("failed to spawn: {e}"),
    })
}

/// The rank processes of one launch, by rank. Teardown is structural:
/// however `launch` exits, dropping the group kills and reaps every
/// child still in it.
struct Group(Vec<std::process::Child>);

impl Group {
    fn kill(&mut self) {
        for mut child in self.0.drain(..) {
            let _ = (child.kill(), child.wait());
        }
    }
}

impl Drop for Group {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Polls the children until all have exited cleanly (`None`) or a fault
/// is observed, returned with its description: the first rank found dead
/// or unwaitable, or — against rank `children.len()`, the group —
/// `timeout` passing since `started`. Exited children are reaped as they
/// are polled.
fn poll(
    children: &mut [std::process::Child],
    started: Instant,
    timeout: Option<Duration>,
) -> Option<(usize, String)> {
    loop {
        let mut running = false;
        for (rank, child) in children.iter_mut().enumerate() {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => {}
                Ok(Some(status)) => {
                    return Some((rank, format!("rank {rank} exited with {status}")))
                }
                Ok(None) => running = true,
                Err(e) => return Some((rank, format!("rank {rank} unwaitable: {e}"))),
            }
        }
        if !running {
            return None;
        }
        if let Some(t) = timeout.filter(|&t| started.elapsed() > t) {
            let detail = format!("attempt exceeded {} ms", t.as_millis());
            return Some((children.len(), detail));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Spawns the stage group and supervises it to completion. In classic
/// mode any child failure kills and respawns the whole group from the
/// newest common snapshot; in [fine-grained](LaunchSpec::fine_grained)
/// mode only the dead rank respawns while survivors rewind in place.
/// Either way it is one [`supervise_retries`] loop, and no child
/// outlives the call.
pub fn launch(spec: &LaunchSpec) -> Result<LaunchReport, DistError> {
    if spec.world == 0 {
        return Err(DistError::Spec("world size must be at least 1".into()));
    }
    // A rewind token from an earlier launch in the same directory must
    // not stampede this run's ranks into a rewind.
    match std::fs::remove_file(rewind_token_path(&spec.snapshot_dir)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    let mut group = Group(Vec::with_capacity(spec.world));
    let mut events = Vec::new();
    let mut resume_points = Vec::new();
    let mut generation = 0u64;
    let mut started = Instant::now();
    // What the previous attempt's fault left to do: the rank that died
    // and the common counter the restart resumes at.
    let mut pending: Option<(usize, usize)> = None;
    let outcome = supervise_retries(
        &mut group,
        spec.max_restarts,
        spec.backoff,
        |_, event| events.push(event),
        |group, restart| {
            let (dead, resume) = match pending.take() {
                Some((dead, resume)) => (Some(dead), resume),
                None => (None, common_resume_point(&spec.snapshot_dir, spec.world)),
            };
            resume_points.push(resume);
            match dead.filter(|_| spec.fine_grained) {
                Some(rank) => {
                    generation += 1;
                    write_rewind_token(&spec.snapshot_dir, generation, resume)?;
                    let respawned = spawn_rank(spec, rank, resume, Some(generation), true)?;
                    // Already reaped unless it was unwaitable.
                    let mut dead = std::mem::replace(&mut group.0[rank], respawned);
                    let _ = (dead.kill(), dead.wait());
                }
                None => {
                    let generation = spec.fine_grained.then_some(generation);
                    for rank in 0..spec.world {
                        let child = spawn_rank(spec, rank, resume, generation, restart > 0)?;
                        group.0.push(child);
                    }
                    started = Instant::now();
                }
            }
            let Some((rank, fault)) = poll(&mut group.0, started, spec.attempt_timeout) else {
                return Ok(Ok(()));
            };
            if !spec.fine_grained {
                // A chain cannot run with a hole in it, and no rank may be
                // mid-write when the common counter is read.
                group.kill();
            } else if rank == spec.world {
                // One attempt spans every single-rank respawn: its
                // timeout ends the launch.
                return Err(DistError::Rank {
                    rank,
                    detail: fault,
                });
            }
            let resume = common_resume_point(&spec.snapshot_dir, spec.world);
            pending = Some((rank, resume));
            let from = match spec.fine_grained {
                true => format!(
                    "counter {resume} at generation {} (rank {rank} only)",
                    generation + 1
                ),
                false => format!("counter {resume} (all ranks)"),
            };
            Ok(Err((fault, Some(from))))
        },
    )?;
    match outcome {
        Ok(()) => Ok(LaunchReport {
            attempts: resume_points.len(),
            events,
            resume_points,
        }),
        Err(fault) => Err(DistError::Rank {
            rank: spec.world, // group-level failure
            detail: format!("restart budget exhausted after: {fault}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_snapshot::{snapshot_file_name, SnapshotBuilder};

    fn write_snap(dir: &Path, rank: usize, counter: usize) {
        let mut b = SnapshotBuilder::new();
        b.add_section("x", vec![1, 2, 3]);
        b.save_atomic(&dir.join(snapshot_file_name(&rank_prefix(rank), counter)))
            .unwrap();
    }

    #[test]
    fn common_resume_point_is_the_newest_counter_all_ranks_share() {
        let dir = std::env::temp_dir().join(format!("pbp_launch_common_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Rank 0 has 48 and 96; rank 1 only 48 (it died before 96).
        write_snap(&dir, 0, 48);
        write_snap(&dir, 0, 96);
        write_snap(&dir, 1, 48);
        assert_eq!(common_resume_point(&dir, 2), 48);
        write_snap(&dir, 1, 96);
        assert_eq!(common_resume_point(&dir, 2), 96);
        // A third rank with no snapshots forces a fresh start.
        assert_eq!(common_resume_point(&dir, 3), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshots_are_not_resume_candidates() {
        let dir = std::env::temp_dir().join(format!("pbp_launch_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        write_snap(&dir, 0, 48);
        write_snap(&dir, 1, 48);
        // Corrupt rank 1's copy: flip a byte in the middle.
        let path = dir.join(snapshot_file_name(&rank_prefix(1), 48));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(common_resume_point(&dir, 2), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_directory_means_fresh_start() {
        let dir = std::env::temp_dir().join(format!("pbp_launch_missing_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(common_resume_point(&dir, 4), 0);
    }

    #[test]
    fn rewind_token_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("pbp_launch_token_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(read_rewind_token(&dir), None, "no token yet");
        write_rewind_token(&dir, 3, 48).unwrap();
        assert_eq!(read_rewind_token(&dir), Some((3, 48)));
        // A newer token atomically replaces the old one.
        write_rewind_token(&dir, 4, 96).unwrap();
        assert_eq!(read_rewind_token(&dir), Some((4, 96)));
        // Bit damage makes the token unreadable, not garbage.
        let path = rewind_token_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(read_rewind_token(&dir), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
    /// Every exit path tears the group down: a fine-grained recovery arc
    /// that fails half-way (the rewind token cannot be written) returns
    /// `Err` with the surviving rank killed and reaped, not orphaned.
    #[test]
    fn failed_fine_grained_recovery_leaves_no_orphans() {
        let dir = std::env::temp_dir().join(format!("pbp_launch_orphan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snaps = dir.join("snaps");
        std::fs::create_dir_all(&snaps).unwrap();
        // Every rank records its pid. Rank 0 then outlives the test unless
        // killed; rank 1 waits for rank 0's record, replaces the snapshot
        // directory with a plain file — so the token write of its own
        // recovery fails — and dies.
        let script = r#"
            dir=$0
            while [ $# -gt 0 ]; do [ "$1" = --rank ] && rank=$2; shift; done
            echo $$ > "$dir/pid.$rank.tmp" && mv "$dir/pid.$rank.tmp" "$dir/pid.$rank"
            [ "$rank" = 0 ] && exec sleep 60
            until [ -f "$dir/pid.0" ]; do sleep 0.02; done
            rm -rf "$dir/snaps" && : > "$dir/snaps"
            exit 1
        "#;
        let spec = LaunchSpec {
            program: "/bin/sh".into(),
            args: vec!["-c".into(), script.into(), dir.display().to_string()],
            world: 2,
            snapshot_dir: snaps,
            max_restarts: 3,
            backoff: Duration::ZERO,
            attempt_timeout: Some(Duration::from_secs(30)),
            fine_grained: true,
        };
        let err = launch(&spec).expect_err("the recovery arc cannot succeed");
        assert!(matches!(err, DistError::Io(_)), "{err}");
        for rank in 0..2 {
            let pid = std::fs::read_to_string(dir.join(format!("pid.{rank}"))).unwrap();
            let proc_dir = Path::new("/proc").join(pid.trim());
            assert!(
                !proc_dir.exists(),
                "rank {rank} (pid {}) outlived a failed launch",
                pid.trim()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
