//! The stage-group launcher: spawn one process per rank, supervise,
//! restart from the newest common snapshot.
//!
//! This is the thread supervisor lifted to processes: the same restart
//! loop ([`supervise_retries`]) under the same [`RecoveryPolicy`]. The
//! parent spawns `world` children of the same executable (each told its
//! rank), then polls their exit statuses. Inside a run, liveness is enforced *between* the children
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
//! Whatever way `launch` returns, every child it spawned has been killed
//! and reaped: the group is owned by a guard that does so on drop.
//!
//! Fault injection (`PBP_NET_FAULTS`) reaches the children through the
//! environment. A crashed process cannot carry a one-shot charge over, so
//! a respawn is handed the plan minus its rank clauses: `rank:1:crash@30`
//! kills rank 1 exactly once.

use crate::env::env_net_faults;
use crate::error::DistError;
use pbp_pipeline::{supervise_retries, RecoveryPolicy, SupervisionEvent};
use pbp_snapshot::SnapshotFamily;
use std::path::{Path, PathBuf};
use std::process::ExitStatus;
use std::time::{Duration, Instant};

/// Why one attempt of a launched stage group failed: the first fault the
/// parent observed, which is what it restarts the group for and, once the
/// restart budget is spent, what [`launch`] returns
/// ([`DistError::Launch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchFault {
    /// Rank `rank` exited unsuccessfully: a nonzero code, or a signal.
    Exited { rank: usize, status: ExitStatus },
    /// Rank `rank`'s exit status could not be read.
    Unwaitable { rank: usize, detail: String },
    /// The attempt ran past [`LaunchSpec::attempt_timeout`].
    Deadline(Duration),
}

impl std::fmt::Display for LaunchFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchFault::Exited { rank, status } => write!(f, "rank {rank} exited with {status}"),
            LaunchFault::Unwaitable { rank, detail } => {
                write!(f, "rank {rank} unwaitable: {detail}")
            }
            LaunchFault::Deadline(limit) => {
                write!(f, "attempt exceeded {} ms", limit.as_millis())
            }
        }
    }
}

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
    /// Restart budget and backoff, as for a supervised threaded run.
    pub recovery: RecoveryPolicy,
    /// Kill the whole attempt if it runs longer than this.
    pub attempt_timeout: Option<Duration>,
}

/// What the supervision loop did.
#[derive(Debug)]
pub struct LaunchReport {
    /// Spawn rounds (1 = no restart was needed).
    pub attempts: usize,
    /// The fault/backoff/restart log, in order; a fault displays as
    /// `rank 1 exited with signal: 6` or `attempt exceeded 120000 ms`.
    pub events: Vec<SupervisionEvent<LaunchFault>>,
    /// The resume counter each attempt started from.
    pub resume_points: Vec<usize>,
}

/// The newest snapshot counter for which **all** `world` ranks hold a
/// valid snapshot — the only point the whole group can restart from.
/// Returns 0 (fresh start) when no common counter exists. Validity is
/// the snapshot crate's bar ([`SnapshotFamily::valid_counters`]): the
/// file fully loads with every CRC verified.
pub fn common_resume_point(dir: &Path, world: usize) -> usize {
    (0..world)
        .map(|rank| SnapshotFamily::rank(dir, rank).valid_counters())
        .reduce(|common, mine| common.into_iter().filter(|c| mine.contains(c)).collect())
        .and_then(|common| common.last().copied())
        .unwrap_or(0)
}

/// Spawns one rank process; a `respawn` runs under the fault plan minus
/// its rank clauses.
fn spawn_rank(
    spec: &LaunchSpec,
    rank: usize,
    resume: usize,
    respawn: bool,
) -> Result<std::process::Child, DistError> {
    let mut cmd = std::process::Command::new(&spec.program);
    cmd.args(&spec.args)
        .arg("--rank")
        .arg(rank.to_string())
        .arg("--resume-at")
        .arg(resume.to_string());
    if let Some(plan) = respawn.then(env_net_faults).flatten() {
        // Every fault is one-shot: a child that crashed once must not
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
/// is observed: the first rank found dead or unwaitable, or `timeout`
/// passing. Exited children are reaped as they are polled.
fn poll(children: &mut [std::process::Child], timeout: Option<Duration>) -> Option<LaunchFault> {
    let started = Instant::now();
    loop {
        let mut running = false;
        for (rank, child) in children.iter_mut().enumerate() {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => {}
                Ok(Some(status)) => return Some(LaunchFault::Exited { rank, status }),
                Ok(None) => running = true,
                Err(e) => {
                    let detail = e.to_string();
                    return Some(LaunchFault::Unwaitable { rank, detail });
                }
            }
        }
        if !running {
            return None;
        }
        if let Some(t) = timeout.filter(|&t| started.elapsed() > t) {
            return Some(LaunchFault::Deadline(t));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Spawns the stage group and supervises it to completion: any child
/// failure kills the whole group and respawns it from the newest common
/// snapshot, under one [`supervise_retries`] loop. No child outlives the
/// call.
///
/// # Errors
///
/// [`DistError::Launch`] with the last attempt's fault once the restart
/// budget is spent; [`DistError::Rank`] if a rank cannot be spawned;
/// [`DistError::Spec`] for an empty world.
pub fn launch(spec: &LaunchSpec) -> Result<LaunchReport, DistError> {
    if spec.world == 0 {
        return Err(DistError::Spec("world size must be at least 1".into()));
    }
    let mut group = Group(Vec::with_capacity(spec.world));
    let mut events = Vec::new();
    let mut resume_points = Vec::new();
    let outcome = supervise_retries::<_, _, _, DistError>(
        &mut group,
        &spec.recovery,
        |_, event| events.push(event),
        |group, restart| {
            let resume = common_resume_point(&spec.snapshot_dir, spec.world);
            resume_points.push(resume);
            for rank in 0..spec.world {
                group.0.push(spawn_rank(spec, rank, resume, restart > 0)?);
            }
            let Some(fault) = poll(&mut group.0, spec.attempt_timeout) else {
                return Ok(Ok(()));
            };
            // A chain cannot run with a hole in it, and no rank may be
            // mid-write when the common counter is read.
            group.kill();
            let resume = common_resume_point(&spec.snapshot_dir, spec.world);
            Ok(Err((fault, Some(format!("counter {resume} (all ranks)")))))
        },
    )?;
    match outcome {
        Ok(()) => Ok(LaunchReport {
            attempts: resume_points.len(),
            events,
            resume_points,
        }),
        Err(fault) => Err(DistError::Launch(fault)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_snapshot::SnapshotBuilder;

    fn write_snap(dir: &Path, rank: usize, counter: usize) {
        let mut b = SnapshotBuilder::new();
        b.add_section("x", vec![1, 2, 3]);
        let family = SnapshotFamily::rank(dir, rank);
        family.save(&b, counter, usize::MAX).unwrap();
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
        let path = SnapshotFamily::rank(&dir, 1).path(48);
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

    /// Every exit path tears the group down: a launch whose restart
    /// budget runs out returns `Err` with the surviving rank killed and
    /// reaped, not orphaned.
    #[test]
    fn failed_launch_leaves_no_orphans() {
        let dir = std::env::temp_dir().join(format!("pbp_launch_orphan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Every rank records its pid. Rank 0 then outlives the test unless
        // killed; rank 1 waits for rank 0's record and dies.
        let script = r#"
            dir=$0
            while [ $# -gt 0 ]; do [ "$1" = --rank ] && rank=$2; shift; done
            echo $$ > "$dir/pid.$rank.tmp" && mv "$dir/pid.$rank.tmp" "$dir/pid.$rank"
            [ "$rank" = 0 ] && exec sleep 60
            until [ -f "$dir/pid.0" ]; do sleep 0.02; done
            exit 1
        "#;
        let spec = LaunchSpec {
            program: "/bin/sh".into(),
            args: vec!["-c".into(), script.into(), dir.display().to_string()],
            world: 2,
            snapshot_dir: dir.join("snaps"),
            recovery: RecoveryPolicy::immediate(0),
            attempt_timeout: Some(Duration::from_secs(30)),
        };
        let err = launch(&spec).expect_err("rank 1 always fails");
        let DistError::Launch(LaunchFault::Exited { rank: 1, status }) = &err else {
            panic!("the spent budget returns rank 1's exit: {err}");
        };
        assert_eq!(status.code(), Some(1), "{err}");
        assert_eq!(
            err.to_string(),
            "restart budget exhausted after: rank 1 exited with exit status: 1"
        );
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
