//! Typed errors for the distributed pipeline layer.

use pbp_pipeline::PipelineFault;
use pbp_snapshot::SnapshotError;
use std::time::Duration;

/// Everything that can go wrong between two ranks or inside one.
///
/// Transport faults are split the same way the PR5 supervisor splits
/// thread faults: a peer that *closed* (process exit, socket teardown)
/// is distinguishable from a peer that *stalled* (alive but silent past
/// the watchdog window) and from plain wire corruption, so the launcher
/// can report the root cause before restarting the stage group.
#[derive(Debug)]
pub enum DistError {
    /// An OS-level I/O failure on a socket or snapshot path.
    Io(std::io::Error),
    /// A frame failed structural validation: bad length prefix, unknown
    /// kind tag, short payload, or trailing bytes.
    Corrupt(String),
    /// A frame's CRC32 did not match its body — bit damage in flight.
    ChecksumMismatch,
    /// The peer closed the connection (EOF / reset), or sent `Shutdown`
    /// while data was still expected.
    PeerClosed,
    /// No frame (not even a heartbeat) arrived within the stall window.
    PeerStalled(Duration),
    /// The peers disagree about who they are or what run this is
    /// (rank, world size, or topology/run digest mismatch).
    Handshake(String),
    /// A snapshot operation failed while saving or restoring rank state.
    Snapshot(SnapshotError),
    /// A rank process could not be spawned.
    Rank { rank: usize, detail: String },
    /// A launched stage group spent its restart budget; the fault is the
    /// last attempt's.
    Launch(PipelineFault),
    /// The topology or launch specification is unusable.
    Spec(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "i/o error: {e}"),
            DistError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            DistError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            DistError::PeerClosed => write!(f, "peer closed the connection"),
            DistError::PeerStalled(window) => {
                write!(f, "peer sent nothing for {} ms", window.as_millis())
            }
            DistError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
            DistError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            DistError::Rank { rank, detail } => write!(f, "rank {rank} failed: {detail}"),
            DistError::Launch(fault) => write!(f, "restart budget exhausted after: {fault}"),
            DistError::Spec(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<SnapshotError> for DistError {
    fn from(e: SnapshotError) -> Self {
        DistError::Snapshot(e)
    }
}
