//! Fault-tolerant training snapshots.
//!
//! This crate defines the `PBPSNAP1` container: a versioned, checksummed,
//! atomically-written archive of named sections, each carrying an opaque
//! byte payload guarded by a CRC32. It is the storage layer behind
//! full-training-state capture — network parameters, per-stage optimizer
//! state, pipeline in-flight buffers, data-stream cursors, and metrics
//! counters all serialize through the [`Snapshottable`] trait into
//! sections of one container, so a killed run can resume bit-identically.
//!
//! Layering: this crate depends only on `pbp-tensor` (for tensor
//! serialization helpers). The `optim`, `nn`, `data`, and `pipeline`
//! crates implement [`Snapshottable`] for their own state types; the
//! pipeline crate owns the periodic-snapshot runner and the resume logic.
//!
//! # Container format (version 1)
//!
//! ```text
//! magic   8 bytes  b"PBPSNAP1"
//! version u32 LE   1
//! count   u32 LE   number of sections
//! section (repeated `count` times):
//!   name_len u16 LE
//!   name     name_len bytes, UTF-8
//!   crc      u32 LE, CRC32 (IEEE) of the name bytes then the payload
//!   len      u64 LE, payload length in bytes
//!   payload  len bytes
//! ```
//!
//! Writes go to a temp file in the destination directory followed by an
//! atomic rename, so a crash mid-write never corrupts the previous
//! snapshot. Reads verify the magic, version, and every section CRC up
//! front and return typed [`SnapshotError`]s — truncation, foreign data,
//! and bit flips are reported, never panicked on.

mod codec;
mod container;
mod crc;
mod error;

pub use codec::{StateReader, StateWriter};
pub use container::{SnapshotArchive, SnapshotBuilder, SnapshotFamily, MAGIC, VERSION};
pub use crc::{crc32, Crc32};
pub use error::SnapshotError;

/// Full-state serialization into / out of the snapshot byte codec.
///
/// Implementations must round-trip exactly: `read_state` applied to the
/// bytes produced by `write_state` restores the receiver to a state that
/// is bit-identical for all subsequent computation. `read_state` is
/// called on a freshly-constructed value of the same configuration
/// (layout checks belong in the implementation, reported as
/// [`SnapshotError::Mismatch`]).
pub trait Snapshottable {
    /// Appends the complete state to the writer.
    fn write_state(&self, w: &mut StateWriter);

    /// Restores the complete state from the reader.
    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError>;
}
