//! Multi-process distributed pipeline: socket transport, rank framing,
//! and a stage-group launcher.
//!
//! This crate turns the single-process pipeline emulation into a chain
//! of OS processes, one per *stage group*, exchanging activations and
//! gradients over length-prefixed CRC-checked frames:
//!
//! * [`codec`] — the wire format: every frame is
//!   `len u32 | body | crc32(body)`, with the body serialized through
//!   the same `StateWriter`/`StateReader` codec snapshots use, so
//!   tensors have exactly one byte-level representation in the repo.
//! * [`transport`] — Unix-socket, TCP, and in-process loopback links
//!   behind one [`Connection`] trait, with watchdog-style stall/closed
//!   fault typing and deadline-based reconnect.
//! * [`topology`] — the contiguous stage partition and its digest,
//!   which the [`transport::handshake`] uses to refuse cross-run links.
//! * [`runner`] — one rank: the [`RankLoop`](pbp_pipeline::RankLoop) a
//!   `pbp-pipeline` worker thread steps between two channels, here over
//!   the rank's stages between two reliable links, plus rank 0's data
//!   feed and what happens between steps (snapshot drain barriers).
//!   Bit-identical to the sequential
//!   [`ScheduledTrainer`](pbp_pipeline::ScheduledTrainer) by
//!   construction (see DESIGN §12).
//! * [`launch`] — the `pbp-launch` supervisor: spawns one process per
//!   rank, watches for typed faults (peer death, stalls, nonzero
//!   exits), and restarts the whole stage group from the newest
//!   snapshot counter *all* ranks hold, under the workspace's one retry loop
//!   ([`pbp_pipeline::supervise_retries`]).
//! * [`reliable`] — the session layer chaos is aimed at: sequence
//!   numbers, cumulative acks, a bounded replay window, and
//!   reconnect-with-replay behind the same [`Connection`] trait. A
//!   [`ReliableConn`] is the rank loop's socket
//!   [`Link`](pbp_pipeline::Link), and its receive path is the one
//!   place the link clauses of a [`FaultPlan`](pbp_pipeline::FaultPlan)
//!   — the workspace's one fault script, `PBP_NET_FAULTS` — are applied.
//! * [`env`] — hardened `PBP_NET_FAULTS` parsing, the fault script the
//!   launcher hands its children (an invalid one warns once and the run
//!   proceeds un-faulted, like `PBP_THREADS` / `PBP_SIMD`).

pub mod codec;
pub mod env;
pub mod error;
pub mod launch;
pub mod reliable;
pub mod runner;
pub mod topology;
pub mod transport;

pub use codec::{Frame, MAX_FRAME_BYTES};
pub use env::env_net_faults;
pub use error::DistError;
pub use launch::{launch, LaunchFault, LaunchReport, LaunchSpec};
pub use reliable::{LinkEndpoint, LinkIdentity, LinkOptions, ReconnectPolicy, ReliableConn};
pub use runner::{
    load_rank_snapshot, run_rank, splice_owned_stages, RankOutcome, RankRecovery, RankSpec,
};
pub use topology::Topology;
pub use transport::{
    handshake, loopback_pair, Connection, LinkListener, PeerHello, StreamConn, Transport,
};
