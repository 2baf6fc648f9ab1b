//! The length-prefixed, CRC-checked frame codec for rank-to-rank links.
//!
//! Every message between neighboring ranks is one frame:
//!
//! ```text
//! len   u32 LE   length of `body` in bytes (not counting len or crc)
//! body  len bytes
//! crc   u32 LE   CRC32 (IEEE) of `body`
//! ```
//!
//! The body is a `pbp-snapshot` [`StateWriter`] stream: one kind tag
//! byte, the kind's scalar header, then (for data frames) the lane
//! stack as a tensor list — the same tensor serialization snapshots
//! use, so the wire format and the on-disk format can never drift
//! apart. Activation and gradient frames carry the microbatch id and
//! the sender's weight-version counter so `pbp-trace` spans on both
//! sides of a link stay tagged with the same identifiers a
//! single-process run would use.
//!
//! Decoding is strict: an unknown kind tag, a short payload, trailing
//! bytes, an oversized length prefix, and a CRC mismatch each return a
//! typed [`DistError`] — corruption is reported, never panicked on,
//! mirroring the `pbp-snapshot` container's contract.

use crate::error::DistError;
use pbp_snapshot::{crc32, StateReader, StateWriter};
use pbp_tensor::Tensor;
use std::io::{Read, Write};

/// Upper bound on a frame body; a length prefix beyond this is treated
/// as corruption instead of an allocation request.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

const KIND_HELLO: u8 = 1;
const KIND_ACTIVATION: u8 = 2;
const KIND_GRADIENT: u8 = 3;
const KIND_HEARTBEAT: u8 = 4;
const KIND_SHUTDOWN: u8 = 5;
const KIND_ACK: u8 = 6;

/// One message on a rank-to-rank link.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection handshake: who is talking and which run this is.
    /// `digest` commits to the topology, schedule, and seeds; a
    /// mismatch means two processes from different launches met.
    /// `epoch` is the link session epoch (the reconnect attempt, 0 at
    /// first establishment) and `last_seq` the highest data-frame sequence number this side
    /// has delivered — together they let a re-established connection
    /// resume mid-schedule by replaying exactly the frames the peer
    /// never saw (DESIGN §14).
    Hello {
        rank: u32,
        world: u32,
        digest: u64,
        epoch: u64,
        last_seq: u64,
    },
    /// Forward activations for one microbatch, flowing downstream. The
    /// lane stack is a tensor *list* (residual topologies keep several
    /// lanes in flight); `label` rides along so only the loss-owning
    /// rank needs it. `seq` is the per-link per-direction delivery
    /// sequence number the replay window keys on.
    Activation {
        seq: u64,
        microbatch: u64,
        weight_version: u64,
        label: u32,
        lanes: Vec<Tensor>,
    },
    /// Input gradients for one microbatch, flowing upstream. `loss` is
    /// the microbatch loss from the loss stage, relayed so rank 0 can
    /// report training progress.
    Gradient {
        seq: u64,
        microbatch: u64,
        weight_version: u64,
        loss: f32,
        lanes: Vec<Tensor>,
    },
    /// Liveness beacon sent before long local pauses (snapshot writes);
    /// receivers reset their stall clock and keep waiting.
    Heartbeat { rank: u32, beat: u64 },
    /// Cumulative delivery acknowledgement: every data frame up to and
    /// including `seq` arrived and was accepted on this link direction.
    /// The sender prunes its replay window up to `seq`.
    Ack { rank: u32, seq: u64 },
    /// Clean end-of-stream marker. Receiving one where data frames are
    /// expected is reported as [`DistError::PeerClosed`].
    Shutdown { rank: u32 },
}

impl Frame {
    /// Short human label for logs and fault reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Activation { .. } => "activation",
            Frame::Gradient { .. } => "gradient",
            Frame::Heartbeat { .. } => "heartbeat",
            Frame::Ack { .. } => "ack",
            Frame::Shutdown { .. } => "shutdown",
        }
    }

    /// The replay sequence number of a data frame (`None` for control
    /// frames, which are never replayed).
    pub fn seq(&self) -> Option<u64> {
        match self {
            Frame::Activation { seq, .. } | Frame::Gradient { seq, .. } => Some(*seq),
            _ => None,
        }
    }

    /// Stamps the replay sequence number on a data frame; a no-op for
    /// control frames.
    pub fn set_seq(&mut self, new_seq: u64) {
        if let Frame::Activation { seq, .. } | Frame::Gradient { seq, .. } = self {
            *seq = new_seq;
        }
    }
}

/// Bytes a frame's body takes, near enough to size its buffer once: the
/// scalar header is at most 37 bytes, a tensor's prefix 12 plus 8 a dim.
fn body_capacity(frame: &Frame) -> usize {
    let lanes = match frame {
        Frame::Activation { lanes, .. } | Frame::Gradient { lanes, .. } => lanes.as_slice(),
        _ => &[],
    };
    64 + lanes
        .iter()
        .map(|t| 12 + 8 * t.rank() + 4 * t.len())
        .sum::<usize>()
}

/// Appends a frame's body to `w`.
fn encode_body(w: &mut StateWriter, frame: &Frame) {
    match frame {
        Frame::Hello {
            rank,
            world,
            digest,
            epoch,
            last_seq,
        } => {
            w.put_u8(KIND_HELLO);
            w.put_u32(*rank);
            w.put_u32(*world);
            w.put_u64(*digest);
            w.put_u64(*epoch);
            w.put_u64(*last_seq);
        }
        Frame::Activation {
            seq,
            microbatch,
            weight_version,
            label,
            lanes,
        } => {
            w.put_u8(KIND_ACTIVATION);
            w.put_u64(*seq);
            w.put_u64(*microbatch);
            w.put_u64(*weight_version);
            w.put_u32(*label);
            w.put_tensor_list(lanes);
        }
        Frame::Gradient {
            seq,
            microbatch,
            weight_version,
            loss,
            lanes,
        } => {
            w.put_u8(KIND_GRADIENT);
            w.put_u64(*seq);
            w.put_u64(*microbatch);
            w.put_u64(*weight_version);
            w.put_f32(*loss);
            w.put_tensor_list(lanes);
        }
        Frame::Heartbeat { rank, beat } => {
            w.put_u8(KIND_HEARTBEAT);
            w.put_u32(*rank);
            w.put_u64(*beat);
        }
        Frame::Ack { rank, seq } => {
            w.put_u8(KIND_ACK);
            w.put_u32(*rank);
            w.put_u64(*seq);
        }
        Frame::Shutdown { rank } => {
            w.put_u8(KIND_SHUTDOWN);
            w.put_u32(*rank);
        }
    }
}

fn corrupt(e: impl std::fmt::Display) -> DistError {
    DistError::Corrupt(e.to_string())
}

/// Decodes a frame body (the bytes between the length prefix and the
/// CRC). The CRC must already have been verified by the caller.
fn decode_body(body: &[u8]) -> Result<Frame, DistError> {
    let mut r = StateReader::new(body);
    let kind = r.take_u8().map_err(corrupt)?;
    let frame = match kind {
        KIND_HELLO => Frame::Hello {
            rank: r.take_u32().map_err(corrupt)?,
            world: r.take_u32().map_err(corrupt)?,
            digest: r.take_u64().map_err(corrupt)?,
            epoch: r.take_u64().map_err(corrupt)?,
            last_seq: r.take_u64().map_err(corrupt)?,
        },
        KIND_ACTIVATION => Frame::Activation {
            seq: r.take_u64().map_err(corrupt)?,
            microbatch: r.take_u64().map_err(corrupt)?,
            weight_version: r.take_u64().map_err(corrupt)?,
            label: r.take_u32().map_err(corrupt)?,
            lanes: r.take_tensor_list().map_err(corrupt)?,
        },
        KIND_GRADIENT => Frame::Gradient {
            seq: r.take_u64().map_err(corrupt)?,
            microbatch: r.take_u64().map_err(corrupt)?,
            weight_version: r.take_u64().map_err(corrupt)?,
            loss: r.take_f32().map_err(corrupt)?,
            lanes: r.take_tensor_list().map_err(corrupt)?,
        },
        KIND_HEARTBEAT => Frame::Heartbeat {
            rank: r.take_u32().map_err(corrupt)?,
            beat: r.take_u64().map_err(corrupt)?,
        },
        KIND_ACK => Frame::Ack {
            rank: r.take_u32().map_err(corrupt)?,
            seq: r.take_u64().map_err(corrupt)?,
        },
        KIND_SHUTDOWN => Frame::Shutdown {
            rank: r.take_u32().map_err(corrupt)?,
        },
        other => return Err(DistError::Corrupt(format!("unknown frame kind {other}"))),
    };
    r.finish().map_err(corrupt)?;
    Ok(frame)
}

/// Serializes a frame into its full wire form: `len ++ body ++ crc`,
/// encoded in place in one buffer — the length patched in front of the
/// body once it is known, the CRC appended behind it.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w = StateWriter::with_capacity(body_capacity(frame) + 8);
    w.put_u32(0);
    encode_body(&mut w, frame);
    let mut out = w.into_bytes();
    let len = out.len() - 4;
    assert!(
        len <= MAX_FRAME_BYTES as usize,
        "frame body exceeds MAX_FRAME_BYTES"
    );
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Parses one frame from a complete wire buffer, verifying the length
/// prefix, the CRC, and that no bytes trail the frame.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, DistError> {
    let mut cursor = bytes;
    let frame = read_frame(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(DistError::Corrupt(format!(
            "{} trailing bytes after frame",
            cursor.len()
        )));
    }
    Ok(frame)
}

/// Writes a frame to a byte stream (one `write_all` of the full wire
/// form, so a healthy sender never interleaves partial frames).
pub fn write_frame(out: &mut impl Write, frame: &Frame) -> Result<(), DistError> {
    let wire = encode_frame(frame);
    out.write_all(&wire).map_err(map_send_err)?;
    out.flush().map_err(map_send_err)?;
    Ok(())
}

/// The whole wire length — prefix, body and CRC — of the frame whose
/// length prefix is `prefix`, refusing a body longer than
/// [`MAX_FRAME_BYTES`] before anything is allocated or read for it.
pub fn wire_len(prefix: [u8; 4]) -> Result<usize, DistError> {
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(DistError::Corrupt(format!(
            "frame length {len} exceeds {MAX_FRAME_BYTES}"
        )));
    }
    Ok(len as usize + 8)
}

/// Reads one frame from a byte stream, verifying length bound and CRC.
/// EOF at a frame boundary (or mid-frame) is [`DistError::PeerClosed`].
pub fn read_frame(input: &mut impl Read) -> Result<Frame, DistError> {
    let mut len_bytes = [0u8; 4];
    read_exact_or_closed(input, &mut len_bytes)?;
    let len = wire_len(len_bytes)? - 8;
    // Read body and CRC in one `read_exact`, without trusting `len` for
    // pre-allocation beyond the bound checked above.
    let mut rest = vec![0u8; len + 4];
    read_exact_or_closed(input, &mut rest)?;
    let (body, crc_bytes) = rest.split_at(len);
    if crc32(body).to_le_bytes() != crc_bytes {
        return Err(DistError::ChecksumMismatch);
    }
    decode_body(body)
}

fn read_exact_or_closed(input: &mut impl Read, buf: &mut [u8]) -> Result<(), DistError> {
    input.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::BrokenPipe => DistError::PeerClosed,
        _ => DistError::Io(e),
    })
}

/// The typed fault of a failed socket read or write: a reset, broken or
/// ended stream is [`DistError::PeerClosed`].
pub(crate) fn map_send_err(e: std::io::Error) -> DistError {
    match e.kind() {
        std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::BrokenPipe
        | std::io::ErrorKind::UnexpectedEof => DistError::PeerClosed,
        _ => DistError::Io(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(vals: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(vals.to_vec(), shape).unwrap()
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                rank: 2,
                world: 4,
                digest: 0xDEAD_BEEF_CAFE_F00D,
                epoch: (3 << 32) | 2,
                last_seq: 17,
            },
            Frame::Activation {
                seq: 42,
                microbatch: 41,
                weight_version: 7,
                label: 2,
                lanes: vec![tensor(&[1.0, -2.5, 3.25], &[1, 3])],
            },
            Frame::Gradient {
                seq: 42,
                microbatch: 41,
                weight_version: 7,
                loss: 0.625,
                lanes: vec![
                    tensor(&[0.5; 6], &[1, 2, 3]),
                    tensor(&[f32::NEG_INFINITY, 0.0], &[2]),
                ],
            },
            Frame::Heartbeat { rank: 1, beat: 99 },
            Frame::Ack { rank: 3, seq: 41 },
            Frame::Shutdown { rank: 0 },
        ]
    }

    #[test]
    fn frames_round_trip_through_the_wire_form() {
        for frame in sample_frames() {
            let wire = encode_frame(&frame);
            let back = decode_frame(&wire).unwrap();
            assert_eq!(back, frame, "{}", frame.kind_name());
        }
    }

    #[test]
    fn streamed_frames_parse_back_to_back() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
        }
        let mut cursor = stream.as_slice();
        for frame in &frames {
            assert_eq!(&read_frame(&mut cursor).unwrap(), frame);
        }
        assert!(matches!(
            read_frame(&mut cursor),
            Err(DistError::PeerClosed)
        ));
    }

    #[test]
    fn unknown_kind_is_typed_corruption() {
        let mut w = StateWriter::new();
        w.put_u8(0xEE);
        let body = w.into_bytes();
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        wire.extend_from_slice(&crc32(&body).to_le_bytes());
        assert!(matches!(decode_frame(&wire), Err(DistError::Corrupt(_))));
    }

    #[test]
    fn oversized_length_prefix_is_corruption_not_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        assert!(matches!(decode_frame(&wire), Err(DistError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_after_body_are_corruption() {
        // Payload longer than the header implies: decode_body must see
        // leftover bytes and refuse.
        let frame = Frame::Heartbeat { rank: 1, beat: 2 };
        let mut w = StateWriter::new();
        encode_body(&mut w, &frame);
        let mut body = w.into_bytes();
        body.push(0x42);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        wire.extend_from_slice(&crc32(&body).to_le_bytes());
        assert!(matches!(decode_frame(&wire), Err(DistError::Corrupt(_))));
    }
}
