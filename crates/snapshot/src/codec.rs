//! Little-endian byte codec for snapshot section payloads.
//!
//! [`StateWriter`] appends fixed-width primitives, length-prefixed byte
//! strings, and tensors to a growable buffer; [`StateReader`] consumes
//! the same stream, returning [`SnapshotError::Corrupt`] on any short
//! read instead of panicking. Every `put_*` has a matching `take_*` with
//! an identical wire format, so implementations of `Snapshottable` only
//! need to keep their write and read sequences in the same order.

use crate::error::SnapshotError;
use pbp_tensor::Tensor;

/// Append-only encoder for a section payload.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// Creates an empty writer with room for `bytes` bytes, for a caller
    /// that knows roughly how much it will write.
    pub fn with_capacity(bytes: usize) -> Self {
        StateWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends a length-prefixed `f32` slice, the elements in one bulk
    /// copy of their little-endian bit patterns.
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_u64(vs.len() as u64);
        let start = self.buf.len();
        self.buf.resize(start + 4 * vs.len(), 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(4).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends a tensor: rank, dims, then the bit-exact element data.
    pub fn put_tensor(&mut self, t: &Tensor) {
        self.put_u32(t.rank() as u32);
        for &d in t.shape() {
            self.put_u64(d as u64);
        }
        self.put_f32_slice(t.as_slice());
    }

    /// Appends a count-prefixed list of tensors.
    pub fn put_tensor_list(&mut self, ts: &[Tensor]) {
        self.put_u32(ts.len() as u32);
        for t in ts {
            self.put_tensor(t);
        }
    }

    /// Appends a count-prefixed list of borrowed tensors (the shape
    /// `params()` accessors return).
    pub fn put_tensor_refs(&mut self, ts: &[&Tensor]) {
        self.put_u32(ts.len() as u32);
        for t in ts {
            self.put_tensor(t);
        }
    }
}

/// Sequential decoder over a section payload.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        StateReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the stream was consumed exactly.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes in section payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Corrupt(format!(
                "truncated payload: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`; any byte other than 0 or 1 is corruption.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn take_u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `usize` stored as `u64`; errors if it overflows this
    /// platform's word size.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.take_u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("usize value {v} overflows platform")))
    }

    /// Reads an `f32` bit pattern.
    pub fn take_f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed byte string, borrowing from the payload.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.take_usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.take_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("invalid UTF-8 string".into()))
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn take_f32_vec(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let len = self.take_usize()?;
        if len.saturating_mul(4) > self.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "f32 slice of {len} elements exceeds payload"
            )));
        }
        let bytes = self.take(4 * len)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Reads a tensor written by [`StateWriter::put_tensor`].
    pub fn take_tensor(&mut self) -> Result<Tensor, SnapshotError> {
        let rank = self.take_u32()? as usize;
        if rank > 8 {
            return Err(SnapshotError::Corrupt(format!("tensor rank {rank} > 8")));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(self.take_usize()?);
        }
        let data = self.take_f32_vec()?;
        Tensor::from_vec(data, &shape)
            .map_err(|e| SnapshotError::Corrupt(format!("tensor decode: {e}")))
    }

    /// Reads a count-prefixed list of tensors.
    pub fn take_tensor_list(&mut self) -> Result<Vec<Tensor>, SnapshotError> {
        let n = self.take_u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.take_tensor()?);
        }
        Ok(out)
    }

    /// Reads a tensor list and copies it element-wise into existing
    /// mutable tensors, enforcing shape agreement. This is the restore
    /// path for parameter-shaped state (velocities, stashed weights).
    pub fn take_tensors_into(
        &mut self,
        dst: &mut [&mut Tensor],
        what: &str,
    ) -> Result<(), SnapshotError> {
        let n = self.take_u32()? as usize;
        if n != dst.len() {
            return Err(SnapshotError::Mismatch(format!(
                "{what}: stored {n} tensors, object has {}",
                dst.len()
            )));
        }
        for (i, t) in dst.iter_mut().enumerate() {
            let stored = self.take_tensor()?;
            if stored.shape() != t.shape() {
                return Err(SnapshotError::Mismatch(format!(
                    "{what}[{i}]: stored shape {:?}, object has {:?}",
                    stored.shape(),
                    t.shape()
                )));
            }
            t.as_mut_slice().copy_from_slice(stored.as_slice());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(u128::MAX / 3);
        w.put_usize(123_456);
        w.put_f32(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_bytes(b"abc");
        w.put_str("snapshot \u{2764}");
        w.put_f32_slice(&[1.5, -2.25, f32::INFINITY]);
        let bytes = w.into_bytes();

        let mut r = StateReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.take_usize().unwrap(), 123_456);
        assert_eq!(r.take_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.take_f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.take_bytes().unwrap(), b"abc");
        assert_eq!(r.take_str().unwrap(), "snapshot \u{2764}");
        assert_eq!(r.take_f32_vec().unwrap(), vec![1.5, -2.25, f32::INFINITY]);
        r.finish().unwrap();
    }

    #[test]
    fn tensors_round_trip_bit_exactly() {
        let t = Tensor::from_vec(vec![1.0e-30, -2.5, 3.75, 0.1], &[2, 2]).unwrap();
        let mut w = StateWriter::new();
        w.put_tensor(&t);
        w.put_tensor_list(&[t.clone(), Tensor::zeros(&[3])]);
        let bytes = w.into_bytes();

        let mut r = StateReader::new(&bytes);
        let back = r.take_tensor().unwrap();
        assert_eq!(back.shape(), t.shape());
        for (a, b) in back.as_slice().iter().zip(t.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let list = r.take_tensor_list().unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[1].shape(), &[3]);
        r.finish().unwrap();
    }

    #[test]
    fn take_tensors_into_enforces_shapes() {
        let src = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let mut w = StateWriter::new();
        w.put_tensor_list(std::slice::from_ref(&src));
        let bytes = w.into_bytes();

        let mut good = Tensor::zeros(&[2]);
        let mut r = StateReader::new(&bytes);
        r.take_tensors_into(&mut [&mut good], "test").unwrap();
        assert_eq!(good.as_slice(), &[1.0, 2.0]);

        let mut bad = Tensor::zeros(&[3]);
        let mut r = StateReader::new(&bytes);
        let err = r.take_tensors_into(&mut [&mut bad], "test").unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err}");
    }

    #[test]
    fn truncated_payload_is_typed_error() {
        let mut w = StateWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..5]);
        assert!(matches!(r.take_u64(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut w = StateWriter::new();
        w.put_u32(1);
        w.put_u32(2);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        r.take_u32().unwrap();
        assert!(matches!(r.finish(), Err(SnapshotError::Corrupt(_))));
    }
}
