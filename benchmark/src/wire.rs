//! Counts what the socket ranks put on the wire, from outside `pbp-dist`:
//! a `SocketStream` that wraps a `UnixStream` and counts every `read` and
//! `write` call (one system call each) and the bytes they move. `run_rank`
//! accepts it through `LinkEndpoint::Conn`. `/proc/self/io` cannot give
//! these numbers: it counts file reads and writes, not `recv` and `send`.

use pbp_dist::transport::SocketStream;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Totals over both ends of a link. Statistics only: `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct WireCounts {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub bytes_written: AtomicU64,
}

impl WireCounts {
    pub fn syscalls(&self) -> u64 {
        self.reads.load(Ordering::Relaxed) + self.writes.load(Ordering::Relaxed)
    }
    /// `write_frame` issues one `write_all` per frame, so on a healthy
    /// stream socket writes count frames.
    pub fn frames(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }
    pub fn bytes(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }
}

pub struct CountingStream {
    inner: UnixStream,
    counts: Arc<WireCounts>,
}

/// A connected pair of counting streams sharing one set of totals.
pub fn counting_pair(
    counts: &Arc<WireCounts>,
) -> std::io::Result<(CountingStream, CountingStream)> {
    let (a, b) = UnixStream::pair()?;
    let wrap = |inner| CountingStream {
        inner,
        counts: Arc::clone(counts),
    };
    Ok((wrap(a), wrap(b)))
}

impl Read for CountingStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(buf)
    }
}

impl Write for CountingStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        let n = self.inner.write(buf)?;
        self.counts
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl SocketStream for CountingStream {
    fn set_recv_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_call_and_byte_is_counted_on_both_ends() {
        let counts = Arc::new(WireCounts::default());
        let (mut a, mut b) = counting_pair(&counts).unwrap();
        a.write_all(b"hello").unwrap();
        b.write_all(b"hi").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        a.read_exact(&mut buf[..2]).unwrap();
        assert_eq!((counts.frames(), counts.bytes()), (2, 7));
        assert_eq!(counts.syscalls(), 4);
    }
}
