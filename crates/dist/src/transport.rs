//! Rank-to-rank links: Unix sockets, TCP, and an in-process loopback.
//!
//! A [`Connection`] moves [`Frame`]s in both directions over one link of
//! the rank chain. All three implementations push every frame through
//! the same encode/decode path ([`crate::codec`]), so the loopback used
//! by the equivalence tests exercises exactly the bytes the socket
//! transports put on the wire.
//!
//! Liveness: `recv` takes a stall window. A clean EOF is
//! [`DistError::PeerClosed`]; silence past the window is
//! [`DistError::PeerStalled`] — the same closed/stalled distinction the
//! PR5 watchdog draws for threads, lifted to processes. Senders emit
//! [`Frame::Heartbeat`]s before long local pauses (snapshot writes);
//! [`Connection::recv_data`] consumes them silently, resetting the
//! stall clock without surfacing a frame.
//!
//! Reconnect: [`Transport::connect`] retries with a deadline, so a rank
//! that comes up first (or comes back after a supervised restart) simply
//! waits for its neighbor to bind the link again.
//!
//! Chaos: `apply_net_fault` turns one scripted
//! [`LinkFault`] into what a receiver sees, for
//! the session layer's receive path (`crate::reliable`). Corruptions are
//! injected into the *wire bytes*, so they surface through the exact
//! codec error paths a hostile network would hit.

use crate::codec::{decode_frame, encode_frame, map_send_err, wire_len, write_frame, Frame};
use crate::error::DistError;
use crate::reliable::LinkIdentity;
use pbp_pipeline::LinkFault;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How often connect/accept loops poll while waiting for a peer.
const RETRY_POLL: Duration = Duration::from_millis(2);

/// A bidirectional framed link to a neighboring rank.
pub trait Connection: Send {
    /// Sends one frame (a single buffered write of the wire form).
    fn send(&mut self, frame: &Frame) -> Result<(), DistError>;

    /// Receives the next frame, whatever its kind. Returns
    /// [`DistError::PeerStalled`] if nothing arrives within `stall`.
    fn recv_raw(&mut self, stall: Duration) -> Result<Frame, DistError>;

    /// Receives the next *data* frame: heartbeats are consumed silently
    /// (each one restarts the stall window — the peer is alive, just
    /// busy), and a `Shutdown` where data is expected is reported as
    /// [`DistError::PeerClosed`].
    fn recv_data(&mut self, stall: Duration) -> Result<Frame, DistError> {
        loop {
            match self.recv_raw(stall)? {
                Frame::Heartbeat { .. } => continue,
                Frame::Shutdown { .. } => return Err(DistError::PeerClosed),
                frame => return Ok(frame),
            }
        }
    }
}

/// A byte stream with an OS-level receive timeout — the part of
/// `UnixStream`/`TcpStream` the framed connection needs.
pub trait SocketStream: Read + Write + Send {
    /// Sets the blocking-read timeout (`None` = block forever).
    fn set_recv_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl SocketStream for UnixStream {
    fn set_recv_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

impl SocketStream for TcpStream {
    fn set_recv_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

/// The least a [`StreamConn`] asks one `read` for: a few of the ledger's
/// conv activations, so a frame, and often the next one behind it, takes
/// one call.
const READ_CHUNK: usize = 64 * 1024;

/// Framed connection over a socket stream.
///
/// Reads go through one per-link buffer: each `read` asks for as much as
/// the buffer holds, so a frame costs one call however it is laid out —
/// its length, body and CRC together, and any frame that arrived behind
/// it kept for the next receive. The frame's length is checked against
/// the bound before the buffer grows for it; a stream that ends mid-frame
/// is [`DistError::PeerClosed`].
///
/// The stall window is enforced with the socket's read timeout. A
/// timeout that fires mid-frame ([`DistError::PeerStalled`]) leaves the
/// link desynchronized — acceptable because both stall and desync are
/// terminal for the link: the typed fault reaches the launcher, which
/// restarts the stage group from the newest common snapshot.
pub struct StreamConn<S: SocketStream> {
    stream: S,
    timeout: Option<Duration>,
    /// Bytes read and not yet decoded: `inbox[head..filled]`.
    inbox: Vec<u8>,
    head: usize,
    filled: usize,
}

impl<S: SocketStream> StreamConn<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S) -> Self {
        StreamConn {
            stream,
            timeout: None,
            inbox: Vec::new(),
            head: 0,
            filled: 0,
        }
    }

    fn ensure_timeout(&mut self, stall: Duration) -> Result<(), DistError> {
        if self.timeout != Some(stall) {
            self.stream.set_recv_timeout(Some(stall))?;
            self.timeout = Some(stall);
        }
        Ok(())
    }

    /// Moves the undecoded bytes to the front of the buffer and grows it
    /// to hold `need` of them and at least [`READ_CHUNK`], then reads once
    /// into what is free.
    fn read_more(&mut self, need: usize, stall: Duration) -> Result<(), DistError> {
        self.inbox.copy_within(self.head..self.filled, 0);
        (self.filled, self.head) = (self.filled - self.head, 0);
        let size = need.max(READ_CHUNK);
        if self.inbox.len() < size {
            self.inbox.resize(size, 0);
        }
        loop {
            match self.stream.read(&mut self.inbox[self.filled..]) {
                Ok(0) => return Err(DistError::PeerClosed),
                Ok(n) => {
                    self.filled += n;
                    return Ok(());
                }
                Err(e) => match e.kind() {
                    std::io::ErrorKind::Interrupted => continue,
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        return Err(DistError::PeerStalled(stall))
                    }
                    _ => return Err(map_send_err(e)),
                },
            }
        }
    }
}

impl<S: SocketStream> Connection for StreamConn<S> {
    fn send(&mut self, frame: &Frame) -> Result<(), DistError> {
        write_frame(&mut self.stream, frame)
    }

    fn recv_raw(&mut self, stall: Duration) -> Result<Frame, DistError> {
        self.ensure_timeout(stall)?;
        loop {
            let ready = &self.inbox[self.head..self.filled];
            let need = match ready.first_chunk::<4>() {
                Some(&prefix) => wire_len(prefix)?,
                None => 4,
            };
            if ready.len() >= need {
                let frame = decode_frame(&ready[..need]);
                self.head += need;
                return frame;
            }
            self.read_more(need, stall)?;
        }
    }
}

/// In-process loopback link: frames are fully encoded to wire bytes,
/// shipped over a channel, and decoded on the far side, so tests using
/// it still cover the codec.
pub struct LoopbackConn {
    tx: std::sync::mpsc::Sender<Vec<u8>>,
    rx: std::sync::mpsc::Receiver<Vec<u8>>,
}

/// Creates both ends of a loopback link.
pub fn loopback_pair() -> (LoopbackConn, LoopbackConn) {
    let (atx, brx) = std::sync::mpsc::channel();
    let (btx, arx) = std::sync::mpsc::channel();
    (
        LoopbackConn { tx: atx, rx: arx },
        LoopbackConn { tx: btx, rx: brx },
    )
}

impl Connection for LoopbackConn {
    fn send(&mut self, frame: &Frame) -> Result<(), DistError> {
        self.tx
            .send(crate::codec::encode_frame(frame))
            .map_err(|_| DistError::PeerClosed)
    }

    fn recv_raw(&mut self, stall: Duration) -> Result<Frame, DistError> {
        match self.rx.recv_timeout(stall) {
            Ok(bytes) => crate::codec::decode_frame(&bytes),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Err(DistError::PeerStalled(stall)),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(DistError::PeerClosed),
        }
    }
}

/// Applies the fault (if any) scripted for a received data frame.
/// Returns `None` when the frame should be treated as never having
/// arrived (dropped, or inside a partition); otherwise the (possibly
/// corrupted-on-decode) delivery result — `Truncate`/`BitFlip` yield the
/// same typed [`DistError::Corrupt`]/[`DistError::ChecksumMismatch`] a
/// genuinely hostile network produces. A duplicate's second copy lands
/// in `pending` for the next receive.
pub(crate) fn apply_net_fault(
    frame: Frame,
    fault: Option<LinkFault>,
    pending: &mut VecDeque<Frame>,
) -> Option<Result<Frame, DistError>> {
    match fault {
        None => Some(Ok(frame)),
        Some(LinkFault::Drop | LinkFault::Partition(_)) => None,
        Some(LinkFault::Truncate) => {
            let mut wire = encode_frame(&frame);
            let keep = wire.len().saturating_sub(wire.len() / 3).max(4);
            wire.truncate(keep);
            // A short body on a live link is corruption, not a closed
            // peer — keep the fault typed as such.
            Some(match decode_frame(&wire) {
                Err(DistError::PeerClosed) => Err(DistError::Corrupt(format!(
                    "frame truncated to {keep} bytes in flight"
                ))),
                other => other,
            })
        }
        Some(LinkFault::BitFlip) => {
            let mut wire = encode_frame(&frame);
            // Flip inside the body (past the length prefix, before the
            // trailing CRC) so the damage reads as a checksum mismatch,
            // not a framing error.
            let mid = 4 + (wire.len() - 8) / 2;
            wire[mid] ^= 0x40;
            Some(decode_frame(&wire))
        }
        Some(LinkFault::Duplicate) => {
            pending.push_back(frame.clone());
            Some(Ok(frame))
        }
        Some(LinkFault::Delay(pause)) => {
            std::thread::sleep(pause);
            Some(Ok(frame))
        }
    }
}

/// Where the rank chain's links live. Link `i` connects rank `i`
/// (listening side) to rank `i + 1` (connecting side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// Unix-domain sockets `link-{i}.sock` inside a directory.
    Unix { dir: PathBuf },
    /// TCP on `host`, link `i` at `base_port + i`.
    Tcp { host: String, base_port: u16 },
}

impl Transport {
    /// Parses the launcher's `--transport` argument:
    /// `unix:<dir>` or `tcp:<host>:<base_port>`.
    pub fn parse(raw: &str) -> Result<Self, DistError> {
        if let Some(dir) = raw.strip_prefix("unix:") {
            if dir.is_empty() {
                return Err(DistError::Spec("unix transport needs a directory".into()));
            }
            return Ok(Transport::Unix {
                dir: PathBuf::from(dir),
            });
        }
        if let Some(rest) = raw.strip_prefix("tcp:") {
            let (host, port) = rest
                .rsplit_once(':')
                .ok_or_else(|| DistError::Spec(format!("tcp transport {raw:?} needs host:port")))?;
            let base_port = port
                .parse::<u16>()
                .map_err(|_| DistError::Spec(format!("invalid tcp base port {port:?}")))?;
            if host.is_empty() {
                return Err(DistError::Spec("tcp transport needs a host".into()));
            }
            return Ok(Transport::Tcp {
                host: host.to_string(),
                base_port,
            });
        }
        Err(DistError::Spec(format!(
            "unknown transport {raw:?} (want unix:<dir> or tcp:<host>:<port>)"
        )))
    }

    /// The argument form [`Transport::parse`] accepts — handed to child
    /// processes by the launcher.
    pub fn arg(&self) -> String {
        match self {
            Transport::Unix { dir } => format!("unix:{}", dir.display()),
            Transport::Tcp { host, base_port } => format!("tcp:{host}:{base_port}"),
        }
    }

    fn unix_path(dir: &std::path::Path, link: usize) -> PathBuf {
        dir.join(format!("link-{link}.sock"))
    }

    /// Binds the listening side of link `link` (rank `link` does this).
    /// A stale socket file from a previous run is removed first.
    pub fn listen(&self, link: usize) -> Result<LinkListener, DistError> {
        match self {
            Transport::Unix { dir } => {
                std::fs::create_dir_all(dir)?;
                let path = Transport::unix_path(dir, link);
                match std::fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
                Ok(LinkListener::Unix(UnixListener::bind(&path)?))
            }
            Transport::Tcp { host, base_port } => {
                let addr = format!("{host}:{}", base_port + link as u16);
                Ok(LinkListener::Tcp(TcpListener::bind(addr)?))
            }
        }
    }

    /// Connects the client side of link `link` (rank `link + 1` does
    /// this), retrying until the listener appears or `deadline` passes —
    /// this retry loop is also the reconnect path after a supervised
    /// restart.
    pub fn connect(
        &self,
        link: usize,
        deadline: Duration,
    ) -> Result<Box<dyn Connection>, DistError> {
        match self {
            Transport::Unix { dir } => {
                let path = Transport::unix_path(dir, link);
                Ok(Box::new(dial(deadline, || UnixStream::connect(&path))?))
            }
            Transport::Tcp { host, base_port } => {
                let addr = format!("{host}:{}", base_port + link as u16);
                Ok(Box::new(dial(deadline, || TcpStream::connect(&addr))?))
            }
        }
    }
}

/// The listening side of one link.
pub enum LinkListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl LinkListener {
    /// Accepts the neighbor's connection, giving up after `deadline`.
    pub fn accept(&self, deadline: Duration) -> Result<Box<dyn Connection>, DistError> {
        match self {
            LinkListener::Unix(listener) => {
                listener.set_nonblocking(true)?;
                Ok(Box::new(accept_within(deadline, || {
                    Ok(listener.accept()?.0)
                })?))
            }
            LinkListener::Tcp(listener) => {
                listener.set_nonblocking(true)?;
                Ok(Box::new(accept_within(deadline, || {
                    Ok(listener.accept()?.0)
                })?))
            }
        }
    }
}

/// The sockets a [`Transport`] dials and accepts.
trait LinkSocket: SocketStream + Sized {
    /// Sets a connected stream up as a link end: blocking (an accepted
    /// stream inherits its listener's mode), and for TCP with
    /// `TCP_NODELAY`, so a small frame is not held back by Nagle's
    /// algorithm waiting for the ack of the one before.
    fn configure(&self) -> std::io::Result<()>;
}

impl LinkSocket for UnixStream {
    fn configure(&self) -> std::io::Result<()> {
        self.set_nonblocking(false)
    }
}

impl LinkSocket for TcpStream {
    fn configure(&self) -> std::io::Result<()> {
        self.set_nonblocking(false)?;
        self.set_nodelay(true)
    }
}

/// The one place a link end is made from a connected stream, on the
/// dialing and the accepting side alike.
fn link_end<S: LinkSocket>(stream: S) -> std::io::Result<StreamConn<S>> {
    stream.configure()?;
    Ok(StreamConn::new(stream))
}

/// Calls `connect` until it yields a stream or `deadline` passes.
fn dial<S: LinkSocket>(
    deadline: Duration,
    mut connect: impl FnMut() -> std::io::Result<S>,
) -> Result<StreamConn<S>, DistError> {
    let start = Instant::now();
    loop {
        match connect().and_then(link_end) {
            Ok(conn) => return Ok(conn),
            Err(_) if start.elapsed() < deadline => std::thread::sleep(RETRY_POLL),
            Err(e) => return Err(DistError::Io(e)),
        }
    }
}

/// Calls `accept` on a non-blocking listener until it yields a stream,
/// or reports [`DistError::PeerStalled`] once `deadline` passes.
fn accept_within<S: LinkSocket>(
    deadline: Duration,
    mut accept: impl FnMut() -> std::io::Result<S>,
) -> Result<StreamConn<S>, DistError> {
    let start = Instant::now();
    loop {
        match accept() {
            Ok(stream) => return Ok(link_end(stream)?),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if start.elapsed() >= deadline {
                    return Err(DistError::PeerStalled(deadline));
                }
                std::thread::sleep(RETRY_POLL);
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// What the peer announced in its `Hello` during [`handshake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerHello {
    /// The peer's rank (already validated against the expected one).
    pub rank: u32,
    /// The peer's session epoch: its reconnect attempt.
    pub epoch: u64,
    /// Highest data-frame sequence number the peer has delivered on
    /// this link — where replay must resume from.
    pub last_seq: u64,
}

/// Exchanges `Hello` frames on a fresh connection and verifies the peer
/// belongs to this run: same world size, same topology/run digest, and
/// the expected neighbor rank, as `identity` names them. `epoch`/`last_seq`
/// advertise this side's session state for reconnect-with-replay (zero on
/// first contact). Returns what the peer announced.
pub fn handshake(
    conn: &mut dyn Connection,
    identity: &LinkIdentity,
    epoch: u64,
    last_seq: u64,
    stall: Duration,
) -> Result<PeerHello, DistError> {
    let LinkIdentity {
        my_rank,
        peer_rank: expect_peer,
        world,
        digest,
    } = *identity;
    conn.send(&Frame::Hello {
        rank: my_rank,
        world,
        digest,
        epoch,
        last_seq,
    })?;
    match conn.recv_raw(stall)? {
        Frame::Hello {
            rank,
            world: peer_world,
            digest: peer_digest,
            epoch: peer_epoch,
            last_seq: peer_last_seq,
        } => {
            if peer_world != world {
                return Err(DistError::Handshake(format!(
                    "peer world {peer_world} != {world}"
                )));
            }
            if peer_digest != digest {
                return Err(DistError::Handshake(format!(
                    "peer digest {peer_digest:#x} != {digest:#x} (different launch?)"
                )));
            }
            if rank != expect_peer {
                return Err(DistError::Handshake(format!(
                    "expected rank {expect_peer} on this link, got rank {rank}"
                )));
            }
            Ok(PeerHello {
                rank,
                epoch: peer_epoch,
                last_seq: peer_last_seq,
            })
        }
        other => Err(DistError::Handshake(format!(
            "expected hello, got {}",
            other.kind_name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STALL: Duration = Duration::from_millis(500);

    fn beat(rank: u32, beat_no: u64) -> Frame {
        Frame::Heartbeat {
            rank,
            beat: beat_no,
        }
    }

    #[test]
    fn loopback_round_trips_and_detects_close() {
        let (mut a, mut b) = loopback_pair();
        a.send(&beat(0, 1)).unwrap();
        assert_eq!(b.recv_raw(STALL).unwrap(), beat(0, 1));
        drop(a);
        assert!(matches!(b.recv_raw(STALL), Err(DistError::PeerClosed)));
    }

    #[test]
    fn loopback_stall_is_typed_with_the_window() {
        let (_a, mut b) = loopback_pair();
        let window = Duration::from_millis(20);
        match b.recv_raw(window) {
            Err(DistError::PeerStalled(w)) => assert_eq!(w, window),
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn recv_data_skips_heartbeats_and_reports_shutdown_as_closed() {
        let (mut a, mut b) = loopback_pair();
        a.send(&beat(0, 1)).unwrap();
        a.send(&beat(0, 2)).unwrap();
        a.send(&Frame::Shutdown { rank: 0 }).unwrap();
        assert!(matches!(b.recv_data(STALL), Err(DistError::PeerClosed)));
    }

    #[test]
    fn unix_socket_link_round_trips_frames() {
        let dir = std::env::temp_dir().join(format!("pbp_dist_unix_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let transport = Transport::Unix { dir: dir.clone() };
        let listener = transport.listen(0).unwrap();
        let t2 = transport.clone();
        let client = std::thread::spawn(move || {
            let mut conn = t2.connect(0, STALL).unwrap();
            conn.send(&beat(1, 7)).unwrap();
            conn.recv_raw(STALL).unwrap()
        });
        let mut server = listener.accept(STALL).unwrap();
        assert_eq!(server.recv_raw(STALL).unwrap(), beat(1, 7));
        server.send(&beat(0, 8)).unwrap();
        assert_eq!(client.join().unwrap(), beat(0, 8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn socket_peer_death_is_peer_closed() {
        let dir = std::env::temp_dir().join(format!("pbp_dist_dead_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let transport = Transport::Unix { dir: dir.clone() };
        let listener = transport.listen(0).unwrap();
        let t2 = transport.clone();
        let client = std::thread::spawn(move || {
            let conn = t2.connect(0, STALL).unwrap();
            drop(conn); // peer dies immediately
        });
        let mut server = listener.accept(STALL).unwrap();
        client.join().unwrap();
        assert!(matches!(server.recv_raw(STALL), Err(DistError::PeerClosed)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn socket_silence_is_peer_stalled() {
        let dir = std::env::temp_dir().join(format!("pbp_dist_stall_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let transport = Transport::Unix { dir: dir.clone() };
        let listener = transport.listen(0).unwrap();
        let t2 = transport.clone();
        let window = Duration::from_millis(30);
        let client = std::thread::spawn(move || {
            let mut conn = t2.connect(0, STALL).unwrap();
            // Stay alive but silent past the window, then close.
            std::thread::sleep(Duration::from_millis(90));
            let _ = conn.send(&beat(1, 1));
        });
        let mut server = listener.accept(STALL).unwrap();
        assert!(matches!(
            server.recv_raw(window),
            Err(DistError::PeerStalled(_))
        ));
        client.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn identity(my_rank: u32, peer_rank: u32, world: u32, digest: u64) -> LinkIdentity {
        LinkIdentity {
            my_rank,
            peer_rank,
            world,
            digest,
        }
    }

    /// A Unix stream that counts the `read` calls made on it.
    struct CountedReads(UnixStream, std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl Read for CountedReads {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.0.read(buf)
        }
    }

    impl Write for CountedReads {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.0.flush()
        }
    }

    impl SocketStream for CountedReads {
        fn set_recv_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
            self.0.set_read_timeout(timeout)
        }
    }

    /// A receiving link over one end of a socket pair, the raw other end,
    /// and the receiver's read count.
    fn counted_link() -> (
        StreamConn<CountedReads>,
        UnixStream,
        std::sync::Arc<std::sync::atomic::AtomicUsize>,
    ) {
        let (a, b) = UnixStream::pair().unwrap();
        let reads = std::sync::Arc::default();
        (
            StreamConn::new(CountedReads(a, std::sync::Arc::clone(&reads))),
            b,
            reads,
        )
    }

    fn activation(seq: u64) -> Frame {
        let values: Vec<f32> = (0..300).map(|i| i as f32 * 0.5 - seq as f32).collect();
        Frame::Activation {
            seq,
            microbatch: seq,
            weight_version: 1,
            label: 3,
            lanes: vec![pbp_tensor::Tensor::from_vec(values, &[1, 300]).unwrap()],
        }
    }

    #[test]
    fn a_frame_written_a_byte_at_a_time_decodes() {
        let (mut conn, mut raw, _) = counted_link();
        let wire = encode_frame(&activation(5));
        let writer = std::thread::spawn(move || {
            for byte in wire {
                raw.write_all(&[byte]).unwrap();
                std::thread::sleep(Duration::from_micros(50));
            }
            raw
        });
        assert_eq!(conn.recv_raw(STALL).unwrap(), activation(5));
        drop(writer.join().unwrap());
        assert!(matches!(conn.recv_raw(STALL), Err(DistError::PeerClosed)));
    }

    #[test]
    fn two_frames_in_one_write_take_one_read() {
        let (mut conn, mut raw, reads) = counted_link();
        let mut wire = encode_frame(&activation(1));
        wire.extend(encode_frame(&beat(1, 2)));
        raw.write_all(&wire).unwrap();
        assert_eq!(conn.recv_raw(STALL).unwrap(), activation(1));
        assert_eq!(conn.recv_raw(STALL).unwrap(), beat(1, 2));
        let reads = reads.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(reads, 1, "both frames came from one read");
    }

    #[test]
    fn buffered_reads_keep_every_typed_fault() {
        // An oversized length is refused from its prefix alone.
        let (mut conn, mut raw, _) = counted_link();
        raw.write_all(&(crate::codec::MAX_FRAME_BYTES + 1).to_le_bytes())
            .unwrap();
        assert!(matches!(conn.recv_raw(STALL), Err(DistError::Corrupt(_))));
        // A stream that ends mid-frame is a closed peer.
        let (mut conn, mut raw, _) = counted_link();
        let wire = encode_frame(&activation(2));
        raw.write_all(&wire[..wire.len() / 2]).unwrap();
        drop(raw);
        assert!(matches!(conn.recv_raw(STALL), Err(DistError::PeerClosed)));
        // A peer that goes silent mid-frame is a stalled one.
        let (mut conn, mut raw, _) = counted_link();
        raw.write_all(&wire[..wire.len() - 3]).unwrap();
        let window = Duration::from_millis(30);
        assert!(matches!(
            conn.recv_raw(window),
            Err(DistError::PeerStalled(w)) if w == window
        ));
        // Damage inside a buffered frame is still a checksum mismatch.
        let (mut conn, mut raw, _) = counted_link();
        let mut wire = encode_frame(&activation(3));
        wire[10] ^= 0x10;
        raw.write_all(&wire).unwrap();
        assert!(matches!(
            conn.recv_raw(STALL),
            Err(DistError::ChecksumMismatch)
        ));
    }

    #[test]
    fn handshake_rejects_wrong_run_and_wrong_neighbor() {
        // Matching digests succeed and surface the peer's session state.
        let (mut a, mut b) = loopback_pair();
        let server = std::thread::spawn(move || {
            handshake(&mut b, &identity(1, 0, 2, 42), 7, 19, STALL).map(|_| b)
        });
        let peer = handshake(&mut a, &identity(0, 1, 2, 42), 0, 0, STALL).unwrap();
        assert_eq!(
            peer,
            PeerHello {
                rank: 1,
                epoch: 7,
                last_seq: 19
            }
        );
        server.join().unwrap().unwrap();

        // Digest mismatch is a typed handshake error.
        let (mut a, mut b) = loopback_pair();
        let server =
            std::thread::spawn(move || handshake(&mut b, &identity(1, 0, 2, 43), 0, 0, STALL));
        let res = handshake(&mut a, &identity(0, 1, 2, 42), 0, 0, STALL);
        assert!(matches!(res, Err(DistError::Handshake(_))), "{res:?}");
        assert!(matches!(
            server.join().unwrap(),
            Err(DistError::Handshake(_))
        ));

        // Unexpected neighbor rank on the link.
        let (mut a, mut b) = loopback_pair();
        let server =
            std::thread::spawn(move || handshake(&mut b, &identity(3, 0, 4, 42), 0, 0, STALL));
        let res = handshake(&mut a, &identity(0, 1, 4, 42), 0, 0, STALL);
        assert!(matches!(res, Err(DistError::Handshake(_))), "{res:?}");
        let _ = server.join().unwrap();
    }

    /// Both ends of one TCP link send without Nagle's algorithm: the
    /// dialing side through the connect path, the accepting side through
    /// the accept path.
    #[test]
    fn both_ends_of_a_tcp_link_are_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut dialed = dial(STALL, || TcpStream::connect(addr)).unwrap();
        let mut accepted = accept_within(STALL, || Ok(listener.accept()?.0)).unwrap();
        assert!(dialed.stream.nodelay().unwrap(), "the dialing end");
        assert!(accepted.stream.nodelay().unwrap(), "the accepting end");
        dialed.send(&beat(0, 1)).unwrap();
        assert_eq!(accepted.recv_raw(STALL).unwrap(), beat(0, 1));
    }

    #[test]
    fn net_faults_drop_duplicate_delay_and_corrupt_typed() {
        use pbp_tensor::Tensor;

        let data = Frame::Activation {
            seq: 4,
            microbatch: 4,
            weight_version: 0,
            label: 0,
            lanes: vec![Tensor::from_vec(vec![4.0; 3], &[3]).unwrap()],
        };
        let mut pending = VecDeque::new();
        let mut apply = |fault| apply_net_fault(data.clone(), fault, &mut pending);
        assert_eq!(apply(None).unwrap().unwrap(), data);
        assert!(apply(Some(LinkFault::Drop)).is_none());
        assert!(apply(Some(LinkFault::Partition(3))).is_none());
        let late = apply(Some(LinkFault::Delay(Duration::from_millis(1))));
        assert_eq!(late.unwrap().unwrap(), data);
        assert!(matches!(
            apply(Some(LinkFault::BitFlip)),
            Some(Err(DistError::ChecksumMismatch))
        ));
        assert!(matches!(
            apply(Some(LinkFault::Truncate)),
            Some(Err(DistError::Corrupt(_)))
        ));
        // Only a duplicate queues anything, its second copy — last, so
        // the queue holds exactly that.
        assert_eq!(apply(Some(LinkFault::Duplicate)).unwrap().unwrap(), data);
        assert_eq!(pending, [data]);
    }

    #[test]
    fn tcp_link_round_trips_frames() {
        // Bind on an OS-assigned port by probing: use base port 0 is not
        // expressible (link offsets), so grab a free port first.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);
        let transport = Transport::Tcp {
            host: "127.0.0.1".into(),
            base_port: port,
        };
        let listener = transport.listen(0).unwrap();
        let t2 = transport.clone();
        let client = std::thread::spawn(move || {
            let mut conn = t2.connect(0, STALL).unwrap();
            conn.send(&beat(1, 5)).unwrap();
            conn.recv_raw(STALL).unwrap()
        });
        let mut server = listener.accept(STALL).unwrap();
        assert_eq!(server.recv_raw(STALL).unwrap(), beat(1, 5));
        server.send(&beat(0, 6)).unwrap();
        assert_eq!(client.join().unwrap(), beat(0, 6));
    }

    #[test]
    fn transport_specs_parse_and_round_trip() {
        let u = Transport::parse("unix:/tmp/pbp-links").unwrap();
        assert_eq!(u.arg(), "unix:/tmp/pbp-links");
        let t = Transport::parse("tcp:127.0.0.1:9100").unwrap();
        assert_eq!(t.arg(), "tcp:127.0.0.1:9100");
        for bad in ["unix:", "tcp:9100", "tcp:host:notaport", "carrier-pigeon"] {
            assert!(matches!(Transport::parse(bad), Err(DistError::Spec(_))));
        }
    }
}
