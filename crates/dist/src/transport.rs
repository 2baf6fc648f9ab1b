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
//! [`LinkFault`](pbp_pipeline::LinkFault) into what a receiver sees, for
//! the session layer's receive path (`crate::reliable`). Corruptions are
//! injected into the *wire bytes*, so they surface through the exact
//! codec error paths a hostile network would hit.

use crate::codec::{decode_frame, encode_frame, read_frame, write_frame, Frame};
use crate::error::DistError;
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

/// Framed connection over a socket stream.
///
/// The stall window is enforced with the socket's read timeout. A
/// timeout that fires mid-frame leaves the stream desynchronized —
/// acceptable because both stall and desync are terminal for the link:
/// the typed fault reaches the launcher, which restarts the stage group
/// from the newest common snapshot.
pub struct StreamConn<S: SocketStream> {
    stream: S,
    timeout: Option<Duration>,
}

impl<S: SocketStream> StreamConn<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S) -> Self {
        StreamConn {
            stream,
            timeout: None,
        }
    }

    fn ensure_timeout(&mut self, stall: Duration) -> Result<(), DistError> {
        if self.timeout != Some(stall) {
            self.stream.set_recv_timeout(Some(stall))?;
            self.timeout = Some(stall);
        }
        Ok(())
    }
}

impl<S: SocketStream> Connection for StreamConn<S> {
    fn send(&mut self, frame: &Frame) -> Result<(), DistError> {
        write_frame(&mut self.stream, frame)
    }

    fn recv_raw(&mut self, stall: Duration) -> Result<Frame, DistError> {
        self.ensure_timeout(stall)?;
        match read_frame(&mut self.stream) {
            Err(DistError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(DistError::PeerStalled(stall))
            }
            other => other,
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
        let start = Instant::now();
        loop {
            let attempt: Result<Box<dyn Connection>, std::io::Error> = match self {
                Transport::Unix { dir } => UnixStream::connect(Transport::unix_path(dir, link))
                    .map(|s| Box::new(StreamConn::new(s)) as Box<dyn Connection>),
                Transport::Tcp { host, base_port } => {
                    TcpStream::connect(format!("{host}:{}", base_port + link as u16))
                        .map(|s| Box::new(StreamConn::new(s)) as Box<dyn Connection>)
                }
            };
            match attempt {
                Ok(conn) => return Ok(conn),
                Err(_) if start.elapsed() < deadline => std::thread::sleep(RETRY_POLL),
                Err(e) => return Err(DistError::Io(e)),
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
        let start = Instant::now();
        match self {
            LinkListener::Unix(listener) => {
                listener.set_nonblocking(true)?;
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false)?;
                            return Ok(Box::new(StreamConn::new(stream)));
                        }
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
            LinkListener::Tcp(listener) => {
                listener.set_nonblocking(true)?;
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nonblocking(false)?;
                            stream.set_nodelay(true)?;
                            return Ok(Box::new(StreamConn::new(stream)));
                        }
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
/// the expected neighbor rank. `epoch`/`last_seq` advertise this side's
/// session state for reconnect-with-replay (zero on first contact).
/// Returns what the peer announced.
#[allow(clippy::too_many_arguments)]
pub fn handshake(
    conn: &mut dyn Connection,
    my_rank: u32,
    expect_peer: u32,
    world: u32,
    digest: u64,
    epoch: u64,
    last_seq: u64,
    stall: Duration,
) -> Result<PeerHello, DistError> {
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

    #[test]
    fn handshake_rejects_wrong_run_and_wrong_neighbor() {
        // Matching digests succeed and surface the peer's session state.
        let (mut a, mut b) = loopback_pair();
        let server =
            std::thread::spawn(move || handshake(&mut b, 1, 0, 2, 42, 7, 19, STALL).map(|_| b));
        let peer = handshake(&mut a, 0, 1, 2, 42, 0, 0, STALL).unwrap();
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
        let server = std::thread::spawn(move || handshake(&mut b, 1, 0, 2, 43, 0, 0, STALL));
        let res = handshake(&mut a, 0, 1, 2, 42, 0, 0, STALL);
        assert!(matches!(res, Err(DistError::Handshake(_))), "{res:?}");
        assert!(matches!(
            server.join().unwrap(),
            Err(DistError::Handshake(_))
        ));

        // Unexpected neighbor rank on the link.
        let (mut a, mut b) = loopback_pair();
        let server = std::thread::spawn(move || handshake(&mut b, 3, 0, 4, 42, 0, 0, STALL));
        let res = handshake(&mut a, 0, 1, 4, 42, 0, 0, STALL);
        assert!(matches!(res, Err(DistError::Handshake(_))), "{res:?}");
        let _ = server.join().unwrap();
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
