//! Reconnect-with-replay: exactly-once data links over faulty wires.
//!
//! [`ReliableConn`] wraps one rank-to-rank link with the session layer
//! the link clauses of a [`FaultPlan`](pbp_pipeline::FaultPlan) are
//! designed to attack:
//!
//! * **Sequencing.** Every data frame (activation / gradient) is
//!   stamped with a per-link, per-direction sequence number starting
//!   at 1. The receiver delivers frames strictly in order, acks each one
//!   cumulatively ([`Frame::Ack`]), discards duplicates (`seq <=
//!   last_delivered`), and treats a gap as a broken link.
//! * **Bounded replay window.** The sender keeps up to
//!   [`LinkOptions::window`] unacked frames. When the window fills it
//!   drains acks off the wire (incoming data frames are parked in an
//!   inbox, so bidirectional links cannot deadlock on backpressure).
//! * **Reconnect.** On any wire fault — corrupt frame, checksum
//!   mismatch, peer EOF, stall — the link tears down and re-establishes
//!   through its original endpoint (re-dial or re-accept) with
//!   deadline + backoff from [`ReconnectPolicy`]. The `Hello` exchange
//!   carries each side's session epoch — its reconnect attempt — and
//!   `last_seq`; after the
//!   handshake the sender replays everything past the peer's ack
//!   horizon. The runner above observes none of this beyond latency:
//!   delivery is exactly-once and in order, so the Eq. 5 delay contract
//!   (and therefore bit-identity with the sequential engine) survives.
//!
//! The accept side's establishment loop is hardened: a peer that
//! connects but never sends `Hello` burns one accept iteration and a
//! stall window, not the whole listener — the deadline still trips with
//! a typed error.

use crate::codec::Frame;
use crate::error::DistError;
use crate::transport::{apply_net_fault, handshake, Connection, LinkListener, Transport};
use pbp_pipeline::{FaultInjector, LinkFault, Message};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How a [`ReliableConn`] reaches (and re-reaches) its peer.
pub enum LinkEndpoint {
    /// An already-established connection (loopback tests). Cannot
    /// reconnect: the first wire fault is terminal for the link.
    Conn(Box<dyn Connection>),
    /// The listening side of the link (rank `i` of link `i`): accepts,
    /// and re-accepts after faults.
    Listen(LinkListener),
    /// The dialing side (rank `i + 1` of link `i`): connects, and
    /// re-dials after faults.
    Dial {
        /// Where the link lives.
        transport: Transport,
        /// Which link to dial.
        link: usize,
    },
}

/// How hard to fight for a link before giving up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Total budget for one recovery (re-establish + handshake).
    pub deadline: Duration,
    /// Pause between failed reconnect attempts.
    pub backoff: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            deadline: Duration::from_secs(5),
            backoff: Duration::from_millis(10),
        }
    }
}

/// Who is on each end of the link — the facts `Hello` must agree on.
#[derive(Debug, Clone, Copy)]
pub struct LinkIdentity {
    /// This side's rank.
    pub my_rank: u32,
    /// The rank expected on the far side.
    pub peer_rank: u32,
    /// World size of the run.
    pub world: u32,
    /// Topology/run digest (both sides must match).
    pub digest: u64,
}

/// Tuning for one reliable link.
pub struct LinkOptions {
    /// Reconnect budget; `None` means any wire fault is terminal
    /// (classic kill-group recovery).
    pub policy: Option<ReconnectPolicy>,
    /// Scripted faults applied to this end's received data frames.
    pub injector: FaultInjector<LinkFault>,
    /// Stall window for handshake receives during establishment.
    pub stall: Duration,
    /// Maximum unacked data frames held for replay before the sender
    /// blocks draining acks.
    pub window: usize,
}

impl Default for LinkOptions {
    fn default() -> Self {
        LinkOptions {
            policy: None,
            injector: FaultInjector::default(),
            stall: Duration::from_secs(5),
            window: DEFAULT_WINDOW,
        }
    }
}

/// Default replay-window size in frames — far above any schedule's
/// per-link in-flight bound, so backpressure only bites when acks stop.
pub const DEFAULT_WINDOW: usize = 64;

enum Reattach {
    None,
    Listen(LinkListener),
    Dial { transport: Transport, link: usize },
}

/// One link of the rank chain with sequencing, acks, bounded replay,
/// and reconnect. Implements [`Connection`], so the runner drives it
/// exactly like a raw socket.
pub struct ReliableConn {
    inner: Option<Box<dyn Connection>>,
    reattach: Reattach,
    identity: LinkIdentity,
    policy: Option<ReconnectPolicy>,
    injector: FaultInjector<LinkFault>,
    fault_pending: VecDeque<Frame>,
    stall: Duration,
    window: usize,
    attempt: u64,
    next_send_seq: u64,
    replay: VecDeque<Frame>,
    last_delivered: u64,
    peer_acked: u64,
    inbox: VecDeque<Frame>,
    reconnects: u64,
}

impl ReliableConn {
    /// Builds the session layer over `endpoint`. Call
    /// [`Self::establish`] before first use.
    pub fn new(endpoint: LinkEndpoint, identity: LinkIdentity, opts: LinkOptions) -> Self {
        let (inner, reattach) = match endpoint {
            LinkEndpoint::Conn(conn) => (Some(conn), Reattach::None),
            LinkEndpoint::Listen(listener) => (None, Reattach::Listen(listener)),
            LinkEndpoint::Dial { transport, link } => (None, Reattach::Dial { transport, link }),
        };
        ReliableConn {
            inner,
            reattach,
            identity,
            policy: opts.policy,
            injector: opts.injector,
            fault_pending: VecDeque::new(),
            stall: opts.stall,
            window: opts.window.max(1),
            attempt: 0,
            next_send_seq: 1,
            replay: VecDeque::new(),
            last_delivered: 0,
            peer_acked: 0,
            inbox: VecDeque::new(),
            reconnects: 0,
        }
    }

    /// This side's session epoch: the reconnect attempt, 0 for the
    /// first establishment.
    pub fn epoch(&self) -> u64 {
        self.attempt
    }

    /// How many times the link tore down and re-established.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Unacked frames currently held for replay (test observability).
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Second half of the courteous shutdown: after sending our own
    /// `Shutdown`, consume incoming traffic (trailing acks, heartbeats,
    /// the peer's bye) until the peer's `Shutdown` or an error, then
    /// drop the connection. Draining before close matters on TCP:
    /// closing a socket with unread bytes in its receive buffer sends
    /// RST, and the reset destroys the tail of the stream still
    /// buffered on the peer's side — a clean run would lose its last
    /// gradients. Best-effort by design: a peer that already vanished
    /// surfaces as a stall or EOF here, and either simply ends the
    /// drain. No recovery is attempted — the run is over.
    pub fn drain_shutdown(&mut self, stall: Duration) {
        let buffered_bye = self
            .inbox
            .iter()
            .chain(self.fault_pending.iter())
            .any(|f| matches!(f, Frame::Shutdown { .. }));
        if buffered_bye {
            self.inner = None;
            return;
        }
        let start = Instant::now();
        while start.elapsed() < stall {
            let Some(inner) = self.inner.as_mut() else {
                break;
            };
            match inner.recv_raw(stall.saturating_sub(start.elapsed())) {
                Ok(Frame::Shutdown { .. }) | Err(_) => break,
                Ok(_) => {}
            }
        }
        self.inner = None;
    }

    /// Connects (or reconnects) and runs the `Hello` exchange,
    /// replaying unacked frames past the peer's ack horizon. Loops over
    /// bad peers (wrong digest on a shared port, silent connectors) until
    /// the deadline.
    pub fn establish(&mut self) -> Result<(), DistError> {
        let deadline = self.policy.map(|p| p.deadline).unwrap_or(self.stall);
        self.establish_within(deadline)
    }

    /// [`Self::establish`] with an explicit deadline — the recovery
    /// path stretches it when the fault was a stall rather than a hard
    /// wire error.
    fn establish_within(&mut self, deadline: Duration) -> Result<(), DistError> {
        let backoff = self
            .policy
            .map(|p| p.backoff)
            .unwrap_or(Duration::from_millis(2));
        let start = Instant::now();
        loop {
            let remaining = deadline.saturating_sub(start.elapsed());
            let mut conn: Box<dyn Connection> = match self.inner.take() {
                Some(conn) => conn,
                None => match &self.reattach {
                    Reattach::None => return Err(DistError::PeerClosed),
                    Reattach::Listen(listener) => listener.accept(remaining)?,
                    Reattach::Dial { transport, link } => transport.connect(*link, remaining)?,
                },
            };
            let hello_stall = self.stall.min(remaining.max(Duration::from_millis(1)));
            match handshake(
                conn.as_mut(),
                self.identity.my_rank,
                self.identity.peer_rank,
                self.identity.world,
                self.identity.digest,
                self.epoch(),
                self.last_delivered,
                hello_stall,
            ) {
                Ok(peer) => {
                    self.debug_log(&format!(
                        "handshake ok: peer epoch {:#x} acked {}",
                        peer.epoch, peer.last_seq
                    ));
                    self.peer_acked = self.peer_acked.max(peer.last_seq);
                    while self
                        .replay
                        .front()
                        .and_then(Frame::seq)
                        .is_some_and(|s| s <= self.peer_acked)
                    {
                        self.replay.pop_front();
                    }
                    for frame in &self.replay {
                        conn.send(frame)?;
                    }
                    self.inner = Some(conn);
                    return Ok(());
                }
                Err(e) => {
                    self.debug_log(&format!("handshake attempt failed: {e}"));
                    // No hello, wrong hello, or a corrupt one: this peer
                    // does not get to hold the link open. Drop it and
                    // accept/dial again until the deadline trips.
                    if matches!(self.reattach, Reattach::None) || start.elapsed() >= deadline {
                        return Err(e);
                    }
                    drop(conn);
                    std::thread::sleep(backoff);
                }
            }
        }
    }

    fn recoverable(err: &DistError) -> bool {
        matches!(
            err,
            DistError::Io(_)
                | DistError::Corrupt(_)
                | DistError::ChecksumMismatch
                | DistError::PeerClosed
                | DistError::PeerStalled(_)
        )
    }

    /// Tears the link down and re-establishes it, consuming `err` if
    /// recovery succeeds. Irrecoverable setups (no policy, fixed
    /// connection) propagate immediately.
    fn recover(&mut self, err: DistError) -> Result<(), DistError> {
        if self.policy.is_none()
            || matches!(self.reattach, Reattach::None)
            || !Self::recoverable(&err)
        {
            self.debug_log(&format!("unrecoverable link fault: {err}"));
            return Err(err);
        }
        self.inner = None;
        self.fault_pending.clear();
        self.reconnects += 1;
        self.attempt += 1;
        // A stall means the peer went quiet, not that the wire broke:
        // it may be parked in its own stall window for up to `stall`
        // longer before it notices this link died and comes back — and
        // a reconnect whose replay is swallowed by a still-open
        // partition costs one more full round. Hard wire faults keep
        // the tight deadline: the peer saw the same breakage and is
        // already reconnecting.
        let mut deadline = self.policy.map(|p| p.deadline).unwrap_or(self.stall);
        if matches!(err, DistError::PeerStalled(_)) {
            deadline += self.stall;
        }
        self.debug_log(&format!("recovering from {err}"));
        match self.establish_within(deadline) {
            Ok(()) => {
                self.debug_log("re-established");
                Ok(())
            }
            // Report the original fault: it names the root cause the
            // reconnect budget could not absorb.
            Err(e) => {
                self.debug_log(&format!("re-establish failed: {e}"));
                Err(err)
            }
        }
    }

    /// Recovery-arc breadcrumbs, gated behind `PBP_DBG_RELIABLE` —
    /// quiet in normal runs, invaluable when a chaos soak wedges.
    fn debug_log(&self, what: &str) {
        if std::env::var_os("PBP_DBG_RELIABLE").is_some() {
            eprintln!(
                "[reliable] rank {} link to {}: {what}",
                self.identity.my_rank, self.identity.peer_rank
            );
        }
    }

    /// Receives one frame off the live connection, applying this end's
    /// scripted faults to data frames — the one place wire faults are
    /// injected. Control traffic passes through unfaulted and uncounted,
    /// so the recovery machinery itself stays observable.
    fn pull_frame(&mut self, stall: Duration) -> Result<Frame, DistError> {
        if let Some(frame) = self.fault_pending.pop_front() {
            return Ok(frame);
        }
        loop {
            let inner = self.inner.as_mut().ok_or(DistError::PeerClosed)?;
            let frame = inner.recv_raw(stall)?;
            if !matches!(frame, Frame::Activation { .. } | Frame::Gradient { .. }) {
                return Ok(frame);
            }
            let fault = self.injector.on_frame();
            if let Some(result) = apply_net_fault(frame, fault, &mut self.fault_pending) {
                return result;
            }
        }
    }

    /// Runs the session protocol over one received frame. `Ok(Some)` is
    /// a frame to surface to the runner; `Ok(None)` was protocol
    /// traffic (ack, duplicate). A sequence gap is an error — the wire
    /// lost frames, and recovery must force a replay.
    fn process_incoming(&mut self, frame: Frame) -> Result<Option<Frame>, DistError> {
        match frame {
            Frame::Ack { seq, .. } => {
                self.peer_acked = self.peer_acked.max(seq);
                while self
                    .replay
                    .front()
                    .and_then(Frame::seq)
                    .is_some_and(|s| s <= self.peer_acked)
                {
                    self.replay.pop_front();
                }
                Ok(None)
            }
            Frame::Hello { .. } => Err(DistError::Corrupt("unexpected hello mid-stream".into())),
            frame => match frame.seq() {
                None => Ok(Some(frame)),
                Some(seq) => {
                    if seq <= self.last_delivered {
                        // Duplicate (wire echo or overlapping replay):
                        // discard and re-advertise the ack horizon.
                        self.send_ack();
                        return Ok(None);
                    }
                    if seq != self.last_delivered + 1 {
                        return Err(DistError::Corrupt(format!(
                            "link gap: got seq {seq}, expected {}",
                            self.last_delivered + 1
                        )));
                    }
                    self.last_delivered = seq;
                    self.send_ack();
                    Ok(Some(frame))
                }
            },
        }
    }

    /// Best-effort cumulative ack. A lost ack costs nothing but replay
    /// width: the next reconnect's `Hello` re-advertises the horizon.
    fn send_ack(&mut self) {
        let ack = Frame::Ack {
            rank: self.identity.my_rank,
            seq: self.last_delivered,
        };
        if let Some(inner) = self.inner.as_mut() {
            let _ = inner.send(&ack);
        }
    }

    /// One receive step with recovery: `Ok(Some)` surfaces a frame,
    /// `Ok(None)` means protocol traffic was absorbed or the link was
    /// re-established (try again).
    fn step_recv(&mut self, stall: Duration) -> Result<Option<Frame>, DistError> {
        match self.pull_frame(stall) {
            Ok(frame) => match self.process_incoming(frame) {
                Ok(out) => Ok(out),
                Err(e) => self.recover(e).map(|_| None),
            },
            Err(e) => self.recover(e).map(|_| None),
        }
    }
}

impl ReliableConn {
    /// Sends one data frame: stamps the next sequence number in place,
    /// moves the frame into the replay window and writes it from there —
    /// the window's copy is the only one.
    fn send_data(&mut self, mut frame: Frame) -> Result<(), DistError> {
        let seq = self.next_send_seq;
        frame.set_seq(seq);
        self.next_send_seq += 1;
        self.replay.push_back(frame);
        // Bounded window: drain acks before adding more in-flight
        // frames. Data arriving meanwhile parks in the inbox.
        while self.replay.len() > self.window {
            if let Some(parked) = self.step_recv(self.stall)? {
                self.inbox.push_back(parked);
            }
        }
        // A recovery during the drain replays the whole window, this
        // frame included; if the peer has acked it since, it is gone from
        // the window and there is nothing left to write.
        let newest = match self.replay.back() {
            Some(newest) if newest.seq() == Some(seq) => newest,
            _ => return Ok(()),
        };
        let result = match self.inner.as_mut() {
            Some(inner) => inner.send(newest),
            None => Err(DistError::PeerClosed),
        };
        match result {
            Ok(()) => Ok(()),
            // recover() replays everything unacked — including this
            // frame, which is already in the window. Nothing to resend.
            Err(e) => self.recover(e),
        }
    }
}

impl Connection for ReliableConn {
    fn send(&mut self, frame: &Frame) -> Result<(), DistError> {
        if frame.seq().is_none() {
            // Control frame: direct, with one recovery attempt. A
            // heartbeat or shutdown lost to the teardown is harmless —
            // the peer reads EOF as closed anyway.
            let result = match self.inner.as_mut() {
                Some(inner) => inner.send(frame),
                None => Err(DistError::PeerClosed),
            };
            return match result {
                Ok(()) => Ok(()),
                Err(e) => {
                    self.recover(e)?;
                    if let Some(inner) = self.inner.as_mut() {
                        let _ = inner.send(frame);
                    }
                    Ok(())
                }
            };
        }
        // The caller keeps its frame, so the replay window needs a copy;
        // the rank loop's `Link::send` owns its message and skips this.
        self.send_data(frame.clone())
    }

    fn recv_raw(&mut self, stall: Duration) -> Result<Frame, DistError> {
        loop {
            if let Some(frame) = self.inbox.pop_front() {
                return Ok(frame);
            }
            if let Some(frame) = self.step_recv(stall)? {
                return Ok(frame);
            }
        }
    }
}

/// A socket link moves [`Message`]s as data [`Frame`]s. `seq` is a
/// placeholder the session layer stamps on send, and `weight_version` is
/// not populated: no receiver reads it (trace spans carry the version).
impl pbp_pipeline::Link for ReliableConn {
    type Error = DistError;

    fn send(&mut self, msg: Message) -> Result<(), DistError> {
        let frame = match msg {
            Message::Activation { mb, label, lanes } => Frame::Activation {
                seq: 0,
                microbatch: mb as u64,
                weight_version: 0,
                label: label as u32,
                lanes,
            },
            Message::Gradient { mb, loss, lanes } => Frame::Gradient {
                seq: 0,
                microbatch: mb as u64,
                weight_version: 0,
                loss,
                lanes,
            },
        };
        self.send_data(frame)
    }

    fn recv(&mut self) -> Result<Message, DistError> {
        match self.recv_data(self.stall)? {
            Frame::Activation {
                microbatch,
                label,
                lanes,
                ..
            } => Ok(Message::Activation {
                mb: microbatch as usize,
                label: label as usize,
                lanes,
            }),
            Frame::Gradient {
                microbatch,
                loss,
                lanes,
                ..
            } => Ok(Message::Gradient {
                mb: microbatch as usize,
                loss,
                lanes,
            }),
            other => Err(DistError::Corrupt(format!(
                "expected activation or gradient, got {}",
                other.kind_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;
    use pbp_pipeline::{FaultPlan, FaultSpec, LinkDir};
    use pbp_tensor::Tensor;

    const STALL: Duration = Duration::from_millis(500);

    fn identity(my_rank: u32, peer_rank: u32) -> LinkIdentity {
        LinkIdentity {
            my_rank,
            peer_rank,
            world: 2,
            digest: 99,
        }
    }

    fn activation(microbatch: u64) -> Frame {
        Frame::Activation {
            seq: 0,
            microbatch,
            weight_version: 0,
            label: 7,
            lanes: vec![Tensor::from_vec(vec![microbatch as f32; 4], &[4]).unwrap()],
        }
    }

    fn gradient(microbatch: u64) -> Frame {
        Frame::Gradient {
            seq: 0,
            microbatch,
            weight_version: 0,
            loss: 0.5,
            lanes: vec![Tensor::from_vec(vec![1.0; 4], &[4]).unwrap()],
        }
    }

    fn microbatch_of(frame: &Frame) -> u64 {
        match frame {
            Frame::Activation { microbatch, .. } | Frame::Gradient { microbatch, .. } => {
                *microbatch
            }
            other => panic!("expected data frame, got {}", other.kind_name()),
        }
    }

    #[test]
    fn window_backpressure_blocks_until_acked() {
        let (a_end, b_end) = loopback_pair();
        let b_thread = std::thread::spawn(move || {
            let mut b = ReliableConn::new(
                LinkEndpoint::Conn(Box::new(b_end)),
                identity(1, 0),
                LinkOptions {
                    stall: STALL,
                    ..LinkOptions::default()
                },
            );
            b.establish().unwrap();
            let mut got = Vec::new();
            for _ in 0..6 {
                got.push(microbatch_of(&b.recv_data(STALL).unwrap()));
            }
            got
        });
        let mut a = ReliableConn::new(
            LinkEndpoint::Conn(Box::new(a_end)),
            identity(0, 1),
            LinkOptions {
                stall: STALL,
                window: 2,
                ..LinkOptions::default()
            },
        );
        a.establish().unwrap();
        for mb in 0..6 {
            a.send(&activation(mb)).unwrap();
            assert!(a.replay_len() <= 2, "window exceeded: {}", a.replay_len());
        }
        assert_eq!(b_thread.join().unwrap(), vec![0, 1, 2, 3, 4, 5]);
    }

    fn unix_transport(tag: &str) -> (Transport, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("pbp_rel_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Transport::Unix { dir: dir.clone() }, dir)
    }

    #[test]
    fn dropped_frame_triggers_reconnect_and_replay() {
        let (transport, dir) = unix_transport("drop");
        let listener = transport.listen(0).unwrap();
        let policy = ReconnectPolicy {
            deadline: Duration::from_secs(5),
            backoff: Duration::from_millis(5),
        };
        // The dial side's receive path silently loses data frame 2; the
        // gap at frame 3 must force a reconnect that replays it.
        let plan = FaultPlan::new(0).at_link(0, LinkDir::Down, FaultSpec::new(2, LinkFault::Drop));
        let b_injector = plan.link_injector(0, LinkDir::Down);
        let t2 = transport.clone();
        let b_thread = std::thread::spawn(move || {
            let mut b = ReliableConn::new(
                LinkEndpoint::Dial {
                    transport: t2,
                    link: 0,
                },
                identity(1, 0),
                LinkOptions {
                    policy: Some(policy),
                    injector: b_injector,
                    stall: STALL,
                    ..LinkOptions::default()
                },
            );
            b.establish().unwrap();
            let mut got = Vec::new();
            for _ in 0..6 {
                got.push(microbatch_of(&b.recv_data(STALL).unwrap()));
            }
            b.send(&gradient(5)).unwrap();
            (got, b.reconnects())
        });
        let mut a = ReliableConn::new(
            LinkEndpoint::Listen(listener),
            identity(0, 1),
            LinkOptions {
                policy: Some(policy),
                stall: STALL,
                ..LinkOptions::default()
            },
        );
        a.establish().unwrap();
        for mb in 0..6 {
            a.send(&activation(mb)).unwrap();
        }
        let grad = a.recv_data(STALL).unwrap();
        assert_eq!(microbatch_of(&grad), 5);
        let (got, b_reconnects) = b_thread.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5], "replay must fill the gap");
        assert!(b_reconnects >= 1, "the drop must have forced a reconnect");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn silent_peer_trips_accept_deadline_with_typed_error() {
        use std::net::{TcpListener as StdTcpListener, TcpStream};
        let probe = StdTcpListener::bind("127.0.0.1:0").unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);
        let transport = Transport::Tcp {
            host: "127.0.0.1".into(),
            base_port: port,
        };
        let listener = transport.listen(0).unwrap();
        let mut a = ReliableConn::new(
            LinkEndpoint::Listen(listener),
            identity(0, 1),
            LinkOptions {
                policy: Some(ReconnectPolicy {
                    deadline: Duration::from_millis(250),
                    backoff: Duration::from_millis(5),
                }),
                stall: Duration::from_millis(50),
                ..LinkOptions::default()
            },
        );
        // A rogue peer connects but never sends hello: it must burn one
        // stall window, not wedge the accept loop forever.
        let rogue = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let start = Instant::now();
        let res = a.establish();
        assert!(
            matches!(res, Err(DistError::PeerStalled(_)) | Err(DistError::Io(_))),
            "expected typed deadline error, got {res:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "accept loop must respect the deadline, took {:?}",
            start.elapsed()
        );
        drop(rogue);
    }
}
