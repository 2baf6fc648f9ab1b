//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate.
//!
//! The build environment has no network access, so external crates cannot be
//! fetched. This shim provides the `crossbeam::channel` API subset the
//! workspace uses: `bounded`/`unbounded` MPMC channels with disconnect
//! semantics and blocking, timed and non-blocking receives. Every receiver
//! in the workspace waits on one channel at a time, so there is no
//! `select!`. Channels are a `Mutex<VecDeque>` with condvars — not
//! lock-free like the real crate, but the pipeline moves whole activation
//! tensors per message, so channel overhead is negligible.

/// MPMC channels with `Sender`/`Receiver` endpoints and disconnect semantics.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    /// Sending failed because every `Receiver` was dropped. Returns the
    /// unsent message.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like the real crate, printable without requiring `T: Debug`.
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Receiving failed because the channel is empty and every `Sender` was
    /// dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Non-blocking receive outcome when no message was taken.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently has no messages but senders remain.
        Empty,
        /// Channel is empty and every `Sender` was dropped.
        Disconnected,
    }

    /// Bounded-wait receive outcome when no message was taken.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with the channel still empty.
        Timeout,
        /// Channel is empty and every `Sender` was dropped.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on receive operation"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    /// Non-blocking send outcome when the message was not enqueued; carries
    /// the message back like the real crate.
    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity right now.
        Full(T),
        /// Every `Receiver` was dropped.
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "TrySendError::Full(..)"),
                TrySendError::Disconnected(_) => write!(f, "TrySendError::Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
            }
        }
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// The sending half of a channel. Cloneable; the channel disconnects for
    /// receivers when the last clone is dropped.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Cloneable; the channel disconnects
    /// for senders when the last clone is dropped.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates a channel with unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a channel holding at most `cap` in-flight messages; `send`
    /// blocks while full. A capacity of zero is treated as one (the real
    /// crate's rendezvous semantics are not needed here).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Blocks until the message is enqueued, or returns it in
        /// `SendError` if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = inner.cap.is_some_and(|c| inner.queue.len() >= c);
                if !full {
                    break;
                }
                inner = self.shared.not_full.wait(inner).unwrap();
            }
            inner.queue.push_back(value);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Non-blocking send: enqueues the message only if a slot is free
        /// right now, otherwise hands it back as `Full`/`Disconnected`.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if inner.cap.is_some_and(|c| inner.queue.len() >= c) {
                return Err(TrySendError::Full(value));
            }
            inner.queue.push_back(value);
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives, or returns `RecvError` once the
        /// channel is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.shared.not_empty.wait(inner).unwrap();
            }
        }

        /// Like [`Receiver::recv`], but gives up once `timeout` elapses with
        /// the channel still empty.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            match inner.queue.pop_front() {
                Some(value) => {
                    self.shared.not_full.notify_one();
                    Ok(value)
                }
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                self.shared.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{
        bounded, unbounded, RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError,
    };
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn unbounded_fifo_roundtrip() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_errors_after_all_receivers_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn bounded_send_applies_backpressure() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let handle = thread::spawn(move || {
            tx.send(3).unwrap(); // blocks until a slot frees up
            "sent"
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(handle.join().unwrap(), "sent");
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn recv_blocks_until_message_arrives() {
        let (tx, rx) = unbounded();
        let handle = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        tx.send(42u32).unwrap();
        assert_eq!(handle.join().unwrap(), Ok(42));
    }

    #[test]
    fn recv_timeout_returns_timeout_then_message() {
        let (tx, rx) = unbounded::<u32>();
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        tx.send(4).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Ok(4));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_timeout_wakes_on_cross_thread_send() {
        let (tx, rx) = unbounded::<u32>();
        let handle = thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        tx.send(8).unwrap();
        assert_eq!(handle.join().unwrap(), Ok(8));
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));

        // Unbounded channels are never Full.
        let (tx, rx) = unbounded();
        for i in 0..100 {
            assert_eq!(tx.try_send(i), Ok(()));
        }
        drop(rx);
        assert_eq!(tx.try_send(100), Err(TrySendError::Disconnected(100)));
    }
}
