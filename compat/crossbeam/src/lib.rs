//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel::{unbounded, Sender, Receiver}` with the
//! semantics the SPMD engine relies on: multi-producer multi-consumer,
//! unbounded, FIFO, with disconnect detection on both ends. Built on
//! `std::sync::{Mutex, Condvar}`.
//!
//! This is the engine's only coordinator → worker transport (and carries
//! every reply). Disk and network *time* is virtual, so the transport is
//! plumbing: what it must do is hand a bounced message back
//! (`SendError(msg)`, which the engine fails over to a replica) and let a
//! worker block without burning CPU. Against a lock-free request ring that
//! spun before parking, this channel served 1.08–1.27× the `pargrid-e2e`
//! `point` queries per second in ten alternating pairs on a 2-core host:
//! the ring's spinning took CPU from the clients. A `std::sync::mpsc`
//! build of this API lost on `scan`. See DESIGN §12 ("Dispatch
//! transport").

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// Sending half of an unbounded MPMC channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of an unbounded MPMC channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone; the
    /// unsent message is handed back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty but senders remain.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `msg`; fails only if every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            st.queue.push_back(msg);
            drop(st);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().unwrap();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.ready.wait(st).unwrap();
            }
        }

        /// Blocks until a message arrives, every sender is dropped, or
        /// `timeout` elapses.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut st = self.shared.state.lock().unwrap();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self.shared.ready.wait_timeout(st, deadline - now).unwrap();
                st = guard;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.state.lock().unwrap();
            match st.queue.pop_front() {
                Some(msg) => Ok(msg),
                None if st.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.state.lock().unwrap().receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_round_trip() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(7).unwrap();
            assert_eq!(rx.recv_timeout(std::time::Duration::from_millis(10)), Ok(7));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn recv_unblocks_on_sender_drop() {
            let (tx, rx) = unbounded::<u32>();
            let h = std::thread::spawn(move || rx.recv());
            drop(tx);
            assert_eq!(h.join().unwrap(), Err(RecvError));
        }

        #[test]
        fn send_fails_after_receiver_drop() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(5), Err(SendError(5)));
        }

        #[test]
        fn multi_producer_multi_consumer() {
            let (tx, rx) = unbounded();
            let producers: Vec<_> = (0..4)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..100u64 {
                            tx.send(p * 100 + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all.len(), 400);
            all.dedup();
            assert_eq!(all.len(), 400, "duplicated or lost messages");
        }
    }
}
