//! Sharded lock-free request rings — the engine's fast dispatch path.
//!
//! PR 5's serving experiment showed the single-node throughput knee is set
//! by software overhead, not the simulated disks: every dispatch paid a
//! mutex + condvar round trip inside the channel stand-in. This module
//! replaces that hop with a bounded **MPSC ring** per worker (one shard per
//! worker, so shards never contend with each other), modeled on
//! [`pargrid_obs::EventRing`]'s claim-a-slot-with-`fetch_add` design but
//! extended with per-slot sequence numbers (a Vyukov-style bounded queue)
//! so slots are reusable and consumption is in dispatch order.
//!
//! Producers (coordinator-side sessions and runners) claim a slot with one
//! CAS and publish with one release store. The consumer (the worker thread)
//! spins briefly — covering the common case where the next request arrives
//! while the worker is still draining — and only then parks, so a hot
//! query loop never pays a futex wake-up on the dispatch path.
//!
//! The channel transport remains available behind
//! [`DispatchMode::Channel`], keeping the two paths A/B-benchmarkable
//! (`benches/hotpath.rs`, `BENCH_hotpath.json`).

use crate::message::ToWorker;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Which transport carries coordinator → worker messages.
///
/// Both transports carry the same [`ToWorker`] protocol and produce
/// byte-identical query results (property-tested in
/// `tests/dispatch_equivalence.rs`); they differ only in overhead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum DispatchMode {
    /// One bounded lock-free [`RequestRing`] per worker (the default):
    /// producers publish with a CAS + release store, the consumer spins
    /// briefly before parking.
    #[default]
    Ring,
    /// The original crossbeam-channel transport (mutex + condvar per hop).
    /// Kept as the A/B baseline and for embedders that want strictly
    /// unbounded queues.
    Channel,
}

/// How many times the consumer probes the ring before parking. Sized so a
/// worker draining back-to-back batches never parks between them, while an
/// idle worker reaches the (free) parked state in well under a millisecond.
const SPIN_PROBES: u32 = 256;

/// Effective probe count for this machine. Spinning only pays when a
/// producer can make progress *while* the consumer spins; on a single
/// hardware thread the spin loop just burns the producer's time slice, so
/// the consumer goes straight to the park protocol instead (one futex
/// wait/wake per message — still cheaper than a mutex + condvar hop).
fn spin_probes() -> u32 {
    static PROBES: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *PROBES.get_or_init(|| match thread::available_parallelism() {
        Ok(n) if n.get() > 1 => SPIN_PROBES,
        _ => 0,
    })
}

/// Upper bound on one park. The wake-up protocol below makes a lost unpark
/// vanishingly unlikely, but a bounded park turns "unlikely" into "at worst
/// this much added latency", which keeps the engine live under any
/// interleaving the memory model permits.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// Default slot count per ring. Deeper than any in-flight window the
/// engine produces (requests per worker per round are bounded by the
/// concurrent-run window); producers spin-wait on the full ring otherwise.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// One ring slot: a sequence word plus the (possibly uninitialized) value.
///
/// `seq == index` means free for the producer that claims position
/// `index`; `seq == index + 1` means published and ready for the consumer;
/// after consumption `seq` advances by the ring capacity, marking the slot
/// free for the next lap.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer single-consumer ring with close semantics.
///
/// The single-consumer contract is structural, not enforced: the engine
/// hands each ring's consumer side to exactly one worker thread (via
/// [`WorkerInbox`]). [`RequestRing::try_pop`]/[`RequestRing::recv`] must
/// only ever be called from that thread.
pub struct RequestRing<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Next position a producer will claim.
    tail: AtomicUsize,
    /// Next position the consumer will read.
    head: AtomicUsize,
    /// Set by [`RequestRing::close`]; pushes fail afterwards.
    closed: AtomicBool,
    /// True while the consumer is parked (or about to park).
    parked: AtomicBool,
    /// True once `consumer` holds the consumer's thread handle. Written
    /// (release) only after the handle is in place, so producers that
    /// observe it (acquire) see a fully initialized handle.
    consumer_registered: AtomicBool,
    /// The consumer thread's handle. Written exactly once, by the consumer,
    /// before its first park; read-only ever after, so producers can wake
    /// without a lock.
    consumer: UnsafeCell<Option<Thread>>,
}

// SAFETY: values are transferred across threads through the slot protocol
// above — a slot's value is written by exactly one producer (the CAS
// winner) and read by the single consumer, with the `seq` release/acquire
// pair ordering the handoff.
unsafe impl<T: Send> Send for RequestRing<T> {}
unsafe impl<T: Send> Sync for RequestRing<T> {}

impl<T> RequestRing<T> {
    /// A ring with [`DEFAULT_RING_CAPACITY`] slots.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A ring with at least `capacity` slots (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        RequestRing {
            slots: (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: cap - 1,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            parked: AtomicBool::new(false),
            consumer_registered: AtomicBool::new(false),
            consumer: UnsafeCell::new(None),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Messages currently queued (racy by nature; exact only when
    /// producers and consumer are quiescent).
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::Relaxed)
            .saturating_sub(self.head.load(Ordering::Relaxed))
    }

    /// True when no messages are queued (same caveat as [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Marks the ring closed and wakes the consumer. Subsequent pushes
    /// fail, returning the message to the caller (mirroring a channel send
    /// to a dropped receiver); the consumer may still drain what was
    /// already published.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.wake_consumer();
    }

    /// Publishes `value`, spinning while the ring is full. Fails — handing
    /// `value` back — once the ring is closed, exactly like sending on a
    /// channel whose receiver is gone.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut full_spins = 0u32;
        loop {
            if self.closed.load(Ordering::Acquire) {
                return Err(value);
            }
            let tail = self.tail.load(Ordering::Relaxed);
            let slot = &self.slots[tail & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = (seq as isize).wrapping_sub(tail as isize);
            if diff == 0 {
                if self
                    .tail
                    .compare_exchange_weak(
                        tail,
                        tail.wrapping_add(1),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    // SAFETY: the CAS makes this producer the slot's sole
                    // writer for this lap; the consumer will not read until
                    // the release store below.
                    unsafe { (*slot.value.get()).write(value) };
                    slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                    self.wake_consumer();
                    return Ok(());
                }
            } else if diff < 0 {
                // Full: the consumer hasn't freed this slot yet. Spin, then
                // yield — the consumer drains whole batches, so fullness is
                // short-lived.
                full_spins += 1;
                if full_spins < 64 {
                    std::hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
            // diff > 0: another producer claimed this position; retry.
        }
    }

    /// Consumer-only: takes the next message if one is ready.
    pub fn try_pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[head & self.mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == head.wrapping_add(1) {
            self.head.store(head.wrapping_add(1), Ordering::Relaxed);
            // SAFETY: the acquire load above saw the producer's release
            // store, so the value is initialized and the producer is done
            // with the slot.
            let value = unsafe { (*slot.value.get()).assume_init_read() };
            slot.seq
                .store(head.wrapping_add(self.slots.len()), Ordering::Release);
            Some(value)
        } else {
            None
        }
    }

    /// Consumer-only: blocks for the next message. Returns `None` once the
    /// ring is closed *and* drained.
    pub fn recv(&self) -> Option<T> {
        self.recv_until(None).ok()
    }

    /// Consumer-only: blocks for the next message for at most `timeout`.
    /// `Disconnected` once the ring is closed *and* drained, `Timeout` when
    /// the wait ran out first.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// The blocking receive behind [`Self::recv`] (no deadline) and
    /// [`Self::recv_timeout`].
    ///
    /// Spins [`spin_probes`] times first — a producer dispatching while the
    /// worker is between batches is caught here without any syscall (and on
    /// a single hardware thread the spin phase is skipped entirely) — then
    /// parks under the `parked` flag protocol: set the flag, re-check,
    /// park. A producer that observes the flag clears it and unparks us;
    /// the bounded [`PARK_TIMEOUT`] covers the residual race. A deadline
    /// only shortens the park and is checked before each one.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        // Closed: drain anything published before the close.
        let drain = || self.try_pop().ok_or(RecvTimeoutError::Disconnected);
        loop {
            // Fast path: a message is already published.
            if let Some(v) = self.try_pop() {
                return Ok(v);
            }
            if self.closed.load(Ordering::Acquire) {
                return drain();
            }
            for _ in 0..spin_probes() {
                if let Some(v) = self.try_pop() {
                    return Ok(v);
                }
                if self.closed.load(Ordering::Acquire) {
                    return drain();
                }
                std::hint::spin_loop();
            }
            let park = match deadline {
                None => PARK_TIMEOUT,
                Some(d) => match d.saturating_duration_since(Instant::now()) {
                    Duration::ZERO => return Err(RecvTimeoutError::Timeout),
                    left => left.min(PARK_TIMEOUT),
                },
            };
            if !self.consumer_registered.load(Ordering::Relaxed) {
                // SAFETY: single-consumer contract — this thread is the only
                // writer, and producers only read after the release store
                // below publishes the handle.
                unsafe { *self.consumer.get() = Some(thread::current()) };
                self.consumer_registered.store(true, Ordering::Release);
            }
            self.parked.store(true, Ordering::SeqCst);
            if let Some(v) = self.try_pop() {
                self.parked.store(false, Ordering::SeqCst);
                return Ok(v);
            }
            if self.closed.load(Ordering::SeqCst) {
                self.parked.store(false, Ordering::SeqCst);
                return drain();
            }
            thread::park_timeout(park);
            self.parked.store(false, Ordering::SeqCst);
        }
    }

    /// Unparks the consumer if it is parked (or about to park).
    fn wake_consumer(&self) {
        if self.parked.swap(false, Ordering::SeqCst)
            && self.consumer_registered.load(Ordering::Acquire)
        {
            // SAFETY: the handle was published by the release store in
            // `recv` and is never written again, so a shared read is safe
            // from any producer.
            if let Some(t) = unsafe { &*self.consumer.get() }.as_ref() {
                t.unpark();
            }
        }
    }
}

impl<T> Default for RequestRing<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for RequestRing<T> {
    fn drop(&mut self) {
        // Sole owner now: drop any values published but never consumed.
        while self.try_pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for RequestRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// A failed dispatch: the worker's transport is gone (thread exited,
/// channel receiver dropped, or ring closed). The undelivered message is
/// handed back so the coordinator can fail the requests over to replicas.
#[derive(Debug)]
pub struct DispatchError(pub ToWorker);

/// The coordinator's sending end of one worker's transport.
#[derive(Clone, Debug)]
pub enum WorkerOutbox {
    /// Channel transport ([`DispatchMode::Channel`]).
    Channel(Sender<ToWorker>),
    /// Ring transport ([`DispatchMode::Ring`]).
    Ring(Arc<RequestRing<ToWorker>>),
}

impl WorkerOutbox {
    /// Sends one message, returning it on failure (dead worker).
    pub fn send(&self, msg: ToWorker) -> Result<(), DispatchError> {
        match self {
            WorkerOutbox::Channel(tx) => tx.send(msg).map_err(|e| DispatchError(e.0)),
            WorkerOutbox::Ring(ring) => ring.push(msg).map_err(DispatchError),
        }
    }
}

/// The worker's receiving end of its transport. Closes the ring when
/// dropped (on any worker exit path, including panics), so coordinator
/// pushes start failing exactly when channel sends would.
#[derive(Debug)]
pub enum WorkerInbox {
    /// Channel transport ([`DispatchMode::Channel`]).
    Channel(Receiver<ToWorker>),
    /// Ring transport ([`DispatchMode::Ring`]).
    Ring(Arc<RequestRing<ToWorker>>),
}

impl WorkerInbox {
    /// Blocks for the next message; `None` once the transport is closed
    /// and drained.
    pub fn recv(&self) -> Option<ToWorker> {
        match self {
            WorkerInbox::Channel(rx) => rx.recv().ok(),
            WorkerInbox::Ring(ring) => ring.recv(),
        }
    }

    /// Blocks for the next message for at most `timeout`: `Timeout` when
    /// none came, `Disconnected` once the transport is closed and drained —
    /// the distinction [`WorkerInbox::try_recv`] cannot make.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ToWorker, RecvTimeoutError> {
        match self {
            WorkerInbox::Channel(rx) => rx.recv_timeout(timeout),
            WorkerInbox::Ring(ring) => ring.recv_timeout(timeout),
        }
    }

    /// Takes an already-queued message, if any.
    pub fn try_recv(&self) -> Option<ToWorker> {
        match self {
            WorkerInbox::Channel(rx) => match rx.try_recv() {
                Ok(msg) => Some(msg),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
            },
            WorkerInbox::Ring(ring) => ring.try_pop(),
        }
    }
}

impl From<Receiver<ToWorker>> for WorkerInbox {
    fn from(rx: Receiver<ToWorker>) -> Self {
        WorkerInbox::Channel(rx)
    }
}

impl From<Arc<RequestRing<ToWorker>>> for WorkerInbox {
    fn from(ring: Arc<RequestRing<ToWorker>>) -> Self {
        WorkerInbox::Ring(ring)
    }
}

impl Drop for WorkerInbox {
    fn drop(&mut self) {
        if let WorkerInbox::Ring(ring) = self {
            ring.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fifo_single_producer() {
        let ring: RequestRing<u64> = RequestRing::with_capacity(8);
        for i in 0..8 {
            ring.push(i).expect("push");
        }
        for i in 0..8 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn capacity_rounds_up_and_slots_are_reusable() {
        let ring: RequestRing<u64> = RequestRing::with_capacity(3);
        assert_eq!(ring.capacity(), 4);
        // Several laps around the ring exercise the seq-advance protocol.
        for lap in 0..5u64 {
            for i in 0..4 {
                ring.push(lap * 4 + i).expect("push");
            }
            for i in 0..4 {
                assert_eq!(ring.try_pop(), Some(lap * 4 + i));
            }
        }
    }

    #[test]
    fn push_after_close_returns_the_message() {
        let ring: RequestRing<String> = RequestRing::new();
        ring.push("a".to_string()).expect("open push");
        ring.close();
        let bounced = ring.push("b".to_string()).expect_err("closed push");
        assert_eq!(bounced, "b");
        // Already-published messages still drain.
        assert_eq!(ring.recv(), Some("a".to_string()));
        assert_eq!(ring.recv(), None);
    }

    #[test]
    fn multi_producer_totals_survive() {
        let ring: Arc<RequestRing<u64>> = Arc::new(RequestRing::with_capacity(64));
        let n_producers = 4;
        let per = 2_000u64;
        let mut handles = Vec::new();
        for p in 0..n_producers {
            let r = Arc::clone(&ring);
            handles.push(thread::spawn(move || {
                for i in 0..per {
                    r.push(p * per + i).expect("push");
                }
            }));
        }
        let consumer = {
            let r = Arc::clone(&ring);
            thread::spawn(move || {
                let mut sum = 0u64;
                let mut count = 0u64;
                while count < n_producers * per {
                    if let Some(v) = r.recv() {
                        sum += v;
                        count += 1;
                    }
                }
                sum
            })
        };
        for h in handles {
            h.join().expect("producer");
        }
        let total = n_producers * per;
        let expected: u64 = (0..total).sum();
        assert_eq!(consumer.join().expect("consumer"), expected);
    }

    #[test]
    fn blocking_recv_wakes_on_push() {
        let ring: Arc<RequestRing<u64>> = Arc::new(RequestRing::new());
        let r = Arc::clone(&ring);
        let consumer = thread::spawn(move || r.recv());
        // Give the consumer time to pass the spin phase and park.
        thread::sleep(Duration::from_millis(20));
        ring.push(7).expect("push");
        assert_eq!(consumer.join().expect("join"), Some(7));
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let ring: Arc<RequestRing<u64>> = Arc::new(RequestRing::new());
        let r = Arc::clone(&ring);
        let consumer = thread::spawn(move || r.recv());
        thread::sleep(Duration::from_millis(20));
        ring.close();
        assert_eq!(consumer.join().expect("join"), None);
    }

    #[test]
    fn recv_timeout_tells_idle_from_closed() {
        let ring: Arc<RequestRing<u64>> = Arc::new(RequestRing::new());
        let t0 = Instant::now();
        assert!(matches!(
            ring.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError::Timeout)
        ));
        assert!(t0.elapsed() >= Duration::from_millis(30), "returned early");
        // A push during the wait ends it with the message, long before the
        // deadline; the barrier holds the push until the wait is under way.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let (r, g) = (Arc::clone(&ring), Arc::clone(&gate));
        let consumer = thread::spawn(move || {
            g.wait();
            r.recv_timeout(Duration::from_secs(30))
        });
        gate.wait();
        ring.push(9).expect("push");
        assert!(matches!(consumer.join().expect("join"), Ok(9)));
        // Closed: what was published still drains, then Disconnected at
        // once instead of waiting the timeout out.
        ring.push(10).expect("push");
        ring.close();
        assert!(matches!(ring.recv_timeout(Duration::from_secs(30)), Ok(10)));
        let t0 = Instant::now();
        assert!(matches!(
            ring.recv_timeout(Duration::from_secs(30)),
            Err(RecvTimeoutError::Disconnected)
        ));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn drop_releases_unconsumed_values() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let ring: RequestRing<Counted> = RequestRing::with_capacity(8);
            for _ in 0..5 {
                ring.push(Counted).expect("push");
            }
            drop(ring.try_pop()); // one consumed
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }
}
