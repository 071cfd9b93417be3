//! The worker-launch seam: how the engine turns its loaded
//! [`WorkerState`]s into running service loops.
//!
//! The engine builds one `WorkerState` per slot (store loaded, faults
//! armed) and hands them all to a [`WorkerBackend`], which
//! chooses the slot layout and returns one [`SlotHandle`] per slot. The
//! default [`InProcessBackend`] makes a fault-free slot its lock: no thread
//! and no channel, every message applied by its sender, on the sender's
//! thread — the single-node fast path. A fault-armed slot keeps a channel
//! and a thread ([`run_worker`]), because its faults model the channel and
//! the machine behind it. A remote backend (see the `pargrid-cluster`
//! crate) gives each *worker process* one channel and one proxy thread,
//! shared by every slot that process hosts, and returns channel handles:
//! every message names its slot, the proxy forwards a query's requests for
//! that host as one batch over one TCP connection and feeds the wire
//! replies back into the engine's reply channels.
//!
//! Everything above the slot — sequence numbers, retransmit/backoff,
//! reply matching, dead-flag failure detection, replica failover, hedged
//! reads — is transport-agnostic and works identically over every layout,
//! which is the point: the coordinator's fault machinery was built for
//! lost messages and dead workers, and a TCP worker is just a worker whose
//! messages can actually be lost.

use crate::message::ToWorker;
use crate::stats::WorkerCounters;
use crate::worker::{run_worker, LocalSlot, WorkerState};
use crossbeam::channel::{SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The engine's handle on one worker slot: a channel to the loop serving
/// it (a fault-armed slot's thread, a remote backend's proxy) or, for a
/// fault-free in-process slot, the slot itself.
///
/// [`SlotHandle::send`] is the one path by which anything reaches a slot.
pub struct SlotHandle(pub(crate) Slot);

/// How a slot is reached.
pub(crate) enum Slot {
    Channel(Sender<ToWorker>),
    Local(Box<LocalSlot>),
}

impl SlotHandle {
    /// A slot reached through `tx` (a remote worker, or any loop the
    /// engine does not run itself).
    pub fn channel(tx: Sender<ToWorker>) -> Self {
        SlotHandle(Slot::Channel(tx))
    }

    /// Sends `msg` to the slot: onto its channel, or applied on the calling
    /// thread to a local slot, waiting for its lock. Bounces with the
    /// message once the slot has stopped.
    pub fn send(&self, msg: ToWorker) -> Result<(), SendError<ToWorker>> {
        match &self.0 {
            Slot::Channel(tx) => tx.send(msg),
            Slot::Local(slot) => slot.send(msg),
        }
    }

    /// Like [`SlotHandle::send`], but hands `msg` back undelivered, instead
    /// of waiting, when another caller holds a local slot's lock; the
    /// caller settles it with `send` once its other slots are served. A
    /// bounce is handed back the same way, and bounces again from `send`.
    pub(crate) fn try_send(&self, msg: ToWorker) -> Result<(), ToWorker> {
        match &self.0 {
            Slot::Channel(tx) => tx.send(msg).map_err(|SendError(msg)| msg),
            Slot::Local(slot) => slot.try_send(msg),
        }
    }

    /// Whether this is a local slot, which stops with no thread to join.
    pub(crate) fn is_local(&self) -> bool {
        matches!(self.0, Slot::Local(_))
    }
}

/// Launches the service loops behind the engine's worker slots.
///
/// `spawn` receives every slot's fully-loaded [`WorkerState`] and counters,
/// in slot order (the in-process backend keeps the states; a remote backend
/// uses their stores as the upload source for its worker processes). It
/// returns one [`SlotHandle`] per slot — slots may share a channel, since
/// every [`ToWorker`] message names its slot — and the join handles of the
/// threads it started. A backend that wraps another passes the inner
/// backend's handles through unchanged. A service loop consumes its
/// receiver until every sender is gone or a [`ToWorker::Shutdown`] arrives,
/// then drops it: the engine's sends to every slot behind that receiver
/// start failing exactly then, and fail over. A backend that detects a
/// worker is gone must set that slot's `counters.dead` so the engine's
/// failure detection and replica failover engage — the same contract the
/// in-process fail-stop path honors.
pub trait WorkerBackend: Send + Sync + std::fmt::Debug {
    /// Starts the service loops for `slots` (slot `w` is `slots[w]`).
    fn spawn(
        &self,
        slots: Vec<(WorkerState, Arc<WorkerCounters>)>,
    ) -> (Vec<SlotHandle>, Vec<JoinHandle<()>>);
}

/// The default backend: a fault-free slot is its lock, served on its
/// senders' threads; a fault-armed slot gets a channel and an OS thread —
/// the baseline every remote deployment is measured against.
#[derive(Clone, Copy, Debug, Default)]
pub struct InProcessBackend;

impl WorkerBackend for InProcessBackend {
    fn spawn(
        &self,
        slots: Vec<(WorkerState, Arc<WorkerCounters>)>,
    ) -> (Vec<SlotHandle>, Vec<JoinHandle<()>>) {
        let mut threads = Vec::new();
        let handles = slots
            .into_iter()
            .map(|(state, counters)| {
                if state.faults.is_empty() {
                    return SlotHandle(Slot::Local(LocalSlot::new(state, Some(counters))));
                }
                let (slot, thread) = run_worker(state, Some(counters));
                threads.push(thread);
                slot
            })
            .collect();
        (handles, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::message::{FromWorker, ReadRequest};
    use crossbeam::channel::unbounded;
    use pargrid_geom::{Point, Rect};
    use pargrid_gridfile::page::encode_page;
    use pargrid_gridfile::Record;

    /// A read of block 0, answering to `reply`.
    fn read_block_zero(seq: u64, reply: &Sender<FromWorker>) -> ToWorker {
        ToWorker::Process(vec![ReadRequest {
            worker: 0,
            query_id: seq,
            seq,
            blocks: vec![0],
            query: Rect::new2(0.0, 0.0, 100.0, 100.0),
            reply: reply.clone(),
        }])
    }

    /// Block 0 holding the one record `id`.
    fn page(id: u64) -> Vec<(u32, Vec<u8>)> {
        let record = Record::new(id, Point::new2(1.0, 1.0));
        vec![(0, encode_page(&[record], 2, 0, 4096))]
    }

    #[test]
    fn only_a_fault_armed_slot_gets_a_thread() {
        let counters = || Arc::new(WorkerCounters::default());
        let plain = WorkerState::new(0, 0);
        let armed = WorkerState::new(1, 0).with_faults(vec![FaultKind::PoisonQuery(7)]);
        let (slots, threads) =
            InProcessBackend.spawn(vec![(plain, counters()), (armed, counters())]);
        assert!(slots[0].is_local(), "a fault-free slot is its lock");
        assert!(
            !slots[1].is_local(),
            "a fault-armed slot sits behind a channel"
        );
        assert_eq!(threads.len(), 1, "one thread, for the fault-armed slot");
        for slot in &slots {
            slot.send(ToWorker::Shutdown)
                .expect("both slots stop on Shutdown");
        }
        for thread in threads {
            thread.join().expect("the fault-armed slot's thread joins");
        }
        // Both slots are gone: every later send bounces with its message,
        // which is what the engine's fail-over keys on.
        for slot in &slots {
            let bounced = slot.send(ToWorker::Shutdown).expect_err("slot stopped");
            assert!(matches!(bounced.0, ToWorker::Shutdown));
            let (reply_tx, _reply_rx) = unbounded();
            let bounced = slot
                .send(read_block_zero(1, &reply_tx))
                .expect_err("slot stopped");
            assert!(matches!(bounced.0, ToWorker::Process(_)));
        }
    }

    #[test]
    fn local_slot_applies_each_message_on_its_sender() {
        let mut state = WorkerState::new(0, 0);
        let (block, bytes) = page(1).pop().expect("one block");
        state.store.put(block, bytes).expect("put");
        let slot = SlotHandle(Slot::Local(LocalSlot::new(state, None)));
        let Slot::Local(local) = &slot.0 else {
            unreachable!("built local");
        };
        let (reply_tx, reply_rx) = unbounded();
        let ids = |reply: FromWorker| reply.records.iter().map(|r| r.id).collect::<Vec<u64>>();

        // A read is served on this thread: its reply is waiting on return.
        slot.send(read_block_zero(1, &reply_tx)).expect("send");
        assert_eq!(ids(reply_rx.try_recv().expect("reply on return")), [1]);

        // A write sent before a read is seen by it.
        slot.send(ToWorker::WriteRaw {
            worker: 0,
            blocks: page(2),
        })
        .expect("write");
        slot.try_send(read_block_zero(2, &reply_tx))
            .expect("a free lock serves try_send");
        assert_eq!(ids(reply_rx.try_recv().expect("reply on return")), [2]);

        // Held by another caller: try_send hands the read back at once,
        // and send waits for the lock, then serves it.
        let held = local.state.lock().expect("slot lock");
        let Err(back) = slot.try_send(read_block_zero(3, &reply_tx)) else {
            panic!("a held lock hands the message back");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| slot.send(back));
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!waiter.is_finished(), "send waits for the lock");
            assert!(reply_rx.try_recv().is_err(), "nothing served yet");
            drop(held);
            waiter.join().expect("waiter").expect("served once free");
        });
        assert_eq!(ids(reply_rx.try_recv().expect("reply on return")), [2]);

        // Stopped: every later message bounces, try_send's included.
        slot.send(ToWorker::Shutdown).expect("stop");
        assert!(local.state.lock().expect("slot lock").is_none());
        let bounced = slot
            .send(read_block_zero(4, &reply_tx))
            .expect_err("stopped");
        assert!(matches!(bounced.0, ToWorker::Process(_)));
        assert!(slot.try_send(read_block_zero(5, &reply_tx)).is_err());
        assert!(
            reply_rx.try_recv().is_err(),
            "a stopped slot serves nothing"
        );
    }
}
