//! The worker-launch seam: how the engine turns its loaded
//! [`WorkerState`]s into running service loops.
//!
//! The engine builds one `WorkerState` per slot (store loaded, disks
//! modeled, faults armed) and hands them all to a [`WorkerBackend`], which
//! chooses the channel layout and returns one [`SlotHandle`] per slot. The
//! default [`InProcessBackend`] gives each slot its own channel and worker
//! thread, and hands the slot itself back with the channel: a session that
//! finds nothing queued to such a slot serves its read on its own thread
//! instead of waking the slot's, and a mutation writes its blocks the same
//! way — the single-node fast path. A remote backend (see the
//! `pargrid-cluster` crate) gives each *worker process* one channel and one
//! proxy thread, shared by every slot that process hosts, and returns
//! channel-only handles: every message names its slot, the proxy forwards a
//! query's requests for that host as one batch over one TCP connection and
//! feeds the wire replies back into the engine's reply channels.
//!
//! Everything above the channel — sequence numbers, retransmit/backoff,
//! reply matching, dead-flag failure detection, replica failover, hedged
//! reads — is transport-agnostic and works identically over both
//! backends, which is the point: the coordinator's fault machinery was
//! built for lost messages and dead workers, and a TCP worker is just a
//! worker whose messages can actually be lost.

use crate::message::{ReadRequest, ToWorker};
use crate::stats::WorkerCounters;
use crate::worker::{run_worker, Inline, LocalSlot, WorkerState};
use crossbeam::channel::{SendError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The engine's handle on one worker slot: the channel every message to
/// the slot travels on and, for a slot served in this process, the slot
/// itself.
///
/// [`SlotHandle::send`] is the one path by which anything reaches a slot's
/// channel. For an in-process slot it counts the message as queued before
/// sending it (and un-counts a bounced one); the slot's thread un-counts it
/// once applied. Only a slot with nothing queued is served or written
/// inline, which keeps every read and write behind every write sent before
/// it.
pub struct SlotHandle {
    tx: Sender<ToWorker>,
    pub(crate) local: Option<Arc<LocalSlot>>,
}

impl SlotHandle {
    /// A slot reached only through `tx` (a remote worker, or any loop the
    /// engine cannot serve itself).
    pub fn channel(tx: Sender<ToWorker>) -> Self {
        SlotHandle { tx, local: None }
    }

    /// An in-process slot whose thread consumes `tx`'s receiver.
    pub(crate) fn local(tx: Sender<ToWorker>, slot: Arc<LocalSlot>) -> Self {
        SlotHandle {
            tx,
            local: Some(slot),
        }
    }

    /// Sends `msg` to the slot. Bounces with the message once the slot's
    /// loop has exited.
    pub fn send(&self, msg: ToWorker) -> Result<(), SendError<ToWorker>> {
        let Some(slot) = &self.local else {
            return self.tx.send(msg);
        };
        slot.count_sent();
        self.tx.send(msg).inspect_err(|_| slot.uncount(1))
    }

    /// Serves `request` on the calling thread when this is an in-process
    /// slot free for inline service (see [`LocalSlot::run_inline`]);
    /// otherwise hands it back for [`SlotHandle::send`], or, without
    /// `wait`, for a second offer once the caller's other slots are served.
    pub(crate) fn serve(&self, request: ReadRequest, wait: bool) -> Inline<ReadRequest> {
        let Some(slot) = &self.local else {
            return Inline::Channel(request);
        };
        slot.run_inline(request, wait, |state, request, counters| {
            let alive = state.serve(vec![request], counters);
            debug_assert!(alive, "only a fault plan can fail-stop a slot");
        })
    }

    /// Writes `blocks` to slot `worker`: on the calling thread when the
    /// slot is free for inline service (waiting out another caller's
    /// inline job), else as a [`ToWorker::WriteRaw`] queued behind what the
    /// slot has not yet applied. Bounces like [`SlotHandle::send`].
    pub(crate) fn write(
        &self,
        worker: usize,
        blocks: Vec<(u32, Vec<u8>)>,
    ) -> Result<(), SendError<ToWorker>> {
        let blocks = match &self.local {
            Some(slot) => match slot.run_inline(blocks, true, |state, blocks, _| {
                state.write_raw_blocks(blocks)
            }) {
                Inline::Done => return Ok(()),
                Inline::Locked(blocks) | Inline::Channel(blocks) => blocks,
            },
            None => blocks,
        };
        self.send(ToWorker::WriteRaw { worker, blocks })
    }
}

/// Launches the service loops behind the engine's worker slots.
///
/// `spawn` receives every slot's fully-loaded [`WorkerState`] and counters,
/// in slot order (the in-process backend runs the states directly; a
/// remote backend uses their stores as the upload source for its worker
/// processes). It returns one [`SlotHandle`] per slot — slots may share a
/// channel, since every [`ToWorker`] message names its slot — and the join
/// handles of the threads it started. A backend that wraps another passes
/// the inner backend's handles through unchanged. A service loop consumes
/// its receiver until every sender is gone or a [`ToWorker::Shutdown`]
/// arrives, then drops it: the engine's sends to every slot behind that
/// receiver start failing exactly then, and fail over. A backend that
/// detects a worker is gone must set that slot's `counters.dead` so the
/// engine's failure detection and replica failover engage — the same
/// contract the in-process fail-stop path honors.
pub trait WorkerBackend: Send + Sync + std::fmt::Debug {
    /// Starts the service loops for `slots` (slot `w` is `slots[w]`).
    fn spawn(
        &self,
        slots: Vec<(WorkerState, Arc<WorkerCounters>)>,
    ) -> (Vec<SlotHandle>, Vec<JoinHandle<()>>);
}

/// The default backend: one channel and one OS thread per slot, each
/// slot's state shared with the engine so a slot with nothing queued is
/// served on the asking session's thread — the baseline every remote
/// deployment is measured against.
#[derive(Clone, Copy, Debug, Default)]
pub struct InProcessBackend;

impl WorkerBackend for InProcessBackend {
    fn spawn(
        &self,
        slots: Vec<(WorkerState, Arc<WorkerCounters>)>,
    ) -> (Vec<SlotHandle>, Vec<JoinHandle<()>>) {
        slots
            .into_iter()
            .map(|(state, counters)| run_worker(state, Some(counters)))
            .unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;

    #[test]
    fn in_process_backend_spawns_a_joinable_worker() {
        let state = WorkerState::new(0, 0, DiskParams::default());
        let (slots, handles) =
            InProcessBackend.spawn(vec![(state, Arc::new(WorkerCounters::default()))]);
        let (slot, handle) = (&slots[0], handles.into_iter().next().expect("one handle"));
        slot.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins");
        // The exited loop dropped its receiver: later sends bounce with
        // the message, which is what the engine's fail-over keys on.
        let bounced = slot.send(ToWorker::Shutdown).expect_err("receiver dropped");
        assert!(matches!(bounced.0, ToWorker::Shutdown));
    }
}
