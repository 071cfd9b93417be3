//! The worker-launch seam: how the engine turns its loaded
//! [`WorkerState`]s into running service loops.
//!
//! The engine builds one `WorkerState` per slot (store loaded, disks
//! modeled, faults armed) and hands them all to a [`WorkerBackend`], which
//! chooses the channel layout and returns one sender per slot. The default
//! [`InProcessBackend`] gives each slot its own channel and worker thread —
//! the single-node fast path. A remote backend (see the `pargrid-cluster`
//! crate) gives each *worker process* one channel and one proxy thread,
//! shared by every slot that process hosts: every message names its slot,
//! the proxy forwards a query's requests for that host as one batch over
//! one TCP connection and feeds the wire replies back into the engine's
//! reply channels.
//!
//! Everything above the channel — sequence numbers, retransmit/backoff,
//! reply matching, dead-flag failure detection, replica failover, hedged
//! reads — is transport-agnostic and works identically over both
//! backends, which is the point: the coordinator's fault machinery was
//! built for lost messages and dead workers, and a TCP worker is just a
//! worker whose messages can actually be lost.

use crate::message::ToWorker;
use crate::stats::WorkerCounters;
use crate::worker::{run_worker, WorkerState};
use crossbeam::channel::{unbounded, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Launches the service loops behind the engine's worker slots.
///
/// `spawn` receives every slot's fully-loaded [`WorkerState`] and counters,
/// in slot order (the in-process backend runs the states directly; a
/// remote backend uses their stores as the upload source for its worker
/// processes). It returns one sender per slot — slots may share a channel,
/// since every [`ToWorker`] message names its slot — and the join handles
/// of the threads it started. A service loop consumes its receiver until
/// every sender is gone or a [`ToWorker::Shutdown`] arrives, then drops it:
/// the engine's sends to every slot behind that receiver start failing
/// exactly then, and fail over. A backend that detects a worker is gone
/// must set that slot's `counters.dead` so the engine's failure detection
/// and replica failover engage — the same contract the in-process
/// fail-stop path honors.
pub trait WorkerBackend: Send + Sync + std::fmt::Debug {
    /// Starts the service loops for `slots` (slot `w` is `slots[w]`).
    fn spawn(
        &self,
        slots: Vec<(WorkerState, Arc<WorkerCounters>)>,
    ) -> (Vec<Sender<ToWorker>>, Vec<JoinHandle<()>>);
}

/// The default backend: one channel and one OS thread per slot running
/// [`WorkerState::run`] in this process — the baseline every remote
/// deployment is measured against.
#[derive(Clone, Copy, Debug, Default)]
pub struct InProcessBackend;

impl WorkerBackend for InProcessBackend {
    fn spawn(
        &self,
        slots: Vec<(WorkerState, Arc<WorkerCounters>)>,
    ) -> (Vec<Sender<ToWorker>>, Vec<JoinHandle<()>>) {
        slots
            .into_iter()
            .map(|(state, counters)| {
                let (tx, rx) = unbounded();
                (tx, run_worker(state, rx, Some(counters)))
            })
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
        let (senders, handles) =
            InProcessBackend.spawn(vec![(state, Arc::new(WorkerCounters::default()))]);
        let (tx, handle) = (&senders[0], handles.into_iter().next().expect("one handle"));
        tx.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins");
        // The exited loop dropped its receiver: later sends bounce with
        // the message, which is what the engine's fail-over keys on.
        let bounced = tx.send(ToWorker::Shutdown).expect_err("receiver dropped");
        assert!(matches!(bounced.0, ToWorker::Shutdown));
    }
}
