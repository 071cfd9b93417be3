//! The worker-launch seam: how the engine turns a loaded [`WorkerState`]
//! into a running service loop.
//!
//! The engine builds one `WorkerState` per slot (store loaded, disks
//! modeled, faults armed) and one channel per slot, then asks a
//! [`WorkerBackend`] to put a service loop behind the channel's receiving
//! end. The default [`InProcessBackend`] spawns the worker thread — the
//! single-node fast path. A remote backend (see the `pargrid-cluster`
//! crate) instead spawns a *proxy* thread that forwards each
//! [`crate::message::ToWorker`] over a TCP connection to a worker process
//! and feeds the wire replies back into the engine's reply channels.
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
use crossbeam::channel::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Launches the service loop for one worker slot.
///
/// Implementations receive the slot's fully-loaded [`WorkerState`] (the
/// in-process backend runs it directly; a remote backend uses its store as
/// the upload source for the worker process) and must consume `inbox`
/// until every sender is gone or a [`ToWorker::Shutdown`] arrives, then
/// drop it: the engine's sends start failing exactly then, and fail over.
/// A backend that detects its worker is gone must set `counters.dead` so
/// the engine's failure detection and replica failover engage — the same
/// contract the in-process fail-stop path honors.
pub trait WorkerBackend: Send + Sync + std::fmt::Debug {
    /// Spawns the service loop for `slot`, returning its join handle.
    fn spawn_worker(
        &self,
        slot: usize,
        state: WorkerState,
        inbox: Receiver<ToWorker>,
        counters: Option<Arc<WorkerCounters>>,
    ) -> JoinHandle<()>;
}

/// The default backend: one OS thread per worker running
/// [`WorkerState::run`] in this process — the baseline every remote
/// deployment is measured against.
#[derive(Clone, Copy, Debug, Default)]
pub struct InProcessBackend;

impl WorkerBackend for InProcessBackend {
    fn spawn_worker(
        &self,
        _slot: usize,
        state: WorkerState,
        inbox: Receiver<ToWorker>,
        counters: Option<Arc<WorkerCounters>>,
    ) -> JoinHandle<()> {
        run_worker(state, inbox, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;
    use crossbeam::channel::unbounded;

    #[test]
    fn in_process_backend_spawns_a_joinable_worker() {
        let state = WorkerState::new(0, 0, DiskParams::default());
        let (tx, rx) = unbounded();
        let handle = InProcessBackend.spawn_worker(0, state, rx, None);
        tx.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins");
        // The exited loop dropped its receiver: later sends bounce with
        // the message, which is what the engine's fail-over keys on.
        let bounced = tx.send(ToWorker::Shutdown).expect_err("receiver dropped");
        assert!(matches!(bounced.0, ToWorker::Shutdown));
    }
}
