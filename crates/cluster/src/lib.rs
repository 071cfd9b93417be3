//! `pargrid-cluster`: the scale-out runtime — one replicated coordinator,
//! `M` worker *processes*, all speaking the worker/election plane of
//! `pargrid-net` over real TCP.
//!
//! The paper's SP-2 ran one coordinator and `P` workers as an SPMD
//! program; `pargrid-parallel` reproduces that with threads in one
//! process. This crate stretches the same architecture across process —
//! and machine — boundaries while keeping the engine itself unchanged:
//!
//! * [`worker::WorkerServer`] — a standalone worker process. Owns block
//!   pages uploaded by its coordinator, services dispatches through the
//!   exact same `WorkerState` code path as an in-process worker thread
//!   (same elevator batches, same dedup window, same virtual disks), and
//!   participates as a *voter* in coordinator elections.
//! * [`backend::RemoteBackend`] — a [`pargrid_parallel::WorkerBackend`]
//!   whose "worker threads" are proxies speaking TCP to worker
//!   processes, one proxy and one connection per process, carrying a
//!   query's reads for every slot that process hosts in one batch. The
//!   engine cannot tell the difference: sequence numbers,
//!   dedup, retransmits, replica failover, and hedged reads all work
//!   unchanged, and a worker whose process dies looks exactly like the
//!   fail-stop faults the engine already tolerates.
//! * [`coordinator::Coordinator`] — a coordinator node. At any moment one
//!   node leads (serves clients through an embedded `pargrid-net`
//!   server); standbys mirror every acknowledged mutation through a
//!   replicated metadata log ([`meta::MetaLog`]) *before* the client sees
//!   the ack, answer clients with `NotLeader` redirects, and take over
//!   via leader election ([`election::Election`]) when the leader's
//!   heartbeats stop. The election term doubles as a **fencing epoch**:
//!   workers reject every frame from a deposed leader.
//! * [`client::ClusterClient`] — a client that knows every coordinator
//!   address, follows `NotLeader` redirects, and retries across failover
//!   so callers see a single logical service.
//!
//! Consistency contract (see `DESIGN.md` §15 for the full argument):
//! reads and writes are served only by the leader; a mutation is
//! acknowledged only after every *online* standby has the corresponding
//! log entry; a standby only wins an election if its log is at least as
//! long as any voter's committed prefix. Together: a client that
//! received an ack reads its own write across a single coordinator
//! failure, and a deposed leader can neither serve stale reads past its
//! lease nor slip writes past the fence.

#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod coordinator;
pub mod election;
pub mod meta;
pub mod worker;

pub use backend::RemoteBackend;
pub use client::{ClusterClient, ClusterClientError};
pub use coordinator::{Coordinator, CoordinatorConfig, PeerSpec};
pub use election::{Election, Role};
pub use meta::MetaLog;
pub use worker::{ChaosDrop, WorkerConfig, WorkerServer};

/// The crate's most commonly used types, flat.
pub mod prelude {
    pub use crate::backend::RemoteBackend;
    pub use crate::client::{ClusterClient, ClusterClientError};
    pub use crate::coordinator::{Coordinator, CoordinatorConfig, PeerSpec};
    pub use crate::worker::{ChaosDrop, WorkerConfig, WorkerServer};
}
