//! Shared-nothing parallel grid file engine — the SP-2 substitute (§3.5).
//!
//! The paper ran parallel grid files on a 16-processor IBM SP-2: an SPMD
//! organization with one *coordinator* and `P` *workers*, each owning a
//! local disk. The coordinator translates a range query into per-worker
//! block requests; workers read the blocks from their disks, filter the
//! qualifying records and ship them back.
//!
//! We reproduce that architecture with real messages (the pages that move
//! are real encoded buckets). The quantities Tables 4–5 report — blocks
//! fetched, communication time and elapsed time — come from a calibrated
//! cost model of the SP-2 ([`pargrid_sim::cost`]: mid-90s disks with an LRU
//! buffer cache, an SP-2-class interconnect) that the workload runners
//! replay over each round's reads, which keeps those numbers deterministic
//! and hardware-independent. Everything else runs on the real clock.
//!
//! See `DESIGN.md` §3 for why this substitution preserves the paper's
//! observations (sub-linear elapsed-time speedup, communication growing with
//! the query ratio, cache effects on animation workloads).
//!
//! The engine is a **shared query service**: all query methods take `&self`,
//! so one engine serves any number of client threads, each through its own
//! [`engine::QuerySession`]. A coordinator-side concurrent runner
//! ([`engine::ParallelGridFile::run_workload_concurrent`]) admits a window
//! of in-flight queries whose block requests the cost model charges as
//! combined elevator batches, yielding throughput metrics
//! ([`pargrid_sim::ThroughputStats`]) on top of the paper's per-query
//! response times.
//!
//! Built over a [`pargrid_core::ReplicatedAssignment`]
//! ([`engine::ParallelGridFile::build_replicated`]), the engine is
//! additionally **fault-tolerant**: chained-declustered replicas let the
//! coordinator plan around dead workers and retry stranded requests, with
//! deterministic failures injectable through a [`fault::FaultPlan`].
//!
//! Beyond fail-stop, the fault model covers a hostile environment — lost,
//! duplicated, delayed, and reordered messages; silent block corruption;
//! straggler disks — and the engine answers each: sequence-numbered
//! dispatch with worker-side dedup and bounded retransmission, per-block
//! checksums with replica scrub-repair, wall-clock hedged reads against the
//! replica of a slow primary ([`LatencyConfig::with_hedging`]), and a per-query
//! real-time deadline ([`LatencyConfig::with_deadline_us`]) that converts
//! unbounded waits into explicit incomplete answers. Randomized-but-
//! reproducible fault schedules come from [`fault::FaultPlan::chaos`].
//!
//! Every coordinator → worker message goes through [`SlotHandle::send`]. A
//! fault-free in-process slot is its lock, served on the sender's thread; a
//! fault-armed slot or a remote worker sits behind an unbounded channel. A
//! message to a stopped slot comes back as `SendError` and fails over to
//! the replicas.
//!
//! ```
//! use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
//! use pargrid_datagen::uniform2d;
//! use pargrid_geom::Rect;
//! use pargrid_parallel::{EngineConfig, ParallelGridFile};
//! use std::sync::Arc;
//!
//! let dataset = uniform2d(42);
//! let grid = Arc::new(dataset.build_grid_file());
//! let input = DeclusterInput::from_grid_file(&grid);
//! let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity)
//!     .assign(&input, 4, 1);
//!
//! // Four worker slots, served on the threads that query them. The handle
//! // is shared (`&self`): clients open sessions against it.
//! let engine = ParallelGridFile::build(Arc::clone(&grid), &assignment,
//!                                      EngineConfig::default());
//! let mut session = engine.session();
//! let out = session.query(&Rect::new2(0.0, 0.0, 500.0, 500.0));
//! assert!(!out.records.is_empty());
//! assert_eq!(engine.stats().queries, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod engine;
pub mod error;
pub mod fault;
pub mod merge;
pub mod message;
pub mod stats;
pub mod store;
pub mod worker;

pub use backend::{InProcessBackend, SlotHandle, WorkerBackend};
pub use engine::{
    EngineConfig, LatencyConfig, MutationOutcome, ObsConfig, ParallelGridFile, QueryOutcome,
    QuerySession, RebalanceOp, RebalanceReport, ResilienceConfig, RunStats,
};
pub use error::{EngineError, StoreError};
pub use fault::{FaultKind, FaultPlan, WorkerFault};
pub use message::{FromWorker, RawBlocks, ToWorker};
pub use pargrid_sim::ThroughputStats;
pub use stats::{EngineStats, WorkerStats};
pub use store::BlockStore;

/// The crate's most commonly used types, flat: engine construction and the
/// grouped config surface, the query-service types, and the typed errors
/// every fallible surface reports.
pub mod prelude {
    pub use crate::engine::{
        EngineConfig, LatencyConfig, MutationOutcome, ObsConfig, ParallelGridFile, QueryOutcome,
        QuerySession, RebalanceOp, RebalanceReport, ResilienceConfig, RunStats,
    };
    pub use crate::error::{EngineError, StoreError};
    pub use crate::fault::{FaultKind, FaultPlan, WorkerFault};
    pub use crate::stats::{EngineStats, WorkerStats};
    pub use crate::store::BlockStore;
}
