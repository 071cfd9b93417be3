//! Coordinator <-> worker message protocol.
//!
//! Replies are routed through a per-request `reply` channel rather than one
//! global coordinator channel, so any number of clients can have queries in
//! flight concurrently: each [`crate::engine::QuerySession`] (and each
//! concurrent-run round) owns its own reply channel and workers simply
//! answer to wherever the request came from.
//!
//! Every dispatch carries an engine-global **sequence number** (`seq`),
//! echoed in the reply. The coordinator matches replies to outstanding
//! requests by `seq` — not by arrival order — so duplicated, delayed, or
//! reordered replies cannot be mis-attributed; and a retransmit of a
//! possibly-lost request reuses the original `seq`, so the worker can dedup
//! redeliveries of work it already performed.

use crossbeam::channel::Sender;
use pargrid_geom::Rect;
use pargrid_gridfile::Record;

/// One query's block requests for one worker.
#[derive(Clone, Debug)]
pub struct ReadRequest {
    /// The worker slot the request is for. A backend that carries several
    /// slots' traffic on one channel (one per worker process) routes on it.
    pub worker: usize,
    /// Query sequence number (echoed in the reply).
    pub query_id: u64,
    /// Engine-global dispatch sequence number, echoed in the reply. Unique
    /// per logical request: a retransmit reuses the seq (the worker dedups
    /// it), while a failover or hedge of the same query gets a fresh one.
    pub seq: u64,
    /// Block ids on this worker's disk.
    pub blocks: Vec<u32>,
    /// The range query (closed box) records must satisfy.
    pub query: Rect,
    /// Where to send the [`FromWorker`] reply.
    pub reply: Sender<FromWorker>,
}

/// Messages the coordinator sends to a worker.
#[derive(Debug)]
pub enum ToWorker {
    /// Service the given requests as one batch, each answered on its own
    /// reply channel. Each admission round — a session's query, a window
    /// of a runner's — sends one per involved worker; every retry,
    /// retransmit and hedge sends one more. A fault-free in-process slot
    /// serves it on the sender's thread, under the slot's lock (see
    /// [`crate::backend::SlotHandle`]); a slot behind a channel drains any
    /// further messages already waiting first, so concurrent sessions
    /// batch together there.
    Process(Vec<ReadRequest>),
    /// Read raw block bytes (no decoding, no filtering) for the repair
    /// path: the coordinator fetches a healthy replica's copy of corrupted
    /// blocks. Blocks that are missing or fail their own checksum come back
    /// as `None`.
    FetchRaw {
        /// The worker slot to read from.
        worker: usize,
        /// Local block ids to read.
        blocks: Vec<u32>,
        /// Where to send the [`RawBlocks`] reply.
        reply: Sender<RawBlocks>,
    },
    /// Overwrite local blocks with the given bytes (recomputing stored
    /// checksums) — the second half of a scrub: healthy replica bytes
    /// replace a corrupted copy.
    WriteRaw {
        /// The worker slot to write to.
        worker: usize,
        /// `(local block id, bytes)` pairs to overwrite.
        blocks: Vec<(u32, Vec<u8>)>,
    },
    /// Terminate the worker loop.
    Shutdown,
}

/// Raw block bytes answered to a [`ToWorker::FetchRaw`].
#[derive(Debug)]
pub struct RawBlocks {
    /// Which worker replied.
    pub worker_id: usize,
    /// `(local block id, bytes)` in request order; `None` when the block is
    /// missing or fails its own checksum (a corrupt copy is never served as
    /// repair material).
    pub blocks: Vec<(u32, Option<Vec<u8>>)>,
}

/// A worker's reply to one [`ReadRequest`].
#[derive(Clone, Debug)]
pub struct FromWorker {
    /// Echo of the request's query id.
    pub query_id: u64,
    /// Echo of the request's dispatch sequence number — what the
    /// coordinator matches on.
    pub seq: u64,
    /// Which worker replied.
    pub worker_id: usize,
    /// Blocks requested of this worker for the query.
    pub blocks_requested: u64,
    /// Virtual CPU time for decoding and filtering (microseconds): the
    /// cost model's per-record constant times the records scanned.
    pub cpu_us: u64,
    /// The qualifying records.
    pub records: Vec<Record>,
    /// Local block ids that failed checksum verification while serving this
    /// request. The coordinator repairs them from the replica copy (scrub).
    pub corrupt_blocks: Vec<u32>,
    /// Set when the worker could not serve the request (unreadable block,
    /// injected poison). `records` is empty. The coordinator retries the affected buckets against their
    /// replicas, if any.
    pub error: Option<String>,
}
