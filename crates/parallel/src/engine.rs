//! The coordinator and the public engine API.
//!
//! `ParallelGridFile::build` declusters a grid file onto `P` worker slots,
//! then the query API drives the SPMD protocol:
//!
//! 1. the coordinator translates the range query into block requests using
//!    the grid directory (which the paper stores on the coordinator's disk),
//! 2. involved workers read and verify their blocks, decode the real pages
//!    and filter records,
//! 3. replies stream back; the coordinator keeps each accepted reply as its
//!    own part and, once nothing is awaited,
//!    concatenates the parts in slot order ([`crate::merge`]) — every caller
//!    (sessions, the workload runners, the server, the cluster backend) gets
//!    the same sequence for the same query, layout and worker health.
//!
//! The engine is a **shared service**: every query method takes `&self`, so
//! any number of threads can hold the same engine and open independent
//! [`QuerySession`]s against it. Each session owns a private reply channel;
//! workers answer to whichever session asked, one dispatch per worker per
//! admission round, however many queries the round holds.
//!
//! The engine is also **fault-tolerant** when built over a
//! [`ReplicatedAssignment`] ([`ParallelGridFile::build_replicated`]): every
//! bucket has a chained-declustered secondary copy on a different worker.
//! The coordinator plans queries against live workers only (dead primaries
//! are skipped in favor of their replicas), and replies are collected under
//! a per-request timeout: a worker that fail-stops mid-query is detected via
//! its published dead flag (or, for a silently crashed thread, a strike
//! limit), and its stranded buckets are retried — once — against their other
//! copy. Without replicas a failure marks the affected queries
//! [`QueryOutcome::incomplete`] instead of panicking.
//!
//! Beyond fail-stop, the engine is hardened against a **hostile
//! environment** (see [`crate::fault`]): every dispatch carries a sequence
//! number so duplicated, delayed, or reordered replies are matched exactly
//! (never positionally) and redeliveries are deduped at the worker; lost
//! messages are retransmitted under bounded exponential backoff; block
//! corruption is caught by store checksums, answered from the replica, and
//! scrubbed back to health; a request outstanding too long on the wall
//! clock is hedged against its replica ([`LatencyConfig::hedge_threshold`]);
//! and a per-query real-time
//! deadline ([`LatencyConfig::deadline_us`]) bounds how long any of this is
//! allowed to take before the query is answered explicitly incomplete.
//!
//! Coordinator → worker dispatch goes through one [`SlotHandle::send`] per
//! message, whatever the message and whoever sends it. A fault-free
//! in-process slot is its lock: the sender applies the message on its own
//! thread (see [`crate::backend::SlotHandle`]). A fault-armed or remote slot
//! sits behind an unbounded channel. A send to a slot that has stopped
//! bounces back as `SendError(msg)`; the requests it carried fail over to
//! their other copy at once, through the same fail-over a reply timeout
//! takes. Sessions and the concurrent runner dispatch through one round
//! function: admit, one `Process` message per involved worker, collect.
//!
//! The SP-2 cost model ([`pargrid_sim::cost`]) is charged in one place: the
//! workload runners, which replay each round's accepted reads through it
//! once the round's replies are in. A query's virtual elapsed time there is
//! the slowest worker's (disk + CPU) charge plus its communication time:
//! one latency per message sent (broadcast, retransmits, failovers, hedges)
//! plus each reply's (latency + bytes / bandwidth), serialized at the
//! coordinator's adapter — which is why the paper's communication column
//! grows with the query ratio `r` (§ 3.5: "the size of answer sets tends to
//! grow"). Sessions drop the log: the serving path runs on the real clock.

use crate::backend::SlotHandle;
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::merge::{assemble, Part};
use crate::message::{FromWorker, ReadRequest, ToWorker};
use crate::stats::{EngineStats, SharedStats};
use crate::worker::WorkerState;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, SendError, Sender};
use pargrid_core::{
    place_fresh_bucket, place_fresh_replica, Assignment, DeclusterInput, ReplicatedAssignment,
};
use pargrid_geom::{Point, Rect};
use pargrid_gridfile::durable::CHECKPOINT_FILE;
use pargrid_gridfile::page::{encode_page, encode_page_into};
use pargrid_gridfile::wal::{Wal, WalOp};
use pargrid_gridfile::{GridFile, MutationEffect, Record};
#[cfg(feature = "obs")]
use pargrid_obs::{Event, Recorder, SpanKind, NO_ID};
use pargrid_rebalance::{plan_rebalance, CopyKind, RepairConfig};
use pargrid_sim::cost::{CostModel, DiskParams, NetParams, Read};
use pargrid_sim::{QueryWorkload, ThroughputStats};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default for [`ResilienceConfig::max_timeout_strikes`]: with the default
/// 200 ms poll timeout, ten seconds of total silence.
const DEFAULT_MAX_TIMEOUT_STRIKES: u32 = 50;

/// Bound on retransmits per outstanding request — the lost-message
/// defense. A request whose reply is still missing after a backed-off
/// number of timeout polls (1, then 2, then 4, ...) is redelivered with the
/// same sequence number (the worker dedups), up to this many times.
const MAX_RETRANSMITS: u32 = 3;

/// Blocks per spill write at build time: a worker's pages are encoded into
/// one buffer of at most this many blocks (256 KB of 4 KB pages) and
/// appended with one positioned write. Smaller runs cost a syscall per few
/// blocks; collecting a worker's whole share first costs fresh-memory page
/// faults that outweigh the syscalls saved.
const SPILL_RUN_BLOCKS: usize = 64;

/// Reply-latency samples required before hedging decisions trust the p95.
#[cfg(feature = "obs")]
const HEDGE_MIN_SAMPLES: u64 = 16;

/// Fault-survival policy: injected faults, the reply-timeout poll and the
/// strike limit. Grouped out of [`EngineConfig`] so the knobs that only
/// matter under failure share one sub-config (`config.resilience`).
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Injected worker faults (none by default); see [`FaultPlan`].
    pub faults: FaultPlan,
    /// Real-time reply timeout per collection poll, milliseconds. Each
    /// expiry triggers a sweep for workers that died mid-query; it does not
    /// by itself declare anyone dead (see
    /// [`ResilienceConfig::max_timeout_strikes`]), so slow machines are safe
    /// with small values.
    pub fail_timeout_ms: u64,
    /// Consecutive empty reply timeouts after which every still-awaited
    /// threaded or remote slot is declared dead even if it never published
    /// a dead flag (a panicked thread, a silent host). Default 50. A panic
    /// in a fault-free in-process slot surfaces on the caller that sent.
    pub max_timeout_strikes: u32,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            faults: FaultPlan::default(),
            fail_timeout_ms: 200,
            max_timeout_strikes: DEFAULT_MAX_TIMEOUT_STRIKES,
        }
    }
}

impl ResilienceConfig {
    /// Installs an injected fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the per-poll reply timeout, milliseconds.
    pub fn with_fail_timeout_ms(mut self, ms: u64) -> Self {
        self.fail_timeout_ms = ms;
        self
    }

    /// Sets the silent-worker force-declare strike limit (clamped to >= 1).
    pub fn with_max_timeout_strikes(mut self, strikes: u32) -> Self {
        self.max_timeout_strikes = strikes.max(1);
        self
    }
}

/// Tail-latency policy: the per-query deadline and the hedged-read trigger
/// (`config.latency`).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyConfig {
    /// Per-query real-time deadline budget, microseconds. When it expires,
    /// still-missing replies are abandoned and the query is marked
    /// [`QueryOutcome::incomplete`]. `None` (default) waits indefinitely.
    pub deadline_us: Option<u64>,
    /// Hedged-read trigger — the straggler defense. A request still
    /// outstanding after `threshold x p95` of the engine's recent reply
    /// latencies (wall clock) is re-sent under a fresh seq to the live
    /// worker holding the other copy of all its buckets; the first good
    /// answer of the two wins. `None` (default) disables hedging; requires
    /// the `obs` feature (the p95 baseline comes from its histograms) and a
    /// replicated build.
    pub hedge_threshold: Option<f64>,
}

impl LatencyConfig {
    /// Sets the per-query real-time deadline budget, microseconds.
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Enables hedged reads at `threshold x p95` (see
    /// [`LatencyConfig::hedge_threshold`]).
    pub fn with_hedging(mut self, threshold: f64) -> Self {
        self.hedge_threshold = Some(threshold);
        self
    }
}

/// Observability wiring (`config.obs`). Without the `obs` cargo feature the
/// group is empty and every hook compiles away.
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// Trace recorder capturing per-query spans and latency histograms
    /// (see [`pargrid_obs::Recorder`]). `None` keeps each hook at a single
    /// `Option` check; building the crate without the `obs` feature removes
    /// the hooks entirely.
    #[cfg(feature = "obs")]
    pub recorder: Option<Arc<Recorder>>,
}

impl ObsConfig {
    /// Installs a trace recorder. Size it with
    /// [`Recorder::new`]`(n_workers)` so every worker gets its own event
    /// track.
    #[cfg(feature = "obs")]
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// Engine configuration: the SP-2 cost model the workload runners charge
/// (disk, net, disks per worker), the store layout, the worker backend, and
/// three grouped policy sub-configs.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Cost-model disk parameters (per worker).
    pub disk: DiskParams,
    /// Cost-model network parameters.
    pub net: NetParams,
    /// When set, each worker's blocks are written to a real file
    /// `<spill_dir>/worker-<i>.blocks` and served from a read-only mapping
    /// of it — the paper's "separate files corresponding to every disk"
    /// layout. The directory is private to the engine.
    /// `None` keeps blocks in memory.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Cost-model disks per worker (0 is treated as 1), striped round-robin
    /// (`disk = block mod D`). The paper's SP-2 had seven disks per
    /// processor; its simulation study assumes one.
    pub disks_per_worker: usize,
    /// Extra worker slots spawned idle at build time, holding no data until
    /// a [`ParallelGridFile::rebalance`] with [`RebalanceOp::AddWorkers`]
    /// activates them. Slot indices never renumber: data workers occupy
    /// slots `0..M`, standbys `M..M+standby_workers`.
    pub standby_workers: usize,
    /// How worker service loops are launched: `None` keeps the slots in
    /// process ([`crate::backend::InProcessBackend`], the single-node fast
    /// path); a remote backend (see the `pargrid-cluster` crate)
    /// instead proxies each slot's messages to a worker *process* over TCP.
    /// Everything above the transport — sequencing, dedup, retransmits,
    /// failure detection, replica failover — is shared between the two.
    pub backend: Option<Arc<dyn crate::backend::WorkerBackend>>,
    /// Fault-survival policy (timeouts, strikes, injection).
    pub resilience: ResilienceConfig,
    /// Tail-latency policy (deadline, hedging).
    pub latency: LatencyConfig,
    /// Observability wiring (trace recorder).
    pub obs: ObsConfig,
}

impl EngineConfig {
    /// In-memory configuration with the default cost model.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// File-backed configuration (see [`EngineConfig::spill_dir`]).
    pub fn file_backed<P: Into<std::path::PathBuf>>(dir: P) -> Self {
        EngineConfig {
            spill_dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// The paper's SP-2 hardware configuration: seven disks per processor.
    pub fn sp2_seven_disks() -> Self {
        EngineConfig {
            disks_per_worker: 7,
            ..Self::default()
        }
    }

    /// Spawns `k` idle standby worker slots for later elastic grows (see
    /// [`EngineConfig::standby_workers`]).
    pub fn with_standby_workers(mut self, k: usize) -> Self {
        self.standby_workers = k;
        self
    }

    /// Installs a worker backend (see [`EngineConfig::backend`]).
    pub fn with_backend(mut self, backend: Arc<dyn crate::backend::WorkerBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Updates the fault-survival group in place, fluently:
    /// `cfg.resilience(|r| r.with_fail_timeout_ms(25))`.
    pub fn resilience(mut self, f: impl FnOnce(ResilienceConfig) -> ResilienceConfig) -> Self {
        self.resilience = f(self.resilience);
        self
    }

    /// Updates the tail-latency group in place, fluently.
    pub fn latency(mut self, f: impl FnOnce(LatencyConfig) -> LatencyConfig) -> Self {
        self.latency = f(self.latency);
        self
    }

    /// Updates the observability group in place, fluently.
    pub fn obs(mut self, f: impl FnOnce(ObsConfig) -> ObsConfig) -> Self {
        self.obs = f(self.obs);
        self
    }
}

/// Result of a single query.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Qualifying records, a set in the paper's sense: grouped by serving
    /// slot in ascending order, each slot's records in plan order. No
    /// consumer reads the order; it does not depend on reply arrival.
    pub records: Vec<Record>,
    /// Grid-directory buckets the query touched (sorted by id).
    pub buckets: Vec<u32>,
    /// The §2.2 response time in blocks: `max_i N_i(q)`.
    pub response_blocks: u64,
    /// Total blocks requested across workers.
    pub total_blocks: u64,
    /// Buffer-cache hits among them, as the cost model charged them. The
    /// three virtual fields are 0 outside the workload runners.
    pub cache_hits: u64,
    /// Virtual elapsed time of the query (microseconds), accounted
    /// independently of the other queries of its round: the slowest
    /// involved worker's own disk + CPU charges plus this query's
    /// communication time.
    pub elapsed_us: u64,
    /// Virtual communication time of the query (microseconds).
    pub comm_us: u64,
    /// Requests retried against another copy after a worker failure or
    /// error reply (0 on a healthy run).
    pub retries: u64,
    /// Hedge requests dispatched against slow primaries for this query.
    pub hedges: u64,
    /// True when some buckets could not be served by any live copy; the
    /// records are then a subset of the true answer.
    pub incomplete: bool,
}

/// Accumulated results of a workload run — the columns of Tables 4 and 5.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Number of queries processed.
    pub queries: u64,
    /// Sum of per-query response times in blocks fetched
    /// ("response time by definition").
    pub response_blocks: u64,
    /// Total blocks requested.
    pub total_blocks: u64,
    /// Total cache hits.
    pub cache_hits: u64,
    /// Total records returned.
    pub records: u64,
    /// Total virtual communication time (microseconds).
    pub comm_us: u64,
    /// Total virtual elapsed time (microseconds).
    pub elapsed_us: u64,
    /// Total failover retries across queries.
    pub retries: u64,
    /// Queries whose answers were incomplete (some copy unreachable).
    pub incomplete_queries: u64,
}

impl RunStats {
    /// Communication time in seconds (the paper's unit).
    pub fn comm_seconds(&self) -> f64 {
        self.comm_us as f64 / 1e6
    }

    /// Elapsed time in seconds (the paper's unit).
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed_us as f64 / 1e6
    }

    fn absorb(&mut self, out: &QueryOutcome) {
        self.queries += 1;
        self.response_blocks += out.response_blocks;
        self.total_blocks += out.total_blocks;
        self.cache_hits += out.cache_hits;
        self.records += out.records.len() as u64;
        self.comm_us += out.comm_us;
        self.elapsed_us += out.elapsed_us;
        self.retries += out.retries;
        self.incomplete_queries += out.incomplete as u64;
    }
}

/// Where one bucket's blocks live: a primary copy and, when the engine was
/// built replicated, a secondary copy on a different worker.
#[derive(Clone, Debug)]
struct BucketPlacement {
    /// (worker, block ids) of the primary copy.
    primary: (usize, Vec<u32>),
    /// (worker, block ids) of the chained replica, if any.
    replica: Option<(usize, Vec<u32>)>,
}

impl BucketPlacement {
    /// The copy *other* than the one on `worker` (used for failover).
    fn other_copy(&self, worker: usize) -> Option<&(usize, Vec<u32>)> {
        if self.primary.0 == worker {
            self.replica.as_ref()
        } else {
            Some(&self.primary)
        }
    }
}

/// The coordinator's mutable view of the data: the grid directory plus the
/// bucket → block placement map and each worker's next free block id. All
/// three change together under one write lock when a mutation splits or
/// merges buckets; queries plan under the read lock, so a query planned
/// after [`ParallelGridFile::insert`] returns sees the post-mutation
/// directory (and, because a mutation's block writes are applied before it
/// returns or sent down a slot's channel ahead of later read batches, the
/// post-mutation bytes).
struct Catalog {
    /// The grid file, shared with whoever built the engine from it: the
    /// first mutation after the build copies it if another handle is still
    /// alive (`Arc::make_mut`, under the write lock), so a caller's handle
    /// never sees the engine's writes.
    gf: Arc<GridFile>,
    /// bucket id -> where its copies live.
    placement: HashMap<u32, BucketPlacement>,
    /// Per-worker count of blocks ever written — the next append id. File
    /// stores require appends to be sequential, so freed blocks are left
    /// orphaned rather than reused.
    next_block: Vec<u32>,
    /// Which worker slots currently own data. Data workers start active,
    /// standby slots inactive; [`ParallelGridFile::rebalance`] flips entries
    /// as the cluster grows and shrinks. Incremental placement of freshly
    /// split buckets only considers active slots.
    active: Vec<bool>,
}

/// What a successful [`ParallelGridFile::insert`] / `delete` did, in bucket
/// terms — the engine-level echo of [`MutationEffect`].
#[derive(Clone, Debug, Default)]
pub struct MutationOutcome {
    /// Whether the operation changed anything (a delete of an absent record
    /// applies cleanly but reports `false`).
    pub applied: bool,
    /// Buckets whose blocks were rewritten in place (the target bucket, and
    /// both halves of any split).
    pub rewritten_buckets: Vec<u32>,
    /// Buckets created by splits, now placed and written on their workers.
    pub created_buckets: Vec<u32>,
    /// Buckets freed by merges; their blocks are orphaned on disk.
    pub freed_buckets: Vec<u32>,
}

/// An elastic resize request for [`ParallelGridFile::rebalance`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RebalanceOp {
    /// Activate `k` standby worker slots and spread data onto them.
    AddWorkers(usize),
    /// Drain worker slot `i` and return it to standby. The slot keeps
    /// running and can be re-activated by a later
    /// [`RebalanceOp::AddWorkers`]. Works even when the worker is dead:
    /// pages are re-materialized from the coordinator's directory, not
    /// copied from the source.
    RemoveWorker(usize),
}

/// What a [`ParallelGridFile::rebalance`] did (or, for a dry run, would do).
#[derive(Clone, Debug)]
pub struct RebalanceReport {
    /// Whether the plan was executed (`false` for a dry run).
    pub applied: bool,
    /// Total bucket-copy relocations in the plan.
    pub moves: usize,
    /// Primary-copy relocations.
    pub primary_moves: usize,
    /// Secondary-copy relocations.
    pub replica_moves: usize,
    /// Predicted payload bytes across all moves.
    pub moved_bytes: u64,
    /// Primary buckets a full re-decluster would have moved instead — the
    /// baseline the incremental plan's movement bound is scored against.
    pub full_moves: usize,
    /// Active (data-owning) worker slots after the rebalance.
    pub active_workers: usize,
    /// Proximity objective before the rebalance (lower is better).
    pub current_objective: f64,
    /// Predicted objective after the rebalance.
    pub predicted_objective: f64,
    /// Objective a full re-decluster would have achieved.
    pub baseline_objective: f64,
}

/// One worker's share of a planned query.
#[derive(Debug, Default)]
struct PlannedRead {
    /// Block ids to read on this worker.
    blocks: Vec<u32>,
    /// Bucket ids those blocks belong to (for failover bookkeeping).
    buckets: Vec<u32>,
}

/// One accepted reply, an error reply included, as the cost model
/// replays it.
struct Served {
    slot: usize,
    seq: u64,
    /// See [`Outstanding::in_round`].
    in_round: bool,
    blocks: Vec<u32>,
    records: u64,
    cpu_us: u64,
}

/// One outstanding dispatch of a pending query.
struct Outstanding {
    /// Worker the request went to.
    worker: usize,
    /// Dispatch sequence number — what reply matching keys on. A retransmit
    /// reuses it (the worker dedups); failovers and hedges get fresh ones.
    seq: u64,
    /// Bucket ids served by this request (failover bookkeeping).
    buckets: Vec<u32>,
    /// Block ids of the request (needed to retransmit it verbatim).
    blocks: Vec<u32>,
    /// Timeout polls seen since the last (re)delivery.
    strikes: u32,
    /// Strikes before the next retransmit; doubles per retransmit.
    backoff: u32,
    /// Retransmits already spent (bounded by [`MAX_RETRANSMITS`]).
    retransmits: u32,
    /// When it was first sent: hedging's clock.
    sent: Instant,
    /// Whether hedging has considered it (a hedge never is).
    hedged: bool,
    /// The other request of a hedged pair.
    partner: Option<u64>,
    /// Whether the round's own dispatch carried it, which a worker serves
    /// as one batch with the round's other reads. A failover, hedge or
    /// retransmit is a later message, served as a batch of its own.
    in_round: bool,
}

impl Outstanding {
    fn new(worker: usize, seq: u64, buckets: Vec<u32>, blocks: Vec<u32>) -> Self {
        Outstanding {
            worker,
            seq,
            buckets,
            blocks,
            strikes: 0,
            backoff: 1,
            retransmits: 0,
            sent: Instant::now(),
            hedged: false,
            partner: None,
            in_round: false,
        }
    }
}

/// Coordinator-side state of one in-flight query.
struct PendingQuery {
    /// Position within the admission round (for ordered emission).
    round_pos: usize,
    /// The query rectangle (needed to re-issue failed-over requests).
    rect: Rect,
    /// Touched buckets, sorted.
    buckets: Vec<u32>,
    /// When the query was admitted — the deadline budget's clock.
    started: Instant,
    /// Outstanding requests, matched to replies by dispatch seq.
    awaiting: Vec<Outstanding>,
    /// Buckets already failed over once (one-retry policy).
    retried: HashSet<u32>,
    response_blocks: u64,
    total_blocks: u64,
    /// Messages the cost model charges one latency each: the broadcast,
    /// retransmits, failovers and hedges.
    messages: u64,
    /// Accepted worker answers, one part per reply; assembled once, in
    /// [`PendingQuery::into_outcome`].
    parts: Vec<Part>,
    /// The accepted replies' reads, for a runner's replay.
    served: Vec<Served>,
    retries: u64,
    hedges: u64,
    incomplete: bool,
}

impl PendingQuery {
    fn new(round_pos: usize, rect: Rect, buckets: Vec<u32>) -> Self {
        PendingQuery {
            round_pos,
            rect,
            buckets,
            started: Instant::now(),
            awaiting: Vec::new(),
            retried: HashSet::new(),
            response_blocks: 0,
            total_blocks: 0,
            messages: 0,
            parts: Vec::new(),
            served: Vec::new(),
            retries: 0,
            hedges: 0,
            incomplete: false,
        }
    }

    /// The query's answer, with its virtual `(elapsed_us, comm_us,
    /// cache_hits)` as a runner's replay charged them.
    fn into_outcome(mut self, (elapsed_us, comm_us, cache_hits): (u64, u64, u64)) -> QueryOutcome {
        QueryOutcome {
            records: assemble(&mut self.parts),
            buckets: self.buckets,
            response_blocks: self.response_blocks,
            total_blocks: self.total_blocks,
            cache_hits,
            elapsed_us,
            comm_us,
            retries: self.retries,
            hedges: self.hedges,
            incomplete: self.incomplete,
        }
    }
}

/// A parallel grid file: coordinator-side handle plus its worker slots.
///
/// The handle is `Sync`: share it behind an `Arc` (or plain `&`) and open a
/// [`QuerySession`] per client thread. The legacy one-shot methods
/// ([`ParallelGridFile::query`], [`ParallelGridFile::run_workload`], ...)
/// take `&self` and open a session internally, so pre-redesign call sites —
/// including those holding `&mut` — compile unchanged.
pub struct ParallelGridFile {
    /// Directory + placement + block allocator, mutated together under the
    /// write lock by [`ParallelGridFile::insert`] / `delete`.
    catalog: RwLock<Catalog>,
    /// Write-ahead log for mutations, attached by
    /// [`ParallelGridFile::attach_wal`]. The mutex doubles as the mutation
    /// serialization lock: at most one insert/delete is in flight at a time,
    /// and its WAL record is durable before the catalog changes.
    wal: Mutex<Option<Wal>>,
    /// The grid file's domain, cached so the hot read path never takes the
    /// catalog lock for it (linear scales only refine; the domain is fixed).
    domain: Rect,
    net: NetParams,
    record_bytes: usize,
    /// The SP-2 cost model, charged by the workload runners once per round
    /// and told about every block rewrite. No session or worker takes it.
    cost: Mutex<CostModel>,
    /// One handle per worker slot: every message goes through its `send`,
    /// which bounces once the slot has stopped.
    slots: Vec<SlotHandle>,
    /// Threads the backend started, drained by
    /// [`ParallelGridFile::shutdown`] (behind a mutex so shutdown works
    /// through a shared `&self` — a long-lived server holds the engine in
    /// an `Arc`).
    handles: std::sync::Mutex<Vec<JoinHandle<()>>>,
    /// Set by the first [`ParallelGridFile::shutdown`].
    shut_down: AtomicBool,
    next_query_id: AtomicU64,
    /// Engine-global dispatch sequence numbers (see
    /// [`crate::message::ReadRequest::seq`]).
    next_seq: AtomicU64,
    shared: Arc<SharedStats>,
    fail_timeout_ms: u64,
    max_timeout_strikes: u32,
    deadline_us: Option<u64>,
    replicated: bool,
    #[cfg(feature = "obs")]
    hedge_threshold: Option<f64>,
    /// Wall-clock reply latencies of accepted requests across all queries —
    /// the recent-latency baseline hedging compares against.
    #[cfg(feature = "obs")]
    service_hist: pargrid_obs::AtomicHistogram,
    #[cfg(feature = "obs")]
    recorder: Option<Arc<Recorder>>,
}

impl ParallelGridFile {
    /// Distributes the grid file's buckets over `assignment.n_disks()`
    /// workers and starts the worker slots.
    ///
    /// Each bucket becomes one 8 KB-class block on its worker; oversize
    /// buckets (inseparable duplicates) spill into additional consecutive
    /// blocks. Block ids are consecutive per worker in bucket order, so
    /// spatially-clustered buckets benefit from the sequential-read rate.
    pub fn build(gf: Arc<GridFile>, assignment: &Assignment, config: EngineConfig) -> Self {
        Self::build_inner(gf, assignment, None, config)
    }

    /// Like [`ParallelGridFile::build`], but with a chained-declustered
    /// replica of every bucket on a second worker (see
    /// [`ReplicatedAssignment`]). Replica blocks are appended after all
    /// primary blocks of a worker, so a healthy run's primary reads keep
    /// their sequential layout.
    pub fn build_replicated(
        gf: Arc<GridFile>,
        assignment: &ReplicatedAssignment,
        config: EngineConfig,
    ) -> Self {
        Self::build_inner(gf, assignment.primary(), Some(assignment), config)
    }

    fn build_inner(
        gf: Arc<GridFile>,
        assignment: &Assignment,
        replica: Option<&ReplicatedAssignment>,
        config: EngineConfig,
    ) -> Self {
        let n_data = assignment.n_disks();
        assert!(n_data >= 1, "need at least one worker");
        // Standby slots are full workers (slot, store, cache, counters)
        // that simply own no buckets until a rebalance activates them.
        let n_workers = n_data + config.standby_workers;
        let dim = gf.dim();
        let payload = gf.config().payload_bytes;
        let page_bytes = gf.config().page_bytes;
        let capacity = gf.bucket_capacity();

        let block_bytes = pargrid_gridfile::page::HEADER_BYTES + page_bytes;
        let mut workers: Vec<WorkerState> = (0..n_workers)
            .map(|w| {
                let store = match &config.spill_dir {
                    None => crate::store::BlockStore::memory(),
                    Some(dir) => crate::store::BlockStore::file(
                        dir.join(format!("worker-{w}.blocks")),
                        block_bytes,
                    )
                    .expect("cannot create worker block file"),
                };
                WorkerState::with_store(w, payload, store)
                    .with_faults(config.resilience.faults.for_worker(w))
            })
            .collect();
        let mut next_block = vec![0u32; n_workers];
        let mut placement: HashMap<u32, BucketPlacement> = HashMap::new();

        // Each worker's pages are encoded back to back into one reused run
        // buffer, appended to its store one full run (one write) at a time.
        let run_bytes = SPILL_RUN_BLOCKS * block_bytes;
        let mut runs: Vec<Vec<u8>> = (0..n_workers)
            .map(|_| Vec::with_capacity(run_bytes))
            .collect();
        let flush = |state: &mut WorkerState, next: u32, run: &mut Vec<u8>| {
            if !run.is_empty() {
                let count = run.len() / block_bytes;
                state
                    .store
                    .append_run(next - count as u32, count, run)
                    .expect("cannot write blocks");
                run.clear();
            }
        };
        let mut write_bucket = |workers: &mut Vec<WorkerState>, w: usize, records: &[Record]| {
            let cap = capacity.max(1);
            let mut blocks = Vec::with_capacity(records.len().div_ceil(cap).max(1));
            let mut chunks = records.chunks(cap);
            loop {
                // An empty bucket still occupies one (empty) block on disk.
                let chunk = chunks.next().unwrap_or(&[]);
                encode_page_into(chunk, dim, payload, page_bytes, &mut runs[w]);
                blocks.push(next_block[w]);
                next_block[w] += 1;
                if runs[w].len() == run_bytes {
                    flush(&mut workers[w], next_block[w], &mut runs[w]);
                }
                if chunks.len() == 0 {
                    return blocks;
                }
            }
        };

        for (id, _region, _len) in gf.live_buckets() {
            let w = assignment.disk_of_id(id) as usize;
            let blocks = write_bucket(&mut workers, w, gf.bucket_records(id));
            placement.insert(
                id,
                BucketPlacement {
                    primary: (w, blocks),
                    replica: None,
                },
            );
        }
        // Second pass for the replicas so they land *after* every primary
        // block of their worker.
        if let Some(ra) = replica {
            for (id, _region, _len) in gf.live_buckets() {
                let w = ra.secondary_of_id(id) as usize;
                let blocks = write_bucket(&mut workers, w, gf.bucket_records(id));
                placement
                    .get_mut(&id)
                    .expect("replica of unknown bucket")
                    .replica = Some((w, blocks));
            }
        }
        for ((state, &next), run) in workers.iter_mut().zip(&next_block).zip(&mut runs) {
            flush(state, next, run);
        }

        let shared = Arc::new(SharedStats::new(n_workers));
        let backend: Arc<dyn crate::backend::WorkerBackend> = config
            .backend
            .clone()
            .unwrap_or_else(|| Arc::new(crate::backend::InProcessBackend));
        let (slots, handles) = backend.spawn(
            workers
                .into_iter()
                .zip(shared.workers.iter().map(Arc::clone))
                .collect(),
        );
        assert_eq!(slots.len(), n_workers, "one handle per worker slot");

        let record_bytes = gf.config().record_bytes();
        let domain = gf.config().domain;
        ParallelGridFile {
            record_bytes,
            catalog: RwLock::new(Catalog {
                gf,
                placement,
                next_block,
                active: (0..n_workers).map(|w| w < n_data).collect(),
            }),
            wal: Mutex::new(None),
            domain,
            net: config.net,
            cost: Mutex::new(CostModel::new(
                n_workers,
                config.disks_per_worker,
                config.disk,
            )),
            slots,
            handles: std::sync::Mutex::new(handles),
            shut_down: AtomicBool::new(false),
            next_query_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            shared,
            fail_timeout_ms: config.resilience.fail_timeout_ms,
            max_timeout_strikes: config.resilience.max_timeout_strikes.max(1),
            deadline_us: config.latency.deadline_us,
            replicated: replica.is_some(),
            #[cfg(feature = "obs")]
            hedge_threshold: config.latency.hedge_threshold,
            #[cfg(feature = "obs")]
            service_hist: pargrid_obs::AtomicHistogram::new(),
            #[cfg(feature = "obs")]
            recorder: config.obs.recorder,
        }
    }

    /// Number of worker slots (active data workers plus standbys).
    pub fn n_workers(&self) -> usize {
        self.slots.len()
    }

    /// Number of worker slots currently owning data. Starts at the build
    /// assignment's disk count and changes only through
    /// [`ParallelGridFile::rebalance`].
    pub fn active_workers(&self) -> usize {
        self.catalog
            .read()
            .expect("engine catalog lock")
            .active
            .iter()
            .filter(|&&a| a)
            .count()
    }

    /// Per-slot primary bucket counts (length [`ParallelGridFile::n_workers`];
    /// standby and drained slots report 0) — the ownership map rebalance
    /// progress is observed through.
    pub fn worker_buckets(&self) -> Vec<usize> {
        let cat = self.catalog.read().expect("engine catalog lock");
        let mut counts = vec![0usize; self.slots.len()];
        for pl in cat.placement.values() {
            counts[pl.primary.0] += 1;
        }
        counts
    }

    /// The data domain the engine's grid file covers. Fixed for the
    /// engine's lifetime — a network front end uses it to translate
    /// partial-match keys into query rectangles without taking the
    /// catalog lock.
    pub fn domain(&self) -> &Rect {
        &self.domain
    }

    /// A point-in-time clone of the coordinator's grid directory (for
    /// checkpointing and inspection). Mutations running after the snapshot
    /// is taken are not reflected in it.
    pub fn snapshot_grid(&self) -> GridFile {
        GridFile::clone(&self.catalog.read().expect("engine catalog lock").gf)
    }

    /// Total live records in the directory.
    pub fn len(&self) -> u64 {
        self.catalog.read().expect("engine catalog lock").gf.len()
    }

    /// Whether the directory holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Explicit SIGTERM-style shutdown: sends every slot its poison pill
    /// and joins the backend's threads, returning how many slots it stopped
    /// — in-process slots stopped plus threads joined. After it returns,
    /// **no worker thread outlives the engine handle** — a long-lived
    /// server calls this from its own shutdown path instead of relying on
    /// `Drop` (which an `Arc`-held engine may reach only at process exit).
    /// Idempotent: later calls (and the eventual `Drop`) find nothing left
    /// to stop and return 0. In-flight queries on other sessions see their
    /// workers disappear and resolve incomplete rather than hanging.
    pub fn shutdown(&self) -> usize {
        self.shut_down.store(true, Ordering::Release);
        let stopped = self
            .slots
            .iter()
            .filter(|slot| slot.send(ToWorker::Shutdown).is_ok() && slot.is_local())
            .count();
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.handles.lock().expect("engine handle mutex");
            guard.drain(..).collect()
        };
        let joined = handles.len();
        for h in handles {
            let _ = h.join();
        }
        stopped + joined
    }

    /// Whether [`ParallelGridFile::shutdown`] has been called.
    pub fn is_shut_down(&self) -> bool {
        self.shut_down.load(Ordering::Acquire)
    }

    /// Whether every bucket has a replica ([`ParallelGridFile::build_replicated`]).
    pub fn is_replicated(&self) -> bool {
        self.replicated
    }

    /// Snapshot of the engine's lifetime counters (queries issued, per-worker
    /// blocks/cache/busy-time/liveness, failover retries). Exact once no
    /// query is in flight.
    pub fn stats(&self) -> EngineStats {
        self.shared.snapshot()
    }

    /// Number of workers not known dead, read off the liveness flags alone
    /// — what a per-query caller wants instead of a whole
    /// [`ParallelGridFile::stats`] snapshot.
    pub fn live_workers(&self) -> usize {
        (0..self.shared.workers.len())
            .filter(|&w| self.shared.is_alive(w))
            .count()
    }

    /// The installed trace recorder, if any.
    #[cfg(feature = "obs")]
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Records a coordinator-track instant stamped with the current virtual
    /// clock. A no-op when no recorder is installed.
    #[cfg(feature = "obs")]
    fn trace_instant(&self, kind: SpanKind, query_id: u64, worker: u32, detail: u64) {
        if let Some(rec) = &self.recorder {
            rec.record(Event {
                ts_us: rec.now(),
                dur_us: 0,
                query_id,
                kind,
                worker,
                disk: NO_ID,
                detail,
            });
        }
    }

    /// Records a finished query: its Reply span on the coordinator track
    /// plus the latency/communication/response-size histograms.
    #[cfg(feature = "obs")]
    fn trace_reply(&self, query_id: u64, start_us: u64, out: &QueryOutcome) {
        if let Some(rec) = &self.recorder {
            rec.record(Event {
                ts_us: start_us,
                dur_us: out.elapsed_us,
                query_id,
                kind: SpanKind::Reply,
                worker: NO_ID,
                disk: NO_ID,
                detail: out.response_blocks,
            });
            rec.query_us.record(out.elapsed_us);
            rec.comm_us.record(out.comm_us);
            rec.response_blocks.record(out.response_blocks);
        }
    }

    /// Opens a client session: an independent stream of queries against the
    /// shared engine. Sessions are cheap (one channel); open one per thread.
    pub fn session(&self) -> QuerySession<'_> {
        let (reply_tx, reply_rx) = unbounded();
        QuerySession {
            engine: self,
            reply_tx,
            reply_rx,
            stats: RunStats::default(),
        }
    }

    /// Translates a query into its touched buckets (sorted), per-worker
    /// reads against **live** workers (dead primaries fall over to their
    /// replicas at planning time), and whether some bucket has no live copy
    /// at all. The reads iterate in ascending worker order, so a query's
    /// dispatch order (and the seqs it hands out) repeats from run to run.
    fn plan(&self, rect: &Rect) -> (Vec<u32>, BTreeMap<usize, PlannedRead>, bool) {
        let cat = self.catalog.read().expect("engine catalog lock");
        let mut buckets = cat.gf.range_query_buckets(rect);
        buckets.sort_unstable();
        let mut per_worker: BTreeMap<usize, PlannedRead> = BTreeMap::new();
        let mut incomplete = false;
        for &b in &buckets {
            let pl = &cat.placement[&b];
            let copy = if self.shared.is_alive(pl.primary.0) {
                Some(&pl.primary)
            } else {
                match &pl.replica {
                    Some(rep) if self.shared.is_alive(rep.0) => {
                        self.shared
                            .failed_over_blocks
                            .fetch_add(rep.1.len() as u64, Ordering::Relaxed);
                        Some(rep)
                    }
                    _ => None,
                }
            };
            match copy {
                Some((w, blocks)) => {
                    let entry = per_worker.entry(*w).or_default();
                    entry.blocks.extend_from_slice(blocks);
                    entry.buckets.push(b);
                }
                None => incomplete = true,
            }
        }
        (buckets, per_worker, incomplete)
    }

    /// Retries `buckets` (stranded on or erroring from `from_worker`)
    /// against their other copy, once each. Buckets already retried, or
    /// whose other copy is missing or dead, mark the query incomplete.
    fn fail_over(
        &self,
        query_id: u64,
        p: &mut PendingQuery,
        from_worker: usize,
        buckets: &[u32],
        reply_tx: &Sender<FromWorker>,
    ) {
        #[cfg(feature = "obs")]
        self.trace_instant(
            SpanKind::Failover,
            query_id,
            from_worker as u32,
            buckets.len() as u64,
        );
        // worker -> (blocks, buckets) of the retry request. Collected under
        // the catalog read lock, which is dropped before any channel I/O
        // (the dead-transport branch below recurses back into this method).
        // Ordered by worker, like `plan`, so retry seqs repeat too.
        let mut regroup: BTreeMap<usize, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
        {
            let cat = self.catalog.read().expect("engine catalog lock");
            for &b in buckets {
                if !p.retried.insert(b) {
                    p.incomplete = true;
                    continue;
                }
                match cat.placement[&b].other_copy(from_worker) {
                    Some((w, blocks)) if self.shared.is_alive(*w) => {
                        let entry = regroup.entry(*w).or_default();
                        entry.0.extend_from_slice(blocks);
                        entry.1.push(b);
                        self.shared
                            .failed_over_blocks
                            .fetch_add(blocks.len() as u64, Ordering::Relaxed);
                    }
                    _ => p.incomplete = true,
                }
            }
        }
        for (w, (blocks, bkts)) in regroup {
            // The retry costs another dispatch message.
            p.messages += 1;
            p.retries += 1;
            self.shared.retries.fetch_add(1, Ordering::Relaxed);
            #[cfg(feature = "obs")]
            self.trace_instant(SpanKind::Retry, query_id, w as u32, bkts.len() as u64);
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            let request = ReadRequest {
                worker: w,
                query_id,
                seq,
                blocks: blocks.clone(),
                query: p.rect,
                reply: reply_tx.clone(),
            };
            match self.slots[w].send(ToWorker::Process(vec![request])) {
                Ok(()) => p.awaiting.push(Outstanding::new(w, seq, bkts, blocks)),
                Err(SendError(_)) => {
                    // The replica died too (transport gone). Its buckets are
                    // in `retried` now, so this recursion terminates by
                    // marking them incomplete.
                    self.shared.workers[w].dead.store(true, Ordering::Relaxed);
                    self.fail_over(query_id, p, w, &bkts, reply_tx);
                }
            }
        }
    }

    /// Admits one query: hands out its id, plans it, and turns the plan
    /// into one [`ReadRequest`] per involved worker, each already awaited
    /// by the returned [`PendingQuery`]. The caller sends the requests (one
    /// message each, or batched per worker) and hands any bounced message to
    /// [`ParallelGridFile::fail_over_bounced`].
    fn admit(
        &self,
        rect: &Rect,
        round_pos: usize,
        reply_tx: &Sender<FromWorker>,
    ) -> (u64, PendingQuery, Vec<(usize, ReadRequest)>) {
        let query_id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "obs")]
        self.trace_instant(SpanKind::Admit, query_id, NO_ID, round_pos as u64);
        let (buckets, plan, incomplete) = self.plan(rect);
        #[cfg(feature = "obs")]
        self.trace_instant(SpanKind::Plan, query_id, NO_ID, buckets.len() as u64);
        let mut p = PendingQuery::new(round_pos, *rect, buckets);
        p.incomplete = incomplete;
        let mut requests = Vec::with_capacity(plan.len());
        for (w, read) in plan {
            p.response_blocks = p.response_blocks.max(read.blocks.len() as u64);
            let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
            requests.push((
                w,
                ReadRequest {
                    worker: w,
                    query_id,
                    seq,
                    blocks: read.blocks.clone(),
                    query: *rect,
                    reply: reply_tx.clone(),
                },
            ));
            let mut o = Outstanding::new(w, seq, read.buckets, read.blocks);
            o.in_round = true;
            p.awaiting.push(o);
        }
        if !requests.is_empty() {
            // One broadcast message for the dispatch.
            p.messages += 1;
        }
        (query_id, p, requests)
    }

    /// A dispatch bounced off `worker`'s slot (it has stopped, or its loop
    /// has exited): marks the worker dead and fails every request the
    /// message carried over to its other copy.
    fn fail_over_bounced(
        &self,
        worker: usize,
        msg: ToWorker,
        pending: &mut HashMap<u64, PendingQuery>,
        reply_tx: &Sender<FromWorker>,
    ) {
        self.shared.workers[worker]
            .dead
            .store(true, Ordering::Relaxed);
        let ToWorker::Process(reqs) = msg else {
            return;
        };
        for req in reqs {
            let Some(p) = pending.get_mut(&req.query_id) else {
                continue;
            };
            let Some(pos) = p.awaiting.iter().position(|o| o.seq == req.seq) else {
                continue;
            };
            let o = p.awaiting.remove(pos);
            self.fail_over(req.query_id, p, worker, &o.buckets, reply_tx);
        }
    }

    /// The single live worker holding the other copy of *every* given
    /// bucket, with the concatenated block list — the hedge target. Chained
    /// declustering's least-loaded fallback means a request's buckets need
    /// not all share one replica worker; hedging fires only when they do,
    /// so a hedge is always one message to one machine.
    fn hedge_target(&self, buckets: &[u32], from_worker: usize) -> Option<(usize, Vec<u32>)> {
        let cat = self.catalog.read().expect("engine catalog lock");
        let mut target: Option<(usize, Vec<u32>)> = None;
        for &b in buckets {
            let (w, blocks) = cat.placement.get(&b)?.other_copy(from_worker)?;
            if !self.shared.is_alive(*w) {
                return None;
            }
            match target.as_mut() {
                None => target = Some((*w, blocks.clone())),
                Some((tw, tb)) => {
                    if tw != w {
                        return None;
                    }
                    tb.extend_from_slice(blocks);
                }
            }
        }
        target
    }

    /// Scrubs checksum-failed blocks on `worker` back to health: fetches
    /// the affected buckets' bytes from their other copy (both copies chunk
    /// a bucket's records identically, so their block lists align
    /// positionally) and overwrites the corrupt blocks in place. Skipped
    /// silently when no live other copy exists; the corruption then
    /// simply resurfaces on the next read of the block.
    fn repair_blocks(&self, query_id: u64, worker: usize, corrupt: &[u32], buckets: &[u32]) {
        let _ = query_id;
        let corrupt_set: HashSet<u32> = corrupt.iter().copied().collect();
        // source worker -> (source blocks to fetch, corrupt blocks to fix).
        // Collected under the catalog read lock, dropped before the blocking
        // fetch round-trips below.
        let mut per_source: HashMap<usize, (Vec<u32>, Vec<u32>)> = HashMap::new();
        let cat = self.catalog.read().expect("engine catalog lock");
        for &b in buckets {
            let Some(pl) = cat.placement.get(&b) else {
                continue;
            };
            let (dest_blocks, source) = if pl.primary.0 == worker {
                match &pl.replica {
                    Some(rep) => (&pl.primary.1, rep),
                    None => continue,
                }
            } else {
                match &pl.replica {
                    Some(rep) if rep.0 == worker => (&rep.1, &pl.primary),
                    _ => continue,
                }
            };
            if !self.shared.is_alive(source.0) {
                continue;
            }
            for (i, &db) in dest_blocks.iter().enumerate() {
                if corrupt_set.contains(&db) {
                    if let Some(&sb) = source.1.get(i) {
                        let entry = per_source.entry(source.0).or_default();
                        entry.0.push(sb);
                        entry.1.push(db);
                    }
                }
            }
        }
        drop(cat);
        let mut repaired = 0u64;
        for (src, (fetch, fix)) in per_source {
            let (raw_tx, raw_rx) = unbounded();
            if self.slots[src]
                .send(ToWorker::FetchRaw {
                    worker: src,
                    blocks: fetch,
                    reply: raw_tx,
                })
                .is_err()
            {
                continue;
            }
            let timeout = Duration::from_millis(self.fail_timeout_ms.max(1).saturating_mul(8));
            let Ok(raw) = raw_rx.recv_timeout(timeout) else {
                continue;
            };
            let writes: Vec<(u32, Vec<u8>)> = raw
                .blocks
                .into_iter()
                .zip(fix)
                .filter_map(|((_src_block, bytes), dest)| bytes.map(|by| (dest, by)))
                .collect();
            if writes.is_empty() {
                continue;
            }
            let n = writes.len() as u64;
            if self.write_blocks(worker, writes) {
                repaired += n;
            }
        }
        if repaired > 0 {
            self.shared.scrubbed.fetch_add(repaired, Ordering::Relaxed);
            #[cfg(feature = "obs")]
            self.trace_instant(SpanKind::Scrub, query_id, worker as u32, repaired);
        }
    }

    /// Attaches a write-ahead log: every later [`ParallelGridFile::insert`]
    /// / [`ParallelGridFile::delete`] is durable in it *before* the
    /// directory or any block changes, and
    /// [`ParallelGridFile::checkpoint`] folds it into a checkpoint image.
    /// Without one, mutations are in-memory only (tests, benchmarks).
    pub fn attach_wal(&self, wal: Wal) {
        *self.wal.lock().expect("engine wal lock") = Some(wal);
    }

    /// Bytes currently in the attached WAL (0 when none is attached).
    pub fn wal_len_bytes(&self) -> u64 {
        self.wal
            .lock()
            .expect("engine wal lock")
            .as_ref()
            .map_or(0, |w| w.len_bytes())
    }

    /// Inserts a record, logging it to the attached WAL first, then
    /// applying any bucket splits (with incremental declustered placement
    /// of fresh buckets) and rewriting the affected blocks on the workers.
    ///
    /// Consistency: a query *planned after this returns* sees the insert —
    /// each block write is applied on this thread to an in-process slot
    /// before this returns, or sent down a slot's channel ahead of any
    /// later read. Queries already in flight may see either side, per
    /// block.
    pub fn insert(&self, record: Record) -> Result<MutationOutcome, EngineError> {
        self.mutate(WalOp::Insert(record))
    }

    /// Deletes the record with `id` at `point` (both must match), logging
    /// to the WAL first and applying any buddy merges. Deleting an absent
    /// record succeeds with `applied == false`.
    pub fn delete(&self, id: u64, point: &Point) -> Result<MutationOutcome, EngineError> {
        self.mutate(WalOp::Delete { id, point: *point })
    }

    fn mutate(&self, op: WalOp) -> Result<MutationOutcome, EngineError> {
        // The WAL mutex serializes mutations (held across log + apply) even
        // when no WAL is attached.
        let mut wal = self.wal.lock().expect("engine wal lock");
        if self.is_shut_down() {
            return Err(EngineError::SessionClosed);
        }
        if let Some(w) = wal.as_mut() {
            w.append(&op)
                .and_then(|()| w.sync())
                .map_err(EngineError::Wal)?;
        }
        let mut cat = self.catalog.write().expect("engine catalog lock");
        let (applied, effect) = match &op {
            WalOp::Insert(rec) => (true, Arc::make_mut(&mut cat.gf).insert_tracked(*rec)),
            WalOp::Delete { id, point } => Arc::make_mut(&mut cat.gf).delete_tracked(*id, point),
        };
        let outcome = self.apply_effect(&mut cat, &effect);
        Ok(MutationOutcome { applied, ..outcome })
    }

    /// Pushes a mutation's bucket-level effect out to the workers: freed
    /// buckets drop their placement, rewritten buckets have every copy's
    /// blocks rewritten in place (growing or shrinking the block list as
    /// the record count demands), and created buckets are declustered
    /// incrementally and written fresh.
    fn apply_effect(&self, cat: &mut Catalog, effect: &MutationEffect) -> MutationOutcome {
        let n_workers = self.slots.len();
        // Per-worker batched writes, flushed as one write per worker.
        let mut writes: Vec<Vec<(u32, Vec<u8>)>> = vec![Vec::new(); n_workers];

        for &b in &effect.freed {
            // Orphan the blocks: file stores are append-only, so freed
            // block ids are simply never read again.
            cat.placement.remove(&b);
        }

        for &b in &effect.rewritten {
            let pages = self.encode_bucket(&cat.gf, b);
            let pl = cat.placement.get_mut(&b).expect("rewritten unknown bucket");
            Self::rewrite_copy(&mut pl.primary, &pages, &mut cat.next_block, &mut writes);
            if let Some(rep) = pl.replica.as_mut() {
                Self::rewrite_copy(rep, &pages, &mut cat.next_block, &mut writes);
            }
        }

        // Incremental placement speaks *dense* disk indices over the active
        // slots only — standby and drained slots must not receive fresh
        // buckets, and `place_fresh_bucket`'s balance cap is over the active
        // count, not the spawned slot count.
        let active_slots: Vec<usize> = (0..n_workers).filter(|&w| cat.active[w]).collect();
        let mut dense_of = vec![usize::MAX; n_workers];
        for (k, &w) in active_slots.iter().enumerate() {
            dense_of[w] = k;
        }
        for &b in &effect.created {
            let pages = self.encode_bucket(&cat.gf, b);
            // Residents: every already-placed bucket's rect and primary
            // disk — the incremental counterpart of a full declustering run.
            let residents: Vec<(Rect, u32)> = cat
                .placement
                .iter()
                .map(|(&id, pl)| (cat.gf.bucket_rect(id), dense_of[pl.primary.0] as u32))
                .collect();
            let fresh = cat.gf.bucket_rect(b);
            let pw = active_slots
                [place_fresh_bucket(&self.domain, &residents, &fresh, active_slots.len()) as usize];
            let mut blocks = Vec::with_capacity(pages.len());
            for page in &pages {
                blocks.push(Self::append_block(
                    pw,
                    page.clone(),
                    &mut cat.next_block,
                    &mut writes,
                ));
            }
            let replica = if self.replicated && active_slots.len() >= 2 {
                // Chained-replica load: copies of every kind already on
                // each disk, plus the fresh primary just decided.
                let mut load = vec![0usize; active_slots.len()];
                for pl in cat.placement.values() {
                    load[dense_of[pl.primary.0]] += 1;
                    if let Some((rw, _)) = &pl.replica {
                        load[dense_of[*rw]] += 1;
                    }
                }
                load[dense_of[pw]] += 1;
                let rw = active_slots[place_fresh_replica(dense_of[pw] as u32, &load) as usize];
                let mut rblocks = Vec::with_capacity(pages.len());
                for page in pages {
                    rblocks.push(Self::append_block(
                        rw,
                        page,
                        &mut cat.next_block,
                        &mut writes,
                    ));
                }
                Some((rw, rblocks))
            } else {
                None
            };
            cat.placement.insert(
                b,
                BucketPlacement {
                    primary: (pw, blocks),
                    replica,
                },
            );
        }

        for (w, blocks) in writes.into_iter().enumerate() {
            // A dead worker's reads fail over to the other copy (which did
            // get its write).
            if !blocks.is_empty() {
                self.write_blocks(w, blocks);
            }
        }

        MutationOutcome {
            applied: true,
            rewritten_buckets: effect.rewritten.clone(),
            created_buckets: effect.created.clone(),
            freed_buckets: effect.freed.clone(),
        }
    }

    /// Sends `blocks` to worker `w` as one write and invalidates them in the
    /// cost model's cache, so a rewritten block is charged as a miss. A
    /// bounced write marks the worker dead. Returns whether it was sent.
    fn write_blocks(&self, w: usize, blocks: Vec<(u32, Vec<u8>)>) -> bool {
        let ids: Vec<u32> = blocks.iter().map(|&(b, _)| b).collect();
        if self.slots[w]
            .send(ToWorker::WriteRaw { worker: w, blocks })
            .is_err()
        {
            self.shared.workers[w].dead.store(true, Ordering::Relaxed);
            return false;
        }
        let mut cost = self.cost.lock().expect("engine cost model lock");
        for b in ids {
            cost.invalidate(w, b);
        }
        true
    }

    /// Encodes bucket `b`'s records into page images, one per block. An
    /// empty bucket still occupies one (empty) block, mirroring
    /// `build_inner`'s layout so both copies stay positionally aligned.
    fn encode_bucket(&self, gf: &GridFile, b: u32) -> Vec<Vec<u8>> {
        let cap = gf.bucket_capacity().max(1);
        let dim = gf.dim();
        let payload = gf.config().payload_bytes;
        let page_bytes = gf.config().page_bytes;
        let records = gf.bucket_records(b);
        let mut pages = Vec::with_capacity(records.len().div_ceil(cap).max(1));
        let mut chunks = records.chunks(cap);
        loop {
            let chunk = chunks.next().unwrap_or(&[]);
            pages.push(encode_page(chunk, dim, payload, page_bytes));
            if chunks.len() == 0 {
                return pages;
            }
        }
    }

    /// Rewrites one copy's block list to hold `pages`: overwrites the
    /// shared prefix in place, appends fresh blocks for growth, and
    /// truncates the list on shrink (orphaning the tail blocks). Both
    /// copies of a bucket shrink and grow identically, preserving the
    /// positional block alignment scrub repair relies on.
    fn rewrite_copy(
        copy: &mut (usize, Vec<u32>),
        pages: &[Vec<u8>],
        next_block: &mut [u32],
        writes: &mut [Vec<(u32, Vec<u8>)>],
    ) {
        let (w, blocks) = (copy.0, &mut copy.1);
        for (i, page) in pages.iter().enumerate() {
            if i < blocks.len() {
                writes[w].push((blocks[i], page.clone()));
            } else {
                let b = next_block[w];
                next_block[w] += 1;
                writes[w].push((b, page.clone()));
                blocks.push(b);
            }
        }
        blocks.truncate(pages.len());
    }

    /// Allocates the next block id on worker `w` and queues its write.
    fn append_block(
        w: usize,
        page: Vec<u8>,
        next_block: &mut [u32],
        writes: &mut [Vec<(u32, Vec<u8>)>],
    ) -> u32 {
        let b = next_block[w];
        next_block[w] += 1;
        writes[w].push((b, page));
        b
    }

    /// Folds the attached WAL into a fresh checkpoint image: saves the
    /// current directory next to the WAL (durably: [`GridFile::save`]
    /// syncs a temp file, renames it and syncs the directory), then resets
    /// the WAL. Recovery after this point loads the
    /// image and replays an empty log. Returns `Ok(false)` when no WAL is
    /// attached (nothing to checkpoint). Mutations are blocked for the
    /// duration; queries keep flowing.
    pub fn checkpoint(&self) -> Result<bool, EngineError> {
        let mut wal = self.wal.lock().expect("engine wal lock");
        let Some(w) = wal.as_mut() else {
            return Ok(false);
        };
        let dir = w
            .path()
            .parent()
            .map(std::path::Path::to_path_buf)
            .unwrap_or_default();
        // A handle, not a copy: the WAL lock held here blocks every
        // mutation until the image is saved and the handle dropped.
        let image = Arc::clone(&self.catalog.read().expect("engine catalog lock").gf);
        image
            .save(dir.join(CHECKPOINT_FILE))
            .map_err(EngineError::Checkpoint)?;
        w.reset().map_err(EngineError::Wal)?;
        Ok(true)
    }

    /// Elastically resizes the cluster: computes an incremental minimax
    /// repair plan ([`pargrid_rebalance::plan_rebalance`]) for the requested
    /// [`RebalanceOp`] and — unless `dry_run` — migrates bucket copies to
    /// their new slots.
    ///
    /// Runs under the mutation serializer (the WAL mutex), so inserts and
    /// deletes wait while a rebalance is in flight; **queries keep flowing
    /// throughout**. Each move re-encodes the bucket's pages from the
    /// coordinator's directory, appends them as fresh blocks on the target
    /// worker, and flips catalog ownership under one short write-lock
    /// section, with the block write issued *inside* that section — the
    /// same ordering [`ParallelGridFile::insert`] relies on, so a query
    /// planned after the flip finds the target's bytes already applied (or
    /// sent down the slot's channel ahead of its read), while in-flight
    /// queries planned before it keep reading the source's orphaned blocks.
    /// No reply is ever incorrect or incomplete during migration.
    ///
    /// # Errors
    /// [`EngineError::Rebalance`] when the request is invalid (no standby
    /// capacity left, unknown or inactive worker, or removal would leave a
    /// replicated engine with fewer than two active workers); the layout is
    /// untouched. [`EngineError::SessionClosed`] after shutdown.
    pub fn rebalance(
        &self,
        op: RebalanceOp,
        dry_run: bool,
    ) -> Result<RebalanceReport, EngineError> {
        let _serializer = self.wal.lock().expect("engine wal lock");
        if self.is_shut_down() {
            return Err(EngineError::SessionClosed);
        }
        let n_slots = self.slots.len();
        // Snapshot the declustering problem under the read lock; the WAL
        // mutex guarantees no mutation changes it until we are done.
        let (input, primary, secondary, mut target) = {
            let cat = self.catalog.read().expect("engine catalog lock");
            let input = DeclusterInput::from_grid_file(&cat.gf);
            let mut primary = Vec::with_capacity(input.n_buckets());
            let mut secondary = self
                .replicated
                .then(|| Vec::with_capacity(input.n_buckets()));
            for b in &input.buckets {
                let pl = &cat.placement[&b.id];
                primary.push(pl.primary.0 as u32);
                if let Some(sec) = secondary.as_mut() {
                    sec.push(pl.replica.as_ref().expect("replicated engine").0 as u32);
                }
            }
            (input, primary, secondary, cat.active.clone())
        };
        match op {
            RebalanceOp::AddWorkers(k) => {
                if k == 0 {
                    return Err(EngineError::Rebalance(
                        "must add at least one worker".into(),
                    ));
                }
                let mut added = 0;
                for (d, slot) in target.iter_mut().enumerate() {
                    if added < k && !*slot && self.shared.is_alive(d) {
                        *slot = true;
                        added += 1;
                    }
                }
                if added < k {
                    return Err(EngineError::Rebalance(format!(
                        "only {added} live standby workers available, need {k} \
                         (build with EngineConfig::with_standby_workers)"
                    )));
                }
            }
            RebalanceOp::RemoveWorker(i) => {
                if i >= n_slots || !target[i] {
                    return Err(EngineError::Rebalance(format!(
                        "worker {i} is not an active data worker"
                    )));
                }
                target[i] = false;
                let left = target.iter().filter(|&&a| a).count();
                if left == 0 || (self.replicated && left < 2) {
                    return Err(EngineError::Rebalance(format!(
                        "removing worker {i} would leave {left} active workers"
                    )));
                }
            }
        }
        let plan = plan_rebalance(
            &input,
            &primary,
            secondary.as_deref(),
            &target,
            &RepairConfig {
                record_bytes: self.record_bytes,
                ..RepairConfig::default()
            },
        );
        let report = RebalanceReport {
            applied: !dry_run,
            moves: plan.moves.len(),
            primary_moves: plan.primary_moves,
            replica_moves: plan.replica_moves,
            moved_bytes: plan.moved_bytes,
            full_moves: plan.full_moves,
            active_workers: target.iter().filter(|&&a| a).count(),
            current_objective: plan.current_objective,
            predicted_objective: plan.predicted_objective,
            baseline_objective: plan.baseline_objective,
        };
        if dry_run {
            return Ok(report);
        }
        for mv in &plan.moves {
            let mut cat = self.catalog.write().expect("engine catalog lock");
            // The WAL mutex means nothing else relocated this bucket, but a
            // stale or vanished copy is skipped, never clobbered.
            let on_from = cat
                .placement
                .get(&mv.bucket)
                .is_some_and(|pl| match mv.copy {
                    CopyKind::Primary => pl.primary.0 == mv.from as usize,
                    CopyKind::Replica => {
                        pl.replica.as_ref().is_some_and(|r| r.0 == mv.from as usize)
                    }
                });
            if !on_from {
                continue;
            }
            let pages = self.encode_bucket(&cat.gf, mv.bucket);
            let to = mv.to as usize;
            let mut blocks = Vec::with_capacity(pages.len());
            let mut writes = Vec::with_capacity(pages.len());
            let mut page_bytes = 0u64;
            for page in pages {
                let block = cat.next_block[to];
                cat.next_block[to] += 1;
                page_bytes += page.len() as u64;
                writes.push((block, page));
                blocks.push(block);
            }
            let pl = cat.placement.get_mut(&mv.bucket).expect("checked above");
            match mv.copy {
                CopyKind::Primary => pl.primary = (to, blocks),
                CopyKind::Replica => pl.replica = Some((to, blocks)),
            }
            // Write while still holding the write lock: any query planned
            // after the flip is dispatched after this write is applied or
            // sent ahead of it. The source copy's blocks stay orphaned on
            // disk for queries planned before the flip.
            self.write_blocks(to, writes);
            drop(cat);
            self.shared.rebalance_moves.fetch_add(1, Ordering::Relaxed);
            self.shared
                .rebalance_bytes
                .fetch_add(page_bytes, Ordering::Relaxed);
        }
        let mut cat = self.catalog.write().expect("engine catalog lock");
        debug_assert!(
            cat.placement.values().all(|pl| {
                target[pl.primary.0] && pl.replica.as_ref().is_none_or(|r| target[r.0])
            }),
            "rebalance left a copy on an inactive slot"
        );
        cat.active = target;
        Ok(report)
    }

    /// Folds one worker reply into its pending query, matched to its
    /// outstanding dispatch by sequence number — never positionally — so
    /// duplicated, delayed, or reordered replies cannot be mis-attributed.
    /// Stale replies (a finished query, an already-failed-over or
    /// already-answered seq) find no outstanding entry and are dropped, so
    /// records are never merged twice.
    fn process_reply(
        &self,
        reply: FromWorker,
        pending: &mut HashMap<u64, PendingQuery>,
        reply_tx: &Sender<FromWorker>,
    ) {
        let Some(p) = pending.get_mut(&reply.query_id) else {
            return;
        };
        let Some(pos) = p.awaiting.iter().position(|o| o.seq == reply.seq) else {
            return;
        };
        let o = p.awaiting.remove(pos);
        p.total_blocks += reply.blocks_requested;
        // Checksum failures are scrubbed from the replica regardless of how
        // the query itself gets answered.
        if !reply.corrupt_blocks.is_empty() {
            self.repair_blocks(
                reply.query_id,
                reply.worker_id,
                &reply.corrupt_blocks,
                &o.buckets,
            );
        }
        // The other request of a hedged pair, if it is still out.
        let partner = o
            .partner
            .and_then(|seq| p.awaiting.iter().position(|x| x.seq == seq));
        // An error reply read its blocks too: the replay charges them, with
        // no records.
        p.served.push(Served {
            slot: o.worker,
            seq: o.seq,
            in_round: o.in_round,
            records: reply.records.len() as u64,
            cpu_us: reply.cpu_us,
            blocks: o.blocks,
        });
        if reply.error.is_some() {
            if partner.is_none() {
                self.fail_over(reply.query_id, p, reply.worker_id, &o.buckets, reply_tx);
            }
            return;
        }
        // The first good answer of a hedged pair wins; the other's late
        // reply finds nothing awaited and is dropped.
        if let Some(i) = partner {
            p.awaiting.remove(i);
        }
        #[cfg(feature = "obs")]
        if self.hedge_threshold.is_some() {
            self.service_hist
                .record(o.sent.elapsed().as_micros() as u64);
        }
        p.parts.push(Part {
            slot: o.worker,
            seq: o.seq,
            records: reply.records,
        });
    }

    /// How long a request may be outstanding before it is hedged:
    /// `threshold x p95` of recent reply latencies, once there are enough
    /// of them on a replicated engine.
    #[cfg(feature = "obs")]
    fn hedge_after(&self) -> Option<Duration> {
        let threshold = self.hedge_threshold?;
        if !self.replicated || self.service_hist.count() < HEDGE_MIN_SAMPLES {
            return None;
        }
        let p95 = self.service_hist.snapshot().quantile(0.95);
        Some(Duration::from_micros((threshold * p95 as f64) as u64))
    }

    #[cfg(not(feature = "obs"))]
    fn hedge_after(&self) -> Option<Duration> {
        None
    }

    /// Hedges every request outstanding past [`Self::hedge_after`] (Dean &
    /// Barroso, "The Tail at Scale", CACM 2013): re-sends it under a fresh
    /// seq to the live worker holding the other copy of all its buckets, so
    /// a hedge is always one message to one machine. Returns when the next
    /// request not yet due falls due.
    fn hedge(
        &self,
        pending: &mut HashMap<u64, PendingQuery>,
        reply_tx: &Sender<FromWorker>,
    ) -> Option<Instant> {
        let after = self.hedge_after()?;
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        for (&qid, p) in pending.iter_mut() {
            let mut hedges = Vec::new();
            for o in p.awaiting.iter_mut().filter(|o| !o.hedged) {
                let due = o.sent + after;
                if due > now {
                    next = Some(next.map_or(due, |n| n.min(due)));
                    continue;
                }
                o.hedged = true;
                let Some((w, blocks)) = self.hedge_target(&o.buckets, o.worker) else {
                    continue;
                };
                let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                let request = ReadRequest {
                    worker: w,
                    query_id: qid,
                    seq,
                    blocks: blocks.clone(),
                    query: p.rect,
                    reply: reply_tx.clone(),
                };
                if self.slots[w]
                    .send(ToWorker::Process(vec![request]))
                    .is_err()
                {
                    self.shared.workers[w].dead.store(true, Ordering::Relaxed);
                    continue;
                }
                self.shared.hedges.fetch_add(1, Ordering::Relaxed);
                #[cfg(feature = "obs")]
                self.trace_instant(
                    SpanKind::Hedge,
                    qid,
                    w as u32,
                    now.duration_since(o.sent).as_micros() as u64,
                );
                o.partner = Some(seq);
                let mut hedge = Outstanding::new(w, seq, o.buckets.clone(), blocks);
                hedge.hedged = true;
                hedge.partner = Some(o.seq);
                hedges.push(hedge);
            }
            p.messages += hedges.len() as u64;
            p.hedges += hedges.len() as u64;
            p.awaiting.extend(hedges);
        }
        next
    }

    /// Collects replies until no pending query awaits a worker, hedging
    /// requests that fall due on the way. On each empty-timeout poll, in
    /// order: queries past their deadline budget abandon whatever is still
    /// missing; outstanding requests on live workers are redelivered under
    /// backed-off, bounded retransmission (the lost-message defense); and
    /// requests stranded on dead — or, at the strike limit, merely silent —
    /// workers are failed over to their replicas. A wake-up for a hedge is
    /// not a poll.
    fn collect(
        &self,
        reply_rx: &Receiver<FromWorker>,
        reply_tx: &Sender<FromWorker>,
        pending: &mut HashMap<u64, PendingQuery>,
    ) {
        let timeout = Duration::from_millis(self.fail_timeout_ms.max(1));
        let mut strikes = 0u32;
        let mut poll_at = Instant::now() + timeout;
        while pending.values().any(|p| !p.awaiting.is_empty()) {
            // Replies already in are taken first: only a request still out
            // when the collector would block is a hedging candidate.
            let next = reply_rx.try_recv().or_else(|_| {
                let wake = self
                    .hedge(pending, reply_tx)
                    .map_or(poll_at, |h| h.min(poll_at));
                reply_rx.recv_timeout(wake.saturating_duration_since(Instant::now()))
            });
            match next {
                Ok(reply) => {
                    strikes = 0;
                    poll_at = Instant::now() + timeout;
                    self.process_reply(reply, pending, reply_tx);
                }
                Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) if Instant::now() < poll_at => {}
                Err(RecvTimeoutError::Timeout) => {
                    poll_at = Instant::now() + timeout;
                    strikes += 1;
                    let force = strikes >= self.max_timeout_strikes;
                    let ids: Vec<u64> = pending.keys().copied().collect();
                    for qid in ids {
                        let Some(p) = pending.get_mut(&qid) else {
                            continue;
                        };
                        if p.awaiting.is_empty() {
                            continue;
                        }
                        // 1. Deadline budget: abandon whatever is missing.
                        if let Some(d) = self.deadline_us {
                            if p.started.elapsed().as_micros() as u64 > d {
                                self.shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
                                p.awaiting.clear();
                                p.incomplete = true;
                                continue;
                            }
                        }
                        // 2. Bounded, backed-off retransmits to live
                        // workers: the request or its reply may have been
                        // lost; the worker dedups redeliveries by seq, so
                        // redelivering serviced work is harmless.
                        for o in p.awaiting.iter_mut() {
                            if !self.shared.is_alive(o.worker) {
                                continue;
                            }
                            o.strikes += 1;
                            if o.strikes < o.backoff || o.retransmits >= MAX_RETRANSMITS {
                                continue;
                            }
                            o.strikes = 0;
                            o.backoff = o.backoff.saturating_mul(2).min(16);
                            o.retransmits += 1;
                            o.in_round = false;
                            p.messages += 1;
                            self.shared.retransmits.fetch_add(1, Ordering::Relaxed);
                            #[cfg(feature = "obs")]
                            self.trace_instant(
                                SpanKind::Retry,
                                qid,
                                o.worker as u32,
                                o.retransmits as u64,
                            );
                            let request = ReadRequest {
                                worker: o.worker,
                                query_id: qid,
                                seq: o.seq,
                                blocks: o.blocks.clone(),
                                query: p.rect,
                                reply: reply_tx.clone(),
                            };
                            if self.slots[o.worker]
                                .send(ToWorker::Process(vec![request]))
                                .is_err()
                            {
                                // Channel gone: the dead sweep below picks
                                // this entry up in the same poll.
                                self.shared.workers[o.worker]
                                    .dead
                                    .store(true, Ordering::Relaxed);
                            }
                        }
                        // 3. Pull out entries on dead workers (all awaited
                        // workers, under `force`) *before* failing any
                        // over, so retries issued below are not swept in
                        // the same pass.
                        let mut doomed = Vec::new();
                        let mut i = 0;
                        while i < p.awaiting.len() {
                            if force || !self.shared.is_alive(p.awaiting[i].worker) {
                                doomed.push(p.awaiting.remove(i));
                            } else {
                                i += 1;
                            }
                        }
                        for o in &doomed {
                            self.shared.workers[o.worker]
                                .dead
                                .store(true, Ordering::Relaxed);
                        }
                        for (k, o) in doomed.iter().enumerate() {
                            // A hedged pair fails over once, and only when
                            // neither of its requests is left.
                            let left = |seq| {
                                p.awaiting
                                    .iter()
                                    .chain(&doomed[k + 1..])
                                    .any(|x| x.seq == seq)
                            };
                            if !o.partner.is_some_and(left) {
                                self.fail_over(qid, p, o.worker, &o.buckets, reply_tx);
                            }
                        }
                    }
                    if force {
                        strikes = 0;
                    }
                }
            }
        }
    }

    /// One admission round — a session's query, or a window of a
    /// runner's: admits `rects` in order, sends one `Process`
    /// message per involved worker (counted into the runner's `batches`
    /// when given) — `try_send` first, then `send` for those a held slot
    /// handed back, so a query serves every free slot before it waits —
    /// and collects. Returns the queries in submission order.
    fn run_round(
        &self,
        rects: &[Rect],
        (reply_tx, reply_rx): (&Sender<FromWorker>, &Receiver<FromWorker>),
        mut batches: Option<&mut ThroughputStats>,
    ) -> Vec<(u64, PendingQuery)> {
        let mut per_worker: Vec<Vec<ReadRequest>> =
            (0..self.slots.len()).map(|_| Vec::new()).collect();
        let mut pending: HashMap<u64, PendingQuery> = HashMap::with_capacity(rects.len());
        for (round_pos, rect) in rects.iter().enumerate() {
            let (query_id, p, requests) = self.admit(rect, round_pos, reply_tx);
            for (w, request) in requests {
                per_worker[w].push(request);
            }
            pending.insert(query_id, p);
        }
        let mut busy = Vec::new();
        for (w, requests) in per_worker.into_iter().enumerate() {
            if requests.is_empty() {
                continue;
            }
            if let Some(tp) = batches.as_deref_mut() {
                tp.batches += 1;
                tp.batched_requests += requests.len() as u64;
                tp.max_batch = tp.max_batch.max(requests.len() as u64);
                #[cfg(feature = "obs")]
                self.trace_instant(
                    SpanKind::Dispatch,
                    pargrid_obs::NO_QUERY,
                    w as u32,
                    requests.len() as u64,
                );
            }
            if let Err(msg) = self.slots[w].try_send(ToWorker::Process(requests)) {
                busy.push((w, msg));
            }
        }
        for (w, msg) in busy {
            if let Err(SendError(msg)) = self.slots[w].send(msg) {
                self.fail_over_bounced(w, msg, &mut pending, reply_tx);
            }
        }
        // A session traces one Dispatch per query that had reads to send.
        #[cfg(feature = "obs")]
        if batches.is_none() {
            for (&query_id, p) in pending.iter().filter(|(_, p)| p.response_blocks > 0) {
                self.trace_instant(SpanKind::Dispatch, query_id, NO_ID, p.awaiting.len() as u64);
            }
        }
        self.collect(reply_rx, reply_tx, &mut pending);
        let mut finished: Vec<(u64, PendingQuery)> = pending.into_iter().collect();
        finished.sort_unstable_by_key(|(_, p)| p.round_pos);
        debug_assert!(finished.iter().all(|(_, p)| p.awaiting.is_empty()));
        finished
    }

    /// Executes one range query through the SPMD protocol.
    ///
    /// Convenience for one-shot callers; opens a throwaway session. Clients
    /// issuing several queries should hold a [`QuerySession`] instead.
    pub fn query(&self, rect: &Rect) -> QueryOutcome {
        self.session().query(rect)
    }

    /// Runs a whole workload one query at a time — the window-1 case of
    /// [`ParallelGridFile::run_workload_concurrent`] — accumulating the
    /// Tables 4–5 columns.
    pub fn run_workload(&self, workload: &QueryWorkload) -> RunStats {
        let mut stats = RunStats::default();
        for out in &self.run_workload_concurrent(workload, 1).0 {
            stats.absorb(out);
        }
        stats
    }

    /// Runs a workload with up to `in_flight` queries admitted at once,
    /// returning per-query outcomes plus aggregate throughput metrics.
    ///
    /// The coordinator admits the workload in rounds of `in_flight` queries:
    /// each round's block requests are grouped per worker and dispatched as
    /// one batch. Once a round's replies are in, the runner charges the SP-2
    /// cost model with the round's accepted reads, each worker's as one
    /// elevator batch. Admission rounds are the unit of determinism — batch
    /// composition depends only on the workload and the window, never on
    /// thread timing — so repeated runs produce identical block counts,
    /// cache behavior, and virtual times.
    ///
    /// Per-query `elapsed_us` stays independently accounted (each query is
    /// charged only its own blocks' costs), while
    /// [`ThroughputStats::makespan_us`] reflects the shared schedule: the
    /// busiest worker's total *wall* busy time — a multi-disk worker's disks
    /// seek in parallel, so per-batch wall time is the maximum over its
    /// disks, not their sum — plus all communication.
    pub fn run_workload_concurrent(
        &self,
        workload: &QueryWorkload,
        in_flight: usize,
    ) -> (Vec<QueryOutcome>, ThroughputStats) {
        assert!(in_flight >= 1, "in_flight must be at least 1");
        let n_workers = self.n_workers();
        let (reply_tx, reply_rx) = unbounded();
        let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(workload.len());
        let retries0 = self.shared.retries.load(Ordering::Relaxed);
        let failed0 = self.shared.failed_over_blocks.load(Ordering::Relaxed);
        let retransmits0 = self.shared.retransmits.load(Ordering::Relaxed);
        let hedges0 = self.shared.hedges.load(Ordering::Relaxed);
        let scrubbed0 = self.shared.scrubbed.load(Ordering::Relaxed);
        let mut tp = ThroughputStats {
            in_flight,
            worker_busy_us: vec![0; n_workers],
            ..ThroughputStats::default()
        };

        for round in workload.queries.chunks(in_flight) {
            #[cfg(feature = "obs")]
            let round_start = self.recorder.as_ref().map_or(0, |r| r.now());
            let finished = self.run_round(round, (&reply_tx, &reply_rx), Some(&mut tp));
            let costs = self.charge(&finished, &mut tp.worker_busy_us);
            for ((_query_id, p), cost) in finished.into_iter().zip(costs) {
                tp.queries += 1;
                tp.total_blocks += p.total_blocks;
                let out = p.into_outcome(cost);
                tp.comm_us += out.comm_us;
                tp.cache_hits += out.cache_hits;
                #[cfg(feature = "obs")]
                self.trace_reply(_query_id, round_start, &out);
                outcomes.push(out);
            }
        }

        tp.retries = self.shared.retries.load(Ordering::Relaxed) - retries0;
        tp.failed_over_blocks = self.shared.failed_over_blocks.load(Ordering::Relaxed) - failed0;
        tp.retransmits = self.shared.retransmits.load(Ordering::Relaxed) - retransmits0;
        tp.hedges = self.shared.hedges.load(Ordering::Relaxed) - hedges0;
        tp.scrubbed = self.shared.scrubbed.load(Ordering::Relaxed) - scrubbed0;
        tp.worker_alive = (0..n_workers).map(|w| self.shared.is_alive(w)).collect();
        tp.makespan_us = tp.worker_busy_us.iter().copied().max().unwrap_or(0) + tp.comm_us;
        (outcomes, tp)
    }

    /// Charges a finished round to the cost model — the one place it is
    /// charged — adding each worker's busy time to `busy_us` and returning
    /// each query's `(elapsed_us, comm_us, cache_hits)`. Reads go as the
    /// workers served them: the round's dispatch as one elevator batch per
    /// worker, in seq order, which is admission order, so each batch breaks
    /// ties as its dispatch listed them; then each later message (failover,
    /// hedge, retransmit) as a batch of its own, in seq order.
    fn charge(
        &self,
        finished: &[(u64, PendingQuery)],
        busy_us: &mut [u64],
    ) -> Vec<(u64, u64, u64)> {
        let mut served: Vec<(usize, &Served)> = finished
            .iter()
            .enumerate()
            .flat_map(|(q, (_, p))| p.served.iter().map(move |s| (q, s)))
            .collect();
        served.sort_unstable_by_key(|(_, s)| (!s.in_round, s.seq));
        let later = served.partition_point(|(_, s)| s.in_round);
        #[cfg(feature = "obs")]
        let recorder = self.recorder.as_deref();
        #[cfg(not(feature = "obs"))]
        let recorder = None;
        let mut model = self.cost.lock().expect("engine cost model lock");
        let mut costs = Vec::with_capacity(served.len());
        for batch in std::iter::once(&served[..later]).chain(served[later..].chunks(1)) {
            let reads: Vec<Read<'_>> = batch
                .iter()
                .map(|(_, s)| Read {
                    worker: s.slot,
                    blocks: &s.blocks,
                    cpu_us: s.cpu_us,
                })
                .collect();
            let cost = model.charge_round(&reads, recorder);
            for (busy, wall) in busy_us.iter_mut().zip(&cost.wall_us) {
                *busy += wall;
            }
            costs.extend(cost.reads);
        }
        drop(model);
        let mut charged: Vec<(u64, u64, u64)> = finished
            .iter()
            .map(|(_, p)| (0, p.messages * self.net.latency_us, 0))
            .collect();
        for ((q, s), c) in served.iter().zip(&costs) {
            let (worker_us, comm, hits) = &mut charged[*q];
            *worker_us = (*worker_us).max(c.disk_us + s.cpu_us);
            *comm += self.net.reply_us(s.records * self.record_bytes as u64);
            *hits += c.cache_hits;
        }
        charged
            .into_iter()
            .map(|(worker_us, comm, hits)| (worker_us + comm, comm, hits))
            .collect()
    }
}

/// A client's private stream of queries against a shared engine.
///
/// Holds its own reply channel (workers answer to the session that asked)
/// and accumulates [`RunStats`] across its queries. Obtained from
/// [`ParallelGridFile::session`]; one session per client thread.
pub struct QuerySession<'e> {
    engine: &'e ParallelGridFile,
    reply_tx: Sender<FromWorker>,
    reply_rx: Receiver<FromWorker>,
    stats: RunStats,
}

impl QuerySession<'_> {
    /// Executes one range query through the SPMD protocol: a one-query
    /// admission round. The cost model is not charged: the outcome's
    /// virtual fields are 0.
    pub fn query(&mut self, rect: &Rect) -> QueryOutcome {
        let (_, p) = self
            .engine
            .run_round(
                std::slice::from_ref(rect),
                (&self.reply_tx, &self.reply_rx),
                None,
            )
            .pop()
            .expect("one query in, one out");
        let outcome = p.into_outcome((0, 0, 0));
        self.stats.absorb(&outcome);
        outcome
    }

    /// Like [`QuerySession::query`], but reports a closed query service as
    /// a typed [`EngineError::SessionClosed`] instead of silently resolving
    /// the query incomplete.
    ///
    /// "Closed" covers both orderings: the engine was already shut down
    /// when the query arrived, and the race where a submit was sent to a
    /// worker as [`ParallelGridFile::shutdown`] stopped it — in that case
    /// the bounced dispatch resolves the outcome incomplete and this
    /// method converts it to the typed error. Never hangs and never panics.
    pub fn try_query(&mut self, rect: &Rect) -> Result<QueryOutcome, EngineError> {
        if self.engine.is_shut_down() {
            return Err(EngineError::SessionClosed);
        }
        let outcome = self.query(rect);
        if outcome.incomplete && self.engine.is_shut_down() {
            return Err(EngineError::SessionClosed);
        }
        Ok(outcome)
    }

    /// Stats accumulated by this session so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Explicitly ends the session, returning its accumulated stats.
    ///
    /// Dropping a session is equally safe (its reply channel closes and
    /// workers discard late replies); `close` exists so a server's shutdown
    /// path can make the hand-off order explicit — close every session,
    /// then [`ParallelGridFile::shutdown`] the engine.
    pub fn close(self) -> RunStats {
        self.stats
    }
}

impl Drop for ParallelGridFile {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::same_records;
    use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
    use pargrid_geom::Point;
    use pargrid_gridfile::{GridConfig, Record};
    use pargrid_sim::QueryWorkload;

    fn sample_grid() -> (Arc<GridFile>, Vec<Record>) {
        let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), 8);
        let mut recs = Vec::new();
        let mut x = 1u64;
        for i in 0..600u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            recs.push(Record::new(
                i,
                Point::new2(
                    ((x >> 16) % 10000) as f64 / 100.0,
                    ((x >> 40) % 10000) as f64 / 100.0,
                ),
            ));
        }
        let gf = Arc::new(GridFile::bulk_load(cfg, recs.iter().copied()));
        (gf, recs)
    }

    /// Short reply timeout so failure tests don't wait 200 ms per poll.
    fn fast_cfg() -> EngineConfig {
        EngineConfig::default().resilience(|r| r.with_fail_timeout_ms(25))
    }

    fn build_engine_cfg(
        n_workers: usize,
        config: EngineConfig,
    ) -> (Arc<GridFile>, ParallelGridFile, Vec<Record>) {
        let (gf, recs) = sample_grid();
        let input = DeclusterInput::from_grid_file(&gf);
        let assignment =
            DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, n_workers, 7);
        let engine = ParallelGridFile::build(Arc::clone(&gf), &assignment, config);
        (gf, engine, recs)
    }

    fn build_engine(n_workers: usize) -> (Arc<GridFile>, ParallelGridFile, Vec<Record>) {
        build_engine_cfg(n_workers, EngineConfig::default())
    }

    fn build_replicated_engine(
        n_workers: usize,
        config: EngineConfig,
    ) -> (Arc<GridFile>, ParallelGridFile, Vec<Record>) {
        let (gf, recs) = sample_grid();
        let input = DeclusterInput::from_grid_file(&gf);
        let assignment =
            DeclusterMethod::Minimax(EdgeWeight::Proximity).assign_replicated(&input, n_workers, 7);
        let engine = ParallelGridFile::build_replicated(Arc::clone(&gf), &assignment, config);
        (gf, engine, recs)
    }

    #[test]
    fn build_shares_the_grid_file_until_the_first_mutation() {
        let (gf, engine, _) = build_engine(4);
        let shared = |engine: &ParallelGridFile| {
            Arc::ptr_eq(&gf, &engine.catalog.read().expect("catalog lock").gf)
        };
        assert!(
            shared(&engine),
            "the build copied a grid file its caller still holds"
        );
        let before = gf.len();
        engine
            .insert(Record::new(99_999, Point::new2(50.0, 50.0)))
            .expect("insert");
        assert!(
            !shared(&engine),
            "the insert wrote through the caller's handle"
        );
        assert_eq!(gf.len(), before, "the caller's grid file changed");
        assert_eq!(engine.len(), before + 1);
        assert_eq!(gf.lookup(&Point::new2(50.0, 50.0)).len(), 0);
    }

    #[test]
    fn query_returns_exactly_the_matching_records() {
        let (_gf, engine, recs) = build_engine(4);
        let q = Rect::new2(20.0, 20.0, 60.0, 60.0);
        let out = engine.query(&q);
        let expected: Vec<Record> = recs
            .iter()
            .filter(|r| q.contains_closed(&r.point))
            .copied()
            .collect();
        assert!(same_records(&out.records, &expected));
        assert!(out.response_blocks > 0);
        assert!(out.total_blocks >= out.response_blocks);
        assert!(!out.buckets.is_empty());
        assert_eq!(out.retries, 0);
        assert!(!out.incomplete);
    }

    #[test]
    fn engine_shutdown_joins_all_workers() {
        let (_gf, engine, _recs) = build_engine_cfg(4, fast_cfg());
        let engine = Arc::new(engine);
        // A long-lived session like the one a server holds.
        let mut session = engine.session();
        let out = session.query(&Rect::new2(20.0, 20.0, 60.0, 60.0));
        assert!(!out.incomplete);
        let _ = session.close();

        // Explicit SIGTERM-style shutdown joins every worker thread; none
        // outlive the call.
        assert!(!engine.is_shut_down());
        assert_eq!(engine.shutdown(), 4);
        assert!(engine.is_shut_down());
        // Idempotent: nothing left to join, and the eventual Drop is a no-op.
        assert_eq!(engine.shutdown(), 0);

        // A straggler query after shutdown must resolve (incomplete — the
        // workers are gone) rather than hang.
        let start = std::time::Instant::now();
        let out = engine.session().query(&Rect::new2(20.0, 20.0, 60.0, 60.0));
        assert!(out.incomplete);
        assert!(out.records.is_empty());
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "post-shutdown query should fail fast, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn parallel_equals_sequential_results() {
        let (gf, engine, _recs) = build_engine(8);
        for (i, q) in [
            Rect::new2(0.0, 0.0, 100.0, 100.0),
            Rect::new2(90.0, 0.0, 100.0, 100.0),
            Rect::new2(33.0, 33.0, 34.0, 34.0),
        ]
        .iter()
        .enumerate()
        {
            let out = engine.query(q);
            let (_, mut expected) = gf.range_query(q);
            expected.sort_unstable_by_key(|r| r.id);
            assert!(same_records(&out.records, &expected), "query {i}");
        }
    }

    #[test]
    fn more_workers_reduce_response_blocks() {
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.1, 40, 3);
        let (_g4, e4, _) = build_engine(4);
        let (_g16, e16, _) = build_engine(16);
        let s4 = e4.run_workload(&w);
        let s16 = e16.run_workload(&w);
        assert!(
            (s16.response_blocks as f64) < 0.6 * s4.response_blocks as f64,
            "4 workers: {}, 16 workers: {}",
            s4.response_blocks,
            s16.response_blocks
        );
        assert!(s16.elapsed_seconds() < s4.elapsed_seconds());
        // Identical answers regardless of parallelism.
        assert_eq!(s4.records, s16.records);
    }

    #[test]
    fn empty_query_is_cheap_and_empty() {
        let (_gf, engine, _recs) = build_engine(4);
        let out = engine.query(&Rect::new2(200.0, 200.0, 300.0, 300.0));
        assert!(out.records.is_empty());
        assert!(out.buckets.is_empty());
        assert_eq!(out.total_blocks, 0);
        assert_eq!(out.comm_us, 0);
        assert_eq!(out.elapsed_us, 0);
    }

    #[test]
    fn repeated_queries_hit_worker_caches() {
        let (_gf, engine, _recs) = build_engine(4);
        let q = Rect::new2(10.0, 10.0, 50.0, 50.0);
        let (outcomes, _) = engine.run_workload_concurrent(
            &QueryWorkload {
                queries: vec![q; 2],
            },
            1,
        );
        let [first, second] = &outcomes[..] else {
            panic!("two queries in, two out");
        };
        assert_eq!(first.cache_hits, 0);
        assert_eq!(second.cache_hits, second.total_blocks);
        assert!(second.elapsed_us < first.elapsed_us);
    }

    #[test]
    fn legacy_mut_call_sites_still_compile() {
        // The API redesign moved query methods to `&self`; holders of
        // `&mut ParallelGridFile` (the pre-redesign contract) coerce.
        let (_gf, mut engine, _recs) = build_engine(2);
        let q = Rect::new2(0.0, 0.0, 10.0, 10.0);
        let handle: &mut ParallelGridFile = &mut engine;
        let _ = handle.query(&q);
        let _ = handle.run_workload(&QueryWorkload { queries: vec![q] });
    }

    #[test]
    fn shutdown_is_clean() {
        let (_gf, engine, _recs) = build_engine(3);
        drop(engine); // must not hang or panic
    }

    #[test]
    fn session_accumulates_stats() {
        let (_gf, engine, _recs) = build_engine(4);
        let mut session = engine.session();
        let q = Rect::new2(10.0, 10.0, 50.0, 50.0);
        session.query(&q);
        session.query(&q);
        let stats = session.stats();
        assert_eq!(stats.queries, 2);
        assert!(stats.total_blocks > 0);
        assert_eq!(stats.elapsed_us, 0, "a session charges no cost model");
        let engine_stats = engine.stats();
        assert_eq!(engine_stats.queries, 2);
        assert_eq!(engine_stats.total_blocks(), stats.total_blocks);
    }

    #[test]
    fn concurrent_sessions_share_one_engine() {
        // The shared-service contract: multiple client threads query one
        // engine through `&self` simultaneously and each gets exactly its
        // own query's answers.
        let (gf, engine, _recs) = build_engine(4);
        let queries = [
            Rect::new2(0.0, 0.0, 30.0, 30.0),
            Rect::new2(40.0, 40.0, 80.0, 80.0),
            Rect::new2(10.0, 60.0, 90.0, 95.0),
            Rect::new2(0.0, 0.0, 100.0, 100.0),
        ];
        let mut expected = Vec::new();
        for q in &queries {
            let (_, mut e) = gf.range_query(q);
            e.sort_unstable_by_key(|r| r.id);
            expected.push(e);
        }
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for q in &queries {
                let engine = &engine;
                joins.push(scope.spawn(move || {
                    let mut session = engine.session();
                    let mut out = Vec::new();
                    for _ in 0..3 {
                        out.push(session.query(q).records);
                    }
                    out
                }));
            }
            for (join, expect) in joins.into_iter().zip(&expected) {
                for got in join.join().expect("client thread") {
                    assert!(same_records(&got, expect));
                }
            }
        });
        assert_eq!(engine.stats().queries, 12);
    }

    #[test]
    fn concurrent_makespan_never_exceeds_sequential_elapsed() {
        let (_gf, seq, _recs) = build_engine(6);
        let (_gf2, conc, _recs2) = build_engine(6);
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.05, 40, 21);
        let (outcomes, tp) = conc.run_workload_concurrent(&w, 8);
        assert_eq!(outcomes.len(), 40);
        let (serial, _) = seq.run_workload_concurrent(&w, 1);
        let mut sequential_us = 0;
        for (s, out) in serial.iter().zip(&outcomes) {
            assert_eq!(s.records, out.records);
            assert_eq!(s.total_blocks, out.total_blocks);
            sequential_us += s.elapsed_us;
        }
        // Batched servicing never exceeds sequential elapsed time (shared
        // elevator passes only remove seeks; cache contents match because
        // both engines saw the same query order).
        assert!(
            tp.makespan_us <= sequential_us,
            "concurrent makespan {} > sequential {sequential_us}",
            tp.makespan_us
        );
        assert!(tp.makespan_us > 0);
    }

    #[test]
    fn concurrent_window_one_equals_sequential_totals() {
        let (_gf, a, _r) = build_engine(4);
        let (_gf2, b, _r2) = build_engine(4);
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.05, 15, 5);
        let sa = a.run_workload(&w);
        let (outcomes, _) = b.run_workload_concurrent(&w, 1);
        let mut sb = RunStats::default();
        for out in &outcomes {
            sb.absorb(out);
        }
        assert_eq!(sa.total_blocks, sb.total_blocks);
        assert_eq!(sa.records, sb.records);
        assert_eq!(sa.response_blocks, sb.response_blocks);
    }

    #[test]
    fn concurrent_run_is_deterministic_and_matches_serial() {
        // A seeded workload run serially and with in_flight > 1 fetches the
        // identical total number of blocks from each worker and touches
        // identical per-query bucket sets — under both the default
        // single-disk configuration and the SP-2 seven-disk one.
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.06, 30, 17);
        for config in [EngineConfig::default(), EngineConfig::sp2_seven_disks()] {
            let (_g1, serial, _r1) = build_engine_cfg(6, config.clone());
            let mut serial_session = serial.session();
            let serial_outcomes: Vec<QueryOutcome> =
                w.queries.iter().map(|q| serial_session.query(q)).collect();
            let serial_stats = serial.stats();

            let (_g2, concurrent, _r2) = build_engine_cfg(6, config.clone());
            let (conc_outcomes, tp) = concurrent.run_workload_concurrent(&w, 8);
            let conc_stats = concurrent.stats();

            assert_eq!(conc_outcomes.len(), serial_outcomes.len());
            for (s, c) in serial_outcomes.iter().zip(&conc_outcomes) {
                assert_eq!(s.buckets, c.buckets, "per-query bucket sets differ");
                assert_eq!(s.records, c.records);
                assert_eq!(s.total_blocks, c.total_blocks);
            }
            // Identical per-worker block totals, worker by worker.
            for (ws, wc) in serial_stats.workers.iter().zip(&conc_stats.workers) {
                assert_eq!(ws.blocks_fetched, wc.blocks_fetched);
            }
            assert_eq!(tp.total_blocks, serial_session.stats().total_blocks);

            // And the concurrent run itself is reproducible.
            let (_g3, again, _r3) = build_engine_cfg(6, config.clone());
            let (again_outcomes, tp2) = again.run_workload_concurrent(&w, 8);
            assert_eq!(tp2.makespan_us, tp.makespan_us);
            assert_eq!(tp2.cache_hits, tp.cache_hits);
            for (a, b) in conc_outcomes.iter().zip(&again_outcomes) {
                assert_eq!(a.elapsed_us, b.elapsed_us);
            }
        }
    }

    #[test]
    fn wider_window_raises_throughput() {
        let (_g, engine, _r) = build_engine(4);
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.05, 48, 9);
        let (_g2, engine2, _r2) = build_engine(4);
        let (_, tp1) = engine.run_workload_concurrent(&w, 1);
        let (_, tp8) = engine2.run_workload_concurrent(&w, 8);
        assert_eq!(tp1.queries, 48);
        assert_eq!(tp8.queries, 48);
        assert!(
            tp8.queries_per_second() > tp1.queries_per_second(),
            "window 8 ({:.1} q/s) not faster than window 1 ({:.1} q/s)",
            tp8.queries_per_second(),
            tp1.queries_per_second()
        );
        assert!(tp8.mean_batch() > tp1.mean_batch());
        assert!(tp8.max_batch >= tp8.in_flight as u64 / 2);
    }

    #[test]
    fn file_backed_store_matches_memory() {
        let dir = std::env::temp_dir().join("pargrid_engine_spill_test");
        let _ = std::fs::remove_dir_all(&dir);
        let (gf, mem_engine, _recs) = build_engine(4);
        let input = DeclusterInput::from_grid_file(&gf);
        let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, 4, 7);
        let file_engine = ParallelGridFile::build(
            Arc::clone(&gf),
            &assignment,
            EngineConfig::file_backed(&dir),
        );
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.08, 25, 13);
        for q in &w.queries {
            let a = mem_engine.query(q);
            let b = file_engine.query(q);
            assert_eq!(a.records, b.records);
            assert_eq!(a.total_blocks, b.total_blocks);
        }
        // Real block files exist with the expected geometry.
        let f = std::fs::metadata(dir.join("worker-0.blocks")).expect("file exists");
        assert!(f.len() > 0);
        assert_eq!(
            f.len() % (gf.config().page_bytes as u64 + 4),
            0,
            "file is whole blocks"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// FNV-1a-64 of each worker's spill file for
    /// [`spill_files_are_the_per_block_layout`], as the build that wrote one
    /// `pwrite` per block produced them.
    const GOLDEN_SPILL_FNV1A: [u64; 4] = [
        0xc07a_9488_2cba_a0f0,
        0xcae5_7507_fba2_4fab,
        0x549d_bf3c_80c7_69d2,
        0x7b6a_3b00_bb41_c9a1,
    ];

    #[test]
    fn spill_files_are_the_per_block_layout() {
        // ≈ 350 blocks per worker, primaries then replicas: several full
        // runs, a partial run at the end, and runs that straddle the two
        // passes.
        let dir = std::env::temp_dir().join("pargrid_engine_spill_golden_test");
        let _ = std::fs::remove_dir_all(&dir);
        let gf = Arc::new(pargrid_datagen::dsmc3d_sized(7, 60_000).build_grid_file());
        let input = DeclusterInput::from_grid_file(&gf);
        let assignment =
            DeclusterMethod::Minimax(EdgeWeight::Proximity).assign_replicated(&input, 4, 5);
        let engine =
            ParallelGridFile::build_replicated(gf, &assignment, EngineConfig::file_backed(&dir));
        let digests: Vec<u64> = (0..4)
            .map(|w| {
                let bytes =
                    std::fs::read(dir.join(format!("worker-{w}.blocks"))).expect("spill file");
                bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                })
            })
            .collect();
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(digests, GOLDEN_SPILL_FNV1A, "{digests:x?}");
    }

    /// FNV-1a-64 over every runner outcome's `(elapsed_us, comm_us,
    /// cache_hits)` and the run's `makespan_us`, for
    /// [`runner_virtual_times_match_the_golden`]: under the default and the
    /// SP-2 configuration, and on a replicated engine whose worker 1 answers
    /// some queries with errors, window 1 then window 8 on one engine, as
    /// the build that charged the model inside its workers computed them.
    const GOLDEN_RUNNER_FNV1A: [u64; 6] = [
        0xc20c_395c_ab52_e4f9,
        0x9297_c85e_9e79_d35e,
        0x693d_2ee6_9ae8_ef6b,
        0x4801_2240_6d40_09dd,
        0x1224_2187_606b_bdda,
        0xfb4f_0cab_913d_01b2,
    ];

    #[test]
    fn runner_virtual_times_match_the_golden() {
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.08, 40, 23);
        // Query ids run 0..40 at window 1 and 40..80 at window 8; a poisoned
        // read is charged where it was served and failed over to a replica,
        // which serves the retry as a batch of its own.
        let poisoned = [2, 9, 17, 30, 43, 51, 60, 77]
            .into_iter()
            .fold(FaultPlan::none(), |plan, q| plan.with_poison(1, q));
        let engines = [
            build_engine_cfg(6, EngineConfig::default()),
            build_engine_cfg(6, EngineConfig::sp2_seven_disks()),
            build_replicated_engine(
                6,
                EngineConfig::default().resilience(|r| r.with_faults(poisoned)),
            ),
        ];
        let mut digests = Vec::new();
        for (_g, engine, _r) in &engines {
            for window in [1, 8] {
                let (outcomes, tp) = engine.run_workload_concurrent(&w, window);
                let words = outcomes
                    .iter()
                    .flat_map(|o| [o.elapsed_us, o.comm_us, o.cache_hits])
                    .chain([tp.makespan_us]);
                digests.push(words.fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                    v.to_le_bytes().iter().fold(h, |h, &b| {
                        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
                    })
                }));
            }
        }
        assert!(engines[2].1.stats().retries > 0, "the poison fired");
        assert_eq!(digests, GOLDEN_RUNNER_FNV1A, "{digests:#x?}");
    }

    #[test]
    fn replicated_healthy_run_matches_unreplicated() {
        let (_g1, plain, _r1) = build_engine(6);
        let (_g2, repl, _r2) = build_replicated_engine(6, EngineConfig::default());
        assert!(repl.is_replicated());
        assert!(!plain.is_replicated());
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.07, 20, 5);
        for q in &w.queries {
            let a = plain.query(q);
            let b = repl.query(q);
            assert_eq!(a.records, b.records);
            assert_eq!(a.total_blocks, b.total_blocks, "replicas must not be read");
            assert_eq!(b.retries, 0);
            assert!(!b.incomplete);
        }
    }

    #[test]
    fn replicated_engine_survives_worker_failure() {
        // A worker fail-stops on its first request; every query still
        // returns the exact answer set of a healthy unreplicated engine —
        // the tentpole acceptance criterion.
        let (gf, engine, _r) = build_replicated_engine(
            6,
            fast_cfg().resilience(|r| r.with_faults(FaultPlan::kill_first(1))),
        );
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.08, 12, 29);
        let mut saw_retry = false;
        for q in &w.queries {
            let out = engine.query(q);
            let (_, mut expected) = gf.range_query(q);
            expected.sort_unstable_by_key(|r| r.id);
            assert!(
                same_records(&out.records, &expected),
                "degraded answers must be exact"
            );
            assert!(!out.incomplete);
            saw_retry |= out.retries > 0;
        }
        assert!(
            saw_retry,
            "the dead worker's buckets were never failed over"
        );
        let stats = engine.stats();
        assert!(!stats.workers[0].alive, "worker 0 should be marked dead");
        assert_eq!(stats.live_workers(), 5);
        assert!(stats.retries > 0);
        assert!(stats.failed_over_blocks > 0);
    }

    #[test]
    fn replicated_concurrent_run_survives_worker_failure() {
        let (gf, engine, _r) = build_replicated_engine(
            6,
            fast_cfg().resilience(|r| r.with_faults(FaultPlan::kill_first(1))),
        );
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.08, 12, 29);
        let (outcomes, tp) = engine.run_workload_concurrent(&w, 6);
        assert_eq!(outcomes.len(), 12);
        for (q, out) in w.queries.iter().zip(&outcomes) {
            let (_, mut expected) = gf.range_query(q);
            expected.sort_unstable_by_key(|r| r.id);
            assert!(same_records(&out.records, &expected));
            assert!(!out.incomplete);
        }
        assert!(tp.retries > 0 || tp.failed_over_blocks > 0);
        // The dead worker contributes no busy time after its death round.
        assert!(engine.stats().live_workers() == 5);
    }

    #[test]
    fn unreplicated_failure_degrades_without_panic() {
        let (_g, engine, _r) = build_engine_cfg(
            4,
            fast_cfg().resilience(|r| r.with_faults(FaultPlan::kill_first(1))),
        );
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.2, 8, 3);
        let mut incomplete_seen = false;
        for q in &w.queries {
            let out = engine.query(q); // must not panic
            incomplete_seen |= out.incomplete;
        }
        assert!(
            incomplete_seen,
            "losing a worker without replicas must surface incomplete answers"
        );
        assert_eq!(engine.stats().live_workers(), 3);
    }

    #[test]
    fn poisoned_request_fails_over_to_replica() {
        // Worker errors (not death): the reply carries an error, the
        // coordinator retries the buckets on their replicas, the answer
        // stays exact and the worker stays alive.
        let (gf, engine, _r) = build_replicated_engine(
            4,
            fast_cfg().resilience(|r| r.with_faults(FaultPlan::none().with_poison(1, 0))),
        );
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let out = engine.query(&q);
        let (_, mut expected) = gf.range_query(&q);
        expected.sort_unstable_by_key(|r| r.id);
        assert!(same_records(&out.records, &expected));
        assert!(out.retries >= 1);
        assert!(!out.incomplete);
        let stats = engine.stats();
        assert_eq!(stats.live_workers(), 4, "poison must not kill the worker");
        assert!(stats.workers[1].error_replies >= 1);
        // Subsequent queries are healthy again (poison was query 0 only).
        let again = engine.query(&q);
        assert!(same_records(&again.records, &expected));
        assert_eq!(again.retries, 0);
    }

    #[test]
    fn dropped_session_mid_flight_does_not_wedge_engine() {
        // A client vanishing between dispatch and collection: the worker's
        // reply send fails silently and the engine keeps serving others.
        let (gf, engine, _r) = build_engine(4);
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        {
            // Hand-roll a dispatch whose reply channel dies immediately.
            let (reply_tx, reply_rx) = unbounded();
            let (_buckets, plan, _inc) = engine.plan(&q);
            for (w, read) in plan {
                engine.slots[w]
                    .send(ToWorker::Process(vec![ReadRequest {
                        worker: w,
                        query_id: u64::MAX, // never a real pending id
                        seq: u64::MAX,
                        blocks: read.blocks,
                        query: q,
                        reply: reply_tx.clone(),
                    }]))
                    .expect("send");
            }
            drop(reply_tx);
            drop(reply_rx); // session gone before any reply lands
        }
        // The engine (same workers) still answers exactly.
        let out = engine.query(&q);
        let (_, mut expected) = gf.range_query(&q);
        expected.sort_unstable_by_key(|r| r.id);
        assert!(same_records(&out.records, &expected));
        assert_eq!(engine.stats().live_workers(), 4);
    }

    #[test]
    fn insert_then_immediate_read_is_answered_every_time() {
        // Every insert queues a WriteRaw (bucket splits queue several);
        // the read right behind it must see the record whether its slot is
        // served inline or through the channel.
        let (_gf, engine, _recs) = build_engine(4);
        let mut session = engine.session();
        let mut x = 7u64;
        let mut created = 0;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let p = Point::new2(
                ((x >> 16) % 10_000) as f64 / 100.0,
                ((x >> 40) % 10_000) as f64 / 100.0,
            );
            let out = engine.insert(Record::new(50_000 + i, p)).expect("insert");
            created += out.created_buckets.len();
            let [px, py] = [p.coords()[0], p.coords()[1]];
            let q = Rect::new2(px, py, px, py);
            let got = session.query(&q);
            assert!(
                got.records.iter().any(|r| r.id == 50_000 + i),
                "insert {i} at {p:?} not visible to the next read"
            );
        }
        assert!(created > 0, "the inserts must split buckets");
    }

    #[test]
    fn query_finding_its_slot_locked_serves_the_others_then_waits_for_it() {
        let (gf, engine, _r) = build_engine_cfg(4, EngineConfig::default());
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let expected = oracle(&gf, &q);
        assert!(
            same_records(&engine.query(&q).records, &expected),
            "all slots free"
        );
        let batches = |w: usize| engine.shared.workers[w].batches.load(Ordering::Relaxed);
        let before: Vec<u64> = (0..4).map(batches).collect();
        let crate::backend::Slot::Local(local) = &engine.slots[0].0 else {
            panic!("a fault-free slot is in-process");
        };
        let held = local.state.lock().expect("slot lock");
        std::thread::scope(|s| {
            let query = s.spawn(|| engine.query(&q));
            // The query serves every free slot first, then waits for slot
            // 0's lock.
            while (1..4).any(|w| batches(w) == before[w]) {
                std::thread::yield_now();
            }
            assert_eq!(batches(0), before[0], "slot 0 waits for its lock");
            drop(held);
            let out = query.join().expect("query thread");
            assert!(same_records(&out.records, &expected));
            assert!(!out.incomplete);
        });
        assert_eq!(batches(0), before[0] + 1, "slot 0 served once");
    }

    /// Records matching `q`, sorted by id — the fault-free oracle.
    fn oracle(gf: &GridFile, q: &Rect) -> Vec<Record> {
        let (_, mut expected) = gf.range_query(q);
        expected.sort_unstable_by_key(|r| r.id);
        expected
    }

    #[test]
    fn dropped_request_is_retransmitted_and_answers_exactly() {
        // The first delivery to worker 0 vanishes; the coordinator's
        // timeout-driven retransmit (same seq) gets through.
        let cfg = fast_cfg().resilience(|r| r.with_faults(FaultPlan::none().with_drop(0, 0, 1)));
        let (gf, engine, _r) = build_engine_cfg(4, cfg);
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let out = engine.query(&q);
        assert!(same_records(&out.records, &oracle(&gf, &q)));
        assert!(!out.incomplete);
        assert_eq!(out.retries, 0, "retransmit is not a failover");
        let stats = engine.stats();
        assert!(stats.retransmits >= 1, "stats: {stats:?}");
        assert_eq!(stats.live_workers(), 4, "drop must not declare deaths");
    }

    #[test]
    fn persistently_dropped_request_exhausts_retransmits_then_fails_over() {
        // Every delivery to worker 0 vanishes. Retransmits are bounded, so
        // the engine must eventually declare the worker and (unreplicated)
        // answer incomplete rather than hang. A tight strike limit keeps
        // the test fast and exercises the max_timeout_strikes knob.
        let cfg = fast_cfg().resilience(|r| {
            r.with_max_timeout_strikes(8)
                .with_faults(FaultPlan::none().with_drop(0, 0, u32::MAX))
        });
        let (_gf, engine, _r) = build_engine_cfg(4, cfg);
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let out = engine.query(&q);
        assert!(out.incomplete, "no replica to recover the dropped blocks");
        let stats = engine.stats();
        assert!(stats.retransmits >= 1);
        // Query 1 is not in the drop plan: the engine still serves what the
        // remaining workers hold.
        let out2 = engine.query(&q);
        assert!(!out2.records.is_empty());
    }

    #[test]
    fn duplicated_replies_never_duplicate_records() {
        // Every worker answers query 0 twice; seq matching merges each
        // logical reply exactly once.
        let mut faults = FaultPlan::none();
        for w in 0..4 {
            faults = faults.with_duplicate(w, 0);
        }
        let (gf, engine, _r) =
            build_engine_cfg(4, fast_cfg().resilience(|r| r.with_faults(faults)));
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let out = engine.query(&q);
        let ids: Vec<u64> = out.records.iter().map(|r| r.id).collect();
        let unique: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(ids.len(), unique.len(), "duplicate records merged");
        assert!(same_records(&out.records, &oracle(&gf, &q)));
        assert!(!out.incomplete);
    }

    #[test]
    fn delayed_reply_is_deduped_against_its_own_retransmits() {
        // Worker 0 sleeps 120 ms before answering while the coordinator
        // polls every 25 ms: retransmits fire, the worker dedups the
        // redeliveries, and the one real reply merges exactly once.
        let cfg = fast_cfg().resilience(|r| r.with_faults(FaultPlan::none().with_delay(0, 0, 120)));
        let (gf, engine, _r) = build_engine_cfg(4, cfg);
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let out = engine.query(&q);
        assert!(same_records(&out.records, &oracle(&gf, &q)));
        assert!(!out.incomplete);
        // Worker 0 may still hold retransmits it has not read. Shutdown
        // queues behind them, so once it returns every one was deduped.
        engine.shutdown();
        let stats = engine.stats();
        assert_eq!(stats.live_workers(), 4, "slow is not dead");
        let deduped: u64 = stats.workers.iter().map(|w| w.dup_requests_dropped).sum();
        assert_eq!(
            stats.retransmits, deduped,
            "every retransmit of the delayed request must be deduped"
        );
    }

    #[test]
    fn reordered_replies_are_matched_by_seq_not_position() {
        // Workers reverse the reply order of every batch; a concurrent
        // window makes batches multi-reply so the reordering is real.
        let mut faults = FaultPlan::none();
        for w in 0..4 {
            faults = faults.with_reorder(w, 0);
        }
        let (gf, engine, _r) =
            build_engine_cfg(4, fast_cfg().resilience(|r| r.with_faults(faults)));
        let workload = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.4, 12, 99);
        let (outcomes, tp) = engine.run_workload_concurrent(&workload, 4);
        assert_eq!(tp.queries, 12);
        for (q, out) in workload.queries.iter().zip(&outcomes) {
            assert!(same_records(&out.records, &oracle(&gf, q)), "query {q:?}");
            assert!(!out.incomplete);
        }
    }

    #[test]
    fn answer_order_is_the_same_on_every_path() {
        // The contract on `QueryOutcome::records`: grouped by serving slot
        // in ascending order, each slot's hits in plan order (its buckets
        // ascending, each bucket's records in page order). Sessions, the
        // concurrent runner and fault plans that delay, reorder or
        // duplicate replies all give that one sequence.
        let w = QueryWorkload::square(&Rect::new2(0.0, 0.0, 100.0, 100.0), 0.3, 12, 41);
        let (gf, engine, _r) = build_engine(4);
        let in_plan_order: Vec<Vec<Record>> = {
            let cat = engine.catalog.read().expect("catalog lock");
            w.queries
                .iter()
                .map(|q| {
                    let mut buckets = gf.range_query_buckets(q);
                    buckets.sort_unstable_by_key(|b| (cat.placement[b].primary.0, *b));
                    buckets
                        .iter()
                        .flat_map(|&b| gf.bucket_records(b))
                        .filter(|r| q.contains_closed(&r.point))
                        .copied()
                        .collect()
                })
                .collect()
        };
        let mut session = engine.session();
        let mut paths: Vec<(&str, Vec<Vec<Record>>)> = vec![(
            "session",
            w.queries.iter().map(|q| session.query(q).records).collect(),
        )];
        let mut reorder = FaultPlan::none().with_delay(0, 0, 40);
        let mut duplicate = FaultPlan::none();
        for worker in 0..4 {
            reorder = reorder.with_reorder(worker, 0);
            duplicate = duplicate.with_duplicate(worker, 3);
        }
        for (name, faults) in [
            ("runner", FaultPlan::none()),
            ("runner, slot 0 late and replies reordered", reorder),
            ("runner, requests duplicated", duplicate),
        ] {
            let (_g, engine, _r) =
                build_engine_cfg(4, fast_cfg().resilience(|r| r.with_faults(faults)));
            let (outcomes, _) = engine.run_workload_concurrent(&w, 4);
            paths.push((name, outcomes.into_iter().map(|o| o.records).collect()));
        }
        for (name, answers) in &paths {
            for (k, (q, got)) in w.queries.iter().zip(answers).enumerate() {
                assert_eq!(got, &in_plan_order[k], "{name}, query {k}");
                assert!(same_records(got, &oracle(&gf, q)), "{name}, query {k}");
            }
        }
    }

    #[test]
    fn corrupt_block_is_answered_by_replica_and_scrubbed() {
        // Worker 0 flips a byte in its block 0. The checksum catches it,
        // the replica answers the query, and the scrubber rewrites the
        // block from the replica copy so the next read is clean.
        let cfg =
            fast_cfg().resilience(|r| r.with_faults(FaultPlan::none().with_corrupt_block(0, 0)));
        let (gf, engine, _r) = build_replicated_engine(4, cfg);
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let out = engine.query(&q);
        assert!(same_records(&out.records, &oracle(&gf, &q)));
        assert!(!out.incomplete);
        assert!(out.retries >= 1, "replica must have answered");
        let stats = engine.stats();
        assert!(stats.scrubbed >= 1, "stats: {stats:?}");
        // Give the worker a beat to apply the queued WriteRaw, then verify
        // the block reads clean: no retries, still exact.
        std::thread::sleep(Duration::from_millis(50));
        let out2 = engine.query(&q);
        assert!(same_records(&out2.records, &oracle(&gf, &q)));
        assert_eq!(out2.retries, 0, "corruption must be repaired in place");
        assert_eq!(engine.stats().scrubbed, stats.scrubbed);
    }

    #[test]
    fn corrupt_block_without_replica_is_incomplete_not_fatal() {
        let cfg =
            fast_cfg().resilience(|r| r.with_faults(FaultPlan::none().with_corrupt_block(0, 0)));
        let (gf, engine, _r) = build_engine_cfg(4, cfg);
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let out = engine.query(&q);
        assert!(out.incomplete, "no replica to answer or repair from");
        assert_eq!(engine.stats().scrubbed, 0);
        // Untouched buckets still answer.
        let expected = oracle(&gf, &q);
        assert!(!out.records.is_empty());
        assert!(out.records.len() < expected.len());
        assert!(out.records.iter().all(|r| expected.contains(r)));
    }

    #[test]
    fn poisoned_query_without_replica_is_incomplete_then_recovers() {
        // Satellite: PoisonQuery on the unreplicated path. The poisoned
        // request surfaces as an explicit incomplete answer (no replica to
        // retry against), the worker stays alive, and the next query is
        // whole again.
        let cfg = fast_cfg().resilience(|r| r.with_faults(FaultPlan::none().with_poison(0, 0)));
        let (gf, engine, _r) = build_engine_cfg(4, cfg);
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let out = engine.query(&q);
        assert!(out.incomplete);
        assert_eq!(out.hedges, 0);
        let expected = oracle(&gf, &q);
        assert!(out.records.iter().all(|r| expected.contains(r)));
        assert!(out.records.len() < expected.len());
        let stats = engine.stats();
        assert_eq!(stats.live_workers(), 4, "poison is per-query, not fatal");
        let out2 = engine.query(&q);
        assert!(same_records(&out2.records, &expected));
        assert!(!out2.incomplete);
    }

    #[test]
    fn deadline_bounds_a_stalled_query_and_marks_it_incomplete() {
        // Worker 0 swallows every delivery of query 0 and there is no
        // replica: without a deadline the query would only resolve at the
        // (slow) strike limit. The deadline budget cuts it off and answers
        // explicitly incomplete; the engine survives.
        let cfg = fast_cfg()
            .latency(|l| l.with_deadline_us(150_000))
            .resilience(|r| r.with_faults(FaultPlan::none().with_drop(0, 0, u32::MAX)));
        let (gf, engine, _r) = build_engine_cfg(4, cfg);
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let started = std::time::Instant::now();
        let out = engine.query(&q);
        assert!(out.incomplete);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline must cut the wait far below the strike limit"
        );
        let stats = engine.stats();
        assert!(stats.deadline_expired >= 1, "stats: {stats:?}");
        // Query 1 is unfaulted and fast: well inside the deadline.
        let out2 = engine.query(&q);
        assert!(same_records(&out2.records, &oracle(&gf, &q)));
        assert!(!out2.incomplete);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn slow_primary_is_hedged_against_its_replica() {
        // Worker 0 is a straggler (`SlowDisk`), and the target query's reply
        // from it is held a fixed `HOLD_MS` on top, so how long the primary
        // takes does not depend on the host's speed. After a warmup that
        // avoids worker 0 fills the latency baseline, the target's one
        // request lands on worker 0 and is hedged to the replica once it
        // has waited 2 x p95 on the wall clock. The replica's answer wins:
        // the query returns exact while the primary still holds its reply,
        // which arrives later and is dropped.
        const WARMUP: u64 = 24;
        const HOLD_MS: u64 = 2_000;
        let faults = FaultPlan::none()
            .with_slow_disk(0, 2)
            .with_delay(0, WARMUP, HOLD_MS);
        let cfg = fast_cfg()
            .latency(|l| l.with_hedging(2.0))
            .resilience(|r| r.with_faults(faults));
        let (gf, engine, recs) = build_replicated_engine(4, cfg);
        let tiny = |r: &Record| {
            let [x, y] = [r.point.coords()[0], r.point.coords()[1]];
            Rect::new2(x - 0.01, y - 0.01, x + 0.01, y + 0.01)
        };
        let mut session = engine.session();
        let mut warmed = 0;
        for q in recs.iter().map(tiny) {
            let (_b, plan, _inc) = engine.plan(&q);
            if !plan.is_empty() && !plan.contains_key(&0) {
                session.query(&q);
                warmed += 1;
                if warmed == WARMUP {
                    break;
                }
            }
        }
        assert!(engine.service_hist.count() >= HEDGE_MIN_SAMPLES);
        let target = recs
            .iter()
            .map(tiny)
            .find(|q| {
                let (_b, plan, _inc) = engine.plan(q);
                plan.len() == 1
                    && plan.contains_key(&0)
                    && engine.hedge_target(&plan[&0].buckets, 0).is_some()
            })
            .expect("some record resolves to a hedgeable worker-0 request");
        assert_eq!(
            engine.next_query_id.load(Ordering::Relaxed),
            WARMUP,
            "the target is the query the delay fault names"
        );
        let out = session.query(&target);
        assert!(same_records(&out.records, &oracle(&gf, &target)));
        assert!(!out.incomplete);
        assert_eq!(out.hedges, 1, "outcome: {out:?}");
        assert_eq!(out.retries, 0, "a hedge is speculation, not failover");
        assert!(
            session.reply_rx.is_empty(),
            "the query returned before the primary's held reply"
        );
        let late = session
            .reply_rx
            .recv_timeout(Duration::from_millis(HOLD_MS) + Duration::from_secs(30))
            .expect("the primary replies in the end");
        assert_eq!(late.worker_id, 0);
    }

    #[test]
    fn submit_after_close_returns_session_closed_error() {
        // Regression: a submit hitting closed worker channels must come
        // back as a typed error, not hang on a reply that will never arrive
        // and not panic on the closed transport. Covers both orderings — a
        // query issued after shutdown, and one whose dispatch raced the
        // channels closing.
        let (_gf, engine, _recs) = build_engine_cfg(4, fast_cfg());
        let mut session = engine.session();
        let q = Rect::new2(20.0, 20.0, 60.0, 60.0);
        let out = session.try_query(&q).expect("engine is live");
        assert!(!out.incomplete);

        engine.shutdown();
        let start = std::time::Instant::now();
        match session.try_query(&q) {
            Err(EngineError::SessionClosed) => {}
            other => panic!("expected SessionClosed, got {other:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "closed-session submit must fail fast, took {:?}",
            start.elapsed()
        );
        // A fresh session on the dead engine reports the same typed error.
        let mut late = engine.session();
        assert!(matches!(
            late.try_query(&q),
            Err(EngineError::SessionClosed)
        ));
    }

    /// Everything the whole domain holds, via the engine.
    fn all_records(engine: &ParallelGridFile) -> Vec<Record> {
        engine.query(&Rect::new2(0.0, 0.0, 100.0, 100.0)).records
    }

    #[test]
    fn insert_then_query_reads_your_write() {
        let (_gf, engine, recs) = build_engine(4);
        let fresh = Record::new(10_000, Point::new2(42.5, 42.5));
        let out = engine.insert(fresh).unwrap();
        assert!(out.applied);
        assert!(!out.rewritten_buckets.is_empty() || !out.created_buckets.is_empty());
        let q = Rect::new2(40.0, 40.0, 45.0, 45.0);
        let got: Vec<u64> = engine.query(&q).records.iter().map(|r| r.id).collect();
        assert!(got.contains(&10_000), "insert must be query-visible");

        let out = engine.delete(10_000, &Point::new2(42.5, 42.5)).unwrap();
        assert!(out.applied);
        let got: Vec<u64> = engine.query(&q).records.iter().map(|r| r.id).collect();
        assert!(!got.contains(&10_000), "delete must be query-visible");

        // Deleting an absent record applies cleanly but changes nothing.
        let out = engine.delete(99_999, &Point::new2(1.0, 1.0)).unwrap();
        assert!(!out.applied);
        assert_eq!(engine.len(), recs.len() as u64);
        assert_eq!(engine.shutdown(), 4);
    }

    #[test]
    fn mutations_split_and_merge_buckets_through_the_engine() {
        let (_gf, engine, recs) = build_engine(4);
        // Hammer one spot: capacity-8 buckets must split repeatedly.
        let mut created = 0usize;
        let mut expected = recs.clone();
        for i in 0..120u64 {
            let p = Point::new2(30.0 + (i % 40) as f64 * 0.01, 70.0 + (i / 40) as f64 * 0.01);
            let out = engine.insert(Record::new(20_000 + i, p)).unwrap();
            created += out.created_buckets.len();
            expected.push(Record::new(20_000 + i, p));
        }
        assert!(created > 0, "120 clustered inserts must split buckets");
        assert_eq!(engine.len(), recs.len() as u64 + 120);
        assert!(
            same_records(&all_records(&engine), &expected),
            "no records lost or duplicated"
        );

        // Drain the hot spot again: merges must free buckets.
        let mut freed = 0usize;
        for i in 0..120u64 {
            let p = Point::new2(30.0 + (i % 40) as f64 * 0.01, 70.0 + (i / 40) as f64 * 0.01);
            let out = engine.delete(20_000 + i, &p).unwrap();
            assert!(out.applied);
            freed += out.freed_buckets.len();
        }
        assert!(freed > 0, "draining the hot spot must merge buckets");
        assert!(
            same_records(&all_records(&engine), &recs),
            "back to the original set"
        );
        engine.snapshot_grid().check_invariants();
        assert_eq!(engine.shutdown(), 4);
    }

    #[test]
    fn replicated_mutations_place_both_copies_and_survive_a_dead_worker() {
        let (_gf, engine, recs) = build_replicated_engine(
            4,
            fast_cfg().resilience(|r| r.with_faults(FaultPlan::kill_first(1))),
        );
        let mut expected = recs.clone();
        for i in 0..90u64 {
            let p = Point::new2(60.0 + (i % 30) as f64 * 0.01, 20.0 + (i / 30) as f64 * 0.01);
            engine.insert(Record::new(30_000 + i, p)).unwrap();
            expected.push(Record::new(30_000 + i, p));
        }
        // Every bucket — including split-created ones — has two copies on
        // distinct workers.
        {
            let cat = engine.catalog.read().unwrap();
            for (id, pl) in &cat.placement {
                let (rw, rblocks) = pl
                    .replica
                    .as_ref()
                    .unwrap_or_else(|| panic!("bucket {id} lost its replica after mutations"));
                assert_ne!(pl.primary.0, *rw, "bucket {id} replica on its own worker");
                assert_eq!(
                    pl.primary.1.len(),
                    rblocks.len(),
                    "bucket {id} copies must stay positionally aligned"
                );
            }
        }
        // Worker 0 dies after its first reply; chained replicas must still
        // answer with the full record set (including every fresh insert).
        // First query trips the kill fault; the second plans around the
        // corpse entirely.
        let _ = engine.query(&Rect::new2(0.0, 0.0, 100.0, 100.0));
        let out = engine.query(&Rect::new2(0.0, 0.0, 100.0, 100.0));
        assert!(!out.incomplete, "replicas must cover the dead worker");
        assert!(
            same_records(&out.records, &expected),
            "failover reads lose or duplicate nothing"
        );
        assert_eq!(engine.shutdown(), 4);
    }

    #[test]
    fn wal_and_checkpoint_round_trip_through_recovery() {
        use pargrid_gridfile::DurableGridFile;
        let dir = std::env::temp_dir().join(format!(
            "pargrid_engine_wal_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let (_gf, engine, _recs) = build_engine(3);
        let cfg = engine.snapshot_grid().config().clone();
        engine.attach_wal(
            Wal::open_append(dir.join(pargrid_gridfile::durable::WAL_FILE), 0).unwrap(),
        );
        for i in 0..25u64 {
            engine
                .insert(Record::new(40_000 + i, Point::new2(i as f64 + 0.5, 50.0)))
                .unwrap();
        }
        engine.delete(40_003, &Point::new2(3.5, 50.0)).unwrap();
        assert!(engine.wal_len_bytes() > 0);

        // Mid-stream checkpoint folds the log into the image...
        assert!(engine.checkpoint().unwrap());
        assert_eq!(engine.wal_len_bytes(), 0);
        // ...and later mutations land in the fresh WAL.
        engine
            .insert(Record::new(50_000, Point::new2(99.0, 99.0)))
            .unwrap();
        assert!(engine.wal_len_bytes() > 0);

        // Recovery = checkpoint image + WAL replay: byte-for-byte the same
        // record set the live engine holds.
        let live = engine.snapshot_grid();
        let recovered = DurableGridFile::open(&dir, cfg).unwrap();
        assert_eq!(recovered.recovered_ops(), 1);
        assert_eq!(recovered.grid().len(), live.len());
        let whole = Rect::new2(0.0, 0.0, 100.0, 100.0);
        assert_eq!(
            recovered.grid().range_query(&whole).1,
            live.range_query(&whole).1,
            "recovered grid must answer identically to the live engine"
        );
        assert_eq!(engine.shutdown(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
