//! Workers: own a local disk array, serve batched block-read requests,
//! filter records, ship qualifying records back to whichever session asked.
//!
//! One service function, [`WorkerState::serve`], answers every read batch.
//! A fault-free in-process slot is a `LocalSlot`: its state behind a lock,
//! served under that lock on whichever thread sends to it — a session's
//! read, a runner's batch and a mutation's block writes alike. A
//! fault-armed slot runs [`run_worker`]'s thread loop instead, which owns
//! its state, blocks on the slot's channel, then drains every message
//! already waiting. Either way a batch is serviced as **one elevator
//! batch**: all requests' blocks go through the disks in sorted order
//! (interactive requests in a first pass, batch requests in a second), but
//! virtual time and cache hits are attributed to each request
//! individually, so per-query response-time metrics stay paper-faithful
//! while concurrent queries share arm movement.
//!
//! Requests are **idempotent at the worker**: each carries an engine-global
//! dispatch sequence number, and a worker remembers the seqs it has already
//! serviced (a bounded window), silently discarding redeliveries. That makes
//! coordinator retransmits safe — a retransmit of a request whose reply was
//! merely slow cannot cause the same blocks to be read and returned twice.

use crate::backend::SlotHandle;
use crate::disk::{DiskModel, DiskParams};
use crate::error::StoreError;
use crate::fault::FaultKind;
use crate::message::{FromWorker, QueryPriority, RawBlocks, ReadRequest, ToWorker};
use crate::stats::WorkerCounters;
use crate::store::BlockStore;
use crossbeam::channel::{unbounded, SendError};
use pargrid_geom::Rect;
use pargrid_gridfile::page::{scan_page, HEADER_BYTES};
use pargrid_gridfile::Record;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

/// Virtual CPU cost of decoding and filtering one record, nanoseconds.
/// (A ~60 MHz POWER2 node touching a 50-byte record: a few hundred ns.)
const CPU_NS_PER_RECORD: u64 = 300;

/// Most records a request's hit vector is pre-sized for (4 MB of records;
/// a `scan`-class request of ≈ 18 blocks needs a twentieth of it).
const MAX_PRESIZED_HITS: usize = 1 << 16;

/// Default for how many serviced dispatch seqs a worker remembers for dedup
/// (see [`WorkerState::with_seen_seq_window`]). Far larger than any
/// realistic in-flight window; bounded so a long-lived worker's memory
/// stays flat.
pub const DEFAULT_SEEN_SEQ_WINDOW: usize = 4096;

/// One request of a batch, borrowed from wherever it arrived.
struct RequestSpec<'a> {
    query_id: u64,
    seq: u64,
    blocks: &'a [u32],
    query: &'a Rect,
    priority: QueryPriority,
}

/// A worker's local state: its disk blocks and disk array.
///
/// The paper's SP-2 had **seven disks per processor** (§4, "16 processor
/// SP-2 with 112 disks"); a worker therefore owns `D >= 1` independent
/// disks, blocks striped across them round-robin (`disk = block mod D`). A
/// batch's service time is the *maximum* over the worker's disks — they
/// seek in parallel.
pub struct WorkerState {
    /// This worker's index.
    pub worker_id: usize,
    /// Raw pages by block id (in memory or in a per-worker file).
    pub store: BlockStore,
    /// Record payload size (needed to decode pages).
    pub payload_bytes: usize,
    /// The worker's disks (one or more).
    pub disks: Vec<DiskModel>,
    /// Injected faults applying to this worker (empty = healthy).
    pub faults: Vec<FaultKind>,
    /// Remaining silent-discard deliveries per query number (the
    /// [`FaultKind::DropRequest`] budget).
    drop_budget: Vec<(u64, u32)>,
    /// Dispatch seqs already serviced (dedup set + FIFO eviction order).
    seen_seqs: HashSet<u64>,
    seen_order: VecDeque<u64>,
    /// Capacity of the dedup window (see
    /// [`WorkerState::with_seen_seq_window`]).
    seen_seq_window: usize,
    /// Whether the one-shot [`FaultKind::CorruptBlock`] faults have fired.
    corruption_done: bool,
    /// Cumulative wall busy time, which advances the recorder's global
    /// virtual clock (fetch_max across workers).
    #[cfg(feature = "obs")]
    busy_accum: u64,
    /// Trace recorder (installed by the engine when configured with one).
    #[cfg(feature = "obs")]
    pub recorder: Option<Arc<pargrid_obs::Recorder>>,
}

impl WorkerState {
    /// Creates a single-disk worker with an empty in-memory store.
    pub fn new(worker_id: usize, payload_bytes: usize, disk_params: DiskParams) -> Self {
        Self::with_store(worker_id, payload_bytes, disk_params, BlockStore::memory())
    }

    /// Creates a single-disk worker over an explicit store.
    pub fn with_store(
        worker_id: usize,
        payload_bytes: usize,
        disk_params: DiskParams,
        store: BlockStore,
    ) -> Self {
        Self::with_disks(worker_id, payload_bytes, disk_params, store, 1)
    }

    /// Creates a worker with `n_disks` local disks (the SP-2's 7-per-node
    /// configuration uses 7).
    ///
    /// # Panics
    /// Panics if `n_disks` is zero.
    pub fn with_disks(
        worker_id: usize,
        payload_bytes: usize,
        disk_params: DiskParams,
        store: BlockStore,
        n_disks: usize,
    ) -> Self {
        assert!(n_disks >= 1, "a worker needs at least one disk");
        WorkerState {
            worker_id,
            store,
            payload_bytes,
            disks: (0..n_disks).map(|_| DiskModel::new(disk_params)).collect(),
            faults: Vec::new(),
            drop_budget: Vec::new(),
            seen_seqs: HashSet::new(),
            seen_order: VecDeque::new(),
            seen_seq_window: DEFAULT_SEEN_SEQ_WINDOW,
            corruption_done: false,
            #[cfg(feature = "obs")]
            busy_accum: 0,
            #[cfg(feature = "obs")]
            recorder: None,
        }
    }

    /// Installs injected faults (see [`crate::fault::FaultPlan`]). Straggler
    /// faults take effect immediately (the disks slow down); drop budgets
    /// are armed; everything else fires from the message loop.
    pub fn with_faults(mut self, faults: Vec<FaultKind>) -> Self {
        for f in &faults {
            match *f {
                FaultKind::SlowDisk(factor) => {
                    for d in &mut self.disks {
                        d.set_slowdown(factor);
                    }
                }
                FaultKind::DropRequest { query, times } => {
                    self.drop_budget.push((query, times));
                }
                _ => {}
            }
        }
        self.faults = faults;
        self
    }

    /// Sets the dedup-window capacity (clamped to >= 1). A wire worker
    /// sizes this to the window its coordinator announces at join; the
    /// engine's in-process workers keep the default
    /// ([`DEFAULT_SEEN_SEQ_WINDOW`]).
    pub fn with_seen_seq_window(mut self, window: usize) -> Self {
        self.seen_seq_window = window.max(1);
        self
    }

    /// Lifetime blocks read across the worker's disks.
    fn blocks_read_total(&self) -> u64 {
        self.disks.iter().map(DiskModel::blocks_read).sum()
    }

    /// Whether an injected fail-stop triggers for this batch: either the
    /// lifetime block count has been reached, or a request at/past the kill
    /// query number arrived.
    fn should_die(&self, batch: &[ReadRequest]) -> bool {
        self.faults.iter().any(|f| match *f {
            FaultKind::DieAfterBlocks(n) => self.blocks_read_total() >= n,
            FaultKind::DieAtQuery(q) => batch.iter().any(|r| r.query_id >= q),
            _ => false,
        })
    }

    /// Whether query `query_id` is poisoned for this worker.
    fn is_poisoned(&self, query_id: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(*f, FaultKind::PoisonQuery(q) if q == query_id))
    }

    /// Consumes one delivery of the drop budget for `query_id`, returning
    /// whether this delivery should be silently discarded.
    fn consume_drop(&mut self, query_id: u64) -> bool {
        for (q, times) in &mut self.drop_budget {
            if *q == query_id && *times > 0 {
                *times -= 1;
                return true;
            }
        }
        false
    }

    /// Records a serviced dispatch seq in the bounded dedup window.
    fn note_seen(&mut self, seq: u64) {
        if self.seen_seqs.insert(seq) {
            self.seen_order.push_back(seq);
            if self.seen_order.len() > self.seen_seq_window {
                if let Some(old) = self.seen_order.pop_front() {
                    self.seen_seqs.remove(&old);
                }
            }
        }
    }

    /// Fires any one-shot block-corruption faults (once, before the first
    /// batch is serviced — the store is loaded after construction, so this
    /// is the earliest point the target blocks exist).
    fn apply_corruption_faults(&mut self) {
        if self.corruption_done {
            return;
        }
        self.corruption_done = true;
        let targets: Vec<u32> = self
            .faults
            .iter()
            .filter_map(|f| match *f {
                FaultKind::CorruptBlock(b) => Some(b),
                _ => None,
            })
            .collect();
        for b in targets {
            self.store.corrupt(b);
        }
    }

    /// Services one dispatched request end-to-end, retransmit dedup
    /// included — the public surface a *wire* worker runtime (the
    /// `pargrid-cluster` worker process) drives instead of a slot thread.
    ///
    /// Returns `None` when `seq` is already inside the seen-seq window: the
    /// request was serviced before and must not be re-executed. The caller
    /// answers such a redelivery from its reply cache, so a retransmitted
    /// dispatch whose original reply was lost with a dropped connection is
    /// answered once, never executed twice.
    pub fn service_dispatch(
        &mut self,
        query_id: u64,
        seq: u64,
        blocks: &[u32],
        query: &Rect,
        priority: QueryPriority,
    ) -> Option<FromWorker> {
        if self.seen_seqs.contains(&seq) {
            return None;
        }
        let reply = self
            .service_batch(&[RequestSpec {
                query_id,
                seq,
                blocks,
                query,
                priority,
            }])
            .pop()
            .expect("one request in, one reply out");
        self.note_seen(seq);
        Some(reply)
    }

    /// Raw verified block bytes (the scrub/repair read surface), public
    /// for the wire-worker runtime. See [`crate::message::ToWorker::FetchRaw`].
    pub fn fetch_raw_blocks(&self, blocks: &[u32]) -> RawBlocks {
        self.fetch_raw(blocks)
    }

    /// Writes raw blocks — bulk upload, scrub repair material, or a
    /// mutation's rewritten pages — public for the wire-worker runtime.
    /// See [`crate::message::ToWorker::WriteRaw`].
    pub fn write_raw_blocks(&mut self, blocks: Vec<(u32, Vec<u8>)>) {
        self.write_raw(blocks)
    }

    /// Handles one read request synchronously (also used directly by unit
    /// tests, without threads).
    pub fn handle_read(&mut self, query_id: u64, blocks: Vec<u32>, query: &Rect) -> FromWorker {
        self.service_batch(&[RequestSpec {
            query_id,
            seq: query_id,
            blocks: &blocks,
            query,
            priority: QueryPriority::Interactive,
        }])
        .pop()
        .expect("one request in, one reply out")
    }

    /// Services several requests as one combined elevator batch.
    ///
    /// Per disk, all requests' blocks are issued in sorted order (stripe
    /// `b % D` to disk, local index `b / D`), interactive pass before batch
    /// pass. Each block's cost is charged to the request that asked for it;
    /// a request's disk time is the maximum over disks of its own charges,
    /// since the disks seek in parallel.
    fn service_batch(&mut self, requests: &[RequestSpec<'_>]) -> Vec<FromWorker> {
        let d = self.disks.len();
        let mut disk_us = vec![0u64; requests.len() * d];
        let mut hits = vec![0u64; requests.len()];
        for pass in [QueryPriority::Interactive, QueryPriority::Batch] {
            // Per disk: (local block, request index), sorted for the
            // elevator. The request index tiebreak keeps duplicate blocks
            // deterministically ordered.
            let mut per_disk: Vec<Vec<(u32, usize)>> = vec![Vec::new(); d];
            for (idx, req) in requests.iter().enumerate() {
                if req.priority != pass {
                    continue;
                }
                for &b in req.blocks {
                    per_disk[b as usize % d].push((b / d as u32, idx));
                }
            }
            for (di, list) in per_disk.iter_mut().enumerate() {
                list.sort_unstable();
                for &(local, idx) in list.iter() {
                    let cost = self.disks[di].read_block(local);
                    disk_us[idx * d + di] += cost.us;
                    hits[idx] += cost.hit as u64;
                }
            }
        }

        requests
            .iter()
            .enumerate()
            .map(|(idx, req)| {
                let mut records = Vec::new();
                let mut scanned = 0u64;
                let mut error = None;
                let mut corrupt_blocks = Vec::new();
                for &b in req.blocks {
                    // An unreadable block fails only this request — disk
                    // time already charged in the elevator pass stays
                    // charged, the batch's other requests are unaffected,
                    // and the coordinator can retry against a replica. A
                    // checksum failure is additionally reported so the
                    // coordinator can scrub the block back to health.
                    //
                    // `read_block` borrows in-memory pages and reads file
                    // pages into one buffer, dropped with `page`. The scan is
                    // fused with the filter: it reads coordinates out of
                    // the verified block and builds records only for hits.
                    match self.store.read_block(b) {
                        Ok(page) => {
                            let page = page.as_ref();
                            if records.capacity() == 0 {
                                // Sized once: a store's blocks are all one
                                // size, so what the first holds times the
                                // block count bounds the request's hits.
                                // Capped, because a wire worker's block
                                // list comes off a socket; past the cap the
                                // vector grows as any other.
                                let per_page = page.len().saturating_sub(HEADER_BYTES)
                                    / Record::encoded_size(req.query.dim(), self.payload_bytes);
                                records.reserve_exact(
                                    req.blocks
                                        .len()
                                        .saturating_mul(per_page)
                                        .min(MAX_PRESIZED_HITS),
                                );
                            }
                            scanned +=
                                scan_page(page, self.payload_bytes, req.query, &mut records) as u64;
                        }
                        Err(e) => {
                            if matches!(e, StoreError::Corrupt { .. }) {
                                corrupt_blocks.push(b);
                            }
                            error = Some(format!(
                                "worker {} cannot read block {b}: {e}",
                                self.worker_id
                            ));
                            records.clear();
                            break;
                        }
                    }
                }
                FromWorker {
                    query_id: req.query_id,
                    seq: req.seq,
                    worker_id: self.worker_id,
                    blocks_requested: req.blocks.len() as u64,
                    cache_hits: hits[idx],
                    disk_us: disk_us[idx * d..(idx + 1) * d]
                        .iter()
                        .copied()
                        .max()
                        .unwrap_or(0),
                    cpu_us: scanned * CPU_NS_PER_RECORD / 1000,
                    records,
                    corrupt_blocks,
                    error,
                }
            })
            .collect()
    }

    /// Answers a [`ToWorker::FetchRaw`]: raw verified block bytes for the
    /// repair path. A block that is missing *or fails its own checksum*
    /// comes back `None` — a corrupt copy is never served as scrub
    /// material. Uncharged on the virtual clock: scrub traffic is
    /// background I/O, not query service.
    fn fetch_raw(&self, blocks: &[u32]) -> RawBlocks {
        RawBlocks {
            worker_id: self.worker_id,
            blocks: blocks
                .iter()
                .map(|&b| (b, self.store.get(b).ok()))
                .collect(),
        }
    }

    /// Applies a [`ToWorker::WriteRaw`]: writes local blocks with fresh
    /// bytes (scrub repair material or a mutation's rewritten/appended
    /// pages), refreshing their checksums. Every successful write
    /// invalidates the block in its disk's buffer cache — the next read
    /// must pay a miss and fetch the new bytes instead of being billed as a
    /// hit on the stale cached identity.
    fn write_raw(&mut self, blocks: Vec<(u32, Vec<u8>)>) {
        let d = self.disks.len();
        for (b, bytes) in blocks {
            // A failed write (size mismatch) leaves the block as-is; the
            // next read reports it again.
            if self.store.upsert(b, bytes).is_ok() {
                self.disks[b as usize % d].invalidate(b / d as u32);
            }
        }
    }

    /// Publishes lifetime totals and cache gauges after a batch.
    fn publish(&self, counters: &WorkerCounters, batch_len: u64, wall_us: u64, errors: u64) {
        let blocks: u64 = self.disks.iter().map(DiskModel::blocks_read).sum();
        let hits: u64 = self.disks.iter().map(DiskModel::cache_hits).sum();
        let busy: u64 = self.disks.iter().map(DiskModel::busy_us).sum();
        let cache_len = self
            .disks
            .iter()
            .map(DiskModel::cache_len)
            .max()
            .unwrap_or(0) as u64;
        counters.blocks_fetched.store(blocks, Ordering::Relaxed);
        counters.cache_hits.store(hits, Ordering::Relaxed);
        counters.disk_busy_us.store(busy, Ordering::Relaxed);
        counters.busy_wall_us.fetch_add(wall_us, Ordering::Relaxed);
        counters.error_replies.fetch_add(errors, Ordering::Relaxed);
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters
            .batched_requests
            .fetch_add(batch_len, Ordering::Relaxed);
        counters.max_batch.fetch_max(batch_len, Ordering::Relaxed);
        counters.cache_len.store(cache_len, Ordering::Relaxed);
        counters
            .max_cache_len
            .fetch_max(cache_len, Ordering::Relaxed);
    }

    /// Takes one message sent to the slot: reads join `batch`, raw reads
    /// and writes are applied at once. `false` means shut down. Every
    /// message names this worker's slot (an in-process slot is never
    /// shared).
    fn accept(&mut self, msg: ToWorker, batch: &mut Vec<ReadRequest>) -> bool {
        match msg {
            ToWorker::Process(reqs) => {
                debug_assert!(reqs.iter().all(|r| r.worker == self.worker_id));
                batch.extend(reqs);
            }
            ToWorker::FetchRaw {
                worker,
                blocks,
                reply,
            } => {
                debug_assert_eq!(worker, self.worker_id);
                let _ = reply.send(self.fetch_raw(&blocks));
            }
            ToWorker::WriteRaw { worker, blocks } => {
                debug_assert_eq!(worker, self.worker_id);
                self.write_raw(blocks);
            }
            ToWorker::Shutdown => return false,
        }
        true
    }

    /// Services one batch of read requests end to end and sends each its
    /// reply — the one service function, run by an in-process slot's
    /// sender on what it sent and by [`run_worker`]'s thread on what it
    /// drained off its channel. `false` means an injected fail-stop fired:
    /// the slot is marked dead and nothing was replied.
    ///
    /// Channel faults act first: deliveries with drop budget left vanish,
    /// and redeliveries of seqs already serviced are deduped. The survivors
    /// go through the disks as one elevator pass; replies then carry the
    /// poison, delay, reorder and duplicate faults.
    pub fn serve(&mut self, batch: Vec<ReadRequest>, counters: Option<&WorkerCounters>) -> bool {
        let mut kept = Vec::with_capacity(batch.len());
        let mut deduped = 0u64;
        for req in batch {
            if self.consume_drop(req.query_id) {
                continue;
            }
            if self.seen_seqs.contains(&req.seq) {
                deduped += 1;
                continue;
            }
            kept.push(req);
        }
        let batch = kept;
        if deduped > 0 {
            if let Some(c) = counters {
                c.dup_requests_dropped.fetch_add(deduped, Ordering::Relaxed);
            }
        }
        if batch.is_empty() {
            return true;
        }
        // One-shot silent corruption fires before the first real service
        // pass.
        self.apply_corruption_faults();
        // Injected fail-stop: mark dead in the shared liveness table and
        // stop WITHOUT replying — exactly what a crashed node looks like to
        // the coordinator, which detects it via its reply timeout (or the
        // dead flag) and fails the stranded requests over to replicas.
        if self.should_die(&batch) {
            if let Some(c) = counters {
                c.dead.store(true, Ordering::Relaxed);
            }
            return false;
        }
        let specs: Vec<RequestSpec<'_>> = batch
            .iter()
            .map(|r| RequestSpec {
                query_id: r.query_id,
                seq: r.seq,
                blocks: &r.blocks,
                query: &r.query,
                priority: r.priority,
            })
            .collect();
        let disk_before: Vec<u64> = self.disks.iter().map(DiskModel::busy_us).collect();
        let mut replies = self.service_batch(&specs);
        for req in &batch {
            self.note_seen(req.seq);
        }
        // Poison faults: the request was serviced (time charged), but the
        // answer is an error — same shape as a bad block.
        for reply in &mut replies {
            if self.is_poisoned(reply.query_id) {
                reply.records.clear();
                reply.error = Some(format!(
                    "worker {}: injected poison for query {}",
                    self.worker_id, reply.query_id
                ));
            }
        }
        // Wall time of the batch: the disks seeked in parallel, so the node
        // was busy for the slowest disk's share of this batch, plus all
        // decode/filter CPU.
        let wall_disk = self
            .disks
            .iter()
            .zip(&disk_before)
            .map(|(d, &b)| d.busy_us() - b)
            .max()
            .unwrap_or(0);
        let cpu: u64 = replies.iter().map(|r| r.cpu_us).sum();
        #[cfg(feature = "obs")]
        if let Some(rec) = &self.recorder {
            use pargrid_obs::{Event, SpanKind, NO_ID, NO_QUERY};
            // One DiskBatch span per disk that moved, timestamped in that
            // disk's own busy clock so each disk renders as a gap-free Gantt
            // lane.
            let d = self.disks.len();
            for (di, &before) in disk_before.iter().enumerate() {
                let delta = self.disks[di].busy_us() - before;
                if delta > 0 {
                    rec.record_worker(
                        self.worker_id,
                        Event {
                            ts_us: before,
                            dur_us: delta,
                            query_id: NO_QUERY,
                            kind: SpanKind::DiskBatch,
                            worker: self.worker_id as u32,
                            disk: (self.worker_id * d + di) as u32,
                            detail: batch.len() as u64,
                        },
                    );
                }
            }
            let probes: u64 = replies.iter().map(|r| r.blocks_requested).sum();
            let hits: u64 = replies.iter().map(|r| r.cache_hits).sum();
            rec.record_worker(
                self.worker_id,
                Event {
                    ts_us: rec.now(),
                    dur_us: 0,
                    query_id: NO_QUERY,
                    kind: SpanKind::CacheProbe,
                    worker: self.worker_id as u32,
                    disk: NO_ID,
                    detail: (hits << 32) | (probes & 0xFFFF_FFFF),
                },
            );
            rec.batch_wall_us.record(wall_disk + cpu);
            self.busy_accum += wall_disk + cpu;
            rec.advance_clock(self.busy_accum);
        }
        if let Some(c) = counters {
            let errors = replies.iter().filter(|r| r.error.is_some()).count() as u64;
            self.publish(c, batch.len() as u64, wall_disk + cpu, errors);
        }
        // Timing faults on the reply path: hold the whole batch's replies (a
        // late message), then emit in reversed order if a reorder fault
        // matches. The coordinator absorbs both via seq matching and
        // retransmit dedup.
        let delay_ms = self
            .faults
            .iter()
            .filter_map(|f| match *f {
                FaultKind::DelayReply { query, delay_ms }
                    if batch.iter().any(|r| r.query_id == query) =>
                {
                    Some(delay_ms)
                }
                _ => None,
            })
            .max();
        if let Some(ms) = delay_ms {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let reorder = self.faults.iter().any(|f| {
            matches!(*f, FaultKind::ReorderReplies(q)
                if batch.iter().any(|r| r.query_id >= q))
        });
        let mut out: Vec<(usize, FromWorker)> = replies.into_iter().enumerate().collect();
        if reorder {
            out.reverse();
        }
        for (idx, reply) in out {
            let req = &batch[idx];
            // A duplicated-message fault sends the same reply twice; the
            // coordinator must merge it exactly once.
            let duplicate = self
                .faults
                .iter()
                .any(|f| matches!(*f, FaultKind::DuplicateRequest(q) if q == req.query_id));
            if duplicate {
                let _ = req.reply.send(reply.clone());
            }
            // A session may have been dropped mid-flight; that is its
            // problem, not the worker's.
            let _ = req.reply.send(reply);
        }
        true
    }
}

/// A fault-free in-process slot: its [`WorkerState`] behind a lock, with no
/// thread and no channel. Each sender applies its message on its own thread
/// under the lock, so a write that returned is seen by every read sent
/// after it. A caller holds at most one slot lock at a time and takes no
/// other engine lock while holding it (service only sends on unbounded
/// reply channels), so no lock cycle can pass through a slot.
pub(crate) struct LocalSlot {
    /// `None` once the slot has stopped on a [`ToWorker::Shutdown`]. A
    /// panic mid-service surfaces on the sender that ran it and poisons the
    /// lock; later sends then bounce as if the slot had stopped.
    pub(crate) state: Mutex<Option<WorkerState>>,
    counters: Option<Arc<WorkerCounters>>,
}

impl LocalSlot {
    pub(crate) fn new(state: WorkerState, counters: Option<Arc<WorkerCounters>>) -> Box<Self> {
        Box::new(LocalSlot {
            state: Mutex::new(Some(state)),
            counters,
        })
    }

    /// Applies `msg` on the calling thread, waiting for the lock. Bounces
    /// with the message once the slot has stopped.
    pub(crate) fn send(&self, msg: ToWorker) -> Result<(), SendError<ToWorker>> {
        match self.state.lock() {
            Ok(guard) => self.apply(guard, msg),
            Err(_) => Err(SendError(msg)),
        }
    }

    /// Like [`LocalSlot::send`], but hands `msg` back instead of waiting
    /// when another caller holds the lock (or the slot has stopped).
    pub(crate) fn try_send(&self, msg: ToWorker) -> Result<(), ToWorker> {
        match self.state.try_lock() {
            Ok(guard) => self.apply(guard, msg).map_err(|SendError(msg)| msg),
            Err(_) => Err(msg),
        }
    }

    fn apply(
        &self,
        mut slot: MutexGuard<'_, Option<WorkerState>>,
        msg: ToWorker,
    ) -> Result<(), SendError<ToWorker>> {
        let Some(state) = slot.as_mut() else {
            return Err(SendError(msg));
        };
        let mut batch = Vec::new();
        if !state.accept(msg, &mut batch) {
            *slot = None;
            return Ok(());
        }
        let alive = state.serve(batch, self.counters.as_deref());
        debug_assert!(alive, "only a fault plan can fail-stop a slot");
        Ok(())
    }
}

/// Starts `state` behind a channel, served by its own thread — the layout a
/// fault needs, since a fault models the channel or the remote machine (a
/// delayed reply slept on the sender would defeat the retransmit and the
/// deadline). The thread owns the state and the receiver, so on every exit
/// path — shutdown, fail-stop, panic — the receiver drops and later sends
/// bounce. Each iteration blocks for one message, then drains everything
/// already waiting into one batch, so concurrent sessions coalesce without
/// any coordinator involvement.
pub fn run_worker(
    mut state: WorkerState,
    counters: Option<Arc<WorkerCounters>>,
) -> (SlotHandle, std::thread::JoinHandle<()>) {
    let (tx, rx) = unbounded();
    let handle = std::thread::Builder::new()
        .name(format!("pargrid-worker-{}", state.worker_id))
        .spawn(move || {
            while let Ok(first) = rx.recv() {
                let mut batch = Vec::new();
                let mut open = state.accept(first, &mut batch);
                while open {
                    let Ok(msg) = rx.try_recv() else {
                        break;
                    };
                    open = state.accept(msg, &mut batch);
                }
                if !(state.serve(batch, counters.as_deref()) && open) {
                    return;
                }
            }
        })
        .expect("failed to spawn worker thread");
    (SlotHandle::channel(tx), handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargrid_geom::{Point, Rect};
    use pargrid_gridfile::page::encode_page;
    use pargrid_gridfile::Record;

    fn worker_with_two_blocks() -> WorkerState {
        let mut w = WorkerState::new(0, 0, DiskParams::default());
        let recs_a: Vec<Record> = (0..10)
            .map(|i| Record::new(i, Point::new2(i as f64, i as f64)))
            .collect();
        let recs_b: Vec<Record> = (10..20)
            .map(|i| Record::new(i, Point::new2(i as f64, i as f64)))
            .collect();
        w.store
            .put(0, encode_page(&recs_a, 2, 0, 4096))
            .expect("put");
        w.store
            .put(1, encode_page(&recs_b, 2, 0, 4096))
            .expect("put");
        w
    }

    fn request(
        qid: u64,
        seq: u64,
        blocks: Vec<u32>,
        reply: &crossbeam::channel::Sender<FromWorker>,
    ) -> ReadRequest {
        ReadRequest {
            worker: 0,
            query_id: qid,
            seq,
            blocks,
            query: Rect::new2(0.0, 0.0, 100.0, 100.0),
            reply: reply.clone(),
            priority: QueryPriority::Interactive,
        }
    }

    #[test]
    fn filters_records_against_query() {
        let mut w = worker_with_two_blocks();
        let q = Rect::new2(3.0, 3.0, 12.0, 12.0);
        let reply = w.handle_read(7, vec![0, 1], &q);
        assert_eq!(reply.query_id, 7);
        assert_eq!(reply.blocks_requested, 2);
        let ids: Vec<u64> = reply.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        assert!(reply.disk_us > 0);
        assert!(reply.cpu_us > 0 || CPU_NS_PER_RECORD < 50);
    }

    #[test]
    fn hit_vector_is_sized_once_from_the_block_count() {
        let mut w = worker_with_two_blocks();
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let reply = w.handle_read(0, vec![0, 1], &q);
        assert_eq!(reply.records.len(), 20);
        // Two 4 KB pages of 24-byte records: room for 2 × 170 hits.
        assert_eq!(reply.records.capacity(), 2 * (4096 / 24));
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let mut w = worker_with_two_blocks();
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let first = w.handle_read(0, vec![0, 1], &q);
        let second = w.handle_read(1, vec![0, 1], &q);
        assert_eq!(first.cache_hits, 0);
        assert_eq!(second.cache_hits, 2);
        assert!(second.disk_us < first.disk_us);
    }

    #[test]
    fn unknown_block_yields_error_reply_and_serves_the_rest() {
        // A request hitting a missing block gets an error reply (its disk
        // time stays charged); the *other* request in the same batch is
        // fully served — the worker no longer aborts mid-batch.
        let mut w = worker_with_two_blocks();
        let all = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let replies = w.service_batch(&[
            RequestSpec {
                query_id: 1,
                seq: 1,
                blocks: &[0, 99],
                query: &all,
                priority: QueryPriority::Interactive,
            },
            RequestSpec {
                query_id: 2,
                seq: 2,
                blocks: &[0, 1],
                query: &all,
                priority: QueryPriority::Interactive,
            },
        ]);
        assert_eq!(replies.len(), 2);
        let bad = &replies[0];
        assert!(bad.error.as_deref().unwrap_or("").contains("block 99"));
        assert!(bad.records.is_empty());
        assert!(bad.corrupt_blocks.is_empty(), "missing, not corrupt");
        assert_eq!(bad.blocks_requested, 2);
        assert!(bad.disk_us > 0, "disk time was already charged");
        let good = &replies[1];
        assert!(good.error.is_none());
        assert_eq!(good.records.len(), 20);
    }

    #[test]
    fn corrupt_block_is_reported_for_scrubbing() {
        let mut w = worker_with_two_blocks();
        assert!(w.store.corrupt(1));
        let all = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let reply = w.handle_read(1, vec![0, 1], &all);
        assert!(reply.error.as_deref().unwrap_or("").contains("checksum"));
        assert_eq!(reply.corrupt_blocks, vec![1]);
        assert!(reply.records.is_empty());
    }

    #[test]
    fn fail_stop_fault_marks_dead_without_replying() {
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let counters = Arc::new(WorkerCounters::default());
        let state = worker_with_two_blocks().with_faults(vec![FaultKind::DieAtQuery(0)]);
        let (slot, handle) = run_worker(state, Some(Arc::clone(&counters)));
        slot.send(ToWorker::Process(vec![ReadRequest {
            worker: 0,
            query_id: 3,
            seq: 3,
            blocks: vec![0],
            query: Rect::new2(0.0, 0.0, 5.0, 5.0),
            reply: reply_tx,
            priority: QueryPriority::Interactive,
        }]))
        .expect("send");
        handle.join().expect("worker thread exits cleanly");
        assert!(counters.dead.load(Ordering::Relaxed), "marked dead");
        assert!(
            reply_rx.try_recv().is_err(),
            "a crashed worker never replies"
        );
    }

    #[test]
    fn poison_fault_replies_with_error_and_stays_alive() {
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let counters = Arc::new(WorkerCounters::default());
        let state = worker_with_two_blocks().with_faults(vec![FaultKind::PoisonQuery(1)]);
        let (slot, handle) = run_worker(state, Some(Arc::clone(&counters)));
        let send = |qid: u64| {
            slot.send(ToWorker::Process(vec![request(
                qid,
                qid,
                vec![0],
                &reply_tx,
            )]))
            .expect("send");
        };
        send(1);
        let poisoned = reply_rx.recv().expect("reply");
        assert!(poisoned.error.is_some());
        assert!(poisoned.records.is_empty());
        assert!(poisoned.disk_us > 0, "time was spent before the poison");
        send(2);
        let healthy = reply_rx.recv().expect("reply");
        assert!(healthy.error.is_none());
        assert_eq!(healthy.records.len(), 10);
        assert!(!counters.dead.load(Ordering::Relaxed));
        assert_eq!(counters.error_replies.load(Ordering::Relaxed), 1);
        slot.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins");
    }

    #[test]
    fn die_after_blocks_triggers_on_later_batch() {
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let counters = Arc::new(WorkerCounters::default());
        let state = worker_with_two_blocks().with_faults(vec![FaultKind::DieAfterBlocks(2)]);
        let (slot, handle) = run_worker(state, Some(Arc::clone(&counters)));
        // First batch (2 blocks) is under the limit and serviced normally.
        slot.send(ToWorker::Process(vec![request(
            0,
            0,
            vec![0, 1],
            &reply_tx,
        )]))
        .expect("send");
        assert!(reply_rx.recv().expect("reply").error.is_none());
        // Second batch finds blocks_read >= 2: the worker dies silently.
        slot.send(ToWorker::Process(vec![request(
            1,
            1,
            vec![0, 1],
            &reply_tx,
        )]))
        .expect("send");
        handle.join().expect("worker thread exits");
        assert!(counters.dead.load(Ordering::Relaxed));
        assert!(reply_rx.try_recv().is_err());
    }

    #[test]
    fn duplicate_seq_is_deduped_not_reserviced() {
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let counters = Arc::new(WorkerCounters::default());
        let (slot, handle) = run_worker(worker_with_two_blocks(), Some(Arc::clone(&counters)));
        slot.send(ToWorker::Process(vec![request(1, 42, vec![0], &reply_tx)]))
            .expect("send");
        let first = reply_rx.recv().expect("reply");
        assert_eq!(first.seq, 42);
        // Redelivery of the same seq (a retransmit that raced the reply):
        // silently discarded, no second reply.
        slot.send(ToWorker::Process(vec![request(1, 42, vec![0], &reply_tx)]))
            .expect("send");
        // A fresh seq still gets serviced, proving the worker is live.
        slot.send(ToWorker::Process(vec![request(2, 43, vec![1], &reply_tx)]))
            .expect("send");
        let second = reply_rx.recv().expect("reply");
        assert_eq!(second.seq, 43, "deduped delivery produced no reply");
        assert_eq!(counters.dup_requests_dropped.load(Ordering::Relaxed), 1);
        slot.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins");
    }

    #[test]
    fn seen_seq_window_is_configurable_and_evicts_fifo() {
        // A window of 2: after servicing seqs 10, 11, 12 the oldest (10)
        // has been evicted, so its redelivery is serviced again, while the
        // still-remembered 12 stays deduped.
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let counters = Arc::new(WorkerCounters::default());
        let state = worker_with_two_blocks().with_seen_seq_window(2);
        let (slot, handle) = run_worker(state, Some(Arc::clone(&counters)));
        for seq in [10u64, 11, 12] {
            slot.send(ToWorker::Process(vec![request(
                seq,
                seq,
                vec![0],
                &reply_tx,
            )]))
            .expect("send");
            assert_eq!(reply_rx.recv().expect("reply").seq, seq);
        }
        // Seq 12 is inside the window: deduped, no reply.
        slot.send(ToWorker::Process(vec![request(12, 12, vec![0], &reply_tx)]))
            .expect("send");
        // Seq 10 fell out of the 2-deep window: serviced again.
        slot.send(ToWorker::Process(vec![request(10, 10, vec![0], &reply_tx)]))
            .expect("send");
        let replay = reply_rx.recv().expect("evicted seq re-serviced");
        assert_eq!(replay.seq, 10);
        assert_eq!(counters.dup_requests_dropped.load(Ordering::Relaxed), 1);
        slot.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins");
    }

    #[test]
    fn drop_fault_discards_first_deliveries_then_serves() {
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let state = worker_with_two_blocks()
            .with_faults(vec![FaultKind::DropRequest { query: 5, times: 1 }]);
        let (slot, handle) = run_worker(state, None);
        // First delivery is silently dropped.
        slot.send(ToWorker::Process(vec![request(5, 10, vec![0], &reply_tx)]))
            .expect("send");
        // Retransmit (same seq — the worker never serviced it, so the seq is
        // not in the dedup window) gets through.
        slot.send(ToWorker::Process(vec![request(5, 10, vec![0], &reply_tx)]))
            .expect("send");
        let reply = reply_rx.recv().expect("retransmit serviced");
        assert_eq!(reply.seq, 10);
        assert_eq!(reply.records.len(), 10);
        assert!(
            reply_rx.try_recv().is_err(),
            "exactly one reply for the two deliveries"
        );
        slot.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins");
    }

    #[test]
    fn duplicate_reply_fault_sends_twice() {
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let state = worker_with_two_blocks().with_faults(vec![FaultKind::DuplicateRequest(3)]);
        let (slot, handle) = run_worker(state, None);
        slot.send(ToWorker::Process(vec![request(3, 7, vec![0], &reply_tx)]))
            .expect("send");
        let a = reply_rx.recv().expect("first copy");
        let b = reply_rx.recv().expect("second copy");
        assert_eq!(a.seq, 7);
        assert_eq!(b.seq, 7);
        assert_eq!(a.records, b.records);
        slot.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins");
    }

    #[test]
    fn reorder_fault_reverses_batch_reply_order() {
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let state = worker_with_two_blocks().with_faults(vec![FaultKind::ReorderReplies(0)]);
        let (slot, handle) = run_worker(state, None);
        slot.send(ToWorker::Process(vec![
            request(1, 100, vec![0], &reply_tx),
            request(2, 101, vec![1], &reply_tx),
        ]))
        .expect("send");
        let first = reply_rx.recv().expect("reply");
        let second = reply_rx.recv().expect("reply");
        assert_eq!(first.seq, 101, "replies come back reversed");
        assert_eq!(second.seq, 100);
        slot.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins");
    }

    #[test]
    fn fetch_raw_and_write_raw_round_trip_repair() {
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let mut state = worker_with_two_blocks();
        let pristine = state.store.get(0).expect("block 0");
        assert!(state.store.corrupt(0));
        let (slot, handle) = run_worker(state, None);
        // Fetch: corrupt block 0 comes back None, healthy block 1 as bytes.
        let (raw_tx, raw_rx) = crossbeam::channel::unbounded();
        slot.send(ToWorker::FetchRaw {
            worker: 0,
            blocks: vec![0, 1],
            reply: raw_tx,
        })
        .expect("send");
        let raw = raw_rx.recv().expect("raw reply");
        assert_eq!(raw.worker_id, 0);
        assert!(raw.blocks[0].1.is_none(), "corrupt copy is not served");
        assert!(raw.blocks[1].1.is_some());
        // Write the pristine bytes back: reads verify again.
        slot.send(ToWorker::WriteRaw {
            worker: 0,
            blocks: vec![(0, pristine)],
        })
        .expect("send");
        slot.send(ToWorker::Process(vec![request(9, 9, vec![0], &reply_tx)]))
            .expect("send");
        let reply = reply_rx.recv().expect("post-repair read");
        assert!(reply.error.is_none(), "{:?}", reply.error);
        assert_eq!(reply.records.len(), 10);
        slot.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins");
    }

    #[test]
    fn rewritten_block_is_not_served_stale_from_cache() {
        // Warm the cache on block 0, rewrite its bytes via the WriteRaw
        // path, re-read: the reply must carry the NEW records (checksum
        // verified against the new bytes) and be charged a cache MISS — the
        // stale cached identity must not be billed as a hit.
        let mut w = worker_with_two_blocks();
        let all = Rect::new2(0.0, 0.0, 100.0, 100.0);
        assert_eq!(w.handle_read(0, vec![0], &all).cache_hits, 0);
        assert_eq!(w.handle_read(1, vec![0], &all).cache_hits, 1, "warmed");
        let fresh: Vec<Record> = (100..105)
            .map(|i| Record::new(i, Point::new2(1.0, 1.0)))
            .collect();
        w.write_raw(vec![(0, encode_page(&fresh, 2, 0, 4096))]);
        let reread = w.handle_read(2, vec![0], &all);
        assert!(
            reread.error.is_none(),
            "checksum must match the new bytes: {:?}",
            reread.error
        );
        let ids: Vec<u64> = reread.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![100, 101, 102, 103, 104], "fresh bytes served");
        assert_eq!(reread.cache_hits, 0, "rewritten block pays a miss");
        // The re-read re-cached the (new) block: hits resume.
        assert_eq!(w.handle_read(3, vec![0], &all).cache_hits, 1);
    }

    #[test]
    fn write_raw_appends_fresh_blocks() {
        // A mutation's bucket split ships blocks the worker has never seen;
        // WriteRaw upserts them and they serve like any bulk-loaded block.
        let mut w = worker_with_two_blocks();
        let recs: Vec<Record> = (50..53)
            .map(|i| Record::new(i, Point::new2(2.0, 2.0)))
            .collect();
        w.write_raw(vec![(2, encode_page(&recs, 2, 0, 4096))]);
        let all = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let reply = w.handle_read(7, vec![0, 1, 2], &all);
        assert!(reply.error.is_none(), "{:?}", reply.error);
        assert_eq!(reply.records.len(), 23, "20 original + 3 appended");
    }

    #[test]
    fn slow_disk_fault_inflates_service_time() {
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let mut healthy = worker_with_two_blocks();
        let mut slow = worker_with_two_blocks().with_faults(vec![FaultKind::SlowDisk(10)]);
        let h = healthy.handle_read(0, vec![0, 1], &q);
        let s = slow.handle_read(0, vec![0, 1], &q);
        assert_eq!(h.records, s.records, "results identical");
        assert_eq!(s.disk_us, h.disk_us * 10, "10x straggler");
    }

    #[test]
    fn multi_disk_worker_parallelizes_batches() {
        // Same blocks, 1 vs 4 disks: batch time shrinks because the disks
        // seek in parallel, while results stay identical.
        let make = |n_disks| {
            let mut w = WorkerState::with_disks(
                0,
                0,
                DiskParams {
                    cache_pages: 0,
                    ..DiskParams::default()
                },
                crate::store::BlockStore::memory(),
                n_disks,
            );
            for i in 0..8u32 {
                let recs: Vec<Record> = (0..4)
                    .map(|j| Record::new(i as u64 * 4 + j, Point::new2(j as f64, j as f64)))
                    .collect();
                w.store.put(i, encode_page(&recs, 2, 0, 4096)).expect("put");
            }
            w
        };
        let q = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let mut one = make(1);
        let mut four = make(4);
        let r1 = one.handle_read(0, (0..8).collect(), &q);
        let r4 = four.handle_read(0, (0..8).collect(), &q);
        assert_eq!(r1.records, r4.records);
        assert!(
            r4.disk_us < r1.disk_us,
            "4 disks {} not faster than 1 disk {}",
            r4.disk_us,
            r1.disk_us
        );
    }

    #[test]
    fn combined_batch_accounts_per_query() {
        // Two queries batched together: both want blocks 0 and 1, so the
        // second one's reads come out of the cache that the first one's
        // elevator pass just filled — but each query is charged its own
        // cache hits and disk time.
        let mut w = worker_with_two_blocks();
        let all = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let low = Rect::new2(0.0, 0.0, 5.0, 5.0);
        let replies = w.service_batch(&[
            RequestSpec {
                query_id: 1,
                seq: 1,
                blocks: &[0, 1],
                query: &all,
                priority: QueryPriority::Interactive,
            },
            RequestSpec {
                query_id: 2,
                seq: 2,
                blocks: &[0, 1],
                query: &low,
                priority: QueryPriority::Interactive,
            },
        ]);
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].cache_hits, 0);
        assert_eq!(replies[1].cache_hits, 2);
        assert!(replies[1].disk_us < replies[0].disk_us);
        assert_eq!(replies[0].records.len(), 20);
        assert_eq!(replies[1].records.len(), 6);
    }

    #[test]
    fn interactive_pass_precedes_batch_pass() {
        // The interactive request is serviced first even though it is listed
        // second, so it pays the cold reads and the batch request hits cache.
        let mut w = worker_with_two_blocks();
        let all = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let replies = w.service_batch(&[
            RequestSpec {
                query_id: 1,
                seq: 1,
                blocks: &[0, 1],
                query: &all,
                priority: QueryPriority::Batch,
            },
            RequestSpec {
                query_id: 2,
                seq: 2,
                blocks: &[0, 1],
                query: &all,
                priority: QueryPriority::Interactive,
            },
        ]);
        assert_eq!(replies[1].cache_hits, 0, "interactive went first");
        assert_eq!(replies[0].cache_hits, 2, "batch rode the warm cache");
    }

    #[test]
    fn threaded_loop_round_trip() {
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let counters = Arc::new(WorkerCounters::default());
        let (slot, handle) = run_worker(worker_with_two_blocks(), Some(Arc::clone(&counters)));
        slot.send(ToWorker::Process(vec![ReadRequest {
            worker: 0,
            query_id: 1,
            seq: 1,
            blocks: vec![0],
            query: Rect::new2(0.0, 0.0, 5.0, 5.0),
            reply: reply_tx,
            priority: QueryPriority::Interactive,
        }]))
        .expect("send");
        let reply = reply_rx.recv().expect("reply");
        assert_eq!(reply.records.len(), 6); // ids 0..=5 within [0,5] closed
        assert_eq!(counters.blocks_fetched.load(Ordering::Relaxed), 1);
        assert_eq!(counters.batches.load(Ordering::Relaxed), 1);
        assert_eq!(counters.max_batch.load(Ordering::Relaxed), 1);
        slot.send(ToWorker::Shutdown).expect("send shutdown");
        handle.join().expect("worker joins cleanly");
    }
}
