//! Workers: own a local block store, serve batched block-read requests,
//! filter records, ship qualifying records back to whichever session asked.
//!
//! One service function, [`WorkerState::serve`], answers every read batch.
//! A fault-free in-process slot is a `LocalSlot`: its state behind a lock,
//! served under that lock on whichever thread sends to it — a session's
//! read, a runner's batch and a mutation's block writes alike. A
//! fault-armed slot runs [`run_worker`]'s thread loop instead, which owns
//! its state, blocks on the slot's channel, then drains every message
//! already waiting. Either way a worker reads, verifies, scans and replies:
//! it keeps no clock but the real one. The SP-2 disk model that Tables 4–5
//! need is charged after the fact by the engine's workload runners (see
//! [`pargrid_sim::cost`]).
//!
//! Requests are **idempotent at the worker**: each carries an engine-global
//! dispatch sequence number, and a worker remembers the seqs it has already
//! serviced (a bounded window), silently discarding redeliveries. That makes
//! coordinator retransmits safe — a retransmit of a request whose reply was
//! merely slow cannot cause the same blocks to be read and returned twice.

use crate::backend::SlotHandle;
use crate::error::StoreError;
use crate::fault::FaultKind;
use crate::message::{FromWorker, RawBlocks, ReadRequest, ToWorker};
use crate::stats::WorkerCounters;
use crate::store::BlockStore;
use crossbeam::channel::{unbounded, SendError};
use pargrid_geom::Rect;
use pargrid_gridfile::page::{scan_page, HEADER_BYTES};
use pargrid_gridfile::Record;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

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
}

/// A worker's local state: its blocks and its injected faults.
pub struct WorkerState {
    /// This worker's index.
    pub worker_id: usize,
    /// Raw pages by block id (in memory or in a per-worker file).
    pub store: BlockStore,
    /// Record payload size (needed to decode pages).
    pub payload_bytes: usize,
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
    /// Lifetime blocks read, the [`FaultKind::DieAfterBlocks`] trigger.
    blocks_read: u64,
}

impl WorkerState {
    /// Creates a worker with an empty in-memory store.
    pub fn new(worker_id: usize, payload_bytes: usize) -> Self {
        Self::with_store(worker_id, payload_bytes, BlockStore::memory())
    }

    /// Creates a worker over an explicit store.
    pub fn with_store(worker_id: usize, payload_bytes: usize, store: BlockStore) -> Self {
        WorkerState {
            worker_id,
            store,
            payload_bytes,
            faults: Vec::new(),
            drop_budget: Vec::new(),
            seen_seqs: HashSet::new(),
            seen_order: VecDeque::new(),
            seen_seq_window: DEFAULT_SEEN_SEQ_WINDOW,
            corruption_done: false,
            blocks_read: 0,
        }
    }

    /// Installs injected faults (see [`crate::fault::FaultPlan`]). Drop
    /// budgets are armed; everything else fires from the message loop.
    pub fn with_faults(mut self, faults: Vec<FaultKind>) -> Self {
        for f in &faults {
            if let FaultKind::DropRequest { query, times } = *f {
                self.drop_budget.push((query, times));
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

    /// Whether an injected fail-stop triggers for this batch: either the
    /// lifetime block count has been reached, or a request at/past the kill
    /// query number arrived.
    fn should_die(&self, batch: &[ReadRequest]) -> bool {
        self.faults.iter().any(|f| match *f {
            FaultKind::DieAfterBlocks(n) => self.blocks_read >= n,
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
        }])
        .pop()
        .expect("one request in, one reply out")
    }

    /// Services several requests in order. An unreadable block fails only
    /// its own request.
    fn service_batch(&mut self, requests: &[RequestSpec<'_>]) -> Vec<FromWorker> {
        requests
            .iter()
            .map(|req| {
                self.blocks_read += req.blocks.len() as u64;
                let mut records = Vec::new();
                let mut scanned = 0u64;
                let mut error = None;
                let mut corrupt_blocks = Vec::new();
                for &b in req.blocks {
                    // An unreadable block fails only this request — the
                    // batch's other requests are unaffected, and the
                    // coordinator can retry against a replica. A checksum
                    // failure is additionally reported so the coordinator
                    // can scrub the block back to health.
                    //
                    // `read_block` borrows the page, from memory or from
                    // the spill file's mapping. The scan is fused with the
                    // filter: it reads coordinates out of the verified
                    // block and builds records only for hits.
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
    /// material.
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
    /// pages), refreshing their checksums.
    fn write_raw(&mut self, blocks: Vec<(u32, Vec<u8>)>) {
        for (b, bytes) in blocks {
            // A failed write (size mismatch) leaves the block as-is; the
            // next read reports it again.
            let _ = self.store.upsert(b, bytes);
        }
    }

    /// Publishes lifetime totals after a batch.
    fn publish(&self, counters: &WorkerCounters, batch_len: u64, errors: u64) {
        counters
            .blocks_fetched
            .store(self.blocks_read, Ordering::Relaxed);
        counters.error_replies.fetch_add(errors, Ordering::Relaxed);
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters
            .batched_requests
            .fetch_add(batch_len, Ordering::Relaxed);
        counters.max_batch.fetch_max(batch_len, Ordering::Relaxed);
    }

    /// How long a batch's replies are held before they are sent: a
    /// straggler ([`FaultKind::SlowDisk`]`(f)`, the largest `f` if several)
    /// holds them `f - 1` times the batch's measured `service` time, and a
    /// late message ([`FaultKind::DelayReply`], the longest if several match)
    /// adds its delay.
    fn reply_hold(&self, batch: &[ReadRequest], service: Duration) -> Duration {
        let (mut factor, mut delay) = (1u64, 0u64);
        for f in &self.faults {
            match *f {
                FaultKind::SlowDisk(x) => factor = factor.max(x),
                FaultKind::DelayReply { query, delay_ms }
                    if batch.iter().any(|r| r.query_id == query) =>
                {
                    delay = delay.max(delay_ms)
                }
                _ => {}
            }
        }
        service.saturating_mul(u32::try_from(factor - 1).unwrap_or(u32::MAX))
            + Duration::from_millis(delay)
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
    /// are read and scanned; replies then carry the poison, straggler,
    /// delay, reorder and duplicate faults.
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
            })
            .collect();
        let started = Instant::now();
        let mut replies = self.service_batch(&specs);
        let service = started.elapsed();
        for req in &batch {
            self.note_seen(req.seq);
        }
        // Poison faults: the request was serviced (its blocks read), but the
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
        if let Some(c) = counters {
            let errors = replies.iter().filter(|r| r.error.is_some()).count() as u64;
            self.publish(c, batch.len() as u64, errors);
        }
        // Timing faults on the reply path: hold the whole batch's replies (a
        // straggler, a late message), then emit in reversed order if a
        // reorder fault matches. The coordinator absorbs all three via seq
        // matching, retransmit dedup and hedged reads.
        let hold = self.reply_hold(&batch, service);
        if !hold.is_zero() {
            std::thread::sleep(hold);
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
        let mut w = WorkerState::new(0, 0);
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
    fn unknown_block_yields_error_reply_and_serves_the_rest() {
        // A request hitting a missing block gets an error reply; the
        // *other* request in the same batch is fully served — the worker
        // does not abort mid-batch.
        let mut w = worker_with_two_blocks();
        let all = Rect::new2(0.0, 0.0, 100.0, 100.0);
        let replies = w.service_batch(&[
            RequestSpec {
                query_id: 1,
                seq: 1,
                blocks: &[0, 99],
                query: &all,
            },
            RequestSpec {
                query_id: 2,
                seq: 2,
                blocks: &[0, 1],
                query: &all,
            },
        ]);
        assert_eq!(replies.len(), 2);
        let bad = &replies[0];
        assert!(bad.error.as_deref().unwrap_or("").contains("block 99"));
        assert!(bad.records.is_empty());
        assert!(bad.corrupt_blocks.is_empty(), "missing, not corrupt");
        assert_eq!(bad.blocks_requested, 2);
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
    fn slow_disk_and_delay_faults_hold_replies() {
        let delay = |query, delay_ms| FaultKind::DelayReply { query, delay_ms };
        let held = worker_with_two_blocks().with_faults(vec![
            FaultKind::SlowDisk(10),
            delay(4, 5),
            delay(4, 2),
            delay(6, 8),
        ]);
        let (tx, _rx) = crossbeam::channel::unbounded();
        let service = Duration::from_millis(3);
        let hold = |qids: &[u64]| {
            let batch: Vec<ReadRequest> =
                qids.iter().map(|&q| request(q, q, vec![0], &tx)).collect();
            held.reply_hold(&batch, service)
        };
        assert_eq!(hold(&[1]), Duration::from_millis(27), "(10 - 1) x service");
        assert_eq!(hold(&[4]), Duration::from_millis(32), "plus the longest");
        assert_eq!(hold(&[4, 6]), Duration::from_millis(35), "delays: max");
        let healthy = worker_with_two_blocks();
        assert!(healthy
            .reply_hold(&[request(4, 4, vec![0], &tx)], service)
            .is_zero());
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
