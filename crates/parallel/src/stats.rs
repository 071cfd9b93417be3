//! Shared engine counters and their snapshot types.
//!
//! Workers publish lifetime totals into lock-free atomics after
//! every batch they service; the coordinator-side handle exposes them as an
//! [`EngineStats`] snapshot via `ParallelGridFile::stats`. This is what lets
//! the engine API take `&self`: observability no longer requires exclusive
//! access to worker state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One worker's atomically-published counters.
#[derive(Debug, Default)]
pub struct WorkerCounters {
    /// Lifetime blocks fetched.
    pub blocks_fetched: AtomicU64,
    /// Set when the worker fail-stops (injected fault, a threaded or remote
    /// slot's loop lost, or a send that bounced off a stopped slot). The
    /// coordinator plans queries around dead workers and fails their
    /// in-flight requests over to replicas.
    pub dead: AtomicBool,
    /// Error replies sent (unreadable blocks, injected poison).
    pub error_replies: AtomicU64,
    /// Redelivered requests discarded by seq dedup (the coordinator
    /// retransmitted work this worker had already performed, or a
    /// duplicated message arrived twice).
    pub dup_requests_dropped: AtomicU64,
    /// Number of batches serviced (each `ToWorker::Process` applied to an
    /// in-process slot, or each drain of a threaded slot's channel, is one).
    pub batches: AtomicU64,
    /// Total requests across all batches (mean batch size = this / batches).
    pub batched_requests: AtomicU64,
    /// Largest batch serviced so far (requests in one batch, high-water
    /// mark).
    pub max_batch: AtomicU64,
}

/// Counters shared between the engine handle and its worker slots.
#[derive(Debug)]
pub struct SharedStats {
    /// Queries issued through any session of the engine.
    pub queries: AtomicU64,
    /// Failed-over requests retried against a replica (per-request, not
    /// per-block).
    pub retries: AtomicU64,
    /// Blocks served by a replica instead of their (dead or erroring)
    /// primary location.
    pub failed_over_blocks: AtomicU64,
    /// Requests retransmitted after a reply timeout (bounded, backed-off;
    /// the lost-message defense).
    pub retransmits: AtomicU64,
    /// Hedge requests dispatched to replicas of slow primaries.
    pub hedges: AtomicU64,
    /// Corrupted blocks repaired (scrubbed) from their replica copy.
    pub scrubbed: AtomicU64,
    /// Queries whose deadline budget expired before every reply arrived
    /// (answered incomplete).
    pub deadline_expired: AtomicU64,
    /// Bucket copies migrated by `ParallelGridFile::rebalance`.
    pub rebalance_moves: AtomicU64,
    /// Page bytes copied by rebalance migrations.
    pub rebalance_bytes: AtomicU64,
    /// Per-worker counters, indexed by worker id (each behind an `Arc` so
    /// the slot serving that worker can hold its own directly).
    pub workers: Vec<Arc<WorkerCounters>>,
}

impl SharedStats {
    /// Zeroed counters for `n_workers` workers.
    pub fn new(n_workers: usize) -> Self {
        SharedStats {
            queries: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failed_over_blocks: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            scrubbed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            rebalance_moves: AtomicU64::new(0),
            rebalance_bytes: AtomicU64::new(0),
            workers: (0..n_workers)
                .map(|_| Arc::new(WorkerCounters::default()))
                .collect(),
        }
    }

    /// Whether worker `w` is still alive.
    pub fn is_alive(&self, w: usize) -> bool {
        !self.workers[w].dead.load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot of all counters (relaxed loads; exact once
    /// the workers are quiescent).
    pub fn snapshot(&self) -> EngineStats {
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failed_over_blocks: self.failed_over_blocks.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            scrubbed: self.scrubbed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            rebalance_moves: self.rebalance_moves.load(Ordering::Relaxed),
            rebalance_bytes: self.rebalance_bytes.load(Ordering::Relaxed),
            workers: self
                .workers
                .iter()
                .map(|w| WorkerStats {
                    blocks_fetched: w.blocks_fetched.load(Ordering::Relaxed),
                    alive: !w.dead.load(Ordering::Relaxed),
                    error_replies: w.error_replies.load(Ordering::Relaxed),
                    dup_requests_dropped: w.dup_requests_dropped.load(Ordering::Relaxed),
                    batches: w.batches.load(Ordering::Relaxed),
                    batched_requests: w.batched_requests.load(Ordering::Relaxed),
                    max_batch: w.max_batch.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Point-in-time view of one worker's counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerStats {
    /// Lifetime blocks fetched.
    pub blocks_fetched: u64,
    /// Whether the worker is still alive.
    pub alive: bool,
    /// Error replies sent.
    pub error_replies: u64,
    /// Redelivered requests discarded by seq dedup.
    pub dup_requests_dropped: u64,
    /// Batches serviced.
    pub batches: u64,
    /// Total requests across all batches.
    pub batched_requests: u64,
    /// Largest batch serviced.
    pub max_batch: u64,
}

impl Default for WorkerStats {
    fn default() -> Self {
        WorkerStats {
            blocks_fetched: 0,
            alive: true,
            error_replies: 0,
            dup_requests_dropped: 0,
            batches: 0,
            batched_requests: 0,
            max_batch: 0,
        }
    }
}

/// Point-in-time view of the whole engine's counters.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Queries issued so far.
    pub queries: u64,
    /// Failed-over requests retried against a replica.
    pub retries: u64,
    /// Blocks served by a replica instead of their primary location.
    pub failed_over_blocks: u64,
    /// Requests retransmitted after a reply timeout.
    pub retransmits: u64,
    /// Hedge requests dispatched to replicas of slow primaries.
    pub hedges: u64,
    /// Corrupted blocks repaired from their replica copy.
    pub scrubbed: u64,
    /// Queries answered incomplete because their deadline budget expired.
    pub deadline_expired: u64,
    /// Bucket copies migrated by rebalance so far.
    pub rebalance_moves: u64,
    /// Page bytes copied by rebalance migrations so far.
    pub rebalance_bytes: u64,
    /// Per-worker snapshots, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

impl EngineStats {
    /// Total blocks fetched across workers.
    pub fn total_blocks(&self) -> u64 {
        self.workers.iter().map(|w| w.blocks_fetched).sum()
    }

    /// Number of workers still alive.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Mean requests per serviced batch, over **live** workers only.
    ///
    /// A fail-stopped worker's counters freeze at death, so averaging it in
    /// would mix a truncated history into a live-fleet metric: after a
    /// failover the survivors service *larger* batches (they absorb the dead
    /// worker's buckets), and that shift is exactly what this mean should
    /// show. The dead worker's frozen counters remain available per-worker
    /// in [`EngineStats::workers`].
    pub fn mean_batch(&self) -> f64 {
        let live = || self.workers.iter().filter(|w| w.alive);
        let batches: u64 = live().map(|w| w.batches).sum();
        if batches == 0 {
            return 0.0;
        }
        let requests: u64 = live().map(|w| w.batched_requests).sum();
        requests as f64 / batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_stores() {
        let shared = SharedStats::new(2);
        shared.queries.store(5, Ordering::Relaxed);
        shared.workers[1]
            .blocks_fetched
            .store(40, Ordering::Relaxed);
        shared.workers[0].batches.store(2, Ordering::Relaxed);
        shared.workers[0]
            .batched_requests
            .store(6, Ordering::Relaxed);
        let snap = shared.snapshot();
        assert_eq!(snap.queries, 5);
        assert_eq!(snap.total_blocks(), 40);
        assert_eq!(snap.mean_batch(), 3.0);
    }

    #[test]
    fn mean_batch_excludes_dead_workers() {
        let shared = SharedStats::new(2);
        // Live worker: 2 batches of 3 requests. Dead worker: frozen history
        // of 10 batches of 1 request that must not drag the mean down.
        shared.workers[0].batches.store(2, Ordering::Relaxed);
        shared.workers[0]
            .batched_requests
            .store(6, Ordering::Relaxed);
        shared.workers[1].batches.store(10, Ordering::Relaxed);
        shared.workers[1]
            .batched_requests
            .store(10, Ordering::Relaxed);
        shared.workers[1].dead.store(true, Ordering::Relaxed);
        let snap = shared.snapshot();
        assert_eq!(snap.mean_batch(), 3.0);
        assert_eq!(snap.live_workers(), 1);
    }

    #[test]
    fn empty_engine_stats_are_zero() {
        let snap = SharedStats::new(0).snapshot();
        assert_eq!(snap.total_blocks(), 0);
        assert_eq!(snap.mean_batch(), 0.0);
    }
}
