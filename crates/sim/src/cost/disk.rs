//! Virtual-time disk model with buffer cache.
//!
//! Calibrated to a mid-90s SCSI disk of the SP-2 era: ~12 ms for a random
//! 8 KB page read (seek + rotational latency + transfer), ~2 ms when the arm
//! is already on the neighboring block (sequential read), ~0.1 ms for a
//! buffer-cache hit.

use super::cache::LruCache;

/// Disk service-time parameters, in virtual microseconds.
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Random page read (seek + rotation + transfer).
    pub miss_us: u64,
    /// Page read when the previous read was the physically preceding block.
    pub sequential_us: u64,
    /// Buffer-cache hit.
    pub hit_us: u64,
    /// Buffer-cache capacity in pages (0 = the simulator's raw-I/O mode).
    pub cache_pages: usize,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            miss_us: 12_000,
            sequential_us: 2_000,
            hit_us: 100,
            cache_pages: 512,
        }
    }
}

impl DiskParams {
    /// The paper's simulator assumptions for §2: raw disk I/O, no caching.
    pub fn raw_io() -> Self {
        DiskParams {
            cache_pages: 0,
            ..Self::default()
        }
    }
}

/// One worker's disk: accumulates virtual busy time.
#[derive(Debug)]
pub struct DiskModel {
    params: DiskParams,
    cache: LruCache,
    last_block: Option<u32>,
    busy_us: u64,
}

impl DiskModel {
    /// Creates an idle disk.
    pub fn new(params: DiskParams) -> Self {
        DiskModel {
            cache: LruCache::new(params.cache_pages),
            params,
            last_block: None,
            busy_us: 0,
        }
    }

    /// Services a batch of block reads (sorted internally so sequential
    /// blocks benefit from the arm position, as a real elevator scheduler
    /// would). Returns the virtual time consumed by this batch.
    pub fn read_batch(&mut self, blocks: &mut [u32]) -> u64 {
        blocks.sort_unstable();
        let mut batch_us = 0;
        for &b in blocks.iter() {
            batch_us += self.read_block(b).us;
        }
        batch_us
    }

    /// Services one block read at the current arm position, returning its
    /// cost. Callers batching several queries together (a worker's elevator
    /// pass in [`super::CostModel::charge_round`]) are responsible for issuing blocks in sorted order; this method
    /// charges whatever the arm movement actually costs.
    pub fn read_block(&mut self, block: u32) -> BlockCost {
        let (us, hit) = if self.cache.touch(block) {
            (self.params.hit_us, true)
        } else if self.last_block == Some(block.wrapping_sub(1)) {
            (self.params.sequential_us, false)
        } else {
            (self.params.miss_us, false)
        };
        self.last_block = Some(block);
        self.busy_us += us;
        BlockCost { us, hit }
    }

    /// Invalidates a block in the buffer cache — the write-coherence hook.
    /// A block whose store bytes were just rewritten (scrub repair, a
    /// mutation) must pay a fresh miss on its next read instead of being
    /// billed as a hit on the stale cached copy. Returns whether the block
    /// was cached. The arm position is untouched: rewriting a block does not
    /// move the head.
    pub fn invalidate(&mut self, block: u32) -> bool {
        self.cache.remove(block)
    }

    /// Total virtual busy time so far.
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Pages currently resident in the buffer cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

/// Cost of one block read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockCost {
    /// Virtual time consumed, microseconds.
    pub us: u64,
    /// Whether the read was a buffer-cache hit.
    pub hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> DiskParams {
        DiskParams {
            miss_us: 1000,
            sequential_us: 100,
            hit_us: 10,
            cache_pages: 4,
        }
    }

    #[test]
    fn random_reads_cost_misses() {
        let mut d = DiskModel::new(params());
        let t = d.read_batch(&mut [10, 20, 30]);
        // 10 is a miss, 20 and 30 are non-sequential misses.
        assert_eq!(t, 3000);
    }

    #[test]
    fn sequential_run_is_cheap() {
        let mut d = DiskModel::new(params());
        let t = d.read_batch(&mut [5, 6, 7, 8]);
        // First block seeks, the rest stream.
        assert_eq!(t, 1000 + 3 * 100);
    }

    #[test]
    fn batch_sorts_for_elevator_order() {
        let mut d = DiskModel::new(params());
        let t = d.read_batch(&mut [8, 5, 7, 6]);
        assert_eq!(t, 1000 + 3 * 100);
    }

    #[test]
    fn rereads_hit_cache() {
        let mut d = DiskModel::new(params());
        d.read_batch(&mut [1, 2, 3]);
        let t = d.read_batch(&mut [1, 2, 3]);
        assert_eq!(t, 30, "three hits");
    }

    #[test]
    fn raw_io_never_caches() {
        let mut d = DiskModel::new(DiskParams {
            cache_pages: 0,
            ..params()
        });
        d.read_batch(&mut [1]);
        assert!(!d.read_block(1).hit);
        // Re-reading the same block is not "sequential" (block != last+1).
        assert_eq!(d.busy_us(), 2000);
    }

    #[test]
    fn read_block_tags_hits() {
        let mut d = DiskModel::new(params());
        let first = d.read_block(9);
        assert_eq!(
            first,
            BlockCost {
                us: 1000,
                hit: false
            }
        );
        let seq = d.read_block(10);
        assert_eq!(
            seq,
            BlockCost {
                us: 100,
                hit: false
            }
        );
        let hit = d.read_block(9);
        assert_eq!(hit, BlockCost { us: 10, hit: true });
        assert_eq!(d.cache_len(), 2);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut d = DiskModel::new(params());
        let a = d.read_batch(&mut [1]);
        let b = d.read_batch(&mut [100]);
        assert_eq!(d.busy_us(), a + b);
    }
}
