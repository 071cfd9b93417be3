//! The SP-2 cost model (§4, DESIGN §3): per-worker virtual disks with an
//! LRU buffer cache, and an SP-2-class interconnect.
//!
//! Tables 4–5 report elapsed and communication time on a 16-node SP-2. The
//! engine stands in for that hardware with this model and charges it in one
//! place, its workload runners: once a round of queries has its replies in,
//! the runner replays the round's accepted reads through
//! [`CostModel::charge_round`], one call per batch the workers served. In a
//! call, each worker's reads form **one elevator batch**: per disk (stripe
//! `block mod D`, local index `block / D`) the blocks go through in
//! `(local block, read index)` order. Every block's cost is charged to the
//! read that asked for it, so per-query times stay paper-faithful while a
//! round's queries share arm movement. Disks, caches
//! and arm positions persist across rounds, so warm caches carry over from
//! one run to the next on the same engine.

mod cache;
mod disk;

pub use cache::LruCache;
pub use disk::{BlockCost, DiskModel, DiskParams};

use pargrid_obs::{Event, Recorder, SpanKind, NO_ID, NO_QUERY};

/// Interconnect cost model (SP-2-class switch).
#[derive(Clone, Copy, Debug)]
pub struct NetParams {
    /// Per-message latency in virtual microseconds.
    pub latency_us: u64,
    /// Bandwidth in bytes per virtual microsecond (35 ≈ 35 MB/s).
    pub bytes_per_us: u64,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            latency_us: 40,
            bytes_per_us: 35,
        }
    }
}

impl NetParams {
    /// One reply carrying `payload_bytes` of records: its latency plus the
    /// transfer of a 32-byte header and the payload, rounded up to a whole
    /// microsecond.
    pub fn reply_us(&self, payload_bytes: u64) -> u64 {
        self.latency_us + (32 + payload_bytes).div_ceil(self.bytes_per_us.max(1))
    }
}

/// One read a worker served in a round.
#[derive(Clone, Copy, Debug)]
pub struct Read<'a> {
    /// The worker that served it.
    pub worker: usize,
    /// Its block ids on that worker.
    pub blocks: &'a [u32],
    /// The worker's CPU time for decoding and filtering, microseconds.
    pub cpu_us: u64,
}

/// What the model charged one read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadCost {
    /// Disk time: the maximum over the worker's disks of this read's own
    /// charges, since the disks seek in parallel.
    pub disk_us: u64,
    /// Buffer-cache hits among the read's blocks.
    pub cache_hits: u64,
}

/// What the model charged one round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundCost {
    /// One entry per read, in the order given.
    pub reads: Vec<ReadCost>,
    /// Per worker, the round's wall busy time: the slowest disk's share of
    /// its batch plus the batch's CPU (0 for a worker with no reads).
    pub wall_us: Vec<u64>,
}

/// One worker's disk array.
#[derive(Debug)]
struct Node {
    disks: Vec<DiskModel>,
    /// Lifetime wall busy time; the recorder's virtual clock follows it.
    busy_us: u64,
}

/// The model of one engine: every worker's disks, caches and arm positions.
#[derive(Debug)]
pub struct CostModel {
    nodes: Vec<Node>,
}

impl CostModel {
    /// `n_workers` idle workers of `disks_per_worker` disks each (0 is
    /// treated as 1). The SP-2 had seven disks per processor; the paper's
    /// simulation study assumes one.
    pub fn new(n_workers: usize, disks_per_worker: usize, params: DiskParams) -> Self {
        CostModel {
            nodes: (0..n_workers)
                .map(|_| Node {
                    disks: (0..disks_per_worker.max(1))
                        .map(|_| DiskModel::new(params))
                        .collect(),
                    busy_us: 0,
                })
                .collect(),
        }
    }

    /// Drops `worker`'s `block` from its disk's cache: the block's bytes
    /// were rewritten, so its next read pays a miss instead of a hit on the
    /// stale copy. The arm does not move.
    pub fn invalidate(&mut self, worker: usize, block: u32) {
        let disks = &mut self.nodes[worker].disks;
        let d = disks.len() as u32;
        disks[(block % d) as usize].invalidate(block / d);
    }

    /// Charges one round's reads: workers in ascending order, each worker's
    /// reads as one elevator batch in the order given (that order is the
    /// read index that breaks ties on a shared block). With a recorder,
    /// each batch emits one `DiskBatch` span per disk that moved, stamped
    /// in that disk's own busy clock, and one `CacheProbe` instant, then
    /// advances the virtual clock to the worker's lifetime busy time.
    pub fn charge_round(&mut self, reads: &[Read<'_>], recorder: Option<&Recorder>) -> RoundCost {
        let mut cost = RoundCost {
            reads: vec![ReadCost::default(); reads.len()],
            wall_us: vec![0; self.nodes.len()],
        };
        let mut batch = Vec::new();
        for (w, node) in self.nodes.iter_mut().enumerate() {
            batch.clear();
            batch.extend((0..reads.len()).filter(|&i| reads[i].worker == w));
            if !batch.is_empty() {
                cost.wall_us[w] = node.charge_batch(w, reads, &batch, &mut cost.reads, recorder);
            }
        }
        cost
    }
}

impl Node {
    /// Charges `reads[i]` for every `i` in `batch` as one elevator batch,
    /// returning the batch's wall time.
    fn charge_batch(
        &mut self,
        w: usize,
        reads: &[Read<'_>],
        batch: &[usize],
        costs: &mut [ReadCost],
        recorder: Option<&Recorder>,
    ) -> u64 {
        let d = self.disks.len();
        let before: Vec<u64> = self.disks.iter().map(DiskModel::busy_us).collect();
        let mut disk_us = vec![0u64; batch.len() * d];
        let mut per_disk: Vec<Vec<(u32, usize)>> = vec![Vec::new(); d];
        for (k, &i) in batch.iter().enumerate() {
            for &b in reads[i].blocks {
                per_disk[b as usize % d].push((b / d as u32, k));
            }
        }
        for (di, list) in per_disk.iter_mut().enumerate() {
            list.sort_unstable();
            for &(local, k) in list.iter() {
                let block = self.disks[di].read_block(local);
                disk_us[k * d + di] += block.us;
                costs[batch[k]].cache_hits += block.hit as u64;
            }
        }
        for (k, &i) in batch.iter().enumerate() {
            costs[i].disk_us = disk_us[k * d..(k + 1) * d]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
        }
        let wall_disk = self
            .disks
            .iter()
            .zip(&before)
            .map(|(disk, &b)| disk.busy_us() - b)
            .max()
            .unwrap_or(0);
        let wall = wall_disk + batch.iter().map(|&i| reads[i].cpu_us).sum::<u64>();
        self.busy_us += wall;
        if let Some(rec) = recorder {
            for (di, &b) in before.iter().enumerate() {
                let moved = self.disks[di].busy_us() - b;
                if moved > 0 {
                    rec.record_worker(
                        w,
                        Event {
                            ts_us: b,
                            dur_us: moved,
                            query_id: NO_QUERY,
                            kind: SpanKind::DiskBatch,
                            worker: w as u32,
                            disk: (w * d + di) as u32,
                            detail: batch.len() as u64,
                        },
                    );
                }
            }
            let probes: u64 = batch.iter().map(|&i| reads[i].blocks.len() as u64).sum();
            let hits: u64 = batch.iter().map(|&i| costs[i].cache_hits).sum();
            rec.record_worker(
                w,
                Event {
                    ts_us: rec.now(),
                    dur_us: 0,
                    query_id: NO_QUERY,
                    kind: SpanKind::CacheProbe,
                    worker: w as u32,
                    disk: NO_ID,
                    detail: (hits << 32) | (probes & 0xFFFF_FFFF),
                },
            );
            rec.batch_wall_us.record(wall);
            rec.advance_clock(self.busy_us);
        }
        wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(worker: usize, blocks: &[u32]) -> Read<'_> {
        Read {
            worker,
            blocks,
            cpu_us: 0,
        }
    }

    /// One single-disk worker with the default disk parameters.
    fn one_worker() -> CostModel {
        CostModel::new(1, 1, DiskParams::default())
    }

    #[test]
    fn repeated_reads_hit_cache() {
        let mut m = one_worker();
        let first = m.charge_round(&[read(0, &[0, 1])], None).reads[0];
        let second = m.charge_round(&[read(0, &[0, 1])], None).reads[0];
        assert_eq!(first.cache_hits, 0);
        assert_eq!(second.cache_hits, 2);
        assert!(second.disk_us < first.disk_us);
    }

    #[test]
    fn multi_disk_worker_parallelizes_batches() {
        // Same blocks, 1 vs 4 disks: the read's time shrinks because the
        // disks seek in parallel.
        let raw = DiskParams::raw_io();
        let blocks: Vec<u32> = (0..8).collect();
        let one = CostModel::new(1, 1, raw).charge_round(&[read(0, &blocks)], None);
        let four = CostModel::new(1, 4, raw).charge_round(&[read(0, &blocks)], None);
        assert!(
            four.reads[0].disk_us < one.reads[0].disk_us,
            "4 disks {} not faster than 1 disk {}",
            four.reads[0].disk_us,
            one.reads[0].disk_us
        );
    }

    #[test]
    fn combined_batch_accounts_per_query() {
        // Two reads batched together both want blocks 0 and 1: the second
        // one's come out of the cache the first one's pass just filled, and
        // each read is charged its own hits and disk time.
        let mut m = one_worker();
        let cost = m.charge_round(&[read(0, &[0, 1]), read(0, &[0, 1])], None);
        assert_eq!(cost.reads[0].cache_hits, 0);
        assert_eq!(cost.reads[1].cache_hits, 2);
        assert!(cost.reads[1].disk_us < cost.reads[0].disk_us);
    }

    #[test]
    fn rewritten_block_is_not_served_stale_from_cache() {
        // Warm block 0, rewrite it: the next read pays a miss, and the one
        // after it hits again.
        let mut m = one_worker();
        let hits = |m: &mut CostModel| m.charge_round(&[read(0, &[0])], None).reads[0].cache_hits;
        assert_eq!(hits(&mut m), 0);
        assert_eq!(hits(&mut m), 1, "warmed");
        m.invalidate(0, 0);
        assert_eq!(hits(&mut m), 0, "rewritten block pays a miss");
        assert_eq!(hits(&mut m), 1);
    }

    #[test]
    fn multi_disk_busy_time_is_wall_not_sum() {
        // Seven disks overlap: a batch's wall time is the slowest disk's
        // share, strictly below the per-disk sum, and within it every
        // read's disk time.
        let mut m = CostModel::new(2, 7, DiskParams::default());
        let blocks: Vec<u32> = (0..40).collect();
        let cost = m.charge_round(&[read(0, &blocks), read(1, &blocks[..3])], None);
        let disk_sum: u64 = m.nodes[0].disks.iter().map(DiskModel::busy_us).sum();
        assert!(cost.wall_us[0] < disk_sum, "{cost:?} vs sum {disk_sum}");
        assert!(cost.wall_us[0] >= cost.reads[0].disk_us);
        assert!(cost.wall_us[1] > 0);
    }

    #[test]
    fn single_disk_wall_time_covers_disk_busy() {
        // One disk: no overlap to discount, and the wall time adds the CPU.
        let mut m = one_worker();
        let r = Read {
            cpu_us: 7,
            ..read(0, &[3, 9, 4])
        };
        let cost = m.charge_round(&[r], None);
        assert_eq!(cost.wall_us[0], m.nodes[0].disks[0].busy_us() + 7);
        assert_eq!(cost.wall_us[0], cost.reads[0].disk_us + 7);
    }

    #[test]
    fn reply_transfer_time_rounds_up() {
        // A reply with no records is its 32-byte header: ceil(32/35) = 1 µs
        // on top of the latency, never truncated to zero.
        let net = NetParams::default();
        assert_eq!(net.reply_us(0), 40 + 1);
        assert_eq!(net.reply_us(3), 40 + 1);
        assert_eq!(net.reply_us(4), 40 + 2);
    }

    #[test]
    fn charge_round_records_the_batch_spans() {
        let rec = Recorder::new(2);
        let mut m = CostModel::new(2, 2, DiskParams::default());
        let cost = m.charge_round(&[read(1, &[0, 1, 2])], Some(&rec));
        let snap = rec.snapshot();
        assert_eq!(
            snap.events_of(SpanKind::DiskBatch).len(),
            2,
            "both disks moved"
        );
        assert_eq!(snap.events_of(SpanKind::CacheProbe).len(), 1);
        assert_eq!(snap.clock_us, cost.wall_us[1]);
        assert_eq!(cost.wall_us[0], 0, "worker 0 read nothing");
    }

    use proptest::prelude::*;
    use proptest::prop::collection::vec;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// However reads are grouped into rounds, no cache holds more pages
        /// than its capacity.
        #[test]
        fn rounds_respect_cache_capacity(
            cache_pages in 1usize..=24,
            disks in 1usize..=3,
            rounds in vec(vec((0usize..3, vec(0u32..200, 0..12usize)), 1..10usize), 1..12usize),
        ) {
            let params = DiskParams {
                cache_pages,
                ..DiskParams::default()
            };
            let mut m = CostModel::new(3, disks, params);
            for round in &rounds {
                let reads: Vec<Read<'_>> = round.iter().map(|(w, b)| read(*w, b)).collect();
                m.charge_round(&reads, None);
                for disk in m.nodes.iter().flat_map(|n| &n.disks) {
                    prop_assert!(disk.cache_len() <= cache_pages);
                }
            }
        }
    }
}
