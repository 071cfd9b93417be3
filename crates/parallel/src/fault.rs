//! Deterministic worker fault injection.
//!
//! A [`FaultPlan`] describes failures to inject into an engine's workers,
//! wired through [`crate::ResilienceConfig::faults`]. Fault families:
//!
//! * **fail-stop** ([`FaultKind::DieAfterBlocks`], [`FaultKind::DieAtQuery`])
//!   — the worker thread marks itself dead in the shared liveness table and
//!   exits *without replying*, stranding every in-flight request exactly the
//!   way a crashed node would. The coordinator detects the death via its
//!   per-request reply timeout (or the published dead flag) and retries the
//!   affected buckets against their replicas.
//! * **poison** ([`FaultKind::PoisonQuery`]) — the worker stays alive but
//!   answers the matching request with an error reply instead of records,
//!   exercising the same error path a corrupt/unreadable block takes.
//! * **channel faults** ([`FaultKind::DropRequest`],
//!   [`FaultKind::DuplicateRequest`], [`FaultKind::DelayReply`],
//!   [`FaultKind::ReorderReplies`]) — gray message failures: requests lost,
//!   serviced twice, answered late, or answered out of order. The engine
//!   answers with per-request sequence numbers, worker-side dedup, and
//!   bounded retransmits under the per-query deadline budget.
//! * **corruption** ([`FaultKind::CorruptBlock`]) — flips a byte of one
//!   stored block *without* updating its checksum, so the next read fails
//!   verification; the coordinator serves the affected buckets from the
//!   replica and scrubs the bad block back to health.
//! * **straggler** ([`FaultKind::SlowDisk`]) — multiplies every disk service
//!   time on the worker, turning it into a tail-latency straggler; the
//!   coordinator hedges slow primaries against their replicas.
//!
//! All triggers key off deterministic quantities (lifetime blocks read,
//! engine-assigned query sequence numbers), so injected failures reproduce
//! exactly across runs. [`FaultPlan::chaos`] composes a
//! randomized-but-reproducible schedule from a seed.

/// What goes wrong on one worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail-stop once the worker's lifetime blocks-read count reaches `n`,
    /// checked before servicing each batch (`DieAfterBlocks(0)` dies on the
    /// first message it receives).
    DieAfterBlocks(u64),
    /// Fail-stop upon receiving any request whose engine-assigned query
    /// sequence number is `>= q`.
    DieAtQuery(u64),
    /// Reply with an error (no records) to requests of query number `q`,
    /// after disk time has been charged — the poison-message hook.
    PoisonQuery(u64),
    /// Silently discard the first `times` deliveries of requests for query
    /// number `query`: no service, no reply — a lost message. Coordinator
    /// retransmits (fresh deliveries of the same sequence number) get
    /// through once the budget is spent.
    DropRequest {
        /// Query number whose requests are dropped.
        query: u64,
        /// How many deliveries to discard before behaving normally.
        times: u32,
    },
    /// Service requests of query number `q` normally but send the reply
    /// twice — a duplicated message. The coordinator's sequence-number
    /// matching must merge it exactly once.
    DuplicateRequest(u64),
    /// Hold every reply of the batch containing query number `query` back
    /// for `delay_ms` real milliseconds — a late message, long enough to
    /// overlap the coordinator's retransmit timer (whose retransmits the
    /// worker must then dedup).
    DelayReply {
        /// Query number that triggers the delay.
        query: u64,
        /// Real-time delay before the batch's replies are sent.
        delay_ms: u64,
    },
    /// Emit the replies of any batch containing a request with query number
    /// `>= q` in reverse order — out-of-order delivery, absorbed by the
    /// coordinator's sequence-number (not positional) reply matching.
    ReorderReplies(u64),
    /// Flip a byte of local block `b` (if present) before the first batch is
    /// serviced, without updating its checksum — silent block corruption,
    /// caught by the store's verify-on-read and repaired from the replica.
    CorruptBlock(u32),
    /// Multiply every disk service time on this worker by `factor` — a
    /// straggler disk. Answered by hedged reads when hedging is enabled.
    SlowDisk(u64),
}

/// One worker's injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerFault {
    /// Worker index the fault applies to.
    pub worker: usize,
    /// The failure mode.
    pub kind: FaultKind,
}

/// A set of injected faults for an engine (empty by default).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The injected faults.
    pub faults: Vec<WorkerFault>,
}

/// SplitMix64 step: the chaos schedule's deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kills workers `0..k` on their first received request — the
    /// "K failed workers" sweep configuration.
    pub fn kill_first(k: usize) -> Self {
        let mut plan = Self::default();
        for w in 0..k {
            plan = plan.with_kill(w);
        }
        plan
    }

    /// Adds a fail-stop of `worker` on its first received request.
    pub fn with_kill(mut self, worker: usize) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::DieAtQuery(0),
        });
        self
    }

    /// Adds a fail-stop of `worker` once it has read `blocks` blocks.
    pub fn with_kill_after_blocks(mut self, worker: usize, blocks: u64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::DieAfterBlocks(blocks),
        });
        self
    }

    /// Adds a fail-stop of `worker` at query number `query`.
    pub fn with_kill_at_query(mut self, worker: usize, query: u64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::DieAtQuery(query),
        });
        self
    }

    /// Adds a poison reply from `worker` for query number `query`.
    pub fn with_poison(mut self, worker: usize, query: u64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::PoisonQuery(query),
        });
        self
    }

    /// Adds a lost-request fault: `worker` discards the first `times`
    /// deliveries of query `query`'s requests.
    pub fn with_drop(mut self, worker: usize, query: u64, times: u32) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::DropRequest { query, times },
        });
        self
    }

    /// Adds a duplicated-reply fault for query `query` on `worker`.
    pub fn with_duplicate(mut self, worker: usize, query: u64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::DuplicateRequest(query),
        });
        self
    }

    /// Adds a delayed-reply fault: `worker` holds the replies of query
    /// `query`'s batch for `delay_ms` real milliseconds.
    pub fn with_delay(mut self, worker: usize, query: u64, delay_ms: u64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::DelayReply { query, delay_ms },
        });
        self
    }

    /// Adds a reply-reordering fault on `worker` from query `from_query` on.
    pub fn with_reorder(mut self, worker: usize, from_query: u64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::ReorderReplies(from_query),
        });
        self
    }

    /// Adds silent corruption of `worker`'s local block `block`.
    pub fn with_corrupt_block(mut self, worker: usize, block: u32) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::CorruptBlock(block),
        });
        self
    }

    /// Adds a straggler fault: `worker`'s disks run `factor`× slower.
    pub fn with_slow_disk(mut self, worker: usize, factor: u64) -> Self {
        self.faults.push(WorkerFault {
            worker,
            kind: FaultKind::SlowDisk(factor),
        });
        self
    }

    /// Composes a randomized-but-reproducible hostile-environment schedule:
    /// `events` faults drawn from every family (drops, duplicates, delays,
    /// reorders, corruption, stragglers, poison, fail-stops), spread over
    /// `n_workers` workers and `n_queries` query numbers.
    ///
    /// Deterministic: the same `(seed, n_workers, n_queries, events)` always
    /// yields the same plan. Fail-stops are rationed to **one** per
    /// schedule: chained declustering guarantees a live copy of every
    /// bucket under any single failure, but its least-loaded fallback can
    /// scatter replicas, so no pair of kills is provably safe. The draw
    /// that would have been a second kill becomes a poison instead; the
    /// message, timing, and corruption families supply the rest of the
    /// hostility.
    pub fn chaos(seed: u64, n_workers: usize, n_queries: u64, events: usize) -> Self {
        assert!(n_workers >= 1, "chaos needs at least one worker");
        let mut state = seed ^ 0xC3A0_5C3A_05C3_A05C;
        let mut plan = Self::default();
        let mut killed: Vec<usize> = Vec::new();
        let max_kills = 1;
        for _ in 0..events {
            let worker = (splitmix64(&mut state) % n_workers as u64) as usize;
            let query = splitmix64(&mut state) % n_queries.max(1);
            plan = match splitmix64(&mut state) % 8 {
                0 => plan.with_drop(worker, query, 1 + (splitmix64(&mut state) % 2) as u32),
                1 => plan.with_duplicate(worker, query),
                2 => plan.with_delay(worker, query, 20 + splitmix64(&mut state) % 40),
                3 => plan.with_reorder(worker, query),
                4 => plan.with_corrupt_block(worker, (splitmix64(&mut state) % 8) as u32),
                5 => plan.with_slow_disk(worker, 8 + splitmix64(&mut state) % 24),
                6 => plan.with_poison(worker, query),
                _ => {
                    // Fail-stop, rationed: fall back to poison once the
                    // kill budget is spent, so the schedule never takes
                    // out both copies of a bucket.
                    if killed.len() >= max_kills {
                        plan.with_poison(worker, query)
                    } else {
                        killed.push(worker);
                        plan.with_kill_at_query(worker, query)
                    }
                }
            };
        }
        plan
    }

    /// Whether the plan contains any fault.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault kinds applying to one worker.
    pub fn for_worker(&self, worker: usize) -> Vec<FaultKind> {
        self.faults
            .iter()
            .filter(|f| f.worker == worker)
            .map(|f| f.kind)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::none()
            .with_kill(3)
            .with_kill_after_blocks(1, 10)
            .with_poison(2, 5);
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(plan.for_worker(3), vec![FaultKind::DieAtQuery(0)]);
        assert_eq!(plan.for_worker(1), vec![FaultKind::DieAfterBlocks(10)]);
        assert_eq!(plan.for_worker(2), vec![FaultKind::PoisonQuery(5)]);
        assert!(plan.for_worker(0).is_empty());
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn kill_first_covers_prefix() {
        let plan = FaultPlan::kill_first(2);
        assert_eq!(plan.for_worker(0), vec![FaultKind::DieAtQuery(0)]);
        assert_eq!(plan.for_worker(1), vec![FaultKind::DieAtQuery(0)]);
        assert!(plan.for_worker(2).is_empty());
    }

    #[test]
    fn channel_fault_builders_compose() {
        let plan = FaultPlan::none()
            .with_drop(0, 3, 2)
            .with_duplicate(1, 4)
            .with_delay(2, 5, 60)
            .with_reorder(3, 0)
            .with_corrupt_block(4, 7)
            .with_slow_disk(5, 16);
        assert_eq!(
            plan.for_worker(0),
            vec![FaultKind::DropRequest { query: 3, times: 2 }]
        );
        assert_eq!(plan.for_worker(1), vec![FaultKind::DuplicateRequest(4)]);
        assert_eq!(
            plan.for_worker(2),
            vec![FaultKind::DelayReply {
                query: 5,
                delay_ms: 60
            }]
        );
        assert_eq!(plan.for_worker(3), vec![FaultKind::ReorderReplies(0)]);
        assert_eq!(plan.for_worker(4), vec![FaultKind::CorruptBlock(7)]);
        assert_eq!(plan.for_worker(5), vec![FaultKind::SlowDisk(16)]);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let a = FaultPlan::chaos(42, 16, 200, 12);
        let b = FaultPlan::chaos(42, 16, 200, 12);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 12);
        let c = FaultPlan::chaos(43, 16, 200, 12);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn chaos_rations_fail_stops() {
        for seed in 0..20u64 {
            let plan = FaultPlan::chaos(seed, 8, 100, 40);
            let kills: Vec<usize> = plan
                .faults
                .iter()
                .filter(|f| {
                    matches!(
                        f.kind,
                        FaultKind::DieAtQuery(_) | FaultKind::DieAfterBlocks(_)
                    )
                })
                .map(|f| f.worker)
                .collect();
            assert!(
                kills.len() <= 1,
                "seed {seed}: a chained-declustered engine only tolerates \
                 one kill with certainty, got {kills:?}"
            );
        }
    }

    #[test]
    fn chaos_covers_multiple_fault_families() {
        let plan = FaultPlan::chaos(7, 16, 300, 64);
        let families: std::collections::HashSet<u8> = plan
            .faults
            .iter()
            .map(|f| match f.kind {
                FaultKind::DieAfterBlocks(_) | FaultKind::DieAtQuery(_) => 0,
                FaultKind::PoisonQuery(_) => 1,
                FaultKind::DropRequest { .. } => 2,
                FaultKind::DuplicateRequest(_) => 3,
                FaultKind::DelayReply { .. } => 4,
                FaultKind::ReorderReplies(_) => 5,
                FaultKind::CorruptBlock(_) => 6,
                FaultKind::SlowDisk(_) => 7,
            })
            .collect();
        assert!(
            families.len() >= 6,
            "64 events should span most families, got {families:?}"
        );
    }
}
