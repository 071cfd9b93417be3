//! Seeded chaos soak: randomized-but-reproducible hostile-environment fault
//! schedules ([`FaultPlan::chaos`]) composed over hundreds of queries.
//!
//! Acceptance per query, against a fault-free oracle engine:
//! - no panic anywhere (a failed send to a dead session thread included),
//! - no duplicate records, ever (the seq-matching invariant),
//! - the answer holds exactly the oracle's records, **or** the outcome is
//!   explicitly flagged [`QueryOutcome::incomplete`] — silent data loss is
//!   the one unacceptable outcome.
//!
//! Each seed is deterministic: the schedule derives entirely from
//! `FaultPlan::chaos(seed, ...)`, so a failing seed reproduces exactly.

use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_datagen::hot2d;
use pargrid_gridfile::GridFile;
use pargrid_parallel::merge::same_records;
use pargrid_parallel::{EngineConfig, FaultPlan, ParallelGridFile, QueryOutcome};
use pargrid_sim::QueryWorkload;
use std::collections::HashSet;
use std::sync::Arc;

const WORKERS: usize = 16;
const QUERIES: usize = 100;

fn grid() -> Arc<GridFile> {
    Arc::new(hot2d(4242).build_grid_file())
}

fn workload(gf: &GridFile, seed: u64) -> QueryWorkload {
    QueryWorkload::square(&gf.config().domain, 0.05, QUERIES, seed)
}

/// Fault-free truth: a healthy unreplicated engine over the same grid.
fn oracle(gf: &Arc<GridFile>, w: &QueryWorkload) -> Vec<QueryOutcome> {
    let input = DeclusterInput::from_grid_file(gf);
    let a = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, WORKERS, 5);
    let engine = ParallelGridFile::build(Arc::clone(gf), &a, EngineConfig::default());
    w.queries.iter().map(|q| engine.query(q)).collect()
}

/// Chaos config: short failure detection so dead/silent workers resolve
/// fast, a 2-second real-time deadline so no schedule can wedge a query,
/// and hedging armed (the chaos schedule's slow disks exercise it).
fn chaos_cfg(faults: FaultPlan) -> EngineConfig {
    EngineConfig::default()
        .resilience(|r| r.with_fail_timeout_ms(15).with_faults(faults))
        .latency(|l| l.with_deadline_us(2_000_000).with_hedging(3.0))
}

fn chaos_engine(gf: &Arc<GridFile>, faults: FaultPlan, replicated: bool) -> ParallelGridFile {
    let input = DeclusterInput::from_grid_file(gf);
    if replicated {
        let ra =
            DeclusterMethod::Minimax(EdgeWeight::Proximity).assign_replicated(&input, WORKERS, 5);
        ParallelGridFile::build_replicated(Arc::clone(gf), &ra, chaos_cfg(faults))
    } else {
        let a = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, WORKERS, 5);
        ParallelGridFile::build(Arc::clone(gf), &a, chaos_cfg(faults))
    }
}

/// Runs one seeded soak and checks every acceptance property. Returns the
/// number of incomplete outcomes so callers can bound lossiness.
fn soak(seed: u64, replicated: bool) -> usize {
    let gf = grid();
    let w = workload(&gf, 99);
    let truth = oracle(&gf, &w);

    let faults = FaultPlan::chaos(seed, WORKERS, QUERIES as u64, 24);
    let engine = chaos_engine(&gf, faults, replicated);
    let (outcomes, tp) = engine.run_workload_concurrent(&w, 8);
    assert_eq!(outcomes.len(), truth.len(), "seed {seed}: lost outcomes");

    let mut incomplete = 0;
    for (i, (out, t)) in outcomes.iter().zip(&truth).enumerate() {
        let ids: Vec<u64> = out.records.iter().map(|r| r.id).collect();
        let unique: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(
            ids.len(),
            unique.len(),
            "seed {seed} query {i}: duplicate records"
        );
        if out.incomplete {
            incomplete += 1;
            // Incomplete answers may miss records but must never invent
            // or duplicate them.
            let truth_ids: HashSet<u64> = t.records.iter().map(|r| r.id).collect();
            assert!(
                unique.is_subset(&truth_ids),
                "seed {seed} query {i}: incomplete answer invented records"
            );
        } else {
            assert!(
                same_records(&out.records, &t.records),
                "seed {seed} query {i}: silent divergence from oracle"
            );
        }
    }
    // The engine survived: its stats are coherent and a fresh query still
    // answers (possibly degraded, never panicking).
    let stats = engine.stats();
    eprintln!(
        "seed {seed}: incomplete={incomplete} retries={} retransmits={} hedges={} scrubbed={} deadline_expired={} failed_over={} live={}",
        stats.retries, stats.retransmits, stats.hedges, stats.scrubbed,
        stats.deadline_expired, stats.failed_over_blocks, stats.live_workers()
    );
    assert!(stats.queries >= QUERIES as u64, "seed {seed}: {stats:?}");
    assert!(tp.queries == QUERIES as u64);
    let after = engine.query(&w.queries[0]);
    let after_ids: HashSet<u64> = after.records.iter().map(|r| r.id).collect();
    assert_eq!(after_ids.len(), after.records.len());
    incomplete
}

#[test]
fn chaos_soak_replicated_seed_1() {
    let incomplete = soak(1, true);
    assert!(
        incomplete * 100 <= QUERIES,
        "replicated soak too lossy: {incomplete}/{QUERIES} incomplete"
    );
}

#[test]
fn chaos_soak_replicated_seed_2() {
    let incomplete = soak(2, true);
    assert!(
        incomplete * 100 <= QUERIES,
        "replicated soak too lossy: {incomplete}/{QUERIES} incomplete"
    );
}

#[test]
fn chaos_soak_replicated_seed_3() {
    let incomplete = soak(3, true);
    assert!(
        incomplete * 100 <= QUERIES,
        "replicated soak too lossy: {incomplete}/{QUERIES} incomplete"
    );
}

#[test]
fn chaos_soak_unreplicated_degrades_loudly_not_wrongly() {
    // Without replicas some fault families are unrecoverable; the contract
    // is that every loss is flagged, never silent. (`soak` asserts that.)
    soak(7, false);
}
