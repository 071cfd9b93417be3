//! Property tests for the concurrent query service: the shared-session
//! engine must give the same answers no matter how queries are windowed,
//! and while inserts interleave with them.

use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_geom::{Point, Rect};
use pargrid_gridfile::{GridConfig, GridFile, Record};
use pargrid_parallel::merge::same_records;
use pargrid_parallel::{EngineConfig, ParallelGridFile, QueryOutcome};
use pargrid_sim::QueryWorkload;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

fn build_engine(n_workers: usize) -> ParallelGridFile {
    let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), 6);
    let mut x = 9u64;
    let recs: Vec<Record> = (0..400u64)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Record::new(
                i,
                Point::new2(
                    ((x >> 16) % 10000) as f64 / 100.0,
                    ((x >> 40) % 10000) as f64 / 100.0,
                ),
            )
        })
        .collect();
    let gf = Arc::new(GridFile::bulk_load(cfg, recs));
    let input = DeclusterInput::from_grid_file(&gf);
    let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, n_workers, 3);
    ParallelGridFile::build(gf, &assignment, EngineConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Windowed execution is a pure scheduling choice: per-query answers,
    /// bucket sets, and total blocks match the serial run exactly.
    #[test]
    fn windowing_never_changes_answers(
        in_flight in 2usize..=10,
        n_queries in 1usize..=20,
        seed in 0u64..=1000,
    ) {
        let serial = build_engine(4);
        let concurrent = build_engine(4);
        let w = QueryWorkload::square(
            &Rect::new2(0.0, 0.0, 100.0, 100.0),
            0.05,
            n_queries,
            seed,
        );
        let mut session = serial.session();
        let (conc, _tp) = concurrent.run_workload_concurrent(&w, in_flight);
        for (q, c) in w.queries.iter().zip(&conc) {
            let s = session.query(q);
            prop_assert_eq!(&s.records, &c.records);
            prop_assert_eq!(&s.buckets, &c.buckets);
            prop_assert_eq!(s.total_blocks, c.total_blocks);
        }
        let serial_stats = serial.stats();
        let conc_stats = concurrent.stats();
        for (a, b) in serial_stats.workers.iter().zip(&conc_stats.workers) {
            prop_assert_eq!(a.blocks_fetched, b.blocks_fetched);
        }
    }
}

/// Clears the flag it holds when dropped, so the readers stop even when the
/// thread that owns it panics.
struct ClearOnDrop<'a>(&'a AtomicBool);

impl Drop for ClearOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// Whether `out` is a well-formed answer to `q` even if it raced a
/// mutation: no record twice, none outside the query box.
fn well_formed(q: &Rect, out: &QueryOutcome) -> bool {
    let mut ids = HashSet::new();
    out.records
        .iter()
        .all(|r| ids.insert(r.id) && q.contains_closed(&r.point))
}

/// The records matching every query of `w`, sorted by id, in `gf`.
fn oracle(gf: &GridFile, w: &QueryWorkload) -> Vec<Vec<Record>> {
    w.queries
        .iter()
        .map(|q| {
            let (_, mut records) = gf.range_query(q);
            records.sort_unstable_by_key(|r| r.id);
            records
        })
        .collect()
}

/// The concurrent runner's batches, two sessions and an inserter all take
/// the same in-process slot locks. While they interleave, the inserter
/// reads back every insert it made and no reader sees a malformed answer
/// (answers that overlap a concurrent split may miss records — that torn
/// read is a known, separate defect — so they are not compared exactly).
/// Once the inserter stops, the runner and the sessions answer exactly.
/// A lock-order deadlock fails the wall bound instead of hanging the test.
#[test]
fn runner_sessions_and_inserts_interleave_on_slot_locks() {
    let engine = Arc::new(build_engine(4));
    let domain = Rect::new2(0.0, 0.0, 100.0, 100.0);
    let w = QueryWorkload::square(&domain, 0.05, 40, 11);
    let (done_tx, done_rx) = mpsc::channel();
    let run = Arc::clone(&engine);
    std::thread::spawn(move || {
        let engine = &*run;
        let inserting = AtomicBool::new(true);
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            let runner = s.spawn(|| {
                start.wait();
                let mut rounds = 0;
                while inserting.load(Ordering::Relaxed) || rounds == 0 {
                    let (outs, _) = engine.run_workload_concurrent(&w, 8);
                    for (q, out) in w.queries.iter().zip(&outs) {
                        assert!(well_formed(q, out), "runner answer malformed for {q:?}");
                    }
                    rounds += 1;
                }
            });
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut session = engine.session();
                        start.wait();
                        while inserting.load(Ordering::Relaxed) {
                            for q in &w.queries {
                                let out = session.query(q);
                                assert!(well_formed(q, &out), "session answer malformed for {q:?}");
                            }
                        }
                    })
                })
                .collect();
            let mut session = engine.session();
            let mut x = 5u64;
            let inserter = ClearOnDrop(&inserting);
            start.wait();
            for i in 0..1000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let p = Point::new2(
                    ((x >> 16) % 10000) as f64 / 100.0,
                    ((x >> 40) % 10000) as f64 / 100.0,
                );
                engine.insert(Record::new(10_000 + i, p)).expect("insert");
                let at = Rect::new2(p.get(0), p.get(1), p.get(0), p.get(1));
                let out = session.query(&at);
                assert!(
                    out.records.iter().any(|r| r.id == 10_000 + i),
                    "acknowledged insert {i} at {p:?} not read back"
                );
            }
            drop(inserter);
            runner.join().expect("runner");
            for reader in readers {
                reader.join().expect("session reader");
            }
        });

        // Quiet again: every path answers exactly.
        let expected = oracle(&engine.snapshot_grid(), &w);
        let (outs, _) = engine.run_workload_concurrent(&w, 8);
        for (out, want) in outs.iter().zip(&expected) {
            assert!(same_records(&out.records, want), "runner after the inserts");
        }
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut session = engine.session();
                    for (q, want) in w.queries.iter().zip(&expected) {
                        assert!(
                            same_records(&session.query(q).records, want),
                            "session after the inserts"
                        );
                    }
                });
            }
        });
        done_tx.send(()).expect("test waits");
    });
    match done_rx.recv_timeout(Duration::from_secs(120)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the interleaving run failed"),
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("no progress in 120 s: deadlock"),
    }
}
