//! Live elastic rebalance acceptance: growing and shrinking a replicated
//! engine under a concurrent query stream must never produce an incorrect
//! or incomplete reply, must drain removed slots completely, and must keep
//! the balance invariants over the active workers.

use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_datagen::hot2d;
use pargrid_gridfile::{GridFile, Record};
use pargrid_parallel::merge::same_records;
use pargrid_parallel::{EngineConfig, EngineError, ParallelGridFile, RebalanceOp};
use pargrid_sim::QueryWorkload;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const M: usize = 6;

fn build(standby: usize) -> (Arc<GridFile>, ParallelGridFile) {
    let gf = Arc::new(hot2d(7).build_grid_file());
    let input = DeclusterInput::from_grid_file(&gf);
    let ra = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign_replicated(&input, M, 5);
    let engine = ParallelGridFile::build_replicated(
        Arc::clone(&gf),
        &ra,
        EngineConfig::default().with_standby_workers(standby),
    );
    (gf, engine)
}

#[test]
fn grow_and_shrink_under_live_queries_stay_exact() {
    let (gf, engine) = build(2);
    assert_eq!(engine.n_workers(), M + 2);
    assert_eq!(engine.active_workers(), M);

    let w = QueryWorkload::square(&gf.config().domain, 0.05, 32, 11);
    let oracle: Vec<Vec<Record>> = w.queries.iter().map(|q| engine.query(q).records).collect();

    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        s.spawn(|| {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let k = i % w.queries.len();
                let out = engine.query(&w.queries[k]);
                assert!(!out.incomplete, "incomplete reply during migration");
                assert!(
                    same_records(&out.records, &oracle[k]),
                    "incorrect reply during migration"
                );
                i += 1;
            }
        });
        let grow = engine
            .rebalance(RebalanceOp::AddWorkers(2), false)
            .expect("grow");
        assert!(grow.applied);
        assert_eq!(grow.active_workers, M + 2);
        assert!(grow.moves > 0, "new workers must receive data");
        let shrink = engine
            .rebalance(RebalanceOp::RemoveWorker(0), false)
            .expect("shrink");
        assert_eq!(shrink.active_workers, M + 1);
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(engine.active_workers(), M + 1);

    // Slot 0 is fully drained; ownership spans exactly the live buckets.
    let buckets = engine.worker_buckets();
    assert_eq!(buckets[0], 0, "removed slot still owns buckets");
    assert_eq!(buckets.iter().sum::<usize>(), gf.n_buckets());

    // Primary balance invariant over the surviving active slots.
    let n = gf.n_buckets();
    let active = M + 1;
    let cap = n.div_ceil(active);
    let floor = n / active;
    for (slot, &count) in buckets.iter().enumerate().skip(1) {
        assert!(
            (floor..=cap).contains(&count),
            "slot {slot} owns {count} buckets, outside [{floor},{cap}]"
        );
    }

    // Post-rebalance answers still hold the same records.
    for (q, expect) in w.queries.iter().zip(&oracle) {
        let out = engine.query(q);
        assert!(!out.incomplete);
        assert!(same_records(&out.records, expect));
    }
    let stats = engine.stats();
    assert!(stats.rebalance_moves > 0);
    assert!(stats.rebalance_bytes > 0);

    // Mutations after the resize must respect the new active set: splits
    // place fresh buckets on active slots only, never on drained slot 0.
    let domain = gf.config().domain;
    let (w0, h0) = (domain.side(0), domain.side(1));
    for i in 0..400u64 {
        let x = domain.lo().coords()[0] + w0 * 0.02 + (i % 20) as f64 * w0 * 0.001;
        let y = domain.lo().coords()[1] + h0 * 0.02 + (i / 20) as f64 * h0 * 0.001;
        engine
            .insert(Record::new(1_000_000 + i, pargrid_geom::Point::new2(x, y)))
            .expect("insert");
    }
    assert_eq!(
        engine.worker_buckets()[0],
        0,
        "a drained slot received a fresh bucket"
    );
    engine.shutdown();
}

#[test]
fn dry_run_previews_without_touching_data() {
    let (_gf, engine) = build(1);
    let before = engine.worker_buckets();
    let rep = engine
        .rebalance(RebalanceOp::AddWorkers(1), true)
        .expect("dry run");
    assert!(!rep.applied);
    assert!(rep.moves > 0);
    assert!(rep.full_moves > 0);
    assert_eq!(rep.active_workers, M + 1);
    // Nothing moved, nothing activated.
    assert_eq!(engine.worker_buckets(), before);
    assert_eq!(engine.active_workers(), M);
    engine.shutdown();
}

#[test]
fn invalid_requests_are_rejected_with_layout_untouched() {
    let (_gf, engine) = build(1);
    // More workers than standby slots exist.
    assert!(matches!(
        engine.rebalance(RebalanceOp::AddWorkers(2), false),
        Err(EngineError::Rebalance(_))
    ));
    // Removing a standby (inactive) or out-of-range slot.
    assert!(matches!(
        engine.rebalance(RebalanceOp::RemoveWorker(M), false),
        Err(EngineError::Rebalance(_))
    ));
    assert!(matches!(
        engine.rebalance(RebalanceOp::RemoveWorker(99), false),
        Err(EngineError::Rebalance(_))
    ));
    // Zero-worker grow is meaningless.
    assert!(matches!(
        engine.rebalance(RebalanceOp::AddWorkers(0), false),
        Err(EngineError::Rebalance(_))
    ));
    assert_eq!(engine.active_workers(), M);
    engine.shutdown();
}

#[test]
fn removed_slot_can_rejoin_later() {
    let (gf, engine) = build(0);
    engine
        .rebalance(RebalanceOp::RemoveWorker(3), false)
        .expect("shrink");
    assert_eq!(engine.active_workers(), M - 1);
    assert_eq!(engine.worker_buckets()[3], 0);
    // The drained slot is standby now; a grow re-activates it.
    let rep = engine
        .rebalance(RebalanceOp::AddWorkers(1), false)
        .expect("regrow");
    assert_eq!(rep.active_workers, M);
    assert!(engine.worker_buckets()[3] > 0, "rejoined slot got no data");
    // Answers remain exact across the round trip.
    let w = QueryWorkload::square(&gf.config().domain, 0.08, 8, 3);
    for q in &w.queries {
        assert!(!engine.query(q).incomplete);
    }
    engine.shutdown();
}
