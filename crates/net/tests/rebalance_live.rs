//! Wire-driven elastic rebalance under live traffic: a replicated engine
//! with standby slots behind a real TCP server, one client streaming
//! queries against a fixed oracle and another streaming inserts into a
//! disjoint region, while an admin connection grows and then shrinks the
//! cluster. Every reply during the migrations must be complete and hold
//! the pre-rebalance oracle's records.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_geom::{Point, Rect};
use pargrid_gridfile::{GridConfig, GridFile, Record};
use pargrid_net::{Client, ClientError, RebalanceCmd, Server, ServerConfig, WireError};
use pargrid_obs::{names, validate_prometheus};
use pargrid_parallel::merge::same_records;
use pargrid_parallel::{EngineConfig, ParallelGridFile};

const M: usize = 6;
const STANDBY: usize = 2;

fn sample_grid() -> Arc<GridFile> {
    let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), 8);
    let mut recs = Vec::new();
    let mut x = 1u64;
    for i in 0..700u64 {
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
    Arc::new(GridFile::bulk_load(cfg, recs.iter().copied()))
}

fn build_engine() -> Arc<ParallelGridFile> {
    let gf = sample_grid();
    let input = DeclusterInput::from_grid_file(&gf);
    let ra = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign_replicated(&input, M, 7);
    Arc::new(ParallelGridFile::build_replicated(
        gf,
        &ra,
        EngineConfig::default().with_standby_workers(STANDBY),
    ))
}

/// Query rectangles confined to `x, y < 45`, disjoint from the mutation
/// region below so the oracle stays valid while inserts land.
fn oracle_rects() -> Vec<[f64; 4]> {
    let mut rects = Vec::new();
    for i in 0..12u32 {
        let x = (i % 4) as f64 * 10.0;
        let y = (i / 4) as f64 * 12.0;
        rects.push([x, y, x + 8.0, y + 9.0]);
    }
    rects
}

#[test]
fn wire_rebalance_under_live_queries_and_mutations_stays_exact() {
    let engine = build_engine();
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            queue_capacity: 256,
            dispatchers: 2,
            allow_remote_rebalance: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut admin =
        Client::connect_retry(addr.as_str(), 5, Duration::from_millis(20)).expect("admin connect");
    let rects = oracle_rects();

    // Oracle through the wire, before any resize.
    let mut oracle_client = Client::connect(addr.as_str()).expect("oracle connect");
    let oracle: Vec<Vec<Record>> = rects
        .iter()
        .map(|r| {
            let reply = oracle_client
                .range_query(&r[..2], &r[2..])
                .expect("oracle query");
            assert!(!reply.incomplete);
            reply.records
        })
        .collect();

    // A dry run reports the plan without touching anything.
    let preview = admin
        .rebalance(RebalanceCmd::AddWorkers(STANDBY as u32), true)
        .expect("dry run");
    assert!(!preview.applied);
    assert!(preview.moves > 0);
    assert!(preview.full_moves > 0);
    assert_eq!(preview.active_workers, (M + STANDBY) as u32);

    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        // Reader: loops the oracle queries; every reply must be complete
        // and hold the same records throughout both migrations.
        s.spawn(|| {
            let mut c = Client::connect(addr.as_str()).expect("query connect");
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let k = i % rects.len();
                let r = &rects[k];
                match c.range_query(&r[..2], &r[2..]) {
                    Ok(reply) => {
                        assert!(!reply.incomplete, "incomplete reply during migration");
                        assert!(
                            same_records(&reply.records, &oracle[k]),
                            "incorrect reply during migration (query {k})"
                        );
                    }
                    Err(e) if e.retry_after_ms().is_some() => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => panic!("query failed during migration: {e}"),
                }
                i += 1;
            }
        });
        // Writer: inserts into x, y ∈ [60, 95], disjoint from every oracle
        // rectangle, so mutations flow during the rebalances without
        // invalidating the oracle.
        s.spawn(|| {
            let mut c = Client::connect(addr.as_str()).expect("mutate connect");
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let x = 60.0 + (i % 50) as f64 * 0.7;
                let y = 60.0 + (i / 50 % 50) as f64 * 0.7;
                match c.insert(1_000_000 + i, &[x, y]) {
                    Ok(_) => {}
                    Err(e) if e.retry_after_ms().is_some() => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => panic!("insert failed during migration: {e}"),
                }
                i += 1;
            }
        });

        let grow = admin
            .rebalance(RebalanceCmd::AddWorkers(STANDBY as u32), false)
            .expect("grow");
        assert!(grow.applied);
        assert_eq!(grow.active_workers, (M + STANDBY) as u32);
        assert!(grow.moves > 0, "new workers must receive data");
        let shrink = admin
            .rebalance(RebalanceCmd::RemoveWorker(0), false)
            .expect("shrink");
        assert!(shrink.applied);
        assert_eq!(shrink.active_workers, (M + STANDBY - 1) as u32);
        stop.store(true, Ordering::Relaxed);
    });

    // Post-rebalance answers still match the oracle.
    for (r, expect) in rects.iter().zip(&oracle) {
        let reply = admin.range_query(&r[..2], &r[2..]).expect("post query");
        assert!(!reply.incomplete);
        assert!(same_records(&reply.records, expect));
    }

    // Progress is observable: rebalance counters and the per-worker
    // ownership gauge, with the drained slot at zero.
    let doc = admin.stats().expect("stats");
    validate_prometheus(&doc).expect("metrics must validate");
    assert!(
        doc.contains(&format!("{} 3", names::NET_REBALANCE_TOTAL)),
        "{doc}"
    );
    assert!(doc.contains(names::NET_REBALANCE_MOVES_TOTAL), "{doc}");
    assert!(doc.contains(names::NET_REBALANCE_BYTES_TOTAL), "{doc}");
    assert!(
        doc.contains(&format!("{}{{worker=\"0\"}} 0", names::NET_WORKER_BUCKETS)),
        "removed slot must export zero ownership:\n{doc}"
    );
    let moves_line = doc
        .lines()
        .find(|l| l.starts_with(names::NET_REBALANCE_MOVES_TOTAL))
        .expect("moves counter line");
    let moved: u64 = moves_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(moved > 0, "rebalance moves counter must advance");

    server.shutdown();
}

#[test]
fn rebalance_is_refused_unless_enabled() {
    let engine = build_engine();
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let mut c = Client::connect_retry(
        server.local_addr().to_string().as_str(),
        5,
        Duration::from_millis(20),
    )
    .expect("connect");
    let err = c
        .rebalance(RebalanceCmd::AddWorkers(1), false)
        .expect_err("must be refused");
    assert!(matches!(err, ClientError::Server(WireError::Malformed(_))));
    server.shutdown();
}

#[test]
fn invalid_rebalance_is_a_typed_error_with_layout_untouched() {
    let engine = build_engine();
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            allow_remote_rebalance: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut c = Client::connect_retry(
        server.local_addr().to_string().as_str(),
        5,
        Duration::from_millis(20),
    )
    .expect("connect");
    // More workers than standby slots exist.
    let err = c
        .rebalance(RebalanceCmd::AddWorkers(STANDBY as u32 + 1), false)
        .expect_err("must be rejected");
    assert!(matches!(
        err,
        ClientError::Server(WireError::MutationFailed(_))
    ));
    // Removing a slot that was never active.
    let err = c
        .rebalance(RebalanceCmd::RemoveWorker((M + STANDBY) as u32), false)
        .expect_err("must be rejected");
    assert!(matches!(
        err,
        ClientError::Server(WireError::MutationFailed(_))
    ));
    assert_eq!(engine.active_workers(), M);
    server.shutdown();
}
