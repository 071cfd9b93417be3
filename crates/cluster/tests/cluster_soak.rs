//! Seeded process-level chaos soak (ISSUE acceptance: worker kill +
//! leader kill + partitions, 3 seeds, ≥ 99 % of queries complete, zero
//! silent divergence).
//!
//! Each scenario runs a seeded query/insert mix against a 2-coordinator,
//! 3-worker-process cluster built *replicated* (chained declustering), so
//! a killed worker process is masked by replica failover rather than
//! degrading service. Every complete reply is checked against a computed
//! oracle — the deterministic dataset plus all acknowledged inserts — and
//! any mismatch is silent divergence, which fails the soak outright.
//! Incomplete replies (honest degradation during a detection window) only
//! count against the 99 % completion budget.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pargrid_cluster::coordinator::EngineBuilder;
use pargrid_cluster::prelude::*;
use pargrid_cluster::worker::ChaosDrop;
use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_datagen::Dataset;
use pargrid_geom::{Point, Rect};
use pargrid_gridfile::GridFile;
use pargrid_parallel::{EngineConfig, ParallelGridFile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dataset points (jittered diagonal, oracle-computable).
const N: usize = 500;
/// Engine slots, striped over the 3 worker processes.
const SLOTS: usize = 6;
/// Ops per scenario.
const N_OPS: usize = 60;
/// First id minted by inserts (clear of the dataset's 0..N).
const INSERT_BASE: u64 = 1_000_000;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Chaos {
    /// `kill -9` one of the three worker processes at the midpoint.
    WorkerKill,
    /// `kill -9` the leading coordinator at the midpoint.
    LeaderKill,
    /// Every worker silently drops ~1 % of inbound frames all run long.
    Partition,
}

fn tiny_grid() -> GridFile {
    let domain = Rect::new2(0.0, 0.0, 1000.0, 1000.0);
    let points: Vec<Point> = (0..N)
        .map(|i| {
            let t = i as f64 / N as f64 * 1000.0;
            Point::new2(t, (t * 7.0 + 13.0) % 1000.0)
        })
        .collect();
    Dataset::new("soak", points, domain, 1024, 16).build_grid_file()
}

/// Dataset ids inside `[lo, hi]`.
fn base_ids(lo: [f64; 2], hi: [f64; 2]) -> Vec<u64> {
    (0..N as u64)
        .filter(|&i| {
            let t = i as f64 / N as f64 * 1000.0;
            let y = (t * 7.0 + 13.0) % 1000.0;
            t >= lo[0] && t <= hi[0] && y >= lo[1] && y <= hi[1]
        })
        .collect()
}

/// Replicated build: every bucket has a chained-declustered secondary on
/// a different slot, so losing one worker process keeps service complete.
fn replicated_builder() -> EngineBuilder {
    Box::new(|gf, backend| {
        let input = DeclusterInput::from_grid_file(&gf);
        let ra =
            DeclusterMethod::Minimax(EdgeWeight::Proximity).assign_replicated(&input, SLOTS, 42);
        let cfg = EngineConfig::default().with_backend(backend);
        Arc::new(ParallelGridFile::build_replicated(gf, &ra, cfg))
    })
}

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let a = l.local_addr().expect("local addr");
    drop(l);
    format!("127.0.0.1:{}", a.port())
}

struct SoakCluster {
    client: ClusterClient,
    coords: Vec<Coordinator>,
    workers: Vec<WorkerServer>,
}

fn start_cluster(chaos: Chaos, seed: u64) -> SoakCluster {
    let workers: Vec<WorkerServer> = (0..3)
        .map(|i| {
            let cfg = WorkerConfig {
                chaos: (chaos == Chaos::Partition).then_some(ChaosDrop {
                    seed: seed ^ (i as u64 + 1),
                    rate: 0.01,
                }),
                ..WorkerConfig::default()
            };
            WorkerServer::start("127.0.0.1:0", cfg).expect("start worker")
        })
        .collect();
    let worker_addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let addrs: Vec<(String, String)> = (0..2).map(|_| (free_addr(), free_addr())).collect();
    let coords: Vec<Coordinator> = (0..2)
        .map(|i| {
            let mut cfg = CoordinatorConfig::new(i as u32, addrs[i].0.clone(), addrs[i].1.clone());
            let o = 1 - i;
            cfg.peers = vec![PeerSpec {
                id: o as u32,
                peer_addr: addrs[o].1.clone(),
                client_addr: addrs[o].0.clone(),
            }];
            cfg.workers = worker_addrs.clone();
            cfg.seed = seed ^ (i as u64 + 1);
            Coordinator::start(cfg, tiny_grid(), replicated_builder()).expect("start coordinator")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !coords.iter().any(|c| c.is_leader()) {
        assert!(Instant::now() < deadline, "no leader elected in 30 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    let client = ClusterClient::new(vec![addrs[0].0.clone(), addrs[1].0.clone()])
        .with_deadline(Duration::from_secs(60));
    SoakCluster {
        client,
        coords,
        workers,
    }
}

/// Per-scenario tallies, aggregated across the whole soak.
#[derive(Default)]
struct Tally {
    queries: usize,
    complete: usize,
    divergent: usize,
}

fn run_scenario(chaos: Chaos, seed: u64, tally: &mut Tally) {
    let mut cluster = start_cluster(chaos, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x50a4_c8a0);
    // Acknowledged inserts (certain: in the oracle). An insert whose ack
    // was lost is *maybe applied*: its id is excluded from comparison on
    // both sides instead of guessing.
    let mut certain: Vec<(u64, [f64; 2])> = Vec::new();
    let mut maybe: Vec<u64> = Vec::new();
    let mut next_id = INSERT_BASE;

    for i in 0..N_OPS {
        if i == N_OPS / 2 {
            match chaos {
                Chaos::WorkerKill => cluster.workers[2].kill(),
                Chaos::LeaderKill => {
                    let leader = cluster
                        .coords
                        .iter()
                        .position(|c| c.is_leader())
                        .expect("a leader to kill");
                    cluster.coords[leader].kill();
                    let survivor = &cluster.coords[1 - leader];
                    let t0 = Instant::now();
                    while !survivor.is_leader() {
                        assert!(
                            t0.elapsed() < Duration::from_secs(30),
                            "survivor did not take over"
                        );
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                Chaos::Partition => {}
            }
        }
        if rng.random_bool(0.75) {
            // Query: a random 15 %-side square, checked against the oracle.
            let lo = [rng.random_range(0.0..850.0), rng.random_range(0.0..850.0)];
            let hi = [lo[0] + 150.0, lo[1] + 150.0];
            tally.queries += 1;
            let reply = match cluster.client.range_query(&lo, &hi) {
                Ok(r) => r,
                Err(_) => continue, // not completed; counted against the budget
            };
            if reply.incomplete {
                continue;
            }
            tally.complete += 1;
            let mut got: Vec<u64> = reply.records.iter().map(|r| r.id).collect();
            let n_raw = got.len();
            got.sort_unstable();
            got.dedup();
            let duplicated = got.len() != n_raw;
            got.retain(|id| !maybe.contains(id));
            let mut want = base_ids(lo, hi);
            want.extend(certain.iter().filter_map(|(id, p)| {
                (p[0] >= lo[0] && p[0] <= hi[0] && p[1] >= lo[1] && p[1] <= hi[1]).then_some(*id)
            }));
            want.sort_unstable();
            if duplicated || got != want {
                tally.divergent += 1;
                eprintln!("[{chaos:?} seed {seed}] divergent reply at op {i}: got {got:?} want {want:?} (dup={duplicated})");
            }
        } else {
            let id = next_id;
            next_id += 1;
            let p = [rng.random_range(0.0..1000.0), rng.random_range(0.0..1000.0)];
            match cluster.client.insert(id, &p) {
                Ok(_) => certain.push((id, p)),
                Err(_) => maybe.push(id),
            }
        }
    }
    drop(cluster);
}

#[test]
fn chaos_soak_three_seeds() {
    let mut tally = Tally::default();
    for (chaos, seed) in [
        (Chaos::WorkerKill, 11u64),
        (Chaos::LeaderKill, 12),
        (Chaos::Partition, 13),
    ] {
        let before = (tally.queries, tally.complete);
        run_scenario(chaos, seed, &mut tally);
        eprintln!(
            "[{chaos:?} seed {seed}] {}/{} queries complete, {} divergent so far",
            tally.complete - before.1,
            tally.queries - before.0,
            tally.divergent
        );
    }
    assert_eq!(tally.divergent, 0, "silent divergence in the chaos soak");
    assert!(
        tally.complete * 100 >= tally.queries * 99,
        "completion {}/{} below 99 %",
        tally.complete,
        tally.queries
    );
}
