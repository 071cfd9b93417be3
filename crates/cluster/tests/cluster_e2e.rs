//! End-to-end cluster tests, in-process but over real TCP: worker
//! processes as `WorkerServer`s, coordinators as `Coordinator`s, clients
//! as `ClusterClient`s. Everything a deployment does — joins, uploads,
//! dispatches, elections, replication, failover — happens over loopback
//! sockets here.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pargrid_cluster::coordinator::EngineBuilder;
use pargrid_cluster::prelude::*;
use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_datagen::Dataset;
use pargrid_geom::{Point, Rect};
use pargrid_gridfile::{GridFile, Record};
use pargrid_parallel::merge::same_records;
use pargrid_parallel::{EngineConfig, ParallelGridFile};

/// A small deterministic dataset: `n` points on a jittered diagonal so
/// every id's position is computable in the oracle.
fn tiny_grid(n: usize) -> GridFile {
    let domain = Rect::new2(0.0, 0.0, 1000.0, 1000.0);
    let points: Vec<Point> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64 * 1000.0;
            Point::new2(t, (t * 7.0 + 13.0) % 1000.0)
        })
        .collect();
    Dataset::new("e2e", points, domain, 1024, 16).build_grid_file()
}

/// Expected records for a range query against [`tiny_grid`].
fn oracle(n: usize, lo: [f64; 2], hi: [f64; 2]) -> Vec<Record> {
    (0..n as u64)
        .filter_map(|i| {
            let t = i as f64 / n as f64 * 1000.0;
            let y = (t * 7.0 + 13.0) % 1000.0;
            (t >= lo[0] && t <= hi[0] && y >= lo[1] && y <= hi[1])
                .then(|| Record::new(i, Point::new2(t, y)))
        })
        .collect()
}

fn test_builder() -> EngineBuilder {
    Box::new(|gf, backend| {
        let input = DeclusterInput::from_grid_file(&gf);
        let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, 4, 42);
        let cfg = EngineConfig::default().with_backend(backend);
        Arc::new(ParallelGridFile::build(gf, &assignment, cfg))
    })
}

/// Grabs a free loopback port (bind 0, read, release).
fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let a = l.local_addr().expect("local addr");
    drop(l);
    format!("127.0.0.1:{}", a.port())
}

fn wait_for<F: FnMut() -> bool>(what: &str, timeout: Duration, mut f: F) {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn single_coordinator_serves_over_remote_workers() {
    let n = 600;
    let gf = tiny_grid(n);
    let w1 = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("worker 1");
    let w2 = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("worker 2");
    let mut cfg = CoordinatorConfig::new(0, free_addr(), free_addr());
    cfg.workers = vec![w1.local_addr().to_string(), w2.local_addr().to_string()];
    let coord = Coordinator::start(cfg, gf, test_builder()).expect("coordinator");
    wait_for("leadership", Duration::from_secs(10), || coord.is_leader());

    let mut client = ClusterClient::new(vec![coord.client_addr().to_string()]);
    // Queries match the oracle exactly.
    for (lo, hi) in [
        ([0.0, 0.0], [1000.0, 1000.0]),
        ([100.0, 0.0], [400.0, 900.0]),
        ([700.0, 200.0], [950.0, 750.0]),
    ] {
        let reply = client.range_query(&lo, &hi).expect("range query");
        assert!(!reply.incomplete, "no worker should have failed");
        assert!(
            same_records(&reply.records, &oracle(n, lo, hi)),
            "query [{lo:?}..{hi:?}]"
        );
    }
    // Both worker processes actually executed dispatches.
    assert!(w1.executed() > 0, "worker 1 saw traffic");
    assert!(w2.executed() > 0, "worker 2 saw traffic");

    // Mutations round-trip: insert then read-your-write, delete, gone.
    client.insert(9_001, &[123.0, 456.0]).expect("insert");
    let reply = client
        .range_query(&[122.0, 455.0], &[124.0, 457.0])
        .expect("query inserted");
    assert!(reply.records.iter().any(|r| r.id == 9_001));
    client.delete(9_001, &[123.0, 456.0]).expect("delete");
    let reply = client
        .range_query(&[122.0, 455.0], &[124.0, 457.0])
        .expect("query deleted");
    assert!(!reply.records.iter().any(|r| r.id == 9_001));

    // The metrics document carries the cluster gauges (satellite 2).
    let stats = client.stats().expect("stats");
    assert!(stats.contains("pargrid_cluster_leader_term"), "{stats}");
    assert!(stats.contains("pargrid_cluster_is_leader 1"), "{stats}");
    assert!(
        stats.contains("pargrid_net_worker_alive{worker="),
        "{stats}"
    );
    drop(coord);
}

#[test]
fn failover_preserves_acknowledged_writes() {
    let n = 400;
    let gf = tiny_grid(n);
    let workers: Vec<WorkerServer> = (0..3)
        .map(|_| WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("worker"))
        .collect();
    let worker_addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();

    let (c0_client, c0_peer) = (free_addr(), free_addr());
    let (c1_client, c1_peer) = (free_addr(), free_addr());
    let mk_cfg = |id: u32, client: &str, peer: &str, other: PeerSpec, seed: u64| {
        let mut cfg = CoordinatorConfig::new(id, client.to_string(), peer.to_string());
        cfg.peers = vec![other];
        cfg.workers = worker_addrs.clone();
        cfg.seed = seed;
        cfg
    };
    let c0 = Coordinator::start(
        mk_cfg(
            0,
            &c0_client,
            &c0_peer,
            PeerSpec {
                id: 1,
                peer_addr: c1_peer.clone(),
                client_addr: c1_client.clone(),
            },
            1,
        ),
        gf.clone(),
        test_builder(),
    )
    .expect("coordinator 0");
    let c1 = Coordinator::start(
        mk_cfg(
            1,
            &c1_client,
            &c1_peer,
            PeerSpec {
                id: 0,
                peer_addr: c0_peer.clone(),
                client_addr: c0_client.clone(),
            },
            2,
        ),
        gf,
        test_builder(),
    )
    .expect("coordinator 1");

    wait_for("a leader", Duration::from_secs(10), || {
        let a = c0.is_leader();
        let b = c1.is_leader();
        a || b
    });
    // Give the loser a beat to settle into follower; exactly one leads.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        c0.is_leader() ^ c1.is_leader(),
        "exactly one leader (c0={}, c1={})",
        c0.is_leader(),
        c1.is_leader()
    );

    let mut client = ClusterClient::new(vec![c0_client.clone(), c1_client.clone()]);
    // Write through the leader; the ack means both logs have it.
    for i in 0..20u64 {
        client
            .insert(10_000 + i, &[500.0 + i as f64, 500.0])
            .expect("insert before failover");
    }
    let before = client
        .range_query(&[499.0, 499.0], &[521.0, 501.0])
        .expect("query before failover");
    let mut ids: Vec<u64> = before.records.iter().map(|r| r.id).collect();
    ids.retain(|&id| id >= 10_000);
    assert_eq!(ids.len(), 20, "all 20 inserts visible before failover");

    // Kill the leader the hard way.
    let (dead, survivor) = if c0.is_leader() {
        (&c0, &c1)
    } else {
        (&c1, &c0)
    };
    let killed_at = Instant::now();
    dead.kill();

    wait_for("failover", Duration::from_secs(30), || survivor.is_leader());
    let elected_in = killed_at.elapsed();

    // Read-your-write across the failover: every acknowledged insert is
    // visible through the new leader.
    let after = client
        .range_query(&[499.0, 499.0], &[521.0, 501.0])
        .expect("query after failover");
    let mut ids: Vec<u64> = after.records.iter().map(|r| r.id).collect();
    ids.retain(|&id| id >= 10_000);
    ids.sort_unstable();
    assert_eq!(
        ids,
        (10_000..10_020).collect::<Vec<u64>>(),
        "acknowledged writes survive failover"
    );
    // New regime keeps serving ordinary queries correctly.
    let reply = client
        .range_query(&[0.0, 0.0], &[250.0, 1000.0])
        .expect("query after failover");
    let got: Vec<Record> = reply
        .records
        .into_iter()
        .filter(|r| r.id < 10_000)
        .collect();
    assert!(same_records(&got, &oracle(n, [0.0, 0.0], [250.0, 1000.0])));
    // Debug builds are slow; the release-mode experiment asserts the
    // sub-second bound. Here just sanity-bound it.
    assert!(
        elected_in < Duration::from_secs(20),
        "failover took {elected_in:?}"
    );
    assert!(survivor.failovers() >= 1);
    assert!(survivor.term() > 0);
}

#[test]
fn mutations_refused_when_a_joined_standby_goes_dark() {
    // A standby that was replicating this term and then goes dark must
    // flip the leader from replicated to *refusing* — never to silently
    // unreplicated acks (a network blip would otherwise convert every
    // ack into zero-replica durability, lost on the next leader crash).
    // Reads keep serving throughout; refused inserts never surface.
    let n = 300;
    let gf = tiny_grid(n);
    let w1 = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("worker 1");
    let w2 = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("worker 2");
    let worker_addrs = vec![w1.local_addr().to_string(), w2.local_addr().to_string()];
    let (c0_client, c0_peer) = (free_addr(), free_addr());
    let (c1_client, c1_peer) = (free_addr(), free_addr());
    let mk_cfg = |id: u32, client: &str, peer: &str, other: PeerSpec, seed: u64| {
        let mut cfg = CoordinatorConfig::new(id, client.to_string(), peer.to_string());
        cfg.peers = vec![other];
        cfg.workers = worker_addrs.clone();
        cfg.seed = seed;
        cfg
    };
    let c0 = Coordinator::start(
        mk_cfg(
            0,
            &c0_client,
            &c0_peer,
            PeerSpec {
                id: 1,
                peer_addr: c1_peer.clone(),
                client_addr: c1_client.clone(),
            },
            11,
        ),
        gf.clone(),
        test_builder(),
    )
    .expect("coordinator 0");
    let c1 = Coordinator::start(
        mk_cfg(
            1,
            &c1_client,
            &c1_peer,
            PeerSpec {
                id: 0,
                peer_addr: c0_peer.clone(),
                client_addr: c0_client.clone(),
            },
            12,
        ),
        gf,
        test_builder(),
    )
    .expect("coordinator 1");
    wait_for("a leader", Duration::from_secs(15), || {
        c0.is_leader() || c1.is_leader()
    });
    std::thread::sleep(Duration::from_millis(300));
    let (leader, standby) = if c0.is_leader() {
        (&c0, &c1)
    } else {
        (&c1, &c0)
    };

    let mut client = ClusterClient::new(vec![leader.client_addr().to_string()])
        .with_deadline(Duration::from_millis(900));
    // Replicated inserts while the standby is up: the standby joins the
    // regime's replication set.
    for i in 0..3u64 {
        client
            .insert(20_000 + i, &[400.0, 400.0 + i as f64])
            .expect("replicated insert");
    }

    // The standby goes dark (silent, like a partition — not deposed).
    standby.kill();

    // Every insert from here on must fail: indeterminate while the
    // standby burns its strikes, then the explicit refusal once it is
    // struck offline. None may be acknowledged.
    let mut last_err = String::new();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let i = u64::from(last_err.len() as u32 % 97); // vary the key a little
        match client.insert(21_000 + i, &[600.0, 600.0 + i as f64]) {
            Ok(_) => panic!("insert acknowledged with zero replicas"),
            Err(e) => last_err = e.to_string(),
        }
        if last_err.contains("no online standby") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "standby never struck offline; last error: {last_err}"
        );
    }

    // Reads are unaffected, the pre-kill acked inserts are visible, and
    // none of the refused ones ever became visible.
    let reply = client
        .range_query(&[0.0, 0.0], &[1000.0, 1000.0])
        .expect("read with standby dark");
    let acked = reply
        .records
        .iter()
        .filter(|r| r.id >= 20_000 && r.id < 21_000)
        .count();
    assert_eq!(acked, 3, "acked replicated inserts stay visible");
    assert!(
        !reply.records.iter().any(|r| r.id >= 21_000),
        "a refused insert must not become visible"
    );
    assert_eq!(
        reply.records.iter().filter(|r| r.id < 20_000).count(),
        n,
        "base records intact"
    );
}
