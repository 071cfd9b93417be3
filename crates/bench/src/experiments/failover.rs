//! Coordinator failover under load: kill the leader mid-workload and
//! hard-assert that (a) a standby takes over in sub-second time and
//! (b) the client observes **zero divergent replies** — every query
//! answers exactly what a never-killed cluster answers, and every
//! acknowledged insert survives.
//!
//! Methodology: the same seeded operation sequence (range queries mixed
//! with inserts of fresh ids) is run twice against two independent
//! in-process clusters — 2 coordinators + 3 worker processes over
//! loopback TCP each time. The first run is the no-kill **oracle**; the
//! second gets its leader `kill -9`'d (silent, mid-load, no goodbye
//! frames) halfway through. Because one client issues the ops
//! sequentially and an ack means the entry is in every standby's log,
//! the two runs must agree op-for-op; any difference is silent
//! divergence and fails the run. This is the experiment behind
//! `DESIGN.md` §15's failover-timeline claims.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{NamedTable, Params};
use pargrid_cluster::coordinator::EngineBuilder;
use pargrid_cluster::{
    ClusterClient, Coordinator, CoordinatorConfig, PeerSpec, WorkerConfig, WorkerServer,
};
use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_datagen::Dataset;
use pargrid_geom::Rect;
use pargrid_parallel::{EngineConfig, ParallelGridFile};
use pargrid_sim::table::ResultTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Engine slots (maps round-robin onto the worker processes).
const SLOTS: usize = 6;
/// Worker processes per cluster.
const WORKERS: usize = 3;
/// First id minted by the insert ops (clear of every dataset id).
const INSERT_BASE: u64 = 1_000_000;

/// One scripted client operation.
enum Op {
    /// Range query `[lo, hi]` in both dimensions.
    Query([f64; 2], [f64; 2]),
    /// Insert a fresh id at a point.
    Insert(u64, [f64; 2]),
}

/// The seeded workload: ~70 % queries, ~30 % inserts of fresh ids.
fn script(domain: &Rect, n_ops: usize, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa11_07e5);
    let (dlo, dhi) = (domain.lo().coords(), domain.hi().coords());
    let side = [(dhi[0] - dlo[0]) * 0.15, (dhi[1] - dlo[1]) * 0.15];
    let mut next_id = INSERT_BASE;
    (0..n_ops)
        .map(|_| {
            if rng.random_bool(0.7) {
                let lo = [
                    rng.random_range(dlo[0]..dhi[0] - side[0]),
                    rng.random_range(dlo[1]..dhi[1] - side[1]),
                ];
                Op::Query(lo, [lo[0] + side[0], lo[1] + side[1]])
            } else {
                let id = next_id;
                next_id += 1;
                Op::Insert(
                    id,
                    [
                        rng.random_range(dlo[0]..dhi[0]),
                        rng.random_range(dlo[1]..dhi[1]),
                    ],
                )
            }
        })
        .collect()
}

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let a = l.local_addr().expect("local addr");
    drop(l);
    format!("127.0.0.1:{}", a.port())
}

fn builder(seed: u64) -> EngineBuilder {
    Box::new(move |gf, backend| {
        let input = DeclusterInput::from_grid_file(&gf);
        let assignment =
            DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, SLOTS, seed);
        let cfg = EngineConfig::default().with_backend(backend);
        Arc::new(ParallelGridFile::build(gf, &assignment, cfg))
    })
}

/// One whole cluster: 3 workers + 2 coordinators, plus a client.
struct Cluster {
    // Field order is drop order: client first, coordinators before the
    // workers they dispatch to.
    client: ClusterClient,
    coords: Vec<Coordinator>,
    _workers: Vec<WorkerServer>,
}

fn start_cluster(ds: &Dataset, seed: u64) -> Cluster {
    let workers: Vec<WorkerServer> = (0..WORKERS)
        .map(|_| WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start worker"))
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
            Coordinator::start(cfg, ds.build_grid_file(), builder(seed)).expect("start coordinator")
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !coords.iter().any(|c| c.is_leader()) {
        assert!(Instant::now() < deadline, "no leader elected in 30 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    let client = ClusterClient::new(vec![addrs[0].0.clone(), addrs[1].0.clone()])
        .with_deadline(Duration::from_secs(30));
    Cluster {
        client,
        coords,
        _workers: workers,
    }
}

/// Replies that must match between the oracle and the failover run: each
/// query's sorted id set (`None` marks an insert op).
type Replies = Vec<Option<Vec<u64>>>;

fn run_ops(
    cluster: &mut Cluster,
    ops: &[Op],
    kill_at: Option<usize>,
) -> (Replies, Option<Duration>, Option<Duration>) {
    let mut replies = Vec::with_capacity(ops.len());
    let mut elected_in = None;
    let mut first_op_in = None;
    let mut killed_at: Option<Instant> = None;
    for (i, op) in ops.iter().enumerate() {
        if kill_at == Some(i) {
            let leader = cluster
                .coords
                .iter()
                .position(|c| c.is_leader())
                .expect("a leader to kill");
            let t0 = Instant::now();
            cluster.coords[leader].kill();
            killed_at = Some(t0);
            let survivor = &cluster.coords[1 - leader];
            while !survivor.is_leader() {
                assert!(
                    t0.elapsed() < Duration::from_secs(30),
                    "survivor did not take over within 30 s"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            elected_in = Some(t0.elapsed());
        }
        match op {
            Op::Query(lo, hi) => {
                let reply = cluster.client.range_query(lo, hi).expect("range query");
                assert!(!reply.incomplete, "no reply may be partial (op {i})");
                let mut ids: Vec<u64> = reply.records.iter().map(|r| r.id).collect();
                ids.sort_unstable();
                replies.push(Some(ids));
            }
            Op::Insert(id, key) => {
                cluster.client.insert(*id, key).expect("insert");
                replies.push(None);
            }
        }
        if let (Some(t0), None) = (killed_at, first_op_in) {
            first_op_in = Some(t0.elapsed());
        }
    }
    (replies, elected_in, first_op_in)
}

/// Runs the failover experiment.
pub fn run(params: &Params) -> Vec<NamedTable> {
    let ds = pargrid_datagen::hot2d(params.seed);
    let n_ops = params.queries.clamp(60, 400);
    let ops = script(&ds.domain, n_ops, params.seed);
    let kill_at = n_ops / 2;
    let inserts_before_kill = ops[..kill_at]
        .iter()
        .filter(|o| matches!(o, Op::Insert(..)))
        .count();

    // Oracle: the same script against a cluster nobody kills.
    let mut oracle = start_cluster(&ds, params.seed);
    let (want, _, _) = run_ops(&mut oracle, &ops, None);
    drop(oracle);

    // Failover run: leader killed silently at the midpoint.
    let mut cluster = start_cluster(&ds, params.seed);
    let (got, elected_in, first_op_in) = run_ops(&mut cluster, &ops, Some(kill_at));
    let elected_in = elected_in.expect("kill happened");
    let first_op_in = first_op_in.expect("ops continued after the kill");
    let survivor_failovers: u64 = cluster
        .coords
        .iter()
        .map(|c| c.failovers())
        .max()
        .unwrap_or(0);

    // Zero silent divergence, op for op.
    let mut divergent = 0usize;
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        if w != g {
            divergent += 1;
            eprintln!("divergent reply at op {i}");
        }
    }
    assert_eq!(
        divergent, 0,
        "failover run diverged from the no-kill oracle"
    );
    assert!(survivor_failovers >= 1, "survivor must have promoted");
    // Sub-second failover is the release-mode acceptance bound; debug
    // builds pay unoptimized engine construction inside the promotion.
    let bound = if cfg!(debug_assertions) {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(1)
    };
    assert!(
        elected_in < bound,
        "failover took {elected_in:?} (bound {bound:?})"
    );

    let queries = ops.iter().filter(|o| matches!(o, Op::Query(..))).count();
    let mut table = ResultTable::new(vec![
        "ops".to_string(),
        "queries".to_string(),
        "inserts".to_string(),
        "inserts_before_kill".to_string(),
        "failover_ms".to_string(),
        "first_reply_after_kill_ms".to_string(),
        "divergent_replies".to_string(),
    ]);
    table.push_row(vec![
        n_ops.to_string(),
        queries.to_string(),
        (n_ops - queries).to_string(),
        inserts_before_kill.to_string(),
        format!("{:.1}", elected_in.as_secs_f64() * 1e3),
        format!("{:.1}", first_op_in.as_secs_f64() * 1e3),
        divergent.to_string(),
    ]);
    vec![NamedTable::new(
        "failover",
        "Leader kill -9 mid-load: takeover latency and reply divergence vs a no-kill oracle",
        table,
    )]
}
