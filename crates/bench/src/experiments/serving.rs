//! Offered-load sweep through the real TCP serving layer.
//!
//! Unlike every other experiment — which measures virtual time inside the
//! simulator — this one runs an actual `pargrid-net` server on a loopback
//! socket and drives it with the open-loop load generator. The bridge
//! between the two time domains is the server's *pacing* knob: each
//! connection sleeps `pace_us_per_block ×` a query's `response_blocks`
//! (blocks on the busiest disk — the paper's response-time metric, and
//! independent of cache state) of wall time after answering it, holding
//! its admission permit. A declustering method that halves response blocks
//! literally doubles the wall-clock capacity of the server, and the
//! throughput knee of each method lands at a different offered load.
//!
//! The per-block price is calibrated once, against the *first* method in
//! the sweep, so that its mean query costs [`TARGET_SERVICE_US`] of wall
//! time per permit; the same price is then used for every method,
//! keeping the wall-time budget bounded while preserving the methods'
//! relative costs. Offered load sweeps fixed multiples of the first
//! method's nominal capacity, through the knee and out to 2× overload,
//! where admission control must shed rather than stall.

use crate::{NamedTable, Params};
use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_net::{loadgen, LoadQuery, LoadgenConfig, Server, ServerConfig};
use pargrid_parallel::{EngineConfig, ParallelGridFile};
use pargrid_sim::plot::{LineChart, Series};
use pargrid_sim::table::{fmt2, ResultTable};
use pargrid_sim::QueryWorkload;
use std::sync::Arc;
use std::time::Duration;

/// Calibrated mean wall service time per query per admission permit.
const TARGET_SERVICE_US: f64 = 2500.0;
/// Admission permits (`ServerConfig::dispatchers`) — the server's
/// parallelism in wall time.
const DISPATCHERS: usize = 2;
/// Few admission waiters so overload sheds promptly instead of building a
/// deep backlog. Must be smaller than [`CLIENTS`]: each load-generator
/// connection is synchronous, so at most `CLIENTS` requests are ever in
/// flight, and a gate that seats them all would never overflow.
const QUEUE_CAPACITY: usize = 4;
/// Concurrent load-generator connections.
const CLIENTS: usize = 8;
/// Offered load as multiples of the calibrated nominal capacity.
const LOAD_POINTS: [f64; 6] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];

/// Runs the serving sweep: three declustering methods, offered load from
/// far below to 2× nominal capacity.
pub fn run(params: &Params) -> Vec<NamedTable> {
    let methods = [
        DeclusterMethod::Index(
            pargrid_core::IndexScheme::DiskModulo,
            pargrid_core::ConflictPolicy::DataBalance,
        ),
        DeclusterMethod::Index(
            pargrid_core::IndexScheme::Hilbert,
            pargrid_core::ConflictPolicy::DataBalance,
        ),
        DeclusterMethod::Minimax(EdgeWeight::Proximity),
        DeclusterMethod::Index(
            pargrid_core::IndexScheme::Onion,
            pargrid_core::ConflictPolicy::DataBalance,
        ),
        DeclusterMethod::Index(
            pargrid_core::IndexScheme::LatinHypercube,
            pargrid_core::ConflictPolicy::DataBalance,
        ),
    ];
    let disks = 8;
    // Wall time per load point. Short windows are noisy — the knee's
    // method ordering only stabilizes with a few thousand arrivals per
    // point — so paper scale buys precision with real seconds.
    let point_secs = if params.queries >= 1000 { 4.0 } else { 1.0 };

    let ds = pargrid_datagen::hot2d(params.seed);
    let gf = Arc::new(ds.build_grid_file());
    let input = DeclusterInput::from_grid_file(&gf);
    let workload = QueryWorkload::square(&ds.domain, 0.05, 64, params.seed);
    let queries: Vec<LoadQuery> = workload
        .queries
        .iter()
        .map(|q| LoadQuery::Range {
            lo: q.lo().coords().to_vec(),
            hi: q.hi().coords().to_vec(),
        })
        .collect();

    // Calibrate pacing on the first method: mean response blocks (blocks
    // on the busiest disk, the paper's response-time metric) over a probe
    // run, scaled so one permit holder spends TARGET_SERVICE_US of wall time
    // per mean query *of the first method*. Better methods have fewer
    // response blocks per query, so the same per-block price buys them a
    // genuinely higher wall-clock capacity.
    let probe_assignment = methods[0].assign(&input, disks, params.seed);
    let probe =
        ParallelGridFile::build(Arc::clone(&gf), &probe_assignment, EngineConfig::default());
    let mut probe_session = probe.session();
    let mean_response_blocks = workload
        .queries
        .iter()
        .map(|q| probe_session.query(q).response_blocks.max(1))
        .sum::<u64>() as f64
        / workload.len() as f64;
    let _ = probe_session.close();
    drop(probe);
    let pace_us_per_block = (TARGET_SERVICE_US / mean_response_blocks).round().max(1.0) as u64;
    let capacity_qps = DISPATCHERS as f64 * 1e6 / TARGET_SERVICE_US;

    let mut table = ResultTable::new(vec![
        "method",
        "offered (x capacity)",
        "offered qps",
        "served qps",
        "shed rate",
        "p50 sojourn (ms)",
        "p95 sojourn (ms)",
        "p99 sojourn (ms)",
    ]);
    let mut chart = LineChart::new(
        "Served throughput vs offered load through the TCP serving layer",
        "offered load (queries/s)",
        "served queries/s",
    );

    for method in &methods {
        let assignment = method.assign(&input, disks, params.seed);
        let mut series = Vec::new();
        for &mult in &LOAD_POINTS {
            // Fresh engine + server per point: cold caches, zeroed
            // counters, a clean admission queue.
            let engine = Arc::new(ParallelGridFile::build(
                Arc::clone(&gf),
                &assignment,
                EngineConfig::default(),
            ));
            let server = Server::start(
                Arc::clone(&engine),
                "127.0.0.1:0",
                ServerConfig {
                    queue_capacity: QUEUE_CAPACITY,
                    dispatchers: DISPATCHERS,
                    pace_us_per_block,
                    ..ServerConfig::default()
                },
            )
            .expect("bind loopback");
            let addr = server.local_addr().to_string();

            let offered_qps = capacity_qps * mult;
            let report = loadgen::run(
                &addr,
                &LoadgenConfig {
                    clients: CLIENTS,
                    rate_per_client: offered_qps / CLIENTS as f64,
                    duration: Duration::from_secs_f64(point_secs),
                    queries: queries.clone(),
                },
            )
            .expect("load generation");
            server.shutdown();

            table.push_row(vec![
                method.label(),
                fmt2(mult),
                fmt2(report.offered as f64 / report.elapsed.as_secs_f64()),
                fmt2(report.served_qps()),
                fmt2(report.shed_rate()),
                fmt2(report.sojourn_quantile_us(0.50) as f64 / 1e3),
                fmt2(report.sojourn_quantile_us(0.95) as f64 / 1e3),
                fmt2(report.sojourn_quantile_us(0.99) as f64 / 1e3),
            ]);
            series.push((offered_qps, report.served_qps()));
        }
        chart.push(Series::new(method.label(), series));
    }

    vec![NamedTable::new(
        "serving",
        format!(
            "TCP serving layer under offered load ({} dispatchers, queue {QUEUE_CAPACITY}, {CLIENTS} clients, {disks} disks, {})",
            DISPATCHERS, ds.name
        ),
        table,
    )
    .with_chart(chart)]
}
