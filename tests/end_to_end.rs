//! Cross-crate integration: the whole pipeline from dataset generation to
//! parallel execution, checking consistency between layers.

use pargrid::parallel::merge::same_records;
use pargrid::prelude::*;
use pargrid::sim::{evaluate, metrics::query_response};
use std::sync::Arc;

/// The simulator's per-query response (counted through the assignment) and
/// the parallel engine's `response_blocks` must agree whenever every bucket
/// fits one block.
#[test]
fn simulator_and_engine_agree_on_response() {
    let ds = pargrid::datagen::hot2d(1);
    let grid = Arc::new(ds.build_grid_file());
    assert_eq!(
        grid.stats().oversize_buckets,
        0,
        "precondition: one block per bucket"
    );
    let input = DeclusterInput::from_grid_file(&grid);
    let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, 8, 1);
    let engine = ParallelGridFile::build(Arc::clone(&grid), &assignment, EngineConfig::default());

    let workload = QueryWorkload::square(&ds.domain, 0.05, 50, 3);
    for q in &workload.queries {
        let (sim_resp, sim_total) = query_response(&grid, &assignment, q);
        let out = engine.query(q);
        assert_eq!(out.response_blocks, sim_resp, "query {q:?}");
        assert_eq!(out.total_blocks, sim_total, "query {q:?}");
    }
}

/// The engine returns exactly the records a sequential scan finds, for
/// every dataset family.
#[test]
fn engine_queries_match_sequential_ground_truth() {
    let datasets = [
        pargrid::datagen::uniform2d(5),
        pargrid::datagen::dsmc3d_sized(5, 8_000),
        pargrid::datagen::stock3d_sized(5, 60, 120),
    ];
    for ds in datasets {
        let grid = Arc::new(ds.build_grid_file());
        let input = DeclusterInput::from_grid_file(&grid);
        let assignment = DeclusterMethod::Ssp(EdgeWeight::Proximity).assign(&input, 6, 2);
        let engine =
            ParallelGridFile::build(Arc::clone(&grid), &assignment, EngineConfig::default());
        let workload = QueryWorkload::square(&ds.domain, 0.05, 20, 11);
        for q in &workload.queries {
            let out = engine.query(q);
            let expected: Vec<Record> = ds
                .points
                .iter()
                .enumerate()
                .filter(|(_, p)| q.contains_closed(p))
                .map(|(i, p)| Record::new(i as u64, *p))
                .collect();
            assert!(
                same_records(&out.records, &expected),
                "{} query {q:?}",
                ds.name
            );
        }
    }
}

/// Every method produces a complete, in-range, deterministic assignment on
/// every dataset family.
#[test]
fn all_methods_on_all_dataset_families() {
    let datasets = [
        pargrid::datagen::uniform2d(9),
        pargrid::datagen::correl2d(9),
        pargrid::datagen::dsmc3d_sized(9, 6_000),
    ];
    let methods = [
        DeclusterMethod::Index(IndexScheme::DiskModulo, ConflictPolicy::Random),
        DeclusterMethod::Index(IndexScheme::FieldwiseXor, ConflictPolicy::MostFrequent),
        DeclusterMethod::Index(IndexScheme::Hilbert, ConflictPolicy::DataBalance),
        DeclusterMethod::Index(IndexScheme::ZOrder, ConflictPolicy::AreaBalance),
        DeclusterMethod::Index(IndexScheme::GrayCode, ConflictPolicy::DataBalance),
        DeclusterMethod::Index(IndexScheme::Scan, ConflictPolicy::DataBalance),
        DeclusterMethod::Minimax(EdgeWeight::Proximity),
        DeclusterMethod::Minimax(EdgeWeight::EuclideanCenter),
        DeclusterMethod::Ssp(EdgeWeight::Proximity),
        DeclusterMethod::Mst(EdgeWeight::Proximity),
        DeclusterMethod::KernighanLin(EdgeWeight::Proximity),
    ];
    for ds in &datasets {
        let grid = ds.build_grid_file();
        let input = DeclusterInput::from_grid_file(&grid);
        for method in &methods {
            let a = method.assign(&input, 12, 77);
            let b = method.assign(&input, 12, 77);
            assert_eq!(a.disks(), b.disks(), "{} not deterministic", method.label());
            assert_eq!(a.disks().len(), input.n_buckets());
            assert!(a.disks().iter().all(|&d| d < 12));
        }
    }
}

/// Response time is monotonically bounded below by the optimal and above by
/// the single-disk response, for every method.
#[test]
fn response_time_bounds() {
    let ds = pargrid::datagen::hot2d(3);
    let grid = ds.build_grid_file();
    let input = DeclusterInput::from_grid_file(&grid);
    let w = QueryWorkload::square(&ds.domain, 0.05, 100, 5);
    let single = {
        let a = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, 1, 1);
        evaluate(&grid, &a, &w).mean_response
    };
    for method in DeclusterMethod::paper_five() {
        let a = method.assign(&input, 16, 1);
        let s = evaluate(&grid, &a, &w);
        assert!(
            s.mean_response >= s.mean_optimal - 1e-9,
            "{} below optimal",
            method.label()
        );
        assert!(
            s.mean_response <= single + 1e-9,
            "{} above single-disk response",
            method.label()
        );
    }
}

/// Grid files survive a full insert-query-delete lifecycle on real dataset
/// distributions (not just uniform proptest inputs).
#[test]
fn grid_file_lifecycle_on_skewed_data() {
    let ds = pargrid::datagen::correl2d(8);
    let mut grid = GridFile::new(ds.grid_config());
    for (i, p) in ds.points.iter().take(3_000).enumerate() {
        grid.insert(Record::new(i as u64, *p));
    }
    grid.check_invariants();
    let (_, records) = grid.range_query(&ds.domain);
    assert_eq!(records.len(), 3_000);
    for (i, p) in ds.points.iter().take(3_000).enumerate() {
        assert!(grid.delete(i as u64, p), "record {i} lost");
    }
    assert!(grid.is_empty());
    grid.check_invariants();
}

/// The facade's doc-quickstart pipeline holds together (mirrors lib.rs),
/// including the concurrent query-service step.
#[test]
fn facade_quickstart_pipeline() {
    let dataset = pargrid::datagen::hot2d(42);
    let grid = dataset.build_grid_file();
    let input = DeclusterInput::from_grid_file(&grid);
    let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, 16, 1);
    assert!(assignment.is_perfectly_balanced());
    let workload = QueryWorkload::square(&dataset.domain, 0.05, 100, 7);
    let stats = evaluate(&grid, &assignment, &workload);
    assert!(stats.mean_response >= stats.mean_optimal);

    let engine = ParallelGridFile::build(Arc::new(grid), &assignment, EngineConfig::default());
    let (outcomes, throughput) = engine.run_workload_concurrent(&workload, 8);
    assert_eq!(outcomes.len(), workload.len());
    assert!(throughput.queries_per_second() > 0.0);
    assert_eq!(engine.stats().queries, workload.len() as u64);
}

/// The shared-session API through the facade: client threads run against
/// one engine and the serial/concurrent block totals agree per worker.
#[test]
fn facade_concurrent_service_is_deterministic() {
    let ds = pargrid::datagen::hot2d(6);
    let grid = Arc::new(ds.build_grid_file());
    let input = DeclusterInput::from_grid_file(&grid);
    let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, 8, 1);
    let workload = QueryWorkload::square(&ds.domain, 0.05, 60, 13);

    let serial = ParallelGridFile::build(Arc::clone(&grid), &assignment, EngineConfig::default());
    let serial_run: RunStats = serial.run_workload(&workload);

    let concurrent =
        ParallelGridFile::build(Arc::clone(&grid), &assignment, EngineConfig::default());
    let (outcomes, throughput): (Vec<QueryOutcome>, ThroughputStats) =
        concurrent.run_workload_concurrent(&workload, 16);

    assert_eq!(throughput.total_blocks, serial_run.total_blocks);
    assert_eq!(
        outcomes.iter().map(|o| o.records.len() as u64).sum::<u64>(),
        serial_run.records
    );
    let a: EngineStats = serial.stats();
    let b: EngineStats = concurrent.stats();
    for (x, y) in a.workers.iter().zip(&b.workers) {
        assert_eq!(x.blocks_fetched, y.blocks_fetched);
    }
    // The concurrent schedule actually batches.
    assert!(throughput.mean_batch() > 1.0);
}

/// The engine behind the wire server: a query over TCP gets the engine's
/// own answer, pipelined queries come back in request order (the first is
/// paced far longer than the second, so answering them side by side would
/// swap them), and shutdown stops the engine.
#[test]
fn served_engine_answers_in_request_order_and_shuts_down() {
    use pargrid::net::proto::{Request, Response};
    use pargrid::net::{read_frame, write_frame, Client, Server, ServerConfig};

    let ds = pargrid::datagen::hot2d(4);
    let grid = Arc::new(ds.build_grid_file());
    let input = DeclusterInput::from_grid_file(&grid);
    let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, 4, 1);
    let engine = Arc::new(ParallelGridFile::build(
        grid,
        &assignment,
        EngineConfig::default(),
    ));
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            dispatchers: 2,
            pace_us_per_block: 1000,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let ids = |records: &[Record]| records.iter().map(|r| r.id).collect::<Vec<_>>();
    let small = QueryWorkload::square(&ds.domain, 0.05, 1, 9).queries[0];

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let reply = client
        .range_query(small.lo().coords(), small.hi().coords())
        .expect("range query");
    assert_eq!(ids(&reply.records), ids(&engine.query(&small).records));

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let pipelined = [ds.domain, small];
    for q in &pipelined {
        let (msg_type, payload) = Request::RangeQuery {
            lo: q.lo().coords().to_vec(),
            hi: q.hi().coords().to_vec(),
        }
        .encode();
        write_frame(&mut raw, msg_type, &payload).expect("write request");
    }
    for (k, q) in pipelined.iter().enumerate() {
        let frame = read_frame(&mut raw).expect("reply frame");
        match Response::decode(frame.msg_type, &frame.payload).expect("decode") {
            Response::Records(r) => assert_eq!(
                ids(&r.records),
                ids(&engine.query(q).records),
                "reply {k} does not answer request {k}"
            ),
            other => panic!("reply {k}: {other:?}"),
        }
    }

    server.shutdown();
    assert!(engine.is_shut_down());
}

/// The same engine over two worker processes hosting eight slots (four
/// each, one connection and one proxy per process) answers exactly what
/// the in-process engine answers, with every read executed once: no
/// retransmit, so nothing answered from a reply cache.
#[test]
fn remote_engine_over_two_worker_processes_matches_in_process() {
    let ds = pargrid::datagen::hot2d(11);
    let grid = Arc::new(ds.build_grid_file());
    let input = DeclusterInput::from_grid_file(&grid);
    let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, 8, 1);
    let patient = EngineConfig::default().resilience(|r| r.with_fail_timeout_ms(10_000));
    let local = ParallelGridFile::build(Arc::clone(&grid), &assignment, patient.clone());

    let mut hosts: Vec<WorkerServer> = (0..2)
        .map(|_| WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("worker"))
        .collect();
    let addrs = hosts.iter().map(|h| h.local_addr().to_string()).collect();
    let backend = Arc::new(RemoteBackend::new(addrs, 1));
    let remote = ParallelGridFile::build(grid, &assignment, patient.with_backend(backend));
    assert_eq!(remote.n_workers(), 8);

    // Four concurrent sessions, so one proxy wake-up can carry several
    // queries' reads for its host.
    let templates = QueryWorkload::square(&ds.domain, 0.05, 64, 5).queries;
    let answers: Vec<Vec<(usize, QueryOutcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (remote, templates) = (&remote, &templates);
                s.spawn(move || {
                    let mut session = remote.session();
                    (t..templates.len())
                        .step_by(4)
                        .map(|i| (i, session.query(&templates[i])))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, out) in answers.into_iter().flatten() {
        let want = local.query(&templates[i]);
        assert!(!out.incomplete, "template {i} incomplete over the wire");
        assert_eq!(out.records, want.records, "template {i}");
    }

    let dispatched: u64 = local
        .stats()
        .workers
        .iter()
        .map(|w| w.batched_requests)
        .sum();
    let executed: u64 = hosts.iter().map(WorkerServer::executed).sum();
    let deduped: u64 = hosts.iter().map(WorkerServer::deduped).sum();
    assert!(dispatched > 64);
    assert_eq!(executed, dispatched, "each read executed exactly once");
    assert_eq!(deduped, 0);
    remote.shutdown();
    for h in &mut hosts {
        h.shutdown();
    }
}
