//! End-to-end loopback tests: a real server on `127.0.0.1:0`, real client
//! sockets, answers checked byte-for-byte against the in-process engine.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_geom::{Point, Rect};
use pargrid_gridfile::{GridConfig, GridFile, Record};
use pargrid_net::proto::{RecordsReply, Response};
use pargrid_net::{Client, ClientError, Server, ServerConfig, WireError};
use pargrid_obs::{names, validate_prometheus};
use pargrid_parallel::{EngineConfig, ParallelGridFile};

fn sample_grid() -> (Arc<GridFile>, Vec<Record>) {
    let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), 8);
    let mut recs = Vec::new();
    let mut x = 1u64;
    for i in 0..600u64 {
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
    let gf = Arc::new(GridFile::bulk_load(cfg, recs.iter().copied()));
    (gf, recs)
}

fn build_engine(n_workers: usize) -> (Arc<GridFile>, Arc<ParallelGridFile>) {
    let (gf, _recs) = sample_grid();
    let input = DeclusterInput::from_grid_file(&gf);
    let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, n_workers, 7);
    let engine = Arc::new(ParallelGridFile::build(
        Arc::clone(&gf),
        &assignment,
        EngineConfig::default(),
    ));
    (gf, engine)
}

/// The byte encoding of just the records, cost fields zeroed — the part of
/// a reply that must be identical no matter which path produced it.
fn record_bytes(records: &[Record]) -> Vec<u8> {
    let (_, payload) = Response::Records(RecordsReply {
        records: records.to_vec(),
        ..RecordsReply::default()
    })
    .encode();
    payload
}

#[test]
fn eight_clients_get_byte_identical_answers() {
    let (gf, engine) = build_engine(8);
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            queue_capacity: 256,
            dispatchers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut handles = Vec::new();
    for c in 0..8u64 {
        let addr = addr.clone();
        let gf = Arc::clone(&gf);
        let engine = Arc::clone(&engine);
        handles.push(thread::spawn(move || {
            let mut client = Client::connect_retry(addr.as_str(), 5, Duration::from_millis(20))
                .expect("connect");
            // Mixed workload: ranges of several shapes plus partial
            // matches, offset per client so the fleet doesn't run in
            // lockstep.
            for k in 0..6u64 {
                let s = (c * 13 + k * 29) % 60;
                let lo = [s as f64, (s / 2) as f64];
                let hi = [s as f64 + 25.0, (s / 2) as f64 + 40.0];
                let reply = client.range_query(&lo, &hi).expect("range query");
                // Oracle: a direct in-process session on the same engine.
                let direct = engine
                    .session()
                    .query(&Rect::new2(lo[0], lo[1], hi[0], hi[1]));
                assert!(!reply.incomplete);
                assert_eq!(
                    record_bytes(&reply.records),
                    record_bytes(&direct.records),
                    "client {c} query {k}: networked answer differs from direct session"
                );

                // Partial match against the sequential grid file oracle.
                let x = (c * 17 + k * 7) % 100;
                let keys = [Some(x as f64), None];
                let reply = client.partial_match(&keys).expect("partial match");
                let (_, mut expect) = gf.partial_match(&keys);
                expect.sort_unstable_by_key(|r| r.id);
                assert_eq!(
                    record_bytes(&reply.records),
                    record_bytes(&expect),
                    "client {c} pmatch {k}: networked answer differs from grid file"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    let doc = server.shutdown();
    assert!(validate_prometheus(&doc).is_ok(), "{doc}");
    // Every served query records its additive gap against the
    // ceil(|Q|/M) oracle bound; the histogram count must match.
    let gap_count_line = doc
        .lines()
        .find(|l| l.starts_with(&format!("{}_count", names::FRONTIER_GAP_BLOCKS)))
        .unwrap_or_else(|| panic!("no {} histogram in:\n{doc}", names::FRONTIER_GAP_BLOCKS));
    let gap_count: u64 = gap_count_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("histogram count");
    // 8 clients x 6 rounds x (one range query + one partial match).
    assert_eq!(gap_count, 8 * 6 * 2, "one gap sample per served query");
    assert!(
        engine.is_shut_down(),
        "server shutdown must join the engine"
    );
}

#[test]
fn saturated_queue_sheds_with_overloaded_and_exports_counter() {
    let (_gf, engine) = build_engine(4);
    // One dispatcher, a one-slot queue, and heavy pacing: almost any
    // concurrent burst must overflow admission.
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            queue_capacity: 1,
            dispatchers: 1,
            pace_us_per_block: 2000,
            retry_after_ms: 25,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut handles = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        handles.push(thread::spawn(move || {
            let mut client = Client::connect_retry(addr.as_str(), 5, Duration::from_millis(20))
                .expect("connect");
            let mut served = 0u64;
            let mut shed = 0u64;
            for _ in 0..20 {
                match client.range_query(&[0.0, 0.0], &[100.0, 100.0]) {
                    Ok(_) => served += 1,
                    Err(ClientError::Server(WireError::Overloaded { retry_after_ms })) => {
                        assert_eq!(retry_after_ms, 25);
                        shed += 1;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            (served, shed)
        }));
    }
    let mut total_served = 0;
    let mut total_shed = 0;
    for h in handles {
        let (served, shed) = h.join().expect("client thread");
        total_served += served;
        total_shed += shed;
    }
    assert!(
        total_shed > 0,
        "saturation must shed ({total_served} served)"
    );
    assert!(total_served > 0, "shedding must not starve everything");

    // The shed counter is visible over the wire via a Stats request.
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let doc = client.stats().expect("stats");
    assert!(validate_prometheus(&doc).is_ok(), "{doc}");
    let shed_line = doc
        .lines()
        .find(|l| l.starts_with(names::NET_SHED_TOTAL))
        .unwrap_or_else(|| panic!("no {} in:\n{doc}", names::NET_SHED_TOTAL));
    let exported: u64 = shed_line
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .expect("counter value");
    assert_eq!(exported, total_shed, "exported shed counter must match");

    server.shutdown();
    assert!(engine.is_shut_down());
}

#[test]
fn wire_shutdown_is_acknowledged_and_drains() {
    let (_gf, engine) = build_engine(4);
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            allow_remote_shutdown: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(addr.as_str()).expect("connect");
    assert_eq!(client.ping(99).expect("ping"), 99);
    let reply = client
        .range_query(&[10.0, 10.0], &[50.0, 50.0])
        .expect("query");
    assert!(!reply.incomplete);
    client.shutdown_server().expect("acked shutdown");

    // join() returns because the wire request tripped the shutdown flag;
    // afterwards no worker thread is left.
    let doc = server.join();
    assert!(engine.is_shut_down());
    assert!(doc.contains(names::NET_CONNECTIONS_TOTAL));

    // The listener is gone: new connections are refused quickly.
    assert!(Client::connect(addr.as_str()).is_err());
}

#[test]
fn pipelined_replies_come_back_in_request_order() {
    use pargrid_net::proto::Request;
    use pargrid_net::{read_frame, write_frame};

    let (_gf, engine) = build_engine(4);
    // Two requests may be served at once and the whole-domain query is
    // paced far longer than the small one, so a server that answered them
    // side by side would finish the second first.
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            dispatchers: 2,
            pace_us_per_block: 2000,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let queries = [
        Rect::new2(0.0, 0.0, 100.0, 100.0),
        Rect::new2(25.0, 25.0, 75.0, 75.0),
    ];

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    for q in &queries {
        let (msg_type, payload) = Request::RangeQuery {
            lo: q.lo().coords().to_vec(),
            hi: q.hi().coords().to_vec(),
        }
        .encode();
        write_frame(&mut raw, msg_type, &payload).expect("write request");
    }
    for (k, q) in queries.iter().enumerate() {
        let frame = read_frame(&mut raw).expect("reply frame");
        let reply = match Response::decode(frame.msg_type, &frame.payload).expect("decode") {
            Response::Records(r) => r,
            other => panic!("reply {k}: {other:?}"),
        };
        assert_eq!(
            record_bytes(&reply.records),
            record_bytes(&engine.query(q).records),
            "reply {k} does not answer request {k}"
        );
    }

    server.shutdown();
}

#[test]
fn query_in_flight_at_shutdown_is_answered_before_the_engine_stops() {
    let (_gf, engine) = build_engine(4);
    let whole = Rect::new2(0.0, 0.0, 100.0, 100.0);
    let expected = record_bytes(&engine.query(&whole).records);
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            pace_us_per_block: 10_000,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let planned_before = engine.stats().queries;

    let client = thread::spawn(move || {
        Client::connect(addr)
            .expect("connect")
            .range_query(&[0.0, 0.0], &[100.0, 100.0])
    });
    // The engine counts a query when it plans it, after the gate let it
    // in; from then on it is in flight until its paced reply is written.
    while engine.stats().queries == planned_before {
        thread::yield_now();
    }
    server.shutdown();

    let reply = client
        .join()
        .expect("client thread")
        .expect("the in-flight query gets its Records reply");
    assert!(!reply.incomplete);
    assert_eq!(record_bytes(&reply.records), expected);
    assert!(engine.is_shut_down());
}

#[test]
fn malformed_frame_gets_typed_error_then_close() {
    use std::io::{Read, Write};

    let (_gf, engine) = build_engine(4);
    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    let frame = pargrid_net::read_frame(&mut raw).expect("server must reply before closing");
    let resp = Response::decode(frame.msg_type, &frame.payload).expect("decode");
    assert!(
        matches!(resp, Response::Error(WireError::Malformed(_))),
        "got {resp:?}"
    );
    // And then the connection is closed (framing can't be resynced).
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).unwrap_or(0), 0);

    server.shutdown();
}
