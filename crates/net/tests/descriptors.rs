//! A closed connection gives back everything the server held for it.
//!
//! Its own test binary: it counts the process's open file descriptors, which
//! tests running beside it in one process would disturb.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_geom::{Point, Rect};
use pargrid_gridfile::{GridConfig, GridFile, Record};
use pargrid_net::{Client, Server, ServerConfig};
use pargrid_parallel::{EngineConfig, ParallelGridFile};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), 8);
    let recs = (0..200u64).map(|i| Record::new(i, Point::new2((i % 100) as f64, (i / 2) as f64)));
    let gf = Arc::new(GridFile::bulk_load(cfg, recs));
    let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(
        &DeclusterInput::from_grid_file(&gf),
        2,
        7,
    );
    let engine = Arc::new(ParallelGridFile::build(
        gf,
        &assignment,
        EngineConfig::default(),
    ));
    let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let start = open_fds();
    for k in 0..200u64 {
        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(client.ping(k).expect("ping"), k);
    }
    // Each connection's thread ends shortly after its client hangs up.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut now = open_fds();
    while now > start + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        now = open_fds();
    }
    assert!(
        now <= start + 4,
        "200 closed connections left {} descriptors open ({start} at start)",
        now - start
    );

    server.shutdown();
}
