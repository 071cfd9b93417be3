//! Set-up and tear-down of the system under test: the real, unpaced stack
//! `Dataset → GridFile::bulk_load → DeclusterMethod::assign →
//! ParallelGridFile::build(EngineConfig::file_backed) → net::Server` on
//! loopback, with the WAL attached as a server that accepts writes has it.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pargrid_cluster::{RemoteBackend, WorkerConfig, WorkerServer};
use pargrid_core::{Assignment, DeclusterInput, DeclusterMethod, EdgeWeight};
use pargrid_datagen::dsmc3d_sized;
use pargrid_geom::Rect;
use pargrid_gridfile::{GridFile, Wal};
use pargrid_net::{Response, Server, ServerConfig};
use pargrid_parallel::{EngineConfig, ParallelGridFile};

use crate::inputs::range_request;
use crate::spec::{CLUSTER_WORKERS, DISKS, DISPATCHERS, QUEUE_CAPACITY};
use crate::wire::Conn;

/// Instants between the stages of one set-up.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Set-up began.
    pub start: Instant,
    /// `dsmc3d_sized` returned.
    pub generated: Instant,
    /// `Dataset::build_grid_file` returned.
    pub loaded: Instant,
    /// `DeclusterInput::from_grid_file` + `assign` returned.
    pub declustered: Instant,
    /// `ParallelGridFile::build` returned (pages encoded and spilled).
    pub built: Instant,
    /// The server answered its first query over the wire.
    pub answering: Instant,
}

impl SetupTimes {
    /// The whole set-up, seconds: `setup_s`.
    pub fn total_s(&self) -> f64 {
        (self.answering - self.start).as_secs_f64()
    }
}

/// An engine and whatever it needs kept alive and cleaned up: the worker
/// servers behind a cluster engine and the directory of its spill files.
pub struct EngineHandle {
    /// The engine.
    pub engine: Arc<ParallelGridFile>,
    /// Worker servers hosting the engine's slots (empty in-process).
    workers: Vec<WorkerServer>,
    dir: PathBuf,
}

impl EngineHandle {
    /// Builds the pinned engine over `grid` in `dir`: file-backed block
    /// stores, default dispatch, WAL attached through `Wal::recover`; with
    /// `cluster`, the same engine over `RemoteBackend` and `CLUSTER_WORKERS`
    /// in-process worker servers on loopback (no coordinator: elections and
    /// leases on a saturated 2-core host would measure timers).
    pub fn build(
        grid: Arc<GridFile>,
        assignment: &Assignment,
        cluster: bool,
        dir: &Path,
    ) -> std::io::Result<EngineHandle> {
        let mut config = EngineConfig::file_backed(dir);
        let mut workers = Vec::new();
        if cluster {
            for _ in 0..CLUSTER_WORKERS {
                workers.push(WorkerServer::start("127.0.0.1:0", WorkerConfig::default())?);
            }
            let addrs = workers.iter().map(|w| w.local_addr().to_string()).collect();
            config = config.with_backend(Arc::new(RemoteBackend::new(addrs, 1)));
        }
        let engine = ParallelGridFile::build(grid, assignment, config);
        let (wal, _replay) = Wal::recover(dir.join("wal.log"))?;
        engine.attach_wal(wal);
        Ok(EngineHandle {
            engine: Arc::new(engine),
            workers,
            dir: dir.to_path_buf(),
        })
    }

    /// Path of the attached WAL.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    /// Retransmits the worker servers answered from their reply cache, per
    /// dispatch they executed.
    pub fn dedup_ratio(&self) -> f64 {
        let executed: u64 = self.workers.iter().map(WorkerServer::executed).sum();
        let deduped: u64 = self.workers.iter().map(WorkerServer::deduped).sum();
        if executed == 0 {
            return 0.0;
        }
        deduped as f64 / executed as f64
    }

    /// Joins the engine's workers, stops the worker servers and removes the
    /// spill files and the WAL.
    pub fn tear_down(mut self) {
        self.engine.shutdown();
        for w in &mut self.workers {
            w.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The served system: an engine behind `net::Server` on a loopback port.
pub struct Stack {
    /// The engine and its resources.
    pub handle: EngineHandle,
    /// The server, until tear-down.
    pub server: Server,
    /// The declustering the engine was built with (the layer replay builds
    /// its own engines from it).
    pub assignment: Assignment,
}

impl Stack {
    /// One complete set-up from nothing but the seed: dataset generation →
    /// bulk load → declustering → engine build and spill → server start →
    /// first query answered over the wire.
    pub fn set_up(
        cluster: bool,
        seed: u64,
        records: usize,
        dir: &Path,
    ) -> Result<(Stack, SetupTimes), String> {
        let start = Instant::now();
        let dataset = dsmc3d_sized(seed, records);
        let generated = Instant::now();
        let grid = dataset.build_grid_file();
        let loaded = Instant::now();
        let input = DeclusterInput::from_grid_file(&grid);
        let assignment =
            DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, DISKS, seed);
        let declustered = Instant::now();
        let domain = grid.config().domain;
        let handle = EngineHandle::build(Arc::new(grid), &assignment, cluster, dir)
            .map_err(|e| format!("engine build in {}: {e}", dir.display()))?;
        let built = Instant::now();
        let config = ServerConfig {
            pace_us_per_block: 0,
            dispatchers: DISPATCHERS,
            queue_capacity: QUEUE_CAPACITY,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::clone(&handle.engine), "127.0.0.1:0", config)
            .map_err(|e| format!("server start: {e}"))?;
        first_answer(server.local_addr(), &domain)?;
        let times = SetupTimes {
            start,
            generated,
            loaded,
            declustered,
            built,
            answering: Instant::now(),
        };
        let stack = Stack {
            handle,
            server,
            assignment,
        };
        Ok((stack, times))
    }

    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Graceful shutdown: the server drains and joins its threads and the
    /// engine's, then the engine's resources go.
    pub fn tear_down(self) {
        self.server.shutdown();
        self.handle.tear_down();
    }
}

/// Set-up ends when a client gets an answer, not when `bind` returns: on the
/// cluster workload the block upload to the worker servers happens behind
/// the first query.
fn first_answer(addr: SocketAddr, domain: &Rect) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let centre = Rect::new(domain.center(), domain.center());
    match conn.call(&range_request(&centre)) {
        Ok((Response::Records(_), _)) => Ok(()),
        Ok((other, _)) => Err(format!("first query answered {other:?}")),
        Err(e) => Err(format!("first query: {e}")),
    }
}
