//! # pargrid — scalable declustering for parallel grid files
//!
//! A Rust reproduction of Moon, Acharya & Saltz, *Study of Scalable
//! Declustering Algorithms for Parallel Grid Files* (IPPS 1996).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geom`] | `pargrid-geom` | points, boxes, proximity index, space-filling curves |
//! | [`gridfile`] | `pargrid-gridfile` | grid file + Cartesian product file |
//! | [`datagen`] | `pargrid-datagen` | the paper's datasets (synthetic + substitutes) |
//! | [`decluster`] | `pargrid-core` | DM, FX, HCAM, conflict resolution, SSP, **minimax**, analytic models |
//! | [`sim`] | `pargrid-sim` | workloads, response-time metrics, sweep runner |
//! | [`parallel`] | `pargrid-parallel` | shared-nothing SPMD engine (SP-2 substitute) |
//! | [`obs`] | `pargrid-obs` | tracing, latency histograms, Chrome-trace/Prometheus exporters |
//! | [`net`] | `pargrid-net` | TCP serving layer: wire protocol, admission-controlled server, client, load generator |
//! | [`cluster`] | `pargrid-cluster` | scale-out runtime: worker processes, replicated coordinators, leader election, failover |
//!
//! ## Quickstart
//!
//! ```
//! use pargrid::prelude::*;
//!
//! // 1. Generate a skewed dataset and load it into a grid file.
//! let dataset = pargrid::datagen::hot2d(42);
//! let grid = dataset.build_grid_file();
//!
//! // 2. Decluster its buckets over 16 disks with the paper's minimax
//! //    algorithm.
//! let input = DeclusterInput::from_grid_file(&grid);
//! let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity)
//!     .assign(&input, 16, 1);
//! assert!(assignment.is_perfectly_balanced());
//!
//! // 3. Measure the average response time of 100 random range queries.
//! let workload = QueryWorkload::square(&dataset.domain, 0.05, 100, 7);
//! let stats = evaluate(&grid, &assignment, &workload);
//! assert!(stats.mean_response >= stats.mean_optimal);
//!
//! // 4. Serve the same workload through the shared-session parallel
//! //    engine: 16 worker threads, 8 queries in flight at once.
//! let engine = ParallelGridFile::build(
//!     std::sync::Arc::new(grid), &assignment, EngineConfig::default());
//! let (outcomes, throughput) = engine.run_workload_concurrent(&workload, 8);
//! assert_eq!(outcomes.len(), workload.len());
//! assert!(throughput.queries_per_second() > 0.0);
//! assert_eq!(engine.stats().queries, 100);
//! ```

#![warn(missing_docs)]

pub use pargrid_cluster as cluster;
pub use pargrid_core as decluster;
pub use pargrid_datagen as datagen;
pub use pargrid_geom as geom;
pub use pargrid_gridfile as gridfile;
pub use pargrid_net as net;
pub use pargrid_obs as obs;
pub use pargrid_parallel as parallel;
pub use pargrid_sim as sim;

/// The most commonly used types, re-exported flat: build/decluster/evaluate
/// types plus the full query-service surface (sessions, outcomes, stats),
/// the grouped engine configuration ([`EngineConfig`] and its
/// resilience/latency/obs sub-configs), and the workspace's
/// `#[non_exhaustive]` error enums.
pub mod prelude {
    pub use pargrid_cluster::{
        ClusterClient, ClusterClientError, Coordinator, CoordinatorConfig, PeerSpec, RemoteBackend,
        WorkerConfig, WorkerServer,
    };
    pub use pargrid_core::{
        Assignment, ConflictPolicy, DeclusterInput, DeclusterMethod, EdgeWeight, IndexScheme,
        ReplicatedAssignment,
    };
    pub use pargrid_datagen::Dataset;
    pub use pargrid_geom::{Point, Rect};
    pub use pargrid_gridfile::{GridConfig, GridFile, PersistError, Record};
    pub use pargrid_net::{ClientError, FrameError, ProtoError, WireError};
    pub use pargrid_obs::{Histogram, Recorder, SpanKind, TailSummary, TraceSnapshot};
    pub use pargrid_parallel::{
        DiskParams, EngineConfig, EngineError, EngineStats, FaultKind, FaultPlan, LatencyConfig,
        NetParams, ObsConfig, ParallelGridFile, QueryOutcome, QueryPriority, QuerySession,
        ResilienceConfig, RunStats, StoreError, WorkerFault, WorkerStats,
    };
    pub use pargrid_sim::{evaluate, sweep, EvalStats, QueryWorkload, ThroughputStats};
}
