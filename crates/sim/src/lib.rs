//! Disk-farm simulator implementing the paper's evaluation methodology
//! (§2.2): query workloads, the response-time and data-balance metrics, and
//! a sweep runner that produces the rows of every figure and table.
//!
//! The simulator's assumptions follow the paper: raw disk I/O (no caching),
//! no temporal locality between queries, and identical per-bucket read time
//! on every disk — so the **response time of a query is the maximum number
//! of buckets any single disk must read**, and the metric of a configuration
//! is the average response time over 1,000 random square range queries.

//!
//! ```
//! use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
//! use pargrid_datagen::uniform2d;
//! use pargrid_sim::{evaluate, QueryWorkload};
//!
//! let dataset = uniform2d(42);
//! let grid = dataset.build_grid_file();
//! let input = DeclusterInput::from_grid_file(&grid);
//! let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity)
//!     .assign(&input, 8, 1);
//!
//! // 100 random square queries each covering 5% of the domain.
//! let workload = QueryWorkload::square(&dataset.domain, 0.05, 100, 7);
//! let stats = evaluate(&grid, &assignment, &workload);
//! assert!(stats.mean_response >= stats.mean_optimal);
//! assert!(stats.p95_response as f64 >= stats.mean_response);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod metrics;
pub mod plot;
pub mod runner;
pub mod table;
pub mod workload;

pub use cost::{CostModel, DiskModel, DiskParams, NetParams};
pub use metrics::{
    closest_pairs, count_pairs_on_same_disk, evaluate, evaluate_heterogeneous,
    intra_disk_proximity, EvalStats, ThroughputStats,
};
pub use plot::{GanttChart, GanttLane, LineChart, Series};
pub use runner::{relative_throughput, sweep, SweepPoint};
pub use workload::QueryWorkload;
