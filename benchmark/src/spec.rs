//! The benchmark's fixed definition: the metrics `BENCHMARK.json` declares
//! and the pinned system under test. Nothing here is scaled to the host, so
//! two results are comparable whenever `host.nproc` and the scratch file
//! system agree.

use pargrid_obs::json::{self, Json};

/// The declaration the driver reads, compiled in so that the names and units
/// the harness prints cannot drift from it.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Records in the dataset (`dsmc3d_sized`): about 4.7k buckets of 4 KB.
pub const RECORDS: usize = 400_000;
/// Dataset size of the `--quick` self-test pass.
pub const QUICK_RECORDS: usize = 20_000;
/// Disks (engine worker slots) the buckets are declustered over.
pub const DISKS: usize = 8;
/// Load-generator connections, one thread each, closed and open loop alike.
pub const CLIENTS: usize = 2;
/// `ServerConfig::dispatchers`.
pub const DISPATCHERS: usize = 2;
/// `ServerConfig::queue_capacity`.
pub const QUEUE_CAPACITY: usize = 64;
/// Query templates per workload; clients cycle through them.
pub const TEMPLATES: usize = 512;
/// Worker servers hosting the `DISKS` slots on the `cluster` workload.
pub const CLUSTER_WORKERS: usize = 2;
/// Complete set-ups per run; `setup_s` is their median, the last one serves.
pub const SETUPS: usize = 3;
/// Consecutive closed-loop windows of an untraced run.
pub const WINDOWS: usize = 24;
/// Each end-to-end metric is the median of the windows during which the
/// hypervisor stole the least CPU from this guest: at least this many.
pub const QUIET_WINDOWS: usize = 4;
/// Templates the layer replay of a traced run uses (one discarded warm-up
/// pass, one measured pass).
pub const REPLAY_TEMPLATES: usize = 128;
/// Mutations the layer replay applies to each write-path layer.
pub const REPLAY_WRITES: usize = 384;
/// Ids at or above this are written by the load generator; below it is the
/// bulk-loaded base set the oracle covers.
pub const WRITE_ID_BASE: u64 = 1 << 40;
/// Live records each writing client fills to before it alternates
/// delete-oldest / insert, which keeps the file stationary.
pub const WRITER_FILL: usize = 256;
/// Every this-many-th write is followed by a read-your-write probe.
pub const PROBE_EVERY: u64 = 16;
/// An open-loop request counts as late when sent this long after it was due.
pub const LATE_NS: u64 = 1_000_000;

/// One traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Area (volume) ratio of the square range queries.
    pub ratio: f64,
    /// Fixed open-loop rate, operations per second over all connections.
    pub open_rate: f64,
    /// Every n-th operation of a client is a write; `None` is read-only.
    pub write_every: Option<u64>,
    /// Whether the engine's worker slots live behind loopback worker servers.
    pub cluster: bool,
}

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point",
        ratio: 0.00005,
        open_rate: 1500.0,
        write_every: None,
        cluster: false,
    },
    Workload {
        name: "scan",
        ratio: 0.02,
        open_rate: 120.0,
        write_every: None,
        cluster: false,
    },
    Workload {
        name: "mixed-rw",
        ratio: 0.00005,
        open_rate: 1000.0,
        write_every: Some(20),
        cluster: false,
    },
    Workload {
        name: "cluster",
        ratio: 0.002,
        open_rate: 400.0,
        write_every: None,
        cluster: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit printed beside every value.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Seconds one run measures; the default of `--seconds`.
    pub run_seconds: u64,
    /// Declared workload names.
    pub workloads: Vec<String>,
    /// Metrics of an untraced run.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricDecl>,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    /// Panics when the file is malformed: it is part of this program.
    pub fn load() -> Spec {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let metrics = |key: &str| -> Vec<MetricDecl> {
            let arr = doc.get(key).and_then(Json::as_arr);
            arr.expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect("metric field");
                    MetricDecl {
                        name: s("name").to_string(),
                        unit: s("unit").to_string(),
                        higher_is_better: s("better") == "higher",
                        bound: m.get("bound").and_then(Json::as_num),
                    }
                })
                .collect()
        };
        let workloads = doc.get("workloads").and_then(Json::as_arr);
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_num)
                .expect("run_seconds") as u64,
            workloads: workloads
                .expect("workloads")
                .iter()
                .map(|w| {
                    let name = w.get("name").and_then(Json::as_str);
                    name.expect("workload name").to_string()
                })
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metrics a run of this mode must print.
    pub fn metrics(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_matches_the_pinned_workloads() {
        let spec = Spec::load();
        let pinned: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, pinned);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!((1..=60).contains(&spec.run_seconds));
    }
}
