//! Canonical metric names shared by every exporter in the workspace.
//!
//! The engine, the network server, and CI smoke tests all refer to the same
//! Prometheus series; keeping the strings here means a rename is a one-line
//! change and a `grep` in CI can never drift from the code.

/// Total queries admitted by the engine (counter).
pub const ENGINE_QUERIES_TOTAL: &str = "pargrid_queries_total";
/// Workers currently alive (gauge).
pub const ENGINE_WORKERS_ALIVE: &str = "pargrid_workers_alive";
/// Per-query virtual latency (histogram, microseconds).
pub const ENGINE_QUERY_US: &str = "pargrid_query_us";

/// TCP connections accepted since the server started (counter).
pub const NET_CONNECTIONS_TOTAL: &str = "pargrid_net_connections_total";
/// TCP connections currently open (gauge).
pub const NET_CONNECTIONS_ACTIVE: &str = "pargrid_net_connections_active";
/// Wire requests decoded, of any type (counter).
pub const NET_REQUESTS_TOTAL: &str = "pargrid_net_requests_total";
/// Query requests answered with records (counter).
pub const NET_SERVED_TOTAL: &str = "pargrid_net_served_total";
/// Insert/delete requests applied (counter).
pub const NET_MUTATIONS_TOTAL: &str = "pargrid_net_mutations_total";
/// Query requests rejected with `Overloaded` by admission control (counter).
pub const NET_SHED_TOTAL: &str = "pargrid_net_shed_total";
/// Frames rejected as malformed — bad magic, CRC, version, length, or
/// payload (counter).
pub const NET_MALFORMED_TOTAL: &str = "pargrid_net_malformed_total";
/// Requests waiting for an admission permit at this instant (gauge).
pub const NET_QUEUE_DEPTH: &str = "pargrid_net_queue_depth";
/// Most requests ever waiting for an admission permit at once, since
/// start (gauge).
pub const NET_QUEUE_HWM: &str = "pargrid_net_queue_depth_hwm";
/// Server sojourn time: admission-gate entry to encoded reply (histogram,
/// microseconds of wall clock).
pub const NET_SOJOURN_US: &str = "pargrid_net_sojourn_us";
/// Bytes read off client sockets (counter).
pub const NET_BYTES_IN_TOTAL: &str = "pargrid_net_bytes_in_total";
/// Bytes written back to client sockets (counter).
pub const NET_BYTES_OUT_TOTAL: &str = "pargrid_net_bytes_out_total";
/// Wire rebalance requests honored, dry runs included (counter).
pub const NET_REBALANCE_TOTAL: &str = "pargrid_net_rebalance_total";
/// Bucket copies migrated by rebalances over this engine's lifetime
/// (counter).
pub const NET_REBALANCE_MOVES_TOTAL: &str = "pargrid_net_rebalance_moves_total";
/// Page bytes copied by rebalance migrations (counter).
pub const NET_REBALANCE_BYTES_TOTAL: &str = "pargrid_net_rebalance_bytes_total";
/// Primary buckets owned per worker slot (gauge, label `worker`).
pub const NET_WORKER_BUCKETS: &str = "pargrid_net_worker_buckets";
/// Worker-process liveness as seen by the coordinator's remote backend:
/// 1 while the proxy's connection + heartbeats are healthy, 0 once the
/// worker is declared dead (gauge, label `worker`).
pub const NET_WORKER_ALIVE: &str = "pargrid_net_worker_alive";
/// Per-query additive gap from the declustering lower bound: blocks on
/// the busiest worker minus `ceil(total_blocks / live_workers)`, the
/// frontier oracle's `ceil(|Q|/M)` pigeonhole bound (histogram, blocks).
/// Zero means the live layout answered the query with provably optimal
/// parallelism; a drifting mean is a layout-quality alarm.
pub const FRONTIER_GAP_BLOCKS: &str = "pargrid_frontier_gap_blocks";
/// The coordinator's current election term — also the fencing epoch its
/// dispatches carry (gauge).
pub const CLUSTER_LEADER_TERM: &str = "pargrid_cluster_leader_term";
/// 1 if this coordinator currently leads, 0 on a standby (gauge).
pub const CLUSTER_IS_LEADER: &str = "pargrid_cluster_is_leader";
/// Leadership promotions this process has performed (counter; >0 on a
/// node that took over from a failed leader).
pub const CLUSTER_FAILOVERS_TOTAL: &str = "pargrid_cluster_failovers_total";
/// Highest replicated-metadata-log index known committed (gauge).
pub const CLUSTER_COMMIT_INDEX: &str = "pargrid_cluster_commit_index";
/// Epoch of the most recent lease granted to this leader by its workers
/// (gauge; trails `pargrid_cluster_leader_term` only transiently).
pub const CLUSTER_LEASE_EPOCH: &str = "pargrid_cluster_lease_epoch";
/// Standby coordinators currently online in the leader's replication
/// set (gauge). 0 with standbys configured means degraded durability:
/// mutations are either refused (a joined standby went dark) or
/// unreplicated (the regime was promoted over dead peers) — alert on it.
pub const CLUSTER_ONLINE_STANDBYS: &str = "pargrid_cluster_online_standbys";
