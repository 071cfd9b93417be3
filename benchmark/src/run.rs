//! One benchmark run: set-up, load phases, answer checks, metrics.
//!
//! An untraced run measures the end-to-end metrics and nothing else. A traced
//! run is a separate invocation that measures every per-layer metric: exact
//! counts around a closed-loop phase, client spans at one connection, the
//! layer replay, and the open-loop phase. End-to-end metrics are never taken
//! from a traced run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use pargrid_gridfile::{GridFile, Record, Wal, WalOp};
use pargrid_net::Response;
use pargrid_obs::names;
use pargrid_parallel::EngineStats;

use crate::host::{peak_rss_mb, sample_steal, ProcSnapshot, Provenance, Scratch};
use crate::inputs::{anchor_points, range_request, Templates, Writer};
use crate::load::{closed_loop, open_loop, Client, ReplyCounts, Traffic};
use crate::replay::replay;
use crate::spec::{
    Workload, CLIENTS, QUIET_WINDOWS, REPLAY_TEMPLATES, SETUPS, WINDOWS, WRITE_ID_BASE,
};
use crate::stack::{SetupTimes, Stack};
use crate::stats::{median, median_of, percentile, quiet_windows, window_spread, windows, Sample};
use crate::trace::{Tracer, NO_PARENT};
use crate::wire::Conn;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: &'static Workload,
    /// Seed of the dataset, the query templates and the write streams.
    pub seed: u64,
    /// Seconds the closed-loop windows measure in total; every other phase
    /// is a fixed share of it.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced run (end-to-end metrics).
    pub trace: bool,
    /// Records in the dataset.
    pub records: usize,
    /// Where a traced run writes its spans; `None` puts them beside the
    /// executable.
    pub spans_out: Option<PathBuf>,
}

/// A measured value and the number of samples behind it.
pub type Measured = (f64, u64);

/// The metrics of one run, by name.
pub type Metrics = BTreeMap<&'static str, Measured>;

/// What a run found.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Where and on what it ran.
    pub provenance: Provenance,
    /// Every metric of the run's mode, by name.
    pub metrics: Metrics,
    /// Operations sent, over all phases.
    pub attempted: u64,
    /// Operations that failed or whose answer the oracle rejected, plus
    /// failed end-of-run state checks.
    pub failed: u64,
    /// The first failure.
    pub first_failure: Option<String>,
    /// Answers torn by an in-flight mutation and right when asked again
    /// (see `Client::torn_reads`); reported, not failed.
    pub torn_reads: u64,
    /// How disturbed the run's closed-loop phase was.
    pub noise: Noise,
    /// Where the spans of a traced run went.
    pub spans_path: Option<PathBuf>,
}

/// The served stack with its load generator, for the phases of either mode.
struct Bench<'a> {
    cfg: &'a RunConfig,
    stack: Stack,
    /// The grid file as loaded, before any write of the load generator: what
    /// the oracle answers from and what the layer replay rebuilds.
    grid: GridFile,
    templates: Templates,
    clients: Vec<Client>,
}

impl Bench<'_> {
    /// `numerator / denominator` of the run's `--seconds`.
    fn share(&self, numerator: u32, denominator: u32) -> Duration {
        Duration::from_secs(self.cfg.seconds) * numerator / denominator
    }

    /// Closed loop over the first `n` clients.
    fn closed(&mut self, n: usize, duration: Duration) -> Vec<Sample> {
        let traffic = Traffic {
            templates: &self.templates,
            write_every: self.cfg.workload.write_every,
        };
        closed_loop(&mut self.clients[..n], &traffic, duration)
    }
}

/// Median of the set-ups, the last of which stays up.
fn set_ups(cfg: &RunConfig, scratch: &Scratch) -> Result<(Stack, f64, SetupTimes), String> {
    // A traced run times the stages of one set-up; `setup_s` is not its
    // business.
    let n = if cfg.trace { 1 } else { SETUPS };
    let mut totals = Vec::with_capacity(n);
    let mut last = None;
    for k in 0..n {
        if let Some((stack, _)) = last.take() {
            Stack::tear_down(stack);
        }
        let dir = scratch.path().join(format!("setup-{k}"));
        let (stack, times) = Stack::set_up(cfg.workload.cluster, cfg.seed, cfg.records, &dir)?;
        totals.push(times.total_s());
        last = Some((stack, times));
    }
    let (stack, times) = last.expect("at least one set-up");
    Ok((stack, median(&mut totals), times))
}

fn connect_clients(
    cfg: &RunConfig,
    stack: &Stack,
    grid: &GridFile,
    templates: &Templates,
) -> Result<Vec<Client>, String> {
    let anchors = anchor_points(grid);
    let domain = grid.config().domain;
    (0..CLIENTS)
        .map(|id| {
            let writer = Writer::new(id, cfg.seed, anchors.clone(), domain);
            Client::connect(id, CLIENTS, stack.addr(), templates.requests.len(), writer)
        })
        .collect()
}

/// After the load: a full-domain query through the wire must return the
/// whole base set plus exactly the records the clients' acknowledged writes
/// left alive. Returns the failures found.
fn check_final_state(bench: &Bench<'_>, records: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let domain = *bench.stack.handle.engine.domain();
    let reply = Conn::connect(bench.stack.addr())
        .map_err(|e| e.to_string())
        .and_then(|mut conn| conn.call(&range_request(&domain)));
    let reply = match reply {
        Ok((Response::Records(reply), _)) if !reply.incomplete => reply,
        Ok((other, _)) => return vec![format!("full-domain query answered {other:?}")],
        Err(e) => return vec![format!("full-domain query: {e}")],
    };
    let key = |r: &Record| {
        (
            r.id,
            r.point
                .coords()
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<u64>>(),
        )
    };
    let mut served: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut base = 0usize;
    for r in &reply.records {
        if r.id < WRITE_ID_BASE {
            base += 1;
            continue;
        }
        let (id, bits) = key(r);
        if served.insert(id, bits).is_some() {
            failures.push(format!("id {id:#x} served twice"));
        }
    }
    let model: BTreeMap<u64, Vec<u64>> = bench
        .clients
        .iter()
        .flat_map(|c| c.writer.live.iter().map(key))
        .collect();
    if base != records {
        failures.push(format!(
            "full-domain query holds {base} base records, loaded {records}"
        ));
    }
    if served != model {
        failures.push(format!(
            "full-domain query holds {} written records, the model of acknowledged writes {}",
            served.len(),
            model.len()
        ));
    }
    failures
}

/// After the load: replaying the scratch WAL must yield exactly the
/// acknowledged mutations, each client's in the order it was acknowledged
/// (the interleaving between clients is the server's to choose).
fn check_wal(wal_ops: &[WalOp], clients: &[Client]) -> Vec<String> {
    let mut failures = Vec::new();
    let id_of = |op: &WalOp| match op {
        WalOp::Insert(r) => r.id,
        WalOp::Delete { id, .. } => *id,
    };
    let acked: usize = clients.iter().map(|c| c.writer.acked.len()).sum();
    if wal_ops.len() != acked {
        failures.push(format!(
            "WAL replays {} mutations, {acked} were acknowledged",
            wal_ops.len()
        ));
    }
    for (c, client) in clients.iter().enumerate() {
        let logged: Vec<&WalOp> = wal_ops
            .iter()
            .filter(|op| (id_of(op) >> 32) & 0xff == c as u64)
            .collect();
        if logged != client.writer.acked.iter().collect::<Vec<_>>() {
            failures.push(format!(
                "WAL order of client {c} differs from its acknowledgements"
            ));
        }
    }
    failures
}

/// Counter named `name` in a Prometheus text document.
fn prom_value(doc: &str, name: &str) -> f64 {
    doc.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .next()
        .unwrap_or(0.0)
}

/// Requests per serviced worker batch between two engine snapshots.
fn mean_batch(before: &EngineStats, after: &EngineStats) -> f64 {
    let sum = |s: &EngineStats, f: fn(&pargrid_parallel::WorkerStats) -> u64| -> u64 {
        s.workers.iter().map(f).sum()
    };
    let batches = sum(after, |w| w.batches) - sum(before, |w| w.batches);
    let requests = sum(after, |w| w.batched_requests) - sum(before, |w| w.batched_requests);
    if batches == 0 {
        return 0.0;
    }
    requests as f64 / batches as f64
}

/// How disturbed a run was.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noise {
    /// `client.window_spread`: interquartile range over median of all
    /// windows' throughput.
    pub window_spread: f64,
    /// Share of CPU time the hypervisor withheld over the closed phase.
    pub steal_frac: f64,
    /// Largest such share among the windows the metrics were read from.
    pub quiet_steal: f64,
}

/// The untraced run's phases.
fn end_to_end(bench: &mut Bench<'_>, setup_s: f64, m: &mut Metrics) -> Noise {
    bench.closed(CLIENTS, bench.share(1, 12));
    let window = bench.share(1, WINDOWS as u32);
    let sampler = thread::spawn(move || sample_steal(window, WINDOWS));
    let samples = bench.closed(CLIENTS, window * WINDOWS as u32);
    let steal = sampler.join().expect("steal sampler panicked");
    let all = windows(&samples, WINDOWS, window.as_nanos() as u64);
    // This sandbox is a guest whose hypervisor withholds a tenth to a third
    // of its CPU for seconds to minutes at a time, and `point` then runs at a
    // quarter of its speed. Read the result from the windows it left alone.
    let (quiet, quiet_steal) = quiet_windows(&all, &steal, QUIET_WINDOWS);
    let queries: u64 = quiet.iter().map(|w| w.queries).sum();
    let writes: u64 = quiet.iter().map(|w| w.writes).sum();
    m.insert("setup_s", (setup_s, SETUPS as u64));
    m.insert("qps", (median_of(&quiet, |w| w.qps), queries + writes));
    m.insert("p50_us", (median_of(&quiet, |w| w.p50_us), queries));
    m.insert("p95_us", (median_of(&quiet, |w| w.p95_us), queries));
    Noise {
        window_spread: window_spread(&all),
        steal_frac: steal.iter().sum::<f64>() / steal.len().max(1) as f64,
        quiet_steal,
    }
}

/// Exact counts around a closed-loop phase at the benchmark's client count,
/// tracing off.
fn counted_phase(bench: &mut Bench<'_>, m: &mut Metrics) -> Noise {
    bench.closed(CLIENTS, bench.share(1, 12));
    for c in &mut bench.clients {
        c.replies = ReplyCounts::default();
    }
    let prom_before = bench.stack.server.metrics_prom();
    let engine_before = bench.stack.handle.engine.stats();
    let proc_before = ProcSnapshot::now();
    let window = bench.share(1, WINDOWS as u32);
    let n_windows = WINDOWS / 3;
    let phase = window * n_windows as u32;
    let sampler = thread::spawn(move || sample_steal(phase, 1));
    let samples = bench.closed(CLIENTS, phase);
    let steal_frac = sampler.join().expect("steal sampler panicked")[0];
    let proc_after = ProcSnapshot::now();
    let engine_after = bench.stack.handle.engine.stats();
    let prom_after = bench.stack.server.metrics_prom();

    let ops = samples.len() as u64;
    let per_op = |total: f64| (total / ops.max(1) as f64, ops);
    let delta = |name: &str| prom_value(&prom_after, name) - prom_value(&prom_before, name);
    let mean_of = |histogram: &str| {
        let count = delta(&format!("{histogram}_count"));
        (
            delta(&format!("{histogram}_sum")) / count.max(1.0),
            count as u64,
        )
    };
    let (mut queries, mut total_blocks, mut response_blocks) = (0, 0, 0);
    for c in &bench.clients {
        queries += c.replies.queries;
        total_blocks += c.replies.total_blocks;
        response_blocks += c.replies.response_blocks;
    }
    let per_query = |total: u64| (total as f64 / queries.max(1) as f64, queries);
    m.insert(
        "parallel.mean_batch",
        (mean_batch(&engine_before, &engine_after), ops),
    );
    m.insert("parallel.blocks_per_query", per_query(total_blocks));
    m.insert("core.response_blocks_mean", per_query(response_blocks));
    // No layout serves `total_blocks` on M disks with fewer than ⌈total/M⌉ on
    // the busiest one; the server keeps a histogram of the excess.
    m.insert(
        "frontier.gap_blocks_mean",
        mean_of(names::FRONTIER_GAP_BLOCKS),
    );
    m.insert(
        "net.bytes_out_per_op",
        per_op(delta(names::NET_BYTES_OUT_TOTAL)),
    );
    m.insert(
        "net.bytes_in_per_op",
        per_op(delta(names::NET_BYTES_IN_TOTAL)),
    );
    // The exposition's buckets are powers of four, too coarse for a median.
    m.insert("net.server_sojourn_us", mean_of(names::NET_SOJOURN_US));
    m.insert(
        "net.queue_depth_hwm",
        (prom_value(&prom_after, names::NET_QUEUE_HWM), 1),
    );
    m.insert(
        "net.shed_total",
        (prom_value(&prom_after, names::NET_SHED_TOTAL), 1),
    );
    let cpu_ms = (proc_after.cpu_ns - proc_before.cpu_ns) as f64 / 1e6;
    m.insert("proc.cpu_ms_per_op", per_op(cpu_ms));
    let switches = proc_after.ctx_switches - proc_before.ctx_switches;
    m.insert("proc.ctx_switches_per_op", per_op(switches as f64));

    // The tail over the whole phase: a one-second window has too few samples
    // beyond its 99th percentile.
    let whole = windows(&samples, 1, phase.as_nanos() as u64)[0];
    m.insert("client.p99_us", (whole.p99_us, whole.queries));
    m.insert("client.max_us", (whole.max_us, whole.queries));
    m.insert("client.write_p50_us", (whole.write_p50_us, whole.writes));
    let spread = window_spread(&windows(&samples, n_windows, window.as_nanos() as u64));
    m.insert("client.window_spread", (spread, n_windows as u64));
    m.insert("host.steal_frac", (steal_frac, 1));
    Noise {
        window_spread: spread,
        steal_frac,
        quiet_steal: steal_frac,
    }
}

/// One connection, alternating untraced and traced slices: the spans that
/// decompose `p50_us`, and what recording them costs.
fn span_phase(bench: &mut Bench<'_>, tracer: &mut Tracer, m: &mut Metrics) {
    let slice = bench.share(1, 15);
    let (mut plain, mut traced): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let query_us = |samples: Vec<Sample>| {
        let queries = samples.into_iter().filter(|s| !s.write);
        queries.map(|s| s.lat_ns as f64 / 1e3)
    };
    for _ in 0..3 {
        plain.extend(query_us(bench.closed(1, slice)));
        bench.clients[0].tracer = Some(tracer.sibling());
        traced.extend(query_us(bench.closed(1, slice)));
        tracer.merge(bench.clients[0].tracer.take().expect("tracer set above"));
    }
    let (plain_p50, traced_p50) = (percentile(&mut plain, 0.50), percentile(&mut traced, 0.50));
    let overhead = (traced_p50 - plain_p50) / plain_p50.max(1e-9);
    m.insert("trace.overhead_frac", (overhead, plain.len() as u64));
    m.insert("client.roundtrip_us", tracer.p50_us("client.roundtrip"));
    m.insert("client.encode_send_us", tracer.p50_us("client.encode_send"));
    m.insert("client.wait_us", tracer.p50_us("client.wait"));
    m.insert("client.decode_us", tracer.p50_us("client.decode"));
}

/// The layer replay, while the served stack idles, and the metrics derived
/// from it together with the client spans.
fn replay_phase(
    bench: &Bench<'_>,
    scratch: &Scratch,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let w = bench.cfg.workload;
    let counts = replay(
        &bench.grid,
        &bench.stack.assignment,
        &bench.templates,
        bench.cfg.seed,
        scratch.path(),
        tracer,
    )?;
    for (metric, span) in [
        ("gridfile.plan_us", "gridfile.plan"),
        ("gridfile.serial_query_us", "gridfile.serial_query"),
        ("gridfile.page_scan_us", "gridfile.page_scan"),
        ("parallel.store_read_us", "parallel.store_read"),
        ("parallel.query_us", "parallel.query"),
        ("net.encode_us", "net.encode"),
        ("net.decode_us", "net.decode"),
        ("parallel.mutate_us", "parallel.mutate"),
        ("gridfile.mutate_us", "gridfile.mutate"),
        ("gridfile.wal_append_sync_us", "gridfile.wal_append_sync"),
        ("cluster.query_us", "cluster.query"),
    ] {
        m.insert(metric, tracer.p50_us(span));
    }
    let p50 = |m: &Metrics, name: &str| m[name].0;
    let templates = bench.templates.rects.len() as u64;
    let scanned_per_returned = counts.scanned as f64 / counts.returned.max(1) as f64;
    m.insert(
        "gridfile.scanned_per_returned",
        (scanned_per_returned, templates),
    );
    let overhead = p50(m, "parallel.query_us") / p50(m, "gridfile.serial_query_us").max(1e-9);
    m.insert("parallel.overhead_x", (overhead, templates));
    let per_write = |total: u64| (total as f64 / counts.writes.max(1) as f64, counts.writes);
    m.insert("gridfile.wal_bytes_per_write", per_write(counts.wal_bytes));
    m.insert("parallel.rewritten_per_write", per_write(counts.rewritten));
    // Hop overhead compares the two engines on the same templates.
    let replayed = REPLAY_TEMPLATES as u64;
    let local_same = percentile(&mut tracer.durations_us("parallel.query", replayed), 0.50);
    m.insert(
        "cluster.hop_overhead_us",
        (p50(m, "cluster.query_us") - local_same, replayed),
    );
    let dedup = if w.cluster {
        bench.stack.handle.dedup_ratio()
    } else {
        counts.dedup_ratio
    };
    m.insert("cluster.dedup_ratio", (dedup, 1));
    // What the round trip spends outside the engine and the codec: sockets,
    // admission queue and thread hops. Nothing measured from outside the
    // program explains it further.
    let engine = if w.cluster {
        "cluster.query_us"
    } else {
        "parallel.query_us"
    };
    let (roundtrip, roundtrips) = m["client.roundtrip_us"];
    let transport = roundtrip - p50(m, engine) - p50(m, "net.encode_us") - p50(m, "net.decode_us");
    m.insert("net.transport_us", (transport, roundtrips));
    m.insert(
        "trace.unattributed_frac",
        (transport / roundtrip.max(1e-9), roundtrips),
    );
    Ok(())
}

/// Open loop at the workload's fixed rate, timed from the due instant.
fn open_phase(bench: &mut Bench<'_>, m: &mut Metrics) {
    let w = bench.cfg.workload;
    let duration = bench.share(1, 5);
    let traffic = Traffic {
        templates: &bench.templates,
        write_every: w.write_every,
    };
    let mut open = open_loop(&mut bench.clients, &traffic, w.open_rate, duration);
    m.insert(
        "loadgen.open_p50_us",
        (percentile(&mut open.lat_us, 0.50), open.sent),
    );
    m.insert(
        "loadgen.open_p99_us",
        (percentile(&mut open.lat_us, 0.99), open.sent),
    );
    m.insert("loadgen.late_frac", (open.late_frac(), open.sent));
    m.insert(
        "loadgen.max_lag_us",
        (open.max_lag_ns as f64 / 1e3, open.sent),
    );
}

/// The traced run's phases.
fn per_layer(
    bench: &mut Bench<'_>,
    times: &SetupTimes,
    scratch: &Scratch,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<Noise, String> {
    for (metric, span, start, end) in [
        (
            "datagen.generate_s",
            "datagen.generate",
            times.start,
            times.generated,
        ),
        (
            "gridfile.bulk_load_s",
            "gridfile.bulk_load",
            times.generated,
            times.loaded,
        ),
        (
            "core.decluster_s",
            "core.decluster",
            times.loaded,
            times.declustered,
        ),
        (
            "parallel.build_s",
            "parallel.build",
            times.declustered,
            times.built,
        ),
    ] {
        tracer.record(span, start, end, NO_PARENT, 0);
        m.insert(metric, ((end - start).as_secs_f64(), 1));
    }
    let noise = counted_phase(bench, m);
    span_phase(bench, tracer, m);
    replay_phase(bench, scratch, tracer, m)?;
    open_phase(bench, m);
    m.insert("proc.peak_rss_mb", (peak_rss_mb(), 1));
    // Over every phase of the run: the event is rare.
    let attempted: u64 = bench.clients.iter().map(|c| c.attempted).sum();
    let torn: u64 = bench.clients.iter().map(|c| c.torn_reads).sum();
    m.insert("client.torn_reads", (torn as f64, attempted));
    Ok(noise)
}

/// Runs one workload once.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let scratch = Scratch::create().map_err(|e| format!("scratch directory: {e}"))?;
    let provenance = Provenance::collect(scratch.path());
    if provenance.nproc < CLIENTS {
        return Err(format!(
            "host has {} usable cores; the benchmark is pinned to {CLIENTS} client threads and needs at least as many",
            provenance.nproc
        ));
    }
    let epoch = Instant::now();
    let (stack, setup_s, times) = set_ups(cfg, &scratch)?;
    let grid = stack.handle.engine.snapshot_grid();
    let templates = Templates::generate(cfg.workload, cfg.seed, &grid);
    let clients = connect_clients(cfg, &stack, &grid, &templates)?;
    let mut bench = Bench {
        cfg,
        stack,
        grid,
        templates,
        clients,
    };

    let mut metrics = Metrics::new();
    let mut tracer = Tracer::new(epoch);
    let noise = if cfg.trace {
        per_layer(&mut bench, &times, &scratch, &mut tracer, &mut metrics)?
    } else {
        end_to_end(&mut bench, setup_s, &mut metrics)
    };

    let mut failures = check_final_state(&bench, cfg.records);
    let Bench { stack, clients, .. } = bench;
    let wal_path = stack.handle.wal_path();
    let wal_ops = Wal::replay(&wal_path).map_err(|e| format!("WAL replay: {e}"));
    stack.tear_down();
    failures.extend(check_wal(&wal_ops?.ops, &clients));

    let spans_path = if cfg.trace {
        let path = cfg.spans_out.clone().unwrap_or_else(|| {
            let exe = std::env::current_exe().unwrap_or_default();
            exe.with_file_name(format!("pargrid-e2e-spans-{}.json", cfg.workload.name))
        });
        tracer
            .write_json(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Some(path)
    } else {
        None
    };

    let attempted: u64 = clients.iter().map(|c| c.attempted).sum();
    let failed = clients.iter().map(|c| c.failed).sum::<u64>() + failures.len() as u64;
    let first_failure = clients
        .iter()
        .find_map(|c| c.first_failure.clone())
        .or(failures.into_iter().next());
    Ok(RunResult {
        provenance,
        metrics,
        attempted,
        failed,
        first_failure,
        torn_reads: clients.iter().map(|c| c.torn_reads).sum(),
        noise,
        spans_path,
    })
}
