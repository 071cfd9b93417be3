//! Multi-threaded TCP server in front of a [`ParallelGridFile`].
//!
//! Thread topology (all `std::thread`, blocking I/O): one accept thread,
//! and one thread per connection that runs each request to completion —
//! the paper's one-round coordinator, with no hand-off between threads:
//!
//! ```text
//!   accept thread ── spawns per connection ──► connection thread (1/conn)
//!
//!   read frame → decode → admission gate → QuerySession → encode → write_all
//!                    │                                                 ▲
//!                    └── Ping / Stats / Shutdown / Rebalance, ungated ─┘
//! ```
//!
//! A connection answers its requests one at a time, in the order they
//! arrived. Replies carry no request id, so a client that pipelines
//! matches replies to requests by position.
//!
//! Admission control is a counting gate: at most `dispatchers` requests
//! are inside the engine at once and at most `queue_capacity` more wait
//! for a permit. Any request beyond that is answered `Overloaded {
//! retry_after_ms }` at once (load is *shed*, never buffered unboundedly,
//! so sojourn times stay bounded and the server survives any offered
//! load). Queries and mutations pass the gate; Ping/Stats/Shutdown/
//! Rebalance bypass it, because control traffic must work precisely when
//! the data path is saturated.
//!
//! Graceful shutdown, in drain order: the shutdown flag stops the accept
//! loop (woken from its blocking `accept` by one connection of the
//! server's own) and the accept thread is joined; the gate closes (new
//! requests are refused, waiters still get through); each connection's
//! read half is shut down and its thread joined — it finishes the request
//! it holds, writes that reply and then sees EOF; last, the engine joins
//! its workers ([`ParallelGridFile::shutdown`]).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pargrid_geom::{Point, Rect};
use pargrid_gridfile::Record;
use pargrid_obs::{names, AtomicHistogram, PromWriter};
use pargrid_parallel::{ParallelGridFile, QuerySession, RebalanceOp};

use crate::cluster_proto::MetaOp;
use crate::frame::{read_frame, Frame, FrameError};
use crate::proto::{
    MutationAck, RebalanceCmd, RebalanceSummary, RecordsReply, Request, Response, WireError,
};

/// Pre-apply gate for mutations: `Err` refuses the op and is sent to the
/// client verbatim.
pub type MutationGate = Arc<dyn Fn(&MetaOp) -> Result<(), WireError> + Send + Sync>;

/// Seams a cluster coordinator installs on its embedded server. The
/// server itself stays cluster-agnostic: single-node serving passes
/// `None` and behaves exactly as before.
#[derive(Clone)]
pub struct ClusterHooks {
    /// Called with each acknowledged-to-be mutation *before* it is
    /// applied to the engine. The coordinator uses it to replicate the
    /// operation to every standby's metadata log; an `Err` (e.g. lost
    /// leadership, standby unreachable) refuses the mutation and is sent
    /// to the client verbatim. Holding a lock inside the gate serializes
    /// mutations — the cluster trades single-node write concurrency for
    /// read-your-write across failover.
    pub mutation_gate: MutationGate,
    /// Appends coordinator gauges (leadership, lease epoch, worker
    /// liveness) to the server's Prometheus document.
    pub extra_metrics: Arc<dyn Fn(&mut PromWriter) + Send + Sync>,
}

impl std::fmt::Debug for ClusterHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHooks").finish_non_exhaustive()
    }
}

/// Tunables for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Requests that may wait for an admission permit; a query or mutation
    /// arriving while this many already wait is shed with `Overloaded`.
    pub queue_capacity: usize,
    /// Requests served at once: admission permits, each letting one
    /// connection's query or mutation into the engine.
    pub dispatchers: usize,
    /// Retry hint sent with `Overloaded` replies, milliseconds.
    pub retry_after_ms: u32,
    /// Wall-clock service pacing: after answering a query the connection
    /// sleeps `pace_us_per_block ×` the query's `response_blocks`
    /// microseconds while holding its permit. Zero disables pacing.
    /// `response_blocks` — blocks on the busiest disk — is the paper's
    /// response-time metric and is independent of cache state, so pacing
    /// on it ties real serving capacity directly to declustering quality:
    /// a method that halves response blocks doubles the server's
    /// wall-clock throughput in the `repro serving` experiment.
    pub pace_us_per_block: u64,
    /// Whether a wire `Shutdown` request is honored (CI and tests) or
    /// refused as malformed (default off would complicate the smoke job;
    /// the CLI enables it explicitly).
    pub allow_remote_shutdown: bool,
    /// Whether a wire `Rebalance` request is honored. Same admin gating as
    /// `allow_remote_shutdown`: off by default, enabled explicitly by the
    /// CLI's `serve` command and by tests.
    pub allow_remote_rebalance: bool,
    /// Cluster-coordinator seams; `None` for single-node serving.
    pub cluster: Option<ClusterHooks>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            dispatchers: 4,
            retry_after_ms: 50,
            pace_us_per_block: 0,
            allow_remote_shutdown: false,
            allow_remote_rebalance: false,
            cluster: None,
        }
    }
}

/// What a connection does once admitted. Mutations pass the same gate as
/// queries, so overload sheds them with the same `Overloaded`
/// back-pressure instead of buffering writes unboundedly.
enum Work {
    /// An already-validated query rectangle.
    Query(Rect),
    /// Insert this record.
    Insert(Record),
    /// Delete the record with this id at this key.
    Delete(u64, Point),
}

#[derive(Default)]
struct GateState {
    busy: usize,
    waiting: usize,
    closed: bool,
    hwm: usize,
}

/// Admission as a counting gate: at most `permits` callers inside at once,
/// at most `capacity` more blocked waiting for a permit, and everyone
/// beyond that refused. A hand-rolled `Mutex` + `Condvar` because the shed
/// rule needs an exact count of waiters.
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
    permits: usize,
    capacity: usize,
}

/// One caller's place inside the gate; dropping it admits a waiter.
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(permits: usize, capacity: usize) -> Self {
        Gate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            permits: permits.max(1),
            capacity: capacity.max(1),
        }
    }

    /// Blocks until a permit is free. `None` sheds the caller: the gate is
    /// closed, or every permit is taken and `capacity` callers already
    /// wait. Callers that were waiting when the gate closed still enter.
    fn enter(&self) -> Option<Permit<'_>> {
        let mut s = self.state.lock().expect("admission gate");
        if s.closed || (s.busy >= self.permits && s.waiting >= self.capacity) {
            return None;
        }
        if s.busy >= self.permits {
            s.waiting += 1;
            s.hwm = s.hwm.max(s.waiting);
            s = self
                .freed
                .wait_while(s, |s| s.busy >= self.permits)
                .expect("admission gate");
            s.waiting -= 1;
        }
        s.busy += 1;
        Some(Permit(self))
    }

    fn close(&self) {
        self.state.lock().expect("admission gate").closed = true;
    }

    /// Callers waiting for a permit now.
    fn depth(&self) -> usize {
        self.state.lock().expect("admission gate").waiting
    }

    /// Most callers ever waiting at once.
    fn hwm(&self) -> usize {
        self.state.lock().expect("admission gate").hwm
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Every update under this lock is a single counter step, so a
        // poisoned guard still holds consistent counts; `Drop` must not
        // panic.
        let mut s = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.busy -= 1;
        drop(s);
        self.0.freed.notify_one();
    }
}

/// Lock-free serving counters, exported as Prometheus by
/// [`Server::metrics_prom`].
#[derive(Default)]
struct NetMetrics {
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    requests_total: AtomicU64,
    served_total: AtomicU64,
    mutations_total: AtomicU64,
    shed_total: AtomicU64,
    malformed_total: AtomicU64,
    rebalance_total: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    sojourn_us: AtomicHistogram,
    gap_blocks: AtomicHistogram,
}

struct Inner {
    engine: Arc<ParallelGridFile>,
    gate: Gate,
    metrics: NetMetrics,
    config: ServerConfig,
    local_addr: SocketAddr,
    shutdown_requested: AtomicBool,
    /// Open connections by id: a clone of the socket, so [`Server::join`]
    /// can shut its read half, and the thread serving it. A connection
    /// removes its own entry when its thread ends, so a long-running
    /// server holds no descriptor or handle for a closed connection.
    conns: Mutex<HashMap<u64, (TcpStream, JoinHandle<()>)>>,
}

impl Inner {
    fn request_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::SeqCst);
        wake_accept(self.local_addr);
    }

    fn metrics_prom(&self) -> String {
        let m = &self.metrics;
        let mut pw = PromWriter::new();
        pw.counter(
            names::NET_CONNECTIONS_TOTAL,
            "TCP connections accepted.",
            m.connections_total.load(Ordering::Relaxed),
        );
        pw.gauge(
            names::NET_CONNECTIONS_ACTIVE,
            "TCP connections currently open.",
            m.connections_active.load(Ordering::Relaxed) as f64,
        );
        pw.counter(
            names::NET_REQUESTS_TOTAL,
            "Wire requests decoded.",
            m.requests_total.load(Ordering::Relaxed),
        );
        pw.counter(
            names::NET_SERVED_TOTAL,
            "Query requests answered with records.",
            m.served_total.load(Ordering::Relaxed),
        );
        pw.counter(
            names::NET_MUTATIONS_TOTAL,
            "Insert/delete requests applied.",
            m.mutations_total.load(Ordering::Relaxed),
        );
        pw.counter(
            names::NET_SHED_TOTAL,
            "Query requests shed by admission control.",
            m.shed_total.load(Ordering::Relaxed),
        );
        pw.counter(
            names::NET_MALFORMED_TOTAL,
            "Frames or payloads rejected as malformed.",
            m.malformed_total.load(Ordering::Relaxed),
        );
        pw.gauge(
            names::NET_QUEUE_DEPTH,
            "Requests waiting for an admission permit now.",
            self.gate.depth() as f64,
        );
        pw.gauge(
            names::NET_QUEUE_HWM,
            "Most requests ever waiting for an admission permit at once.",
            self.gate.hwm() as f64,
        );
        pw.counter(
            names::NET_BYTES_IN_TOTAL,
            "Bytes read from client sockets.",
            m.bytes_in.load(Ordering::Relaxed),
        );
        pw.counter(
            names::NET_BYTES_OUT_TOTAL,
            "Bytes written to client sockets.",
            m.bytes_out.load(Ordering::Relaxed),
        );
        pw.histogram(
            names::NET_SOJOURN_US,
            "Gate-entry-to-encoded-reply sojourn time (wall microseconds).",
            &m.sojourn_us.snapshot(),
        );
        pw.histogram(
            names::FRONTIER_GAP_BLOCKS,
            "Per-query additive gap from the ceil(|Q|/M) declustering lower \
             bound (blocks on the busiest worker above provably optimal).",
            &m.gap_blocks.snapshot(),
        );
        pw.counter(
            names::NET_REBALANCE_TOTAL,
            "Wire rebalance requests honored (dry runs included).",
            m.rebalance_total.load(Ordering::Relaxed),
        );
        let es = self.engine.stats();
        pw.counter(
            names::ENGINE_QUERIES_TOTAL,
            "Queries admitted by the engine.",
            es.queries,
        );
        pw.gauge(
            names::ENGINE_WORKERS_ALIVE,
            "Engine workers alive.",
            es.live_workers() as f64,
        );
        pw.counter(
            names::NET_REBALANCE_MOVES_TOTAL,
            "Bucket copies migrated by rebalances.",
            es.rebalance_moves,
        );
        pw.counter(
            names::NET_REBALANCE_BYTES_TOTAL,
            "Page bytes copied by rebalance migrations.",
            es.rebalance_bytes,
        );
        let owned: Vec<(String, f64)> = self
            .engine
            .worker_buckets()
            .iter()
            .enumerate()
            .map(|(w, &n)| (w.to_string(), n as f64))
            .collect();
        pw.gauge_per_label(
            names::NET_WORKER_BUCKETS,
            "Primary buckets owned per worker slot.",
            "worker",
            &owned,
        );
        if let Some(hooks) = &self.config.cluster {
            (hooks.extra_metrics)(&mut pw);
        }
        pw.finish()
    }
}

/// A running server. Each connection's replies come back in the order its
/// requests were sent, so a client may write several requests before
/// reading and match replies by position. Dropping it without calling
/// [`Server::shutdown`] leaks the background threads until process exit;
/// the CLI and tests always shut down explicitly.
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

/// `TcpStream` wrapper that counts bytes as the connection pulls frames.
struct CountingReader<'a> {
    stream: &'a TcpStream,
    bytes: &'a AtomicU64,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the accept
    /// thread, and returns immediately.
    pub fn start(
        engine: Arc<ParallelGridFile>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            gate: Gate::new(config.dispatchers, config.queue_capacity),
            metrics: NetMetrics::default(),
            local_addr,
            shutdown_requested: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            engine,
            config,
        });

        let accept = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("pargrid-accept".into())
                .spawn(move || accept_loop(&listener, &inner))
                .expect("spawn acceptor")
        };

        Ok(Server {
            inner,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Current Prometheus metrics document (same text a wire `Stats`
    /// request returns).
    pub fn metrics_prom(&self) -> String {
        self.inner.metrics_prom()
    }

    /// Signals shutdown without waiting (a wire `Shutdown` request does
    /// exactly this internally).
    pub fn request_shutdown(&self) {
        self.inner.request_shutdown();
    }

    /// Blocks until shutdown is requested — by [`Server::request_shutdown`]
    /// or a wire `Shutdown` — then tears everything down in drain order:
    /// join the accept thread, close the admission gate, shut the read
    /// half of every open connection and join its thread (each finishes
    /// and answers the request it holds), then join the engine's workers.
    /// Returns the final metrics document.
    pub fn join(mut self) -> String {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.inner.gate.close();
        // Taken out of the table first: a connection thread locks it to
        // deregister on its way out.
        let conns: Vec<(TcpStream, JoinHandle<()>)> = self
            .inner
            .conns
            .lock()
            .expect("connection table")
            .drain()
            .map(|(_, conn)| conn)
            .collect();
        for (stream, _) in &conns {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, h) in conns {
            let _ = h.join();
        }
        self.inner.engine.shutdown();
        self.inner.metrics_prom()
    }

    /// [`Server::request_shutdown`] + [`Server::join`].
    pub fn shutdown(self) -> String {
        self.inner.request_shutdown();
        self.join()
    }
}

/// Connects once to the listener bound at `addr`, so an accept thread
/// blocked on it wakes up and sees its shutdown flag. An unspecified bind
/// address is reached through loopback.
pub fn wake_accept(addr: SocketAddr) {
    let mut wake = addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
}

/// Blocks in `accept`, so a new connection is served the moment it
/// arrives; [`Inner::request_shutdown`] connects once to wake it.
fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let accepted = listener.accept();
        if inner.shutdown_requested.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                spawn_connection(stream, inner);
            }
            // Out of descriptors, or the peer reset before the accept:
            // back off instead of spinning.
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn spawn_connection(stream: TcpStream, inner: &Arc<Inner>) {
    let id = inner
        .metrics
        .connections_total
        .fetch_add(1, Ordering::Relaxed);
    let Ok(track) = stream.try_clone() else {
        return;
    };
    inner
        .metrics
        .connections_active
        .fetch_add(1, Ordering::Relaxed);
    // Spawned while holding the table lock the thread takes to deregister,
    // so a connection that closes at once cannot deregister before it is
    // registered.
    let mut conns = inner.conns.lock().expect("connection table");
    let handle = {
        let inner = Arc::clone(inner);
        thread::Builder::new()
            .name("pargrid-conn".into())
            .spawn(move || {
                serve_connection(&stream, &inner);
                inner
                    .metrics
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
                inner.conns.lock().expect("connection table").remove(&id);
            })
            .expect("spawn connection")
    };
    conns.insert(id, (track, handle));
}

/// Encodes a response straight into its single wire buffer
/// ([`Response::encode_frame`]). A response too large to frame (over
/// `MAX_PAYLOAD`) degrades to a typed error reply instead of silently
/// truncating its length header.
fn encode(resp: &Response) -> Vec<u8> {
    match resp.encode_frame() {
        Ok(b) => b,
        Err(e) => Response::Error(WireError::Incomplete(format!("response unsendable: {e}")))
            .encode_frame()
            .expect("error reply is tiny"),
    }
}

fn malformed(inner: &Inner, e: impl ToString) -> Vec<u8> {
    inner
        .metrics
        .malformed_total
        .fetch_add(1, Ordering::Relaxed);
    encode(&Response::Error(WireError::Malformed(e.to_string())))
}

/// The connection's whole life: read a frame, answer it, write the reply,
/// repeat — until the peer closes, a write fails, or the frame stream
/// cannot be trusted any more.
fn serve_connection(stream: &TcpStream, inner: &Inner) {
    let mut session = inner.engine.session();
    let mut counting = CountingReader {
        stream,
        bytes: &inner.metrics.bytes_in,
    };
    loop {
        let (reply, hang_up) = match read_frame(&mut counting) {
            Ok(frame) => answer(&frame, &mut session, inner),
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => break,
            // Framing is broken; one typed reply, then hang up — frame
            // boundaries can no longer be found on this stream.
            Err(e) => (malformed(inner, e), true),
        };
        if write_reply(stream, inner, &reply).is_err() || hang_up {
            break;
        }
    }
    let _ = session.close();
}

fn write_reply(mut stream: &TcpStream, inner: &Inner, bytes: &[u8]) -> io::Result<()> {
    stream.write_all(bytes)?;
    inner
        .metrics
        .bytes_out
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    Ok(())
}

/// Answers one frame: the encoded reply, and whether to hang up after
/// writing it.
fn answer(frame: &Frame, session: &mut QuerySession<'_>, inner: &Inner) -> (Vec<u8>, bool) {
    let request = match Request::decode(frame.msg_type, &frame.payload) {
        Ok(r) => r,
        // Frame boundaries are intact, only this payload is bad — reply
        // and keep the connection.
        Err(e) => return (malformed(inner, e), false),
    };
    inner.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
    let now = |resp: Response| (encode(&resp), false);
    let work = match request {
        Request::Ping { token } => return now(Response::Pong { token }),
        Request::Stats => return now(Response::StatsText(inner.metrics_prom())),
        Request::Shutdown if inner.config.allow_remote_shutdown => {
            inner.request_shutdown();
            return (encode(&Response::ShutdownAck), true);
        }
        Request::Shutdown => {
            return now(Response::Error(WireError::Malformed(
                "remote shutdown not permitted".into(),
            )))
        }
        Request::Rebalance { cmd, dry_run } => return now(rebalance(inner, cmd, dry_run)),
        req @ (Request::RangeQuery { .. } | Request::PartialMatch { .. }) => {
            match req.to_rect(inner.engine.domain()) {
                Ok(Some(rect)) => Work::Query(rect),
                Ok(None) => unreachable!("query requests always map to a rect"),
                Err(e) => {
                    inner
                        .metrics
                        .malformed_total
                        .fetch_add(1, Ordering::Relaxed);
                    return now(Response::Error(e));
                }
            }
        }
        Request::Insert { id, key } => match checked_point(inner, &key) {
            Ok(p) => Work::Insert(Record::new(id, p)),
            Err(e) => return now(Response::Error(e)),
        },
        Request::Delete { id, key } => match checked_point(inner, &key) {
            Ok(p) => Work::Delete(id, p),
            Err(e) => return now(Response::Error(e)),
        },
    };
    (admit(inner, session, work), false)
}

/// Control path, like Shutdown: runs inline on the connection thread,
/// bypassing the admission gate, so a resize works precisely when the data
/// path is saturated. The engine serializes it against mutations
/// internally; queries keep flowing throughout.
fn rebalance(inner: &Inner, cmd: RebalanceCmd, dry_run: bool) -> Response {
    if !inner.config.allow_remote_rebalance {
        return Response::Error(WireError::Malformed(
            "remote rebalance not permitted".into(),
        ));
    }
    let op = match cmd {
        RebalanceCmd::AddWorkers(k) => RebalanceOp::AddWorkers(k as usize),
        RebalanceCmd::RemoveWorker(w) => RebalanceOp::RemoveWorker(w as usize),
    };
    match inner.engine.rebalance(op, dry_run) {
        Ok(rep) => {
            inner
                .metrics
                .rebalance_total
                .fetch_add(1, Ordering::Relaxed);
            Response::Rebalance(RebalanceSummary {
                applied: rep.applied,
                moves: rep.moves as u32,
                moved_bytes: rep.moved_bytes,
                full_moves: rep.full_moves as u32,
                active_workers: rep.active_workers as u32,
                predicted_objective: rep.predicted_objective,
                baseline_objective: rep.baseline_objective,
            })
        }
        Err(e) => Response::Error(WireError::MutationFailed(e.to_string())),
    }
}

/// Validates a mutation key against the file's dimensionality (decode
/// already guaranteed finite coordinates and `1..=MAX_DIM`), so hostile
/// wire data can never reach the engine's dimension assert.
fn checked_point(inner: &Inner, key: &[f64]) -> Result<Point, WireError> {
    let dim = inner.engine.domain().dim();
    if key.len() != dim {
        inner
            .metrics
            .malformed_total
            .fetch_add(1, Ordering::Relaxed);
        return Err(WireError::Malformed(format!(
            "key has {} dims, file has {dim}",
            key.len()
        )));
    }
    Ok(Point::new(key))
}

/// Runs validated work under an admission permit and returns its encoded
/// reply, or sheds it with `Overloaded` when the gate refuses — the same
/// back-pressure for queries and mutations. The permit is held until the
/// reply is encoded, pacing sleep included.
fn admit(inner: &Inner, session: &mut QuerySession<'_>, work: Work) -> Vec<u8> {
    let entered = Instant::now();
    let Some(_permit) = inner.gate.enter() else {
        inner.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
        return encode(&Response::Error(WireError::Overloaded {
            retry_after_ms: inner.config.retry_after_ms,
        }));
    };
    let reply = encode(&execute(inner, session, work));
    let sojourn = entered.elapsed().as_micros().min(u64::MAX as u128) as u64;
    inner.metrics.sojourn_us.record(sojourn);
    reply
}

fn execute(inner: &Inner, session: &mut QuerySession<'_>, work: Work) -> Response {
    match work {
        Work::Query(rect) => {
            let outcome = session.query(&rect);
            let pace_us = inner.config.pace_us_per_block * outcome.response_blocks.max(1);
            if pace_us > 0 {
                thread::sleep(Duration::from_micros(pace_us));
            }
            if outcome.incomplete {
                return Response::Error(WireError::Incomplete(format!(
                    "{} of {} engine workers alive",
                    inner.engine.live_workers(),
                    inner.engine.n_workers(),
                )));
            }
            inner.metrics.served_total.fetch_add(1, Ordering::Relaxed);
            // Distance from the frontier oracle's per-query bound: no
            // layout can serve total_blocks on M live workers with fewer
            // than ceil(total/M) on the busiest one.
            let live = inner.engine.live_workers().max(1) as u64;
            let bound = outcome.total_blocks.div_ceil(live);
            inner
                .metrics
                .gap_blocks
                .record(outcome.response_blocks.saturating_sub(bound));
            Response::Records(RecordsReply {
                incomplete: outcome.incomplete,
                elapsed_us: outcome.elapsed_us,
                comm_us: outcome.comm_us,
                response_blocks: outcome.response_blocks,
                total_blocks: outcome.total_blocks,
                cache_hits: outcome.cache_hits,
                records: outcome.records,
            })
        }
        Work::Insert(rec) => match gate_mutation(inner, || MetaOp::Insert {
            id: rec.id,
            key: rec.point.coords().to_vec(),
        }) {
            Err(e) => Response::Error(e),
            Ok(()) => mutation_response(inner, inner.engine.insert(rec)),
        },
        Work::Delete(id, p) => match gate_mutation(inner, || MetaOp::Delete {
            id,
            key: p.coords().to_vec(),
        }) {
            Err(e) => Response::Error(e),
            Ok(()) => mutation_response(inner, inner.engine.delete(id, &p)),
        },
    }
}

/// Runs the cluster mutation gate, if installed. A gated mutation that
/// later fails in the engine leaves the replicated log ahead of the
/// engine — in cluster mode `MutationFailed` therefore means
/// *indeterminate*, not "nothing changed" (documented on
/// [`WireError::MutationFailed`]).
fn gate_mutation(inner: &Inner, op: impl FnOnce() -> MetaOp) -> Result<(), WireError> {
    match &inner.config.cluster {
        Some(hooks) => (hooks.mutation_gate)(&op()),
        None => Ok(()),
    }
}

/// Folds the engine's mutation result into a wire response. The
/// write-ahead discipline means an `Err` guarantees nothing changed.
fn mutation_response(
    inner: &Inner,
    result: Result<pargrid_parallel::MutationOutcome, pargrid_parallel::EngineError>,
) -> Response {
    match result {
        Ok(out) => {
            inner
                .metrics
                .mutations_total
                .fetch_add(1, Ordering::Relaxed);
            Response::Mutation(MutationAck {
                applied: out.applied,
                rewritten: out.rewritten_buckets.len() as u32,
                created: out.created_buckets.len() as u32,
                freed: out.freed_buckets.len() as u32,
            })
        }
        Err(e) => Response::Error(WireError::MutationFailed(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins until another thread has parked on the gate: the interleaving
    /// is forced by the gate's own count, not by a sleep.
    fn until_waiting(gate: &Gate, n: usize) {
        while gate.depth() != n {
            thread::yield_now();
        }
    }

    #[test]
    fn gate_admits_one_parks_one_and_sheds_the_next() {
        let gate = Gate::new(1, 1);
        thread::scope(|s| {
            let first = gate.enter().expect("a free permit admits at once");
            let second = s.spawn(|| gate.enter().is_some());
            until_waiting(&gate, 1);
            assert!(gate.enter().is_none(), "a full waiting room sheds");
            drop(first);
            assert!(
                second.join().expect("waiter thread"),
                "dropping the permit admits the waiter"
            );
        });
        assert_eq!(gate.depth(), 0);
        assert_eq!(gate.hwm(), 1);
        assert!(gate.enter().is_some(), "every permit came back");
    }

    #[test]
    fn closed_gate_refuses_newcomers_but_admits_its_waiters() {
        let gate = Gate::new(1, 1);
        thread::scope(|s| {
            let first = gate.enter().expect("an open gate admits");
            let waiter = s.spawn(|| gate.enter().is_some());
            until_waiting(&gate, 1);
            gate.close();
            assert!(gate.enter().is_none(), "a closed gate refuses newcomers");
            drop(first);
            assert!(
                waiter.join().expect("waiter thread"),
                "a caller already waiting when the gate closed still enters"
            );
        });
        assert!(gate.enter().is_none(), "a closed gate stays closed");
    }
}
