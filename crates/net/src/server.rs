//! Multi-threaded TCP server in front of a [`ParallelGridFile`].
//!
//! Thread topology (all `std::thread`, blocking I/O):
//!
//! ```text
//!   accept thread ──────────── spawns per connection ──┐
//!   reader (1/conn) ── decode ─┐                       │
//!                              ▼                       ▼
//!                   bounded admission queue      writer (1/conn)
//!                              │                       ▲
//!   dispatcher pool (N) ── QuerySession ── encode ─────┘
//! ```
//!
//! Admission control: readers `try_push` onto a bounded queue. A full
//! queue means the dispatcher pool is saturated — the reader immediately
//! answers `Overloaded { retry_after_ms }` and drops the request (load is
//! *shed*, never buffered unboundedly, so sojourn times stay bounded and
//! the server survives any offered load). Ping/Stats/Shutdown bypass the
//! queue: control traffic must work precisely when the data path is
//! saturated.
//!
//! Graceful shutdown (poison pill + socket drain): the shutdown flag stops
//! the accept loop; the queue is closed so dispatchers drain every already
//! admitted job and exit; the engine joins its workers
//! ([`ParallelGridFile::shutdown`]); then each connection's read half is
//! shut down so readers unblock and writers flush any queued replies
//! before the sockets drop.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pargrid_geom::{Point, Rect};
use pargrid_gridfile::Record;
use pargrid_obs::{names, AtomicHistogram, PromWriter};
use pargrid_parallel::{ParallelGridFile, RebalanceOp};

use crate::cluster_proto::MetaOp;
use crate::frame::{read_frame, FrameError};
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
    /// Admission-queue capacity; requests beyond it are shed.
    pub queue_capacity: usize,
    /// Dispatcher threads, each owning a private `QuerySession`.
    pub dispatchers: usize,
    /// Retry hint sent with `Overloaded` replies, milliseconds.
    pub retry_after_ms: u32,
    /// Wall-clock service pacing: after answering a query the dispatcher
    /// sleeps `pace_us_per_block ×` the query's `response_blocks`
    /// microseconds. Zero disables pacing. `response_blocks` — blocks on
    /// the busiest disk — is the paper's response-time metric and is
    /// independent of cache state, so pacing on it ties real serving
    /// capacity directly to declustering quality: a method that halves
    /// response blocks doubles the server's wall-clock throughput in the
    /// `repro serving` experiment.
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

/// What a dispatcher does with an admitted job. Mutations ride the same
/// admission queue as queries, so overload sheds them with the same
/// `Overloaded` back-pressure instead of buffering writes unboundedly.
enum Work {
    /// An already-validated query rectangle.
    Query(Rect),
    /// Insert this record.
    Insert(Record),
    /// Delete the record with this id at this key.
    Delete(u64, Point),
}

/// One admitted request: already validated, stamped with its arrival
/// time, carrying the channel back to its connection's writer.
struct Job {
    work: Work,
    enqueued: Instant,
    reply: mpsc::Sender<Vec<u8>>,
}

#[derive(Default)]
struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
    hwm: usize,
}

/// Hand-rolled bounded MPMC queue (`Mutex` + `Condvar`); `compat`
/// crossbeam has no bounded channel and admission control needs an exact
/// capacity check.
struct AdmissionQueue {
    inner: Mutex<QueueInner>,
    nonempty: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    fn new(capacity: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(QueueInner::default()),
            nonempty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Non-blocking admit; `Err` hands the job back (full or closed) so
    /// the reader sheds it.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut q = self.inner.lock().expect("admission queue");
        if q.closed || q.jobs.len() >= self.capacity {
            return Err(job);
        }
        q.jobs.push_back(job);
        q.hwm = q.hwm.max(q.jobs.len());
        drop(q);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed *and* drained, so every
    /// admitted request is answered before dispatchers exit.
    fn pop(&self) -> Option<Job> {
        let mut q = self.inner.lock().expect("admission queue");
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.closed {
                return None;
            }
            q = self.nonempty.wait(q).expect("admission queue");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("admission queue").closed = true;
        self.nonempty.notify_all();
    }

    fn depth(&self) -> usize {
        self.inner.lock().expect("admission queue").jobs.len()
    }

    fn hwm(&self) -> usize {
        self.inner.lock().expect("admission queue").hwm
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
    queue: AdmissionQueue,
    metrics: NetMetrics,
    config: ServerConfig,
    local_addr: SocketAddr,
    shutdown_requested: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
    io_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn request_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::SeqCst);
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
            "Admission-queue depth now.",
            self.queue.depth() as f64,
        );
        pw.gauge(
            names::NET_QUEUE_HWM,
            "Admission-queue high-water mark.",
            self.queue.hwm() as f64,
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
            "Enqueue-to-reply sojourn time (wall microseconds).",
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

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaks the background threads until process exit; the CLI and tests
/// always shut down explicitly.
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
}

/// `TcpStream` wrapper that counts bytes as the reader pulls frames.
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
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the
    /// dispatcher pool and accept thread, and returns immediately.
    pub fn start(
        engine: Arc<ParallelGridFile>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            queue: AdmissionQueue::new(config.queue_capacity),
            metrics: NetMetrics::default(),
            local_addr,
            shutdown_requested: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            io_handles: Mutex::new(Vec::new()),
            engine,
            config,
        });

        let mut dispatchers = Vec::new();
        for d in 0..inner.config.dispatchers.max(1) {
            let inner = Arc::clone(&inner);
            dispatchers.push(
                thread::Builder::new()
                    .name(format!("pargrid-dispatch-{d}"))
                    .spawn(move || dispatcher_loop(&inner))
                    .expect("spawn dispatcher"),
            );
        }

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
            dispatchers,
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
    /// close the admission queue, join dispatchers (every admitted job is
    /// answered), join the engine's workers, unblock readers, flush
    /// writers. Returns the final metrics document.
    pub fn join(mut self) -> String {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.inner.queue.close();
        for h in self.dispatchers.drain(..) {
            let _ = h.join();
        }
        self.inner.engine.shutdown();
        // Shut the *read* half of every connection: blocked readers see
        // EOF and exit, dropping their reply senders, which lets writers
        // drain queued replies (the write half is still open) and exit.
        for conn in self.inner.conns.lock().expect("conn list").drain(..) {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let handles: Vec<_> = {
            let mut g = self.inner.io_handles.lock().expect("io handles");
            g.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        self.inner.metrics_prom()
    }

    /// [`Server::request_shutdown`] + [`Server::join`].
    pub fn shutdown(self) -> String {
        self.inner.request_shutdown();
        self.join()
    }
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    while !inner.shutdown_requested.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                spawn_connection(stream, inner);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn spawn_connection(stream: TcpStream, inner: &Arc<Inner>) {
    inner
        .metrics
        .connections_total
        .fetch_add(1, Ordering::Relaxed);
    inner
        .metrics
        .connections_active
        .fetch_add(1, Ordering::Relaxed);

    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            inner
                .metrics
                .connections_active
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
    };
    if let Ok(track) = stream.try_clone() {
        inner.conns.lock().expect("conn list").push(track);
    }

    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();

    let writer = {
        let inner = Arc::clone(inner);
        thread::Builder::new()
            .name("pargrid-conn-writer".into())
            .spawn(move || writer_loop(write_stream, &reply_rx, &inner))
            .expect("spawn writer")
    };
    let reader = {
        let inner = Arc::clone(inner);
        thread::Builder::new()
            .name("pargrid-conn-reader".into())
            .spawn(move || {
                reader_loop(&stream, &reply_tx, &inner);
                drop(reply_tx); // writer drains then exits
                inner
                    .metrics
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            })
            .expect("spawn reader")
    };

    let mut g = inner.io_handles.lock().expect("io handles");
    g.push(reader);
    g.push(writer);
}

/// How many queued frames one vectored write may coalesce. Sixteen covers
/// any realistic reply burst while keeping the `IoSlice` array on the stack.
const WRITE_BATCH: usize = 16;

/// Writes every byte of `frames` with as few syscalls as the kernel allows:
/// one `writev` over the whole batch, advancing manually across partial
/// writes (a short write mid-batch must not re-send or drop bytes).
fn write_batch(stream: &mut TcpStream, frames: &[Vec<u8>]) -> io::Result<()> {
    // (frame index, offset into that frame) of the first unwritten byte.
    let (mut fi, mut off) = (0usize, 0usize);
    while fi < frames.len() {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(frames.len() - fi);
        slices.push(IoSlice::new(&frames[fi][off..]));
        for f in &frames[fi + 1..] {
            slices.push(IoSlice::new(f));
        }
        let mut n = match stream.write_vectored(&slices) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while n > 0 {
            let rest = frames[fi].len() - off;
            if n < rest {
                off += n;
                n = 0;
            } else {
                n -= rest;
                fi += 1;
                off = 0;
            }
        }
    }
    stream.flush()
}

fn writer_loop(mut stream: TcpStream, rx: &mpsc::Receiver<Vec<u8>>, inner: &Arc<Inner>) {
    let mut batch: Vec<Vec<u8>> = Vec::with_capacity(WRITE_BATCH);
    while let Ok(bytes) = rx.recv() {
        // Coalesce every reply already queued behind this one into a single
        // vectored write — under load the writer makes one syscall per
        // burst instead of one write + flush per frame.
        batch.clear();
        batch.push(bytes);
        while batch.len() < WRITE_BATCH {
            match rx.try_recv() {
                Ok(more) => batch.push(more),
                Err(_) => break,
            }
        }
        if write_batch(&mut stream, &batch).is_err() {
            break;
        }
        let out: u64 = batch.iter().map(|b| b.len() as u64).sum();
        inner.metrics.bytes_out.fetch_add(out, Ordering::Relaxed);
    }
    let _ = stream.shutdown(Shutdown::Write);
}

/// Sends a response down the connection's writer channel, encoded straight
/// into its single wire buffer ([`Response::encode_frame`]). A response
/// too large to frame (over `MAX_PAYLOAD`) degrades to a typed error
/// reply instead of silently truncating its length header.
fn send_response(reply: &mpsc::Sender<Vec<u8>>, resp: &Response) {
    let bytes = match resp.encode_frame() {
        Ok(b) => b,
        Err(e) => Response::Error(WireError::Incomplete(format!("response unsendable: {e}")))
            .encode_frame()
            .expect("error reply is tiny"),
    };
    let _ = reply.send(bytes);
}

fn reader_loop(stream: &TcpStream, reply: &mpsc::Sender<Vec<u8>>, inner: &Arc<Inner>) {
    let mut counting = CountingReader {
        stream,
        bytes: &inner.metrics.bytes_in,
    };
    loop {
        let frame = match read_frame(&mut counting) {
            Ok(f) => f,
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => return,
            Err(e) => {
                // Framing is broken; one typed reply, then hang up — we
                // can no longer find frame boundaries on this stream.
                inner
                    .metrics
                    .malformed_total
                    .fetch_add(1, Ordering::Relaxed);
                send_response(reply, &Response::Error(WireError::Malformed(e.to_string())));
                return;
            }
        };
        let request = match Request::decode(frame.msg_type, &frame.payload) {
            Ok(r) => r,
            Err(e) => {
                // Frame boundaries are intact, only this payload is bad —
                // reply and keep the connection.
                inner
                    .metrics
                    .malformed_total
                    .fetch_add(1, Ordering::Relaxed);
                send_response(reply, &Response::Error(WireError::Malformed(e.to_string())));
                continue;
            }
        };
        inner.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::Ping { token } => send_response(reply, &Response::Pong { token }),
            Request::Stats => {
                send_response(reply, &Response::StatsText(inner.metrics_prom()));
            }
            Request::Shutdown => {
                if inner.config.allow_remote_shutdown {
                    send_response(reply, &Response::ShutdownAck);
                    inner.request_shutdown();
                    return;
                }
                send_response(
                    reply,
                    &Response::Error(WireError::Malformed("remote shutdown not permitted".into())),
                );
            }
            Request::Rebalance { cmd, dry_run } => {
                // Control path, like Shutdown: runs inline on the reader
                // thread, bypassing the admission queue, so a resize works
                // precisely when the data path is saturated. The engine
                // serializes it against mutations internally; queries keep
                // flowing throughout.
                if !inner.config.allow_remote_rebalance {
                    send_response(
                        reply,
                        &Response::Error(WireError::Malformed(
                            "remote rebalance not permitted".into(),
                        )),
                    );
                    continue;
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
                        send_response(
                            reply,
                            &Response::Rebalance(RebalanceSummary {
                                applied: rep.applied,
                                moves: rep.moves as u32,
                                moved_bytes: rep.moved_bytes,
                                full_moves: rep.full_moves as u32,
                                active_workers: rep.active_workers as u32,
                                predicted_objective: rep.predicted_objective,
                                baseline_objective: rep.baseline_objective,
                            }),
                        );
                    }
                    Err(e) => send_response(
                        reply,
                        &Response::Error(WireError::MutationFailed(e.to_string())),
                    ),
                }
            }
            req @ (Request::RangeQuery { .. } | Request::PartialMatch { .. }) => {
                let domain = inner.engine.domain();
                let rect = match req.to_rect(domain) {
                    Ok(Some(rect)) => rect,
                    Ok(None) => unreachable!("query requests always map to a rect"),
                    Err(e) => {
                        inner
                            .metrics
                            .malformed_total
                            .fetch_add(1, Ordering::Relaxed);
                        send_response(reply, &Response::Error(e));
                        continue;
                    }
                };
                admit(inner, reply, Work::Query(rect));
            }
            Request::Insert { id, key } => match checked_point(inner, &key) {
                Ok(p) => admit(inner, reply, Work::Insert(Record::new(id, p))),
                Err(e) => send_response(reply, &Response::Error(e)),
            },
            Request::Delete { id, key } => match checked_point(inner, &key) {
                Ok(p) => admit(inner, reply, Work::Delete(id, p)),
                Err(e) => send_response(reply, &Response::Error(e)),
            },
        }
    }
}

/// Validates a mutation key against the file's dimensionality (decode
/// already guaranteed finite coordinates and `1..=MAX_DIM`), so hostile
/// wire data can never reach the engine's dimension assert.
fn checked_point(inner: &Arc<Inner>, key: &[f64]) -> Result<Point, WireError> {
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

/// Pushes validated work through admission control, shedding with
/// `Overloaded` when the queue is full — the same back-pressure for
/// queries and mutations.
fn admit(inner: &Arc<Inner>, reply: &mpsc::Sender<Vec<u8>>, work: Work) {
    let job = Job {
        work,
        enqueued: Instant::now(),
        reply: reply.clone(),
    };
    if inner.queue.try_push(job).is_err() {
        inner.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
        send_response(
            reply,
            &Response::Error(WireError::Overloaded {
                retry_after_ms: inner.config.retry_after_ms,
            }),
        );
    }
}

fn dispatcher_loop(inner: &Arc<Inner>) {
    let mut session = inner.engine.session();
    while let Some(job) = inner.queue.pop() {
        let resp = match job.work {
            Work::Query(rect) => {
                let outcome = session.query(&rect);
                let pace_us = inner.config.pace_us_per_block * outcome.response_blocks.max(1);
                if pace_us > 0 {
                    thread::sleep(Duration::from_micros(pace_us));
                }
                if outcome.incomplete {
                    Response::Error(WireError::Incomplete(format!(
                        "{} of {} engine workers alive",
                        inner.engine.live_workers(),
                        inner.engine.n_workers(),
                    )))
                } else {
                    inner.metrics.served_total.fetch_add(1, Ordering::Relaxed);
                    // Distance from the frontier oracle's per-query bound:
                    // no layout can serve total_blocks on M live workers
                    // with fewer than ceil(total/M) on the busiest one.
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
        };
        let sojourn = job.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64;
        inner.metrics.sojourn_us.record(sojourn);
        send_response(&job.reply, &resp);
    }
    let _ = session.close();
}

/// Runs the cluster mutation gate, if installed. A gated mutation that
/// later fails in the engine leaves the replicated log ahead of the
/// engine — in cluster mode `MutationFailed` therefore means
/// *indeterminate*, not "nothing changed" (documented on
/// [`WireError::MutationFailed`]).
fn gate_mutation(inner: &Arc<Inner>, op: impl FnOnce() -> MetaOp) -> Result<(), WireError> {
    match &inner.config.cluster {
        Some(hooks) => (hooks.mutation_gate)(&op()),
        None => Ok(()),
    }
}

/// Folds the engine's mutation result into a wire response. The
/// write-ahead discipline means an `Err` guarantees nothing changed.
fn mutation_response(
    inner: &Arc<Inner>,
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
