//! [`RemoteBackend`]: a [`WorkerBackend`] whose workers live in other
//! processes.
//!
//! For each engine slot the backend spawns a **proxy thread** instead of
//! a worker thread. The proxy keeps the slot's [`WorkerState`] as a local
//! mirror (it is already populated by the engine build), joins its worker
//! process at the leader's epoch, uploads the mirror's pages, and then
//! forwards the engine's `ToWorker` traffic over TCP:
//!
//! * `Process` → one `Dispatch` round-trip per request, converting the
//!   `WireReply` back into the `FromWorker` the session is waiting on;
//! * `FetchRaw`/`WriteRaw` → `FetchBlocks`/`WriteBlocks` (raw writes are
//!   also applied to the local mirror so a reconnect re-uploads current
//!   bytes);
//! * idle → heartbeats and lease renewals on a timer.
//!
//! The engine's PR 4 machinery is reused verbatim: dispatch seqs are the
//! engine's, a lost connection is handled by reconnect + retransmit of
//! the *same* seq (the worker's reply cache answers duplicates), and a
//! worker that stays unreachable past the retry budget is marked `dead`
//! exactly like an in-process fail-stop fault — replica failover, strike
//! detection, and hedged reads all engage unchanged. A `Fenced` answer
//! means this whole engine belongs to a deposed leader: the proxy marks
//! its worker dead immediately and stops talking.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use pargrid_net::cluster_proto::{ClusterRequest, ClusterResponse};
use pargrid_net::frame::{read_frame, write_frame};
use pargrid_parallel::message::{FromWorker, QueryPriority, RawBlocks, ReadRequest, ToWorker};
use pargrid_parallel::stats::WorkerCounters;
use pargrid_parallel::worker::{WorkerState, DEFAULT_SEEN_SEQ_WINDOW};
use pargrid_parallel::WorkerBackend;

/// Reconnect attempts before a worker is declared dead (each with
/// jittered exponential backoff; ~2 s worst case at the 30 ms base).
const RECONNECT_ATTEMPTS: u32 = 6;
/// Base reconnect backoff.
const RECONNECT_BASE_MS: u64 = 30;
/// Blocks per `WriteBlocks` upload frame (keeps frames far below the
/// 16 MiB payload cap at the repo's 4–8 KB pages).
const UPLOAD_CHUNK: usize = 512;

/// A [`WorkerBackend`] that proxies each engine slot to a worker process.
#[derive(Debug)]
pub struct RemoteBackend {
    /// Worker process addresses; slot `w` connects to `addrs[w % len]`,
    /// so fewer processes than engine slots is fine (each process hosts
    /// several slots, one connection per slot).
    addrs: Vec<String>,
    /// The issuing leader's fencing epoch (its election term).
    epoch: u64,
    /// Heartbeat/lease-renewal cadence.
    heartbeat_ms: u64,
    /// Lease TTL granted by workers.
    lease_ttl_ms: u32,
    /// Per-request read timeout (also bounds partition detection).
    read_timeout_ms: u64,
    /// Committed metadata-log index, piggybacked on heartbeats (the
    /// coordinator stores; standalone engines leave it at 0).
    commit: Arc<AtomicU64>,
    /// Lease epoch granted most recently by any worker (metrics).
    lease_epoch: Arc<AtomicU64>,
    /// Per-slot liveness flags, in spawn order (metrics).
    alive: Mutex<Vec<(u32, Arc<AtomicBool>)>>,
}

impl RemoteBackend {
    /// Creates a backend dispatching to `addrs` with fencing epoch
    /// `epoch`.
    pub fn new(addrs: Vec<String>, epoch: u64) -> RemoteBackend {
        RemoteBackend {
            addrs,
            epoch,
            heartbeat_ms: 100,
            lease_ttl_ms: 600,
            read_timeout_ms: 1000,
            commit: Arc::new(AtomicU64::new(0)),
            lease_epoch: Arc::new(AtomicU64::new(0)),
            alive: Mutex::new(Vec::new()),
        }
    }

    /// Shares the commit-index cell heartbeats advertise to workers.
    pub fn with_commit_cell(mut self, commit: Arc<AtomicU64>) -> Self {
        self.commit = commit;
        self
    }

    /// Overrides the heartbeat cadence and lease TTL.
    pub fn with_heartbeat(mut self, heartbeat_ms: u64, lease_ttl_ms: u32) -> Self {
        self.heartbeat_ms = heartbeat_ms;
        self.lease_ttl_ms = lease_ttl_ms;
        self
    }

    /// Overrides the per-round-trip read timeout.
    pub fn with_read_timeout_ms(mut self, ms: u64) -> Self {
        self.read_timeout_ms = ms;
        self
    }

    /// The fencing epoch this backend dispatches at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Latest lease epoch granted by a worker (0 before the first grant).
    pub fn lease_epoch(&self) -> u64 {
        self.lease_epoch.load(Ordering::Relaxed)
    }

    /// Per-slot liveness, `(label, 0|1)` pairs for the
    /// `pargrid_net_worker_alive` gauge.
    pub fn alive_gauges(&self) -> Vec<(String, f64)> {
        self.alive
            .lock()
            .unwrap()
            .iter()
            .map(|(slot, flag)| {
                (
                    slot.to_string(),
                    if flag.load(Ordering::Relaxed) {
                        1.0
                    } else {
                        0.0
                    },
                )
            })
            .collect()
    }
}

impl WorkerBackend for RemoteBackend {
    fn spawn_worker(
        &self,
        slot: usize,
        state: WorkerState,
        inbox: Receiver<ToWorker>,
        counters: Option<Arc<WorkerCounters>>,
    ) -> JoinHandle<()> {
        let alive = Arc::new(AtomicBool::new(true));
        self.alive
            .lock()
            .unwrap()
            .push((slot as u32, Arc::clone(&alive)));
        let proxy = Proxy {
            slot: slot as u32,
            addr: self.addrs[slot % self.addrs.len()].clone(),
            epoch: self.epoch,
            heartbeat_ms: self.heartbeat_ms,
            lease_ttl_ms: self.lease_ttl_ms,
            read_timeout_ms: self.read_timeout_ms,
            commit: Arc::clone(&self.commit),
            lease_epoch: Arc::clone(&self.lease_epoch),
            alive,
            counters,
            state,
        };
        thread::Builder::new()
            .name(format!("pargrid-proxy-{slot}"))
            .spawn(move || proxy.run(inbox))
            .expect("spawn remote-worker proxy thread")
    }
}

/// One slot's proxy: local mirror + connection state.
struct Proxy {
    slot: u32,
    addr: String,
    epoch: u64,
    heartbeat_ms: u64,
    lease_ttl_ms: u32,
    read_timeout_ms: u64,
    commit: Arc<AtomicU64>,
    lease_epoch: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
    counters: Option<Arc<WorkerCounters>>,
    state: WorkerState,
}

/// A framed connection to a worker process.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

enum RoundTripError {
    /// Connection-level failure: reconnect and retransmit.
    Io,
    /// The worker fenced us — this engine's leader was deposed.
    Fenced,
}

impl Conn {
    fn round_trip(&mut self, req: &ClusterRequest) -> Result<ClusterResponse, RoundTripError> {
        let (t, p) = req.encode();
        write_frame(&mut self.writer, t, &p).map_err(|_| RoundTripError::Io)?;
        self.writer.flush().map_err(|_| RoundTripError::Io)?;
        let frame = read_frame(&mut self.reader).map_err(|_| RoundTripError::Io)?;
        match ClusterResponse::decode(frame.msg_type, &frame.payload) {
            Ok(ClusterResponse::Fenced { .. }) => Err(RoundTripError::Fenced),
            Ok(resp) => Ok(resp),
            Err(_) => Err(RoundTripError::Io),
        }
    }
}

impl Proxy {
    fn run(mut self, inbox: Receiver<ToWorker>) {
        let mut conn = match self.establish_with_retry() {
            Ok(c) => c,
            Err(()) => return self.mark_dead(),
        };
        // Block on the inbox until the next heartbeat is due: a dispatch
        // wakes the proxy at once (no poll interval to wait out), an idle
        // slot costs one wake-up per heartbeat instead of thousands a
        // second, and a disconnected inbox — the engine dropped its sender
        // — ends the proxy instead of leaving it heartbeating forever.
        let beat = Duration::from_millis(self.heartbeat_ms);
        let mut next_beat = Instant::now() + beat;
        loop {
            let idle = next_beat.saturating_duration_since(Instant::now());
            match inbox.recv_timeout(idle) {
                Ok(ToWorker::Process(reqs)) => {
                    for req in reqs {
                        match self.dispatch(&mut conn, &req) {
                            Ok(()) => {}
                            Err(()) => return self.mark_dead(),
                        }
                    }
                }
                Ok(ToWorker::FetchRaw { blocks, reply }) => {
                    if self.fetch_raw(&mut conn, blocks, &reply).is_err() {
                        return self.mark_dead();
                    }
                }
                Ok(ToWorker::WriteRaw { blocks }) => {
                    // Mirror first: a reconnect must re-upload the
                    // repaired bytes, not the stale ones.
                    self.state.write_raw_blocks(blocks.clone());
                    let req = ClusterRequest::WriteBlocks {
                        epoch: self.epoch,
                        blocks,
                    };
                    if self.retry_round_trip(&mut conn, &req).is_err() {
                        return self.mark_dead();
                    }
                }
                Ok(ToWorker::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {
                    next_beat = Instant::now() + beat;
                    if self.heartbeat(&mut conn).is_err() {
                        return self.mark_dead();
                    }
                }
            }
        }
    }

    fn mark_dead(&self) {
        self.alive.store(false, Ordering::Relaxed);
        if let Some(c) = &self.counters {
            c.dead.store(true, Ordering::Relaxed);
        }
    }

    /// Connects, joins at our epoch, and uploads the mirror if the worker
    /// doesn't already hold it (same-epoch reconnects skip the upload).
    fn establish(&self) -> Result<Conn, RoundTripError> {
        // Bound the connect as well as the read: a blackholed worker
        // (partition, no RST) must cost one read-timeout, not the OS
        // connect default, or dead-worker detection blows its budget.
        use std::net::ToSocketAddrs;
        let timeout = Duration::from_millis(self.read_timeout_ms);
        let sock_addr = self
            .addr
            .to_socket_addrs()
            .map_err(|_| RoundTripError::Io)?
            .next()
            .ok_or(RoundTripError::Io)?;
        let stream =
            TcpStream::connect_timeout(&sock_addr, timeout).map_err(|_| RoundTripError::Io)?;
        stream.set_nodelay(true).map_err(|_| RoundTripError::Io)?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|_| RoundTripError::Io)?;
        let reader = BufReader::new(stream.try_clone().map_err(|_| RoundTripError::Io)?);
        let mut conn = Conn {
            reader,
            writer: BufWriter::new(stream),
        };
        let join = ClusterRequest::WorkerJoin {
            slot: self.slot,
            epoch: self.epoch,
            payload_bytes: self.state.payload_bytes as u32,
            seen_seq_window: DEFAULT_SEEN_SEQ_WINDOW as u32,
        };
        let held = match conn.round_trip(&join)? {
            ClusterResponse::Welcome { blocks_held, .. } => blocks_held as usize,
            _ => return Err(RoundTripError::Io),
        };
        let ids = self.state.store.block_ids();
        if held != ids.len() {
            for chunk in ids.chunks(UPLOAD_CHUNK) {
                let blocks: Vec<(u32, Vec<u8>)> = chunk
                    .iter()
                    .filter_map(|&b| self.state.store.get(b).ok().map(|bytes| (b, bytes)))
                    .collect();
                let req = ClusterRequest::WriteBlocks {
                    epoch: self.epoch,
                    blocks,
                };
                match conn.round_trip(&req)? {
                    ClusterResponse::BlocksAck { .. } => {}
                    _ => return Err(RoundTripError::Io),
                }
            }
        }
        Ok(conn)
    }

    /// Jittered-backoff reconnect loop; `Err` means the retry budget is
    /// exhausted (or we were fenced) and the worker is dead to us.
    fn establish_with_retry(&self) -> Result<Conn, ()> {
        let mut rng = self.epoch ^ (u64::from(self.slot) << 32) | 1;
        for i in 0..RECONNECT_ATTEMPTS {
            match self.establish() {
                Ok(c) => return Ok(c),
                Err(RoundTripError::Fenced) => return Err(()),
                Err(RoundTripError::Io) => {}
            }
            let base = RECONNECT_BASE_MS * (1 << i.min(5));
            let jitter = 512 + (xorshift(&mut rng) % 1025);
            thread::sleep(Duration::from_millis(base * jitter / 1024));
        }
        Err(())
    }

    /// One dispatch, surviving connection loss by reconnect + retransmit
    /// of the same seq (the worker's reply cache dedups re-execution).
    fn dispatch(&mut self, conn: &mut Conn, req: &ReadRequest) -> Result<(), ()> {
        let wire = ClusterRequest::Dispatch {
            epoch: self.epoch,
            query_id: req.query_id,
            seq: req.seq,
            priority: match req.priority {
                QueryPriority::Interactive => 0,
                QueryPriority::Batch => 1,
            },
            rect: req.query,
            blocks: req.blocks.clone(),
        };
        match self.retry_round_trip(conn, &wire)? {
            ClusterResponse::WorkerReply(w) => {
                if let Some(c) = &self.counters {
                    c.blocks_fetched
                        .fetch_add(w.blocks_requested, Ordering::Relaxed);
                    c.cache_hits.fetch_add(w.cache_hits, Ordering::Relaxed);
                    c.disk_busy_us.fetch_add(w.disk_us, Ordering::Relaxed);
                    if w.error.is_some() {
                        c.error_replies.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let _ = req.reply.send(FromWorker {
                    query_id: w.query_id,
                    seq: w.seq,
                    worker_id: self.slot as usize,
                    blocks_requested: w.blocks_requested,
                    cache_hits: w.cache_hits,
                    disk_us: w.disk_us,
                    cpu_us: w.cpu_us,
                    records: w.records,
                    corrupt_blocks: w.corrupt_blocks,
                    error: w.error,
                });
                Ok(())
            }
            _ => {
                // Typed refusal (e.g. ancient retransmit): answer with an
                // error reply so the engine retries against a replica.
                let _ = req.reply.send(FromWorker {
                    query_id: req.query_id,
                    seq: req.seq,
                    worker_id: self.slot as usize,
                    blocks_requested: req.blocks.len() as u64,
                    cache_hits: 0,
                    disk_us: 0,
                    cpu_us: 0,
                    records: Vec::new(),
                    corrupt_blocks: Vec::new(),
                    error: Some("worker refused dispatch".into()),
                });
                Ok(())
            }
        }
    }

    fn fetch_raw(
        &mut self,
        conn: &mut Conn,
        blocks: Vec<u32>,
        reply: &Sender<RawBlocks>,
    ) -> Result<(), ()> {
        let req = ClusterRequest::FetchBlocks {
            epoch: self.epoch,
            blocks,
        };
        match self.retry_round_trip(conn, &req)? {
            ClusterResponse::RawBlocks { blocks, .. } => {
                let _ = reply.send(RawBlocks {
                    worker_id: self.slot as usize,
                    blocks,
                });
                Ok(())
            }
            _ => Ok(()),
        }
    }

    fn heartbeat(&mut self, conn: &mut Conn) -> Result<(), ()> {
        let beat = ClusterRequest::Heartbeat {
            term: self.epoch,
            epoch: self.epoch,
            commit: self.commit.load(Ordering::Relaxed),
        };
        self.retry_round_trip(conn, &beat)?;
        let lease = ClusterRequest::LeaseGrant {
            epoch: self.epoch,
            ttl_ms: self.lease_ttl_ms,
        };
        if let ClusterResponse::LeaseAck { granted: true, .. } =
            self.retry_round_trip(conn, &lease)?
        {
            self.lease_epoch.store(self.epoch, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Round-trips `req`, transparently reconnecting (and thereby
    /// retransmitting `req` under the same seq) on connection failure.
    /// `Err` means fenced or retry budget exhausted.
    fn retry_round_trip(
        &self,
        conn: &mut Conn,
        req: &ClusterRequest,
    ) -> Result<ClusterResponse, ()> {
        loop {
            match conn.round_trip(req) {
                Ok(resp) => return Ok(resp),
                Err(RoundTripError::Fenced) => return Err(()),
                Err(RoundTripError::Io) => {
                    *conn = self.establish_with_retry()?;
                }
            }
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WorkerConfig, WorkerServer};
    use pargrid_parallel::disk::DiskParams;

    /// A proxy whose engine vanished (every sender dropped, nothing
    /// queued, no `Shutdown` ever sent) must end, not heartbeat forever.
    #[test]
    fn proxy_exits_when_its_inbox_closes() {
        let mut worker =
            WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start");
        let backend = RemoteBackend::new(vec![worker.local_addr().to_string()], 1);
        let state = WorkerState::new(0, 0, DiskParams::default());
        let (tx, rx) = crossbeam::channel::unbounded::<ToWorker>();
        let proxy = backend.spawn_worker(0, state, rx, None);
        drop(tx);
        proxy.join().expect("proxy joins");
        worker.shutdown();
    }
}
