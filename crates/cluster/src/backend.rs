//! [`RemoteBackend`]: a [`WorkerBackend`] whose workers live in other
//! processes.
//!
//! The backend spawns one **proxy thread** per worker *process* instead
//! of one worker thread per slot: slot `w` is hosted by `addrs[w % len]`,
//! and every slot of a host shares the host's inbox, proxy and TCP
//! connection. The proxy keeps each slot's [`WorkerState`] as a local
//! mirror (already populated by the engine build), joins every slot at the
//! leader's epoch on its one connection, uploads the mirrors' pages, and
//! then forwards the engine's `ToWorker` traffic:
//!
//! * `Process` → once woken, the proxy drains everything queued and sends
//!   every pending read for the host as one `DispatchBatch` frame, then
//!   reads the per-item answers (one write on the worker's side) and turns
//!   each back into the `FromWorker` its session is waiting on — one round
//!   trip per host per wake-up, not one per slot;
//! * `FetchRaw`/`WriteRaw` → `FetchBlocks`/`WriteBlocks` for the named
//!   slot, after a same-epoch `WorkerJoin` when the connection is bound to
//!   another one (raw writes are also applied to the local mirror so a
//!   reconnect re-uploads current bytes);
//! * idle → one heartbeat and lease renewal per host on a timer.
//!
//! The engine's retransmit machinery is reused verbatim: dispatch seqs are
//! the engine's, a lost connection is handled by reconnect (re-joining every
//! slot, uploading only where the worker's block count differs) and a
//! retransmit of the *same* batch frame (the worker's reply cache answers
//! what already ran; answers already delivered are skipped), and a host
//! that stays unreachable past the retry budget has all its slots marked
//! `dead` exactly like an in-process fail-stop fault — the proxy drops its
//! inbox, sends to any of those slots bounce, and replica failover, strike
//! detection, and hedged reads all engage unchanged. A `Fenced` answer
//! means this whole engine belongs to a deposed leader: the proxy marks
//! all of the host's slots dead immediately and stops talking.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pargrid_net::cluster_proto::{
    BatchItem, ClusterRequest, ClusterResponse, PRIORITY_INTERACTIVE,
};
use pargrid_net::frame::{read_frame, write_frame};
use pargrid_parallel::message::{FromWorker, RawBlocks, ReadRequest, ToWorker};
use pargrid_parallel::stats::WorkerCounters;
use pargrid_parallel::worker::{WorkerState, DEFAULT_SEEN_SEQ_WINDOW};
use pargrid_parallel::{SlotHandle, WorkerBackend};

/// Reconnect attempts before a host is declared dead (each with
/// jittered exponential backoff; ~2 s worst case at the 30 ms base).
const RECONNECT_ATTEMPTS: u32 = 6;
/// Base reconnect backoff.
const RECONNECT_BASE_MS: u64 = 30;
/// Blocks per `WriteBlocks` upload frame (keeps frames far below the
/// 16 MiB payload cap at the repo's 4–8 KB pages).
const UPLOAD_CHUNK: usize = 512;

/// A [`WorkerBackend`] that proxies the engine's slots to worker
/// processes, one proxy thread and one connection per process.
#[derive(Debug)]
pub struct RemoteBackend {
    /// Worker process addresses; slot `w` is hosted by `addrs[w % len]`,
    /// so fewer processes than engine slots is fine (each process hosts
    /// several slots over one connection).
    addrs: Vec<String>,
    /// The issuing leader's fencing epoch (its election term).
    epoch: u64,
    /// Heartbeat/lease-renewal cadence.
    heartbeat_ms: u64,
    /// Lease TTL granted by workers.
    lease_ttl_ms: u32,
    /// Per-frame read timeout (also bounds partition detection).
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
    fn spawn(
        &self,
        slots: Vec<(WorkerState, Arc<WorkerCounters>)>,
    ) -> (Vec<SlotHandle>, Vec<JoinHandle<()>>) {
        let n_hosts = self.addrs.len();
        let n_slots = slots.len();
        let mut hosted: Vec<Vec<ProxySlot>> = (0..n_hosts).map(|_| Vec::new()).collect();
        let mut alive = self.alive.lock().unwrap();
        for (w, (state, counters)) in slots.into_iter().enumerate() {
            let flag = Arc::new(AtomicBool::new(true));
            alive.push((w as u32, Arc::clone(&flag)));
            hosted[w % n_hosts].push(ProxySlot {
                id: w,
                state,
                counters,
                alive: flag,
            });
        }
        let mut inboxes = Vec::with_capacity(n_hosts);
        let mut handles = Vec::with_capacity(n_hosts);
        for (h, slots) in hosted.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            inboxes.push(tx);
            if slots.is_empty() {
                continue;
            }
            let proxy = HostProxy {
                addr: self.addrs[h].clone(),
                epoch: self.epoch,
                heartbeat_ms: self.heartbeat_ms,
                lease_ttl_ms: self.lease_ttl_ms,
                read_timeout_ms: self.read_timeout_ms,
                commit: Arc::clone(&self.commit),
                lease_epoch: Arc::clone(&self.lease_epoch),
                slots,
            };
            handles.push(
                thread::Builder::new()
                    .name(format!("pargrid-proxy-{h}"))
                    .spawn(move || proxy.run(rx))
                    .expect("spawn remote-worker proxy thread"),
            );
        }
        let senders = (0..n_slots)
            .map(|w| SlotHandle::channel(inboxes[w % n_hosts].clone()))
            .collect();
        (senders, handles)
    }
}

/// One worker process's proxy: the local mirrors of the slots it hosts,
/// and the connection they share.
struct HostProxy {
    addr: String,
    epoch: u64,
    heartbeat_ms: u64,
    lease_ttl_ms: u32,
    read_timeout_ms: u64,
    commit: Arc<AtomicU64>,
    lease_epoch: Arc<AtomicU64>,
    slots: Vec<ProxySlot>,
}

/// One engine slot hosted by a proxy's worker process.
struct ProxySlot {
    id: usize,
    /// Local mirror: the upload source on every (re)connect.
    state: WorkerState,
    counters: Arc<WorkerCounters>,
    alive: Arc<AtomicBool>,
}

/// A framed connection to a worker process.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The slot joined last: the worker routes `WriteBlocks` and
    /// `FetchBlocks` to it.
    bound: usize,
}

enum RoundTripError {
    /// Connection-level failure: reconnect and retransmit.
    Io,
    /// The worker fenced us — this engine's leader was deposed.
    Fenced,
}

impl Conn {
    fn send(&mut self, msg_type: u8, payload: &[u8]) -> Result<(), RoundTripError> {
        write_frame(&mut self.writer, msg_type, payload).map_err(|_| RoundTripError::Io)?;
        self.writer.flush().map_err(|_| RoundTripError::Io)
    }

    fn recv(&mut self) -> Result<ClusterResponse, RoundTripError> {
        let frame = read_frame(&mut self.reader).map_err(|_| RoundTripError::Io)?;
        match ClusterResponse::decode(frame.msg_type, &frame.payload) {
            Ok(ClusterResponse::Fenced { .. }) => Err(RoundTripError::Fenced),
            Ok(resp) => Ok(resp),
            Err(_) => Err(RoundTripError::Io),
        }
    }

    fn round_trip(&mut self, req: &ClusterRequest) -> Result<ClusterResponse, RoundTripError> {
        let (t, p) = req.encode();
        self.send(t, &p)?;
        self.recv()
    }
}

impl HostProxy {
    fn run(mut self, inbox: Receiver<ToWorker>) {
        let mut conn = match self.establish_with_retry() {
            Ok(c) => c,
            Err(()) => return self.mark_dead(),
        };
        // Block on the inbox until the next heartbeat is due: a dispatch
        // wakes the proxy at once (no poll interval to wait out), an idle
        // host costs one wake-up per heartbeat instead of thousands a
        // second, and a disconnected inbox — the engine dropped its
        // senders — ends the proxy instead of leaving it heartbeating
        // forever.
        let beat = Duration::from_millis(self.heartbeat_ms);
        let mut next_beat = Instant::now() + beat;
        loop {
            let idle = next_beat.saturating_duration_since(Instant::now());
            let mut next = match inbox.recv_timeout(idle) {
                Ok(msg) => Some(msg),
                Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {
                    next_beat = Instant::now() + beat;
                    if self.heartbeat(&mut conn).is_err() {
                        return self.mark_dead();
                    }
                    continue;
                }
            };
            // Drain everything already queued: every read for this host
            // travels in one batch. Raw reads and writes go out as they
            // come, so they still precede every read queued after them.
            let mut batch = Vec::new();
            let mut shutdown = false;
            while let Some(msg) = next.take().or_else(|| inbox.try_recv().ok()) {
                let sent = match msg {
                    ToWorker::Process(reqs) => {
                        batch.extend(reqs);
                        Ok(())
                    }
                    ToWorker::FetchRaw {
                        worker,
                        blocks,
                        reply,
                    } => self.fetch_raw(&mut conn, worker, blocks, &reply),
                    ToWorker::WriteRaw { worker, blocks } => {
                        self.write_raw(&mut conn, worker, blocks)
                    }
                    ToWorker::Shutdown => {
                        shutdown = true;
                        break;
                    }
                };
                if sent.is_err() {
                    return self.mark_dead();
                }
            }
            if !batch.is_empty() && self.dispatch(&mut conn, &batch).is_err() {
                return self.mark_dead();
            }
            if shutdown {
                return;
            }
        }
    }

    /// Marks every slot of this host dead; returning then drops the inbox,
    /// so the engine's sends to any of them bounce and fail over.
    fn mark_dead(&self) {
        for slot in &self.slots {
            slot.alive.store(false, Ordering::Relaxed);
            slot.counters.dead.store(true, Ordering::Relaxed);
        }
    }

    /// Where slot `id` sits in `slots`.
    fn index(&self, id: usize) -> usize {
        self.slots
            .iter()
            .position(|s| s.id == id)
            .expect("a message routed to the proxy of its slot's host")
    }

    /// Connects, joins every hosted slot at our epoch, and uploads each
    /// mirror the worker doesn't already hold (same-epoch reconnects skip
    /// the upload). The connection ends bound to the last slot.
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
            bound: self.slots[0].id,
        };
        for slot in &self.slots {
            let held = self.join(&mut conn, slot)?;
            let ids = slot.state.store.block_ids();
            if held == ids.len() {
                continue;
            }
            for chunk in ids.chunks(UPLOAD_CHUNK) {
                let blocks: Vec<(u32, Vec<u8>)> = chunk
                    .iter()
                    .filter_map(|&b| slot.state.store.get(b).ok().map(|bytes| (b, bytes)))
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

    /// Joins (or, at the same epoch, re-binds the connection to) `slot`;
    /// returns how many blocks the worker holds for it.
    fn join(&self, conn: &mut Conn, slot: &ProxySlot) -> Result<usize, RoundTripError> {
        let join = ClusterRequest::WorkerJoin {
            slot: slot.id as u32,
            epoch: self.epoch,
            payload_bytes: slot.state.payload_bytes as u32,
            seen_seq_window: DEFAULT_SEEN_SEQ_WINDOW as u32,
        };
        match conn.round_trip(&join)? {
            ClusterResponse::Welcome { blocks_held, .. } => {
                conn.bound = slot.id;
                Ok(blocks_held as usize)
            }
            _ => Err(RoundTripError::Io),
        }
    }

    /// Round-trips a single-slot frame (`FetchBlocks`, `WriteBlocks`) for
    /// `slot`, re-binding the connection to it first if needed.
    fn slot_round_trip(
        &self,
        conn: &mut Conn,
        slot: usize,
        req: &ClusterRequest,
    ) -> Result<ClusterResponse, ()> {
        self.retry(conn, |conn| {
            if conn.bound != slot {
                self.join(conn, &self.slots[self.index(slot)])?;
            }
            conn.round_trip(req)
        })
    }

    /// Jittered-backoff reconnect loop; `Err` means the retry budget is
    /// exhausted (or we were fenced) and the host is dead to us.
    fn establish_with_retry(&self) -> Result<Conn, ()> {
        let mut rng = self.epoch ^ ((self.slots[0].id as u64) << 32) | 1;
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

    /// Runs `exchange` on the connection, transparently reconnecting (and
    /// thereby retransmitting) on connection failure. `Err` means fenced
    /// or retry budget exhausted.
    fn retry<T>(
        &self,
        conn: &mut Conn,
        mut exchange: impl FnMut(&mut Conn) -> Result<T, RoundTripError>,
    ) -> Result<T, ()> {
        loop {
            match exchange(conn) {
                Ok(v) => return Ok(v),
                Err(RoundTripError::Fenced) => return Err(()),
                Err(RoundTripError::Io) => *conn = self.establish_with_retry()?,
            }
        }
    }

    /// Sends `batch` as one `DispatchBatch` frame and hands each item's
    /// answer to its session, in item order. After a reconnect the *same*
    /// frame goes out again: the worker's reply cache answers the items
    /// that already ran, and answers delivered before the loss are skipped.
    fn dispatch(&self, conn: &mut Conn, batch: &[ReadRequest]) -> Result<(), ()> {
        let items = batch
            .iter()
            .map(|r| BatchItem {
                slot: r.worker as u32,
                query_id: r.query_id,
                seq: r.seq,
                priority: PRIORITY_INTERACTIVE,
                rect: r.query,
                blocks: r.blocks.clone(),
            })
            .collect();
        let (t, p) = ClusterRequest::DispatchBatch {
            epoch: self.epoch,
            items,
        }
        .encode();
        let mut delivered = 0;
        self.retry(conn, |conn| {
            conn.send(t, &p)?;
            for (i, req) in batch.iter().enumerate() {
                let resp = conn.recv()?;
                if i >= delivered {
                    self.deliver(req, resp);
                    delivered = i + 1;
                }
            }
            Ok(())
        })
    }

    /// Turns one item's answer into the `FromWorker` its session awaits.
    fn deliver(&self, req: &ReadRequest, resp: ClusterResponse) {
        let reply = match resp {
            ClusterResponse::WorkerReply(w) => {
                let c = &self.slots[self.index(req.worker)].counters;
                c.blocks_fetched
                    .fetch_add(w.blocks_requested, Ordering::Relaxed);
                if w.error.is_some() {
                    c.error_replies.fetch_add(1, Ordering::Relaxed);
                }
                FromWorker {
                    query_id: w.query_id,
                    seq: w.seq,
                    worker_id: req.worker,
                    blocks_requested: w.blocks_requested,
                    cpu_us: w.cpu_us,
                    records: w.records,
                    corrupt_blocks: w.corrupt_blocks,
                    error: w.error,
                }
            }
            // Typed refusal (e.g. ancient retransmit): answer with an
            // error reply so the engine retries against a replica.
            _ => FromWorker {
                query_id: req.query_id,
                seq: req.seq,
                worker_id: req.worker,
                blocks_requested: req.blocks.len() as u64,
                cpu_us: 0,
                records: Vec::new(),
                corrupt_blocks: Vec::new(),
                error: Some("worker refused dispatch".into()),
            },
        };
        let _ = req.reply.send(reply);
    }

    fn fetch_raw(
        &self,
        conn: &mut Conn,
        worker: usize,
        blocks: Vec<u32>,
        reply: &Sender<RawBlocks>,
    ) -> Result<(), ()> {
        let req = ClusterRequest::FetchBlocks {
            epoch: self.epoch,
            blocks,
        };
        if let ClusterResponse::RawBlocks { blocks, .. } =
            self.slot_round_trip(conn, worker, &req)?
        {
            let _ = reply.send(RawBlocks {
                worker_id: worker,
                blocks,
            });
        }
        Ok(())
    }

    fn write_raw(
        &mut self,
        conn: &mut Conn,
        worker: usize,
        blocks: Vec<(u32, Vec<u8>)>,
    ) -> Result<(), ()> {
        // Mirror first: a reconnect must re-upload the repaired bytes, not
        // the stale ones.
        let i = self.index(worker);
        self.slots[i].state.write_raw_blocks(blocks.clone());
        let req = ClusterRequest::WriteBlocks {
            epoch: self.epoch,
            blocks,
        };
        self.slot_round_trip(conn, worker, &req).map(drop)
    }

    /// One heartbeat and one lease renewal for the whole host.
    fn heartbeat(&self, conn: &mut Conn) -> Result<(), ()> {
        let beat = ClusterRequest::Heartbeat {
            term: self.epoch,
            epoch: self.epoch,
            commit: self.commit.load(Ordering::Relaxed),
        };
        self.retry(conn, |conn| conn.round_trip(&beat))?;
        let lease = ClusterRequest::LeaseGrant {
            epoch: self.epoch,
            ttl_ms: self.lease_ttl_ms,
        };
        if let ClusterResponse::LeaseAck { granted: true, .. } =
            self.retry(conn, |conn| conn.round_trip(&lease))?
        {
            self.lease_epoch.store(self.epoch, Ordering::Relaxed);
        }
        Ok(())
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
    use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
    use pargrid_geom::Rect;
    use pargrid_parallel::{EngineConfig, ParallelGridFile};

    /// A proxy whose engine vanished (every sender dropped, nothing
    /// queued, no `Shutdown` ever sent) must end, not heartbeat forever.
    #[test]
    fn proxy_exits_when_its_inbox_closes() {
        let mut worker =
            WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start");
        let backend = RemoteBackend::new(vec![worker.local_addr().to_string()], 1);
        let slots = (0..2).map(|w| {
            let state = WorkerState::new(w, 0);
            (state, Arc::new(WorkerCounters::default()))
        });
        let (senders, handles) = backend.spawn(slots.collect());
        assert_eq!(handles.len(), 1, "one proxy for the one host");
        drop(senders);
        for proxy in handles {
            proxy.join().expect("proxy joins");
        }
        worker.shutdown();
    }

    /// A remote engine and an in-process engine over the same assignment
    /// answer with the same sequence: grouped by slot in ascending order,
    /// whatever order the proxies deliver the replies in.
    #[test]
    fn remote_and_in_process_engines_answer_in_the_same_order() {
        let ds = pargrid_datagen::hot2d(3);
        let grid = Arc::new(ds.build_grid_file());
        let input = DeclusterInput::from_grid_file(&grid);
        let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, 4, 1);
        let patient = EngineConfig::default().resilience(|r| r.with_fail_timeout_ms(10_000));
        let local = ParallelGridFile::build(Arc::clone(&grid), &assignment, patient.clone());
        let mut hosts: Vec<WorkerServer> = (0..2)
            .map(|_| WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start"))
            .collect();
        let addrs = hosts.iter().map(|h| h.local_addr().to_string()).collect();
        let backend = Arc::new(RemoteBackend::new(addrs, 1));
        let remote = ParallelGridFile::build(
            Arc::clone(&grid),
            &assignment,
            patient.with_backend(backend),
        );

        let (lo, d) = (ds.domain.lo(), &ds.domain);
        for [fx, fy, fw] in [
            [0.0, 0.0, 1.0],
            [0.25, 0.25, 0.5],
            [0.4, 0.45, 0.15],
            [0.6, 0.1, 0.3],
        ] {
            let at = |f: f64, i: usize| lo.get(i) + f * d.side(i);
            let q = Rect::new2(at(fx, 0), at(fy, 1), at(fx + fw, 0), at(fy + fw, 1));
            let want = local.query(&q);
            let got = remote.query(&q);
            assert!(!got.incomplete);
            assert_eq!(got.records, want.records, "query {q:?}");
            let slots: Vec<u32> = got
                .records
                .iter()
                .map(|r| assignment.disk_of_id(grid.bucket_of_point(&r.point)))
                .collect();
            assert!(
                slots.windows(2).all(|w| w[0] <= w[1]),
                "query {q:?}: {slots:?}"
            );
        }
        remote.shutdown();
        for h in &mut hosts {
            h.shutdown();
        }
    }

    /// Killing one worker process takes down exactly the slots it hosts:
    /// all of them, and none of the other host's.
    #[test]
    fn killed_host_marks_all_its_slots_dead() {
        let mut hosts: Vec<WorkerServer> = (0..2)
            .map(|_| WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start"))
            .collect();
        let addrs = hosts.iter().map(|h| h.local_addr().to_string()).collect();
        let backend = RemoteBackend::new(addrs, 1)
            .with_heartbeat(20, 600)
            .with_read_timeout_ms(200);
        let counters: Vec<Arc<WorkerCounters>> = (0..4)
            .map(|_| Arc::new(WorkerCounters::default()))
            .collect();
        let slots = counters
            .iter()
            .enumerate()
            .map(|(w, c)| (WorkerState::new(w, 0), Arc::clone(c)));
        let (senders, mut handles) = backend.spawn(slots.collect());
        assert_eq!(handles.len(), 2, "one proxy per host");
        let gauges = || -> Vec<f64> { backend.alive_gauges().iter().map(|g| g.1).collect() };
        assert_eq!(gauges(), vec![1.0; 4]);

        hosts[1].kill();
        let deadline = Instant::now() + Duration::from_secs(15);
        while gauges() != [1.0, 0.0, 1.0, 0.0] {
            assert!(
                Instant::now() < deadline,
                "slots 1 and 3 still alive: {:?}",
                gauges()
            );
            thread::sleep(Duration::from_millis(20));
        }
        let dead: Vec<bool> = counters
            .iter()
            .map(|c| c.dead.load(Ordering::Relaxed))
            .collect();
        assert_eq!(dead, [false, true, false, true]);
        // The dead host's proxy ended and dropped its inbox: sends to its
        // slots bounce.
        let host_1 = handles.pop().expect("host 1's proxy");
        host_1.join().expect("proxy joins");
        let bounced = senders[3]
            .send(ToWorker::Shutdown)
            .expect_err("inbox dropped");
        assert!(matches!(bounced.0, ToWorker::Shutdown));

        drop(senders);
        for proxy in handles {
            proxy.join().expect("proxy joins");
        }
        hosts[0].shutdown();
    }
}
