//! The standalone worker process: `pargrid worker --listen ADDR`.
//!
//! A worker server is the over-the-wire twin of an engine worker thread.
//! It holds one [`WorkerState`] per engine slot (a process can host
//! several slots), built from pages its coordinator uploads with
//! `WriteBlocks`, and services reads through the *same* `service_dispatch`
//! path an in-process worker uses — same elevator pass, same virtual
//! disks, same seen-seq dedup window. A coordinator's proxy holds one
//! connection per worker process and joins every slot it hosts on it; a
//! `DispatchBatch` frame carries reads for any of those slots and is
//! answered with one frame per item, all in one write. A single-slot
//! `Dispatch` is a one-item batch for the connection's last-joined slot.
//!
//! Three behaviors distinguish it from a thread:
//!
//! * **Epoch fencing.** Every data-plane frame carries the issuing
//!   leader's epoch. A frame below the worker's current epoch is answered
//!   `Fenced` — a deposed coordinator cannot read or write anything here.
//!   A join at a *higher* epoch resets the slot (store, dedup window,
//!   reply cache): the new leader re-uploads its view of the data.
//! * **Reply cache.** Retransmitted dispatches (same seq, alone or inside
//!   a batch) are answered from a bounded cache of encoded reply frames
//!   instead of being re-executed, so a proxy that lost a connection
//!   mid-round-trip can resend safely — the answer comes back
//!   once-computed and, being the same bytes, byte-identical.
//! * **Voting.** Workers vote in coordinator elections (one vote per
//!   term, refusing candidates whose log would lose committed writes),
//!   which keeps a two-coordinator cluster electable after it loses one.
//!   Because a vote is a durable promise, the voting state survives the
//!   process: with a `state_path` configured the worker persists its
//!   term/vote/epoch/commit record to disk *before* a granted vote
//!   leaves the socket, and a restarted worker reloads it; without one,
//!   a freshly started worker sits out elections for a grace period
//!   longer than any election timeout, so a kill + restart mid-election
//!   cannot produce a second vote in the same term (two same-term
//!   leaders would carry the same fencing epoch — unfenceable).

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pargrid_gridfile::codec::{err, seal, unseal, Cur, DecodeError, Wire};
use pargrid_gridfile::persist::write_durably;
use pargrid_net::cluster_proto::{BatchItem, ClusterRequest, ClusterResponse, WireReply};
use pargrid_net::frame::{read_frame, FrameError};
use pargrid_net::server::wake_accept;
use pargrid_parallel::disk::DiskParams;
use pargrid_parallel::message::QueryPriority;
use pargrid_parallel::worker::WorkerState;
use pargrid_parallel::BlockStore;

/// Deterministic inbound-frame dropper: a programmable network partition.
/// Each received frame is silently discarded with probability `rate`
/// (the sender sees a read timeout, exactly like a lossy link), decided
/// by a seeded xorshift so chaos runs reproduce.
#[derive(Clone, Copy, Debug)]
pub struct ChaosDrop {
    /// RNG seed.
    pub seed: u64,
    /// Drop probability in `[0, 1)`.
    pub rate: f64,
}

/// Tunables for [`WorkerServer::start`].
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Virtual disks per hosted slot (the paper's SP-2 had 7 per node).
    pub disks: usize,
    /// Virtual disk cost model.
    pub disk_params: DiskParams,
    /// Optional partition injection.
    pub chaos: Option<ChaosDrop>,
    /// How long a freshly started worker refuses to vote when it has no
    /// persisted voter state: any election in flight when a previous
    /// incarnation died has either concluded or moved to a later term by
    /// the time the grace expires, so the lost in-memory vote record
    /// cannot be double-spent. Must exceed the coordinators' maximum
    /// election timeout (default 300 ms); ignored when state was
    /// restored from `state_path`.
    pub vote_grace_ms: u64,
    /// Voter-state file: term, vote, fencing epoch, and commit watermark
    /// are persisted here *before* a granted vote is sent, and reloaded
    /// on start, so a killed-and-restarted worker can neither vote twice
    /// in one term nor accept a deposed leader's frames at epoch 0.
    /// `None` (the default) keeps the worker stateless and relies on the
    /// vote grace alone.
    pub state_path: Option<PathBuf>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            disks: 1,
            disk_params: DiskParams::default(),
            chaos: None,
            vote_grace_ms: 750,
            state_path: None,
        }
    }
}

/// One hosted engine slot: the worker state plus the retransmit
/// reply cache.
struct Slot {
    state: WorkerState,
    /// Encoded reply frames by seq, FIFO-evicted at the dedup-window
    /// size, so a retransmit is answered with the same bytes without
    /// re-execution.
    replies: HashMap<u64, Vec<u8>>,
    reply_order: VecDeque<u64>,
    reply_cap: usize,
}

/// Mutable cluster-facing state shared by all connections.
struct Plane {
    /// Slots hosted by this process, keyed by engine slot index.
    slots: HashMap<u32, Slot>,
    /// Current fencing epoch: the highest epoch seen in a join or lease.
    /// Data-plane frames below it are answered `Fenced`.
    epoch: u64,
    /// Highest election term seen, and the term we last voted in (one
    /// vote per term).
    term: u64,
    voted: Option<(u64, u32)>,
    /// Highest committed log index any leader has advertised, and the
    /// term of the leader that advertised it. Candidates whose
    /// `(last_log_term, log_len)` is lexicographically behind this pair
    /// are refused — bare length is not enough, because a deposed
    /// leader's divergent log can tie on length while its entries carry
    /// an older term.
    commit_seen: u64,
    commit_term: u64,
    /// Highest term at which this worker has observed an *active* leader
    /// (heartbeat, join, or lease). Elections at or below it are already
    /// decided, so votes there are refused outright: a restarted worker
    /// whose in-memory vote record died with it cannot help elect a
    /// second leader into a settled term.
    leader_term_seen: u64,
}

struct Shared {
    cfg: WorkerConfig,
    plane: Mutex<Plane>,
    shutdown: AtomicBool,
    /// Dispatches actually executed (cache answers excluded) — what the
    /// reconnect-dedup test asserts on.
    executed: AtomicU64,
    /// Dispatches answered from the reply cache.
    deduped: AtomicU64,
    /// Connection counter: gives each connection its own chaos stream.
    conn_seq: AtomicU64,
    /// When the server started — the vote-grace clock.
    started: Instant,
    /// Whether voter state was restored from `state_path` (a restored
    /// worker is informed and votes without waiting out the grace).
    restored: bool,
}

/// A running worker server. [`WorkerServer::shutdown`] (or dropping the
/// process) stops it; coordinators treat an unreachable worker like a
/// fail-stop engine worker.
pub struct WorkerServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl WorkerServer {
    /// Binds `addr` and starts serving the worker plane.
    pub fn start(addr: impl ToSocketAddrs, cfg: WorkerConfig) -> std::io::Result<WorkerServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let mut plane = Plane {
            slots: HashMap::new(),
            epoch: 0,
            term: 0,
            voted: None,
            commit_seen: 0,
            commit_term: 0,
            leader_term_seen: 0,
        };
        let restored = match &cfg.state_path {
            Some(path) => load_state(path, &mut plane),
            None => false,
        };
        let shared = Arc::new(Shared {
            cfg,
            plane: Mutex::new(plane),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
            started: Instant::now(),
            restored,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("pargrid-worker-accept".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn worker accept thread")
        };
        Ok(WorkerServer {
            shared,
            local_addr,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Dispatches executed for real (retransmits answered from the reply
    /// cache are *not* counted here — see [`WorkerServer::deduped`]).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Dispatches answered from the reply cache (retransmit dedups).
    pub fn deduped(&self) -> u64 {
        self.shared.deduped.load(Ordering::Relaxed)
    }

    /// The worker's current fencing epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.plane.lock().unwrap().epoch
    }

    /// Stops accepting and joins the accept thread. Live per-connection
    /// threads die when their peers disconnect (or at process exit) —
    /// the in-process tests always drop the coordinator side first.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            wake_accept(self.local_addr);
            let _ = h.join();
        }
    }

    /// Simulates `kill -9` for in-process chaos runs: the server stops
    /// accepting *and* existing connections stop being answered, without
    /// any goodbye to peers.
    pub fn kill(&mut self) {
        self.shutdown();
    }
}

impl Drop for WorkerServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Blocks in `accept`, so an idle worker's accept thread sleeps until a
/// connection arrives; [`WorkerServer::shutdown`] connects once to wake it.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let _ = thread::Builder::new()
                    .name("pargrid-worker-conn".into())
                    .spawn(move || conn_loop(stream, shared));
            }
            Err(_) => break,
        }
    }
}

fn conn_loop(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // A dropped inbound frame must look like silence, not a closed
    // connection: the reader keeps the stream open and simply never
    // answers, so the proxy's read times out (a partition, not a crash).
    //
    // The seed is splitmix-mixed with a per-connection counter: raw
    // xorshift from a small seed emits a tiny first value, which would
    // deterministically drop the *first frame of every connection* —
    // a total partition instead of a lossy link.
    let mut chaos_rng = shared.cfg.chaos.map(|c| {
        splitmix(
            c.seed
                ^ shared
                    .conn_seq
                    .fetch_add(1, Ordering::Relaxed)
                    .wrapping_mul(0x9e37),
        ) | 1
    });
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    // The slots this connection joined, last-joined last: batch items may
    // name any of them, while `Dispatch`, `WriteBlocks` and `FetchBlocks`
    // route to the last one (a proxy re-joins to switch).
    let mut joined: Vec<u32> = Vec::new();
    // Every answer to one request frame, written with one `write_all`.
    let mut out = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        out.clear();
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(FrameError::Closed) => return,
            Err(FrameError::Io(_)) => return,
            Err(_) => {
                // Malformed frame: answer typed and keep the connection.
                push(
                    &mut out,
                    &ClusterResponse::ClusterErr("malformed frame".into()),
                );
                if (&stream).write_all(&out).is_err() {
                    return;
                }
                continue;
            }
        };
        // Re-check after the (blocking) read: a killed worker is silent
        // even for frames that were already in flight.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let (Some(chaos), Some(rng)) = (shared.cfg.chaos, chaos_rng.as_mut()) {
            if chaos.rate > 0.0 && (xorshift(rng) >> 11) as f64 / ((1u64 << 53) as f64) < chaos.rate
            {
                continue; // dropped on the (virtual) floor
            }
        }
        match ClusterRequest::decode(frame.msg_type, &frame.payload) {
            Ok(ClusterRequest::Dispatch {
                epoch,
                query_id,
                seq,
                priority,
                rect,
                blocks,
            }) => match joined.last() {
                Some(&slot) => {
                    let item = BatchItem {
                        slot,
                        query_id,
                        seq,
                        priority,
                        rect,
                        blocks,
                    };
                    serve_batch(&shared, epoch, &[item], &joined, &mut out);
                }
                None => push(
                    &mut out,
                    &ClusterResponse::ClusterErr("no slot joined".into()),
                ),
            },
            Ok(ClusterRequest::DispatchBatch { epoch, items }) => {
                serve_batch(&shared, epoch, &items, &joined, &mut out);
            }
            Ok(req) => push(&mut out, &handle(&shared, req, &mut joined)),
            Err(e) => push(
                &mut out,
                &ClusterResponse::ClusterErr(format!("bad request: {e}")),
            ),
        }
        if (&stream).write_all(&out).is_err() {
            return;
        }
    }
}

/// Appends `resp`'s frame to `out`.
fn push(out: &mut Vec<u8>, resp: &ClusterResponse) {
    out.extend_from_slice(&frame_of(resp));
}

/// `resp` as wire bytes; a reply too large to frame is answered typed.
fn frame_of(resp: &ClusterResponse) -> Vec<u8> {
    resp.encode_frame().unwrap_or_else(|e| {
        ClusterResponse::ClusterErr(format!("reply not sent: {e}"))
            .encode_frame()
            .expect("a short error frame")
    })
}

/// Answers `items` in order, one frame each, under one plane lock: a
/// `WorkerReply` (from the reply cache for a seq already answered), or the
/// item's typed refusal — `Fenced` for a stale epoch, `ClusterErr` for a
/// slot not joined on this connection or a seq evicted from the cache.
fn serve_batch(
    shared: &Shared,
    epoch: u64,
    items: &[BatchItem],
    joined: &[u32],
    out: &mut Vec<u8>,
) {
    let mut plane = shared.plane.lock().unwrap();
    for item in items {
        if epoch < plane.epoch {
            push(out, &ClusterResponse::Fenced { epoch: plane.epoch });
            continue;
        }
        let slot = match plane.slots.get_mut(&item.slot) {
            Some(slot) if joined.contains(&item.slot) => slot,
            _ => {
                let msg = format!("slot {} not joined on this connection", item.slot);
                push(out, &ClusterResponse::ClusterErr(msg));
                continue;
            }
        };
        if let Some(cached) = slot.replies.get(&item.seq) {
            shared.deduped.fetch_add(1, Ordering::Relaxed);
            out.extend_from_slice(cached);
            continue;
        }
        let prio = if item.priority == 0 {
            QueryPriority::Interactive
        } else {
            QueryPriority::Batch
        };
        let Some(reply) =
            slot.state
                .service_dispatch(item.query_id, item.seq, &item.blocks, &item.rect, prio)
        else {
            // Seen seq but evicted from the reply cache: the proxy
            // retransmitted something ancient. Refuse loudly rather than
            // re-executing.
            let msg = format!("seq {} already serviced", item.seq);
            push(out, &ClusterResponse::ClusterErr(msg));
            continue;
        };
        shared.executed.fetch_add(1, Ordering::Relaxed);
        let frame = frame_of(&ClusterResponse::WorkerReply(WireReply {
            query_id: reply.query_id,
            seq: reply.seq,
            worker: reply.worker_id as u32,
            blocks_requested: reply.blocks_requested,
            cache_hits: reply.cache_hits,
            disk_us: reply.disk_us,
            cpu_us: reply.cpu_us,
            corrupt_blocks: reply.corrupt_blocks,
            error: reply.error,
            records: reply.records,
        }));
        out.extend_from_slice(&frame);
        slot.replies.insert(item.seq, frame);
        slot.reply_order.push_back(item.seq);
        while slot.reply_order.len() > slot.reply_cap {
            if let Some(old) = slot.reply_order.pop_front() {
                slot.replies.remove(&old);
            }
        }
    }
}

/// Answers every request but the two dispatch kinds (see [`serve_batch`]).
fn handle(shared: &Shared, req: ClusterRequest, joined: &mut Vec<u32>) -> ClusterResponse {
    let mut plane = shared.plane.lock().unwrap();
    match req {
        ClusterRequest::WorkerJoin {
            slot,
            epoch,
            payload_bytes,
            seen_seq_window,
        } => {
            if epoch < plane.epoch {
                return ClusterResponse::Fenced { epoch: plane.epoch };
            }
            if epoch > plane.epoch {
                // New regime: every slot's pages and dedup state belong
                // to the old leader's upload; drop them all. Only a
                // leader joins, and its epoch is its term, so this is
                // also leader-observation evidence for the vote guard.
                plane.slots.clear();
                plane.epoch = epoch;
                plane.leader_term_seen = plane.leader_term_seen.max(epoch);
                plane.term = plane.term.max(epoch);
                persist(shared, &plane);
            }
            let cfg = &shared.cfg;
            let cur_epoch = plane.epoch;
            let entry = plane.slots.entry(slot).or_insert_with(|| Slot {
                state: WorkerState::with_disks(
                    slot as usize,
                    payload_bytes as usize,
                    cfg.disk_params,
                    BlockStore::memory(),
                    cfg.disks.max(1),
                )
                .with_seen_seq_window(seen_seq_window.max(1) as usize),
                replies: HashMap::new(),
                reply_order: VecDeque::new(),
                reply_cap: seen_seq_window.max(1) as usize,
            });
            joined.retain(|&s| s != slot);
            joined.push(slot);
            ClusterResponse::Welcome {
                slot,
                epoch: cur_epoch,
                blocks_held: entry.state.store.len() as u32,
            }
        }
        ClusterRequest::Dispatch { .. } | ClusterRequest::DispatchBatch { .. } => {
            unreachable!("dispatches are answered by serve_batch")
        }
        ClusterRequest::WriteBlocks { epoch, blocks } => {
            if epoch < plane.epoch {
                return ClusterResponse::Fenced { epoch: plane.epoch };
            }
            let Some(slot) = joined.last().and_then(|id| plane.slots.get_mut(id)) else {
                return ClusterResponse::ClusterErr("no slot joined".into());
            };
            let written = blocks.len() as u32;
            slot.state.write_raw_blocks(blocks);
            ClusterResponse::BlocksAck {
                epoch: plane.epoch,
                written,
            }
        }
        ClusterRequest::FetchBlocks { epoch, blocks } => {
            if epoch < plane.epoch {
                return ClusterResponse::Fenced { epoch: plane.epoch };
            }
            let Some(slot) = joined.last().and_then(|id| plane.slots.get(id)) else {
                return ClusterResponse::ClusterErr("no slot joined".into());
            };
            let raw = slot.state.fetch_raw_blocks(&blocks);
            ClusterResponse::RawBlocks {
                worker: raw.worker_id as u32,
                blocks: raw.blocks,
            }
        }
        ClusterRequest::Heartbeat {
            term,
            epoch,
            commit,
        } => {
            // Heartbeats come from the active leader's proxies; record
            // the evidence (term, epoch, commit watermark) the vote
            // guard compares candidates against. A leader always stamps
            // its own no-op before advertising a commit it advanced, so
            // the advertising term IS the term of the entry at the
            // commit index.
            let mut changed = false;
            if term > plane.term {
                plane.term = term;
                changed = true;
            }
            if term > plane.leader_term_seen {
                plane.leader_term_seen = term;
                changed = true;
            }
            if commit > plane.commit_seen {
                plane.commit_seen = commit;
                plane.commit_term = term;
                changed = true;
            }
            if epoch > plane.epoch {
                plane.epoch = epoch;
                changed = true;
            }
            if changed {
                // Best-effort: a lost heartbeat watermark only makes a
                // restarted worker more permissive as a voter, never
                // able to double-vote (the vote record itself is always
                // persisted before a grant leaves).
                persist(shared, &plane);
            }
            ClusterResponse::HeartbeatAck {
                term: plane.term,
                epoch: plane.epoch,
            }
        }
        ClusterRequest::LeaseGrant { epoch, ttl_ms: _ } => {
            if epoch < plane.epoch {
                return ClusterResponse::Fenced { epoch: plane.epoch };
            }
            if epoch > plane.epoch || epoch > plane.leader_term_seen {
                plane.epoch = epoch;
                plane.leader_term_seen = plane.leader_term_seen.max(epoch);
                plane.term = plane.term.max(epoch);
                persist(shared, &plane);
            }
            ClusterResponse::LeaseAck {
                granted: true,
                epoch: plane.epoch,
            }
        }
        ClusterRequest::VoteRequest {
            term,
            candidate,
            log_len,
            last_log_term,
        } => {
            if term > plane.term {
                plane.term = term;
                // New term: the old vote is void.
            }
            // A stateless worker that just started must sit out any
            // election that may have been in flight when a previous
            // incarnation died: the grace outlasts every candidacy, so
            // its lost vote record can no longer be paired with a fresh
            // one in the same term. Restored state carries the actual
            // vote record, so no grace is needed.
            let informed = shared.restored
                || shared.started.elapsed() >= Duration::from_millis(shared.cfg.vote_grace_ms);
            // Election restriction, worker edition: the candidate's
            // `(last entry term, length)` must not be behind the newest
            // commit any leader has shown us.
            let log_ok = crate::election::log_up_to_date(
                last_log_term,
                log_len,
                plane.commit_term,
                plane.commit_seen,
            );
            let granted = informed
                && term == plane.term
                // Terms with an observed leader are settled; a second
                // term-T leader would share term-T's fencing epoch.
                && term > plane.leader_term_seen
                && log_ok
                && match plane.voted {
                    Some((t, c)) => t < term || (t == term && c == candidate),
                    None => true,
                };
            // A vote is a durable promise: record it, and refuse the
            // grant if the record cannot be made durable before the
            // reply leaves the socket.
            let granted = granted && {
                plane.voted = Some((term, candidate));
                persist(shared, &plane)
            };
            ClusterResponse::VoteReply {
                term: plane.term,
                granted,
            }
        }
        ClusterRequest::MetaAppend { term, .. } => {
            // Workers don't mirror the metadata log; only coordinators do.
            ClusterResponse::MetaAck {
                term,
                ok: false,
                log_len: 0,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Voter-state persistence
// ---------------------------------------------------------------------

const STATE_MAGIC: [u8; 4] = *b"PGVS";
const STATE_VERSION: u16 = 1;
/// magic + version + 5×u64 + vote flag + vote (u64 term, u32 candidate)
/// + crc32.
const STATE_LEN: usize = 4 + 2 + 5 * 8 + 1 + 8 + 4 + 4;

/// The voter-state file, encoded with the workspace codec and sealed by
/// its CRC-32 trailer. The vote is always present on disk: flag 1 means
/// `Some`, anything else `None`.
fn encode_state(plane: &Plane) -> Vec<u8> {
    let mut b = Vec::with_capacity(STATE_LEN);
    b.extend_from_slice(&STATE_MAGIC);
    STATE_VERSION.put(&mut b);
    for v in [
        plane.epoch,
        plane.term,
        plane.leader_term_seen,
        plane.commit_seen,
        plane.commit_term,
    ] {
        v.put(&mut b);
    }
    let (term, candidate) = plane.voted.unwrap_or_default();
    plane.voted.is_some().put(&mut b);
    term.put(&mut b);
    candidate.put(&mut b);
    seal(&mut b);
    b
}

/// Durably writes the voter state ([`write_durably`]) — a crash mid-write
/// leaves the previous state intact, never a torn one.
fn save_state(path: &Path, plane: &Plane) -> std::io::Result<()> {
    write_durably(path, &encode_state(plane))
}

/// Loads persisted voter state into `plane`; returns whether anything
/// valid was restored. A missing, short, corrupt, or version-skewed
/// file restores nothing (the caller then falls back to the vote grace).
fn load_state(path: &Path, plane: &mut Plane) -> bool {
    std::fs::read(path).is_ok_and(|b| decode_state(&b, plane).is_ok())
}

/// Restores `plane` from a voter-state file, or leaves it untouched.
fn decode_state(b: &[u8], plane: &mut Plane) -> Result<(), DecodeError> {
    let mut c = Cur::new(unseal(b)?);
    if c.take(4)? != STATE_MAGIC || c.get::<u16>()? != STATE_VERSION {
        return Err(err("not a voter state of this version"));
    }
    let watermarks: [u64; 5] = [c.get()?, c.get()?, c.get()?, c.get()?, c.get()?];
    let (flag, vote) = (c.get::<u8>()?, (c.get()?, c.get()?));
    c.done()?;
    [
        plane.epoch,
        plane.term,
        plane.leader_term_seen,
        plane.commit_seen,
        plane.commit_term,
    ] = watermarks;
    plane.voted = (flag == 1).then_some(vote);
    Ok(())
}

/// Persists the plane if a state path is configured; `true` means the
/// state is durable (or persistence is not configured and the caller's
/// fallback protection applies).
fn persist(shared: &Shared, plane: &Plane) -> bool {
    match &shared.cfg.state_path {
        Some(path) => save_state(path, plane).is_ok(),
        None => true,
    }
}

/// SplitMix64 finalizer: turns a structured seed into a well-mixed state.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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

    /// The durable voter-state blob as the bytewise-CRC build wrote it (CRC
    /// cross-checked against zlib): a worker restarted across the kernel
    /// change must still restore its vote.
    #[test]
    fn golden_voter_state_bytes() {
        let plane = Plane {
            slots: HashMap::new(),
            epoch: 7,
            term: 9,
            voted: Some((9, 3)),
            commit_seen: 1234,
            commit_term: 6,
            leader_term_seen: 8,
        };
        let mut expected = b"PGVS\x01\x00".to_vec();
        for v in [7u64, 9, 8, 1234, 6] {
            expected.extend_from_slice(&v.to_le_bytes());
        }
        expected.push(1);
        expected.extend_from_slice(&9u64.to_le_bytes());
        expected.extend_from_slice(&3u32.to_le_bytes());
        expected.extend_from_slice(&0x6D8C_A96Fu32.to_le_bytes());
        assert_eq!(encode_state(&plane), expected);
        assert_eq!(expected.len(), STATE_LEN);
    }

    /// Which files restore voter state, and to what, pinned over a seeded
    /// corpus from the loader as it was before it moved onto the shared
    /// codec: two valid files, every truncation, every single-bit flip with
    /// and without its CRC re-sealed (so flips reach the magic, version and
    /// vote-flag checks), and 2,000 arbitrary files, half of them sealed
    /// state-sized bodies. Each verdict — nothing restored, or the restored
    /// state re-encoded — is folded with its index into an FNV-1a digest.
    #[test]
    fn voter_state_load_verdicts_are_pinned() {
        let plane = |voted| Plane {
            slots: HashMap::new(),
            epoch: 7,
            term: 9,
            voted,
            commit_seen: 1234,
            commit_term: 6,
            leader_term_seen: 8,
        };
        let reseal = |b: &mut Vec<u8>| {
            let n = b.len();
            let crc = pargrid_gridfile::crc32(&b[..n - 4]);
            b[n - 4..].copy_from_slice(&crc.to_le_bytes());
        };
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        for valid in [
            encode_state(&plane(Some((9, 3)))),
            encode_state(&plane(None)),
        ] {
            inputs.push(valid.clone());
            for cut in 0..valid.len() {
                inputs.push(valid[..cut].to_vec());
            }
            for bit in 0..8 * valid.len() {
                let mut flipped = valid.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                inputs.push(flipped.clone());
                if bit < 8 * (valid.len() - 4) {
                    reseal(&mut flipped);
                    inputs.push(flipped);
                }
            }
        }
        let mut s = 0xC0DE_0201u64;
        let mut next = || {
            s = splitmix(s);
            s
        };
        for i in 0..2_000 {
            let r = next();
            if i % 2 == 0 {
                inputs.push((0..r % 80).map(|_| next() as u8).collect());
                continue;
            }
            let mut b: Vec<u8> = (0..STATE_LEN).map(|_| next() as u8).collect();
            if r % 4 != 0 {
                b[..6].copy_from_slice(b"PGVS\x01\x00");
            }
            b[46] = ((r >> 8) % 3) as u8;
            reseal(&mut b);
            inputs.push(b);
        }

        let dir =
            std::env::temp_dir().join(format!("pargrid-vote-verdicts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("voter.state");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut restored = 0;
        for (i, bytes) in inputs.iter().enumerate() {
            std::fs::write(&path, bytes).expect("write state");
            let mut p = Plane {
                slots: HashMap::new(),
                epoch: 0,
                term: 0,
                voted: None,
                commit_seen: 0,
                commit_term: 0,
                leader_term_seen: 0,
            };
            eat(&(i as u64).to_le_bytes());
            if load_state(&path, &mut p) {
                restored += 1;
                eat(&[1]);
                eat(&encode_state(&p));
            } else {
                eat(&[0]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        println!("voter state: ({h:#018x}, {restored})");
        assert_eq!(
            (h, restored),
            (0x4235_d5a4_e3a6_8b97, 1585),
            "voter-state load verdicts moved"
        );
    }
}
