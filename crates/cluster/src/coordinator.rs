//! The replicated coordinator node.
//!
//! Every coordinator process runs the same loop; at any moment one of
//! them **leads** — it builds the engine over a [`RemoteBackend`], serves
//! clients through an embedded `pargrid-net` server, and replicates each
//! acknowledged mutation to every online standby *before* the client's
//! ack. Standbys run a thin listener that answers `NotLeader{hint}`
//! redirects, mirror the metadata log into their own [`GridFile`], and
//! watch the leader's `MetaAppend` heartbeats; when those stop, the
//! election ([`crate::election::Election`]) picks a successor, whose term
//! becomes the new **fencing epoch** — its engine joins the workers at
//! that epoch, which atomically invalidates every frame the deposed
//! leader might still send.
//!
//! Lock order (deadlock discipline): `el` → `repl` → `gf` → `lead`,
//! never backwards; the mutation gate takes each lock alone, in
//! sequence, and all network I/O (vote solicitation, replication) runs
//! either lock-free or under `repl` only.
//!
//! What failover preserves and what it gives up (`DESIGN.md` §15):
//! read-your-write survives one coordinator failure because an ack
//! implies the entry is in every online standby's log, and a candidate
//! with a shorter log than any voter's committed prefix cannot win.
//! `MutationFailed` in cluster mode means *indeterminate* — the entry
//! may exist on some standbys — which is why the apply path is an
//! upsert: retrying an indeterminate insert cannot duplicate the record.

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pargrid_geom::Point;
use pargrid_gridfile::GridFile;
use pargrid_net::cluster_proto::{ClusterRequest, ClusterResponse, MetaOp};
use pargrid_net::frame::{read_frame, write_frame, FrameError};
use pargrid_net::proto::{Request, Response, WireError};
use pargrid_net::server::{ClusterHooks, Server, ServerConfig};
use pargrid_obs::{names, PromWriter};
use pargrid_parallel::ParallelGridFile;

use crate::backend::RemoteBackend;
use crate::election::{Election, Role};
use crate::meta::MetaLog;

/// Ticker cadence.
const TICK_MS: u64 = 10;
/// Replication round-trip / vote solicitation read timeout.
const PEER_IO_TIMEOUT_MS: u64 = 250;
/// Consecutive failed replication rounds before a standby is considered
/// offline (mutations stop waiting for it).
const OFFLINE_STRIKES: u32 = 5;

/// Another coordinator, as this node sees it.
#[derive(Clone, Debug)]
pub struct PeerSpec {
    /// The peer's node id.
    pub id: u32,
    /// Its election/replication listener.
    pub peer_addr: String,
    /// Its client-facing address (the `NotLeader` redirect target).
    pub client_addr: String,
}

/// Tunables for [`Coordinator::start`].
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// This node's id (unique among coordinators).
    pub id: u32,
    /// Client-facing listen address (engine server when leading, thin
    /// redirect listener otherwise).
    pub client_listen: String,
    /// Election/replication listen address.
    pub peer_listen: String,
    /// The *other* coordinators.
    pub peers: Vec<PeerSpec>,
    /// Worker process addresses (engine slots map onto these round-robin).
    pub workers: Vec<String>,
    /// Leader heartbeat / replication cadence, milliseconds.
    pub heartbeat_ms: u64,
    /// Randomized election-timeout range, milliseconds.
    pub election_timeout_ms: (u64, u64),
    /// Worker lease TTL granted on the data plane.
    pub lease_ttl_ms: u32,
    /// Seed for randomized election timeouts.
    pub seed: u64,
    /// Template for the embedded client-facing server.
    pub server: ServerConfig,
}

impl CoordinatorConfig {
    /// Sensible defaults for sub-second failover: 50 ms heartbeats,
    /// 150–300 ms election timeouts.
    pub fn new(id: u32, client_listen: String, peer_listen: String) -> CoordinatorConfig {
        CoordinatorConfig {
            id,
            client_listen,
            peer_listen,
            peers: Vec::new(),
            workers: Vec::new(),
            heartbeat_ms: 50,
            election_timeout_ms: (150, 300),
            lease_ttl_ms: 600,
            seed: 42,
            server: ServerConfig {
                allow_remote_shutdown: true,
                ..ServerConfig::default()
            },
        }
    }
}

/// Builds the engine when this node becomes leader: given the mirror
/// grid file and the epoch-fenced remote backend, decluster and
/// construct the `ParallelGridFile` (the caller chooses method, replica
/// layout, etc.).
pub type EngineBuilder =
    Box<dyn Fn(Arc<GridFile>, Arc<RemoteBackend>) -> Arc<ParallelGridFile> + Send + Sync>;

/// The leading regime: engine + its server + the backend's gauges.
struct Lead {
    server: Server,
    engine: Arc<ParallelGridFile>,
    backend: Arc<RemoteBackend>,
}

/// One standby's replication cursor.
struct PeerRepl {
    acked: u64,
    strikes: u32,
    online: bool,
    /// Whether this standby has answered a replication round during the
    /// current leadership term — i.e. it joined this regime's
    /// replication set. Losing a joined standby forces mutation refusal;
    /// a standby that was already dead at promotion never gates writes
    /// (otherwise a 2-coordinator cluster could never accept a write
    /// after failing over).
    joined_term: bool,
}

/// Replication state: the log plus per-peer cursors.
struct Repl {
    log: MetaLog,
    peers: Vec<PeerRepl>,
    /// Client address of the current leader, for `NotLeader` hints.
    leader_hint: String,
}

impl Repl {
    /// Whether unreplicated commits are permissible: no standby is
    /// configured at all, or none has ever answered a replication round
    /// this term — the regime was promoted over dead peers and runs in
    /// *explicit* degraded mode (observable: the election itself, the
    /// failover counter, the online-standbys gauge). The contrast is a
    /// standby that was replicating and went dark mid-term: there the
    /// leader must refuse rather than silently downgrade acknowledged
    /// writes to zero-replica durability.
    fn replication_waived(&self, no_peers_configured: bool) -> bool {
        no_peers_configured || self.peers.iter().all(|p| !p.joined_term)
    }
}

/// The thin standby listener answering redirects on the client address.
struct Thin {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

struct CoordShared {
    cfg: CoordinatorConfig,
    builder: EngineBuilder,
    gf: Mutex<GridFile>,
    el: Mutex<Election>,
    repl: Mutex<Repl>,
    lead: Mutex<Option<Lead>>,
    thin: Mutex<Option<Thin>>,
    commit_cell: Arc<AtomicU64>,
    failovers: AtomicU64,
    start: Instant,
    shutdown: AtomicBool,
    killed: AtomicBool,
}

impl CoordShared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

/// A running coordinator node.
pub struct Coordinator {
    shared: Arc<CoordShared>,
    ticker: Option<JoinHandle<()>>,
    peer_accept: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Starts the node as a follower. `gf` is the node's initial state —
    /// every coordinator must start from the *same* grid file (same
    /// dataset, same build); the metadata log carries everything that
    /// changes afterwards.
    pub fn start(
        cfg: CoordinatorConfig,
        gf: GridFile,
        builder: EngineBuilder,
    ) -> std::io::Result<Coordinator> {
        let peer_listener = TcpListener::bind(&cfg.peer_listen)?;
        peer_listener.set_nonblocking(true)?;
        let voters = 1 + cfg.peers.len() + cfg.workers.len();
        let el = Election::new(cfg.id, voters, cfg.election_timeout_ms, cfg.seed, 0);
        let n_peers = cfg.peers.len();
        let shared = Arc::new(CoordShared {
            cfg,
            builder,
            gf: Mutex::new(gf),
            el: Mutex::new(el),
            repl: Mutex::new(Repl {
                log: MetaLog::new(),
                peers: (0..n_peers)
                    .map(|_| PeerRepl {
                        acked: 0,
                        strikes: 0,
                        online: true,
                        joined_term: false,
                    })
                    .collect(),
                leader_hint: String::new(),
            }),
            lead: Mutex::new(None),
            thin: Mutex::new(None),
            commit_cell: Arc::new(AtomicU64::new(0)),
            failovers: AtomicU64::new(0),
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            killed: AtomicBool::new(false),
        });
        start_thin(&shared);
        let peer_accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("pargrid-coord-peer".into())
                .spawn(move || peer_accept_loop(peer_listener, shared))
                .expect("spawn coordinator peer thread")
        };
        let ticker = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("pargrid-coord-tick".into())
                .spawn(move || ticker_loop(shared))
                .expect("spawn coordinator ticker thread")
        };
        Ok(Coordinator {
            shared,
            ticker: Some(ticker),
            peer_accept: Some(peer_accept),
        })
    }

    /// Whether this node currently leads.
    pub fn is_leader(&self) -> bool {
        self.shared.el.lock().unwrap().role == Role::Leader
    }

    /// Current election term.
    pub fn term(&self) -> u64 {
        self.shared.el.lock().unwrap().term
    }

    /// Committed metadata-log index.
    pub fn commit(&self) -> u64 {
        self.shared.commit_cell.load(Ordering::Relaxed)
    }

    /// Leadership promotions this node has performed.
    pub fn failovers(&self) -> u64 {
        self.shared.failovers.load(Ordering::Relaxed)
    }

    /// The client-facing address.
    pub fn client_addr(&self) -> &str {
        &self.shared.cfg.client_listen
    }

    /// Simulated `kill -9` for in-process experiments: the node stops
    /// heartbeating, answering peers, and serving clients *now*. Threads
    /// are reaped by the `Drop`/[`Coordinator::shutdown`] that follows —
    /// a real deployment's equivalent is the process dying.
    pub fn kill(&self) {
        self.shared.killed.store(true, Ordering::SeqCst);
        stop_thin(&self.shared);
        if let Some(lead) = self.shared.lead.lock().unwrap().take() {
            let Lead { server, engine, .. } = lead;
            thread::spawn(move || {
                server.request_shutdown();
                let _ = server.join();
                engine.shutdown();
            });
        }
    }

    /// Graceful stop: tears down whichever regime is running and joins
    /// the node's threads.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        if let Some(h) = self.peer_accept.take() {
            let _ = h.join();
        }
        stop_thin(&self.shared);
        // Take the regime *out* of the lock before joining: the server's
        // final metrics render runs the cluster-gauges hook, which locks
        // `lead` — holding the guard across `join()` would self-deadlock.
        let lead = self.shared.lead.lock().unwrap().take();
        if let Some(lead) = lead {
            lead.server.request_shutdown();
            let _ = lead.server.join();
            lead.engine.shutdown();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Peer plane (election + replication listener)
// ---------------------------------------------------------------------

fn peer_accept_loop(listener: TcpListener, shared: Arc<CoordShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let _ = thread::Builder::new()
                    .name("pargrid-coord-peer-conn".into())
                    .spawn(move || peer_conn_loop(stream, shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn peer_conn_loop(stream: TcpStream, shared: Arc<CoordShared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || shared.killed.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // idle poll so the killed flag is honored
            }
            Err(_) => return,
        };
        // A killed node is silent even for frames already in flight.
        if shared.killed.load(Ordering::SeqCst) {
            return;
        }
        let resp = match ClusterRequest::decode(frame.msg_type, &frame.payload) {
            Ok(req) => handle_peer(&shared, req),
            Err(e) => ClusterResponse::ClusterErr(format!("bad request: {e}")),
        };
        let (t, p) = resp.encode();
        if write_frame(&mut writer, t, &p).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

fn handle_peer(shared: &Arc<CoordShared>, req: ClusterRequest) -> ClusterResponse {
    let now = shared.now_ms();
    match req {
        ClusterRequest::VoteRequest {
            term,
            candidate,
            log_len,
            last_log_term,
        } => {
            let mut el = shared.el.lock().unwrap();
            // Election restriction, coordinator edition: the candidate's
            // log must be at least as up-to-date as ours, compared as
            // `(last entry term, length)` — Raft's rule. Length alone is
            // not enough: a partitioned ex-leader keeps entries whose
            // replication failed, so its log can tie ours on length
            // while diverging in content; its older last-entry term is
            // what gives it away.
            let log_ok = {
                let repl = shared.repl.lock().unwrap();
                crate::election::log_up_to_date(
                    last_log_term,
                    log_len,
                    repl.log.last_term(),
                    repl.log.len(),
                )
            };
            let granted = el.grant_vote(term, candidate, log_ok, now);
            ClusterResponse::VoteReply {
                term: el.term,
                granted,
            }
        }
        ClusterRequest::MetaAppend {
            term,
            leader,
            commit,
            start_index,
            ops,
        } => {
            let mut el = shared.el.lock().unwrap();
            if !el.on_leader_message(term, now) {
                let log_len = shared.repl.lock().unwrap().log.len();
                return ClusterResponse::MetaAck {
                    term: el.term,
                    ok: false,
                    log_len,
                };
            }
            let my_term = el.term;
            drop(el);
            let mut repl = shared.repl.lock().unwrap();
            let ok = repl.log.install(term, start_index, &ops);
            if ok {
                let len = repl.log.len();
                let new_commit = repl.log.commit.max(commit.min(len));
                repl.log.commit = new_commit;
                shared.commit_cell.store(new_commit, Ordering::Relaxed);
                let mut gf = shared.gf.lock().unwrap();
                repl.log.apply_to(&mut gf, new_commit);
            }
            if let Some(p) = shared.cfg.peers.iter().find(|p| p.id == leader) {
                repl.leader_hint = p.client_addr.clone();
            }
            ClusterResponse::MetaAck {
                term: my_term,
                ok,
                log_len: repl.log.len(),
            }
        }
        ClusterRequest::Heartbeat { term, .. } => {
            let mut el = shared.el.lock().unwrap();
            el.on_leader_message(term, now);
            ClusterResponse::HeartbeatAck {
                term: el.term,
                epoch: el.term,
            }
        }
        _ => ClusterResponse::ClusterErr("not a coordinator-plane request".into()),
    }
}

// ---------------------------------------------------------------------
// Ticker: elections, heartbeats, replication, commit advancement
// ---------------------------------------------------------------------

fn ticker_loop(shared: Arc<CoordShared>) {
    let mut last_beat = Instant::now();
    let mut round: u64 = 0;
    while !shared.shutdown.load(Ordering::SeqCst) {
        thread::sleep(Duration::from_millis(TICK_MS));
        if shared.killed.load(Ordering::SeqCst) {
            continue; // dead nodes don't tick; join still works
        }
        let now = shared.now_ms();
        let mut el = shared.el.lock().unwrap();
        match el.role {
            Role::Leader => {
                if last_beat.elapsed() >= Duration::from_millis(shared.cfg.heartbeat_ms) {
                    last_beat = Instant::now();
                    round += 1;
                    let deposed = replicate_round(&shared, el.term, el.id, round);
                    if deposed {
                        // A standby is ahead of us: step down and tear
                        // the regime down outside the el lock.
                        let term = el.term;
                        el.on_leader_message(term + 1, now);
                        drop(el);
                        demote(&shared);
                        continue;
                    }
                }
            }
            _ => {
                // A node that lost leadership through a vote grant still
                // holds a live regime; retire it before electioneering.
                if shared.lead.lock().unwrap().is_some() {
                    drop(el);
                    demote(&shared);
                    continue;
                }
                if el.tick(now) {
                    let term = el.term;
                    drop(el);
                    run_election(&shared, term);
                }
            }
        }
    }
}

/// Solicits votes for `term` from every peer coordinator and worker;
/// promotes on quorum.
fn run_election(shared: &Arc<CoordShared>, term: u64) {
    let (log_len, last_log_term) = {
        let repl = shared.repl.lock().unwrap();
        (repl.log.len(), repl.log.last_term())
    };
    let req = ClusterRequest::VoteRequest {
        term,
        candidate: shared.cfg.id,
        log_len,
        last_log_term,
    };
    let mut won = false;
    {
        let addrs: Vec<String> = shared
            .cfg
            .peers
            .iter()
            .map(|p| p.peer_addr.clone())
            .chain(shared.cfg.workers.iter().cloned())
            .collect();
        let mut el = shared.el.lock().unwrap();
        for addr in addrs {
            if el.role != Role::Candidate || el.term != term {
                return; // deposed mid-election
            }
            drop(el);
            let vote = quick_round_trip(&addr, &req);
            el = shared.el.lock().unwrap();
            if let Ok(ClusterResponse::VoteReply {
                term: vterm,
                granted,
            }) = vote
            {
                if el.on_vote(vterm, granted) {
                    el.become_leader();
                    won = true;
                    break;
                }
            }
        }
    }
    if won {
        promote(shared, term);
    }
}

/// One replication/heartbeat round to every standby. Returns `true` if a
/// standby answered from a higher term (we are deposed).
///
/// Offline standbys are only probed every 8th round: each probe of a
/// dead host can eat a full connect/read timeout, and paying that on
/// every heartbeat would starve the *live* followers of appends long
/// enough to trigger spurious elections.
fn replicate_round(shared: &Arc<CoordShared>, term: u64, id: u32, round: u64) -> bool {
    let mut repl = shared.repl.lock().unwrap();
    let len = repl.log.len();
    let commit = repl.log.commit;
    for (i, peer) in shared.cfg.peers.iter().enumerate() {
        if !repl.peers[i].online && !round.is_multiple_of(8) {
            continue;
        }
        let start = repl.peers[i].acked + 1;
        let ops = repl.log.from_index(start);
        let req = ClusterRequest::MetaAppend {
            term,
            leader: id,
            commit,
            start_index: start,
            ops,
        };
        match quick_round_trip(&peer.peer_addr, &req) {
            Ok(ClusterResponse::MetaAck {
                term: t,
                ok,
                log_len,
            }) => {
                if t > term {
                    return true;
                }
                let p = &mut repl.peers[i];
                p.strikes = 0;
                p.online = true;
                p.joined_term = true;
                p.acked = if ok { log_len } else { log_len.min(len) };
            }
            _ => {
                let p = &mut repl.peers[i];
                p.strikes += 1;
                if p.strikes >= OFFLINE_STRIKES {
                    p.online = false;
                }
            }
        }
    }
    let waived = repl.replication_waived(shared.cfg.peers.is_empty());
    let new_commit = advance_commit(&mut repl, waived, len);
    shared.commit_cell.store(new_commit, Ordering::Relaxed);
    // Keep the leader's own mirror warm so a future demotion resumes
    // from a consistent cursor.
    let mut gf = shared.gf.lock().unwrap();
    repl.log.apply_to(&mut gf, new_commit);
    false
}

/// Advances the commit index to the lowest ack among *online* standbys.
/// With every standby offline the commit must NOT advance — `min()` over
/// an empty set is no evidence at all, and treating it as `len` would
/// ack writes held by zero replicas (lost on the next leader death).
/// Only when replication is waived (no standbys configured, or none ever
/// joined this regime — see [`Repl::replication_waived`]) does the
/// leader commit on its own log.
fn advance_commit(repl: &mut Repl, waived: bool, len: u64) -> u64 {
    let min_acked = repl
        .peers
        .iter()
        .filter(|p| p.online)
        .map(|p| p.acked)
        .min();
    let new_commit = match min_acked {
        Some(m) => repl.log.commit.max(m.min(len)),
        None if waived => repl.log.commit.max(len),
        None => repl.log.commit,
    };
    repl.log.commit = new_commit;
    new_commit
}

// ---------------------------------------------------------------------
// Regime changes
// ---------------------------------------------------------------------

/// Becomes leader of `term`: apply the full log, build the engine over
/// the fenced remote backend, swap the thin listener for the real
/// server.
fn promote(shared: &Arc<CoordShared>, term: u64) {
    shared.failovers.fetch_add(1, Ordering::Relaxed);
    stop_thin(shared);
    let gf_snapshot = {
        let mut repl = shared.repl.lock().unwrap();
        // Stamp the new regime onto the log (Raft's leader no-op): the
        // log now *ends* at this term, so the `(last term, length)`
        // election restriction immediately distinguishes logs that
        // followed this leader from any divergent same-length log a
        // deposed predecessor kept.
        repl.log.append(term, MetaOp::Noop);
        // Apply everything in the log — committed prefix *and* tail. The
        // unanimous-ack rule guarantees every acknowledged mutation is
        // here; unacknowledged tail entries are indeterminate and safe
        // to apply because applies are upserts. The commit index is NOT
        // advanced here: advertising `len` as committed before a single
        // standby holds this log would poison the workers' vote guard —
        // if this leader died pre-replication, no surviving log could
        // ever satisfy `(commit_term, commit_seen)` and the cluster
        // would stall unelectable. The first replication round (next
        // heartbeat, or the first gated mutation) advances it instead.
        let len = repl.log.len();
        for p in repl.peers.iter_mut() {
            p.acked = 0;
            p.strikes = 0;
            p.online = true;
            // A new term starts with an empty replication set: each
            // standby re-joins by answering its first round. One that
            // never does (it is the dead ex-leader) never gates writes.
            p.joined_term = false;
        }
        repl.leader_hint = shared.cfg.client_listen.clone();
        let mut gf = shared.gf.lock().unwrap();
        repl.log.apply_to(&mut gf, len);
        Arc::new(gf.clone())
    };
    let backend = Arc::new(
        RemoteBackend::new(shared.cfg.workers.clone(), term)
            .with_commit_cell(Arc::clone(&shared.commit_cell))
            .with_heartbeat(shared.cfg.heartbeat_ms.max(20) * 2, shared.cfg.lease_ttl_ms),
    );
    let engine = (shared.builder)(gf_snapshot, Arc::clone(&backend));
    let weak = Arc::downgrade(shared);
    let hooks = ClusterHooks {
        mutation_gate: Arc::new({
            let weak = weak.clone();
            move |op| mutation_gate(&weak, op)
        }),
        extra_metrics: Arc::new(move |pw| {
            if let Some(shared) = weak.upgrade() {
                cluster_gauges(&shared, pw);
            }
        }),
    };
    let mut server_cfg = shared.cfg.server.clone();
    server_cfg.cluster = Some(hooks);
    // The thin listener just released this address; give the kernel a
    // few chances to finish the handoff.
    let mut server = None;
    for _ in 0..50 {
        match Server::start(
            Arc::clone(&engine),
            &shared.cfg.client_listen,
            server_cfg.clone(),
        ) {
            Ok(s) => {
                server = Some(s);
                break;
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
    let Some(server) = server else {
        // Could not bind: surrender leadership (the next timeout
        // re-elects; possibly us, after the port frees up).
        engine.shutdown();
        let now = shared.now_ms();
        shared.el.lock().unwrap().on_leader_message(term, now);
        start_thin(shared);
        return;
    };
    *shared.lead.lock().unwrap() = Some(Lead {
        server,
        engine,
        backend,
    });
}

/// Retires a deposed leader's regime and resumes standby duty.
fn demote(shared: &Arc<CoordShared>) {
    // Move the regime out of the lock before joining — the server's final
    // metrics render runs the cluster-gauges hook, which locks `lead`.
    let lead = shared.lead.lock().unwrap().take();
    if let Some(lead) = lead {
        lead.server.request_shutdown();
        let _ = lead.server.join();
        lead.engine.shutdown();
    }
    start_thin(shared);
}

/// The leader-side mutation gate (runs on the server's connection
/// threads): append to the log, replicate to every online standby, only
/// then let the engine apply. For inserts, clear any stale copy first so
/// retried-indeterminate mutations stay exactly-once.
fn mutation_gate(weak: &Weak<CoordShared>, op: &MetaOp) -> Result<(), WireError> {
    let Some(shared) = weak.upgrade() else {
        return Err(WireError::NotLeader {
            hint: String::new(),
        });
    };
    if shared.killed.load(Ordering::SeqCst) {
        return Err(WireError::NotLeader {
            hint: String::new(),
        });
    }
    let term = {
        let el = shared.el.lock().unwrap();
        if el.role != Role::Leader {
            let hint = shared.repl.lock().unwrap().leader_hint.clone();
            return Err(WireError::NotLeader { hint });
        }
        el.term
    };
    let engine = shared
        .lead
        .lock()
        .unwrap()
        .as_ref()
        .map(|l| Arc::clone(&l.engine));
    {
        let mut repl = shared.repl.lock().unwrap();
        // A regime that *had* a live standby must never ack a write held
        // by zero replicas: if every joined standby is struck offline,
        // refuse (cleanly — nothing appended, the client can retry
        // later) rather than silently degrading to unreplicated
        // durability. The ticker's probe rounds bring recovered standbys
        // back online. A regime whose standbys were already dead at
        // promotion (the post-failover survivor) is waived: its degraded
        // mode began with an observable election, not a silent blip.
        if !repl.replication_waived(shared.cfg.peers.is_empty())
            && repl.peers.iter().all(|p| !p.online)
        {
            return Err(WireError::MutationFailed(
                "no online standby to replicate to; refusing unreplicated write".into(),
            ));
        }
        repl.log.append(term, op.clone());
        let len = repl.log.len();
        for (i, peer) in shared.cfg.peers.iter().enumerate() {
            if !repl.peers[i].online {
                continue;
            }
            let start = repl.peers[i].acked + 1;
            let ops = repl.log.from_index(start);
            let req = ClusterRequest::MetaAppend {
                term,
                leader: shared.cfg.id,
                commit: repl.log.commit,
                start_index: start,
                ops,
            };
            match quick_round_trip(&peer.peer_addr, &req) {
                Ok(ClusterResponse::MetaAck { term: t, .. }) if t > term => {
                    let hint = repl.leader_hint.clone();
                    return Err(WireError::NotLeader { hint });
                }
                Ok(ClusterResponse::MetaAck {
                    ok: true, log_len, ..
                }) => {
                    repl.peers[i].acked = log_len;
                    repl.peers[i].joined_term = true;
                }
                _ => {
                    repl.peers[i].strikes += 1;
                    if repl.peers[i].strikes >= OFFLINE_STRIKES {
                        repl.peers[i].online = false;
                    }
                    return Err(WireError::MutationFailed(
                        "replication to a standby failed; outcome indeterminate".into(),
                    ));
                }
            }
        }
        let waived = repl.replication_waived(shared.cfg.peers.is_empty());
        let new_commit = advance_commit(&mut repl, waived, len);
        shared.commit_cell.store(new_commit, Ordering::Relaxed);
    }
    if let (Some(engine), MetaOp::Insert { id, key }) = (engine, op) {
        // Upsert: clear any copy a previous indeterminate attempt left.
        let _ = engine.delete(*id, &Point::new(key));
    }
    Ok(())
}

/// Cluster gauges appended to the leader's metrics document.
fn cluster_gauges(shared: &Arc<CoordShared>, pw: &mut PromWriter) {
    let (term, leading) = {
        let el = shared.el.lock().unwrap();
        (el.term, el.role == Role::Leader)
    };
    pw.gauge(
        names::CLUSTER_LEADER_TERM,
        "Current election term (== fencing epoch when leading).",
        term as f64,
    );
    pw.gauge(
        names::CLUSTER_IS_LEADER,
        "1 if this coordinator currently leads.",
        if leading { 1.0 } else { 0.0 },
    );
    pw.counter(
        names::CLUSTER_FAILOVERS_TOTAL,
        "Leadership promotions performed by this process.",
        shared.failovers.load(Ordering::Relaxed),
    );
    pw.gauge(
        names::CLUSTER_COMMIT_INDEX,
        "Highest committed metadata-log index.",
        shared.commit_cell.load(Ordering::Relaxed) as f64,
    );
    let online = {
        let repl = shared.repl.lock().unwrap();
        repl.peers.iter().filter(|p| p.online).count()
    };
    pw.gauge(
        names::CLUSTER_ONLINE_STANDBYS,
        "Standby coordinators currently online in the replication set.",
        online as f64,
    );
    // `try_lock`, not `lock`: a scrape racing a demotion/shutdown (which
    // holds `lead` briefly while taking the regime) must not deadlock the
    // metrics path — it just skips the per-worker gauges that scrape.
    let Ok(lead) = shared.lead.try_lock() else {
        return;
    };
    if let Some(lead) = lead.as_ref() {
        pw.gauge(
            names::CLUSTER_LEASE_EPOCH,
            "Epoch of the most recent worker lease grant.",
            lead.backend.lease_epoch() as f64,
        );
        pw.gauge_per_label(
            names::NET_WORKER_ALIVE,
            "Worker-process liveness as seen by the remote backend.",
            "worker",
            &lead.backend.alive_gauges(),
        );
    }
}

// ---------------------------------------------------------------------
// Thin standby listener: NotLeader redirects on the client address
// ---------------------------------------------------------------------

fn start_thin(shared: &Arc<CoordShared>) {
    let mut slot = shared.thin.lock().unwrap();
    if slot.is_some() {
        return;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(shared);
        thread::Builder::new()
            .name("pargrid-coord-thin".into())
            .spawn(move || {
                // The engine server may still be releasing the address.
                // Retry inside the thread, without a cap: a standby that
                // gives up here has no client-facing listener at all, so
                // clients would see connection refused instead of
                // `NotLeader` redirects until the next regime change.
                loop {
                    if stop.load(Ordering::SeqCst)
                        || shared.shutdown.load(Ordering::SeqCst)
                        || shared.killed.load(Ordering::SeqCst)
                    {
                        return;
                    }
                    match TcpListener::bind(&shared.cfg.client_listen) {
                        Ok(listener) => {
                            let _ = listener.set_nonblocking(true);
                            return thin_accept_loop(listener, shared, stop);
                        }
                        Err(_) => thread::sleep(Duration::from_millis(20)),
                    }
                }
            })
            .expect("spawn thin listener thread")
    };
    *slot = Some(Thin { stop, handle });
}

fn stop_thin(shared: &Arc<CoordShared>) {
    if let Some(thin) = shared.thin.lock().unwrap().take() {
        thin.stop.store(true, Ordering::SeqCst);
        let _ = thin.handle.join();
    }
}

fn thin_accept_loop(listener: TcpListener, shared: Arc<CoordShared>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst)
        && !shared.shutdown.load(Ordering::SeqCst)
        && !shared.killed.load(Ordering::SeqCst)
    {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                let _ = thread::Builder::new()
                    .name("pargrid-coord-thin-conn".into())
                    .spawn(move || thin_conn_loop(stream, shared, stop));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

fn thin_conn_loop(stream: TcpStream, shared: Arc<CoordShared>, stop: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        if stop.load(Ordering::SeqCst)
            || shared.shutdown.load(Ordering::SeqCst)
            || shared.killed.load(Ordering::SeqCst)
        {
            return;
        }
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(FrameError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        let resp = match Request::decode(frame.msg_type, &frame.payload) {
            Ok(Request::Ping { token }) => Response::Pong { token },
            Ok(Request::Stats) => {
                let mut pw = PromWriter::new();
                cluster_gauges(&shared, &mut pw);
                Response::StatsText(pw.finish())
            }
            Ok(_) => Response::Error(WireError::NotLeader {
                hint: shared.repl.lock().unwrap().leader_hint.clone(),
            }),
            Err(e) => Response::Error(WireError::Malformed(e.to_string())),
        };
        let (t, p) = resp.encode();
        if write_frame(&mut writer, t, &p).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------

/// One connect + frame round-trip with a short timeout; any failure is
/// collapsed into `Err(())` (the caller treats it as a strike).
///
/// The *connect* is bounded too, not just the read: this runs under the
/// `repl` mutex from the mutation gate and the heartbeat round, so a
/// blackholed peer (SYN dropped, no RST) must cost one short timeout —
/// not the OS's multi-second connect default, which would stall every
/// client mutation and leader heartbeat long enough to trigger
/// cascading spurious elections.
fn quick_round_trip(addr: &str, req: &ClusterRequest) -> Result<ClusterResponse, ()> {
    use std::net::ToSocketAddrs;
    let timeout = Duration::from_millis(PEER_IO_TIMEOUT_MS);
    let sock_addr = addr.to_socket_addrs().map_err(|_| ())?.next().ok_or(())?;
    let stream = TcpStream::connect_timeout(&sock_addr, timeout).map_err(|_| ())?;
    stream.set_nodelay(true).map_err(|_| ())?;
    stream.set_read_timeout(Some(timeout)).map_err(|_| ())?;
    stream.set_write_timeout(Some(timeout)).map_err(|_| ())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|_| ())?);
    let mut writer = BufWriter::new(stream);
    let (t, p) = req.encode();
    write_frame(&mut writer, t, &p).map_err(|_| ())?;
    writer.flush().map_err(|_| ())?;
    let frame = read_frame(&mut reader).map_err(|_| ())?;
    ClusterResponse::decode(frame.msg_type, &frame.payload).map_err(|_| ())
}
