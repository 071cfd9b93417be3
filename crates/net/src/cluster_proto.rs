//! The worker/election wire plane: frames between a coordinator and its
//! worker *processes*, and between coordinator replicas.
//!
//! Same transport as the client plane ([`crate::frame`]: length-prefixed,
//! CRC-32-trailered, versioned), disjoint message-type space (requests
//! `0x20..`, responses `0xA0..`), same codec (`pargrid_gridfile::codec`,
//! one `put` / `take` per field) and so the same total-decoding
//! discipline: hostile bytes can only fail into a typed [`ProtoError`],
//! never panic, and every decoder rejects trailing bytes, non-finite
//! coordinates, and length prefixes that exceed the payload.
//!
//! Three conversations share this plane:
//!
//! * **Dispatch** — a coordinator's remote-worker proxy forwards the
//!   engine's sequenced requests ([`ClusterRequest::DispatchBatch`] for
//!   all of one worker process's pending reads at once,
//!   [`ClusterRequest::Dispatch`], [`ClusterRequest::WriteBlocks`],
//!   [`ClusterRequest::FetchBlocks`]) and the worker answers with
//!   [`ClusterResponse::WorkerReply`]s / acks. The `seq` numbers are the
//!   engine's dispatch sequence numbers, unchanged — the worker's dedup
//!   window and the proxy's retransmits ride them verbatim.
//! * **Liveness + leases** — [`ClusterRequest::Heartbeat`] probes,
//!   [`ClusterRequest::LeaseGrant`] renewals. Every data-plane request
//!   carries the issuing leader's `epoch` (its election term); a worker
//!   rejects anything below its current epoch with
//!   [`ClusterResponse::Fenced`], which is what makes a deposed leader
//!   harmless.
//! * **Election + replication** — [`ClusterRequest::VoteRequest`] /
//!   [`ClusterRequest::MetaAppend`] between coordinators (workers also
//!   vote, so a two-coordinator cluster keeps an electing majority when
//!   one of them dies).

use pargrid_geom::Rect;
use pargrid_gridfile::codec::{
    err, put_keyed, put_records, records_wire_len, take_records, Cur, DecodeError, Wire,
};
use pargrid_gridfile::Record;

use crate::frame::{FrameBuilder, FrameError};
use crate::proto::ProtoError;

// Request type bytes (worker/election plane).
const REQ_WORKER_JOIN: u8 = 0x20;
const REQ_DISPATCH: u8 = 0x21;
const REQ_WRITE_BLOCKS: u8 = 0x22;
const REQ_FETCH_BLOCKS: u8 = 0x23;
const REQ_HEARTBEAT: u8 = 0x24;
const REQ_LEASE_GRANT: u8 = 0x25;
const REQ_VOTE: u8 = 0x26;
const REQ_META_APPEND: u8 = 0x27;
const REQ_DISPATCH_BATCH: u8 = 0x29;

// Response type bytes.
const RESP_WELCOME: u8 = 0xA0;
const RESP_WORKER_REPLY: u8 = 0xA1;
const RESP_BLOCKS_ACK: u8 = 0xA2;
const RESP_RAW_BLOCKS: u8 = 0xA3;
const RESP_HEARTBEAT_ACK: u8 = 0xA4;
const RESP_LEASE_ACK: u8 = 0xA5;
const RESP_VOTE_REPLY: u8 = 0xA6;
const RESP_META_ACK: u8 = 0xA7;
const RESP_FENCED: u8 = 0xA8;
const RESP_CLUSTER_ERR: u8 = 0xA9;

/// The priority byte a dispatch carries. Workers serve requests as they
/// arrive and ignore it; the coordinator always sends this value, and the
/// byte stays so the frame layout does not move.
pub const PRIORITY_INTERACTIVE: u8 = 0;
/// The other value a decoder accepts in the priority byte (see
/// [`PRIORITY_INTERACTIVE`]).
pub const PRIORITY_BATCH: u8 = 1;

/// One replicated-metadata-log operation (the oplog a standby coordinator
/// mirrors so it can take over without violating read-your-write).
#[derive(Clone, Debug, PartialEq)]
pub enum MetaOp {
    /// Leader liveness / commit-advance heartbeat entry.
    Noop,
    /// A client insert acknowledged by the leader.
    Insert {
        /// Record id.
        id: u64,
        /// Record key (the file's dimensionality).
        key: Vec<f64>,
    },
    /// A client delete acknowledged by the leader.
    Delete {
        /// Record id.
        id: u64,
        /// Record key.
        key: Vec<f64>,
    },
    /// The leader ran a rebalance; standbys mirror the epoch so a new
    /// leader re-declusters from at least this topology generation.
    Rebalance {
        /// Monotonic rebalance epoch after the operation.
        epoch: u64,
    },
}

const OP_NOOP: u8 = 0;
const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_REBALANCE: u8 = 3;

/// Tag byte, then the tag's fields; inserts and deletes carry the keyed
/// layout.
impl Wire for MetaOp {
    const MIN_BYTES: usize = 1;

    fn put(&self, p: &mut Vec<u8>) {
        match self {
            MetaOp::Noop => OP_NOOP.put(p),
            MetaOp::Insert { id, key } => {
                OP_INSERT.put(p);
                put_keyed(p, *id, key);
            }
            MetaOp::Delete { id, key } => {
                OP_DELETE.put(p);
                put_keyed(p, *id, key);
            }
            MetaOp::Rebalance { epoch } => {
                OP_REBALANCE.put(p);
                epoch.put(p);
            }
        }
    }

    fn take(c: &mut Cur<'_>) -> Result<MetaOp, DecodeError> {
        Ok(match c.get::<u8>()? {
            OP_NOOP => MetaOp::Noop,
            tag @ (OP_INSERT | OP_DELETE) => {
                let Record { id, point } = c.get()?;
                let key = point.coords().to_vec();
                if tag == OP_INSERT {
                    MetaOp::Insert { id, key }
                } else {
                    MetaOp::Delete { id, key }
                }
            }
            OP_REBALANCE => MetaOp::Rebalance { epoch: c.get()? },
            t => return Err(err(format!("unknown meta op tag {t}"))),
        })
    }
}

/// One item of a [`ClusterRequest::DispatchBatch`]: the
/// [`ClusterRequest::Dispatch`] fields, for the named slot.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchItem {
    /// Worker slot the read is for (joined on this connection).
    pub slot: u32,
    /// Engine query id.
    pub query_id: u64,
    /// Engine-global dispatch sequence number (dedup key).
    pub seq: u64,
    /// [`PRIORITY_INTERACTIVE`] or [`PRIORITY_BATCH`].
    pub priority: u8,
    /// Query rectangle.
    pub rect: Rect,
    /// Block ids to read (slot-local).
    pub blocks: Vec<u32>,
}

/// Slot, then exactly the `Dispatch` fields after its epoch.
impl Wire for BatchItem {
    const MIN_BYTES: usize = 4 + 8 + 8 + 1 + Rect::MIN_BYTES + 4;

    fn put(&self, p: &mut Vec<u8>) {
        self.slot.put(p);
        put_dispatch(
            p,
            self.query_id,
            self.seq,
            self.priority,
            &self.rect,
            &self.blocks,
        );
    }

    fn take(c: &mut Cur<'_>) -> Result<BatchItem, DecodeError> {
        Ok(BatchItem {
            slot: c.get()?,
            query_id: c.get()?,
            seq: c.get()?,
            priority: take_priority(c)?,
            rect: c.get()?,
            blocks: c.get()?,
        })
    }
}

/// The `Dispatch` fields after the epoch, shared with [`BatchItem`].
fn put_dispatch(
    p: &mut Vec<u8>,
    query_id: u64,
    seq: u64,
    priority: u8,
    rect: &Rect,
    blocks: &[u32],
) {
    p.reserve(33 + 16 * rect.dim() + 4 * blocks.len());
    query_id.put(p);
    seq.put(p);
    priority.put(p);
    rect.put(p);
    (blocks.len() as u32).put(p);
    u32::put_all(blocks, p);
}

fn take_priority(c: &mut Cur<'_>) -> Result<u8, DecodeError> {
    match c.get::<u8>()? {
        p @ (PRIORITY_INTERACTIVE | PRIORITY_BATCH) => Ok(p),
        p => Err(err(format!("bad priority byte {p}"))),
    }
}

/// A worker's answer to one [`ClusterRequest::Dispatch`] — the wire form
/// of the engine's `FromWorker` (minus its in-process reply channel).
#[derive(Clone, Debug, PartialEq)]
pub struct WireReply {
    /// Echo of the dispatch's query id.
    pub query_id: u64,
    /// Echo of the dispatch's engine-global sequence number.
    pub seq: u64,
    /// The worker slot that serviced it.
    pub worker: u32,
    /// Blocks the dispatch asked for.
    pub blocks_requested: u64,
    /// Buffer-cache hits among them. Workers keep no cost model and send 0
    /// here and in `disk_us`; the fields stay for the wire format.
    pub cache_hits: u64,
    /// Virtual disk time charged to this request, microseconds.
    pub disk_us: u64,
    /// Virtual CPU time (decode + filter), microseconds.
    pub cpu_us: u64,
    /// Blocks whose stored checksum no longer matched (scrub candidates).
    pub corrupt_blocks: Vec<u32>,
    /// Service error, if the request failed (unreadable block, poison).
    pub error: Option<String>,
    /// Qualifying records.
    pub records: Vec<Record>,
}

/// Requests on the worker/election plane.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterRequest {
    /// First frame on a proxy→worker connection: claims slot `slot` for
    /// leader epoch `epoch`. A join with a *higher* epoch resets the
    /// worker's store, dedup window, and reply cache (a new regime); the
    /// same epoch reattaches after a dropped connection, keeping all
    /// three; a lower epoch is [`ClusterResponse::Fenced`].
    WorkerJoin {
        /// Worker slot index this connection serves.
        slot: u32,
        /// Issuing leader's epoch (election term).
        epoch: u64,
        /// Record payload size, needed to decode pages.
        payload_bytes: u32,
        /// Retransmit-dedup window size (PR 4's seen-seq window).
        seen_seq_window: u32,
    },
    /// One sequenced read request (the engine's `ToWorker::Process` unit).
    Dispatch {
        /// Issuing leader's epoch; fenced if stale.
        epoch: u64,
        /// Engine query id.
        query_id: u64,
        /// Engine-global dispatch sequence number (dedup key).
        seq: u64,
        /// [`PRIORITY_INTERACTIVE`] or [`PRIORITY_BATCH`].
        priority: u8,
        /// Query rectangle.
        rect: Rect,
        /// Block ids to read (worker-local).
        blocks: Vec<u32>,
    },
    /// Several sequenced reads for slots joined on this connection — a
    /// proxy's whole queue for one worker process in one frame. Answered
    /// with one response frame per item, in item order: a
    /// [`ClusterResponse::WorkerReply`], or that item's
    /// [`ClusterResponse::ClusterErr`] / [`ClusterResponse::Fenced`].
    DispatchBatch {
        /// Issuing leader's epoch; every item is fenced if stale.
        epoch: u64,
        /// The reads, answered in this order.
        items: Vec<BatchItem>,
    },
    /// Raw block upload/overwrite (bulk load on join, scrub repair,
    /// mutation pages) — the engine's `ToWorker::WriteRaw` on the wire.
    WriteBlocks {
        /// Issuing leader's epoch; fenced if stale.
        epoch: u64,
        /// `(block id, page bytes)` pairs.
        blocks: Vec<(u32, Vec<u8>)>,
    },
    /// Raw verified block read (scrub material) — `ToWorker::FetchRaw`.
    FetchBlocks {
        /// Issuing leader's epoch; fenced if stale.
        epoch: u64,
        /// Block ids wanted.
        blocks: Vec<u32>,
    },
    /// Liveness probe; also how a proxy learns it has been deposed.
    /// The leader piggybacks its committed metadata-log index so workers
    /// can refuse votes to candidates whose log would lose acknowledged
    /// writes (the election restriction, worker edition).
    Heartbeat {
        /// Sender's election term.
        term: u64,
        /// Sender's epoch (0 when probing without a lease).
        epoch: u64,
        /// Sender's committed metadata-log index (0 from non-leaders).
        commit: u64,
    },
    /// Lease establishment/renewal: the worker records `epoch` as current
    /// for `ttl_ms`. Bounds how long a partitioned deposed leader can
    /// keep dispatching before its next renewal fails.
    LeaseGrant {
        /// Leader epoch taking the lease.
        epoch: u64,
        /// Lease duration, milliseconds.
        ttl_ms: u32,
    },
    /// A candidate coordinator asks for this node's vote in `term`.
    /// Workers vote too (first candidate per term wins the vote), so a
    /// 2-coordinator cluster still has an electing majority after losing
    /// its leader.
    VoteRequest {
        /// Candidate's proposed term.
        term: u64,
        /// Candidate's node id.
        candidate: u32,
        /// Candidate's metadata-log length (its last entry's index).
        log_len: u64,
        /// Term of the candidate's last metadata-log entry (0 when the
        /// log is empty). Voters compare `(last_log_term, log_len)`
        /// lexicographically against their own log — the Raft election
        /// restriction — so a divergent same-length log from an older
        /// regime cannot win.
        last_log_term: u64,
    },
    /// Leader→standby metadata replication: entries
    /// `start_index..start_index + ops.len()` (1-based, consecutive),
    /// plus the leader's commit index. An empty `ops` is the leader
    /// heartbeat.
    MetaAppend {
        /// Leader's term.
        term: u64,
        /// Leader's node id.
        leader: u32,
        /// Highest log index known replicated on every standby; the
        /// receiver applies its log up to here.
        commit: u64,
        /// Index of the first op in `ops` (1-based).
        start_index: u64,
        /// The operations themselves.
        ops: Vec<MetaOp>,
    },
}

/// Responses on the worker/election plane.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterResponse {
    /// Join accepted.
    Welcome {
        /// Echo of the slot.
        slot: u32,
        /// The worker's current epoch after the join.
        epoch: u64,
        /// Blocks already held for this epoch (a same-epoch reattach
        /// skips the upload when this matches the proxy's store).
        blocks_held: u32,
    },
    /// Answer to a [`ClusterRequest::Dispatch`].
    WorkerReply(WireReply),
    /// Answer to a [`ClusterRequest::WriteBlocks`].
    BlocksAck {
        /// The worker's epoch.
        epoch: u64,
        /// Blocks written.
        written: u32,
    },
    /// Answer to a [`ClusterRequest::FetchBlocks`]: per requested block,
    /// its verified bytes, or `None` if missing/corrupt (never served as
    /// scrub material).
    RawBlocks {
        /// The answering worker slot.
        worker: u32,
        /// `(block id, verified bytes or None)` pairs.
        blocks: Vec<(u32, Option<Vec<u8>>)>,
    },
    /// Answer to a [`ClusterRequest::Heartbeat`].
    HeartbeatAck {
        /// Highest term this node has seen.
        term: u64,
        /// This node's current epoch (0 if it holds no lease).
        epoch: u64,
    },
    /// Answer to a [`ClusterRequest::LeaseGrant`].
    LeaseAck {
        /// Whether the lease was granted/renewed.
        granted: bool,
        /// The node's current epoch after the request.
        epoch: u64,
    },
    /// Answer to a [`ClusterRequest::VoteRequest`].
    VoteReply {
        /// The voter's term after considering the request.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Answer to a [`ClusterRequest::MetaAppend`].
    MetaAck {
        /// The follower's term.
        term: u64,
        /// Whether the entries were appended.
        ok: bool,
        /// The follower's log length after the append (the leader's
        /// replication cursor).
        log_len: u64,
    },
    /// The request carried a stale epoch — the issuer has been deposed.
    /// Its proxy marks the worker dead and the old engine degrades to
    /// incomplete answers instead of wrong ones.
    Fenced {
        /// The node's current (higher) epoch.
        epoch: u64,
    },
    /// Typed catch-all rejection (no state for the slot, not a
    /// coordinator, etc.).
    ClusterErr(
        /// Human-readable reason.
        String,
    ),
}

impl ClusterRequest {
    /// Message type byte + payload for this request.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        let t = match self {
            ClusterRequest::WorkerJoin {
                slot,
                epoch,
                payload_bytes,
                seen_seq_window,
            } => {
                slot.put(&mut p);
                epoch.put(&mut p);
                payload_bytes.put(&mut p);
                seen_seq_window.put(&mut p);
                REQ_WORKER_JOIN
            }
            ClusterRequest::Dispatch {
                epoch,
                query_id,
                seq,
                priority,
                rect,
                blocks,
            } => {
                epoch.put(&mut p);
                put_dispatch(&mut p, *query_id, *seq, *priority, rect, blocks);
                REQ_DISPATCH
            }
            ClusterRequest::DispatchBatch { epoch, items } => {
                epoch.put(&mut p);
                items.put(&mut p);
                REQ_DISPATCH_BATCH
            }
            ClusterRequest::WriteBlocks { epoch, blocks } => {
                p.reserve(12 + blocks.iter().map(|(_, b)| 8 + b.len()).sum::<usize>());
                epoch.put(&mut p);
                blocks.put(&mut p);
                REQ_WRITE_BLOCKS
            }
            ClusterRequest::FetchBlocks { epoch, blocks } => {
                epoch.put(&mut p);
                blocks.put(&mut p);
                REQ_FETCH_BLOCKS
            }
            ClusterRequest::Heartbeat {
                term,
                epoch,
                commit,
            } => {
                term.put(&mut p);
                epoch.put(&mut p);
                commit.put(&mut p);
                REQ_HEARTBEAT
            }
            ClusterRequest::LeaseGrant { epoch, ttl_ms } => {
                epoch.put(&mut p);
                ttl_ms.put(&mut p);
                REQ_LEASE_GRANT
            }
            ClusterRequest::VoteRequest {
                term,
                candidate,
                log_len,
                last_log_term,
            } => {
                term.put(&mut p);
                candidate.put(&mut p);
                log_len.put(&mut p);
                last_log_term.put(&mut p);
                REQ_VOTE
            }
            ClusterRequest::MetaAppend {
                term,
                leader,
                commit,
                start_index,
                ops,
            } => {
                term.put(&mut p);
                leader.put(&mut p);
                commit.put(&mut p);
                start_index.put(&mut p);
                ops.put(&mut p);
                REQ_META_APPEND
            }
        };
        (t, p)
    }

    /// Decodes a request payload. Total: hostile bytes fail typed, never
    /// panic, and trailing bytes are rejected.
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<ClusterRequest, ProtoError> {
        let mut c = Cur::new(payload);
        let req = match msg_type {
            REQ_WORKER_JOIN => ClusterRequest::WorkerJoin {
                slot: c.get()?,
                epoch: c.get()?,
                payload_bytes: c.get()?,
                seen_seq_window: c.get()?,
            },
            REQ_DISPATCH => ClusterRequest::Dispatch {
                epoch: c.get()?,
                query_id: c.get()?,
                seq: c.get()?,
                priority: take_priority(&mut c)?,
                rect: c.get()?,
                blocks: c.get()?,
            },
            REQ_DISPATCH_BATCH => ClusterRequest::DispatchBatch {
                epoch: c.get()?,
                items: c.get()?,
            },
            REQ_WRITE_BLOCKS => ClusterRequest::WriteBlocks {
                epoch: c.get()?,
                blocks: c.get()?,
            },
            REQ_FETCH_BLOCKS => ClusterRequest::FetchBlocks {
                epoch: c.get()?,
                blocks: c.get()?,
            },
            REQ_HEARTBEAT => ClusterRequest::Heartbeat {
                term: c.get()?,
                epoch: c.get()?,
                commit: c.get()?,
            },
            REQ_LEASE_GRANT => ClusterRequest::LeaseGrant {
                epoch: c.get()?,
                ttl_ms: c.get()?,
            },
            REQ_VOTE => ClusterRequest::VoteRequest {
                term: c.get()?,
                candidate: c.get()?,
                log_len: c.get()?,
                last_log_term: c.get()?,
            },
            REQ_META_APPEND => ClusterRequest::MetaAppend {
                term: c.get()?,
                leader: c.get()?,
                commit: c.get()?,
                start_index: c.get()?,
                ops: c.get()?,
            },
            t => return Err(err(format!("unknown cluster request type {t:#04x}"))),
        };
        c.done()?;
        Ok(req)
    }
}

impl ClusterResponse {
    /// Message type byte + payload for this response.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        let t = self.encode_into(&mut p);
        (t, p)
    }

    /// This response as complete wire bytes, its payload serialized straight
    /// into the frame buffer (one allocation, no payload copy) — what a
    /// worker writes and keeps in its reply cache.
    pub fn encode_frame(&self) -> Result<Vec<u8>, FrameError> {
        let mut b = FrameBuilder::new();
        let t = self.encode_into(b.payload_mut());
        b.finish(t)
    }

    /// Appends this response's payload to `p` and returns its type byte.
    fn encode_into(&self, p: &mut Vec<u8>) -> u8 {
        match self {
            ClusterResponse::Welcome {
                slot,
                epoch,
                blocks_held,
            } => {
                slot.put(p);
                epoch.put(p);
                blocks_held.put(p);
                RESP_WELCOME
            }
            ClusterResponse::WorkerReply(r) => {
                p.reserve(
                    57 + 4 * r.corrupt_blocks.len()
                        + r.error.as_ref().map_or(0, |m| 4 + m.len())
                        + records_wire_len(&r.records),
                );
                r.query_id.put(p);
                r.seq.put(p);
                r.worker.put(p);
                for v in [r.blocks_requested, r.cache_hits, r.disk_us, r.cpu_us] {
                    v.put(p);
                }
                r.corrupt_blocks.put(p);
                r.error.put(p);
                put_records(p, &r.records);
                RESP_WORKER_REPLY
            }
            ClusterResponse::BlocksAck { epoch, written } => {
                epoch.put(p);
                written.put(p);
                RESP_BLOCKS_ACK
            }
            ClusterResponse::RawBlocks { worker, blocks } => {
                let bytes: usize = blocks
                    .iter()
                    .map(|(_, b)| 9 + b.as_ref().map_or(0, Vec::len))
                    .sum();
                p.reserve(8 + bytes);
                worker.put(p);
                blocks.put(p);
                RESP_RAW_BLOCKS
            }
            ClusterResponse::HeartbeatAck { term, epoch } => {
                term.put(p);
                epoch.put(p);
                RESP_HEARTBEAT_ACK
            }
            ClusterResponse::LeaseAck { granted, epoch } => {
                granted.put(p);
                epoch.put(p);
                RESP_LEASE_ACK
            }
            ClusterResponse::VoteReply { term, granted } => {
                term.put(p);
                granted.put(p);
                RESP_VOTE_REPLY
            }
            ClusterResponse::MetaAck { term, ok, log_len } => {
                term.put(p);
                ok.put(p);
                log_len.put(p);
                RESP_META_ACK
            }
            ClusterResponse::Fenced { epoch } => {
                epoch.put(p);
                RESP_FENCED
            }
            ClusterResponse::ClusterErr(msg) => {
                msg.put(p);
                RESP_CLUSTER_ERR
            }
        }
    }

    /// Decodes a response payload. Total, like [`ClusterRequest::decode`].
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<ClusterResponse, ProtoError> {
        let mut c = Cur::new(payload);
        let resp = match msg_type {
            RESP_WELCOME => ClusterResponse::Welcome {
                slot: c.get()?,
                epoch: c.get()?,
                blocks_held: c.get()?,
            },
            RESP_WORKER_REPLY => ClusterResponse::WorkerReply(WireReply {
                query_id: c.get()?,
                seq: c.get()?,
                worker: c.get()?,
                blocks_requested: c.get()?,
                cache_hits: c.get()?,
                disk_us: c.get()?,
                cpu_us: c.get()?,
                corrupt_blocks: c.get()?,
                error: c.get()?,
                records: take_records(&mut c)?,
            }),
            RESP_BLOCKS_ACK => ClusterResponse::BlocksAck {
                epoch: c.get()?,
                written: c.get()?,
            },
            RESP_RAW_BLOCKS => ClusterResponse::RawBlocks {
                worker: c.get()?,
                blocks: c.get()?,
            },
            RESP_HEARTBEAT_ACK => ClusterResponse::HeartbeatAck {
                term: c.get()?,
                epoch: c.get()?,
            },
            RESP_LEASE_ACK => ClusterResponse::LeaseAck {
                granted: c.get()?,
                epoch: c.get()?,
            },
            RESP_VOTE_REPLY => ClusterResponse::VoteReply {
                term: c.get()?,
                granted: c.get()?,
            },
            RESP_META_ACK => ClusterResponse::MetaAck {
                term: c.get()?,
                ok: c.get()?,
                log_len: c.get()?,
            },
            RESP_FENCED => ClusterResponse::Fenced { epoch: c.get()? },
            RESP_CLUSTER_ERR => ClusterResponse::ClusterErr(c.get()?),
            t => return Err(err(format!("unknown cluster response type {t:#04x}"))),
        };
        c.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
use pargrid_geom::Point;

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_request(req: ClusterRequest) {
        let (t, p) = req.encode();
        let back = ClusterRequest::decode(t, &p).expect("round trip");
        assert_eq!(req, back);
    }

    fn rt_response(resp: ClusterResponse) {
        let (t, p) = resp.encode();
        let back = ClusterResponse::decode(t, &p).expect("round trip");
        assert_eq!(resp, back);
    }

    #[test]
    fn requests_round_trip() {
        rt_request(ClusterRequest::WorkerJoin {
            slot: 3,
            epoch: 7,
            payload_bytes: 42,
            seen_seq_window: 4096,
        });
        rt_request(ClusterRequest::Dispatch {
            epoch: 7,
            query_id: 11,
            seq: 99,
            priority: PRIORITY_INTERACTIVE,
            rect: Rect::new(Point::new2(0.0, -1.0), Point::new2(10.0, 1.0)),
            blocks: vec![0, 5, 9],
        });
        rt_request(ClusterRequest::DispatchBatch {
            epoch: 7,
            items: vec![
                BatchItem {
                    slot: 1,
                    query_id: 11,
                    seq: 99,
                    priority: PRIORITY_INTERACTIVE,
                    rect: Rect::new(Point::new2(0.0, -1.0), Point::new2(10.0, 1.0)),
                    blocks: vec![0, 5, 9],
                },
                BatchItem {
                    slot: 5,
                    query_id: 11,
                    seq: 100,
                    priority: PRIORITY_BATCH,
                    rect: Rect::new(Point::new2(0.0, 0.0), Point::new2(1.0, 1.0)),
                    blocks: vec![],
                },
            ],
        });
        rt_request(ClusterRequest::WriteBlocks {
            epoch: 7,
            blocks: vec![(0, vec![1, 2, 3]), (1, vec![])],
        });
        rt_request(ClusterRequest::FetchBlocks {
            epoch: 7,
            blocks: vec![2, 4],
        });
        rt_request(ClusterRequest::Heartbeat {
            term: 3,
            epoch: 7,
            commit: 12,
        });
        rt_request(ClusterRequest::LeaseGrant {
            epoch: 7,
            ttl_ms: 500,
        });
        rt_request(ClusterRequest::VoteRequest {
            term: 4,
            candidate: 1,
            log_len: 17,
            last_log_term: 3,
        });
        rt_request(ClusterRequest::MetaAppend {
            term: 4,
            leader: 1,
            commit: 16,
            start_index: 17,
            ops: vec![
                MetaOp::Noop,
                MetaOp::Insert {
                    id: 9,
                    key: vec![1.0, 2.0],
                },
                MetaOp::Delete {
                    id: 9,
                    key: vec![1.0, 2.0],
                },
                MetaOp::Rebalance { epoch: 2 },
            ],
        });
    }

    #[test]
    fn responses_round_trip() {
        rt_response(ClusterResponse::Welcome {
            slot: 3,
            epoch: 7,
            blocks_held: 12,
        });
        rt_response(ClusterResponse::WorkerReply(WireReply {
            query_id: 11,
            seq: 99,
            worker: 3,
            blocks_requested: 4,
            cache_hits: 2,
            disk_us: 1000,
            cpu_us: 10,
            corrupt_blocks: vec![5],
            error: Some("bad block".into()),
            records: vec![Record::new(1, Point::new2(3.0, 4.0))],
        }));
        rt_response(ClusterResponse::BlocksAck {
            epoch: 7,
            written: 2,
        });
        rt_response(ClusterResponse::RawBlocks {
            worker: 1,
            blocks: vec![(0, Some(vec![9, 9])), (1, None)],
        });
        rt_response(ClusterResponse::HeartbeatAck { term: 3, epoch: 7 });
        rt_response(ClusterResponse::LeaseAck {
            granted: true,
            epoch: 7,
        });
        rt_response(ClusterResponse::VoteReply {
            term: 4,
            granted: false,
        });
        rt_response(ClusterResponse::MetaAck {
            term: 4,
            ok: true,
            log_len: 17,
        });
        rt_response(ClusterResponse::Fenced { epoch: 9 });
        rt_response(ClusterResponse::ClusterErr("nope".into()));
    }

    #[test]
    fn inverted_rect_is_rejected_not_asserted() {
        let (t, mut p) = ClusterRequest::Dispatch {
            epoch: 1,
            query_id: 1,
            seq: 1,
            priority: 0,
            rect: Rect::new(Point::new2(0.0, 0.0), Point::new2(1.0, 1.0)),
            blocks: vec![],
        }
        .encode();
        // Swap lo/hi of dimension 0 (offsets 27..35 lo, 35..43 hi).
        p[27..35].copy_from_slice(&5.0f64.to_le_bytes());
        p[35..43].copy_from_slice(&1.0f64.to_le_bytes());
        let e = ClusterRequest::decode(t, &p).expect_err("inverted rect");
        assert!(e.0.contains("inverted"), "{e}");
    }

    #[test]
    fn hostile_counts_cannot_overallocate() {
        let mut p = Vec::new();
        p.extend_from_slice(&7u64.to_le_bytes());
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        let e = ClusterRequest::decode(REQ_FETCH_BLOCKS, &p).expect_err("hostile count");
        assert!(e.0.contains("exceeds payload"), "{e}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (t, mut p) = ClusterRequest::Heartbeat {
            term: 1,
            epoch: 2,
            commit: 0,
        }
        .encode();
        p.push(0);
        assert!(ClusterRequest::decode(t, &p).is_err());
        let (t, mut p) = ClusterResponse::Fenced { epoch: 3 }.encode();
        p.push(0);
        assert!(ClusterResponse::decode(t, &p).is_err());
    }
}
