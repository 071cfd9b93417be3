//! Typed requests and replies on top of [`crate::frame`].
//!
//! Message type bytes: requests are `0x01..=0x08`, responses set the high
//! bit (`0x81..=0x87`). Payloads are encoded with the workspace codec
//! (`pargrid_gridfile::codec`), one `put` / `take` per field, in the
//! layouts described on each variant. Decoding is strict — trailing bytes, short
//! payloads, non-finite coordinates, unordered intervals, and out-of-range
//! dimensionalities are all typed errors, because the geometry types the
//! server builds from these payloads (`Rect::new`, `Point::new`) assert on
//! such inputs and a hostile client must not be able to reach an assert.

use std::fmt;

use pargrid_geom::{Point, Rect};
use pargrid_gridfile::codec::{
    checked_dim, err, put_keyed, put_records, put_rect, put_str, records_wire_len, take_records,
    Cur, Wire,
};
use pargrid_gridfile::Record;

/// Request: range query. Payload: `dim u16`, then `dim × (lo f64, hi f64)`.
pub const REQ_RANGE: u8 = 0x01;
/// Request: partial match. Payload: `dim u16`, then `dim ×` either tag
/// `0u8` (wildcard) or tag `1u8` + `value f64`.
pub const REQ_PARTIAL: u8 = 0x02;
/// Request: ping. Payload: `token u64`, echoed back.
pub const REQ_PING: u8 = 0x03;
/// Request: server stats as a Prometheus text document. Empty payload.
pub const REQ_STATS: u8 = 0x04;
/// Request: graceful server shutdown (admin; servers may refuse). Empty
/// payload.
pub const REQ_SHUTDOWN: u8 = 0x05;
/// Request: insert a record. Payload: `id u64`, `dim u16`, then
/// `dim × coord f64`.
pub const REQ_INSERT: u8 = 0x06;
/// Request: delete the record with this id at this key. Payload: `id u64`,
/// `dim u16`, then `dim × coord f64`.
pub const REQ_DELETE: u8 = 0x07;
/// Request: elastic rebalance (admin; servers may refuse). Payload:
/// `op u8` (1 = add workers, 2 = remove worker), `value u32`,
/// `dry_run u8` (0/1).
pub const REQ_REBALANCE: u8 = 0x08;

/// Response: records. Payload: `incomplete u8`, `elapsed_us u64`,
/// `comm_us u64`, `response_blocks u64`, `total_blocks u64`,
/// `cache_hits u64`, `n u32`, then `n ×` (`id u64`, `dim u16`,
/// `dim × coord f64`).
pub const RESP_RECORDS: u8 = 0x81;
/// Response: pong. Payload: `token u64`.
pub const RESP_PONG: u8 = 0x82;
/// Response: stats text. Payload: `len u32` + UTF-8 bytes.
pub const RESP_STATS: u8 = 0x83;
/// Response: typed error. Payload: `code u8`, code-specific fields, then
/// `len u32` + UTF-8 message.
pub const RESP_ERROR: u8 = 0x84;
/// Response: shutdown acknowledged. Empty payload.
pub const RESP_SHUTDOWN_ACK: u8 = 0x85;
/// Response: mutation acknowledged. Payload: `applied u8`,
/// `rewritten u32`, `created u32`, `freed u32` (bucket counts).
pub const RESP_MUTATION: u8 = 0x86;
/// Response: rebalance plan (and, unless a dry run, its execution)
/// summary. Payload: `applied u8`, `moves u32`, `moved_bytes u64`,
/// `full_moves u32`, `active_workers u32`, `predicted_objective f64`,
/// `baseline_objective f64`.
pub const RESP_REBALANCE: u8 = 0x87;

const ERR_MALFORMED: u8 = 1;
const ERR_OVERLOADED: u8 = 2;
const ERR_INCOMPLETE: u8 = 3;
const ERR_MUTATION: u8 = 4;
const ERR_NOT_LEADER: u8 = 5;

/// A request a client can put on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Orthogonal range query over the full dimensionality of the file.
    RangeQuery {
        /// Low corner, one value per dimension.
        lo: Vec<f64>,
        /// High corner; `lo[i] <= hi[i]` is enforced at decode time.
        hi: Vec<f64>,
    },
    /// Exact-match on a subset of attributes (`None` = wildcard).
    PartialMatch {
        /// One entry per dimension.
        keys: Vec<Option<f64>>,
    },
    /// Liveness probe carrying an arbitrary token.
    Ping {
        /// Echoed back verbatim in the pong.
        token: u64,
    },
    /// Fetch the server's Prometheus metrics document.
    Stats,
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Insert a record at this key (dimensionality is validated against
    /// the file's at the server).
    Insert {
        /// Application record id.
        id: u64,
        /// One coordinate per dimension.
        key: Vec<f64>,
    },
    /// Delete the record with this id at this key; deleting an absent
    /// record succeeds with `applied == false` in the ack.
    Delete {
        /// Application record id.
        id: u64,
        /// One coordinate per dimension.
        key: Vec<f64>,
    },
    /// Resize the cluster (admin; servers may refuse, like `Shutdown`).
    Rebalance {
        /// What to do with the worker set.
        cmd: RebalanceCmd,
        /// Plan and report without moving any data or changing the layout.
        dry_run: bool,
    },
}

/// The resize a [`Request::Rebalance`] asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebalanceCmd {
    /// Activate this many standby workers and spread load onto them.
    AddWorkers(u32),
    /// Drain this worker slot and deactivate it.
    RemoveWorker(u32),
}

/// Everything a server can answer with.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Query answer.
    Records(RecordsReply),
    /// Ping echo.
    Pong {
        /// The token from the ping.
        token: u64,
    },
    /// Prometheus metrics document.
    StatsText(String),
    /// Typed rejection.
    Error(WireError),
    /// Graceful shutdown underway.
    ShutdownAck,
    /// Mutation applied (or cleanly found nothing to do).
    Mutation(MutationAck),
    /// Rebalance planned (and executed unless it was a dry run).
    Rebalance(RebalanceSummary),
}

/// What a rebalance did (or, for a dry run, would do) — the wire echo of
/// the engine's `RebalanceReport`, minus per-move detail.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RebalanceSummary {
    /// False for a dry run: the plan below was computed but not executed.
    pub applied: bool,
    /// Bucket copies moved (primary + replica).
    pub moves: u32,
    /// Page bytes those moves copied.
    pub moved_bytes: u64,
    /// Primary moves a full re-decluster of the target layout would have
    /// made — the denominator of the bounded-movement claim.
    pub full_moves: u32,
    /// Active workers after the resize.
    pub active_workers: u32,
    /// Co-residency objective of the repaired layout (lower is better).
    pub predicted_objective: f64,
    /// Co-residency objective of the full re-decluster baseline.
    pub baseline_objective: f64,
}

/// What an insert/delete did, in bucket counts — the wire echo of the
/// engine's `MutationOutcome`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MutationAck {
    /// Whether the operation changed anything (a delete of an absent
    /// record acks with `false`).
    pub applied: bool,
    /// Buckets rewritten in place.
    pub rewritten: u32,
    /// Buckets created by splits.
    pub created: u32,
    /// Buckets freed by merges.
    pub freed: u32,
}

/// A successful query answer plus the engine's virtual cost accounting, so
/// remote clients see the same per-query economics as in-process sessions.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecordsReply {
    /// True if some blocks could not be served (worker deaths, deadline).
    pub incomplete: bool,
    /// Virtual response time, microseconds.
    pub elapsed_us: u64,
    /// Virtual communication share of `elapsed_us`.
    pub comm_us: u64,
    /// Max blocks on any one worker (the paper's response-time proxy).
    pub response_blocks: u64,
    /// Total blocks fetched.
    pub total_blocks: u64,
    /// Buffer-cache hits.
    pub cache_hits: u64,
    /// Matching records, sorted by id.
    pub records: Vec<Record>,
}

/// Typed errors a server sends back instead of an answer.
///
/// `#[non_exhaustive]` (workspace error convention): downstream matches
/// carry a wildcard arm so new rejection codes stay a minor change.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The request could not be understood (bad frame follows a close; bad
    /// payload gets this reply first).
    Malformed(String),
    /// Every admission permit taken and the waiting room full — shed,
    /// retry after the hinted delay.
    Overloaded {
        /// Client should back off at least this long.
        retry_after_ms: u32,
    },
    /// The engine answered, but incompletely (failed workers, deadline).
    Incomplete(String),
    /// An insert/delete could not be applied (WAL I/O failure, engine
    /// shut down). The write-ahead discipline guarantees a failed
    /// mutation changed nothing. In cluster mode a replication failure
    /// also reports this — there the outcome is *indeterminate* (the op
    /// may commit if the leader's log survives failover), matching the
    /// usual distributed-write contract.
    MutationFailed(String),
    /// This node is a standby coordinator; retry against `hint` (the
    /// current leader's client address, empty if unknown). Clients follow
    /// the hint with jittered backoff — see `pargrid-cluster`'s
    /// `ClusterClient`.
    NotLeader {
        /// Client address of the leader, if this standby knows it.
        hint: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "malformed request: {m}"),
            WireError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded, retry after {retry_after_ms} ms")
            }
            WireError::Incomplete(m) => write!(f, "incomplete answer: {m}"),
            WireError::MutationFailed(m) => write!(f, "mutation failed: {m}"),
            WireError::NotLeader { hint } if hint.is_empty() => {
                write!(f, "not the leader (no leader known)")
            }
            WireError::NotLeader { hint } => write!(f, "not the leader; retry against {hint}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Payload decode failure: the frame was intact (magic/CRC passed) but its
/// contents violate the protocol. The codec's one error type.
pub use pargrid_gridfile::codec::DecodeError as ProtoError;

impl Request {
    /// Message type byte + payload for this request.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::new();
        let t = match self {
            Request::RangeQuery { lo, hi } => {
                put_rect(&mut p, lo, hi);
                REQ_RANGE
            }
            Request::PartialMatch { keys } => {
                (keys.len() as u16).put(&mut p);
                Option::put_all(keys, &mut p);
                REQ_PARTIAL
            }
            Request::Ping { token } => {
                token.put(&mut p);
                REQ_PING
            }
            Request::Stats => REQ_STATS,
            Request::Shutdown => REQ_SHUTDOWN,
            Request::Insert { id, key } => {
                put_keyed(&mut p, *id, key);
                REQ_INSERT
            }
            Request::Delete { id, key } => {
                put_keyed(&mut p, *id, key);
                REQ_DELETE
            }
            Request::Rebalance { cmd, dry_run } => {
                let (op, value) = match cmd {
                    RebalanceCmd::AddWorkers(k) => (1u8, k),
                    RebalanceCmd::RemoveWorker(w) => (2u8, w),
                };
                op.put(&mut p);
                value.put(&mut p);
                dry_run.put(&mut p);
                REQ_REBALANCE
            }
        };
        (t, p)
    }

    /// Decodes a request payload. Total: every input maps to `Ok` or a
    /// typed [`ProtoError`].
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<Request, ProtoError> {
        let mut c = Cur::new(payload);
        let req = match msg_type {
            REQ_RANGE => {
                let rect: Rect = c.get()?;
                Request::RangeQuery {
                    lo: rect.lo().coords().to_vec(),
                    hi: rect.hi().coords().to_vec(),
                }
            }
            REQ_PARTIAL => {
                let d = checked_dim(c.get()?)?;
                Request::PartialMatch {
                    keys: Option::take_n(&mut c, d)?,
                }
            }
            REQ_PING => Request::Ping { token: c.get()? },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_INSERT | REQ_DELETE => {
                let Record { id, point } = c.get()?;
                let key = point.coords().to_vec();
                if msg_type == REQ_INSERT {
                    Request::Insert { id, key }
                } else {
                    Request::Delete { id, key }
                }
            }
            REQ_REBALANCE => {
                let cmd = match c.get::<(u8, u32)>()? {
                    (1, value) => RebalanceCmd::AddWorkers(value),
                    (2, value) => RebalanceCmd::RemoveWorker(value),
                    (t, _) => return Err(err(format!("bad rebalance op {t}"))),
                };
                Request::Rebalance {
                    cmd,
                    dry_run: c.get()?,
                }
            }
            t => return Err(err(format!("unknown request type {t:#04x}"))),
        };
        c.done()?;
        Ok(req)
    }

    /// The query rectangle this request denotes over `domain`, or `None`
    /// for non-query requests.
    ///
    /// A partial match is a degenerate range: `[v, v]` on each specified
    /// attribute and the full domain extent on wildcards — exactly the
    /// equivalence the paper uses when it treats partial match as a range
    /// query with zero-width intervals. Returns a [`WireError::Malformed`]
    /// if the request's dimensionality does not match the file's.
    pub fn to_rect(&self, domain: &Rect) -> Result<Option<Rect>, WireError> {
        let dim = domain.dim();
        match self {
            Request::RangeQuery { lo, hi } => {
                if lo.len() != dim {
                    return Err(WireError::Malformed(format!(
                        "query has {} dims, file has {dim}",
                        lo.len()
                    )));
                }
                Ok(Some(Rect::new(Point::new(lo), Point::new(hi))))
            }
            Request::PartialMatch { keys } => {
                if keys.len() != dim {
                    return Err(WireError::Malformed(format!(
                        "query has {} dims, file has {dim}",
                        keys.len()
                    )));
                }
                let mut lo = Vec::with_capacity(dim);
                let mut hi = Vec::with_capacity(dim);
                for (i, k) in keys.iter().enumerate() {
                    match k {
                        Some(v) => {
                            lo.push(*v);
                            hi.push(*v);
                        }
                        None => {
                            lo.push(domain.lo().coords()[i]);
                            hi.push(domain.hi().coords()[i]);
                        }
                    }
                }
                Ok(Some(Rect::new(Point::new(&lo), Point::new(&hi))))
            }
            _ => Ok(None),
        }
    }
}

impl Response {
    /// Message type byte + payload for this response (allocates a payload
    /// vector; the server's write path uses [`Response::encode_frame`]
    /// instead, which serializes straight into the wire buffer).
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut p = Vec::with_capacity(self.payload_size_hint());
        let t = self.encode_into(&mut p);
        (t, p)
    }

    /// Encodes this response as complete wire bytes in **one allocation and
    /// zero payload copies**: the payload is serialized directly into a
    /// [`FrameBuilder`](crate::frame::FrameBuilder)'s buffer and framed in
    /// place. The old path (`encode()` then `encode_frame(t, &p)`) built
    /// the payload, then copied it into a second buffer — the difference is
    /// the `frame_encode/*` pair in `BENCH_hotpath.json`.
    pub fn encode_frame(&self) -> Result<Vec<u8>, crate::frame::FrameError> {
        let mut b = crate::frame::FrameBuilder::with_capacity(self.payload_size_hint());
        let t = self.encode_into(b.payload_mut());
        b.finish(t)
    }

    /// Exact or near-exact payload size, so the single wire allocation is
    /// also the right size.
    fn payload_size_hint(&self) -> usize {
        match self {
            Response::Records(r) => 41 + records_wire_len(&r.records),
            Response::Pong { .. } => 8,
            Response::StatsText(s) => 4 + s.len(),
            Response::Error(e) => match e {
                WireError::Overloaded { .. } => 9,
                WireError::Malformed(m)
                | WireError::Incomplete(m)
                | WireError::MutationFailed(m) => 5 + m.len(),
                WireError::NotLeader { hint } => 5 + hint.len(),
            },
            Response::ShutdownAck => 0,
            Response::Mutation(_) => 13,
            Response::Rebalance(_) => 37,
        }
    }

    /// Serializes this response's payload onto the end of `p` (append-only)
    /// and returns the message type byte. The common engine of
    /// [`Response::encode`] and [`Response::encode_frame`].
    fn encode_into(&self, p: &mut Vec<u8>) -> u8 {
        match self {
            Response::Records(r) => {
                r.incomplete.put(p);
                for v in [
                    r.elapsed_us,
                    r.comm_us,
                    r.response_blocks,
                    r.total_blocks,
                    r.cache_hits,
                ] {
                    v.put(p);
                }
                put_records(p, &r.records);
                RESP_RECORDS
            }
            Response::Pong { token } => {
                token.put(p);
                RESP_PONG
            }
            Response::StatsText(s) => {
                s.put(p);
                RESP_STATS
            }
            Response::Error(e) => {
                let (code, msg) = match e {
                    WireError::Malformed(m) => (ERR_MALFORMED, m.as_str()),
                    WireError::Overloaded { .. } => (ERR_OVERLOADED, ""),
                    WireError::Incomplete(m) => (ERR_INCOMPLETE, m.as_str()),
                    WireError::MutationFailed(m) => (ERR_MUTATION, m.as_str()),
                    WireError::NotLeader { hint } => (ERR_NOT_LEADER, hint.as_str()),
                };
                code.put(p);
                if let WireError::Overloaded { retry_after_ms } = e {
                    retry_after_ms.put(p);
                }
                put_str(p, msg);
                RESP_ERROR
            }
            Response::ShutdownAck => RESP_SHUTDOWN_ACK,
            Response::Mutation(a) => {
                a.applied.put(p);
                a.rewritten.put(p);
                a.created.put(p);
                a.freed.put(p);
                RESP_MUTATION
            }
            Response::Rebalance(r) => {
                r.applied.put(p);
                r.moves.put(p);
                r.moved_bytes.put(p);
                r.full_moves.put(p);
                r.active_workers.put(p);
                r.predicted_objective.put(p);
                r.baseline_objective.put(p);
                RESP_REBALANCE
            }
        }
    }

    /// Decodes a response payload. Total, like [`Request::decode`].
    pub fn decode(msg_type: u8, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cur::new(payload);
        let resp = match msg_type {
            RESP_RECORDS => Response::Records(RecordsReply {
                incomplete: c.get()?,
                elapsed_us: c.get()?,
                comm_us: c.get()?,
                response_blocks: c.get()?,
                total_blocks: c.get()?,
                cache_hits: c.get()?,
                records: take_records(&mut c)?,
            }),
            RESP_PONG => Response::Pong { token: c.get()? },
            RESP_STATS => Response::StatsText(c.get()?),
            RESP_ERROR => Response::Error(match c.get::<u8>()? {
                ERR_MALFORMED => WireError::Malformed(c.get()?),
                ERR_INCOMPLETE => WireError::Incomplete(c.get()?),
                ERR_MUTATION => WireError::MutationFailed(c.get()?),
                ERR_NOT_LEADER => WireError::NotLeader { hint: c.get()? },
                ERR_OVERLOADED => {
                    let retry_after_ms = c.get()?;
                    // The message bytes, empty from this encoder, are skipped
                    // unread.
                    c.get::<Vec<u8>>()?;
                    WireError::Overloaded { retry_after_ms }
                }
                t => return Err(err(format!("unknown error code {t}"))),
            }),
            RESP_SHUTDOWN_ACK => Response::ShutdownAck,
            RESP_MUTATION => Response::Mutation(MutationAck {
                applied: c.get()?,
                rewritten: c.get()?,
                created: c.get()?,
                freed: c.get()?,
            }),
            RESP_REBALANCE => Response::Rebalance(RebalanceSummary {
                applied: c.get()?,
                moves: c.get()?,
                moved_bytes: c.get()?,
                full_moves: c.get()?,
                active_workers: c.get()?,
                predicted_objective: c.get()?,
                baseline_objective: c.get()?,
            }),
            t => return Err(err(format!("unknown response type {t:#04x}"))),
        };
        c.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
use pargrid_geom::MAX_DIM;

/// The per-field reads the kept reference decoder in the tests above is
/// written against.
#[cfg(test)]
trait FieldReads {
    fn u8(&mut self) -> Result<u8, ProtoError>;
    fn u16(&mut self) -> Result<u16, ProtoError>;
    fn u32(&mut self) -> Result<u32, ProtoError>;
    fn u64(&mut self) -> Result<u64, ProtoError>;
    fn finite_f64(&mut self, what: &str) -> Result<f64, ProtoError>;
}

#[cfg(test)]
impl FieldReads for Cur<'_> {
    fn u8(&mut self) -> Result<u8, ProtoError> {
        self.get()
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        self.get()
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        self.get()
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        self.get()
    }

    fn finite_f64(&mut self, _what: &str) -> Result<f64, ProtoError> {
        self.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_request(req: Request) {
        let (t, p) = req.encode();
        assert_eq!(Request::decode(t, &p).unwrap(), req);
    }

    fn rt_response(resp: Response) {
        let (t, p) = resp.encode();
        assert_eq!(Response::decode(t, &p).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        rt_request(Request::RangeQuery {
            lo: vec![0.0, -5.5],
            hi: vec![1.0, 9.75],
        });
        rt_request(Request::PartialMatch {
            keys: vec![Some(3.25), None, Some(-1.0)],
        });
        rt_request(Request::Ping { token: u64::MAX });
        rt_request(Request::Stats);
        rt_request(Request::Shutdown);
        rt_request(Request::Insert {
            id: 99,
            key: vec![1.5, -2.5],
        });
        rt_request(Request::Delete {
            id: u64::MAX,
            key: vec![0.0, 0.0, 7.25],
        });
        rt_request(Request::Rebalance {
            cmd: RebalanceCmd::AddWorkers(2),
            dry_run: false,
        });
        rt_request(Request::Rebalance {
            cmd: RebalanceCmd::RemoveWorker(u32::MAX),
            dry_run: true,
        });
    }

    #[test]
    fn responses_round_trip() {
        rt_response(Response::Records(RecordsReply {
            incomplete: false,
            elapsed_us: 1234,
            comm_us: 56,
            response_blocks: 3,
            total_blocks: 9,
            cache_hits: 2,
            records: vec![
                Record::new(7, Point::new2(1.5, 2.5)),
                Record::new(8, Point::new2(-3.0, 4.0)),
            ],
        }));
        rt_response(Response::Pong { token: 42 });
        rt_response(Response::StatsText("# TYPE x counter\nx 1\n".into()));
        rt_response(Response::Error(WireError::Malformed("nope".into())));
        rt_response(Response::Error(WireError::Overloaded {
            retry_after_ms: 50,
        }));
        rt_response(Response::Error(WireError::Incomplete(
            "2 workers dead".into(),
        )));
        rt_response(Response::Error(WireError::MutationFailed(
            "wal device gone".into(),
        )));
        rt_response(Response::ShutdownAck);
        rt_response(Response::Mutation(MutationAck {
            applied: true,
            rewritten: 3,
            created: 1,
            freed: 0,
        }));
        rt_response(Response::Mutation(MutationAck::default()));
        rt_response(Response::Rebalance(RebalanceSummary {
            applied: true,
            moves: 17,
            moved_bytes: 1 << 40,
            full_moves: 80,
            active_workers: 9,
            predicted_objective: 0.625,
            baseline_objective: 0.5,
        }));
        rt_response(Response::Rebalance(RebalanceSummary::default()));
    }

    #[test]
    fn hostile_rebalance_payloads_yield_errors_not_panics() {
        // Unknown op byte.
        let mut p = vec![3u8];
        p.extend_from_slice(&1u32.to_le_bytes());
        p.push(0);
        assert!(Request::decode(REQ_REBALANCE, &p).is_err());
        // Bad dry-run flag.
        let mut p = vec![1u8];
        p.extend_from_slice(&1u32.to_le_bytes());
        p.push(7);
        assert!(Request::decode(REQ_REBALANCE, &p).is_err());
        // Truncated and trailing-garbage payloads.
        assert!(Request::decode(REQ_REBALANCE, &[1u8, 0]).is_err());
        let (t, mut p) = Request::Rebalance {
            cmd: RebalanceCmd::AddWorkers(1),
            dry_run: false,
        }
        .encode();
        p.push(0);
        assert!(Request::decode(t, &p).is_err());
        // NaN objective in the summary is rejected at decode time.
        let mut p = vec![1u8];
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&0u64.to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&f64::NAN.to_le_bytes());
        p.extend_from_slice(&0.5f64.to_le_bytes());
        assert!(Response::decode(RESP_REBALANCE, &p).is_err());
    }

    #[test]
    fn hostile_mutation_payloads_yield_errors_not_panics() {
        // NaN key coordinate would reach Point::new.
        let mut p = 5u64.to_le_bytes().to_vec();
        p.extend_from_slice(&1u16.to_le_bytes());
        p.extend_from_slice(&f64::NAN.to_le_bytes());
        assert!(Request::decode(REQ_INSERT, &p).is_err());
        // Zero and oversized dimensionality.
        let mut p = 5u64.to_le_bytes().to_vec();
        p.extend_from_slice(&0u16.to_le_bytes());
        assert!(Request::decode(REQ_DELETE, &p).is_err());
        let mut p = 5u64.to_le_bytes().to_vec();
        p.extend_from_slice(&((MAX_DIM + 1) as u16).to_le_bytes());
        assert!(Request::decode(REQ_INSERT, &p).is_err());
        // Bad applied flag in the ack.
        let mut p = vec![2u8];
        p.extend_from_slice(&[0u8; 12]);
        assert!(Response::decode(RESP_MUTATION, &p).is_err());
    }

    #[test]
    fn hostile_payloads_yield_errors_not_panics() {
        // NaN coordinate.
        let mut p = vec![1, 0];
        p.extend_from_slice(&f64::NAN.to_le_bytes());
        p.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(Request::decode(REQ_RANGE, &p).is_err());
        // lo > hi would panic Rect::new if it got through.
        let mut p = vec![1, 0];
        p.extend_from_slice(&2.0f64.to_le_bytes());
        p.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(Request::decode(REQ_RANGE, &p).is_err());
        // Zero and oversized dimensionality would panic Point::new.
        assert!(Request::decode(REQ_RANGE, &[0, 0]).is_err());
        let d = (MAX_DIM + 1) as u16;
        assert!(Request::decode(REQ_RANGE, &d.to_le_bytes()).is_err());
        // Trailing garbage is rejected.
        let (t, mut p) = Request::Ping { token: 1 }.encode();
        p.push(0);
        assert!(Request::decode(t, &p).is_err());
        // Hostile record count.
        let mut p = vec![0];
        p.extend_from_slice(&[0u8; 40]);
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(RESP_RECORDS, &p).is_err());
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Three records of three dimensionalities, ids small, writer-space and
    /// maximal — the records section of both goldens below.
    fn golden_records() -> Vec<Record> {
        vec![
            Record::new(7, Point::new2(1.5, -2.0)),
            Record::new(1 << 40 | 3, Point::new3(0.0, 0.25, 1e300)),
            Record::new(u64::MAX, Point::new(&[9.0])),
        ]
    }

    const GOLDEN_RECORDS_SECTION: &str = "03000000\
        0700000000000000\
        0200\
        000000000000f83f\
        00000000000000c0\
        0300000000010000\
        0300\
        0000000000000000\
        000000000000d03f\
        9c7500883ce4377e\
        ffffffffffffffff\
        0100\
        0000000000002240";

    #[test]
    fn golden_records_payload_bytes() {
        // The bytes this plane's own encoder produced before the records
        // loop was shared with the cluster plane.
        let reply = Response::Records(RecordsReply {
            incomplete: true,
            elapsed_us: 0x0102,
            comm_us: 3,
            response_blocks: 4,
            total_blocks: 5,
            cache_hits: 6,
            records: golden_records(),
        });
        let head = "01\
            0201000000000000\
            0300000000000000\
            0400000000000000\
            0500000000000000\
            0600000000000000";
        let expected = unhex(&format!("{head}{GOLDEN_RECORDS_SECTION}"));
        let (t, p) = reply.encode();
        assert_eq!((t, &p), (RESP_RECORDS, &expected));
        assert_eq!(p.len(), reply.payload_size_hint(), "size hint is exact");
        let frame = reply.encode_frame().unwrap();
        assert_eq!(crate::frame::encode_frame(t, &expected).unwrap(), frame);
        assert_eq!(Response::decode(t, &expected).unwrap(), reply);
    }

    #[test]
    fn golden_worker_reply_bytes() {
        // Likewise for the cluster plane's copy of the loop: a worker reply
        // carrying the same records section.
        use crate::cluster_proto::{ClusterResponse, WireReply};
        let reply = ClusterResponse::WorkerReply(WireReply {
            query_id: 11,
            seq: 99,
            worker: 3,
            blocks_requested: 4,
            cache_hits: 2,
            disk_us: 1000,
            cpu_us: 10,
            corrupt_blocks: vec![5],
            error: Some("bad".into()),
            records: golden_records(),
        });
        let head = "0b00000000000000\
            6300000000000000\
            03000000\
            0400000000000000\
            0200000000000000\
            e803000000000000\
            0a00000000000000\
            01000000\
            05000000\
            01\
            03000000\
            626164";
        let expected = unhex(&format!("{head}{GOLDEN_RECORDS_SECTION}"));
        let (t, p) = reply.encode();
        assert_eq!((t, &p), (0xa1, &expected));
        assert_eq!(p.capacity(), p.len(), "reserve is exact");
        assert_eq!(ClusterResponse::decode(t, &expected).unwrap(), reply);
    }

    /// The records decoder as it was before `take_records`: one checked
    /// cursor read per field and a `Point::new` copy. Kept as the reference
    /// the differential tests below hold the shared decoder to.
    fn reference_decode_records(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut c = Cur::new(payload);
        let incomplete = match c.u8()? {
            0 => false,
            1 => true,
            t => return Err(err(format!("bad incomplete flag {t}"))),
        };
        let elapsed_us = c.u64()?;
        let comm_us = c.u64()?;
        let response_blocks = c.u64()?;
        let total_blocks = c.u64()?;
        let cache_hits = c.u64()?;
        let n = c.u32()? as usize;
        if n > payload.len() / 14 {
            return Err(err(format!("record count {n} exceeds payload")));
        }
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let id = c.u64()?;
            let d = checked_dim(c.u16()?)?;
            let mut coords = [0.0; MAX_DIM];
            for slot in coords.iter_mut().take(d) {
                *slot = c.finite_f64("record coordinate")?;
            }
            records.push(Record::new(id, Point::new(&coords[..d])));
        }
        c.done()?;
        Ok(Response::Records(RecordsReply {
            incomplete,
            elapsed_us,
            comm_us,
            response_blocks,
            total_blocks,
            cache_hits,
            records,
        }))
    }

    /// Same `Ok` value, or an error from both (messages may differ).
    fn assert_same_verdict(payload: &[u8]) {
        let new = Response::decode(RESP_RECORDS, payload);
        match reference_decode_records(payload) {
            Ok(old) => assert_eq!(new.as_ref(), Ok(&old), "payload {payload:02x?}"),
            Err(_) => assert!(new.is_err(), "accepted {payload:02x?}"),
        }
    }

    /// A `RESP_RECORDS` payload whose records have these dims and raw
    /// coordinate bits (so non-finite values can be planted).
    fn records_payload(n_claimed: u32, records: &[(u64, u16, Vec<u64>)]) -> Vec<u8> {
        let mut p = vec![0u8];
        p.extend_from_slice(&[0u8; 40]);
        p.extend_from_slice(&n_claimed.to_le_bytes());
        for (id, dim, bits) in records {
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&dim.to_le_bytes());
            for b in bits {
                p.extend_from_slice(&b.to_le_bytes());
            }
        }
        p
    }

    #[test]
    fn decode_differential_explicit_cases() {
        let one = 1.0f64.to_bits();
        let ok = records_payload(2, &[(1, 2, vec![one, one]), (2, 1, vec![one])]);
        assert!(Response::decode(RESP_RECORDS, &ok).is_ok());
        assert_same_verdict(&ok);
        // Truncated at every byte, and one trailing byte.
        for cut in 0..ok.len() {
            assert!(Response::decode(RESP_RECORDS, &ok[..cut]).is_err(), "{cut}");
            assert_same_verdict(&ok[..cut]);
        }
        let mut trailing = ok.clone();
        trailing.push(0);
        assert!(Response::decode(RESP_RECORDS, &trailing).is_err());
        assert_same_verdict(&trailing);
        // Dimension 0 and MAX_DIM + 1 (with the bytes such a record would
        // need, so only the dimension is wrong), and MAX_DIM itself.
        let wide = (MAX_DIM + 1) as u16;
        for (dim, accepted) in [(0, false), (wide, false), (MAX_DIM as u16, true)] {
            let p = records_payload(1, &[(9, dim, vec![one; dim as usize])]);
            assert_eq!(Response::decode(RESP_RECORDS, &p).is_ok(), accepted);
            assert_same_verdict(&p);
        }
        // Non-finite coordinates, first and last position.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 2] {
                let mut bits = vec![one; 3];
                bits[at] = bad.to_bits();
                let p = records_payload(1, &[(9, 3, bits)]);
                assert!(Response::decode(RESP_RECORDS, &p).is_err());
                assert_same_verdict(&p);
            }
        }
        // Record count larger than the payload holds: hostile, and off by one.
        for claimed in [u32::MAX, 3] {
            let p = records_payload(claimed, &[(1, 2, vec![one, one]), (2, 1, vec![one])]);
            assert!(Response::decode(RESP_RECORDS, &p).is_err());
            assert_same_verdict(&p);
        }
        // Fewer claimed than present is trailing bytes.
        let p = records_payload(1, &[(1, 2, vec![one, one]), (2, 1, vec![one])]);
        assert!(Response::decode(RESP_RECORDS, &p).is_err());
        assert_same_verdict(&p);
        // Mixed dims: runs of 1 to 3 records of each dim 1..=6, a dim that
        // changes mid-reply in both directions and comes back.
        let dims = [3u16, 3, 1, 2, 2, 2, 6, 5, 5, 4, 1, 1, 6, 3];
        let mixed: Vec<(u64, u16, Vec<u64>)> = dims
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let bits = (0..d)
                    .map(|k| (i as f64 - k as f64 * 0.5).to_bits())
                    .collect();
                (i as u64, d, bits)
            })
            .collect();
        let ok = records_payload(dims.len() as u32, &mixed);
        assert!(Response::decode(RESP_RECORDS, &ok).is_ok());
        assert_same_verdict(&ok);
        // A row cut inside every run, at every byte; and a count that
        // stops mid-run, short or long.
        for cut in 0..ok.len() {
            assert_same_verdict(&ok[..cut]);
        }
        for claimed in [1, 5, 8, dims.len() as u32 + 1] {
            assert_same_verdict(&records_payload(claimed, &mixed));
        }
        // A non-finite coordinate in every row, so in the last row of each
        // run too, at the row's first and last coordinate.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for row in 0..dims.len() {
                for at in [0, dims[row] as usize - 1] {
                    let mut planted = mixed.clone();
                    planted[row].2[at] = bad.to_bits();
                    let p = records_payload(dims.len() as u32, &planted);
                    assert!(Response::decode(RESP_RECORDS, &p).is_err(), "row {row}");
                    assert_same_verdict(&p);
                }
            }
        }
        // A dim outside 1..=MAX_DIM, or one whose record outruns the bytes,
        // in the middle of a run.
        for dim in [0, wide, 6] {
            let mut planted = mixed.clone();
            planted[4].1 = dim;
            assert_same_verdict(&records_payload(dims.len() as u32, &planted));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn decode_differential_valid_truncated_and_flipped(
            shape in proptest::prop::collection::vec(
                (proptest::any::<u64>(), 1usize..=MAX_DIM, -1e6f64..1e6),
                0..12usize,
            ),
            flip_at in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let records: Vec<Record> = shape
                .iter()
                .map(|&(id, d, x)| {
                    let coords: Vec<f64> = (0..d).map(|k| x + k as f64).collect();
                    Record::new(id, Point::new(&coords))
                })
                .collect();
            let reply = Response::Records(RecordsReply {
                incomplete: false,
                elapsed_us: 1,
                comm_us: 2,
                response_blocks: 3,
                total_blocks: 4,
                cache_hits: 5,
                records,
            });
            let (_, payload) = reply.encode();
            assert_eq!(Response::decode(RESP_RECORDS, &payload).as_ref(), Ok(&reply));
            assert_same_verdict(&payload);
            for cut in 0..payload.len() {
                assert_same_verdict(&payload[..cut]);
            }
            let mut flipped = payload.clone();
            let at = ((payload.len() - 1) as f64 * flip_at) as usize;
            flipped[at] ^= flip;
            assert_same_verdict(&flipped);
        }

        #[test]
        fn decode_differential_arbitrary_bytes(
            body in proptest::prop::collection::vec(0u8..=255, 0..120usize),
            n in 0u32..6,
            dim in 0u16..9,
        ) {
            // Arbitrary bytes behind a plausible head, so the loop is
            // reached: flag, five counters, a small count, a smallish dim.
            let mut p = vec![0u8; 41];
            p.extend_from_slice(&n.to_le_bytes());
            p.extend_from_slice(&body);
            if p.len() >= 55 {
                p[53..55].copy_from_slice(&dim.to_le_bytes());
            }
            assert_same_verdict(&p);
            assert_same_verdict(&body);
        }
    }

    #[test]
    fn partial_match_rect_is_degenerate_on_specified_dims() {
        let domain = Rect::new2(0.0, 0.0, 100.0, 200.0);
        let req = Request::PartialMatch {
            keys: vec![Some(42.0), None],
        };
        let rect = req.to_rect(&domain).unwrap().unwrap();
        assert_eq!(rect.lo().coords(), &[42.0, 0.0]);
        assert_eq!(rect.hi().coords(), &[42.0, 200.0]);
    }

    #[test]
    fn dim_mismatch_is_malformed_not_panic() {
        let domain = Rect::new2(0.0, 0.0, 1.0, 1.0);
        let req = Request::RangeQuery {
            lo: vec![0.0],
            hi: vec![1.0],
        };
        assert!(matches!(req.to_rect(&domain), Err(WireError::Malformed(_))));
    }
}
