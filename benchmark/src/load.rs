//! The in-process load generator: synchronous clients that check every
//! answer, driven closed loop (a client's next request waits for its
//! previous reply) or open loop (requests fall due on a fixed schedule).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use pargrid_geom::Rect;
use pargrid_gridfile::{Record, WalOp};
use pargrid_net::{Request, Response};

use crate::inputs::{range_request, Fingerprint, Templates, Writer};
use crate::spec::{LATE_NS, PROBE_EVERY};
use crate::stats::{OpenReport, OpenSchedule, Sample};
use crate::trace::{Tracer, NO_PARENT};
use crate::wire::{CallTimes, Conn};

/// What a load phase sends.
#[derive(Clone, Copy, Debug)]
pub struct Traffic<'a> {
    /// Query templates and their expected answers.
    pub templates: &'a Templates,
    /// Every n-th operation of a client is a write; `None` is read-only, and
    /// a reply may then hold base-set records only.
    pub write_every: Option<u64>,
}

/// Sums over the replies a client received.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplyCounts {
    /// Template queries answered.
    pub queries: u64,
    /// Σ `RecordsReply.total_blocks`.
    pub total_blocks: u64,
    /// Σ `RecordsReply.response_blocks`, the paper's `max_i N_i(q)`.
    pub response_blocks: u64,
}

/// One completed operation.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    /// Just before the request was encoded.
    pub start: Instant,
    /// After the reply was decoded and checked.
    pub end: Instant,
    /// Whether it was an insert or delete.
    pub write: bool,
}

/// One synchronous connection with its place in the template cycle, its
/// write stream and its failure count.
pub struct Client {
    id: usize,
    conn: Conn,
    cursor: usize,
    ops: u64,
    /// A read-your-write check to run as the next operation: the record and
    /// whether it must be present.
    probe: Option<(Record, bool)>,
    /// A template whose last answer was torn, to ask again as the next
    /// operation.
    retry: Option<usize>,
    /// This client's mutation stream and the model of what it has written.
    pub writer: Writer,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed: transport or protocol error, a typed error
    /// reply (`Overloaded` included), or an answer the oracle rejects.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// Answers that disagreed with the oracle while writes were in flight and
    /// were right when asked again. The engine documents that a query in
    /// flight during a mutation "may see either side, per block"; a bucket
    /// split or merge then loses or repeats base-set records in the answer.
    /// Reported, not failed; an answer that is still wrong when asked again
    /// is a failure.
    pub torn_reads: u64,
    /// Sums over replies; reset by whoever wants a per-phase figure.
    pub replies: ReplyCounts,
    /// When set, every operation records its spans here.
    pub tracer: Option<Tracer>,
}

impl Client {
    /// Connects client `id`; it starts `id / clients` of the way through the
    /// template cycle so that the connections do not send identical queries
    /// in lockstep.
    pub fn connect(
        id: usize,
        clients: usize,
        addr: SocketAddr,
        templates: usize,
        writer: Writer,
    ) -> Result<Client, String> {
        Ok(Client {
            id,
            conn: Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            cursor: id * templates / clients.max(1),
            ops: 0,
            probe: None,
            retry: None,
            writer,
            attempted: 0,
            failed: 0,
            first_failure: None,
            torn_reads: 0,
            replies: ReplyCounts::default(),
            tracer: None,
        })
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Sends one request; `check` judges the decoded response. Records the
    /// spans of the round trip when tracing is on.
    fn round_trip(
        &mut self,
        request: &Request,
        write: bool,
        check: impl FnOnce(&mut Client, Response) -> Result<(), String>,
    ) -> Done {
        self.attempted += 1;
        let fallback = Instant::now();
        let (times, verdict) = match self.conn.call(request) {
            Ok((response, times)) => (Some(times), check(self, response)),
            Err(e) => (None, Err(e)),
        };
        let end = Instant::now();
        if let Err(what) = verdict {
            self.fail(format!("client {} op {}: {what}", self.id, self.attempted));
        }
        let start = times.map_or(fallback, |t| t.start);
        if let (Some(tracer), Some(t)) = (self.tracer.as_mut(), times) {
            let request_id = (self.id as u64) << 32 | self.attempted;
            record_spans(tracer, &t, end, write, request_id);
        }
        Done { start, end, write }
    }

    /// Performs this client's next operation.
    pub fn step(&mut self, traffic: &Traffic<'_>) -> Done {
        if let Some((record, present)) = self.probe.take() {
            return self.read_your_write(record, present);
        }
        if let Some(i) = self.retry.take() {
            return self.template_query(traffic, i, false);
        }
        let n = self.ops;
        self.ops += 1;
        if traffic
            .write_every
            .is_some_and(|every| n % every == every - 1)
        {
            self.write()
        } else {
            let i = self.cursor;
            self.cursor = (i + 1) % traffic.templates.requests.len();
            // Only a mix with writes in flight can tear an answer.
            self.template_query(traffic, i, traffic.write_every.is_some())
        }
    }

    fn template_query(&mut self, traffic: &Traffic<'_>, i: usize, may_tear: bool) -> Done {
        let expected = traffic.templates.oracle[i];
        let base_only = traffic.write_every.is_none();
        self.round_trip(&traffic.templates.requests[i], false, |c, response| {
            let Response::Records(reply) = response else {
                return Err(format!("template {i} answered {response:?}"));
            };
            let got = Fingerprint::of_base(&reply.records);
            if !reply.incomplete && got != expected && may_tear {
                c.torn_reads += 1;
                c.retry = Some(i);
                return Ok(());
            }
            if reply.incomplete || got != expected {
                return Err(format!("template {i}: got {got:?}, oracle {expected:?}"));
            }
            if base_only && reply.records.len() as u64 != expected.count {
                return Err(format!("template {i}: records outside the base set"));
            }
            c.replies.queries += 1;
            c.replies.total_blocks += reply.total_blocks;
            c.replies.response_blocks += reply.response_blocks;
            Ok(())
        })
    }

    fn write(&mut self) -> Done {
        let op = self.writer.next_op();
        let (request, record, inserted) = match &op {
            WalOp::Insert(r) => (
                Request::Insert {
                    id: r.id,
                    key: r.point.coords().to_vec(),
                },
                *r,
                true,
            ),
            WalOp::Delete { id, point } => (
                Request::Delete {
                    id: *id,
                    key: point.coords().to_vec(),
                },
                Record::new(*id, *point),
                false,
            ),
        };
        self.round_trip(&request, true, |c, response| {
            let Response::Mutation(ack) = response else {
                return Err(format!("{op:?} answered {response:?}"));
            };
            if !ack.applied {
                return Err(format!("{op:?} acknowledged but not applied"));
            }
            c.writer.acknowledge(op);
            if (c.writer.acked.len() as u64).is_multiple_of(PROBE_EVERY) {
                c.probe = Some((record, inserted));
            }
            Ok(())
        })
    }

    /// Queries the degenerate rectangle at `record`'s key from the same
    /// connection that wrote it: an acknowledged insert must be visible, an
    /// acknowledged delete gone.
    fn read_your_write(&mut self, record: Record, present: bool) -> Done {
        let request = range_request(&Rect::new(record.point, record.point));
        self.round_trip(&request, false, |_, response| {
            let Response::Records(reply) = response else {
                return Err(format!("read-your-write answered {response:?}"));
            };
            let found = reply.records.iter().any(|r| r.id == record.id);
            if reply.incomplete || found != present {
                return Err(format!(
                    "read-your-write of id {:#x}: present {found}, expected {present}",
                    record.id
                ));
            }
            Ok(())
        })
    }
}

/// The spans of one round trip: the whole of it, and for queries its three
/// stages as children. Decoding includes the oracle check.
fn record_spans(tracer: &mut Tracer, t: &CallTimes, end: Instant, write: bool, request: u64) {
    if write {
        tracer.record("client.write", t.start, end, NO_PARENT, request);
        return;
    }
    let root = tracer.record("client.roundtrip", t.start, end, NO_PARENT, request);
    tracer.record("client.encode_send", t.start, t.sent, root, request);
    tracer.record("client.wait", t.sent, t.received, root, request);
    tracer.record("client.decode", t.received, end, root, request);
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Closed loop: every client sends its next operation as soon as the
/// previous one is answered, for `duration`. Returns all samples, completion
/// times counted from the phase start.
pub fn closed_loop(
    clients: &mut [Client],
    traffic: &Traffic<'_>,
    duration: Duration,
) -> Vec<Sample> {
    let epoch = Instant::now();
    let deadline = epoch + duration;
    thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let done = client.step(traffic);
                        samples.push(Sample {
                            end_ns: ns_since(epoch, done.end),
                            lat_ns: ns_since(done.start, done.end),
                            write: done.write,
                        });
                        if done.end >= deadline {
                            return samples;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Open loop: operation `i` falls due `i / rate` after the start whatever the
/// server does; the connections take due operations in order, and latency
/// counts from the due instant.
pub fn open_loop(
    clients: &mut [Client],
    traffic: &Traffic<'_>,
    rate: f64,
    duration: Duration,
) -> OpenReport {
    let schedule = OpenSchedule::new(rate);
    let next = AtomicU64::new(0);
    let epoch = Instant::now();
    let end_ns = duration.as_nanos() as u64;
    thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut report = OpenReport::default();
                    loop {
                        // Relaxed: the counter hands out indices, it
                        // publishes no other data.
                        let due_ns = schedule.due_ns(next.fetch_add(1, Ordering::Relaxed));
                        if due_ns >= end_ns {
                            return report;
                        }
                        let due = epoch + Duration::from_nanos(due_ns);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        let done = client.step(traffic);
                        report.record(
                            due_ns,
                            ns_since(epoch, done.start),
                            ns_since(epoch, done.end),
                            LATE_NS,
                        );
                    }
                })
            })
            .collect();
        let mut total = OpenReport::default();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
        total
    })
}
