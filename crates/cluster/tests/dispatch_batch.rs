//! The batched read plane: one connection joins several slots, and one
//! `DispatchBatch` frame carries reads for any of them. Each item is
//! answered by its own frame, in item order — the same bytes a single-slot
//! `Dispatch` would get, or that item's typed refusal — and a batch
//! retransmitted after a reconnect is answered from the reply cache.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;

use pargrid_cluster::{WorkerConfig, WorkerServer};
use pargrid_geom::{Point, Rect};
use pargrid_gridfile::page::encode_page;
use pargrid_gridfile::Record;
use pargrid_net::cluster_proto::{BatchItem, ClusterRequest, ClusterResponse};
use pargrid_net::frame::{read_frame, write_frame, Frame};

const PAGE_BYTES: usize = 256;

/// One raw-frame connection speaking the worker plane.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(worker: &WorkerServer) -> Conn {
        let stream = TcpStream::connect(worker.local_addr()).expect("connect to worker");
        stream.set_nodelay(true).unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
        }
    }

    fn send(&mut self, req: &ClusterRequest) {
        let (t, p) = req.encode();
        write_frame(&mut self.writer, t, &p).expect("write frame");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Frame {
        read_frame(&mut self.reader).expect("read frame")
    }

    fn round_trip(&mut self, req: &ClusterRequest) -> ClusterResponse {
        self.send(req);
        decode(&self.recv())
    }

    /// Sends `batch` and reads one frame per item.
    fn batch(&mut self, batch: &ClusterRequest) -> Vec<Frame> {
        let ClusterRequest::DispatchBatch { items, .. } = batch else {
            panic!("not a batch: {batch:?}");
        };
        self.send(batch);
        items.iter().map(|_| self.recv()).collect()
    }

    /// Joins `slot` at `epoch`; returns the blocks the worker holds for it.
    fn join(&mut self, slot: u32, epoch: u64) -> u32 {
        let welcome = self.round_trip(&ClusterRequest::WorkerJoin {
            slot,
            epoch,
            payload_bytes: 0,
            seen_seq_window: 64,
        });
        match welcome {
            ClusterResponse::Welcome { blocks_held, .. } => blocks_held,
            other => panic!("join refused: {other:?}"),
        }
    }

    /// Writes `blocks` to the slot this connection joined last.
    fn upload(&mut self, epoch: u64, blocks: Vec<(u32, Vec<u8>)>) {
        let written = blocks.len() as u32;
        let ack = self.round_trip(&ClusterRequest::WriteBlocks { epoch, blocks });
        assert_eq!(ack, ClusterResponse::BlocksAck { epoch, written });
    }
}

fn decode(frame: &Frame) -> ClusterResponse {
    ClusterResponse::decode(frame.msg_type, &frame.payload).expect("decode response")
}

fn page(first_id: u64, n: u64) -> Vec<u8> {
    let records: Vec<Record> = (first_id..first_id + n)
        .map(|id| {
            let x = (id % 10) as f64 / 10.0;
            Record::new(id, Point::new(&[x, 1.0 - x]))
        })
        .collect();
    encode_page(&records, 2, 0, PAGE_BYTES)
}

/// Slot `s`'s pages: two blocks of records with ids `100 s ..`.
fn pages(slot: u32) -> Vec<(u32, Vec<u8>)> {
    let base = 100 * u64::from(slot);
    vec![(0, page(base, 3)), (1, page(base + 3, 4))]
}

/// Joins `slots` on `conn` at `epoch`, uploading each one's pages.
fn host(conn: &mut Conn, slots: &[u32], epoch: u64) {
    for &slot in slots {
        conn.join(slot, epoch);
        conn.upload(epoch, pages(slot));
    }
}

fn item(slot: u32, seq: u64, hi: f64, blocks: Vec<u32>) -> BatchItem {
    BatchItem {
        slot,
        query_id: seq / 10,
        seq,
        priority: 0,
        rect: Rect::new(Point::new(&[0.0, 0.0]), Point::new(&[hi, 1.0])),
        blocks,
    }
}

fn batch(epoch: u64, items: Vec<BatchItem>) -> ClusterRequest {
    ClusterRequest::DispatchBatch { epoch, items }
}

fn single(epoch: u64, item: &BatchItem) -> ClusterRequest {
    ClusterRequest::Dispatch {
        epoch,
        query_id: item.query_id,
        seq: item.seq,
        priority: item.priority,
        rect: item.rect,
        blocks: item.blocks.clone(),
    }
}

#[test]
fn batch_answers_equal_single_slot_dispatch_answers_in_item_order() {
    let items = vec![
        item(2, 21, 1.0, vec![0, 1]),
        item(0, 22, 0.45, vec![1]),
        item(1, 23, 1.0, vec![0]),
        item(0, 24, 1.0, vec![0, 1]),
    ];

    let worker = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start");
    let mut conn = Conn::open(&worker);
    host(&mut conn, &[0, 1, 2], 1);
    let batched = conn.batch(&batch(1, items.clone()));
    assert_eq!(worker.executed(), 4);

    // The reference: a second worker with the same pages, one connection
    // per slot, each item sent alone as a `Dispatch` in the same order.
    let reference = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start");
    let mut per_slot: Vec<Conn> = (0..3)
        .map(|slot| {
            let mut c = Conn::open(&reference);
            host(&mut c, &[slot], 1);
            c
        })
        .collect();
    for (i, it) in items.iter().enumerate() {
        let c = &mut per_slot[it.slot as usize];
        c.send(&single(1, it));
        let alone = c.recv();
        assert_eq!(
            batched[i], alone,
            "item {i} differs from its single dispatch"
        );
        let ClusterResponse::WorkerReply(reply) = decode(&alone) else {
            panic!("item {i} was refused: {:?}", decode(&alone));
        };
        assert_eq!((reply.seq, reply.worker), (it.seq, it.slot));
        let base = 100 * u64::from(it.slot);
        assert!(reply
            .records
            .iter()
            .all(|r| (base..base + 7).contains(&r.id)));
    }
    let ClusterResponse::WorkerReply(narrow) = decode(&batched[1]) else {
        unreachable!()
    };
    assert!(narrow.records.len() < 4, "the narrow rect filters records");
}

#[test]
fn unjoined_slot_is_refused_per_item_while_the_others_are_answered() {
    let worker = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start");
    let mut other = Conn::open(&worker);
    host(&mut other, &[3], 1);
    let mut conn = Conn::open(&worker);
    host(&mut conn, &[0, 1], 1);

    // Slot 7 exists nowhere; slot 3 exists but was joined on another
    // connection. Both are refused; the items around them still run.
    let answers = conn.batch(&batch(
        1,
        vec![
            item(0, 30, 1.0, vec![0]),
            item(7, 31, 1.0, vec![0]),
            item(3, 32, 1.0, vec![0]),
            item(1, 33, 1.0, vec![1]),
        ],
    ));
    let answers: Vec<ClusterResponse> = answers.iter().map(decode).collect();
    assert!(
        matches!(&answers[0], ClusterResponse::WorkerReply(r) if r.seq == 30),
        "{:?}",
        answers[0]
    );
    assert!(
        matches!(&answers[1], ClusterResponse::ClusterErr(m) if m.contains("slot 7")),
        "{:?}",
        answers[1]
    );
    assert!(
        matches!(&answers[2], ClusterResponse::ClusterErr(m) if m.contains("slot 3")),
        "{:?}",
        answers[2]
    );
    assert!(
        matches!(&answers[3], ClusterResponse::WorkerReply(r) if r.seq == 33),
        "{:?}",
        answers[3]
    );
    assert_eq!(worker.executed(), 2);
}

#[test]
fn batch_retransmitted_after_reconnect_is_answered_from_the_cache() {
    let worker = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start");
    let request = batch(
        1,
        vec![
            item(0, 40, 1.0, vec![0, 1]),
            item(1, 41, 1.0, vec![1]),
            item(2, 42, 0.5, vec![0]),
        ],
    );
    let mut conn = Conn::open(&worker);
    host(&mut conn, &[0, 1, 2], 1);
    let first = conn.batch(&request);
    assert!(first
        .iter()
        .all(|f| matches!(decode(f), ClusterResponse::WorkerReply(_))));
    assert_eq!((worker.executed(), worker.deduped()), (3, 0));

    // The connection dies; the proxy reconnects, re-joins every slot at the
    // same epoch (the pages survive, so nothing is re-uploaded) and resends
    // the same batch with the same seqs.
    drop(conn);
    let mut conn = Conn::open(&worker);
    for slot in 0..3 {
        assert_eq!(conn.join(slot, 1), 2, "slot {slot} kept its pages");
    }
    let again = conn.batch(&request);
    assert_eq!(
        again, first,
        "a retransmit must be answered byte-identically"
    );
    assert_eq!(worker.executed(), 3, "a retransmit must not re-execute");
    assert_eq!(worker.deduped(), 3);
}

#[test]
fn stale_epoch_batch_is_fenced_item_by_item() {
    let worker = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start");
    let mut old = Conn::open(&worker);
    host(&mut old, &[0, 1], 1);
    // A new leader joins at epoch 2: the old regime is deposed.
    let mut new = Conn::open(&worker);
    new.join(0, 2);

    let answers = old.batch(&batch(
        1,
        vec![item(0, 50, 1.0, vec![0]), item(1, 51, 1.0, vec![0])],
    ));
    let answers: Vec<ClusterResponse> = answers.iter().map(decode).collect();
    assert_eq!(answers, vec![ClusterResponse::Fenced { epoch: 2 }; 2]);
    assert_eq!(worker.executed(), 0);
}

#[test]
fn same_epoch_rejoin_routes_block_writes_and_fetches_to_that_slot() {
    let worker = WorkerServer::start("127.0.0.1:0", WorkerConfig::default()).expect("start");
    let mut conn = Conn::open(&worker);
    host(&mut conn, &[0, 1], 1);
    let fetch = ClusterRequest::FetchBlocks {
        epoch: 1,
        blocks: vec![0],
    };

    // Bound to slot 1 (joined last): block 2 lands there.
    conn.upload(1, vec![(2, page(150, 2))]);
    let ClusterResponse::RawBlocks { worker: w, blocks } = conn.round_trip(&fetch) else {
        panic!("fetch refused");
    };
    assert_eq!((w, &blocks[0].1), (1, &Some(pages(1)[0].1.clone())));

    // A same-epoch re-join switches the binding and keeps slot 0's state.
    assert_eq!(conn.join(0, 1), 2, "slot 0 kept its pages");
    conn.upload(1, vec![(2, page(50, 1))]);
    let ClusterResponse::RawBlocks { worker: w, blocks } = conn.round_trip(&fetch) else {
        panic!("fetch refused");
    };
    assert_eq!((w, &blocks[0].1), (0, &Some(pages(0)[0].1.clone())));

    // Each slot's block 2 holds what was written while bound to it.
    let answers = conn.batch(&batch(
        1,
        vec![item(0, 60, 1.0, vec![2]), item(1, 61, 1.0, vec![2])],
    ));
    let ids: Vec<Vec<u64>> = answers
        .iter()
        .map(|f| match decode(f) {
            ClusterResponse::WorkerReply(r) => {
                let mut ids: Vec<u64> = r.records.iter().map(|r| r.id).collect();
                ids.sort_unstable();
                ids
            }
            other => panic!("refused: {other:?}"),
        })
        .collect();
    assert_eq!(ids, vec![vec![50], vec![150, 151]]);
}
