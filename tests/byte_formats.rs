//! Every byte format the system stores or sends, pinned through public
//! APIs: a client range-request frame, a `RESP_RECORDS` frame, a cluster
//! worker reply, a two-item cluster dispatch batch, a WAL insert and delete
//! record, a persisted grid-file
//! image and an encoded disk page. Files and peers written by one build
//! must stay readable by the next, so none of these bytes may move.

use pargrid::geom::{Point, Rect};
use pargrid::gridfile::page::encode_page;
use pargrid::gridfile::{GridConfig, GridFile, Record, WalOp};
use pargrid::net::cluster_proto::{BatchItem, ClusterRequest, ClusterResponse, WireReply};
use pargrid::net::frame::encode_frame;
use pargrid::net::proto::{RecordsReply, Request, Response};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Three records of three dimensionalities: small, writer-space and
/// maximal ids.
fn records() -> Vec<Record> {
    vec![
        Record::new(7, Point::new2(1.5, -2.0)),
        Record::new(1 << 40 | 3, Point::new3(0.0, 0.25, 1e300)),
        Record::new(u64::MAX, Point::new(&[9.0])),
    ]
}

const RECORDS_SECTION: &str = "03000000\
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
fn client_range_request_frame() {
    let (t, p) = Request::RangeQuery {
        lo: vec![0.0, -5.5],
        hi: vec![1.0, 9.75],
    }
    .encode();
    let frame = encode_frame(t, &p).expect("small frame");
    // "PG", version 1, REQ_RANGE, len 34; dim 2, (lo, hi) per dim; CRC-32.
    let expected = "5047 01 01 22000000 \
        0200 0000000000000000 000000000000f03f 00000000000016c0 0000000000802340 \
        39e83905";
    assert_eq!(hex(&frame), expected.replace(' ', ""));
}

#[test]
fn records_reply_frame() {
    let frame = Response::Records(RecordsReply {
        incomplete: true,
        elapsed_us: 0x0102,
        comm_us: 3,
        response_blocks: 4,
        total_blocks: 5,
        cache_hits: 6,
        records: records(),
    })
    .encode_frame()
    .expect("small frame");
    // "PG", version 1, RESP_RECORDS, len 123; incomplete flag, five
    // counters, the records section; CRC-32.
    let expected = format!(
        "504701817b000000\
         01\
         0201000000000000\
         0300000000000000\
         0400000000000000\
         0500000000000000\
         0600000000000000\
         {RECORDS_SECTION}\
         a97b3e6b"
    );
    assert_eq!(hex(&frame), expected);
}

#[test]
fn cluster_worker_reply() {
    let (t, p) = ClusterResponse::WorkerReply(WireReply {
        query_id: 11,
        seq: 99,
        worker: 3,
        blocks_requested: 4,
        cache_hits: 2,
        disk_us: 1000,
        cpu_us: 10,
        corrupt_blocks: vec![5],
        error: Some("bad".into()),
        records: records(),
    })
    .encode();
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
    assert_eq!(t, 0xa1);
    assert_eq!(hex(&p), format!("{head}{RECORDS_SECTION}"));
}

#[test]
fn cluster_dispatch_batch_frame() {
    let item = |slot, seq, priority, rect, blocks| BatchItem {
        slot,
        query_id: 11,
        seq,
        priority,
        rect,
        blocks,
    };
    let (t, p) = ClusterRequest::DispatchBatch {
        epoch: 7,
        items: vec![
            item(1, 99, 0, Rect::new2(0.0, -1.0, 10.0, 1.0), vec![0, 5]),
            item(
                6,
                100,
                1,
                Rect::new(Point::new(&[0.5]), Point::new(&[2.0])),
                vec![],
            ),
        ],
    }
    .encode();
    let frame = encode_frame(t, &p).expect("small frame");
    // "PG", version 1, type 0x29, len 122; epoch, item count; per item the
    // slot, then the `Dispatch` fields: query id, seq, priority, the rect
    // (dim, then lo/hi per dim), the counted block ids; CRC-32.
    let expected = "5047 01 29 7a000000 \
        0700000000000000 02000000 \
        01000000 0b00000000000000 6300000000000000 00 \
        0200 0000000000000000 0000000000002440 000000000000f0bf 000000000000f03f \
        02000000 00000000 05000000 \
        06000000 0b00000000000000 6400000000000000 01 \
        0100 000000000000e03f 0000000000000040 \
        00000000 \
        eeaf49d7";
    assert_eq!(hex(&frame), expected.replace(' ', ""));
}

#[test]
fn wal_insert_and_delete_records() {
    let point = Point::new3(1.5, -2.0, 0.25);
    let coords = "000000000000f83f\
        00000000000000c0\
        000000000000d03f";
    // len u32 = 35, op, id u64 = 7, dim u16 = 3, coords, CRC-32.
    let insert = WalOp::Insert(Record::new(7, point)).encode();
    assert_eq!(
        hex(&insert),
        format!("23000000 01 0700000000000000 0300 {coords} b854f9f6").replace(' ', "")
    );
    let delete = WalOp::Delete { id: 7, point }.encode();
    assert_eq!(
        hex(&delete),
        format!("23000000 02 0700000000000000 0300 {coords} a16a2a7d").replace(' ', "")
    );
}

#[test]
fn persisted_image_length_and_footer() {
    let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), 4);
    let mut x = 9u64;
    let gf = GridFile::bulk_load(
        cfg,
        (0..500u64).map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Record::new(
                i,
                Point::new2(
                    ((x >> 16) % 10000) as f64 / 100.0,
                    ((x >> 40) % 10000) as f64 / 100.0,
                ),
            )
        }),
    );
    let bytes = gf.to_bytes();
    assert_eq!(bytes.len(), 16272);
    assert_eq!(bytes[..8], *b"PGF1\x02\x00\x01\x00");
    assert_eq!(bytes[bytes.len() - 4..], 0x02E2_44A1u32.to_le_bytes());
}

#[test]
fn encoded_page() {
    let page = encode_page(
        &[
            Record::new(10, Point::new2(1.0, 2.0)),
            Record::new(11, Point::new2(3.5, -4.25)),
        ],
        2,
        0,
        64,
    );
    let expected = "02000200\
        0a00000000000000\
        000000000000f03f\
        0000000000000040\
        0b00000000000000\
        0000000000000c40\
        00000000000011c0";
    assert_eq!(hex(&page), format!("{expected}{}", "00".repeat(16)));
}
