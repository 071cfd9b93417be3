//! The client and cluster decoders accept and reject exactly the inputs
//! they always have.
//!
//! Each message family gets a seeded corpus: the valid encodings of the
//! round-trip tests, every truncation of each, every single-bit flip of
//! each, and 2,000 arbitrary byte strings. Every input's verdict — `Ok`
//! with the bytes its decoded value re-encodes to, or `Err` (the error text
//! is not compared) — is folded with its index into an FNV-1a digest. The
//! digests were generated before the decoders moved onto the shared codec
//! and are pinned below: a decoder change that moves one verdict moves the
//! digest.

use pargrid_geom::{Point, Rect};
use pargrid_gridfile::Record;
use pargrid_net::cluster_proto::{
    ClusterRequest, ClusterResponse, MetaOp, WireReply, PRIORITY_BATCH, PRIORITY_INTERACTIVE,
};
use pargrid_net::proto::{
    MutationAck, RebalanceCmd, RebalanceSummary, RecordsReply, Request, Response, WireError,
};

/// Arbitrary byte strings per message family.
const ARBITRARY: usize = 2_000;

/// One input: message type byte and payload.
type Input = (u8, Vec<u8>);

/// SplitMix64: the corpus's one source of arbitrary bytes.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The valid encodings, every truncation and every single-bit flip of
/// each, then [`ARBITRARY`] random payloads under random types from
/// `types`.
fn corpus(valid: &[Input], types: &[u8], seed: u64) -> Vec<Input> {
    let mut out = Vec::new();
    for (t, p) in valid {
        out.push((*t, p.clone()));
        for cut in 0..p.len() {
            out.push((*t, p[..cut].to_vec()));
        }
        for bit in 0..8 * p.len() {
            let mut flipped = p.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            out.push((*t, flipped));
        }
    }
    let mut s = seed;
    for _ in 0..ARBITRARY {
        let r = splitmix(&mut s);
        let t = types[(r % types.len() as u64) as usize];
        let len = ((r >> 32) % 96) as usize;
        out.push((t, (0..len).map(|_| splitmix(&mut s) as u8).collect()));
    }
    out
}

/// FNV-1a over `(index, Ok + re-encoded type and bytes | Err)` for every
/// input, and how many inputs decoded.
fn digest(inputs: &[Input], decode: impl Fn(u8, &[u8]) -> Option<Input>) -> (u64, usize) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut accepted = 0;
    for (i, (t, p)) in inputs.iter().enumerate() {
        eat(&(i as u64).to_le_bytes());
        match decode(*t, p) {
            Some((t2, bytes)) => {
                accepted += 1;
                eat(&[1, t2]);
                eat(&(bytes.len() as u64).to_le_bytes());
                eat(&bytes);
            }
            None => eat(&[0]),
        }
    }
    (h, accepted)
}

/// Asserts a pinned `(digest, accepted)` pair, printing the measured one.
fn check(family: &str, got: (u64, usize), pinned: (u64, usize)) {
    println!("{family}: ({:#018x}, {})", got.0, got.1);
    assert_eq!(got, pinned, "{family} decoder verdicts moved");
}

fn records() -> Vec<Record> {
    vec![
        Record::new(7, Point::new2(1.5, -2.0)),
        Record::new(1 << 40 | 3, Point::new3(0.0, 0.25, 1e300)),
        Record::new(u64::MAX, Point::new(&[9.0])),
    ]
}

fn requests() -> Vec<Request> {
    vec![
        Request::RangeQuery {
            lo: vec![0.0, -5.5],
            hi: vec![1.0, 9.75],
        },
        Request::PartialMatch {
            keys: vec![Some(3.25), None, Some(-1.0)],
        },
        Request::Ping { token: u64::MAX },
        Request::Stats,
        Request::Shutdown,
        Request::Insert {
            id: 99,
            key: vec![1.5, -2.5],
        },
        Request::Delete {
            id: u64::MAX,
            key: vec![0.0, 0.0, 7.25],
        },
        Request::Rebalance {
            cmd: RebalanceCmd::AddWorkers(2),
            dry_run: false,
        },
        Request::Rebalance {
            cmd: RebalanceCmd::RemoveWorker(u32::MAX),
            dry_run: true,
        },
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::Records(RecordsReply {
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
        }),
        Response::Records(RecordsReply {
            incomplete: true,
            elapsed_us: 0x0102,
            comm_us: 3,
            response_blocks: 4,
            total_blocks: 5,
            cache_hits: 6,
            records: records(),
        }),
        Response::Pong { token: 42 },
        Response::StatsText("# TYPE x counter\nx 1\n".into()),
        Response::Error(WireError::Malformed("nope".into())),
        Response::Error(WireError::Overloaded { retry_after_ms: 50 }),
        Response::Error(WireError::Incomplete("2 workers dead".into())),
        Response::Error(WireError::MutationFailed("wal device gone".into())),
        Response::Error(WireError::NotLeader {
            hint: "127.0.0.1:7880".into(),
        }),
        Response::ShutdownAck,
        Response::Mutation(MutationAck {
            applied: true,
            rewritten: 3,
            created: 1,
            freed: 0,
        }),
        Response::Mutation(MutationAck::default()),
        Response::Rebalance(RebalanceSummary {
            applied: true,
            moves: 17,
            moved_bytes: 1 << 40,
            full_moves: 80,
            active_workers: 9,
            predicted_objective: 0.625,
            baseline_objective: 0.5,
        }),
        Response::Rebalance(RebalanceSummary::default()),
    ]
}

fn cluster_requests() -> Vec<ClusterRequest> {
    vec![
        ClusterRequest::WorkerJoin {
            slot: 3,
            epoch: 7,
            payload_bytes: 42,
            seen_seq_window: 4096,
        },
        ClusterRequest::Dispatch {
            epoch: 7,
            query_id: 11,
            seq: 99,
            priority: PRIORITY_INTERACTIVE,
            rect: Rect::new(Point::new2(0.0, -1.0), Point::new2(10.0, 1.0)),
            blocks: vec![0, 5, 9],
        },
        ClusterRequest::Dispatch {
            epoch: 1,
            query_id: 2,
            seq: 3,
            priority: PRIORITY_BATCH,
            rect: Rect::new(Point::new(&[-4.0]), Point::new(&[4.0])),
            blocks: vec![],
        },
        ClusterRequest::WriteBlocks {
            epoch: 7,
            blocks: vec![(0, vec![1, 2, 3]), (1, vec![])],
        },
        ClusterRequest::FetchBlocks {
            epoch: 7,
            blocks: vec![2, 4],
        },
        ClusterRequest::Heartbeat {
            term: 3,
            epoch: 7,
            commit: 12,
        },
        ClusterRequest::LeaseGrant {
            epoch: 7,
            ttl_ms: 500,
        },
        ClusterRequest::VoteRequest {
            term: 4,
            candidate: 1,
            log_len: 17,
            last_log_term: 3,
        },
        ClusterRequest::MetaAppend {
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
        },
    ]
}

fn cluster_responses() -> Vec<ClusterResponse> {
    vec![
        ClusterResponse::Welcome {
            slot: 3,
            epoch: 7,
            blocks_held: 12,
        },
        ClusterResponse::WorkerReply(WireReply {
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
        }),
        ClusterResponse::WorkerReply(WireReply {
            query_id: 1,
            seq: 2,
            worker: 0,
            blocks_requested: 1,
            cache_hits: 0,
            disk_us: 5,
            cpu_us: 1,
            corrupt_blocks: vec![],
            error: None,
            records: vec![Record::new(1, Point::new2(3.0, 4.0))],
        }),
        ClusterResponse::BlocksAck {
            epoch: 7,
            written: 2,
        },
        ClusterResponse::RawBlocks {
            worker: 1,
            blocks: vec![(0, Some(vec![9, 9])), (1, None)],
        },
        ClusterResponse::HeartbeatAck { term: 3, epoch: 7 },
        ClusterResponse::LeaseAck {
            granted: true,
            epoch: 7,
        },
        ClusterResponse::VoteReply {
            term: 4,
            granted: false,
        },
        ClusterResponse::MetaAck {
            term: 4,
            ok: true,
            log_len: 17,
        },
        ClusterResponse::Fenced { epoch: 9 },
        ClusterResponse::ClusterErr("nope".into()),
    ]
}

#[test]
fn request_verdicts_are_pinned() {
    let valid: Vec<Input> = requests().iter().map(Request::encode).collect();
    let types = [0x01, 0x02, 0x03, 0x04, 0x06, 0x07, 0x08, 0x09];
    let inputs = corpus(&valid, &types, 0xC0DE_0001);
    let got = digest(&inputs, |t, p| {
        Request::decode(t, p).ok().map(|r| r.encode())
    });
    check("Request", got, REQUEST);
}

#[test]
fn response_verdicts_are_pinned() {
    let valid: Vec<Input> = responses().iter().map(Response::encode).collect();
    let types = [0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88];
    let inputs = corpus(&valid, &types, 0xC0DE_0002);
    let got = digest(&inputs, |t, p| {
        Response::decode(t, p).ok().map(|r| r.encode())
    });
    check("Response", got, RESPONSE);
}

#[test]
fn cluster_request_verdicts_are_pinned() {
    let valid: Vec<Input> = cluster_requests()
        .iter()
        .map(ClusterRequest::encode)
        .collect();
    let types: Vec<u8> = (0x20..=0x28).collect();
    let inputs = corpus(&valid, &types, 0xC0DE_0003);
    let got = digest(&inputs, |t, p| {
        ClusterRequest::decode(t, p).ok().map(|r| r.encode())
    });
    check("ClusterRequest", got, CLUSTER_REQUEST);
}

#[test]
fn cluster_response_verdicts_are_pinned() {
    let valid: Vec<Input> = cluster_responses()
        .iter()
        .map(ClusterResponse::encode)
        .collect();
    let types: Vec<u8> = (0xA0..=0xAA).collect();
    let inputs = corpus(&valid, &types, 0xC0DE_0004);
    let got = digest(&inputs, |t, p| {
        ClusterResponse::decode(t, p).ok().map(|r| r.encode())
    });
    check("ClusterResponse", got, CLUSTER_RESPONSE);
}

const REQUEST: (u64, usize) = (0x2e96_c2ca_d35c_7fab, 972);
const RESPONSE: (u64, usize) = (0x4291_d32b_7103_4476, 2971);
const CLUSTER_REQUEST: (u64, usize) = (0x95d7_7a2c_4f89_7ab8, 2507);
const CLUSTER_RESPONSE: (u64, usize) = (0x5ef4_5fe7_e489_6935, 2487);
