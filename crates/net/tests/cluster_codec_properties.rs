//! Property tests for the cluster-plane codec (`cluster_proto`): every
//! worker/election frame round-trips; truncation, bit-flips, version
//! skew, and arbitrary bytes surface as typed errors — never a panic.

use proptest::prelude::*;

use pargrid_geom::{Point, Rect};
use pargrid_gridfile::codec::Wire;
use pargrid_gridfile::{crc32, Record};
use pargrid_net::cluster_proto::{BatchItem, ClusterRequest, ClusterResponse, MetaOp, WireReply};
use pargrid_net::frame::{encode_frame, read_frame, FrameError, PROTOCOL_VERSION, TRAILER_LEN};

fn arb_key() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6f64..1.0e6, 1..=4)
}

/// Printable-ASCII strings up to `max` bytes (the shimmed proptest has no
/// regex string strategies).
fn arb_string(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..max)
        .prop_map(|b| String::from_utf8(b).expect("printable ascii"))
}

fn arb_meta_op() -> impl Strategy<Value = MetaOp> {
    prop_oneof![
        Just(MetaOp::Noop),
        (any::<u64>(), arb_key()).prop_map(|(id, key)| MetaOp::Insert { id, key }),
        (any::<u64>(), arb_key()).prop_map(|(id, key)| MetaOp::Delete { id, key }),
        any::<u64>().prop_map(|epoch| MetaOp::Rebalance { epoch }),
    ]
}

fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec((any::<u64>(), arb_key()), 0..4).prop_map(|rs| {
        rs.into_iter()
            .map(|(id, k)| Record::new(id, Point::new(&k)))
            .collect()
    })
}

fn arb_wire_reply() -> impl Strategy<Value = WireReply> {
    (
        (any::<u64>(), any::<u64>(), any::<u32>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(any::<u32>(), 0..4),
        prop::option::of(arb_string(24)),
        arb_records(),
    )
        .prop_map(
            |((query_id, seq, worker), (br, ch, disk_us, cpu_us), corrupt, error, records)| {
                WireReply {
                    query_id,
                    seq,
                    worker,
                    blocks_requested: br,
                    cache_hits: ch,
                    disk_us,
                    cpu_us,
                    corrupt_blocks: corrupt,
                    error,
                    records,
                }
            },
        )
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    prop::collection::vec((-1.0e6f64..1.0e6, -1.0e6f64..1.0e6), 2..=4).prop_map(|corners| {
        let lo: Vec<f64> = corners.iter().map(|(a, b)| a.min(*b)).collect();
        let hi: Vec<f64> = corners.iter().map(|(a, b)| a.max(*b)).collect();
        Rect::new(Point::new(&lo), Point::new(&hi))
    })
}

fn arb_pages() -> impl Strategy<Value = Vec<(u32, Vec<u8>)>> {
    prop::collection::vec(
        (any::<u32>(), prop::collection::vec(any::<u8>(), 0..64)),
        0..4,
    )
}

fn arb_batch_item() -> impl Strategy<Value = BatchItem> {
    (
        (any::<u32>(), any::<u64>(), any::<u64>(), 0u8..=1),
        arb_rect(),
        prop::collection::vec(any::<u32>(), 0..8),
    )
        .prop_map(
            |((slot, query_id, seq, priority), rect, blocks)| BatchItem {
                slot,
                query_id,
                seq,
                priority,
                rect,
                blocks,
            },
        )
}

fn arb_request() -> impl Strategy<Value = ClusterRequest> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), any::<u32>(), any::<u32>()).prop_map(
            |(slot, epoch, payload_bytes, seen_seq_window)| ClusterRequest::WorkerJoin {
                slot,
                epoch,
                payload_bytes,
                seen_seq_window,
            }
        ),
        (
            (any::<u64>(), any::<u64>(), any::<u64>(), 0u8..=1),
            arb_rect(),
            prop::collection::vec(any::<u32>(), 0..8),
        )
            .prop_map(|((epoch, query_id, seq, priority), rect, blocks)| {
                ClusterRequest::Dispatch {
                    epoch,
                    query_id,
                    seq,
                    priority,
                    rect,
                    blocks,
                }
            }),
        (any::<u64>(), prop::collection::vec(arb_batch_item(), 0..4))
            .prop_map(|(epoch, items)| ClusterRequest::DispatchBatch { epoch, items }),
        (any::<u64>(), arb_pages())
            .prop_map(|(epoch, blocks)| ClusterRequest::WriteBlocks { epoch, blocks }),
        (any::<u64>(), prop::collection::vec(any::<u32>(), 0..8))
            .prop_map(|(epoch, blocks)| ClusterRequest::FetchBlocks { epoch, blocks }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(term, epoch, commit)| {
            ClusterRequest::Heartbeat {
                term,
                epoch,
                commit,
            }
        }),
        (any::<u64>(), any::<u32>())
            .prop_map(|(epoch, ttl_ms)| ClusterRequest::LeaseGrant { epoch, ttl_ms }),
        (any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
            |(term, candidate, log_len, last_log_term)| ClusterRequest::VoteRequest {
                term,
                candidate,
                log_len,
                last_log_term,
            }
        ),
        (
            (any::<u64>(), any::<u32>(), any::<u64>(), 1u64..1 << 32),
            prop::collection::vec(arb_meta_op(), 0..4),
        )
            .prop_map(|((term, leader, commit, start_index), ops)| {
                ClusterRequest::MetaAppend {
                    term,
                    leader,
                    commit,
                    start_index,
                    ops,
                }
            }),
    ]
}

fn arb_response() -> impl Strategy<Value = ClusterResponse> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(slot, epoch, blocks_held)| {
            ClusterResponse::Welcome {
                slot,
                epoch,
                blocks_held,
            }
        }),
        arb_wire_reply().prop_map(ClusterResponse::WorkerReply),
        (any::<u64>(), any::<u32>())
            .prop_map(|(epoch, written)| ClusterResponse::BlocksAck { epoch, written }),
        (
            any::<u32>(),
            prop::collection::vec(
                (
                    any::<u32>(),
                    prop::option::of(prop::collection::vec(any::<u8>(), 0..32))
                ),
                0..4,
            ),
        )
            .prop_map(|(worker, blocks)| ClusterResponse::RawBlocks { worker, blocks }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(term, epoch)| ClusterResponse::HeartbeatAck { term, epoch }),
        (any::<bool>(), any::<u64>())
            .prop_map(|(granted, epoch)| ClusterResponse::LeaseAck { granted, epoch }),
        (any::<u64>(), any::<bool>())
            .prop_map(|(term, granted)| ClusterResponse::VoteReply { term, granted }),
        (any::<u64>(), any::<bool>(), any::<u64>())
            .prop_map(|(term, ok, log_len)| ClusterResponse::MetaAck { term, ok, log_len }),
        any::<u64>().prop_map(|epoch| ClusterResponse::Fenced { epoch }),
        arb_string(40).prop_map(ClusterResponse::ClusterErr),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cluster_requests_round_trip(req in arb_request()) {
        let (t, p) = req.encode();
        prop_assert_eq!(ClusterRequest::decode(t, &p).unwrap(), req);
    }

    #[test]
    fn cluster_responses_round_trip(resp in arb_response()) {
        let (t, p) = resp.encode();
        prop_assert_eq!(ClusterResponse::decode(t, &p).unwrap(), resp);
    }

    #[test]
    fn truncated_cluster_requests_are_typed_errors(
        req in arb_request(),
        cut_frac in 0.0f64..1.0,
    ) {
        let (t, p) = req.encode();
        if !p.is_empty() {
            let cut = ((p.len() - 1) as f64 * cut_frac) as usize;
            // Every field is length-prescribed, so a strict prefix can
            // never decode; it must fail with a typed error, not panic.
            prop_assert!(ClusterRequest::decode(t, &p[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn truncated_cluster_responses_are_typed_errors(
        resp in arb_response(),
        cut_frac in 0.0f64..1.0,
    ) {
        let (t, p) = resp.encode();
        if !p.is_empty() {
            let cut = ((p.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(ClusterResponse::decode(t, &p[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bit_flipped_cluster_payloads_never_panic(
        req in arb_request(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        // The frame CRC catches wire corruption; this asserts the proto
        // layer stays panic-free even if handed corrupt bytes directly
        // (a hostile peer speaks valid frames with garbage inside).
        let (t, mut p) = req.encode();
        if !p.is_empty() {
            let pos = ((p.len() - 1) as f64 * pos_frac) as usize;
            p[pos] ^= flip;
            let _ = ClusterRequest::decode(t, &p);
            let _ = ClusterResponse::decode(t, &p);
        }
    }

    #[test]
    fn version_skewed_cluster_frames_are_rejected(
        req in arb_request(),
        bump in 1u8..=255,
    ) {
        // A cluster frame from a node running a different protocol
        // version dies at the frame layer with `BadVersion`, before any
        // cluster decoding happens.
        let (t, p) = req.encode();
        let mut bytes = encode_frame(t, &p).unwrap();
        let version = PROTOCOL_VERSION.wrapping_add(bump);
        bytes[2] = version;
        let n = bytes.len();
        let crc = crc32(&bytes[..n - TRAILER_LEN]);
        bytes[n - TRAILER_LEN..].copy_from_slice(&crc.to_le_bytes());
        prop_assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::BadVersion(v)) if v == version
        ));
    }

    #[test]
    fn arbitrary_bytes_never_panic_cluster_decoders(
        msg_type in 0u8..=255,
        payload in prop::collection::vec(any::<u8>(), 0..300usize),
    ) {
        let _ = ClusterRequest::decode(msg_type, &payload);
        let _ = ClusterResponse::decode(msg_type, &payload);
    }

    #[test]
    fn arbitrary_dispatch_batch_payloads_never_panic(
        epoch in any::<u64>(),
        count in any::<u32>(),
        body in prop::collection::vec(any::<u8>(), 0..300usize),
    ) {
        // Past the epoch the decoder meets an item count and then items:
        // garbage there fails typed, and a count the remaining bytes cannot
        // hold at `BatchItem::MIN_BYTES` apiece is refused before anything
        // is allocated for it.
        let mut p = Vec::new();
        epoch.put(&mut p);
        count.put(&mut p);
        p.extend_from_slice(&body);
        let decoded = ClusterRequest::decode(0x29, &p);
        if count as usize > body.len() / BatchItem::MIN_BYTES {
            let e = decoded.expect_err("hostile count");
            prop_assert!(e.0.contains("exceeds payload"), "{}", e);
        }
    }

    #[test]
    fn unknown_message_types_are_typed_errors(msg_type in 0u8..=255) {
        // Outside the cluster ranges both decoders refuse immediately.
        let req = ClusterRequest::decode(msg_type, &[]);
        let resp = ClusterResponse::decode(msg_type, &[]);
        if !(0x20..=0x27).contains(&msg_type) {
            prop_assert!(req.is_err());
        }
        if !(0xA0..=0xA9).contains(&msg_type) {
            prop_assert!(resp.is_err());
        }
    }
}
