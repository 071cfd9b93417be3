//! The layer replay of a traced run: the workload's own inputs, sent
//! directly to each layer's public functions with a span around every call.
//! Each loop makes one discarded warm-up pass and one measured pass.
//!
//! The replay builds its own engines from the served stack's grid and
//! declustering — an in-process one and one behind worker servers — so that
//! every workload reports what the same queries cost on either, and so that
//! the write-path replay mutates nothing the load generator checks.

use std::path::Path;
use std::sync::Arc;

use pargrid_core::Assignment;
use pargrid_geom::Rect;
use pargrid_gridfile::page::{decode_page, encode_page, HEADER_BYTES};
use pargrid_gridfile::{GridFile, Wal, WalOp};
use pargrid_net::frame::read_frame;
use pargrid_net::{RecordsReply, Response};
use pargrid_parallel::{BlockStore, ParallelGridFile};

use crate::inputs::{anchor_points, Templates, Writer};
use crate::spec::{REPLAY_TEMPLATES, REPLAY_WRITES};
use crate::stack::EngineHandle;
use crate::trace::Tracer;

/// Pages the page-scan and store-read replays touch.
const REPLAY_PAGES: usize = 1024;

/// Exact counts the replay makes beside its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    /// Σ records in the buckets the templates' plans read.
    pub scanned: u64,
    /// Σ records the templates return.
    pub returned: u64,
    /// Mutations applied to the replay engine.
    pub writes: u64,
    /// Σ buckets rewritten or created by them.
    pub rewritten: u64,
    /// WAL bytes they appended.
    pub wal_bytes: u64,
    /// Retransmits per executed dispatch on the replay's worker servers.
    pub dedup_ratio: f64,
}

/// Runs `body` over `0..n` twice; only the second pass is given the tracer.
fn two_passes(n: usize, tracer: &mut Tracer, mut body: impl FnMut(usize, &mut Tracer)) {
    let mut discard = tracer.sibling();
    for i in 0..n {
        body(i, &mut discard);
    }
    for i in 0..n {
        body(i, tracer);
    }
}

/// Replays the templates against every read-path layer, bottom up: plan,
/// serial in-memory query, engine query without sockets, reply encode, reply
/// decode. One template's spans share its index as request identifier.
fn replay_reads(
    grid: &GridFile,
    local: &ParallelGridFile,
    templates: &Templates,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) {
    let mut session = local.session();
    two_passes(templates.rects.len(), tracer, |i, tracer| {
        let rect: &Rect = &templates.rects[i];
        let req = i as u64;
        tracer.time("gridfile.plan", req, || grid.range_query_buckets(rect));
        tracer.time("gridfile.serial_query", req, || grid.range_query(rect));
        let outcome = tracer.time("parallel.query", req, || session.query(rect));
        let response = Response::Records(RecordsReply {
            incomplete: outcome.incomplete,
            elapsed_us: outcome.elapsed_us,
            comm_us: outcome.comm_us,
            response_blocks: outcome.response_blocks,
            total_blocks: outcome.total_blocks,
            cache_hits: outcome.cache_hits,
            records: outcome.records,
        });
        let bytes = tracer.time("net.encode", req, || response.encode_frame());
        let bytes = bytes.expect("reply fits a frame");
        tracer.time("net.decode", req, || {
            let frame = read_frame(&mut &bytes[..]).expect("own frame reads back");
            Response::decode(frame.msg_type, &frame.payload).expect("own reply decodes")
        });
    });
    let _ = session.close();
    for rect in &templates.rects {
        let (buckets, records) = grid.range_query(rect);
        counts.scanned += buckets
            .iter()
            .map(|&b| grid.bucket_records(b).len() as u64)
            .sum::<u64>();
        counts.returned += records.len() as u64;
    }
}

/// Replays page decode + rectangle filter, and positioned block reads from a
/// file-backed store, over the pages the first templates' plans touch.
fn replay_pages(grid: &GridFile, templates: &Templates, dir: &Path, tracer: &mut Tracer) {
    let cfg = grid.config();
    let (dim, payload, page_bytes) = (grid.dim(), cfg.payload_bytes, cfg.page_bytes);
    let capacity = grid.bucket_capacity().max(1);
    let mut pages: Vec<(Vec<u8>, &Rect)> = Vec::new();
    'collect: for rect in &templates.rects {
        for b in grid.range_query_buckets(rect) {
            for chunk in grid.bucket_records(b).chunks(capacity) {
                pages.push((encode_page(chunk, dim, payload, page_bytes), rect));
                if pages.len() == REPLAY_PAGES {
                    break 'collect;
                }
            }
        }
    }
    let path = dir.join("replay-store.blocks");
    let mut store = BlockStore::file(&path, HEADER_BYTES + page_bytes).expect("replay store");
    for (b, (page, _)) in pages.iter().enumerate() {
        store
            .put(b as u32, page.clone())
            .expect("replay store write");
    }
    two_passes(pages.len(), tracer, |i, tracer| {
        let (page, rect) = &pages[i];
        tracer.time("gridfile.page_scan", i as u64, || {
            let records = decode_page(page, payload);
            records
                .iter()
                .filter(|r| rect.contains_closed(&r.point))
                .count()
        });
        tracer.time("parallel.store_read", i as u64, || {
            store
                .read_block(i as u32)
                .expect("replay block reads")
                .len()
        });
    });
    drop(store);
    let _ = std::fs::remove_file(path);
}

/// Replays one seeded mutation stream against each write-path layer: the
/// in-memory grid file, the WAL alone (append + `fdatasync` on the scratch
/// file system), and the engine with its WAL attached, no sockets.
fn replay_writes(
    grid: &GridFile,
    local: &ParallelGridFile,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) {
    let domain = grid.config().domain;
    let mut writer = Writer::new(0, seed, anchor_points(grid), domain);
    let ops: Vec<WalOp> = (0..2 * REPLAY_WRITES)
        .map(|_| {
            let op = writer.next_op();
            writer.acknowledge(op.clone());
            op
        })
        .collect();

    let mut memory = grid.clone();
    let wal_path = dir.join("replay-wal.log");
    let (mut wal, _) = Wal::recover(&wal_path).expect("replay wal");
    let wal_before = local.wal_len_bytes();
    // The stream is stateful (a delete needs its insert), so the warm-up pass
    // is its first half and the measured pass its second.
    let mut discard = tracer.sibling();
    for (i, op) in ops.iter().enumerate() {
        let t = if i < REPLAY_WRITES {
            &mut discard
        } else {
            &mut *tracer
        };
        let req = i as u64;
        t.time("gridfile.mutate", req, || match op {
            WalOp::Insert(record) => memory.insert_tracked(*record),
            WalOp::Delete { id, point } => memory.delete_tracked(*id, point).1,
        });
        t.time("gridfile.wal_append_sync", req, || {
            wal.append(op)
                .and_then(|()| wal.sync())
                .expect("replay wal write")
        });
        let outcome = t.time("parallel.mutate", req, || match op {
            WalOp::Insert(record) => local.insert(*record),
            WalOp::Delete { id, point } => local.delete(*id, point),
        });
        let outcome = outcome.expect("replay mutation");
        counts.writes += 1;
        counts.rewritten +=
            (outcome.rewritten_buckets.len() + outcome.created_buckets.len()) as u64;
    }
    counts.wal_bytes = local.wal_len_bytes() - wal_before;
    drop(wal);
    let _ = std::fs::remove_file(wal_path);
}

/// The whole layer replay. Spans go to `tracer` under the names
/// `gridfile.plan`, `gridfile.serial_query`, `gridfile.page_scan`,
/// `parallel.store_read`, `parallel.query`, `net.encode`, `net.decode`,
/// `cluster.query`, `gridfile.mutate`, `gridfile.wal_append_sync` and
/// `parallel.mutate`.
pub fn replay(
    grid: &GridFile,
    assignment: &Assignment,
    templates: &Templates,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<ReplayCounts, String> {
    let mut counts = ReplayCounts::default();
    let build = |cluster: bool, sub: &str| {
        EngineHandle::build(Arc::new(grid.clone()), assignment, cluster, &dir.join(sub))
            .map_err(|e| format!("replay engine: {e}"))
    };

    let local = build(false, "replay-local")?;
    replay_reads(grid, &local.engine, templates, tracer, &mut counts);
    replay_pages(grid, templates, dir, tracer);
    replay_writes(grid, &local.engine, seed, dir, tracer, &mut counts);
    local.tear_down();

    // The same queries through `RemoteBackend`: engine → proxy thread →
    // loopback → worker server, still without a client socket.
    let remote = build(true, "replay-cluster")?;
    let mut session = remote.engine.session();
    let n = REPLAY_TEMPLATES.min(templates.rects.len());
    two_passes(n, tracer, |i, tracer| {
        let out = tracer.time("cluster.query", i as u64, || {
            session.query(&templates.rects[i])
        });
        assert!(!out.incomplete, "replay cluster query incomplete");
    });
    let _ = session.close();
    counts.dedup_ratio = remote.dedup_ratio();
    remote.tear_down();
    Ok(counts)
}
