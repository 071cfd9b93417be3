//! The pinned hot-path suite behind `BENCH_hotpath.json`.
//!
//! Every benchmark here is named in the repo-root trajectory file and
//! guarded by the CI `bench-smoke` job (`benchgate` fails the build on
//! any regression past 10% of the committed baseline). One group is a
//! before/after pair, kept so the difference stays visible and
//! regressions stay loud: `frame_encode/zero_copy` vs `frame_encode/copy`
//! — response framing via [`pargrid_net::FrameBuilder`] (payload
//! serialized straight into the frame buffer) vs the encode-then-copy
//! path.
//!
//! The rest are single-sided trajectory points: `store_read/file` (one
//! verified block read as the worker serves it, borrowed from the file's
//! mapping) and `store_read/alloc` (the same read copied into an owned
//! `Vec`, as the scrub path takes it), the coordinator → worker
//! transport, alone (`dispatch/channel`, a 256-message burst) and under a
//! whole query (`query_e2e/channel`), `elevator/read_batch` (worker
//! disk-batch throughput), `frame_decode/records` (reading one framed
//! reply), `bulk_load/grid_file`, and the checksum kernel under every block
//! read and frame, `crc32/4k` (one block) and `crc32/256k` (one large
//! reply), through the public `crc32` with whichever kernel this CPU
//! selected.
//!
//! The per-record stages of a `scan`-sized reply: `page_scan/fused` (the
//! worker's filter of one block, records built for the hits only),
//! `reply_merge/8x900` (the coordinator's merge of eight worker parts into
//! the id-sorted answer), `frame_encode/*` (the records section written row
//! by row) and `frame_decode/records_7k` (`Response::decode` of the
//! 7,200-record payload, one run of 3-D rows); the scan, the encoder and
//! the decoder run at a fixed dimension count. And the three stages of the `pargrid-e2e`
//! benchmark's set-up on its own 400k-record instance:
//! `bulk_load/dsmc3d_400k`, `decluster/minimax_4.7k_x8` and
//! `engine_build/file_backed_dsmc3d_400k` (page encode and spill).
//!
//! Regenerate the trajectory file with:
//!
//! ```text
//! CRITERION_OUTPUT_JSON=BENCH_hotpath.json \
//!     cargo bench -p pargrid-bench --bench hotpath
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use crossbeam::channel::unbounded;
use pargrid_core::{ConflictPolicy, DeclusterInput, DeclusterMethod, EdgeWeight, IndexScheme};
use pargrid_datagen::dsmc3d_sized;
use pargrid_geom::{Point, Rect};
use pargrid_gridfile::page::{encode_page, scan_page};
use pargrid_gridfile::{crc32, Record};
use pargrid_net::frame::encode_frame;
use pargrid_net::{read_frame, RecordsReply, Response};
use pargrid_parallel::merge::merge_by_id;
use pargrid_parallel::{BlockStore, DiskModel, DiskParams, EngineConfig, ParallelGridFile};
use pargrid_sim::QueryWorkload;
use std::hint::black_box;
use std::sync::{mpsc, Arc};

/// The coordinator→worker dispatch hop itself: a 256-message burst sent
/// into the worker's channel while a consumer thread drains it, acking
/// each completed burst.
fn bench_dispatch(c: &mut Criterion) {
    const BURST: u64 = 256;

    let mut group = c.benchmark_group("dispatch");
    group.sample_size(300);
    group.throughput(Throughput::Elements(BURST));

    group.bench_function("channel", |b| {
        let (tx, rx) = unbounded::<u64>();
        let (ack_tx, ack_rx) = mpsc::channel::<()>();
        let consumer = std::thread::spawn(move || {
            let mut n = 0u64;
            while let Ok(v) = rx.recv() {
                n += v;
                if n.is_multiple_of(BURST) && ack_tx.send(()).is_err() {
                    break;
                }
            }
        });
        b.iter(|| {
            for _ in 0..BURST {
                tx.send(1u64).expect("channel open");
            }
            ack_rx.recv().expect("burst ack")
        });
        drop(tx);
        consumer.join().expect("consumer exits");
    });
    group.finish();
}

/// End-to-end query latency through the full engine on a small fully
/// cached file: the dispatch hop with worker scheduling and reply
/// collection included.
fn bench_query_e2e(c: &mut Criterion) {
    let ds = dsmc3d_sized(42, 1_000);
    let gf = Arc::new(ds.build_grid_file());
    let input = DeclusterInput::from_grid_file(&gf);
    let assignment = DeclusterMethod::Index(IndexScheme::DiskModulo, ConflictPolicy::DataBalance)
        .assign(&input, 2, 42);
    let workload = QueryWorkload::square(&ds.domain, 0.005, 64, 7);

    let mut group = c.benchmark_group("query_e2e");
    group.sample_size(400);
    group.bench_function("channel", |b| {
        let engine = ParallelGridFile::build(Arc::clone(&gf), &assignment, EngineConfig::default());
        let mut session = engine.session();
        let mut i = 0usize;
        b.iter(|| {
            let q = &workload.queries[i % workload.queries.len()];
            i += 1;
            black_box(session.query(q))
        })
    });
    group.finish();
}

/// Worker elevator pass: one sorted sweep over a shuffled block batch.
fn bench_elevator(c: &mut Criterion) {
    const BATCH: usize = 4_096;
    let template: Vec<u32> = (0..BATCH as u64)
        .map(|i| (i.wrapping_mul(2654435761) % 65_536) as u32)
        .collect();

    let mut group = c.benchmark_group("elevator");
    group.sample_size(100);
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("read_batch", |b| {
        let mut disk = DiskModel::new(DiskParams::default());
        let mut blocks = template.clone();
        b.iter(|| {
            blocks.copy_from_slice(&template);
            black_box(disk.read_batch(&mut blocks))
        })
    });
    group.finish();
}

fn records_response(n: usize) -> Response {
    let records = (0..n as u64)
        .map(|i| {
            let x = i as f64 * 0.001;
            Record::new(i, pargrid_geom::Point::new3(x, x + 0.5, x + 1.0))
        })
        .collect();
    Response::Records(RecordsReply {
        incomplete: false,
        elapsed_us: 1_234,
        comm_us: 56,
        response_blocks: 7,
        total_blocks: 21,
        cache_hits: 3,
        records,
    })
}

/// Response framing: serialize-into-frame (`encode_frame`) vs
/// encode-then-copy, plus the decode side.
fn bench_frame(c: &mut Criterion) {
    let resp = records_response(512);

    let mut group = c.benchmark_group("frame_encode");
    group.sample_size(200);
    group.bench_function("zero_copy", |b| {
        b.iter(|| black_box(resp.encode_frame().unwrap()))
    });
    group.bench_function("copy", |b| {
        b.iter(|| {
            let (t, p) = resp.encode();
            black_box(encode_frame(t, &p).unwrap())
        })
    });
    group.finish();

    let bytes = resp.encode_frame().unwrap();
    let mut group = c.benchmark_group("frame_decode");
    group.sample_size(200);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("records", |b| {
        b.iter(|| black_box(read_frame(&mut bytes.as_slice()).expect("valid frame")))
    });
    // The typed decode of a `scan`-sized reply: 7,200 3-D records, 245 KB.
    let (msg_type, payload) = records_response(7_200).encode();
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("records_7k", |b| {
        b.iter(|| black_box(Response::decode(msg_type, black_box(&payload)).expect("valid")))
    });
    group.finish();
}

/// The coordinator's reply assembly for a `scan`-sized query: eight worker
/// parts of 900 records, ids in no order (as pages yield them), merged
/// into one id-sorted vector.
fn bench_reply_merge(c: &mut Criterion) {
    let mut x = 42u64;
    let parts: Vec<Vec<Record>> = (0..8)
        .map(|_| {
            (0..900)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let id = (x >> 33) % 400_000;
                    Record::new(id, Point::new3(id as f64, 0.5, 1.0))
                })
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("reply_merge");
    group.sample_size(200);
    group.throughput(Throughput::Elements(7_200));
    group.bench_function("8x900", |b| {
        b.iter(|| black_box(merge_by_id(black_box(&parts))))
    });
    group.finish();
}

/// Verified file-backed block reads: as served (`read_block`) and copied
/// into an owned `Vec` (`get`).
fn bench_store_read(c: &mut Criterion) {
    const BLOCKS: u32 = 256;
    const BLOCK_BYTES: usize = 4_096;
    let path = std::env::temp_dir().join(format!("pargrid_hotpath_{}.blocks", std::process::id()));
    let mut store = BlockStore::file(&path, BLOCK_BYTES).expect("create block file");
    for blk in 0..BLOCKS {
        let bytes: Vec<u8> = (0..BLOCK_BYTES)
            .map(|i| (i as u32).wrapping_mul(blk + 1) as u8)
            .collect();
        store.put(blk, bytes).expect("put block");
    }

    let mut group = c.benchmark_group("store_read");
    group.sample_size(300);
    group.throughput(Throughput::Bytes(BLOCK_BYTES as u64));
    let mut i = 0u32;
    group.bench_function("file", |b| {
        b.iter(|| {
            let blk = i % BLOCKS;
            i += 1;
            black_box(store.read_block(blk).expect("read").len())
        })
    });
    group.bench_function("alloc", |b| {
        b.iter(|| {
            let blk = i % BLOCKS;
            i += 1;
            black_box(store.get(blk).expect("read").len())
        })
    });
    group.finish();

    drop(store);
    let _ = std::fs::remove_file(&path);
}

/// The checksum kernel over one stored block (header + 4 KB page) and one
/// large reply frame.
fn bench_crc32(c: &mut Criterion) {
    let bytes: Vec<u8> = (0..256 * 1024u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    let block = &bytes[..4_100];

    let mut group = c.benchmark_group("crc32");
    group.sample_size(300);
    group.throughput(Throughput::Bytes(block.len() as u64));
    group.bench_function("4k", |b| b.iter(|| black_box(crc32(black_box(block)))));
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("256k", |b| b.iter(|| black_box(crc32(black_box(&bytes)))));
    group.finish();
}

/// The worker's fused scan of one full 4 KB DSMC page: coordinates compared
/// in place, records built for the hits only (44 of the page's 128 here).
fn bench_page_scan(c: &mut Criterion) {
    let ds = dsmc3d_sized(7, 20_000);
    let cfg = ds.grid_config();
    let capacity = cfg.page_bytes / Record::encoded_size(3, cfg.payload_bytes);
    let records: Vec<Record> = ds.records().take(capacity).collect();
    let page = encode_page(&records, 3, cfg.payload_bytes, cfg.page_bytes);
    // A box around the first record, sized to take in part of the page.
    let center = records[0].point;
    let corner = |sign: f64| {
        let at = |k: usize| center.get(k) + sign * 0.3 * ds.domain.side(k);
        Point::new3(at(0), at(1), at(2))
    };
    let query = Rect::new(corner(-1.0), corner(1.0));

    let mut group = c.benchmark_group("page_scan");
    group.sample_size(300);
    group.throughput(Throughput::Elements(records.len() as u64));
    let mut out = Vec::with_capacity(records.len());
    group.bench_function("fused", |b| {
        b.iter(|| {
            out.clear();
            black_box(scan_page(
                black_box(&page),
                cfg.payload_bytes,
                &query,
                &mut out,
            ))
        })
    });
    group.finish();
}

/// Sorted bulk load of a 20k-record DSMC snapshot into a grid file.
fn bench_bulk_load(c: &mut Criterion) {
    let ds = dsmc3d_sized(7, 20_000);
    let mut group = c.benchmark_group("bulk_load");
    group.sample_size(20);
    group.throughput(Throughput::Elements(ds.len() as u64));
    group.bench_function("grid_file", |b| b.iter(|| black_box(ds.build_grid_file())));
    group.finish();
}

/// The two largest stages of the `pargrid-e2e` benchmark's set-up, on its
/// own instance: 400k DSMC records bulk-loaded into 4.7k buckets, and those
/// buckets declustered over 8 disks by minimax.
fn bench_setup_stages(c: &mut Criterion) {
    let ds = dsmc3d_sized(42, 400_000);
    let mut group = c.benchmark_group("bulk_load");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ds.len() as u64));
    group.bench_function("dsmc3d_400k", |b| {
        b.iter(|| black_box(ds.build_grid_file()))
    });
    group.finish();

    let gf = Arc::new(ds.build_grid_file());
    let input = DeclusterInput::from_grid_file(&gf);
    let minimax = DeclusterMethod::Minimax(EdgeWeight::Proximity);
    let mut group = c.benchmark_group("decluster");
    group.sample_size(10);
    group.bench_function("minimax_4.7k_x8", |b| {
        b.iter(|| black_box(minimax.assign(black_box(&input), 8, 42)))
    });
    group.finish();

    // The engine build the benchmark times as `parallel.build_s`: every
    // bucket encoded into 4 KB pages and spilled to eight worker files. The
    // engine shares this bench's grid file rather than copying it; an
    // iteration also shuts the engine down.
    let assignment = minimax.assign(&input, 8, 42);
    let dir = std::env::temp_dir().join(format!("pargrid_hotpath_spill_{}", std::process::id()));
    let mut group = c.benchmark_group("engine_build");
    group.sample_size(10);
    group.bench_function("file_backed_dsmc3d_400k", |b| {
        b.iter(|| {
            let engine = ParallelGridFile::build(
                Arc::clone(&gf),
                &assignment,
                EngineConfig::file_backed(&dir),
            );
            black_box(engine.n_workers())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_query_e2e,
    bench_elevator,
    bench_frame,
    bench_reply_merge,
    bench_store_read,
    bench_crc32,
    bench_page_scan,
    bench_bulk_load,
    bench_setup_stages
);
criterion_main!(benches);
