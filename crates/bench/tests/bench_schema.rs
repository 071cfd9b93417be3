//! Schema validation for the committed `BENCH_hotpath.json` trajectory
//! file: the file the CI `bench-smoke` job gates against must stay
//! parseable and complete.

use pargrid_obs::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Every benchmark the pinned suite (`benches/hotpath.rs`) must pin.
const REQUIRED: &[&str] = &[
    "dispatch/channel",
    "query_e2e/channel",
    "elevator/read_batch",
    "frame_encode/zero_copy",
    "frame_encode/copy",
    "frame_decode/records",
    "frame_decode/records_7k",
    "reply_merge/8x900",
    "store_read/alloc",
    "store_read/file",
    "crc32/4k",
    "crc32/256k",
    "page_scan/fused",
    "bulk_load/grid_file",
    "bulk_load/dsmc3d_400k",
    "decluster/minimax_4.7k_x8",
    "engine_build/file_backed_dsmc3d_400k",
];

fn trajectory_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotpath.json")
}

fn load() -> BTreeMap<String, (f64, f64, u64)> {
    let path = trajectory_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regenerate with CRITERION_OUTPUT_JSON)",
            path.display()
        )
    });
    let doc = parse(&text).expect("trajectory file is valid JSON");

    assert_eq!(
        doc.get("schema_version").and_then(Json::as_num),
        Some(1.0),
        "schema_version must be 1"
    );
    assert_eq!(
        doc.get("suite").and_then(Json::as_str),
        Some("hotpath"),
        "suite must be the pinned hotpath suite"
    );

    let mut out = BTreeMap::new();
    for b in doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .expect("benchmarks array")
    {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string();
        let mean = b.get("mean_ns").and_then(Json::as_num).expect("mean_ns");
        let p50 = b.get("p50_ns").and_then(Json::as_num).expect("p50_ns");
        let samples = b.get("samples").and_then(Json::as_num).expect("samples") as u64;
        assert!(
            mean.is_finite() && mean > 0.0,
            "{name}: mean_ns must be positive"
        );
        assert!(
            p50.is_finite() && p50 > 0.0,
            "{name}: p50_ns must be positive"
        );
        assert!(samples > 0, "{name}: samples must be positive");
        assert!(
            out.insert(name.clone(), (mean, p50, samples)).is_none(),
            "duplicate {name}"
        );
    }
    out
}

#[test]
fn trajectory_file_matches_schema_and_names_every_pinned_benchmark() {
    let benches = load();
    assert!(
        benches.len() >= 6,
        "trajectory must pin at least 6 benchmarks, found {}",
        benches.len()
    );
    for name in REQUIRED {
        assert!(
            benches.contains_key(*name),
            "missing pinned benchmark {name}"
        );
    }
}
