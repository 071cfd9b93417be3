//! Ablation A1: declustering cost scaling (the complexities §4 quotes:
//! DM/FX/HCAM are O(N), SSP/MST/minimax O(N^2)).
//!
//! Run with `cargo bench -p pargrid-bench --bench decluster_cost`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pargrid_core::{ConflictPolicy, DeclusterInput, DeclusterMethod, EdgeWeight, IndexScheme};
use pargrid_datagen::dsmc3d_sized;
use std::hint::black_box;

fn inputs() -> Vec<(usize, DeclusterInput)> {
    [4_000usize, 16_000, 64_000]
        .iter()
        .map(|&n| {
            let ds = dsmc3d_sized(42, n);
            let gf = ds.build_grid_file();
            let input = DeclusterInput::from_grid_file(&gf);
            (input.n_buckets(), input)
        })
        .collect()
}

fn bench_decluster_cost(c: &mut Criterion) {
    let inputs = inputs();
    let methods = [
        DeclusterMethod::Index(IndexScheme::DiskModulo, ConflictPolicy::DataBalance),
        DeclusterMethod::Index(IndexScheme::FieldwiseXor, ConflictPolicy::DataBalance),
        DeclusterMethod::Index(IndexScheme::Hilbert, ConflictPolicy::DataBalance),
        DeclusterMethod::Ssp(EdgeWeight::Proximity),
        DeclusterMethod::Minimax(EdgeWeight::Proximity),
    ];
    let mut group = c.benchmark_group("decluster_cost");
    group.sample_size(10);
    for (n_buckets, input) in &inputs {
        for method in &methods {
            group.bench_with_input(
                BenchmarkId::new(method.label(), n_buckets),
                input,
                |b, input| b.iter(|| black_box(method.assign(black_box(input), 16, 42))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_decluster_cost);
criterion_main!(benches);
