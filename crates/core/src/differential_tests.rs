//! "Same bits, same ties": the row kernel and the three algorithms built on
//! it, held to the per-pair code they replaced.
//!
//! * `similarity_row` vs the scalar `similarity`, element by element on
//!   `to_bits()`, over boxes chosen to sit on every branch of the proximity
//!   factor (overlapping, touching, disjoint, zero-extent, farther apart than
//!   the domain is wide), many of them sharing extents, before and after a
//!   long run of `swap_remove`s.
//! * `minimax_assign`, `short_spanning_path` and `maximum_similarity_tree` vs
//!   their `*_reference` twins on inputs where ties are the rule (Cartesian
//!   product files, duplicated rectangles) and on real grid files.
//! * Golden assignments generated by the commit before the kernel existed,
//!   and on the `pargrid-e2e` benchmark's own 4.7k-bucket instance by the
//!   commit before the extent dictionaries.

use crate::input::{BucketInfo, DeclusterInput};
use crate::minimax::{minimax_assign, minimax_assign_reference};
use crate::mst::{maximum_similarity_tree, maximum_similarity_tree_reference, mst_assign};
use crate::ssp::{short_spanning_path, short_spanning_path_reference, ssp_assign};
use crate::weights::{BoxColumns, EdgeWeight};
use pargrid_datagen::{dsmc3d_sized, hot2d, uniform2d};
use pargrid_geom::{Point, Rect, MAX_DIM};
use pargrid_gridfile::{CartesianProductFile, CellRegion};
use proptest::prelude::*;

const WEIGHTS: [EdgeWeight; 2] = [EdgeWeight::Proximity, EdgeWeight::EuclideanCenter];

/// Disk counts around every special case: one tree (`next tree == tree`),
/// small, the benchmark's 8, and the `m >= n` boundary from both sides.
fn disk_counts(n: usize) -> Vec<usize> {
    let mut ms = vec![1, 2, 3, 7, 8, 16, n.saturating_sub(1).max(1), n, n + 1];
    ms.sort_unstable();
    ms.dedup();
    ms
}

/// New ≡ reference for all three algorithms, both weights, every disk count.
fn assert_same_answers(input: &DeclusterInput, seed: u64) {
    let n = input.n_buckets();
    for weight in WEIGHTS {
        assert_eq!(
            short_spanning_path(input, weight, seed),
            short_spanning_path_reference(input, weight, seed),
            "ssp path, {weight:?}, n={n}, seed={seed}"
        );
        assert_eq!(
            maximum_similarity_tree(input, weight, seed),
            maximum_similarity_tree_reference(input, weight, seed),
            "mst tree, {weight:?}, n={n}, seed={seed}"
        );
        for m in disk_counts(n) {
            assert_eq!(
                minimax_assign(input, m, weight, seed).disks(),
                minimax_assign_reference(input, m, weight, seed).disks(),
                "minimax, {weight:?}, n={n}, m={m}, seed={seed}"
            );
        }
    }
}

/// An instance over arbitrary boxes (they need not tile, nest in the domain,
/// or be distinct); the proximity-based algorithms read nothing but `rect`
/// and `domain`.
fn boxes_instance(domain: Rect, rects: Vec<Rect>) -> DeclusterInput {
    let dim = domain.dim();
    let buckets = rects
        .into_iter()
        .enumerate()
        .map(|(i, rect)| BucketInfo {
            id: i as u32,
            region: CellRegion::single(&vec![0u32; dim]),
            rect,
            n_records: 1,
        })
        .collect();
    DeclusterInput {
        cells_per_dim: vec![1; dim],
        domain,
        buckets,
    }
}

/// One interval endpoint pair on a quarter-unit lattice over `[0, 4]`, so
/// that touching (`h == l`) and zero-extent intervals are common, optionally
/// nudged off the lattice so that inexact quotients are common too.
fn interval(a: u32, b: u32, nudge: f64) -> (f64, f64) {
    let (lo, hi) = (a.min(b) as f64 * 0.25, a.max(b) as f64 * 0.25);
    (lo, hi + nudge * (hi - lo))
}

/// Every element of `weight`'s row for `y` over `boxes` equals, on
/// `to_bits()`, the scalar similarity of `y` and the bucket at the same index
/// of `positions`.
fn assert_row_is_scalar(
    input: &DeclusterInput,
    weight: EdgeWeight,
    y: usize,
    boxes: &BoxColumns,
    positions: &[usize],
) {
    assert_eq!(boxes.len(), positions.len());
    let mut row = vec![f64::NAN; positions.len()];
    weight.similarity_row(input, y, boxes, &mut row);
    for (&x, got) in positions.iter().zip(&row) {
        let want = weight.similarity(input, y, x);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{weight:?} y {y} x {x}: row {got} vs scalar {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn similarity_row_to_bits_equals_scalar_similarity(
        dim in 1usize..=MAX_DIM,
        // Narrower than the boxes' spread for some cases: gap / L > 1.
        domain_side in prop_oneof![Just(4.0f64), Just(1.0), Just(0.3), 0.1f64..8.0],
        ends in prop::collection::vec((0u32..=16, 0u32..=16, prop_oneof![Just(0.0f64), 0.0f64..0.2]), 3 * MAX_DIM..24 * MAX_DIM),
        // Boxes assembled from the extents of the boxes above, one source
        // box per dimension: many boxes share each extent, as a grid
        // file's buckets do.
        mixes in prop::collection::vec(any::<u32>(), 0..160),
        // Indices to `swap_remove`, each taken modulo the current length.
        removals in prop::collection::vec(any::<u32>(), 0..160),
    ) {
        let mut rects: Vec<Rect> = ends
            .chunks_exact(MAX_DIM)
            .map(|c| {
                let (lo, hi): (Vec<f64>, Vec<f64>) =
                    c[..dim].iter().map(|&(a, b, nudge)| interval(a, b, nudge)).unzip();
                Rect::new(Point::new(&lo), Point::new(&hi))
            })
            .collect();
        let base = rects.len();
        for &m in &mixes {
            let (lo, hi): (Vec<f64>, Vec<f64>) = (0..dim)
                .map(|k| {
                    let src = &rects[m.rotate_left(8 * k as u32) as usize % base];
                    (src.lo().get(k), src.hi().get(k))
                })
                .unzip();
            rects.push(Rect::new(Point::new(&lo), Point::new(&hi)));
        }
        let domain = Rect::new(Point::new(&vec![0.0; dim]), Point::new(&vec![domain_side; dim]));
        let input = boxes_instance(domain, rects);
        let n = input.n_buckets();
        // A strict subset in a scrambled order: what the algorithms hold
        // after a few `swap_remove`s.
        let mut positions: Vec<usize> = (0..n).collect();
        let mut boxes = BoxColumns::from_input(&input, 0..n);
        for i in [0, n / 2] {
            positions.swap_remove(i);
            boxes.swap_remove(i);
        }
        for weight in WEIGHTS {
            for y in 0..n {
                assert_row_is_scalar(&input, weight, y, &boxes, &positions);
            }
        }
        // A long run of removals, as a whole minimax or SSP run makes: the
        // ids move, the dictionaries stay, every row still matches.
        for (step, &r) in removals.iter().enumerate() {
            if positions.is_empty() {
                break;
            }
            let i = r as usize % positions.len();
            positions.swap_remove(i);
            boxes.swap_remove(i);
            for weight in WEIGHTS {
                assert_row_is_scalar(&input, weight, step % n, &boxes, &positions);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn differential_on_cartesian_product_files(
        sides in prop::collection::vec(1u32..=6, 1..=4),
        seed in 0u64..1_000,
    ) {
        // Unit cells: every similarity takes one of a handful of values.
        let input = DeclusterInput::from_cartesian(&CartesianProductFile::new(&sides));
        assert_same_answers(&input, seed);
    }

    #[test]
    fn differential_on_duplicated_rectangles(
        sides in prop::collection::vec(1u32..=5, 1..=3),
        copies in 2usize..=3,
        seed in 0u64..1_000,
    ) {
        // Every box present `copies` times: exact ties between distinct
        // buckets at every step, self-similarity included.
        let base = DeclusterInput::from_cartesian(&CartesianProductFile::new(&sides));
        let rects = (0..copies).flat_map(|_| base.buckets.iter().map(|b| b.rect)).collect();
        assert_same_answers(&boxes_instance(base.domain, rects), seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn differential_on_bulk_loaded_grid_files(family in 0usize..3, seed in 0u64..1_000) {
        let ds = match family {
            0 => uniform2d(seed),
            1 => hot2d(seed),
            _ => dsmc3d_sized(seed, 20_000),
        };
        let input = DeclusterInput::from_grid_file(&ds.build_grid_file());
        assert_same_answers(&input, seed ^ 0x5eed);
    }
}

const GOLDEN_BUCKETS: usize = 695;
/// FNV-1a over the little-endian bytes of `disks()`: minimax, SSP, MST.
const GOLDEN_FNV1A: [u64; 3] = [
    0xcaa1_6969_dbeb_c632,
    0xc4f7_c745_4588_e812,
    0x8fc6_cbc3_324d_1a45,
];

fn fnv1a(disks: &[u32]) -> u64 {
    disks
        .iter()
        .flat_map(|d| d.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `disks()` on `dsmc3d_sized(7, 60_000)`, M = 8, seed 5, as the parent of
/// the kernel commit (per-pair `similarity` loops) returned them.
#[test]
fn golden_assignments_from_the_per_pair_implementation() {
    let gf = dsmc3d_sized(7, 60_000).build_grid_file();
    let input = DeclusterInput::from_grid_file(&gf);
    assert_eq!(input.n_buckets(), GOLDEN_BUCKETS);
    let w = EdgeWeight::Proximity;
    let got = [
        fnv1a(minimax_assign(&input, 8, w, 5).disks()),
        fnv1a(ssp_assign(&input, 8, w, 5).disks()),
        fnv1a(mst_assign(&input, 8, w, 5).disks()),
    ];
    assert_eq!(got, GOLDEN_FNV1A, "minimax / ssp / mst");
}

/// FNV-1a of `disks()` on the `pargrid-e2e` benchmark's own instance,
/// `dsmc3d_sized(42, 400_000)` (≈ 4.7k buckets), M = 8, seed 42: minimax and
/// SSP, both over the proximity index, as the per-box row kernel (the commit
/// before the extent dictionaries) returned them.
const GOLDEN_BENCHMARK_FNV1A: [u64; 2] = [0x4600_4840_0b98_9512, 0x935e_d20b_f0f9_3e62];

#[test]
fn golden_assignments_on_the_benchmark_instance() {
    let gf = dsmc3d_sized(42, 400_000).build_grid_file();
    let input = DeclusterInput::from_grid_file(&gf);
    let w = EdgeWeight::Proximity;
    let got = [
        fnv1a(minimax_assign(&input, 8, w, 42).disks()),
        fnv1a(ssp_assign(&input, 8, w, 42).disks()),
    ];
    assert_eq!(
        got, GOLDEN_BENCHMARK_FNV1A,
        "minimax / ssp: {:016x} / {:016x}",
        got[0], got[1]
    );
}
