//! Property-based tests spanning the whole stack.

use pargrid::parallel::merge::same_records;
use pargrid::prelude::*;
use pargrid::sim::evaluate;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_method() -> impl Strategy<Value = DeclusterMethod> {
    prop_oneof![
        Just(DeclusterMethod::Index(
            IndexScheme::DiskModulo,
            ConflictPolicy::DataBalance
        )),
        Just(DeclusterMethod::Index(
            IndexScheme::FieldwiseXor,
            ConflictPolicy::Random
        )),
        Just(DeclusterMethod::Index(
            IndexScheme::Hilbert,
            ConflictPolicy::DataBalance
        )),
        Just(DeclusterMethod::Minimax(EdgeWeight::Proximity)),
        Just(DeclusterMethod::Ssp(EdgeWeight::Proximity)),
        Just(DeclusterMethod::Mst(EdgeWeight::Proximity)),
        Just(DeclusterMethod::KernighanLin(EdgeWeight::Proximity)),
    ]
}

fn build_grid(points: &[(f64, f64)], capacity: usize) -> GridFile {
    let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 1000.0, 1000.0), capacity);
    GridFile::bulk_load(
        cfg,
        points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Record::new(i as u64, Point::new2(x, y))),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any method on any random grid file yields a complete valid
    /// assignment whose evaluation respects the optimal lower bound.
    #[test]
    fn any_method_any_file_valid_and_bounded(
        points in prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 30..250),
        capacity in 3usize..12,
        m in 2usize..20,
        method in arb_method(),
        r in 0.01f64..0.3,
    ) {
        let grid = build_grid(&points, capacity);
        let input = DeclusterInput::from_grid_file(&grid);
        let a = method.assign(&input, m, 5);
        prop_assert_eq!(a.disks().len(), input.n_buckets());
        prop_assert!(a.disks().iter().all(|&d| (d as usize) < m));
        let w = QueryWorkload::square(&grid.config().domain, r, 25, 3);
        let s = evaluate(&grid, &a, &w);
        prop_assert!(s.mean_response + 1e-9 >= s.mean_optimal);
        prop_assert!(s.balance_degree >= 1.0 - 1e-9);
    }

    /// Minimax balance holds for every random instance.
    #[test]
    fn minimax_balance_property(
        points in prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 20..200),
        capacity in 3usize..10,
        m in 1usize..24,
        seed in any::<u64>(),
    ) {
        let grid = build_grid(&points, capacity);
        let input = DeclusterInput::from_grid_file(&grid);
        let a = DeclusterMethod::Minimax(EdgeWeight::Proximity).assign(&input, m, seed);
        prop_assert!(a.is_perfectly_balanced(), "counts {:?}", a.bucket_counts());
    }

    /// The parallel engine agrees with the grid file on every random query,
    /// under any assignment.
    #[test]
    fn engine_matches_gridfile(
        points in prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 30..150),
        m in 2usize..8,
        qx in 0.0f64..800.0,
        qy in 0.0f64..800.0,
        qs in 10.0f64..400.0,
    ) {
        let grid = Arc::new(build_grid(&points, 6));
        let input = DeclusterInput::from_grid_file(&grid);
        let a = DeclusterMethod::Index(IndexScheme::Hilbert, ConflictPolicy::DataBalance)
            .assign(&input, m, 1);
        let engine = ParallelGridFile::build(Arc::clone(&grid), &a, EngineConfig::default());
        let q = Rect::new2(qx, qy, qx + qs, qy + qs);
        let out = engine.query(&q);
        let (_, mut expected) = grid.range_query(&q);
        expected.sort_unstable_by_key(|r| r.id);
        prop_assert!(same_records(&out.records, &expected));
    }
}
