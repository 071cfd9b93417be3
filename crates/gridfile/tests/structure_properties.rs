//! Property tests for the lower-level grid-file structures: directory
//! growth, page codec, scales and persistence.

use pargrid_geom::{Point, Rect};
use pargrid_gridfile::page::{decode_page, encode_page, scan_page};
use pargrid_gridfile::{Directory, GridConfig, GridFile, LinearScale, Record};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random sequences of directory growths keep every cell mapped and
    /// agree with a naive model.
    #[test]
    fn directory_growth_matches_naive_model(
        splits in prop::collection::vec((0usize..2, 0u32..6), 0..10),
    ) {
        let mut dir = Directory::new(2);
        // Naive model: 2-D vector of bucket ids.
        let mut model: Vec<Vec<u32>> = vec![vec![0]];
        for (step, (k, c)) in splits.into_iter().enumerate() {
            let stamp = step as u32 + 1;
            let sizes = [model.len() as u32, model[0].len() as u32];
            let c = c % sizes[k];
            dir.grow(k, c);
            match k {
                0 => model.insert(c as usize + 1, model[c as usize].clone()),
                _ => {
                    for row in &mut model {
                        let v = row[c as usize];
                        row.insert(c as usize + 1, v);
                    }
                }
            }
            // Mutate one random-ish cell through both representations so
            // later splits propagate non-trivial content.
            let x = (stamp as usize * 7) % model.len();
            let y = (stamp as usize * 13) % model[0].len();
            dir.set_bucket_at(&[x as u32, y as u32], stamp);
            model[x][y] = stamp;
        }
        prop_assert_eq!(dir.sizes(), &[model.len() as u32, model[0].len() as u32]);
        for (x, row) in model.iter().enumerate() {
            for (y, &b) in row.iter().enumerate() {
                prop_assert_eq!(dir.bucket_at(&[x as u32, y as u32]), b);
            }
        }
    }

    /// Page encode/decode round-trips arbitrary records.
    #[test]
    fn page_roundtrip(
        coords in prop::collection::vec((any::<u64>(), -1e9f64..1e9, -1e9f64..1e9), 0..40),
        payload in 0usize..32,
    ) {
        let records: Vec<Record> = coords
            .iter()
            .map(|&(id, x, y)| Record::new(id, Point::new2(x, y)))
            .collect();
        let rec_size = Record::encoded_size(2, payload);
        let page = encode_page(&records, 2, payload, 40 * rec_size);
        prop_assert_eq!(decode_page(&page, payload), records);
    }

    /// The fused scan returns exactly what decode-then-filter returns: the
    /// same records in the same order and the page's record count as
    /// `scanned`, at every dimensionality the scan specialises for.
    /// Coordinates and query corners share a small integer lattice, so
    /// records sit exactly on the closed boundaries all the time; records
    /// also carry NaN, ±∞ and −0.0, and corners ±∞ and −0.0 (a NaN corner
    /// is no `Rect`). Empty pages and empty answers come up too.
    #[test]
    fn scan_page_matches_decode_then_filter(
        dim in 1usize..=6,
        cells in prop::collection::vec((any::<u64>(), prop::collection::vec(0u32..8, 6)), 0..40),
        corner in prop::collection::vec((0u32..6, 0u32..4), 6),
        payload in 0usize..32,
    ) {
        let coord = |v: u32| match v {
            4 => f64::NAN,
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            7 => -0.0,
            v => v as f64,
        };
        let records: Vec<Record> = cells
            .iter()
            .map(|(id, c)| {
                let coords: Vec<f64> = c[..dim].iter().map(|&v| coord(v)).collect();
                Record::new(*id, Point::new(&coords))
            })
            .collect();
        let lo_of = |l: u32| match l {
            4 => f64::NEG_INFINITY,
            5 => -0.0,
            l => l as f64,
        };
        let hi_of = |l: u32, e: u32| if e == 3 { f64::INFINITY } else { lo_of(l) + e as f64 };
        let lo: Vec<f64> = corner[..dim].iter().map(|&(l, _)| lo_of(l)).collect();
        let hi: Vec<f64> = corner[..dim].iter().map(|&(l, e)| hi_of(l, e)).collect();
        let query = Rect::new(Point::new(&lo), Point::new(&hi));
        let page = encode_page(&records, dim, payload, 40 * Record::encoded_size(dim, payload));

        // Compared as bits: NaN is unequal to itself, and −0.0 equal to 0.0.
        let bits = |rs: &[Record]| -> Vec<(u64, Vec<u64>)> {
            rs.iter()
                .map(|r| (r.id, r.point.coords().iter().map(|x| x.to_bits()).collect()))
                .collect()
        };
        let expected: Vec<Record> = decode_page(&page, payload)
            .into_iter()
            .filter(|r| query.contains_closed(&r.point))
            .collect();
        // `out` is appended to, never cleared: one vector collects a whole
        // request's blocks.
        let sentinel = Record::new(u64::MAX, Point::new(&lo));
        let mut out = vec![sentinel];
        let scanned = scan_page(&page, payload, &query, &mut out);
        prop_assert_eq!(scanned, records.len());
        prop_assert_eq!(bits(&out[..1]), bits(&[sentinel]));
        prop_assert_eq!(bits(&out[1..]), bits(&expected));
    }

    /// Malformed pages: wherever `decode_page` panics (short page, a header
    /// claiming more records than fit, a dimensionality no `Point` can
    /// hold), `scan_page` panics too; wherever it decodes, the scan agrees.
    #[test]
    fn scan_page_rejects_what_decode_page_rejects(
        n in prop_oneof![0u16..4, 30u16..50, any::<u16>()],
        dim in prop_oneof![0u16..9, any::<u16>()],
        cut in prop_oneof![Just(usize::MAX), 0usize..200],
        payload in 0usize..16,
    ) {
        let (n, dim, cut): (u16, u16, usize) = (n, dim, cut);
        let records: Vec<Record> = (0..40)
            .map(|i| Record::new(i, Point::new2(i as f64, 1.0)))
            .collect();
        let mut page = encode_page(&records, 2, payload, 40 * Record::encoded_size(2, payload));
        page[0..2].copy_from_slice(&n.to_le_bytes());
        page[2..4].copy_from_slice(&dim.to_le_bytes());
        page.truncate(cut.min(page.len()));
        let query = Rect::new2(0.0, 0.0, 20.0, 1.0);

        let decoded = std::panic::catch_unwind(|| decode_page(&page, payload));
        let scanned = std::panic::catch_unwind(|| {
            let mut out = Vec::new();
            let scanned = scan_page(&page, payload, &query, &mut out);
            (scanned, out)
        });
        match (decoded, scanned) {
            (Err(_), Err(_)) => {}
            (Ok(all), Ok((scanned, hits))) => {
                prop_assert!(all.is_empty() || dim == 2, "a {dim}-d page scanned by a 2-d query");
                prop_assert_eq!(scanned, all.len());
                let expected: Vec<Record> = all
                    .into_iter()
                    .filter(|r| query.contains_closed(&r.point))
                    .collect();
                prop_assert_eq!(hits, expected);
            }
            // A well-formed page of another dimensionality decodes but is
            // no answer to a 2-d query: the scan refuses it outright.
            (Ok(all), Err(_)) => prop_assert!(!all.is_empty() && dim != 2),
            (Err(_), Ok(_)) => panic!("scan_page accepted a page decode_page rejects (n={n} dim={dim} cut={cut})"),
        }
    }

    /// Scales: cell_of is the inverse of cell_bounds on interior points.
    #[test]
    fn scale_cell_of_inverts_bounds(
        cuts in prop::collection::vec(0.01f64..0.99, 0..12),
        probe in 0.0f64..1.0,
    ) {
        let s = LinearScale::with_cuts(0.0, 1.0, cuts);
        let cell = s.cell_of(probe);
        let (lo, hi) = s.cell_bounds(cell);
        prop_assert!(lo <= probe && (probe < hi || probe >= s.hi() - f64::EPSILON));
        // Bounds tile the domain.
        let mut edge = 0.0;
        for i in 0..s.n_cells() {
            let (lo, hi) = s.cell_bounds(i);
            prop_assert_eq!(lo, edge);
            prop_assert!(hi > lo);
            edge = hi;
        }
        prop_assert_eq!(edge, 1.0);
    }

    /// Persistence round-trips arbitrary files built from random points.
    #[test]
    fn persist_roundtrip(
        points in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..200),
        capacity in 2usize..10,
    ) {
        let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), capacity);
        let gf = GridFile::bulk_load(
            cfg,
            points
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| Record::new(i as u64, Point::new2(x, y))),
        );
        let back = GridFile::from_bytes(&gf.to_bytes()).expect("roundtrip");
        back.check_invariants();
        prop_assert_eq!(back.len(), gf.len());
        prop_assert_eq!(back.cells_per_dim(), gf.cells_per_dim());
        // A probe query agrees.
        let q = Rect::new2(10.0, 10.0, 60.0, 60.0);
        let (b1, r1) = gf.range_query(&q);
        let (_b2, r2) = back.range_query(&q);
        let mut ids1: Vec<u64> = r1.iter().map(|r| r.id).collect();
        let mut ids2: Vec<u64> = r2.iter().map(|r| r.id).collect();
        ids1.sort_unstable();
        ids2.sort_unstable();
        prop_assert_eq!(ids1, ids2);
        let any_inside = points
            .iter()
            .any(|&(x, y)| (10.0..=60.0).contains(&x) && (10.0..=60.0).contains(&y));
        prop_assert!(!b1.is_empty() || !any_inside);
    }

    /// Random corruption of a persisted image never panics: it either fails
    /// cleanly or yields a file that still satisfies its own invariants.
    #[test]
    fn persist_rejects_or_survives_corruption(
        flip_at in 0usize..4096,
        flip_bits in 1u8..=255,
    ) {
        let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), 4);
        let gf = GridFile::bulk_load(
            cfg,
            (0..100u64).map(|i| {
                Record::new(i, Point::new2((i % 10) as f64 * 9.9, (i / 10) as f64 * 9.9))
            }),
        );
        let mut bytes = gf.to_bytes();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_bits;
        // Must not panic; Ok is acceptable when the flipped byte is benign
        // (e.g. inside a record coordinate).
        if let Ok(loaded) = GridFile::from_bytes(&bytes) {
            prop_assert_eq!(loaded.cells_per_dim().len(), 2);
        }
    }
}
