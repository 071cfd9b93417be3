//! Assembling a query's answer from its workers' replies.
//!
//! An answer is a set, as in the paper: the coordinator forwards the
//! qualifying records its workers return, and nothing downstream reads
//! their order (the benchmark's oracle is an order-free fingerprint, the
//! CLI and `repro` count records). So the coordinator does not sort. Each
//! accepted reply (or hedge fallback) is one [`Part`], tagged with the slot
//! that served it and its dispatch seq; [`assemble`] orders the parts by
//! `(slot, seq)` — a few dozen at most — and copies each record exactly
//! once, into a vector allocated at its final size. A worker returns its
//! hits in the request's block order, which is the plan's bucket order, so
//! the answer is grouped by slot in ascending order and each slot's records
//! are in plan order: the same query against the same layout and worker
//! health gives the same sequence on every path, however its replies
//! arrive.
//!
//! [`same_records`] is the comparison that contract supports: multiset
//! equality.

use pargrid_gridfile::Record;

/// One accepted worker answer to a query.
#[derive(Clone, Debug)]
pub struct Part {
    /// Slot that served the dispatch.
    pub slot: usize,
    /// The dispatch's sequence number.
    pub seq: u64,
    /// Its hits, in the request's block order.
    pub records: Vec<Record>,
}

/// Concatenates `parts` in `(slot, seq)` order into one exact-size vector.
/// Sorts `parts` in place.
pub fn assemble(parts: &mut [Part]) -> Vec<Record> {
    parts.sort_unstable_by_key(|p| (p.slot, p.seq));
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.records.len()).sum());
    for p in parts.iter() {
        out.extend_from_slice(&p.records);
    }
    out
}

/// True when `a` and `b` hold the same multiset of records, compared
/// exactly: by id and by the bits of every coordinate.
pub fn same_records(a: &[Record], b: &[Record]) -> bool {
    let key = |r: &Record| {
        (
            r.id,
            r.point
                .coords()
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
        )
    };
    let canonical = |records: &[Record]| {
        let mut keys: Vec<_> = records.iter().map(key).collect();
        keys.sort_unstable();
        keys
    };
    a.len() == b.len() && canonical(a) == canonical(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargrid_geom::Point;
    use proptest::prelude::*;

    /// A record whose point carries a per-record tag, so records with equal
    /// ids stay distinguishable.
    fn rec(id: u64, tag: u32) -> Record {
        Record::new(id, Point::new2(tag as f64, (id % 1000) as f64))
    }

    fn part(slot: usize, seq: u64, records: Vec<Record>) -> Part {
        Part { slot, seq, records }
    }

    #[test]
    fn degenerate_shapes() {
        assert!(assemble(&mut []).is_empty());
        assert!(assemble(&mut [part(1, 0, vec![]), part(0, 1, vec![])]).is_empty());
        let one = vec![rec(3, 0), rec(1, 1), rec(2, 2)];
        assert_eq!(assemble(&mut [part(5, 9, one.clone())]), one);
    }

    #[test]
    fn slot_order_then_seq_order_within_a_slot() {
        let mut parts = [
            part(2, 4, vec![rec(7, 0)]),
            part(0, 9, vec![rec(u64::MAX, 1), rec(0, 2)]),
            part(2, 3, vec![rec(7, 3)]),
            part(1, 0, vec![]),
            part(0, 1, vec![rec(5, 4)]),
        ];
        assert_eq!(
            assemble(&mut parts),
            [rec(5, 4), rec(u64::MAX, 1), rec(0, 2), rec(7, 3), rec(7, 0)]
        );
    }

    #[test]
    fn same_records_is_exact_multiset_equality() {
        let a = [rec(1, 0), rec(1, 1), rec(2, 0)];
        assert!(same_records(&a, &[rec(2, 0), rec(1, 1), rec(1, 0)]));
        assert!(!same_records(&a, &[rec(2, 0), rec(1, 0), rec(1, 0)]));
        assert!(!same_records(&a, &a[..2]));
        // Coordinates compare by bits, so -0.0 is not 0.0.
        let zero = Record::new(1, Point::new2(0.0, 0.0));
        let neg = Record::new(1, Point::new2(-0.0, 0.0));
        assert!(!same_records(&[zero], &[neg]));
    }

    /// Ids drawn from the spaces real files use: dense small ids, a handful
    /// of colliding ones, the `mixed-rw` writers' `1 << 40 | client << 32 |
    /// n`, and the extremes.
    fn id_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..500_000,
            0u64..8,
            (0u64..4, 0u64..1000).prop_map(|(c, n)| 1u64 << 40 | c << 32 | n),
            any::<u64>(),
            Just(u64::MAX),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any arrival order of the same tagged parts assembles to the
        /// same vector: the parts sorted by `(slot, seq)` and
        /// concatenated, which holds the concatenation's multiset.
        #[test]
        fn assembly_ignores_arrival_order(
            shape in prop::collection::vec(
                (0usize..6, prop::collection::vec(id_strategy(), 0..40usize)),
                0..=12usize,
            ),
            shuffle in any::<u64>(),
        ) {
            // Seqs are unique, as dispatch seqs are; slots repeat.
            let mut tag = 0u32;
            let parts: Vec<Part> = shape
                .iter()
                .enumerate()
                .map(|(seq, (slot, ids))| {
                    let records = ids
                        .iter()
                        .map(|&id| {
                            tag += 1;
                            rec(id, tag)
                        })
                        .collect();
                    part(*slot, seq as u64 * 7 % 13, records)
                })
                .collect();

            let mut arrived = parts.clone();
            let mut x = shuffle;
            for i in (1..arrived.len()).rev() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                arrived.swap(i, (x >> 33) as usize % (i + 1));
            }
            let got = assemble(&mut arrived);

            let mut ordered = parts.clone();
            ordered.sort_by_key(|p| (p.slot, p.seq));
            let expected: Vec<Record> =
                ordered.iter().flat_map(|p| p.records.iter().copied()).collect();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(&assemble(&mut parts.clone()), &got);

            let mut sorted: Vec<Record> =
                parts.iter().flat_map(|p| p.records.iter().copied()).collect();
            sorted.sort_by_key(|r| r.id);
            prop_assert!(same_records(&got, &sorted));
        }
    }
}
