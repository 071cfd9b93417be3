//! Assembling a query's answer from its workers' replies.
//!
//! Each worker returns its hits in block order, so a reply *part* is not
//! sorted and the parts overlap in id range; the answer contract is one
//! vector sorted by id ([`crate::QueryOutcome::records`]). A record is 64
//! bytes, so the merge never moves records to order them: it sorts 16-byte
//! `(id, &record)` keys with a least-significant-digit radix sort — linear
//! in the number of records, and only as many byte passes as the largest id
//! has significant bytes (3 for a 400k-record file) — and then copies each
//! record exactly once, into a vector allocated at its final size.

use pargrid_gridfile::Record;

/// Merges reply parts into one vector sorted by id (non-decreasing).
///
/// Equivalent to concatenating the parts and sorting by id. Records with
/// equal ids keep the order of the concatenation, but callers must not rely
/// on it: which part a worker's reply becomes depends on arrival order.
pub fn merge_by_id(parts: &[Vec<Record>]) -> Vec<Record> {
    let total = parts.iter().map(Vec::len).sum();
    let mut keys: Vec<(u64, &Record)> = Vec::with_capacity(total);
    // OR of all ids: has the same highest set bit as the largest id.
    let mut id_bits = 0u64;
    for r in parts.iter().flatten() {
        id_bits |= r.id;
        keys.push((r.id, r));
    }
    let mut scratch = keys.clone();
    let mut shift = 0;
    while shift < u64::BITS && id_bits >> shift != 0 {
        let digit = |id: u64| (id >> shift) as usize & 0xFF;
        // Counting sort on this byte: bucket sizes, then bucket starts,
        // then a stable scatter.
        let mut next = [0usize; 256];
        for &(id, _) in &keys {
            next[digit(id)] += 1;
        }
        let mut start = 0;
        for n in &mut next {
            start += std::mem::replace(n, start);
        }
        for &key in &keys {
            let slot = &mut next[digit(key.0)];
            scratch[*slot] = key;
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut scratch);
        shift += 8;
    }
    keys.iter().map(|&(_, r)| *r).collect()
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

    /// The merge this module replaced: concatenate, then comparison-sort.
    /// Both it and the radix merge are stable over the concatenation, so the
    /// results are equal element for element — stronger than the contract
    /// (sorted by id, same multiset), which leaves tie order open.
    fn assert_same_answer(parts: &[Vec<Record>]) {
        let mut expected: Vec<Record> = parts.iter().flatten().copied().collect();
        expected.sort_by_key(|r| r.id);
        assert_eq!(merge_by_id(parts), expected);
    }

    #[test]
    fn degenerate_shapes() {
        assert!(merge_by_id(&[]).is_empty());
        assert!(merge_by_id(&[vec![], vec![]]).is_empty());
        assert_same_answer(&[vec![rec(5, 0)]]);
        assert_same_answer(&[vec![], vec![rec(0, 0)], vec![]]);
        assert_same_answer(&[vec![rec(3, 0), rec(1, 1), rec(2, 2)]]);
    }

    #[test]
    fn wide_ids_and_duplicates() {
        let writer = |client: u64, n: u64| 1u64 << 40 | client << 32 | n;
        assert_same_answer(&[
            vec![rec(u64::MAX, 0), rec(writer(1, 7), 1), rec(12, 2)],
            vec![rec(writer(0, 7), 3), rec(12, 4), rec(0, 5)],
            vec![rec(u64::MAX, 6), rec(u64::MAX - 1, 7), rec(1 << 63, 8)],
        ]);
    }

    #[test]
    fn a_scan_sized_reply() {
        // 8 parts of 900, ids a permutation of 0..7200 (7919 is coprime).
        let parts: Vec<Vec<Record>> = (0..8u64)
            .map(|w| {
                (0..900u64)
                    .map(|i| rec((i * 8 + w) * 7919 % 7200, 0))
                    .collect()
            })
            .collect();
        assert_same_answer(&parts);
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

        #[test]
        fn merge_equals_concatenate_and_sort(
            shape in prop::collection::vec(
                prop::collection::vec(id_strategy(), 0..40usize),
                0..10usize,
            ),
        ) {
            let mut tag = 0u32;
            let parts: Vec<Vec<Record>> = shape
                .iter()
                .map(|ids| {
                    ids.iter()
                        .map(|&id| {
                            tag += 1;
                            rec(id, tag)
                        })
                        .collect()
                })
                .collect();
            assert_same_answer(&parts);
        }
    }
}
