//! The paper's **minimax spanning tree** declustering algorithm
//! (Algorithm 2, §3.1).
//!
//! The grid-file declustering problem is mapped to M-way graph partitioning
//! of the complete bucket graph, edges weighted by co-access probability
//! (the proximity index). The algorithm extends Prim's MST construction:
//!
//! 1. **Random seeding** — pick M mutually distinct random buckets as the
//!    roots of M trees (one per disk).
//! 2. **Expanding** — grow the trees round-robin. For every unassigned
//!    bucket `x` and tree `K`, maintain `MAX_x(K)`, the maximum edge weight
//!    between `x` and the members of `A_K`; tree `K` takes the bucket with
//!    the **minimum** such maximum (the *minimax* criterion: the bucket
//!    least likely to be co-accessed with anything already on that disk).
//!
//! Round-robin growth guarantees perfect balance: every disk receives at
//! most `ceil(N / M)` buckets. The cost is `O(N^2)` similarity evaluations
//! and `O(N * M)` memory for the `MAX` table.
//!
//! # Layout
//!
//! Everything the expansion loop scans is kept *compact and in one order* —
//! the order of `unassigned`: the candidates' boxes as rows of extent ids
//! into small per-dimension dictionaries of distinct extents
//! ([`BoxColumns`]) and `MAX` as one column per tree. Taking a bucket is one
//! `swap_remove` at the same index everywhere, so index `i` always means the
//! same bucket and no scan strides over other trees' entries. A step is
//! then three linear passes: the similarity row of the taken bucket
//! ([`EdgeWeight::similarity_row`]: one factor per distinct extent, then one
//! table lookup per candidate and dimension), `max` of that row into the
//! grown tree's column (a branch-free select), and the first minimum of the
//! next tree's column (an exact lane-wise minimum, then the first position
//! equal to it).
//!
//! What is left of the `O(N^2)` wall is those streaming passes, not
//! divisions: on the `pargrid-e2e` benchmark's 4.7k-bucket instance
//! (2-core Xeon VM) the row costs ≈ 1.8 ns per candidate, the `max` ≈ 0.4
//! and the minimum ≈ 0.65, over ≈ 11 M candidate-steps a run.
//!
//! # Ties
//!
//! Equal `MAX` values are common (on a Cartesian product file they are the
//! rule), so which minimum wins is part of the algorithm's observable
//! output: it is the **first** minimum in `unassigned` order, and
//! `unassigned` starts in ascending bucket position and is only ever
//! reordered by `swap_remove`. `similarity_row` returns the scalar
//! `similarity` to the bit, so the values compared — and the winner — are
//! those of the textbook per-pair loop (kept as the test reference below).

use crate::assignment::Assignment;
use crate::input::DeclusterInput;
use crate::weights::{BoxColumns, EdgeWeight};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Runs the minimax spanning-tree algorithm.
///
/// `seed` drives the random seeding phase; the expansion is deterministic
/// given the seeds.
pub fn minimax_assign(
    input: &DeclusterInput,
    m: usize,
    weight: EdgeWeight,
    seed: u64,
) -> Assignment {
    assert!(m >= 1, "need at least one disk");
    let n = input.n_buckets();
    let mut disks = vec![u32::MAX; n];
    if n == 0 {
        return Assignment::new(input, m, disks);
    }
    if m >= n {
        // Degenerate: every bucket gets its own disk.
        for (p, d) in disks.iter_mut().enumerate() {
            *d = p as u32;
        }
        return Assignment::new(input, m, disks);
    }

    // Phase 1: random seeding — M distinct seed buckets.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let seeds = &order[..m];
    for (k, &s) in seeds.iter().enumerate() {
        disks[s] = k as u32;
    }

    // Phase 2 step 1: MAX_x(k) is the similarity of x to tree k's seed.
    let mut unassigned: Vec<usize> = (0..n).filter(|&x| disks[x] == u32::MAX).collect();
    let mut boxes = BoxColumns::from_input(input, unassigned.iter().copied());
    let mut row = vec![0.0f64; unassigned.len()];
    let mut max_cols: Vec<Vec<f64>> = seeds
        .iter()
        .map(|&s| {
            weight.similarity_row(input, s, &boxes, &mut row);
            row.clone()
        })
        .collect();

    // Phase 2 steps 2-5: round-robin expansion.
    let mut tree = 0usize; // K
    loop {
        // Find y minimizing MAX_y(tree) and take it out of every column.
        let best = first_min(&max_cols[tree]);
        let y = unassigned.swap_remove(best);
        disks[y] = tree as u32;
        boxes.swap_remove(best);
        for col in &mut max_cols {
            col.swap_remove(best);
        }
        if unassigned.is_empty() {
            break;
        }

        // Update MAX_x(tree) for the remaining vertices.
        row.truncate(unassigned.len());
        weight.similarity_row(input, y, &boxes, &mut row);
        for (slot, &c) in max_cols[tree].iter_mut().zip(&row) {
            *slot = if c > *slot { c } else { *slot };
        }
        tree = (tree + 1) % m;
    }

    Assignment::new(input, m, disks)
}

/// Index of the first minimum of a non-empty `MAX` column: an exact
/// minimum kept lane-wise (so the scan vectorises; `<` only, and the minimum
/// of a set of non-NaN values does not depend on the order it is taken in),
/// then the first position holding it — the element `min_by` would keep.
fn first_min(col: &[f64]) -> usize {
    const LANES: usize = 8;
    let mut lanes = [f64::INFINITY; LANES];
    let mut chunks = col.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane = if x < *lane { x } else { *lane };
        }
    }
    let min = chunks
        .remainder()
        .iter()
        .chain(&lanes)
        .fold(f64::INFINITY, |m, &x| if x < m { x } else { m });
    col.iter()
        .position(|&x| x == min)
        .expect("a non-empty column of non-NaN similarities holds its minimum")
}

/// The textbook per-pair loop this module's column layout replaced, kept as
/// the reference the differential tests hold [`minimax_assign`] to: a
/// row-major `MAX` table, one scalar `similarity` per pair, `min_by` over
/// `unassigned`.
#[cfg(test)]
pub(crate) fn minimax_assign_reference(
    input: &DeclusterInput,
    m: usize,
    weight: EdgeWeight,
    seed: u64,
) -> Assignment {
    let n = input.n_buckets();
    if n == 0 || m >= n {
        return Assignment::new(input, m, (0..n as u32).collect());
    }
    let mut disks = vec![u32::MAX; n];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let seeds = &order[..m];

    let mut max_tab = vec![0.0f64; n * m];
    let mut unassigned: Vec<usize> = Vec::with_capacity(n - m);
    for x in 0..n {
        if seeds.contains(&x) {
            continue;
        }
        for (k, &s) in seeds.iter().enumerate() {
            max_tab[x * m + k] = weight.similarity(input, x, s);
        }
        unassigned.push(x);
    }
    for (k, &s) in seeds.iter().enumerate() {
        disks[s] = k as u32;
    }

    let mut tree = 0usize;
    while !unassigned.is_empty() {
        let (best_idx, &y) = unassigned
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                max_tab[a * m + tree]
                    .partial_cmp(&max_tab[b * m + tree])
                    .expect("similarities are never NaN")
            })
            .expect("unassigned is non-empty");
        disks[y] = tree as u32;
        unassigned.swap_remove(best_idx);
        for &x in &unassigned {
            let c = weight.similarity(input, y, x);
            let slot = &mut max_tab[x * m + tree];
            if c > *slot {
                *slot = c;
            }
        }
        tree = (tree + 1) % m;
    }
    Assignment::new(input, m, disks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargrid_gridfile::CartesianProductFile;

    fn grid_instance(w: u32, h: u32) -> DeclusterInput {
        DeclusterInput::from_cartesian(&CartesianProductFile::new(&[w, h]))
    }

    #[test]
    fn perfect_balance_guarantee() {
        for (w, h, m) in [(8, 8, 4), (8, 8, 7), (10, 10, 16), (5, 5, 3)] {
            let input = grid_instance(w, h);
            let a = minimax_assign(&input, m, EdgeWeight::Proximity, 42);
            assert!(
                a.is_perfectly_balanced(),
                "{w}x{h} over {m} disks: counts {:?}",
                a.bucket_counts()
            );
        }
    }

    #[test]
    fn uses_every_disk() {
        let input = grid_instance(8, 8);
        let a = minimax_assign(&input, 8, EdgeWeight::Proximity, 1);
        let counts = a.bucket_counts();
        assert!(counts.iter().all(|&c| c == 8), "{counts:?}");
    }

    #[test]
    fn adjacent_cells_rarely_share_a_disk() {
        // The defining quality property: grid neighbors (the most likely
        // co-accessed pairs) land on different disks almost always.
        let w = 12u32;
        let input = grid_instance(w, w);
        let a = minimax_assign(&input, 8, EdgeWeight::Proximity, 7);
        let idx = |x: u32, y: u32| (x * w + y) as usize; // row-major ids
        let mut same = 0;
        let mut total = 0;
        for x in 0..w {
            for y in 0..w {
                if x + 1 < w {
                    total += 1;
                    if a.disk_at(idx(x, y)) == a.disk_at(idx(x + 1, y)) {
                        same += 1;
                    }
                }
                if y + 1 < w {
                    total += 1;
                    if a.disk_at(idx(x, y)) == a.disk_at(idx(x, y + 1)) {
                        same += 1;
                    }
                }
            }
        }
        let frac = same as f64 / total as f64;
        assert!(
            frac < 0.08,
            "{same}/{total} adjacent pairs share a disk ({frac})"
        );
    }

    #[test]
    fn degenerate_cases() {
        let input = grid_instance(2, 2);
        // One disk: all buckets on it.
        let a = minimax_assign(&input, 1, EdgeWeight::Proximity, 0);
        assert!(a.disks().iter().all(|&d| d == 0));
        // More disks than buckets: injective assignment.
        let a = minimax_assign(&input, 16, EdgeWeight::Proximity, 0);
        let mut seen = a.disks().to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let input = grid_instance(6, 6);
        let a = minimax_assign(&input, 4, EdgeWeight::Proximity, 9);
        let b = minimax_assign(&input, 4, EdgeWeight::Proximity, 9);
        assert_eq!(a.disks(), b.disks());
    }

    #[test]
    fn works_with_euclidean_weight() {
        let input = grid_instance(6, 6);
        let a = minimax_assign(&input, 4, EdgeWeight::EuclideanCenter, 3);
        assert!(a.is_perfectly_balanced());
    }
}
