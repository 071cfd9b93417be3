//! Short Spanning Path (SSP) declustering — Fang, Lee & Chang (VLDB '86).
//!
//! Build a *short spanning path* through the bucket graph (a path that tends
//! to connect each bucket to a near neighbor), then deal the buckets to the
//! M disks round-robin along the path. Consecutive path elements are the
//! most similar pairs, and dealing guarantees they land on different disks
//! (for M >= 2) while keeping partitions perfectly balanced.
//!
//! The path is constructed with the standard greedy nearest-neighbor
//! heuristic: start from a random bucket and repeatedly extend the path with
//! the unvisited bucket most similar to the current endpoint — `O(N^2)`
//! similarity evaluations, the same complexity class the paper quotes.
//! Each step weighs the endpoint against every unvisited bucket with one
//! [`EdgeWeight::similarity_row`] over the unvisited buckets' [`BoxColumns`],
//! kept in `remaining` order. Among equally similar candidates the **last**
//! one in `remaining` order wins (`Iterator::max_by`); the path, and so the
//! assignment, depends on it wherever similarities tie.

use crate::assignment::Assignment;
use crate::input::DeclusterInput;
use crate::weights::{BoxColumns, EdgeWeight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs SSP declustering.
pub fn ssp_assign(input: &DeclusterInput, m: usize, weight: EdgeWeight, seed: u64) -> Assignment {
    assert!(m >= 1, "need at least one disk");
    let n = input.n_buckets();
    let mut disks = vec![u32::MAX; n];
    if n == 0 {
        return Assignment::new(input, m, disks);
    }
    let path = short_spanning_path(input, weight, seed);
    for (i, &v) in path.iter().enumerate() {
        disks[v] = (i % m) as u32;
    }
    Assignment::new(input, m, disks)
}

/// Greedy nearest-neighbor path over the bucket graph.
pub(crate) fn short_spanning_path(
    input: &DeclusterInput,
    weight: EdgeWeight,
    seed: u64,
) -> Vec<usize> {
    let n = input.n_buckets();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut path = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut boxes = BoxColumns::from_input(input, 0..n);
    let mut row = vec![0.0f64; n];
    let mut next = rng.random_range(0..n);
    loop {
        let cur = remaining.swap_remove(next);
        boxes.swap_remove(next);
        path.push(cur);
        if remaining.is_empty() {
            break;
        }
        row.truncate(remaining.len());
        weight.similarity_row(input, cur, &boxes, &mut row);
        (next, _) = row
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("similarities are never NaN"))
            .expect("remaining is non-empty");
    }
    path
}

/// The per-pair loop [`short_spanning_path`] replaced, kept as the reference
/// the differential tests hold it to.
#[cfg(test)]
pub(crate) fn short_spanning_path_reference(
    input: &DeclusterInput,
    weight: EdgeWeight,
    seed: u64,
) -> Vec<usize> {
    let n = input.n_buckets();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut path = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    let start = rng.random_range(0..n);
    path.push(remaining.swap_remove(start));
    while !remaining.is_empty() {
        let cur = *path.last().expect("path is non-empty");
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &x)| (i, weight.similarity(input, cur, x)))
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("similarities are never NaN"))
            .expect("remaining is non-empty");
        path.push(remaining.swap_remove(best_idx));
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargrid_gridfile::CartesianProductFile;

    fn grid_instance(w: u32, h: u32) -> DeclusterInput {
        DeclusterInput::from_cartesian(&CartesianProductFile::new(&[w, h]))
    }

    #[test]
    fn path_visits_every_bucket_once() {
        let input = grid_instance(7, 5);
        let path = short_spanning_path(&input, EdgeWeight::Proximity, 3);
        assert_eq!(path.len(), 35);
        let mut sorted = path.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 35);
    }

    #[test]
    fn path_is_locally_greedy() {
        // Each step moves to the most similar unvisited bucket, so the
        // average step similarity must far exceed the average random-pair
        // similarity.
        let input = grid_instance(8, 8);
        let path = short_spanning_path(&input, EdgeWeight::Proximity, 1);
        let step_avg: f64 = path
            .windows(2)
            .map(|w| EdgeWeight::Proximity.similarity(&input, w[0], w[1]))
            .sum::<f64>()
            / (path.len() - 1) as f64;
        let mut rand_avg = 0.0;
        let mut count = 0;
        for a in (0..64).step_by(7) {
            for b in (1..64).step_by(11) {
                if a != b {
                    rand_avg += EdgeWeight::Proximity.similarity(&input, a, b);
                    count += 1;
                }
            }
        }
        rand_avg /= count as f64;
        assert!(step_avg > 1.5 * rand_avg, "{step_avg} vs {rand_avg}");
    }

    #[test]
    fn balanced_partitions() {
        for m in [2usize, 3, 5, 8] {
            let input = grid_instance(9, 7);
            let a = ssp_assign(&input, m, EdgeWeight::Proximity, 11);
            assert!(a.is_perfectly_balanced(), "m={m}: {:?}", a.bucket_counts());
        }
    }

    #[test]
    fn consecutive_path_buckets_on_distinct_disks() {
        let input = grid_instance(6, 6);
        let path = short_spanning_path(&input, EdgeWeight::Proximity, 4);
        let a = ssp_assign(&input, 4, EdgeWeight::Proximity, 4);
        for w in path.windows(2) {
            assert_ne!(a.disk_at(w[0]), a.disk_at(w[1]));
        }
    }

    #[test]
    fn single_disk_degenerates() {
        let input = grid_instance(3, 3);
        let a = ssp_assign(&input, 1, EdgeWeight::Proximity, 0);
        assert!(a.disks().iter().all(|&d| d == 0));
    }
}
