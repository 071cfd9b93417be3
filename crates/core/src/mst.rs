//! Minimal-spanning-tree declustering — the other similarity-based baseline
//! of Fang, Lee & Chang (VLDB '86).
//!
//! A maximum-similarity spanning tree connects each bucket to a near
//! neighbor. Fang et al. then assign tree-adjacent vertices to different
//! groups; for `M = 2` this is exactly 2-coloring the tree by depth parity.
//! We implement the natural M-way generalization (depth mod M along a BFS of
//! the tree), which preserves the defining property — tree neighbors never
//! share a disk for M >= 2 — but, exactly as the paper criticizes, does
//! **not** guarantee balanced partitions: the tree's level populations are
//! whatever the data makes them. The imbalance is measurable with
//! [`crate::Assignment::data_balance_degree`] (ablation A3).

use crate::assignment::Assignment;
use crate::input::DeclusterInput;
use crate::weights::{BoxColumns, EdgeWeight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs MST declustering (depth-mod-M coloring of a maximum-similarity
/// spanning tree).
pub fn mst_assign(input: &DeclusterInput, m: usize, weight: EdgeWeight, seed: u64) -> Assignment {
    assert!(m >= 1, "need at least one disk");
    let n = input.n_buckets();
    let mut disks = vec![u32::MAX; n];
    if n == 0 {
        return Assignment::new(input, m, disks);
    }

    let (parent, order) = maximum_similarity_tree(input, weight, seed);

    // Depth mod M along the tree: `order` is a valid BFS/Prim order, so a
    // parent's depth is always known before its children's.
    let mut depth = vec![0u32; n];
    for &v in &order {
        if let Some(p) = parent[v] {
            depth[v] = depth[p] + 1;
        }
        disks[v] = depth[v] % m as u32;
    }
    Assignment::new(input, m, disks)
}

/// Prim's algorithm on similarities (maximum spanning tree). Returns the
/// parent of each vertex (root has `None`) and the insertion order.
pub(crate) fn maximum_similarity_tree(
    input: &DeclusterInput,
    weight: EdgeWeight,
    seed: u64,
) -> (Vec<Option<usize>>, Vec<usize>) {
    let n = input.n_buckets();
    let mut rng = StdRng::seed_from_u64(seed);
    let root = rng.random_range(0..n);

    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut best_sim = vec![0.0f64; n];
    let mut best_link = vec![root; n];
    let mut in_tree = vec![false; n];
    let mut order = Vec::with_capacity(n);

    // Rows run over the full bucket set in position order; `in_tree` masks
    // the entries of vertices already taken (the root's own slot included).
    let boxes = BoxColumns::from_input(input, 0..n);
    let mut row = vec![0.0f64; n];

    in_tree[root] = true;
    order.push(root);
    weight.similarity_row(input, root, &boxes, &mut best_sim);
    for _ in 1..n {
        let v = (0..n)
            .filter(|&x| !in_tree[x])
            .max_by(|&a, &b| {
                best_sim[a]
                    .partial_cmp(&best_sim[b])
                    .expect("similarities are never NaN")
            })
            .expect("some vertex remains");
        in_tree[v] = true;
        parent[v] = Some(best_link[v]);
        order.push(v);
        weight.similarity_row(input, v, &boxes, &mut row);
        for x in 0..n {
            if !in_tree[x] && row[x] > best_sim[x] {
                best_sim[x] = row[x];
                best_link[x] = v;
            }
        }
    }
    (parent, order)
}

/// The per-pair Prim loop [`maximum_similarity_tree`] replaced, kept as the
/// reference the differential tests hold it to.
#[cfg(test)]
pub(crate) fn maximum_similarity_tree_reference(
    input: &DeclusterInput,
    weight: EdgeWeight,
    seed: u64,
) -> (Vec<Option<usize>>, Vec<usize>) {
    let n = input.n_buckets();
    let mut rng = StdRng::seed_from_u64(seed);
    let root = rng.random_range(0..n);

    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut best_sim = vec![f64::NEG_INFINITY; n];
    let mut best_link = vec![root; n];
    let mut in_tree = vec![false; n];
    let mut order = Vec::with_capacity(n);

    in_tree[root] = true;
    order.push(root);
    for (x, slot) in best_sim.iter_mut().enumerate() {
        if x != root {
            *slot = weight.similarity(input, root, x);
        }
    }
    for _ in 1..n {
        let v = (0..n)
            .filter(|&x| !in_tree[x])
            .max_by(|&a, &b| {
                best_sim[a]
                    .partial_cmp(&best_sim[b])
                    .expect("similarities are never NaN")
            })
            .expect("some vertex remains");
        in_tree[v] = true;
        parent[v] = Some(best_link[v]);
        order.push(v);
        for x in 0..n {
            if !in_tree[x] {
                let s = weight.similarity(input, v, x);
                if s > best_sim[x] {
                    best_sim[x] = s;
                    best_link[x] = v;
                }
            }
        }
    }
    (parent, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargrid_gridfile::CartesianProductFile;

    fn grid_instance(w: u32, h: u32) -> DeclusterInput {
        DeclusterInput::from_cartesian(&CartesianProductFile::new(&[w, h]))
    }

    #[test]
    fn tree_is_spanning() {
        let input = grid_instance(6, 6);
        let (parent, order) = maximum_similarity_tree(&input, EdgeWeight::Proximity, 2);
        assert_eq!(order.len(), 36);
        assert_eq!(parent.iter().filter(|p| p.is_none()).count(), 1);
        // Acyclic & connected: following parents always reaches the root.
        let root = order[0];
        for v in 0..36 {
            let mut cur = v;
            let mut steps = 0;
            while let Some(p) = parent[cur] {
                cur = p;
                steps += 1;
                assert!(steps <= 36, "cycle detected");
            }
            assert_eq!(cur, root);
        }
    }

    #[test]
    fn tree_neighbors_on_distinct_disks() {
        let input = grid_instance(8, 8);
        let (parent, _) = maximum_similarity_tree(&input, EdgeWeight::Proximity, 5);
        let a = mst_assign(&input, 4, EdgeWeight::Proximity, 5);
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                assert_ne!(a.disk_at(v), a.disk_at(*p));
            }
        }
    }

    #[test]
    fn balance_not_guaranteed_but_valid() {
        // The paper's criticism: MST partitions can be (very) unbalanced.
        // We only require validity here; the ablation experiment quantifies
        // the imbalance.
        let input = grid_instance(10, 10);
        let a = mst_assign(&input, 8, EdgeWeight::Proximity, 3);
        assert_eq!(a.disks().len(), 100);
        assert!(a.disks().iter().all(|&d| d < 8));
        assert!(a.data_balance_degree() >= 1.0);
    }
}
