//! Edge weights for the proximity-based algorithms.
//!
//! The bucket graph is complete; an edge weight estimates the probability
//! that a range query touches both endpoint buckets. The paper uses the
//! Kamel–Faloutsos proximity index and argues Euclidean center distance is
//! inadequate for partially-overlapping box regions; both are provided so
//! the claim can be measured (ablation A3).
//!
//! # Scalar and row forms
//!
//! [`EdgeWeight::similarity`] weighs one pair through the instance's `Rect`s.
//! The `O(N^2)` algorithms (`minimax`, `ssp`, `mst`) instead weigh one bucket
//! against a whole candidate set per step, through
//! [`EdgeWeight::similarity_row`] over [`BoxColumns`] — the candidates' boxes
//! as one `lo` and one `hi` column per dimension, so the loop over candidates
//! reads contiguous `f64`s, hoists everything that depends only on the fixed
//! bucket or the domain, and vectorises. Every element of a row equals the
//! scalar `similarity` **to the bit**: both forms run the same per-dimension
//! operations in the same order (`pargrid_geom::proximity::proximity_factor`
//! multiplied up dimension by dimension; the centre distance accumulated
//! dimension by dimension), and nothing is re-associated, fused or replaced
//! by a reciprocal. The algorithms' tie-breaking rules therefore see the
//! same values whichever form fed them.

use crate::input::DeclusterInput;
use pargrid_geom::proximity::{proximity_factor, proximity_index};
use pargrid_geom::Rect;

/// Similarity measure between two buckets (larger = more likely co-accessed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeWeight {
    /// The Kamel–Faloutsos proximity index (the paper's choice).
    Proximity,
    /// `1 / (1 + Euclidean distance between centers)` — the rejected
    /// alternative, kept for ablation.
    EuclideanCenter,
}

/// The boxes of a set of buckets as per-dimension `lo` / `hi` columns, in
/// the order the owning algorithm keeps its candidate list; the operand of
/// [`EdgeWeight::similarity_row`].
#[derive(Clone, Debug)]
pub struct BoxColumns {
    /// `lo[k][i]` / `hi[k][i]`: extent on dimension `k` of the `i`-th box.
    lo: Vec<Vec<f64>>,
    hi: Vec<Vec<f64>>,
}

impl BoxColumns {
    /// Columns for the buckets at `positions` of `input`, in that order.
    pub fn from_input(input: &DeclusterInput, positions: impl IntoIterator<Item = usize>) -> Self {
        let dim = input.domain.dim();
        let mut lo = vec![Vec::new(); dim];
        let mut hi = vec![Vec::new(); dim];
        for p in positions {
            let rect = &input.buckets[p].rect;
            for k in 0..dim {
                lo[k].push(rect.lo().get(k));
                hi[k].push(rect.hi().get(k));
            }
        }
        BoxColumns { lo, hi }
    }

    /// Number of boxes held.
    pub fn len(&self) -> usize {
        self.lo[0].len()
    }

    /// Whether no box is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes box `i`, moving the last box into its place — the same
    /// reordering as `Vec::swap_remove` on the owner's candidate list.
    pub fn swap_remove(&mut self, i: usize) {
        for col in self.lo.iter_mut().chain(&mut self.hi) {
            col.swap_remove(i);
        }
    }
}

/// Length of the domain's diagonal: the Euclidean weight's normaliser, which
/// makes it scale-free like the proximity index.
fn domain_diagonal(domain: &Rect) -> f64 {
    let mut diag2 = 0.0;
    for k in 0..domain.dim() {
        let s = domain.side(k);
        diag2 += s * s;
    }
    diag2.sqrt()
}

/// The Euclidean weight of a pair whose centres are `dist2.sqrt()` apart.
#[inline(always)]
fn euclidean_weight(dist2: f64, diagonal: f64) -> f64 {
    1.0 / (1.0 + dist2.sqrt() / diagonal)
}

impl EdgeWeight {
    /// Short label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            EdgeWeight::Proximity => "prox",
            EdgeWeight::EuclideanCenter => "euclid",
        }
    }

    /// Similarity between buckets at positions `a` and `b` of the instance.
    #[inline]
    pub fn similarity(&self, input: &DeclusterInput, a: usize, b: usize) -> f64 {
        let ra = &input.buckets[a].rect;
        let rb = &input.buckets[b].rect;
        match self {
            EdgeWeight::Proximity => proximity_index(ra, rb, &input.domain),
            EdgeWeight::EuclideanCenter => euclidean_weight(
                ra.center().dist2(&rb.center()),
                domain_diagonal(&input.domain),
            ),
        }
    }

    /// Fills `out[i]` with the similarity between the bucket at position `y`
    /// of the instance and the `i`-th box of `boxes` — bit for bit what
    /// [`similarity`](Self::similarity) returns for that pair.
    ///
    /// # Panics
    /// Panics if `out` and `boxes` differ in length.
    pub fn similarity_row(
        &self,
        input: &DeclusterInput,
        y: usize,
        boxes: &BoxColumns,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), boxes.len(), "one output slot per box");
        let ry = &input.buckets[y].rect;
        match self {
            EdgeWeight::Proximity => {
                out.fill(1.0);
                for (k, (lo, hi)) in boxes.lo.iter().zip(&boxes.hi).enumerate() {
                    let (y_lo, y_hi) = (ry.lo().get(k), ry.hi().get(k));
                    let li = input.domain.side(k);
                    for ((p, &x_lo), &x_hi) in out.iter_mut().zip(lo).zip(hi) {
                        *p *= proximity_factor(y_lo, y_hi, x_lo, x_hi, li);
                    }
                }
            }
            EdgeWeight::EuclideanCenter => {
                let center = ry.center();
                out.fill(0.0);
                for (k, (lo, hi)) in boxes.lo.iter().zip(&boxes.hi).enumerate() {
                    let c = center.get(k);
                    for ((acc, &x_lo), &x_hi) in out.iter_mut().zip(lo).zip(hi) {
                        let d = c - 0.5 * (x_lo + x_hi);
                        *acc += d * d;
                    }
                }
                let diagonal = domain_diagonal(&input.domain);
                for w in out.iter_mut() {
                    *w = euclidean_weight(*w, diagonal);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargrid_gridfile::CartesianProductFile;

    #[test]
    fn both_weights_rank_neighbors_above_distant_cells() {
        let input =
            crate::input::DeclusterInput::from_cartesian(&CartesianProductFile::new(&[8, 8]));
        // Bucket ids are row-major; (0,0)=0, (0,1)=1, (7,7)=63.
        for w in [EdgeWeight::Proximity, EdgeWeight::EuclideanCenter] {
            let near = w.similarity(&input, 0, 1);
            let far = w.similarity(&input, 0, 63);
            assert!(near > far, "{w:?}: near {near} <= far {far}");
        }
    }

    #[test]
    fn similarity_is_symmetric() {
        let input =
            crate::input::DeclusterInput::from_cartesian(&CartesianProductFile::new(&[5, 5]));
        for w in [EdgeWeight::Proximity, EdgeWeight::EuclideanCenter] {
            for (a, b) in [(0, 3), (7, 20), (11, 24)] {
                assert_eq!(w.similarity(&input, a, b), w.similarity(&input, b, a));
            }
        }
    }
}
