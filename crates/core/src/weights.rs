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
//! [`EdgeWeight::similarity_row`] over [`BoxColumns`]. A grid file's buckets
//! have very few distinct extents per dimension (their boundaries are the
//! linear scales' cut points: 47 / 47 / 48 on the `pargrid-e2e` benchmark's
//! 4.7k-bucket instance), so `BoxColumns` holds, per dimension, a dictionary
//! of the distinct `(lo, hi)` extents, and per box one `u32` id per
//! dimension into them. A row is then one lookup table — the per-dimension
//! factor of every dictionary extent (141 factor evaluations per step on
//! that instance, against one per candidate and dimension, ≈ 7k a step on
//! average over a minimax run, for the per-box form) — and one pass over the
//! candidates that multiplies each box's table entries up in dimension
//! order. `similarity_row` stores the row (SSP, MST); minimax runs its own
//! pass over the same per-candidate product and stores none. Either pass
//! is compiled once per dimension count, so the product is unrolled.
//!
//! Every element of a row equals the scalar `similarity` **to the bit**:
//! the dictionary is keyed on `f64::to_bits`, so a table entry is the factor
//! of exactly the box's own endpoints, and both forms run the same
//! per-dimension operations in the same order
//! (`pargrid_geom::proximity::proximity_factor` multiplied up dimension by
//! dimension from `1.0`; the squared centre offset accumulated dimension by
//! dimension from `0.0`), with nothing re-associated, fused or replaced by a
//! reciprocal. The algorithms' tie-breaking rules therefore see the same
//! values whichever form fed them.
//!
//! The worst case is an input whose extents are all distinct (arbitrary
//! boxes; no `from_grid_file` or `from_cartesian` instance is like that):
//! the table is then as long as the row and every lookup is an extra
//! indirection, ≈ 2× slower than evaluating the factors box by box (minimax
//! over 4.7k random 3-d boxes, M = 8, 2-core Xeon VM: 105–154 ms per-box,
//! 190–286 ms with the table). There is one path all the same.

use crate::input::DeclusterInput;
use pargrid_geom::proximity::{proximity_factor, proximity_index};
use pargrid_geom::{Rect, MAX_DIM};
use std::collections::HashMap;

/// Similarity measure between two buckets (larger = more likely co-accessed).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeWeight {
    /// The Kamel–Faloutsos proximity index (the paper's choice).
    Proximity,
    /// `1 / (1 + Euclidean distance between centers)` — the rejected
    /// alternative, kept for ablation.
    EuclideanCenter,
}

/// The boxes of a set of buckets, in the order the owning algorithm keeps
/// its candidate list, as per-dimension extent dictionaries plus one row of
/// ids per box; the operand of [`EdgeWeight::similarity_row`].
#[derive(Clone, Debug)]
pub struct BoxColumns {
    /// `extents[k]`: the distinct `(lo, hi)` extents on dimension `k`, in
    /// order of first appearance. Never changes after construction.
    extents: Vec<Vec<(f64, f64)>>,
    /// `ids[i * dim + k]`: box `i`'s extent on dimension `k`, as an index
    /// into the concatenation of `extents[0]`, `extents[1]`, … — which is
    /// the layout of a row's lookup table.
    ids: Vec<u32>,
}

impl BoxColumns {
    /// Columns for the buckets at `positions` of `input`, in that order.
    pub fn from_input(input: &DeclusterInput, positions: impl IntoIterator<Item = usize>) -> Self {
        let dim = input.domain.dim();
        let mut extents: Vec<Vec<(f64, f64)>> = vec![Vec::new(); dim];
        let mut index: Vec<HashMap<(u64, u64), u32>> = vec![HashMap::new(); dim];
        let mut ids = Vec::new();
        for p in positions {
            let rect = &input.buckets[p].rect;
            for (k, (dict, index)) in extents.iter_mut().zip(&mut index).enumerate() {
                let (lo, hi) = (rect.lo().get(k), rect.hi().get(k));
                ids.push(
                    *index
                        .entry((lo.to_bits(), hi.to_bits()))
                        .or_insert_with(|| {
                            dict.push((lo, hi));
                            (dict.len() - 1) as u32
                        }),
                );
            }
        }
        // Shift each dimension's ids past the dictionaries before it.
        let mut offsets = vec![0u32; dim];
        for k in 1..dim {
            offsets[k] = offsets[k - 1] + extents[k - 1].len() as u32;
        }
        for row in ids.chunks_exact_mut(dim) {
            for (id, offset) in row.iter_mut().zip(&offsets) {
                *id += offset;
            }
        }
        BoxColumns { extents, ids }
    }

    /// Number of boxes held.
    pub fn len(&self) -> usize {
        self.ids.len() / self.extents.len()
    }

    /// Whether no box is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes box `i`, moving the last box into its place — the same
    /// reordering as `Vec::swap_remove` on the owner's candidate list. Only
    /// ids move; the dictionaries keep every extent.
    pub fn swap_remove(&mut self, i: usize) {
        let dim = self.extents.len();
        let last = self.ids.len() - dim;
        self.ids.copy_within(last.., i * dim);
        self.ids.truncate(last);
    }

    /// One row's lookup table: `f(k, lo, hi)` for every extent of every
    /// dimension `k`, laid out as `ids` index it.
    fn table(&self, f: impl Fn(usize, f64, f64) -> f64) -> Vec<f64> {
        let mut table = Vec::with_capacity(self.extents.iter().map(Vec::len).sum());
        for (k, dict) in self.extents.iter().enumerate() {
            table.extend(dict.iter().map(|&(lo, hi)| f(k, lo, hi)));
        }
        table
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
    /// Costs one factor evaluation per dictionary extent and one table
    /// lookup per box and dimension (see the module docs for the worst
    /// case, all extents distinct).
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
        struct Fill<'a>(&'a mut [f64]);
        impl RowPass for Fill<'_> {
            type Output = ();
            fn run<const D: usize>(self, rows: &[[u32; D]], similarity: impl Fn(&[u32; D]) -> f64) {
                for (p, row) in self.0.iter_mut().zip(rows) {
                    *p = similarity(row);
                }
            }
        }
        self.row_pass(input, y, boxes, Fill(out));
    }

    /// Runs `pass` over the row of the bucket at position `y` against
    /// `boxes`, handing it the per-candidate closure: box id row in,
    /// similarity out, bit for bit [`similarity`](Self::similarity). The
    /// pass's loop is compiled once per weight and dimension, with the
    /// closure inlined and its loop over the dimensions unrolled.
    pub(crate) fn row_pass<P: RowPass>(
        &self,
        input: &DeclusterInput,
        y: usize,
        boxes: &BoxColumns,
        pass: P,
    ) -> P::Output {
        match boxes.extents.len() {
            1 => self.row_pass_in::<1, P>(input, y, boxes, pass),
            2 => self.row_pass_in::<2, P>(input, y, boxes, pass),
            3 => self.row_pass_in::<3, P>(input, y, boxes, pass),
            4 => self.row_pass_in::<4, P>(input, y, boxes, pass),
            5 => self.row_pass_in::<5, P>(input, y, boxes, pass),
            6 => self.row_pass_in::<6, P>(input, y, boxes, pass),
            d => unreachable!("a box has 1..={MAX_DIM} dimensions, not {d}"),
        }
    }

    fn row_pass_in<const D: usize, P: RowPass>(
        &self,
        input: &DeclusterInput,
        y: usize,
        boxes: &BoxColumns,
        pass: P,
    ) -> P::Output {
        let ry = &input.buckets[y].rect;
        let (rows, rest) = boxes.ids.as_chunks::<D>();
        debug_assert!(rest.is_empty(), "one id per box and dimension");
        match self {
            EdgeWeight::Proximity => {
                let table = boxes.table(|k, x_lo, x_hi| {
                    proximity_factor(
                        ry.lo().get(k),
                        ry.hi().get(k),
                        x_lo,
                        x_hi,
                        input.domain.side(k),
                    )
                });
                pass.run(rows, |row| {
                    let mut prod = 1.0;
                    for &id in row {
                        prod *= table[id as usize];
                    }
                    prod
                })
            }
            EdgeWeight::EuclideanCenter => {
                let center = ry.center();
                let table = boxes.table(|k, x_lo, x_hi| {
                    let d = center.get(k) - 0.5 * (x_lo + x_hi);
                    d * d
                });
                let diagonal = domain_diagonal(&input.domain);
                pass.run(rows, |row| {
                    let mut dist2 = 0.0;
                    for &id in row {
                        dist2 += table[id as usize];
                    }
                    euclidean_weight(dist2, diagonal)
                })
            }
        }
    }
}

/// One pass over a similarity row that consumes each candidate's similarity
/// as it is computed, in box order, rather than reading a stored row.
pub(crate) trait RowPass {
    /// What the pass returns.
    type Output;
    /// Runs over `rows`, the boxes' id rows in order; `similarity(row)` is
    /// the similarity of the row's bucket to the box with id row `row`.
    fn run<const D: usize>(
        self,
        rows: &[[u32; D]],
        similarity: impl Fn(&[u32; D]) -> f64,
    ) -> Self::Output;
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
