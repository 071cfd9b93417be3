//! Proximity measures between box-shaped regions.
//!
//! The `minimax` declustering algorithm (paper §3.1) weights the edges of the
//! bucket graph by the probability that two buckets are accessed by the same
//! range query. The paper adopts the *proximity index* of Kamel & Faloutsos
//! (Parallel R-trees, SIGMOD '92), which — unlike the Euclidean distance
//! between centers — distinguishes pairs of *partially overlapped* boxes.
//!
//! For two d-dimensional boxes `R`, `S` inside a domain whose extent along
//! dimension `i` is `L_i`:
//!
//! ```text
//! Proximity(R, S)      = prod_i Proximity(R_i, S_i)
//! Proximity(R_i, S_i)  = (1 + 2*delta_i) / 3     if R_i and S_i intersect
//!                      = (1 - Delta_i)^2 / 3     if R_i and S_i are disjoint
//! ```
//!
//! where `delta_i` is the length of the intersection of the projections and
//! `Delta_i` the gap between them, both normalized by `L_i`. Both ratios lie
//! in `[0, 1]`, so each per-dimension factor lies in `(0, 1]` and the product
//! is monotonically larger for "closer" pairs.
//!
//! # One formula, two callers
//!
//! [`proximity_factor`] is the per-dimension factor, written on interval
//! endpoints so that a scalar caller ([`proximity_index`], over two `Rect`s)
//! and a batched caller (`pargrid_core`'s `EdgeWeight::similarity_row`, over
//! per-dimension dictionaries of distinct extents) evaluate the *same* floating-point
//! operations and therefore agree to the bit. With `l = max(lo)`,
//! `h = min(hi)` of the two projections it computes `q = |h - l| / L` once
//! and selects `(1 + 2q) / 3` when `h >= l`, `(1 - min(q, 1))^2 / 3`
//! otherwise. That is the textbook two-branch form (`overlap = max(h - l, 0)`,
//! `gap = max(l - h, 0)`, branch on `gap == 0`) with the dead operand of each
//! branch dropped: when `h >= l` the overlap is `h - l` and the gap is zero;
//! when `h < l` the gap is `l - h`, which IEEE-754 subtraction makes exactly
//! `|h - l|`. Same operands into the same division, so the same bits — and
//! one quotient feeding a branch-free select, which is what lets the row
//! form vectorise.

use crate::rect::Rect;

/// The per-dimension proximity factor of two projections `[r_lo, r_hi]` and
/// `[s_lo, s_hi]` on an axis of domain extent `li` (see the module header
/// for why this is the two-branch textbook form to the bit).
///
/// *Touching* projections (shared boundary, `h == l`) count as intersecting
/// with `delta = 0`, which matches the closed-interval convention of the
/// paper; a gap wider than the domain is capped at `Delta = 1`.
#[inline(always)]
pub fn proximity_factor(r_lo: f64, r_hi: f64, s_lo: f64, s_hi: f64, li: f64) -> f64 {
    let l = r_lo.max(s_lo);
    let h = r_hi.min(s_hi);
    let q = (h - l).abs() / li;
    let away = 1.0 - q.min(1.0);
    let f = if h >= l { 1.0 + 2.0 * q } else { away * away };
    f / 3.0
}

/// Kamel–Faloutsos proximity index between two boxes within `domain`.
///
/// Returns a value in `(0, 1]`; larger means the boxes are more likely to be
/// touched by the same range query. Identical boxes covering the whole domain
/// score exactly 1.
///
/// # Panics
/// Panics (debug) if the boxes or domain disagree on dimensionality, and if
/// the domain has a zero-length side.
pub fn proximity_index(r: &Rect, s: &Rect, domain: &Rect) -> f64 {
    debug_assert_eq!(r.dim(), s.dim());
    debug_assert_eq!(r.dim(), domain.dim());
    let mut p = 1.0;
    for i in 0..r.dim() {
        let li = domain.side(i);
        debug_assert!(li > 0.0, "domain has zero extent on dim {i}");
        p *= proximity_factor(
            r.lo().get(i),
            r.hi().get(i),
            s.lo().get(i),
            s.hi().get(i),
            li,
        );
    }
    p
}

/// Euclidean distance between the centers of two boxes.
///
/// The alternative edge weight the paper considered and rejected for
/// `minimax`; kept for the ablation experiment.
#[inline]
pub fn center_distance(r: &Rect, s: &Rect) -> f64 {
    r.center().dist(&s.center())
}

/// Minimum Euclidean distance between any two points of the boxes
/// (zero if they intersect).
pub fn min_distance(r: &Rect, s: &Rect) -> f64 {
    debug_assert_eq!(r.dim(), s.dim());
    let mut acc = 0.0;
    for i in 0..r.dim() {
        let g = r.gap_on(s, i);
        acc += g * g;
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{Point, MAX_DIM};
    use proptest::prelude::*;

    fn unit_domain() -> Rect {
        Rect::new2(0.0, 0.0, 1.0, 1.0)
    }

    fn r2(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new2(x0, y0, x1, y1)
    }

    #[test]
    fn identical_full_domain_boxes_score_one() {
        let d = unit_domain();
        let p = proximity_index(&d, &d, &d);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_dim_factor_formulas() {
        let d = unit_domain();
        // Two boxes overlapping on x by 0.2, identical on y (overlap 1.0):
        // factor_x = (1 + 0.4)/3, factor_y = (1 + 2)/3 = 1.
        let a = r2(0.0, 0.0, 0.5, 1.0);
        let b = r2(0.3, 0.0, 1.0, 1.0);
        let expected = ((1.0 + 2.0 * 0.2) / 3.0) * 1.0;
        assert!((proximity_index(&a, &b, &d) - expected).abs() < 1e-12);
    }

    #[test]
    fn disjoint_factor_formula() {
        let d = unit_domain();
        // Gap of 0.4 on x, full overlap on y.
        let a = r2(0.0, 0.0, 0.1, 1.0);
        let b = r2(0.5, 0.0, 1.0, 1.0);
        let expected = ((1.0 - 0.4) * (1.0 - 0.4) / 3.0) * 1.0;
        assert!((proximity_index(&a, &b, &d) - expected).abs() < 1e-12);
    }

    #[test]
    fn touching_counts_as_intersecting_with_zero_delta() {
        let d = unit_domain();
        let a = r2(0.0, 0.0, 0.5, 1.0);
        let b = r2(0.5, 0.0, 1.0, 1.0);
        // factor_x = (1 + 0)/3 = 1/3 — the "just intersecting" value.
        let expected = (1.0 / 3.0) * 1.0;
        assert!((proximity_index(&a, &b, &d) - expected).abs() < 1e-12);
    }

    #[test]
    fn closer_pairs_score_higher() {
        let d = unit_domain();
        let base = r2(0.0, 0.0, 0.2, 0.2);
        let near = r2(0.25, 0.0, 0.45, 0.2);
        let far = r2(0.7, 0.0, 0.9, 0.2);
        let p_near = proximity_index(&base, &near, &d);
        let p_far = proximity_index(&base, &far, &d);
        assert!(p_near > p_far, "{p_near} vs {p_far}");
    }

    #[test]
    fn symmetric() {
        let d = unit_domain();
        let a = r2(0.0, 0.1, 0.3, 0.4);
        let b = r2(0.5, 0.2, 0.9, 0.8);
        assert_eq!(proximity_index(&a, &b, &d), proximity_index(&b, &a, &d));
    }

    #[test]
    fn bounded_in_unit_interval() {
        let d = unit_domain();
        let a = r2(0.0, 0.0, 0.01, 0.01);
        let b = r2(0.99, 0.99, 1.0, 1.0);
        let p = proximity_index(&a, &b, &d);
        assert!(p > 0.0 && p <= 1.0);
    }

    #[test]
    fn center_and_min_distance() {
        let a = r2(0.0, 0.0, 2.0, 2.0);
        let b = r2(5.0, 0.0, 7.0, 2.0);
        assert_eq!(center_distance(&a, &b), 5.0);
        assert_eq!(min_distance(&a, &b), 3.0);
        let c = r2(1.0, 1.0, 3.0, 3.0);
        assert_eq!(min_distance(&a, &c), 0.0);
    }

    /// The textbook two-branch form `proximity_index` was written in before
    /// it moved onto [`proximity_factor`].
    fn proximity_index_two_branch(r: &Rect, s: &Rect, domain: &Rect) -> f64 {
        let mut p = 1.0;
        for i in 0..r.dim() {
            let li = domain.side(i);
            let overlap = r.overlap_on(s, i);
            let gap = r.gap_on(s, i);
            let f = if gap == 0.0 {
                let delta = overlap / li;
                (1.0 + 2.0 * delta) / 3.0
            } else {
                let cap_delta = (gap / li).min(1.0);
                (1.0 - cap_delta) * (1.0 - cap_delta) / 3.0
            };
            p *= f;
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Endpoints on a quarter-unit lattice (touching and zero-extent
        /// projections are common), nudged off it half the time (inexact
        /// quotients), in domains narrower than the boxes' spread some of
        /// the time (`gap / L > 1`).
        #[test]
        fn factor_form_to_bits_equals_two_branch_form(
            dim in 1usize..=MAX_DIM,
            domain_side in prop_oneof![Just(4.0f64), Just(1.0), Just(0.3), 0.1f64..8.0],
            ends in prop::collection::vec(
                (0u32..=16, 0u32..=16, prop_oneof![Just(0.0f64), 0.0f64..0.2]),
                2 * MAX_DIM,
            ),
        ) {
            let rect = |c: &[(u32, u32, f64)]| {
                let (lo, hi): (Vec<f64>, Vec<f64>) = c[..dim]
                    .iter()
                    .map(|&(a, b, nudge)| {
                        let (lo, hi) = (a.min(b) as f64 * 0.25, a.max(b) as f64 * 0.25);
                        (lo, hi + nudge * (hi - lo))
                    })
                    .unzip();
                Rect::new(Point::new(&lo), Point::new(&hi))
            };
            let (r, s) = (rect(&ends[..MAX_DIM]), rect(&ends[MAX_DIM..]));
            let domain = Rect::new(Point::new(&vec![0.0; dim]), Point::new(&vec![domain_side; dim]));
            for (a, b) in [(&r, &s), (&s, &r), (&r, &r)] {
                prop_assert_eq!(
                    proximity_index(a, b, &domain).to_bits(),
                    proximity_index_two_branch(a, b, &domain).to_bits(),
                    "{:?} vs {:?} in {:?}", a, b, domain
                );
            }
        }
    }

    #[test]
    fn three_dimensional_product() {
        let d = Rect::new(Point::new3(0.0, 0.0, 0.0), Point::new3(1.0, 1.0, 1.0));
        let a = Rect::new(Point::new3(0.0, 0.0, 0.0), Point::new3(0.5, 0.5, 0.5));
        let p = proximity_index(&a, &a, &d);
        // Each dim: (1 + 2*0.5)/3 = 2/3; product = (2/3)^3.
        let expected = (2.0f64 / 3.0).powi(3);
        assert!((p - expected).abs() < 1e-12);
    }
}
