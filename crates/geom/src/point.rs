//! Fixed-capacity d-dimensional points.
//!
//! The paper works with 2-, 3- and 4-dimensional datasets; we support up to
//! [`MAX_DIM`] dimensions with an inline array so that points never touch the
//! heap. This matters: dataset generators and the grid-file loader move
//! millions of points around, and a `Vec<f64>`-backed point would cost one
//! allocation each.

use std::fmt;

/// Maximum supported dimensionality.
///
/// The paper's datasets are 2-D (`uniform.2d`, `hot.2d`, `correl.2d`),
/// 3-D (`DSMC.3d`, `stock.3d`) and 4-D (the spatio-temporal SP-2 dataset);
/// 6 leaves headroom for extension experiments without bloating the type.
pub const MAX_DIM: usize = 6;

/// A point in d-dimensional space (`d <= MAX_DIM`), stored inline.
#[derive(Clone, Copy, PartialEq)]
pub struct Point {
    coords: [f64; MAX_DIM],
    dim: u8,
}

impl Point {
    /// Creates a point from a coordinate slice.
    ///
    /// # Panics
    /// Panics if `coords.len()` is zero or exceeds [`MAX_DIM`].
    #[inline]
    pub fn new(coords: &[f64]) -> Self {
        assert!(
            !coords.is_empty() && coords.len() <= MAX_DIM,
            "point dimensionality must be in 1..={MAX_DIM}, got {}",
            coords.len()
        );
        let mut c = [0.0; MAX_DIM];
        c[..coords.len()].copy_from_slice(coords);
        Point {
            coords: c,
            dim: coords.len() as u8,
        }
    }

    /// Creates a `dim`-dimensional point from a full-width array whose
    /// entries past `dim` are zero — the form decoders already hold after
    /// filling a zeroed array, so no second copy is made.
    ///
    /// # Panics
    /// Panics if `dim` is zero or exceeds [`MAX_DIM`], or if an entry past
    /// `dim` is not zero: equality compares the whole array, so stray
    /// padding would make equal points compare unequal.
    #[inline]
    pub fn from_padded(coords: [f64; MAX_DIM], dim: usize) -> Self {
        assert!(
            (1..=MAX_DIM).contains(&dim),
            "point dimensionality must be in 1..={MAX_DIM}, got {dim}"
        );
        assert!(
            coords[dim..].iter().all(|c| c.to_bits() == 0),
            "point padding past dimension {dim} must be zero"
        );
        Point {
            coords,
            dim: dim as u8,
        }
    }

    /// Creates a 2-D point.
    #[inline]
    pub fn new2(x: f64, y: f64) -> Self {
        Self::new(&[x, y])
    }

    /// Creates a 3-D point.
    #[inline]
    pub fn new3(x: f64, y: f64, z: f64) -> Self {
        Self::new(&[x, y, z])
    }

    /// Creates a 4-D point.
    #[inline]
    pub fn new4(x: f64, y: f64, z: f64, w: f64) -> Self {
        Self::new(&[x, y, z, w])
    }

    /// The dimensionality of this point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// The coordinates as a slice of length `self.dim()`.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords[..self.dim as usize]
    }

    /// Mutable access to the coordinates.
    #[inline]
    pub fn coords_mut(&mut self) -> &mut [f64] {
        let d = self.dim as usize;
        &mut self.coords[..d]
    }

    /// The `i`-th coordinate.
    ///
    /// # Panics
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        assert!(i < self.dim as usize, "coordinate index out of range");
        self.coords[i]
    }

    /// Squared Euclidean distance to another point of the same dimension.
    #[inline]
    pub fn dist2(&self, other: &Point) -> f64 {
        debug_assert_eq!(self.dim, other.dim);
        let mut acc = 0.0;
        for i in 0..self.dim as usize {
            let d = self.coords[i] - other.coords[i];
            acc += d * d;
        }
        acc
    }

    /// Euclidean distance to another point of the same dimension.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist2(other).sqrt()
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point(")?;
        for (i, c) in self.coords().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new2(x, y)
    }
}

impl From<(f64, f64, f64)> for Point {
    fn from((x, y, z): (f64, f64, f64)) -> Self {
        Point::new3(x, y, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_accessors() {
        let p = Point::new(&[1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
        assert_eq!(p.get(1), 2.0);
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(Point::new2(1.0, 2.0), Point::new(&[1.0, 2.0]));
        assert_eq!(Point::new3(1.0, 2.0, 3.0), Point::new(&[1.0, 2.0, 3.0]));
        assert_eq!(
            Point::new4(1.0, 2.0, 3.0, 4.0),
            Point::new(&[1.0, 2.0, 3.0, 4.0])
        );
    }

    #[test]
    fn from_padded_equals_new_for_every_dim() {
        let full = [1.5, -2.0, 3.25, 0.0, -0.0, 1e300];
        for d in 1..=MAX_DIM {
            let mut padded = [0.0; MAX_DIM];
            padded[..d].copy_from_slice(&full[..d]);
            let p = Point::from_padded(padded, d);
            assert_eq!(p, Point::new(&full[..d]));
            assert_eq!(p.dim(), d);
            assert_eq!(p.coords(), &full[..d]);
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn from_padded_rejects_zero_dim() {
        let _ = Point::from_padded([0.0; MAX_DIM], 0);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn from_padded_rejects_too_many_dims() {
        let _ = Point::from_padded([0.0; MAX_DIM], MAX_DIM + 1);
    }

    #[test]
    #[should_panic(expected = "padding")]
    fn from_padded_rejects_dirty_padding() {
        let mut c = [0.0; MAX_DIM];
        c[2] = 7.0;
        let _ = Point::from_padded(c, 2);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn zero_dim_rejected() {
        let _ = Point::new(&[]);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn too_many_dims_rejected() {
        let _ = Point::new(&[0.0; MAX_DIM + 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let p = Point::new2(0.0, 0.0);
        let _ = p.get(2);
    }

    #[test]
    fn distance() {
        let a = Point::new2(0.0, 0.0);
        let b = Point::new2(3.0, 4.0);
        assert_eq!(a.dist2(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn mutation() {
        let mut p = Point::new2(1.0, 1.0);
        p.coords_mut()[0] = 9.0;
        assert_eq!(p.get(0), 9.0);
    }

    #[test]
    fn from_tuples() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(p.dim(), 2);
        let q: Point = (1.0, 2.0, 3.0).into();
        assert_eq!(q.dim(), 3);
    }

    #[test]
    fn points_are_small() {
        // One cache line: the layout argument for inline storage.
        assert!(std::mem::size_of::<Point>() <= 64);
    }
}
