//! The grid directory: a dense d-dimensional array mapping each grid cell to
//! the bucket that stores its records.
//!
//! The directory is stored row-major (dimension 0 most significant). When a
//! linear scale splits, the directory grows along that axis: the slab of the
//! split cell is duplicated, which is exactly the classical grid-file
//! directory-doubling step (localized to one slab).

use pargrid_geom::MAX_DIM;

/// Identifier of a bucket within a grid file.
pub type BucketId = u32;

/// Dense cell-to-bucket map.
#[derive(Clone, Debug)]
pub struct Directory {
    dim: usize,
    sizes: [u32; MAX_DIM],
    entries: Vec<BucketId>,
}

impl Directory {
    /// Creates a 1-cell-per-axis directory whose single cell maps to
    /// bucket 0.
    pub fn new(dim: usize) -> Self {
        assert!(
            (1..=MAX_DIM).contains(&dim),
            "directory dimensionality out of range"
        );
        let mut sizes = [1u32; MAX_DIM];
        sizes[dim..].fill(0);
        Directory {
            dim,
            sizes,
            entries: vec![0],
        }
    }

    /// Dimensionality of the directory.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of cells along each axis.
    #[inline]
    pub fn sizes(&self) -> &[u32] {
        &self.sizes[..self.dim]
    }

    /// Total number of cells.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.entries.len()
    }

    /// Row-major linear index of a cell.
    #[inline]
    pub fn linear_index(&self, cell: &[u32]) -> usize {
        debug_assert_eq!(cell.len(), self.dim);
        let mut idx = 0usize;
        for k in 0..self.dim {
            debug_assert!(
                cell[k] < self.sizes[k],
                "cell {cell:?} out of directory bounds {:?}",
                self.sizes()
            );
            idx = idx * self.sizes[k] as usize + cell[k] as usize;
        }
        idx
    }

    /// The bucket owning the given cell.
    #[inline]
    pub fn bucket_at(&self, cell: &[u32]) -> BucketId {
        self.entries[self.linear_index(cell)]
    }

    /// Points the given cell at a bucket.
    #[inline]
    pub fn set_bucket_at(&mut self, cell: &[u32], bucket: BucketId) {
        let idx = self.linear_index(cell);
        self.entries[idx] = bucket;
    }

    /// Grows the directory after the scale of dimension `k` split its cell
    /// `c` into `c` and `c + 1`. The new slab `c + 1` starts as a copy of
    /// slab `c` (both halves of a split cell initially share the bucket).
    ///
    /// Row-major order makes this three contiguous copies per index of the
    /// dimensions before `k`: slabs `0..=c`, slab `c` again, and the slabs
    /// after it, shifted up by one.
    pub fn grow(&mut self, k: usize, c: u32) {
        assert!(k < self.dim, "dimension {k} out of range");
        assert!(c < self.sizes[k], "cell {c} out of range on dim {k}");
        let slab: usize = self.sizes[k + 1..self.dim]
            .iter()
            .map(|&s| s as usize)
            .product();
        let row = self.sizes[k] as usize * slab;
        let through_c = (c as usize + 1) * slab;
        let mut entries = Vec::with_capacity(self.entries.len() + self.entries.len() / row * slab);
        for old in self.entries.chunks_exact(row) {
            entries.extend_from_slice(&old[..through_c]);
            entries.extend_from_slice(&old[through_c - slab..through_c]);
            entries.extend_from_slice(&old[through_c..]);
        }
        self.sizes[k] += 1;
        self.entries = entries;
    }

    /// The cell-by-cell form [`Directory::grow`] replaced, kept as its
    /// reference: every new cell is decoded to coordinates and mapped back
    /// to its source cell (index > c+1 shifts down by one; index c+1 maps
    /// to old c).
    #[cfg(test)]
    fn grow_reference(&mut self, k: usize, c: u32) {
        let old_sizes = self.sizes;
        let mut new_sizes = old_sizes;
        new_sizes[k] += 1;

        let total_new: usize = new_sizes[..self.dim].iter().map(|&s| s as usize).product();
        let mut new_entries = vec![0; total_new];
        let mut cell = [0u32; MAX_DIM];
        for (new_idx, slot) in new_entries.iter_mut().enumerate() {
            let mut rem = new_idx;
            for kk in (0..self.dim).rev() {
                cell[kk] = (rem % new_sizes[kk] as usize) as u32;
                rem /= new_sizes[kk] as usize;
            }
            let mut old_cell = cell;
            if old_cell[k] > c {
                old_cell[k] -= 1;
            }
            let mut old_idx = 0usize;
            for kk in 0..self.dim {
                old_idx = old_idx * old_sizes[kk] as usize + old_cell[kk] as usize;
            }
            *slot = self.entries[old_idx];
        }

        self.sizes = new_sizes;
        self.entries = new_entries;
    }

    /// Iterates over every `(cell, bucket)` pair.
    pub fn for_each<F: FnMut(&[u32], BucketId)>(&self, mut f: F) {
        let mut cell = [0u32; MAX_DIM];
        for (idx, &b) in self.entries.iter().enumerate() {
            let mut rem = idx;
            for kk in (0..self.dim).rev() {
                cell[kk] = (rem % self.sizes[kk] as usize) as u32;
                rem /= self.sizes[kk] as usize;
            }
            f(&cell[..self.dim], b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn grow_by_slabs_equals_grow_cell_by_cell(
            sizes in prop::collection::vec(1u32..=4, 1..=MAX_DIM),
            seed in any::<u32>(),
        ) {
            let dim = sizes.len();
            let mut start = Directory::new(dim);
            start.sizes[..dim].copy_from_slice(&sizes);
            let n: usize = sizes.iter().map(|&s| s as usize).product();
            // Distinct-ish entries, so a misplaced copy shows.
            start.entries = (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761) ^ seed)
                .collect();
            for (k, &side) in sizes.iter().enumerate() {
                for c in 0..side {
                    let mut by_slabs = start.clone();
                    let mut by_cells = start.clone();
                    by_slabs.grow(k, c);
                    by_cells.grow_reference(k, c);
                    prop_assert_eq!(by_slabs.sizes(), by_cells.sizes());
                    prop_assert_eq!(&by_slabs.entries, &by_cells.entries, "k {} c {}", k, c);
                }
            }
        }
    }

    #[test]
    fn fresh_directory() {
        let d = Directory::new(2);
        assert_eq!(d.sizes(), &[1, 1]);
        assert_eq!(d.n_cells(), 1);
        assert_eq!(d.bucket_at(&[0, 0]), 0);
    }

    #[test]
    fn grow_duplicates_slab() {
        let mut d = Directory::new(2);
        // Split dim 0 cell 0: grid is now 2x1.
        d.grow(0, 0);
        assert_eq!(d.sizes(), &[2, 1]);
        assert_eq!(d.bucket_at(&[0, 0]), 0);
        assert_eq!(d.bucket_at(&[1, 0]), 0);

        d.set_bucket_at(&[1, 0], 7);
        // Split dim 1 cell 0: 2x2, column duplicated.
        d.grow(1, 0);
        assert_eq!(d.sizes(), &[2, 2]);
        assert_eq!(d.bucket_at(&[0, 0]), 0);
        assert_eq!(d.bucket_at(&[0, 1]), 0);
        assert_eq!(d.bucket_at(&[1, 0]), 7);
        assert_eq!(d.bucket_at(&[1, 1]), 7);
    }

    #[test]
    fn grow_shifts_upper_slabs() {
        let mut d = Directory::new(1);
        d.grow(0, 0); // cells: [a, a]
        d.set_bucket_at(&[0], 1);
        d.set_bucket_at(&[1], 2);
        d.grow(0, 0); // split cell 0 -> [1, 1, 2]
        assert_eq!(d.sizes(), &[3]);
        assert_eq!(d.bucket_at(&[0]), 1);
        assert_eq!(d.bucket_at(&[1]), 1);
        assert_eq!(d.bucket_at(&[2]), 2);
    }

    #[test]
    fn linear_index_row_major() {
        let mut d = Directory::new(3);
        d.grow(0, 0);
        d.grow(1, 0);
        d.grow(2, 0);
        // sizes 2x2x2; last dim fastest.
        assert_eq!(d.linear_index(&[0, 0, 0]), 0);
        assert_eq!(d.linear_index(&[0, 0, 1]), 1);
        assert_eq!(d.linear_index(&[0, 1, 0]), 2);
        assert_eq!(d.linear_index(&[1, 0, 0]), 4);
        assert_eq!(d.linear_index(&[1, 1, 1]), 7);
    }

    #[test]
    fn for_each_visits_all_cells() {
        let mut d = Directory::new(2);
        d.grow(0, 0);
        d.grow(1, 0);
        let mut count = 0;
        let mut cells = Vec::new();
        d.for_each(|cell, _| {
            count += 1;
            cells.push(cell.to_vec());
        });
        assert_eq!(count, 4);
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), 4);
    }
}
