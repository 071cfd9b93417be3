//! The dataset container shared by all generators.

use pargrid_geom::{Point, Rect};
use pargrid_gridfile::{GridConfig, GridFile, Record};

/// A generated dataset: named points in a domain, plus the grid-file layout
/// parameters (page and payload size) tuned so the resulting file matches
/// the bucket counts the paper reports.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Dataset name as the paper spells it (e.g. `hot.2d`).
    pub name: String,
    /// The data points.
    pub points: Vec<Point>,
    /// The spatial domain.
    pub domain: Rect,
    /// Disk page size in bytes for this dataset's grid file.
    pub page_bytes: usize,
    /// Per-record payload size in bytes.
    pub payload_bytes: usize,
}

impl Dataset {
    /// Creates a dataset.
    pub fn new(
        name: impl Into<String>,
        points: Vec<Point>,
        domain: Rect,
        page_bytes: usize,
        payload_bytes: usize,
    ) -> Self {
        let name = name.into();
        assert!(!points.is_empty(), "dataset {name} has no points");
        let dim = domain.dim();
        assert!(
            points.iter().all(|p| p.dim() == dim),
            "dataset {name} mixes dimensionalities"
        );
        Dataset {
            name,
            points,
            domain,
            page_bytes,
            payload_bytes,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset is empty (never true for generated sets).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.domain.dim()
    }

    /// The grid-file configuration for this dataset.
    pub fn grid_config(&self) -> GridConfig {
        GridConfig::new(self.domain, self.payload_bytes).with_page_bytes(self.page_bytes)
    }

    /// Records with sequential ids.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        self.points
            .iter()
            .enumerate()
            .map(|(i, p)| Record::new(i as u64, *p))
    }

    /// Builds the grid file for this dataset: [`Dataset::records`] bulk
    /// loaded, read straight from `points`.
    pub fn build_grid_file(&self) -> GridFile {
        GridFile::bulk_load_points(self.grid_config(), &self.points)
    }

    /// Histogram of the points' marginal distribution on dimension `k`
    /// with `bins` equal-width bins (used to render Figure 5).
    pub fn marginal_histogram(&self, k: usize, bins: usize) -> Vec<usize> {
        assert!(k < self.dim(), "dimension out of range");
        assert!(bins > 0, "need at least one bin");
        let lo = self.domain.lo().get(k);
        let w = self.domain.side(k) / bins as f64;
        let mut hist = vec![0usize; bins];
        for p in &self.points {
            let b = (((p.get(k) - lo) / w) as usize).min(bins - 1);
            hist[b] += 1;
        }
        hist
    }

    /// 2-D histogram over dimensions `(kx, ky)` — the paper's Figure 5
    /// slice diagrams.
    pub fn slice_histogram(&self, kx: usize, ky: usize, bins: usize) -> Vec<Vec<usize>> {
        assert!(kx < self.dim() && ky < self.dim() && kx != ky);
        let lox = self.domain.lo().get(kx);
        let loy = self.domain.lo().get(ky);
        let wx = self.domain.side(kx) / bins as f64;
        let wy = self.domain.side(ky) / bins as f64;
        let mut hist = vec![vec![0usize; bins]; bins];
        for p in &self.points {
            let bx = (((p.get(kx) - lox) / wx) as usize).min(bins - 1);
            let by = (((p.get(ky) - loy) / wy) as usize).min(bins - 1);
            hist[bx][by] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(
            "tiny",
            vec![
                Point::new2(0.0, 0.0),
                Point::new2(5.0, 5.0),
                Point::new2(9.9, 9.9),
            ],
            Rect::new2(0.0, 0.0, 10.0, 10.0),
            4096,
            0,
        )
    }

    #[test]
    fn build_and_query() {
        let ds = tiny();
        assert_eq!(ds.len(), 3);
        let gf = ds.build_grid_file();
        assert_eq!(gf.len(), 3);
        gf.check_invariants();
    }

    #[test]
    fn marginal_histogram_sums_to_len() {
        let ds = tiny();
        let h = ds.marginal_histogram(0, 4);
        assert_eq!(h.iter().sum::<usize>(), 3);
        assert_eq!(h, vec![1, 0, 1, 1]);
    }

    #[test]
    fn slice_histogram_sums_to_len() {
        let ds = tiny();
        let h = ds.slice_histogram(0, 1, 2);
        let total: usize = h.iter().flatten().sum();
        assert_eq!(total, 3);
    }

    /// FNV-1a over the little-endian bytes of a grid file's structure:
    /// each scale's cut count and cut bits, the directory's sizes and
    /// entries, and per live bucket its id, region and record ids in order.
    fn structure_fnv1a(gf: &GridFile) -> u64 {
        let mut words: Vec<u64> = Vec::new();
        for scale in gf.scales() {
            words.push(scale.cuts().len() as u64);
            words.extend(scale.cuts().iter().map(|c| c.to_bits()));
        }
        words.extend(gf.directory().sizes().iter().map(|&s| s as u64));
        gf.directory().for_each(|_, b| words.push(b as u64));
        for (id, region, len) in gf.live_buckets() {
            words.push(id as u64);
            words.extend(region.lo().iter().chain(region.hi()).map(|&c| c as u64));
            words.push(len as u64);
            words.extend(gf.bucket_records(id).iter().map(|r| r.id));
        }
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The grid file of the `pargrid-e2e` benchmark's own instance, as the
    /// one-insert-at-a-time bulk load (the commit before the two-pass load)
    /// built it.
    const GOLDEN_BENCHMARK_GRID_FNV1A: u64 = 0x53e9_01f1_5afc_4de1;

    #[test]
    fn golden_grid_file_on_the_benchmark_instance() {
        let gf = crate::dsmc3d_sized(42, 400_000).build_grid_file();
        let got = structure_fnv1a(&gf);
        assert_eq!(got, GOLDEN_BENCHMARK_GRID_FNV1A, "{got:#018x}");
    }

    #[test]
    #[should_panic(expected = "no points")]
    fn empty_dataset_rejected() {
        let _ = Dataset::new("x", vec![], Rect::new2(0.0, 0.0, 1.0, 1.0), 4096, 0);
    }
}
