//! The grid file proper: adaptive multikey storage with bucket splitting.
//!
//! Follows Nievergelt & Hinterberger (TODS '84). The two-level organization:
//! linear scales (one per dimension) partition the domain into a grid of
//! *cells*; the grid directory maps every cell to a *bucket*; each bucket
//! stores at most `bucket_capacity` records and covers a box-shaped region of
//! one or more cells. A bucket covering several cells is what the paper calls
//! "merged subspaces" — the reason index-based declustering needs conflict
//! resolution.
//!
//! Split policy on bucket overflow:
//! 1. If the bucket's region spans more than one cell, split the region along
//!    the widest axis at its middle scale boundary (no directory growth).
//! 2. Otherwise refine a linear scale: cut the cell at its spatial midpoint
//!    (falling back to a record-median cut when the midpoint does not
//!    separate the records), grow the directory along that axis, and then
//!    split as in (1).
//!
//! There is one insert-and-split implementation (`GridMut`), generic over
//! what a bucket holds. A live file's buckets hold `Record`s. A bulk load
//! runs the same splits on buckets of `u32` positions into its input, reading
//! keys in place, and then copies each record once into its final bucket
//! (see [`GridFile::bulk_load`]). A split cuts each key from the records in
//! the overflowing bucket at that moment, so the file depends on insertion
//! order: building the scales first would give a different file.

use crate::directory::{BucketId, Directory};
use crate::record::Record;
use crate::region::CellRegion;
use crate::scale::LinearScale;
use pargrid_geom::{Point, Rect, MAX_DIM};

/// Configuration of a grid file.
#[derive(Clone, Debug)]
pub struct GridConfig {
    /// The spatial domain covered by the file. Records outside the domain
    /// are clamped into the boundary cells.
    pub domain: Rect,
    /// Disk page (bucket) size in bytes. The paper uses 4 KB for the
    /// simulation study and 8 KB on the SP-2.
    pub page_bytes: usize,
    /// Size of the opaque record payload in bytes (coordinates and id are
    /// accounted separately); determines bucket capacity.
    pub payload_bytes: usize,
}

impl GridConfig {
    /// Creates a configuration with the default 4 KB page.
    pub fn new(domain: Rect, payload_bytes: usize) -> Self {
        GridConfig {
            domain,
            page_bytes: 4096,
            payload_bytes,
        }
    }

    /// Sets the page size in bytes.
    pub fn with_page_bytes(mut self, page_bytes: usize) -> Self {
        self.page_bytes = page_bytes;
        self
    }

    /// Chooses the payload size so that a bucket holds exactly `capacity`
    /// records with the default 4 KB page.
    ///
    /// # Panics
    /// Panics if the capacity does not fit a 4 KB page with the given
    /// dimensionality.
    pub fn with_capacity(domain: Rect, capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        let dim = domain.dim();
        let base = Record::encoded_size(dim, 0);
        let budget = 4096 / capacity;
        assert!(
            budget >= base,
            "capacity {capacity} does not fit a 4 KB page for dim {dim}"
        );
        GridConfig {
            domain,
            page_bytes: 4096,
            payload_bytes: budget - base,
        }
    }

    /// Encoded size of one record in bytes.
    #[inline]
    pub fn record_bytes(&self) -> usize {
        Record::encoded_size(self.domain.dim(), self.payload_bytes)
    }

    /// Maximum records per bucket.
    #[inline]
    pub fn bucket_capacity(&self) -> usize {
        let c = self.page_bytes / self.record_bytes();
        assert!(c >= 1, "page too small for even one record");
        c
    }
}

/// A data bucket: a box region of cells plus its members — the records
/// stored in it, or during a bulk load their positions in the input.
#[derive(Clone, Debug)]
pub(crate) struct Bucket<M = Record> {
    pub(crate) region: CellRegion,
    pub(crate) records: Vec<M>,
    pub(crate) alive: bool,
}

/// Summary statistics of a grid file, matching the numbers the paper quotes
/// for each dataset (cells, buckets, merged buckets).
#[derive(Clone, Debug, PartialEq)]
pub struct GridFileStats {
    /// Records stored.
    pub n_records: u64,
    /// Grid cells (product of scale cell counts) — the paper's "subspaces".
    pub n_cells: u64,
    /// Live buckets.
    pub n_buckets: usize,
    /// Buckets covering more than one cell ("merged subspaces").
    pub n_merged_buckets: usize,
    /// Cells along each dimension.
    pub cells_per_dim: Vec<u32>,
    /// Mean bucket occupancy relative to capacity.
    pub avg_occupancy: f64,
    /// Number of buckets left over capacity because their records could not
    /// be separated (duplicate keys).
    pub oversize_buckets: usize,
}

/// Which buckets a single mutation touched — the delta a parallel engine
/// (or any external materialization of the buckets) must apply to its own
/// storage: rewrite changed buckets, allocate created ones, drop freed ones.
///
/// Scale refinements that only reshape bucket *regions* without moving any
/// record between buckets are deliberately not reported: the materialized
/// record contents of those buckets are unchanged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MutationEffect {
    /// Pre-existing live buckets whose record set changed.
    pub rewritten: Vec<BucketId>,
    /// Buckets that did not exist before the mutation (split targets).
    /// Ids may reuse previously freed ids.
    pub created: Vec<BucketId>,
    /// Buckets merged away by the mutation; their storage can be dropped.
    pub freed: Vec<BucketId>,
}

impl MutationEffect {
    /// Sorts, dedups, and removes freshly created buckets from the
    /// rewritten list (a created bucket's contents are written once, as a
    /// creation).
    fn normalize(&mut self) {
        self.created.sort_unstable();
        self.created.dedup();
        self.freed.sort_unstable();
        self.freed.dedup();
        self.rewritten.sort_unstable();
        self.rewritten.dedup();
        self.rewritten
            .retain(|b| !self.created.contains(b) && !self.freed.contains(b));
    }

    /// Whether the mutation touched no bucket at all (e.g. deleting a
    /// record that does not exist).
    pub fn is_empty(&self) -> bool {
        self.rewritten.is_empty() && self.created.is_empty() && self.freed.is_empty()
    }
}

/// The grid file.
#[derive(Clone, Debug)]
pub struct GridFile {
    pub(crate) config: GridConfig,
    pub(crate) capacity: usize,
    pub(crate) scales: Vec<LinearScale>,
    pub(crate) dir: Directory,
    pub(crate) buckets: Vec<Bucket>,
    pub(crate) free: Vec<BucketId>,
    pub(crate) n_records: u64,
}

impl GridFile {
    /// Creates an empty grid file.
    pub fn new(config: GridConfig) -> Self {
        let dim = config.domain.dim();
        let capacity = config.bucket_capacity();
        let scales = (0..dim)
            .map(|k| LinearScale::new(config.domain.lo().get(k), config.domain.hi().get(k)))
            .collect();
        GridFile {
            config,
            capacity,
            scales,
            dir: Directory::new(dim),
            buckets: vec![Bucket {
                region: CellRegion::single(&vec![0u32; dim]),
                records: Vec::new(),
                alive: true,
            }],
            free: Vec::new(),
            n_records: 0,
        }
    }

    /// Builds a grid file holding every record of an iterator: the file
    /// that inserting them one by one, in order, builds.
    ///
    /// It runs in two passes. The first runs the insert loop's exact split
    /// sequence on buckets that hold `u32` positions into the input and
    /// reads keys in place. The second copies each record once, into a
    /// bucket vector of exactly its final size. The file is identical to the
    /// insert loop's, bit for bit. A split is a stable partition, so a
    /// bucket's members stay in insertion order. A bulk load never merges or
    /// frees a bucket, so each bucket gets the id the insert loop gives it.
    ///
    /// # Panics
    /// Panics if a record's dimensionality differs from the domain's, or if
    /// there are more than `u32::MAX` records.
    pub fn bulk_load<I: IntoIterator<Item = Record>>(config: GridConfig, records: I) -> Self {
        let records: Vec<Record> = records.into_iter().collect();
        Self::load_positions(config, records.len(), |i| &records[i].point, |i| records[i])
    }

    /// Builds the grid file of `points`, the record at position `i` having
    /// id `i`: what [`GridFile::bulk_load`] builds from those records,
    /// without materialising them before their final copy.
    pub fn bulk_load_points(config: GridConfig, points: &[Point]) -> Self {
        Self::load_positions(
            config,
            points.len(),
            |i| &points[i],
            |i| Record::new(i as u64, points[i]),
        )
    }

    /// The bulk-load core: the records at positions `0..n`, keyed by
    /// `point(i)` and stored as `record(i)`.
    fn load_positions<'p>(
        config: GridConfig,
        n: usize,
        point: impl Fn(usize) -> &'p Point,
        record: impl Fn(usize) -> Record,
    ) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "a bulk load holds at most u32::MAX records"
        );
        let mut gf = Self::new(config);
        let dim = gf.dim();
        let mut buckets = vec![Bucket {
            region: gf.buckets[0].region,
            records: Vec::new(),
            alive: true,
        }];
        let mut created = Vec::new();
        let mut grid = GridMut {
            domain: &gf.config.domain,
            capacity: gf.capacity,
            scales: &mut gf.scales,
            dir: &mut gf.dir,
            buckets: &mut buckets,
            free: &mut gf.free,
            key: |&i: &u32, k: usize| point(i as usize).get(k),
        };
        for i in 0..n {
            let p = point(i);
            assert_eq!(p.dim(), dim, "record dimensionality mismatch");
            grid.place(i as u32, p, &mut created);
            created.clear();
        }
        gf.buckets = buckets
            .into_iter()
            .map(|b| Bucket {
                region: b.region,
                records: b.records.iter().map(|&i| record(i as usize)).collect(),
                alive: b.alive,
            })
            .collect();
        gf.n_records = n as u64;
        gf
    }

    /// The insert loop that [`GridFile::bulk_load`]'s two passes replaced,
    /// kept as the reference the tests hold them to.
    #[cfg(test)]
    fn bulk_load_reference(config: GridConfig, records: impl IntoIterator<Item = Record>) -> Self {
        let mut gf = Self::new(config);
        for r in records {
            gf.insert(r);
        }
        gf
    }

    /// The configuration this file was created with.
    #[inline]
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Maximum records per bucket.
    #[inline]
    pub fn bucket_capacity(&self) -> usize {
        self.capacity
    }

    /// Dimensionality of the file.
    #[inline]
    pub fn dim(&self) -> usize {
        self.scales.len()
    }

    /// The per-dimension linear scales.
    #[inline]
    pub fn scales(&self) -> &[LinearScale] {
        &self.scales
    }

    /// The grid directory.
    #[inline]
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Number of records stored.
    #[inline]
    pub fn len(&self) -> u64 {
        self.n_records
    }

    /// Whether the file stores no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// Number of cells along each dimension.
    pub fn cells_per_dim(&self) -> Vec<u32> {
        self.scales.iter().map(|s| s.n_cells() as u32).collect()
    }

    /// The grid cell containing a point (clamped into the domain).
    pub fn cell_of_point(&self, p: &Point, out: &mut [u32]) {
        debug_assert_eq!(p.dim(), self.dim());
        cell_of_point(&self.scales, p, out);
    }

    /// The spatial box covered by a bucket's region.
    pub fn bucket_rect(&self, id: BucketId) -> Rect {
        let b = &self.buckets[id as usize];
        assert!(b.alive, "bucket {id} is not alive");
        self.region_rect(&b.region)
    }

    /// The spatial box covered by an arbitrary cell region.
    pub fn region_rect(&self, region: &CellRegion) -> Rect {
        region_rect(&self.scales, region)
    }

    /// Iterates over live buckets as `(id, region, record_count)`.
    pub fn live_buckets(&self) -> impl Iterator<Item = (BucketId, &CellRegion, usize)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.alive)
            .map(|(i, b)| (i as BucketId, &b.region, b.records.len()))
    }

    /// Number of live buckets.
    pub fn n_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| b.alive).count()
    }

    /// The records of a bucket.
    ///
    /// # Panics
    /// Panics if the bucket id is stale (merged away).
    pub fn bucket_records(&self, id: BucketId) -> &[Record] {
        let b = &self.buckets[id as usize];
        assert!(b.alive, "bucket {id} is not alive");
        &b.records
    }

    /// Inserts a record, splitting buckets as needed.
    pub fn insert(&mut self, rec: Record) {
        self.insert_into_bucket(rec, &mut Vec::new());
    }

    /// Inserts a record and reports which buckets the insert rewrote or
    /// created — the delta an external materialization of the buckets (the
    /// parallel engine's block stores) must apply.
    pub fn insert_tracked(&mut self, rec: Record) -> MutationEffect {
        let mut effect = MutationEffect::default();
        let target = self.insert_into_bucket(rec, &mut effect.created);
        effect.rewritten.push(target);
        effect.normalize();
        effect
    }

    /// The one insert path: places the record, splits while over capacity,
    /// appends the split-off buckets to `created` and returns the bucket the
    /// record was first placed in. The untracked entry hands in an empty
    /// vector, which allocates only on the rare insert that splits.
    fn insert_into_bucket(&mut self, rec: Record, created: &mut Vec<BucketId>) -> BucketId {
        assert_eq!(
            rec.point.dim(),
            self.dim(),
            "record dimensionality mismatch"
        );
        self.n_records += 1;
        self.grid().place(rec, &rec.point, created)
    }

    /// The file's structure as the insert-and-split code sees it.
    fn grid(&mut self) -> GridMut<'_, Record, impl Fn(&Record, usize) -> f64> {
        GridMut {
            domain: &self.config.domain,
            capacity: self.capacity,
            scales: &mut self.scales,
            dir: &mut self.dir,
            buckets: &mut self.buckets,
            free: &mut self.free,
            key: |r: &Record, k: usize| r.point.get(k),
        }
    }

    /// The live bucket whose region contains `p` (clamped into the domain).
    pub fn bucket_of_point(&self, p: &Point) -> BucketId {
        let mut cell = [0u32; MAX_DIM];
        self.cell_of_point(p, &mut cell[..self.dim()]);
        self.dir.bucket_at(&cell[..self.dim()])
    }

    /// Looks up all records whose key equals `p` exactly.
    pub fn lookup(&self, p: &Point) -> Vec<Record> {
        let mut cell = [0u32; MAX_DIM];
        self.cell_of_point(p, &mut cell[..self.dim()]);
        let bid = self.dir.bucket_at(&cell[..self.dim()]);
        self.buckets[bid as usize]
            .records
            .iter()
            .filter(|r| r.point == *p)
            .copied()
            .collect()
    }

    /// Removes the record with the given id whose key is `p`. Returns
    /// whether a record was removed. Underflowing buckets are merged with a
    /// buddy when possible.
    pub fn delete(&mut self, id: u64, p: &Point) -> bool {
        let (removed, _) = self.delete_tracked(id, p);
        removed
    }

    /// Removes a record like [`GridFile::delete`], additionally reporting
    /// which buckets were rewritten or merged away. The effect is empty
    /// when no record matched.
    pub fn delete_tracked(&mut self, id: u64, p: &Point) -> (bool, MutationEffect) {
        let mut effect = MutationEffect::default();
        let mut cell = [0u32; MAX_DIM];
        self.cell_of_point(p, &mut cell[..self.dim()]);
        let bid = self.dir.bucket_at(&cell[..self.dim()]);
        let recs = &mut self.buckets[bid as usize].records;
        let Some(pos) = recs.iter().position(|r| r.id == id && r.point == *p) else {
            return (false, effect);
        };
        recs.swap_remove(pos);
        self.n_records -= 1;
        effect.rewritten.push(bid);
        if self.buckets[bid as usize].records.len() * 3 < self.capacity {
            self.try_merge(bid, &mut effect);
        }
        effect.normalize();
        (true, effect)
    }

    /// The set of buckets a (closed) range query must read, sorted and
    /// deduplicated. This is the quantity the paper's response-time metric
    /// counts.
    pub fn range_query_buckets(&self, query: &Rect) -> Vec<BucketId> {
        assert_eq!(query.dim(), self.dim(), "query dimensionality mismatch");
        let Some(region) = self.query_cell_region(query) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(region.cell_count().min(1024) as usize);
        region.for_each_cell(|cell| {
            out.push(self.dir.bucket_at(cell));
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Runs a (closed) range query, returning the buckets read and the
    /// qualifying records.
    pub fn range_query(&self, query: &Rect) -> (Vec<BucketId>, Vec<Record>) {
        let buckets = self.range_query_buckets(query);
        let mut records = Vec::new();
        for &b in &buckets {
            for r in &self.buckets[b as usize].records {
                if query.contains_closed(&r.point) {
                    records.push(*r);
                }
            }
        }
        (buckets, records)
    }

    /// The buckets a partial-match query must read. `keys[k]` is `Some(v)`
    /// for a specified attribute and `None` for an unspecified one.
    pub fn partial_match_buckets(&self, keys: &[Option<f64>]) -> Vec<BucketId> {
        assert_eq!(keys.len(), self.dim(), "key count mismatch");
        let d = self.dim();
        let mut lo = [0.0; MAX_DIM];
        let mut hi = [0.0; MAX_DIM];
        for k in 0..d {
            match keys[k] {
                Some(v) => {
                    lo[k] = v;
                    hi[k] = v;
                }
                None => {
                    lo[k] = self.config.domain.lo().get(k);
                    hi[k] = self.config.domain.hi().get(k);
                }
            }
        }
        let rect = Rect::new(Point::new(&lo[..d]), Point::new(&hi[..d]));
        self.range_query_buckets(&rect)
    }

    /// Runs a partial-match query, returning buckets and qualifying records.
    pub fn partial_match(&self, keys: &[Option<f64>]) -> (Vec<BucketId>, Vec<Record>) {
        let buckets = self.partial_match_buckets(keys);
        let mut records = Vec::new();
        for &b in &buckets {
            'rec: for r in &self.buckets[b as usize].records {
                for (k, key) in keys.iter().enumerate() {
                    if let Some(v) = key {
                        if r.point.get(k) != *v {
                            continue 'rec;
                        }
                    }
                }
                records.push(*r);
            }
        }
        (buckets, records)
    }

    /// Summary statistics.
    pub fn stats(&self) -> GridFileStats {
        let mut n_buckets = 0;
        let mut n_merged = 0;
        let mut occupancy = 0.0;
        let mut oversize = 0;
        for b in &self.buckets {
            if !b.alive {
                continue;
            }
            n_buckets += 1;
            if !b.region.is_single_cell() {
                n_merged += 1;
            }
            if b.records.len() > self.capacity {
                oversize += 1;
            }
            occupancy += b.records.len() as f64 / self.capacity as f64;
        }
        GridFileStats {
            n_records: self.n_records,
            n_cells: self.scales.iter().map(|s| s.n_cells() as u64).product(),
            n_buckets,
            n_merged_buckets: n_merged,
            cells_per_dim: self.cells_per_dim(),
            avg_occupancy: if n_buckets > 0 {
                occupancy / n_buckets as f64
            } else {
                0.0
            },
            oversize_buckets: oversize,
        }
    }

    /// Checks internal invariants; used by tests and debug assertions.
    ///
    /// # Panics
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        // Every directory cell points at a live bucket whose region contains
        // the cell.
        self.dir.for_each(|cell, bid| {
            let b = &self.buckets[bid as usize];
            assert!(b.alive, "cell {cell:?} points at dead bucket {bid}");
            assert!(
                b.region.contains_cell(cell),
                "cell {cell:?} not inside region of bucket {bid}"
            );
        });
        // Every live bucket's records lie inside the bucket's spatial box,
        // and every cell of its region points back at it.
        let mut total = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            if !b.alive {
                continue;
            }
            total += b.records.len() as u64;
            let rect = self.region_rect(&b.region);
            for r in &b.records {
                let mut cell = [0u32; MAX_DIM];
                self.cell_of_point(&r.point, &mut cell[..self.dim()]);
                assert!(
                    b.region.contains_cell(&cell[..self.dim()]),
                    "record {:?} in bucket {i} maps to cell outside its region {:?} (rect {rect:?})",
                    r,
                    b.region,
                );
            }
            b.region.for_each_cell(|cell| {
                assert_eq!(
                    self.dir.bucket_at(cell),
                    i as BucketId,
                    "cell {cell:?} of bucket {i}'s region points elsewhere"
                );
            });
        }
        assert_eq!(total, self.n_records, "record count mismatch");
    }

    // ----- internals -------------------------------------------------

    /// Cell region touched by a closed-rect query, or `None` if the query
    /// misses the domain entirely.
    fn query_cell_region(&self, query: &Rect) -> Option<CellRegion> {
        let d = self.dim();
        let dom = &self.config.domain;
        let mut lo = [0u32; MAX_DIM];
        let mut hi = [0u32; MAX_DIM];
        for k in 0..d {
            if query.hi().get(k) < dom.lo().get(k) || query.lo().get(k) > dom.hi().get(k) {
                return None;
            }
            lo[k] = self.scales[k].cell_of(query.lo().get(k)) as u32;
            hi[k] = self.scales[k].cell_of(query.hi().get(k)) as u32;
        }
        Some(CellRegion::new(&lo[..d], &hi[..d]))
    }

    /// Attempts to merge an underflowing bucket with a buddy.
    fn try_merge(&mut self, b: BucketId, effect: &mut MutationEffect) {
        if !self.buckets[b as usize].alive {
            return;
        }
        let region = self.buckets[b as usize].region;
        let len = self.buckets[b as usize].records.len();
        // Find a live buddy with combined occupancy at most ~70% so the
        // merged bucket does not split right back (thrashing guard).
        let limit = (self.capacity * 7) / 10;
        let buddy = self.buckets.iter().enumerate().find_map(|(i, other)| {
            (other.alive
                && i as BucketId != b
                && other.region.is_buddy_of(&region)
                && other.records.len() + len <= limit.max(1))
            .then_some(i as BucketId)
        });
        let Some(buddy) = buddy else {
            return;
        };
        let merged_region = region.merge_with(&self.buckets[buddy as usize].region);
        let moved = std::mem::take(&mut self.buckets[buddy as usize].records);
        self.buckets[b as usize].records.extend(moved);
        self.buckets[b as usize].region = merged_region;
        self.buckets[buddy as usize].alive = false;
        self.free.push(buddy);
        effect.freed.push(buddy);
        let dir = &mut self.dir;
        merged_region.for_each_cell(|cell| dir.set_bucket_at(cell, b));
    }
}

/// The grid cell containing a point under `scales` (clamped into the
/// domain).
fn cell_of_point(scales: &[LinearScale], p: &Point, out: &mut [u32]) {
    for (k, (slot, scale)) in out.iter_mut().zip(scales).enumerate() {
        *slot = scale.cell_of(p.get(k)) as u32;
    }
}

/// The spatial box covered by a cell region under `scales`.
fn region_rect(scales: &[LinearScale], region: &CellRegion) -> Rect {
    let d = scales.len();
    let mut lo = [0.0; MAX_DIM];
    let mut hi = [0.0; MAX_DIM];
    for k in 0..d {
        lo[k] = scales[k].cell_bounds(region.lo()[k] as usize).0;
        hi[k] = scales[k].cell_bounds(region.hi()[k] as usize).1;
    }
    Rect::new(Point::new(&lo[..d]), Point::new(&hi[..d]))
}

/// What an insert reads and rewrites, borrowed from a file whose buckets
/// hold members `M`: `Record`s in a live file, `u32` positions into the
/// input during a bulk load. `key(m, k)` is member `m`'s key on axis `k`.
/// Both kinds of bucket run this one insert-and-split implementation, so a
/// bulk load makes the insert loop's splits exactly.
struct GridMut<'a, M, K> {
    domain: &'a Rect,
    capacity: usize,
    scales: &'a mut Vec<LinearScale>,
    dir: &'a mut Directory,
    buckets: &'a mut Vec<Bucket<M>>,
    free: &'a mut Vec<BucketId>,
    key: K,
}

impl<M: Copy, K: Fn(&M, usize) -> f64> GridMut<'_, M, K> {
    /// Appends `m`, whose key is `p`, to the bucket holding `p`, splits
    /// while over capacity (appending the split-off buckets to `created`)
    /// and returns the bucket `m` was first placed in.
    fn place(&mut self, m: M, p: &Point, created: &mut Vec<BucketId>) -> BucketId {
        let d = self.scales.len();
        let mut cell = [0u32; MAX_DIM];
        cell_of_point(self.scales, p, &mut cell[..d]);
        let bid = self.dir.bucket_at(&cell[..d]);
        self.buckets[bid as usize].records.push(m);
        if self.buckets[bid as usize].records.len() > self.capacity {
            self.enforce_capacity(bid, created);
        }
        bid
    }

    fn alloc_bucket(&mut self, region: CellRegion) -> BucketId {
        if let Some(id) = self.free.pop() {
            let b = &mut self.buckets[id as usize];
            debug_assert!(!b.alive);
            b.region = region;
            b.records.clear();
            b.alive = true;
            id
        } else {
            self.buckets.push(Bucket {
                region,
                records: Vec::new(),
                alive: true,
            });
            (self.buckets.len() - 1) as BucketId
        }
    }

    /// Splits buckets until none (reachable from `start`) exceeds capacity.
    fn enforce_capacity(&mut self, start: BucketId, created: &mut Vec<BucketId>) {
        let mut work = vec![start];
        while let Some(b) = work.pop() {
            while self.buckets[b as usize].records.len() > self.capacity {
                match self.split_once(b) {
                    Some(nb) => {
                        created.push(nb);
                        if self.buckets[nb as usize].records.len() > self.capacity {
                            work.push(nb);
                        }
                    }
                    None => break, // inseparable duplicates: oversize bucket
                }
            }
        }
    }

    /// Performs one split step on bucket `b`. Returns the new bucket id, or
    /// `None` if the members cannot be separated on any dimension.
    fn split_once(&mut self, b: BucketId) -> Option<BucketId> {
        if self.buckets[b as usize].region.is_single_cell() && !self.refine_scale_for(b) {
            return None;
        }
        Some(self.split_region(b))
    }

    /// Splits a multi-cell bucket region along its widest axis.
    fn split_region(&mut self, b: BucketId) -> BucketId {
        let region = self.buckets[b as usize].region;
        debug_assert!(!region.is_single_cell());
        // Widest axis (in cells); ties broken by larger spatial extent so
        // splits stay roughly square.
        let rect = region_rect(self.scales, &region);
        let mut best_k = 0;
        let mut best = (0u32, 0.0f64);
        for k in 0..self.scales.len() {
            let span = region.span(k);
            if span < 2 {
                continue;
            }
            let extent = rect.side(k) / self.domain.side(k);
            if span > best.0 || (span == best.0 && extent > best.1) {
                best = (span, extent);
                best_k = k;
            }
        }
        let k = best_k;
        let mid = region.lo()[k] + (region.span(k) - 1) / 2;
        let (low, high) = region.split_at(k, mid);

        let nb = self.alloc_bucket(high);
        // Move members whose cell on axis k is above the cut, keeping both
        // halves in their order. The keys are read in a pass of their own:
        // a bulk load reads them from its input, scattered, and loads that
        // no branch waits on overlap.
        let cut_value = self.scales[k].cell_bounds(mid as usize).1;
        let mut moved = std::mem::take(&mut self.buckets[nb as usize].records);
        let members = &mut self.buckets[b as usize].records;
        let below: Vec<bool> = members
            .iter()
            .map(|m| (self.key)(m, k) < cut_value)
            .collect();
        moved.reserve(members.len());
        let mut below = below.into_iter();
        members.retain(|m| {
            let keep = below.next().expect("one flag per member");
            if !keep {
                moved.push(*m);
            }
            keep
        });
        self.buckets[b as usize].region = low;
        self.buckets[nb as usize].records = moved;

        // Re-point the directory cells of the upper half.
        let dir = &mut *self.dir;
        high.for_each_cell(|cell| dir.set_bucket_at(cell, nb));
        nb
    }

    /// Refines a linear scale so that bucket `b`'s single cell becomes two.
    /// Returns `false` when no dimension admits a separating cut (all member
    /// keys identical).
    fn refine_scale_for(&mut self, b: BucketId) -> bool {
        let region = self.buckets[b as usize].region;
        debug_assert!(region.is_single_cell());
        let d = self.scales.len();

        // Dimension preference: classical grid files refine dimensions
        // cyclically so the directory stays balanced across attributes; we
        // realize that globally by preferring the scale with the fewest
        // cells (ties: larger relative extent of the overflowing cell).
        let mut order: Vec<usize> = (0..d).collect();
        let extents: Vec<f64> = (0..d)
            .map(|k| {
                let (lo, hi) = self.scales[k].cell_bounds(region.lo()[k] as usize);
                (hi - lo) / self.domain.side(k)
            })
            .collect();
        order.sort_by(|&a, &bb| {
            self.scales[a]
                .n_cells()
                .cmp(&self.scales[bb].n_cells())
                .then_with(|| {
                    extents[bb]
                        .partial_cmp(&extents[a])
                        .expect("extent is never NaN")
                })
        });

        for &k in &order {
            let c = region.lo()[k];
            let (cell_lo, cell_hi) = self.scales[k].cell_bounds(c as usize);
            if let Some(cut) = self.find_cut(b, k, cell_lo, cell_hi) {
                let split_cell = self.scales[k].insert_cut(cut);
                debug_assert_eq!(split_cell, c as usize);
                self.dir.grow(k, c);
                for bucket in self.buckets.iter_mut() {
                    if bucket.alive {
                        bucket.region.apply_scale_split(k, c);
                    }
                }
                return true;
            }
        }
        false
    }

    /// Finds a cut inside `(cell_lo, cell_hi)` on axis `k` that separates
    /// the members of bucket `b`.
    ///
    /// Prefers the spatial *midpoint* when it splits the members reasonably
    /// evenly (midpoint cuts keep cells aligned, so uniform data produces
    /// almost no merged buckets — the paper's "4 of 252" regime); on skewed
    /// marginals, where midpoint cuts would waste scale refinements on empty
    /// space, it falls back to the *median* key.
    fn find_cut(&self, b: BucketId, k: usize, cell_lo: f64, cell_hi: f64) -> Option<f64> {
        let recs = &self.buckets[b as usize].records;
        let key = |m: &M| (self.key)(m, k);
        let n = recs.len();
        let separates = |cut: f64| {
            let below = recs.iter().filter(|m| key(m) < cut).count();
            below > 0 && below < n
        };
        let mid = 0.5 * (cell_lo + cell_hi);
        if mid > cell_lo && mid < cell_hi {
            let below = recs.iter().filter(|m| key(m) < mid).count();
            // "Reasonably even": both halves get at least a quarter.
            if below * 4 >= n && (n - below) * 4 >= n {
                return Some(mid);
            }
        }
        // Median cut: a middle *distinct* key value. Keys equal to the cut
        // go to the upper half, so any distinct value except the smallest
        // separates.
        let mut keys: Vec<f64> = recs.iter().map(key).collect();
        keys.sort_by(|a, bb| a.partial_cmp(bb).expect("keys are never NaN"));
        keys.dedup();
        if keys.len() >= 2 {
            let cut = keys[(keys.len() / 2).max(1)];
            if cut > cell_lo && cut < cell_hi && separates(cut) {
                return Some(cut);
            }
        }
        // Last resort: an uneven midpoint still makes progress.
        if mid > cell_lo && mid < cell_hi && separates(mid) {
            return Some(mid);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg2(capacity: usize) -> GridConfig {
        GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), capacity)
    }

    fn rec2(id: u64, x: f64, y: f64) -> Record {
        Record::new(id, Point::new2(x, y))
    }

    #[test]
    fn empty_file() {
        let gf = GridFile::new(cfg2(4));
        assert!(gf.is_empty());
        assert_eq!(gf.n_buckets(), 1);
        assert_eq!(gf.stats().n_cells, 1);
        gf.check_invariants();
    }

    #[test]
    fn insert_without_split() {
        let mut gf = GridFile::new(cfg2(4));
        for i in 0..4 {
            gf.insert(rec2(i, i as f64 * 10.0, 50.0));
        }
        assert_eq!(gf.len(), 4);
        assert_eq!(gf.n_buckets(), 1);
        gf.check_invariants();
    }

    #[test]
    fn overflow_triggers_scale_split() {
        let mut gf = GridFile::new(cfg2(4));
        for i in 0..5 {
            gf.insert(rec2(i, i as f64 * 10.0 + 5.0, 50.0));
        }
        assert_eq!(gf.len(), 5);
        assert!(gf.n_buckets() >= 2);
        assert!(gf.stats().n_cells >= 2);
        gf.check_invariants();
    }

    #[test]
    fn lookup_finds_inserted_records() {
        let mut gf = GridFile::new(cfg2(4));
        let pts = [
            (3.0, 4.0),
            (80.0, 20.0),
            (50.0, 50.0),
            (10.0, 90.0),
            (99.0, 99.0),
        ];
        for (i, &(x, y)) in pts.iter().enumerate() {
            gf.insert(rec2(i as u64, x, y));
        }
        for (i, &(x, y)) in pts.iter().enumerate() {
            let found = gf.lookup(&Point::new2(x, y));
            assert_eq!(found.len(), 1);
            assert_eq!(found[0].id, i as u64);
        }
        assert!(gf.lookup(&Point::new2(1.0, 1.0)).is_empty());
    }

    #[test]
    fn many_inserts_keep_invariants() {
        let mut gf = GridFile::new(cfg2(8));
        // Deterministic quasi-random points.
        let mut x = 7u64;
        for i in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((x >> 16) % 10000) as f64 / 100.0;
            let b = ((x >> 40) % 10000) as f64 / 100.0;
            gf.insert(rec2(i, a, b));
        }
        assert_eq!(gf.len(), 2000);
        gf.check_invariants();
        let st = gf.stats();
        assert!(st.n_buckets >= 2000 / 8, "buckets: {}", st.n_buckets);
        assert_eq!(st.oversize_buckets, 0);
        // All records findable.
        let (_, recs) = gf.range_query(&Rect::new2(0.0, 0.0, 100.0, 100.0));
        assert_eq!(recs.len(), 2000);
    }

    #[test]
    fn range_query_correctness_brute_force() {
        let mut gf = GridFile::new(cfg2(4));
        let mut pts = Vec::new();
        let mut x = 99u64;
        for i in 0..500u64 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let a = ((x >> 16) % 10000) as f64 / 100.0;
            let b = ((x >> 40) % 10000) as f64 / 100.0;
            pts.push((a, b));
            gf.insert(rec2(i, a, b));
        }
        let queries = [
            Rect::new2(10.0, 10.0, 30.0, 30.0),
            Rect::new2(0.0, 0.0, 100.0, 100.0),
            Rect::new2(50.0, 0.0, 50.0, 100.0), // degenerate line
            Rect::new2(95.0, 95.0, 100.0, 100.0),
        ];
        for q in &queries {
            let (_, recs) = gf.range_query(q);
            let expected = pts
                .iter()
                .filter(|&&(a, b)| q.contains_closed(&Point::new2(a, b)))
                .count();
            assert_eq!(recs.len(), expected, "query {q:?}");
        }
    }

    #[test]
    fn range_query_outside_domain_is_empty() {
        let mut gf = GridFile::new(cfg2(4));
        gf.insert(rec2(0, 50.0, 50.0));
        let q = Rect::new2(200.0, 200.0, 300.0, 300.0);
        assert!(gf.range_query_buckets(&q).is_empty());
    }

    #[test]
    fn partial_match_query() {
        let mut gf = GridFile::new(cfg2(4));
        for i in 0..100u64 {
            let x = (i % 10) as f64 * 10.0 + 5.0;
            let y = (i / 10) as f64 * 10.0 + 5.0;
            gf.insert(rec2(i, x, y));
        }
        // x = 25 specified, y unspecified: the 10 records of column 2.
        let (buckets, recs) = gf.partial_match(&[Some(25.0), None]);
        assert_eq!(recs.len(), 10);
        assert!(recs.iter().all(|r| r.point.get(0) == 25.0));
        assert!(!buckets.is_empty());
        gf.check_invariants();
    }

    #[test]
    fn duplicate_keys_become_oversize_not_infinite_loop() {
        let mut gf = GridFile::new(cfg2(4));
        for i in 0..20 {
            gf.insert(rec2(i, 33.0, 44.0));
        }
        assert_eq!(gf.len(), 20);
        let st = gf.stats();
        assert_eq!(st.oversize_buckets, 1);
        assert_eq!(gf.lookup(&Point::new2(33.0, 44.0)).len(), 20);
        gf.check_invariants();
    }

    #[test]
    fn delete_and_merge() {
        let mut gf = GridFile::new(cfg2(4));
        let mut recs = Vec::new();
        let mut x = 5u64;
        for i in 0..200u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((x >> 16) % 10000) as f64 / 100.0;
            let b = ((x >> 40) % 10000) as f64 / 100.0;
            recs.push(rec2(i, a, b));
            gf.insert(rec2(i, a, b));
        }
        let buckets_full = gf.n_buckets();
        for r in &recs {
            assert!(gf.delete(r.id, &r.point), "failed to delete {r:?}");
        }
        assert!(gf.is_empty());
        assert!(
            gf.n_buckets() < buckets_full,
            "merging should have reduced {buckets_full} buckets"
        );
        gf.check_invariants();
        // Deleting again fails cleanly.
        assert!(!gf.delete(recs[0].id, &recs[0].point));
    }

    #[test]
    fn merged_buckets_appear_under_skew() {
        // Strong skew produces scale cuts that slice through sparse areas,
        // leaving multi-cell buckets — the paper's "merged subspaces".
        let mut gf = GridFile::new(cfg2(4));
        let mut x = 17u64;
        for i in 0..400u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Cluster around (20, 20) with a few outliers.
            let (a, b) = if i % 50 == 0 {
                (
                    ((x >> 16) % 10000) as f64 / 100.0,
                    ((x >> 40) % 10000) as f64 / 100.0,
                )
            } else {
                (
                    15.0 + ((x >> 16) % 1000) as f64 / 100.0,
                    15.0 + ((x >> 40) % 1000) as f64 / 100.0,
                )
            };
            gf.insert(rec2(i, a, b));
        }
        let st = gf.stats();
        assert!(
            st.n_merged_buckets > 0,
            "skewed data should produce merged buckets: {st:?}"
        );
        assert!(st.n_cells > st.n_buckets as u64);
        gf.check_invariants();
    }

    /// Asserts two files equal field by field, floats on `to_bits`: scales,
    /// directory, every bucket (dead ones too) with its records in order,
    /// the free list and the record count.
    fn assert_same_file(got: &GridFile, want: &GridFile) {
        let bits = |p: &Point| (0..p.dim()).map(|k| p.get(k).to_bits()).collect::<Vec<_>>();
        assert_eq!(got.capacity, want.capacity);
        assert_eq!(got.scales.len(), want.scales.len());
        for (k, (g, w)) in got.scales.iter().zip(&want.scales).enumerate() {
            let cuts = |s: &LinearScale| s.cuts().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(cuts(g), cuts(w), "cuts on dim {k}");
        }
        assert_eq!(got.dir.sizes(), want.dir.sizes());
        let entries = |gf: &GridFile| {
            let mut e = Vec::new();
            gf.dir.for_each(|_, b| e.push(b));
            e
        };
        assert_eq!(entries(got), entries(want), "directory entries");
        assert_eq!(got.buckets.len(), want.buckets.len(), "bucket count");
        for (i, (g, w)) in got.buckets.iter().zip(&want.buckets).enumerate() {
            assert_eq!(g.alive, w.alive, "bucket {i} liveness");
            assert_eq!(g.region, w.region, "bucket {i} region");
            let recs = |b: &Bucket| {
                b.records
                    .iter()
                    .map(|r| (r.id, bits(&r.point)))
                    .collect::<Vec<_>>()
            };
            assert_eq!(recs(g), recs(w), "bucket {i} records");
        }
        assert_eq!(got.free, want.free);
        assert_eq!(got.len(), want.len());
    }

    #[test]
    fn bulk_load_equals_inserts() {
        let recs: Vec<Record> = (0..100)
            .map(|i| rec2(i, (i % 10) as f64 * 9.9, (i / 10) as f64 * 9.9))
            .collect();
        let gf = GridFile::bulk_load(cfg2(4), recs.iter().copied());
        assert_same_file(&gf, &GridFile::bulk_load_reference(cfg2(4), recs));
        assert_eq!(gf.len(), 100);
        gf.check_invariants();
    }

    use proptest::prelude::*;

    /// One key: on a four-value lattice (so equal keys, and records that
    /// no cut separates, are common) or anywhere in and around the domain
    /// (records outside it are clamped into the boundary cells).
    fn key() -> impl Strategy<Value = f64> {
        prop_oneof![(0u32..4).prop_map(|v| v as f64 * 25.0), -10.0f64..110.0]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bulk_load_is_the_insert_loop_field_by_field(
            dim in 1usize..=MAX_DIM,
            // `None`: the default 4 KB page with no payload.
            capacity in prop::option::of(1usize..=8),
            keys in prop::collection::vec((any::<u64>(), prop::collection::vec(key(), MAX_DIM)), 0..240),
        ) {
            let domain = Rect::new(Point::new(&vec![0.0; dim]), Point::new(&vec![100.0; dim]));
            let config = || match capacity {
                Some(c) => GridConfig::with_capacity(domain, c),
                None => GridConfig::new(domain, 0),
            };
            let points: Vec<Point> = keys.iter().map(|(_, c)| Point::new(&c[..dim])).collect();
            // Arbitrary ids, duplicates included.
            let recs: Vec<Record> =
                keys.iter().zip(&points).map(|(&(id, _), &p)| Record::new(id, p)).collect();
            let want = GridFile::bulk_load_reference(config(), recs.iter().copied());
            assert_same_file(&GridFile::bulk_load(config(), recs), &want);
            // Ids equal to positions, keys read from the points in place.
            let by_position = (0..).zip(&points).map(|(i, &p)| Record::new(i, p));
            let want = GridFile::bulk_load_reference(config(), by_position);
            assert_same_file(&GridFile::bulk_load_points(config(), &points), &want);
        }
    }

    #[test]
    fn config_capacity_roundtrip() {
        let cfg = cfg2(40);
        assert_eq!(cfg.bucket_capacity(), 40);
        let cfg = GridConfig::new(Rect::new2(0.0, 0.0, 1.0, 1.0), 78);
        assert_eq!(cfg.bucket_capacity(), 40); // the paper's 2-D setup
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn impossible_capacity_rejected() {
        let _ = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 1.0, 1.0), 10_000);
    }

    #[test]
    fn insert_effect_reports_target_and_split_buckets() {
        let mut gf = GridFile::new(cfg2(4));
        for i in 0..4 {
            let e = gf.insert_tracked(rec2(i, i as f64 * 10.0 + 5.0, 50.0));
            assert_eq!(e.rewritten, vec![0]);
            assert!(e.created.is_empty() && e.freed.is_empty());
        }
        let e = gf.insert_tracked(rec2(4, 45.0, 50.0));
        assert!(
            !e.created.is_empty(),
            "overflow must report the split: {e:?}"
        );
        assert!(e.freed.is_empty());
        gf.check_invariants();
    }

    #[test]
    fn untracked_and_tracked_inserts_build_the_same_file() {
        // `insert` (what `bulk_load` runs) keeps no effect; `insert_tracked`
        // does. Both go through one body, so the files must agree bucket for
        // bucket, and each effect must be exactly what the insert did: the
        // bucket the record landed in rewritten, the ids that came alive
        // created (sorted), nothing freed.
        let mut x = 7u64;
        let recs: Vec<Record> = (0..800u64)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // A squared marginal: skew, so multi-cell buckets form and
                // both split paths (region and scale refinement) run.
                let a = ((x >> 16) % 10000) as f64 / 10000.0;
                let b = ((x >> 40) % 10000) as f64 / 10000.0;
                rec2(i, a * a * 100.0, b * 100.0)
            })
            .collect();
        let plain = GridFile::bulk_load(cfg2(4), recs.iter().copied());
        let mut tracked = GridFile::new(cfg2(4));
        let mut saw_split = false;
        for r in &recs {
            let alive_before: Vec<BucketId> = tracked.live_buckets().map(|(id, ..)| id).collect();
            let target = tracked.bucket_of_point(&r.point);
            let e = tracked.insert_tracked(*r);
            let born: Vec<BucketId> = tracked
                .live_buckets()
                .map(|(id, ..)| id)
                .filter(|id| !alive_before.contains(id))
                .collect();
            assert_eq!(e.rewritten, vec![target], "record {}", r.id);
            assert_eq!(e.created, born, "record {}", r.id);
            assert!(e.freed.is_empty(), "record {}", r.id);
            saw_split |= !born.is_empty();
        }
        assert!(saw_split);
        assert_eq!(plain.cells_per_dim(), tracked.cells_per_dim());
        assert!(plain.live_buckets().eq(tracked.live_buckets()));
        for (id, ..) in plain.live_buckets() {
            assert_eq!(
                plain.bucket_rect(id),
                tracked.bucket_rect(id),
                "bucket {id}"
            );
            assert_eq!(
                plain.bucket_records(id),
                tracked.bucket_records(id),
                "bucket {id}"
            );
        }
        plain.check_invariants();
    }

    #[test]
    fn delete_effect_reports_merges_and_misses() {
        let mut gf = GridFile::new(cfg2(4));
        let mut recs = Vec::new();
        let mut x = 3u64;
        for i in 0..120u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = ((x >> 16) % 10000) as f64 / 100.0;
            let b = ((x >> 40) % 10000) as f64 / 100.0;
            recs.push(rec2(i, a, b));
            gf.insert(rec2(i, a, b));
        }
        let (removed, e) = gf.delete_tracked(999, &Point::new2(50.0, 50.0));
        assert!(!removed);
        assert!(e.is_empty(), "a miss must not report effects: {e:?}");
        let mut saw_merge = false;
        for r in &recs {
            let (removed, e) = gf.delete_tracked(r.id, &r.point);
            assert!(removed);
            assert!(!e.rewritten.is_empty());
            assert!(e.created.is_empty());
            saw_merge |= !e.freed.is_empty();
        }
        assert!(saw_merge, "draining the file should merge buckets");
        gf.check_invariants();
    }

    #[test]
    fn effects_materialize_an_identical_external_copy() {
        // Maintain an external bucket -> records map purely from mutation
        // effects — exactly what the parallel engine's block stores do. It
        // must track the file's live buckets through splits and merges.
        use std::collections::HashMap;
        let mut gf = GridFile::new(cfg2(4));
        let mut external: HashMap<BucketId, Vec<Record>> = HashMap::new();
        external.insert(0, Vec::new());
        let apply =
            |gf: &GridFile, e: &MutationEffect, ext: &mut HashMap<BucketId, Vec<Record>>| {
                for b in &e.freed {
                    assert!(ext.remove(b).is_some(), "freed unknown bucket {b}");
                }
                for b in &e.created {
                    assert!(!ext.contains_key(b), "created bucket {b} already exists");
                    ext.insert(*b, gf.bucket_records(*b).to_vec());
                }
                for b in &e.rewritten {
                    assert!(ext.contains_key(b), "rewrote unknown bucket {b}");
                    ext.insert(*b, gf.bucket_records(*b).to_vec());
                }
            };
        let mut x = 41u64;
        let mut live = Vec::new();
        for i in 0..600u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ((x >> 16) % 10000) as f64 / 100.0;
            let b = ((x >> 40) % 10000) as f64 / 100.0;
            let r = rec2(i, a, b);
            if x.is_multiple_of(4) && !live.is_empty() {
                let victim: Record = live.swap_remove((x >> 8) as usize % live.len());
                let (removed, e) = gf.delete_tracked(victim.id, &victim.point);
                assert!(removed);
                apply(&gf, &e, &mut external);
            }
            live.push(r);
            let e = gf.insert_tracked(r);
            apply(&gf, &e, &mut external);
        }
        // The external copy matches the file bucket for bucket.
        let mut n_live = 0;
        for (id, _region, len) in gf.live_buckets() {
            n_live += 1;
            let ext = external
                .get(&id)
                .unwrap_or_else(|| panic!("bucket {id} missing externally"));
            assert_eq!(ext.len(), len, "bucket {id} length");
            assert_eq!(&ext[..], gf.bucket_records(id), "bucket {id} contents");
        }
        assert_eq!(external.len(), n_live, "external copy has stale buckets");
        gf.check_invariants();
    }
}
