//! Grid-file persistence: a compact, versioned binary image, encoded with
//! [`crate::codec`].
//!
//! The paper's simulator "reads in the dataset and declusters it to separate
//! files corresponding to every disk"; for that (and for any real
//! deployment) the grid file itself must survive a process restart. The
//! format stores the configuration, the linear scales and every live bucket
//! (region + records); the directory is **not** stored — it is a pure
//! function of the bucket regions and is rebuilt on load, which both shrinks
//! the image and double-checks the region invariant.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "PGF1"
//! u16 dim | u16 flags | u32 page_bytes | u32 payload_bytes | u64 n_records
//! domain: dim x (f64 lo, f64 hi)
//! per dim: u32 n_cuts, n_cuts x f64
//! u32 n_buckets (live only)
//! per bucket: dim x u32 region_lo, dim x u32 region_hi,
//!             u32 n_records, n_records x (u64 id, dim x f64)
//! [flags & CRC32: u32 crc32 of every preceding byte]
//! ```
//!
//! Writers set the `FLAG_CRC32` bit and append a CRC-32 footer over the
//! whole payload, so a flipped byte anywhere in the image — not just in the
//! structurally-validated counts — is rejected as
//! [`PersistError::Corrupt`]. Images written before the footer existed
//! (flags 0) still load.
//!
//! Files are replaced through [`write_durably`], so a crash or power loss
//! leaves the old image or the new one, never a torn or empty one.

use crate::codec::{seal, unseal, Cur, DecodeError, Wire};
use crate::directory::Directory;
use crate::file::{Bucket, GridConfig, GridFile};
use crate::record::Record;
use crate::region::CellRegion;
use crate::scale::LinearScale;
use pargrid_geom::{Point, Rect, MAX_DIM};
use std::fmt;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"PGF1";

/// Header flag bit: the image ends with a CRC-32 footer over the payload.
const FLAG_CRC32: u16 = 0x0001;

/// Errors from loading a persisted grid file.
///
/// `#[non_exhaustive]` (workspace error convention): downstream matches
/// carry a wildcard arm so new failure modes stay a minor change.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The bytes do not form a valid image (with a description).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt grid file image: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        PersistError::Corrupt(e.0)
    }
}

/// Replaces the file at `path` with `bytes` so that a crash at any point
/// leaves either the old file or the new one, whole: write a sibling
/// `.tmp` file, `sync_all` it, rename it over `path`, then fsync the
/// directory so the rename itself survives a power loss.
pub fn write_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

impl GridFile {
    /// Serializes the file to its binary image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let d = self.dim();
        let mut out = Vec::with_capacity(64 + self.len() as usize * (8 + 8 * d));
        out.extend_from_slice(MAGIC);
        (d as u16).put(&mut out);
        FLAG_CRC32.put(&mut out);
        (self.config.page_bytes as u32).put(&mut out);
        (self.config.payload_bytes as u32).put(&mut out);
        self.n_records.put(&mut out);
        for k in 0..d {
            self.config.domain.lo().get(k).put(&mut out);
            self.config.domain.hi().get(k).put(&mut out);
        }
        for scale in &self.scales {
            (scale.cuts().len() as u32).put(&mut out);
            f64::put_all(scale.cuts(), &mut out);
        }
        let live: Vec<&Bucket> = self.buckets.iter().filter(|b| b.alive).collect();
        (live.len() as u32).put(&mut out);
        for b in live {
            u32::put_all(b.region.lo(), &mut out);
            u32::put_all(b.region.hi(), &mut out);
            (b.records.len() as u32).put(&mut out);
            for r in &b.records {
                r.id.put(&mut out);
                f64::put_all(r.point.coords(), &mut out);
            }
        }
        seal(&mut out);
        out
    }

    /// Reconstructs a grid file from its binary image, rebuilding the
    /// directory from the bucket regions.
    pub fn from_bytes(bytes: &[u8]) -> Result<GridFile, PersistError> {
        // The CRC footer is verified (and stripped) before any structural
        // parsing, so a flipped byte anywhere — header, scales, records or
        // the footer itself — is caught first.
        let mut head = Cur::new(bytes);
        let sealed = head.take(4) == Ok(&MAGIC[..])
            && head.take(2).is_ok()
            && head.get::<u16>().is_ok_and(|flags| flags & FLAG_CRC32 != 0);
        let bytes = match sealed {
            true if bytes.len() < 12 => {
                return Err(PersistError::Corrupt("truncated before CRC footer".into()))
            }
            true => unseal(bytes)?,
            false => bytes,
        };
        let mut c = Cur::new(bytes);
        if c.take(4)? != MAGIC {
            return Err(PersistError::Corrupt("bad magic".into()));
        }
        let dim = c.get::<u16>()? as usize;
        if !(1..=MAX_DIM).contains(&dim) {
            return Err(PersistError::Corrupt(format!("bad dimension {dim}")));
        }
        let _flags: u16 = c.get()?;
        let page_bytes = c.get::<u32>()? as usize;
        let payload_bytes = c.get::<u32>()? as usize;
        let n_records: u64 = c.get()?;

        // Raw bits, not the finite-only `f64` decode: an image's domain
        // and records are checked below, as they always were.
        let mut lo = [0.0; MAX_DIM];
        let mut hi = [0.0; MAX_DIM];
        for k in 0..dim {
            lo[k] = f64::from_bits(c.get()?);
            hi[k] = f64::from_bits(c.get()?);
            if lo[k] >= hi[k] || lo[k].is_nan() || hi[k].is_nan() {
                return Err(PersistError::Corrupt(format!("bad domain on dim {k}")));
            }
        }
        let domain = Rect::new(Point::new(&lo[..dim]), Point::new(&hi[..dim]));
        let config = GridConfig::new(domain, payload_bytes).with_page_bytes(page_bytes);
        let capacity = config.bucket_capacity();

        let mut scales = Vec::with_capacity(dim);
        for k in 0..dim {
            let n_cuts = c.count(8)?;
            let mut cuts = Vec::with_capacity(n_cuts);
            let mut prev = f64::NEG_INFINITY;
            for _ in 0..n_cuts {
                let x = f64::from_bits(c.get()?);
                if !(x > prev && x > lo[k] && x < hi[k]) {
                    return Err(PersistError::Corrupt(format!(
                        "scale {k}: cut {x} out of order or range"
                    )));
                }
                prev = x;
                cuts.push(x);
            }
            scales.push(LinearScale::with_cuts(lo[k], hi[k], cuts));
        }
        let sizes: Vec<u32> = scales.iter().map(|s| s.n_cells() as u32).collect();

        // Each bucket needs at least its region corners + record count.
        let n_buckets = c.count(8 * dim + 4)?;
        if n_buckets == 0 {
            return Err(PersistError::Corrupt("no buckets".into()));
        }
        let mut buckets = Vec::with_capacity(n_buckets);
        let mut total_records = 0u64;
        for bi in 0..n_buckets {
            let mut rlo = [0u32; MAX_DIM];
            let mut rhi = [0u32; MAX_DIM];
            for slot in rlo.iter_mut().take(dim) {
                *slot = c.get()?;
            }
            for slot in rhi.iter_mut().take(dim) {
                *slot = c.get()?;
            }
            for k in 0..dim {
                if rlo[k] > rhi[k] || rhi[k] >= sizes[k] {
                    return Err(PersistError::Corrupt(format!(
                        "bucket {bi}: region out of grid on dim {k}"
                    )));
                }
            }
            let region = CellRegion::new(&rlo[..dim], &rhi[..dim]);
            let n = c.count(8 + 8 * dim)?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                let id = c.get()?;
                let mut coords = [0.0; MAX_DIM];
                for slot in coords.iter_mut().take(dim) {
                    *slot = f64::from_bits(c.get()?);
                }
                records.push(Record::new(id, Point::new(&coords[..dim])));
            }
            total_records += n as u64;
            buckets.push(Bucket {
                region,
                records,
                alive: true,
            });
        }
        c.done()?;
        if total_records != n_records {
            return Err(PersistError::Corrupt(format!(
                "header claims {n_records} records, buckets hold {total_records}"
            )));
        }

        // Rebuild the directory from the regions, verifying they tile the
        // grid exactly.
        let mut dir = Directory::new(dim);
        for (k, scale) in scales.iter().enumerate() {
            for c in 0..scale.cuts().len() as u32 {
                dir.grow(k, c);
            }
        }
        debug_assert_eq!(dir.sizes(), &sizes[..]);
        let mut claimed = vec![false; dir.n_cells()];
        for (bi, b) in buckets.iter().enumerate() {
            let mut clash = None;
            b.region.for_each_cell(|cell| {
                let idx = dir.linear_index(cell);
                if claimed[idx] {
                    clash = Some(cell.to_vec());
                }
                claimed[idx] = true;
                dir.set_bucket_at(cell, bi as u32);
            });
            if let Some(cell) = clash {
                return Err(PersistError::Corrupt(format!(
                    "bucket {bi} overlaps another at cell {cell:?}"
                )));
            }
        }
        if !claimed.iter().all(|&c| c) {
            return Err(PersistError::Corrupt(
                "bucket regions do not cover the grid".into(),
            ));
        }

        let gf = GridFile {
            config,
            capacity,
            scales,
            dir,
            buckets,
            free: Vec::new(),
            n_records,
        };
        Ok(gf)
    }

    /// Saves the binary image to a file through [`write_durably`]: once
    /// this returns, the image survives a crash or power loss.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        write_durably(path.as_ref(), &self.to_bytes())?;
        Ok(())
    }

    /// Loads a grid file previously written by [`GridFile::save`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<GridFile, PersistError> {
        let bytes = std::fs::read(path)?;
        GridFile::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> GridFile {
        let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), 4);
        let mut x = 9u64;
        GridFile::bulk_load(
            cfg,
            (0..500u64).map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Record::new(
                    i,
                    Point::new2(
                        ((x >> 16) % 10000) as f64 / 100.0,
                        ((x >> 40) % 10000) as f64 / 100.0,
                    ),
                )
            }),
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let gf = sample_file();
        let back = GridFile::from_bytes(&gf.to_bytes()).expect("roundtrip");
        back.check_invariants();
        assert_eq!(back.len(), gf.len());
        assert_eq!(back.cells_per_dim(), gf.cells_per_dim());
        assert_eq!(back.n_buckets(), gf.n_buckets());
        // Queries agree.
        let q = Rect::new2(20.0, 20.0, 70.0, 70.0);
        let (_, mut a) = gf.range_query(&q);
        let (_, mut b) = back.range_query(&q);
        a.sort_unstable_by_key(|r| r.id);
        b.sort_unstable_by_key(|r| r.id);
        assert_eq!(a, b);
    }

    #[test]
    fn golden_image_footer() {
        // Length and CRC footer of the sample image as the bytewise-CRC
        // build wrote it. The footer covers every preceding byte, so an
        // equal footer means an equal image *and* an equal checksum.
        let bytes = sample_file().to_bytes();
        assert_eq!(bytes.len(), 16272);
        assert_eq!(bytes[bytes.len() - 4..], 0x02E2_44A1u32.to_le_bytes());
    }

    #[test]
    fn save_load_via_filesystem() {
        let dir = std::env::temp_dir().join("pargrid_persist_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sample.pgf");
        let gf = sample_file();
        gf.save(&path).expect("save");
        let back = GridFile::load(&path).expect("load");
        assert_eq!(back.len(), gf.len());
        back.check_invariants();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_file().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            GridFile::from_bytes(&bytes),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_file().to_bytes();
        for cut in [3usize, 10, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                GridFile::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_file().to_bytes();
        bytes.push(0);
        assert!(matches!(
            GridFile::from_bytes(&bytes),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupted_record_count_rejected() {
        let mut bytes = sample_file().to_bytes();
        // Header record count at offset 4 + 2 + 2 + 4 + 4 = 16.
        bytes[16] ^= 0xFF;
        let err = GridFile::from_bytes(&bytes).expect_err("must fail");
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
    }

    #[test]
    fn flipped_payload_byte_rejected() {
        // Before the CRC footer, a flipped coordinate byte deep inside a
        // record's payload round-tripped silently (only counts and regions
        // were validated). Now any single-byte flip is Corrupt.
        let gf = sample_file();
        let bytes = gf.to_bytes();
        // A record coordinate somewhere in the middle of the bucket area.
        let pos = bytes.len() / 2;
        let mut copy = bytes.clone();
        copy[pos] ^= 0x10;
        let err = GridFile::from_bytes(&copy).expect_err("flip must be caught");
        assert!(
            matches!(&err, PersistError::Corrupt(msg) if msg.contains("checksum")),
            "{err}"
        );
        // And the footer itself is covered too.
        let mut tail = bytes.clone();
        let last = tail.len() - 1;
        tail[last] ^= 0x01;
        assert!(matches!(
            GridFile::from_bytes(&tail),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn legacy_image_without_footer_still_loads() {
        // An image written before the footer existed: flags 0, no trailing
        // CRC. Simulate one by clearing the flag and stripping the footer.
        let gf = sample_file();
        let mut bytes = gf.to_bytes();
        bytes.truncate(bytes.len() - 4);
        bytes[6] = 0;
        bytes[7] = 0;
        let back = GridFile::from_bytes(&bytes).expect("legacy image loads");
        assert_eq!(back.len(), gf.len());
        back.check_invariants();
    }

    #[test]
    fn empty_grid_file_roundtrips() {
        let cfg = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 1.0, 1.0), 4);
        let gf = GridFile::new(cfg);
        let back = GridFile::from_bytes(&gf.to_bytes()).expect("roundtrip");
        assert!(back.is_empty());
        back.check_invariants();
    }

    #[test]
    fn three_dimensional_roundtrip() {
        let cfg = GridConfig::with_capacity(
            Rect::new(Point::new3(0.0, 0.0, 0.0), Point::new3(8.0, 8.0, 8.0)),
            4,
        );
        let mut x = 5u64;
        let gf = GridFile::bulk_load(
            cfg,
            (0..300u64).map(|i| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                Record::new(
                    i,
                    Point::new3(
                        ((x >> 8) % 800) as f64 / 100.0,
                        ((x >> 24) % 800) as f64 / 100.0,
                        ((x >> 40) % 800) as f64 / 100.0,
                    ),
                )
            }),
        );
        let back = GridFile::from_bytes(&gf.to_bytes()).expect("roundtrip");
        back.check_invariants();
        assert_eq!(back.len(), 300);
    }

    #[test]
    fn durable_replace_leaves_the_whole_new_file_and_no_temp() {
        let dir =
            std::env::temp_dir().join(format!("pargrid_durable_write_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        write_durably(&path, b"old contents, longer than the new").unwrap();
        write_durably(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["state.bin"], "no temp file remains");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
