//! Grid-file persistence: a compact, versioned binary image.
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

use crate::directory::Directory;
use crate::file::{Bucket, GridConfig, GridFile};
use crate::record::Record;
use crate::region::CellRegion;
use crate::scale::LinearScale;
use pargrid_geom::{Point, Rect, MAX_DIM};
use std::fmt;
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

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.pos + n > self.buf.len() {
            return Err(PersistError::Corrupt(format!(
                "truncated at offset {} (wanted {n} bytes of {})",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Validates an untrusted element count before any allocation: the
    /// remaining bytes must be able to hold `count` elements of
    /// `elem_bytes`. Prevents corrupted counts from triggering huge
    /// `Vec::with_capacity` calls.
    fn check_count(&self, count: usize, elem_bytes: usize, what: &str) -> Result<(), PersistError> {
        let remaining = self.buf.len() - self.pos;
        if count
            .checked_mul(elem_bytes)
            .is_none_or(|need| need > remaining)
        {
            return Err(PersistError::Corrupt(format!(
                "{what} count {count} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(())
    }
}

impl GridFile {
    /// Serializes the file to its binary image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let d = self.dim();
        let mut out = Vec::with_capacity(64 + self.len() as usize * (8 + 8 * d));
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(d as u16).to_le_bytes());
        out.extend_from_slice(&FLAG_CRC32.to_le_bytes());
        out.extend_from_slice(&(self.config.page_bytes as u32).to_le_bytes());
        out.extend_from_slice(&(self.config.payload_bytes as u32).to_le_bytes());
        out.extend_from_slice(&self.n_records.to_le_bytes());
        for k in 0..d {
            out.extend_from_slice(&self.config.domain.lo().get(k).to_le_bytes());
            out.extend_from_slice(&self.config.domain.hi().get(k).to_le_bytes());
        }
        for scale in &self.scales {
            out.extend_from_slice(&(scale.cuts().len() as u32).to_le_bytes());
            for &c in scale.cuts() {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        let live: Vec<&Bucket> = self.buckets.iter().filter(|b| b.alive).collect();
        out.extend_from_slice(&(live.len() as u32).to_le_bytes());
        for b in live {
            for k in 0..d {
                out.extend_from_slice(&b.region.lo()[k].to_le_bytes());
            }
            for k in 0..d {
                out.extend_from_slice(&b.region.hi()[k].to_le_bytes());
            }
            out.extend_from_slice(&(b.records.len() as u32).to_le_bytes());
            for r in &b.records {
                out.extend_from_slice(&r.id.to_le_bytes());
                for k in 0..d {
                    out.extend_from_slice(&r.point.get(k).to_le_bytes());
                }
            }
        }
        let crc = crate::checksum::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Reconstructs a grid file from its binary image, rebuilding the
    /// directory from the bucket regions.
    pub fn from_bytes(bytes: &[u8]) -> Result<GridFile, PersistError> {
        // The CRC footer is verified (and stripped) before any structural
        // parsing, so a flipped byte anywhere — header, scales, records or
        // the footer itself — is caught first.
        let mut body = bytes;
        if bytes.len() >= 8 && &bytes[..4] == MAGIC {
            let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
            if flags & FLAG_CRC32 != 0 {
                if bytes.len() < 12 {
                    return Err(PersistError::Corrupt("truncated before CRC footer".into()));
                }
                let split = bytes.len() - 4;
                let stored = u32::from_le_bytes(bytes[split..].try_into().expect("4 footer bytes"));
                let computed = crate::checksum::crc32(&bytes[..split]);
                if stored != computed {
                    return Err(PersistError::Corrupt(format!(
                        "payload checksum mismatch: stored {stored:08x}, computed {computed:08x}"
                    )));
                }
                body = &bytes[..split];
            }
        }
        let bytes = body;
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(PersistError::Corrupt("bad magic".into()));
        }
        let dim = r.u16()? as usize;
        if !(1..=MAX_DIM).contains(&dim) {
            return Err(PersistError::Corrupt(format!("bad dimension {dim}")));
        }
        let _flags = r.u16()?;
        let page_bytes = r.u32()? as usize;
        let payload_bytes = r.u32()? as usize;
        let n_records = r.u64()?;

        let mut lo = [0.0; MAX_DIM];
        let mut hi = [0.0; MAX_DIM];
        for k in 0..dim {
            lo[k] = r.f64()?;
            hi[k] = r.f64()?;
            if lo[k] >= hi[k] || lo[k].is_nan() || hi[k].is_nan() {
                return Err(PersistError::Corrupt(format!("bad domain on dim {k}")));
            }
        }
        let domain = Rect::new(Point::new(&lo[..dim]), Point::new(&hi[..dim]));
        let config = GridConfig::new(domain, payload_bytes).with_page_bytes(page_bytes);
        let capacity = config.bucket_capacity();

        let mut scales = Vec::with_capacity(dim);
        for k in 0..dim {
            let n_cuts = r.u32()? as usize;
            r.check_count(n_cuts, 8, "cut")?;
            let mut cuts = Vec::with_capacity(n_cuts);
            let mut prev = f64::NEG_INFINITY;
            for _ in 0..n_cuts {
                let c = r.f64()?;
                if !(c > prev && c > lo[k] && c < hi[k]) {
                    return Err(PersistError::Corrupt(format!(
                        "scale {k}: cut {c} out of order or range"
                    )));
                }
                prev = c;
                cuts.push(c);
            }
            scales.push(LinearScale::with_cuts(lo[k], hi[k], cuts));
        }
        let sizes: Vec<u32> = scales.iter().map(|s| s.n_cells() as u32).collect();

        let n_buckets = r.u32()? as usize;
        if n_buckets == 0 {
            return Err(PersistError::Corrupt("no buckets".into()));
        }
        // Each bucket needs at least its region corners + record count.
        r.check_count(n_buckets, 8 * dim + 4, "bucket")?;
        let mut buckets = Vec::with_capacity(n_buckets);
        let mut total_records = 0u64;
        for bi in 0..n_buckets {
            let mut rlo = [0u32; MAX_DIM];
            let mut rhi = [0u32; MAX_DIM];
            for slot in rlo.iter_mut().take(dim) {
                *slot = r.u32()?;
            }
            for slot in rhi.iter_mut().take(dim) {
                *slot = r.u32()?;
            }
            for k in 0..dim {
                if rlo[k] > rhi[k] || rhi[k] >= sizes[k] {
                    return Err(PersistError::Corrupt(format!(
                        "bucket {bi}: region out of grid on dim {k}"
                    )));
                }
            }
            let region = CellRegion::new(&rlo[..dim], &rhi[..dim]);
            let n = r.u32()? as usize;
            r.check_count(n, 8 + 8 * dim, "record")?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                let id = r.u64()?;
                let mut coords = [0.0; MAX_DIM];
                for slot in coords.iter_mut().take(dim) {
                    *slot = r.f64()?;
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
        if r.pos != bytes.len() {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes",
                bytes.len() - r.pos
            )));
        }
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

    /// Saves the binary image to a file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_bytes())?;
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
}
