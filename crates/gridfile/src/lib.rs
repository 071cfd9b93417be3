//! Grid file and Cartesian product file access methods.
//!
//! This crate implements the storage substrate of the paper:
//!
//! * [`GridFile`] — Nievergelt & Hinterberger's adaptive, symmetric multikey
//!   file structure: per-dimension *linear scales* partition the domain into
//!   a grid of cells ("subspaces" in the paper); a *grid directory* maps each
//!   cell to a data bucket; a bucket may cover a whole **box** of cells (the
//!   "merged subspaces" that make declustering grid files harder than
//!   Cartesian product files).
//! * [`CartesianProductFile`] — the degenerate special case with exactly one
//!   bucket per cell, used by the analytic study (Theorems 1–2).
//! * [`page`] — fixed-width record/page encoding so the parallel engine can
//!   move buckets as raw disk blocks.
//!
//! Buckets are split on overflow. If a bucket covers more than one cell it is
//! split along an existing scale boundary (no directory growth); otherwise
//! the relevant linear scale is refined and the directory grows along that
//! axis — the classical grid-file insertion algorithm.
//!
//! ```
//! use pargrid_geom::{Point, Rect};
//! use pargrid_gridfile::{GridConfig, GridFile, Record};
//!
//! // A 2-D grid file with buckets of 4 records.
//! let config = GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), 4);
//! let mut file = GridFile::new(config);
//! for i in 0..100u64 {
//!     let (x, y) = ((i % 10) as f64 * 9.5, (i / 10) as f64 * 9.5);
//!     file.insert(Record::new(i, Point::new2(x, y)));
//! }
//! assert_eq!(file.len(), 100);
//!
//! // Range query: buckets read (the declustering cost unit) + records.
//! let (buckets, records) = file.range_query(&Rect::new2(0.0, 0.0, 30.0, 30.0));
//! assert!(!buckets.is_empty());
//! assert_eq!(records.len(), 16); // 4x4 block of the lattice
//!
//! // Round-trip through the persistence format.
//! let restored = GridFile::from_bytes(&file.to_bytes()).unwrap();
//! assert_eq!(restored.len(), file.len());
//! ```

#![warn(missing_docs)]

pub mod cartesian;
pub mod checksum;
pub mod codec;
pub mod directory;
pub mod durable;
pub mod file;
pub mod mapped;
pub mod page;
pub mod persist;
pub mod record;
pub mod region;
pub mod scale;
pub mod wal;

pub use cartesian::CartesianProductFile;
pub use checksum::{crc32, Crc32};
pub use directory::Directory;
pub use durable::DurableGridFile;
pub use file::{GridConfig, GridFile, GridFileStats, MutationEffect};
pub use mapped::MappedFile;
pub use persist::PersistError;
pub use record::Record;
pub use region::CellRegion;
pub use scale::LinearScale;
pub use wal::{Wal, WalOp};

/// The crate's most commonly used types, flat: file construction, records,
/// and the typed persistence error ([`PersistError`] — `#[non_exhaustive]`
/// per the workspace error convention).
pub mod prelude {
    pub use crate::checksum::crc32;
    pub use crate::durable::DurableGridFile;
    pub use crate::file::{GridConfig, GridFile, GridFileStats, MutationEffect};
    pub use crate::persist::PersistError;
    pub use crate::record::Record;
    pub use crate::wal::{Wal, WalOp};
}
