//! Declustering algorithms for parallel grid files.
//!
//! This crate is the paper's primary contribution. Given a grid file whose
//! buckets must be distributed over `M` disks, it implements:
//!
//! * **Index-based schemes** extended from Cartesian product files
//!   ([`index_based`]): *disk modulo* (DM), *fieldwise XOR* (FX) and
//!   space-filling-curve allocation (HCAM with the Hilbert curve, plus
//!   Z-order/Gray/scan ablation variants) — each needing a
//!   **conflict-resolution heuristic** ([`conflict`]) because a merged
//!   bucket's cells may be assigned to different disks: *random selection*,
//!   *most frequent*, *data balance* and *area balance* (Algorithm 1).
//! * **Proximity-based schemes**: the paper's **`minimax` spanning-tree
//!   algorithm** (Algorithm 2, [`minimax`]), the *short spanning path* (SSP)
//!   baseline of Fang et al. ([`ssp`]), an MST-based baseline ([`mst`]) and a
//!   Kernighan–Lin max-cut ablation ([`kl`]).
//! * **Analytic models** ([`analysis`]): the closed forms of Theorem 1 (DM
//!   response time and strict-optimality condition for 2-D square queries)
//!   and the bounds of Theorem 2 (FX), cross-validated against brute-force
//!   enumeration in the test suite.
//!
//! The uniform entry point is [`DeclusterMethod::assign`], which consumes a
//! [`DeclusterInput`] (built from a [`pargrid_gridfile::GridFile`] or a
//! Cartesian product file) and yields an [`Assignment`] of buckets to disks.

//!
//! ```
//! use pargrid_core::{DeclusterInput, DeclusterMethod, EdgeWeight};
//! use pargrid_gridfile::CartesianProductFile;
//!
//! // Decluster an 8x8 Cartesian product file over 4 disks with minimax.
//! let file = CartesianProductFile::new(&[8, 8]);
//! let input = DeclusterInput::from_cartesian(&file);
//! let assignment = DeclusterMethod::Minimax(EdgeWeight::Proximity)
//!     .assign(&input, 4, 42);
//!
//! // Perfect balance is guaranteed: at most ceil(64/4) buckets per disk.
//! assert!(assignment.is_perfectly_balanced());
//! assert_eq!(assignment.bucket_counts(), vec![16, 16, 16, 16]);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod assignment;
pub mod conflict;
#[cfg(test)]
mod differential_tests;
pub mod exhaustive;
pub mod incremental;
pub mod index_based;
pub mod input;
pub mod kl;
pub mod latin;
pub mod method;
pub mod minimax;
pub mod mst;
pub mod partial_match;
pub mod replicate;
pub mod ssp;
pub mod weights;

pub use assignment::Assignment;
pub use conflict::ConflictPolicy;
pub use incremental::{place_fresh_bucket, place_fresh_replica};
pub use index_based::IndexScheme;
pub use input::{BucketInfo, DeclusterInput};
pub use method::{DeclusterMethod, SchemeEntry, SCHEME_REGISTRY};
pub use replicate::ReplicatedAssignment;
pub use weights::EdgeWeight;
