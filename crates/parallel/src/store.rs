//! Worker block stores: in-memory or backed by a real per-worker file,
//! with per-block checksums verified on every read.
//!
//! The paper's simulator "declusters [the dataset] to separate files
//! corresponding to every disk being simulated". The file-backed store
//! reproduces that layout: each worker owns one file of fixed-size blocks
//! and serves reads with positioned I/O (`pread`), so the data path of the
//! SPMD engine can exercise the real filesystem while timing stays on the
//! virtual disk model.
//!
//! Every `put` records a CRC-32 of the block's bytes; every read verifies
//! it. Silent corruption (bit rot, an injected [`crate::FaultKind::CorruptBlock`])
//! therefore surfaces as a [`StoreError::Corrupt`] error instead of
//! quietly decoding garbage, and the coordinator can repair the block from
//! its chained-declustering replica via [`BlockStore::overwrite`]. The sum is
//! the workspace's one kernel, `pargrid_gridfile::crc32` (carry-less-multiply
//! folding where the CPU has it, slice-by-16 elsewhere): verifying a 4 KB
//! block costs a fraction of the `pread` that fetched it, so verify-on-read
//! stays unconditional.
//!
//! Two read surfaces:
//! - [`BlockStore::read_block`] — the hot path. Borrows in-memory blocks
//!   outright and reads file-backed blocks into one fresh buffer. Errors
//!   are the typed [`StoreError`].
//! - [`BlockStore::get`] — the owned-`Vec` surface (used by the
//!   scrub/repair path, which ships bytes across threads), kept with its
//!   original `io::Result` signature.

use crate::error::StoreError;
use pargrid_gridfile::crc32;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Where a worker's blocks physically live.
enum Backend {
    /// Blocks held in memory (the default; fastest, fully deterministic).
    Memory(HashMap<u32, Vec<u8>>),
    /// Blocks in a single file of `block_bytes`-sized slots, block id =
    /// slot index.
    File {
        /// The backing file.
        file: File,
        /// Size of every block.
        block_bytes: usize,
        /// Number of blocks written.
        n_blocks: u32,
    },
}

/// A worker's block store: a backend plus per-block CRC-32 checksums.
pub struct BlockStore {
    backend: Backend,
    /// CRC-32 per stored block, checked on every read.
    sums: HashMap<u32, u32>,
}

impl BlockStore {
    /// Creates an empty in-memory store.
    pub fn memory() -> Self {
        BlockStore {
            backend: Backend::Memory(HashMap::new()),
            sums: HashMap::new(),
        }
    }

    /// Creates a file-backed store at `path` (truncating any existing file).
    pub fn file<P: AsRef<Path>>(path: P, block_bytes: usize) -> io::Result<Self> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(BlockStore {
            backend: Backend::File {
                file,
                block_bytes,
                n_blocks: 0,
            },
            sums: HashMap::new(),
        })
    }

    /// Stores a block, recording its checksum. For file stores, blocks must
    /// be appended in id order (the engine allocates ids sequentially per
    /// worker).
    ///
    /// # Panics
    /// Panics on id gaps or size mismatches for file stores.
    pub fn put(&mut self, block: u32, bytes: Vec<u8>) -> io::Result<()> {
        self.sums.insert(block, crc32(&bytes));
        match &mut self.backend {
            Backend::Memory(map) => {
                map.insert(block, bytes);
                Ok(())
            }
            Backend::File {
                file,
                block_bytes,
                n_blocks,
            } => {
                assert_eq!(
                    bytes.len(),
                    *block_bytes,
                    "block size mismatch: {} vs {block_bytes}",
                    bytes.len()
                );
                assert_eq!(block, *n_blocks, "file store requires sequential block ids");
                let offset = block as u64 * *block_bytes as u64;
                write_all_at(file, &bytes, offset)?;
                *n_blocks += 1;
                Ok(())
            }
        }
    }

    /// Replaces an *existing* block's bytes and refreshes its checksum —
    /// the repair half of a scrub. Unlike [`BlockStore::put`], the block
    /// must already exist (`io::ErrorKind::NotFound` otherwise); file
    /// stores additionally require the same block size.
    pub fn overwrite(&mut self, block: u32, bytes: Vec<u8>) -> io::Result<()> {
        match &mut self.backend {
            Backend::Memory(map) => {
                if !map.contains_key(&block) {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no block {block} to overwrite"),
                    ));
                }
                self.sums.insert(block, crc32(&bytes));
                map.insert(block, bytes);
                Ok(())
            }
            Backend::File {
                file,
                block_bytes,
                n_blocks,
            } => {
                if block >= *n_blocks {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no block {block} to overwrite"),
                    ));
                }
                if bytes.len() != *block_bytes {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("block size mismatch: {} vs {block_bytes}", bytes.len()),
                    ));
                }
                self.sums.insert(block, crc32(&bytes));
                write_all_at(file, &bytes, block as u64 * *block_bytes as u64)
            }
        }
    }

    /// Writes a block that may or may not already exist: an existing block
    /// is overwritten ([`BlockStore::overwrite`] semantics), a new one is
    /// appended ([`BlockStore::put`] semantics) — the mutation path's write
    /// surface, where a bucket rewrite touches existing blocks and a bucket
    /// split appends fresh ones in the same batch.
    ///
    /// # Panics
    /// Panics (like `put`) if a *new* block id leaves a gap in a file store.
    pub fn upsert(&mut self, block: u32, bytes: Vec<u8>) -> io::Result<()> {
        let exists = match &self.backend {
            Backend::Memory(map) => map.contains_key(&block),
            Backend::File { n_blocks, .. } => block < *n_blocks,
        };
        if exists {
            self.overwrite(block, bytes)
        } else {
            self.put(block, bytes)
        }
    }

    /// Flips a byte of the stored block *without* updating its checksum —
    /// the fault-injection hook behind [`crate::FaultKind::CorruptBlock`].
    /// Returns whether the block existed (and was corrupted).
    pub fn corrupt(&mut self, block: u32) -> bool {
        match &mut self.backend {
            Backend::Memory(map) => match map.get_mut(&block) {
                Some(bytes) if !bytes.is_empty() => {
                    bytes[0] ^= 0xFF;
                    true
                }
                _ => false,
            },
            Backend::File {
                file,
                block_bytes,
                n_blocks,
            } => {
                if block >= *n_blocks || *block_bytes == 0 {
                    return false;
                }
                let offset = block as u64 * *block_bytes as u64;
                let mut byte = [0u8; 1];
                if read_exact_at(file, &mut byte, offset).is_err() {
                    return false;
                }
                byte[0] ^= 0xFF;
                write_all_at(file, &byte, offset).is_ok()
            }
        }
    }

    /// Reads a block's bytes, verifying the checksum. In-memory blocks come
    /// back borrowed; file-backed blocks come back owned, read straight into
    /// one buffer. A block that does not exist is [`StoreError::NotFound`]; one
    /// whose bytes no longer match their recorded checksum is
    /// [`StoreError::Corrupt`]. Neither panics, so a worker can answer the
    /// affected request with an error reply and keep serving.
    pub fn read_block(&self, block: u32) -> Result<Cow<'_, [u8]>, StoreError> {
        let buf = match &self.backend {
            Backend::Memory(map) => {
                let bytes = map
                    .get(&block)
                    .ok_or(StoreError::NotFound { block })?
                    .as_slice();
                Cow::Borrowed(bytes)
            }
            Backend::File {
                file,
                block_bytes,
                n_blocks,
            } => {
                if block >= *n_blocks {
                    return Err(StoreError::NotFound { block });
                }
                let mut buf = vec![0; *block_bytes];
                read_exact_at(file, &mut buf, block as u64 * *block_bytes as u64)
                    .map_err(StoreError::Io)?;
                Cow::Owned(buf)
            }
        };
        if let Some(&expected) = self.sums.get(&block) {
            let actual = crc32(&buf);
            if actual != expected {
                return Err(StoreError::Corrupt {
                    block,
                    stored: expected,
                    actual,
                });
            }
        }
        Ok(buf)
    }

    /// Reads a block into an owned `Vec`, verifying its checksum — the
    /// surface over [`BlockStore::read_block`] for callers that ship the
    /// bytes elsewhere (scrub repair). A file-backed block is not copied
    /// again. Errors map through
    /// [`StoreError`]'s [`io::Error`] conversion (`NotFound` →
    /// `io::ErrorKind::NotFound`, `Corrupt` → `io::ErrorKind::InvalidData`).
    pub fn get(&self, block: u32) -> io::Result<Vec<u8>> {
        self.read_block(block)
            .map(Cow::into_owned)
            .map_err(io::Error::from)
    }

    /// Every stored block id, ascending — the enumeration a remote worker
    /// backend walks to upload this store's contents to a worker process.
    pub fn block_ids(&self) -> Vec<u32> {
        match &self.backend {
            Backend::Memory(map) => {
                let mut ids: Vec<u32> = map.keys().copied().collect();
                ids.sort_unstable();
                ids
            }
            Backend::File { n_blocks, .. } => (0..*n_blocks).collect(),
        }
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Memory(map) => map.len(),
            Backend::File { n_blocks, .. } => *n_blocks as usize,
        }
    }

    /// Whether the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    file.write_all_at(buf, offset)
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(buf)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_roundtrip() {
        let mut s = BlockStore::memory();
        s.put(0, vec![1, 2, 3]).expect("put");
        s.put(5, vec![9]).expect("put");
        assert_eq!(s.get(0).expect("get"), vec![1, 2, 3]);
        assert_eq!(s.get(5).expect("get"), vec![9]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pargrid_store_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = BlockStore::file(dir.join("w0.blocks"), 64).expect("create");
        for i in 0..10u32 {
            s.put(i, vec![i as u8; 64]).expect("put");
        }
        for i in (0..10u32).rev() {
            assert_eq!(s.get(i).expect("get"), vec![i as u8; 64]);
        }
        assert_eq!(s.len(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "sequential block ids")]
    fn file_store_rejects_gaps() {
        let dir = std::env::temp_dir().join("pargrid_store_gap_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = BlockStore::file(dir.join("w.blocks"), 16).expect("create");
        let _ = s.put(3, vec![0; 16]);
    }

    #[test]
    fn missing_block_is_not_found_error() {
        let s = BlockStore::memory();
        let err = s.get(7).expect_err("missing block must error");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let dir = std::env::temp_dir().join("pargrid_store_missing_test");
        let _ = std::fs::remove_dir_all(&dir);
        let f = BlockStore::file(dir.join("w.blocks"), 16).expect("create");
        let err = f.get(0).expect_err("missing block must error");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_block_borrows_memory_blocks() {
        let mut s = BlockStore::memory();
        s.put(0, vec![1, 2, 3]).expect("put");
        let buf = s.read_block(0).expect("read");
        assert!(matches!(buf, Cow::Borrowed(&[1, 2, 3])));
        assert!(matches!(
            s.read_block(9),
            Err(StoreError::NotFound { block: 9 })
        ));
    }

    #[test]
    fn golden_page_and_recorded_sum() {
        // A stored page and the sum recorded beside it, as the bytewise-CRC
        // build had them (sum cross-checked against zlib). The recorded sum
        // is private; a corrupt read reports it.
        use pargrid_geom::Point;
        use pargrid_gridfile::page::encode_page;
        use pargrid_gridfile::Record;
        let records = [
            Record::new(10, Point::new2(1.0, 2.0)),
            Record::new(11, Point::new2(3.5, -4.25)),
            Record::new(12, Point::new2(1e-3, 1e9)),
        ];
        let page = encode_page(&records, 2, 0, 256);
        let mut expected = vec![3, 0, 2, 0];
        for r in &records {
            expected.extend_from_slice(&r.id.to_le_bytes());
            expected.extend_from_slice(&r.point.get(0).to_le_bytes());
            expected.extend_from_slice(&r.point.get(1).to_le_bytes());
        }
        expected.resize(260, 0);
        assert_eq!(page, expected);
        let mut s = BlockStore::memory();
        s.put(0, page).expect("put");
        assert_eq!(&*s.read_block(0).expect("verified read"), &expected[..]);
        assert!(s.corrupt(0));
        assert!(matches!(
            s.read_block(0),
            Err(StoreError::Corrupt {
                stored: 0xB8DB_4062,
                ..
            })
        ));
    }

    #[test]
    fn read_block_reports_typed_corruption() {
        let mut s = BlockStore::memory();
        s.put(0, vec![7; 16]).expect("put");
        assert!(s.corrupt(0));
        match s.read_block(0) {
            Err(StoreError::Corrupt {
                block,
                stored,
                actual,
            }) => {
                assert_eq!(block, 0);
                assert_ne!(stored, actual);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        };
    }

    #[test]
    fn corruption_is_detected_and_repairable_in_memory() {
        let mut s = BlockStore::memory();
        s.put(0, vec![7; 32]).expect("put");
        assert!(s.corrupt(0), "existing block corrupts");
        let err = s.get(0).expect_err("corrupt block must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        // Repair with the pristine bytes: reads verify again.
        s.overwrite(0, vec![7; 32]).expect("overwrite");
        assert_eq!(s.get(0).expect("get after repair"), vec![7; 32]);
        // Unknown blocks neither corrupt nor overwrite.
        assert!(!s.corrupt(99));
        assert_eq!(
            s.overwrite(99, vec![0]).expect_err("no block").kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn corruption_is_detected_and_repairable_on_file() {
        let dir = std::env::temp_dir().join("pargrid_store_corrupt_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = BlockStore::file(dir.join("w.blocks"), 16).expect("create");
        s.put(0, vec![1; 16]).expect("put");
        s.put(1, vec![2; 16]).expect("put");
        assert!(s.corrupt(1));
        assert_eq!(s.get(0).expect("healthy block").len(), 16);
        let err = s.get(1).expect_err("corrupt block must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        s.overwrite(1, vec![2; 16]).expect("repair");
        assert_eq!(s.get(1).expect("get after repair"), vec![2; 16]);
        // Wrong-size repair material is rejected.
        assert_eq!(
            s.overwrite(1, vec![0; 8]).expect_err("bad size").kind(),
            io::ErrorKind::InvalidInput
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
