//! Worker block stores: in-memory or backed by a real per-worker file,
//! with per-block checksums verified on every read.
//!
//! The paper's simulator "declusters [the dataset] to separate files
//! corresponding to every disk being simulated". The file-backed store
//! reproduces that layout: each worker owns one file of fixed-size blocks,
//! a [`MappedFile`], and reads its blocks straight out of one read-only
//! shared mapping of it, so the data path of the SPMD engine exercises the
//! real filesystem and page cache, while the paper's timings come from the
//! cost model ([`pargrid_sim::cost`]). The spill directory is private to the engine: another process
//! that truncates or rewrites a block file is outside the contract.
//!
//! Writes come in runs: [`BlockStore::append_run`] appends consecutive
//! blocks laid back to back in one buffer, and a file store writes the
//! whole run with one positioned write (`pwrite`) — the engine's build
//! spills each worker's pages 64 blocks (256 KB) at a time instead of one
//! 4 KB syscall per block, and the file's bytes are the same either way.
//! A one-block run is the mutation path's append ([`BlockStore::upsert`])
//! and [`BlockStore::put`].
//!
//! Every appended block gets a CRC-32 of its bytes, recorded once its write
//! has succeeded; every read verifies it. Silent corruption (bit rot, an
//! injected [`crate::FaultKind::CorruptBlock`]) therefore surfaces as a
//! [`StoreError::Corrupt`] error instead of quietly decoding garbage, and
//! the coordinator can repair the block from its chained-declustering
//! replica via [`BlockStore::overwrite`]. The sum is the workspace's one
//! kernel, `pargrid_gridfile::crc32` (carry-less-multiply folding where the
//! CPU has it, slice-by-16 elsewhere), and verify-on-read stays
//! unconditional.
//!
//! Two read surfaces:
//! - [`BlockStore::read_block`] — the hot path. Borrows every block, in
//!   memory or mapped (a positioned read into one buffer on targets
//!   without the mapping). Errors are the typed [`StoreError`].
//! - [`BlockStore::get`] — the owned-`Vec` surface (used by the
//!   scrub/repair path, which ships bytes across threads), kept with its
//!   original `io::Result` signature.

use crate::error::StoreError;
use pargrid_gridfile::{crc32, MappedFile};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// Where a worker's blocks physically live.
enum Backend {
    /// Blocks held in memory (the default; fastest, fully deterministic).
    Memory(HashMap<u32, Vec<u8>>),
    /// Blocks in a single file of `block_bytes`-sized slots, block id =
    /// slot index.
    File {
        /// The backing file and its mapping.
        file: MappedFile,
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
        let file = MappedFile::create(path)?;
        Ok(BlockStore {
            backend: Backend::File {
                file,
                block_bytes,
                n_blocks: 0,
            },
            sums: HashMap::new(),
        })
    }

    /// Appends `count` consecutive blocks, ids `first..first + count`, whose
    /// bytes lie back to back in `run` (equal sizes, so each is
    /// `run.len() / count` bytes), and records each block's checksum once
    /// the write has succeeded. A file store writes the run with one
    /// positioned write; its blocks must continue the file (the engine
    /// allocates ids sequentially per worker) at the file's block size.
    ///
    /// # Panics
    /// Panics if `count` is zero or does not divide `run` into equal blocks,
    /// and, for file stores, on an id gap or a block size mismatch.
    pub fn append_run(&mut self, first: u32, count: usize, run: &[u8]) -> io::Result<()> {
        assert!(count > 0, "a run holds at least one block");
        let size = run.len() / count;
        assert_eq!(size * count, run.len(), "a run is {count} equal blocks");
        let blocks = || (first..).zip((0..count).map(|i| &run[i * size..(i + 1) * size]));
        match &mut self.backend {
            Backend::Memory(map) => {
                for (block, bytes) in blocks() {
                    map.insert(block, bytes.to_vec());
                }
            }
            Backend::File {
                file,
                block_bytes,
                n_blocks,
            } => {
                assert_eq!(
                    size, *block_bytes,
                    "block size mismatch: {size} vs {block_bytes}"
                );
                assert_eq!(first, *n_blocks, "file store requires sequential block ids");
                file.write_at(run, first as u64 * *block_bytes as u64)?;
                *n_blocks += count as u32;
            }
        }
        for (block, bytes) in blocks() {
            self.sums.insert(block, crc32(bytes));
        }
        Ok(())
    }

    /// Stores one block: a one-block [`BlockStore::append_run`].
    ///
    /// # Panics
    /// As `append_run`: on id gaps or size mismatches for file stores.
    pub fn put(&mut self, block: u32, bytes: Vec<u8>) -> io::Result<()> {
        self.append_run(block, 1, &bytes)
    }

    /// Replaces an *existing* block's bytes and refreshes its checksum —
    /// the repair half of a scrub. Unlike [`BlockStore::append_run`], the
    /// block must already exist (`io::ErrorKind::NotFound` otherwise); file
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
                file.write_at(&bytes, block as u64 * *block_bytes as u64)
            }
        }
    }

    /// Writes a block that may or may not already exist: an existing block
    /// is overwritten ([`BlockStore::overwrite`] semantics), a new one is
    /// appended as a one-block [`BlockStore::append_run`] — the mutation
    /// path's write surface, where a bucket rewrite touches existing blocks
    /// and a bucket split appends fresh ones in the same batch.
    ///
    /// # Panics
    /// Panics (like `append_run`) if a *new* block id leaves a gap in a
    /// file store.
    pub fn upsert(&mut self, block: u32, bytes: Vec<u8>) -> io::Result<()> {
        let exists = match &self.backend {
            Backend::Memory(map) => map.contains_key(&block),
            Backend::File { n_blocks, .. } => block < *n_blocks,
        };
        if exists {
            self.overwrite(block, bytes)
        } else {
            self.append_run(block, 1, &bytes)
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
                let Ok(byte) = file.read_at(offset, 1).map(|b| b[0] ^ 0xFF) else {
                    return false;
                };
                file.write_at(&[byte], offset).is_ok()
            }
        }
    }

    /// Reads a block's bytes, verifying the checksum. Every block comes back
    /// borrowed: in-memory blocks from their map, file-backed blocks from
    /// the file's mapping (owned, from one positioned read, on targets
    /// without it). A block that does not exist is
    /// [`StoreError::NotFound`]; one whose bytes no longer match their
    /// recorded checksum is [`StoreError::Corrupt`]. Neither panics, so a
    /// worker can answer the affected request with an error reply and keep
    /// serving.
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
                file.read_at(block as u64 * *block_bytes as u64, *block_bytes)
                    .map_err(StoreError::Io)?
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
    /// bytes elsewhere (scrub repair): one copy of the verified bytes.
    /// Errors map through [`StoreError`]'s [`io::Error`] conversion
    /// (`NotFound` → `io::ErrorKind::NotFound`, `Corrupt` →
    /// `io::ErrorKind::InvalidData`).
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
    fn a_run_stores_what_one_block_puts_store() {
        let dir = std::env::temp_dir().join("pargrid_store_run_test");
        let _ = std::fs::remove_dir_all(&dir);
        let block = |i: u32| vec![i as u8 ^ 0x5a; 32];
        let run: Vec<u8> = (0..5).flat_map(block).collect();
        let mut by_run = BlockStore::file(dir.join("run.blocks"), 32).expect("create");
        let mut by_put = BlockStore::file(dir.join("put.blocks"), 32).expect("create");
        by_run.append_run(0, 3, &run[..96]).expect("first run");
        by_run.append_run(3, 2, &run[96..]).expect("second run");
        for i in 0..5 {
            by_put.put(i, block(i)).expect("put");
        }
        let file = |name: &str| std::fs::read(dir.join(name)).expect("read back");
        assert_eq!(file("run.blocks"), file("put.blocks"));
        let mut mem = BlockStore::memory();
        mem.append_run(7, 5, &run).expect("memory run");
        for i in 0..5 {
            assert_eq!(by_run.get(i).expect("verified read"), block(i));
            assert_eq!(mem.get(7 + i).expect("verified read"), block(i));
        }
        assert_eq!(mem.block_ids(), vec![7, 8, 9, 10, 11]);
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
    #[cfg(all(unix, target_pointer_width = "64"))]
    fn read_block_borrows_file_blocks() {
        let dir = std::env::temp_dir().join("pargrid_store_borrow_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = BlockStore::file(dir.join("w.blocks"), 3).expect("create");
        s.put(0, vec![1, 2, 3]).expect("put");
        assert!(matches!(s.read_block(0), Ok(Cow::Borrowed(&[1, 2, 3]))));
        let _ = std::fs::remove_dir_all(&dir);
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

    /// Every store's answer for `block`, as comparable values.
    fn verdict(store: &BlockStore, block: u32) -> Result<Vec<u8>, String> {
        match store.read_block(block) {
            Ok(bytes) => Ok(bytes.into_owned()),
            Err(e @ (StoreError::NotFound { .. } | StoreError::Corrupt { .. })) => {
                Err(format!("{e:?}"))
            }
            Err(e) => panic!("block {block}: unexpected {e}"),
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// A file store and a memory store fed the same appends, upserts,
        /// overwrites and corruptions answer every read alike: the same
        /// bytes, `NotFound`, or `Corrupt` with the same sums. Blocks of
        /// 8,200 bytes straddle pages, and every case's file grows past the
        /// 1 MiB and 2 MiB mapping sizes. A step is `(kind, count, pick,
        /// fill)`: kinds 0–2 append a run of `count` blocks, 3 upserts, 4
        /// overwrites and 5 corrupts the block `pick` selects.
        #[test]
        fn file_store_is_the_memory_store(
            steps in prop::collection::vec(
                (0u8..6, 1usize..=64, any::<u32>(), any::<u8>()),
                48..64usize,
            ),
        ) {
            const SIZE: usize = 8_200;
            let dir = std::env::temp_dir()
                .join(format!("pargrid_store_model_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut file = BlockStore::file(dir.join("w.blocks"), SIZE).expect("create");
            let mut mem = BlockStore::memory();
            let block = |id: u32, fill: u8| -> Vec<u8> {
                let mut bytes = vec![fill; SIZE];
                bytes[SIZE / 2..SIZE / 2 + 4].copy_from_slice(&id.to_le_bytes());
                bytes
            };
            let mut n = 0u32;
            for &(kind, count, pick, fill) in &steps {
                // An existing block, or one or two past the end.
                let target = pick % (n + 2);
                let touched = match kind {
                    0..=2 => {
                        let run: Vec<u8> =
                            (n..n + count as u32).flat_map(|id| block(id, fill)).collect();
                        file.append_run(n, count, &run).expect("file run");
                        mem.append_run(n, count, &run).expect("memory run");
                        n += count as u32;
                        n - count as u32..n
                    }
                    3 => {
                        let id = target.min(n);
                        file.upsert(id, block(id, fill)).expect("file upsert");
                        mem.upsert(id, block(id, fill)).expect("memory upsert");
                        n = n.max(id + 1);
                        id..id + 1
                    }
                    4 => {
                        let (f, m) = (
                            file.overwrite(target, block(target, fill)),
                            mem.overwrite(target, block(target, fill)),
                        );
                        prop_assert_eq!(f.map_err(|e| e.kind()), m.map_err(|e| e.kind()));
                        target..target + 1
                    }
                    _ => {
                        prop_assert_eq!(file.corrupt(target), mem.corrupt(target));
                        target..target + 1
                    }
                };
                for id in touched.chain([pick % (n + 2)]) {
                    prop_assert_eq!(verdict(&file, id), verdict(&mem, id), "block {}", id);
                }
            }
            prop_assert!(n as usize * SIZE > 2 << 20, "{} blocks stay under 2 MiB", n);
            prop_assert_eq!(file.len(), mem.len());
            for id in 0..n + 2 {
                prop_assert_eq!(verdict(&file, id), verdict(&mem, id), "block {}", id);
            }
            drop(file);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
