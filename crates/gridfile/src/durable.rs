//! Durable grid file: checkpoint image + write-ahead log.
//!
//! [`DurableGridFile`] wraps a [`GridFile`] with crash recovery. Every
//! mutation is appended to a [`Wal`] (and fsynced) *before* it is applied to
//! the in-memory file — the classical write-ahead discipline — so that after
//! a crash the state can be reconstructed as
//!
//! ```text
//! state = checkpoint image  ⊕  surviving WAL prefix
//! ```
//!
//! [`DurableGridFile::checkpoint`] persists the current file via the
//! CRC-trailered [`persist`](crate::persist) format
//! ([`persist::write_durably`](crate::persist::write_durably): a synced
//! temporary file renamed over `checkpoint.pgf`, directory synced) and only
//! then resets the log, so a crash at any point leaves either the old
//! checkpoint + full WAL or the new checkpoint + (possibly stale but
//! harmless) WAL. Replaying an already-checkpointed insert is prevented by
//! the reset; a torn WAL tail is dropped by [`Wal::recover`].

use std::fs;
use std::path::{Path, PathBuf};

use pargrid_geom::Point;

use crate::file::{GridConfig, GridFile, MutationEffect};
use crate::persist::PersistError;
use crate::record::Record;
use crate::wal::{Replay, Wal, WalOp};

/// File name of the checkpoint image inside the durable directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.pgf";
/// File name of the write-ahead log inside the durable directory.
pub const WAL_FILE: &str = "wal.log";

/// A [`GridFile`] with write-ahead logging, checkpointing, and recovery.
#[derive(Debug)]
pub struct DurableGridFile {
    gf: GridFile,
    wal: Wal,
    dir: PathBuf,
    recovered_ops: usize,
    ops_since_checkpoint: usize,
}

impl DurableGridFile {
    /// Opens (or creates) a durable grid file rooted at `dir`.
    ///
    /// Loads `checkpoint.pgf` if present (falling back to an empty file with
    /// `config` otherwise), then replays the surviving prefix of `wal.log`
    /// over it, truncating any torn tail. `config` must match the
    /// checkpointed configuration when one exists; it is only consulted for
    /// a fresh directory.
    pub fn open<P: AsRef<Path>>(dir: P, config: GridConfig) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let ckpt = dir.join(CHECKPOINT_FILE);
        let mut gf = if ckpt.exists() {
            GridFile::load(&ckpt)?
        } else {
            GridFile::new(config)
        };
        let (wal, replay) = Wal::recover(dir.join(WAL_FILE))?;
        let Replay { ops, .. } = replay;
        let recovered_ops = ops.len();
        for op in ops {
            apply(&mut gf, &op);
        }
        Ok(DurableGridFile {
            gf,
            wal,
            dir,
            recovered_ops,
            ops_since_checkpoint: recovered_ops,
        })
    }

    /// Inserts a record: logs it, fsyncs the WAL, then applies it.
    ///
    /// Returns the buckets the insert touched (see [`MutationEffect`]).
    pub fn insert(&mut self, rec: Record) -> Result<MutationEffect, PersistError> {
        self.wal.append(&WalOp::Insert(rec))?;
        self.wal.sync()?;
        self.ops_since_checkpoint += 1;
        Ok(self.gf.insert_tracked(rec))
    }

    /// Deletes the record with `id` at `point`: logs, fsyncs, applies.
    ///
    /// The delete is logged even when the record is absent — replaying a
    /// no-op delete is itself a no-op, and logging first keeps the
    /// write-ahead invariant unconditional.
    pub fn delete(
        &mut self,
        id: u64,
        point: &Point,
    ) -> Result<(bool, MutationEffect), PersistError> {
        self.wal.append(&WalOp::Delete { id, point: *point })?;
        self.wal.sync()?;
        self.ops_since_checkpoint += 1;
        Ok(self.gf.delete_tracked(id, point))
    }

    /// Persists the current state as the new checkpoint and resets the WAL.
    ///
    /// The image is written durably ([`GridFile::save`]: a synced temporary
    /// sibling renamed over [`CHECKPOINT_FILE`], directory synced); only
    /// after that succeeds is the log truncated, so a crash anywhere in between recovers correctly (at
    /// worst it replays ops already contained in the new image onto the
    /// *new* image — prevented because reset happens before returning; a
    /// crash between rename and reset replays onto the new image, which is
    /// why recovery applies WAL ops with plain `insert`/`delete`:
    /// re-inserting an existing `(id, point)` pair is filtered below).
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        self.gf.save(self.dir.join(CHECKPOINT_FILE))?;
        self.wal.reset()?;
        self.ops_since_checkpoint = 0;
        Ok(())
    }

    /// Read access to the underlying grid file.
    pub fn grid(&self) -> &GridFile {
        &self.gf
    }

    /// Number of WAL operations replayed by [`open`](Self::open).
    pub fn recovered_ops(&self) -> usize {
        self.recovered_ops
    }

    /// Number of operations logged since the last checkpoint (or open).
    pub fn ops_since_checkpoint(&self) -> usize {
        self.ops_since_checkpoint
    }

    /// Directory holding the checkpoint and WAL.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Consumes the wrapper, returning the in-memory grid file.
    pub fn into_grid(self) -> GridFile {
        self.gf
    }

    /// Consumes the wrapper, returning the recovered grid file and the
    /// open WAL (positioned after the surviving prefix). This is the
    /// hand-off point to the parallel engine: the engine takes ownership
    /// of the log and continues the write-ahead discipline itself.
    pub fn into_parts(self) -> (GridFile, Wal) {
        (self.gf, self.wal)
    }
}

/// Applies a recovered WAL operation to `gf`.
///
/// Inserts are idempotence-filtered on `(id, point)`: if a crash lands
/// between the checkpoint rename and the WAL reset, the surviving log still
/// describes ops already folded into the image, and blindly re-inserting
/// them would duplicate records. Deletes are naturally idempotent.
fn apply(gf: &mut GridFile, op: &WalOp) {
    match op {
        WalOp::Insert(rec) => {
            let already = gf
                .bucket_records(gf.bucket_of_point(&rec.point))
                .iter()
                .any(|r| r.id == rec.id && r.point == rec.point);
            if !already {
                gf.insert(*rec);
            }
        }
        WalOp::Delete { id, point } => {
            gf.delete(*id, point);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargrid_geom::Rect;
    use std::fs::OpenOptions;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pargrid-durable-{name}"));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn cfg() -> GridConfig {
        GridConfig::with_capacity(Rect::new2(0.0, 0.0, 100.0, 100.0), 4)
    }

    fn rec(i: u64) -> Record {
        let x = 41u64
            .wrapping_mul(6364136223846793005u64.wrapping_mul(i + 1))
            .wrapping_add(1442695040888963407);
        Record::new(
            i,
            Point::new2(
                ((x >> 16) % 10000) as f64 / 100.0,
                ((x >> 40) % 10000) as f64 / 100.0,
            ),
        )
    }

    #[test]
    fn reopen_recovers_unflushed_ops() {
        let dir = tmp_dir("reopen");
        {
            let mut d = DurableGridFile::open(&dir, cfg()).unwrap();
            for i in 0..50 {
                d.insert(rec(i)).unwrap();
            }
            d.delete(7, &rec(7).point).unwrap();
            // No checkpoint: everything lives in the WAL only.
        }
        let d = DurableGridFile::open(&dir, cfg()).unwrap();
        assert_eq!(d.recovered_ops(), 51);
        assert_eq!(d.grid().len(), 49);
        let (_, recs) = d.grid().range_query(&Rect::new2(0.0, 0.0, 100.0, 100.0));
        assert!(recs.iter().all(|r| r.id != 7));
        d.grid().check_invariants();
    }

    #[test]
    fn checkpoint_resets_wal_and_survives_reopen() {
        let dir = tmp_dir("ckpt");
        {
            let mut d = DurableGridFile::open(&dir, cfg()).unwrap();
            for i in 0..30 {
                d.insert(rec(i)).unwrap();
            }
            d.checkpoint().unwrap();
            assert_eq!(d.ops_since_checkpoint(), 0);
            for i in 30..40 {
                d.insert(rec(i)).unwrap();
            }
        }
        let d = DurableGridFile::open(&dir, cfg()).unwrap();
        assert_eq!(d.recovered_ops(), 10, "only post-checkpoint ops replay");
        assert_eq!(d.grid().len(), 40);
        d.grid().check_invariants();
    }

    #[test]
    fn torn_tail_loses_only_the_torn_op() {
        let dir = tmp_dir("torn");
        {
            let mut d = DurableGridFile::open(&dir, cfg()).unwrap();
            for i in 0..20 {
                d.insert(rec(i)).unwrap();
            }
        }
        // Chop 3 bytes off the log: the final record becomes a torn tail.
        let wal_path = dir.join(WAL_FILE);
        let len = fs::metadata(&wal_path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let d = DurableGridFile::open(&dir, cfg()).unwrap();
        assert_eq!(d.recovered_ops(), 19);
        assert_eq!(d.grid().len(), 19);
        let (_, recs) = d.grid().range_query(&Rect::new2(0.0, 0.0, 100.0, 100.0));
        assert!(
            recs.iter().all(|r| r.id != 19),
            "torn insert must not apply"
        );
    }

    #[test]
    fn stale_wal_after_checkpoint_rename_does_not_duplicate() {
        // Simulate a crash BETWEEN the checkpoint rename and the WAL reset:
        // the image already contains the logged ops.
        let dir = tmp_dir("stale-wal");
        {
            let mut d = DurableGridFile::open(&dir, cfg()).unwrap();
            for i in 0..25 {
                d.insert(rec(i)).unwrap();
            }
            // Write the image by hand; leave the WAL untouched.
            d.grid().save(dir.join(CHECKPOINT_FILE)).unwrap();
        }
        let d = DurableGridFile::open(&dir, cfg()).unwrap();
        assert_eq!(
            d.grid().len(),
            25,
            "replaying a folded-in WAL must not duplicate"
        );
        d.grid().check_invariants();
    }

    #[test]
    fn fresh_directory_starts_empty() {
        let dir = tmp_dir("fresh");
        let d = DurableGridFile::open(&dir, cfg()).unwrap();
        assert_eq!(d.grid().len(), 0);
        assert_eq!(d.recovered_ops(), 0);
    }
}
