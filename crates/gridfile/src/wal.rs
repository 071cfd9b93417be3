//! Write-ahead log for grid-file mutations.
//!
//! Every [`crate::GridFile::insert`]/[`crate::GridFile::delete`] routed
//! through a [`Wal`] is first appended as one framed record, so a crash at
//! any point leaves the on-disk state recoverable: replay the log over the
//! last checkpoint image and the file is exactly where the surviving
//! operations left it.
//!
//! ## Record framing
//!
//! Each record is a `u32` length, then the op tag and its record in the
//! codec's keyed layout ([`crate::codec`]), sealed by a CRC-32 over
//! everything before it, so a flipped byte anywhere in the record is
//! caught before the operation is applied.
//!
//! ```text
//! +---------+--------+------------------+-----------+
//! | len u32 | op u8  | payload          | crc32 u32 |
//! +---------+--------+------------------+-----------+
//!   little-   1=insert  id u64, dim u16,   over len +
//!   endian,   2=delete  dim x f64 coords   op + payload
//!   len = 1 + payload
//! ```
//!
//! ## Torn tails
//!
//! A crash mid-append leaves a partial record at the end of the log.
//! [`Wal::replay`] applies records strictly in order and stops at the first
//! one that is incomplete, oversized, corrupt, or malformed — the torn tail
//! is *tolerated*, never applied. [`Wal::open_append`] then truncates the
//! file back to the last valid boundary so new appends never interleave
//! with garbage.
//!
//! Appends reach the OS on return (`write_all` on an unbuffered file);
//! [`Wal::sync`] additionally forces them to stable storage — checkpoints
//! call it before truncating, deployments that must survive power loss call
//! it per batch.

use crate::codec::{err, put_keyed, seal, unseal, Cur, DecodeError, Wire};
use crate::record::Record;
use pargrid_geom::{Point, MAX_DIM};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Op tag of an insert record.
const OP_INSERT: u8 = 1;
/// Op tag of a delete record.
const OP_DELETE: u8 = 2;

/// Largest legal `len` field: op byte + id + dim + `MAX_DIM` coordinates.
/// Anything larger is treated as a torn/corrupt tail, bounding what replay
/// will ever try to read.
const MAX_RECORD_LEN: u32 = (1 + 8 + 2 + 8 * MAX_DIM) as u32;

/// One logged mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// Insert this record.
    Insert(Record),
    /// Delete the record with this id at this key.
    Delete {
        /// Application id of the record to remove.
        id: u64,
        /// Its multidimensional key.
        point: Point,
    },
}

impl WalOp {
    /// Encodes the op as one framed WAL record (length header, op tag,
    /// payload, CRC-32 footer).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + MAX_RECORD_LEN as usize);
        out.extend_from_slice(&[0; 4]);
        self.put(&mut out);
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        seal(&mut out);
        out
    }
}

/// The record body: op tag, then the keyed layout.
impl Wire for WalOp {
    const MIN_BYTES: usize = 19;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            WalOp::Insert(r) => {
                OP_INSERT.put(out);
                r.put(out);
            }
            WalOp::Delete { id, point } => {
                OP_DELETE.put(out);
                put_keyed(out, *id, point.coords());
            }
        }
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        let op = c.get::<u8>()?;
        let r: Record = c.get()?;
        match op {
            OP_INSERT => Ok(WalOp::Insert(r)),
            OP_DELETE => Ok(WalOp::Delete {
                id: r.id,
                point: r.point,
            }),
            t => Err(err(format!("unknown op tag {t}"))),
        }
    }
}

/// Decodes the record at the start of `rest` and returns it with its
/// length in bytes. Fails on a record that is incomplete, oversized,
/// corrupt, or structurally invalid.
fn next_record(rest: &[u8]) -> Result<(WalOp, usize), DecodeError> {
    let len = Cur::new(rest).get::<u32>()?;
    if len == 0 || len > MAX_RECORD_LEN {
        return Err(err(format!("record length {len} out of range")));
    }
    let record = rest
        .get(..8 + len as usize)
        .ok_or_else(|| err("torn record"))?;
    let mut c = Cur::new(&unseal(record)?[4..]);
    let op = c.get()?;
    c.done()?;
    Ok((op, record.len()))
}

/// Outcome of replaying a log file: the decodable prefix of operations and
/// where it ends.
#[derive(Debug, Default)]
pub struct Replay {
    /// Operations of the surviving prefix, in append order.
    pub ops: Vec<WalOp>,
    /// Byte offset of the end of the last valid record — everything past it
    /// is a torn or corrupt tail.
    pub valid_bytes: u64,
    /// Whether bytes past `valid_bytes` existed (a torn tail was dropped).
    pub torn: bool,
}

/// An append-only write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Bytes of valid log currently on disk.
    len: u64,
}

impl Wal {
    /// Decodes the surviving prefix of the log at `path`. A missing file
    /// replays as empty. Stops at the first incomplete, oversized, corrupt,
    /// or structurally invalid record — the torn-tail guarantee: a crash
    /// mid-append can only cost the operations that had not finished
    /// appending.
    pub fn replay<P: AsRef<Path>>(path: P) -> io::Result<Replay> {
        let mut bytes = Vec::new();
        match File::open(path.as_ref()) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let mut replay = Replay::default();
        let mut at = 0;
        while let Ok((op, len)) = next_record(&bytes[at..]) {
            replay.ops.push(op);
            at += len;
        }
        replay.valid_bytes = at as u64;
        replay.torn = at < bytes.len();
        Ok(replay)
    }

    /// Opens the log for appending, truncating anything past `valid_bytes`
    /// (the torn tail found by [`Wal::replay`]) so new records never follow
    /// garbage. Creates the file when missing.
    pub fn open_append<P: Into<PathBuf>>(path: P, valid_bytes: u64) -> io::Result<Wal> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        if file.metadata()?.len() > valid_bytes {
            file.set_len(valid_bytes)?;
        }
        Ok(Wal {
            file,
            path,
            len: valid_bytes,
        })
    }

    /// Replays the log and opens it for appending in one step, returning
    /// the surviving operations alongside the positioned log.
    pub fn recover<P: Into<PathBuf>>(path: P) -> io::Result<(Wal, Replay)> {
        let path = path.into();
        let replay = Self::replay(&path)?;
        let wal = Self::open_append(path, replay.valid_bytes)?;
        Ok((wal, replay))
    }

    /// Appends one operation. The record is fully written (or the error
    /// surfaces) before the caller applies the mutation in memory —
    /// write-ahead order.
    pub fn append(&mut self, op: &WalOp) -> io::Result<()> {
        let frame = op.encode();
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Forces appended records to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Truncates the log to empty — called after a checkpoint image has
    /// durably captured every logged operation.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.file.set_len(0)?;
        self.len = 0;
        Ok(())
    }

    /// Bytes of valid log on disk.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert(Record::new(1, Point::new2(10.0, 20.0))),
            WalOp::Insert(Record::new(2, Point::new2(30.0, 40.0))),
            WalOp::Delete {
                id: 1,
                point: Point::new2(10.0, 20.0),
            },
        ]
    }

    #[test]
    fn golden_record_bytes() {
        // One record exactly as the bytewise-CRC build logged it (CRC
        // cross-checked against zlib): logs written before the kernel
        // change replay, logs written after it are readable by older builds.
        let insert = WalOp::Insert(Record::new(7, Point::new3(1.5, -2.0, 0.25)));
        let mut expected = vec![0x23, 0, 0, 0, OP_INSERT];
        expected.extend_from_slice(&7u64.to_le_bytes());
        expected.extend_from_slice(&3u16.to_le_bytes());
        for c in [1.5f64, -2.0, 0.25] {
            expected.extend_from_slice(&c.to_le_bytes());
        }
        expected.extend_from_slice(&0xF6F9_54B8u32.to_le_bytes());
        assert_eq!(insert.encode(), expected);
        let delete = WalOp::Delete {
            id: 7,
            point: Point::new3(1.5, -2.0, 0.25),
        };
        assert_eq!(delete.encode()[39..], 0x7D2A_6AA1u32.to_le_bytes());
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = std::env::temp_dir().join("pargrid-wal-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut wal = Wal::open_append(&path, 0).unwrap();
        for op in ops() {
            wal.append(&op).unwrap();
        }
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.ops, ops());
        assert!(!replay.torn);
        assert_eq!(replay.valid_bytes, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = std::env::temp_dir().join("pargrid-wal-torn");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut wal = Wal::open_append(&path, 0).unwrap();
        for op in ops() {
            wal.append(&op).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let one = ops()[0].encode().len();
        // Cut mid-way through the second record.
        std::fs::write(&path, &full[..one + 7]).unwrap();
        let (wal, replay) = Wal::recover(&path).unwrap();
        assert_eq!(replay.ops, ops()[..1]);
        assert!(replay.torn);
        assert_eq!(wal.len_bytes(), one as u64);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), one as u64);
    }

    #[test]
    fn bit_flip_stops_replay_before_the_flipped_record() {
        let all = ops();
        let mut bytes = Vec::new();
        let mut starts = Vec::new();
        for op in &all {
            starts.push(bytes.len());
            bytes.extend_from_slice(&op.encode());
        }
        let dir = std::env::temp_dir().join("pargrid-wal-flip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        // Flip one byte in the middle record: replay must keep record 0
        // and never apply record 1 (or anything after it).
        let mut mangled = bytes.clone();
        mangled[starts[1] + 9] ^= 0x40;
        std::fs::write(&path, &mangled).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.ops, all[..1]);
        assert!(replay.torn);
    }

    #[test]
    fn oversized_length_field_is_a_torn_tail_not_a_huge_read() {
        let dir = std::env::temp_dir().join("pargrid-wal-oversize");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut bytes = ops()[0].encode();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0xab; 16]);
        std::fs::write(&path, &bytes).unwrap();
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.ops.len(), 1);
        assert!(replay.torn);
    }

    #[test]
    fn missing_file_replays_empty() {
        let replay = Wal::replay("/nonexistent/definitely/not/here.log").unwrap();
        assert!(replay.ops.is_empty());
        assert_eq!(replay.valid_bytes, 0);
        assert!(!replay.torn);
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = std::env::temp_dir().join("pargrid-wal-reset");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut wal = Wal::open_append(&path, 0).unwrap();
        wal.append(&ops()[0]).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        wal.append(&ops()[1]).unwrap();
        drop(wal);
        let replay = Wal::replay(&path).unwrap();
        assert_eq!(replay.ops, ops()[1..2]);
    }
}
