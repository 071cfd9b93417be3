//! One codec under every byte format the workspace stores or sends: client
//! and cluster messages (`pargrid-net`), WAL records ([`crate::wal`]), the
//! persisted image ([`crate::persist`]) and the cluster worker's voter
//! state. All integers are little-endian.
//!
//! - [`Cur`] — a total-decode cursor: every read is bounds- and
//!   overflow-checked, [`Cur::count`] refuses a `u32` element count the
//!   remaining bytes cannot hold before anything is allocated for it, and
//!   [`Cur::done`] rejects trailing bytes.
//! - [`Wire`] — one `put` / `take` pair per encoded type: the integers,
//!   `f64` (finite on decode), `bool` as one 0/1 byte, `String` and
//!   `Vec<T>` behind a `u32` length, `Option<T>` behind a 0/1 flag, pairs,
//!   and the two shared layouts — [`Record`] as the keyed layout `id u64,
//!   dim u16, dim × f64` and [`Rect`] as `dim u16, dim × (lo f64, hi f64)`
//!   with `lo <= hi`, both with `1 <= dim <= MAX_DIM`.
//! - [`seal`] / [`unseal`] — the CRC-32 trailer over every preceding byte.
//!
//! Hostile bytes can only fail into a [`DecodeError`]: no input reaches a
//! panicking `Point` or `Rect` constructor.

use std::fmt;

use pargrid_geom::{Point, Rect, MAX_DIM};

use crate::checksum::crc32;
use crate::record::Record;

/// Decode failure: the bytes arrived intact but violate the format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

/// A [`DecodeError`] carrying `msg`.
pub fn err(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

/// A little-endian cursor over untrusted bytes.
#[derive(Debug)]
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| err("length overflow"))?;
        let bytes = self.buf.get(self.pos..end).ok_or_else(|| {
            err(format!(
                "payload too short: wanted {n} more bytes at offset {}",
                self.pos
            ))
        })?;
        self.pos = end;
        Ok(bytes)
    }

    /// The next value of type `T`.
    pub fn get<T: Wire>(&mut self) -> Result<T, DecodeError> {
        T::take(self)
    }

    /// A `u32` element count, refused when the remaining bytes cannot hold
    /// that many elements of at least `min_elem_bytes` each, so a hostile
    /// count cannot make the caller allocate more than the input holds.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.get::<u32>()? as usize;
        if n > (self.buf.len() - self.pos) / min_elem_bytes {
            return Err(err(format!("count {n} exceeds payload")));
        }
        Ok(n)
    }

    /// Fails unless every byte was consumed.
    pub fn done(&self) -> Result<(), DecodeError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(err(format!("{n} trailing bytes after message"))),
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }
}

/// A type with one byte encoding: `put` appends it, `take` reads it back
/// or fails typed.
pub trait Wire: Sized {
    /// Fewest bytes one value encodes to: the count guard of a `Vec<Self>`.
    const MIN_BYTES: usize;

    /// Appends the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value.
    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError>;

    /// Appends `items` back to back (`u8` copies them in one go).
    fn put_all(items: &[Self], out: &mut Vec<u8>) {
        for v in items {
            v.put(out);
        }
    }

    /// Reads `n` values back to back (`u8` copies them in one go).
    fn take_n(c: &mut Cur<'_>, n: usize) -> Result<Vec<Self>, DecodeError> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(Self::take(c)?);
        }
        Ok(v)
    }
}

impl Wire for u8 {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        Ok(c.take(1)?[0])
    }

    fn put_all(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }

    fn take_n(c: &mut Cur<'_>, n: usize) -> Result<Vec<u8>, DecodeError> {
        Ok(c.take(n)?.to_vec())
    }
}

impl Wire for u16 {
    const MIN_BYTES: usize = 2;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        Ok(u16::from_le_bytes(c.array()?))
    }
}

impl Wire for u32 {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        Ok(u32::from_le_bytes(c.array()?))
    }
}

impl Wire for u64 {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        Ok(u64::from_le_bytes(c.array()?))
    }
}

/// Decodes finite values only. A format that must carry any bit pattern
/// reads `f64::from_bits` of a `u64`.
impl Wire for f64 {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        let v = f64::from_le_bytes(c.array()?);
        if !v.is_finite() {
            return Err(err(format!("{v} is not finite")));
        }
        Ok(v)
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        match c.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(err(format!("bad flag byte {t}"))),
        }
    }
}

/// Appends `s` as a `u32` length and its UTF-8 bytes (the `String` layout).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    (s.len() as u32).put(out);
    out.extend_from_slice(s.as_bytes());
}

impl Wire for String {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        let n = c.get::<u32>()? as usize;
        let text = std::str::from_utf8(c.take(n)?).map_err(|_| err("text is not utf-8"))?;
        Ok(text.to_string())
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        Ok(if c.get()? { Some(c.get()?) } else { None })
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        T::put_all(self, out);
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        let n = c.count(T::MIN_BYTES)?;
        T::take_n(c, n)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        Ok((c.get()?, c.get()?))
    }
}

/// `1..=MAX_DIM`, the dimensionalities `Point` and `Rect` accept.
pub fn checked_dim(dim: u16) -> Result<usize, DecodeError> {
    let d = dim as usize;
    if d == 0 || d > MAX_DIM {
        return Err(err(format!("dimension {d} outside 1..={MAX_DIM}")));
    }
    Ok(d)
}

/// Appends the keyed layout `id u64, dim u16, dim × f64` from a slice, so
/// a caller holding coordinates that are not a `Point` yet encodes them
/// as they are.
pub fn put_keyed(out: &mut Vec<u8>, id: u64, key: &[f64]) {
    id.put(out);
    (key.len() as u16).put(out);
    f64::put_all(key, out);
}

/// The keyed layout: WAL records, `REQ_INSERT` / `REQ_DELETE` and the
/// metadata log's inserts and deletes.
impl Wire for Record {
    const MIN_BYTES: usize = 18;

    fn put(&self, out: &mut Vec<u8>) {
        put_keyed(out, self.id, self.point.coords());
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        let id = c.get()?;
        let d = checked_dim(c.get()?)?;
        let mut coords = [0.0; MAX_DIM];
        for x in &mut coords[..d] {
            *x = c.get()?;
        }
        Ok(Record::new(id, Point::from_padded(coords, d)))
    }
}

/// Appends the rect layout `dim u16, dim × (lo f64, hi f64)` from slices;
/// `dim` is `lo.len()`.
pub fn put_rect(out: &mut Vec<u8>, lo: &[f64], hi: &[f64]) {
    (lo.len() as u16).put(out);
    for (l, h) in lo.iter().zip(hi) {
        l.put(out);
        h.put(out);
    }
}

/// The rect layout: `REQ_RANGE` and the cluster plane's `Dispatch`.
impl Wire for Rect {
    const MIN_BYTES: usize = 18;

    fn put(&self, out: &mut Vec<u8>) {
        put_rect(out, self.lo().coords(), self.hi().coords());
    }

    fn take(c: &mut Cur<'_>) -> Result<Self, DecodeError> {
        let d = checked_dim(c.get()?)?;
        let (mut lo, mut hi) = ([0.0; MAX_DIM], [0.0; MAX_DIM]);
        for i in 0..d {
            (lo[i], hi[i]) = (c.get()?, c.get()?);
            if lo[i] > hi[i] {
                return Err(err(format!("rect interval {i} inverted")));
            }
        }
        Ok(Rect::new(
            Point::from_padded(lo, d),
            Point::from_padded(hi, d),
        ))
    }
}

/// Exact encoded size of a records section: `n u32`, then `n` records in
/// the keyed layout.
pub fn records_wire_len(records: &[Record]) -> usize {
    4 + records
        .iter()
        .map(|r| 10 + 8 * r.point.dim())
        .sum::<usize>()
}

/// Appends a records section (layout on [`records_wire_len`]) — the one
/// encoder under both `RESP_RECORDS` and the cluster plane's worker reply.
///
/// The section is sized once; each run of records of one dimensionality
/// is then written row by row at that fixed dimensionality, every row into
/// its own slice with fixed-size copies.
pub fn put_records(p: &mut Vec<u8>, records: &[Record]) {
    (records.len() as u32).put(p);
    let start = p.len();
    p.resize(start + records_wire_len(records) - 4, 0);
    let mut rows = &mut p[start..];
    let mut rest = records;
    while let Some(first) = rest.first() {
        let run = match first.point.dim() {
            1 => put_run::<1>(rest, rows),
            2 => put_run::<2>(rest, rows),
            3 => put_run::<3>(rest, rows),
            4 => put_run::<4>(rest, rows),
            5 => put_run::<5>(rest, rows),
            6 => put_run::<6>(rest, rows),
            d => unreachable!("a point has 1..={MAX_DIM} dimensions, not {d}"),
        };
        rows = &mut rows[run * (10 + 8 * first.point.dim())..];
        rest = &rest[run..];
    }
}

/// Writes the leading run of `D`-dimensional records of `records` into
/// `rows` in the keyed layout and returns its length.
fn put_run<const D: usize>(records: &[Record], rows: &mut [u8]) -> usize {
    let run = records.iter().take_while(|r| r.point.dim() == D).count();
    for (row, r) in rows.chunks_exact_mut(10 + 8 * D).zip(&records[..run]) {
        let (head, fields) = row.split_at_mut(10);
        head[..8].copy_from_slice(&r.id.to_le_bytes());
        head[8..].copy_from_slice(&(D as u16).to_le_bytes());
        let coords: &[f64; D] = r.point.coords().try_into().expect("a run has D dims");
        for (field, x) in fields.as_chunks_mut::<8>().0.iter_mut().zip(coords) {
            *field = x.to_le_bytes();
        }
    }
    run
}

/// Decodes a records section — the one decoder under both planes, with
/// the verdicts of `Vec<Record>`.
///
/// A reply carries thousands of records, mostly of one dimensionality, so
/// the decoder peeks at the next record's dim and decodes the run of
/// records that share it at that fixed dimensionality, one fixed-size row
/// at a time; the run ends at the first record of another dim, where the
/// bytes run out or when the count is reached. Each row's coordinates are
/// checked finite together, and the zero-padded array they fill goes
/// straight to [`Point::from_padded`].
pub fn take_records(c: &mut Cur<'_>) -> Result<Vec<Record>, DecodeError> {
    // 14 bytes is under the smallest possible record (1-D: 18).
    let n = c.count(14)?;
    let mut records = Vec::with_capacity(n);
    while records.len() < n {
        let Some(head) = c.buf[c.pos..].get(..10) else {
            return Err(err(format!(
                "payload too short: wanted a record head at offset {}",
                c.pos
            )));
        };
        let d = checked_dim(u16::from_le_bytes([head[8], head[9]]))?;
        let left = n - records.len();
        let run = match d {
            1 => take_run::<1>(c, left, &mut records),
            2 => take_run::<2>(c, left, &mut records),
            3 => take_run::<3>(c, left, &mut records),
            4 => take_run::<4>(c, left, &mut records),
            5 => take_run::<5>(c, left, &mut records),
            6 => take_run::<6>(c, left, &mut records),
            _ => unreachable!("checked_dim returned {d}"),
        }?;
        if run == 0 {
            // The head says `d`, so only missing bytes stop the run short.
            return Err(err(format!(
                "payload too short: a {d}-d record cut at offset {}",
                c.pos
            )));
        }
    }
    Ok(records)
}

/// Decodes up to `max` records of dim `D` from the cursor into `out`,
/// stopping at the first record of another dim or at a cut row, and
/// returns how many it decoded.
fn take_run<const D: usize>(
    c: &mut Cur<'_>,
    max: usize,
    out: &mut Vec<Record>,
) -> Result<usize, DecodeError> {
    let rows = c.buf[c.pos..].chunks_exact(10 + 8 * D).take(max);
    let mut run = 0;
    for row in rows {
        let (head, fields) = row.split_at(10);
        if u16::from_le_bytes([head[8], head[9]]) as usize != D {
            break;
        }
        let fields: &[[u8; 8]; D] = fields.as_chunks::<8>().0.try_into().expect("D fields");
        let mut coords = [0.0; MAX_DIM];
        let mut finite = true;
        for (slot, raw) in coords.iter_mut().zip(fields) {
            *slot = f64::from_le_bytes(*raw);
            finite &= slot.is_finite();
        }
        if !finite {
            return Err(err("record coordinate is not finite"));
        }
        let id = u64::from_le_bytes(head[..8].try_into().expect("8 bytes"));
        out.push(Record::new(id, Point::from_padded(coords, D)));
        run += 1;
    }
    c.pos += run * (10 + 8 * D);
    Ok(run)
}

/// Appends the CRC-32 of every byte already in `out`.
pub fn seal(out: &mut Vec<u8>) {
    crc32(out).put(out);
}

/// Checks the CRC-32 trailer that [`seal`] wrote and returns the bytes it
/// covers.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], DecodeError> {
    let split = bytes
        .len()
        .checked_sub(4)
        .ok_or_else(|| err("too short for a checksum"))?;
    let (body, trailer) = bytes.split_at(split);
    let stored = Cur::new(trailer).get::<u32>()?;
    let computed = crc32(body);
    if stored != computed {
        return Err(err(format!(
            "payload checksum mismatch: stored {stored:08x}, computed {computed:08x}"
        )));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        let mut out = Vec::new();
        v.put(&mut out);
        assert!(out.len() >= T::MIN_BYTES);
        let mut c = Cur::new(&out);
        assert_eq!(c.get::<T>().unwrap(), v);
        c.done().unwrap();
        for cut in 0..out.len() {
            assert!(Cur::new(&out[..cut]).get::<T>().is_err(), "cut {cut}");
        }
    }

    #[test]
    fn every_wire_type_round_trips_and_rejects_its_prefixes() {
        round_trip(0xabu8);
        round_trip(0xabcdu16);
        round_trip(u32::MAX);
        round_trip(u64::MAX - 1);
        round_trip(-2.5f64);
        round_trip(true);
        round_trip(String::from("grid"));
        round_trip(Some(7u32));
        round_trip(None::<u32>);
        round_trip(vec![(1u32, vec![1u8, 2]), (2, vec![])]);
        round_trip(Record::new(9, Point::new3(1.0, -2.0, 0.5)));
        round_trip(Rect::new2(0.0, -1.0, 2.0, 1.0));
    }

    #[test]
    fn hostile_inputs_are_typed_errors() {
        // Non-finite float, bad flag, invalid UTF-8.
        assert!(Cur::new(&f64::NAN.to_le_bytes()).get::<f64>().is_err());
        assert!(Cur::new(&[2]).get::<bool>().is_err());
        assert!(Cur::new(&[1, 0, 0, 0, 0xff]).get::<String>().is_err());
        // A count the remaining bytes cannot hold.
        let mut p = u32::MAX.to_le_bytes().to_vec();
        p.extend_from_slice(&[0; 8]);
        let e = Cur::new(&p).get::<Vec<u32>>().unwrap_err();
        assert!(e.0.contains("exceeds payload"), "{e}");
        // Dimension 0 and an inverted interval.
        assert!(Cur::new(&[0, 0]).get::<Rect>().is_err());
        let mut p = vec![1, 0];
        p.extend_from_slice(&2.0f64.to_le_bytes());
        p.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(Cur::new(&p)
            .get::<Rect>()
            .unwrap_err()
            .0
            .contains("inverted"));
        // Trailing bytes.
        let mut c = Cur::new(&[1, 2]);
        c.get::<u8>().unwrap();
        assert!(c.done().is_err());
    }

    /// The records encoder as it was before the per-dimension runs: one
    /// `put` per field. Kept as the reference `put_records` is held to.
    fn reference_put_records(p: &mut Vec<u8>, records: &[Record]) {
        (records.len() as u32).put(p);
        Record::put_all(records, p);
    }

    /// `n` records of dim `d`, ids and coordinates taken from `seed`, with
    /// signed zeros, extremes and non-finite values among the coordinates
    /// (the encoder writes whatever bits it is given).
    fn records_of(d: usize, n: usize, seed: u64) -> Vec<Record> {
        let odd = [-0.0, f64::MAX, f64::MIN_POSITIVE, f64::NAN, f64::INFINITY];
        (0..n as u64)
            .map(|i| {
                let coords: Vec<f64> = (0..d)
                    .map(|k| match (seed + i + k as u64) % 9 {
                        j @ 0..=4 => odd[j as usize],
                        j => (seed * 31 + i) as f64 * 0.25 - j as f64,
                    })
                    .collect();
                Record::new(seed ^ (i << 7), Point::new(&coords))
            })
            .collect()
    }

    /// Exact bytes, appended after whatever the buffer already holds.
    fn assert_same_section(records: &[Record]) {
        let mut new = vec![0xa5, 0x5a];
        let mut old = new.clone();
        put_records(&mut new, records);
        reference_put_records(&mut old, records);
        assert_eq!(new, old, "{} records", records.len());
        assert_eq!(new.len(), 2 + records_wire_len(records));
    }

    #[test]
    fn put_records_matches_per_field_reference() {
        assert_same_section(&[]);
        for d in 1..=MAX_DIM {
            for n in [1, 2, 7, 64] {
                assert_same_section(&records_of(d, n, d as u64));
            }
        }
        // Mixed dims: every dim 1..=6, runs of length 1 to 3 in both
        // directions, and a dim that comes back after others.
        let dims = [1, 2, 3, 4, 5, 6, 6, 5, 4, 3, 2, 1, 3];
        let mut mixed = Vec::new();
        for (step, d) in dims.into_iter().enumerate() {
            mixed.extend(records_of(d, 1 + step % 3, step as u64));
        }
        assert_same_section(&mixed);
        for cut in 0..mixed.len() {
            assert_same_section(&mixed[cut..]);
        }
    }

    #[test]
    fn seal_covers_every_byte() {
        let mut b = b"pargrid".to_vec();
        seal(&mut b);
        assert_eq!(unseal(&b).unwrap(), b"pargrid");
        for bit in 0..8 * b.len() {
            let mut flipped = b.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(unseal(&flipped).is_err(), "bit {bit}");
        }
        assert!(unseal(&b[..3]).is_err());
    }
}
