//! Fixed-width page encoding of bucket contents.
//!
//! The parallel engine ships buckets around as raw disk blocks; this module
//! defines that block format. A page is exactly `page_bytes` long:
//!
//! ```text
//! [u16 record_count] [u16 dim] [records...] [zero padding]
//! record = [u64 id][f64 coord; dim][payload zeros]
//! ```
//!
//! All integers and floats are little-endian. The payload is all zeros — the
//! experiments only measure block counts and sizes, never payload contents —
//! but it is physically present so block sizes match the configured page.
//!
//! Two readers: [`decode_page`] materialises every record (rebuild, repair
//! and replay callers that want the whole bucket), [`scan_page`] answers a
//! range query straight off the block — it tests the query box on
//! coordinates read in place and builds a [`Record`] only for the hits.

use crate::record::Record;
use pargrid_geom::{Point, Rect, MAX_DIM};

/// Page header size in bytes.
pub const HEADER_BYTES: usize = 4;

/// Encodes records into a page with a `page_bytes` data area (the physical
/// block is `HEADER_BYTES` longer — the header rides on top of the data
/// area, so a bucket at capacity fills the data area exactly).
///
/// # Panics
/// Panics if the records do not fit the data area or disagree in
/// dimensionality.
pub fn encode_page(
    records: &[Record],
    dim: usize,
    payload_bytes: usize,
    page_bytes: usize,
) -> Vec<u8> {
    let mut page = Vec::with_capacity(HEADER_BYTES + page_bytes);
    encode_page_into(records, dim, payload_bytes, page_bytes, &mut page);
    page
}

/// Appends the page [`encode_page`] returns to `out` — the form that lets a
/// writer lay consecutive blocks back to back in one reused buffer.
///
/// # Panics
/// As [`encode_page`].
pub fn encode_page_into(
    records: &[Record],
    dim: usize,
    payload_bytes: usize,
    page_bytes: usize,
    out: &mut Vec<u8>,
) {
    let rec_size = Record::encoded_size(dim, payload_bytes);
    assert!(
        records.len() * rec_size <= page_bytes,
        "{} records of {rec_size} bytes exceed page of {page_bytes}",
        records.len()
    );
    assert!(
        records.len() <= u16::MAX as usize,
        "too many records for header"
    );
    let start = out.len();
    out.resize(start + HEADER_BYTES + page_bytes, 0);
    let page = &mut out[start..];
    page[0..2].copy_from_slice(&(records.len() as u16).to_le_bytes());
    page[2..4].copy_from_slice(&(dim as u16).to_le_bytes());
    let mut off = HEADER_BYTES;
    for r in records {
        assert_eq!(r.point.dim(), dim, "record dimensionality mismatch");
        page[off..off + 8].copy_from_slice(&r.id.to_le_bytes());
        off += 8;
        for k in 0..dim {
            page[off..off + 8].copy_from_slice(&r.point.get(k).to_le_bytes());
            off += 8;
        }
        off += payload_bytes; // payload left zeroed
    }
}

/// Reads and checks a page header: `(record_count, dim, record_size)`.
///
/// # Panics
/// Panics if the page is malformed (short page, impossible header).
fn read_header(page: &[u8], payload_bytes: usize) -> (usize, usize, usize) {
    assert!(page.len() >= HEADER_BYTES, "page shorter than header");
    let n = u16::from_le_bytes([page[0], page[1]]) as usize;
    let dim = u16::from_le_bytes([page[2], page[3]]) as usize;
    let rec_size = Record::encoded_size(dim, payload_bytes);
    assert!(
        HEADER_BYTES + n * rec_size <= page.len(),
        "header claims {n} records of {rec_size} bytes in a {} byte page",
        page.len()
    );
    (n, dim, rec_size)
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("slice is 8 bytes"))
}

/// Decodes a page produced by [`encode_page`].
///
/// # Panics
/// Panics if the page is malformed (short page, impossible header).
pub fn decode_page(page: &[u8], payload_bytes: usize) -> Vec<Record> {
    let (n, dim, rec_size) = read_header(page, payload_bytes);
    let mut out = Vec::with_capacity(n);
    for rec in page[HEADER_BYTES..HEADER_BYTES + n * rec_size].chunks_exact(rec_size) {
        let mut coords = [0.0f64; MAX_DIM];
        for (k, c) in coords.iter_mut().take(dim).enumerate() {
            *c = f64::from_bits(u64_at(rec, 8 + 8 * k));
        }
        out.push(Record::new(u64_at(rec, 0), Point::new(&coords[..dim])));
    }
    out
}

/// Appends to `out` the records of `page` that lie in the closed box
/// `query`, in page order, and returns how many records the page holds
/// (the number scanned). Equivalent to [`decode_page`] followed by
/// [`Rect::contains_closed`] on each record, without building the records
/// that miss: coordinates are compared where they sit in the block.
///
/// # Panics
/// Panics where [`decode_page`] would (short page, impossible header), and
/// when a non-empty page's dimensionality differs from the query's.
pub fn scan_page(page: &[u8], payload_bytes: usize, query: &Rect, out: &mut Vec<Record>) -> usize {
    let (n, dim, rec_size) = read_header(page, payload_bytes);
    if n == 0 {
        return 0;
    }
    assert!(
        (1..=MAX_DIM).contains(&dim),
        "page dimensionality must be in 1..={MAX_DIM}, got {dim}"
    );
    assert_eq!(dim, query.dim(), "page and query dimensionality differ");
    let body = &page[HEADER_BYTES..HEADER_BYTES + n * rec_size];
    match dim {
        1 => scan_body::<1>(body, rec_size, query, out),
        2 => scan_body::<2>(body, rec_size, query, out),
        3 => scan_body::<3>(body, rec_size, query, out),
        4 => scan_body::<4>(body, rec_size, query, out),
        5 => scan_body::<5>(body, rec_size, query, out),
        6 => scan_body::<6>(body, rec_size, query, out),
        d => unreachable!("checked above: {d}"),
    }
    n
}

/// The record loop of [`scan_page`] at a fixed dimensionality `D`: every
/// record's `D` coordinates are read at fixed offsets and all of them are
/// tested, without a branch per coordinate.
fn scan_body<const D: usize>(body: &[u8], rec_size: usize, query: &Rect, out: &mut Vec<Record>) {
    let lo: &[f64; D] = query.lo().coords().try_into().expect("query has D dims");
    let hi: &[f64; D] = query.hi().coords().try_into().expect("query has D dims");
    for rec in body.chunks_exact(rec_size) {
        let (id, fields) = rec.split_first_chunk::<8>().expect("a record holds its id");
        let fields: &[[u8; 8]; D] = fields.as_chunks::<8>().0[..D]
            .try_into()
            .expect("a record holds D coordinates");
        let mut coords = [0.0f64; MAX_DIM];
        let mut inside = true;
        for k in 0..D {
            let x = f64::from_le_bytes(fields[k]);
            // The comparison `contains_closed` makes, so NaN and boundary
            // coordinates get the same verdict.
            inside &= !(x < lo[k] || x > hi[k]);
            coords[k] = x;
        }
        if inside {
            out.push(Record::new(
                u64::from_le_bytes(*id),
                Point::from_padded(coords, D),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(i, Point::new3(i as f64, i as f64 * 0.5, -(i as f64))))
            .collect()
    }

    #[test]
    fn roundtrip() {
        let recs = sample_records(10);
        let page = encode_page(&recs, 3, 16, 4096);
        assert_eq!(page.len(), HEADER_BYTES + 4096);
        let back = decode_page(&page, 16);
        assert_eq!(back, recs);
    }

    #[test]
    fn empty_page() {
        let page = encode_page(&[], 2, 0, 512);
        let back = decode_page(&page, 0);
        assert!(back.is_empty());
    }

    #[test]
    fn full_page_exact_fit() {
        // Data area of exactly 4 records of dim 2, no payload.
        let recs: Vec<Record> = (0..4)
            .map(|i| Record::new(i, Point::new2(i as f64, 0.0)))
            .collect();
        let page = encode_page(&recs, 2, 0, 4 * 24);
        assert_eq!(decode_page(&page, 0), recs);
        assert_eq!(page.len(), HEADER_BYTES + 4 * 24);
    }

    #[test]
    #[should_panic(expected = "exceed page")]
    fn overflow_rejected() {
        let recs = sample_records(100);
        let _ = encode_page(&recs, 3, 16, 512);
    }

    #[test]
    #[should_panic(expected = "header claims")]
    fn truncated_page_rejected() {
        let recs = sample_records(10);
        let page = encode_page(&recs, 3, 0, 4096);
        let _ = decode_page(&page[..64], 0);
    }

    #[test]
    fn payload_bytes_are_zero() {
        let recs = sample_records(2);
        let page = encode_page(&recs, 3, 8, 4096);
        // Payload of first record sits right after its coords.
        let start = HEADER_BYTES + 8 + 24;
        assert!(page[start..start + 8].iter().all(|&b| b == 0));
    }

    #[test]
    fn negative_and_special_coords_roundtrip() {
        let recs = vec![
            Record::new(1, Point::new2(-1234.5678, 0.0)),
            Record::new(2, Point::new2(f64::MIN_POSITIVE, 1e300)),
        ];
        let page = encode_page(&recs, 2, 0, 1024);
        assert_eq!(decode_page(&page, 0), recs);
    }
}
