//! `Wal::replay` and `GridFile::from_bytes` accept and reject exactly the
//! inputs they always have.
//!
//! Seeded corpora: valid logs and images, every truncation and every
//! single-bit flip of each, and 2,000 arbitrary byte strings. One flipped
//! bit never survives a CRC-32, so each corpus also tries its flips with
//! the checksum out of the way — WAL records re-sealed, images with the CRC
//! flag cleared and the footer dropped — so they reach the structural
//! checks behind it. Each input's verdict (the decoded value re-encoded, a
//! rejection, or a panic; error text is not compared) is folded with its
//! index into an FNV-1a digest, pinned below from the decoders as they were
//! before they moved onto the shared codec.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pargrid_geom::{Point, Rect};
use pargrid_gridfile::{crc32, GridConfig, GridFile, Record, Wal, WalOp};

/// Arbitrary byte strings per corpus.
const ARBITRARY: usize = 2_000;

/// SplitMix64: the corpora's one source of arbitrary bytes.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_bytes(s: &mut u64, len: usize) -> Vec<u8> {
    (0..len).map(|_| splitmix(s) as u8).collect()
}

/// `valid`, every truncation of it and every single-bit flip of it.
fn mutations(valid: &[u8], out: &mut Vec<Vec<u8>>) {
    out.push(valid.to_vec());
    for cut in 0..valid.len() {
        out.push(valid[..cut].to_vec());
    }
    for bit in 0..8 * valid.len() {
        let mut flipped = valid.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        out.push(flipped);
    }
}

/// Recomputes the CRC-32 trailer over everything before it.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len();
    let crc = crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

/// What a decoder made of one input.
enum Verdict {
    Ok(Vec<u8>),
    Err,
    Panic,
}

/// FNV-1a over `(index, verdict)` and the count of each verdict.
fn digest(verdicts: impl Iterator<Item = Verdict>) -> (u64, [usize; 3]) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut counts = [0; 3];
    for (i, v) in verdicts.enumerate() {
        eat(&(i as u64).to_le_bytes());
        match v {
            Verdict::Ok(bytes) => {
                counts[0] += 1;
                eat(&[1]);
                eat(&(bytes.len() as u64).to_le_bytes());
                eat(&bytes);
            }
            Verdict::Err => {
                counts[1] += 1;
                eat(&[0]);
            }
            Verdict::Panic => {
                counts[2] += 1;
                eat(&[2]);
            }
        }
    }
    (h, counts)
}

fn check(what: &str, got: (u64, [usize; 3]), pinned: (u64, [usize; 3])) {
    println!("{what}: ({:#018x}, {:?})", got.0, got.1);
    assert_eq!(got, pinned, "{what} verdicts moved");
}

#[test]
fn wal_replay_verdicts_are_pinned() {
    let logs = [
        vec![
            WalOp::Insert(Record::new(1, Point::new2(10.0, 20.0))),
            WalOp::Insert(Record::new(2, Point::new2(30.0, 40.0))),
            WalOp::Delete {
                id: 1,
                point: Point::new2(10.0, 20.0),
            },
        ],
        vec![
            WalOp::Insert(Record::new(7, Point::new3(1.5, -2.0, 0.25))),
            WalOp::Delete {
                id: 7,
                point: Point::new3(1.5, -2.0, 0.25),
            },
        ],
    ];
    let mut inputs = Vec::new();
    for ops in &logs {
        let log: Vec<u8> = ops.iter().flat_map(WalOp::encode).collect();
        mutations(&log, &mut inputs);
        // Each record's op and payload bits flipped and the record
        // re-sealed, so the flip reaches the structural checks.
        let mut start = 0;
        for op in ops {
            let len = op.encode().len();
            for bit in 8 * 4..8 * (len - 4) {
                let mut flipped = log.clone();
                let record = &mut flipped[start..start + len];
                record[bit / 8] ^= 1 << (bit % 8);
                reseal(record);
                inputs.push(flipped);
            }
            start += len;
        }
    }
    let mut s = 0xC0DE_0101u64;
    for i in 0..ARBITRARY {
        let r = splitmix(&mut s);
        if i % 2 == 0 {
            inputs.push(random_bytes(&mut s, (r % 96) as usize));
            continue;
        }
        // A sealed record around a random body: tag 0..3, dim 0..5, and a
        // length that is sometimes off by one from what the dim needs.
        let dim = (r >> 8) % 6;
        let jitter = [0i64, 0, 0, 1, -1][((r >> 16) % 5) as usize];
        let body_len = (11 + 8 * dim as i64 + jitter).max(1) as usize;
        let mut body = random_bytes(&mut s, body_len);
        body[0] = ((r >> 24) % 4) as u8;
        if body.len() >= 11 {
            body[9..11].copy_from_slice(&(dim as u16).to_le_bytes());
        }
        let mut record = (body_len as u32).to_le_bytes().to_vec();
        record.extend_from_slice(&body);
        record.extend_from_slice(&[0; 4]);
        reseal(&mut record);
        inputs.push(record);
    }

    let dir = std::env::temp_dir().join(format!("pargrid-wal-verdicts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("wal.log");
    let got = digest(inputs.iter().map(|bytes| {
        std::fs::write(&path, bytes).expect("write log");
        let replay = Wal::replay(&path).expect("replay reads the file");
        let mut out = replay.valid_bytes.to_le_bytes().to_vec();
        out.push(replay.torn as u8);
        for op in &replay.ops {
            out.extend_from_slice(&op.encode());
        }
        Verdict::Ok(out)
    }));
    let _ = std::fs::remove_dir_all(&dir);
    check("Wal::replay", got, WAL);
}

/// A bulk-loaded file of `n` pseudo-random records in `dim` dimensions.
fn sample(n: u64, dim: usize) -> GridFile {
    let domain = match dim {
        2 => Rect::new2(0.0, 0.0, 100.0, 100.0),
        _ => Rect::new(Point::new3(0.0, 0.0, 0.0), Point::new3(8.0, 8.0, 8.0)),
    };
    let mut x = 9u64;
    let records = (0..n).map(|i| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let c = |shift: u32| ((x >> shift) % 800) as f64 / 100.0;
        let point = match dim {
            2 => Point::new2(c(16) * 12.0, c(40) * 12.0),
            _ => Point::new3(c(8), c(24), c(40)),
        };
        Record::new(i, point)
    });
    GridFile::bulk_load(GridConfig::with_capacity(domain, 4), records)
}

#[test]
fn image_verdicts_are_pinned() {
    let images = [
        GridFile::new(GridConfig::with_capacity(Rect::new2(0.0, 0.0, 1.0, 1.0), 4)).to_bytes(),
        sample(60, 2).to_bytes(),
        sample(40, 3).to_bytes(),
    ];
    let mut inputs = Vec::new();
    for image in &images {
        mutations(image, &mut inputs);
        // The same image as a pre-footer writer left it: CRC flag clear,
        // no footer, so every flip meets the structural checks.
        let mut legacy = image[..image.len() - 4].to_vec();
        legacy[6] = 0;
        legacy[7] = 0;
        mutations(&legacy, &mut inputs);
    }
    let mut s = 0xC0DE_0102u64;
    for i in 0..ARBITRARY {
        let r = splitmix(&mut s);
        let mut bytes = Vec::new();
        if i % 2 == 1 {
            // A plausible unsealed header ahead of the random tail.
            bytes.extend_from_slice(b"PGF1");
            bytes.extend_from_slice(&((r % 4) as u16).to_le_bytes());
            bytes.extend_from_slice(&0u16.to_le_bytes());
        }
        bytes.extend(random_bytes(&mut s, ((r >> 8) % 160) as usize));
        inputs.push(bytes);
    }

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let verdicts: Vec<Verdict> = inputs
        .iter()
        .map(
            |bytes| match catch_unwind(AssertUnwindSafe(|| GridFile::from_bytes(bytes))) {
                Ok(Ok(gf)) => Verdict::Ok(gf.to_bytes()),
                Ok(Err(_)) => Verdict::Err,
                Err(_) => Verdict::Panic,
            },
        )
        .collect();
    std::panic::set_hook(hook);
    check("GridFile::from_bytes", digest(verdicts.into_iter()), IMAGE);
}

const WAL: (u64, [usize; 3]) = (0x9008_eb88_99f7_c65e, [4929, 0, 0]);
const IMAGE: (u64, [usize; 3]) = (0xd44a_c773_0e79_017b, [23598, 47633, 147]);
