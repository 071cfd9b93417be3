//! CRC-32 (IEEE 802.3 polynomial, zlib-compatible): the one checksum under
//! every stored and wire byte.
//!
//! Six users, one kernel: the persisted grid-file image footer
//! ([`crate::persist`]), every WAL record ([`crate::wal`]), the parallel
//! engine's block stores (recorded on write, verified on **every** block
//! read), the wire frame trailer in `pargrid-net` (computed on encode,
//! verified on decode), the cluster codec that rides on those frames, and
//! the cluster worker's durable voter-state file. A large range query
//! checksums about a megabyte (each block it reads, then its reply once on
//! the server and once on the client), so the checksum has to run at memory
//! speed or it *is* the query's CPU time.
//!
//! Two surfaces over the same state:
//! - [`crc32`] — one-shot over a slice.
//! - [`Crc32`] — streaming `update`/`finish`, for bytes that arrive in
//!   pieces (a frame's header then its payload chunks) so nothing is copied
//!   together just to be summed. Any split of the input gives the one-shot
//!   value.
//!
//! Two kernels, chosen once per process at first use from what the CPU
//! reports — never by a knob, environment variable or cargo feature:
//! - **slice-by-16** (portable, safe): sixteen compile-time tables fold 16
//!   input bytes per step instead of one, ≈ 5× the bytewise loop.
//! - **carry-less-multiply folding** (x86_64 with `pclmulqdq` + `sse4.1`):
//!   four 128-bit lanes folded 64 bytes per step, then reduced to 32 bits by
//!   Barrett reduction (Gopal et al., "Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ"); ≥ 64-byte inputs only, the tail and
//!   short inputs go through slice-by-16.
//!
//! Every kernel maps a raw (pre-inversion) state and a byte slice to the
//! next raw state, so they are interchangeable mid-stream. All of them are
//! differentially tested against the bytewise reference kept under
//! `#[cfg(test)]`: stored sums and wire trailers are bit-identical to what
//! the one-table loop produced.

use std::sync::OnceLock;

/// Reflected CRC-32 polynomial (IEEE 802.3 / zlib / PNG).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the raw CRC of byte `b` followed by `k` zero bytes;
/// `TABLES[0]` is the classic one-byte-at-a-time table.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// A checksum kernel: raw state in, bytes, raw state out.
type Kernel = fn(u32, &[u8]) -> u32;

/// The portable kernel: slice-by-16 over whole 16-byte groups, one table
/// lookup per byte for the remainder.
pub(crate) fn update_portable(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut groups = bytes.chunks_exact(16);
    for g in &mut groups {
        let head = u32::from_le_bytes([g[0], g[1], g[2], g[3]]) ^ crc;
        crc = TABLES[15][(head & 0xFF) as usize]
            ^ TABLES[14][((head >> 8) & 0xFF) as usize]
            ^ TABLES[13][((head >> 16) & 0xFF) as usize]
            ^ TABLES[12][(head >> 24) as usize]
            ^ TABLES[11][g[4] as usize]
            ^ TABLES[10][g[5] as usize]
            ^ TABLES[9][g[6] as usize]
            ^ TABLES[8][g[7] as usize]
            ^ TABLES[7][g[8] as usize]
            ^ TABLES[6][g[9] as usize]
            ^ TABLES[5][g[10] as usize]
            ^ TABLES[4][g[11] as usize]
            ^ TABLES[3][g[12] as usize]
            ^ TABLES[2][g[13] as usize]
            ^ TABLES[1][g[14] as usize]
            ^ TABLES[0][g[15] as usize];
    }
    for &b in groups.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The hardware kernel, if this CPU has one. Detection lives here so that
/// no caller can reach the `target_feature` code on a CPU without it.
#[cfg(target_arch = "x86_64")]
pub(crate) fn hardware_kernel() -> Option<Kernel> {
    fn update_clmul_checked(crc: u32, bytes: &[u8]) -> u32 {
        // SAFETY: this fn is only ever handed out by `hardware_kernel`
        // below, after `is_x86_feature_detected!` confirmed every feature
        // `clmul::update` is compiled for.
        unsafe { clmul::update(crc, bytes) }
    }
    let available = is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("sse4.1");
    available.then_some(update_clmul_checked as Kernel)
}

/// No hardware kernel on this architecture: slice-by-16 is the kernel.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn hardware_kernel() -> Option<Kernel> {
    None
}

/// The process-wide kernel, picked on first use.
fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| hardware_kernel().unwrap_or(update_portable))
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    //! Carry-less-multiply folding, bit-reflected domain. Constants are the
    //! IEEE-polynomial values from Gopal et al. (the same ones zlib and
    //! Chromium use): `K1/K2` fold a lane 512 bits forward, `K3/K4` fold 128
    //! bits forward, `K5` folds 64 → 32, `P_X`/`U_PRIME` are the polynomial
    //! and its Barrett inverse.
    use std::arch::x86_64::*;

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Four 16-byte lanes are folded per step; inputs shorter than one
    /// step go to the portable kernel whole.
    const FOLD_BLOCK: usize = 64;

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(lane: &[u8]) -> __m128i {
        assert_eq!(lane.len(), 16);
        // SAFETY: `lane` is a live slice of exactly 16 bytes (asserted), and
        // `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Folds `acc` forward over `next`: `acc.lo·keys.lo ⊕ acc.hi·keys.hi ⊕ next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// # Safety
    /// The CPU must support `pclmulqdq`, `sse2` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < FOLD_BLOCK {
            return super::update_portable(crc, bytes);
        }
        let (first, rest) = bytes.split_at(FOLD_BLOCK);
        let mut x0 = _mm_xor_si128(load(&first[0..16]), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load(&first[16..32]);
        let mut x2 = load(&first[32..48]);
        let mut x3 = load(&first[48..64]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(FOLD_BLOCK);
        for b in &mut blocks {
            x0 = fold(x0, load(&b[0..16]), k1k2);
            x1 = fold(x1, load(&b[16..32]), k1k2);
            x2 = fold(x2, load(&b[32..48]), k1k2);
            x3 = fold(x3, load(&b[48..64]), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, x1, k3k4);
        x = fold(x, x2, k3k4);
        x = fold(x, x3, k3k4);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for l in &mut lanes {
            x = fold(x, load(l), k3k4);
        }

        // 128 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 → 32 bits.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::update_portable(crc, lanes.remainder())
    }
}

/// CRC-32 of `bytes` (IEEE polynomial, standard init/final XOR — matches
/// zlib's `crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Streaming CRC-32: feed the input in any number of pieces, get the value
/// [`crc32`] gives for their concatenation.
///
/// ```
/// use pargrid_gridfile::checksum::{crc32, Crc32};
/// let mut c = Crc32::new();
/// c.update(b"1234");
/// c.update(b"56789");
/// assert_eq!(c.finish(), crc32(b"123456789"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    /// Raw (pre-inversion) register.
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes yet.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds the next piece of the input.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = kernel()(self.state, bytes);
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table byte-at-a-time loop every kernel replaced, kept as the
    /// reference the differential tests compare against.
    fn update_bytewise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }

    /// Every kernel this host can run, by name.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut ks: Vec<(&'static str, Kernel)> = vec![("portable", update_portable)];
        if let Some(hw) = hardware_kernel() {
            ks.push(("hardware", hw));
        }
        ks
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn known_vectors_longer_than_a_fold_block() {
        // zlib.crc32 values; each input spans several 64-byte fold blocks
        // plus a ragged tail.
        let ramp: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for (name, k) in kernels() {
            let sum = |b: &[u8]| !k(!0, b);
            assert_eq!(sum(&[0u8; 4096]), 0xC71C_0011, "{name}");
            assert_eq!(sum(&[0xFFu8; 300]), 0x1C0A_1881, "{name}");
            assert_eq!(sum(&ramp), 0x7217_46A6, "{name}");
            assert_eq!(
                sum(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339,
                "{name}"
            );
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0xA5u8; 4096];
        let base = crc32(&data);
        for pos in [0usize, 1, 100, 4095] {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[pos] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at {pos}:{bit} undetected");
            }
        }
    }

    #[test]
    fn every_kernel_matches_bytewise_at_every_length_and_alignment() {
        // One buffer, every start alignment 0..64 over it. The reference for
        // a start is built incrementally (prefix[len] = one more byte), so
        // the cost is the kernels' alone: every length to 1024 at every
        // start, every length to 8192 at an aligned, an odd and the last
        // start (the kernels chunk relative to the slice, not the address,
        // so the long lengths add tails, not alignments).
        let buf = noise(64 + 8192, 0x9E37_79B9_7F4A_7C15);
        for start in 0..64 {
            let max_len = if matches!(start, 0 | 1 | 63) {
                8192
            } else {
                1024
            };
            let mut reference = !0u32;
            for len in 0..=max_len {
                let window = &buf[start..start + len];
                for (name, k) in kernels() {
                    assert_eq!(k(!0, window), reference, "{name} start {start} len {len}");
                }
                reference = update_bytewise(reference, &buf[start + len..start + len + 1]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernels_match_bytewise_from_any_state(
            seed in any::<u64>(),
            state in any::<u32>(),
            start in 0usize..64,
            len in 0usize..=8192,
        ) {
            let buf = noise(start + len, seed);
            let window = &buf[start..];
            for (name, k) in kernels() {
                prop_assert_eq!(k(state, window), update_bytewise(state, window), "{}", name);
            }
        }

        #[test]
        fn streaming_split_anywhere_matches_one_shot(
            seed in any::<u64>(),
            len in 0usize..=8192,
            cuts in prop::collection::vec(0usize..=8192, 0..6),
        ) {
            let buf = noise(len, seed);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut at = 0;
            for cut in cuts {
                c.update(&buf[at..cut]);
                at = cut;
            }
            c.update(&buf[at..]);
            prop_assert_eq!(c.finish(), crc32(&buf));
            prop_assert_eq!(crc32(&buf), !update_bytewise(!0, &buf));
        }
    }
}
