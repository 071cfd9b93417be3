//! Length-prefixed, CRC-32-trailered binary frames.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"PG"
//! 2       1     protocol version (currently 1)
//! 3       1     message type (see `proto`)
//! 4       4     payload length N (u32, <= MAX_PAYLOAD)
//! 8       N     payload
//! 8+N     4     CRC-32 (IEEE) over bytes [0, 8+N)
//! ```
//!
//! The checksum covers the header too, so a flipped type byte or length is
//! caught, not just payload corruption. Decoding is total: any byte
//! sequence maps to a [`Frame`] or a typed [`FrameError`] — never a panic
//! and never an allocation larger than [`MAX_PAYLOAD`].
//!
//! The checksum is the workspace's one CRC-32 kernel
//! (`pargrid_gridfile::checksum`). The encoder seals the finished wire
//! buffer in place with the codec's [`seal`] (`pargrid_gridfile::codec`,
//! the trailer every stored and sent format shares); the decoder streams the header and then the payload
//! through a [`Crc32`] where they landed — no second buffer is assembled
//! just to be summed. The decoder's payload buffer grows with the bytes
//! that actually arrive (64 KiB reserved up front), so a length prefix
//! alone commits no memory.

use std::fmt;
use std::io::{self, Read, Write};

use pargrid_gridfile::codec::seal;
use pargrid_gridfile::Crc32;

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = [b'P', b'G'];
/// Wire protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;
/// Upper bound on payload length; larger length prefixes are rejected
/// before any allocation (a hostile 4 GiB prefix must not OOM the server).
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;
/// Most the decoder reserves for a payload on the strength of the length
/// prefix alone; past it the buffer grows only as payload bytes arrive, so
/// an 8-byte hostile header cannot pin [`MAX_PAYLOAD`] per connection.
const PAYLOAD_RESERVE: usize = 64 * 1024;
/// Fixed header size: magic + version + type + length.
pub const HEADER_LEN: usize = 8;
/// CRC trailer size.
pub const TRAILER_LEN: usize = 4;

/// One decoded frame: a message type plus its raw payload. The payload is
/// interpreted by `proto`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Message type byte (request/response discriminant).
    pub msg_type: u8,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// Every way a frame can fail to decode. `Closed` is the one benign
/// variant: the peer hung up cleanly between frames.
///
/// `#[non_exhaustive]` (workspace error convention): downstream matches
/// carry a wildcard arm so new failure modes stay a minor change.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameError {
    /// Clean EOF at a frame boundary — the connection is simply done.
    Closed,
    /// EOF in the middle of a frame: the peer died or sent a short write.
    Truncated,
    /// First two bytes were not `b"PG"`.
    BadMagic([u8; 2]),
    /// Protocol version we do not speak.
    BadVersion(u8),
    /// Length prefix exceeded [`MAX_PAYLOAD`].
    Oversized(u32),
    /// An *outbound* payload exceeded [`MAX_PAYLOAD`], caught before the
    /// length header is stamped. Without this check a ≥ 4 GiB payload
    /// would silently truncate its `u32` length field and misframe every
    /// later message on the connection.
    TooLarge(u64),
    /// Checksum mismatch (header or payload corrupted in flight).
    BadCrc {
        /// CRC computed over the received bytes.
        expected: u32,
        /// CRC carried in the trailer.
        actual: u32,
    },
    /// Underlying socket error other than EOF.
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::Oversized(n) => {
                write!(f, "payload length {n} exceeds limit {MAX_PAYLOAD}")
            }
            FrameError::TooLarge(n) => {
                write!(
                    f,
                    "outbound payload of {n} bytes exceeds limit {MAX_PAYLOAD}"
                )
            }
            FrameError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "crc mismatch: computed {expected:#010x}, frame says {actual:#010x}"
                )
            }
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes a frame into a fresh byte vector. Fails with
/// [`FrameError::TooLarge`] when the payload exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(msg_type: u8, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    let mut b = FrameBuilder::with_capacity(payload.len());
    b.payload_mut().extend_from_slice(payload);
    b.finish(msg_type)
}

/// Zero-copy frame assembly: the payload is serialized **directly into the
/// wire buffer** after a reserved header, so encoding a response costs one
/// allocation and zero payload copies (`encode_frame` + the old
/// two-buffer `Response::encode` path cost two of each; the pair is
/// benchmarked in `benches/hotpath.rs` as `frame_encode/*`).
///
/// ```
/// use pargrid_net::frame::{read_frame, FrameBuilder};
/// let mut b = FrameBuilder::new();
/// b.payload_mut().extend_from_slice(&7u64.to_le_bytes());
/// let bytes = b.finish(0x03).unwrap();
/// assert_eq!(read_frame(&mut &bytes[..]).unwrap().msg_type, 0x03);
/// ```
#[derive(Debug)]
pub struct FrameBuilder {
    buf: Vec<u8>,
}

impl Default for FrameBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameBuilder {
    /// Starts a frame: reserves the 8-byte header slot. The header itself
    /// (magic, version, type, length) is written by [`FrameBuilder::finish`],
    /// so nothing a payload writer does can corrupt it.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Like [`FrameBuilder::new`] with a payload-size hint, so a known
    /// response size reaches the wire with exactly one allocation.
    pub fn with_capacity(payload_hint: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload_hint + TRAILER_LEN);
        buf.resize(HEADER_LEN, 0);
        FrameBuilder { buf }
    }

    /// The wire buffer positioned at the payload: **append only**. Bytes
    /// pushed here land directly in the final frame.
    pub fn payload_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Payload bytes written so far.
    pub fn payload_len(&self) -> usize {
        self.buf.len() - HEADER_LEN
    }

    /// Stamps the header, appends the CRC-32 trailer, and returns the
    /// complete wire bytes.
    ///
    /// Rejects payloads over [`MAX_PAYLOAD`] with [`FrameError::TooLarge`]
    /// **before** stamping the length: a payload of 4 GiB or more would
    /// otherwise wrap the `u32` length field (`len as u32` truncates) and
    /// emit a validly-checksummed frame whose length header lies — the
    /// receiver would then misparse every subsequent byte on the stream.
    pub fn finish(mut self, msg_type: u8) -> Result<Vec<u8>, FrameError> {
        let payload_len = (self.buf.len() - HEADER_LEN) as u64;
        if payload_len > MAX_PAYLOAD as u64 {
            return Err(FrameError::TooLarge(payload_len));
        }
        self.buf[0..2].copy_from_slice(&MAGIC);
        self.buf[2] = PROTOCOL_VERSION;
        self.buf[3] = msg_type;
        self.buf[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
        seal(&mut self.buf);
        Ok(self.buf)
    }
}

/// Encodes and writes one frame (no flush; callers batch then flush).
/// Fails with [`FrameError::TooLarge`] before writing a single byte when
/// the payload exceeds [`MAX_PAYLOAD`].
pub fn write_frame(w: &mut impl Write, msg_type: u8, payload: &[u8]) -> Result<(), FrameError> {
    w.write_all(&encode_frame(msg_type, payload)?)
        .map_err(FrameError::Io)
}

/// Reads exactly `buf.len()` bytes. Distinguishes "EOF before the first
/// byte" (clean close, only meaningful for the frame's first read) from
/// "EOF partway through" (truncation).
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    clean_eof: FrameError,
) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    clean_eof
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads exactly `len` payload bytes into `payload` (empty on entry),
/// growing it as they arrive rather than sizing it from `len`.
fn read_payload(r: &mut impl Read, len: usize, payload: &mut Vec<u8>) -> Result<(), FrameError> {
    payload.reserve_exact(len.min(PAYLOAD_RESERVE));
    // `read_to_end` retries `Interrupted` itself and stops at `len` bytes or
    // EOF, whichever comes first.
    let got = r.take(len as u64).read_to_end(payload)?;
    if got < len {
        return Err(FrameError::Truncated);
    }
    Ok(())
}

/// Reads and validates one frame. Any `&[u8]` works as the reader, so the
/// same code path serves sockets and in-memory fuzzing:
///
/// ```
/// use pargrid_net::frame::{encode_frame, read_frame};
/// let bytes = encode_frame(0x03, &7u64.to_le_bytes()).unwrap();
/// let frame = read_frame(&mut &bytes[..]).unwrap();
/// assert_eq!(frame.msg_type, 0x03);
/// ```
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(r, &mut header, FrameError::Closed)?;
    if header[0..2] != MAGIC {
        return Err(FrameError::BadMagic([header[0], header[1]]));
    }
    if header[2] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(header[2]));
    }
    let msg_type = header[3];
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = Vec::new();
    read_payload(r, len as usize, &mut payload)?;
    let mut trailer = [0u8; TRAILER_LEN];
    read_exact_or(r, &mut trailer, FrameError::Truncated)?;
    let actual = u32::from_le_bytes(trailer);
    // CRC over header + payload, exactly as `finish` computed it, each
    // summed where it was read.
    let mut crc = Crc32::new();
    crc.update(&header);
    crc.update(&payload);
    let expected = crc.finish();
    if expected != actual {
        return Err(FrameError::BadCrc { expected, actual });
    }
    Ok(Frame { msg_type, payload })
}

#[cfg(test)]
use pargrid_gridfile::crc32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let bytes = encode_frame(0x42, b"hello grid").unwrap();
        let frame = read_frame(&mut &bytes[..]).unwrap();
        assert_eq!(frame.msg_type, 0x42);
        assert_eq!(frame.payload, b"hello grid");
    }

    #[test]
    fn golden_frame_bytes() {
        // The wire bytes the bytewise-CRC build produced (trailer value
        // cross-checked against zlib): a kernel change must not move one.
        // 100 payload bytes, so the folding kernel is on the path.
        let payload: Vec<u8> = (0..100).collect();
        let mut expected = b"PG\x01\x42\x64\x00\x00\x00".to_vec();
        expected.extend_from_slice(&payload);
        expected.extend_from_slice(&0xEA9B_C24Du32.to_le_bytes());
        assert_eq!(encode_frame(0x42, &payload).unwrap(), expected);
        let frame = read_frame(&mut &expected[..]).unwrap();
        assert_eq!((frame.msg_type, frame.payload), (0x42, payload));
    }

    #[test]
    fn builder_matches_encode_frame_byte_for_byte() {
        let mut b = FrameBuilder::with_capacity(10);
        b.payload_mut().extend_from_slice(b"hello grid");
        assert_eq!(b.payload_len(), 10);
        assert_eq!(
            b.finish(0x42).unwrap(),
            encode_frame(0x42, b"hello grid").unwrap()
        );
        // Empty payload too.
        assert_eq!(
            FrameBuilder::new().finish(0x05).unwrap(),
            encode_frame(0x05, &[]).unwrap()
        );
    }

    #[test]
    fn builder_header_survives_hostile_payload_writer() {
        // A writer that scribbles over the reserved header slot cannot
        // produce a misframed message: finish() stamps the header last.
        let mut b = FrameBuilder::new();
        b.payload_mut()[0..8].copy_from_slice(&[0xff; 8]);
        b.payload_mut().extend_from_slice(b"abc");
        let bytes = b.finish(0x01).unwrap();
        let frame = read_frame(&mut &bytes[..]).unwrap();
        assert_eq!(frame.payload, b"abc");
    }

    #[test]
    fn oversized_payload_rejected_before_stamping() {
        // A payload-size-faking writer: pushes one byte past MAX_PAYLOAD.
        // finish() must refuse with the typed error instead of stamping a
        // (possibly truncated) length header — at 4 GiB the `as u32` cast
        // would wrap and every later frame on the stream would misparse.
        let mut b = FrameBuilder::with_capacity(0);
        b.payload_mut()
            .resize(HEADER_LEN + MAX_PAYLOAD as usize + 1, 0xAB);
        let err = b.finish(0x01).unwrap_err();
        assert!(
            matches!(err, FrameError::TooLarge(n) if n == MAX_PAYLOAD as u64 + 1),
            "unexpected {err}"
        );
        // The boundary itself is fine.
        let mut b = FrameBuilder::with_capacity(0);
        b.payload_mut().resize(HEADER_LEN + MAX_PAYLOAD as usize, 0);
        let bytes = b.finish(0x01).unwrap();
        let frame = read_frame(&mut &bytes[..]).unwrap();
        assert_eq!(frame.payload.len(), MAX_PAYLOAD as usize);
        // encode_frame and write_frame surface the same rejection.
        let big = vec![0u8; MAX_PAYLOAD as usize + 1];
        assert!(matches!(
            encode_frame(0x01, &big),
            Err(FrameError::TooLarge(_))
        ));
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, 0x01, &big),
            Err(FrameError::TooLarge(_))
        ));
        assert!(sink.is_empty(), "nothing written for a rejected frame");
    }

    #[test]
    fn empty_payload_round_trips() {
        let bytes = encode_frame(0x04, &[]).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + TRAILER_LEN);
        let frame = read_frame(&mut &bytes[..]).unwrap();
        assert_eq!(frame.payload, b"");
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_is_truncated() {
        assert!(matches!(read_frame(&mut &b""[..]), Err(FrameError::Closed)));
        let bytes = encode_frame(0x01, b"abc").unwrap();
        for cut in 1..bytes.len() {
            assert!(
                matches!(read_frame(&mut &bytes[..cut]), Err(FrameError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupted_byte_is_detected() {
        let bytes = encode_frame(0x01, b"abcdef").unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            let err = read_frame(&mut &bad[..]).unwrap_err();
            // Depending on which byte flips we may see magic/version/length
            // errors first, but never a successful decode.
            match err {
                FrameError::BadMagic(_)
                | FrameError::BadVersion(_)
                | FrameError::Oversized(_)
                | FrameError::Truncated
                | FrameError::BadCrc { .. } => {}
                other => panic!("byte {i}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn length_prefix_alone_commits_no_memory() {
        // A header that claims MAX_PAYLOAD and then hangs up: the typed
        // error is unchanged, and the payload buffer never grew past the
        // up-front reserve plus what actually arrived.
        let mut bytes = encode_frame(0x01, b"").unwrap();
        bytes.truncate(HEADER_LEN);
        bytes[4..8].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::Truncated)
        ));
        for arrived in [0usize, 100, 3 * PAYLOAD_RESERVE] {
            let sent = vec![0x5A; arrived];
            let mut payload = Vec::new();
            let err = read_payload(&mut &sent[..], MAX_PAYLOAD as usize, &mut payload).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "unexpected {err}");
            assert_eq!(payload, sent);
            assert!(
                payload.capacity() <= 2 * (PAYLOAD_RESERVE + arrived),
                "{arrived} bytes arrived, {} reserved",
                payload.capacity()
            );
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = encode_frame(0x01, b"x").unwrap();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::Oversized(u32::MAX))
        ));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = encode_frame(0x01, b"x").unwrap();
        bytes[2] = PROTOCOL_VERSION + 1;
        let crc = crc32(&bytes[..bytes.len() - TRAILER_LEN]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::BadVersion(v)) if v == PROTOCOL_VERSION + 1
        ));
    }
}
