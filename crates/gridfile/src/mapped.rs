//! A file written with positioned writes and read through one shared,
//! read-only memory mapping: the owning type under the parallel engine's
//! file-backed block store.
//!
//! [`MappedFile::read_at`] borrows the bytes straight out of the page cache:
//! no syscall, no buffer, no copy. Writes go through the file
//! ([`MappedFile::write_at`], a positioned write), and a `MAP_SHARED`
//! mapping shows every completed write, so a read after a write sees the
//! written bytes. Writes take `&mut self` and reads `&self`, and reads
//! reach only the written prefix, so no write in this process can overlap
//! a live borrow and no read reaches a page past the end of the file.
//!
//! The mapping runs past the end of the file. It is replaced only when a
//! write would end beyond it, by one of the next power of two of the
//! needed length and at least 1 MiB, so a file built by appends is
//! remapped a logarithmic number of times.
//!
//! **The file is private to its owner.** Another process that truncates or
//! rewrites it while it is mapped is outside the contract: a read of a
//! page cut off by a truncation faults (`SIGBUS`), as with any mapping, and
//! so does a read whose page the kernel cannot fetch from the device, where
//! a positioned read would have returned an error. [`MappedFile::create`]
//! unlinks any file already at its path before creating a fresh one, so a
//! second `MappedFile` at the same path never truncates one still mapped.
//!
//! The mapping is used on 64-bit Unix; other targets read with a positioned
//! read into a fresh buffer.

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// Smallest mapping made, in bytes.
const MIN_MAP_BYTES: usize = 1 << 20;

/// A private file of written bytes, read through a shared mapping on
/// 64-bit Unix.
pub struct MappedFile {
    file: File,
    /// Bytes written: the end of the furthest write that succeeded.
    len: usize,
    map: sys::Map,
}

impl MappedFile {
    /// Creates an empty file at `path`, unlinking any file already there.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref();
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(MappedFile {
            file,
            len: 0,
            map: sys::Map::new(),
        })
    }

    /// Writes all of `bytes` at `offset`, growing the written length when
    /// the write ends past it. The mapping is grown first, so a failed
    /// remap leaves the file as it was.
    pub fn write_at(&mut self, bytes: &[u8], offset: u64) -> io::Result<()> {
        let end = usize::try_from(offset)
            .ok()
            .and_then(|o| o.checked_add(bytes.len()))
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "write past usize"))?;
        self.map.cover(&self.file, end)?;
        write_all_at(&self.file, bytes, offset)?;
        self.len = self.len.max(end);
        Ok(())
    }

    /// The `len` bytes at `offset`, which must lie in the written prefix
    /// (`io::ErrorKind::UnexpectedEof` otherwise). Borrowed from the
    /// mapping on 64-bit Unix; read into a fresh buffer elsewhere.
    pub fn read_at(&self, offset: u64, len: usize) -> io::Result<Cow<'_, [u8]>> {
        let range = usize::try_from(offset)
            .ok()
            .and_then(|o| Some(o..o.checked_add(len)?))
            .filter(|r| r.end <= self.len)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("{len} bytes at {offset} pass the written {}", self.len),
                )
            })?;
        self.map.read(&self.file, self.len, range)
    }
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

#[cfg(not(unix))]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(buf)
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    //! The mapping: `mmap(2)` and `munmap(2)` declared by hand (64-bit
    //! Unix, where `off_t` is `i64`, and `PROT_READ` and `MAP_SHARED` are 1
    //! on every target this builds for).
    use std::borrow::Cow;
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::ops::Range;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_SHARED: c_int = 1;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A read-only shared mapping of a file's first `len` bytes (none while
    /// `len` is 0).
    pub(super) struct Map {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is read-only memory owned by this value alone.
    // `&self` only reads it, and it is unmapped only through `&mut self`
    // (`cover`) or `drop`, so moving it to another thread or reading it
    // from several at once is as sound as for a `Box<[u8]>`.
    unsafe impl Send for Map {}
    // SAFETY: as for `Send`.
    unsafe impl Sync for Map {}

    impl Map {
        pub(super) fn new() -> Self {
            Map {
                ptr: std::ptr::NonNull::dangling().as_ptr(),
                len: 0,
            }
        }

        /// Makes the mapping reach at least `end` bytes of `file`.
        pub(super) fn cover(&mut self, file: &File, end: usize) -> io::Result<()> {
            if end <= self.len {
                return Ok(());
            }
            let len = end
                .checked_next_power_of_two()
                .unwrap_or(end)
                .max(super::MIN_MAP_BYTES);
            // SAFETY: a fresh read-only shared mapping at an address of the
            // kernel's choosing aliases no Rust object; `file`'s descriptor
            // is open for reading for the whole call. Mapping past the end
            // of the file is allowed; those pages are never read (`read`
            // stays inside the written prefix, which the file holds).
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            self.unmap();
            self.ptr = ptr as *const u8;
            self.len = len;
            Ok(())
        }

        /// The bytes in `range`, borrowed. `written` bytes of the file are
        /// written and mapped, and `range` lies inside them.
        pub(super) fn read(
            &self,
            _file: &File,
            written: usize,
            range: Range<usize>,
        ) -> io::Result<Cow<'_, [u8]>> {
            assert!(written <= self.len, "written bytes are mapped");
            // SAFETY: `ptr` is either dangling with `written == 0` (an empty
            // slice), or a live read-only mapping of `self.len >= written`
            // bytes whose first `written` lie inside the file. The slice
            // borrows `self`, and the mapping changes only through
            // `&mut self`, so it outlives every borrow. The file is private
            // to its owner (module docs), so nothing truncates it under the
            // borrow.
            let bytes = unsafe { std::slice::from_raw_parts(self.ptr, written) };
            Ok(Cow::Borrowed(&bytes[range]))
        }

        fn unmap(&mut self) {
            if self.len > 0 {
                // SAFETY: `ptr`/`len` are a live mapping made by `cover`,
                // unmapped once: `len` is reset below, and no borrow of it
                // outlives the `&mut self` this runs under.
                unsafe { munmap(self.ptr as *mut c_void, self.len) };
                self.len = 0;
            }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            self.unmap();
        }
    }
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
mod sys {
    //! No mapping: reads are positioned reads into a fresh buffer.
    use std::borrow::Cow;
    use std::fs::File;
    use std::io;
    use std::ops::Range;

    pub(super) struct Map;

    impl Map {
        pub(super) fn new() -> Self {
            Map
        }

        pub(super) fn cover(&mut self, _file: &File, _end: usize) -> io::Result<()> {
            Ok(())
        }

        pub(super) fn read(
            &self,
            file: &File,
            _written: usize,
            range: Range<usize>,
        ) -> io::Result<Cow<'_, [u8]>> {
            let mut buf = vec![0; range.len()];
            read_exact_at(file, &mut buf, range.start as u64)?;
            Ok(Cow::Owned(buf))
        }
    }

    #[cfg(unix)]
    fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }

    #[cfg(not(unix))]
    fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pargrid_mapped_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn reads_stop_at_the_written_prefix() {
        let dir = scratch("prefix");
        let mut f = MappedFile::create(dir.join("f.bin")).expect("create");
        assert_eq!(&*f.read_at(0, 0).expect("empty read"), &[] as &[u8]);
        f.write_at(&[1, 2, 3, 4], 0).expect("write");
        assert_eq!(&*f.read_at(2, 2).expect("inside"), &[3, 4]);
        for (offset, len) in [(2, 3), (5, 0), (u64::MAX, 1)] {
            let err = f.read_at(offset, len).expect_err("past the prefix");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_leaves_a_mapped_file_at_the_same_path_intact() {
        let dir = scratch("recreate");
        let path = dir.join("f.bin");
        let mut first = MappedFile::create(&path).expect("create");
        first.write_at(&[5; 8192], 0).expect("write");
        let mut second = MappedFile::create(&path).expect("recreate");
        second.write_at(&[6; 16], 0).expect("write");
        assert_eq!(&*first.read_at(4096, 8).expect("old bytes"), &[5; 8]);
        assert_eq!(std::fs::read(&path).expect("new file"), vec![6; 16]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
