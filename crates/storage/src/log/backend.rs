//! The filesystem seam: the file and directory operations the log code
//! performs, and the log directory handle they hang off.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An open log file handle that writes sequentially from its position. The
/// writer side of [`LogBackend`]: everything
/// [`SegmentWriter`](super::SegmentWriter) does to a file goes through
/// this object so a fault-injecting backend can interpose on each byte.
pub trait LogFile: Send {
    /// Writes `buf` in full at the handle's position (or fails; a fault
    /// backend may persist a prefix before failing, modeling a torn write).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes, zero-fills the file from its current length up to `len`
    /// bytes without moving the write position, then forces data and size
    /// to stable media with one `fdatasync`. Writes below `len` afterwards
    /// overwrite blocks the file already owns, so syncing them commits no
    /// size change.
    fn preallocate(&mut self, len: u64) -> io::Result<()>;
    /// Pushes buffered bytes to the OS without forcing them to media.
    fn flush(&mut self) -> io::Result<()>;
    /// Flushes, then hands out the barrier that forces every byte written
    /// so far to stable media. The barrier does not borrow the file: its
    /// owner keeps appending (behind whatever lock serializes the appends)
    /// while another thread waits out the device.
    fn barrier(&mut self) -> io::Result<FileBarrier>;
    /// Flushes, then forces file data to stable media (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()> {
        self.barrier()?.wait()
    }
}

/// The `fdatasync` half of [`LogFile::barrier`], detached from the handle
/// it was taken from. It covers the bytes the file held when it was taken;
/// later appends may or may not ride along.
pub struct FileBarrier(Arc<File>);

impl FileBarrier {
    /// Blocks until the covered bytes are on stable media.
    pub fn wait(&self) -> io::Result<()> {
        self.0.sync_data()
    }
}

/// The filesystem seam under `bamboo_storage::log`: every directory scan,
/// open, read, truncate and delete the segment/checkpoint code performs is
/// routed through this trait, so tests can substitute a deterministic
/// fault-injecting implementation ([`FaultBackend`](super::FaultBackend)) for the real one
/// ([`RealBackend`]).
pub trait LogBackend: Send + Sync + fmt::Debug {
    /// `mkdir -p`.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) of `dir`'s entries.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates (or truncates) `path` for writing from scratch.
    fn create(&self, path: &Path) -> io::Result<Box<dyn LogFile>>;
    /// Opens an existing `path` positioned for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn LogFile>>;
    /// Current on-disk length of `path`.
    fn file_len(&self, path: &Path) -> io::Result<u64>;
    /// Reads `path` in full.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Shrinks `path` to `len` bytes and syncs the new length to media.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Removes `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The production [`LogBackend`]: `std::fs`, with buffered writers.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealBackend;

/// The file sits behind an `Arc` so a [`FileBarrier`] can outlive the
/// borrow of the writer that took it.
struct RealFile(BufWriter<Arc<File>>);

/// The zero-fill source of [`LogFile::preallocate`]: 64 KiB of the program
/// image, mapped once. Not a heap buffer: one allocated per segment is
/// freed and made again at every rotation, and the allocator keeps the
/// pages (a 1 MiB buffer raised `durable_transfer`'s `loaded_rss_mb` by
/// 1.8 MiB).
static ZERO_BLOCK: [u8; 64 << 10] = [0; 64 << 10];

impl LogFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn preallocate(&mut self, len: u64) -> io::Result<()> {
        self.0.flush()?;
        let file = self.0.get_ref();
        let mut at = file.metadata()?.len();
        while at < len {
            let n = (len - at).min(ZERO_BLOCK.len() as u64);
            file.write_all_at(&ZERO_BLOCK[..n as usize], at)?;
            at += n;
        }
        file.sync_data()
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }

    fn barrier(&mut self) -> io::Result<FileBarrier> {
        self.0.flush()?;
        Ok(FileBarrier(Arc::clone(self.0.get_ref())))
    }
}

impl LogBackend for RealBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            out.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(out)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(path)?;
        Ok(Box::new(RealFile(BufWriter::new(Arc::new(file)))))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(RealFile(BufWriter::new(Arc::new(file)))))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// One log directory behind one [`LogBackend`]: the handle every segment
/// and checkpoint file operation hangs off, so callers above this module
/// never thread a `(backend, dir)` pair. [`LogDir::real`] is the production
/// spelling; the chaos suite builds one over a [`FaultBackend`](super::FaultBackend).
#[derive(Clone, Debug)]
pub struct LogDir {
    pub(super) path: PathBuf,
    pub(super) backend: Arc<dyn LogBackend>,
}

impl LogDir {
    /// `path` accessed through `backend`.
    pub fn new(path: impl Into<PathBuf>, backend: Arc<dyn LogBackend>) -> Self {
        LogDir {
            path: path.into(),
            backend,
        }
    }

    /// `path` on the real filesystem.
    pub fn real(path: impl Into<PathBuf>) -> Self {
        Self::new(path, Arc::new(RealBackend))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}
