//! Durable per-partition log segments and checkpoint files.
//!
//! This module is the **only** place in `bamboo_core`/`bamboo_storage` that
//! touches the filesystem (enforced by `bamboo_check`'s `file-io` rule): it
//! owns the on-disk record format, segment rotation, fsync policy, and the
//! checkpoint data files that recovery rebuilds the catalog from. Everything
//! above it — the `WalHandle` seam, the commit path, the recovery
//! orchestration — deals in [`WalRecord`]s and [`Lsn`]s, never in files.
//!
//! # Record framing
//!
//! Every record is framed as `[len: u32][crc32: u32][payload: len bytes]`
//! (little-endian). The CRC covers the payload only; a frame whose length
//! field runs past the segment or whose CRC mismatches marks the torn tail
//! of the log — the scan stops cleanly there instead of panicking, which is
//! exactly what a `kill -9` mid-append leaves behind. Every payload starts
//! with its kind byte, so no frame has a zero length word: a zero word
//! (or a zero remainder shorter than one) is where a segment's data ends,
//! cleanly, not a tear.
//!
//! The payload starts with a one-byte record kind:
//!
//! | kind | record       | body |
//! |------|--------------|------|
//! | 1    | `Begin`      | txn id, commit ts, partition mask |
//! | 2    | `Update`     | table, key, after-image row |
//! | 3    | `Insert`     | table, key, row, optional (index, skey) |
//! | 4    | `Commit`     | txn id, commit ts |
//! | 5    | `Checkpoint` | stable ts, per-partition cut LSNs |
//!
//! # LSNs and segments
//!
//! An [`Lsn`] is the logical byte offset of a frame in the partition's
//! *stream* of frames — segment headers don't count, so LSNs survive
//! rotation and name replay positions stably. Segment files are named
//! `wal-p{partition:03}-{index:08}.seg`; each opens with a fixed header
//! carrying magic, format version, partition id, segment index, the stream
//! LSN at which the segment starts, and the fsync policy the writer was
//! configured with (a header whose policy tag is retired or unknown does
//! not parse).
//!
//! A new segment is **preallocated**: zero-filled to header +
//! `segment_bytes` and synced once when it is created, so the commit path's
//! `fdatasync` overwrites blocks the file already owns and never changes
//! its size — on a journaling filesystem it has no size change to commit.
//! The active segment's file is therefore longer than its data; its data
//! ends at the first zero length word. A group that would not fit in the
//! rest of the segment rotates first (only a group larger than a whole
//! segment grows a file). Rotation trims the segment it seals, so a sealed
//! segment's file is exactly header + data, and reopening a log trims the
//! last segment the same way before writing resumes in a fresh one.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::partition::RouteStrategy;
use crate::row::Row;
use crate::schema::{DataType, Schema};
use crate::value::Value;

/// Logical byte offset in a partition's frame stream (segment headers
/// excluded).
pub type Lsn = u64;

/// Magic prefix of a WAL segment file.
const SEG_MAGIC: &[u8; 8] = b"BBWAL1\0\0";
/// Magic prefix of a checkpoint meta file.
const CKPT_META_MAGIC: &[u8; 8] = b"BBCKM1\0\0";
/// Magic prefix of a per-partition checkpoint data file.
const CKPT_PART_MAGIC: &[u8; 8] = b"BBCKP1\0\0";
/// On-disk format version (bump on any incompatible codec change).
const FORMAT_VERSION: u32 = 1;
/// Fixed size of a segment header: magic + version + partition + segment
/// index + start LSN + policy tag + policy argument. A segment's frame data
/// starts at this file offset.
pub const SEG_HEADER_LEN: u64 = 8 + 4 + 4 + 8 + 8 + 1 + 8;

/// When (if ever) the log writer calls `fsync` on the commit path.
///
/// The policy trades commit latency against the durability horizon recovery
/// can promise: under [`FsyncPolicy::GroupCommit`] every acknowledged commit
/// survives a crash; under [`FsyncPolicy::Never`] a suffix of acknowledged
/// commits may be lost. Recovery applies the same consistent-prefix cut
/// under both (see `DURABILITY.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync on the commit path: buffered writes only (the OS flushes
    /// eventually, or the caller syncs explicitly). The in-memory cost
    /// profile, plus a real file for post-mortem replay.
    Never,
    /// Leader-driven group commit with a durable acknowledgment: committers
    /// never fsync on their own commit path. They install and release
    /// immediately after logging, then park on the partition's durability
    /// watermark; the first parked committer becomes the *leader*, waits up
    /// to `max_wait_us` microseconds for more committers to join (cutting
    /// the window short once `max_batch` are parked), and issues one fsync
    /// covering every group staged so far. Acknowledgments wait for the
    /// global durability horizon, so an acknowledged commit always survives
    /// a crash. `GroupCommit { max_batch: 1, max_wait_us: 0 }` fsyncs once
    /// per commit before `commit()` returns.
    GroupCommit {
        /// Batch size that cuts the leader's accumulation window short.
        max_batch: u32,
        /// Longest time (µs) the leader waits for joiners before syncing.
        /// Capped at `u32::MAX` by the segment-header codec.
        max_wait_us: u64,
    },
}

impl FsyncPolicy {
    /// Encodes the policy as a (tag, argument) pair for the segment header.
    /// Tags 1 (`EveryCommit`), 2 and 3 belonged to retired policies and are
    /// never reused.
    fn encode(self) -> (u8, u64) {
        match self {
            FsyncPolicy::Never => (0, 0),
            FsyncPolicy::GroupCommit {
                max_batch,
                max_wait_us,
            } => (
                4,
                (max_batch as u64) << 32 | max_wait_us.min(u32::MAX as u64),
            ),
        }
    }

    /// Decodes a (tag, argument) pair written by [`FsyncPolicy::encode`].
    fn decode(tag: u8, arg: u64) -> Option<Self> {
        Some(match tag {
            0 => FsyncPolicy::Never,
            4 => FsyncPolicy::GroupCommit {
                max_batch: (arg >> 32) as u32,
                max_wait_us: arg & u32::MAX as u64,
            },
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// I/O failure taxonomy
// ---------------------------------------------------------------------------

/// How a storage fault should be handled by the durable commit pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoClass {
    /// Worth retrying in place: interrupted syscalls, would-block,
    /// timeouts. Bounded retry-with-backoff before escalating.
    Transient,
    /// Not retryable: a full disk, a vanished file, corruption, or an
    /// exhausted retry budget. The owning partition degrades to read-only
    /// until healed.
    Permanent,
}

/// Classifies a raw I/O error for the retry policy. Everything that is not
/// a known-transient syscall outcome is treated as permanent — `ENOSPC`,
/// permission errors, and corruption never get better by retrying.
pub fn classify_io_error(e: &io::Error) -> IoClass {
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            IoClass::Transient
        }
        _ => IoClass::Permanent,
    }
}

/// A classified storage failure surfaced by the durable log path instead of
/// a panic. Carries the operation that failed so degraded-mode diagnostics
/// and test assertions can name the fault site.
#[derive(Debug)]
pub struct IoFailure {
    /// Transient (retryable) or permanent (degrade).
    pub class: IoClass,
    /// The failing operation, e.g. `"wal append"` or `"wal fsync"`.
    pub op: &'static str,
    /// The underlying error.
    pub error: io::Error,
}

impl IoFailure {
    /// Wraps `error`, classifying it by [`classify_io_error`].
    pub fn new(op: &'static str, error: io::Error) -> Self {
        IoFailure {
            class: classify_io_error(&error),
            op,
            error,
        }
    }

    /// Wraps `error` with a forced classification (retry exhaustion turns a
    /// transient error permanent; a degraded partition fails permanently
    /// without touching the disk at all).
    pub fn with_class(class: IoClass, op: &'static str, error: io::Error) -> Self {
        IoFailure { class, op, error }
    }

    /// True when the failure is worth retrying.
    pub fn is_transient(&self) -> bool {
        self.class == IoClass::Transient
    }
}

impl fmt::Display for IoFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} I/O failure during {}: {}",
            self.class, self.op, self.error
        )
    }
}

impl std::error::Error for IoFailure {}

// ---------------------------------------------------------------------------
// Log backend seam
// ---------------------------------------------------------------------------

/// An open log file handle that writes sequentially from its position. The
/// writer side of [`LogBackend`]: everything [`SegmentWriter`] does to a
/// file goes through this object so a fault-injecting backend can interpose
/// on each byte.
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
/// fault-injecting implementation ([`FaultBackend`]) for the real one
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
/// spelling; the chaos suite builds one over a [`FaultBackend`].
#[derive(Clone, Debug)]
pub struct LogDir {
    path: PathBuf,
    backend: Arc<dyn LogBackend>,
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

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// Per-seed fault schedule: each probability is in permille (0–1000) per
/// I/O opportunity of the matching class. All zeros injects nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultPlan {
    /// PRNG seed; the printed repro handle for a failing chaos run.
    pub seed: u64,
    /// `fsync` returns a *transient* failure (`EINTR`-like).
    pub fsync_permille: u16,
    /// A write persists only a prefix, then fails transiently (torn write).
    pub short_write_permille: u16,
    /// A write fails with `ENOSPC` (permanent: retrying cannot help).
    pub enospc_permille: u16,
    /// Opening or creating a file fails permanently.
    pub open_permille: u16,
    /// Reading a file fails permanently (scan/recovery paths).
    pub read_permille: u16,
}

impl FaultPlan {
    /// A schedule that injects nothing (useful as a base to tweak).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }
}

/// The outcome of one fault draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    None,
    Fsync,
    ShortWrite,
    Enospc,
}

/// Seeded fault scheduler shared by every file a [`FaultBackend`] hands
/// out. Draws are deterministic per (seed, file name, per-file operation
/// index): a partition's fault schedule does not depend on how threads of
/// *other* partitions interleave with it, which keeps per-seed chaos runs
/// reproducible.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Faults fire only while armed — harness setup (schema load, genesis
    /// checkpoint) runs disarmed so only the measured phase sees faults.
    armed: Mutex<bool>,
    /// Total faults injected (all classes).
    injected: Mutex<u64>,
    /// Per-file operation counters, the deterministic draw index.
    ops: Mutex<HashMap<String, u64>>,
}

/// splitmix64: tiny, seedable, and good enough to decorrelate draw indexes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a file name, to give each file its own draw stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl FaultInjector {
    /// Creates a disarmed injector for `plan`.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Arc::new(FaultInjector {
            plan,
            armed: Mutex::new(false),
            injected: Mutex::new(0),
            ops: Mutex::new(HashMap::new()),
        })
    }

    /// Starts injecting faults.
    pub fn arm(&self) {
        *self.armed.lock() = true;
    }

    /// Stops injecting faults (drain/teardown phases).
    pub fn disarm(&self) {
        *self.armed.lock() = false;
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.plan.seed
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        *self.injected.lock()
    }

    /// Draws the fault decision for the next operation on `name`. The
    /// cumulative permille ranges mean at most one fault class fires per
    /// operation; `extra` returns a second independent value (short-write
    /// prefix length).
    fn draw(&self, name: &str, write_classes: bool) -> (Fault, u64) {
        if !*self.armed.lock() {
            return (Fault::None, 0);
        }
        let idx = {
            let mut ops = self.ops.lock();
            let n = ops.entry(name.to_owned()).or_insert(0);
            let v = *n;
            *n += 1;
            v
        };
        let x = splitmix64(self.plan.seed ^ fnv1a(name) ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let roll = (x % 1000) as u16;
        let extra = splitmix64(x);
        let p = &self.plan;
        let fault = if write_classes {
            let mut bound = p.short_write_permille;
            if roll < bound {
                Fault::ShortWrite
            } else {
                bound = bound.saturating_add(p.enospc_permille);
                if roll < bound {
                    Fault::Enospc
                } else {
                    Fault::None
                }
            }
        } else if roll < p.fsync_permille {
            Fault::Fsync
        } else {
            Fault::None
        };
        if fault != Fault::None {
            *self.injected.lock() += 1;
        }
        (fault, extra)
    }

    /// Draw for open/create (`true` = fail).
    fn draw_open(&self, name: &str) -> bool {
        self.draw_simple(name, self.plan.open_permille)
    }

    /// Draw for whole-file reads (`true` = fail).
    fn draw_read(&self, name: &str) -> bool {
        self.draw_simple(name, self.plan.read_permille)
    }

    fn draw_simple(&self, name: &str, permille: u16) -> bool {
        if !*self.armed.lock() || permille == 0 {
            return false;
        }
        let idx = {
            let mut ops = self.ops.lock();
            let n = ops.entry(name.to_owned()).or_insert(0);
            let v = *n;
            *n += 1;
            v
        };
        let x = splitmix64(self.plan.seed ^ fnv1a(name) ^ idx.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let hit = ((x % 1000) as u16) < permille;
        if hit {
            *self.injected.lock() += 1;
        }
        hit
    }
}

fn injected_transient(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, format!("injected {what}"))
}

fn injected_permanent(what: &str) -> io::Error {
    io::Error::other(format!("injected {what}"))
}

/// A [`LogBackend`] that delegates to [`RealBackend`] but injects faults
/// from a seeded [`FaultInjector`] schedule: transient fsync failures,
/// short (torn) writes, `ENOSPC`, and open/read errors. The SQLite-test-VFS
/// / FoundationDB-simulation idea in miniature.
#[derive(Debug)]
pub struct FaultBackend {
    real: RealBackend,
    injector: Arc<FaultInjector>,
}

impl FaultBackend {
    /// Wraps the real filesystem with `injector`'s schedule.
    pub fn new(injector: Arc<FaultInjector>) -> Self {
        FaultBackend {
            real: RealBackend,
            injector,
        }
    }

    /// The shared injector (arm/disarm, fault counts).
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }
}

fn file_name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string_lossy().into_owned())
}

struct FaultFile {
    inner: Box<dyn LogFile>,
    name: String,
    injector: Arc<FaultInjector>,
}

impl LogFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let (fault, extra) = self.injector.draw(&self.name, true);
        match fault {
            Fault::ShortWrite => {
                // Persist a prefix so the tail really is torn, then fail.
                let cut = if buf.is_empty() {
                    0
                } else {
                    (extra % buf.len() as u64) as usize
                };
                self.inner.write_all(&buf[..cut])?;
                Err(injected_transient("short write"))
            }
            Fault::Enospc => Err(io::Error::from_raw_os_error(28)), // ENOSPC
            _ => self.inner.write_all(buf),
        }
    }

    /// Draws no fault: preallocation is not an I/O opportunity of the
    /// schedule, so a seed's `(file, op-index)` draws do not depend on it.
    /// A real error still fails the segment open, like any other open
    /// failure.
    fn preallocate(&mut self, len: u64) -> io::Result<()> {
        self.inner.preallocate(len)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    /// The fsync fault is drawn here, when the barrier is taken — under
    /// the caller's append lock, so the file's draw order does not depend
    /// on which thread waits out the device.
    fn barrier(&mut self) -> io::Result<FileBarrier> {
        let (fault, _) = self.injector.draw(&self.name, false);
        if fault == Fault::Fsync {
            // The flush may have pushed bytes to the OS; only the
            // durability barrier fails — exactly a flaky fsync.
            let _ = self.inner.flush();
            return Err(injected_transient("fsync failure"));
        }
        self.inner.barrier()
    }
}

impl LogBackend for FaultBackend {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.real.create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.real.list_dir(dir)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        let name = file_name_of(path);
        if self.injector.draw_open(&name) {
            return Err(injected_permanent("open failure"));
        }
        let inner = self.real.create(path)?;
        Ok(Box::new(FaultFile {
            inner,
            name,
            injector: Arc::clone(&self.injector),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn LogFile>> {
        let name = file_name_of(path);
        if self.injector.draw_open(&name) {
            return Err(injected_permanent("open failure"));
        }
        let inner = self.real.open_append(path)?;
        Ok(Box::new(FaultFile {
            inner,
            name,
            injector: Arc::clone(&self.injector),
        }))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.real.file_len(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.injector.draw_read(&file_name_of(path)) {
            return Err(injected_permanent("read failure"));
        }
        self.real.read(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.real.truncate(path, len)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.real.remove_file(path)
    }
}

/// One redo-log record. Only committed work is ever logged (the commit path
/// logs after the commit-point CAS), so recovery is redo-only: there is no
/// undo information here.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Opens a transaction's record group on one partition. `parts_mask`
    /// has bit `p` set for every partition the transaction logged to, so
    /// recovery can check cross-partition completeness.
    Begin {
        /// Transaction id (unique per run; used to pair Begin/Commit).
        txn_id: u64,
        /// The commit timestamp allocated from the shared clock.
        commit_ts: u64,
        /// Bitmask of partitions this transaction wrote.
        parts_mask: u64,
    },
    /// After-image of one updated row.
    Update {
        /// Table id within the catalog.
        table: u32,
        /// Primary key of the row.
        key: u64,
        /// Full after-image.
        row: Row,
    },
    /// A freshly inserted row, with its optional secondary-index entry.
    Insert {
        /// Table id within the catalog.
        table: u32,
        /// Primary key of the row.
        key: u64,
        /// The inserted row.
        row: Row,
        /// `(index slot, secondary key)` when the insert also registered a
        /// secondary-index entry.
        secondary: Option<(u32, u64)>,
    },
    /// Closes a transaction's record group on one partition. A group whose
    /// `Commit` never reached disk is incomplete and is not replayed.
    Commit {
        /// Transaction id (matches the group's `Begin`).
        txn_id: u64,
        /// The commit timestamp (matches the group's `Begin`).
        commit_ts: u64,
    },
    /// A fuzzy-checkpoint marker: everything at or below `stable_ts` is
    /// captured by the checkpoint data files, and replay may start at
    /// `cuts[p]` on partition `p`.
    Checkpoint {
        /// The commit-clock stable bound the checkpoint captured.
        stable_ts: u64,
        /// Per-partition high-water LSNs at capture time.
        cuts: Vec<Lsn>,
    },
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, table-driven, no external dependency)
// ---------------------------------------------------------------------------

/// Byte-indexed CRC32 table for the reflected IEEE polynomial.
static CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Scalar / value codec helpers
// ---------------------------------------------------------------------------

fn enc_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn enc_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian reader over a byte slice. Every decode
/// path goes through it so a torn or corrupt payload yields `None` instead
/// of a panic.
#[derive(Clone)]
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Encodes one value with the same tag scheme as the in-memory ring
/// (`U64`=0, `I64`=1, `F64`=2, `Str`=3).
fn enc_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::U64(x) => {
            buf.push(0);
            enc_u64(buf, *x);
        }
        Value::I64(x) => {
            buf.push(1);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(3);
            enc_u64(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

fn dec_value(c: &mut Cursor<'_>) -> Option<Value> {
    Some(match c.u8()? {
        0 => Value::U64(c.u64()?),
        1 => Value::I64(c.u64()? as i64),
        2 => Value::F64(f64::from_bits(c.u64()?)),
        3 => {
            let len = c.u64()? as usize;
            let bytes = c.take(len)?;
            Value::from(std::str::from_utf8(bytes).ok()?)
        }
        _ => return None,
    })
}

/// Encodes a row as its length followed by its tagged values. Shared with
/// the in-memory ring's `CMT!` record (`bamboo_core::wal`), so both formats
/// spell a value one way.
#[inline]
pub fn encode_row(buf: &mut Vec<u8>, row: &Row) {
    enc_u64(buf, row.len() as u64);
    for v in row.values() {
        enc_value(buf, v);
    }
}

/// Steps over one encoded value, checking only that it lies in bounds.
fn skip_value(c: &mut Cursor<'_>) -> Option<()> {
    let len = match c.u8()? {
        3 => c.u64()? as usize,
        _ => 8,
    };
    c.take(len).map(drop)
}

fn dec_row(c: &mut Cursor<'_>) -> Option<Row> {
    let n = c.u64()? as usize;
    // Walk the values on a copy first. A corrupt length fails there, before
    // anything is allocated; a sound one lets the row be collected from an
    // exact-size iterator, in one allocation with no `Vec` in between.
    let mut probe = c.clone();
    (0..n).try_for_each(|_| skip_value(&mut probe))?;
    let mut ok = true;
    let row = (0..n)
        .map(|_| {
            dec_value(c).unwrap_or_else(|| {
                ok = false;
                Value::U64(0)
            })
        })
        .collect();
    ok.then_some(row)
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

/// Frames one encoded payload — `[len: u32][crc32: u32][payload]` — into
/// `buf`, exactly as the segment writer's staging path does. Lets callers
/// build a fully framed record group *outside* the WAL sink lock and hand
/// it to [`SegmentWriter::stage_framed`].
pub fn frame_payload(buf: &mut Vec<u8>, payload: &[u8]) {
    let mut frame = [0u8; 8];
    frame[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    frame[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(&frame);
    buf.extend_from_slice(payload);
}

/// Encodes and frames one record into `buf` (see [`frame_payload`]),
/// using `scratch` for the unframed payload bytes.
pub fn frame_record(buf: &mut Vec<u8>, scratch: &mut Vec<u8>, rec: &WalRecord) {
    scratch.clear();
    encode_record(rec, scratch);
    frame_payload(buf, scratch);
}

/// Encodes and frames an `Update` record into `buf` without materializing
/// a [`WalRecord`] (the commit hot path borrows the after-image).
pub fn frame_update(buf: &mut Vec<u8>, scratch: &mut Vec<u8>, table: u32, key: u64, row: &Row) {
    scratch.clear();
    enc_update(scratch, table, key, row);
    frame_payload(buf, scratch);
}

/// Encodes and frames an `Insert` record into `buf` without materializing
/// a [`WalRecord`].
pub fn frame_insert(
    buf: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    table: u32,
    key: u64,
    row: &Row,
    secondary: Option<(u32, u64)>,
) {
    scratch.clear();
    enc_insert(scratch, table, key, row, secondary);
    frame_payload(buf, scratch);
}

/// The one spelling of an `Update` payload (kind byte + body).
fn enc_update(buf: &mut Vec<u8>, table: u32, key: u64, row: &Row) {
    buf.push(2);
    enc_u32(buf, table);
    enc_u64(buf, key);
    encode_row(buf, row);
}

/// The one spelling of an `Insert` payload (kind byte + body).
fn enc_insert(buf: &mut Vec<u8>, table: u32, key: u64, row: &Row, secondary: Option<(u32, u64)>) {
    buf.push(3);
    enc_u32(buf, table);
    enc_u64(buf, key);
    encode_row(buf, row);
    match secondary {
        Some((idx, skey)) => {
            buf.push(1);
            enc_u32(buf, idx);
            enc_u64(buf, skey);
        }
        None => buf.push(0),
    }
}

/// Encodes one record's payload (kind byte + body) into `buf`.
pub fn encode_record(rec: &WalRecord, buf: &mut Vec<u8>) {
    match rec {
        WalRecord::Begin {
            txn_id,
            commit_ts,
            parts_mask,
        } => {
            buf.push(1);
            enc_u64(buf, *txn_id);
            enc_u64(buf, *commit_ts);
            enc_u64(buf, *parts_mask);
        }
        WalRecord::Update { table, key, row } => enc_update(buf, *table, *key, row),
        WalRecord::Insert {
            table,
            key,
            row,
            secondary,
        } => enc_insert(buf, *table, *key, row, *secondary),
        WalRecord::Commit { txn_id, commit_ts } => {
            buf.push(4);
            enc_u64(buf, *txn_id);
            enc_u64(buf, *commit_ts);
        }
        WalRecord::Checkpoint { stable_ts, cuts } => {
            buf.push(5);
            enc_u64(buf, *stable_ts);
            enc_u32(buf, cuts.len() as u32);
            for &c in cuts {
                enc_u64(buf, c);
            }
        }
    }
}

/// Decodes one record payload. Returns `None` on any malformed byte — the
/// caller treats that as a torn tail.
pub fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let rec = match c.u8()? {
        1 => WalRecord::Begin {
            txn_id: c.u64()?,
            commit_ts: c.u64()?,
            parts_mask: c.u64()?,
        },
        2 => WalRecord::Update {
            table: c.u32()?,
            key: c.u64()?,
            row: dec_row(&mut c)?,
        },
        3 => {
            let table = c.u32()?;
            let key = c.u64()?;
            let row = dec_row(&mut c)?;
            let secondary = match c.u8()? {
                0 => None,
                1 => Some((c.u32()?, c.u64()?)),
                _ => return None,
            };
            WalRecord::Insert {
                table,
                key,
                row,
                secondary,
            }
        }
        4 => WalRecord::Commit {
            txn_id: c.u64()?,
            commit_ts: c.u64()?,
        },
        5 => {
            let stable_ts = c.u64()?;
            let n = c.u32()? as usize;
            let mut cuts = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                cuts.push(c.u64()?);
            }
            WalRecord::Checkpoint { stable_ts, cuts }
        }
        _ => return None,
    };
    if !c.done() {
        return None;
    }
    Some(rec)
}

// ---------------------------------------------------------------------------
// Segment writer
// ---------------------------------------------------------------------------

/// Name of partition `p`'s segment number `index`.
fn segment_name(partition: u32, index: u64) -> String {
    format!("wal-p{partition:03}-{index:08}.seg")
}

impl LogDir {
    /// Lists partition `p`'s segment files, sorted by segment index.
    fn list_segments(&self, partition: u32) -> io::Result<Vec<(u64, PathBuf)>> {
        let prefix = format!("wal-p{partition:03}-");
        let mut out = Vec::new();
        for name in self.backend.list_dir(&self.path)? {
            if let Some(rest) = name.strip_prefix(&prefix) {
                if let Some(idx) = rest
                    .strip_suffix(".seg")
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    out.push((idx, self.path.join(&name)));
                }
            }
        }
        out.sort_by_key(|(idx, _)| *idx);
        Ok(out)
    }
}

fn write_segment_header(
    buf: &mut Vec<u8>,
    partition: u32,
    index: u64,
    start_lsn: Lsn,
    policy: FsyncPolicy,
) {
    buf.extend_from_slice(SEG_MAGIC);
    enc_u32(buf, FORMAT_VERSION);
    enc_u32(buf, partition);
    enc_u64(buf, index);
    enc_u64(buf, start_lsn);
    let (tag, arg) = policy.encode();
    buf.push(tag);
    enc_u64(buf, arg);
}

/// A parsed segment header.
struct SegHeader {
    partition: u32,
    index: u64,
    start_lsn: Lsn,
}

fn parse_segment_header(bytes: &[u8]) -> Option<SegHeader> {
    let mut c = Cursor::new(bytes);
    if c.take(8)? != SEG_MAGIC {
        return None;
    }
    if c.u32()? != FORMAT_VERSION {
        return None;
    }
    let partition = c.u32()?;
    let index = c.u64()?;
    let start_lsn = c.u64()?;
    // A retired or unknown policy tag fails the parse; nothing reads the
    // policy back.
    FsyncPolicy::decode(c.u8()?, c.u64()?)?;
    Some(SegHeader {
        partition,
        index,
        start_lsn,
    })
}

/// Append-only writer for one partition's segment chain.
///
/// Not internally synchronized: the caller (`WalHandle`) serializes appends
/// behind its mutex, exactly like the in-memory ring.
///
/// Appends are **group-staged**: a transaction's records are encoded into
/// an in-memory staging buffer ([`SegmentWriter::stage_record`] and
/// friends) and land on the file as a single write
/// ([`SegmentWriter::flush_group`]). A failed flush leaves the staging
/// buffer intact so the caller can retry after [`SegmentWriter::rewind_partial`]
/// cut any torn prefix back out — the retry loop in `WalHandle::append_txn`
/// never needs to re-produce the records.
///
/// Each segment it creates is preallocated to header + `segment_bytes`
/// (see the module docs), and a group that would not fit in what is left
/// of it goes to the next segment, so the file never grows under the
/// commit path's fsync unless one group alone is larger than a segment.
pub struct SegmentWriter {
    dir: LogDir,
    partition: u32,
    policy: FsyncPolicy,
    segment_bytes: u64,
    file: Box<dyn LogFile>,
    seg_index: u64,
    seg_start_lsn: Lsn,
    /// Next LSN to assign (= bytes of frames written so far).
    lsn: Lsn,
    /// LSN up to which data is known durable (advanced by `sync`).
    synced_lsn: Lsn,
    /// Start LSN of the group most recently flushed by `flush_group`.
    group_start: Lsn,
    /// Identity of the bytes below `lsn`: replaced whenever
    /// `abandon_group` cuts written bytes back out, so a [`SyncBarrier`]
    /// taken before the cut — or from another writer — cannot vouch for
    /// what was later written in their place.
    epoch: Arc<()>,
    /// Framed bytes of the staged (not yet flushed) record group.
    stage: Vec<u8>,
    scratch: Vec<u8>,
}

impl LogDir {
    /// Opens (or creates) partition `p`'s log in this directory for
    /// appending.
    ///
    /// Existing segments are scanned to find the end of valid data. A torn
    /// tail and the unused preallocation after it are truncated away, so the
    /// stream ends on a frame boundary and the old segment holds nothing but
    /// its header and data. Writing resumes in a *new* (preallocated)
    /// segment starting at that LSN. An empty directory starts segment 0 at
    /// LSN 0.
    pub fn open_writer(
        &self,
        partition: u32,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> io::Result<SegmentWriter> {
        let segment_bytes = segment_bytes.max(SEG_HEADER_LEN + 1);
        self.backend.create_dir_all(&self.path)?;
        let (next_index, start_lsn) = match self.list_segments(partition)?.last() {
            None => (0, 0),
            Some(_) => {
                let scan = self.scan_partition_from(partition, 0)?;
                // Drop the torn tail (if any) so future scans read through
                // cleanly to the segments this writer is about to add.
                self.truncate_after(partition, scan.end_lsn)?;
                let last_idx = self
                    .list_segments(partition)?
                    .last()
                    .map(|(i, _)| *i)
                    .unwrap_or(0);
                (last_idx + 1, scan.end_lsn)
            }
        };
        let file =
            self.open_segment_file(partition, next_index, start_lsn, policy, segment_bytes)?;
        Ok(SegmentWriter {
            dir: self.clone(),
            partition,
            policy,
            segment_bytes,
            file,
            seg_index: next_index,
            seg_start_lsn: start_lsn,
            lsn: start_lsn,
            synced_lsn: start_lsn,
            group_start: start_lsn,
            epoch: Arc::new(()),
            stage: Vec::with_capacity(512),
            scratch: Vec::with_capacity(512),
        })
    }
}

impl SegmentWriter {
    /// [`LogDir::open_writer`] on the real filesystem.
    pub fn open(
        dir: &Path,
        partition: u32,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> io::Result<Self> {
        LogDir::real(dir).open_writer(partition, policy, segment_bytes)
    }

    /// Stages one record into the pending group.
    pub fn stage_record(&mut self, rec: &WalRecord) {
        frame_record(&mut self.stage, &mut self.scratch, rec);
    }

    /// Stages an `Update` record without materializing a [`WalRecord`]
    /// (the commit hot path borrows the after-image instead of cloning it).
    pub fn stage_update(&mut self, table: u32, key: u64, row: &Row) {
        frame_update(&mut self.stage, &mut self.scratch, table, key, row);
    }

    /// Stages bytes that were already framed with [`frame_payload`] /
    /// [`frame_record`]. This is the group-commit fast path: the committer
    /// encodes and frames its whole record group into a private buffer
    /// *before* taking the partition sink lock, so the lock covers only the
    /// file write.
    pub fn stage_framed(&mut self, framed: &[u8]) {
        self.stage.extend_from_slice(framed);
    }

    /// Drops the staged group without writing it (give-up path).
    pub fn clear_group(&mut self) {
        self.stage.clear();
    }

    /// Writes the staged group to the active segment as one write, rotating
    /// first when the group would not fit in what is left of a segment that
    /// already holds data. On success the staging buffer is cleared, the LSN
    /// advances past the group, and the group's start LSN is returned. On
    /// failure the writer's LSN state is unchanged and the staged bytes are
    /// kept, so the caller may [`SegmentWriter::rewind_partial`] and retry,
    /// or [`SegmentWriter::clear_group`] and give up.
    pub fn flush_group(&mut self) -> io::Result<Lsn> {
        let used = self.lsn - self.seg_start_lsn;
        if used > 0 && used + self.stage.len() as u64 > self.segment_bytes {
            self.rotate()?;
        }
        let at = self.lsn;
        self.file.write_all(&self.stage)?;
        self.group_start = at;
        self.lsn = at + self.stage.len() as u64;
        self.stage.clear();
        Ok(at)
    }

    /// Seals the active segment and starts the next, preallocated, at the
    /// writer's LSN. Sealing syncs the segment — a sealed segment is always
    /// fully durable, so only the active tail can tear — then trims its
    /// unused preallocation, so a sealed segment's file is exactly header +
    /// data: the scan's skip of segments below the replay cut and
    /// [`LogDir::retire_segments_below`] read a sealed segment's data length
    /// off its file length. Every step leaves the writer unchanged on
    /// failure (`self.file` only rebinds after a successful open), so a
    /// retry re-runs them.
    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.dir
            .trim_segment(&self.segment_path(), self.file_offset(self.lsn))?;
        self.file = self.dir.open_segment_file(
            self.partition,
            self.seg_index + 1,
            self.lsn,
            self.policy,
            self.segment_bytes,
        )?;
        self.seg_index += 1;
        self.seg_start_lsn = self.lsn;
        Ok(())
    }

    /// Path of the active segment's file.
    fn segment_path(&self) -> PathBuf {
        self.dir
            .path
            .join(segment_name(self.partition, self.seg_index))
    }

    /// File offset in the active segment of the frame at `lsn`.
    fn file_offset(&self, lsn: Lsn) -> u64 {
        SEG_HEADER_LEN + (lsn - self.seg_start_lsn)
    }

    /// Appends one record as its own group and returns its LSN (the
    /// single-record convenience the checkpoint marker and the unit tests
    /// use; commit groups go through the staging API).
    pub fn append_record(&mut self, rec: &WalRecord) -> io::Result<Lsn> {
        debug_assert!(self.stage.is_empty(), "append_record with a staged group");
        self.stage_record(rec);
        let res = self.flush_group();
        if res.is_err() {
            self.stage.clear();
        }
        res
    }

    /// Cuts a torn prefix of a *failed* group flush back out of the active
    /// segment: flushes buffered bytes so the on-disk length is
    /// authoritative, truncates the file back to the writer's LSN, and
    /// re-opens the handle for appending. The staged group is kept for a
    /// retry. Any error here means the segment's tail state is unknown —
    /// the caller must treat it as a permanent failure and degrade.
    pub fn rewind_partial(&mut self) -> io::Result<()> {
        self.rewind_to(self.lsn)
    }

    /// Durably removes the group most recently flushed by
    /// [`SegmentWriter::flush_group`]: a cross-partition commit landed it,
    /// a later partition's append failed, and the commit is being revoked —
    /// the group must not survive into recovery. (The checkpoint marker
    /// whose sync failed goes the same way.) Any error leaves the group's
    /// fate ambiguous; the caller must degrade.
    pub fn abandon_group(&mut self) -> io::Result<()> {
        let target = self.group_start;
        self.rewind_to(target)?;
        self.lsn = target;
        if self.synced_lsn > target {
            self.synced_lsn = target;
        }
        self.epoch = Arc::new(());
        Ok(())
    }

    /// Truncates the active segment so exactly `[seg_start_lsn, target)`
    /// frame bytes remain, then re-opens the handle for appending. The cut
    /// takes the rest of the segment's preallocation with it: later groups
    /// in this segment grow the file again, a price paid only on the fault
    /// path and only until the next rotation.
    ///
    /// There is no check that the file holds every byte below the writer's
    /// LSN, because the `flush` below makes it hold: `lsn` advances only
    /// after `write_all` accepted a whole group, every handle this writer
    /// replaces was flushed first, and once this flush succeeds every
    /// accepted byte is in the file. (A file-length check could not tell
    /// anyway: a preallocated segment is longer than its data from birth,
    /// and a gap would read as zeros, which the scan takes for the end of
    /// the data.)
    fn rewind_to(&mut self, target: Lsn) -> io::Result<()> {
        debug_assert!(target >= self.seg_start_lsn, "rewind into a sealed segment");
        // Push buffered bytes down so the cut below also covers what this
        // handle accepted past the target (a short write's persisted prefix).
        self.file.flush()?;
        let path = self.segment_path();
        self.dir.trim_segment(&path, self.file_offset(target))?;
        self.file = self.dir.backend.open_append(&path)?;
        Ok(())
    }

    /// Flushes buffered bytes and fsyncs the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        let barrier = self.begin_sync()?;
        barrier.wait()?;
        self.finish_sync(&barrier);
        Ok(())
    }

    /// First half of a sync the caller waits out *without* holding the
    /// writer: pushes buffered bytes to the OS and returns the barrier
    /// covering everything up to the current LSN. The caller runs
    /// [`SyncBarrier::wait`] (other threads may append meanwhile), then
    /// reports success through [`SegmentWriter::finish_sync`].
    pub fn begin_sync(&mut self) -> io::Result<SyncBarrier> {
        Ok(SyncBarrier {
            file: self.file.barrier()?,
            lsn: self.lsn,
            epoch: Arc::clone(&self.epoch),
        })
    }

    /// Records that `barrier` reached stable media: `synced_lsn` rises to
    /// the LSN the barrier was taken at. It never moves backwards (a
    /// rotation in between already sealed the old segment at a higher
    /// LSN), and a barrier from before an [`SegmentWriter::abandon_group`]
    /// is ignored — the bytes it covered are no longer the bytes below its
    /// LSN. A [`SegmentWriter::rewind_partial`] in between is harmless: it
    /// only cuts bytes *above* the writer's LSN.
    pub fn finish_sync(&mut self, barrier: &SyncBarrier) {
        if Arc::ptr_eq(&self.epoch, &barrier.epoch) && barrier.lsn > self.synced_lsn {
            self.synced_lsn = barrier.lsn;
        }
    }

    /// Next LSN to be assigned (= total frame bytes written).
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// Index of the active segment: it rises by one at each rotation.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }

    /// LSN up to which data is known durable.
    pub fn synced_lsn(&self) -> Lsn {
        self.synced_lsn
    }

    /// The writer's fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

/// A sync in flight: taken by [`SegmentWriter::begin_sync`] under the
/// caller's append lock, waited out with the lock released.
pub struct SyncBarrier {
    file: FileBarrier,
    lsn: Lsn,
    epoch: Arc<()>,
}

impl SyncBarrier {
    /// Blocks until every byte below the barrier's LSN is on stable media.
    pub fn wait(&self) -> io::Result<()> {
        self.file.wait()
    }
}

impl LogDir {
    /// Creates segment file `index` for `partition`, writes its header and
    /// preallocates room for `segment_bytes` of frames (one `fdatasync`).
    /// The handle is left positioned at the first frame.
    fn open_segment_file(
        &self,
        partition: u32,
        index: u64,
        start_lsn: Lsn,
        policy: FsyncPolicy,
        segment_bytes: u64,
    ) -> io::Result<Box<dyn LogFile>> {
        let path = self.path.join(segment_name(partition, index));
        // A truncating create (not `create_new`): a retried rotation whose
        // first attempt died between creating the file and landing its header
        // must be able to start the segment over.
        let mut file = self.backend.create(&path)?;
        let mut header = Vec::with_capacity(SEG_HEADER_LEN as usize);
        write_segment_header(&mut header, partition, index, start_lsn, policy);
        debug_assert_eq!(header.len() as u64, SEG_HEADER_LEN);
        file.write_all(&header)?;
        file.preallocate(SEG_HEADER_LEN + segment_bytes)?;
        Ok(file)
    }

    /// Shrinks the segment at `path` to `len` bytes (synced) unless it is
    /// no longer than that already.
    fn trim_segment(&self, path: &Path, len: u64) -> io::Result<()> {
        if self.backend.file_len(path)? > len {
            self.backend.truncate(path, len)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Log scan
// ---------------------------------------------------------------------------

/// Result of scanning one partition's segment chain.
pub struct LogScan {
    /// Valid records at or after the requested start LSN, in log order.
    pub records: Vec<(Lsn, WalRecord)>,
    /// LSN just past the last valid frame (the truncation point when torn).
    pub end_lsn: Lsn,
    /// True when the scan stopped at a torn or corrupt frame.
    pub torn: bool,
}

impl LogDir {
    /// Scans partition `p`'s segments, decoding records whose LSN is
    /// `>= from_lsn`. Frames below `from_lsn` are CRC-verified but not
    /// decoded; whole segments that end below `from_lsn` are skipped
    /// without parsing. The scan stops cleanly at the first torn or corrupt
    /// frame.
    pub fn scan_partition_from(&self, partition: u32, from_lsn: Lsn) -> io::Result<LogScan> {
        let segments = self.list_segments(partition)?;
        let mut scan = LogScan {
            records: Vec::new(),
            end_lsn: 0,
            torn: false,
        };
        let mut expect_start: Option<Lsn> = None;
        for (pos, (index, path)) in segments.iter().enumerate() {
            let last_segment = pos + 1 == segments.len();
            let bytes = self.backend.read(path)?;
            let step = scan_segment(
                &bytes,
                partition,
                *index,
                from_lsn,
                &mut expect_start,
                &mut scan,
                last_segment,
            );
            if step.is_err() {
                scan.torn = true;
                break;
            }
        }
        Ok(scan)
    }
}

/// Parses one segment's bytes into the scan accumulators. Returns `Err(())`
/// when the stream tears here. `tail` marks the chain's last segment (the
/// only one allowed to tear without being an error in sealed data).
fn scan_segment(
    bytes: &[u8],
    partition: u32,
    index: u64,
    from_lsn: Lsn,
    expect_start: &mut Option<Lsn>,
    scan: &mut LogScan,
    tail: bool,
) -> Result<(), ()> {
    if bytes.len() < SEG_HEADER_LEN as usize {
        return Err(());
    }
    let Some(header) = parse_segment_header(&bytes[..SEG_HEADER_LEN as usize]) else {
        return Err(());
    };
    if header.partition != partition || header.index != index {
        return Err(());
    }
    // A gap in the chain (missing segment or start-LSN mismatch) ends the
    // usable stream at the previous segment.
    if let Some(expected) = *expect_start {
        if header.start_lsn != expected {
            return Err(());
        }
    }
    scan.end_lsn = header.start_lsn;
    let data = &bytes[SEG_HEADER_LEN as usize..];
    if !tail && header.start_lsn + data.len() as u64 <= from_lsn {
        // Entirely below the replay cut: trust the sealed segment's length
        // (rotation trimmed it to header + data) without parsing its frames.
        scan.end_lsn = header.start_lsn + data.len() as u64;
        *expect_start = Some(scan.end_lsn);
        return Ok(());
    }
    let mut off = 0usize;
    let local_torn;
    loop {
        // No frame has a zero length word (every payload has a kind byte),
        // so zeros here are the unwritten rest of a preallocated segment, or
        // the end of the file: the data ends cleanly.
        let rest = &data[off..];
        if rest[..rest.len().min(4)].iter().all(|&b| b == 0) {
            local_torn = false;
            break;
        }
        if rest.len() < 8 {
            local_torn = true;
            break;
        }
        let len =
            u32::from_le_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]) as usize;
        let crc = u32::from_le_bytes([data[off + 4], data[off + 5], data[off + 6], data[off + 7]]);
        if off + 8 + len > data.len() {
            local_torn = true;
            break;
        }
        let payload = &data[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            local_torn = true;
            break;
        }
        let lsn = header.start_lsn + off as u64;
        if lsn >= from_lsn {
            let Some(rec) = decode_record(payload) else {
                local_torn = true;
                break;
            };
            scan.records.push((lsn, rec));
        }
        off += 8 + len;
        scan.end_lsn = header.start_lsn + off as u64;
    }
    if local_torn {
        return Err(());
    }
    *expect_start = Some(scan.end_lsn);
    Ok(())
}

impl LogDir {
    /// Truncates partition `p`'s segment chain so that no bytes exist past
    /// `end_lsn`: segments starting at or past the cut are deleted, and the
    /// segment containing it is shrunk to the matching offset. Called by
    /// [`LogDir::open_writer`] to drop a torn tail and the zero tail of the
    /// segment the last writer left preallocated.
    fn truncate_after(&self, partition: u32, end_lsn: Lsn) -> io::Result<()> {
        let backend = &*self.backend;
        for (_, path) in self.list_segments(partition)? {
            let Some(header) = self.read_segment_header(&path) else {
                backend.remove_file(&path)?;
                continue;
            };
            if header.start_lsn >= end_lsn {
                // Nothing from this segment survives; an empty segment at
                // exactly the cut is also removed (the writer will start a
                // fresh one).
                backend.remove_file(&path)?;
                continue;
            }
            self.trim_segment(&path, SEG_HEADER_LEN + (end_lsn - header.start_lsn))?;
        }
        Ok(())
    }

    /// Reads and parses one segment's header, `None` when unreadable or
    /// malformed.
    fn read_segment_header(&self, path: &Path) -> Option<SegHeader> {
        let bytes = self.backend.read(path).ok()?;
        if bytes.len() < SEG_HEADER_LEN as usize {
            return None;
        }
        parse_segment_header(&bytes[..SEG_HEADER_LEN as usize])
    }

    /// Retires (deletes) every **sealed** segment of partition `p` whose
    /// frame range lies entirely at or below `cut_lsn` — the newest
    /// checkpoint's replay cut makes those bytes dead weight. The chain's
    /// last segment (the writer's active one) is never touched; every other
    /// one was trimmed when it was sealed, so its file length gives its
    /// frame range. Returns the number of segments removed.
    pub fn retire_segments_below(&self, partition: u32, cut_lsn: Lsn) -> io::Result<u64> {
        let segments = self.list_segments(partition)?;
        let mut retired = 0u64;
        for (pos, (_, path)) in segments.iter().enumerate() {
            if pos + 1 == segments.len() {
                break; // never the active segment
            }
            let Some(header) = self.read_segment_header(path) else {
                continue; // unreadable prefix junk is recovery's problem, not compaction's
            };
            let data_len = self.backend.file_len(path)?.saturating_sub(SEG_HEADER_LEN);
            if header.start_lsn + data_len <= cut_lsn {
                self.backend.remove_file(path)?;
                retired += 1;
            } else {
                // Segments are LSN-ordered: nothing later can be below the cut.
                break;
            }
        }
        Ok(retired)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

/// Per-table metadata captured by a checkpoint: enough to rebuild the
/// catalog shards before replay.
#[derive(Clone, Debug)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Column schema.
    pub schema: Schema,
    /// Effective routing strategy for the table.
    pub route: RouteStrategy,
    /// Whether the table keeps an ordered PK index.
    pub ordered: bool,
    /// Number of secondary-index slots.
    pub secondary: u32,
}

/// The checkpoint meta file: schema-level state plus the replay cuts.
#[derive(Clone, Debug)]
pub struct CheckpointMeta {
    /// Commit-clock stable bound captured by the checkpoint.
    pub stable_ts: u64,
    /// Number of partitions.
    pub partitions: u32,
    /// Per-table metadata, in table-id order.
    pub tables: Vec<TableMeta>,
    /// Per-partition WAL cut: replay starts here.
    pub cuts: Vec<Lsn>,
}

/// One table's dumped tuples and index entries within one partition shard.
#[derive(Clone, Debug, Default)]
pub struct TableDump {
    /// `(key, version_ts, row)` in the shard's insertion order.
    pub tuples: Vec<(u64, u64, Row)>,
    /// Per secondary-index slot: `(secondary key, primary key)` postings,
    /// in the index's per-key insertion order.
    pub secondary: Vec<Vec<(u64, u64)>>,
}

/// A per-partition checkpoint data file.
#[derive(Clone, Debug)]
pub struct CheckpointPart {
    /// The owning checkpoint's stable bound.
    pub stable_ts: u64,
    /// Which partition shard this file captures.
    pub partition: u32,
    /// Per-table dumps, in table-id order.
    pub tables: Vec<TableDump>,
}

fn ckpt_meta_name(stable_ts: u64) -> String {
    format!("ckpt-{stable_ts:020}.meta")
}

fn ckpt_part_name(stable_ts: u64, partition: u32) -> String {
    format!("ckpt-{stable_ts:020}-p{partition:03}.dat")
}

fn enc_str(buf: &mut Vec<u8>, s: &str) {
    enc_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn dec_str(c: &mut Cursor<'_>) -> Option<String> {
    let len = c.u64()? as usize;
    let bytes = c.take(len)?;
    Some(std::str::from_utf8(bytes).ok()?.to_owned())
}

fn enc_route(buf: &mut Vec<u8>, r: &RouteStrategy) {
    match r {
        RouteStrategy::Hash => buf.push(0),
        RouteStrategy::Range(bounds) => {
            buf.push(1);
            enc_u64(buf, bounds.len() as u64);
            for &b in bounds {
                enc_u64(buf, b);
            }
        }
        RouteStrategy::ShiftDiv { shift, div } => {
            buf.push(2);
            enc_u32(buf, *shift);
            enc_u64(buf, *div);
        }
        RouteStrategy::Replicated => buf.push(3),
        RouteStrategy::Pin(p) => {
            buf.push(4);
            enc_u32(buf, *p);
        }
    }
}

fn dec_route(c: &mut Cursor<'_>) -> Option<RouteStrategy> {
    Some(match c.u8()? {
        0 => RouteStrategy::Hash,
        1 => {
            let n = c.u64()? as usize;
            let mut bounds = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                bounds.push(c.u64()?);
            }
            RouteStrategy::Range(bounds)
        }
        2 => RouteStrategy::ShiftDiv {
            shift: c.u32()?,
            div: c.u64()?,
        },
        3 => RouteStrategy::Replicated,
        4 => RouteStrategy::Pin(c.u32()?),
        _ => return None,
    })
}

fn datatype_tag(ty: DataType) -> u8 {
    match ty {
        DataType::U64 => 0,
        DataType::I64 => 1,
        DataType::F64 => 2,
        DataType::Str => 3,
    }
}

fn dec_datatype(tag: u8) -> Option<DataType> {
    Some(match tag {
        0 => DataType::U64,
        1 => DataType::I64,
        2 => DataType::F64,
        3 => DataType::Str,
        _ => return None,
    })
}

impl LogDir {
    /// Writes `body` to file `name` with a trailing CRC32 footer, fsyncing
    /// the file before returning.
    fn write_checksummed(&self, name: &str, mut body: Vec<u8>) -> io::Result<()> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let mut file = self.backend.create(&self.path.join(name))?;
        file.write_all(&body)?;
        file.sync_data()?;
        Ok(())
    }

    /// Reads file `name`, verifies the CRC footer, and returns the body
    /// bytes.
    fn read_checksummed(&self, name: &str) -> io::Result<Vec<u8>> {
        let mut bytes = self.backend.read(&self.path.join(name))?;
        if bytes.len() < 4 {
            return Err(corrupt(name, "shorter than its CRC footer"));
        }
        let body_len = bytes.len() - 4;
        let stored = u32::from_le_bytes([
            bytes[body_len],
            bytes[body_len + 1],
            bytes[body_len + 2],
            bytes[body_len + 3],
        ]);
        if crc32(&bytes[..body_len]) != stored {
            return Err(corrupt(name, "CRC mismatch"));
        }
        bytes.truncate(body_len);
        Ok(bytes)
    }
}

fn corrupt(name: &str, what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{name}: {what}"))
}

impl LogDir {
    /// Writes the checkpoint meta file (call **after** every part file is
    /// on disk: the meta file's presence is what makes a checkpoint
    /// complete).
    pub fn write_checkpoint_meta(&self, meta: &CheckpointMeta) -> io::Result<()> {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(CKPT_META_MAGIC);
        enc_u32(&mut buf, FORMAT_VERSION);
        enc_u64(&mut buf, meta.stable_ts);
        enc_u32(&mut buf, meta.partitions);
        enc_u32(&mut buf, meta.tables.len() as u32);
        for t in &meta.tables {
            enc_str(&mut buf, &t.name);
            enc_u32(&mut buf, t.schema.len() as u32);
            for col in t.schema.columns() {
                enc_str(&mut buf, &col.name);
                buf.push(datatype_tag(col.ty));
            }
            enc_route(&mut buf, &t.route);
            buf.push(t.ordered as u8);
            enc_u32(&mut buf, t.secondary);
        }
        enc_u32(&mut buf, meta.cuts.len() as u32);
        for &c in &meta.cuts {
            enc_u64(&mut buf, c);
        }
        self.write_checksummed(&ckpt_meta_name(meta.stable_ts), buf)
    }
}

fn parse_checkpoint_meta(name: &str, body: &[u8]) -> io::Result<CheckpointMeta> {
    let bad = || corrupt(name, "malformed meta body");
    let mut c = Cursor::new(body);
    if c.take(8).ok_or_else(bad)? != CKPT_META_MAGIC {
        return Err(corrupt(name, "bad magic"));
    }
    if c.u32().ok_or_else(bad)? != FORMAT_VERSION {
        return Err(corrupt(name, "unsupported format version"));
    }
    let stable_ts = c.u64().ok_or_else(bad)?;
    let partitions = c.u32().ok_or_else(bad)?;
    let n_tables = c.u32().ok_or_else(bad)? as usize;
    let mut tables = Vec::with_capacity(n_tables.min(1024));
    for _ in 0..n_tables {
        let table_name = dec_str(&mut c).ok_or_else(bad)?;
        let n_cols = c.u32().ok_or_else(bad)? as usize;
        let mut schema = Schema::build();
        for _ in 0..n_cols {
            let col = dec_str(&mut c).ok_or_else(bad)?;
            let ty = dec_datatype(c.u8().ok_or_else(bad)?).ok_or_else(bad)?;
            schema = schema.column(&col, ty);
        }
        let route = dec_route(&mut c).ok_or_else(bad)?;
        let ordered = c.u8().ok_or_else(bad)? != 0;
        let secondary = c.u32().ok_or_else(bad)?;
        tables.push(TableMeta {
            name: table_name,
            schema,
            route,
            ordered,
            secondary,
        });
    }
    let n_cuts = c.u32().ok_or_else(bad)? as usize;
    let mut cuts = Vec::with_capacity(n_cuts.min(1024));
    for _ in 0..n_cuts {
        cuts.push(c.u64().ok_or_else(bad)?);
    }
    if !c.done() {
        return Err(bad());
    }
    Ok(CheckpointMeta {
        stable_ts,
        partitions,
        tables,
        cuts,
    })
}

impl LogDir {
    /// Writes one partition's checkpoint data file (fsynced).
    pub fn write_checkpoint_part(&self, part: &CheckpointPart) -> io::Result<()> {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(CKPT_PART_MAGIC);
        enc_u32(&mut buf, FORMAT_VERSION);
        enc_u64(&mut buf, part.stable_ts);
        enc_u32(&mut buf, part.partition);
        enc_u32(&mut buf, part.tables.len() as u32);
        for t in &part.tables {
            enc_u64(&mut buf, t.tuples.len() as u64);
            for (key, version_ts, row) in &t.tuples {
                enc_u64(&mut buf, *key);
                enc_u64(&mut buf, *version_ts);
                encode_row(&mut buf, row);
            }
            enc_u32(&mut buf, t.secondary.len() as u32);
            for entries in &t.secondary {
                enc_u64(&mut buf, entries.len() as u64);
                for (skey, primary) in entries {
                    enc_u64(&mut buf, *skey);
                    enc_u64(&mut buf, *primary);
                }
            }
        }
        self.write_checksummed(&ckpt_part_name(part.stable_ts, part.partition), buf)
    }

    /// Reads one partition's checkpoint data file.
    pub fn read_checkpoint_part(
        &self,
        stable_ts: u64,
        partition: u32,
    ) -> io::Result<CheckpointPart> {
        let name = ckpt_part_name(stable_ts, partition);
        let body = self.read_checksummed(&name)?;
        let bad = || corrupt(&name, "malformed part body");
        let mut c = Cursor::new(&body);
        if c.take(8).ok_or_else(bad)? != CKPT_PART_MAGIC {
            return Err(corrupt(&name, "bad magic"));
        }
        if c.u32().ok_or_else(bad)? != FORMAT_VERSION {
            return Err(corrupt(&name, "unsupported format version"));
        }
        let file_ts = c.u64().ok_or_else(bad)?;
        let file_part = c.u32().ok_or_else(bad)?;
        if file_ts != stable_ts || file_part != partition {
            return Err(corrupt(&name, "identity mismatch"));
        }
        let n_tables = c.u32().ok_or_else(bad)? as usize;
        let mut tables = Vec::with_capacity(n_tables.min(1024));
        for _ in 0..n_tables {
            let n_tuples = c.u64().ok_or_else(bad)? as usize;
            let mut tuples = Vec::with_capacity(n_tuples.min(1 << 20));
            for _ in 0..n_tuples {
                let key = c.u64().ok_or_else(bad)?;
                let version_ts = c.u64().ok_or_else(bad)?;
                let row = dec_row(&mut c).ok_or_else(bad)?;
                tuples.push((key, version_ts, row));
            }
            let n_idx = c.u32().ok_or_else(bad)? as usize;
            let mut secondary = Vec::with_capacity(n_idx.min(64));
            for _ in 0..n_idx {
                let n_entries = c.u64().ok_or_else(bad)? as usize;
                let mut entries = Vec::with_capacity(n_entries.min(1 << 20));
                for _ in 0..n_entries {
                    entries.push((c.u64().ok_or_else(bad)?, c.u64().ok_or_else(bad)?));
                }
                secondary.push(entries);
            }
            tables.push(TableDump { tuples, secondary });
        }
        if !c.done() {
            return Err(bad());
        }
        Ok(CheckpointPart {
            stable_ts,
            partition,
            tables,
        })
    }

    /// Returns the newest complete checkpoint in the directory (largest
    /// stable ts whose meta file parses and whose partition count matches
    /// its cut list), if any.
    pub fn latest_checkpoint(&self) -> io::Result<Option<CheckpointMeta>> {
        let mut stamps = Vec::new();
        for name in self.backend.list_dir(&self.path)? {
            if let Some(ts) = name
                .strip_prefix("ckpt-")
                .and_then(|r| r.strip_suffix(".meta"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                stamps.push(ts);
            }
        }
        stamps.sort_unstable();
        for ts in stamps.into_iter().rev() {
            let name = ckpt_meta_name(ts);
            let Ok(body) = self.read_checksummed(&name) else {
                continue;
            };
            if let Ok(meta) = parse_checkpoint_meta(&name, &body) {
                if meta.cuts.len() == meta.partitions as usize {
                    return Ok(Some(meta));
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bamboo-log-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin {
                txn_id: 7,
                commit_ts: 42,
                parts_mask: 0b101,
            },
            WalRecord::Update {
                table: 3,
                key: 99,
                row: Row::from(vec![Value::U64(1), Value::I64(-5), Value::from("abc")]),
            },
            WalRecord::Insert {
                table: 2,
                key: 11,
                row: Row::from(vec![Value::F64(2.5)]),
                secondary: Some((0, 4242)),
            },
            WalRecord::Insert {
                table: 2,
                key: 12,
                row: Row::from(vec![Value::F64(0.0)]),
                secondary: None,
            },
            WalRecord::Commit {
                txn_id: 7,
                commit_ts: 42,
            },
            WalRecord::Checkpoint {
                stable_ts: 40,
                cuts: vec![0, 128, 77],
            },
        ]
    }

    #[test]
    fn record_codec_round_trips_every_kind() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            encode_record(&rec, &mut buf);
            assert_eq!(decode_record(&buf).as_ref(), Some(&rec));
        }
    }

    #[test]
    fn decode_rejects_flipped_and_truncated_bytes() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            encode_record(&rec, &mut buf);
            // Truncation at any point either fails to decode or (only for a
            // prefix that is never a valid full record here) differs.
            for cut in 0..buf.len() {
                assert_ne!(decode_record(&buf[..cut]).as_ref(), Some(&rec));
            }
            // An unknown kind byte is rejected outright.
            let mut bad = buf.clone();
            bad[0] = 0xFF;
            assert_eq!(decode_record(&bad), None);
        }
    }

    /// The row decoder's failure paths: a value count the payload cannot
    /// hold (it must fail before sizing an allocation by it), an unknown
    /// value tag, and a string that is not UTF-8.
    #[test]
    fn decode_rejects_malformed_rows() {
        let update = |row: &[u8]| {
            let mut buf = vec![2u8];
            enc_u32(&mut buf, 3);
            enc_u64(&mut buf, 99);
            buf.extend_from_slice(row);
            buf
        };
        let mut good = Vec::new();
        encode_row(
            &mut good,
            &Row::from(vec![Value::U64(1), Value::from("ab")]),
        );
        assert!(decode_record(&update(&good)).is_some());
        let mut huge = good.clone();
        huge[..8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert_eq!(decode_record(&update(&huge)), None);
        let mut tag = good.clone();
        tag[8] = 9;
        assert_eq!(decode_record(&update(&tag)), None);
        let mut utf8 = good.clone();
        let last = utf8.len() - 1;
        utf8[last] = 0xFF;
        assert_eq!(decode_record(&update(&utf8)), None);
    }

    #[test]
    fn crc_matches_known_vector() {
        // The classic IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The surviving policies keep their header tags; the retired tags (1,
    /// 2 and 3, see `FsyncPolicy::encode`) are rejected like any unknown
    /// tag.
    #[test]
    fn policy_header_tags_are_stable_and_retired_tags_rejected() {
        let group = FsyncPolicy::GroupCommit {
            max_batch: 8,
            max_wait_us: 100,
        };
        assert_eq!(FsyncPolicy::Never.encode().0, 0);
        assert_eq!(group.encode().0, 4);
        for policy in [FsyncPolicy::Never, group] {
            let (tag, arg) = policy.encode();
            assert_eq!(FsyncPolicy::decode(tag, arg), Some(policy));
        }
        for tag in [1, 2, 3, 5, 0xFF] {
            assert_eq!(FsyncPolicy::decode(tag, 8), None);
        }
    }

    #[test]
    fn segment_write_scan_round_trip() {
        let dir = tmp_dir("roundtrip");
        let recs = sample_records();
        {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
            for r in &recs {
                w.append_record(r).unwrap();
            }
            w.sync().unwrap();
        }
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        let got: Vec<_> = scan.records.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(got, recs);
        // LSNs are strictly increasing and end_lsn covers the last frame.
        for pair in scan.records.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
        assert!(scan.end_lsn > scan.records.last().unwrap().0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_scan_reads_through() {
        let dir = tmp_dir("rotate");
        let n = 64;
        {
            // Tiny segment budget: force many rotations.
            let mut w = SegmentWriter::open(&dir, 2, FsyncPolicy::Never, 256).unwrap();
            for i in 0..n {
                w.append_record(&WalRecord::Commit {
                    txn_id: i,
                    commit_ts: i + 1,
                })
                .unwrap();
            }
            w.sync().unwrap();
        }
        assert!(LogDir::real(&dir).list_segments(2).unwrap().len() > 1);
        let scan = LogDir::real(&dir).scan_partition_from(2, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), n as usize);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_from_lsn_skips_prefix() {
        let dir = tmp_dir("skip");
        let mut cut = 0;
        {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 200).unwrap();
            for i in 0..20u64 {
                let at = w
                    .append_record(&WalRecord::Commit {
                        txn_id: i,
                        commit_ts: i + 1,
                    })
                    .unwrap();
                if i == 10 {
                    cut = at;
                }
            }
            w.sync().unwrap();
        }
        let scan = LogDir::real(&dir).scan_partition_from(0, cut).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert!(scan.records.iter().all(|(lsn, _)| *lsn >= cut));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_scan_and_open_truncates_it() {
        let dir = tmp_dir("torn");
        let data_end = {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
            for i in 0..5u64 {
                w.append_record(&WalRecord::Commit {
                    txn_id: i,
                    commit_ts: i + 1,
                })
                .unwrap();
            }
            w.sync().unwrap();
            SEG_HEADER_LEN + w.lsn()
        };
        // Chop the file 3 bytes short of its data end, landing mid-frame.
        let (_, path) = LogDir::real(&dir).list_segments(0).unwrap().pop().unwrap();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(data_end - 3).unwrap();
        drop(f);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 4);
        let valid_end = scan.end_lsn;
        // Re-opening truncates the torn frame and appends a new segment.
        {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
            assert_eq!(w.lsn(), valid_end);
            w.append_record(&WalRecord::Commit {
                txn_id: 9,
                commit_ts: 10,
            })
            .unwrap();
            w.sync().unwrap();
        }
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 5);
        assert!(matches!(
            scan.records.last().unwrap().1,
            WalRecord::Commit { txn_id: 9, .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_mid_log_stops_cleanly() {
        let dir = tmp_dir("crcflip");
        let data_len = {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
            for i in 0..5u64 {
                w.append_record(&WalRecord::Commit {
                    txn_id: i,
                    commit_ts: i + 1,
                })
                .unwrap();
            }
            w.sync().unwrap();
            w.lsn()
        };
        let (_, path) = LogDir::real(&dir).list_segments(0).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte of the third record (frames are uniform
        // here, so locate it arithmetically).
        let frame = data_len / 5;
        let at = SEG_HEADER_LEN as usize + 2 * frame as usize + 9;
        bytes[at] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn file_len(path: &Path) -> u64 {
        fs::metadata(path).unwrap().len()
    }

    /// A new segment owns its full size from the start; appends overwrite
    /// its zeros without growing it, and the zeros past the data scan as
    /// the clean end of the log.
    #[test]
    fn a_fresh_segment_is_preallocated_and_scans_clean() {
        let dir = tmp_dir("prealloc");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 4096).unwrap();
        let (_, path) = LogDir::real(&dir).list_segments(0).unwrap().pop().unwrap();
        assert_eq!(file_len(&path), SEG_HEADER_LEN + 4096);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert!(scan.records.is_empty());
        assert_eq!(scan.end_lsn, 0);

        for txn in 0..3 {
            stage_txn(&mut w, txn);
            w.flush_group().unwrap();
        }
        w.sync().unwrap();
        assert_eq!(
            file_len(&path),
            SEG_HEADER_LEN + 4096,
            "appends never grow it"
        );
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 6);
        assert_eq!(scan.end_lsn, w.lsn());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Rotation seals a segment at exactly header + data and starts the
    /// next one preallocated. A group that would not fit rotates first; one
    /// larger than a whole segment gets a segment of its own and grows it.
    #[test]
    fn a_sealed_segment_is_exactly_header_plus_data() {
        let dir = tmp_dir("sealed");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 200).unwrap();
        let (mut sealed_at, mut txns) = (0, 0);
        while w.seg_index == 0 {
            sealed_at = w.lsn();
            stage_txn(&mut w, 1);
            w.flush_group().unwrap();
            txns += 1;
        }
        assert!(
            sealed_at <= 200,
            "the group that would not fit went to segment 1"
        );
        let segs = LogDir::real(&dir).list_segments(0).unwrap();
        assert_eq!(file_len(&segs[0].1), SEG_HEADER_LEN + sealed_at);
        assert_eq!(file_len(&segs[1].1), SEG_HEADER_LEN + 200);

        // Five transactions in one group: 290 bytes, more than a segment.
        let big_at = w.lsn();
        (2..7).for_each(|txn| stage_txn(&mut w, txn));
        w.flush_group().unwrap();
        let big = w.lsn() - big_at;
        assert!(big > 200);
        stage_txn(&mut w, 7);
        w.flush_group().unwrap();
        w.sync().unwrap();
        let segs = LogDir::real(&dir).list_segments(0).unwrap();
        assert_eq!(segs.len(), 4);
        assert_eq!(file_len(&segs[1].1), SEG_HEADER_LEN + big_at - sealed_at);
        assert_eq!(file_len(&segs[2].1), SEG_HEADER_LEN + big);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.end_lsn, w.lsn());
        assert_eq!(scan.records.len(), 2 * (txns + 6));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopening a log trims the zero tail its last writer left, and
    /// writing resumes at the end of the data in a fresh preallocated
    /// segment.
    #[test]
    fn reopen_trims_the_zero_tail_and_resumes() {
        let dir = tmp_dir("reopen");
        let end = {
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 4096).unwrap();
            for txn in 0..3 {
                stage_txn(&mut w, txn);
                w.flush_group().unwrap();
            }
            w.sync().unwrap();
            w.lsn()
        };
        let (_, first) = LogDir::real(&dir).list_segments(0).unwrap().pop().unwrap();
        assert_eq!(file_len(&first), SEG_HEADER_LEN + 4096);

        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 4096).unwrap();
        assert_eq!(w.lsn(), end);
        assert_eq!(file_len(&first), SEG_HEADER_LEN + end);
        let segs = LogDir::real(&dir).list_segments(0).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(file_len(&segs[1].1), SEG_HEADER_LEN + 4096);
        stage_txn(&mut w, 9);
        w.flush_group().unwrap();
        w.sync().unwrap();
        drop(w);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 8);
        assert!(matches!(
            scan.records.last().unwrap().1,
            WalRecord::Commit { txn_id: 9, .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A short write lands a prefix of a group on the preallocation's
    /// zeros. The scan still reports it torn (its length word is not zero),
    /// and reopening cuts the segment back to the last whole group. Seed 7
    /// cuts the group 10 bytes in, inside its first frame's checksum.
    #[test]
    fn a_short_write_into_the_preallocation_is_torn_and_cut_on_reopen() {
        let dir = tmp_dir("prealloc-torn");
        let inj = FaultInjector::new(FaultPlan {
            seed: 7,
            short_write_permille: 1000,
            ..FaultPlan::quiet(7)
        });
        let backend: Arc<dyn LogBackend> = Arc::new(FaultBackend::new(Arc::clone(&inj)));
        let mut w = LogDir::new(&dir, backend)
            .open_writer(0, FsyncPolicy::Never, 4096)
            .unwrap();
        stage_txn(&mut w, 1);
        w.flush_group().unwrap();
        let clean_end = w.lsn();
        inj.arm();
        stage_txn(&mut w, 2);
        assert!(w.flush_group().is_err(), "the schedule tears every write");
        drop(w); // the handle's buffered prefix reaches the file

        let (_, path) = LogDir::real(&dir).list_segments(0).unwrap().pop().unwrap();
        assert_eq!(file_len(&path), SEG_HEADER_LEN + 4096);
        let at = (SEG_HEADER_LEN + clean_end) as usize;
        assert_ne!(
            fs::read(&path).unwrap()[at..at + 4],
            [0; 4],
            "a prefix landed"
        );
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.end_lsn, clean_end);
        assert_eq!(scan.records.len(), 2);

        let w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 4096).unwrap();
        assert_eq!(w.lsn(), clean_end);
        assert_eq!(file_len(&path), SEG_HEADER_LEN + clean_end);
        drop(w);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_files_round_trip_and_latest_picks_newest() {
        let dir = tmp_dir("ckpt");
        let meta = CheckpointMeta {
            stable_ts: 17,
            partitions: 2,
            tables: vec![TableMeta {
                name: "accounts".into(),
                schema: Schema::build()
                    .column("id", DataType::U64)
                    .column("balance", DataType::I64),
                route: RouteStrategy::ShiftDiv { shift: 4, div: 3 },
                ordered: true,
                secondary: 1,
            }],
            cuts: vec![100, 228],
        };
        let part = CheckpointPart {
            stable_ts: 17,
            partition: 1,
            tables: vec![TableDump {
                tuples: vec![
                    (5, 3, Row::from(vec![Value::U64(5), Value::I64(-1)])),
                    (9, 17, Row::from(vec![Value::U64(9), Value::I64(8)])),
                ],
                secondary: vec![vec![(77, 0), (77, 1)]],
            }],
        };
        LogDir::real(&dir).write_checkpoint_part(&part).unwrap();
        LogDir::real(&dir).write_checkpoint_meta(&meta).unwrap();
        // An older checkpoint is ignored in favor of the newest.
        LogDir::real(&dir)
            .write_checkpoint_meta(&CheckpointMeta {
                stable_ts: 3,
                partitions: 2,
                tables: vec![],
                cuts: vec![0, 0],
            })
            .unwrap();
        let got = LogDir::real(&dir).latest_checkpoint().unwrap().unwrap();
        assert_eq!(got.stable_ts, 17);
        assert_eq!(got.cuts, meta.cuts);
        assert_eq!(got.tables.len(), 1);
        assert_eq!(got.tables[0].name, "accounts");
        assert_eq!(got.tables[0].route, meta.tables[0].route);
        assert_eq!(got.tables[0].schema.columns().len(), 2);
        let rp = LogDir::real(&dir).read_checkpoint_part(17, 1).unwrap();
        assert_eq!(rp.tables[0].tuples, part.tables[0].tuples);
        assert_eq!(rp.tables[0].secondary, part.tables[0].secondary);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_meta_falls_back_to_older_checkpoint() {
        let dir = tmp_dir("ckpt-fallback");
        let older = CheckpointMeta {
            stable_ts: 5,
            partitions: 1,
            tables: vec![],
            cuts: vec![42],
        };
        LogDir::real(&dir).write_checkpoint_meta(&older).unwrap();
        let newer = CheckpointMeta {
            stable_ts: 9,
            partitions: 1,
            tables: vec![],
            cuts: vec![64],
        };
        LogDir::real(&dir).write_checkpoint_meta(&newer).unwrap();
        // Corrupt the newer meta: latest_checkpoint must fall back.
        let path = dir.join(ckpt_meta_name(9));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let got = LogDir::real(&dir).latest_checkpoint().unwrap().unwrap();
        assert_eq!(got.stable_ts, 5);
        assert_eq!(got.cuts, vec![42]);
        fs::remove_dir_all(&dir).unwrap();
    }

    // --- fault injection / degraded-path machinery --------------------

    /// Same plan, same per-file operation sequence → byte-identical fault
    /// decisions, independent of wall clock or thread interleaving.
    #[test]
    fn fault_injector_is_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 77,
            fsync_permille: 300,
            short_write_permille: 200,
            enospc_permille: 100,
            open_permille: 50,
            read_permille: 50,
        };
        let run = || {
            let inj = FaultInjector::new(plan);
            inj.arm();
            let mut draws = Vec::new();
            let mut opens = Vec::new();
            for i in 0..64 {
                let name = format!("wal-p{:03}-00000000.seg", i % 3);
                draws.push(inj.draw(&name, i % 2 == 0));
                opens.push(inj.draw_open(&name));
            }
            (draws, opens, inj.injected())
        };
        let (a, oa, ia) = run();
        let (b, ob, ib) = run();
        assert_eq!(a, b);
        assert_eq!(oa, ob);
        assert_eq!(ia, ib);
        assert!(ia > 0, "permilles high enough that something fires");
    }

    /// The injector starts disarmed and injects nothing until armed;
    /// disarm stops it again.
    #[test]
    fn fault_injector_respects_arm_state() {
        let plan = FaultPlan {
            seed: 3,
            fsync_permille: 1000,
            ..FaultPlan::quiet(3)
        };
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.draw("f", false).0, Fault::None);
        inj.arm();
        assert_eq!(inj.draw("f", false).0, Fault::Fsync);
        inj.disarm();
        assert_eq!(inj.draw("f", false).0, Fault::None);
        assert_eq!(inj.injected(), 1);
    }

    /// `rewind_partial` after a torn flush restores the writer to the last
    /// clean boundary: re-staging and flushing the same group yields a log
    /// identical to a never-failed write.
    #[test]
    fn rewind_partial_then_rewrite_matches_clean_log() {
        let recs = sample_records();
        let write_group = |w: &mut SegmentWriter| {
            for r in &recs {
                w.stage_record(r);
            }
            w.flush_group().unwrap();
            w.sync().unwrap();
        };
        // Reference: one clean group.
        let clean = tmp_dir("rewind-clean");
        {
            let mut w = SegmentWriter::open(&clean, 0, FsyncPolicy::Never, 1 << 20).unwrap();
            write_group(&mut w);
        }
        // Faulted: a short write tears the first flush; rewind + retry.
        let torn = tmp_dir("rewind-torn");
        {
            let inj = FaultInjector::new(FaultPlan {
                seed: 99,
                short_write_permille: 1000,
                ..FaultPlan::quiet(99)
            });
            let backend: Arc<dyn LogBackend> = Arc::new(FaultBackend::new(Arc::clone(&inj)));
            let mut w = LogDir::new(&torn, backend)
                .open_writer(0, FsyncPolicy::Never, 1 << 20)
                .unwrap();
            inj.arm();
            for r in &recs {
                w.stage_record(r);
            }
            assert!(w.flush_group().is_err(), "the schedule tears every write");
            inj.disarm();
            w.rewind_partial().unwrap();
            w.flush_group().unwrap();
            w.sync().unwrap();
        }
        let a = LogDir::real(&clean).scan_partition_from(0, 0).unwrap();
        let b = LogDir::real(&torn).scan_partition_from(0, 0).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.end_lsn, b.end_lsn);
        fs::remove_dir_all(&clean).unwrap();
        fs::remove_dir_all(&torn).unwrap();
    }

    /// `abandon_group` durably removes a flushed-but-unsynced group: the
    /// scan sees only what preceded it, and the next group lands at the
    /// abandoned group's start LSN.
    #[test]
    fn abandon_group_removes_it_from_disk() {
        let dir = tmp_dir("abandon");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        w.stage_record(&WalRecord::Begin {
            txn_id: 1,
            commit_ts: 10,
            parts_mask: 1,
        });
        w.stage_record(&WalRecord::Commit {
            txn_id: 1,
            commit_ts: 10,
        });
        let start = w.flush_group().unwrap();
        w.sync().unwrap();

        w.stage_record(&WalRecord::Begin {
            txn_id: 2,
            commit_ts: 11,
            parts_mask: 1,
        });
        w.stage_record(&WalRecord::Commit {
            txn_id: 2,
            commit_ts: 11,
        });
        let doomed = w.flush_group().unwrap();
        assert!(doomed > start);
        w.abandon_group().unwrap();
        assert_eq!(w.lsn(), doomed, "lsn rewound to the abandoned group start");

        w.stage_record(&WalRecord::Begin {
            txn_id: 3,
            commit_ts: 12,
            parts_mask: 1,
        });
        w.stage_record(&WalRecord::Commit {
            txn_id: 3,
            commit_ts: 12,
        });
        w.flush_group().unwrap();
        w.sync().unwrap();
        drop(w);

        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        let ids: Vec<u64> = scan
            .records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Begin { txn_id, .. } => Some(*txn_id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![1, 3], "the abandoned group never replays");
        fs::remove_dir_all(&dir).unwrap();
    }

    fn stage_txn(w: &mut SegmentWriter, txn_id: u64) {
        w.stage_record(&WalRecord::Begin {
            txn_id,
            commit_ts: txn_id,
            parts_mask: 1,
        });
        w.stage_record(&WalRecord::Commit {
            txn_id,
            commit_ts: txn_id,
        });
    }

    /// A rotation whose new segment cannot be opened (created, headed or
    /// preallocated: one function, one failure path) fails the flush and
    /// leaves the writer where it was. The rewind and retry that
    /// `WalHandle`'s retry loop runs then re-run the whole rotation, and the
    /// log scans clean.
    #[test]
    fn a_failed_segment_open_fails_the_rotation_and_the_retry_reruns_it() {
        let dir = tmp_dir("rotate-open-fails");
        let inj = FaultInjector::new(FaultPlan {
            seed: 5,
            open_permille: 1000,
            ..FaultPlan::quiet(5)
        });
        let backend: Arc<dyn LogBackend> = Arc::new(FaultBackend::new(Arc::clone(&inj)));
        let mut w = LogDir::new(&dir, backend)
            .open_writer(0, FsyncPolicy::Never, 200)
            .unwrap();
        for txn in 0..3 {
            stage_txn(&mut w, txn);
            w.flush_group().unwrap();
        }
        let sealed_at = w.lsn();
        inj.arm();
        stage_txn(&mut w, 3);
        assert!(w.flush_group().is_err(), "the group needs a new segment");
        inj.disarm();
        assert_eq!((w.segment_index(), w.lsn()), (0, sealed_at));
        w.rewind_partial().unwrap();
        w.flush_group().unwrap();
        assert_eq!(w.segment_index(), 1);
        w.sync().unwrap();
        let segs = LogDir::real(&dir).list_segments(0).unwrap();
        assert_eq!(file_len(&segs[0].1), SEG_HEADER_LEN + sealed_at);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2 * 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A rotation between `begin_sync` and `finish_sync` seals the old
    /// segment at a higher LSN than the barrier's; the late `finish_sync`
    /// must not pull `synced_lsn` back down to it.
    #[test]
    fn finish_sync_after_a_rotation_never_lowers_synced_lsn() {
        let dir = tmp_dir("barrier-rotate");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 200).unwrap();
        stage_txn(&mut w, 1);
        w.flush_group().unwrap();
        let barrier = w.begin_sync().unwrap();
        let taken_at = w.lsn();
        while w.seg_index == 0 {
            stage_txn(&mut w, 2);
            w.flush_group().unwrap();
        }
        let sealed = w.synced_lsn();
        assert!(sealed > taken_at, "rotation synced past the barrier");
        barrier.wait().unwrap();
        w.finish_sync(&barrier);
        assert_eq!(w.synced_lsn(), sealed);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A barrier taken before `abandon_group` covered bytes that are gone:
    /// it is ignored both while it points above the writer's LSN and after
    /// new groups have been written over the range it covered.
    #[test]
    fn finish_sync_after_abandon_group_is_ignored() {
        let dir = tmp_dir("barrier-abandon");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        stage_txn(&mut w, 1);
        w.flush_group().unwrap();
        stage_txn(&mut w, 2);
        w.flush_group().unwrap();
        let barrier = w.begin_sync().unwrap();
        let taken_at = w.lsn();
        barrier.wait().unwrap();
        w.abandon_group().unwrap();
        assert!(taken_at > w.lsn());
        w.finish_sync(&barrier);
        assert_eq!(w.synced_lsn(), 0, "a barrier above the writer's lsn");
        for txn in 3..6 {
            stage_txn(&mut w, txn);
            w.flush_group().unwrap();
        }
        assert!(w.lsn() > taken_at);
        w.finish_sync(&barrier);
        assert_eq!(w.synced_lsn(), 0, "the covered range was rewritten");
        // A barrier of the current epoch works as ever.
        w.sync().unwrap();
        assert_eq!(w.synced_lsn(), w.lsn());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `rewind_partial` re-opens the segment's append handle but only cuts
    /// bytes above the writer's LSN, so a barrier in flight across it still
    /// covers what it covered.
    #[test]
    fn a_barrier_survives_a_concurrent_rewind_partial() {
        let dir = tmp_dir("barrier-rewind");
        let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 1 << 20).unwrap();
        stage_txn(&mut w, 1);
        w.flush_group().unwrap();
        let barrier = w.begin_sync().unwrap();
        let taken_at = w.lsn();
        stage_txn(&mut w, 2);
        w.rewind_partial().unwrap();
        w.flush_group().unwrap();
        barrier.wait().unwrap();
        w.finish_sync(&barrier);
        assert_eq!(w.synced_lsn(), taken_at);
        drop(w);
        let scan = LogDir::real(&dir).scan_partition_from(0, 0).unwrap();
        assert_eq!(scan.records.len(), 4, "both groups intact");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One seed, one schedule: the fsync fault is drawn when the barrier is
    /// taken, so a fixed sequence of appends and split syncs replays with
    /// the same outcome per step and the same injected-fault count.
    #[test]
    fn split_sync_replays_identically_per_seed() {
        let plan = FaultPlan {
            seed: 4242,
            fsync_permille: 300,
            short_write_permille: 200,
            ..FaultPlan::quiet(4242)
        };
        let run = |tag: &str| {
            let dir = tmp_dir(tag);
            let inj = FaultInjector::new(plan);
            let backend: Arc<dyn LogBackend> = Arc::new(FaultBackend::new(Arc::clone(&inj)));
            let mut w = LogDir::new(&dir, backend)
                .open_writer(0, FsyncPolicy::Never, 1 << 20)
                .unwrap();
            inj.arm();
            let mut outcomes = Vec::new();
            for txn in 0..48 {
                stage_txn(&mut w, txn);
                let landed = w.flush_group().is_ok();
                if !landed {
                    w.rewind_partial().unwrap();
                    w.clear_group();
                }
                let synced = w.begin_sync().and_then(|b| {
                    b.wait()?;
                    w.finish_sync(&b);
                    Ok(())
                });
                outcomes.push((landed, synced.is_ok(), w.synced_lsn()));
            }
            inj.disarm();
            drop(w);
            fs::remove_dir_all(&dir).unwrap();
            (outcomes, inj.injected())
        };
        let (a, ia) = run("split-sync-a");
        let (b, ib) = run("split-sync-b");
        assert_eq!(a, b);
        assert_eq!(ia, ib);
        assert!(a.iter().any(|&(landed, synced, _)| landed && !synced));
        assert!(a.iter().any(|&(_, synced, _)| synced));
    }

    /// `retire_segments_below` deletes exactly the sealed segments whose
    /// whole record range sits below the cut; the retained suffix still
    /// scans from the cut.
    #[test]
    fn retire_segments_below_keeps_the_scannable_suffix() {
        let dir = tmp_dir("retire");
        let mut boundaries = Vec::new();
        {
            // 200-byte segments force frequent rotation.
            let mut w = SegmentWriter::open(&dir, 0, FsyncPolicy::Never, 200).unwrap();
            for i in 0..30u64 {
                w.append_record(&WalRecord::Begin {
                    txn_id: i,
                    commit_ts: i,
                    parts_mask: 1,
                })
                .unwrap();
                w.append_record(&WalRecord::Commit {
                    txn_id: i,
                    commit_ts: i,
                })
                .unwrap();
                boundaries.push(w.lsn());
            }
            w.sync().unwrap();
        }
        let total_segs = LogDir::real(&dir).list_segments(0).unwrap().len();
        assert!(total_segs > 3, "rotation must have split the log");

        // Cut at a mid-log group boundary.
        let cut = boundaries[14];
        let retired = LogDir::real(&dir).retire_segments_below(0, cut).unwrap();
        assert!(retired > 0, "some sealed prefix must retire");
        assert_eq!(
            LogDir::real(&dir).list_segments(0).unwrap().len() as u64,
            total_segs as u64 - retired
        );

        // The suffix from the cut is intact.
        let scan = LogDir::real(&dir).scan_partition_from(0, cut).unwrap();
        let ids: Vec<u64> = scan
            .records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Begin { txn_id, .. } => Some(*txn_id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, (15..30).collect::<Vec<u64>>());

        // Retiring below the same cut again is a no-op.
        assert_eq!(LogDir::real(&dir).retire_segments_below(0, cut).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
