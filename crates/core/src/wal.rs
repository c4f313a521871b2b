//! The write-ahead log.
//!
//! The paper logs commit records "to main memory — modern non-volatile
//! memory would offer similar performance" (§5.1). [`WalBuffer`] reproduces
//! that cost profile: each commit serializes its redo record (transaction
//! id + after-images) into a per-worker ring buffer, so committing pays a
//! realistic memcpy without any I/O syscalls. Algorithm 1 line 6 — the log
//! write happens after the commit-semaphore wait and defines the commit
//! point together with the status CAS.
//!
//! The ring and the [`WalHandle`] are two things, not two kinds of one:
//!
//! * the **ring** ([`WalBuffer`]) belongs to the
//!   [`Session`](crate::session::Session). A database without
//!   [`crate::DbOptions::with_wal_dir`] logs every commit there as one
//!   record, whatever its partition count — the ring is never read back,
//!   so there is nothing to split by partition;
//! * the **[`WalHandle`]** is one partition's durable log: a
//!   [`bamboo_storage::log::SegmentWriter`] of checksummed
//!   `Begin`/`Update`/`Insert`/`Commit` records that [`crate::durability`]
//!   replays after a crash. It exists only when the database has a
//!   `wal_dir`; the protocol code then appends exactly one group per
//!   written partition, all of a commit's groups through one call,
//!   `append_groups`.
//!
//! Either way the log write happens after the commit point succeeded — so
//! only committed work ever reaches a durable log, which is what makes
//! recovery redo-only. A commit's redo groups land on every partition it
//! writes or on none: a cross-partition commit holds all its partitions'
//! sink locks until its last group landed, and cuts the landed ones back
//! out if a later append fails. No orphan group
//! is ever left in the middle of a log, so recovery needs one rule, the
//! horizon cut (see [`crate::durability`]).
//!
//! # Group commit
//!
//! The append itself never fsyncs, under either policy. Under
//! [`FsyncPolicy::GroupCommit`] committers log, install, and release their
//! locks immediately (early lock release — sound because the
//! log-before-install ordering means a dependent's group always lands at a
//! higher LSN than its writer's), then park on
//! [`WalHandle::wait_covered`]: the first parked committer becomes the
//! **leader** and issues one `fsync` covering every group staged so far,
//! advancing the per-partition `durable_lsn` watermark. The
//! acknowledgment additionally waits on the process-wide
//! [`DurabilityHorizon`] so that *every* commit with a lower timestamp is
//! durable before the client hears `Ok` — that is what lets crash
//! recovery's horizon cut keep every acknowledged commit (see
//! `DURABILITY.md` "Group commit").
//!
//! An acknowledgment waits for one thing, the fsync that covers it:
//!
//! * **not for its neighbours' acknowledgments** — a horizon entry carries
//!   the end LSN of each of its redo groups and retires as soon as the
//!   partitions' watermarks pass them, whoever advances the horizon; the
//!   session that owns the commit may still be mid-flight, or may have
//!   dropped its ticket;
//! * **not for the sink lock** — the leader takes its barrier under the
//!   lock (flush the buffered bytes, note the LSN) and waits out the
//!   device with the lock released, so the partition's appenders stage the
//!   next batch during the fsync instead of after it;
//! * **not for company it already has** — the leader's accumulation window
//!   exists to turn a lone group into a batch; a leader whose fsync would
//!   already cover two or more groups appended since the last barrier
//!   skips it.

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bamboo_storage::log::{
    encode_row, frame_insert, frame_record, frame_update, IoClass, IoFailure, Lsn, SegmentWriter,
    WalRecord,
};
use bamboo_storage::{FsyncPolicy, Row, TableId};
use parking_lot::{Condvar, Mutex, MutexGuard};

/// Default per-worker ring capacity (16 MiB, comfortably larger than any
/// single record).
const DEFAULT_CAP: usize = 16 << 20;

/// A per-worker in-memory redo log ring.
pub struct WalBuffer {
    buf: Vec<u8>,
    pos: usize,
    /// Total bytes ever appended (wraps the ring, never resets).
    bytes_logged: u64,
    /// Number of commit records appended.
    records: u64,
    /// Reusable encode buffer: each commit record is serialized here and
    /// copied into the ring with a single `put`, so the append allocates
    /// nothing once the buffer warmed up to the session's largest record
    /// (and the ring's wrap-seam branching runs once per record instead
    /// of once per field).
    scratch: Vec<u8>,
}

impl WalBuffer {
    /// Creates a ring of `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        WalBuffer {
            buf: vec![0u8; cap],
            pos: 0,
            bytes_logged: 0,
            records: 0,
            scratch: Vec::with_capacity(256),
        }
    }

    /// Default-sized ring.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAP)
    }

    /// Small ring for unit tests and doctests.
    pub fn for_tests() -> Self {
        Self::with_capacity(64 << 10)
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        // Ring semantics: wrap on overflow. Records may straddle the seam;
        // nothing ever reads the ring back (it models NVM write cost), so
        // only the copy matters.
        let cap = self.buf.len();
        let mut off = self.pos;
        for chunk in bytes.chunks(cap) {
            if off + chunk.len() <= cap {
                self.buf[off..off + chunk.len()].copy_from_slice(chunk);
                off += chunk.len();
            } else {
                let first = cap - off;
                self.buf[off..].copy_from_slice(&chunk[..first]);
                let rest = chunk.len() - first;
                self.buf[..rest].copy_from_slice(&chunk[first..]);
                off = rest;
            }
            if off == cap {
                off = 0;
            }
        }
        self.pos = off;
        self.bytes_logged += bytes.len() as u64;
    }

    /// Appends one commit record: txn id plus the after-image of every
    /// write `(table, primary key, image)`. Encoded into the reusable scratch
    /// buffer, then copied into the ring in one `put` — no per-record
    /// allocation.
    pub fn append_commit<'a>(
        &mut self,
        txn_id: u64,
        writes: impl Iterator<Item = (TableId, u64, &'a Row)>,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(b"CMT!");
        scratch.extend_from_slice(&txn_id.to_le_bytes());
        let mut n = 0u64;
        for (table, key, row) in writes {
            scratch.extend_from_slice(&(table.0 as u64).to_le_bytes());
            scratch.extend_from_slice(&key.to_le_bytes());
            // The durable log's row codec: one spelling of a tagged value.
            encode_row(&mut scratch, row);
            n += 1;
        }
        scratch.extend_from_slice(&n.to_le_bytes());
        self.put(&scratch);
        self.scratch = scratch;
        self.records += 1;
    }

    /// Total bytes appended over the buffer's lifetime.
    pub fn bytes_logged(&self) -> u64 {
        self.bytes_logged
    }

    /// Number of commit records appended.
    pub fn records(&self) -> u64 {
        self.records
    }
}

impl Default for WalBuffer {
    fn default() -> Self {
        Self::new()
    }
}

/// One write inside a commit's redo group, as handed to `append_groups`.
/// Borrowed from the transaction context — the append encodes borrowed
/// bytes and clones nothing.
pub enum WalWrite<'a> {
    /// After-image of an updated row.
    Update {
        /// Owning table.
        table: TableId,
        /// Primary key.
        key: u64,
        /// The full after-image.
        after: &'a Row,
    },
    /// A freshly inserted row.
    Insert {
        /// Owning table.
        table: TableId,
        /// Primary key.
        key: u64,
        /// The inserted row.
        row: &'a Row,
        /// Optional `(secondary index slot, secondary key)` maintained with
        /// the insert.
        secondary: Option<(usize, u64)>,
    },
}

/// Total write/fsync attempts per operation before a transient fault is
/// escalated to a permanent one (1 initial try + 2 retries).
const WAL_IO_ATTEMPTS: u32 = 3;

/// Bound on one park in the group-commit coordinator and on the
/// durability horizon: lost wakeups, concurrent degrades, and a moving
/// stable timestamp are re-checked at least this often.
const GROUP_PARK: Duration = Duration::from_micros(100);

/// Backoff before retry `attempt` (1-based): 100µs, then 1ms.
fn retry_backoff(attempt: u32) {
    let us = 100u64.saturating_mul(10u64.saturating_pow(attempt.saturating_sub(1)));
    std::thread::sleep(Duration::from_micros(us));
}

fn degraded_error(op: &'static str) -> IoFailure {
    IoFailure::with_class(
        IoClass::Permanent,
        op,
        io::Error::other("partition WAL is degraded (read-only until healed)"),
    )
}

/// Group-commit coordinator state: who is leading the current batch fsync
/// and how many committers are parked waiting to be covered by it.
#[derive(Default)]
struct GroupState {
    /// A leader is currently accumulating or syncing.
    leader_active: bool,
    /// Committers parked on the condvar (followers + window joiners).
    waiting: u32,
    /// The leader's accumulation window, copied from the writer's policy
    /// whenever a writer is installed — parked committers read it here,
    /// under the queue lock they already hold, and never touch the sink
    /// lock (held by appenders across their file write) before the
    /// leader's sync. Zero under `Never`.
    max_batch: u32,
    max_wait: Duration,
}

impl GroupState {
    fn set_window(&mut self, policy: FsyncPolicy) {
        (self.max_batch, self.max_wait) = match policy {
            FsyncPolicy::GroupCommit {
                max_batch,
                max_wait_us,
            } => (max_batch, Duration::from_micros(max_wait_us)),
            FsyncPolicy::Never => (0, Duration::ZERO),
        };
    }
}

thread_local! {
    /// Per-thread encode buffers for the durable append path: the whole
    /// framed record group is built here *before* the partition sink lock
    /// is taken, so the lock covers only the file write. `(framed group,
    /// per-record payload scratch)`.
    static GROUP_ENCODE: RefCell<(Vec<u8>, Vec<u8>)> =
        RefCell::new((Vec::with_capacity(512), Vec::with_capacity(256)));
}

/// One partition's durable log: a segment writer behind a mutex, shared by
/// every session of the database (the segment file is the serialization
/// point anyway). An append holds the mutex for its file write; a
/// cross-partition commit holds every target partition's mutex, taken in
/// ascending partition order, from before its first write until its last
/// group landed (see `append_groups`). A database without
/// [`crate::DbOptions::with_wal_dir`] has none.
///
/// Storage faults surface as [`IoFailure`] instead of panicking: transient
/// faults are retried in place with bounded backoff, permanent ones (or an
/// exhausted retry budget) poison the handle into a **degraded** mode
/// where every further append fails fast until
/// [`WalHandle::replace_writer`] installs a freshly opened writer.
pub struct WalHandle {
    /// The partition's segment writer — `None` when it could not be
    /// opened, so every append fails fast until
    /// [`WalHandle::replace_writer`] installs one.
    sink: Mutex<Option<SegmentWriter>>,
    /// Commit groups appended (survives a heal), and its value when the
    /// last batch barrier was taken: the difference is how many groups the
    /// next leader's fsync would cover. Both written under the sink lock.
    records: AtomicU64,
    records_at_barrier: AtomicU64,
    /// Set on permanent failure; checked (fail-fast) before every append.
    degraded: AtomicBool,
    /// Transient faults retried successfully or not (observability).
    io_retries: AtomicU64,
    /// Permanent failures that degraded the handle.
    io_failures: AtomicU64,
    /// LSN up to which this partition's log is known durable. Written only
    /// under the sink lock, from the writer's `synced_lsn` (see
    /// `publish_synced`).
    durable_lsn: AtomicU64,
    /// Batch fsyncs issued by group-commit leaders.
    group_fsyncs: AtomicU64,
    /// Follower parks in `wait_covered` that ran out `GROUP_PARK` and then
    /// found themselves covered: wakeups the leader's notify should have
    /// delivered.
    timeout_wakeups: AtomicU64,
    /// Group-commit coordinator state, guarded separately from the sink so
    /// followers can park without blocking the appenders.
    group: Mutex<GroupState>,
    group_cond: Condvar,
}

impl WalHandle {
    fn from_writer(writer: Option<SegmentWriter>) -> Self {
        let mut group = GroupState::default();
        let durable_lsn = writer.as_ref().map_or(0, |w| {
            group.set_window(w.policy());
            w.synced_lsn()
        });
        WalHandle {
            degraded: AtomicBool::new(writer.is_none()),
            sink: Mutex::new(writer),
            records: AtomicU64::new(0),
            records_at_barrier: AtomicU64::new(0),
            io_retries: AtomicU64::new(0),
            io_failures: AtomicU64::new(0),
            durable_lsn: AtomicU64::new(durable_lsn),
            group_fsyncs: AtomicU64::new(0),
            timeout_wakeups: AtomicU64::new(0),
            group: Mutex::new(group),
            group_cond: Condvar::new(),
        }
    }

    /// Wraps a durable segment writer (one per partition; see
    /// [`crate::DbOptions::with_wal_dir`]).
    pub fn durable(writer: SegmentWriter) -> Self {
        Self::from_writer(Some(writer))
    }

    /// A handle whose writer failed to open: born degraded, every append
    /// fails fast with [`IoFailure`] until healed. Lets a partitioned
    /// database come up (serving snapshot reads and the other partitions'
    /// writes) even when one partition's log is unopenable.
    pub fn poisoned() -> Self {
        Self::from_writer(None)
    }

    /// True when the handle is degraded (writes fail fast; see
    /// [`WalHandle::replace_writer`]).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Transient-fault retries performed (successful or not).
    pub fn io_retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// Permanent failures that degraded this handle.
    pub fn io_failures(&self) -> u64 {
        self.io_failures.load(Ordering::Relaxed)
    }

    /// Heals a degraded handle: installs `writer` (freshly opened —
    /// [`SegmentWriter::open`] already truncated any torn tail) and
    /// re-admits writes. The commit-group count carries over.
    pub fn replace_writer(&self, writer: SegmentWriter) {
        self.group.lock().set_window(writer.policy());
        let mut sink = self.sink.lock();
        // The fresh writer resumes past the truncated tail; anything it
        // scanned over is on disk, so the durability watermark restarts
        // there. (It can move *backwards* across a heal: commits beyond the
        // old watermark were never acknowledged, so nothing is retracted.)
        self.durable_lsn
            .store(writer.synced_lsn(), Ordering::Release);
        *sink = Some(writer);
        // Clear the flag only after the sink is swapped: an append racing
        // the heal either fails fast on the flag or serializes behind the
        // sink mutex and lands in the new writer.
        self.degraded.store(false, Ordering::Release);
    }

    /// Records a permanent failure: counts it, degrades the handle, and
    /// forces the failure's class to permanent for the caller. Parked
    /// group-commit waiters observe the degrade within one bounded park
    /// tick (`GROUP_PARK`) — no explicit wakeup is needed.
    fn fail(&self, f: IoFailure) -> IoFailure {
        self.io_failures.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Release);
        IoFailure::with_class(IoClass::Permanent, f.op, f.error)
    }

    /// LSN up to which this partition's log is known durable (advanced by
    /// group-commit leader fsyncs and checkpoint markers).
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn.load(Ordering::Acquire)
    }

    /// Batch fsyncs issued by group-commit leaders on this handle.
    pub fn group_fsyncs(&self) -> u64 {
        self.group_fsyncs.load(Ordering::Relaxed)
    }

    /// Follower parks in [`WalHandle::wait_covered`] that ended on the
    /// `GROUP_PARK` timeout and then found their LSN already covered — a
    /// wakeup that came from the safety-net poll instead of the leader's
    /// notify. Reads 0 when every covered follower is woken.
    pub fn timeout_wakeups(&self) -> u64 {
        self.timeout_wakeups.load(Ordering::Relaxed)
    }

    /// Parks until the partition's durability watermark covers `lsn` —
    /// the group-commit coordinator.
    ///
    /// The fast path is one atomic load (a previous leader's fsync already
    /// covered us). Otherwise the caller joins the parked queue; the first
    /// to find no active leader **becomes** the leader. A leader whose
    /// fsync would cover fewer than two groups waits up to the policy's
    /// `max_wait_us` for more committers to join (cut short once
    /// `max_batch` are parked, or as soon as arrivals stall — parked
    /// committers' groups are already staged, so waiting longer only adds
    /// latency); one that already has company does not wait for more. It
    /// then issues ONE fsync covering every group staged so far — outside
    /// the sink lock, so appenders keep staging the next batch — publishes
    /// the new watermark, calls `after_sync` (the session advances the
    /// durability horizon there, which wakes acknowledgments the fsync
    /// completed) and wakes the followers. Followers re-check the
    /// watermark on bounded parks, so a lost wakeup or a concurrent degrade
    /// costs at most one `GROUP_PARK` tick.
    ///
    /// Returns [`IoFailure`] when the handle degrades before the caller's
    /// group is covered: the caller's commit is installed but not durable,
    /// and must surface `DurabilityFailed` instead of acknowledging.
    pub fn wait_covered(&self, lsn: Lsn, after_sync: impl Fn()) -> Result<(), IoFailure> {
        // ordering: Acquire pairs with the watermark's Release store after
        // a leader fsync — a covered reader must also observe the sink
        // state that made it durable.
        if self.durable_lsn.load(Ordering::Acquire) >= lsn {
            return Ok(());
        }
        let mut announced = false;
        let mut state = self.group.lock();
        let (max_batch, max_wait) = (state.max_batch, state.max_wait);
        loop {
            if self.durable_lsn.load(Ordering::Acquire) >= lsn {
                return Ok(());
            }
            if self.is_degraded() {
                return Err(degraded_error("group fsync"));
            }
            if state.leader_active {
                // Follower: park until the leader publishes (bounded, so a
                // missed notify or a degrade is re-checked promptly). The
                // first park announces our arrival so an accumulating
                // leader can count us without waiting out its window.
                state.waiting += 1;
                if !announced {
                    announced = true;
                    self.group_cond.notify_all();
                }
                let timed_out = self.group_cond.wait_for(&mut state, GROUP_PARK).timed_out();
                state.waiting -= 1;
                if timed_out && self.durable_lsn.load(Ordering::Acquire) >= lsn {
                    self.timeout_wakeups.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            // Leader: unless the sync already has company, accumulate
            // joiners while the group keeps growing, up to the policy
            // window, then sync once for everyone staged so far. The short
            // park quantum doubles as a stall detector: a timeout with no
            // new arrival means waiting longer only adds latency (every
            // parked committer's group is already staged, so the sync
            // covers them regardless).
            state.leader_active = true;
            if !max_wait.is_zero() && self.groups_since_barrier() < 2 {
                let deadline = Instant::now() + max_wait;
                let quantum = (max_wait / 4).max(Duration::from_micros(1));
                while state.waiting + 1 < max_batch {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let before = state.waiting;
                    self.group_cond
                        .wait_for(&mut state, quantum.min(deadline - now));
                    if state.waiting <= before {
                        break;
                    }
                }
            }
            drop(state); // never hold the queue lock across the sink lock
            let synced = self.sync_as("group fsync");
            if synced.is_ok() {
                self.group_fsyncs.fetch_add(1, Ordering::Relaxed);
                after_sync();
            }
            state = self.group.lock();
            state.leader_active = false;
            self.group_cond.notify_all();
            match synced {
                // Loop back: the watermark check decides our own fate (it
                // covers us unless our group raced in after the sync).
                Ok(()) => continue,
                Err(f) => return Err(f),
            }
        }
    }

    /// Commit groups appended since the last batch barrier was taken: what
    /// a leader's fsync would cover beyond its own group. Read without the
    /// sink lock (appenders hold it), mark first so the difference cannot
    /// go negative.
    fn groups_since_barrier(&self) -> u64 {
        let mark = self.records_at_barrier.load(Ordering::Relaxed);
        self.records.load(Ordering::Relaxed).saturating_sub(mark)
    }

    /// The one I/O retry loop of the durable path: runs `attempt`,
    /// retrying a transient failure with backoff up to `WAL_IO_ATTEMPTS`
    /// tries in total. A permanent failure or an exhausted budget degrades
    /// the handle ([`WalHandle::fail`]).
    fn retry_io<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, IoFailure>,
    ) -> Result<T, IoFailure> {
        let mut tries = 1;
        loop {
            match attempt() {
                Ok(v) => return Ok(v),
                Err(f) if f.is_transient() && tries < WAL_IO_ATTEMPTS => {
                    self.io_retries.fetch_add(1, Ordering::Relaxed);
                    retry_backoff(tries);
                    tries += 1;
                }
                Err(f) => return Err(self.fail(f)),
            }
        }
    }

    /// Lands the staged group as one write, retrying transients after
    /// cutting any torn prefix back out (the group stays staged, so a retry
    /// rewrites identical bytes). A failed rewind leaves the segment tail
    /// in an unknown state — nothing more can be written safely, so it is
    /// permanent on the spot. On failure the staged group is dropped.
    fn flush_staged(&self, writer: &mut SegmentWriter, op: &'static str) -> Result<(), IoFailure> {
        let landed = self.retry_io(|| {
            writer
                .flush_group()
                .map(drop)
                .map_err(|e| match writer.rewind_partial() {
                    Ok(()) => IoFailure::new(op, e),
                    Err(re) => IoFailure::with_class(IoClass::Permanent, "wal rewind", re),
                })
        });
        if landed.is_err() {
            writer.clear_group();
        }
        landed
    }

    /// Fsyncs the writer under the sink lock (transients retried) and
    /// publishes the new durability watermark — the checkpoint marker's
    /// barrier, which must not let an append slip between marker and sync.
    fn sync_writer(&self, writer: &mut SegmentWriter, op: &'static str) -> Result<(), IoFailure> {
        self.retry_io(|| writer.sync().map_err(|e| IoFailure::new(op, e)))?;
        self.publish_synced(writer);
        Ok(())
    }

    /// Publishes the writer's `synced_lsn` as the durability watermark.
    /// Called with the sink lock held.
    fn publish_synced(&self, writer: &SegmentWriter) {
        // ordering: Release pairs with `wait_covered`'s fast-path Acquire
        // load and the horizon's coverage check. Stored under the sink
        // lock from `synced_lsn`, which a finished barrier only raises (an
        // abandoned group or a heal can lower it, below bytes nobody was
        // promised), so the plain store never runs ahead of the disk.
        self.durable_lsn
            .store(writer.synced_lsn(), Ordering::Release);
    }

    /// Takes the sink lock for an append. Fails — before anything is
    /// written — when the handle is degraded, which a handle without a
    /// writer (born poisoned, not healed yet) always is.
    fn lock_for_append(&self) -> Result<SinkGuard<'_>, IoFailure> {
        let sink = self.sink.lock();
        if self.is_degraded() {
            return Err(degraded_error("wal append"));
        }
        Ok(SinkGuard { wal: self, sink })
    }

    /// Appends a checkpoint marker and returns the log's end LSN.
    pub fn append_checkpoint(&self, stable_ts: u64, cuts: &[Lsn]) -> Result<Lsn, IoFailure> {
        if self.is_degraded() {
            return Err(degraded_error("checkpoint append"));
        }
        let mut sink = self.sink.lock();
        let Some(writer) = sink.as_mut() else {
            return Err(degraded_error("checkpoint append"));
        };
        writer.stage_record(&WalRecord::Checkpoint {
            stable_ts,
            cuts: cuts.to_vec(),
        });
        self.flush_staged(writer, "checkpoint append")?;
        if let Err(f) = self.sync_writer(writer, "checkpoint fsync") {
            let _ = writer.abandon_group();
            return Err(f);
        }
        Ok(writer.lsn())
    }

    /// Forces buffered bytes to disk.
    pub fn sync(&self) -> Result<(), IoFailure> {
        self.sync_as("wal fsync")
    }

    /// [`WalHandle::sync`] reporting failures as `op` — `wait_covered`'s
    /// leader issues its one batch fsync on behalf of every parked
    /// committer through here. The sink lock is held only to take the
    /// barrier (flush the buffered bytes, note the LSN; a fault backend
    /// draws its fsync fault there) and again to record the result: the
    /// device wait itself runs with the lock released, so the partition's
    /// appenders are never stalled behind an fsync. Transient faults are
    /// retried (a fresh barrier per try), a permanent failure degrades the
    /// handle, and success publishes the new durability watermark.
    fn sync_as(&self, op: &'static str) -> Result<(), IoFailure> {
        if self.is_degraded() {
            return Err(degraded_error(op));
        }
        self.retry_io(|| {
            let begun = match self.sink.lock().as_mut() {
                Some(writer) => {
                    self.records_at_barrier
                        .store(self.records.load(Ordering::Relaxed), Ordering::Relaxed);
                    writer.begin_sync()
                }
                None => return Err(degraded_error(op)),
            };
            let barrier = begun
                .and_then(|b| b.wait().map(|()| b))
                .map_err(|e| IoFailure::new(op, e))?;
            // Whatever happened to the writer meanwhile — rotation, an
            // abandoned group, a heal that replaced it — `finish_sync`
            // only ever raises `synced_lsn`, and only for bytes this
            // barrier really covered.
            if let Some(writer) = self.sink.lock().as_mut() {
                writer.finish_sync(&barrier);
                self.publish_synced(writer);
            }
            Ok(())
        })
    }

    /// The log's current end position: the next LSN (0 while the handle
    /// has no writer).
    pub fn current_lsn(&self) -> Lsn {
        self.sink.lock().as_ref().map_or(0, |w| w.lsn())
    }

    /// Number of commit groups appended.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }
}

/// Appends one commit's redo groups after its commit point succeeded: for
/// every partition `p` whose bit is set in `parts_mask`, in ascending
/// order, a `Begin` / `group(p)`'s writes / `Commit` group carrying
/// `commit_ts` and `parts_mask` to `wals[p]`. The groups land on every
/// partition or on none. The appends never fsync.
///
/// Every group is framed into the per-thread buffer first, so the sink
/// locks cover only the file writes. Then every target partition's sink
/// lock is taken, in ascending partition order (the fixed acquisition
/// order that keeps the nesting deadlock-free), before the first write: a
/// degraded target fails the commit here, with nothing written anywhere.
/// The groups land with every lock held; if one append fails, the groups
/// already landed are cut back out (`SinkGuard::abandon`) before the
/// error returns.
///
/// Returns `(partition, end LSN)` per group, in ascending partition order:
/// the coverage targets a group-commit acknowledgment parks on
/// ([`WalHandle::wait_covered`]). An I/O error surfaces as [`IoFailure`]:
/// transients are retried in place (the group stays framed, so a retry
/// rewrites identical bytes), and a permanent fault degrades the partition
/// — the caller aborts the transaction (`AbortReason::DurabilityFailed`)
/// without acking.
pub(crate) fn append_groups<'a, W: Iterator<Item = WalWrite<'a>>>(
    wals: &[Arc<WalHandle>],
    txn_id: u64,
    commit_ts: u64,
    parts_mask: u64,
    group: impl Fn(usize) -> W,
) -> Result<Vec<(u32, Lsn)>, IoFailure> {
    GROUP_ENCODE.with(|cell| {
        let (framed, scratch) = &mut *cell.borrow_mut();
        framed.clear();
        // (partition, its group's bytes in `framed`), ascending.
        let mut groups = Vec::new();
        for p in (0..wals.len()).filter(|p| parts_mask & (1 << p) != 0) {
            let start = framed.len();
            frame_group(framed, scratch, txn_id, commit_ts, parts_mask, group(p));
            groups.push((p, start..framed.len()));
        }
        let mut sinks = Vec::with_capacity(groups.len());
        for (p, _) in &groups {
            sinks.push(wals[*p].lock_for_append()?);
        }
        let mut ends = Vec::with_capacity(groups.len());
        for (i, (p, bytes)) in groups.iter().enumerate() {
            match sinks[i].land(&framed[bytes.clone()]) {
                Ok(end) => ends.push((*p as u32, end)),
                Err(f) => {
                    for landed in &mut sinks[..i] {
                        landed.abandon();
                    }
                    return Err(f);
                }
            }
        }
        Ok(ends)
    })
}

/// Frames one commit's `Begin` / writes / `Commit` record group onto the
/// end of `framed`. The iterator is consumed exactly once; retries rewrite
/// the framed bytes verbatim.
fn frame_group<'a>(
    framed: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    txn_id: u64,
    commit_ts: u64,
    parts_mask: u64,
    writes: impl Iterator<Item = WalWrite<'a>>,
) {
    frame_record(
        framed,
        scratch,
        &WalRecord::Begin {
            txn_id,
            commit_ts,
            parts_mask,
        },
    );
    for w in writes {
        match w {
            WalWrite::Update { table, key, after } => {
                frame_update(framed, scratch, table.0, key, after)
            }
            WalWrite::Insert {
                table,
                key,
                row,
                secondary,
            } => frame_insert(
                framed,
                scratch,
                table.0,
                key,
                row,
                secondary.map(|(i, k)| (i as u32, k)),
            ),
        }
    }
    frame_record(framed, scratch, &WalRecord::Commit { txn_id, commit_ts });
}

/// One partition's sink lock, taken by `WalHandle::lock_for_append` on a
/// healthy partition. [`append_groups`] holds one per written
/// partition until the commit's last group landed, so that if one append
/// fails it can cut the groups it already landed back out.
struct SinkGuard<'a> {
    wal: &'a WalHandle,
    sink: MutexGuard<'a, Option<SegmentWriter>>,
}

impl SinkGuard<'_> {
    /// Writes one framed group and counts it; returns its end LSN. A
    /// failed append has degraded the partition and left nothing of the
    /// group on it.
    fn land(&mut self, framed: &[u8]) -> Result<Lsn, IoFailure> {
        let wal = self.wal;
        let Some(writer) = self.sink.as_mut() else {
            return Err(degraded_error("wal append"));
        };
        writer.stage_framed(framed);
        wal.flush_staged(writer, "wal append")?;
        wal.records.fetch_add(1, Ordering::Relaxed);
        Ok(writer.lsn())
    }

    /// Cuts the group this lock's append just landed back out of the log
    /// (a synced truncate) and un-counts it. The lock was held since the
    /// append, so no other group landed above it and no barrier covered
    /// it. If the cut itself fails, the group's fate is unknown and the
    /// partition degrades: the double fault `DURABILITY.md` names.
    fn abandon(&mut self) {
        let wal = self.wal;
        wal.records.fetch_sub(1, Ordering::Relaxed);
        if let Some(Err(e)) = self.sink.as_mut().map(SegmentWriter::abandon_group) {
            wal.fail(IoFailure::new("wal abandon", e));
        }
    }
}

/// What a group-commit acknowledgment must wait for: the commit's
/// timestamp on the process-wide [`DurabilityHorizon`], plus — per
/// partition the commit logged to — the LSN its redo group ends at.
/// Created by the commit path under [`FsyncPolicy::GroupCommit`] and
/// consumed by the session before acknowledging the client.
#[derive(Clone, Debug)]
pub struct DurabilityTicket {
    /// The commit timestamp registered on the horizon.
    pub(crate) commit_ts: u64,
    /// `(partition index, end LSN)` for every partition the commit's redo
    /// groups landed on, in the order they were appended. Shared with the
    /// commit's horizon entry — one allocation per commit.
    pub(crate) parts: TicketParts,
}

/// `(partition index, end LSN)` of each redo group of one commit.
pub(crate) type TicketParts = Arc<[(u32, Lsn)]>;

/// The process-wide durability horizon: the highest timestamp `t` such
/// that every committed transaction with `commit_ts <= t` is durable on
/// every partition it touched.
///
/// Group commit installs versions and releases locks *before* the batch
/// fsync (early lock release), so crash recovery keeps a timestamp-prefix
/// of the commit order — the horizon cut in [`crate::durability`]. An
/// acknowledgment is therefore safe exactly when the commit's timestamp
/// is at or below this horizon: everything the kept prefix could depend
/// on is durable too, so the recovered state always contains every
/// acknowledged commit.
///
/// The invariant that makes `min(stable, first_pending - 1)` sound:
/// committers register their timestamp *after* their last log append
/// succeeds and *before* installing (and before the commit clock marks
/// the allocation finished) — so the clock's stable timestamp can never
/// pass a committed transaction that has not yet registered here.
///
/// An entry leaves the ledger when the disk has covered it, whoever
/// notices: it carries the end LSN of each of its redo groups, and anyone
/// advancing the horizon retires a leading entry whose partitions'
/// `durable_lsn` watermarks have all passed them. An acknowledgment
/// therefore waits for fsyncs, never for the sessions that own the commits
/// below it to get round to their own acknowledgments.
pub struct DurabilityHorizon {
    /// The horizon itself. Written only under `pending`'s lock, so plain
    /// stores stay monotone.
    durable_ts: AtomicU64,
    /// Commits acknowledged through `DurabilityHorizon::wait_acked`
    /// (observability).
    acked: AtomicU64,
    /// Parks in `wait_acked` that ran out `GROUP_PARK` before the horizon
    /// reached them, with nobody's notify in between.
    timeout_wakeups: AtomicU64,
    /// Registered commits not yet known durable: commit timestamp →
    /// where its redo groups end. The horizon advances past leading
    /// entries the partitions' watermarks cover.
    pending: Mutex<BTreeMap<u64, TicketParts>>,
    cond: Condvar,
    /// The partition logs whose watermarks retire the entries.
    wals: Arc<[Arc<WalHandle>]>,
}

impl DurabilityHorizon {
    /// An empty horizon (no commit registered, horizon at 0) over the
    /// database's partition logs.
    pub(crate) fn new(wals: Arc<[Arc<WalHandle>]>) -> Self {
        DurabilityHorizon {
            wals,
            durable_ts: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            timeout_wakeups: AtomicU64::new(0),
            pending: Mutex::new(BTreeMap::new()),
            cond: Condvar::new(),
        }
    }

    /// The current horizon: every committed transaction with a timestamp
    /// at or below this is durable on every partition it touched.
    pub fn durable_ts(&self) -> u64 {
        self.durable_ts.load(Ordering::Acquire)
    }

    /// Commits acknowledged through `DurabilityHorizon::wait_acked`.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Relaxed)
    }

    /// Parks in `DurabilityHorizon::wait_acked` that ended on the
    /// `GROUP_PARK` timeout and then found the horizon had reached them —
    /// progress found by the safety-net poll (a moved commit-clock stable
    /// point, a watermark nobody advanced the horizon for) instead of
    /// delivered by a notify.
    pub fn timeout_wakeups(&self) -> u64 {
        self.timeout_wakeups.load(Ordering::Relaxed)
    }

    /// Registers a committed transaction and where its redo groups end.
    /// Must be called after its last log append succeeded and before it
    /// installs (see the type-level invariant).
    pub(crate) fn register(&self, commit_ts: u64, parts: TicketParts) {
        self.pending.lock().insert(commit_ts, parts);
    }

    /// Resolves a registered commit from its owner's side: the entry goes,
    /// whichever way the owner's acknowledgment went. Covered (every
    /// partition it touched fsynced past its group), it no longer holds
    /// the horizon back — and may already be gone, retired by whoever saw
    /// the watermarks first. Failing with `DurabilityFailed`, it is
    /// withdrawn: the entry of a degraded partition retires no other way,
    /// and leaving it would wedge every later commit's acknowledgment
    /// behind a hole that will never fill (the durability gap is
    /// documented: it closes at the post-heal sealing checkpoint). Then
    /// the horizon advances as far as the watermarks and `stable` (the
    /// commit clock's stable timestamp) allow.
    pub(crate) fn resolve(&self, commit_ts: u64, stable: u64) {
        let mut pending = self.pending.lock();
        pending.remove(&commit_ts);
        self.advance_locked(&mut pending, stable);
    }

    /// Advances the horizon as far as the partitions' watermarks and
    /// `stable` allow, waking the acknowledgments it reaches. The
    /// group-commit leader calls this right after publishing its fsync.
    pub(crate) fn advance(&self, stable: u64) {
        self.advance_locked(&mut self.pending.lock(), stable);
    }

    /// Parks until the horizon reaches `commit_ts`. `stable` is re-sampled
    /// every bounded park so a horizon capped by the commit clock (a
    /// concurrent committer between its allocation and its finish) makes
    /// progress without a dedicated wakeup.
    pub(crate) fn wait_acked(&self, commit_ts: u64, stable: impl Fn() -> u64) {
        if self.durable_ts() < commit_ts {
            let mut pending = self.pending.lock();
            let mut timed_out = false;
            loop {
                self.advance_locked(&mut pending, stable());
                if self.durable_ts() >= commit_ts {
                    break;
                }
                timed_out = self.cond.wait_for(&mut pending, GROUP_PARK).timed_out();
            }
            if timed_out {
                self.timeout_wakeups.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.acked.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops leading covered entries and publishes the new horizon:
    /// `min(stable, first still-pending timestamp - 1)` — or `stable`
    /// alone when nothing is pending. An entry is covered when every
    /// partition it logged to is healthy and has fsynced past its group; a
    /// degraded partition's watermark is not trusted, so its entries wait
    /// for their owner's withdrawal. Caller holds the `pending` lock.
    fn advance_locked(&self, pending: &mut BTreeMap<u64, TicketParts>, stable: u64) {
        while let Some(first) = pending.first_entry() {
            let covered = first.get().iter().all(|&(p, lsn)| {
                let wal = &self.wals[p as usize];
                !wal.is_degraded() && wal.durable_lsn() >= lsn
            });
            if !covered {
                break;
            }
            first.remove();
        }
        let limit = pending
            .keys()
            .next()
            .map_or(u64::MAX, |ts| ts.saturating_sub(1));
        let horizon = stable.min(limit);
        if horizon > self.durable_ts.load(Ordering::Acquire) {
            // ordering: Release pairs with the Acquire loads in
            // `wait_acked` / `durable_ts`; only written under the
            // `pending` lock, so the plain store stays monotone.
            self.durable_ts.store(horizon, Ordering::Release);
            self.cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_storage::Value;

    fn row() -> Row {
        Row::from(vec![Value::U64(7), Value::I64(-3), Value::from("hi")])
    }

    #[test]
    fn append_accounts_bytes_and_records() {
        let mut w = WalBuffer::for_tests();
        let r = row();
        w.append_commit(1, [(TableId(0), 5u64, &r)].into_iter());
        assert_eq!(w.records(), 1);
        // 4 magic + 8 txn + 8 table + 8 row + 8 len + (1+8)*2 values +
        // (1+8+2) string + 8 count.
        assert!(w.bytes_logged() > 40);
    }

    #[test]
    fn ring_wraps_without_panicking() {
        let mut w = WalBuffer::with_capacity(64);
        let r = row();
        for i in 0..100 {
            w.append_commit(i, [(TableId(0), i, &r)].into_iter());
        }
        assert_eq!(w.records(), 100);
        assert!(w.bytes_logged() > 64 * 10);
    }

    #[test]
    fn empty_write_set_still_logs_header() {
        let mut w = WalBuffer::for_tests();
        w.append_commit(9, std::iter::empty());
        assert_eq!(w.records(), 1);
        assert_eq!(w.bytes_logged(), 4 + 8 + 8);
    }

    #[test]
    fn scratch_encoding_preserves_record_format() {
        // Byte-exact format lock for the scratch-encoded record: magic +
        // txn id + per-write (table + key + len + tagged values) +
        // write count. Guards the single-put rewrite of the append path.
        let mut w = WalBuffer::for_tests();
        let r = row(); // [U64, I64, Str("hi")]
        w.append_commit(1, [(TableId(0), 5u64, &r)].into_iter());
        let per_write = 8 + 8 + 8 + (1 + 8) + (1 + 8) + (1 + 8 + 2);
        assert_eq!(w.bytes_logged(), 4 + 8 + per_write + 8);
        // The scratch buffer is reused: a second identical append adds
        // exactly the same byte count (no header drift, no realloc-driven
        // size change).
        let before = w.bytes_logged();
        w.append_commit(2, [(TableId(0), 5u64, &r)].into_iter());
        assert_eq!(w.bytes_logged() - before, before);
        assert_eq!(w.records(), 2);
    }

    #[test]
    fn ring_record_golden_bytes() {
        // The `CMT!` record pinned byte for byte: its values go through
        // the durable log's row encoder, so a change there that moved
        // `log_bytes_per_txn` on the ring workloads fails here first.
        let mut w = WalBuffer::for_tests();
        let r = row(); // [U64(7), I64(-3), Str("hi")]
        w.append_commit(1, [(TableId(0), 5u64, &r)].into_iter());
        #[rustfmt::skip]
        let golden: &[u8] = &[
            b'C', b'M', b'T', b'!',
            1, 0, 0, 0, 0, 0, 0, 0, // txn id
            0, 0, 0, 0, 0, 0, 0, 0, // table
            5, 0, 0, 0, 0, 0, 0, 0, // primary key
            3, 0, 0, 0, 0, 0, 0, 0, // value count
            0, 7, 0, 0, 0, 0, 0, 0, 0, // U64(7)
            1, 0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, // I64(-3)
            3, 2, 0, 0, 0, 0, 0, 0, 0, b'h', b'i', // Str("hi")
            1, 0, 0, 0, 0, 0, 0, 0, // write count
        ];
        assert_eq!(&w.buf[..w.pos], golden);
    }
}
