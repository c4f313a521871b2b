//! The transaction-facing session layer: [`Session`] + the RAII [`Txn`]
//! guard.
//!
//! The [`Protocol`] trait is the paper's
//! pluggable concurrency-control seam, but driving it raw forces every
//! call site to thread three handles (`&Database`, `&dyn Protocol`,
//! `&mut TxnCtx`) through each operation *and* to uphold the lifecycle
//! contract — "on `Err(Abort)` call `Protocol::abort` exactly once" —
//! purely by convention. This module owns that contract instead:
//!
//! * [`Session`] binds an [`Arc<Database>`] + [`Arc<dyn Protocol>`] pair
//!   (plus a [`RetryPolicy`] and the session's redo ring) and is the only
//!   thing that starts transactions.
//! * [`Txn`] is an RAII attempt guard: `read`/`update`/`retire`/`insert`/
//!   `scan` without handle-threading, `commit`/`abort` consume the guard, and
//!   `Drop` aborts an unfinished attempt **exactly once** — leaking a lock
//!   by forgetting the abort call is unrepresentable. It also owns what is
//!   not concurrency control, written once for every protocol: snapshot
//!   mode (a snapshot transaction reads the version chains and never
//!   reaches the protocol), insert buffering, the abort prologue, and
//!   interactive mode's client round trips ([`Session::interactive`]).
//! * [`TxnOptions`] is the one builder for an attempt's setup (snapshot
//!   mode, planned operations, IC3 template); each protocol's `begin`
//!   copies what it reads.
//! * [`Session::run`] / [`Session::run_reporting`] subsume the executor's
//!   attempt/retry loop under the session's [`RetryPolicy`].
//!
//! ```
//! use std::sync::Arc;
//! use bamboo_core::protocol::LockingProtocol;
//! use bamboo_core::Session;
//! use bamboo_storage::{Schema, DataType, Value, Row};
//!
//! let mut b = bamboo_core::Database::builder();
//! let t = b.add_table("kv", Schema::build()
//!     .column("k", DataType::U64)
//!     .column("v", DataType::I64));
//! let db = b.build();
//! db.table(t).insert(1, Row::from(vec![Value::U64(1), Value::I64(2)]));
//!
//! let session = Session::new(db, Arc::new(LockingProtocol::bamboo()));
//! let mut txn = session.begin();
//! txn.update(t, 1, |row| {
//!     let v = row.get_i64(1);
//!     row.set(1, Value::I64(v + 40));
//! }).unwrap();
//! txn.commit().unwrap();
//! assert_eq!(session.db().table(t).get(1).unwrap().read_row().get_i64(1), 42);
//! ```

use crate::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::db::{partition_bit, Database};
use crate::executor::TxnSpec;
use crate::protocol::Protocol;
use crate::stats::WorkerStats;
use crate::ts::UNASSIGNED;
use crate::txn::{Abort, AbortReason, PendingInsert, SnapshotCtx, TxnCtx, TxnShared, TxnTimers};
use crate::wal::{DurabilityTicket, WalBuffer};
use bamboo_storage::{Row, TableId};
use parking_lot::Mutex;

/// Failures up to this count only yield the CPU (no sleep).
const YIELD_ATTEMPTS: u32 = 1;
/// Backoff base in microseconds (DBx1000's restart penalty).
const BACKOFF_BASE_US: u64 = 5;
/// The exponential backoff saturates at this many doublings.
const BACKOFF_MAX_SHIFT: u32 = 6;

/// Retry rules for [`Session::run`]: when an aborted attempt is retried
/// and how long to back off between attempts.
///
/// The backoff is DBx1000's restart penalty: the first failure yields the
/// CPU, later failures sleep `5 << min(attempt, 6)` microseconds —
/// exponential backoff that lets conflicting transactions drain instead
/// of re-colliding immediately, which is vital for cascade storms.
#[derive(Clone, Debug, Default)]
pub struct RetryPolicy {
    /// Whether user-initiated aborts are retried. `false` by default:
    /// a user abort (e.g. TPC-C's invalid-item NewOrder) is a logical
    /// rollback — the transaction is *done*, and re-running it would abort
    /// identically forever.
    pub retry_user_aborts: bool,
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based count of failures so
    /// far): `None` means yield the CPU, `Some(d)` means sleep `d`.
    pub fn backoff(&self, attempt: u32) -> Option<Duration> {
        (attempt > YIELD_ATTEMPTS)
            .then(|| Duration::from_micros(BACKOFF_BASE_US << attempt.min(BACKOFF_MAX_SHIFT)))
    }

    /// Whether an abort for `reason` should be retried at all.
    ///
    /// [`AbortReason::SnapshotNotVisible`] is never retried: it means the
    /// spec issued a hard [`Txn::read`] on a key that is absent at the
    /// snapshot — retrying with a fresh snapshot would loop forever when
    /// the key simply does not exist. Specs walking volatile key spaces
    /// use [`Txn::read_opt`], which absorbs the reason as `Ok(None)`.
    ///
    /// [`AbortReason::DurabilityFailed`] is never retried either: the WAL
    /// already exhausted its own transient-retry budget before surfacing
    /// it, so the partition is degraded and a blind re-run would fail fast
    /// in a hot loop. The caller must observe the failure (and possibly
    /// [`crate::partition::PartitionedDb::heal`] the partition) instead.
    pub fn retryable(&self, reason: AbortReason) -> bool {
        match reason {
            AbortReason::User => self.retry_user_aborts,
            AbortReason::SnapshotNotVisible => false,
            AbortReason::DurabilityFailed => false,
            _ => true,
        }
    }
}

/// Per-attempt options. Construct with [`TxnOptions::new`], consume with
/// [`Session::begin_with`]: the session serves snapshot mode itself, and
/// hands the rest to [`Protocol::begin`], which copies what its protocol
/// reads.
#[derive(Clone, Debug, Default)]
pub struct TxnOptions {
    snapshot: bool,
    pub(crate) planned_ops: Option<usize>,
    pub(crate) template: usize,
}

impl TxnOptions {
    /// Default options: a plain read-write attempt.
    pub fn new() -> Self {
        TxnOptions::default()
    }

    /// Read-only MVCC snapshot mode: reads resolve against the committed
    /// version chains at the registered snapshot timestamp with zero
    /// lock-manager interaction — the transaction can neither block nor be
    /// aborted by writers, under any protocol. Writes are forbidden.
    /// Consistency rests on every protocol's commit installing through the
    /// timestamped MVCC path, the shared commit tail.
    pub fn snapshot(mut self) -> Self {
        self.snapshot = true;
        self
    }

    /// Declares the total operation count (stored-procedure mode), driving
    /// Optimization 2's δ heuristic. Unset, every write is treated as
    /// potentially the last and retires immediately. An interactive
    /// session ([`Session::interactive`]) ignores it: its client does not
    /// know its access positions.
    pub fn planned_ops(mut self, n: usize) -> Self {
        self.planned_ops = Some(n);
        self
    }

    /// Selects the IC3 template this attempt executes. Ignored by the
    /// non-chopping protocols.
    pub fn template(mut self, i: usize) -> Self {
        self.template = i;
        self
    }

    /// Options matching a [`TxnSpec`]'s declarations (snapshot mode,
    /// planned operations, IC3 template).
    pub fn for_spec(spec: &dyn TxnSpec) -> Self {
        TxnOptions {
            snapshot: spec.read_only_snapshot(),
            planned_ops: spec.planned_ops(),
            template: spec.template(),
        }
    }
}

/// A transaction session: one database + one protocol, plus the
/// session's redo ring (the paper's in-memory redo log; §5.1 logs "to
/// main memory") — where its commits are logged unless the database has
/// durable partition logs.
///
/// Sessions are cheap to construct (two `Arc` clones + the ring
/// allocation) and `Sync`; the benchmark executor gives each worker thread
/// its own so the ring stays thread-local in practice, while tests freely
/// share one session across scoped threads.
pub struct Session {
    db: Arc<Database>,
    proto: Arc<dyn Protocol>,
    /// Behind a mutex the commit path takes for one append only, so the
    /// lock is uncontended with one session per worker and a shared
    /// session's waiting commits never hold the log.
    ring: Mutex<WalBuffer>,
    /// The client round trip of interactive mode ([`Session::interactive`]).
    rpc: Option<Duration>,
}

impl Session {
    /// Binds a database and a protocol with a default-sized ring.
    ///
    /// # Panics
    ///
    /// When the database logs durably ([`crate::DbOptions::wal_dir`]) and
    /// crash recovery cannot replay the protocol's redo records
    /// ([`Protocol::redo_replayable`] — IC3): the pair would acknowledge
    /// commits as durable and recover them wrong.
    pub fn new(db: Arc<Database>, proto: Arc<dyn Protocol>) -> Self {
        assert!(
            db.options().wal_dir.is_none() || proto.redo_replayable(),
            "{} cannot run on a database with a wal_dir: crash recovery cannot \
             replay its redo records (Protocol::redo_replayable)",
            proto.name()
        );
        Session {
            db,
            proto,
            ring: Mutex::new(WalBuffer::new()),
            rpc: None,
        }
    }

    /// Interactive mode (paper §5.1): the transaction logic runs on a
    /// client that sends each `get_row()` / `update_row()` / `commit()` to
    /// the server over RPC. Every client call of this session's
    /// transactions — [`Txn::read`], [`Txn::read_opt`], [`Txn::update`],
    /// [`Txn::insert`], [`Txn::scan`], a commit and an abort — first sleeps
    /// `rpc`, whatever its outcome and in snapshot mode too. That
    /// stretches lock hold times and makes aborted work dearer: the two
    /// effects behind Figures 8–10's interactive panels. Sleeping rather
    /// than spinning lets oversubscribed thread counts behave like blocked
    /// RPC clients. The client does not know its access positions, so
    /// Optimization 2's δ does not apply: [`TxnOptions::planned_ops`] is
    /// ignored and every write retires at once. Hints
    /// ([`Txn::prefetch`]), explicit retires ([`Txn::retire`]) and IC3
    /// piece boundaries are not client requests and cost nothing.
    pub fn interactive(mut self, rpc: Duration) -> Self {
        self.rpc = Some(rpc);
        self
    }

    /// The bound database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The bound protocol.
    pub fn protocol(&self) -> &Arc<dyn Protocol> {
        &self.proto
    }

    /// The session's retry policy: the default one, which retries every
    /// abort but a user's, a hard snapshot miss and a durability failure.
    pub fn retry(&self) -> &RetryPolicy {
        &RetryPolicy {
            retry_user_aborts: false,
        }
    }

    /// Total redo-log bytes this session's commits appended to its ring
    /// (0 on a database with durable partition logs — see
    /// [`crate::partition::PartitionedDb::log_bytes`]).
    pub fn log_bytes(&self) -> u64 {
        self.ring.lock().bytes_logged()
    }

    /// Number of commit records on this session's ring.
    pub fn log_records(&self) -> u64 {
        self.ring.lock().records()
    }

    /// Starts a plain read-write transaction.
    pub fn begin(&self) -> Txn<'_> {
        self.begin_with(TxnOptions::new())
    }

    /// Starts a read-only MVCC snapshot transaction (shorthand for
    /// [`TxnOptions::snapshot`]).
    pub fn snapshot(&self) -> Txn<'_> {
        self.begin_with(TxnOptions::new().snapshot())
    }

    /// Starts a transaction with explicit [`TxnOptions`]. A snapshot
    /// registers its timestamp here and never calls the protocol: it holds
    /// no lock entry and is in no other transaction's way, so it needs no
    /// priority timestamp either.
    pub fn begin_with(&self, mut opts: TxnOptions) -> Txn<'_> {
        // An interactive client does not know its access positions.
        opts.planned_ops = opts.planned_ops.filter(|_| self.rpc.is_none());
        let ctx = if opts.snapshot {
            TxnCtx::snapshot(
                TxnShared::new(self.db.next_txn_id(), UNASSIGNED),
                SnapshotCtx {
                    grant: self.db.register_snapshot(),
                    parts: 0,
                    last: None,
                },
            )
        } else {
            self.proto.begin(&self.db, &opts)
        };
        Txn {
            session: self,
            ctx,
            finished: false,
        }
    }

    /// Waits out a group-commit [`DurabilityTicket`]: parks until every
    /// partition the commit logged to has fsynced past its group
    /// ([`crate::wal::WalHandle::wait_covered`]), then until the global
    /// durability horizon reaches the commit's timestamp — the point at
    /// which *every*
    /// commit the acknowledged state could depend on is durable, which is
    /// what makes the acknowledgment crash-safe under early lock release.
    /// Both waits end on fsyncs, not on other sessions: the horizon retires
    /// a commit once its partitions' watermarks cover it, whether or not
    /// its owner has come back for its ticket.
    ///
    /// Returns `Err(Abort(DurabilityFailed))` when a batch fsync failed
    /// after this commit installed: the partition is degraded, the commit
    /// stands in memory but was never acknowledged, and crash recovery may
    /// drop it (the post-heal sealing checkpoint closes the gap — see
    /// `DURABILITY.md` "Group commit").
    pub fn ack_ticket(&self, ticket: DurabilityTicket) -> Result<(), Abort> {
        let horizon = self.db.durability_horizon();
        let stable = || self.db.commit_clock.stable();
        // A horizon already past the timestamp has retired this commit's
        // entry: every part is on disk, nothing is left to resolve.
        if horizon.durable_ts() < ticket.commit_ts {
            let wals = &self.db.topology().wals;
            let covered = ticket.parts.iter().all(|&(p, lsn)| {
                wals[p as usize]
                    .wait_covered(lsn, || horizon.advance(stable()))
                    .is_ok()
            });
            // Covered or not, the entry goes: a failed one must not wedge
            // sibling acknowledgments behind a hole that will never fill.
            horizon.resolve(ticket.commit_ts, stable());
            if !covered {
                return Err(Abort(AbortReason::DurabilityFailed));
            }
        }
        horizon.wait_acked(ticket.commit_ts, stable);
        Ok(())
    }

    /// Runs `spec` to commit, retrying aborted attempts per the session's
    /// [`RetryPolicy`]. Returns the terminal [`Abort`] only when the
    /// policy declines to retry it (by default: user-initiated aborts,
    /// which are logical rollbacks, not failures).
    pub fn run(&self, spec: &dyn TxnSpec) -> Result<(), Abort> {
        self.run_inner(spec, None, None, None)
    }

    /// [`Session::run`] with benchmark instrumentation: per-attempt
    /// timers/locks/latency land in `stats` (snapshot-mode attempts in
    /// their own bucket), and retrying stops once `stop` rises or
    /// `deadline` passes. Returns whether the transaction committed.
    pub fn run_reporting(
        &self,
        spec: &dyn TxnSpec,
        stats: &mut WorkerStats,
        stop: &AtomicBool,
        deadline: Instant,
    ) -> bool {
        self.run_inner(spec, Some(stats), Some(stop), Some(deadline))
            .is_ok()
    }

    /// The one attempt/retry/backoff loop, behind [`Session::run`] and
    /// [`Session::run_reporting`]. `Err` is the abort the policy (or
    /// `stop` / `deadline`) declined to retry.
    fn run_inner(
        &self,
        spec: &dyn TxnSpec,
        mut stats: Option<&mut WorkerStats>,
        stop: Option<&AtomicBool>,
        deadline: Option<Instant>,
    ) -> Result<(), Abort> {
        let snapshot = spec.read_only_snapshot();
        let mut attempt = 0u32;
        loop {
            let t0 = Instant::now();
            let (res, cascaded, timers, locks, spanned) = self.attempt(spec);
            if let Some(stats) = stats.as_deref_mut() {
                stats.lock_wait += timers.lock_wait;
                stats.commit_wait += timers.commit_wait;
                stats.parks += timers.parks;
                stats.spin_wakes += timers.spin_wakes;
                if snapshot {
                    stats.snapshot_lock_acquisitions += locks;
                } else {
                    stats.lock_acquisitions += locks;
                }
                match &res {
                    Ok(_) => {
                        if spanned > 1 {
                            stats.cross_partition_commits += 1;
                        }
                        if snapshot {
                            stats.record_snapshot_commit(t0.elapsed());
                        } else {
                            stats.record_commit(t0.elapsed());
                        }
                    }
                    Err(e) => {
                        stats.record_abort(e.0, t0.elapsed(), cascaded);
                        if snapshot {
                            stats.snapshot_aborts += 1;
                        }
                    }
                }
            }
            let Err(e) = res else { return Ok(()) };
            if !self.retry().retryable(e.0)
                || stop.is_some_and(|s| s.load(Ordering::Relaxed))
                || deadline.is_some_and(|d| Instant::now() >= d)
            {
                return Err(e);
            }
            attempt += 1;
            match self.retry().backoff(attempt) {
                None => std::thread::yield_now(),
                Some(d) => std::thread::sleep(d),
            }
        }
    }

    /// One attempt: begin per the spec's options, run the pieces in order,
    /// commit — aborting the attempt on any failure. Returns the result,
    /// the abort-cascade count, the attempt's timers/lock counters, and the
    /// number of partitions the access set spanned.
    fn attempt(&self, spec: &dyn TxnSpec) -> (Result<(), Abort>, usize, TxnTimers, u64, u32) {
        let mut txn = self.begin_with(TxnOptions::for_spec(spec));
        let mut spanned = 1;
        let res = (|| {
            for p in 0..spec.pieces() {
                txn.piece_begin(p)?;
                spec.run_piece(p, &mut txn)?;
                txn.piece_end()?;
            }
            // Before the commit: apply_inserts drains the buffered inserts,
            // which count toward the partition span.
            spanned = txn.partitions_spanned();
            txn.commit_in_place(false)
        })();
        let timers = txn.ctx.timers;
        let locks = txn.ctx.locks_acquired;
        let cascaded = if res.is_err() {
            txn.abort_in_place()
        } else {
            0
        };
        (res, cascaded, timers, locks, spanned)
    }
}

/// One transaction attempt, RAII-style.
///
/// Operations mirror the protocol surface without handle-threading.
/// [`Txn::commit`] and [`Txn::abort`] consume the guard; a `Txn` dropped
/// without either — an early `?` return, a panic mid-piece, a forgotten
/// call — aborts the attempt in `Drop`, releasing all its lock entries
/// **exactly once**. The abort obligation of the protocol contract is
/// thereby unviolable by construction.
pub struct Txn<'s> {
    session: &'s Session,
    ctx: TxnCtx,
    finished: bool,
}

impl<'s> Txn<'s> {
    /// Reads a row (shared access); returns the transaction-local copy.
    /// Taking it copies nothing: the copy shares the image it was read
    /// from (committed or dirty), which no other transaction can change.
    /// Clone the returned [`Row`] to keep it past the borrow; that too is
    /// a refcount bump.
    ///
    /// In snapshot mode a missing or not-yet-visible row surfaces as
    /// [`AbortReason::SnapshotNotVisible`]; use [`Txn::read_opt`] when the
    /// key's existence is not guaranteed.
    pub fn read(&mut self, table: TableId, key: u64) -> Result<&Row, Abort> {
        self.round_trip();
        if self.ctx.snapshot.is_some() {
            return self
                .snapshot_read(table, key)?
                .ok_or(Abort(AbortReason::SnapshotNotVisible));
        }
        self.session
            .proto
            .read(&self.session.db, &mut self.ctx, table, key)
    }

    /// Reads a row that may not exist: `Ok(None)` when the key is absent —
    /// including, in snapshot mode, a row that exists but is invisible at
    /// the snapshot timestamp (a phantom to this transaction). A key this
    /// transaction has *itself* inserted (still buffered until commit)
    /// reads back as present. The TPC-C read-only transactions walk
    /// volatile order keys through this.
    pub fn read_opt(&mut self, table: TableId, key: u64) -> Result<Option<&Row>, Abort> {
        self.round_trip();
        // Read-your-own-buffered-insert: a key this transaction inserted
        // exists from its own point of view even though the insert is only
        // applied at commit (latest buffered image wins).
        if let Some(i) = self
            .ctx
            .inserts
            .iter()
            .rposition(|ins| ins.table == table && ins.key == key)
        {
            return Ok(Some(&self.ctx.inserts[i].row));
        }
        if self.ctx.snapshot.is_some() {
            return self.snapshot_read(table, key);
        }
        if !self.session.db.table_for(table, key).contains(key) {
            return Ok(None);
        }
        self.session
            .proto
            .read(&self.session.db, &mut self.ctx, table, key)
            .map(Some)
    }

    /// Snapshot mode's read: an index probe and a version pick. It
    /// resolves `key` against the version chain at the snapshot timestamp,
    /// with no lock-manager interaction of any kind, and records nothing
    /// but the key's partition: it borrows the tuple instead of cloning
    /// its `Arc`, and keeps only the row it returns, until the next read.
    /// Rereading a key needs no cache: at a registered snapshot the
    /// version a key resolves to cannot change. `Ok(None)` when the row
    /// does not exist or is not yet visible at the snapshot (inserted by a
    /// transaction that committed after the snapshot was taken).
    fn snapshot_read(&mut self, table: TableId, key: u64) -> Result<Option<&Row>, Abort> {
        let db = &self.session.db;
        let snap = self
            .ctx
            .snapshot
            .as_mut()
            .expect("snapshot_read outside snapshot mode");
        let (part, shard) = db.route(table, key);
        let Some(row) = shard.get_ref(key).and_then(|t| t.read_at(snap.ts())) else {
            return Ok(None);
        };
        snap.parts |= partition_bit(part);
        Ok(Some(snap.last.insert(row)))
    }

    /// A cache hint with no semantic effect: starts loading the cache lines
    /// a read or write of each `(table, key)` will miss on, and returns
    /// without waiting for any of them. Keys are routed like every access,
    /// so a remote partition's key or a replicated table's key works. It
    /// records no access, creates no lock entry, holds no latch from one
    /// key to the next, does nothing for an absent key, and is legal in any
    /// mode; a transaction with its hints removed behaves identically.
    ///
    /// It runs two passes over `keys`:
    ///
    /// 1. [`Table::prefetch`](bamboo_storage::Table::prefetch) for each
    ///    key: an index probe and the tuple's own lines, latch-free.
    /// 2. For each key again, the two allocations the tuple points to: its
    ///    newest committed image ([`Tuple::prefetch_row`], under the version
    ///    chain's read latch), whose refcount a read's grant writes, and
    ///    its lock list's buffer ([`LockState::prefetch_list`]), which the
    ///    grant inserts into.
    ///
    /// The second pass must wait for the first: the two pointers live in
    /// the tuple, so reading them for a key whose lines are still on the
    /// way would stall on that miss and serialize the keys again. After
    /// pass 1 the tuples' misses are in flight together, and pass 2's
    /// index probes hit the cache. The lock list is read under its entry
    /// latch taken with `try_lock` only: when another thread holds it the
    /// pass skips that list rather than wait, since a hint never waits. A
    /// snapshot never touches the lock manager, so in snapshot mode pass 2
    /// loads the image only.
    ///
    /// A stored procedure that knows its keys calls it once, before its
    /// first lock request: the misses into cold tuples then overlap each
    /// other and the wait for a contended lock, instead of stretching the
    /// time the procedure holds it. A snapshot holds no lock, so it calls
    /// it whenever a batch of keys becomes known (TPC-C's StockLevel and
    /// OrderStatus learn theirs from the rows they read).
    ///
    /// [`Tuple::prefetch_row`]: bamboo_storage::Tuple::prefetch_row
    /// [`LockState::prefetch_list`]: crate::lock::LockState::prefetch_list
    pub fn prefetch<I>(&self, keys: I)
    where
        I: IntoIterator<Item = (TableId, u64)>,
        I::IntoIter: Clone,
    {
        let keys = keys.into_iter();
        let db = &self.session.db;
        for (table, key) in keys.clone() {
            db.table_for(table, key).prefetch(key);
        }
        let locking = self.ctx.snapshot.is_none();
        for (table, key) in keys {
            let Some(tuple) = db.table_for(table, key).get_ref(key) else {
                continue;
            };
            tuple.prefetch_row();
            if locking {
                if let Some(entry) = tuple.meta.lock.try_lock() {
                    entry.prefetch_list();
                }
            }
        }
    }

    /// Read-modify-write (exclusive access): `f` mutates the local copy;
    /// visibility of the dirty result is protocol-specific (Bamboo retires
    /// the lock per Optimization 2's δ heuristic).
    pub fn update(
        &mut self,
        table: TableId,
        key: u64,
        mut f: impl FnMut(&mut Row),
    ) -> Result<(), Abort> {
        self.round_trip();
        self.forbid_write(table, "update");
        self.session
            .proto
            .update(&self.session.db, &mut self.ctx, table, key, &mut f)
    }

    /// §3.3's `LockRetire()`: this transaction has written `(table, key)`
    /// for the last time, so [`Protocol::retire`] may make the dirty write
    /// visible to others now. Under a Wound-Wait-based [`LockingProtocol`]
    /// whose `retire_writes` is off this is the only way a write retires
    /// before commit, which is how the §3.3 analysis places retires
    /// (`bamboo_analysis::run_program`). A no-op in snapshot mode, under
    /// every other protocol and on a key not written. Like
    /// [`Txn::prefetch`] it is not a client request: the call belongs to a
    /// stored procedure, and an interactive session charges it nothing.
    ///
    /// [`LockingProtocol`]: crate::protocol::LockingProtocol
    pub fn retire(&mut self, table: TableId, key: u64) {
        if self.ctx.snapshot.is_none() {
            self.session
                .proto
                .retire(&self.session.db, &mut self.ctx, table, key);
        }
    }

    /// Buffers an insert once the protocol's [`Protocol::lock_insert`]
    /// succeeded; applied atomically at commit. `secondary` is an optional
    /// `(secondary index slot, secondary key)` to maintain.
    pub fn insert(
        &mut self,
        table: TableId,
        key: u64,
        row: Row,
        secondary: Option<(usize, u64)>,
    ) -> Result<(), Abort> {
        self.round_trip();
        self.forbid_write(table, "insert");
        if self.ctx.shared.is_aborted() {
            return Err(self.ctx.abort_err());
        }
        self.session
            .proto
            .lock_insert(&self.session.db, &mut self.ctx, table, key)?;
        self.ctx.inserts.push(PendingInsert {
            table,
            key,
            row,
            secondary,
        });
        Ok(())
    }

    /// Interactive mode's one charge: a client call's round trip to the
    /// server ([`Session::interactive`]), paid at the top of the call
    /// whatever its outcome. A range predicate is one request: the scan,
    /// next-key locking included, runs on the server without further hops.
    #[inline]
    fn round_trip(&self) {
        if let Some(rpc) = self.session.rpc {
            #[cfg(test)]
            tests::ROUND_TRIPS.with(|n| n.set(n.get() + 1));
            std::thread::sleep(rpc);
        }
    }

    /// The one write chokepoint's checks. A snapshot is read-only. A write
    /// to a replicated table would only touch the *local* replica and
    /// silently diverge the copies — replicated tables are read-only
    /// reference data by contract.
    #[inline]
    fn forbid_write(&self, table: TableId, op: &str) {
        assert!(
            self.ctx.snapshot.is_none(),
            "read-only snapshot transactions cannot {op}"
        );
        debug_assert!(
            !self.session.db.is_table_replicated(table),
            "cannot {op} replicated table {}: writes only reach the local \
             replica and would diverge the copies (replicated tables are \
             read-only reference data)",
            table.0
        );
    }

    /// Range scan over the table's ordered index (phantom-protected under
    /// the 2PL family's Serializable level; see
    /// [`Protocol::scan`]). In snapshot mode, rows not visible at the
    /// snapshot timestamp are skipped — an index entry committed after the
    /// snapshot was taken is a phantom to this transaction, not an error —
    /// on local and remote partitions' keys alike.
    pub fn scan(
        &mut self,
        table: TableId,
        range: std::ops::RangeInclusive<u64>,
    ) -> Result<Vec<Row>, Abort> {
        self.round_trip();
        if self.ctx.snapshot.is_none() {
            return self
                .session
                .proto
                .scan(&self.session.db, &mut self.ctx, table, range);
        }
        let mut rows = Vec::new();
        for key in self.session.db.scan_keys(table, range) {
            if let Some(row) = self.snapshot_read(table, key)? {
                rows.push(row.clone());
            }
        }
        Ok(rows)
    }

    /// IC3 hook: a new piece begins. No-op under other protocols and in
    /// snapshot mode.
    pub fn piece_begin(&mut self, piece: usize) -> Result<(), Abort> {
        if self.ctx.snapshot.is_some() {
            return Ok(());
        }
        self.session
            .proto
            .piece_begin(&self.session.db, &mut self.ctx, piece)
    }

    /// IC3 hook: the current piece ended (publish piece writes). No-op
    /// under other protocols and in snapshot mode.
    pub fn piece_end(&mut self) -> Result<(), Abort> {
        if self.ctx.snapshot.is_some() {
            return Ok(());
        }
        self.session
            .proto
            .piece_end(&self.session.db, &mut self.ctx)
    }

    /// Commits the transaction, consuming the guard. On failure the
    /// attempt is aborted internally (exactly once) before the error is
    /// returned — no cleanup is owed by the caller either way.
    ///
    /// Under `FsyncPolicy::GroupCommit` this blocks until the commit is
    /// covered by a leader fsync *and* the global durability horizon
    /// reaches its timestamp — `Ok` means durable, under every policy that
    /// promises durable acknowledgments.
    pub fn commit(mut self) -> Result<(), Abort> {
        let res = self.commit_in_place(false);
        if res.is_err() {
            self.abort_in_place();
        }
        res
    }

    /// Commits the transaction but defers the group-commit acknowledgment:
    /// on success returns the [`DurabilityTicket`] the caller later passes
    /// to [`Session::ack_ticket`] to learn the commit is durable, letting a
    /// batch of transactions share the durability wait. `Ok(None)` means
    /// the commit needed no deferred acknowledgment (any non-group-commit
    /// policy). On failure the attempt is aborted internally, like
    /// [`Txn::commit`].
    pub fn commit_deferred(mut self) -> Result<Option<DurabilityTicket>, Abort> {
        match self.commit_in_place(true) {
            Ok(()) => Ok(self.ctx.durability.take()),
            Err(e) => {
                self.abort_in_place();
                Err(e)
            }
        }
    }

    /// Aborts the transaction, consuming the guard. Returns the number of
    /// transactions cascadingly aborted by the release (the abort-chain
    /// accounting of §4.2).
    pub fn abort(mut self) -> usize {
        self.abort_in_place()
    }

    /// The shared transaction handle (status word, timestamp, commit
    /// semaphore) — what concurrent transactions see of this attempt.
    pub fn shared(&self) -> &Arc<TxnShared> {
        &self.ctx.shared
    }

    /// The snapshot timestamp, when running in snapshot mode.
    pub fn snapshot_ts(&self) -> Option<u64> {
        self.ctx.snapshot.as_ref().map(SnapshotCtx::ts)
    }

    /// Lock-manager acquisitions by this attempt (0 in snapshot mode —
    /// asserted by the stats layer).
    pub fn locks_acquired(&self) -> u64 {
        self.ctx.locks_acquired
    }

    /// Number of distinct partitions this attempt touches — its access
    /// set (reads, writes, buffered inserts) or, in snapshot mode, the
    /// rows it read — 1 for the partition-local fast path.
    pub fn partitions_spanned(&self) -> u32 {
        let accessed = self.session.db.partition_mask(
            self.ctx
                .accesses
                .iter()
                .map(|a| (a.table, a.tuple.key))
                .chain(self.ctx.inserts.iter().map(|i| (i.table, i.key))),
        );
        let read = self.ctx.snapshot.as_ref().map_or(0, |s| s.parts);
        (accessed | read).count_ones().max(1)
    }

    /// Read-only view of the execution context (assertions, diagnostics).
    pub fn ctx(&self) -> &TxnCtx {
        &self.ctx
    }

    /// The bound database.
    pub fn db(&self) -> &Database {
        &self.session.db
    }

    /// Commit without consuming `self` (shared by the public consuming
    /// `commit` and the session's attempt loop, which still needs the
    /// context's timers afterwards). Marks the attempt finished on
    /// success. With `defer_ack` a group-commit acknowledgment is not
    /// waited out: the ticket stays in the context for
    /// [`Txn::commit_deferred`] to hand back.
    fn commit_in_place(&mut self, defer_ack: bool) -> Result<(), Abort> {
        debug_assert!(!self.finished, "commit on a finished attempt");
        self.round_trip();
        if self.ctx.snapshot.is_some() {
            self.commit_snapshot()?;
        } else {
            self.session
                .proto
                .commit(&self.session.db, &mut self.ctx, &self.session.ring)?;
        }
        self.finished = true;
        // Group commit: the commit point passed, versions are installed
        // and every lock is released (early lock release) — but the client
        // must not hear `Ok` until the durability horizon covers this
        // commit. A failed acknowledgment surfaces as an `Err` on an
        // attempt already marked finished, so the abort paths (consuming
        // `commit`, the session retry loop, `Drop`) are all no-ops: the
        // installed state stands, only the acknowledgment is withheld.
        if !defer_ack {
            if let Some(ticket) = self.ctx.durability.take() {
                self.session.ack_ticket(ticket)?;
            }
        }
        Ok(())
    }

    /// Snapshot mode's commit: no locks to release, no log to write, and
    /// no commit point to pass — nothing can wound a snapshot, and no other
    /// transaction holds its handle. A reader already aborted as too old
    /// stays aborted; any other snapshot ends its registration, so the GC
    /// watermark can advance.
    fn commit_snapshot(&mut self) -> Result<(), Abort> {
        debug_assert_eq!(
            self.ctx.locks_acquired, 0,
            "snapshot mode must never touch the lock manager"
        );
        if self.ctx.shared.is_aborted() {
            return Err(self.ctx.abort_err());
        }
        self.end_snapshot();
        Ok(())
    }

    /// Releases the snapshot registration, if this attempt is a snapshot;
    /// returns whether it was.
    fn end_snapshot(&mut self) -> bool {
        let Some(snap) = self.ctx.snapshot.take() else {
            return false;
        };
        self.session.db.release_snapshot(snap.grant);
        true
    }

    /// Abort without consuming `self`; idempotence guard included so the
    /// `Drop` path can never double-release. The prologue every protocol
    /// shares runs here once: a self-abort (user logic, a dropped guard)
    /// books [`AbortReason::User`] — a wound or failed validation recorded
    /// earlier keeps its reason — and the buffered inserts are dropped. A
    /// snapshot then only ends its registration; anything else is released
    /// by [`Protocol::abort`].
    fn abort_in_place(&mut self) -> usize {
        if self.finished {
            return 0;
        }
        self.round_trip();
        self.finished = true;
        self.ctx.shared.set_abort(AbortReason::User);
        self.ctx.inserts.clear();
        if self.end_snapshot() {
            return 0;
        }
        self.session.proto.abort(&self.session.db, &mut self.ctx)
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        // An attempt neither committed nor aborted is aborted here —
        // early returns, `?` propagation and panics all release their
        // locks exactly once.
        self.abort_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::LockingProtocol;
    use bamboo_storage::{DataType, Schema, Value};
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    thread_local! {
        /// Round trips this thread's transactions paid: bumped by
        /// `Txn::round_trip`, the seam.
        pub(super) static ROUND_TRIPS: Cell<u64> = const { Cell::new(0) };
    }

    /// Round trips paid while `call` runs.
    fn trips(call: impl FnOnce()) -> u64 {
        let before = ROUND_TRIPS.with(Cell::get);
        call();
        ROUND_TRIPS.with(Cell::get) - before
    }

    fn setup() -> (Arc<Database>, TableId) {
        let mut b = Database::builder();
        let t = b.add_table(
            "kv",
            Schema::build()
                .column("k", DataType::U64)
                .column("v", DataType::I64),
        );
        let db = b.build();
        for k in 0..8u64 {
            db.table(t)
                .insert(k, Row::from(vec![Value::U64(k), Value::I64(0)]));
        }
        (db, t)
    }

    fn bamboo_session(db: &Arc<Database>) -> Session {
        Session::new(Arc::clone(db), Arc::new(LockingProtocol::bamboo()))
    }

    #[test]
    fn read_update_commit_round_trip() {
        let (db, t) = setup();
        let session = bamboo_session(&db);
        let mut txn = session.begin();
        assert_eq!(txn.read(t, 3).unwrap().get_i64(1), 0);
        txn.update(t, 3, |row| row.set(1, Value::I64(7))).unwrap();
        assert_eq!(txn.read(t, 3).unwrap().get_i64(1), 7);
        txn.commit().unwrap();
        assert_eq!(db.table(t).get(3).unwrap().read_row().get_i64(1), 7);
        assert_eq!(session.log_records(), 1);
        assert!(session.log_bytes() > 0);
    }

    #[test]
    fn drop_without_commit_aborts_exactly_once() {
        let (db, t) = setup();
        let session = bamboo_session(&db);
        {
            let mut txn = session.begin();
            txn.update(t, 0, |row| row.set(1, Value::I64(99))).unwrap();
            // Dropped here: the exclusive lock must be released.
        }
        let tuple = db.table(t).get(0).unwrap();
        assert!(tuple.meta.lock.lock().is_quiescent());
        assert_eq!(tuple.read_row().get_i64(1), 0, "aborted write discarded");
        // A follow-up transaction on the same key commits unobstructed.
        let mut txn = session.begin();
        txn.update(t, 0, |row| row.set(1, Value::I64(1))).unwrap();
        txn.commit().unwrap();
        assert_eq!(tuple.read_row().get_i64(1), 1);
    }

    #[test]
    fn explicit_abort_then_drop_does_not_double_release() {
        let (db, t) = setup();
        let session = bamboo_session(&db);
        let mut txn = session.begin();
        txn.update(t, 1, |row| row.set(1, Value::I64(5))).unwrap();
        assert_eq!(txn.abort(), 0); // consumes the guard; Drop is a no-op
        assert!(db.table(t).get(1).unwrap().meta.lock.lock().is_quiescent());
    }

    #[test]
    fn snapshot_txn_reads_lock_free() {
        let (db, t) = setup();
        let session = bamboo_session(&db);
        let mut snap = session.snapshot();
        assert!(snap.snapshot_ts().is_some());
        assert_eq!(snap.read(t, 2).unwrap().get_i64(1), 0);
        assert_eq!(snap.locks_acquired(), 0);
        snap.commit().unwrap();
        assert_eq!(db.snapshots.active_count(), 0);
    }

    #[test]
    fn read_opt_distinguishes_absent_from_present() {
        let (db, t) = setup();
        let session = bamboo_session(&db);
        let mut txn = session.begin();
        assert!(txn.read_opt(t, 999).unwrap().is_none());
        assert_eq!(txn.read_opt(t, 4).unwrap().unwrap().get_i64(1), 0);
        // Own buffered inserts read back as present before commit.
        txn.insert(t, 77, Row::from(vec![Value::U64(77), Value::I64(9)]), None)
            .unwrap();
        assert_eq!(txn.read_opt(t, 77).unwrap().unwrap().get_i64(1), 9);
        txn.commit().unwrap();
        // Snapshot mode: a row inserted after the snapshot is Ok(None).
        let snap = session.snapshot();
        let mut w = session.begin();
        w.insert(t, 50, Row::from(vec![Value::U64(50), Value::I64(1)]), None)
            .unwrap();
        w.commit().unwrap();
        let mut snap = snap;
        assert!(
            snap.read_opt(t, 50).unwrap().is_none(),
            "post-snapshot insert must be invisible"
        );
        assert_eq!(
            snap.read(t, 50).unwrap_err(),
            Abort(AbortReason::SnapshotNotVisible)
        );
        snap.commit().unwrap();
    }

    #[test]
    fn retry_policy_backoff_matches_executor_constants() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), None); // first failure: yield
        assert_eq!(p.backoff(2), Some(Duration::from_micros(5 << 2)));
        assert_eq!(p.backoff(6), Some(Duration::from_micros(5 << 6)));
        assert_eq!(p.backoff(60), Some(Duration::from_micros(5 << 6)));
        assert!(!p.retryable(AbortReason::User));
        assert!(p.retryable(AbortReason::Wounded));
        // A hard snapshot read of an absent key must surface, not respin:
        // retrying with a fresh snapshot loops forever when the key simply
        // never exists.
        assert!(!p.retryable(AbortReason::SnapshotNotVisible));
    }

    #[test]
    fn txn_options_apply_to_context_bamboo() {
        let (db, _t) = setup();
        let session = bamboo_session(&db);
        let txn = session.begin_with(TxnOptions::new().planned_ops(7).template(3));
        assert_eq!(txn.ctx().planned_ops, Some(7));
        drop(txn);
    }

    #[test]
    fn txn_options_apply_to_context_ic3() {
        let (db, t) = setup();
        let template = crate::protocol::TemplateDecl {
            name: "one".into(),
            pieces: vec![crate::protocol::PieceDecl {
                accesses: vec![crate::protocol::PieceAccess {
                    table: t,
                    read_cols: 0b10,
                    write_cols: 0b10,
                }],
            }],
        };
        let ic3 = crate::protocol::Ic3Protocol::new(vec![template.clone(), template], false);
        let session = Session::new(Arc::clone(&db), Arc::new(ic3));
        let txn = session.begin_with(TxnOptions::new().planned_ops(7).template(1));
        assert_eq!(txn.ctx().ic3.template, 1);
        drop(txn);
    }

    /// Optimization 2 does not apply in interactive mode (paper §5.1): a
    /// client does not know its access positions, so a declared operation
    /// count must not hold back its last writes.
    #[test]
    fn interactive_bamboo_retires_every_write() {
        let (db, t) = setup();
        let session = bamboo_session(&db).interactive(Duration::ZERO);
        let mut txn = session.begin_with(TxnOptions::new().planned_ops(1));
        assert_eq!(txn.ctx().planned_ops, None);
        txn.update(t, 0, |row| row.set(1, Value::I64(1))).unwrap();
        assert_eq!(
            txn.ctx().accesses[0].state,
            crate::txn::AccessState::Retired
        );
        txn.commit().unwrap();
    }

    /// Interactive mode charges one round trip per client call, whatever
    /// its outcome and whether or not the attempt is a snapshot: a hit, a
    /// miss, a write a snapshot refuses, a commit, an explicit abort and a
    /// dropped attempt's. Beginning, hints, explicit retires and piece
    /// boundaries are free: they belong to a stored procedure.
    #[test]
    fn interactive_charges_one_round_trip_per_client_call() {
        let (db, t) = setup();
        db.table(t).enable_ordered_index();
        let session = bamboo_session(&db).interactive(Duration::ZERO);
        for snapshot in [false, true] {
            let mode = if snapshot { "snapshot" } else { "locking" };
            let opts = || {
                let opts = TxnOptions::new();
                if snapshot {
                    opts.snapshot()
                } else {
                    opts
                }
            };
            let mut txn = session.begin_with(opts());
            assert_eq!(trips(|| assert!(txn.read(t, 1).is_ok())), 1, "{mode} read");
            let hit = trips(|| assert!(txn.read_opt(t, 2).unwrap().is_some()));
            assert_eq!(hit, 1, "{mode} read_opt hit");
            let miss = trips(|| assert!(txn.read_opt(t, 999).unwrap().is_none()));
            assert_eq!(miss, 1, "{mode} read_opt miss");
            let scan = trips(|| assert_eq!(txn.scan(t, 0..=3).unwrap().len(), 4));
            assert_eq!(scan, 1, "{mode} scan");
            // A snapshot refuses a write by panicking, after the request
            // reached the server.
            let update = trips(|| {
                let res = catch_unwind(AssertUnwindSafe(|| {
                    txn.update(t, 4, |row| row.set(1, Value::I64(1))).unwrap()
                }));
                assert_eq!(res.is_err(), snapshot);
            });
            assert_eq!(update, 1, "{mode} update");
            let insert = trips(|| {
                let row = Row::from(vec![Value::U64(100), Value::I64(0)]);
                let res = catch_unwind(AssertUnwindSafe(|| txn.insert(t, 100, row, None).unwrap()));
                assert_eq!(res.is_err(), snapshot);
            });
            assert_eq!(insert, 1, "{mode} insert");
            assert_eq!(trips(|| txn.prefetch([(t, 5)])), 0, "{mode} prefetch");
            assert_eq!(trips(|| txn.retire(t, 4)), 0, "{mode} retire");
            let pieces = trips(|| {
                txn.piece_begin(0).unwrap();
                txn.piece_end().unwrap();
            });
            assert_eq!(pieces, 0, "{mode} piece hooks");
            assert_eq!(trips(|| txn.commit().unwrap()), 1, "{mode} commit");
            let txn = session.begin_with(opts());
            let abort = trips(|| {
                txn.abort();
            });
            assert_eq!(abort, 1, "{mode} abort");
            // Begin is free, so this is the dropped attempt's abort.
            assert_eq!(trips(|| drop(session.begin_with(opts()))), 1, "{mode} drop");
        }
        assert_eq!(db.table(t).get(100).unwrap().read_row().get_i64(1), 0);
        assert_eq!(db.snapshots.active_count(), 0);
    }

    /// `Txn::retire` is §3.3's `LockRetire()` on the Wound-Wait variant
    /// only: WOUND_WAIT retires the write it never retires by itself, and
    /// WAIT_DIE, NO_WAIT, SILO and IC3 leave the access as it was (snapshot
    /// mode is `snapshot_transactions_never_call_the_protocol`'s).
    #[test]
    fn retire_is_honoured_on_wound_wait_only() {
        use crate::protocol::{Ic3Protocol, PieceAccess, PieceDecl, SiloProtocol, TemplateDecl};
        let (db, t) = setup();
        let template = TemplateDecl {
            name: "one".into(),
            pieces: vec![PieceDecl {
                accesses: vec![PieceAccess {
                    table: t,
                    read_cols: 0b10,
                    write_cols: 0b10,
                }],
            }],
        };
        let protos: [(Arc<dyn Protocol>, bool); 5] = [
            (Arc::new(LockingProtocol::wound_wait()), true),
            (Arc::new(LockingProtocol::wait_die()), false),
            (Arc::new(LockingProtocol::no_wait()), false),
            (Arc::new(SiloProtocol::new()), false),
            (Arc::new(Ic3Protocol::new(vec![template], false)), false),
        ];
        for (proto, honoured) in protos {
            let name = proto.name().to_owned();
            let session = Session::new(Arc::clone(&db), proto);
            let mut txn = session.begin();
            txn.piece_begin(0).unwrap();
            txn.update(t, 1, |row| row.set(1, Value::I64(1))).unwrap();
            let before = txn.ctx().accesses[0].state;
            txn.retire(t, 1);
            let expected = if honoured {
                crate::txn::AccessState::Retired
            } else {
                before
            };
            assert_eq!(txn.ctx().accesses[0].state, expected, "{name}");
            txn.piece_end().unwrap();
            txn.commit().unwrap();
        }
    }

    /// A protocol that must never be called: every method but `name`
    /// panics.
    struct Unreachable;

    impl Protocol for Unreachable {
        fn name(&self) -> &str {
            "UNREACHABLE"
        }
        fn begin(&self, _: &Database, _: &TxnOptions) -> TxnCtx {
            unreachable!("begin")
        }
        fn read<'c>(
            &self,
            _: &Database,
            _: &'c mut TxnCtx,
            _: TableId,
            _: u64,
        ) -> Result<&'c Row, Abort> {
            unreachable!("read")
        }
        fn update(
            &self,
            _: &Database,
            _: &mut TxnCtx,
            _: TableId,
            _: u64,
            _: &mut dyn FnMut(&mut Row),
        ) -> Result<(), Abort> {
            unreachable!("update")
        }
        fn retire(&self, _: &Database, _: &mut TxnCtx, _: TableId, _: u64) {
            unreachable!("retire")
        }
        fn lock_insert(
            &self,
            _: &Database,
            _: &mut TxnCtx,
            _: TableId,
            _: u64,
        ) -> Result<(), Abort> {
            unreachable!("lock_insert")
        }
        fn scan(
            &self,
            _: &Database,
            _: &mut TxnCtx,
            _: TableId,
            _: std::ops::RangeInclusive<u64>,
        ) -> Result<Vec<Row>, Abort> {
            unreachable!("scan")
        }
        fn commit(&self, _: &Database, _: &mut TxnCtx, _: &Mutex<WalBuffer>) -> Result<(), Abort> {
            unreachable!("commit")
        }
        fn redo_replayable(&self) -> bool {
            unreachable!("redo_replayable")
        }
        fn abort(&self, _: &Database, _: &mut TxnCtx) -> usize {
            unreachable!("abort")
        }
        fn piece_begin(&self, _: &Database, _: &mut TxnCtx, _: usize) -> Result<(), Abort> {
            unreachable!("piece_begin")
        }
        fn piece_end(&self, _: &Database, _: &mut TxnCtx) -> Result<(), Abort> {
            unreachable!("piece_end")
        }
    }

    #[test]
    fn snapshot_transactions_never_call_the_protocol() {
        let (db, t) = setup();
        db.table(t).enable_ordered_index();
        let session = Session::new(Arc::clone(&db), Arc::new(Unreachable));
        let mut snap = session.snapshot();
        snap.piece_begin(0).unwrap();
        assert_eq!(snap.read(t, 2).unwrap().get_i64(1), 0);
        assert_eq!(snap.read(t, 2).unwrap().get_i64(1), 0, "re-read");
        snap.retire(t, 2);
        assert!(snap.read_opt(t, 999).unwrap().is_none());
        assert_eq!(
            snap.read(t, 999).unwrap_err(),
            Abort(AbortReason::SnapshotNotVisible)
        );
        assert_eq!(snap.scan(t, 3..=100).unwrap().len(), 5);
        snap.piece_end().unwrap();
        snap.commit().unwrap();
        drop(session.snapshot());
        assert_eq!(db.snapshots.active_count(), 0);
    }

    #[test]
    #[should_panic(expected = "read-only snapshot transactions cannot update")]
    fn snapshot_rejects_update() {
        let (db, t) = setup();
        let session = bamboo_session(&db);
        let mut snap = session.snapshot();
        let _ = snap.update(t, 1, |row| row.set(1, Value::I64(1)));
    }

    #[test]
    #[should_panic(expected = "read-only snapshot transactions cannot insert")]
    fn snapshot_rejects_insert() {
        let (db, t) = setup();
        let session = bamboo_session(&db);
        let mut snap = session.snapshot();
        let _ = snap.insert(
            t,
            100,
            Row::from(vec![Value::U64(100), Value::I64(0)]),
            None,
        );
    }
}
